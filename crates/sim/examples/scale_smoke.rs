//! Release-mode sparse-world scale smoke: n = 10⁴ robots in a jittered
//! hex packing, a bounded 60 000-event Look/move workload over
//! [`WorldMode::Sparse`], and a peak-heap gate that fails on any O(n²)
//! memory regression.
//!
//! The hex packing is the regime the sparse world is built for: every
//! robot sees only its local ring (~12 neighbors), every far pair is
//! blocked, and the blocked-certificate machinery keeps a mover's far-pair
//! row clean across its oscillation. A byte-counting global allocator
//! tracks live and peak heap usage for the whole process; an eagerly
//! materialized n(n−1)/2 pair triangle (~400 MB of entries at n = 10⁴)
//! would blow the budget before the first event, so the gate cleanly
//! separates linear from quadratic. Exits non-zero when the
//! budget, the pair-store cap, the event-rate floor or any physical
//! invariant breaks.
//!
//! Each cycle performs the 16 movers' Looks first and then their moves.
//! The Looks run one after another; each mover's first Look (a 10⁴-pair
//! row) fans its pair kernels out across the host's cores inside the world
//! ([`World::visible_of_into`]), which is answer-preserving, so the final
//! world state and every cache counter are independent of the host. The
//! telemetry carries a fingerprint of that state, which the CI `scale`
//! job pins.
//!
//! Telemetry (events/s, cache/cover counters, heap, fingerprint) is
//! printed and, when `SCALE_TELEMETRY` names a path, written there as JSON
//! for the CI artifact.
//!
//! ```sh
//! cargo run --release -p fatrobots-sim --example scale_smoke
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fatrobots_geometry::Point;
use fatrobots_sim::json::JsonValue;
use fatrobots_sim::world::{World, WorldMode};

const SIDE: usize = 100;
const N: usize = SIDE * SIDE;
/// Hex-packing center spacing. With per-axis jitter ≤ 0.01 and move
/// amplitude 0.02, adjacent centers stay at distance
/// ≥ 2.1 − 2·0.015 − 2·0.02 = 2.03 > 2.0: the configuration is valid
/// throughout, and with every gap > 0 the disc union is (deterministically)
/// not connected, which pins `is_connected` without an O(n²) reference.
const SPACING: f64 = 2.1;
const EVENT_BUDGET: usize = 60_000;
/// Robots that Look and move; the event loop round-robins over them. The
/// other robots are scenery the corridor queries must prune efficiently.
const ACTIVE: usize = 16;
/// Oscillation amplitude of the active robots. Stays within the world's
/// certificate drift radius (COVER_STABILITY_RADIUS/2 = 0.025), so a
/// blocked far pair is certified once and then survives the whole run
/// without recomputes — and its registrations, kept in the certified
/// lists, cost the drains nothing but the lookup of each list.
const AMPLITUDE: f64 = 0.02;
/// Peak-heap gate. The sparse world's footprint is dominated by the
/// ACTIVE·n computed pair entries plus their 8-byte corridor
/// registrations (about 13 MB with certified pairs on their few coarse
/// cells); an n(n−1)/2 pair triangle alone would blow this at n = 10⁴,
/// and so would certified pairs registered back on their fine cells
/// (about 27 MB) plus a little slack.
const PEAK_BUDGET_BYTES: u64 = 32 * 1024 * 1024;
/// Throughput floor: the run must also *finish promptly*, not just finish.
/// Measured steady state is ~340 events/s on a weak single-core container
/// (dominated by the ~60 near-ring pair recomputes per event — certified
/// far pairs cost an in-drift move nothing); the floor trips when the certificate
/// skip path breaks and every event rescans its full row, long before the
/// job-level timeout would.
const MIN_EVENTS_PER_SEC: f64 = 100.0;

/// Pass-through allocator tracking live bytes and their high-water mark.
struct PeakAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let ptr = System.realloc(ptr, layout, new_size);
        if !ptr.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                on_alloc(new - old);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        ptr
    }
}

#[global_allocator]
static PEAK_TRACKING: PeakAllocator = PeakAllocator;

/// Deterministic jitter source (no RNG dependency).
fn lcg_unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// FNV-1a word fold.
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Order-sensitive fingerprint of the world's observable state: every
/// center's exact bit pattern plus the cache/cover/store counters. The CI
/// `scale` job gates on its exact value.
fn fingerprint(world: &World) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for c in world.centers() {
        h = fnv(h, c.x.to_bits());
        h = fnv(h, c.y.to_bits());
    }
    let (hits, misses) = world.cache_stats();
    let (entries, registrations) = world.pair_store_stats();
    let (covers, skips) = world.cert_stats();
    for v in [hits, misses, entries, registrations, covers, skips] {
        h = fnv(h, v);
    }
    h
}

fn main() -> ExitCode {
    if let Some(other) = std::env::args().nth(1) {
        eprintln!("scale_smoke: unknown argument {other}; usage: scale_smoke");
        return ExitCode::from(2);
    }

    let mut rng = 0x5ca1ab1e_u64;
    let row_h = SPACING * 3f64.sqrt() / 2.0;
    let centers: Vec<Point> = (0..N)
        .map(|i| {
            let (row, col) = (i / SIDE, i % SIDE);
            let stagger = if row % 2 == 1 { SPACING / 2.0 } else { 0.0 };
            let jx = (lcg_unit(&mut rng) - 0.5) * 0.02;
            let jy = (lcg_unit(&mut rng) - 0.5) * 0.02;
            Point::new(col as f64 * SPACING + stagger + jx, row as f64 * row_h + jy)
        })
        .collect();

    // Active robots spread across the whole field, each oscillating around
    // its home position so every event both drains its cells and
    // re-queries a warm row.
    let movers: Vec<usize> = (0..ACTIVE)
        .map(|k| k * (N / ACTIVE) + (k * 37) % SIDE)
        .collect();
    let homes: Vec<Point> = movers.iter().map(|&m| centers[m]).collect();
    const PHASES: [(f64, f64); 4] = [
        (AMPLITUDE, 0.0),
        (0.0, AMPLITUDE),
        (-AMPLITUDE, 0.0),
        (0.0, -AMPLITUDE),
    ];

    let mut world = World::new(centers, WorldMode::Sparse);
    let mut visible = Vec::new();
    let mut ok = true;
    let cycles = EVENT_BUDGET / ACTIVE;
    let start = Instant::now();
    'run: for cycle in 0..cycles {
        // Look phase: all ACTIVE movers observe the pre-move configuration.
        for &mover in &movers {
            world.visible_of_into(mover, &mut visible);
            if visible.is_empty() {
                eprintln!("scale_smoke: FAIL — robot {mover} sees nobody in cycle {cycle}");
                ok = false;
                break 'run;
            }
        }
        // Move phase: the whole cohort advances to this cycle's oscillation
        // phase, draining each mover's registrations against the warm rows.
        let (dx, dy) = PHASES[cycle % PHASES.len()];
        for (slot, &mover) in movers.iter().enumerate() {
            let home = homes[slot];
            world.move_robot(mover, Point::new(home.x + dx, home.y + dy));
        }
        if cycle % 625 == 624 {
            if !world.is_valid() {
                eprintln!("scale_smoke: FAIL — overlapping robots in cycle {cycle}");
                ok = false;
                break;
            }
            if world.is_connected() {
                eprintln!(
                    "scale_smoke: FAIL — a positive-gap hex packing cannot be a \
                     connected disc union"
                );
                ok = false;
                break;
            }
        }
    }
    let elapsed = start.elapsed();
    let events_per_sec = EVENT_BUDGET as f64 / elapsed.as_secs_f64();

    let (hits, misses) = world.cache_stats();
    let (entries, registrations) = world.pair_store_stats();
    let (covers, skips) = world.cert_stats();
    let state_fp = fingerprint(&world);
    let (live, peak) = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
    let (live_mib, peak_mib) = (
        live as f64 / (1024.0 * 1024.0),
        peak as f64 / (1024.0 * 1024.0),
    );
    println!(
        "scale_smoke: n={N} events={EVENT_BUDGET} \
         ({events_per_sec:.0} events/s) \
         cache hits={hits} misses={misses} cover answers={covers} cert skips={skips} \
         pair entries={entries} registrations={registrations} \
         heap live={live_mib:.1} MiB peak={peak_mib:.1} MiB fingerprint={state_fp:#018x}"
    );

    if !world.is_valid() {
        eprintln!("scale_smoke: FAIL — final configuration contains overlapping robots");
        ok = false;
    }
    // Only queried rows may materialize pair entries: a cap at ACTIVE·n
    // trips immediately if the sparse store regresses to the Θ(n²)
    // triangle (5·10⁷ entries at this n).
    let entry_cap = (ACTIVE * N) as u64;
    if entries > entry_cap {
        eprintln!("scale_smoke: FAIL — {entries} pair entries exceed the linear cap {entry_cap}");
        ok = false;
    }
    if peak > PEAK_BUDGET_BYTES {
        eprintln!(
            "scale_smoke: FAIL — peak heap {peak} bytes exceeds the {PEAK_BUDGET_BYTES}-byte \
             budget (an O(n²) structure is back)"
        );
        ok = false;
    }
    if events_per_sec < MIN_EVENTS_PER_SEC {
        eprintln!(
            "scale_smoke: FAIL — {events_per_sec:.0} events/s is below the \
             {MIN_EVENTS_PER_SEC} events/s floor"
        );
        ok = false;
    }

    if let Ok(path) = std::env::var("SCALE_TELEMETRY") {
        let int = |v: u64| JsonValue::Int(v as i64);
        let tenth = |v: f64| JsonValue::num((v * 10.0).round() / 10.0);
        let fields = [
            ("n", int(N as u64)),
            ("events", int(EVENT_BUDGET as u64)),
            ("events_per_sec", tenth(events_per_sec)),
            ("cache_hits", int(hits)),
            ("cache_misses", int(misses)),
            ("cover_answers", int(covers)),
            ("cert_skips", int(skips)),
            ("pair_entries", int(entries)),
            ("registrations", int(registrations)),
            ("fingerprint", JsonValue::Str(format!("{state_fp:#018x}"))),
            ("heap_live_mib", tenth(live_mib)),
            ("heap_peak_mib", tenth(peak_mib)),
            ("ok", JsonValue::Bool(ok)),
        ];
        let json = JsonValue::Obj(fields.map(|(k, v)| (k.to_string(), v)).into()).to_pretty();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("scale_smoke: FAIL — cannot write telemetry to {path}: {e}");
            ok = false;
        }
    }
    if ok {
        println!("scale_smoke: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
