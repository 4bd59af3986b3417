//! Linear-memory assertion for the sparse world: quadrupling n must not
//! come close to quadrupling-squared the heap. A world that materialized
//! the Θ(n²) pair triangle eagerly would fail this test's ratio gate by an
//! order of magnitude; the sparse store must stay linear in n plus the
//! pairs actually computed.
//!
//! This integration test owns its binary, so it can install a counting
//! global allocator without affecting any other suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fatrobots_geometry::visibility::VisibilityConfig;
use fatrobots_geometry::Point;
use fatrobots_sim::world::{World, WorldMode};

struct CountingAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
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
static COUNTING: CountingAllocator = CountingAllocator;

/// Deterministic jitter source (no RNG dependency).
fn lcg_unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Jittered hex packing of `side²` robots — the blocked-heavy regime the
/// sparse world targets (same construction as the scale smoke).
fn hex_field(side: usize) -> Vec<Point> {
    let spacing = 2.1;
    let row_h = spacing * 3f64.sqrt() / 2.0;
    let mut rng = 0x5ca1ab1e_u64;
    (0..side * side)
        .map(|i| {
            let (row, col) = (i / side, i % side);
            let stagger = if row % 2 == 1 { spacing / 2.0 } else { 0.0 };
            let jx = (lcg_unit(&mut rng) - 0.5) * 0.02;
            let jy = (lcg_unit(&mut rng) - 0.5) * 0.02;
            Point::new(col as f64 * spacing + stagger + jx, row as f64 * row_h + jy)
        })
        .collect()
}

/// Peak heap growth of a fixed sparse-world workload (build, two Look
/// rows, a few oscillating moves) as a function of n.
fn sparse_workload_peak(side: usize) -> u64 {
    let centers = hex_field(side);
    let n = centers.len();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut world = World::new(centers, VisibilityConfig::default(), WorldMode::Sparse);
    let mut visible = Vec::new();
    let movers = [n / 2 + side / 2, n / 4];
    for &m in &movers {
        world.visible_of_into(m, &mut visible);
        assert!(!visible.is_empty(), "hex robot {m} must see its ring");
    }
    let homes: Vec<Point> = movers.iter().map(|&m| world.center(m)).collect();
    for round in 0..4 {
        let d = if round % 2 == 0 { 0.02 } else { -0.02 };
        for (&m, home) in movers.iter().zip(&homes) {
            world.move_robot(m, Point::new(home.x + d, home.y));
            world.visible_of_into(m, &mut visible);
        }
    }
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

#[test]
fn sparse_world_memory_is_linear_in_n() {
    // side 32 → n=1024, side 64 → n=4096: n quadruples. A linear world
    // roughly quadruples its peak; an n² triangle would grow 16×. The
    // gate at 8× sits in the dead zone between the two, far from both.
    let small = sparse_workload_peak(32);
    let large = sparse_workload_peak(64);
    assert!(
        large < small.saturating_mul(8),
        "sparse peak grew superlinearly: {small} bytes at n=1024 vs {large} bytes at n=4096"
    );
    // Absolute sanity bound: the workload at n=4096 must stay in the tens
    // of MB (the n² triangle alone would be ~0.8 GB of entries).
    assert!(
        large < 64 * 1024 * 1024,
        "sparse workload peak at n=4096 is implausibly large: {large} bytes"
    );
}
