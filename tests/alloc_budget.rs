//! Allocation-regression guard for the steady-state event loop.
//!
//! A counting global allocator wraps the system allocator; the test runs a
//! seeded simulation to a warm steady state (every cache and scratch buffer
//! at capacity) and then measures heap allocations over a window of further
//! events. The scratch arenas, the reused views, the decision memo, the
//! in-place hull rebuild and the kernel's per-thread buffers make the
//! steady-state loop allocation-free, so the window must measure **exactly
//! zero** heap allocations.
//!
//! Three cold paths can still allocate, all rare, all amortized, and none
//! firing in this seeded collision-free window:
//!
//! * `Event::Collide` carries a `Vec<RobotId>` (collisions are occasional);
//! * a visibility-pair recompute may register itself in a grid cell whose
//!   registration list needs to grow (amortized by doubling);
//! * a robot crossing into a grid cell it never visited before allocates
//!   that cell's site list once.
//!
//! If a future seed/window change makes one of those fire, widen the
//! warm-up or pick a window without them — don't reintroduce a slack
//! budget, it hid a whole class of per-event regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fatrobots::core::{AlgorithmParams, LocalAlgorithm};
use fatrobots::scheduler::RoundRobin;
use fatrobots::sim::engine::{SimConfig, Simulator};
use fatrobots::sim::init::Shape;

/// A pass-through allocator that counts every allocation (and realloc —
/// each is a fresh heap request the steady state must not need). The
/// counter is thread-local (const-initialized, so reading it never
/// allocates): each test measures only its own thread, immune to harness
/// threads allocating concurrently.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_event_loop_stays_within_the_allocation_budget() {
    // n = 16 random starts never reach the gathering postcondition (see
    // ROADMAP), so the window below is a genuine steady-state loop through
    // the expansion/interior procedures — the regime large-n runs live in.
    let n = 16;
    let centers = Shape::Random.generate(n, 3);
    let mut sim = Simulator::new(
        centers,
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
        Box::new(RoundRobin::new()),
        SimConfig {
            max_events: usize::MAX,
            // The sampler is a diagnostic path; the budget pins the bare
            // event loop.
            sample_every: 0,
            ..SimConfig::default()
        },
    );

    // Warm-up: fill the visibility cache, the grid, the scratch arena and
    // every per-robot view buffer.
    let warmup = 6_000;
    for _ in 0..warmup {
        assert!(
            sim.step().is_some(),
            "the run must not terminate during warmup"
        );
    }

    let window = 4_000u64;
    let before = allocations();
    for _ in 0..window {
        assert!(
            sim.step().is_some(),
            "the run must not terminate mid-window"
        );
    }
    let after = allocations();

    eprintln!(
        "steady-state allocations per event: {:.4}",
        (after - before) as f64 / window as f64
    );
    // The whole loop — Look snapshots, the visibility kernel, decisions
    // (memoized or computed), view-version bumps, the in-place hull
    // rebuild, motion — runs on reused storage. This
    // seeded window is collision-free, so the cold paths documented above
    // never fire and the measurement is exact: 0 allocations total.
    assert_eq!(
        after - before,
        0,
        "the steady-state event loop must not touch the heap \
         (a scratch buffer or cache has rotted)"
    );
    let (hits, misses) = sim.decision_cache_stats();
    eprintln!("decision cache over warmup+window: {hits} hits / {misses} misses");
    assert!(
        hits > 0,
        "a warm steady-state window must replay at least some decisions"
    );
}

#[test]
fn repeated_decides_on_one_scratch_do_not_allocate() {
    // The Compute kernel in isolation: after one warm-up decision, further
    // decisions on the same arena must perform zero allocations.
    use fatrobots::geometry::Point;
    use fatrobots::model::LocalView;

    let n = 24;
    let others: Vec<Point> = (1..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64 + 0.1;
            Point::new(n as f64 * a.cos(), n as f64 * a.sin())
        })
        .collect();
    let view = LocalView::new(Point::new(0.4, 0.2), others, n);
    let algo = LocalAlgorithm::new(AlgorithmParams::for_n(n));
    let mut scratch = fatrobots::core::ComputeScratch::default();
    let warm = algo.run_with(&view, &mut scratch);

    let before = allocations();
    for _ in 0..100 {
        assert_eq!(algo.run_with(&view, &mut scratch), warm);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warm ComputeScratch decision must not touch the heap"
    );
}
