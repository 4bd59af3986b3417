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
//! * a robot crossing into an empty grid cell allocates that cell's site
//!   list when no list of an emptied cell is spare (a cell's list is kept
//!   for reuse when its last robot leaves, so stepping out and back is
//!   free).
//!
//! If a future seed/window change makes one of those fire, widen the
//! warm-up or pick a window without them — don't reintroduce a slack
//! budget, it hid a whole class of per-event regressions.
//!
//! A second window drives an n = 96 world whose Looks fan their rows out
//! to the world's helper pool, and measures exactly zero allocations on
//! the calling thread too. It needs a multi-core host: on one core no row
//! fans out, and the window returns early saying so. A third window, on
//! any host, steps robots out of their grid cells into empty ones and back.

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
fn fanned_out_looks_stay_within_the_allocation_budget() {
    // A hex packing of E1's n = 96, driven through the world directly:
    // every fifth robot steps beyond the certificate drift radius and
    // back, and it and a watcher re-Look after each move. A mover's
    // re-Look recomputes its whole row (95 pairs), so on a multi-core host
    // the world fans it out to the helper pool. The window counts this
    // thread's allocations only, so it pins the caller's side of every
    // fan-out (filling and posting the reused job, taking it back) and
    // the `Arc::make_mut` of each move, which must find the configuration
    // unshared, and it asserts that the window did post rows to the pool.
    // On a single-core host no row fans out, so there is nothing to pin
    // (the n = 16 window above pins the serial refresh). The engine's own
    // loop at this n gives no exact window: its collisions (each an
    // `Event::Collide` vector) never stop, and a random spread keeps
    // growing registration lists for dozens of cycles; the packing
    // settles after three.
    use fatrobots::geometry::Point;
    use fatrobots::sim::world::{World, WorldMode};

    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: one core, so no Look fans its row out");
        return;
    }
    let n = 96;
    let homes = fatrobots::sim::init::hex(n, 2.1);
    let mut world = World::new(homes.clone(), WorldMode::Sparse);
    let mut visible = Vec::new();
    let cycle = |world: &mut World, visible: &mut Vec<usize>| {
        for k in (0..n).step_by(5) {
            let home = homes[k];
            // A step toward the middle of the robot's base grid cell (the
            // world's cells are 4 units wide, aligned at the origin), so
            // no move enters an empty cell and allocates its site list —
            // the grid's cold path.
            let inward = |v: f64| if v.rem_euclid(4.0) < 2.0 { 0.06 } else { -0.06 };
            world.move_robot(
                k,
                Point::new(home.x + inward(home.x), home.y + inward(home.y)),
            );
            world.visible_of_into(k, visible);
            world.visible_of_into((k + 1) % n, visible);
            world.move_robot(k, home);
            world.visible_of_into(k, visible);
        }
    };
    // Warm-up: first rows, then cycles until every registration list,
    // pending queue and job buffer has reached its periodic capacity.
    for i in 0..n {
        world.visible_of_into(i, &mut visible);
    }
    for _ in 0..4 {
        cycle(&mut world, &mut visible);
    }
    let (_, misses_before) = world.cache_stats();
    let fanouts_before = world.fanout_rows();
    let before = allocations();
    for _ in 0..2 {
        cycle(&mut world, &mut visible);
    }
    let after = allocations();
    let (_, misses_after) = world.cache_stats();
    let fanouts = world.fanout_rows() - fanouts_before;
    eprintln!(
        "fanned-out window: {} allocations over {} pair recomputes, {fanouts} rows posted",
        after - before,
        misses_after - misses_before
    );
    assert!(
        misses_after - misses_before >= 2 * 20 * 95,
        "every mover re-Look recomputes its row"
    );
    // The other tests of this file run worlds too and may hold the pool
    // for a row, so not every post lands; most do.
    assert!(
        fanouts >= 20,
        "the window must post rows to the helper pool ({fanouts} posted)"
    );
    assert_eq!(
        after - before,
        0,
        "fanned-out Looks must not touch the heap on the calling thread"
    );
}

#[test]
fn robots_stepping_out_of_their_cell_and_back_do_not_allocate() {
    // Robots on a square lattice 8 units apart, each alone in its 4-unit
    // grid cell (the world's cells are aligned at the origin). Every robot
    // in turn steps into the empty cell beside its own, which empties the
    // cell it left, and it and a watcher re-Look; then it steps back and
    // re-Looks. Each step is beyond the certificate drift radius, so it
    // drains the mover's cells and its whole row recomputes and registers
    // again. A site list or registration list a move empties is kept,
    // cleared, for the next cell that gains an entry, so once every list
    // has reached its periodic capacity the window touches the heap on
    // this thread not once (a fan-out helper's own probe is not counted,
    // and allocates nothing in a steady state either).
    use fatrobots::geometry::Point;
    use fatrobots::sim::world::{World, WorldMode};

    let side = 8;
    let n = side * side;
    let homes: Vec<Point> = (0..n)
        .map(|i| Point::new((i % side) as f64 * 8.0 + 2.0, (i / side) as f64 * 8.0 + 2.0))
        .collect();
    let cell = |q: Point| ((q.x / 4.0).floor() as i64, (q.y / 4.0).floor() as i64);
    let out = |q: Point| Point::new(q.x + 4.0, q.y);
    for (k, &home) in homes.iter().enumerate() {
        assert_ne!(cell(home), cell(out(home)), "robot {k} leaves its cell");
        assert!(
            homes.iter().all(|&q| cell(q) != cell(out(home))),
            "robot {k} steps into an empty cell"
        );
    }
    let mut world = World::new(homes.clone(), WorldMode::Sparse);
    let mut visible = Vec::new();
    let cycle = |world: &mut World, visible: &mut Vec<usize>| {
        for (k, &home) in homes.iter().enumerate() {
            world.move_robot(k, out(home));
            world.visible_of_into(k, visible);
            world.visible_of_into((k + 1) % n, visible);
            world.move_robot(k, home);
            world.visible_of_into(k, visible);
        }
    };
    // Warm-up: first rows, then cycles until every registration list and
    // pending queue has reached its periodic capacity (eight cycles
    // suffice; two more for margin).
    for i in 0..n {
        world.visible_of_into(i, &mut visible);
    }
    for _ in 0..10 {
        cycle(&mut world, &mut visible);
    }
    let (_, misses_before) = world.cache_stats();
    let before = allocations();
    for _ in 0..2 {
        cycle(&mut world, &mut visible);
    }
    let after = allocations();
    let (_, misses_after) = world.cache_stats();
    eprintln!(
        "cell-crossing window: {} allocations over {} pair recomputes",
        after - before,
        misses_after - misses_before
    );
    assert!(
        misses_after - misses_before >= (2 * 2 * n * (n - 1)) as u64,
        "every step out and back recomputes the mover's row"
    );
    assert_eq!(
        after - before,
        0,
        "re-entering an emptied cell must not touch the heap"
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
