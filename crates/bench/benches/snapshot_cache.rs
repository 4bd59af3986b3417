//! E9 — Look-snapshot cost under the paper's event-serial schedule: cached
//! incremental (sparse) world vs from-scratch recomputation.
//!
//! The workload is honest by construction: a real simulation (the paper's
//! algorithm under a round-robin schedule) is run once per size, and the
//! exact sequence of world operations it performs — every single-robot
//! position update and every Look snapshot — is recorded. The benchmark
//! then replays that trace against a [`World`] in each mode, so both series
//! pay for precisely the operations the engine performs, in the order the
//! event-serial model produces them (including idle decisions, truncated
//! moves and the occlusion-heavy mid-game configurations where the
//! witness-segment search is expensive).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fatrobots_core::{AlgorithmParams, LocalAlgorithm};
use fatrobots_geometry::visibility::VisibilityConfig;
use fatrobots_geometry::Point;
use fatrobots_scheduler::{Event, RoundRobin};
use fatrobots_sim::engine::{SimConfig, Simulator};
use fatrobots_sim::init::Shape;
use fatrobots_sim::world::{World, WorldMode};

/// One recorded world operation.
#[derive(Clone, Copy)]
enum Op {
    /// Robot `i` ended up at the given position after an event.
    Move(usize, Point),
    /// Robot `i` took a Look snapshot.
    Look(usize),
}

/// Runs the real engine, skipping the first `warm` events (so recording
/// starts mid-gathering, where the simulator actually spends its
/// wall-clock), then records the world-state operations of the next
/// `events` events together with the centers at recording start.
fn record_trace(n: usize, seed: u64, warm: usize, events: usize) -> (Vec<Point>, Vec<Op>) {
    let mut sim = Simulator::new(
        Shape::Random.generate(n, seed),
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
        Box::new(RoundRobin::new()),
        SimConfig::default(),
    );
    for _ in 0..warm {
        if sim.step().is_none() {
            break;
        }
    }
    let start = sim.centers().to_vec();
    let mut before = start.clone();
    let mut ops = Vec::with_capacity(events);
    for _ in 0..events {
        let Some(event) = sim.step() else { break };
        match event {
            Event::Look(id) => ops.push(Op::Look(id.0)),
            _ => {
                // At most one robot moved; record its new position.
                for (i, (&a, &b)) in before.iter().zip(sim.centers()).enumerate() {
                    if a != b {
                        ops.push(Op::Move(i, b));
                    }
                }
            }
        }
        before.copy_from_slice(sim.centers());
    }
    (start, ops)
}

/// Replays the trace against a fresh world in the given mode.
fn replay(start: &[Point], ops: &[Op], mode: WorldMode) -> usize {
    let mut world = World::new(start.to_vec(), VisibilityConfig::default(), mode);
    let mut seen_total = 0usize;
    for &op in ops {
        match op {
            Op::Move(i, p) => world.move_robot(i, p),
            Op::Look(i) => seen_total += world.visible_of(i).len(),
        }
    }
    seen_total
}

fn bench_snapshot_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("look_snapshot");
    group.sample_size(10);
    // Warm-up skips put the recording window mid-gathering; the window is
    // long enough that the one-time cost of filling the cold cache (n²/2
    // pairs) is a small fraction of the replayed pair lookups.
    for &(n, warm, events) in &[(8usize, 0, 4_000), (32, 20_000, 4_000), (96, 20_000, 6_000)] {
        let (start, ops) = record_trace(n, 3, warm, events);
        let looks = ops.iter().filter(|op| matches!(op, Op::Look(_))).count();
        // Both modes must replay to the same answers — the equivalence the
        // determinism suite pins, re-checked here on the bench workload.
        assert_eq!(
            replay(&start, &ops, WorldMode::Sparse),
            replay(&start, &ops, WorldMode::Scratch),
            "cached and scratch replays diverged at n={n}"
        );
        let input = (start, ops);
        group.bench_with_input(
            BenchmarkId::new("cached", format!("n={n}/looks={looks}")),
            &input,
            |b, (start, ops)| b.iter(|| black_box(replay(start, ops, WorldMode::Sparse))),
        );
        group.bench_with_input(
            BenchmarkId::new("scratch", format!("n={n}/looks={looks}")),
            &input,
            |b, (start, ops)| b.iter(|| black_box(replay(start, ops, WorldMode::Scratch))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot_cache);
criterion_main!(benches);
