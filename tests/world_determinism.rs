//! The equivalence pin for the incremental world state: a `World`-backed
//! run must replay **event-for-event identical** to a from-scratch
//! reference recomputation, across every `Shape` × `AdversaryKind`
//! combination of the experiment matrix.
//!
//! The incremental engine ([`WorldMode::Sparse`], the default) answers Look
//! snapshots, validity, connectivity and the gathering predicate from a
//! sparse pair store with grid-indexed dirty-pair invalidation (per-level
//! corridor registrations, pending-row queues, lazy row initialization)
//! and version-tagged caches; the reference engine ([`WorldMode::Scratch`])
//! recomputes everything per query exactly like the seed engine did.
//! Identical event streams, final centers, outcomes and metrics prove the
//! caches never change observable behaviour.

use fatrobots::prelude::*;
use fatrobots::sim::experiment::{AdversaryKind, StrategyKind};
use fatrobots::sim::world::WorldMode;
use fatrobots::sim::RunOutcome;

fn run_with_config(
    n: usize,
    seed: u64,
    shape: Shape,
    adversary: AdversaryKind,
    mode: WorldMode,
    decision_cache: bool,
) -> (RunOutcome, Vec<Point>, Vec<fatrobots::scheduler::Event>) {
    let centers = shape.generate(n, seed);
    let mut sim = Simulator::new(
        centers,
        StrategyKind::Paper.build(n),
        adversary.build(seed, n),
        SimConfig {
            max_events: 12_000,
            world_mode: mode,
            decision_cache,
            ..SimConfig::default()
        },
    );
    let mut events = Vec::new();
    let outcome = sim.run_observed(|_, event| events.push(event.clone()));
    (outcome, sim.centers().to_vec(), events)
}

fn run_with_mode(
    n: usize,
    seed: u64,
    shape: Shape,
    adversary: AdversaryKind,
    mode: WorldMode,
) -> (RunOutcome, Vec<Point>, Vec<fatrobots::scheduler::Event>) {
    run_with_config(n, seed, shape, adversary, mode, true)
}

#[test]
fn world_backed_runs_replay_identically_across_the_matrix() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (cached_outcome, cached_centers, cached_events) =
                run_with_mode(5, 2, shape, adversary, WorldMode::Sparse);
            let (scratch_outcome, scratch_centers, scratch_events) =
                run_with_mode(5, 2, shape, adversary, WorldMode::Scratch);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                cached_events, scratch_events,
                "event stream diverged for {label}"
            );
            assert_eq!(
                cached_centers, scratch_centers,
                "final centers diverged for {label}"
            );
            assert_eq!(
                cached_outcome, scratch_outcome,
                "run outcome (incl. metrics and samples) diverged for {label}"
            );
            assert!(
                !cached_events.is_empty(),
                "the {label} run must actually execute events"
            );
        }
    }
}

/// The sparse-world pin on a second slice of the matrix: a larger swarm
/// (n = 7, seed 3) with the decision cache off, so every Compute reads a
/// freshly refreshed sparse row instead of replaying a memoized decision.
/// [`WorldMode::Sparse`] must replay event-for-event identical to the
/// from-scratch reference; this pins that the sparse bookkeeping
/// (per-level corridor registrations, pending-row queues, lazy row
/// initialization) never changes observable behaviour.
#[test]
fn sparse_world_runs_replay_identically_across_the_matrix() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (sparse_outcome, sparse_centers, sparse_events) =
                run_with_config(7, 3, shape, adversary, WorldMode::Sparse, false);
            let (scratch_outcome, scratch_centers, scratch_events) =
                run_with_config(7, 3, shape, adversary, WorldMode::Scratch, false);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                sparse_events, scratch_events,
                "sparse event stream diverged from scratch for {label}"
            );
            assert_eq!(
                sparse_centers, scratch_centers,
                "sparse final centers diverged from scratch for {label}"
            );
            assert_eq!(
                sparse_outcome, scratch_outcome,
                "sparse run outcome diverged from scratch for {label}"
            );
            assert!(
                !sparse_events.is_empty(),
                "the {label} run must actually execute events"
            );
        }
    }
}

/// The decision-memoization pin: with the cache on (the default), every
/// Compute event whose robot's view version is unchanged replays the
/// memoized decision instead of running `Strategy::decide_with`. The
/// algorithm is a deterministic function of the view and an unchanged
/// version guarantees an unchanged view, so the two engines must produce
/// event-for-event identical streams, final centers and outcomes across
/// the whole experiment matrix — any divergence means the view-version
/// bookkeeping let a stale decision through.
#[test]
fn memoized_decisions_replay_identically_across_the_matrix() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (cached_outcome, cached_centers, cached_events) =
                run_with_config(5, 2, shape, adversary, WorldMode::Sparse, true);
            let (fresh_outcome, fresh_centers, fresh_events) =
                run_with_config(5, 2, shape, adversary, WorldMode::Sparse, false);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                cached_events, fresh_events,
                "event stream diverged with the decision cache for {label}"
            );
            assert_eq!(
                cached_centers, fresh_centers,
                "final centers diverged with the decision cache for {label}"
            );
            assert_eq!(
                cached_outcome, fresh_outcome,
                "run outcome diverged with the decision cache for {label}"
            );
        }
    }
}

#[test]
fn larger_asynchronous_run_replays_identically() {
    // One deeper spot-check past the matrix: more robots, the seeded
    // random-async schedule, and enough events to cycle the cache through
    // many generations.
    let (cached_outcome, cached_centers, cached_events) = run_with_mode(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Sparse,
    );
    let (scratch_outcome, scratch_centers, scratch_events) = run_with_mode(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Scratch,
    );
    assert_eq!(cached_events, scratch_events);
    assert_eq!(cached_centers, scratch_centers);
    assert_eq!(cached_outcome, scratch_outcome);
    // And the same workload with the decision memo disabled: the seeded
    // async schedule interleaves Looks and Computes of different robots
    // arbitrarily, so stale-replay bugs that a round-robin schedule could
    // mask show up here.
    let (fresh_outcome, fresh_centers, fresh_events) = run_with_config(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Sparse,
        false,
    );
    assert_eq!(cached_events, fresh_events);
    assert_eq!(cached_centers, fresh_centers);
    assert_eq!(cached_outcome, fresh_outcome);
}
