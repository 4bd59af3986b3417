//! Fast deterministic smoke test: the paper's algorithm gathers small
//! systems under the friendly round-robin schedule within a bounded event
//! budget. Everything is seeded, so a failure here is always reproducible
//! and almost always means a real regression in the core algorithm or the
//! engine, not flakiness.

use fatrobots::prelude::*;
use fatrobots::sim::experiment::{run, AdversaryKind, RunSpec, StrategyKind};
use fatrobots::sim::init;
use fatrobots_model::config;

/// One bounded, seeded gathering run from a circle of radius `spread`.
/// Wired by hand (rather than through `experiment::run`) because these
/// tests also inspect the final centers, which the run summary does not
/// expose.
fn gather_bounded(n: usize, spread: f64, max_events: usize) -> (RunOutcome, Vec<Point>) {
    let centers = init::circle(n, spread);
    let mut sim = Simulator::new(
        centers,
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
        Box::new(RoundRobin::new()),
        SimConfig {
            max_events,
            ..SimConfig::default()
        },
    );
    let outcome = sim.run();
    (outcome, sim.centers().to_vec())
}

#[test]
fn smoke_gathering_n_3_5_7_round_robin() {
    // Budgets are generous versus observed costs (hundreds to a few
    // thousand events) but tight enough that livelock fails fast.
    for (n, max_events) in [(3usize, 20_000usize), (5, 40_000), (7, 80_000)] {
        let (outcome, finals) = gather_bounded(n, 4.0 * n as f64, max_events);
        assert!(
            outcome.gathered,
            "{n} robots under RoundRobin must gather within {max_events} events"
        );
        assert!(
            config::is_valid(&finals),
            "n={n}: final discs must not overlap"
        );
        assert!(
            config::is_connected(&finals),
            "n={n}: final discs must be connected"
        );
    }
}

#[test]
fn smoke_runs_are_deterministic() {
    // Same inputs, same schedule, same outcome and same final positions:
    // the whole pipeline is free of hidden nondeterminism.
    for n in [3usize, 5, 7] {
        let (a, finals_a) = gather_bounded(n, 4.0 * n as f64, 80_000);
        let (b, finals_b) = gather_bounded(n, 4.0 * n as f64, 80_000);
        assert_eq!(a.gathered, b.gathered);
        assert_eq!(finals_a.len(), finals_b.len());
        for (pa, pb) in finals_a.iter().zip(&finals_b) {
            assert!(pa.approx_eq(*pb), "n={n}: runs diverged: {pa} vs {pb}");
        }
    }
}

#[test]
fn smoke_seeded_random_starts_gather() {
    // Same path the `report` tables and `perfbench/` use, so this smoke test
    // also exercises RunSpec plumbing; the seeded generator feeds the same
    // configuration to every run, keeping it deterministic end to end.
    // (Seed 7 at n=7 is a known livelock — see ROADMAP open items.)
    for (n, seed) in [(3usize, 1u64), (5, 1), (7, 1)] {
        let summary = run(&RunSpec {
            shape: Shape::Random,
            adversary: AdversaryKind::RoundRobin,
            strategy: StrategyKind::Paper,
            max_events: 120_000,
            ..RunSpec::new(n, seed)
        });
        assert!(
            summary.gathered,
            "{n} robots from seeded random start {seed} must gather"
        );
    }
}
