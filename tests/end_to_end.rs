//! Integration tests: the full pipeline (initial configuration → adversary →
//! local algorithm → engine) gathers and terminates, across system sizes,
//! initial shapes and adversaries.
//!
//! These tests run in debug mode under `cargo test`, so they use moderate
//! system sizes; the larger sweeps live in the benchmark/report harness.

use fatrobots::prelude::*;
use fatrobots::sim::experiment::{run, AdversaryKind, RunSpec, StrategyKind};
use fatrobots_model::config;

fn gather(n: usize, seed: u64, shape: Shape, adversary: AdversaryKind) -> (bool, Vec<Point>) {
    let spec = RunSpec {
        shape,
        adversary,
        strategy: StrategyKind::Paper,
        ..RunSpec::new(n, seed)
    };
    let centers = shape.generate(n, seed);
    let mut sim = Simulator::new(
        centers,
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
        adversary.build(seed, n),
        SimConfig {
            max_events: spec.max_events,
            ..SimConfig::default()
        },
    );
    let outcome = sim.run();
    (outcome.gathered, sim.centers().to_vec())
}

#[test]
fn small_systems_gather_from_circle_starts() {
    for n in [2usize, 3, 4, 5, 6] {
        let (gathered, finals) = gather(n, 11, Shape::Circle, AdversaryKind::RoundRobin);
        assert!(gathered, "{n} robots on a circle must gather");
        assert!(
            config::is_valid(&finals),
            "final configuration must not overlap"
        );
        assert!(
            config::is_connected(&finals),
            "final configuration must be connected"
        );
    }
}

#[test]
fn random_starts_gather_under_the_friendly_schedule() {
    for seed in [1u64, 2, 3, 4] {
        let (gathered, finals) = gather(6, seed, Shape::Random, AdversaryKind::RoundRobin);
        assert!(gathered, "seed {seed} must gather");
        assert!(config::is_connected(&finals));
    }
}

#[test]
fn random_starts_gather_under_the_random_async_schedule() {
    for seed in [1u64, 2] {
        let (gathered, _) = gather(5, seed, Shape::Random, AdversaryKind::RandomAsync);
        assert!(
            gathered,
            "seed {seed} must gather under random-async scheduling"
        );
    }
}

#[test]
fn clustered_starts_gather() {
    let (gathered, finals) = gather(6, 5, Shape::Clusters, AdversaryKind::RoundRobin);
    assert!(gathered);
    assert!(config::is_connected(&finals));
}

#[test]
fn collinear_starts_gather() {
    // A line of robots is the canonical hard case for visibility: everyone
    // except the two ends starts occluded.
    let (gathered, _) = gather(5, 1, Shape::Line, AdversaryKind::RoundRobin);
    assert!(gathered, "a line of 5 robots must gather");
}

#[test]
fn hostile_adversaries_do_not_break_safety() {
    // Under the hostile schedules the run may need more events than the
    // default budget, but safety (no overlap) must hold at the end whether
    // or not the run finished, and the engine must not panic.
    for adversary in [
        AdversaryKind::StopHappy,
        AdversaryKind::SlowRobot,
        AdversaryKind::CollisionSeeker,
    ] {
        let (_, finals) = gather(5, 3, Shape::Circle, adversary);
        assert!(
            config::is_valid(&finals),
            "{} must preserve physical validity",
            adversary.name()
        );
    }
}

#[test]
fn already_connected_systems_terminate_without_moving_much() {
    let centers = vec![
        Point::new(0.0, 0.0),
        Point::new(2.0, 0.0),
        Point::new(1.0, 3.0_f64.sqrt()),
    ];
    let mut sim = Simulator::new(
        centers.clone(),
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(3))),
        Box::new(RoundRobin::new()),
        SimConfig::default(),
    );
    let outcome = sim.run();
    assert!(outcome.gathered);
    assert!(outcome.metrics.distance_travelled < 1e-9);
    for (before, after) in centers.iter().zip(sim.centers()) {
        assert!(before.approx_eq(*after));
    }
}

#[test]
fn baselines_fail_where_the_paper_algorithm_succeeds() {
    let seeds = [1u64, 2];
    for seed in seeds {
        let paper = run(&RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            strategy: StrategyKind::Paper,
            ..RunSpec::new(6, seed)
        });
        assert!(paper.gathered, "the paper algorithm gathers 6 robots");

        for strategy in [StrategyKind::SmallN, StrategyKind::Centroid] {
            let baseline = run(&RunSpec {
                shape: Shape::Circle,
                adversary: AdversaryKind::RoundRobin,
                strategy,
                max_events: 20_000,
                ..RunSpec::new(6, seed)
            });
            assert!(
                !baseline.gathered,
                "{} should not gather 6 fat robots",
                strategy.name()
            );
        }
    }
}

#[test]
fn run_summaries_report_consistent_metrics() {
    let s = run(&RunSpec {
        shape: Shape::Circle,
        adversary: AdversaryKind::RoundRobin,
        ..RunSpec::new(5, 9)
    });
    assert!(s.terminated && s.gathered);
    assert!(s.events > 0);
    assert!(s.cycles_per_robot >= 1.0);
    assert!(s.distance >= 0.0);
    assert!(s.first_connected.is_some());
    assert!(s.first_fully_visible.is_some());
}
