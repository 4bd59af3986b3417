//! Regression witness for the known livelock (see ROADMAP.md).
//!
//! `Shape::Random` with `n = 7`, `seed = 7` under the friendly `RoundRobin`
//! schedule never gathers: the run is still going at 400k events where
//! every other small seed finishes in ~2–6k. The exact-arithmetic shadow
//! oracle has since settled the cause (see
//! `livelock_window_has_no_eps_vs_exact_divergence` below and ROADMAP.md):
//! the stalled configuration is a genuine fixed point of the algorithm
//! under the simulation model, not an ε-tolerance artifact.
//!
//! The test is `#[ignore]`d because it *currently fails* — it exists so the
//! eventual fix has a ready-made witness. Run it explicitly with:
//!
//! ```sh
//! cargo test --test livelock_regression -- --ignored
//! ```
//!
//! When it passes, remove the `#[ignore]` and close the ROADMAP item.

use std::path::Path;

use fatrobots::prelude::*;
use fatrobots::sim::experiment::{run, AdversaryKind, RunSpec, StrategyKind};
use fatrobots::sim::fuzz::{self, Fixture};
use fatrobots::sim::init::Shape;

/// Shadow-oracle verdict on the livelock, pinned (see ROADMAP.md): over a
/// 30k-event window of the n=7/seed=7 stall, replaying every Compute
/// decision under the exact-arithmetic kernel produces **zero** decision
/// divergences and **zero** predicate flips. The stalled configuration is a
/// genuine fixed point of the algorithm under the simulation model — not a
/// floating-point artifact of the ε-tolerant predicates. If this test ever
/// fails with a nonzero count, a tolerance change has made ε and exact
/// geometry disagree inside the stall window: the dumped counters and the
/// first-divergence record say exactly where.
#[test]
fn livelock_window_has_no_eps_vs_exact_divergence() {
    let summary = run(&RunSpec {
        shape: Shape::Random,
        adversary: AdversaryKind::RoundRobin,
        strategy: StrategyKind::Paper,
        max_events: 30_000,
        shadow: true,
        ..RunSpec::new(7, 7)
    });
    assert!(!summary.terminated, "the known livelock is gone?!");
    let stats = summary.shadow.expect("shadow oracle ran");
    eprintln!(
        "livelock shadow oracle: {} computes replayed, {} divergences, \
         {} predicate flips, first divergence: {:?}",
        stats.computes,
        stats.divergent,
        stats.predicate_flips(),
        stats.first_divergence,
    );
    assert!(stats.computes > 0, "the oracle must replay the window");
    assert_eq!(
        stats.divergent, 0,
        "exact arithmetic newly disagrees with an ε decision inside the \
         livelock window: first divergence {:?}",
        stats.first_divergence,
    );
    assert_eq!(
        stats.predicate_flips(),
        0,
        "a predicate site newly flips between ε and exact verdicts inside \
         the livelock window (absorbed by control flow, but still a \
         tolerance-boundary crossing)"
    );
}

#[test]
#[ignore = "known livelock (ROADMAP): random n=7 seed=7 under round-robin never gathers; un-ignore with the fix"]
fn random_n7_seed7_round_robin_gathers_within_400k_events() {
    // `experiment::run` uses the default engine configuration, so this
    // witness exercises the livelock with the decision cache **enabled** —
    // if the cache ever masked (or cured) the stall, the cached-vs-fresh
    // stream pin below would catch the divergence first.
    let summary = run(&RunSpec {
        shape: Shape::Random,
        adversary: AdversaryKind::RoundRobin,
        strategy: StrategyKind::Paper,
        max_events: 400_000,
        ..RunSpec::new(7, 7)
    });
    eprintln!(
        "livelock witness telemetry: decision cache {} hits / {} misses, \
         visibility cache {} hits / {} misses, hull {} rebuilds",
        summary.decision_cache_hits,
        summary.decision_cache_misses,
        summary.visibility_cache_hits,
        summary.visibility_cache_misses,
        summary.hull_rebuilds,
    );
    assert!(
        summary.terminated,
        "livelock: still running after {} events (expected termination in ~2-6k)",
        summary.events
    );
    assert!(summary.gathered, "terminated without gathering");
}

/// The livelock must be *replayed*, never masked or altered, by the
/// decision cache: a bounded window of the stalled run with memoization
/// enabled is event-for-event identical to the always-recompute run, and
/// the cache-hit telemetry of the stalled regime is dumped for the future
/// diagnosis PR (a livelocked system re-decides the same views over and
/// over — exactly what the hit rate quantifies).
#[test]
fn livelock_window_is_identical_with_and_without_the_decision_cache() {
    let window = 30_000;
    let run_once = |decision_cache: bool| {
        let centers = Shape::Random.generate(7, 7);
        let mut sim = Simulator::new(
            centers,
            StrategyKind::Paper.build(7),
            AdversaryKind::RoundRobin.build(7, 7),
            SimConfig {
                max_events: window,
                decision_cache,
                ..SimConfig::default()
            },
        );
        let mut events = Vec::new();
        let outcome = sim.run_observed(|_, event| events.push(event.clone()));
        let stats = sim.decision_cache_stats();
        (outcome, sim.centers().to_vec(), events, stats)
    };
    let (cached_outcome, cached_centers, cached_events, (hits, misses)) = run_once(true);
    let (fresh_outcome, fresh_centers, fresh_events, _) = run_once(false);
    assert_eq!(
        cached_events, fresh_events,
        "the decision cache altered the livelocked event stream"
    );
    assert_eq!(cached_centers, fresh_centers);
    assert_eq!(cached_outcome, fresh_outcome);
    assert!(
        !cached_outcome.terminated,
        "the known livelock is gone?! un-ignore the witness above and close the ROADMAP item"
    );
    eprintln!(
        "livelocked window ({window} events): decision cache {hits} hits / {misses} misses \
         ({:.1}% of Compute events replayed)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
}

/// Every fixture the scenario fuzzer has filed under
/// `tests/fixtures/livelock/` replays to its recorded census — gathered /
/// terminated flags, event count and the *bit pattern* of the travelled
/// distance. The fuzzer (`report fuzz`) auto-files new stalls here; this
/// test picks them up without code changes, so a stall found once stays
/// found. A failure means either a genuine behavioural change in the
/// engine (diagnose before touching the fixture!) or an intentional
/// algorithm fix — in which case regenerate via
/// `report fuzz --out tests/fixtures/livelock`.
#[test]
fn fuzz_fixtures_replay_to_their_recorded_census() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/livelock");
    let fixtures = fuzz::load_fixtures(&dir).expect("fixtures parse");
    assert!(
        !fixtures.is_empty(),
        "the committed fixture set must not be empty (did {} move?)",
        dir.display()
    );
    for (path, fixture) in fixtures {
        let census = fuzz::replay(&fixture.spec);
        assert_eq!(
            census,
            fixture.expected,
            "{} no longer replays to its recorded census (spec: {:?})",
            path.display(),
            fixture.spec
        );
        assert!(
            !census.gathered,
            "{}: a livelock fixture gathered — the underlying stall is \
             fixed; fold it into the census tables and retire the fixture",
            path.display()
        );
        // The on-disk bytes are exactly the canonical serialization, so
        // the CI fuzz-smoke job can compare regenerated fixtures with a
        // plain byte diff.
        let on_disk = std::fs::read_to_string(&path).expect("fixture readable");
        let canonical = Fixture {
            spec: fixture.spec,
            expected: fixture.expected,
            origin: fixture.origin.clone(),
            shrink_steps: fixture.shrink_steps,
        }
        .to_json();
        assert_eq!(
            on_disk,
            canonical,
            "{} is not in canonical serialization",
            path.display()
        );
    }
}

/// The sibling seeds gather quickly — pinning that down keeps this witness
/// honest: when the ignored test above starts passing, the fix must not
/// have slowed the healthy seeds into the same budget.
#[test]
fn sibling_seeds_gather_quickly_under_round_robin() {
    for seed in [1, 2, 3] {
        let summary = run(&RunSpec {
            shape: Shape::Random,
            adversary: AdversaryKind::RoundRobin,
            strategy: StrategyKind::Paper,
            max_events: 60_000,
            ..RunSpec::new(7, seed)
        });
        assert!(
            summary.gathered,
            "seed {seed} must gather within 60k events"
        );
    }
}
