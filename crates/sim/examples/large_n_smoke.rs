//! Release-mode large-n smoke: one n = 64 gathering run with a bounded
//! event budget, exercising the default sparse world on its small-world
//! paths (the direct pair slab scanned on every move, the row scan feeding
//! each recompute, the cached predicates) at a size the pre-cache engine
//! could not touch in CI. Exits non-zero when any invariant breaks.
//!
//! The printed visibility counters are the world's `cache_stats`: misses
//! are pair recomputes, and hits count only the clean pairs a row's first
//! refresh or a direct probe found, not those a re-Look reuses, so the two
//! give no hit rate.
//!
//! ```sh
//! cargo run --release -p fatrobots-sim --example large_n_smoke
//! ```

use std::process::ExitCode;
use std::time::Instant;

use fatrobots_core::{AlgorithmParams, LocalAlgorithm};
use fatrobots_scheduler::RoundRobin;
use fatrobots_sim::engine::{SimConfig, Simulator};
use fatrobots_sim::init::Shape;

const N: usize = 64;
const EVENT_BUDGET: usize = 40_000;

fn main() -> ExitCode {
    let centers = Shape::Random.generate(N, 1);
    let mut sim = Simulator::new(
        centers,
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(N))),
        Box::new(RoundRobin::new()),
        SimConfig {
            max_events: EVENT_BUDGET,
            ..SimConfig::default()
        },
    );
    let start = Instant::now();
    let outcome = sim.run();
    let elapsed = start.elapsed();
    let (hits, misses) = sim.visibility_cache_stats();
    println!(
        "large_n_smoke: n={N} events={} ({:.0} events/s) gathered={} looks={} \
         cache hits={hits} misses={misses}",
        outcome.events,
        outcome.events as f64 / elapsed.as_secs_f64(),
        outcome.gathered,
        outcome.metrics.looks,
    );

    let mut ok = true;
    if outcome.events == 0 {
        eprintln!("large_n_smoke: FAIL — no events were executed");
        ok = false;
    }
    if outcome.metrics.looks == 0 {
        eprintln!("large_n_smoke: FAIL — no Look snapshots were taken");
        ok = false;
    }
    if hits + misses == 0 {
        eprintln!("large_n_smoke: FAIL — the visibility cache saw no traffic");
        ok = false;
    }
    // Physical validity must hold at the end of the budget (release builds
    // skip the per-event debug assertion, so check it explicitly here).
    if !fatrobots_model::config::is_valid(sim.centers()) {
        eprintln!("large_n_smoke: FAIL — final configuration contains overlapping robots");
        ok = false;
    }
    if ok {
        println!("large_n_smoke: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
