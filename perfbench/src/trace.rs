//! The traced run: per-layer time and work counts, recorded from outside
//! the simulator.
//!
//! The spec's strategy and adversary are wrapped in forwarding adapters
//! that time `Strategy::decide_with` and `Adversary::next`. The run is then
//! driven one `Simulator::step` at a time with the same `SimConfig` that
//! `experiment::run_with_hooks` builds, and each step is classified by the
//! event it returns:
//!
//! * `Look` — the world refresh of the robot's snapshot;
//! * `Compute` — a full decide when `decide_with` ran during the step, a
//!   memoized replay otherwise;
//! * `Done` / `Move` — dispatch of the pending decision;
//! * `Arrive` / `Stop` / `Collide` — motion (contact scan plus corridor
//!   drain).
//!
//! A step's self time is its duration minus the adapter spans inside it; a
//! deciding Compute is booked whole (span plus self time) to the decide
//! side, a replaying one to the replay side. Steps whose event index lands
//! on the `sample_every` grid also take a configuration sample; their
//! excess over the mean self time of their event class is booked as
//! sampling. Work counts are deltas of the world's and the engine's public
//! telemetry over the event loop. Everything is aggregated in memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fatrobots_core::{ComputeScratch, Decision, Strategy};
use fatrobots_model::LocalView;
use fatrobots_scheduler::{Adversary, Directive, Event, FaultStats, Liveness, SystemSnapshot};
use fatrobots_sim::experiment::{RunSpec, RunSummary};
use fatrobots_sim::{SimConfig, Simulator};

/// Builds the simulator for `spec` exactly as `experiment::run_with_hooks`
/// does, around the given strategy and adversary.
pub fn simulator(
    spec: &RunSpec,
    strategy: Box<dyn Strategy>,
    adversary: Box<dyn Adversary>,
) -> Simulator {
    let config = SimConfig {
        max_events: spec.max_events,
        liveness: Liveness::new(spec.delta),
        world_mode: spec.world_mode,
        threads: spec.threads.max(1),
        sample_every: spec.sample_every,
        ..SimConfig::default()
    };
    Simulator::new(
        spec.shape.generate(spec.n, spec.seed),
        strategy,
        adversary,
        config,
    )
}

/// Cumulative adapter spans: written by the adapters, read by the stepping
/// loop on the same thread (atomics only because `Strategy` is `Sync`).
#[derive(Default)]
struct Spans {
    scheduler_ns: AtomicU64,
    scheduler_calls: AtomicU64,
    decide_ns: AtomicU64,
    decides: AtomicU64,
}

impl Spans {
    fn add(ns: &AtomicU64, calls: &AtomicU64, since: Instant) {
        ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> SpanTotals {
        SpanTotals {
            scheduler_ns: self.scheduler_ns.load(Ordering::Relaxed),
            scheduler_calls: self.scheduler_calls.load(Ordering::Relaxed),
            decide_ns: self.decide_ns.load(Ordering::Relaxed),
            decides: self.decides.load(Ordering::Relaxed),
        }
    }
}

/// A reading of [`Spans`].
#[derive(Clone, Copy)]
struct SpanTotals {
    scheduler_ns: u64,
    scheduler_calls: u64,
    decide_ns: u64,
    decides: u64,
}

/// Times `Adversary::next`; forwards everything else, including the fault
/// queries the engine's termination and gathering checks depend on.
struct TimedAdversary {
    inner: Box<dyn Adversary>,
    spans: Arc<Spans>,
}

impl Adversary for TimedAdversary {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let start = Instant::now();
        let directive = self.inner.next(system);
        Spans::add(&self.spans.scheduler_ns, &self.spans.scheduler_calls, start);
        directive
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn permanently_stopped(&self, robot: usize) -> bool {
        self.inner.permanently_stopped(robot)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// Times `Strategy::decide_with`; forwards `memoizable`, without which the
/// engine would silently turn its decision cache off.
struct TimedStrategy {
    inner: Box<dyn Strategy>,
    spans: Arc<Spans>,
}

impl Strategy for TimedStrategy {
    fn decide(&self, view: &LocalView) -> Decision {
        self.inner.decide(view)
    }

    fn decide_with(&self, view: &LocalView, scratch: &mut ComputeScratch) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide_with(view, scratch);
        Spans::add(&self.spans.decide_ns, &self.spans.decides, start);
        decision
    }

    fn memoizable(&self) -> bool {
        self.inner.memoizable()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Work counts, summed over runs. Deterministic: two traced runs of one
/// workload must agree on every field.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub runs: u64,
    pub events: u64,
    pub scheduler_calls: u64,
    pub looks: u64,
    pub decides: u64,
    pub replays: u64,
    pub dispatches: u64,
    pub moves: u64,
    pub collisions: u64,
    pub sample_steps: u64,
    pub pair_hits: u64,
    pub pair_recomputes: u64,
    pub cover_answers: u64,
    pub cert_skips: u64,
    pub hull_repairs: u64,
    pub hull_rebuilds: u64,
    /// Pair-store size at the end of each run, summed.
    pub pair_entries: u64,
    pub registrations: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.runs += o.runs;
        self.events += o.events;
        self.scheduler_calls += o.scheduler_calls;
        self.looks += o.looks;
        self.decides += o.decides;
        self.replays += o.replays;
        self.dispatches += o.dispatches;
        self.moves += o.moves;
        self.collisions += o.collisions;
        self.sample_steps += o.sample_steps;
        self.pair_hits += o.pair_hits;
        self.pair_recomputes += o.pair_recomputes;
        self.cover_answers += o.cover_answers;
        self.cert_skips += o.cert_skips;
        self.hull_repairs += o.hull_repairs;
        self.hull_rebuilds += o.hull_rebuilds;
        self.pair_entries += o.pair_entries;
        self.registrations += o.registrations;
    }
}

/// Step classes whose self time is attributed to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Look,
    /// A Compute that ran `decide_with`; its self time is the engine's
    /// bookkeeping around the span.
    Decide,
    Replay,
    Dispatch,
    Move,
}

const CLASSES: usize = 5;

/// Per-layer self times in nanoseconds, summed over runs, plus the
/// per-event samples behind the percentiles.
#[derive(Debug, Default, Clone)]
pub struct Times {
    pub scheduler: f64,
    pub look: f64,
    pub decide: f64,
    pub replay: f64,
    pub dispatch: f64,
    pub moves: f64,
    pub sample: f64,
    /// Self time of every Look off the sampling grid.
    pub look_samples: Vec<u64>,
    /// Every `decide_with` span.
    pub decide_samples: Vec<u64>,
    /// Wall time of the traced runs, set-up included.
    pub traced_wall: f64,
}

impl Times {
    /// Sum of the layer self times: the traced event loop minus the
    /// stepping loop's own bookkeeping.
    pub fn total(&self) -> f64 {
        self.scheduler
            + self.look
            + self.decide
            + self.replay
            + self.dispatch
            + self.moves
            + self.sample.max(0.0)
    }
}

/// Counts and times of a workload's traced runs.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub counts: Counts,
    pub times: Times,
}

/// The simulator's cumulative telemetry counters.
struct Telemetry {
    pair_hits: u64,
    pair_recomputes: u64,
    cover_answers: u64,
    cert_skips: u64,
    hull_repairs: u64,
    hull_rebuilds: u64,
}

impl Telemetry {
    fn read(sim: &Simulator) -> Telemetry {
        let (pair_hits, pair_recomputes) = sim.visibility_cache_stats();
        let (cover_answers, cert_skips) = sim.world().cert_stats();
        let (hull_repairs, hull_rebuilds) = sim.hull_repair_stats();
        Telemetry {
            pair_hits,
            pair_recomputes,
            cover_answers,
            cert_skips,
            hull_repairs,
            hull_rebuilds,
        }
    }
}

/// Runs `spec` traced, checks that it reproduces the untraced `summary`,
/// and adds its counts and times to `layers`.
pub fn run_traced(spec: &RunSpec, summary: &RunSummary, layers: &mut Layers) -> Result<(), String> {
    let wall = Instant::now();
    let spans = Arc::new(Spans::default());
    let strategy = TimedStrategy {
        inner: spec.strategy.build(spec.n),
        spans: Arc::clone(&spans),
    };
    let adversary = TimedAdversary {
        inner: spec.adversary.build(spec.seed, spec.n),
        spans: Arc::clone(&spans),
    };
    let mut sim = simulator(spec, Box::new(strategy), Box::new(adversary));
    let start = Telemetry::read(&sim);
    let every = spec.sample_every;

    // Self time and step count per class, off and on the sampling grid.
    let mut plain = [(0u64, 0u64); CLASSES];
    let mut grid = [(0u64, 0u64); CLASSES];
    let times = &mut layers.times;
    while sim.metrics().events < spec.max_events {
        let before = spans.read();
        let t0 = Instant::now();
        let event = sim.step();
        let step_ns = t0.elapsed().as_nanos() as u64;
        let after = spans.read();
        let Some(event) = event else { break };
        let decide_ns = after.decide_ns - before.decide_ns;
        let decided = after.decides > before.decides;
        let scheduler_ns = after.scheduler_ns - before.scheduler_ns;
        let self_ns = step_ns.saturating_sub(scheduler_ns + decide_ns);
        let class = match event {
            Event::Look(_) => Class::Look,
            Event::Compute(_) if decided => Class::Decide,
            Event::Compute(_) => Class::Replay,
            Event::Done(_) | Event::Move(_) => Class::Dispatch,
            Event::Arrive(_) | Event::Stop(_) | Event::Collide(_) => Class::Move,
        };
        if decided {
            times.decide_samples.push(decide_ns);
        }
        let on_grid = every > 0 && sim.metrics().events.is_multiple_of(every);
        let slot = if on_grid {
            &mut grid[class as usize]
        } else {
            if class == Class::Look {
                times.look_samples.push(self_ns);
            }
            &mut plain[class as usize]
        };
        slot.0 += self_ns;
        slot.1 += 1;
    }
    // The engine's epilogue: the final sample and the outcome predicates.
    let before = spans.read();
    let t0 = Instant::now();
    let outcome = sim.run();
    let epilogue_ns = t0.elapsed().as_nanos() as u64;
    let end = spans.read();
    times.traced_wall += wall.elapsed().as_nanos() as f64;

    // A grid step's event costs its class's mean; the rest is sampling.
    let mut class_ns = [0f64; CLASSES];
    let mut sample_ns = epilogue_ns.saturating_sub(end.scheduler_ns - before.scheduler_ns) as f64;
    for c in 0..CLASSES {
        let (ns, count) = plain[c];
        let mean = if count > 0 {
            ns as f64 / count as f64
        } else {
            0.0
        };
        class_ns[c] = ns as f64 + grid[c].1 as f64 * mean;
        sample_ns += grid[c].0 as f64 - grid[c].1 as f64 * mean;
    }
    times.scheduler += end.scheduler_ns as f64;
    times.decide += end.decide_ns as f64 + class_ns[Class::Decide as usize];
    times.look += class_ns[Class::Look as usize];
    times.replay += class_ns[Class::Replay as usize];
    times.dispatch += class_ns[Class::Dispatch as usize];
    times.moves += class_ns[Class::Move as usize];
    times.sample += sample_ns;

    let stop = Telemetry::read(&sim);
    let (pair_entries, registrations) = sim.pair_store_stats();
    let metrics = &outcome.metrics;
    let steps = |c: Class| plain[c as usize].1 + grid[c as usize].1;
    let (looks, decides, replays) = (
        steps(Class::Look),
        steps(Class::Decide),
        steps(Class::Replay),
    );
    let (dispatches, moves) = (steps(Class::Dispatch), steps(Class::Move));
    let counts = Counts {
        runs: 1,
        events: outcome.events as u64,
        scheduler_calls: end.scheduler_calls,
        looks,
        decides: end.decides,
        replays,
        dispatches,
        moves,
        collisions: metrics.collisions as u64,
        sample_steps: grid.iter().map(|g| g.1).sum(),
        pair_hits: stop.pair_hits - start.pair_hits,
        pair_recomputes: stop.pair_recomputes - start.pair_recomputes,
        cover_answers: stop.cover_answers - start.cover_answers,
        cert_skips: stop.cert_skips - start.cert_skips,
        hull_repairs: stop.hull_repairs - start.hull_repairs,
        hull_rebuilds: stop.hull_rebuilds - start.hull_rebuilds,
        pair_entries,
        registrations,
    };

    // The classification must agree with the engine's own event counts,
    // and the traced run with the untraced one.
    let fault = sim.fault_stats();
    let checks = [
        ("looks", looks, metrics.looks as u64),
        ("decides", decides, end.decides),
        ("computes", decides + replays, metrics.computes as u64),
        (
            "dispatches",
            dispatches,
            (metrics.dones + metrics.moves) as u64,
        ),
        (
            "motion events",
            moves,
            (metrics.arrivals + metrics.stops + metrics.collisions) as u64,
        ),
        ("events", outcome.events as u64, summary.events as u64),
        ("gathered", outcome.gathered as u64, summary.gathered as u64),
        (
            "terminated",
            outcome.terminated as u64,
            summary.terminated as u64,
        ),
        (
            "distance bits",
            metrics.distance_travelled.to_bits(),
            summary.distance.to_bits(),
        ),
        (
            "visibility hits",
            stop.pair_hits,
            summary.visibility_cache_hits,
        ),
        (
            "visibility misses",
            stop.pair_recomputes,
            summary.visibility_cache_misses,
        ),
        (
            "decision hits",
            sim.decision_cache_stats().0,
            summary.decision_cache_hits,
        ),
        (
            "decision misses",
            sim.decision_cache_stats().1,
            summary.decision_cache_misses,
        ),
        ("hull repairs", stop.hull_repairs, summary.hull_repairs),
        ("hull rebuilds", stop.hull_rebuilds, summary.hull_rebuilds),
        ("pair entries", pair_entries, summary.world_pair_entries),
        (
            "registrations",
            registrations,
            summary.world_pair_registrations,
        ),
        (
            "crashed robots",
            fault.crashed_robots,
            summary.fault_crashed_robots,
        ),
        (
            "starved directives",
            fault.starved_directives,
            summary.fault_starved_directives,
        ),
        (
            "truncated directives",
            fault.truncated_directives,
            summary.fault_truncated_directives,
        ),
    ];
    for (what, traced, expected) in checks {
        if traced != expected {
            return Err(format!(
                "traced run of {spec:?} diverged: {what} {traced}, expected {expected}"
            ));
        }
    }
    layers.counts.add(&counts);
    Ok(())
}

/// Nearest-rank percentile of `samples` (sorted in place), in microseconds.
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{flat_specs, Workload};
    use fatrobots_sim::experiment::run;

    fn traced_counts(specs: &[RunSpec]) -> Counts {
        let mut layers = Layers::default();
        for spec in specs {
            let summary = run(spec);
            run_traced(spec, &summary, &mut layers)
                .expect("traced run reproduces the untraced one");
        }
        layers.counts
    }

    #[test]
    fn two_traced_runs_give_identical_counts() {
        // One seed of the n = 6 tables: every adversary and strategy, both
        // decides and replays, sampling on.
        let mut specs = flat_specs(&Workload::TablesN6.tables(1));
        specs.retain(|s| s.seed == 1);
        let first = traced_counts(&specs);
        assert_eq!(first, traced_counts(&specs));
        assert_eq!(first.runs as usize, specs.len());
        assert!(first.decides > 0 && first.replays > 0 && first.sample_steps > 0);
        assert_eq!(
            first.events,
            first.looks + first.decides + first.replays + first.dispatches + first.moves
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(percentile_us(&mut samples, 0.5), 50.0);
        assert_eq!(percentile_us(&mut samples, 0.99), 99.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
    }
}
