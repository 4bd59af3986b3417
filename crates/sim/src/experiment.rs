//! The experiment harness behind the `report` CLI.
//!
//! Every table `report` prints (README, "The `report` CLI") is built by
//! one of the `*_table_spec` functions below; the `report` binary in
//! `fatrobots-bench` simply executes them and prints the rows, and the
//! benchmark harness reuses the same functions so the published numbers and
//! the benchmarked code paths cannot drift apart.

use std::fmt;

use fatrobots_baselines::{CentroidBaseline, GreedyNearest, SmallN};
use fatrobots_core::{AlgorithmParams, LocalAlgorithm, Strategy};
use fatrobots_geometry::kernel::shadow::PredicateSite;
use fatrobots_scheduler::{
    Adversary, CollisionSeeker, CrashStop, Liveness, PersistentSleep, RandomAsync, RoundRobin,
    SlowCoalition, SlowRobot, StopHappy,
};

use crate::engine::{CancelFlag, SimConfig, Simulator};
use crate::init::Shape;
use crate::json::JsonValue;
use crate::shadow::{ShadowExecutor, ShadowStats};
use crate::sweep::{SupervisionPolicy, SweepFailure, SweepPool};
use crate::world::WorldMode;

/// Which local decision rule a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The paper's gathering algorithm.
    Paper,
    /// The centroid-pursuit baseline.
    Centroid,
    /// The greedy nearest-neighbour baseline.
    GreedyNearest,
    /// The small-n (n ≤ 4) exhaustive baseline.
    SmallN,
}

impl StrategyKind {
    /// All strategies, for sweeps.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Paper,
        StrategyKind::Centroid,
        StrategyKind::GreedyNearest,
        StrategyKind::SmallN,
    ];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Paper => "agm-gathering",
            StrategyKind::Centroid => "centroid",
            StrategyKind::GreedyNearest => "greedy-nearest",
            StrategyKind::SmallN => "small-n",
        }
    }

    /// The strategy with the given [`Self::name`], or `None`.
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the strategy for a system of `n` robots.
    pub fn build(&self, n: usize) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Paper => Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
            StrategyKind::Centroid => Box::new(CentroidBaseline::new()),
            StrategyKind::GreedyNearest => Box::new(GreedyNearest::new()),
            StrategyKind::SmallN => Box::new(SmallN::new()),
        }
    }
}

/// Which asynchronous schedule a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryKind {
    /// Round-robin, full-speed moves (friendly).
    RoundRobin,
    /// Seeded random robot order and random move truncation.
    RandomAsync,
    /// Every move stopped after δ (maximally obstructive mover schedule).
    StopHappy,
    /// One victim robot always crawls at δ while the rest run full speed
    /// (the schedule behind the paper's bad configurations).
    SlowRobot,
    /// Prefers scheduling the closest pair of movers (provokes collisions).
    CollisionSeeker,
    /// Fault injection: `k` seed-chosen victims permanently stop activating
    /// after a seed-derived warm-up (the crash-stop fault the paper's
    /// liveness condition 1 excludes). The run is settled on the survivors.
    CrashStop {
        /// Number of victims (clamped to `n - 1`).
        k: usize,
    },
    /// Fault injection: `k` seed-chosen victims are starved for a long
    /// seeded window of scheduling decisions, then resume.
    PersistentSleep {
        /// Number of victims (clamped to `n - 1`).
        k: usize,
    },
    /// Fault injection: a `k`-robot seed-chosen coalition is always
    /// truncated to δ while everyone else runs full speed.
    SlowCoalition {
        /// Coalition size (clamped to `n`).
        k: usize,
    },
}

impl AdversaryKind {
    /// All adversaries, for sweeps. The fault injectors participate with
    /// `k = 1` so the determinism matrix and the adversary table pin them
    /// alongside the fault-free schedules; the fuzzer explores larger `k`.
    pub const ALL: [AdversaryKind; 8] = [
        AdversaryKind::RoundRobin,
        AdversaryKind::RandomAsync,
        AdversaryKind::StopHappy,
        AdversaryKind::SlowRobot,
        AdversaryKind::CollisionSeeker,
        AdversaryKind::CrashStop { k: 1 },
        AdversaryKind::PersistentSleep { k: 1 },
        AdversaryKind::SlowCoalition { k: 1 },
    ];

    /// Short name used in reports (independent of fault parameters).
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::RoundRobin => "round-robin",
            AdversaryKind::RandomAsync => "random-async",
            AdversaryKind::StopHappy => "stop-happy",
            AdversaryKind::SlowRobot => "slow-robot",
            AdversaryKind::CollisionSeeker => "collision-seeker",
            AdversaryKind::CrashStop { .. } => "crash-stop",
            AdversaryKind::PersistentSleep { .. } => "persistent-sleep",
            AdversaryKind::SlowCoalition { .. } => "slow-coalition",
        }
    }

    /// The fault parameter `k` (0 for the fault-free schedules).
    pub fn fault_k(&self) -> usize {
        match self {
            AdversaryKind::CrashStop { k }
            | AdversaryKind::PersistentSleep { k }
            | AdversaryKind::SlowCoalition { k } => *k,
            _ => 0,
        }
    }

    /// The kind with the given [`Self::name`] and fault parameter `k`
    /// (ignored for fault-free kinds), or `None` for an unknown name. The
    /// inverse of [`Self::name`]/[`Self::fault_k`], used by the fuzzer's
    /// fixture loader.
    pub fn from_name(name: &str, k: usize) -> Option<AdversaryKind> {
        Some(match name {
            "round-robin" => AdversaryKind::RoundRobin,
            "random-async" => AdversaryKind::RandomAsync,
            "stop-happy" => AdversaryKind::StopHappy,
            "slow-robot" => AdversaryKind::SlowRobot,
            "collision-seeker" => AdversaryKind::CollisionSeeker,
            "crash-stop" => AdversaryKind::CrashStop { k },
            "persistent-sleep" => AdversaryKind::PersistentSleep { k },
            "slow-coalition" => AdversaryKind::SlowCoalition { k },
            _ => return None,
        })
    }

    /// Builds the adversary for a system of `n` robots (seeded where
    /// applicable). The slow-robot schedule derives its victim from the
    /// seed, so a seed sweep drags out a different robot each run instead
    /// of always picking robot 0; the fault injectors derive victims and
    /// fault timing from the seed the same way.
    pub fn build(&self, seed: u64, n: usize) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::RoundRobin => Box::new(RoundRobin::new()),
            AdversaryKind::RandomAsync => Box::new(RandomAsync::new(seed)),
            AdversaryKind::StopHappy => Box::new(StopHappy::new()),
            AdversaryKind::SlowRobot => Box::new(SlowRobot::for_system(seed, n)),
            AdversaryKind::CollisionSeeker => Box::new(CollisionSeeker::new()),
            AdversaryKind::CrashStop { k } => Box::new(CrashStop::new(seed, n, *k)),
            AdversaryKind::PersistentSleep { k } => Box::new(PersistentSleep::new(seed, n, *k)),
            AdversaryKind::SlowCoalition { k } => Box::new(SlowCoalition::new(seed, n, *k)),
        }
    }
}

/// A fully specified run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Number of robots.
    pub n: usize,
    /// Seed for the initial configuration and (where applicable) the
    /// adversary.
    pub seed: u64,
    /// Initial configuration shape.
    pub shape: Shape,
    /// Local decision rule.
    pub strategy: StrategyKind,
    /// Asynchronous schedule.
    pub adversary: AdversaryKind,
    /// Liveness distance δ.
    pub delta: f64,
    /// Event budget.
    pub max_events: usize,
    /// Run the exact-arithmetic shadow oracle alongside the engine and
    /// attach its divergence tallies to the summary. Only meaningful for
    /// [`StrategyKind::Paper`] (the oracle replays the paper's kernelised
    /// Compute pipeline); other strategies ignore it. Off by default — the
    /// oracle roughly triples per-Compute cost.
    pub shadow: bool,
    /// How the world answers queries: the incremental sparse store (the
    /// default) or from-scratch reference recomputation. Both are
    /// event-for-event identical.
    pub world_mode: WorldMode,
    /// Ignored; kept because perfbench names it. Like
    /// [`SimConfig::threads`], it affects no run and is not recorded in
    /// reports or checkpoint journals.
    pub threads: usize,
    /// Configuration-sampling period ([`SimConfig::sample_every`]). The
    /// default matches the engine's; the `scale` table sets 0 — a single
    /// predicate sample at n = 10⁴ forces the whole lazy visibility graph
    /// and would dwarf the event window it is meant to measure.
    pub sample_every: usize,
}

impl RunSpec {
    /// A reasonable default specification for `n` robots and a seed: random
    /// initial configuration, the paper's algorithm, the random-async
    /// adversary, and an event budget that scales with `n`.
    pub fn new(n: usize, seed: u64) -> Self {
        RunSpec {
            n,
            seed,
            shape: Shape::Random,
            strategy: StrategyKind::Paper,
            adversary: AdversaryKind::RandomAsync,
            delta: 1e-3,
            max_events: 60_000 + 20_000 * n,
            shadow: false,
            world_mode: WorldMode::Sparse,
            threads: 1,
            sample_every: SimConfig::default().sample_every,
        }
    }
}

/// The measurable outcome of one run, flattened for table building.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The specification that produced this summary.
    pub spec: RunSpec,
    /// `true` when every robot terminated and the final configuration was
    /// connected and fully visible.
    pub gathered: bool,
    /// `true` when every robot terminated (whether or not gathered).
    pub terminated: bool,
    /// Events applied.
    pub events: usize,
    /// Look events per robot (completed LCM cycles per robot).
    pub cycles_per_robot: f64,
    /// Total distance travelled by all robots.
    pub distance: f64,
    /// First event at which the configuration was fully visible, if ever.
    pub first_fully_visible: Option<usize>,
    /// First event at which the configuration was connected, if ever.
    pub first_connected: Option<usize>,
    /// Fraction of sampled steps before full visibility where the hull did
    /// not shrink (Lemma 20 witness).
    pub expansion_monotonicity: Option<f64>,
    /// Fraction of sampled steps after full visibility where the hull did
    /// not grow (Lemma 21 witness).
    pub convergence_monotonicity: Option<f64>,
    /// Pairs the incremental world found clean at a row's first refresh
    /// (computed earlier through another row) or on a direct probe. A
    /// re-Look plans only its row's dirty pairs and counts no hit for the
    /// clean ones it reuses, so this is not the pairs answered from the
    /// cache, and hits + misses is not the pairs Looked at.
    pub visibility_cache_hits: u64,
    /// Pair recomputes: every pairwise-visibility answer the world had to
    /// compute.
    pub visibility_cache_misses: u64,
    /// Compute events answered by replaying the memoized decision (the
    /// robot's view version was unchanged since its previous decision).
    pub decision_cache_hits: u64,
    /// Compute events that ran the full Compute pipeline.
    pub decision_cache_misses: u64,
    /// Always 0: every stale hull is rebuilt. Kept only because the
    /// benchmark harness names it.
    pub hull_repairs: u64,
    /// Rebuilds of the world's lazily maintained hull.
    pub hull_rebuilds: u64,
    /// Visibility pair-store entries materialized by the end of the run:
    /// only the pairs actually computed (0 in the scratch world).
    pub world_pair_entries: u64,
    /// Always 0: it counted the corridor registrations of worlds above 128
    /// robots, and every world now scans its pair slab on a move instead.
    /// Kept, with its report key, only because the benchmark harness
    /// names it.
    pub world_pair_registrations: u64,
    /// Robots permanently crashed by a fired crash-stop fault (0 for
    /// fault-free adversaries).
    pub fault_crashed_robots: u64,
    /// Scheduling decisions taken while a persistent-sleep victim was
    /// starved (0 for fault-free adversaries).
    pub fault_starved_directives: u64,
    /// Directives truncated to δ by a slow coalition (0 for fault-free
    /// adversaries).
    pub fault_truncated_directives: u64,
    /// Shadow-oracle tallies, present when the spec requested the oracle
    /// and the strategy was the paper's algorithm.
    pub shadow: Option<ShadowStats>,
}

impl RunSummary {
    /// The run as one flat JSON record: every [`RunSpec`] field but the
    /// inert `threads`, then every metric. This is the per-run record of
    /// `bench_report.json` and the payload of a checkpoint journal row.
    pub fn to_json(&self) -> JsonValue {
        let spec = &self.spec;
        let int = |v: u64| JsonValue::Int(v as i64);
        JsonValue::Obj(vec![
            ("n".into(), int(spec.n as u64)),
            ("seed".into(), int(spec.seed)),
            ("shape".into(), JsonValue::Str(spec.shape.name().into())),
            (
                "strategy".into(),
                JsonValue::Str(spec.strategy.name().into()),
            ),
            (
                "adversary".into(),
                JsonValue::Str(spec.adversary.name().into()),
            ),
            ("fault_k".into(), int(spec.adversary.fault_k() as u64)),
            ("delta".into(), JsonValue::num(spec.delta)),
            ("max_events".into(), int(spec.max_events as u64)),
            (
                "world_mode".into(),
                JsonValue::Str(spec.world_mode.name().into()),
            ),
            ("sample_every".into(), int(spec.sample_every as u64)),
            ("shadow_requested".into(), JsonValue::Bool(spec.shadow)),
            ("gathered".into(), JsonValue::Bool(self.gathered)),
            ("terminated".into(), JsonValue::Bool(self.terminated)),
            ("events".into(), int(self.events as u64)),
            (
                "cycles_per_robot".into(),
                JsonValue::num(self.cycles_per_robot),
            ),
            ("distance".into(), JsonValue::num(self.distance)),
            (
                "first_fully_visible".into(),
                JsonValue::opt_int(self.first_fully_visible),
            ),
            (
                "first_connected".into(),
                JsonValue::opt_int(self.first_connected),
            ),
            (
                "expansion_monotonicity".into(),
                JsonValue::opt_num(self.expansion_monotonicity),
            ),
            (
                "convergence_monotonicity".into(),
                JsonValue::opt_num(self.convergence_monotonicity),
            ),
            (
                "visibility_cache_hits".into(),
                int(self.visibility_cache_hits),
            ),
            (
                "visibility_cache_misses".into(),
                int(self.visibility_cache_misses),
            ),
            ("decision_cache_hits".into(), int(self.decision_cache_hits)),
            (
                "decision_cache_misses".into(),
                int(self.decision_cache_misses),
            ),
            ("hull_repairs".into(), int(self.hull_repairs)),
            ("hull_rebuilds".into(), int(self.hull_rebuilds)),
            ("world_pair_entries".into(), int(self.world_pair_entries)),
            (
                "world_pair_registrations".into(),
                int(self.world_pair_registrations),
            ),
            (
                "fault_crashed_robots".into(),
                int(self.fault_crashed_robots),
            ),
            (
                "fault_starved_directives".into(),
                int(self.fault_starved_directives),
            ),
            (
                "fault_truncated_directives".into(),
                int(self.fault_truncated_directives),
            ),
            (
                "shadow".into(),
                self.shadow.as_ref().map_or(JsonValue::Null, shadow_json),
            ),
        ])
    }

    /// The strict inverse of [`Self::to_json`]: `None` unless `record` is
    /// exactly what `to_json` writes for some summary without oracle stats
    /// — every key present, in order and correctly typed, every name known,
    /// and `shadow` null.
    pub fn from_json(record: &JsonValue) -> Option<RunSummary> {
        let field = |key: &str| record.get(key);
        let count = |key: &str| field(key)?.as_u64();
        let size = |key: &str| usize::try_from(count(key)?).ok();
        let name = |key: &str| field(key)?.as_str();
        let flag = |key: &str| field(key)?.as_bool();
        let float = |key: &str| field(key)?.as_f64();
        // `Some(None)` for null, `None` for a value `parse` rejects.
        fn nullable<T>(
            value: &JsonValue,
            parse: impl FnOnce(&JsonValue) -> Option<T>,
        ) -> Option<Option<T>> {
            match value {
                JsonValue::Null => Some(None),
                value => parse(value).map(Some),
            }
        }
        let opt_size = |key: &str| nullable(field(key)?, |v| usize::try_from(v.as_u64()?).ok());
        let opt_float = |key: &str| nullable(field(key)?, JsonValue::as_f64);
        let spec = RunSpec {
            n: size("n")?,
            seed: count("seed")?,
            shape: Shape::from_name(name("shape")?)?,
            strategy: StrategyKind::from_name(name("strategy")?)?,
            adversary: AdversaryKind::from_name(name("adversary")?, size("fault_k")?)?,
            delta: float("delta")?,
            max_events: size("max_events")?,
            shadow: flag("shadow_requested")?,
            world_mode: WorldMode::from_name(name("world_mode")?)?,
            sample_every: size("sample_every")?,
            // Only the inert `threads` field is left to the default.
            ..RunSpec::new(0, 0)
        };
        let summary = RunSummary {
            spec,
            gathered: flag("gathered")?,
            terminated: flag("terminated")?,
            events: size("events")?,
            cycles_per_robot: float("cycles_per_robot")?,
            distance: float("distance")?,
            first_fully_visible: opt_size("first_fully_visible")?,
            first_connected: opt_size("first_connected")?,
            expansion_monotonicity: opt_float("expansion_monotonicity")?,
            convergence_monotonicity: opt_float("convergence_monotonicity")?,
            visibility_cache_hits: count("visibility_cache_hits")?,
            visibility_cache_misses: count("visibility_cache_misses")?,
            decision_cache_hits: count("decision_cache_hits")?,
            decision_cache_misses: count("decision_cache_misses")?,
            hull_repairs: count("hull_repairs")?,
            hull_rebuilds: count("hull_rebuilds")?,
            world_pair_entries: count("world_pair_entries")?,
            world_pair_registrations: count("world_pair_registrations")?,
            fault_crashed_robots: count("fault_crashed_robots")?,
            fault_starved_directives: count("fault_starved_directives")?,
            fault_truncated_directives: count("fault_truncated_directives")?,
            shadow: None,
        };
        // Rejects what the field reads above let through: extra or
        // reordered keys, a fault parameter on a fault-free adversary, and
        // a non-null `shadow`.
        (summary.to_json() == *record).then_some(summary)
    }
}

/// The shadow-oracle tallies of one run as a JSON record.
fn shadow_json(stats: &ShadowStats) -> JsonValue {
    let first = stats
        .first_divergence
        .as_ref()
        .map_or(JsonValue::Null, |d| {
            JsonValue::Obj(vec![
                ("event".into(), JsonValue::Int(d.event as i64)),
                ("robot".into(), JsonValue::Int(d.robot as i64)),
                (
                    "site".into(),
                    d.site
                        .map_or(JsonValue::Null, |s| JsonValue::Str(s.name().into())),
                ),
                ("eps".into(), JsonValue::Str(format!("{:?}", d.eps))),
                ("exact".into(), JsonValue::Str(format!("{:?}", d.exact))),
            ])
        });
    // Per-site counters, only for sites the replay actually hit, keyed by
    // the site's canonical name.
    let sites = PredicateSite::ALL
        .into_iter()
        .filter(|&site| stats.log.calls_at(site) > 0)
        .map(|site| {
            (
                site.name().to_string(),
                JsonValue::Obj(vec![
                    (
                        "calls".into(),
                        JsonValue::Int(stats.log.calls_at(site) as i64),
                    ),
                    (
                        "disagreements".into(),
                        JsonValue::Int(stats.log.disagreements_at(site) as i64),
                    ),
                ]),
            )
        })
        .collect();
    JsonValue::Obj(vec![
        ("computes".into(), JsonValue::Int(stats.computes as i64)),
        ("divergent".into(), JsonValue::Int(stats.divergent as i64)),
        (
            "predicate_flips".into(),
            JsonValue::Int(stats.predicate_flips() as i64),
        ),
        ("first_divergence".into(), first),
        ("sites".into(), JsonValue::Obj(sites)),
    ])
}

/// How a run under a [`CancelFlag`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// The run finished (terminated, or ran out of event budget) and
    /// produced its summary (boxed: the summary dwarfs the other variant).
    Completed(Box<RunSummary>),
    /// The run was stopped early by its [`CancelFlag`]; `events` is how far
    /// it got. There is no summary — a cancelled run's counters describe an
    /// arbitrary prefix, not an outcome.
    Cancelled {
        /// Events applied before the cancellation was observed.
        events: usize,
    },
}

/// Executes one run.
pub fn run(spec: &RunSpec) -> RunSummary {
    match run_with_hooks(spec, CancelFlag::default()) {
        RunStatus::Completed(summary) => *summary,
        RunStatus::Cancelled { .. } => {
            unreachable!("a flag without a deadline can never cancel a run")
        }
    }
}

/// [`run`] under a cooperative cancellation deadline, checked by the engine
/// between events ([`SimConfig::cancel`]), so a hung run stops at a clean
/// event boundary. The deadline only watches, so a completed run returns
/// exactly [`run`]'s summary.
pub fn run_with_hooks(spec: &RunSpec, cancel: CancelFlag) -> RunStatus {
    let centers = spec.shape.generate(spec.n, spec.seed);
    let config = SimConfig {
        max_events: spec.max_events,
        liveness: Liveness::new(spec.delta),
        world_mode: spec.world_mode,
        sample_every: spec.sample_every,
        cancel,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        centers,
        spec.strategy.build(spec.n),
        spec.adversary.build(spec.seed, spec.n),
        config,
    );
    let shadowing = spec.shadow && spec.strategy == StrategyKind::Paper;
    let mut oracle = shadowing.then(|| ShadowExecutor::new(spec.n));
    let outcome = match oracle.as_mut() {
        None => sim.run(),
        Some(oracle) => sim.run_observed(|sim, event| oracle.observe(sim, event)),
    };
    if outcome.cancelled {
        return RunStatus::Cancelled {
            events: outcome.events,
        };
    }
    let shadow = oracle.map(ShadowExecutor::into_stats);
    let (visibility_cache_hits, visibility_cache_misses) = sim.visibility_cache_stats();
    let (decision_cache_hits, decision_cache_misses) = sim.decision_cache_stats();
    let (hull_repairs, hull_rebuilds) = sim.hull_repair_stats();
    let (world_pair_entries, world_pair_registrations) = sim.pair_store_stats();
    let fault = sim.fault_stats();
    RunStatus::Completed(Box::new(RunSummary {
        spec: *spec,
        gathered: outcome.gathered,
        terminated: outcome.terminated,
        events: outcome.events,
        cycles_per_robot: outcome.metrics.looks as f64 / spec.n as f64,
        distance: outcome.metrics.distance_travelled,
        first_fully_visible: outcome.metrics.first_fully_visible,
        first_connected: outcome.metrics.first_connected,
        expansion_monotonicity: outcome.metrics.expansion_monotonicity(),
        convergence_monotonicity: outcome.metrics.convergence_monotonicity(),
        visibility_cache_hits,
        visibility_cache_misses,
        decision_cache_hits,
        decision_cache_misses,
        hull_repairs,
        hull_rebuilds,
        world_pair_entries,
        world_pair_registrations,
        fault_crashed_robots: fault.crashed_robots,
        fault_starved_directives: fault.starved_directives,
        fault_truncated_directives: fault.truncated_directives,
        shadow,
    }))
}

/// An aggregated row over several seeds of the same specification family.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Row label (e.g. the robot count, the adversary name, the shape).
    pub label: String,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Fraction of runs that gathered.
    pub gathered_rate: f64,
    /// Mean events per run.
    pub mean_events: f64,
    /// Mean LCM cycles per robot.
    pub mean_cycles_per_robot: f64,
    /// Mean total travelled distance.
    pub mean_distance: f64,
    /// Mean first-fully-visible event index over the runs that reached it.
    pub mean_first_fully_visible: Option<f64>,
    /// Mean expansion monotonicity over the runs that measured it.
    pub mean_expansion_monotonicity: Option<f64>,
    /// Mean convergence monotonicity over the runs that measured it.
    pub mean_convergence_monotonicity: Option<f64>,
    /// Total shadow-oracle decision divergences (ε decision ≠ exact
    /// decision) over the runs that ran the oracle; `None` when none did.
    pub shadow_divergent: Option<u64>,
    /// Total shadow-oracle predicate flips (per-site ε-vs-exact verdict
    /// disagreements, including benign ones absorbed by control flow) over
    /// the runs that ran the oracle; `None` when none did.
    pub shadow_flips: Option<u64>,
}

impl AggregateRow {
    /// Aggregates a batch of summaries under one label.
    pub fn from_summaries(label: impl Into<String>, summaries: &[RunSummary]) -> Self {
        let runs = summaries.len().max(1);
        let mean =
            |f: &dyn Fn(&RunSummary) -> f64| summaries.iter().map(f).sum::<f64>() / runs as f64;
        let mean_opt = |f: &dyn Fn(&RunSummary) -> Option<f64>| {
            let vals: Vec<f64> = summaries.iter().filter_map(f).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        };
        let shadowed: Vec<&ShadowStats> =
            summaries.iter().filter_map(|s| s.shadow.as_ref()).collect();
        AggregateRow {
            label: label.into(),
            runs: summaries.len(),
            gathered_rate: summaries.iter().filter(|s| s.gathered).count() as f64 / runs as f64,
            mean_events: mean(&|s| s.events as f64),
            mean_cycles_per_robot: mean(&|s| s.cycles_per_robot),
            mean_distance: mean(&|s| s.distance),
            mean_first_fully_visible: mean_opt(&|s| s.first_fully_visible.map(|v| v as f64)),
            mean_expansion_monotonicity: mean_opt(&|s| s.expansion_monotonicity),
            mean_convergence_monotonicity: mean_opt(&|s| s.convergence_monotonicity),
            shadow_divergent: (!shadowed.is_empty())
                .then(|| shadowed.iter().map(|s| s.divergent).sum()),
            shadow_flips: (!shadowed.is_empty())
                .then(|| shadowed.iter().map(|s| s.predicate_flips()).sum()),
        }
    }

    /// The table header matching [`fmt::Display`] output.
    pub fn header() -> &'static str {
        "label                 runs  gathered  events      cycles/robot  distance    first-FV    exp-mono  conv-mono"
    }
}

impl fmt::Display for AggregateRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:10.2}"),
            None => format!("{:>10}", "-"),
        };
        write!(
            f,
            "{:<20} {:>5} {:>9.2} {:>11.1} {:>13.1} {:>11.1} {} {} {}",
            self.label,
            self.runs,
            self.gathered_rate,
            self.mean_events,
            self.mean_cycles_per_robot,
            self.mean_distance,
            opt(self.mean_first_fully_visible),
            opt(self.mean_expansion_monotonicity),
            opt(self.mean_convergence_monotonicity),
        )
    }
}

/// A labelled family of specs — one table row before execution.
#[derive(Debug, Clone)]
pub struct SpecGroup {
    /// Row label (e.g. `n=6`, the adversary name, the shape).
    pub label: String,
    /// The runs aggregated into this row.
    pub specs: Vec<RunSpec>,
}

impl SpecGroup {
    /// A group from a label and the specs produced per seed.
    pub fn per_seed(
        label: impl Into<String>,
        seeds: &[u64],
        mut spec: impl FnMut(u64) -> RunSpec,
    ) -> Self {
        SpecGroup {
            label: label.into(),
            specs: seeds.iter().map(|&seed| spec(seed)).collect(),
        }
    }
}

/// One executed table row: the label plus every per-run summary behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Row label, carried over from the [`SpecGroup`].
    pub label: String,
    /// Per-run summaries, in seed order.
    pub summaries: Vec<RunSummary>,
}

impl GroupResult {
    /// Aggregates this group into its display row.
    pub fn aggregate(&self) -> AggregateRow {
        AggregateRow::from_summaries(self.label.clone(), &self.summaries)
    }
}

/// An executed experiment table: identity, caption, and every run grouped
/// by row. The aggregate rows are derived views ([`ExperimentTable::rows`]);
/// the per-run summaries stay available for machine-readable reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Stable identifier (`e1` … `e7`), used for CLI flags and JSON.
    pub id: &'static str,
    /// Human-readable caption printed above the table.
    pub title: String,
    /// One entry per table row.
    pub groups: Vec<GroupResult>,
}

impl ExperimentTable {
    /// The aggregate rows, one per group.
    pub fn rows(&self) -> Vec<AggregateRow> {
        self.groups.iter().map(GroupResult::aggregate).collect()
    }

    /// Every per-run summary in the table, in row-major order.
    pub fn summaries(&self) -> impl Iterator<Item = &RunSummary> {
        self.groups.iter().flat_map(|g| g.summaries.iter())
    }
}

/// A table before execution: identity, caption, and the labelled spec
/// groups. Execute with [`TableSpec::execute_supervised_on`], as the
/// `report` binary does, or with [`TableSpec::execute`] in examples and
/// tests.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Stable identifier (`e1` … `e7`).
    pub id: &'static str,
    /// Human-readable caption.
    pub title: String,
    /// One entry per table row.
    pub groups: Vec<SpecGroup>,
}

impl TableSpec {
    /// The groups flattened into one spec list, row-major. Flattening means
    /// short and long rows share the same worker pool instead of
    /// serialising on the slowest row.
    fn flat_specs(&self) -> Vec<RunSpec> {
        self.groups
            .iter()
            .flat_map(|g| g.specs.iter().copied())
            .collect()
    }

    /// Executes the table on a fresh [`SweepPool`] of `jobs` workers.
    ///
    /// # Panics
    /// Panics on the first failed run.
    pub fn execute(self, jobs: usize) -> ExperimentTable {
        let run =
            self.execute_supervised_on(&SweepPool::new(jobs), &SupervisionPolicy::default(), None);
        if let Some(failure) = run.failures.first() {
            panic!("sweep run failed: {}", failure.message);
        }
        run.table
    }

    /// Executes the table on `pool`, each run once: a panicking or
    /// watchdog-cancelled run becomes a structured [`SweepFailure`] instead
    /// of aborting the sweep, and with a checkpoint session the table is
    /// crash-safe — rows already in the journal are loaded instead of
    /// re-run, and every completed run is journalled as it finishes. The
    /// table is the same for every worker count.
    pub fn execute_supervised_on(
        self,
        pool: &SweepPool,
        policy: &SupervisionPolicy,
        mut checkpoint: Option<&mut crate::checkpoint::CheckpointedSweep>,
    ) -> TableRun {
        let specs = self.flat_specs();
        let mut summaries: Vec<Option<RunSummary>> = vec![None; specs.len()];
        // Partition against the journal: slot i of this table is ordinal
        // base + i of the whole invocation, in canonical execution order.
        let base = checkpoint.as_deref().map_or(0, |ck| ck.next_ordinal());
        let mut to_run: Vec<(usize, RunSpec)> = Vec::new();
        if let Some(ck) = checkpoint.as_deref_mut() {
            for (slot, &spec) in specs.iter().enumerate() {
                match ck.take_completed(base + slot as u64, &spec) {
                    Some(summary) => summaries[slot] = Some(summary),
                    None => to_run.push((slot, spec)),
                }
            }
            ck.advance(specs.len() as u64);
        } else {
            to_run.extend(specs.iter().copied().enumerate());
        }

        // Journal completions as they arrive, translating pool slots (the
        // index into `to_run`) back to table slots and global ordinals.
        let run_specs: Vec<RunSpec> = to_run.iter().map(|&(_, spec)| spec).collect();
        let outcome = pool.run_supervised(&run_specs, policy, &mut |pool_slot, summary| {
            if let Some(ck) = checkpoint.as_deref_mut() {
                ck.journal_completed(base + to_run[pool_slot].0 as u64, summary);
            }
        });
        for (pool_slot, summary) in outcome.summaries.into_iter().enumerate() {
            if let Some(summary) = summary {
                summaries[to_run[pool_slot].0] = Some(summary);
            }
        }
        TableRun {
            table: self.assemble(summaries),
            failures: outcome.failures,
        }
    }

    /// Slices flat per-slot summaries back into their rows. Failed runs
    /// leave holes, so their row aggregates over the seeds that completed.
    fn assemble(self, summaries: Vec<Option<RunSummary>>) -> ExperimentTable {
        let mut summaries = summaries.into_iter();
        let groups = self
            .groups
            .into_iter()
            .map(|g| GroupResult {
                label: g.label,
                summaries: summaries.by_ref().take(g.specs.len()).flatten().collect(),
            })
            .collect();
        ExperimentTable {
            id: self.id,
            title: self.title,
            groups,
        }
    }
}

/// The outcome of a table execution: the assembled table (failed runs leave
/// holes in their rows) plus the structured failures, for the report's
/// telemetry section and exit code.
#[derive(Debug, Clone)]
pub struct TableRun {
    /// The assembled table; rows aggregate over their completed runs only.
    pub table: ExperimentTable,
    /// One entry per failed run, in input order.
    pub failures: Vec<SweepFailure>,
}

/// Robot counts at or above this threshold run with the bounded
/// [`LARGE_N_EVENT_CAP`] budget in [`scaling_table_spec`].
pub const LARGE_N_THRESHOLD: usize = 48;

/// Event budget for the large-`n` rows of E1. The paper's algorithm does
/// not reach the gathering postcondition at these sizes within any
/// practical budget (see the livelock note in ROADMAP.md), so the rows
/// measure event throughput and visibility-cache behaviour over a fixed
/// window instead of time-to-gather.
pub const LARGE_N_EVENT_CAP: usize = 60_000;

/// E1 — gathering success and cost versus the number of robots, with the
/// default [`LARGE_N_EVENT_CAP`] budget on the large-`n` rows.
pub fn scaling_table_spec(ns: &[usize], seeds: &[u64]) -> TableSpec {
    scaling_table_spec_with_cap(ns, seeds, LARGE_N_EVENT_CAP)
}

/// [`scaling_table_spec`] with an explicit event budget for the rows at or
/// above [`LARGE_N_THRESHOLD`] (the `report --event-cap` flag). The cap
/// only ever *lowers* a row's budget — small-n rows keep their
/// scale-with-n default unless the cap is tighter.
pub fn scaling_table_spec_with_cap(ns: &[usize], seeds: &[u64], event_cap: usize) -> TableSpec {
    TableSpec {
        id: "e1",
        title: "E1 — gathering cost vs number of robots (random starts, random-async adversary)"
            .into(),
        groups: ns
            .iter()
            .map(|&n| {
                SpecGroup::per_seed(format!("n={n}"), seeds, |seed| {
                    let mut spec = RunSpec::new(n, seed);
                    if n >= LARGE_N_THRESHOLD {
                        spec.max_events = spec.max_events.min(event_cap);
                    }
                    spec
                })
            })
            .collect(),
    }
}

/// E2/E3 — hull-expansion and convergence monotonicity per initial shape.
pub fn expansion_table_spec(n: usize, seeds: &[u64]) -> TableSpec {
    TableSpec {
        id: "e2e3",
        title: format!(
            "E2/E3 — hull expansion & convergence monotonicity by initial shape (n = {n})"
        ),
        groups: [Shape::Clusters, Shape::Line, Shape::Random]
            .iter()
            .map(|&shape| {
                SpecGroup::per_seed(format!("shape={}", shape.name()), seeds, |seed| RunSpec {
                    shape,
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

/// E4 — behaviour under each adversary.
pub fn adversary_table_spec(n: usize, seeds: &[u64]) -> TableSpec {
    TableSpec {
        id: "e4",
        title: format!("E4 — behaviour under each adversary (n = {n}, random starts)"),
        groups: AdversaryKind::ALL
            .iter()
            .map(|&adv| {
                SpecGroup::per_seed(adv.name(), seeds, |seed| RunSpec {
                    adversary: adv,
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

/// E5 — the paper's algorithm versus the baselines, for a given `n`.
pub fn baseline_table_spec(n: usize, seeds: &[u64]) -> TableSpec {
    TableSpec {
        id: "e5",
        title: format!("E5 — the paper's algorithm vs the baselines (n = {n}, random starts)"),
        groups: StrategyKind::ALL
            .iter()
            .map(|&strategy| {
                SpecGroup::per_seed(strategy.name(), seeds, |seed| RunSpec {
                    strategy,
                    // Baselines get a smaller budget: they either succeed
                    // quickly (n ≤ 4) or plateau without terminating.
                    max_events: if strategy == StrategyKind::Paper {
                        RunSpec::new(n, seed).max_events
                    } else {
                        30_000
                    },
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

/// E6 — sensitivity to the liveness distance δ.
pub fn delta_table_spec(n: usize, deltas: &[f64], seeds: &[u64]) -> TableSpec {
    TableSpec {
        id: "e6",
        title: format!("E6 — sensitivity to the liveness distance delta (n = {n})"),
        groups: deltas
            .iter()
            .map(|&delta| {
                SpecGroup::per_seed(format!("delta={delta}"), seeds, |seed| RunSpec {
                    delta,
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

/// E7 — sensitivity to the initial configuration shape.
pub fn shape_table_spec(n: usize, seeds: &[u64]) -> TableSpec {
    TableSpec {
        id: "e7",
        title: format!("E7 — sensitivity to the initial configuration shape (n = {n})"),
        groups: Shape::ALL
            .iter()
            .map(|&shape| {
                SpecGroup::per_seed(shape.name(), seeds, |seed| RunSpec {
                    shape,
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

/// Event budget for the `scale` table rows. The rows measure per-event
/// cost (row-init Looks over the sparse world), not time-to-gather, so a
/// short fixed window keeps the quick report fast while still exercising
/// tens of thousands of pair kernels per row at n = 10⁴ (each n = 10⁴
/// Look initializes a full sparse row: ~10⁴ corridor gathers and
/// strip-cover certificates: ~200 ms on one core, about half that when the
/// world fans the row out over two).
pub const SCALE_TABLE_EVENT_CAP: usize = 64;

/// `scale` — large-n event throughput over the sparse world (n ∈ {10³,
/// 10⁴}), so the scaling curve the CI `scale` job gates is also tracked in
/// the committed baseline. One seed per row: the hex packing is
/// deterministic and the round-robin schedule seed-free, so extra seeds
/// would replay the same run. `--event-cap` below the default
/// [`SCALE_TABLE_EVENT_CAP`] tightens the window further.
pub fn scale_table_spec(event_cap: usize) -> TableSpec {
    TableSpec {
        id: "scale",
        title: "SCALE — event throughput at large n (hex packing, sparse world, round-robin)"
            .into(),
        groups: [1_000usize, 10_000]
            .iter()
            .map(|&n| {
                SpecGroup::per_seed(format!("n={n}"), &[1], |seed| RunSpec {
                    shape: Shape::Hex,
                    adversary: AdversaryKind::RoundRobin,
                    max_events: SCALE_TABLE_EVENT_CAP.min(event_cap),
                    sample_every: 0,
                    ..RunSpec::new(n, seed)
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_names_and_build() {
        let strategy_names: std::collections::HashSet<_> =
            StrategyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(strategy_names.len(), StrategyKind::ALL.len());
        let adversary_names: std::collections::HashSet<_> =
            AdversaryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(adversary_names.len(), AdversaryKind::ALL.len());
        for k in StrategyKind::ALL {
            let _ = k.build(5);
        }
        for k in AdversaryKind::ALL {
            let _ = k.build(1, 5);
        }
    }

    #[test]
    fn single_run_with_the_paper_algorithm_gathers_a_small_system() {
        let spec = RunSpec {
            max_events: 120_000,
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            ..RunSpec::new(5, 3)
        };
        let summary = run(&spec);
        assert!(summary.terminated, "5 robots on a circle must terminate");
        assert!(summary.gathered);
        assert!(summary.cycles_per_robot >= 1.0);
    }

    #[test]
    fn shadow_spec_attaches_oracle_stats_without_changing_the_run() {
        let base = RunSpec {
            max_events: 120_000,
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            ..RunSpec::new(5, 3)
        };
        let plain = run(&base);
        let shadowed = run(&RunSpec {
            shadow: true,
            ..base
        });
        // The oracle only observes: every engine-level field agrees.
        assert_eq!(plain.gathered, shadowed.gathered);
        assert_eq!(plain.events, shadowed.events);
        assert_eq!(plain.distance, shadowed.distance);
        let stats = shadowed.shadow.expect("paper strategy + shadow spec");
        assert!(stats.computes > 0);
        assert!(stats.log.calls() > 0);
        assert!(plain.shadow.is_none());
        // Baselines do not run the paper pipeline; the oracle stays off.
        let baseline = run(&RunSpec {
            shadow: true,
            strategy: StrategyKind::Centroid,
            max_events: 2_000,
            ..base
        });
        assert!(baseline.shadow.is_none());
    }

    #[test]
    fn run_summary_json_parser_is_strict() {
        let summary = run(&RunSpec {
            max_events: 5_000,
            ..RunSpec::new(3, 1)
        });
        let JsonValue::Obj(entries) = summary.to_json() else {
            panic!("a run record is an object")
        };
        let parse =
            |entries: Vec<(String, JsonValue)>| RunSummary::from_json(&JsonValue::Obj(entries));
        let with = |key: &str, value: JsonValue| {
            let mut entries = entries.clone();
            entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            parse(entries)
        };
        assert_eq!(parse(entries.clone()), Some(summary));
        for (i, (key, _)) in entries.iter().enumerate() {
            let mut missing = entries.clone();
            missing.remove(i);
            assert_eq!(parse(missing), None, "{key} missing");
        }
        for key in ["shape", "strategy", "adversary", "world_mode"] {
            assert_eq!(
                with(key, JsonValue::Str("no-such-name".into())),
                None,
                "{key}"
            );
        }
        assert_eq!(
            with("delta", JsonValue::Int(1)),
            None,
            "an integer is no float"
        );
        assert_eq!(
            with("seed", JsonValue::Int(-1)),
            None,
            "counts are unsigned"
        );
        assert_eq!(with("gathered", JsonValue::Int(1)), None);
        assert_eq!(
            with("fault_k", JsonValue::Int(2)),
            None,
            "k of a fault-free kind"
        );
        assert_eq!(with("shadow", JsonValue::Obj(vec![])), None, "oracle stats");
        let mut extra = entries.clone();
        extra.push(("extra".into(), JsonValue::Null));
        assert_eq!(parse(extra), None, "unknown keys");
        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        assert_eq!(parse(swapped), None, "keys out of order");
    }

    #[test]
    fn aggregate_row_mixes_runs() {
        let spec = RunSpec {
            max_events: 5_000,
            ..RunSpec::new(3, 1)
        };
        let summaries = vec![run(&spec), run(&RunSpec { seed: 2, ..spec })];
        let row = AggregateRow::from_summaries("n=3", &summaries);
        assert_eq!(row.runs, 2);
        assert!(row.gathered_rate >= 0.0 && row.gathered_rate <= 1.0);
        assert!(!format!("{row}").is_empty());
        assert!(!AggregateRow::header().is_empty());
    }

    #[test]
    fn executed_tables_slice_summaries_back_into_rows() {
        let seeds = [1u64, 2];
        let groups = vec![
            SpecGroup::per_seed("n=3", &seeds, |seed| RunSpec {
                max_events: 5_000,
                ..RunSpec::new(3, seed)
            }),
            SpecGroup::per_seed("n=4", &seeds, |seed| RunSpec {
                max_events: 5_000,
                ..RunSpec::new(4, seed)
            }),
        ];
        let table = TableSpec {
            id: "t",
            title: "test table".into(),
            groups,
        }
        .execute(2);
        assert_eq!(table.id, "t");
        assert_eq!(table.groups.len(), 2);
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.summaries().count(), 4);
        for group in &table.groups {
            assert_eq!(group.summaries.len(), seeds.len());
            for (summary, &seed) in group.summaries.iter().zip(seeds.iter()) {
                assert_eq!(summary.spec.seed, seed);
            }
        }
        assert_eq!(table.groups[0].summaries[0].spec.n, 3);
        assert_eq!(table.groups[1].summaries[0].spec.n, 4);
    }

    #[test]
    fn tables_agree_with_direct_runs() {
        let seeds = [1u64];
        let table = scaling_table_spec(&[3], &seeds).execute(2);
        let direct = run(&RunSpec::new(3, 1));
        assert_eq!(table.groups[0].summaries[0], direct);
        assert_eq!(table.rows()[0].label, "n=3");
    }

    #[test]
    fn adversary_names_round_trip_with_their_fault_parameter() {
        for kind in AdversaryKind::ALL {
            let k = kind.fault_k().max(2);
            let parsed =
                AdversaryKind::from_name(kind.name(), if kind.fault_k() > 0 { k } else { 0 });
            match (kind, parsed.expect("every listed adversary parses")) {
                (AdversaryKind::CrashStop { .. }, AdversaryKind::CrashStop { k: pk }) => {
                    assert_eq!(pk, k)
                }
                (
                    AdversaryKind::PersistentSleep { .. },
                    AdversaryKind::PersistentSleep { k: pk },
                ) => {
                    assert_eq!(pk, k)
                }
                (AdversaryKind::SlowCoalition { .. }, AdversaryKind::SlowCoalition { k: pk }) => {
                    assert_eq!(pk, k)
                }
                (original, parsed) => assert_eq!(parsed, original),
            }
        }
        assert_eq!(AdversaryKind::from_name("no-such-schedule", 1), None);
    }

    #[test]
    fn crash_stop_run_terminates_and_reports_live_gathering() {
        // Five robots on a circle with one crash victim: the run must not
        // busy-wait on the dead robot — the effective-termination detector
        // ends it — and the fault counter must land in the summary.
        // (Whether the survivors manage to gather is configuration-specific;
        // seed 3 is pinned by the fixture-style assertions below.)
        let spec = RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::CrashStop { k: 1 },
            max_events: 200_000,
            ..RunSpec::new(5, 3)
        };
        let summary = run(&spec);
        assert_eq!(
            summary.fault_crashed_robots, 1,
            "the crash must actually fire and be reported"
        );
        assert_eq!(summary.fault_starved_directives, 0);
        assert_eq!(summary.fault_truncated_directives, 0);
        if summary.gathered {
            assert!(summary.terminated, "gathered implies terminated");
        }
        // Determinism: the faulty run replays bit-identically.
        assert_eq!(run(&spec), summary);
    }

    #[test]
    fn persistent_sleep_and_slow_coalition_counters_reach_the_summary() {
        let sleep = run(&RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::PersistentSleep { k: 2 },
            max_events: 60_000,
            ..RunSpec::new(6, 1)
        });
        assert!(
            sleep.fault_starved_directives > 0,
            "a 6-robot run must enter the sleep window and starve the victims"
        );
        assert_eq!(sleep.fault_crashed_robots, 0);
        let slow = run(&RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::SlowCoalition { k: 2 },
            max_events: 60_000,
            ..RunSpec::new(6, 1)
        });
        assert!(
            slow.fault_truncated_directives > 0,
            "the coalition's directives must be δ-truncated"
        );
        // Fault-free adversaries keep all three counters at zero.
        let clean = run(&RunSpec {
            max_events: 60_000,
            ..RunSpec::new(5, 1)
        });
        assert_eq!(
            (
                clean.fault_crashed_robots,
                clean.fault_starved_directives,
                clean.fault_truncated_directives
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn baseline_small_n_idles_for_large_systems() {
        let spec = RunSpec {
            strategy: StrategyKind::SmallN,
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 2_000,
            ..RunSpec::new(6, 1)
        };
        let summary = run(&spec);
        assert!(
            !summary.gathered,
            "the small-n baseline cannot gather 6 robots"
        );
    }

    /// A small two-row table spec with one poisoned run (n = 0 panics in
    /// the initializer) sitting among healthy ones.
    fn poisoned_table_spec() -> TableSpec {
        let healthy = |seed| RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 120_000,
            ..RunSpec::new(3, seed)
        };
        TableSpec {
            id: "e1",
            title: "supervision smoke".into(),
            groups: vec![
                SpecGroup {
                    label: "healthy".into(),
                    specs: vec![healthy(1), healthy(2)],
                },
                SpecGroup {
                    label: "poisoned".into(),
                    specs: vec![
                        healthy(3),
                        RunSpec {
                            max_events: 10,
                            ..RunSpec::new(0, 1)
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn supervised_table_converts_a_panicking_run_into_a_failure_row() {
        let pool = SweepPool::new(2);
        let run =
            poisoned_table_spec().execute_supervised_on(&pool, &SupervisionPolicy::default(), None);
        // The poisoned run becomes one structured failure row; every
        // healthy run still completes.
        assert_eq!(run.failures.len(), 1);
        let failure = &run.failures[0];
        assert_eq!(failure.spec.n, 0);
        assert!(failure.message.starts_with("panic:"), "{}", failure.message);
        let rows = run.table.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].runs, 2, "the healthy row keeps both seeds");
        assert_eq!(
            rows[1].runs, 1,
            "the poisoned row aggregates over its surviving run"
        );
        // The surviving rows match an unsupervised execution of the same
        // healthy specs.
        let healthy_only = TableSpec {
            groups: poisoned_table_spec()
                .groups
                .into_iter()
                .map(|mut g| {
                    g.specs.retain(|s| s.n > 0);
                    g
                })
                .collect(),
            ..poisoned_table_spec()
        };
        let reference = healthy_only.execute(2);
        assert_eq!(run.table.rows(), reference.rows());
    }

    #[test]
    #[should_panic(expected = "sweep run failed: panic:")]
    fn execute_panics_on_a_failed_run() {
        let _ = poisoned_table_spec().execute(2);
    }

    #[test]
    fn supervised_table_resumes_from_its_checkpoint_journal() {
        let dir = std::env::temp_dir().join(format!("fatrobots-ck-resume-{}", std::process::id()));
        let journal = dir.join("journal.frck");
        let spec = || TableSpec {
            groups: poisoned_table_spec()
                .groups
                .into_iter()
                .map(|mut g| {
                    g.specs.retain(|s| s.n > 0);
                    g
                })
                .collect(),
            ..poisoned_table_spec()
        };
        let pool = SweepPool::new(2);
        let policy = SupervisionPolicy::default();

        let mut first =
            crate::checkpoint::CheckpointedSweep::open(&journal).expect("journal opens");
        let cold = spec().execute_supervised_on(&pool, &policy, Some(&mut first));
        assert_eq!(
            first.telemetry().resumed_rows,
            0,
            "a fresh journal resumes nothing"
        );

        // A second session over the same journal replays every row from
        // the journal — bit-identical, without re-running anything.
        let mut second =
            crate::checkpoint::CheckpointedSweep::open(&journal).expect("journal reopens");
        let warm = spec().execute_supervised_on(&pool, &policy, Some(&mut second));
        assert_eq!(second.telemetry().resumed_rows, 3, "all three runs resume");
        assert_eq!(warm.table, cold.table, "resumed tables are identical");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
