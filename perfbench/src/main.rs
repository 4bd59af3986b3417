//! Benchmark of the fat-robot gathering simulator, end to end and layer by
//! layer.
//!
//! ```sh
//! python3 perfbench/run.py --workload random_n96 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` the workload runs untraced through the experiment
//! harness's own entry points (`TableSpec::execute_supervised_on` on a
//! `SweepPool`, as `report` runs its tables), as many times as fit in
//! `--seconds`, and the end-to-end metrics are medians over those
//! repetitions. With
//! `--trace 1` each repetition runs the workload untraced, then traced (see
//! [`trace`]), and reports the per-layer metrics. Every run is checked: it
//! must not panic, must repeat its first repetition exactly, must match its
//! row in the committed quick baseline if it has one, and a traced run must
//! reproduce the untraced one. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod baseline;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use fatrobots_sim::experiment::{self, RunSpec, RunSummary, TableSpec};
use fatrobots_sim::sweep::{SupervisionPolicy, SweepPool};

use baseline::Baseline;
use trace::{percentile_us, Layers};
use workload::{flat_specs, Workload};

const USAGE: &str = "usage: perfbench --workload <random_n96|tables_n6|hex_n10k> \
[--seed N] [--workload-seed N] [--seconds S] [--trace 0|1]";

/// Set-up is repeated until both bounds are met (or the cap is hit).
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

struct Cli {
    workload: Workload,
    /// The run seed. It is recorded but selects no input: a workload's cost
    /// swings far more between start seeds than between runs, so its inputs
    /// come from the pinned workload seed.
    seed: u64,
    /// The seed the workload's runs are generated from.
    workload_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut workload_seed) = (None, 0, None);
    let (mut seconds, mut trace) = (10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload-seed" => {
                workload_seed = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--workload-seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        workload,
        seed,
        workload_seed: workload_seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Whether to start another repetition: always the first, then while the
/// median repetition so far still fits in the `seconds` budget.
fn another_rep(cli: &Cli, start: Instant, rep_seconds: &[f64]) -> bool {
    rep_seconds.is_empty() || start.elapsed().as_secs_f64() + median(rep_seconds) <= cli.seconds
}

/// One named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

/// Accumulates the output checks over a benchmark invocation.
struct Checker {
    baseline: Baseline,
    /// The first repetition's summaries, which every later one must equal.
    reference: Option<Vec<RunSummary>>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }

    /// Checks one pass over the workload's `runs` runs.
    fn check_pass(&mut self, runs: usize, pass: &Pass) {
        self.attempted += runs;
        for failure in &pass.failures {
            self.fail(failure);
        }
        for summary in &pass.summaries {
            if let Err(why) = self.baseline.check(summary) {
                self.fail(&why);
            }
        }
        match &self.reference {
            None => self.reference = Some(pass.summaries.clone()),
            Some(reference) => {
                let same = reference
                    .iter()
                    .zip(&pass.summaries)
                    .filter(|(a, b)| a == b);
                let differing = reference.len().max(pass.summaries.len()) - same.count();
                for _ in 0..differing {
                    self.fail("a run did not repeat its first repetition");
                }
            }
        }
    }
}

/// One untraced pass over the workload.
struct Pass {
    wall_s: f64,
    peak_mib: f64,
    summaries: Vec<RunSummary>,
    failures: Vec<String>,
}

/// Runs every table on `pool` with the fail-fast supervision policy: a
/// panicking run becomes a failure entry instead of aborting the sweep.
fn pooled_pass(tables: &[TableSpec], pool: &mut SweepPool) -> Pass {
    let tables = tables.to_vec();
    let policy = SupervisionPolicy::fail_fast();
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    alloc::reset_peak();
    let start = Instant::now();
    for table in tables {
        let run = table.execute_supervised_on(pool, &policy, None);
        summaries.extend(run.table.summaries().cloned());
        failures.extend(run.failures.into_iter().map(|f| f.message));
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        peak_mib: alloc::peak_mib(),
        summaries,
        failures,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[mid],
        _ => (sorted[mid - 1] + sorted[mid]) / 2.0,
    }
}

/// Time from spec to the first event, as the median of repeated set-ups:
/// `SweepPool::new`, then `Shape::generate` and `Simulator::new` for every
/// run. Also returns the world mode each run's simulator was built in.
fn measure_setup(specs: &[RunSpec], jobs: usize) -> (f64, Vec<String>) {
    let mut modes: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < SETUP_MAX_REPS
        && (samples.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        let t0 = Instant::now();
        let pool = SweepPool::new(jobs);
        let sims: Vec<_> = specs
            .iter()
            .map(|spec| {
                trace::simulator(
                    spec,
                    spec.strategy.build(spec.n),
                    spec.adversary.build(spec.seed, spec.n),
                )
            })
            .collect();
        samples.push(t0.elapsed().as_secs_f64());
        if modes.is_empty() {
            for sim in &sims {
                let mode = format!("{:?}", sim.world().mode()).to_lowercase();
                if !modes.contains(&mode) {
                    modes.push(mode);
                }
            }
        }
        drop((sims, pool));
    }
    (median(&samples), modes)
}

/// Untraced repetitions for `seconds`: the end-to-end metrics.
fn end_to_end(cli: &Cli, jobs: usize, setup_s: f64, checker: &mut Checker) -> Vec<Metric> {
    let tables = cli.workload.tables(cli.workload_seed);
    let runs = flat_specs(&tables).len();
    let mut pool = SweepPool::new(jobs);
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while another_rep(cli, start, &walls) {
        let pass = pooled_pass(&tables, &mut pool);
        checker.check_pass(runs, &pass);
        walls.push(pass.wall_s);
        peaks.push(pass.peak_mib);
    }
    let events: usize = checker.reference.iter().flatten().map(|s| s.events).sum();
    let wall_s = median(&walls);
    eprintln!(
        "perfbench: {} repetitions of {runs} runs, wall {walls:.4?} s",
        walls.len()
    );
    vec![
        ("wall_s", wall_s, "s"),
        ("events_per_s", events as f64 / wall_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_heap_mib", median(&peaks), "MiB"),
    ]
}

/// Untraced, then traced repetitions for `seconds`: the per-layer metrics.
fn per_layer(cli: &Cli, jobs: usize, checker: &mut Checker) -> Result<Vec<Metric>, String> {
    let tables = cli.workload.tables(cli.workload_seed);
    let specs = flat_specs(&tables);
    let mut pool = SweepPool::new(jobs);
    let mut sets: Vec<Vec<Metric>> = Vec::new();
    let mut set_seconds = Vec::new();
    let mut counts = None;
    let start = Instant::now();
    while another_rep(cli, start, &set_seconds) {
        let set_start = Instant::now();
        let pass = pooled_pass(&tables, &mut pool);
        checker.check_pass(specs.len(), &pass);
        if pass.summaries.len() != specs.len() {
            return Err("a run failed untraced; there is nothing to trace against".into());
        }
        // Per-run untraced time, for the sweep's busy time and the tracing
        // overhead. A single inline run is its own pass.
        let busy_s = if jobs > 1 {
            let mut busy = 0.0;
            for (spec, summary) in specs.iter().zip(&pass.summaries) {
                let t0 = Instant::now();
                let serial = experiment::run(spec);
                busy += t0.elapsed().as_secs_f64();
                checker.attempted += 1;
                if &serial != summary {
                    checker.fail("a serial run differs from its pooled run");
                }
            }
            busy
        } else {
            pass.wall_s
        };
        let mut layers = Layers::default();
        for (spec, summary) in specs.iter().zip(&pass.summaries) {
            trace::run_traced(spec, summary, &mut layers)?;
        }
        checker.attempted += specs.len();
        if *counts.get_or_insert(layers.counts) != layers.counts {
            return Err(format!(
                "traced counts changed between repetitions: {:?} vs {:?}",
                counts, layers.counts
            ));
        }
        let capacity = jobs as f64 * pass.wall_s;
        let traced_s = layers.times.traced_wall / 1e9;
        let mut set = layer_metrics(&mut layers);
        set.extend([
            ("sweep.runs", specs.len() as f64, "count"),
            ("sweep.busy_s", busy_s, "s"),
            ("sweep.efficiency", busy_s / capacity, "ratio"),
            ("sweep.idle_s", capacity - busy_s, "s"),
            ("trace.overhead_ratio", traced_s / busy_s - 1.0, "ratio"),
        ]);
        sets.push(set);
        set_seconds.push(set_start.elapsed().as_secs_f64());
    }
    eprintln!(
        "perfbench: {} traced repetitions of {} runs",
        sets.len(),
        specs.len()
    );
    // Counts repeat exactly; times are medians over the repetitions.
    Ok((0..sets[0].len())
        .map(|i| {
            let (name, _, unit) = sets[0][i];
            let values: Vec<f64> = sets.iter().map(|set| set[i].1).collect();
            (name, median(&values), unit)
        })
        .collect())
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(layers: &mut Layers) -> Vec<Metric> {
    let c = layers.counts;
    let t = &mut layers.times;
    let total = t.total();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let secs = |ns: f64| ns / 1e9;
    let sample = t.sample.max(0.0);
    let witness = c.pair_recomputes - c.cover_answers;
    let computes = (c.decides + c.replays) as f64;
    vec![
        ("scheduler.calls", c.scheduler_calls as f64, "count"),
        ("scheduler.self_s", secs(t.scheduler), "s"),
        ("scheduler.share", ratio(t.scheduler, total), "ratio"),
        ("look.events", c.looks as f64, "count"),
        ("look.self_s", secs(t.look), "s"),
        ("look.share", ratio(t.look, total), "ratio"),
        (
            "look.p50_us",
            percentile_us(&mut t.look_samples, 0.50),
            "us",
        ),
        (
            "look.p99_us",
            percentile_us(&mut t.look_samples, 0.99),
            "us",
        ),
        ("look.pair_hits", c.pair_hits as f64, "count"),
        ("look.pair_recomputes", c.pair_recomputes as f64, "count"),
        ("look.cover_answers", c.cover_answers as f64, "count"),
        ("look.witness_searches", witness as f64, "count"),
        (
            "look.recomputes_per_look",
            ratio(c.pair_recomputes as f64, c.looks as f64),
            "ratio",
        ),
        (
            "look.witness_per_look",
            ratio(witness as f64, c.looks as f64),
            "ratio",
        ),
        (
            "look.hit_ratio",
            ratio(c.pair_hits as f64, (c.pair_hits + c.pair_recomputes) as f64),
            "ratio",
        ),
        ("compute.decides", c.decides as f64, "count"),
        ("compute.decide_s", secs(t.decide), "s"),
        (
            "compute.decide_p50_us",
            percentile_us(&mut t.decide_samples, 0.50),
            "us",
        ),
        ("compute.replays", c.replays as f64, "count"),
        ("compute.replay_s", secs(t.replay), "s"),
        (
            "compute.replay_ratio",
            ratio(c.replays as f64, computes),
            "ratio",
        ),
        ("compute.share", ratio(t.decide + t.replay, total), "ratio"),
        ("move.events", c.moves as f64, "count"),
        ("move.self_s", secs(t.moves), "s"),
        ("move.share", ratio(t.moves, total), "ratio"),
        ("move.collisions", c.collisions as f64, "count"),
        ("move.cert_skips", c.cert_skips as f64, "count"),
        ("dispatch.self_s", secs(t.dispatch), "s"),
        ("dispatch.share", ratio(t.dispatch, total), "ratio"),
        ("sample.steps", c.sample_steps as f64, "count"),
        ("sample.self_s", secs(sample), "s"),
        ("sample.share", ratio(sample, total), "ratio"),
        ("sample.hull_repairs", c.hull_repairs as f64, "count"),
        ("sample.hull_rebuilds", c.hull_rebuilds as f64, "count"),
        ("world.pair_entries", c.pair_entries as f64, "count"),
        ("world.registrations", c.registrations as f64, "count"),
    ]
}

/// A JSON string literal (the record only holds plain ASCII text).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let baseline = match Baseline::load() {
        Ok(baseline) => baseline,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = cli.workload.jobs();
    let specs = flat_specs(&cli.workload.tables(cli.workload_seed));
    let pinned = specs
        .iter()
        .filter(|s| baseline.pinned(s).is_some())
        .count();
    let (setup_s, modes) = measure_setup(&specs, jobs);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"workload_seed\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"jobs\": {jobs}, \"runs\": {}, \"pinned_runs\": {pinned}, \
         \"rustc\": {}, \"profile\": {}, \"world_modes\": [{}]}}",
        json_str(cli.workload.name()),
        cli.seed,
        cli.workload_seed,
        u8::from(cli.trace),
        specs.len(),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_PROFILE")),
        modes
            .iter()
            .map(|m| json_str(m))
            .collect::<Vec<_>>()
            .join(", "),
    );

    let mut checker = Checker {
        baseline,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let metrics = if cli.trace {
        match per_layer(&cli, jobs, &mut checker) {
            Ok(metrics) => metrics,
            Err(err) => {
                eprintln!("perfbench: aborted: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&cli, jobs, setup_s, &mut checker)
    };
    let (attempted, failed) = (checker.attempted.max(1), checker.failed);

    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    println!(
        "{:<26} {:>16.6} ratio ({} failed of {} runs)",
        "failed_ratio",
        failed as f64 / attempted as f64,
        failed,
        attempted
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
