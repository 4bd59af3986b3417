//! `report` — regenerate the experiment tables (README, "The `report` CLI").
//!
//! ```sh
//! cargo run --release -p fatrobots-bench --bin report                  # all tables
//! cargo run --release -p fatrobots-bench --bin report -- --e1         # one table
//! cargo run --release -p fatrobots-bench --bin report -- --quick      # smaller sweeps
//! cargo run --release -p fatrobots-bench --bin report -- --jobs 4     # parallel sweeps
//! cargo run --release -p fatrobots-bench --bin report -- --json out.json
//! cargo run --release -p fatrobots-bench --bin report -- --baseline old.json
//! ```
//!
//! Every table runs on a `fatrobots_sim::sweep::SweepPool` of `--jobs`
//! workers, each run once, so table output is byte-identical for every
//! `--jobs` value. Unknown flags are an error (exit code 2) — see `--help`.
//! With `--baseline` the freshly computed rows are diffed against a
//! previous `bench_report.json` and the process exits with code 1 when any
//! row regressed beyond the threshold.

use std::process::ExitCode;

use fatrobots_bench::{
    diff_against_baseline, json, print_table, report_json, SupervisionReport,
    BASELINE_EVENTS_THRESHOLD, QUICK_SEEDS, STANDARD_SEEDS,
};
use fatrobots_sim::checkpoint::{write_atomic, CheckpointedSweep};
use fatrobots_sim::experiment::{
    adversary_table_spec, baseline_table_spec, delta_table_spec, expansion_table_spec,
    scale_table_spec, scaling_table_spec_with_cap, shape_table_spec, ExperimentTable, TableSpec,
    LARGE_N_EVENT_CAP,
};
use fatrobots_sim::fuzz::{self, FuzzConfig, FuzzReport};
use fatrobots_sim::sweep::{self, SupervisionPolicy, SweepPool};

const USAGE: &str = "\
Usage: report [OPTIONS]
       report fuzz [--budget <N>] [--fuzz-seed <N>] [--out <DIR>] [--json <PATH>]

Regenerates the experiment tables (README, section \"The `report` CLI\").
With no table flags, every table is produced.

Table selection:
  --e1           E1  gathering cost vs number of robots
  --e2, --e3     E2/E3  hull expansion & convergence monotonicity by shape
  --e4           E4  behaviour under each adversary
  --e5           E5  the paper's algorithm vs the baselines
  --e6           E6  sensitivity to the liveness distance delta
  --e7           E7  sensitivity to the initial configuration shape
  --scale        SCALE  event throughput at n = 10^3 and 10^4 (hex packing,
                 sparse world; its event budget is also bounded by
                 --event-cap)
  --figures      print how to reproduce the figures (F1-F5)

Options:
  --quick        use the small seed set (3 seeds) and a reduced E1 sweep
  --shadow       run the exact-arithmetic shadow oracle alongside every
                 paper-algorithm run: every Compute decision is replayed
                 under the exact kernel and the per-run divergence tallies
                 land in the JSON report (schema v4 'shadow' records)
  --jobs <N>     worker threads for the sweeps (default: available cores;
                 output is byte-identical for every N)
  --event-cap <N>
                 event budget for E1's large-n rows (default: 60000; must
                 be a positive integer). The cap only bounds rows at or
                 above the large-n threshold — small-n rows keep their
                 scale-with-n budget unless the cap is tighter
  --checkpoint-dir <DIR>
                 journal completed rows into DIR/journal.frck (crash-safe:
                 append-only, length-framed, checksummed, stamped with
                 this build's engine id). A report killed mid-sweep and
                 re-run with the same flags resumes: completed rows load
                 from the journal, in-flight runs re-run, and the output
                 is byte-identical to an uninterrupted run modulo the
                 checkpoint counters
  --watchdog-secs <N>
                 wall-clock budget per run: a run still going at its
                 deadline is cancelled at the next event boundary.
                 Every run is attempted once; a run that panics or is
                 cancelled becomes a failure row (JSON
                 'supervision.failures'), every other run completes, and
                 report exits 1
  --json <PATH>  also write every run and aggregate row to PATH as JSON
                 (parent directories are created; the write is atomic)
  --baseline <PATH>
                 diff the fresh rows against a previous bench_report.json:
                 prints per-row deltas and exits 1 when a row's gathered
                 rate dropped or its mean events grew beyond the threshold
  --baseline-threshold <PCT>
                 relative mean-events increase (in percent) beyond which a
                 row counts as a regression (default: 10; gathered-rate
                 drops of any size always fail). Requires --baseline
  -h, --help     print this help and exit

Fuzz mode (report fuzz):
  Runs the shrinking scenario fuzzer instead of the tables: sweeps shape x
  adversary x fault x n x seed scenarios under a total event budget, flags
  every run that fails to gather within its per-scenario cap, shrinks each
  find via deterministic replay and (with --out) writes one regression
  fixture per find. Deterministic in (--fuzz-seed, --budget). Table and
  sweep flags (--e*, --quick, --shadow, --jobs, --event-cap,
  --baseline, --baseline-threshold, --figures) are rejected in fuzz mode.
  --budget <N>   total discovery event budget (default: 400000)
  --fuzz-seed <N>
                 seed of the random scenario generator (default: 7)
  --out <DIR>    write the shrunk findings as fixture JSON files into DIR
                 (created if missing)
  --json <PATH>  write the fuzz telemetry (scenario / event / shrink
                 counters plus every finding) to PATH as JSON
";

/// Parsed command line.
struct Cli {
    quick: bool,
    shadow: bool,
    jobs: usize,
    json: Option<String>,
    baseline: Option<String>,
    /// Relative `mean_events` regression threshold, as a fraction (the
    /// flag takes percent).
    baseline_threshold: f64,
    /// Event budget for E1's large-n rows (`--event-cap`).
    event_cap: usize,
    figures: bool,
    /// Directory of the crash-safe sweep journal (`--checkpoint-dir`).
    checkpoint_dir: Option<String>,
    /// Per-run wall-clock budget in seconds (`--watchdog-secs`).
    watchdog_secs: Option<u64>,
    /// Table ids (`e1` … `e7`) explicitly requested, in canonical order.
    selected: Vec<&'static str>,
    /// Fuzz mode (`report fuzz`): run the shrinking scenario fuzzer
    /// instead of the tables.
    fuzz: bool,
    /// Total discovery event budget of the fuzzer (`--budget`).
    budget: u64,
    /// Seed of the fuzzer's random scenario generator (`--fuzz-seed`).
    fuzz_seed: u64,
    /// Directory the fuzzer writes regression fixtures into (`--out`).
    out: Option<String>,
}

/// Parses arguments; `Err` carries the message for stderr (usage error).
fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        quick: false,
        shadow: false,
        jobs: sweep::default_jobs(),
        json: None,
        baseline: None,
        baseline_threshold: BASELINE_EVENTS_THRESHOLD,
        event_cap: LARGE_N_EVENT_CAP,
        figures: false,
        checkpoint_dir: None,
        watchdog_secs: None,
        selected: Vec::new(),
        fuzz: false,
        budget: FuzzConfig::default().budget,
        fuzz_seed: FuzzConfig::default().seed,
        out: None,
    };
    let mut threshold_given = false;
    let mut jobs_given = false;
    let mut event_cap_given = false;
    let mut budget_given = false;
    let mut fuzz_seed_given = false;
    // A flag that takes a path must not swallow the next flag as its value
    // (`--baseline --quick` is a missing path, not a file named --quick).
    fn path_value<'a>(
        iter: &mut std::slice::Iter<'a, String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        match iter.next() {
            Some(value) if !value.starts_with('-') => Ok(value),
            _ => Err(format!("{flag} requires a path")),
        }
    }
    fn select(selected: &mut Vec<&'static str>, id: &'static str) {
        if !selected.contains(&id) {
            selected.push(id);
        }
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "fuzz" => cli.fuzz = true,
            "--quick" => cli.quick = true,
            "--shadow" => cli.shadow = true,
            "--figures" => cli.figures = true,
            "--e1" => select(&mut cli.selected, "e1"),
            "--e2" | "--e3" => select(&mut cli.selected, "e2e3"),
            "--e4" => select(&mut cli.selected, "e4"),
            "--e5" => select(&mut cli.selected, "e5"),
            "--e6" => select(&mut cli.selected, "e6"),
            "--e7" => select(&mut cli.selected, "e7"),
            "--scale" => select(&mut cli.selected, "scale"),
            "--jobs" => {
                jobs_given = true;
                let value = iter.next().ok_or("--jobs requires a value")?;
                cli.jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a positive integer, got '{value}'"))?;
            }
            "--event-cap" => {
                event_cap_given = true;
                let value = iter.next().ok_or("--event-cap requires a value")?;
                cli.event_cap =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("--event-cap wants a positive integer, got '{value}'")
                        })?;
            }
            "--checkpoint-dir" => {
                cli.checkpoint_dir = Some(path_value(&mut iter, "--checkpoint-dir")?.clone())
            }
            "--watchdog-secs" => {
                let value = iter.next().ok_or("--watchdog-secs requires a value")?;
                cli.watchdog_secs = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("--watchdog-secs wants a positive integer, got '{value}'")
                        })?,
                );
            }
            "--json" => cli.json = Some(path_value(&mut iter, "--json")?.clone()),
            "--baseline" => cli.baseline = Some(path_value(&mut iter, "--baseline")?.clone()),
            "--out" => cli.out = Some(path_value(&mut iter, "--out")?.clone()),
            "--budget" => {
                budget_given = true;
                let value = iter.next().ok_or("--budget requires a value")?;
                cli.budget = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--budget wants a positive integer, got '{value}'"))?;
            }
            "--fuzz-seed" => {
                fuzz_seed_given = true;
                let value = iter.next().ok_or("--fuzz-seed requires a value")?;
                cli.fuzz_seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("--fuzz-seed wants an unsigned integer, got '{value}'"))?;
            }
            "--baseline-threshold" => {
                let value = iter
                    .next()
                    .ok_or("--baseline-threshold requires a percentage")?;
                let pct = value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| {
                        format!("--baseline-threshold wants a percentage >= 0, got '{value}'")
                    })?;
                cli.baseline_threshold = pct / 100.0;
                threshold_given = true;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if threshold_given && cli.baseline.is_none() {
        return Err("--baseline-threshold requires --baseline".into());
    }
    if cli.fuzz {
        // Fuzz mode is a different program: table and sweep flags are
        // rejected outright rather than silently ignored.
        let conflicts = [
            (cli.quick, "--quick"),
            (cli.shadow, "--shadow"),
            (cli.figures, "--figures"),
            (!cli.selected.is_empty(), "table selection flags"),
            (cli.baseline.is_some(), "--baseline"),
            (jobs_given, "--jobs"),
            (event_cap_given, "--event-cap"),
            (cli.checkpoint_dir.is_some(), "--checkpoint-dir"),
            (cli.watchdog_secs.is_some(), "--watchdog-secs"),
        ];
        if let Some((_, flag)) = conflicts.iter().find(|(given, _)| *given) {
            return Err(format!("{flag} cannot be combined with fuzz mode"));
        }
    } else {
        let fuzz_only = [
            (budget_given, "--budget"),
            (fuzz_seed_given, "--fuzz-seed"),
            (cli.out.is_some(), "--out"),
        ];
        if let Some((_, flag)) = fuzz_only.iter().find(|(given, _)| *given) {
            return Err(format!("{flag} requires fuzz mode ('report fuzz ...')"));
        }
    }
    // Canonical order regardless of flag order, so `--e4 --e1` prints E1
    // first — same as the all-tables run.
    let order = ["e1", "e2e3", "e4", "e5", "e6", "e7", "scale"];
    cli.selected
        .sort_by_key(|id| order.iter().position(|o| o == id));
    Ok(Some(cli))
}

fn build_table_spec(id: &str, quick: bool, seeds: &[u64], event_cap: usize) -> TableSpec {
    match id {
        "e1" => {
            // The large-n rows (48, 96) run with scaling_table's bounded
            // event budget: they track per-event throughput and the
            // visibility cache, not time-to-gather.
            let ns: &[usize] = if quick {
                &[3, 5, 8, 48, 96]
            } else {
                &[3, 5, 6, 8, 10, 12, 48, 96]
            };
            scaling_table_spec_with_cap(ns, seeds, event_cap)
        }
        "e2e3" => expansion_table_spec(6, seeds),
        "e4" => adversary_table_spec(6, seeds),
        "e5" => baseline_table_spec(6, seeds),
        "e6" => delta_table_spec(6, &[1e-4, 1e-3, 1e-2, 5e-2], seeds),
        "e7" => shape_table_spec(6, seeds),
        // The scale table ignores `quick`/`seeds`: one seed at n = 10³ and
        // 10⁴ is already the expensive part, and its rows measure per-event
        // throughput, not gathering statistics.
        "scale" => scale_table_spec(event_cap),
        other => unreachable!("unknown table id {other}"),
    }
}

/// Runs one fuzz campaign (`report fuzz`): sweep, shrink, and write the
/// fixtures / telemetry the flags asked for.
fn run_fuzz(cli: &Cli) -> ExitCode {
    let config = FuzzConfig {
        budget: cli.budget,
        seed: cli.fuzz_seed,
        ..FuzzConfig::default()
    };
    let report = fuzz::fuzz(&config);
    println!("== FUZZ: shrinking scenario sweep ==");
    println!("fuzz seed {}, event budget {}", config.seed, config.budget);
    println!(
        "scenarios {}, events spent {}, confirm replays {}, shrink replays {}, findings {}",
        report.scenarios,
        report.events_spent,
        report.confirm_replays,
        report.shrink_replays,
        report.findings.len()
    );
    for finding in &report.findings {
        let spec = &finding.spec;
        println!(
            "  [{}] shape={} adversary={} k={} n={} seed={} cap={} | events={} gathered={} shrink_steps={}",
            finding.origin,
            spec.shape.name(),
            spec.adversary.name(),
            spec.adversary.fault_k(),
            spec.n,
            spec.seed,
            spec.max_events,
            finding.census.events,
            finding.census.gathered,
            finding.shrink_steps,
        );
    }
    if let Some(dir) = &cli.out {
        match fuzz::write_fixtures(&report, std::path::Path::new(dir)) {
            Ok(paths) => eprintln!("report: wrote {} fixture(s) to {dir}", paths.len()),
            Err(err) => {
                eprintln!("report: cannot write fixtures to '{dir}': {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &cli.json {
        if let Err(err) = write_atomic(
            std::path::Path::new(path),
            fuzz_json(&config, &report).as_bytes(),
        ) {
            eprintln!("report: cannot write '{path}': {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("report: wrote {path} (fuzz telemetry)");
    }
    ExitCode::SUCCESS
}

/// The fuzz telemetry document (`report fuzz --json`): campaign counters
/// plus every shrunk finding, schema-versioned alongside the table report.
fn fuzz_json(config: &FuzzConfig, report: &FuzzReport) -> String {
    use json::JsonValue;
    let findings: Vec<JsonValue> = report
        .findings
        .iter()
        .map(|finding| {
            let spec = &finding.spec;
            JsonValue::Obj(vec![
                ("origin".into(), JsonValue::Str(finding.origin.into())),
                ("shape".into(), JsonValue::Str(spec.shape.name().into())),
                (
                    "adversary".into(),
                    JsonValue::Str(spec.adversary.name().into()),
                ),
                (
                    "fault_k".into(),
                    JsonValue::Int(spec.adversary.fault_k() as i64),
                ),
                ("n".into(), JsonValue::Int(spec.n as i64)),
                ("seed".into(), JsonValue::Int(spec.seed as i64)),
                ("max_events".into(), JsonValue::Int(spec.max_events as i64)),
                (
                    "shrink_steps".into(),
                    JsonValue::Int(finding.shrink_steps as i64),
                ),
                (
                    "census".into(),
                    JsonValue::Obj(vec![
                        ("gathered".into(), JsonValue::Bool(finding.census.gathered)),
                        (
                            "terminated".into(),
                            JsonValue::Bool(finding.census.terminated),
                        ),
                        (
                            "events".into(),
                            JsonValue::Int(finding.census.events as i64),
                        ),
                        (
                            "distance_bits".into(),
                            JsonValue::Int(finding.census.distance_bits as i64),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        (
            "schema_version".into(),
            JsonValue::Int(fatrobots_bench::REPORT_SCHEMA_VERSION),
        ),
        (
            "generator".into(),
            JsonValue::Str("fatrobots-bench report".into()),
        ),
        ("mode".into(), JsonValue::Str("fuzz".into())),
        ("fuzz_seed".into(), JsonValue::Int(config.seed as i64)),
        ("budget".into(), JsonValue::Int(config.budget as i64)),
        ("scenarios".into(), JsonValue::Int(report.scenarios as i64)),
        (
            "events_spent".into(),
            JsonValue::Int(report.events_spent as i64),
        ),
        (
            "confirm_replays".into(),
            JsonValue::Int(report.confirm_replays as i64),
        ),
        (
            "shrink_replays".into(),
            JsonValue::Int(report.shrink_replays as i64),
        ),
        ("findings".into(), JsonValue::Arr(findings)),
    ])
    .to_pretty()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("report: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Fail on an unwritable --json path up front, not after minutes of
    // sweeping: create any missing parent directories and probe by
    // creating the output file before any runs start.
    if let Some(path) = &cli.json {
        let parent = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty());
        let probe = match parent {
            Some(parent) => std::fs::create_dir_all(parent),
            None => Ok(()),
        }
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map(|_| ())
        });
        if let Err(err) = probe {
            eprintln!("report: cannot write '{path}': {err}");
            return ExitCode::FAILURE;
        }
    }

    if cli.fuzz {
        return run_fuzz(&cli);
    }

    // Likewise read and validate the baseline before sweeping.
    let baseline = match &cli.baseline {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("report: cannot read baseline '{path}': {err}");
                    return ExitCode::FAILURE;
                }
            };
            match json::parse(&text) {
                Ok(doc) => {
                    // Reject unsupported schemas before any sweep runs, not
                    // after minutes of table building.
                    if !fatrobots_bench::report_supported(&doc) {
                        eprintln!(
                            "report: baseline '{path}' has a missing or unsupported schema_version"
                        );
                        return ExitCode::FAILURE;
                    }
                    Some(doc)
                }
                Err(err) => {
                    eprintln!("report: baseline '{path}' is not valid JSON: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let seeds: &[u64] = if cli.quick {
        &QUICK_SEEDS
    } else {
        &STANDARD_SEEDS
    };

    // Unlike the tables, the figures note only prints when asked for
    // explicitly — it never joins the default all-tables run.
    if cli.figures {
        println!("The figure reproductions (F1–F5) are executable tests:");
        println!("  cargo test --test figures");
    }

    let ids: Vec<&'static str> = if cli.selected.is_empty() && !cli.figures {
        vec!["e1", "e2e3", "e4", "e5", "e6", "e7", "scale"]
    } else {
        cli.selected.clone()
    };

    // The crash-safe sweep journal (`--checkpoint-dir`): one session spans
    // every table, so run ordinals are globally unique per invocation.
    let mut checkpoint = match &cli.checkpoint_dir {
        None => None,
        Some(dir) => {
            let path = std::path::Path::new(dir).join("journal.frck");
            match CheckpointedSweep::open(&path) {
                Ok(session) => Some(session),
                Err(err) => {
                    eprintln!(
                        "report: cannot open checkpoint journal '{}': {err}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let policy = SupervisionPolicy {
        watchdog: cli.watchdog_secs.map(std::time::Duration::from_secs),
    };
    let mut supervision = SupervisionReport::default();
    let pool = SweepPool::new(cli.jobs);
    let mut tables: Vec<ExperimentTable> = Vec::new();
    for id in &ids {
        let mut spec = build_table_spec(id, cli.quick, seeds, cli.event_cap);
        if cli.shadow {
            // The oracle rides along on every run; experiment::run keeps it
            // off for non-paper strategies, so baselines stay untouched.
            for group in &mut spec.groups {
                for run_spec in &mut group.specs {
                    run_spec.shadow = true;
                }
            }
        }
        let run = spec.execute_supervised_on(&pool, &policy, checkpoint.as_mut());
        supervision
            .failures
            .extend(run.failures.into_iter().map(|f| (id.to_string(), f)));
        print_table(&run.table);
        tables.push(run.table);
    }
    supervision.checkpoint = checkpoint.as_ref().map(CheckpointedSweep::telemetry);

    if let Some(path) = &cli.json {
        let text = report_json(&tables, cli.quick, cli.jobs, cli.shadow, &supervision);
        if let Err(err) = write_atomic(std::path::Path::new(path), text.as_bytes()) {
            eprintln!("report: cannot write '{path}': {err}");
            return ExitCode::FAILURE;
        }
        let runs: usize = tables.iter().map(|t| t.summaries().count()).sum();
        // Note goes to stderr so stdout stays byte-identical with and
        // without --json.
        eprintln!(
            "report: wrote {path} ({} tables, {runs} runs)",
            tables.len()
        );
    }

    if let Some(doc) = &baseline {
        match diff_against_baseline(&tables, doc, cli.baseline_threshold) {
            Ok(diff) => {
                println!("\n== baseline diff ==");
                print!("{}", diff.text);
                if diff.regressions > 0 {
                    eprintln!(
                        "report: {} row(s) regressed beyond the threshold",
                        diff.regressions
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(message) => {
                eprintln!("report: {message}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Failure rows surface last: the partial tables, JSON document and
    // baseline diff above all still happened, but a report with failed
    // runs must not exit 0.
    if !supervision.failures.is_empty() {
        eprintln!("report: {} run(s) failed:", supervision.failures.len());
        for (table, failure) in &supervision.failures {
            eprintln!(
                "  {table}: n={} seed={} shape={} adversary={}: {}",
                failure.spec.n,
                failure.spec.seed,
                failure.spec.shape.name(),
                failure.spec.adversary.name(),
                failure.message,
            );
        }
        return ExitCode::FAILURE;
    }

    ExitCode::SUCCESS
}
