//! # fatrobots-bench
//!
//! Shared helpers for the `report` binary that regenerates the experiment
//! tables (README, "The `report` CLI"). The actual experiment logic lives
//! in [`fatrobots_sim::experiment`] (with the parallel dispatch in
//! [`fatrobots_sim::sweep`]); this crate provides the table printer and
//! the `bench_report.json` serializer. The hand-rolled [`json`] codec
//! lives in `fatrobots-sim` (the fuzz fixtures use it too) and is
//! re-exported here, where the benchmark harness under `perfbench/` reads
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fatrobots_sim::json;

use fatrobots_sim::checkpoint::CheckpointTelemetry;
use fatrobots_sim::experiment::{AggregateRow, ExperimentTable, RunSummary};
use fatrobots_sim::sweep::SweepFailure;
use json::JsonValue;

/// The seeds every experiment table of `report` runs (without `--quick`).
pub const STANDARD_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// A smaller seed set for the expensive sweeps.
pub const QUICK_SEEDS: [u64; 3] = [1, 2, 3];

/// The `schema_version` stamped into `bench_report.json`. Bump on any
/// breaking change to the report layout (the README documents it).
///
/// A v12 document carries, at the root, the run flags (`quick`, `jobs`,
/// `shadow`), the `tables` (tables → groups → aggregate + per-run records)
/// and the `supervision` object. A per-run record is
/// [`RunSummary::to_json`]: the whole spec, then the world, decision-cache,
/// hull, pair-store, fault and `shadow` telemetry. It is also what the
/// checkpoint journal stores, and [`RunSummary::from_json`] reads it back.
/// The `supervision` object holds a `failures` array (one
/// structured row per failed run — the spec fields plus its `message`)
/// and `checkpoint` — `null` without `--checkpoint-dir`, otherwise the
/// crash-safe journal's counters (`resumed_rows`, `journal_records`,
/// `recovered_records`, `dropped_bytes`, `write_errors`). Sweeps are
/// deterministic, so the checkpoint counters are the *only* keys that may
/// differ between an uninterrupted sweep and a killed-and-resumed one; the
/// CI `kill-resume` gate diffs the two documents modulo exactly those
/// lines.
///
/// v12 added the spec fields a per-run record lacked (`fault_k`,
/// `world_mode`, `sample_every`, and the oracle request
/// `shadow_requested`), so the record describes its run completely.
pub const REPORT_SCHEMA_VERSION: i64 = 12;

/// The oldest `schema_version` current tooling still reads; older
/// documents are rejected.
pub const REPORT_SCHEMA_MIN_SUPPORTED: i64 = 12;

/// `true` when a parsed `bench_report.json` document carries a schema
/// version this crate's readers understand.
pub fn report_supported(doc: &JsonValue) -> bool {
    matches!(
        doc.get("schema_version"),
        Some(&JsonValue::Int(v)) if (REPORT_SCHEMA_MIN_SUPPORTED..=REPORT_SCHEMA_VERSION).contains(&v)
    )
}

/// Relative `mean_events` increase beyond which a baseline comparison
/// counts as a regression (10%). Gathered-rate drops of any size are always
/// regressions — a run that stopped gathering is broken, not slow.
pub const BASELINE_EVENTS_THRESHOLD: f64 = 0.10;

/// Outcome of diffing freshly executed tables against a previous
/// `bench_report.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDiff {
    /// Human-readable per-row delta lines.
    pub text: String,
    /// Number of rows that regressed beyond the thresholds.
    pub regressions: usize,
}

/// Looks up a numeric field of a JSON object as `f64` (accepting both `Int`
/// and `Num` encodings).
fn json_f64(obj: &JsonValue, key: &str) -> Option<f64> {
    match obj.get(key) {
        Some(&JsonValue::Num(v)) => Some(v),
        Some(&JsonValue::Int(v)) => Some(v as f64),
        _ => None,
    }
}

/// The aggregate record of table `id` / group `label` in a parsed report.
fn baseline_aggregate<'a>(doc: &'a JsonValue, id: &str, label: &str) -> Option<&'a JsonValue> {
    let tables = doc.get("tables")?.as_arr()?;
    let table = tables
        .iter()
        .find(|t| t.get("id").and_then(JsonValue::as_str) == Some(id))?;
    let groups = table.get("groups")?.as_arr()?;
    groups
        .iter()
        .find(|g| g.get("label").and_then(JsonValue::as_str) == Some(label))?
        .get("aggregate")
}

/// Diffs freshly executed tables against a previously written
/// `bench_report.json` document.
///
/// Per row (table id + group label) the gathered rate and mean event count
/// are compared: any drop in the gathered rate is a regression, and a
/// relative increase of `mean_events` beyond `events_threshold` is a
/// regression. Rows absent from the baseline are reported as new and never
/// regress. Returns `Err` for documents whose schema this crate cannot
/// read.
pub fn diff_against_baseline(
    tables: &[ExperimentTable],
    baseline: &JsonValue,
    events_threshold: f64,
) -> Result<BaselineDiff, String> {
    if !report_supported(baseline) {
        return Err(format!(
            "baseline schema_version is missing or unsupported (this build reads {REPORT_SCHEMA_MIN_SUPPORTED}..={REPORT_SCHEMA_VERSION})"
        ));
    }
    let mut text = String::new();
    let mut regressions = 0usize;
    for table in tables {
        for group in &table.groups {
            let row = group.aggregate();
            let label = format!("{}/{}", table.id, group.label);
            let Some(base) = baseline_aggregate(baseline, table.id, &group.label) else {
                text.push_str(&format!("{label:<28} (new row, no baseline)\n"));
                continue;
            };
            let base_gathered = json_f64(base, "gathered_rate");
            let base_events = json_f64(base, "mean_events");
            let mut verdicts = Vec::new();
            if let Some(bg) = base_gathered {
                if row.gathered_rate < bg - 1e-9 {
                    verdicts.push("gathered-rate REGRESSION");
                    regressions += 1;
                }
            }
            if let Some(be) = base_events {
                if be > 0.0 && row.mean_events > be * (1.0 + events_threshold) {
                    verdicts.push("events REGRESSION");
                    regressions += 1;
                }
            }
            // Shadow-divergence gate, applied only when both sides ran the
            // oracle: the sweeps are deterministic, so any growth in the
            // divergence count means a predicate site newly disagrees with
            // exact arithmetic — a correctness smell, not noise.
            let base_divergent = json_f64(base, "shadow_divergent");
            if let (Some(bd), Some(d)) = (base_divergent, row.shadow_divergent) {
                if (d as f64) > bd {
                    verdicts.push("shadow-divergence REGRESSION");
                    regressions += 1;
                }
            }
            let events_delta = match base_events {
                Some(be) if be > 0.0 => {
                    format!("{:+.1}%", (row.mean_events - be) / be * 100.0)
                }
                _ => "n/a".into(),
            };
            let shadow_delta = match (base_divergent, row.shadow_divergent) {
                (Some(bd), Some(d)) => format!("  shadow-div {bd:.0} -> {d}"),
                (None, Some(d)) => format!("  shadow-div new -> {d}"),
                _ => String::new(),
            };
            text.push_str(&format!(
                "{label:<28} gathered {} -> {:.2}  events {} -> {:.1} ({events_delta}){shadow_delta}{}{}\n",
                base_gathered.map_or("n/a".into(), |v| format!("{v:.2}")),
                row.gathered_rate,
                base_events.map_or("n/a".into(), |v| format!("{v:.1}")),
                row.mean_events,
                if verdicts.is_empty() { "" } else { "  " },
                verdicts.join(", "),
            ));
        }
    }
    Ok(BaselineDiff { text, regressions })
}

/// Prints one experiment table with its title.
pub fn print_table(table: &ExperimentTable) {
    println!("\n== {} ==", table.title);
    println!("{}", AggregateRow::header());
    for row in table.rows() {
        println!("{row}");
    }
}

/// The supervised-execution telemetry of one report invocation: what the
/// `supervision` object of `bench_report.json` serializes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisionReport {
    /// Structured failure rows, as (table id, failure) pairs in execution
    /// order.
    pub failures: Vec<(String, SweepFailure)>,
    /// The crash-safe journal's counters when `--checkpoint-dir` was
    /// active, `None` otherwise.
    pub checkpoint: Option<CheckpointTelemetry>,
}

/// One structured failure row as a JSON record.
fn failure_json(table: &str, failure: &SweepFailure) -> JsonValue {
    JsonValue::Obj(vec![
        ("table".into(), JsonValue::Str(table.into())),
        ("n".into(), JsonValue::Int(failure.spec.n as i64)),
        ("seed".into(), JsonValue::Int(failure.spec.seed as i64)),
        (
            "shape".into(),
            JsonValue::Str(failure.spec.shape.name().into()),
        ),
        (
            "strategy".into(),
            JsonValue::Str(failure.spec.strategy.name().into()),
        ),
        (
            "adversary".into(),
            JsonValue::Str(failure.spec.adversary.name().into()),
        ),
        ("message".into(), JsonValue::Str(failure.message.clone())),
    ])
}

/// The `supervision` object of the report document.
fn supervision_json(supervision: &SupervisionReport) -> JsonValue {
    let checkpoint = supervision
        .checkpoint
        .as_ref()
        .map_or(JsonValue::Null, |ck| {
            JsonValue::Obj(vec![
                (
                    "resumed_rows".into(),
                    JsonValue::Int(ck.resumed_rows as i64),
                ),
                (
                    "journal_records".into(),
                    JsonValue::Int(ck.journal_records as i64),
                ),
                (
                    "recovered_records".into(),
                    JsonValue::Int(ck.recovered_records as i64),
                ),
                (
                    "dropped_bytes".into(),
                    JsonValue::Int(ck.dropped_bytes as i64),
                ),
                (
                    "write_errors".into(),
                    JsonValue::Int(ck.write_errors as i64),
                ),
            ])
        });
    JsonValue::Obj(vec![
        (
            "failures".into(),
            JsonValue::Arr(
                supervision
                    .failures
                    .iter()
                    .map(|(table, failure)| failure_json(table, failure))
                    .collect(),
            ),
        ),
        ("checkpoint".into(), checkpoint),
    ])
}

/// One aggregate row as a JSON record.
fn aggregate_json(row: &AggregateRow) -> JsonValue {
    JsonValue::Obj(vec![
        ("label".into(), JsonValue::Str(row.label.clone())),
        ("runs".into(), JsonValue::Int(row.runs as i64)),
        ("gathered_rate".into(), JsonValue::num(row.gathered_rate)),
        ("mean_events".into(), JsonValue::num(row.mean_events)),
        (
            "mean_cycles_per_robot".into(),
            JsonValue::num(row.mean_cycles_per_robot),
        ),
        ("mean_distance".into(), JsonValue::num(row.mean_distance)),
        (
            "mean_first_fully_visible".into(),
            JsonValue::opt_num(row.mean_first_fully_visible),
        ),
        (
            "mean_expansion_monotonicity".into(),
            JsonValue::opt_num(row.mean_expansion_monotonicity),
        ),
        (
            "mean_convergence_monotonicity".into(),
            JsonValue::opt_num(row.mean_convergence_monotonicity),
        ),
        (
            "shadow_divergent".into(),
            JsonValue::opt_int(row.shadow_divergent.map(|v| v as usize)),
        ),
        (
            "shadow_flips".into(),
            JsonValue::opt_int(row.shadow_flips.map(|v| v as usize)),
        ),
    ])
}

/// Serializes executed tables into the `bench_report.json` document.
///
/// Layout (see the README for the full schema):
///
/// ```json
/// {
///   "schema_version": 12,
///   "generator": "fatrobots-bench report",
///   "quick": true,
///   "shadow": false,
///   "jobs": 2,
///   "supervision": { "failures": [], "checkpoint": null },
///   "tables": [
///     { "id": "e1", "title": "…",
///       "groups": [ { "label": "n=3", "aggregate": {…}, "runs": [ {…} ] } ] }
///   ]
/// }
/// ```
pub fn report_json(
    tables: &[ExperimentTable],
    quick: bool,
    jobs: usize,
    shadow: bool,
    supervision: &SupervisionReport,
) -> String {
    let tables_json = tables
        .iter()
        .map(|table| {
            let groups = table
                .groups
                .iter()
                .map(|group| {
                    JsonValue::Obj(vec![
                        ("label".into(), JsonValue::Str(group.label.clone())),
                        ("aggregate".into(), aggregate_json(&group.aggregate())),
                        (
                            "runs".into(),
                            JsonValue::Arr(
                                group.summaries.iter().map(RunSummary::to_json).collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            JsonValue::Obj(vec![
                ("id".into(), JsonValue::Str(table.id.into())),
                ("title".into(), JsonValue::Str(table.title.clone())),
                ("groups".into(), JsonValue::Arr(groups)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        (
            "schema_version".into(),
            JsonValue::Int(REPORT_SCHEMA_VERSION),
        ),
        (
            "generator".into(),
            JsonValue::Str("fatrobots-bench report".into()),
        ),
        ("quick".into(), JsonValue::Bool(quick)),
        ("shadow".into(), JsonValue::Bool(shadow)),
        ("jobs".into(), JsonValue::Int(jobs as i64)),
        ("supervision".into(), supervision_json(supervision)),
        ("tables".into(), JsonValue::Arr(tables_json)),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatrobots_sim::experiment::{scaling_table_spec, RunSpec, SpecGroup, TableSpec};

    /// The E1 table at `n = 3` over `seeds`, executed on `jobs` workers.
    fn e1_table(seeds: &[u64], jobs: usize) -> ExperimentTable {
        scaling_table_spec(&[3], seeds).execute(jobs)
    }

    /// A one-row `e1` table of shadowed n = 3 runs (seed 1).
    fn shadow_table(title: &str) -> ExperimentTable {
        let groups = vec![SpecGroup::per_seed("n=3", &[1u64], |seed| RunSpec {
            shadow: true,
            max_events: 5_000,
            ..RunSpec::new(3, seed)
        })];
        TableSpec {
            id: "e1",
            title: title.into(),
            groups,
        }
        .execute(1)
    }

    #[test]
    fn seeds_are_distinct() {
        let unique: std::collections::HashSet<_> = STANDARD_SEEDS.iter().collect();
        assert_eq!(unique.len(), STANDARD_SEEDS.len());
    }

    #[test]
    fn print_table_smoke() {
        let table = e1_table(&[1], 1);
        assert_eq!(table.rows().len(), 1);
        print_table(&table);
        let _ = RunSpec::new(3, 1);
    }

    #[test]
    fn report_json_round_trips_and_counts_runs() {
        let table = e1_table(&[1, 2], 2);
        let text = report_json(
            std::slice::from_ref(&table),
            true,
            2,
            false,
            &SupervisionReport::default(),
        );
        let doc = json::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("schema_version"),
            Some(&JsonValue::Int(REPORT_SCHEMA_VERSION))
        );
        assert!(report_supported(&doc));
        assert_eq!(doc.get("quick"), Some(&JsonValue::Bool(true)));
        let tables = doc.get("tables").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get("id").and_then(JsonValue::as_str), Some("e1"));
        let groups = tables[0].get("groups").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(groups.len(), 1);
        let runs = groups[0].get("runs").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(runs.len(), 2, "one JSON record per run");
        assert_eq!(
            runs[0].get("strategy").and_then(JsonValue::as_str),
            Some("agm-gathering")
        );
        // Cache telemetry rides along on every run record.
        assert!(matches!(
            runs[0].get("visibility_cache_misses"),
            Some(&JsonValue::Int(m)) if m > 0
        ));
        assert!(runs[0].get("visibility_cache_hits").is_some());
        // The output-sensitive loop's counters ride along too.
        assert!(matches!(
            runs[0].get("decision_cache_misses"),
            Some(&JsonValue::Int(m)) if m > 0
        ));
        assert!(runs[0].get("decision_cache_hits").is_some());
        assert!(runs[0].get("hull_repairs").is_some());
        assert!(matches!(
            runs[0].get("hull_rebuilds"),
            Some(&JsonValue::Int(m)) if m > 0
        ));
        // Pair-store telemetry — once every robot has Looked, the
        // default world has computed all n(n-1)/2 pairs (n=3 → 3 entries),
        // and a world this small registers no corridors.
        assert_eq!(runs[0].get("world_pair_entries"), Some(&JsonValue::Int(3)));
        assert_eq!(
            runs[0].get("world_pair_registrations"),
            Some(&JsonValue::Int(0))
        );
        // No parallel-executor telemetry.
        assert_eq!(doc.get("threads"), None);
        assert_eq!(runs[0].get("threads"), None);
        // Fault-injection telemetry — zero under fault-free adversaries.
        assert_eq!(
            runs[0].get("fault_crashed_robots"),
            Some(&JsonValue::Int(0))
        );
        assert_eq!(
            runs[0].get("fault_starved_directives"),
            Some(&JsonValue::Int(0))
        );
        assert_eq!(
            runs[0].get("fault_truncated_directives"),
            Some(&JsonValue::Int(0))
        );
        let aggregate = groups[0].get("aggregate").unwrap();
        assert_eq!(aggregate.get("runs"), Some(&JsonValue::Int(2)));
        // Without --shadow the shadow keys are present but null.
        assert_eq!(runs[0].get("shadow"), Some(&JsonValue::Null));
        assert_eq!(aggregate.get("shadow_divergent"), Some(&JsonValue::Null));
        assert_eq!(aggregate.get("shadow_flips"), Some(&JsonValue::Null));
        // The supervision object — clean default execution means no
        // failures and no checkpoint journal.
        let supervision = doc.get("supervision").expect("supervision present");
        assert_eq!(
            supervision
                .get("failures")
                .and_then(JsonValue::as_arr)
                .map(|failures| failures.len()),
            Some(0)
        );
        assert_eq!(supervision.get("checkpoint"), Some(&JsonValue::Null));
    }

    #[test]
    fn committed_baseline_run_records_decode_and_reencode_exactly() {
        let doc = json::parse(include_str!("../../baselines/bench_report.json"))
            .expect("the committed baseline parses");
        assert_eq!(
            doc.get("schema_version"),
            Some(&JsonValue::Int(REPORT_SCHEMA_VERSION))
        );
        let runs: Vec<&JsonValue> = doc
            .get("tables")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .flat_map(|table| table.get("groups").and_then(JsonValue::as_arr).unwrap())
            .flat_map(|group| group.get("runs").and_then(JsonValue::as_arr).unwrap())
            .collect();
        let mut decoded = 0;
        for record in &runs {
            let parsed = RunSummary::from_json(record);
            if record.get("shadow") == Some(&JsonValue::Null) {
                let summary = parsed.expect("an oracle-free record decodes");
                assert_eq!(summary.to_json(), **record);
                decoded += 1;
            } else {
                assert_eq!(parsed, None, "records with oracle stats never decode");
            }
        }
        assert!(
            decoded > 0 && decoded < runs.len(),
            "the baseline mixes both kinds of record"
        );
    }

    #[test]
    fn supervision_failures_and_checkpoint_counters_serialize() {
        let table = e1_table(&[1], 1);
        let supervision = SupervisionReport {
            failures: vec![(
                "e1".into(),
                fatrobots_sim::sweep::SweepFailure {
                    spec: RunSpec::new(0, 1),
                    message: "panic: initial configuration needs at least one robot".into(),
                },
            )],
            checkpoint: Some(CheckpointTelemetry {
                resumed_rows: 3,
                journal_records: 4,
                recovered_records: 4,
                dropped_bytes: 0,
                write_errors: 0,
            }),
        };
        let text = report_json(std::slice::from_ref(&table), true, 1, false, &supervision);
        let doc = json::parse(&text).expect("report JSON parses");
        let sup = doc.get("supervision").expect("supervision present");
        let JsonValue::Obj(entries) = sup else {
            panic!("supervision is an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["failures", "checkpoint"]);
        let failures = sup.get("failures").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].get("table").and_then(JsonValue::as_str),
            Some("e1")
        );
        assert_eq!(failures[0].get("n"), Some(&JsonValue::Int(0)));
        let JsonValue::Obj(row) = &failures[0] else {
            panic!("a failure row is an object")
        };
        let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "table",
                "n",
                "seed",
                "shape",
                "strategy",
                "adversary",
                "message"
            ]
        );
        assert!(failures[0]
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("at least one robot"));
        let ck = sup.get("checkpoint").expect("checkpoint present");
        assert_eq!(ck.get("resumed_rows"), Some(&JsonValue::Int(3)));
        assert_eq!(ck.get("journal_records"), Some(&JsonValue::Int(4)));
        let JsonValue::Obj(entries) = ck else {
            panic!("checkpoint is an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "resumed_rows",
                "journal_records",
                "recovered_records",
                "dropped_bytes",
                "write_errors"
            ]
        );
        assert_eq!(ck.get("write_errors"), Some(&JsonValue::Int(0)));
    }

    #[test]
    fn shadow_runs_serialize_their_oracle_tallies() {
        let table = shadow_table("shadow smoke");
        let text = report_json(
            std::slice::from_ref(&table),
            true,
            1,
            true,
            &SupervisionReport::default(),
        );
        let doc = json::parse(&text).expect("shadow report parses");
        assert_eq!(doc.get("shadow"), Some(&JsonValue::Bool(true)));
        let group = &doc.get("tables").and_then(JsonValue::as_arr).unwrap()[0]
            .get("groups")
            .and_then(JsonValue::as_arr)
            .unwrap()[0];
        let run = &group.get("runs").and_then(JsonValue::as_arr).unwrap()[0];
        let shadow = run.get("shadow").expect("shadow record present");
        assert!(matches!(
            shadow.get("computes"),
            Some(&JsonValue::Int(c)) if c > 0
        ));
        assert!(shadow.get("divergent").is_some());
        assert!(shadow.get("predicate_flips").is_some());
        assert!(shadow.get("first_divergence").is_some());
        // Per-site counters carry the canonical predicate names.
        let sites = shadow.get("sites").expect("per-site counters present");
        assert!(matches!(
            sites.get("orientation_tol").and_then(|s| s.get("calls")),
            Some(&JsonValue::Int(c)) if c > 0
        ));
        // The aggregate totals mirror the per-run tallies.
        let aggregate = group.get("aggregate").unwrap();
        assert!(matches!(
            aggregate.get("shadow_divergent"),
            Some(&JsonValue::Int(_))
        ));
        assert!(matches!(
            aggregate.get("shadow_flips"),
            Some(&JsonValue::Int(_))
        ));
        // A shadow report self-diffs cleanly: the divergence gate engages
        // (both sides carry the counters) and finds no growth.
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &doc,
            BASELINE_EVENTS_THRESHOLD,
        )
        .expect("self diff succeeds");
        assert_eq!(diff.regressions, 0);
        assert!(diff.text.contains("shadow-div"));
    }

    #[test]
    fn shadow_divergence_gate_only_fires_when_both_sides_have_counters() {
        let table = shadow_table("shadow gate");
        let row = table.rows().remove(0);
        let divergent = row.shadow_divergent.expect("oracle ran");

        // Baseline with a lower divergence count: a regression.
        let stricter = json::parse(
            r#"{"schema_version": 12, "tables": [
                 {"id": "e1", "groups": [
                   {"label": "n=3", "aggregate":
                      {"gathered_rate": 0.0, "mean_events": 1e9,
                        "shadow_divergent": -1}}]}]}"#,
        )
        .unwrap();
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &stricter,
            BASELINE_EVENTS_THRESHOLD,
        )
        .unwrap();
        assert_eq!(
            diff.regressions, 1,
            "any divergence-count growth is a regression:\n{}",
            diff.text
        );
        assert!(diff.text.contains("shadow-divergence REGRESSION"));

        // A baseline written without the oracle (null counters) never
        // trips the gate, whatever the fresh tables carry.
        let unshadowed = json::parse(&format!(
            r#"{{"schema_version": 12, "tables": [
                 {{"id": "e1", "groups": [
                   {{"label": "n=3", "aggregate":
                      {{"gathered_rate": {g}, "mean_events": {e},
                        "shadow_divergent": null}}}}]}}]}}"#,
            g = row.gathered_rate,
            e = row.mean_events,
        ))
        .unwrap();
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &unshadowed,
            BASELINE_EVENTS_THRESHOLD,
        )
        .unwrap();
        assert_eq!(diff.regressions, 0, "one-sided counters must not gate");
        let _ = divergent;
    }

    #[test]
    fn baseline_self_diff_has_no_regressions() {
        let table = e1_table(&[1, 2], 2);
        let doc = json::parse(&report_json(
            std::slice::from_ref(&table),
            true,
            2,
            false,
            &SupervisionReport::default(),
        ))
        .unwrap();
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &doc,
            BASELINE_EVENTS_THRESHOLD,
        )
        .expect("self diff succeeds");
        assert_eq!(diff.regressions, 0, "a report cannot regress vs itself");
        assert!(diff.text.contains("e1/n=3"));
        assert!(diff.text.contains("+0.0%"));
    }

    #[test]
    fn baseline_diff_flags_gathered_and_event_regressions() {
        let table = e1_table(&[1], 1);
        let row = table.rows().remove(0);
        // A fabricated "better" baseline: everything gathered instantly.
        let better = json::parse(&format!(
            r#"{{"schema_version": 12, "tables": [
                 {{"id": "e1", "groups": [
                   {{"label": "{label}", "aggregate":
                      {{"gathered_rate": {g}, "mean_events": {e}}}}}]}}]}}"#,
            label = row.label,
            g = row.gathered_rate + 0.5,
            e = (row.mean_events / 10.0).max(1.0),
        ))
        .unwrap();
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &better,
            BASELINE_EVENTS_THRESHOLD,
        )
        .unwrap();
        assert_eq!(
            diff.regressions, 2,
            "both metrics must regress:\n{}",
            diff.text
        );
        assert!(diff.text.contains("REGRESSION"));

        // Rows the baseline does not know are reported but never regress.
        let empty = json::parse(r#"{"schema_version": 12, "tables": []}"#).unwrap();
        let diff = diff_against_baseline(
            std::slice::from_ref(&table),
            &empty,
            BASELINE_EVENTS_THRESHOLD,
        )
        .unwrap();
        assert_eq!(diff.regressions, 0);
        assert!(diff.text.contains("new row"));

        // Unsupported schemas — future versions and the retired pre-v12
        // layouts alike — are an error, not a silent pass.
        for version in [99, REPORT_SCHEMA_MIN_SUPPORTED - 1] {
            let doc = json::parse(&format!(r#"{{"schema_version": {version}}}"#)).unwrap();
            assert!(!report_supported(&doc), "v{version} must be unsupported");
            assert!(diff_against_baseline(
                std::slice::from_ref(&table),
                &doc,
                BASELINE_EVENTS_THRESHOLD
            )
            .is_err());
        }
    }
}
