//! Integration tests for the `report` binary: flag handling, parallel
//! determinism, and the `bench_report.json` artifact.

use std::process::{Command, Output};

use fatrobots_bench::json::{self, JsonValue};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs")
}

#[test]
fn unknown_flag_exits_nonzero_with_a_usage_message() {
    // `--fail-fast` is not a flag: every run is attempted once and a failure
    // never aborts the sweep, so there is no abort-everything mode to select.
    for flag in ["--definitely-not-a-flag", "--fail-fast"] {
        let out = report(&[flag]);
        assert!(
            !out.status.success(),
            "an unknown flag must not exit 0 (the old CLI silently ignored it)"
        );
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
        assert!(stderr.contains("Usage: report"));
        assert!(out.stdout.is_empty(), "usage errors must not print tables");
    }
}

#[test]
fn help_exits_zero_and_documents_the_flags() {
    let out = report(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "Usage: report",
        "--quick",
        "--shadow",
        "--jobs",
        "--json",
        "--e1",
        "--scale",
        "--baseline",
        "--baseline-threshold",
        "--event-cap",
        "report fuzz",
        "--budget",
        "--fuzz-seed",
        "--out",
        "--checkpoint-dir",
        "--watchdog-secs",
    ] {
        assert!(stdout.contains(flag), "--help must mention {flag}");
    }
    assert!(
        stdout.contains("default: 10"),
        "--help must state the default regression threshold"
    );
}

#[test]
fn baseline_threshold_rejects_missing_malformed_and_orphaned_values() {
    for args in [
        &["--baseline-threshold"][..],
        &["--baseline-threshold", "ten"],
        &["--baseline-threshold", "-5"],
        // Without --baseline the flag has nothing to act on: silently
        // accepting it would hide a typo'd invocation.
        &["--baseline-threshold", "5"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("--baseline-threshold"));
    }
}

#[test]
fn jobs_rejects_missing_and_malformed_values() {
    for args in [&["--jobs"][..], &["--jobs", "zero"], &["--jobs", "0"]] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(String::from_utf8(out.stderr).unwrap().contains("--jobs"));
    }
}

#[test]
fn event_cap_rejects_missing_and_malformed_values() {
    for args in [
        &["--event-cap"][..],
        &["--event-cap", "lots"],
        &["--event-cap", "0"],
        &["--event-cap", "-1"],
        &["--event-cap", "1.5"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("--event-cap"));
        assert!(out.stdout.is_empty(), "usage errors must not print tables");
    }
}

#[test]
fn fuzz_mode_rejects_table_and_sweep_flags() {
    for args in [
        &["fuzz", "--shadow"][..],
        &["fuzz", "--quick"],
        &["fuzz", "--figures"],
        &["fuzz", "--e1"],
        &["fuzz", "--jobs", "2"],
        &["fuzz", "--event-cap", "100"],
        &["fuzz", "--baseline", "whatever.json"],
        &["fuzz", "--checkpoint-dir", "/tmp/ck"],
        &["fuzz", "--watchdog-secs", "5"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("cannot be combined with fuzz mode"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("Usage: report"));
        assert!(out.stdout.is_empty(), "usage errors must not fuzz or sweep");
    }
}

#[test]
fn fuzz_only_flags_require_fuzz_mode() {
    for args in [
        &["--budget", "1000"][..],
        &["--fuzz-seed", "7"],
        &["--out", "/tmp/fixtures"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("requires fuzz mode") && stderr.contains(args[0]),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "usage errors must not print tables");
    }
}

#[test]
fn fuzz_budget_and_seed_reject_missing_and_malformed_values() {
    for args in [
        &["fuzz", "--budget"][..],
        &["fuzz", "--budget", "lots"],
        &["fuzz", "--budget", "0"],
        &["fuzz", "--fuzz-seed"],
        &["fuzz", "--fuzz-seed", "lucky"],
        // Past i64::MAX the fuzz telemetry would write a negative number.
        &["fuzz", "--fuzz-seed", "9223372036854775808"],
        &["fuzz", "--budget", "9223372036854775808"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(String::from_utf8(out.stderr).unwrap().contains(args[1]));
    }
}

#[test]
fn path_flags_do_not_swallow_the_next_flag() {
    // `--baseline --quick` is a missing path, not a baseline file named
    // "--quick" (the old parser fell through to a confusing read error).
    for args in [
        &["--baseline", "--quick"][..],
        &["--json", "--quick"],
        &["fuzz", "--out", "--quick"],
        &["--checkpoint-dir", "--quick"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("requires a path") && stderr.contains(args[args.len() - 2]),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "usage errors must not print tables");
    }
}

#[test]
fn fuzz_smoke_rediscovers_the_committed_pilot_fixture() {
    // A budget of 1 stops the sweep after the first pilot scenario — the
    // canonical n = 16 / seed 2 stall — which must shrink to exactly the
    // committed fixture, byte for byte.
    let dir = std::env::temp_dir().join(format!("fuzz_smoke_cli_{}", std::process::id()));
    let json = std::env::temp_dir().join(format!("fuzz_smoke_cli_{}.json", std::process::id()));
    let out = report(&[
        "fuzz",
        "--budget",
        "1",
        "--fuzz-seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FUZZ"), "stdout: {stdout}");
    assert!(stdout.contains("findings 1"), "stdout: {stdout}");

    let emitted: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(emitted.len(), 1, "exactly one fixture for one finding");
    let emitted_path = emitted[0].as_ref().unwrap().path();
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/livelock")
        .join(emitted_path.file_name().unwrap());
    assert!(
        committed.exists(),
        "the pilot finding {} is not among the committed fixtures",
        emitted_path.display()
    );
    assert_eq!(
        std::fs::read_to_string(&emitted_path).unwrap(),
        std::fs::read_to_string(&committed).unwrap(),
        "the rediscovered fixture must be byte-identical to the committed one"
    );

    let telemetry = json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        telemetry.get("schema_version"),
        Some(&JsonValue::Int(fatrobots_bench::REPORT_SCHEMA_VERSION))
    );
    assert_eq!(
        telemetry.get("mode").and_then(JsonValue::as_str),
        Some("fuzz")
    );
    let findings = telemetry
        .get("findings")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("census").and_then(|c| c.get("gathered")),
        Some(&JsonValue::Bool(false))
    );
    // Each telemetry finding is the fixture record itself.
    assert_eq!(
        findings[0],
        json::parse(&std::fs::read_to_string(&committed).unwrap()).unwrap(),
        "telemetry findings[0] must equal the committed fixture record"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&json);
}

// The tests below exercise E7 (shape table, n = 6) rather than E1: E1 now
// carries the large-n throughput rows (n = 48, 96), which are meant for the
// release-mode bench-report job and would dominate a debug-mode test run.

#[test]
fn parallel_table_output_is_byte_identical_to_serial() {
    let serial = report(&["--quick", "--e7", "--jobs", "1"]);
    let parallel = report(&["--quick", "--e7", "--jobs", "4"]);
    assert!(serial.status.success());
    assert!(parallel.status.success());
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "sweep output must not depend on the worker count"
    );
}

#[test]
fn json_report_is_parseable_with_one_record_per_run() {
    let path =
        std::env::temp_dir().join(format!("bench_report_cli_test_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let out = report(&["--quick", "--e7", "--jobs", "2", "--json", path_str]);
    assert!(out.status.success());

    let text = std::fs::read_to_string(&path).expect("bench_report.json written");
    let _ = std::fs::remove_file(&path);
    let doc = json::parse(&text).expect("bench_report.json parses");

    assert_eq!(
        doc.get("schema_version"),
        Some(&JsonValue::Int(fatrobots_bench::REPORT_SCHEMA_VERSION))
    );
    assert!(fatrobots_bench::report_supported(&doc));
    assert_eq!(doc.get("jobs"), Some(&JsonValue::Int(2)));
    assert_eq!(doc.get("quick"), Some(&JsonValue::Bool(true)));
    let tables = doc.get("tables").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].get("id").and_then(JsonValue::as_str), Some("e7"));

    // The supervision object holds exactly the failure rows and the
    // checkpoint counters: a clean run has no failures and (without
    // --checkpoint-dir) no journal counters.
    let supervision = doc.get("supervision").expect("supervision present");
    let JsonValue::Obj(entries) = supervision else {
        panic!("supervision is an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["failures", "checkpoint"]);
    assert_eq!(
        supervision
            .get("failures")
            .and_then(JsonValue::as_arr)
            .map(|f| f.len()),
        Some(0)
    );
    assert_eq!(supervision.get("checkpoint"), Some(&JsonValue::Null));

    // --quick --e7 sweeps the 9 shapes over 3 seeds: 9 groups, 3 runs
    // each, plus one aggregate row per group.
    let groups = tables[0].get("groups").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(groups.len(), 9);
    for group in groups {
        let runs = group.get("runs").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(runs.len(), 3, "one JSON record per run");
        let aggregate = group.get("aggregate").expect("aggregate row present");
        assert_eq!(aggregate.get("runs"), Some(&JsonValue::Int(3)));
        for run in runs {
            for key in [
                "n",
                "seed",
                "shape",
                "strategy",
                "adversary",
                "events",
                "gathered",
                // Schema v2: the incremental world's cache telemetry.
                "visibility_cache_hits",
                "visibility_cache_misses",
                // Schema v3: the output-sensitive loop's counters.
                "decision_cache_hits",
                "decision_cache_misses",
                "hull_repairs",
                "hull_rebuilds",
                // Schema v4: the shadow-oracle record (null without
                // --shadow, but the key is always present).
                "shadow",
                // Schema v5: the pair-store telemetry.
                "world_pair_entries",
                "world_pair_registrations",
                // Schema v7: the fault-injection telemetry.
                "fault_crashed_robots",
                "fault_starved_directives",
                "fault_truncated_directives",
            ] {
                assert!(run.get(key).is_some(), "run record missing '{key}'");
            }
        }
    }
}

#[test]
fn baseline_self_diff_passes_and_regressions_fail() {
    let dir = std::env::temp_dir();
    let current = dir.join(format!("bench_baseline_cli_{}.json", std::process::id()));
    let current_str = current.to_str().unwrap();

    // First run writes the report; second run diffs against it. The sweeps
    // are fully deterministic, so the self-diff must be regression-free.
    let out = report(&["--quick", "--e7", "--jobs", "2", "--json", current_str]);
    assert!(out.status.success());
    let out = report(&["--quick", "--e7", "--jobs", "2", "--baseline", current_str]);
    assert!(
        out.status.success(),
        "a deterministic report cannot regress against itself"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== baseline diff =="));
    assert!(stdout.contains("e7/"));
    assert!(!stdout.contains("REGRESSION"));

    // A fabricated "better" baseline makes the same sweep a regression:
    // exit code 1 and marked rows.
    let fabricated = dir.join(format!("bench_baseline_fab_{}.json", std::process::id()));
    std::fs::write(
        &fabricated,
        r#"{"schema_version": 12, "tables": [
             {"id": "e7", "groups": [
               {"label": "circle",
                "aggregate": {"gathered_rate": 2.0, "mean_events": 0.5}}]}]}"#,
    )
    .unwrap();
    let out = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--baseline",
        fabricated.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSION"), "stdout: {stdout}");
    assert!(String::from_utf8(out.stderr).unwrap().contains("regressed"));

    let _ = std::fs::remove_file(&current);
    let _ = std::fs::remove_file(&fabricated);
}

#[test]
fn baseline_threshold_widens_the_events_gate() {
    // A fabricated baseline whose mean_events is far below anything the
    // sweep can produce: an events regression under the default 10%
    // threshold, but not under an absurdly generous explicit one. The
    // gathered rate is 0.0 so only the events gate is in play.
    let dir = std::env::temp_dir();
    let fabricated = dir.join(format!("bench_threshold_cli_{}.json", std::process::id()));
    std::fs::write(
        &fabricated,
        r#"{"schema_version": 12, "tables": [
             {"id": "e7", "groups": [
               {"label": "circle",
                "aggregate": {"gathered_rate": 0.0, "mean_events": 0.5}}]}]}"#,
    )
    .unwrap();
    let fabricated_str = fabricated.to_str().unwrap();

    let out = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--baseline",
        fabricated_str,
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "under the default 10% threshold this is an events regression"
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("REGRESSION"));

    let out = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--baseline",
        fabricated_str,
        "--baseline-threshold",
        "100000000000",
    ]);
    assert!(
        out.status.success(),
        "a generous explicit threshold must absorb the same delta: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8(out.stdout)
        .unwrap()
        .contains("REGRESSION"));

    let _ = std::fs::remove_file(&fabricated);
}

#[test]
fn baseline_errors_are_reported_before_any_sweep() {
    // Missing file: fails fast with exit 1 (not a usage error, not a sweep).
    let out = report(&["--baseline", "/nonexistent-dir/none.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read baseline"));
    assert!(out.stdout.is_empty(), "no tables may run on a bad baseline");

    // Unparseable baseline: also exit 1, before sweeping.
    let bad = std::env::temp_dir().join(format!("bench_baseline_bad_{}.json", std::process::id()));
    std::fs::write(&bad, "not json at all").unwrap();
    let out = report(&["--baseline", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("not valid JSON"));
    let _ = std::fs::remove_file(&bad);

    // An unsupported schema_version is rejected before any sweep runs.
    let future =
        std::env::temp_dir().join(format!("bench_baseline_v99_{}.json", std::process::id()));
    std::fs::write(&future, r#"{"schema_version": 99}"#).unwrap();
    let out = report(&["--baseline", future.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unsupported schema_version"));
    assert!(out.stdout.is_empty(), "no tables may run on a bad baseline");
    let _ = std::fs::remove_file(&future);

    // --baseline without a value is a usage error.
    let out = report(&["--baseline"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_write_failure_is_reported() {
    // A path whose parent cannot exist (a component of it is a file):
    // creating the parent directories must fail before any sweep runs.
    let out = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--json",
        "/dev/null/nested/bench_report.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot write"));
    assert!(out.stdout.is_empty(), "the probe must fail before sweeping");
}

#[test]
fn json_creates_missing_parent_directories_and_writes_atomically() {
    let dir = std::env::temp_dir().join(format!("bench_json_nested_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("deeply/nested/bench_report.json");
    let out = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("missing parent dirs were created");
    assert!(json::parse(&text).is_ok());
    assert!(
        !path.with_extension("json.tmp").exists(),
        "the atomic write must not leave its temp file behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervision_flags_reject_malformed_values() {
    for args in [
        &["--watchdog-secs"][..],
        &["--watchdog-secs", "soon"],
        &["--watchdog-secs", "0"],
        &["--checkpoint-dir"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(stderr.contains("Usage: report"));
        assert!(out.stdout.is_empty(), "usage errors must not print tables");
    }
}

#[test]
fn checkpointed_report_resumes_identically_from_its_journal() {
    let dir = std::env::temp_dir().join(format!("bench_ck_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.join("ck");
    let first_json = dir.join("first.json");
    let second_json = dir.join("second.json");

    let first = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--checkpoint-dir",
        ck.to_str().unwrap(),
        "--json",
        first_json.to_str().unwrap(),
    ]);
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(ck.join("journal.frck").exists(), "the journal was written");

    // Re-running with the same flags resumes every row from the journal:
    // identical stdout, and an identical JSON document modulo the
    // checkpoint counters.
    let second = report(&[
        "--quick",
        "--e7",
        "--jobs",
        "2",
        "--checkpoint-dir",
        ck.to_str().unwrap(),
        "--json",
        second_json.to_str().unwrap(),
    ]);
    assert!(second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "a resumed report must print the same tables"
    );

    let first_doc = json::parse(&std::fs::read_to_string(&first_json).unwrap()).unwrap();
    let second_doc = json::parse(&std::fs::read_to_string(&second_json).unwrap()).unwrap();
    let checkpoint = |doc: &JsonValue| {
        doc.get("supervision")
            .and_then(|s| s.get("checkpoint"))
            .cloned()
            .expect("checkpoint counters present")
    };
    assert_eq!(
        checkpoint(&first_doc).get("resumed_rows"),
        Some(&JsonValue::Int(0)),
        "the first run resumes nothing"
    );
    // --quick --e7 sweeps 9 shapes x 3 seeds = 27 runs, all resumed.
    assert_eq!(
        checkpoint(&second_doc).get("resumed_rows"),
        Some(&JsonValue::Int(27)),
        "the second run resumes every row"
    );
    // Outside the checkpoint counters the documents are identical: scrub
    // the counters and compare.
    let counter_keys = [
        "resumed_rows",
        "journal_records",
        "recovered_records",
        "dropped_bytes",
        "write_errors",
    ];
    let scrub = |text: &str| {
        text.lines()
            .filter(|line| !counter_keys.iter().any(|key| line.contains(key)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        scrub(&std::fs::read_to_string(&first_json).unwrap()),
        scrub(&std::fs::read_to_string(&second_json).unwrap()),
        "resume must be byte-identical modulo the checkpoint counters"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
