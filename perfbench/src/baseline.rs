//! The output check: runs that have a row in the committed quick baseline
//! (`crates/baselines/bench_report.json`) must reproduce its `events` and
//! `gathered` exactly.

use std::collections::HashMap;

use fatrobots_bench::json::{self, JsonValue};
use fatrobots_sim::experiment::{RunSpec, RunSummary};

const BASELINE: &str = include_str!("../../crates/baselines/bench_report.json");

/// What identifies a run in the baseline: every spec field the report
/// records that can change the outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    n: usize,
    seed: u64,
    shape: String,
    strategy: String,
    adversary: String,
    delta_bits: u64,
    max_events: usize,
}

impl Key {
    fn of(spec: &RunSpec) -> Key {
        Key {
            n: spec.n,
            seed: spec.seed,
            shape: spec.shape.name().to_string(),
            strategy: spec.strategy.name().to_string(),
            adversary: spec.adversary.name().to_string(),
            delta_bits: spec.delta.to_bits(),
            max_events: spec.max_events,
        }
    }
}

/// The pinned `(events, gathered)` of every baseline run.
pub struct Baseline(HashMap<Key, (usize, bool)>);

impl Baseline {
    /// Parses the baseline compiled into the binary.
    pub fn load() -> Result<Baseline, String> {
        let doc = json::parse(BASELINE).map_err(|e| format!("baseline is not JSON: {e}"))?;
        let mut rows = HashMap::new();
        let runs = doc
            .get("tables")
            .and_then(JsonValue::as_arr)
            .ok_or("baseline has no tables")?
            .iter()
            .flat_map(|t| t.get("groups").and_then(JsonValue::as_arr).unwrap_or(&[]))
            .flat_map(|g| g.get("runs").and_then(JsonValue::as_arr).unwrap_or(&[]));
        for run in runs {
            let key = (|| {
                Some(Key {
                    n: int(run.get("n")?)? as usize,
                    seed: int(run.get("seed")?)? as u64,
                    shape: run.get("shape")?.as_str()?.to_string(),
                    strategy: run.get("strategy")?.as_str()?.to_string(),
                    adversary: run.get("adversary")?.as_str()?.to_string(),
                    delta_bits: num(run.get("delta")?)?.to_bits(),
                    max_events: int(run.get("max_events")?)? as usize,
                })
            })()
            .ok_or("baseline run lacks a spec field")?;
            let events = run.get("events").and_then(int).ok_or("run lacks events")?;
            let gathered = match run.get("gathered") {
                Some(JsonValue::Bool(b)) => *b,
                _ => return Err("run lacks gathered".into()),
            };
            rows.entry(key).or_insert((events as usize, gathered));
        }
        Ok(Baseline(rows))
    }

    /// The pinned `(events, gathered)` for `spec`, if the baseline ran it.
    pub fn pinned(&self, spec: &RunSpec) -> Option<(usize, bool)> {
        self.0.get(&Key::of(spec)).copied()
    }

    /// `Err` with a description when `summary` contradicts its baseline row.
    pub fn check(&self, summary: &RunSummary) -> Result<(), String> {
        match self.pinned(&summary.spec) {
            Some((events, gathered))
                if (events, gathered) != (summary.events, summary.gathered) =>
            {
                Err(format!(
                    "{:?}: events/gathered {}/{} but the baseline pins {events}/{gathered}",
                    summary.spec, summary.events, summary.gathered
                ))
            }
            _ => Ok(()),
        }
    }
}

fn int(v: &JsonValue) -> Option<i64> {
    match v {
        JsonValue::Int(i) => Some(*i),
        _ => None,
    }
}

fn num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(x) => Some(*x),
        JsonValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}
