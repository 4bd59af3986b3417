//! The shrinking scenario fuzzer: hunts non-gathering runs, then shrinks
//! each find into a minimal deterministic regression fixture.
//!
//! The paper's Theorem 26 promises gathering under any schedule satisfying
//! the two liveness conditions; the simulator's stall census (ROADMAP.md)
//! shows the interesting failures sit right at the edge of that promise —
//! and the fault adversaries ([`AdversaryKind::CrashStop`] & co.) step
//! deliberately over it. This module automates the hunt:
//!
//! 1. **Sweep** — replay a deterministic pilot corpus (the known census
//!    corners) followed by seeded random scenarios (shape × adversary ×
//!    fault-k × n × seed) under a total event budget, flagging every run
//!    that fails to gather within its per-scenario event cap. A flagged
//!    run only becomes a finding after a replay at the much larger
//!    [`confirm_cap`] still fails to gather — slow is not stalled.
//! 2. **Shrink** — exploit deterministic replay to minimize each find,
//!    proptest-style: smallest `n` first, then the fault parameter `k`
//!    (both re-confirmed at [`confirm_cap`], so shrinking cannot trade a
//!    livelock for a merely-slow small system), then the event-budget
//!    prefix (with a floor of [`SHRINK_EVENT_FLOOR`] events per robot, so
//!    a shrunk stall still demonstrably stalls rather than trivially
//!    running out of budget).
//! 3. **File** — emit one machine-readable fixture per find (spec JSON +
//!    expected census, byte-stable) that `tests/livelock_regression.rs`
//!    auto-loads and replays. A stall found once stays found.
//!
//! Everything is deterministic in (`fuzz seed`, `budget`): the CI
//! `fuzz-smoke` job re-runs the fuzzer with pinned inputs and requires the
//! emitted fixtures to be byte-identical to the committed ones.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiment::{self, AdversaryKind, RunSpec};
use crate::init::Shape;
use crate::json::{self, JsonValue};

/// Per-robot event floor kept by the budget-prefix shrink: a shrunk
/// non-gathering fixture must still grant every robot a few hundred
/// activations, otherwise "did not gather" degenerates into "was not given
/// a chance to".
pub const SHRINK_EVENT_FLOOR: usize = 400;

/// A fuzz scenario: the subset of a [`RunSpec`] the fuzzer explores. The
/// strategy is always the paper's algorithm, δ and the world mode stay at
/// their defaults, so a scenario is replayed bit-identically from these
/// five fields alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Number of robots.
    pub n: usize,
    /// Seed for the initial configuration and the adversary.
    pub seed: u64,
    /// Initial configuration shape.
    pub shape: Shape,
    /// Asynchronous schedule (possibly a fault injector).
    pub adversary: AdversaryKind,
    /// Event budget the scenario is judged under.
    pub max_events: usize,
}

impl ScenarioSpec {
    /// The full [`RunSpec`] this scenario replays as.
    pub fn to_run_spec(&self) -> RunSpec {
        RunSpec {
            shape: self.shape,
            adversary: self.adversary,
            max_events: self.max_events,
            ..RunSpec::new(self.n, self.seed)
        }
    }
}

/// The replay-stable outcome of one scenario: what the regression fixtures
/// pin. `distance_bits` stores the total travelled distance as its exact
/// IEEE-754 bit pattern, so fixture comparisons are byte-exact instead of
/// epsilon-fuzzy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// `true` when the run gathered (live robots, under fault injection).
    pub gathered: bool,
    /// `true` when the run (effectively) terminated.
    pub terminated: bool,
    /// Events applied.
    pub events: usize,
    /// Total travelled distance, as `f64::to_bits`.
    pub distance_bits: u64,
}

/// Replays a scenario and returns its census.
pub fn replay(spec: &ScenarioSpec) -> Census {
    let summary = experiment::run(&spec.to_run_spec());
    Census {
        gathered: summary.gathered,
        terminated: summary.terminated,
        events: summary.events,
        distance_bits: summary.distance.to_bits(),
    }
}

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzConfig {
    /// Total event budget for the discovery sweep (shrink replays are not
    /// charged against it — an unlucky find must not truncate its own
    /// minimization).
    pub budget: u64,
    /// Seed of the random scenario generator.
    pub seed: u64,
    /// Stop after this many findings (each costs a full shrink).
    pub max_finds: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 400_000,
            seed: 7,
            max_finds: 6,
        }
    }
}

/// One non-gathering find, fully shrunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The minimized scenario.
    pub spec: ScenarioSpec,
    /// Its census (the fixture's expected values).
    pub census: Census,
    /// Accepted shrink moves (smaller `n`, smaller `k`, halved budget).
    pub shrink_steps: u32,
    /// `"pilot"` for pilot-corpus scenarios, `"random"` for swept ones.
    pub origin: &'static str,
}

/// The outcome of a fuzz campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuzzReport {
    /// Scenarios executed in the discovery sweep.
    pub scenarios: u64,
    /// Events spent by the discovery sweep (gated by the budget).
    pub events_spent: u64,
    /// Stall-confirmation replays at [`confirm_cap`] (not charged to the
    /// budget): one per flagged run, one per `n`/`k` shrink candidate.
    pub confirm_replays: u64,
    /// Budget-prefix replays performed while shrinking (not charged to the
    /// budget).
    pub shrink_replays: u64,
    /// The shrunk findings, in discovery order.
    pub findings: Vec<Finding>,
}

/// The deterministic pilot corpus: the ROADMAP stall census corners plus a
/// fault-injection corner on the new adversarial shapes. Seeding the sweep
/// with the known livelocks guarantees the CI smoke gate rediscovers them
/// regardless of the random tail.
fn pilot_corpus() -> Vec<ScenarioSpec> {
    vec![
        // The canonical stall: n = 16, seed 2, random starts, random-async
        // schedule — not gathered after 100k events (seeds 1, 4, 5 gather).
        ScenarioSpec {
            n: 16,
            seed: 2,
            shape: Shape::Random,
            adversary: AdversaryKind::RandomAsync,
            max_events: 100_000,
        },
        ScenarioSpec {
            n: 16,
            seed: 3,
            shape: Shape::Random,
            adversary: AdversaryKind::RandomAsync,
            max_events: 100_000,
        },
        // Fault corners: a crashed coalition on the bridge corridor and a
        // δ-crawling coalition on the near-collinear chain.
        ScenarioSpec {
            n: 12,
            seed: 1,
            shape: Shape::Bridge,
            adversary: AdversaryKind::CrashStop { k: 3 },
            max_events: 24_000,
        },
        ScenarioSpec {
            n: 10,
            seed: 1,
            shape: Shape::NearCollinear,
            adversary: AdversaryKind::SlowCoalition { k: 3 },
            max_events: 24_000,
        },
    ]
}

/// The per-scenario event cap of the random sweep: generous against the
/// committed baseline's gather times (n = 8 gathers in ~5k events), so a
/// flagged run is stalling, not merely unlucky.
fn sweep_cap(n: usize) -> usize {
    1_200 * n
}

/// The stall-confirmation event cap: a flagged run only becomes a finding
/// (and a shrink candidate is only accepted) if it *still* has not
/// gathered at this budget — roughly 40× the slowest observed gather time
/// per robot, so "livelock" does not quietly degrade into "slow" as the
/// shrinker walks `n` and `k` down.
pub fn confirm_cap(n: usize) -> usize {
    24_000 * n
}

/// `true` when the scenario still stalls at the confirmation budget
/// (ignoring its own `max_events`). Every call is one replay, tallied in
/// `confirm_replays`.
fn stalls_confirmed(spec: &ScenarioSpec, report: &mut FuzzReport) -> bool {
    report.confirm_replays += 1;
    let confirm = ScenarioSpec {
        max_events: confirm_cap(spec.n),
        ..*spec
    };
    !replay(&confirm).gathered
}

/// One random scenario drawn from the fuzz pool.
fn random_scenario(rng: &mut StdRng) -> ScenarioSpec {
    let n = rng.gen_range(4usize..=16);
    let seed = rng.gen_range(0u64..=9);
    let shape = Shape::ALL[rng.gen_range(0..Shape::ALL.len())];
    let adversary = AdversaryKind::ALL[rng.gen_range(0..AdversaryKind::ALL.len())];
    let k = rng.gen_range(1usize..=3);
    let adversary = match adversary {
        AdversaryKind::CrashStop { .. } => AdversaryKind::CrashStop { k },
        AdversaryKind::PersistentSleep { .. } => AdversaryKind::PersistentSleep { k },
        AdversaryKind::SlowCoalition { .. } => AdversaryKind::SlowCoalition { k },
        other => other,
    };
    ScenarioSpec {
        n,
        seed,
        shape,
        adversary,
        max_events: sweep_cap(n),
    }
}

/// Replaces the fault parameter of a fault adversary (no-op otherwise).
fn with_fault_k(adversary: AdversaryKind, k: usize) -> AdversaryKind {
    match adversary {
        AdversaryKind::CrashStop { .. } => AdversaryKind::CrashStop { k },
        AdversaryKind::PersistentSleep { .. } => AdversaryKind::PersistentSleep { k },
        AdversaryKind::SlowCoalition { .. } => AdversaryKind::SlowCoalition { k },
        other => other,
    }
}

/// Shrinks one confirmed find, proptest-style: minimal `n` first, then the
/// fault parameter `k` — both judged at the [`confirm_cap`] of the
/// candidate, so a shrunk fixture is still a confirmed stall and not a
/// merely-slow small system — then the event-budget prefix (halved down to
/// [`SHRINK_EVENT_FLOOR`] events per robot; the fails-to-gather-within
/// property is monotone under budget cuts, but every cut is verified by
/// replay anyway). Returns the minimized spec, its census, and the number
/// of accepted shrink moves.
fn shrink(found: ScenarioSpec, report: &mut FuzzReport) -> (ScenarioSpec, Census, u32) {
    let mut spec = found;
    let mut steps = 0u32;
    // Smallest n that still stalls, scanned from the bottom: the first hit
    // is the global minimum, so no further descent is needed.
    for n in 2..spec.n {
        let candidate = ScenarioSpec { n, ..spec };
        if stalls_confirmed(&candidate, report) {
            spec = candidate;
            steps += 1;
            break;
        }
    }
    // Smallest fault parameter that still stalls.
    if spec.adversary.fault_k() > 1 {
        for k in 1..spec.adversary.fault_k() {
            let candidate = ScenarioSpec {
                adversary: with_fault_k(spec.adversary, k),
                ..spec
            };
            if stalls_confirmed(&candidate, report) {
                spec = candidate;
                steps += 1;
                break;
            }
        }
    }
    // Shortest event-budget prefix that still fails to gather.
    let floor = SHRINK_EVENT_FLOOR * spec.n;
    while spec.max_events / 2 >= floor {
        let candidate = ScenarioSpec {
            max_events: spec.max_events / 2,
            ..spec
        };
        report.shrink_replays += 1;
        if replay(&candidate).gathered {
            break;
        }
        spec = candidate;
        steps += 1;
    }
    report.shrink_replays += 1;
    (spec, replay(&spec), steps)
}

/// Runs one fuzz campaign: pilot corpus first, then seeded random
/// scenarios until the event budget or the finding cap is exhausted. One
/// finding is kept per (shape, adversary) family — the first, fully
/// shrunk; later scenarios of an already-found family are skipped so a
/// single pathological family cannot monopolize the fixture set.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut found_families: Vec<(&'static str, &'static str)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pilots = pilot_corpus().into_iter();
    while report.events_spent < config.budget && report.findings.len() < config.max_finds {
        let (spec, origin) = match pilots.next() {
            Some(spec) => (spec, "pilot"),
            None => (random_scenario(&mut rng), "random"),
        };
        let family = (spec.shape.name(), spec.adversary.name());
        if found_families.contains(&family) {
            continue;
        }
        let census = replay(&spec);
        report.scenarios += 1;
        report.events_spent += census.events as u64;
        if census.gathered {
            continue;
        }
        // A flagged run must still stall at the confirmation budget before
        // it counts: the sweep caps are tight enough that an unlucky slow
        // gatherer can trip them.
        if !stalls_confirmed(&spec, &mut report) {
            continue;
        }
        let (shrunk, shrunk_census, shrink_steps) = shrink(spec, &mut report);
        found_families.push(family);
        report.findings.push(Finding {
            spec: shrunk,
            census: shrunk_census,
            shrink_steps,
            origin,
        });
    }
    report
}

/// A committed regression fixture: the shrunk scenario plus its expected
/// census and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixture {
    /// The minimized scenario.
    pub spec: ScenarioSpec,
    /// The census the replay must reproduce exactly.
    pub expected: Census,
    /// `"pilot"` or `"random"`.
    pub origin: String,
    /// Accepted shrink moves behind this fixture.
    pub shrink_steps: u32,
}

impl Fixture {
    /// The fixture's canonical file name, derived from the scenario.
    pub fn file_name(&self) -> String {
        let mut name = format!("{}_{}", self.spec.shape.name(), self.spec.adversary.name());
        if self.spec.adversary.fault_k() > 0 {
            let _ = write!(name, "_k{}", self.spec.adversary.fault_k());
        }
        let _ = write!(name, "_n{}_seed{}.json", self.spec.n, self.spec.seed);
        name
    }

    /// Serializes the fixture (byte-stable: fixed field order, fixed
    /// indentation, `\n` line ends).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"fixture_schema\": 1,\n  \"n\": {},\n  \"seed\": {},\n  \"shape\": \"{}\",\n  \"adversary\": \"{}\",\n  \"fault_k\": {},\n  \"max_events\": {},\n  \"origin\": \"{}\",\n  \"shrink_steps\": {},\n  \"census\": {{\n    \"gathered\": {},\n    \"terminated\": {},\n    \"events\": {},\n    \"distance_bits\": {}\n  }}\n}}\n",
            self.spec.n,
            self.spec.seed,
            self.spec.shape.name(),
            self.spec.adversary.name(),
            self.spec.adversary.fault_k(),
            self.spec.max_events,
            self.origin,
            self.shrink_steps,
            self.expected.gathered,
            self.expected.terminated,
            self.expected.events,
            self.expected.distance_bits,
        )
    }

    /// Parses a fixture serialized by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Fixture, String> {
        // `distance_bits` is the bit pattern of a non-negative distance, so
        // its sign bit is clear and it fits the codec's `i64` integers.
        fn field<'a, T>(
            obj: &'a JsonValue,
            key: &str,
            read: impl Fn(&'a JsonValue) -> Option<T>,
        ) -> Result<T, String> {
            obj.get(key)
                .and_then(read)
                .ok_or_else(|| format!("missing or mistyped key '{key}'"))
        }
        let doc = json::parse(text)?;
        let census = field(&doc, "census", Some)?;
        let shape_name = field(&doc, "shape", JsonValue::as_str)?;
        let shape =
            Shape::from_name(shape_name).ok_or_else(|| format!("unknown shape '{shape_name}'"))?;
        let adversary_name = field(&doc, "adversary", JsonValue::as_str)?;
        let fault_k = field(&doc, "fault_k", JsonValue::as_u64)? as usize;
        let adversary = AdversaryKind::from_name(adversary_name, fault_k)
            .ok_or_else(|| format!("unknown adversary '{adversary_name}'"))?;
        Ok(Fixture {
            spec: ScenarioSpec {
                n: field(&doc, "n", JsonValue::as_u64)? as usize,
                seed: field(&doc, "seed", JsonValue::as_u64)?,
                shape,
                adversary,
                max_events: field(&doc, "max_events", JsonValue::as_u64)? as usize,
            },
            expected: Census {
                gathered: field(census, "gathered", JsonValue::as_bool)?,
                terminated: field(census, "terminated", JsonValue::as_bool)?,
                events: field(census, "events", JsonValue::as_u64)? as usize,
                distance_bits: field(census, "distance_bits", JsonValue::as_u64)?,
            },
            origin: field(&doc, "origin", JsonValue::as_str)?.to_string(),
            shrink_steps: field(&doc, "shrink_steps", JsonValue::as_u64)? as u32,
        })
    }
}

/// Writes one fixture file per finding into `dir` (created if missing).
/// Returns the written paths, in finding order.
pub fn write_fixtures(report: &FuzzReport, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(report.findings.len());
    for finding in &report.findings {
        let fixture = Fixture {
            spec: finding.spec,
            expected: finding.census,
            origin: finding.origin.to_string(),
            shrink_steps: finding.shrink_steps,
        };
        let path = dir.join(fixture.file_name());
        // Atomic (temp + rename): a killed fuzz run never leaves a torn
        // fixture for the regression loader to choke on.
        crate::checkpoint::write_atomic(&path, fixture.to_json().as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads every `*.json` fixture in `dir`, sorted by file name. A missing
/// directory is an empty set, not an error (fresh checkouts before the
/// first fuzz run).
pub fn load_fixtures(dir: &Path) -> io::Result<Vec<(PathBuf, Fixture)>> {
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(iter) => iter
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect(),
        Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(err),
    };
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)?;
            let fixture = Fixture::from_json(&text)
                .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
            Ok((path, fixture))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall_fixture() -> Fixture {
        Fixture {
            spec: ScenarioSpec {
                n: 16,
                seed: 2,
                shape: Shape::Random,
                adversary: AdversaryKind::CrashStop { k: 2 },
                max_events: 12_500,
            },
            expected: Census {
                gathered: false,
                terminated: false,
                events: 12_500,
                distance_bits: 0x4637_6615_1613_3713,
            },
            origin: "pilot".into(),
            shrink_steps: 3,
        }
    }

    #[test]
    fn fixture_json_round_trips_byte_exactly() {
        let fixture = stall_fixture();
        let text = fixture.to_json();
        let parsed = Fixture::from_json(&text).expect("fixture parses");
        assert_eq!(parsed, fixture);
        assert_eq!(parsed.to_json(), text, "serialization is byte-stable");
        assert_eq!(fixture.file_name(), "random_crash-stop_k2_n16_seed2.json");
    }

    #[test]
    fn fixture_parser_rejects_malformed_input() {
        assert!(Fixture::from_json("").is_err());
        assert!(Fixture::from_json("{}").is_err());
        assert!(Fixture::from_json("{\"n\": 3").is_err());
        let good = stall_fixture().to_json();
        assert!(Fixture::from_json(&good.replace("random", "no-such-shape")).is_err());
        assert!(Fixture::from_json(&(good + "x")).is_err());
    }

    #[test]
    fn replay_is_deterministic() {
        let spec = ScenarioSpec {
            n: 5,
            seed: 3,
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 120_000,
        };
        let a = replay(&spec);
        assert_eq!(a, replay(&spec));
        assert!(a.gathered, "5 robots on a circle gather");
    }

    #[test]
    fn shrink_minimizes_and_preserves_the_failure() {
        // Stop-happy never gathers a line in a short window: shrinking must
        // walk n down to the smallest still-failing system and cut the
        // budget to the floor, with the property verified on every move.
        let found = ScenarioSpec {
            n: 8,
            seed: 1,
            shape: Shape::Line,
            adversary: AdversaryKind::StopHappy,
            max_events: 9_600,
        };
        assert!(!replay(&found).gathered, "the seed find must fail");
        let mut report = FuzzReport::default();
        let (shrunk, census, steps) = shrink(found, &mut report);
        assert!(!census.gathered, "shrinking must preserve the failure");
        assert!(shrunk.n <= found.n);
        assert!(shrunk.max_events >= SHRINK_EVENT_FLOOR * shrunk.n);
        assert!(report.shrink_replays > 0);
        assert!(steps > 0, "this find is actually shrinkable");
        // Minimality in n: every smaller system gathers even at the
        // confirmation budget — the shrink missed no smaller witness.
        for n in 2..shrunk.n {
            let smaller = ScenarioSpec {
                n,
                max_events: confirm_cap(n),
                ..shrunk
            };
            assert!(
                replay(&smaller).gathered,
                "n = {n} stalls too — the shrink missed a smaller witness"
            );
        }
    }

    #[test]
    fn fuzz_campaign_is_deterministic_and_finds_the_pilot_stall() {
        // A budget that only covers the first pilot: the campaign must
        // still rediscover and shrink the canonical n = 16 stall.
        let config = FuzzConfig {
            budget: 1,
            seed: 7,
            max_finds: 1,
        };
        let report = fuzz(&config);
        assert_eq!(report.scenarios, 1);
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.origin, "pilot");
        assert_eq!(finding.spec.shape, Shape::Random);
        assert_eq!(finding.spec.adversary, AdversaryKind::RandomAsync);
        assert!(!finding.census.gathered);
        assert_eq!(&fuzz(&config), &report, "campaigns replay bit-identically");
    }

    #[test]
    fn fixtures_write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("fatrobots-fuzz-{}", std::process::id()));
        let report = FuzzReport {
            scenarios: 1,
            events_spent: 100,
            confirm_replays: 3,
            shrink_replays: 2,
            findings: vec![Finding {
                spec: stall_fixture().spec,
                census: stall_fixture().expected,
                shrink_steps: 3,
                origin: "pilot",
            }],
        };
        let paths = write_fixtures(&report, &dir).expect("fixtures written");
        assert_eq!(paths.len(), 1);
        let loaded = load_fixtures(&dir).expect("fixtures load");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.spec, stall_fixture().spec);
        assert_eq!(loaded[0].1.expected, stall_fixture().expected);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            load_fixtures(&dir)
                .expect("missing dir is empty")
                .is_empty(),
            "a missing fixtures directory is an empty set"
        );
    }
}
