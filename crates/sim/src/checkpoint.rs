//! Crash-safe checkpoint/resume journal for sweeps.
//!
//! Runs are fully seeded and deterministic, so a finished run is fully
//! described by its [`RunSummary`] (which carries its [`RunSpec`]). The
//! journal stores exactly one kind of record — a **completed** row, with
//! the summary inlined so resume never re-executes a finished run. A run
//! that was in flight when the process died simply re-runs from its spec;
//! determinism makes the re-run byte-identical.
//!
//! ## Byte layout
//!
//! All integers little-endian.
//!
//! ```text
//! journal := magic "FRCK" | version u32 | engine_id u32 | frame*
//! frame   := len u32 | crc32 u32 | payload           (len = payload bytes)
//! payload := ordinal u64 | record
//! ```
//!
//! `record` is the UTF-8 text of the run's `bench_report.json` record,
//! [`RunSummary::to_json`] pretty-printed, and decodes through
//! [`RunSummary::from_json`]: the report and the journal share one codec.
//!
//! ## Engine id
//!
//! A row depends on its spec *and* on the engine's semantics, so a row a
//! differently behaving build computed must never be resumed. The header
//! therefore carries an [`engine_id`]: the CRC-32 of the record bytes of
//! one fixed, short paper-algorithm run. A journal whose version (5) or
//! engine id differs from this build's decodes to nothing and every row
//! re-runs. The id only catches behaviour that canonical run exercises — a
//! change confined to, say, a fault adversary keeps the id and must bump
//! [`VERSION`] instead. Version 5 is such a bump: certified pairs moved to
//! their own coarse registration lists, which changes the stored
//! registration count (`world_pair_registrations`) of larger runs but not
//! the canonical run's record.
//!
//! ## Writes and recovery
//!
//! The CRC is the IEEE CRC-32 of the payload. Each completed row is one
//! framed write to the journal file opened for appending, followed by
//! `sync_data`. The decoder walks records until the first torn frame, bad
//! CRC, or undecodable payload and **recovers to the last valid record** —
//! it never panics on corrupt input (pinned by
//! `crates/sim/tests/checkpoint_robustness.rs`).
//! [`CheckpointedSweep::open`] truncates the file to that valid prefix
//! before the first append, so new rows never land behind garbage.
//!
//! Two kinds of summary are not journalled and simply re-run on resume,
//! which determinism makes byte-identical: one that carries shadow-oracle
//! stats (a paper-algorithm run under `--shadow`; the stats drag a full
//! divergence log along — a `--shadow` baseline-strategy run carries none
//! and is journalled), and one whose seed is past `i64::MAX`, which the
//! record would write as a negative number that never decodes.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::experiment::{run, RunSpec, RunSummary};
use crate::json;

/// The journal's magic prefix.
pub const MAGIC: [u8; 4] = *b"FRCK";
/// The journal format version this build writes and reads.
pub const VERSION: u32 = 5;
/// Bytes in the journal header: magic, version, engine id.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a record's payload length; longer frames are treated as
/// corruption (a torn length field would otherwise ask for gigabytes).
pub const MAX_RECORD_LEN: usize = 4096;

/// One journal record: a finished run with its summary inlined.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Position of the run in the invocation's canonical execution order.
    pub ordinal: u64,
    /// The finished run's summary (never carries shadow stats).
    pub summary: RunSummary,
}

/// What the decoder salvaged from an existing journal file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    /// Records decoded successfully.
    pub records: usize,
    /// Bytes discarded after the last valid record (torn tail, bad CRC,
    /// or undecodable payload).
    pub dropped_bytes: usize,
    /// `true` when the file ended exactly at a record boundary with a
    /// valid header — nothing was dropped.
    pub clean: bool,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — hand-rolled, no dependencies.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the checksum in every record frame).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The run behind [`engine_id`]: the paper's algorithm gathering six
/// robots from a random start under the random-async adversary.
fn canonical_spec() -> RunSpec {
    RunSpec {
        max_events: 20_000,
        ..RunSpec::new(6, 1)
    }
}

/// This build's engine-semantics id: the CRC-32 of the record bytes of a
/// fixed, short paper-algorithm run. Two builds share it only if they
/// agree on every event count, distance bit and counter of that run.
pub fn engine_id() -> u32 {
    crc32(run(&canonical_spec()).to_json().to_pretty().as_bytes())
}

fn header(engine_id: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..].copy_from_slice(&engine_id.to_le_bytes());
    header
}

/// `payload` length-framed and checksummed.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// One record as a frame: its ordinal, then its summary's JSON text.
fn encode_frame(record: &Record) -> Vec<u8> {
    let mut payload = record.ordinal.to_le_bytes().to_vec();
    payload.extend_from_slice(record.summary.to_json().to_pretty().as_bytes());
    frame(&payload)
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let ordinal = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let summary = json::parse(std::str::from_utf8(&payload[8..]).ok()?).ok()?;
    Some(Record {
        ordinal,
        summary: RunSummary::from_json(&summary)?,
    })
}

/// Serializes a full journal (header for `engine_id` plus every record).
pub fn encode_journal(engine_id: u32, records: &[Record]) -> Vec<u8> {
    let mut bytes = header(engine_id).to_vec();
    for record in records {
        bytes.extend_from_slice(&encode_frame(record));
    }
    bytes
}

/// Decodes a journal written for `engine_id`, recovering to the last valid
/// record: decoding stops at the first torn frame, CRC mismatch, or
/// undecodable payload, and everything before it is kept. A header with a
/// different magic, version or engine id keeps nothing. Never panics,
/// whatever the input.
pub fn decode_journal(engine_id: u32, bytes: &[u8]) -> (Vec<Record>, Recovery) {
    if bytes.get(..HEADER_LEN) != Some(&header(engine_id)[..]) {
        let recovery = Recovery {
            records: 0,
            dropped_bytes: bytes.len(),
            clean: false,
        };
        return (Vec::new(), recovery);
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let frame = (|| {
            let header = bytes.get(pos..pos + 8)?;
            let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
            if len > MAX_RECORD_LEN {
                return None;
            }
            let crc = u32::from_le_bytes(header[4..8].try_into().ok()?);
            let payload = bytes.get(pos + 8..pos + 8 + len)?;
            if crc32(payload) != crc {
                return None;
            }
            decode_payload(payload).map(|record| (record, 8 + len))
        })();
        let Some((record, consumed)) = frame else {
            break;
        };
        records.push(record);
        pos += consumed;
    }
    let recovery = Recovery {
        records: records.len(),
        dropped_bytes: bytes.len() - pos,
        clean: pos == bytes.len(),
    };
    (records, recovery)
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flush + sync, rename over the destination. Creates missing parent
/// directories. A crash at any point leaves either the old file or the new
/// one — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    create_parent(path)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

/// Checkpoint telemetry surfaced into `bench_report.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointTelemetry {
    /// Completed rows loaded from the journal instead of re-run.
    pub resumed_rows: u64,
    /// Records in the journal at the end of the sweep.
    pub journal_records: u64,
    /// Records salvaged from a pre-existing journal at open.
    pub recovered_records: u64,
    /// Bytes discarded at open: a torn or corrupt tail, or a whole journal
    /// of another version or engine id.
    pub dropped_bytes: u64,
    /// Journal writes that failed (the sweep continues; resume coverage
    /// degrades).
    pub write_errors: u64,
}

/// A checkpointed sweep session: the on-disk journal (an append-mode file
/// handle plus the completed rows it holds, by ordinal), the
/// invocation-wide run ordinal, and the resume/telemetry counters. One
/// session spans every table of a `report` invocation, so ordinals are
/// globally unique in canonical execution order.
#[derive(Debug)]
pub struct CheckpointedSweep {
    file: File,
    /// Bytes of valid journal on disk (a failed append truncates back).
    len: u64,
    /// Records on disk, including superseded rows of a repeated ordinal.
    records: u64,
    /// ordinal → its latest completed summary.
    completed: HashMap<u64, RunSummary>,
    /// What the decoder salvaged when the journal was opened.
    recovery: Recovery,
    next_ordinal: u64,
    resumed_rows: u64,
    write_errors: u64,
}

impl CheckpointedSweep {
    /// Opens the journal at `path` (creating it and its parent directories
    /// if missing) and starts a session at ordinal 0, recovering whatever
    /// valid prefix an earlier — possibly killed — invocation of this
    /// build left behind. A torn or CRC-bad tail is truncated away; a
    /// journal of another version or engine id is replaced by a fresh
    /// header.
    pub fn open(path: &Path) -> io::Result<CheckpointedSweep> {
        create_parent(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let engine_id = engine_id();
        let (records, recovery) = decode_journal(engine_id, &bytes);
        let mut len = (bytes.len() - recovery.dropped_bytes) as u64;
        if len == 0 {
            file.set_len(0)?;
            file.write_all(&header(engine_id))?;
            len = HEADER_LEN as u64;
        } else if recovery.dropped_bytes > 0 {
            file.set_len(len)?;
        }
        file.sync_data()?;
        Ok(CheckpointedSweep {
            file,
            len,
            records: records.len() as u64,
            completed: records
                .into_iter()
                .map(|record| (record.ordinal, record.summary))
                .collect(),
            recovery,
            next_ordinal: 0,
            resumed_rows: 0,
            write_errors: 0,
        })
    }

    /// The ordinal the next table's first run will get.
    pub fn next_ordinal(&self) -> u64 {
        self.next_ordinal
    }

    /// Advances the ordinal counter past a table's `count` runs.
    pub fn advance(&mut self, count: u64) {
        self.next_ordinal += count;
    }

    /// The journalled summary for `ordinal` if its spec matches `spec`,
    /// counted as a resumed row. A mismatch means the journal belongs to a
    /// differently configured sweep, and the row must re-run.
    pub fn take_completed(&mut self, ordinal: u64, spec: &RunSpec) -> Option<RunSummary> {
        let summary = self
            .completed
            .get(&ordinal)
            .filter(|summary| summary.spec == *spec)?
            .clone();
        self.resumed_rows += 1;
        Some(summary)
    }

    /// Journals a completed run as one framed write and syncs it. The
    /// summaries the module docs list are skipped. I/O errors are counted,
    /// not propagated — a failing checkpoint disk must not take the sweep
    /// down with it — and a failed write is truncated away so later
    /// appends stay readable.
    pub fn journal_completed(&mut self, ordinal: u64, summary: &RunSummary) {
        if summary.shadow.is_some() || i64::try_from(summary.spec.seed).is_err() {
            return;
        }
        let record = Record {
            ordinal,
            summary: summary.clone(),
        };
        let frame = encode_frame(&record);
        if self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .is_err()
        {
            let _ = self.file.set_len(self.len);
            self.write_errors += 1;
            return;
        }
        self.len += frame.len() as u64;
        self.records += 1;
        self.completed.insert(ordinal, record.summary);
    }

    /// The session's telemetry for the report's checkpoint counters.
    pub fn telemetry(&self) -> CheckpointTelemetry {
        CheckpointTelemetry {
            resumed_rows: self.resumed_rows,
            journal_records: self.records,
            recovered_records: self.recovery.records as u64,
            dropped_bytes: self.recovery.dropped_bytes as u64,
            write_errors: self.write_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{AdversaryKind, StrategyKind};
    use crate::init::Shape;
    use crate::world::WorldMode;

    fn sample_spec() -> RunSpec {
        RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::CrashStop { k: 2 },
            strategy: StrategyKind::Centroid,
            delta: 0.1 + 0.2,
            max_events: 12_345,
            sample_every: 7,
            ..RunSpec::new(9, 42)
        }
    }

    fn short_spec() -> RunSpec {
        RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        }
    }

    /// Completed records for `ordinals`, all carrying one genuine summary.
    fn records(ordinals: impl IntoIterator<Item = u64>) -> Vec<Record> {
        let summary = run(&short_spec());
        ordinals
            .into_iter()
            .map(|ordinal| Record {
                ordinal,
                summary: summary.clone(),
            })
            .collect()
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("frck_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_spec_field_round_trips_through_the_journal() {
        let mut specs: Vec<RunSpec> = Vec::new();
        specs.extend(Shape::ALL.map(|shape| RunSpec {
            shape,
            ..sample_spec()
        }));
        specs.extend(StrategyKind::ALL.map(|strategy| RunSpec {
            strategy,
            shadow: true,
            ..sample_spec()
        }));
        // Fault kinds with k = 3; the fault-free ones ignore it.
        specs.extend(AdversaryKind::ALL.map(|kind| RunSpec {
            adversary: AdversaryKind::from_name(kind.name(), 3).unwrap(),
            ..sample_spec()
        }));
        specs.extend(WorldMode::ALL.map(|world_mode| RunSpec {
            world_mode,
            ..sample_spec()
        }));
        specs.push(RunSpec {
            sample_every: 0,
            ..sample_spec()
        });
        let genuine = run(&short_spec());
        let mut summaries: Vec<RunSummary> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                // Alternate `Some` and `None` across the optional metrics.
                let some = i % 2 == 0;
                RunSummary {
                    spec,
                    first_fully_visible: some.then_some(17),
                    first_connected: (!some).then_some(23),
                    expansion_monotonicity: some.then_some(0.25),
                    convergence_monotonicity: (!some).then_some(1.0 / 3.0),
                    ..genuine.clone()
                }
            })
            .collect();
        // The widest record the journal accepts still fits one frame.
        let max = i64::MAX as u64;
        summaries.push(RunSummary {
            spec: RunSpec {
                n: max as usize,
                seed: max,
                adversary: AdversaryKind::PersistentSleep { k: max as usize },
                delta: -f64::MIN_POSITIVE,
                max_events: max as usize,
                sample_every: max as usize,
                ..sample_spec()
            },
            events: max as usize,
            cycles_per_robot: f64::MAX,
            first_fully_visible: Some(max as usize),
            first_connected: Some(max as usize),
            visibility_cache_hits: max,
            visibility_cache_misses: max,
            decision_cache_hits: max,
            decision_cache_misses: max,
            hull_repairs: max,
            hull_rebuilds: max,
            world_pair_entries: max,
            world_pair_registrations: max,
            fault_crashed_robots: max,
            fault_starved_directives: max,
            fault_truncated_directives: max,
            ..genuine
        });
        let records: Vec<Record> = summaries
            .into_iter()
            .zip(0..)
            .map(|(summary, ordinal)| Record { ordinal, summary })
            .collect();
        let bytes = encode_journal(0xabcd, &records);
        let (decoded, recovery) = decode_journal(0xabcd, &bytes);
        assert_eq!(decoded, records);
        assert!(recovery.clean);
        assert_eq!(recovery.records, records.len());
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn empty_and_garbage_inputs_recover_to_nothing() {
        for bytes in [&[][..], b"not a journal at all", &[0xff; 64][..]] {
            let (records, recovery) = decode_journal(1, bytes);
            assert!(records.is_empty());
            assert!(!recovery.clean);
            assert_eq!(recovery.dropped_bytes, bytes.len());
        }
        // A bare valid header is a clean empty journal.
        let (records, recovery) = decode_journal(1, &encode_journal(1, &[]));
        assert!(records.is_empty());
        assert!(recovery.clean);
    }

    #[test]
    fn engine_id_is_stable_within_a_build() {
        assert_eq!(engine_id(), engine_id());
        assert!(run(&canonical_spec()).gathered, "the canonical run gathers");
    }

    #[test]
    fn checkpointed_sweep_appends_reloads_and_resumes() {
        let dir = scratch_dir("session");
        let path = dir.join("nested").join("journal.frck");
        let spec = short_spec();
        let summary = run(&spec);
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
            assert_eq!(session.telemetry(), CheckpointTelemetry::default());
            assert_eq!(session.take_completed(0, &spec), None);
            session.journal_completed(0, &summary);
            assert_eq!(session.telemetry().journal_records, 1);
            assert_eq!(session.take_completed(0, &spec), Some(summary.clone()));
            session.advance(2);
            assert_eq!(session.next_ordinal(), 2);
        }
        {
            let mut session = CheckpointedSweep::open(&path).expect("reopen session");
            // A different spec under the same ordinal does not match.
            assert_eq!(session.take_completed(0, &RunSpec::new(4, 4)), None);
            assert_eq!(session.take_completed(0, &spec), Some(summary.clone()));
            // Ordinal 1 never completed: it re-runs.
            assert_eq!(session.take_completed(1, &spec), None);
            let telemetry = session.telemetry();
            assert_eq!(telemetry.resumed_rows, 1);
            assert_eq!(telemetry.journal_records, 1);
            assert_eq!(telemetry.recovered_records, 1);
            assert_eq!(telemetry.dropped_bytes, 0);
            assert_eq!(telemetry.write_errors, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_a_torn_tail_are_recovered() {
        let dir = scratch_dir("torn");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        let summary = run(&spec);
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            for ordinal in 0..3 {
                session.journal_completed(ordinal, &summary);
            }
        }
        // Tear the last frame, as a kill in the middle of its write would.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);
        {
            let mut session = CheckpointedSweep::open(&path).expect("reopen torn journal");
            let telemetry = session.telemetry();
            assert_eq!(telemetry.recovered_records, 2);
            assert!(telemetry.dropped_bytes > 0);
            assert_eq!(
                session.take_completed(2, &spec),
                None,
                "the torn row is gone"
            );
            for ordinal in 2..5 {
                session.journal_completed(ordinal, &summary);
            }
        }
        let mut session = CheckpointedSweep::open(&path).expect("reopen repaired journal");
        let telemetry = session.telemetry();
        assert_eq!(telemetry.dropped_bytes, 0);
        assert_eq!(telemetry.recovered_records, 5);
        assert_eq!(telemetry.journal_records, 5);
        for ordinal in 0..5 {
            assert_eq!(
                session.take_completed(ordinal, &spec),
                Some(summary.clone()),
                "ordinal {ordinal}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_summaries_with_oracle_stats_skip_the_journal() {
        let dir = scratch_dir("shadow");
        let path = dir.join("journal.frck");
        // The oracle only replays the paper's pipeline, so a shadowed
        // baseline run carries no stats and is journalled like any other.
        let centroid = RunSpec {
            shadow: true,
            strategy: StrategyKind::Centroid,
            max_events: 2_000,
            ..short_spec()
        };
        let paper = RunSpec {
            shadow: true,
            ..short_spec()
        };
        let paper_summary = run(&paper);
        assert!(paper_summary.shadow.is_some());
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            session.journal_completed(0, &run(&centroid));
            session.journal_completed(1, &paper_summary);
            assert_eq!(session.telemetry().journal_records, 1);
        }
        let mut session = CheckpointedSweep::open(&path).expect("reopen session");
        let resumed = session
            .take_completed(0, &centroid)
            .expect("the shadowed centroid run resumes");
        assert!(resumed.spec.shadow);
        assert_eq!(resumed, run(&centroid));
        assert_eq!(session.take_completed(1, &paper), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeds_past_i64_max_are_not_journalled() {
        let dir = scratch_dir("seed");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        let summary = run(&spec);
        let huge = RunSummary {
            spec: RunSpec {
                seed: 1 << 63,
                ..spec
            },
            ..summary.clone()
        };
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            session.journal_completed(0, &huge);
            session.journal_completed(1, &summary);
            assert_eq!(session.telemetry().journal_records, 1);
        }
        // Had the huge seed been written, it would not decode, and the
        // reopen would have truncated the row behind it.
        let mut session = CheckpointedSweep::open(&path).expect("reopen session");
        assert_eq!(session.telemetry().dropped_bytes, 0);
        assert_eq!(session.take_completed(1, &spec), Some(summary));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_journal_from_a_foreign_engine_is_rejected_not_resumed() {
        let dir = scratch_dir("foreign");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            session.journal_completed(0, &run(&spec));
        }
        // Same version, same records, but stamped by a build whose
        // canonical run came out differently.
        let mut bytes = std::fs::read(&path).unwrap();
        let foreign = engine_id() ^ 1;
        bytes[8..12].copy_from_slice(&foreign.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut session = CheckpointedSweep::open(&path).expect("open foreign journal");
        assert_eq!(session.take_completed(0, &spec), None);
        let telemetry = session.telemetry();
        assert_eq!(telemetry.resumed_rows, 0);
        assert_eq!(telemetry.recovered_records, 0);
        assert_eq!(telemetry.dropped_bytes, bytes.len() as u64);
        // The foreign journal was replaced by this build's bare header.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            encode_journal(engine_id(), &[])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_naming_an_unknown_world_mode_stops_recovery_there() {
        let dir = scratch_dir("world_mode");
        let path = dir.join("journal.frck");
        let rows = records([0, 1]);
        let spec = rows[0].summary.spec;
        // A CRC-valid frame whose record names the retired dense world,
        // followed by a valid frame that recovery never reaches.
        let text = rows[1].summary.to_json().to_pretty();
        let dense = text.replace(r#""world_mode": "sparse""#, r#""world_mode": "dense""#);
        assert_ne!(dense, text);
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.extend_from_slice(dense.as_bytes());
        let mut bytes = encode_journal(engine_id(), &rows[..1]);
        let kept = bytes.len();
        bytes.extend_from_slice(&frame(&payload));
        bytes.extend_from_slice(&encode_frame(&rows[1]));
        let (decoded, recovery) = decode_journal(engine_id(), &bytes);
        assert_eq!(decoded, rows[..1]);
        assert_eq!(recovery.dropped_bytes, bytes.len() - kept);

        std::fs::create_dir_all(&dir).expect("create journal dir");
        std::fs::write(&path, &bytes).expect("write journal");
        let mut session = CheckpointedSweep::open(&path).expect("open journal");
        assert_eq!(
            session.take_completed(0, &spec),
            Some(rows[0].summary.clone())
        );
        assert_eq!(session.take_completed(1, &spec), None);
        let telemetry = session.telemetry();
        assert_eq!(telemetry.recovered_records, 1);
        assert_eq!(telemetry.dropped_bytes, (bytes.len() - kept) as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journals_of_the_previous_format_are_dropped_not_resumed() {
        let dir = scratch_dir("v3");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        // A well-framed journal stamped version 3 (the retired binary
        // summary codec) keeps nothing, whatever its frames hold.
        let mut bytes = encode_journal(engine_id(), &records([0]));
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        let (decoded, recovery) = decode_journal(engine_id(), &bytes);
        assert!(decoded.is_empty());
        assert_eq!(recovery.records, 0);
        assert_eq!(recovery.dropped_bytes, bytes.len());
        assert!(!recovery.clean);

        std::fs::create_dir_all(&dir).expect("create journal dir");
        std::fs::write(&path, &bytes).expect("write old journal");
        let mut session = CheckpointedSweep::open(&path).expect("open old journal");
        assert_eq!(session.take_completed(0, &spec), None);
        let telemetry = session.telemetry();
        assert_eq!(telemetry.resumed_rows, 0);
        assert_eq!(telemetry.recovered_records, 0);
        assert_eq!(telemetry.dropped_bytes, bytes.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
