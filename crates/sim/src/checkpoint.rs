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
//! All integers little-endian; `f64` stored as its IEEE-754 bit pattern.
//!
//! ```text
//! journal := magic "FRCK" | version u32 | engine_id u32 | record*
//! record  := len u32 | crc32 u32 | payload           (len = payload bytes)
//! payload := ordinal u64 | summary
//! summary := spec | gathered u8 | terminated u8 | events u64 |
//!            cycles_per_robot f64 | distance f64 |
//!            first_fully_visible opt_u64 | first_connected opt_u64 |
//!            expansion_monotonicity opt_f64 |
//!            convergence_monotonicity opt_f64 | counter u64 × 11
//! spec    := n u64 | seed u64 | shape u8 | strategy u8 | adversary u8 |
//!            fault_k u64 | delta f64 | max_events u64 | shadow u8 |
//!            world_mode u8 | sample_every u64
//! opt_T   := 0 u8 | 1 u8 T
//! ```
//!
//! The eleven summary counters are, in order: visibility-cache hits and
//! misses, decision-cache hits and misses, hull repairs and rebuilds, pair
//! entries and registrations, then the three fault counters (crashed
//! robots, starved and truncated directives).
//!
//! ## Engine id
//!
//! A row depends on its spec *and* on the engine's semantics, so a row a
//! differently behaving build computed must never be resumed. The header
//! therefore carries an [`engine_id`]: the CRC-32 of the encoded summary of
//! one fixed, short paper-algorithm run. A journal whose version or engine
//! id differs from this build's decodes to nothing and every row re-runs.
//! The id only catches behaviour that canonical run exercises — a change
//! confined to, say, a fault adversary keeps the id and must bump
//! [`VERSION`] instead.
//!
//! ## Writes and recovery
//!
//! The CRC is the IEEE CRC-32 of the payload. Each completed row is one
//! framed write to the journal file opened for appending, followed by
//! `sync_data`. The decoder walks records until the first torn frame, bad
//! CRC, or undecodable payload and **recovers to the last valid record** —
//! it never panics on corrupt input (pinned by
//! `crates/sim/tests/checkpoint_robustness.rs`). [`Journal::open`]
//! truncates the file to that valid prefix before the first append, so new
//! rows never land behind garbage.
//!
//! Summaries that carry shadow-oracle stats are not journalled (the stats
//! drag a full divergence log along); a shadowed run simply re-executes on
//! resume, which determinism makes byte-identical.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::experiment::{run, AdversaryKind, RunSpec, RunSummary, StrategyKind};
use crate::init::Shape;
use crate::world::WorldMode;

/// The journal's magic prefix.
pub const MAGIC: [u8; 4] = *b"FRCK";
/// The journal format version this build writes and reads.
pub const VERSION: u32 = 3;
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

// ---------------------------------------------------------------------------
// Byte-level encoding.

/// Little-endian byte writer for record payloads.
#[derive(Debug, Default)]
struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
            None => self.u8(0),
        }
    }
}

/// Panic-free little-endian reader; every read returns `None` past the end.
#[derive(Debug)]
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(chunk.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }
    fn opt_f64(&mut self) -> Option<Option<f64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.f64()?)),
            _ => None,
        }
    }
    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn shape_tag(shape: Shape) -> u8 {
    match shape {
        Shape::Random => 0,
        Shape::Line => 1,
        Shape::Grid => 2,
        Shape::Circle => 3,
        Shape::Clusters => 4,
        Shape::Hex => 5,
        Shape::Bridge => 6,
        Shape::RingHole => 7,
        Shape::NearCollinear => 8,
    }
}

fn shape_from_tag(tag: u8) -> Option<Shape> {
    Some(match tag {
        0 => Shape::Random,
        1 => Shape::Line,
        2 => Shape::Grid,
        3 => Shape::Circle,
        4 => Shape::Clusters,
        5 => Shape::Hex,
        6 => Shape::Bridge,
        7 => Shape::RingHole,
        8 => Shape::NearCollinear,
        _ => return None,
    })
}

fn strategy_tag(strategy: StrategyKind) -> u8 {
    match strategy {
        StrategyKind::Paper => 0,
        StrategyKind::Centroid => 1,
        StrategyKind::GreedyNearest => 2,
        StrategyKind::SmallN => 3,
    }
}

fn strategy_from_tag(tag: u8) -> Option<StrategyKind> {
    Some(match tag {
        0 => StrategyKind::Paper,
        1 => StrategyKind::Centroid,
        2 => StrategyKind::GreedyNearest,
        3 => StrategyKind::SmallN,
        _ => return None,
    })
}

fn adversary_tag(adversary: AdversaryKind) -> (u8, u64) {
    match adversary {
        AdversaryKind::RoundRobin => (0, 0),
        AdversaryKind::RandomAsync => (1, 0),
        AdversaryKind::StopHappy => (2, 0),
        AdversaryKind::SlowRobot => (3, 0),
        AdversaryKind::CollisionSeeker => (4, 0),
        AdversaryKind::CrashStop { k } => (5, k as u64),
        AdversaryKind::PersistentSleep { k } => (6, k as u64),
        AdversaryKind::SlowCoalition { k } => (7, k as u64),
    }
}

fn adversary_from_tag(tag: u8, k: u64) -> Option<AdversaryKind> {
    let k = k as usize;
    Some(match tag {
        0 => AdversaryKind::RoundRobin,
        1 => AdversaryKind::RandomAsync,
        2 => AdversaryKind::StopHappy,
        3 => AdversaryKind::SlowRobot,
        4 => AdversaryKind::CollisionSeeker,
        5 => AdversaryKind::CrashStop { k },
        6 => AdversaryKind::PersistentSleep { k },
        7 => AdversaryKind::SlowCoalition { k },
        _ => return None,
    })
}

/// Tag 0 was the retired dense pair-matrix world. It no longer decodes: a
/// row that engine computed carries dense-only telemetry a fresh run would
/// not reproduce, so an old journal recovers to the prefix before its
/// first dense record and the rest re-runs (counted in `dropped_bytes`).
fn world_mode_tag(mode: WorldMode) -> u8 {
    match mode {
        WorldMode::Sparse => 1,
        WorldMode::Scratch => 2,
    }
}

fn world_mode_from_tag(tag: u8) -> Option<WorldMode> {
    Some(match tag {
        1 => WorldMode::Sparse,
        2 => WorldMode::Scratch,
        _ => return None,
    })
}

fn encode_spec(w: &mut ByteWriter, spec: &RunSpec) {
    let (adv, k) = adversary_tag(spec.adversary);
    w.u64(spec.n as u64);
    w.u64(spec.seed);
    w.u8(shape_tag(spec.shape));
    w.u8(strategy_tag(spec.strategy));
    w.u8(adv);
    w.u64(k);
    w.f64(spec.delta);
    w.u64(spec.max_events as u64);
    w.u8(spec.shadow as u8);
    w.u8(world_mode_tag(spec.world_mode));
    w.u64(spec.sample_every as u64);
}

fn decode_spec(r: &mut ByteReader<'_>) -> Option<RunSpec> {
    let n = r.u64()? as usize;
    let seed = r.u64()?;
    let shape = shape_from_tag(r.u8()?)?;
    let strategy = strategy_from_tag(r.u8()?)?;
    let adv_tag = r.u8()?;
    let k = r.u64()?;
    let adversary = adversary_from_tag(adv_tag, k)?;
    let delta = r.f64()?;
    let max_events = r.u64()? as usize;
    let shadow = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let world_mode = world_mode_from_tag(r.u8()?)?;
    let sample_every = r.u64()? as usize;
    Some(RunSpec {
        n,
        seed,
        shape,
        strategy,
        adversary,
        delta,
        max_events,
        shadow,
        world_mode,
        sample_every,
        ..RunSpec::new(n, seed)
    })
}

fn encode_summary(w: &mut ByteWriter, s: &RunSummary) {
    debug_assert!(s.shadow.is_none(), "shadowed summaries are not journalled");
    encode_spec(w, &s.spec);
    w.u8(s.gathered as u8);
    w.u8(s.terminated as u8);
    w.u64(s.events as u64);
    w.f64(s.cycles_per_robot);
    w.f64(s.distance);
    w.opt_u64(s.first_fully_visible.map(|v| v as u64));
    w.opt_u64(s.first_connected.map(|v| v as u64));
    w.opt_f64(s.expansion_monotonicity);
    w.opt_f64(s.convergence_monotonicity);
    for v in [
        s.visibility_cache_hits,
        s.visibility_cache_misses,
        s.decision_cache_hits,
        s.decision_cache_misses,
        s.hull_repairs,
        s.hull_rebuilds,
        s.world_pair_entries,
        s.world_pair_registrations,
        s.fault_crashed_robots,
        s.fault_starved_directives,
        s.fault_truncated_directives,
    ] {
        w.u64(v);
    }
}

fn decode_bool(r: &mut ByteReader<'_>) -> Option<bool> {
    match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn decode_summary(r: &mut ByteReader<'_>) -> Option<RunSummary> {
    let spec = decode_spec(r)?;
    let gathered = decode_bool(r)?;
    let terminated = decode_bool(r)?;
    let events = r.u64()? as usize;
    let cycles_per_robot = r.f64()?;
    let distance = r.f64()?;
    let first_fully_visible = r.opt_u64()?.map(|v| v as usize);
    let first_connected = r.opt_u64()?.map(|v| v as usize);
    let expansion_monotonicity = r.opt_f64()?;
    let convergence_monotonicity = r.opt_f64()?;
    let mut counters = [0u64; 11];
    for c in counters.iter_mut() {
        *c = r.u64()?;
    }
    Some(RunSummary {
        spec,
        gathered,
        terminated,
        events,
        cycles_per_robot,
        distance,
        first_fully_visible,
        first_connected,
        expansion_monotonicity,
        convergence_monotonicity,
        visibility_cache_hits: counters[0],
        visibility_cache_misses: counters[1],
        decision_cache_hits: counters[2],
        decision_cache_misses: counters[3],
        hull_repairs: counters[4],
        hull_rebuilds: counters[5],
        world_pair_entries: counters[6],
        world_pair_registrations: counters[7],
        fault_crashed_robots: counters[8],
        fault_starved_directives: counters[9],
        fault_truncated_directives: counters[10],
        shadow: None,
    })
}

/// The run behind [`engine_id`]: the paper's algorithm gathering six
/// robots from a random start under the random-async adversary.
fn canonical_spec() -> RunSpec {
    RunSpec {
        max_events: 20_000,
        ..RunSpec::new(6, 1)
    }
}

/// This build's engine-semantics id: the CRC-32 of the encoded summary of
/// a fixed, short paper-algorithm run. Two builds share it only if they
/// agree on every event count, distance bit and counter of that run.
pub fn engine_id() -> u32 {
    let mut w = ByteWriter::default();
    encode_summary(&mut w, &run(&canonical_spec()));
    crc32(&w.0)
}

fn header(engine_id: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..].copy_from_slice(&engine_id.to_le_bytes());
    header
}

/// One length-framed, checksummed record.
fn encode_frame(record: &Record) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.u64(record.ordinal);
    encode_summary(&mut w, &record.summary);
    let payload = w.0;
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = ByteReader::new(payload);
    let ordinal = r.u64()?;
    let summary = decode_summary(&mut r)?;
    // Trailing garbage inside a CRC-valid frame means the frame was not
    // written by this encoder; reject it.
    r.exhausted().then_some(Record { ordinal, summary })
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

/// The on-disk journal: an append-mode file handle plus the completed rows
/// it holds, indexed by ordinal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// Bytes of valid journal on disk (a failed append truncates back).
    len: u64,
    /// Records on disk, including superseded rows of a repeated ordinal.
    records: usize,
    /// ordinal → its latest completed summary.
    completed: HashMap<u64, RunSummary>,
    recovery: Recovery,
}

impl Journal {
    /// Opens the journal at `path` (creating it and its parent directories
    /// if missing), recovering whatever valid prefix an earlier — possibly
    /// killed — invocation of this build left behind. A torn or CRC-bad
    /// tail is truncated away; a journal of another version or engine id
    /// is replaced by a fresh header.
    pub fn open(path: &Path) -> io::Result<Journal> {
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
        Ok(Journal {
            file,
            len,
            records: records.len(),
            completed: records
                .into_iter()
                .map(|record| (record.ordinal, record.summary))
                .collect(),
            recovery,
        })
    }

    /// What the decoder salvaged when this journal was opened.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// Number of records on disk.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The completed summary for `ordinal`, if its journalled spec matches
    /// `spec` (a mismatch means the journal belongs to a differently
    /// configured sweep and the row must re-run).
    pub fn completed(&self, ordinal: u64, spec: &RunSpec) -> Option<&RunSummary> {
        self.completed
            .get(&ordinal)
            .filter(|summary| summary.spec == *spec)
    }

    /// Appends one record as a single framed write and syncs it. A failed
    /// write is truncated away so later appends stay readable.
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        let frame = encode_frame(&record);
        if let Err(err) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
        {
            let _ = self.file.set_len(self.len);
            return Err(err);
        }
        self.len += frame.len() as u64;
        self.records += 1;
        self.completed.insert(record.ordinal, record.summary);
        Ok(())
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

/// A checkpointed sweep session: the journal plus the invocation-wide run
/// ordinal and the resume/telemetry counters. One session spans every
/// table of a `report` invocation, so ordinals are globally unique in
/// canonical execution order.
#[derive(Debug)]
pub struct CheckpointedSweep {
    journal: Journal,
    next_ordinal: u64,
    resumed_rows: u64,
    write_errors: u64,
}

impl CheckpointedSweep {
    /// Opens (or creates) the journal at `path` and starts a session at
    /// ordinal 0.
    pub fn open(path: &Path) -> io::Result<CheckpointedSweep> {
        Ok(CheckpointedSweep {
            journal: Journal::open(path)?,
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

    /// The journalled summary for `ordinal` if it matches `spec`, counted
    /// as a resumed row.
    pub fn take_completed(&mut self, ordinal: u64, spec: &RunSpec) -> Option<RunSummary> {
        let summary = self.journal.completed(ordinal, spec)?.clone();
        self.resumed_rows += 1;
        Some(summary)
    }

    /// Journals a completed run. Summaries carrying shadow stats are
    /// skipped (see the module docs); I/O errors are counted, not
    /// propagated — a failing checkpoint disk must not take the sweep down
    /// with it.
    pub fn journal_completed(&mut self, ordinal: u64, summary: &RunSummary) {
        if summary.shadow.is_some() {
            return;
        }
        let record = Record {
            ordinal,
            summary: summary.clone(),
        };
        if self.journal.append(record).is_err() {
            self.write_errors += 1;
        }
    }

    /// The session's telemetry for the report's checkpoint counters.
    pub fn telemetry(&self) -> CheckpointTelemetry {
        CheckpointTelemetry {
            resumed_rows: self.resumed_rows,
            journal_records: self.journal.len() as u64,
            recovered_records: self.journal.recovery().records as u64,
            dropped_bytes: self.journal.recovery().dropped_bytes as u64,
            write_errors: self.write_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> RunSpec {
        RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::CrashStop { k: 2 },
            strategy: StrategyKind::Centroid,
            delta: 0.25,
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
    fn spec_round_trips() {
        let spec = sample_spec();
        let mut w = ByteWriter::default();
        encode_spec(&mut w, &spec);
        let mut r = ByteReader::new(&w.0);
        assert_eq!(decode_spec(&mut r), Some(spec));
        assert!(r.exhausted());
    }

    #[test]
    fn summary_round_trips() {
        let summary = run(&short_spec());
        let mut w = ByteWriter::default();
        encode_summary(&mut w, &summary);
        let mut r = ByteReader::new(&w.0);
        assert_eq!(decode_summary(&mut r), Some(summary));
        assert!(r.exhausted());
    }

    #[test]
    fn journal_round_trips_through_bytes() {
        let records = records([0, 7]);
        let bytes = encode_journal(0xabcd, &records);
        let (decoded, recovery) = decode_journal(0xabcd, &bytes);
        assert_eq!(decoded, records);
        assert!(recovery.clean);
        assert_eq!(recovery.records, 2);
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
    fn journal_open_append_reload() {
        let dir = scratch_dir("append");
        let path = dir.join("nested").join("journal.frck");
        let record = records([3]).remove(0);
        let spec = record.summary.spec;
        {
            let mut journal = Journal::open(&path).expect("open fresh journal");
            assert!(journal.is_empty());
            assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
            journal.append(record.clone()).expect("append");
            assert_eq!(journal.len(), 1);
            assert_eq!(journal.completed(3, &spec), Some(&record.summary));
        }
        {
            let journal = Journal::open(&path).expect("reload journal");
            assert!(journal.recovery().clean);
            assert_eq!(journal.len(), 1);
            assert_eq!(journal.completed(3, &spec), Some(&record.summary));
            // A different spec under the same ordinal does not match.
            assert_eq!(journal.completed(3, &RunSpec::new(4, 4)), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_sweep_resumes_completed_rows() {
        let dir = scratch_dir("session");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        let summary = run(&spec);
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            assert_eq!(session.take_completed(0, &spec), None);
            session.journal_completed(0, &summary);
            session.advance(2);
            assert_eq!(session.next_ordinal(), 2);
        }
        {
            let mut session = CheckpointedSweep::open(&path).expect("reopen session");
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
        let rows = records(0..5);
        let spec = rows[0].summary.spec;
        {
            let mut journal = Journal::open(&path).expect("open fresh journal");
            for record in &rows[..3] {
                journal.append(record.clone()).expect("append");
            }
        }
        // Tear the last frame, as a kill in the middle of its write would.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);
        {
            let mut journal = Journal::open(&path).expect("reopen torn journal");
            assert!(!journal.recovery().clean);
            assert_eq!(journal.recovery().records, 2);
            assert!(journal.recovery().dropped_bytes > 0);
            assert_eq!(journal.completed(2, &spec), None, "the torn row is gone");
            for record in &rows[2..] {
                journal
                    .append(record.clone())
                    .expect("append after the tear");
            }
        }
        let journal = Journal::open(&path).expect("reopen repaired journal");
        assert!(journal.recovery().clean);
        assert_eq!(journal.len(), 5);
        for record in &rows {
            assert_eq!(
                journal.completed(record.ordinal, &spec),
                Some(&record.summary),
                "ordinal {}",
                record.ordinal
            );
        }
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
    fn rows_of_the_retired_dense_world_are_dropped_not_resumed() {
        let dir = scratch_dir("dense");
        let path = dir.join("journal.frck");
        let record = records([0]).remove(0);
        let spec = record.summary.spec;
        // Hand-encode the completed record an old build wrote for a dense
        // run: the same payload with world-mode tag 0, which sits right
        // before the spec's trailing `sample_every u64`.
        let mut bytes = encode_journal(engine_id(), std::slice::from_ref(&record));
        let mut spec_bytes = ByteWriter::default();
        encode_spec(&mut spec_bytes, &spec);
        let payload_at = HEADER_LEN + 8;
        let tag_at = payload_at + 8 + spec_bytes.0.len() - 9;
        assert_eq!(bytes[tag_at], world_mode_tag(WorldMode::Sparse));
        bytes[tag_at] = 0;
        let crc = crc32(&bytes[payload_at..]);
        bytes[HEADER_LEN + 4..payload_at].copy_from_slice(&crc.to_le_bytes());
        std::fs::create_dir_all(&dir).expect("create journal dir");
        std::fs::write(&path, &bytes).expect("write old journal");

        let mut session = CheckpointedSweep::open(&path).expect("open old journal");
        assert_eq!(session.take_completed(0, &spec), None);
        let telemetry = session.telemetry();
        assert_eq!(telemetry.resumed_rows, 0);
        assert_eq!(telemetry.recovered_records, 0);
        assert_eq!(telemetry.dropped_bytes, (bytes.len() - HEADER_LEN) as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journals_of_the_previous_format_are_dropped_not_resumed() {
        let dir = scratch_dir("v2");
        let path = dir.join("journal.frck");
        let spec = short_spec();
        // A well-framed journal whose 8-byte header carries version 2 (no
        // engine id): its records were written under the old payload
        // layout, so none of them may be read under the current one.
        let current = encode_journal(engine_id(), &records([0]));
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&current[HEADER_LEN..]);
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
