//! Crash-safe checkpoint/resume journal for sweeps.
//!
//! Runs are fully seeded and deterministic, so a checkpoint is tiny: a
//! [`RunSpec`] plus an event index plus the engine's [state
//! fingerprint](crate::engine::Simulator::fingerprint) at that index
//! identify a run's progress exactly — replaying the spec to the index
//! reproduces the state bit-for-bit. The journal therefore stores only two
//! kinds of record:
//!
//! * **progress** — an in-flight run reached `events` events with
//!   fingerprint `fp` (written every
//!   [`SupervisionPolicy::progress_every`](crate::sweep::SupervisionPolicy)
//!   events);
//! * **completed** — a run finished, with its full [`RunSummary`] inlined
//!   so resume never re-executes a finished run.
//!
//! ## Byte layout
//!
//! All integers little-endian; `f64` stored as its IEEE-754 bit pattern.
//!
//! ```text
//! journal := magic "FRCK" | version u32 | record*
//! record  := len u32 | crc32 u32 | payload           (len = payload bytes)
//! payload := kind u8 | ordinal u64 | body
//! kind 1  := spec | events u64 | fingerprint u64      (progress)
//! kind 2  := spec | summary                           (completed)
//! spec    := n u64 | seed u64 | shape u8 | strategy u8 | adversary u8 |
//!            fault_k u64 | delta f64 | max_events u64 | shadow u8 |
//!            world_mode u8 | threads u64 | sample_every u64
//! ```
//!
//! The CRC is the IEEE CRC-32 of the payload. Records are appended by
//! rewriting the whole journal to a temp file and renaming it over the old
//! one — the journal is small (a record is ~60–300 bytes and progress
//! records are upserted in place), and the rename keeps every observation
//! of the file a valid prefix-consistent journal. The decoder walks
//! records until the first torn frame, bad CRC, or undecodable payload and
//! **recovers to the last valid record** — it never panics on corrupt
//! input (pinned by `crates/sim/tests/checkpoint_robustness.rs`).
//!
//! Summaries that carry shadow-oracle stats are not journalled (the stats
//! drag a full divergence log along); a shadowed run simply re-executes on
//! resume, which determinism makes byte-identical.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::experiment::{AdversaryKind, RunSpec, RunSummary, StrategyKind};
use crate::init::Shape;
use crate::world::WorldMode;

/// The journal's magic prefix.
pub const MAGIC: [u8; 4] = *b"FRCK";
/// The journal format version this build writes and reads.
pub const VERSION: u32 = 1;
/// Upper bound on a record's payload length; longer frames are treated as
/// corruption (a torn length field would otherwise ask for gigabytes).
pub const MAX_RECORD_LEN: usize = 4096;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An in-flight run's latest checkpoint: replaying `spec` for `events`
    /// events reproduces the state with this `fingerprint`.
    Progress {
        /// Position of the run in the invocation's canonical execution
        /// order.
        ordinal: u64,
        /// The run being checkpointed.
        spec: RunSpec,
        /// Events applied at this checkpoint.
        events: u64,
        /// Engine state fingerprint at `events`.
        fingerprint: u64,
    },
    /// A finished run with its summary inlined.
    Completed {
        /// Position of the run in the invocation's canonical execution
        /// order.
        ordinal: u64,
        /// The finished run's summary (never carries shadow stats; boxed
        /// because it dwarfs the `Progress` variant).
        summary: Box<RunSummary>,
    },
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
    w.u64(spec.threads as u64);
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
    let threads = r.u64()? as usize;
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
        threads,
        sample_every,
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
        s.par_batches,
        s.par_batched_events,
        s.speculation_hits,
        s.speculation_aborts,
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
    let mut counters = [0u64; 15];
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
        par_batches: counters[8],
        par_batched_events: counters[9],
        speculation_hits: counters[10],
        speculation_aborts: counters[11],
        fault_crashed_robots: counters[12],
        fault_starved_directives: counters[13],
        fault_truncated_directives: counters[14],
        shadow: None,
    })
}

fn encode_record(record: &Record) -> Vec<u8> {
    let mut w = ByteWriter::default();
    match record {
        Record::Progress {
            ordinal,
            spec,
            events,
            fingerprint,
        } => {
            w.u8(1);
            w.u64(*ordinal);
            encode_spec(&mut w, spec);
            w.u64(*events);
            w.u64(*fingerprint);
        }
        Record::Completed { ordinal, summary } => {
            w.u8(2);
            w.u64(*ordinal);
            encode_summary(&mut w, summary);
        }
    }
    w.0
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = ByteReader::new(payload);
    let kind = r.u8()?;
    let ordinal = r.u64()?;
    let record = match kind {
        1 => {
            let spec = decode_spec(&mut r)?;
            let events = r.u64()?;
            let fingerprint = r.u64()?;
            Record::Progress {
                ordinal,
                spec,
                events,
                fingerprint,
            }
        }
        2 => Record::Completed {
            ordinal,
            summary: Box::new(decode_summary(&mut r)?),
        },
        _ => return None,
    };
    // Trailing garbage inside a CRC-valid frame means the frame was not
    // written by this encoder; reject it.
    r.exhausted().then_some(record)
}

/// Serializes a full journal (header plus every record) to bytes.
pub fn encode_journal(records: &[Record]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + records.len() * 128);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for record in records {
        let payload = encode_record(record);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    bytes
}

/// Decodes a journal, recovering to the last valid record: decoding stops
/// at the first torn frame, CRC mismatch, or undecodable payload, and
/// everything before it is kept. Never panics, whatever the input.
pub fn decode_journal(bytes: &[u8]) -> (Vec<Record>, Recovery) {
    let mut records = Vec::new();
    if bytes.len() < 8 || bytes[..4] != MAGIC || bytes[4..8] != VERSION.to_le_bytes() {
        return (
            records,
            Recovery {
                records: 0,
                dropped_bytes: bytes.len(),
                clean: false,
            },
        );
    }
    let mut pos = 8usize;
    loop {
        if pos == bytes.len() {
            let n = records.len();
            return (
                records,
                Recovery {
                    records: n,
                    dropped_bytes: 0,
                    clean: true,
                },
            );
        }
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
        match frame {
            Some((record, consumed)) => {
                records.push(record);
                pos += consumed;
            }
            None => {
                let n = records.len();
                return (
                    records,
                    Recovery {
                        records: n,
                        dropped_bytes: bytes.len() - pos,
                        clean: false,
                    },
                );
            }
        }
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flush + sync, rename over the destination. Creates missing parent
/// directories. A crash at any point leaves either the old file or the new
/// one — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// The on-disk journal: the decoded records plus the path they persist to.
///
/// Appends rewrite the whole journal atomically ([`write_atomic`]) — the
/// journal is small by construction (progress records are upserted, not
/// accumulated), and atomic whole-file replacement is what makes every
/// crash recoverable.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: Vec<Record>,
    /// ordinal → index into `records` of its completed record.
    completed: HashMap<u64, usize>,
    /// ordinal → index into `records` of its (single) progress record.
    progress: HashMap<u64, usize>,
    recovery: Recovery,
}

impl Journal {
    /// Opens the journal at `path`, recovering whatever valid prefix an
    /// earlier (possibly killed) invocation left behind; a missing file is
    /// an empty journal.
    pub fn open(path: &Path) -> io::Result<Journal> {
        let (records, recovery) = match std::fs::read(path) {
            Ok(bytes) => decode_journal(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), Recovery::default()),
            Err(e) => return Err(e),
        };
        let mut journal = Journal {
            path: path.to_path_buf(),
            records: Vec::new(),
            completed: HashMap::new(),
            progress: HashMap::new(),
            recovery,
        };
        for record in records {
            journal.index(record);
        }
        Ok(journal)
    }

    fn index(&mut self, record: Record) {
        match &record {
            Record::Completed { ordinal, .. } => {
                self.completed.insert(*ordinal, self.records.len());
            }
            Record::Progress { ordinal, .. } => {
                if let Some(&i) = self.progress.get(ordinal) {
                    self.records[i] = record;
                    return;
                }
                self.progress.insert(*ordinal, self.records.len());
            }
        }
        self.records.push(record);
    }

    /// What the decoder salvaged when this journal was opened.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The completed summary for `ordinal`, if its journalled spec matches
    /// `spec` (a mismatch means the journal belongs to a differently
    /// configured sweep and the row must re-run).
    pub fn completed(&self, ordinal: u64, spec: &RunSpec) -> Option<&RunSummary> {
        let i = *self.completed.get(&ordinal)?;
        match &self.records[i] {
            Record::Completed { summary, .. } if summary.spec == *spec => Some(summary.as_ref()),
            _ => None,
        }
    }

    /// The latest progress checkpoint for `ordinal` with a matching spec:
    /// `(events, fingerprint)`.
    pub fn progress(&self, ordinal: u64, spec: &RunSpec) -> Option<(u64, u64)> {
        let i = *self.progress.get(&ordinal)?;
        match &self.records[i] {
            Record::Progress {
                spec: s,
                events,
                fingerprint,
                ..
            } if s == spec => Some((*events, *fingerprint)),
            _ => None,
        }
    }

    /// Appends (or, for progress records, upserts) a record and persists
    /// the journal atomically.
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        self.index(record);
        write_atomic(&self.path, &encode_journal(&self.records))
    }
}

/// Checkpoint telemetry surfaced into `bench_report.json` (schema v8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointTelemetry {
    /// Completed rows loaded from the journal instead of re-run.
    pub resumed_rows: u64,
    /// Events covered by progress checkpoints of runs that had to be
    /// replayed (the in-flight work a resume replays to its last
    /// checkpointed event).
    pub replayed_events: u64,
    /// Records in the journal at the end of the sweep.
    pub journal_records: u64,
    /// Records salvaged from a pre-existing journal at open.
    pub recovered_records: u64,
    /// Bytes discarded after the last valid record at open.
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
    replayed_events: u64,
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
            replayed_events: 0,
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

    /// The journalled summary for `ordinal` if it matches `spec`
    /// (counting it as a resumed row); otherwise accounts any progress
    /// checkpoint toward the replayed-events counter and returns `None`.
    pub fn take_completed(&mut self, ordinal: u64, spec: &RunSpec) -> Option<RunSummary> {
        if let Some(summary) = self.journal.completed(ordinal, spec) {
            self.resumed_rows += 1;
            return Some(summary.clone());
        }
        if let Some((events, _)) = self.journal.progress(ordinal, spec) {
            self.replayed_events += events;
        }
        None
    }

    /// Journals an in-flight run's progress checkpoint. I/O errors are
    /// counted, not propagated — a failing checkpoint disk must not take
    /// the sweep down with it.
    pub fn journal_progress(&mut self, ordinal: u64, spec: &RunSpec, events: usize, fp: u64) {
        let record = Record::Progress {
            ordinal,
            spec: *spec,
            events: events as u64,
            fingerprint: fp,
        };
        if self.journal.append(record).is_err() {
            self.write_errors += 1;
        }
    }

    /// Journals a completed run. Summaries carrying shadow stats are
    /// skipped (see the module docs); I/O errors are counted, not
    /// propagated.
    pub fn journal_completed(&mut self, ordinal: u64, summary: &RunSummary) {
        if summary.shadow.is_some() {
            return;
        }
        let record = Record::Completed {
            ordinal,
            summary: Box::new(summary.clone()),
        };
        if self.journal.append(record).is_err() {
            self.write_errors += 1;
        }
    }

    /// The session's telemetry for the report's schema-v8 counters.
    pub fn telemetry(&self) -> CheckpointTelemetry {
        CheckpointTelemetry {
            resumed_rows: self.resumed_rows,
            replayed_events: self.replayed_events,
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
    use crate::experiment::run;

    fn sample_spec() -> RunSpec {
        RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::CrashStop { k: 2 },
            strategy: StrategyKind::Centroid,
            delta: 0.25,
            max_events: 12_345,
            threads: 3,
            sample_every: 7,
            ..RunSpec::new(9, 42)
        }
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
        let spec = RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        };
        let summary = run(&spec);
        let mut w = ByteWriter::default();
        encode_summary(&mut w, &summary);
        let mut r = ByteReader::new(&w.0);
        assert_eq!(decode_summary(&mut r), Some(summary));
        assert!(r.exhausted());
    }

    #[test]
    fn journal_round_trips_through_bytes() {
        let spec = sample_spec();
        let records = vec![
            Record::Progress {
                ordinal: 0,
                spec,
                events: 4096,
                fingerprint: 0xdead_beef,
            },
            Record::Progress {
                ordinal: 7,
                spec,
                events: 8192,
                fingerprint: 0xfeed_face,
            },
        ];
        let bytes = encode_journal(&records);
        let (decoded, recovery) = decode_journal(&bytes);
        assert_eq!(decoded, records);
        assert!(recovery.clean);
        assert_eq!(recovery.records, 2);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn empty_and_garbage_inputs_recover_to_nothing() {
        for bytes in [&[][..], b"not a journal at all", &[0xff; 64][..]] {
            let (records, recovery) = decode_journal(bytes);
            assert!(records.is_empty());
            assert!(!recovery.clean || bytes.is_empty());
        }
        // A bare valid header is a clean empty journal.
        let (records, recovery) = decode_journal(&encode_journal(&[]));
        assert!(records.is_empty());
        assert!(recovery.clean);
    }

    #[test]
    fn journal_open_append_reload() {
        let dir = std::env::temp_dir().join(format!("frck_test_{}", std::process::id()));
        let path = dir.join("nested").join("journal.frck");
        let spec = sample_spec();
        {
            let mut journal = Journal::open(&path).expect("open fresh journal");
            assert!(journal.is_empty());
            journal
                .append(Record::Progress {
                    ordinal: 3,
                    spec,
                    events: 100,
                    fingerprint: 1,
                })
                .expect("append progress");
            // Upsert: same ordinal replaces, journal does not grow.
            journal
                .append(Record::Progress {
                    ordinal: 3,
                    spec,
                    events: 200,
                    fingerprint: 2,
                })
                .expect("upsert progress");
            assert_eq!(journal.len(), 1);
            assert_eq!(journal.progress(3, &spec), Some((200, 2)));
        }
        {
            let journal = Journal::open(&path).expect("reload journal");
            assert!(journal.recovery().clean);
            assert_eq!(journal.len(), 1);
            assert_eq!(journal.progress(3, &spec), Some((200, 2)));
            // A different spec under the same ordinal does not match.
            let other = RunSpec::new(4, 4);
            assert_eq!(journal.progress(3, &other), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_sweep_resumes_completed_rows() {
        let dir = std::env::temp_dir().join(format!("frck_session_{}", std::process::id()));
        let path = dir.join("journal.frck");
        let spec = RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        };
        let summary = run(&spec);
        {
            let mut session = CheckpointedSweep::open(&path).expect("open session");
            assert_eq!(session.take_completed(0, &spec), None);
            session.journal_progress(1, &spec, 4096, 0xabc);
            session.journal_completed(0, &summary);
            session.advance(2);
            assert_eq!(session.next_ordinal(), 2);
        }
        {
            let mut session = CheckpointedSweep::open(&path).expect("reopen session");
            assert_eq!(session.take_completed(0, &spec), Some(summary.clone()));
            // Ordinal 1 only has progress: not completed, but its events
            // count toward the replay telemetry.
            assert_eq!(session.take_completed(1, &spec), None);
            let telemetry = session.telemetry();
            assert_eq!(telemetry.resumed_rows, 1);
            assert_eq!(telemetry.replayed_events, 4096);
            assert_eq!(telemetry.recovered_records, 2);
            assert_eq!(telemetry.dropped_bytes, 0);
            assert_eq!(telemetry.write_errors, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_of_the_retired_dense_world_are_dropped_not_resumed() {
        let dir = std::env::temp_dir().join(format!("frck_dense_{}", std::process::id()));
        let path = dir.join("journal.frck");
        let spec = RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        };
        let summary = run(&spec);
        // Hand-encode the completed record an old build wrote for a dense
        // run: the same payload with world-mode tag 0, which sits right
        // before the spec's trailing `threads u64 | sample_every u64`.
        let mut payload = encode_record(&Record::Completed {
            ordinal: 0,
            summary: Box::new(summary),
        });
        let mut spec_bytes = ByteWriter::default();
        encode_spec(&mut spec_bytes, &spec);
        let tag_at = 1 + 8 + spec_bytes.0.len() - 17;
        assert_eq!(payload[tag_at], world_mode_tag(WorldMode::Sparse));
        payload[tag_at] = 0;
        let mut bytes = encode_journal(&[]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::create_dir_all(&dir).expect("create journal dir");
        std::fs::write(&path, &bytes).expect("write old journal");

        let mut session = CheckpointedSweep::open(&path).expect("open old journal");
        assert_eq!(session.take_completed(0, &spec), None);
        let telemetry = session.telemetry();
        assert_eq!(telemetry.resumed_rows, 0);
        assert_eq!(telemetry.recovered_records, 0);
        assert_eq!(telemetry.dropped_bytes, (bytes.len() - 8) as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
