//! Incremental world state.
//!
//! The paper's model is event-serial by construction — exactly one robot
//! acts per event — so between two consecutive Look snapshots at most one
//! center has changed. [`World`] exploits this: it owns the ground-truth
//! centers plus derived state that is **incrementally maintained** instead
//! of being recomputed from scratch on every event:
//!
//! * a **sparse visibility store**: per-robot sorted adjacency lists plus a
//!   pair store that materializes only the pairs actually computed — a
//!   hash map from each pair to a stable dense id, and a slab of 16-byte
//!   entries indexed by it — each entry invalidated when a move can
//!   actually have changed the pair's answer. Memory is linear in n plus
//!   the computed pairs, never Θ(n²);
//! * the **convex hull** (and the all-on-hull flag), the **connectivity**
//!   predicate and the **validity** (no-overlap) predicate, each tagged
//!   with a configuration version and recomputed lazily on first use after
//!   a move.
//!
//! ## The invalidation rule
//!
//! A cached visibility entry for the pair `(j, k)` is computed from the two
//! endpoint centers plus the obstacles near their sight corridor (the
//! capsule of radius [`VISIBILITY_PRUNE_RADIUS`] around the chord
//! `c_j`–`c_k` — see `disc_sees_disc_among`). The entry must therefore be
//! invalidated exactly when either endpoint moves, or some robot moves
//! *into* or *out of* that corridor. Scanning all pairs per move would
//! reintroduce the quadratic cost, so the corridor membership is indexed
//! through the hierarchical spatial grid:
//!
//! * when a pair is (re)computed, it registers itself in every cell of the
//!   conservative cover of its corridor (the grid's capsule walk), at the
//!   grid level matched to its chord length so each pair holds O(1) cells;
//! * when robot `i` moves, only the registrations of the cell it left and
//!   the cell it entered (at every level) are drained; exactly those pairs
//!   are marked dirty and queued on both endpoints' pending rows.
//!
//! A registration is 8 bytes: the pair's slab id plus its generation and
//! certified flag. The drain and the compaction sweeps index the slab by
//! id and never hash; only planning a row refresh and a direct
//! [`World::sees`] probe look a pair up, once per candidate.
//!
//! The cover is a superset of the cells that can hold a relevant obstacle
//! (and always contains the endpoints' own cells), so a stale hit is
//! impossible: any robot whose move can change the pair's answer — either
//! endpoint, a robot leaving the corridor, a robot entering it — stamps a
//! registered cell. Cache hits are O(1); a move dirties only the pairs
//! registered on the touched cells; a row refresh recomputes only its
//! queued dirty pairs (plan, compute, commit — see `World::refresh_row`).
//! A long chord through a dense region is first tried against the few
//! obstacles near its midpoint, and only when their strip
//! cover does not certify it blocked is it recomputed against the whole
//! grid-pruned corridor slice (see `World::compute_pair_answer`). Pairs
//! whose corridor a strip cover certifies blocked survive in-drift moves
//! with no work at all (see `CERT_DRIFT_RADIUS`).
//!
//! ## Bit-identical results
//!
//! The cached path answers every query through the *same* geometric kernels
//! as the from-scratch path (`disc_sees_disc_among` with a conservatively
//! pre-filtered obstacle slice is exactly `disc_sees_disc` over all
//! centers; the strip covers, on the mid-chord window or the whole slice,
//! are one-sided "blocked" proofs in front of it;
//! the hull, connectivity and sample predicates are evaluated by the same
//! functions on the same inputs). A `World` in [`WorldMode::Scratch`]
//! recomputes everything per query, which is how the determinism suite pins
//! the equivalence event-for-event.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use fatrobots_geometry::grid::{CellCoord, CellHashBuilder, CellMap, UniformGrid, GRID_LEVELS};
use fatrobots_geometry::hull::{ConvexHull, HullScratch};
use fatrobots_geometry::visibility::{
    corridor_filter_soa, disc_sees_disc, disc_sees_disc_among, no_three_collinear,
    strip_cover_blocked, strip_cover_blocked_with_slack, visible_set, COVER_STABILITY_RADIUS,
    STRIP_COVER_SLACK_MIN_SPAN, VISIBILITY_PRUNE_RADIUS,
};
use fatrobots_geometry::{Point, Segment, Vec2, UNIT_RADIUS};
use fatrobots_model::config::{self, gap_touches, COLLINEARITY_TOL, TOUCH_TOL};

use crate::metrics::SamplePredicates;

/// Edge length of the spatial-grid cells: two robot diameters, so corridor
/// and contact queries touch a handful of cells while clusters of touching
/// robots still share cells.
const GRID_CELL: f64 = 4.0 * UNIT_RADIUS;

/// Safety margin added to the swept-capsule query of the contact scan, far
/// larger than the engine's contact tolerances (`1e-6`/`1e-9`) and far
/// smaller than a cell.
const CONTACT_QUERY_MARGIN: f64 = 1e-3;

/// Minimum length before a cell registration list is ever compacted (dead
/// entries dropped). Beyond it, compaction triggers when a list doubles
/// past its size after the previous compaction, so the work is amortized
/// O(1) per push while garbage from frequently recomputed pairs stays
/// bounded.
const REGISTRATION_COMPACT_LEN: usize = 64;

/// Plan length from which a sparse row refresh fans its pair kernels out
/// across cores ([`World::compute_answers`]). Measured on a 2-vCPU host
/// (rustc 1.95) as first-row refreshes at width 2 vs serial: random
/// spreads gain 1.2× at 128 pairs and 1.55× at 512. Jittered hex packings
/// gain 1.9× at 10⁴ pairs, but in host windows where their strip-cover
/// kernels got nothing from the second vCPU they lost 5–10% below 256
/// pairs (thread spawn and answer bookkeeping) and broke even from 384.
/// At 512 that overhead stays under 3% of the row even then, and rows of
/// the n ≤ 96 experiment tables (at most 95 pairs) never fan out.
const ROW_FANOUT_MIN_PAIRS: usize = 512;

/// Plan entries a fan-out worker claims at a time: the shared claim lock
/// is taken ~150 times per 10⁴-pair row, and the workers finish within
/// one chunk's kernels of each other.
const FANOUT_CHUNK: usize = 64;

/// The host's parallelism, read once: the width of the row fan-out.
fn host_parallelism() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(crate::sweep::default_jobs)
}

/// How a [`World`] answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldMode {
    /// The incremental world (the default): per-robot adjacency lists, a
    /// slab-indexed pair store that only materializes computed pairs, and
    /// corridor registrations placed at a chord-length-matched grid level
    /// so each pair holds O(1) cells. Answers are event-for-event identical
    /// to [`WorldMode::Scratch`] (same kernels); memory is linear in
    /// n + computed pairs.
    Sparse,
    /// Every query recomputes from scratch, exactly like the seed engine.
    /// Used by the determinism suite as the reference behaviour.
    Scratch,
}

impl WorldMode {
    /// Both modes.
    pub const ALL: [WorldMode; 2] = [WorldMode::Sparse, WorldMode::Scratch];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorldMode::Sparse => "sparse",
            WorldMode::Scratch => "scratch",
        }
    }

    /// The mode with the given [`Self::name`], or `None`.
    pub fn from_name(name: &str) -> Option<WorldMode> {
        WorldMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// One cached visibility entry: slot `id` of the pair-store slab, for the
/// unordered pair `{a, b}` (`a < b`). The endpoints live here, not in the
/// registrations, so a drain reads them with one index.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    a: u32,
    b: u32,
    /// Bumped (mod 2³¹, the width [`SparseRef`] keeps) on every
    /// recompute; cell registrations carrying an older generation are
    /// dead.
    gen: u32,
    seen: bool,
    dirty: bool,
    /// The last recompute certified "blocked" through
    /// [`strip_cover_blocked_with_slack`], so the answer provably stays
    /// `false` while **every** robot — both endpoints and every corridor
    /// obstacle — remains within [`CERT_DRIFT_RADIUS`] of its anchor.
    /// Lets the drain *skip* a certified registration for any in-drift
    /// move with a single branch (the flag is copied into the
    /// registration, so the slab is not even indexed): the mechanism that
    /// makes both a mover's own far-pair row and the thousands of
    /// third-party corridors crossing its cell survive oscillation with
    /// zero per-move work.
    certified: bool,
}

impl PairEntry {
    /// `true` when `r` is this entry's current registration: the pair is
    /// clean and has not been recomputed since `r` was written.
    fn is_current(&self, r: SparseRef) -> bool {
        !self.dirty && self.gen == r.gen()
    }
}

/// Maximum distance a robot may drift from its anchor before the anchor
/// resets (the resetting move itself fails every skip check, so it drains
/// and dirties every certified registration it covers first). Certificates
/// are issued when the endpoints are within this radius of their anchors
/// and honored while every robot involved stays within it, so any robot's
/// position differs from its certification-time one by at most
/// `2·CERT_DRIFT_RADIUS = COVER_STABILITY_RADIUS` — exactly the per-robot
/// drift [`strip_cover_blocked_with_slack`] guarantees against, for
/// obstacles as well as endpoints.
const CERT_DRIFT_RADIUS: f64 = COVER_STABILITY_RADIUS / 2.0;

/// Half-length of the mid-chord window [`World::compute_pair_answer`]
/// tries the slack cover on before gathering a long chord's whole
/// corridor: one cell edge either side of the midpoint, which holds the
/// few central obstacles the cover needs in a dense packing.
const CERT_WINDOW_HALF_LEN: f64 = GRID_CELL;

/// Gather radius of the mid-chord window. An obstacle contributes a strip
/// to the slack cover only within `square + hw` of the chord (≤ 2.4 for
/// the shortest certifiable chord, → 2.0 for long ones), so this keeps
/// every obstacle the window's stretch of the cover can use.
const CERT_WINDOW_RADIUS: f64 = 2.5 * UNIT_RADIUS;

/// Chord lengths up to this many cell edges register at a grid level; a
/// longer chord moves up one level. Keeps every pair's corridor
/// registration at O(1) cells regardless of chord length (the memory term
/// that would otherwise scale with the configuration diameter).
const SPARSE_REG_SPAN_CELLS: f64 = 8.0;

/// Packed key of the unordered pair `{a, b}` (`a < b`) in the pair store.
fn pair_key(a: usize, b: usize) -> u64 {
    debug_assert!(a < b);
    ((a as u64) << 32) | b as u64
}

/// One corridor registration: the pair in slab slot `id` depends on the
/// registered cell. `tag` packs the pair's generation at registration time
/// (low 31 bits) with a copy of its [`PairEntry::certified`] flag (top
/// bit), so the drain fast path skips certified registrations without
/// touching the slab. A stale flag is harmless: if the pair has since been
/// recomputed, this ref is dead (generation mismatch) and skipping it
/// merely retains garbage — the *live* registration written by that
/// recompute carries the current flag and is the one that matters. Stale
/// refs are reaped by the drain's slow path and the amortized compaction
/// sweeps.
#[derive(Debug, Clone, Copy)]
struct SparseRef {
    id: u32,
    tag: u32,
}

impl SparseRef {
    /// The certified bit of `tag`.
    const CERTIFIED: u32 = 1 << 31;
    /// The generation bits of `tag`.
    const GEN_MASK: u32 = Self::CERTIFIED - 1;

    fn new(id: u32, gen: u32, certified: bool) -> Self {
        debug_assert!(gen <= Self::GEN_MASK);
        let tag = if certified {
            gen | Self::CERTIFIED
        } else {
            gen
        };
        SparseRef { id, tag }
    }

    fn gen(self) -> u32 {
        self.tag & Self::GEN_MASK
    }

    fn certified(self) -> bool {
        self.tag & Self::CERTIFIED != 0
    }
}

// Registrations outnumber pair entries ~10× on dense packings; both
// layouts are part of the scale gate's memory budget.
const _: () = assert!(std::mem::size_of::<SparseRef>() == 8);
const _: () = assert!(std::mem::size_of::<PairEntry>() == 16);

/// A cell's corridor registrations plus its amortized-compaction watermark:
/// the list is swept for dead entries only when it doubles past its size
/// after the previous sweep.
#[derive(Debug, Default)]
struct SparseCellRegs {
    refs: Vec<SparseRef>,
    compact_at: usize,
}

/// A robot's queue of pairs to recompute at its next row refresh. May hold
/// stale entries (pairs already recomputed through the partner's row); the
/// drain skips anything no longer dirty. `compact_at` bounds the queue of
/// rows that rarely refresh (amortized-compaction watermark).
#[derive(Debug, Default)]
struct PendingRow {
    js: Vec<u32>,
    compact_at: usize,
}

/// The visibility state of [`WorldMode::Sparse`]: everything is sized by
/// what has actually been computed, never by n².
#[derive(Debug, Default)]
struct SparseVis {
    /// Slab id of every pair computed so far, keyed by [`pair_key`].
    /// Pairs are never removed, so ids are stable. Absent means "never
    /// computed" — [`SparseVis::intern`] materializes a dirty, unseen
    /// entry.
    ids: HashMap<u64, u32, CellHashBuilder>,
    /// The pair entries, indexed by id.
    slab: Vec<PairEntry>,
    /// Sorted adjacency: `adj[i]` holds exactly the robots whose pair with
    /// `i` is stored with `seen == true` (possibly dirty — a row refresh
    /// recomputes the dirty pairs before the list is read).
    adj: Vec<Vec<u32>>,
    /// Per-robot recompute queues, fed by the cell drains.
    pending: Vec<PendingRow>,
    /// Whether row `i` has ever been fully computed. A row's first refresh
    /// computes all of its pairs; afterwards only dirtied pairs recompute.
    row_init: Vec<bool>,
    /// Corridor registrations per grid level (index = level).
    regs: [CellMap<SparseCellRegs>; GRID_LEVELS],
}

impl SparseVis {
    /// The slab id of the pair `{a, b}` (`a < b`), materializing a fresh
    /// dirty, unseen entry for a pair never computed: one hash probe.
    fn intern(&mut self, a: usize, b: usize) -> u32 {
        let slab = &mut self.slab;
        *self.ids.entry(pair_key(a, b)).or_insert_with(|| {
            let id = u32::try_from(slab.len()).expect("pair ids fit in u32");
            slab.push(PairEntry {
                a: a as u32,
                b: b as u32,
                gen: 0,
                seen: false,
                dirty: true,
                certified: false,
            });
            id
        })
    }
}

/// Queues `j` on a pending row, keeping the queue bounded by the number of
/// distinct partners: past the watermark the queue is sorted and
/// deduplicated (stale entries are cheap to carry — the drain skips
/// anything no longer dirty — but duplicates must not accumulate without
/// bound on rows that rarely refresh).
fn push_pending(row: &mut PendingRow, j: u32) {
    row.js.push(j);
    if row.js.len() >= row.compact_at.max(REGISTRATION_COMPACT_LEN) {
        row.js.sort_unstable();
        row.js.dedup();
        row.compact_at = row.js.len() * 2;
    }
}

/// Inserts `v` into a sorted adjacency list (no-op when present).
fn adj_insert(list: &mut Vec<u32>, v: u32) {
    if let Err(pos) = list.binary_search(&v) {
        list.insert(pos, v);
    }
}

/// Removes `v` from a sorted adjacency list (no-op when absent).
fn adj_remove(list: &mut Vec<u32>, v: u32) {
    if let Ok(pos) = list.binary_search(&v) {
        list.remove(pos);
    }
}

/// One pair visibility answer computed **read-only** by
/// [`World::compute_pair_answer`], committed by [`World::commit_pair`].
/// Splitting the two is what lets the row fan-out run the pair kernels on
/// a shared `&World` across cores while the serial commit replays every
/// piece of bookkeeping (generation bumps, registrations, view versions,
/// telemetry) in plan order.
#[derive(Debug, Clone, Copy, Default)]
struct PairAnswer {
    /// The kernel's visibility verdict for the pair.
    seen: bool,
    /// The answer was certified "blocked" by the slack strip cover (see
    /// [`PairEntry::certified`]).
    certified: bool,
    /// The answer came from a strip cover (slack or exact) instead of the
    /// witness kernel — replayed into the `cover_answers` telemetry at
    /// commit.
    cover_answered: bool,
}

/// Per-thread scratch buffers for [`World::compute_pair_answer`] — the
/// read-only twin of the `World`'s own reusable query buffers, owned by the
/// caller so concurrent probes never share storage.
#[derive(Debug, Default)]
struct PairProbe {
    cand: Vec<usize>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    keep: Vec<u32>,
    obs: Vec<Point>,
}

/// The simulator's ground-truth configuration plus incrementally maintained
/// derived state. See the module docs for the design.
#[derive(Debug)]
pub struct World {
    mode: WorldMode,
    centers: Vec<Point>,
    grid: UniformGrid,
    /// Configuration version: incremented once per applied move.
    version: u64,
    /// Visibility state ([`WorldMode::Sparse`] only; empty otherwise).
    sparse: SparseVis,
    /// Per-robot certificate anchors ([`WorldMode::Sparse`] only; empty
    /// otherwise). Invariant outside `move_robot`: every robot is within
    /// [`CERT_DRIFT_RADIUS`] of its anchor — a move that would break this
    /// first fails every skip check (dirtying the row as usual) and then
    /// resets the anchor to the new position.
    anchors: Vec<Point>,
    /// Structure-of-arrays mirror of `centers`, kept in sync by
    /// [`Self::move_robot`]: the batched corridor filter reads coordinates
    /// from flat lanes instead of an array-of-structs.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Lazily recomputed global state, each tagged with the version it was
    /// computed at. The hull is rebuilt **in place** (its buffers and the
    /// construction scratch are reused across version bumps): `hull_version`
    /// is `None` until the first build.
    hull: ConvexHull,
    hull_scratch: HullScratch,
    hull_version: Option<u64>,
    hull_all_on: bool,
    connected_cache: Option<(u64, bool)>,
    valid_cache: Option<(u64, bool)>,
    /// Per-robot view versions: bumped exactly when the robot's Look
    /// snapshot may differ from the previous one — the robot itself moved,
    /// a pair involving it was dirtied (its visible set, or the position of
    /// a robot it sees, may have changed). Monotone; starts at 1 so the
    /// model layer's 0 can mean "never stamped".
    view_versions: Vec<u64>,
    /// Visibility-cache telemetry: pair lookups answered from the cache vs
    /// recomputed.
    hits: u64,
    misses: u64,
    /// Hull-cache telemetry: rebuilds of a stale hull.
    hull_rebuilds: u64,
    /// Blocked-certificate telemetry: recomputes whose answer came from a
    /// strip cover (slack or exact) instead of the witness kernel, and
    /// drain visits that skipped dirtying a certified pair.
    cover_answers: u64,
    cert_skips: u64,
    /// Reusable candidate buffer of the grid-local predicates.
    cand_buf: Vec<usize>,
    /// Reusable scratch of the serial pair recompute.
    probe: PairProbe,
    /// Threads a large sparse row refresh fans its pair kernels out over
    /// (calling thread included); 1 keeps every refresh serial.
    row_fanout_width: usize,
    /// Reusable buffers of [`Self::refresh_row`]: the slab ids of the
    /// pairs to recompute, and their answers (aligned with the plan). Both
    /// hold the last refresh's contents until the next one.
    plan: Vec<u32>,
    answers: Vec<PairAnswer>,
}

impl World {
    /// Creates the world for the given centers.
    pub fn new(centers: Vec<Point>, mode: WorldMode) -> Self {
        let n = centers.len();
        let grid = UniformGrid::new(GRID_CELL, &centers);
        let sparse = if mode == WorldMode::Sparse {
            SparseVis {
                adj: vec![Vec::new(); n],
                pending: (0..n).map(|_| PendingRow::default()).collect(),
                row_init: vec![false; n],
                ..SparseVis::default()
            }
        } else {
            SparseVis::default()
        };
        let xs = centers.iter().map(|c| c.x).collect();
        let ys = centers.iter().map(|c| c.y).collect();
        let anchors = if mode == WorldMode::Sparse {
            centers.clone()
        } else {
            Vec::new()
        };
        World {
            mode,
            centers,
            grid,
            version: 0,
            sparse,
            anchors,
            xs,
            ys,
            hull: ConvexHull::default(),
            hull_scratch: HullScratch::default(),
            hull_version: None,
            hull_all_on: false,
            connected_cache: None,
            valid_cache: None,
            view_versions: vec![1; n],
            hits: 0,
            misses: 0,
            hull_rebuilds: 0,
            cover_answers: 0,
            cert_skips: 0,
            cand_buf: Vec::new(),
            probe: PairProbe::default(),
            row_fanout_width: host_parallelism(),
            plan: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` when the world holds no robots.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The query mode.
    pub fn mode(&self) -> WorldMode {
        self.mode
    }

    /// The ground-truth centers.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Center of robot `i`.
    pub fn center(&self, i: usize) -> Point {
        self.centers[i]
    }

    /// Cache telemetry: `(hits, misses)` of the pairwise visibility cache.
    /// Both are 0 in [`WorldMode::Scratch`].
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hull-cache telemetry: `(0, rebuilds)` — the rebuilds of a stale
    /// hull. The first slot is always 0 (every stale hull is rebuilt) and
    /// is kept only because the benchmark harness reads this pair. Both are
    /// 0 in [`WorldMode::Scratch`] (every query recomputes, nothing is
    /// counted).
    pub fn hull_repair_stats(&self) -> (u64, u64) {
        (0, self.hull_rebuilds)
    }

    /// Pair-store telemetry: `(entries, registrations)` — materialized pair
    /// entries and stored corridor registrations. The registration count
    /// includes dead registrations not yet dropped by a drain or a
    /// compaction sweep, so it measures the lists' memory, not the live
    /// corridors. The entry count is only the pairs actually computed,
    /// which is what the scale gate's linear-memory assertion watches.
    /// Both are 0 in [`WorldMode::Scratch`] (whose store stays empty).
    pub fn pair_store_stats(&self) -> (u64, u64) {
        (
            self.sparse.slab.len() as u64,
            self.sparse
                .regs
                .iter()
                .flat_map(CellMap::values)
                .map(|r| r.refs.len() as u64)
                .sum(),
        )
    }

    /// Blocked-certificate telemetry: `(cover_answers, cert_skips)` —
    /// recomputes answered by a strip cover instead of the witness kernel,
    /// and drain visits that kept a certified pair clean through an
    /// endpoint move. Both are 0 in [`WorldMode::Scratch`].
    pub fn cert_stats(&self) -> (u64, u64) {
        (self.cover_answers, self.cert_skips)
    }

    /// The view version of robot `i`. The contract the engine's decision
    /// memoization rests on: read the version right after taking robot
    /// `i`'s Look snapshot ([`Self::visible_of_into`], which recomputes
    /// every dirty pair of row `i`); if two such reads return the same
    /// value, the two snapshots are **guaranteed** bit-identical. (The
    /// converse is conservative — a bump does not prove the view changed.)
    /// Bumps come from three places: the mover itself on every effective
    /// move, both endpoints of a *seen* pair when it is dirtied, and both
    /// endpoints of a pair whose answer flips at a recompute. In
    /// [`WorldMode::Scratch`] every effective move bumps every robot, which
    /// keeps the guarantee trivially.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn view_version(&self, i: usize) -> u64 {
        self.view_versions[i]
    }

    /// Moves robot `i` to `p`: bumps the configuration version, dirties
    /// every pair registered on the cell the robot leaves and the cell it
    /// enters, and rehashes the robot in the grid. Moving a robot to its
    /// current position is a no-op (nothing can have changed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn move_robot(&mut self, i: usize, p: Point) {
        let old = self.centers[i];
        if old == p {
            return;
        }
        self.version += 1;
        match self.mode {
            WorldMode::Sparse => {
                // The mover's own view always changes (its center is part of
                // it). Every *other* affected view is bumped either by
                // `dirty_cell` (clean seen pairs being dirtied — the robots
                // that can watch this move happen) or by the flip check when
                // a dirty pair is recomputed. No O(n) scan anywhere: moving
                // a robot nobody sees bumps only the mover.
                self.view_versions[i] += 1;
                // Registrations live at every grid level (each pair picks
                // the level matching its chord length), so the move drains
                // its from/to cell at each level. Coarser cells hold more
                // incidental registrations; the drain's exact chord-distance
                // test filters them, so coarseness costs drain time, never
                // correctness.
                for level in 0..GRID_LEVELS {
                    let from = self.grid.cell_of_at(old, level);
                    let to = self.grid.cell_of_at(p, level);
                    self.dirty_cell(level, from, i, old, p);
                    if to != from {
                        self.dirty_cell(level, to, i, old, p);
                    }
                }
                // Anchor maintenance, after the drains: a move beyond the
                // drift radius has just failed every skip check (dirtying
                // the mover's certified pairs), so re-anchoring here cannot
                // strand a certificate issued against the old anchor.
                if p.distance_sq(self.anchors[i]) > CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS {
                    self.anchors[i] = p;
                }
            }
            WorldMode::Scratch => {
                // Scratch mode keeps no dirty-pair machinery; conservatively
                // treat every view as changed by any effective move.
                for v in &mut self.view_versions {
                    *v += 1;
                }
            }
        }
        self.grid.move_point(i, p);
        self.centers[i] = p;
        self.xs[i] = p.x;
        self.ys[i] = p.y;
    }

    /// Processes one cell's corridor registrations at one grid level for a
    /// move of robot `mover` from `old` to `new`: pairs whose answer can
    /// actually depend on that move — the mover is an endpoint, or its old
    /// or new position lies within the pruning radius of the pair's chord
    /// — are marked dirty, dropped, and queued on both endpoints' pending
    /// rows so the next row refresh recomputes exactly the dirtied pairs
    /// instead of probing all n. Unaffected live registrations are kept
    /// (the cell cover is conservative, so most drains touch corridors the
    /// mover never entered). Dead registrations (older generation, or pairs
    /// already dirty) are dropped — a dirty pair re-registers when it is
    /// next recomputed.
    fn dirty_cell(&mut self, level: usize, cell: CellCoord, mover: usize, old: Point, new: Point) {
        use std::collections::hash_map::Entry;
        let SparseVis {
            slab,
            pending,
            regs,
            ..
        } = &mut self.sparse;
        let Entry::Occupied(mut slot) = regs[level].entry(cell) else {
            return;
        };
        let regs = slot.get_mut();
        let centers = &self.centers;
        let view_versions = &mut self.view_versions;
        let cert_skips = &mut self.cert_skips;
        let prune_sq = VISIBILITY_PRUNE_RADIUS * VISIBILITY_PRUNE_RADIUS;
        let drift_sq = CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS;
        // Hoisted skip predicate: this move keeps the mover within the
        // drift radius of its anchor. While that holds, every certified
        // registration — the mover's own pairs *and* third-party corridors
        // crossing this cell — provably keeps its "blocked" answer (see
        // [`CERT_DRIFT_RADIUS`]), so the fast path below retains it with
        // one branch and no slab access. A move beyond the radius
        // makes this `false` for the whole drain, which dirties every
        // certified pair the mover could affect *before* `move_robot`
        // resets the anchor.
        let mover_within_drift = new.distance_sq(self.anchors[mover]) <= drift_sq;
        regs.refs.retain(|&r| {
            if r.certified() && mover_within_drift {
                *cert_skips += 1;
                return true;
            }
            let entry = &mut slab[r.id as usize];
            if !entry.is_current(r) {
                return false; // dead registration
            }
            let (a, b) = (entry.a as usize, entry.b as usize);
            // Squared-distance form of `distance_to(..) <= PRUNE_RADIUS`:
            // exactly equivalent (the radius squares exactly), one sqrt
            // cheaper per drained registration.
            let affected = a == mover || b == mover || {
                let chord = Segment::new(centers[a], centers[b]);
                chord.distance_sq_to(old) <= prune_sq || chord.distance_sq_to(new) <= prune_sq
            };
            if affected {
                entry.dirty = true;
                // View-version maintenance. A robot's Look snapshot changes
                // only when a robot it *sees* moved or its visible set
                // flips. Dirtying a **seen** pair therefore bumps both
                // endpoints right here: a clean pair is registered on both
                // endpoints' current cells, so a seen pair whose endpoint
                // moves is always drained at that move, and while the pair
                // stays dirty no further endpoint move can slip through
                // unbumped. **Unseen** pairs stay silent — their endpoints'
                // views can only change if the answer flips, which the
                // recompute detects (and bumps), always before any robot
                // stamps a view version off that state. This is what keeps
                // one move's invalidation at O(deg): moving a robot nobody
                // sees bumps nobody else.
                if entry.seen {
                    view_versions[a] += 1;
                    view_versions[b] += 1;
                }
                push_pending(&mut pending[a], b as u32);
                push_pending(&mut pending[b], a as u32);
            }
            !affected
        });
        if regs.refs.is_empty() {
            slot.remove();
        } else {
            // The drain doubles as a sweep: reset the compaction watermark.
            regs.compact_at = regs.refs.len() * 2;
        }
    }

    /// Whether robots `i` and `j` see each other, answered from the cache
    /// when the entry is clean and recomputed (through the grid-pruned pair
    /// kernel) otherwise.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    pub fn sees(&mut self, i: usize, j: usize) -> bool {
        assert!(i != j, "a robot trivially sees itself");
        if self.mode == WorldMode::Scratch {
            return disc_sees_disc(i, j, &self.centers);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        assert!(b < self.len(), "robot index out of bounds");
        let id = self.sparse.intern(a, b);
        let entry = self.sparse.slab[id as usize];
        if !entry.dirty {
            self.hits += 1;
            return entry.seen;
        }
        self.misses += 1;
        let mut probe = std::mem::take(&mut self.probe);
        let answer = self.compute_pair_answer(a, b, &mut probe);
        self.probe = probe;
        self.commit_pair(id, answer);
        answer.seen
    }

    /// The grid level a pair registers its corridor at: the finest level
    /// whose cells are large enough that the chord's cover holds O(1) of
    /// them ([`SPARSE_REG_SPAN_CELLS`]). Long chords land on the coarsest
    /// level, whose cover is a handful of cells even across the whole
    /// configuration.
    fn sparse_reg_level(&self, ca: Point, cb: Point) -> usize {
        let chord = ca.distance(cb);
        for level in 0..GRID_LEVELS {
            if chord <= self.grid.cell_size_at(level) * SPARSE_REG_SPAN_CELLS {
                return level;
            }
        }
        GRID_LEVELS - 1
    }

    /// Replaces `out` with the sites other than `a` and `b` in the occupied
    /// base cells of the conservative cover of the capsule of `radius`
    /// around `p`–`q` — a superset of the sites within `radius` of the
    /// segment (the pruned walk surfaces exactly the sites the flat walk
    /// would).
    fn gather_sites_near(
        &self,
        a: usize,
        b: usize,
        p: Point,
        q: Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let grid = &self.grid;
        grid.for_each_occupied_cell_near_segment(p, q, radius, |cell| {
            if let Some(sites) = grid.sites_in(cell) {
                out.extend(sites.iter().copied().filter(|&k| k != a && k != b));
            }
            true
        });
    }

    /// The mid-chord window step of [`Self::compute_pair_answer`]: for a
    /// chord of span at least [`STRIP_COVER_SLACK_MIN_SPAN`] whose midpoint
    /// lies in an occupied base cell, `true` when the slack strip cover
    /// fires on the sites within [`CERT_WINDOW_RADIUS`] of the chord's
    /// middle stretch of half-length [`CERT_WINDOW_HALF_LEN`]. The
    /// occupancy gate keeps the try to chords through dense regions, where
    /// it almost always fires; elsewhere it would cost more than it saves.
    fn window_certifies(&self, a: usize, b: usize, probe: &mut PairProbe) -> bool {
        let (ca, cb) = (self.centers[a], self.centers[b]);
        let span = ca.distance(cb);
        let mid = ca.midpoint(cb);
        if span < STRIP_COVER_SLACK_MIN_SPAN || self.grid.sites_in(self.grid.cell_of(mid)).is_none()
        {
            return false;
        }
        let half = (cb - ca) * (CERT_WINDOW_HALF_LEN / span);
        let (p, q) = (mid - half, mid + half);
        self.gather_sites_near(a, b, p, q, CERT_WINDOW_RADIUS, &mut probe.cand);
        let centers = &self.centers;
        probe.obs.clear();
        probe.obs.extend(probe.cand.iter().map(|&k| centers[k]));
        strip_cover_blocked_with_slack(ca, cb, &probe.obs)
    }

    /// Computes one pair's visibility answer **without mutating anything**,
    /// on caller-owned scratch (serial recomputes call this on the world's
    /// own probe). Two steps:
    ///
    /// 1. **Mid-chord window** (`window_certifies`): a long chord
    ///    through a dense region first tries the slack strip cover on the
    ///    few obstacles near its middle. A fire answers "blocked,
    ///    certified" without gathering the corridor. This is sound because
    ///    the slack cover proves every sight segment of the candidate
    ///    square blocked under ρ-drift of every robot, and that proof
    ///    holds for any obstacle superset (new obstacles only block
    ///    more), so the full kernel must answer `false` too. The covering
    ///    obstacles sit within `UNIT_RADIUS + hw` of the chord, inside the
    ///    pair's registration cover, so the `CERT_DRIFT_RADIUS` skip
    ///    argument is unchanged.
    /// 2. Otherwise the **whole corridor**: candidate walk, SoA corridor
    ///    filter, slack then exact strip cover, then the witness kernel.
    ///
    /// `seen` is always the kernel's answer. `certified` can differ from a
    /// run without step 1 only when the full slice's cover overflows its
    /// polygon budget where the window's did not.
    ///
    /// Safe to call from worker threads on a shared `&World`: it reads only
    /// the centers and the grid, which no commit writes, so where it runs
    /// cannot change the answer [`Self::commit_pair`] later stores.
    ///
    /// # Panics
    /// Panics if `a >= b`, either index is out of bounds, or the world is
    /// in [`WorldMode::Scratch`] (which has no pair store to commit into).
    fn compute_pair_answer(&self, a: usize, b: usize, probe: &mut PairProbe) -> PairAnswer {
        assert!(a < b && b < self.len(), "invalid pair");
        assert!(
            self.mode != WorldMode::Scratch,
            "scratch mode has no pair store"
        );
        let (ca, cb) = (self.centers[a], self.centers[b]);
        if self.window_certifies(a, b, probe) {
            return PairAnswer {
                seen: false,
                certified: true,
                cover_answered: true,
            };
        }
        // Candidate obstacles: the whole corridor.
        self.gather_sites_near(a, b, ca, cb, VISIBILITY_PRUNE_RADIUS, &mut probe.cand);
        probe.sx.clear();
        probe.sy.clear();
        for &k in &probe.cand {
            probe.sx.push(self.xs[k]);
            probe.sy.push(self.ys[k]);
        }
        probe.keep.clear();
        corridor_filter_soa(
            ca,
            cb,
            VISIBILITY_PRUNE_RADIUS,
            &probe.sx,
            &probe.sy,
            &mut probe.keep,
        );
        probe.obs.clear();
        let (sx, sy) = (&probe.sx, &probe.sy);
        probe.obs.extend(
            probe
                .keep
                .iter()
                .map(|&l| Point::new(sx[l as usize], sy[l as usize])),
        );
        let obs = &probe.obs;
        // Two-tier blocked fast path before the O(k²) witness kernel. The
        // slack cover additionally certifies the answer against endpoint
        // drift (see [`PairEntry::certified`]); the exact cover only
        // answers this recompute. Both are one-sided — `false` falls
        // through to the kernel — so the answer is always the kernel's.
        let mut certified = false;
        let mut cover_answered = false;
        let seen = if strip_cover_blocked_with_slack(ca, cb, obs) {
            certified = true;
            cover_answered = true;
            false
        } else if strip_cover_blocked(ca, cb, obs) {
            cover_answered = true;
            false
        } else {
            disc_sees_disc_among(ca, cb, obs)
        };
        PairAnswer {
            seen,
            certified,
            cover_answered,
        }
    }

    /// Commits one computed answer to the pair in slab slot `id`: bumps its
    /// generation, clears its dirty flag, stores the answer, bumps both
    /// views and updates both adjacency lists on a flip, counts a cover
    /// answer, and re-registers the pair's corridor. `answer` is what
    /// [`Self::compute_pair_answer`] returned for the pair on the current
    /// centers. Touches no hash map.
    fn commit_pair(&mut self, id: u32, answer: PairAnswer) {
        let entry = &mut self.sparse.slab[id as usize];
        entry.gen = (entry.gen + 1) & SparseRef::GEN_MASK;
        entry.dirty = false;
        let flipped = entry.seen != answer.seen;
        entry.seen = answer.seen;
        entry.certified = answer.certified;
        let (a, b) = (entry.a as usize, entry.b as usize);
        // Registered with the just-computed certified flag so drains can
        // honor it without indexing the slab.
        let sref = SparseRef::new(id, entry.gen, answer.certified);
        if answer.cover_answered {
            self.cover_answers += 1;
        }
        if flipped {
            // Both Look snapshots change. (Dirtying an unseen pair
            // deliberately does not bump — this commit is where a
            // false→true transition is caught, and it always runs before a
            // view version is stamped off the new state. A fresh entry
            // starts unseen, so a first computation that lands on `true`
            // bumps too.)
            self.view_versions[a] += 1;
            self.view_versions[b] += 1;
            let adj = &mut self.sparse.adj;
            if answer.seen {
                adj_insert(&mut adj[a], b as u32);
                adj_insert(&mut adj[b], a as u32);
            } else {
                adj_remove(&mut adj[a], b as u32);
                adj_remove(&mut adj[b], a as u32);
            }
        }
        // Register on the chosen level's conservative cover. The
        // *registration* walk must not skip empty cells: a future mover
        // can enter one.
        let (ca, cb) = (self.centers[a], self.centers[b]);
        let level = self.sparse_reg_level(ca, cb);
        let SparseVis { slab, regs, .. } = &mut self.sparse;
        let slab = &*slab;
        let level_regs = &mut regs[level];
        self.grid
            .for_each_cell_near_segment_at(level, ca, cb, VISIBILITY_PRUNE_RADIUS, |cell| {
                let slot = level_regs.entry(cell).or_default();
                if slot.refs.len() >= slot.compact_at.max(REGISTRATION_COMPACT_LEN) {
                    slot.refs.retain(|&r| slab[r.id as usize].is_current(r));
                    slot.compact_at = slot.refs.len() * 2;
                }
                slot.refs.push(sref);
                true
            });
    }

    /// Brings every pair of row `i` up to date, so that `adj[i]` *is* the
    /// visible set. Three steps:
    ///
    /// 1. **Plan**, with one pair-store probe per candidate. A row's first
    ///    refresh plans every pair of the row not already clean (the
    ///    unavoidable O(n), paid lazily per row; a pair never computed is
    ///    materialized dirty); afterwards only the pairs the cell drains
    ///    queued. The queue may hold duplicates and stale entries (pairs
    ///    already recomputed through the partner's row or a direct
    ///    [`Self::sees`] probe): it is sorted and deduplicated, and the
    ///    dirty check drops the stale ones. The hit/miss telemetry is
    ///    counted from the plan.
    /// 2. **Compute** one answer per planned pair, read-only
    ///    ([`Self::compute_answers`]; fanned out across cores for a long
    ///    plan).
    /// 3. **Commit** the answers in plan order ([`Self::commit_pair`]).
    ///
    /// Planned pairs are distinct and no commit dirties a pair, so
    /// committing after computing everything lands in exactly the state of
    /// recomputing pair by pair; the fan-out changes no answer, no
    /// bookkeeping and no counter.
    fn refresh_row(&mut self, i: usize) {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        let mut js = std::mem::take(&mut self.sparse.pending[i].js);
        let sparse = &mut self.sparse;
        if sparse.row_init[i] {
            js.sort_unstable();
            js.dedup();
            for j in js.iter().map(|&j| j as usize) {
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                if let Some(&id) = sparse.ids.get(&pair_key(a, b)) {
                    if sparse.slab[id as usize].dirty {
                        plan.push(id);
                    }
                }
            }
        } else {
            let n = self.centers.len();
            for j in (0..n).filter(|&j| j != i) {
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                let id = sparse.intern(a, b);
                if sparse.slab[id as usize].dirty {
                    plan.push(id);
                }
            }
            sparse.row_init[i] = true;
            self.hits += (n - 1 - plan.len()) as u64;
        }
        self.misses += plan.len() as u64;
        js.clear();
        self.sparse.pending[i] = PendingRow { js, compact_at: 0 };
        let mut probe = std::mem::take(&mut self.probe);
        let mut answers = std::mem::take(&mut self.answers);
        self.compute_answers(&plan, &mut probe, &mut answers);
        for (&id, &answer) in plan.iter().zip(&answers) {
            self.commit_pair(id, answer);
        }
        self.probe = probe;
        self.plan = plan;
        self.answers = answers;
    }

    /// Replaces `out` with one answer per pair of `plan` (slab ids), in plan
    /// order. A plan shorter than `ROW_FANOUT_MIN_PAIRS`, or a fan-out
    /// width of 1, runs serially on `probe`; otherwise `row_fanout_width`
    /// threads (calling thread included) claim [`FANOUT_CHUNK`]-pair chunks
    /// of the plan and fill the matching chunks of `out`. Each answer is
    /// [`Self::compute_pair_answer`] — read-only and thread-independent —
    /// so `out` is identical for every width.
    fn compute_answers(&self, plan: &[u32], probe: &mut PairProbe, out: &mut Vec<PairAnswer>) {
        let answer = |id: u32, probe: &mut PairProbe| {
            let entry = &self.sparse.slab[id as usize];
            self.compute_pair_answer(entry.a as usize, entry.b as usize, probe)
        };
        out.clear();
        if self.row_fanout_width <= 1 || plan.len() < ROW_FANOUT_MIN_PAIRS {
            out.extend(plan.iter().map(|&id| answer(id, probe)));
            return;
        }
        out.resize(plan.len(), PairAnswer::default());
        let chunks = Mutex::new(plan.chunks(FANOUT_CHUNK).zip(out.chunks_mut(FANOUT_CHUNK)));
        let worker = || {
            let mut probe = PairProbe::default();
            loop {
                let claimed = chunks.lock().expect("claiming a chunk cannot panic").next();
                let Some((ids, slots)) = claimed else {
                    break;
                };
                for (&id, slot) in ids.iter().zip(slots) {
                    *slot = answer(id, &mut probe);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.row_fanout_width {
                scope.spawn(worker);
            }
            worker();
        });
    }

    /// Indices of the robots visible to robot `i`, ascending — the cached
    /// equivalent of `visible_set`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn visible_of(&mut self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.visible_of_into(i, &mut out);
        out
    }

    /// Fills `out` with the (ascending) indices of the robots visible to
    /// robot `i` — [`Self::visible_of`] writing into caller-owned storage,
    /// so the engine's per-Look cost is free of allocation. A row of at
    /// least `ROW_FANOUT_MIN_PAIRS` recomputes fans its pair kernels out
    /// across the host's cores (`Self::refresh_row`); that only moves
    /// kernel evaluations onto other threads, never changes what is
    /// computed, in which order it is committed, or what the telemetry
    /// counts.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn visible_of_into(&mut self, i: usize, out: &mut Vec<usize>) {
        assert!(i < self.len(), "robot index out of bounds");
        out.clear();
        if self.mode == WorldMode::Scratch {
            out.extend(visible_set(i, &self.centers));
            return;
        }
        // Refresh recomputes exactly the dirty pairs of row `i`; the sorted
        // adjacency list then *is* the ascending visible set.
        self.refresh_row(i);
        out.extend(self.sparse.adj[i].iter().map(|&j| j as usize));
    }

    /// Rebuilds the hull cache in place when the configuration version
    /// changed since the last build (always in [`WorldMode::Scratch`]) and
    /// returns the all-on-hull flag.
    fn refresh_hull(&mut self) -> bool {
        let stale = self.mode == WorldMode::Scratch || self.hull_version != Some(self.version);
        if stale {
            self.hull
                .rebuild_with(&self.centers, &mut self.hull_scratch);
            if self.mode != WorldMode::Scratch {
                self.hull_rebuilds += 1;
            }
            self.hull_all_on = self.len() <= 2 || self.hull.all_on_hull();
            self.hull_version = Some(self.version);
        }
        self.hull_all_on
    }

    /// Convex hull of the centers (cached).
    pub fn hull(&mut self) -> &ConvexHull {
        self.refresh_hull();
        &self.hull
    }

    /// `true` when every center lies on the hull boundary (cached).
    pub fn all_on_hull(&mut self) -> bool {
        self.refresh_hull()
    }

    /// `true` when no two discs overlap beyond the touch tolerance.
    /// Grid-local in [`WorldMode::Sparse`] (overlap is a contact-radius
    /// relation), identical in outcome to the global minimum-gap test.
    pub fn is_valid(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return config::is_valid(&self.centers);
        }
        if let Some((v, ok)) = self.valid_cache {
            if v == self.version {
                return ok;
            }
        }
        let mut cand = std::mem::take(&mut self.cand_buf);
        let mut ok = true;
        'outer: for i in 0..self.len() {
            self.grid
                .candidates_near_point(self.centers[i], 2.0 * UNIT_RADIUS, &mut cand);
            for &j in cand.iter().filter(|&&j| j > i) {
                // The same float expression as the reference (`gap >=
                // -TOUCH_TOL` in `config::is_valid`): the
                // algebraically equal `d < 2R - TOUCH_TOL` rounds
                // differently at the boundary.
                let gap = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                if gap < -TOUCH_TOL {
                    ok = false;
                    break 'outer;
                }
            }
        }
        self.cand_buf = cand;
        self.valid_cache = Some((self.version, ok));
        ok
    }

    /// `true` when the union of the discs is connected (cached; the
    /// tangency graph is built from grid neighbourhoods instead of all
    /// pairs).
    pub fn is_connected(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return config::is_connected(&self.centers);
        }
        if let Some((v, ok)) = self.connected_cache {
            if v == self.version {
                return ok;
            }
        }
        let n = self.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut cand = std::mem::take(&mut self.cand_buf);
        for i in 0..n {
            self.grid.candidates_near_point(
                self.centers[i],
                2.0 * UNIT_RADIUS + TOUCH_TOL,
                &mut cand,
            );
            for &j in cand.iter().filter(|&&j| j > i) {
                let gap = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                if gap_touches(gap) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        self.cand_buf = cand;
        let root = if n == 0 { 0 } else { find(&mut parent, 0) };
        let ok = n <= 1 || (0..n).all(|i| find(&mut parent, i) == root);
        self.connected_cache = Some((self.version, ok));
        ok
    }

    /// The gathering predicate (Definition 1): connected and fully visible.
    /// Exactly [`config::is_gathered`], with the pairwise full-visibility
    /// fallback answered from the pair cache.
    pub fn is_gathered(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return config::is_gathered(&self.centers);
        }
        if !self.is_connected() {
            return false;
        }
        if self.all_on_hull() && no_three_collinear(&self.centers, COLLINEARITY_TOL) {
            return true;
        }
        let n = self.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if !self.sees(i, j) {
                    return false;
                }
            }
        }
        true
    }

    /// The configuration-level predicates behind one metrics sample, from
    /// the cached hull and connectivity.
    pub fn sample_predicates(&mut self) -> SamplePredicates {
        if self.mode == WorldMode::Scratch {
            return SamplePredicates::from_centers(&self.centers);
        }
        let connected = self.is_connected();
        let all_on = self.refresh_hull();
        SamplePredicates::from_hull(&self.hull, all_on, connected)
    }

    /// Fills `out` with the (ascending) indices of every robot that could
    /// stop robot `i` within `allowed` travel from `start` along the unit
    /// direction `dir`: a superset of the discs within contact range of the
    /// swept capsule. In scratch mode this is simply every other robot.
    pub fn contact_candidates(
        &mut self,
        i: usize,
        start: Point,
        dir: Vec2,
        allowed: f64,
        out: &mut Vec<usize>,
    ) {
        if self.mode == WorldMode::Scratch {
            out.clear();
            out.extend((0..self.len()).filter(|&j| j != i));
            return;
        }
        let end = start + dir * (allowed + CONTACT_QUERY_MARGIN);
        self.grid.candidates_near_segment(
            start,
            end,
            2.0 * UNIT_RADIUS + CONTACT_QUERY_MARGIN,
            out,
        );
        out.retain(|&j| j != i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn world(centers: Vec<Point>, mode: WorldMode) -> World {
        World::new(centers, mode)
    }

    /// Every derived answer of an incremental world must equal the
    /// from-scratch answer on the same centers.
    fn assert_matches_scratch(w: &mut World) {
        let centers = w.centers().to_vec();
        for i in 0..centers.len() {
            assert_eq!(
                w.visible_of(i),
                visible_set(i, &centers),
                "visible set of robot {i} diverged"
            );
        }
        assert_eq!(w.is_valid(), config::is_valid(&centers));
        assert_eq!(w.is_connected(), config::is_connected(&centers));
        assert_eq!(w.all_on_hull(), config::all_on_hull(&centers));
        assert_eq!(w.hull(), &ConvexHull::from_points(&centers));
        assert_eq!(w.is_gathered(), config::is_gathered(&centers));
    }

    #[test]
    fn fresh_world_matches_scratch_everywhere() {
        let mut w = world(
            vec![
                p(0.0, 0.0),
                p(3.0, 0.5),
                p(6.0, -0.5),
                p(2.0, 4.0),
                p(5.0, 3.0),
            ],
            WorldMode::Sparse,
        );
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn moves_invalidate_exactly_what_they_must() {
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)],
            WorldMode::Sparse,
        );
        assert_matches_scratch(&mut w);
        // Slide the middle robot off the 0–2 corridor: 0 and 2 regain sight.
        w.move_robot(1, p(10.0, 5.0));
        assert_matches_scratch(&mut w);
        assert!(w.sees(0, 2));
        // And back on: they lose it again.
        w.move_robot(1, p(10.0, 0.0));
        assert_matches_scratch(&mut w);
        assert!(!w.sees(0, 2));
    }

    #[test]
    fn unrelated_pairs_hit_the_cache_after_a_move() {
        let mut w = world(
            vec![p(0.0, 0.0), p(6.0, 0.0), p(100.0, 100.0), p(106.0, 100.0)],
            WorldMode::Sparse,
        );
        // Warm every pair.
        for i in 0..4 {
            let _ = w.visible_of(i);
        }
        let (_, misses_before) = w.cache_stats();
        // A far-away move cannot touch the 0–1 corridor.
        w.move_robot(2, p(101.0, 100.0));
        assert!(w.sees(0, 1));
        let (hits, misses) = w.cache_stats();
        assert_eq!(
            misses, misses_before,
            "the 0-1 pair must be answered from the cache"
        );
        assert!(hits > 0);
        // But pairs involving the mover are recomputed.
        assert!(w.sees(2, 3));
        let (_, misses_after) = w.cache_stats();
        assert_eq!(misses_after, misses_before + 1);
    }

    #[test]
    fn scratch_mode_reports_no_cache_traffic() {
        let mut w = world(vec![p(0.0, 0.0), p(5.0, 0.0)], WorldMode::Scratch);
        assert!(w.sees(0, 1));
        let _ = w.visible_of(0);
        let _ = w.hull();
        assert_eq!(w.cache_stats(), (0, 0));
        assert_eq!(w.hull_repair_stats(), (0, 0));
    }

    #[test]
    fn view_versions_bump_only_for_affected_robots() {
        // A line of robots: each sees only its neighbours (the middle
        // discs occlude the far ones).
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(30.0, 0.0)],
            WorldMode::Sparse,
        );
        // Clean every pair (the state right after everybody Looked).
        for i in 0..4 {
            assert_eq!(w.visible_of(i).len(), if i == 0 || i == 3 { 1 } else { 2 });
        }
        let before: Vec<u64> = (0..4).map(|i| w.view_version(i)).collect();
        // Robot 3 slides along the line, staying hidden from 0 and 1: only
        // the mover and its one watcher (robot 2) may be bumped, so 0's and
        // 1's cached decisions stay replayable.
        w.move_robot(3, p(31.0, 0.0));
        for i in 0..4 {
            let _ = w.visible_of(i); // re-Look: flips (none here) would bump
        }
        assert_eq!(w.view_version(0), before[0], "robot 0 cannot see the move");
        assert_eq!(w.view_version(1), before[1], "robot 1 cannot see the move");
        assert!(w.view_version(2) > before[2], "robot 2 watches the mover");
        assert!(
            w.view_version(3) > before[3],
            "the mover's own view changed"
        );
        // With every row clean and stable, further queries bump nothing.
        let snapshot: Vec<u64> = (0..4).map(|i| w.view_version(i)).collect();
        for i in 0..4 {
            let _ = w.visible_of(i);
        }
        let _ = w.hull();
        let _ = w.is_gathered();
        assert_eq!(
            snapshot,
            (0..4).map(|i| w.view_version(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn visibility_flips_bump_versions_at_the_recompute() {
        // Robot 1 occludes the 0–2 sight line; moving it away flips the
        // (0, 2) pair. The flip is detected when the dirty pair is next
        // recomputed — robot 0's version must differ between the two
        // post-Look states even though robot 0 never moved and never saw
        // the mover... (it does see robot 1 here, so the seen-pair rule
        // already bumps it; the flip rule is what carries configurations
        // where the occluder is itself invisible — pinned by the proptests
        // against arbitrary scripts.)
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)],
            WorldMode::Sparse,
        );
        let vis0 = w.visible_of(0);
        assert_eq!(vis0, vec![1]);
        let v0 = w.view_version(0);
        w.move_robot(1, p(10.0, 8.0));
        let vis0_after = w.visible_of(0);
        assert_eq!(vis0_after, vec![1, 2], "0 regains sight of 2");
        assert!(
            w.view_version(0) > v0,
            "a flipped pair must invalidate the affected views"
        );
    }

    #[test]
    fn unchanged_view_version_guarantees_identical_visible_set() {
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)],
            WorldMode::Sparse,
        );
        let mut seen: Vec<(u64, Vec<usize>)> = (0..4)
            .map(|i| {
                let vis = w.visible_of(i);
                (w.view_version(i), vis)
            })
            .collect();
        for (step, &(m, to)) in [
            (1, p(10.0, 5.0)),
            (3, p(10.0, 0.5)),
            (1, p(10.0, 0.0)),
            (0, p(0.0, 1.0)),
        ]
        .iter()
        .enumerate()
        {
            w.move_robot(m, to);
            for (i, slot) in seen.iter_mut().enumerate() {
                let vis = w.visible_of(i);
                let v = w.view_version(i);
                if v == slot.0 {
                    assert_eq!(
                        vis, slot.1,
                        "step {step}: version of robot {i} held but its visible set changed"
                    );
                }
                *slot = (v, vis);
            }
        }
    }

    #[test]
    fn hull_refresh_rebuilds_once_per_stale_query() {
        let mut w = world(
            vec![
                p(0.0, 0.0),
                p(20.0, 0.0),
                p(20.0, 20.0),
                p(0.0, 20.0),
                p(10.0, 10.0),
            ],
            WorldMode::Sparse,
        );
        let _ = w.hull(); // cold: full build
        assert_eq!(w.hull_repair_stats(), (0, 1));
        // Queries at an unchanged version reuse the hull.
        let _ = w.hull();
        assert!(!w.all_on_hull());
        assert_eq!(w.hull_repair_stats(), (0, 1));
        // Several moves before the next query cost one rebuild.
        w.move_robot(4, p(11.0, 11.0));
        w.move_robot(0, p(-1.0, 0.0));
        assert!(!w.all_on_hull());
        let _ = w.hull();
        assert_eq!(w.hull_repair_stats(), (0, 2));
        assert_matches_scratch(&mut w);
        let rebuilds = w.hull_repair_stats().1;
        // An interior mover crossing onto the hull boundary.
        w.move_robot(4, p(25.0, 10.0));
        assert!(w.hull().index_on_hull(4));
        assert_eq!(w.hull_repair_stats(), (0, rebuilds + 1));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn move_to_same_position_is_a_noop() {
        let mut w = world(vec![p(0.0, 0.0), p(5.0, 0.0)], WorldMode::Sparse);
        let _ = w.visible_of(0);
        let (_, misses) = w.cache_stats();
        let version = w.view_version(0);
        w.move_robot(0, p(0.0, 0.0));
        let _ = w.visible_of(0);
        assert!(w.sees(0, 1));
        let (hits, misses_after) = w.cache_stats();
        assert_eq!(misses_after, misses, "a no-op move must not invalidate");
        assert_eq!(w.view_version(0), version, "nor bump the mover's view");
        assert!(hits >= 1);
    }

    #[test]
    fn single_robot_world_is_trivially_fine() {
        let mut w = world(vec![p(1.0, 1.0)], WorldMode::Sparse);
        assert!(w.visible_of(0).is_empty());
        assert!(w.is_valid());
        assert!(w.is_connected());
    }

    #[test]
    fn overlap_is_detected_incrementally() {
        let mut w = world(vec![p(0.0, 0.0), p(5.0, 0.0)], WorldMode::Sparse);
        assert!(w.is_valid());
        w.move_robot(1, p(1.0, 0.0));
        assert!(!w.is_valid());
    }

    #[test]
    fn long_jumps_across_many_cells_invalidate_both_endpoints() {
        // Robot 2 jumps from far away straight onto the 0–1 corridor: the
        // pair (0, 1) was computed with an empty corridor, and the only
        // cells that see the move are the jump's endpoints.
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 50.0)],
            WorldMode::Sparse,
        );
        assert!(w.sees(0, 1));
        w.move_robot(2, p(5.0, 0.0));
        assert!(!w.sees(0, 1), "the newcomer must block the sight line");
        assert_matches_scratch(&mut w);
        // And jumping away again restores it.
        w.move_robot(2, p(5.0, 50.0));
        assert!(w.sees(0, 1));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn sparse_world_matches_scratch_through_moves() {
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)],
            WorldMode::Sparse,
        );
        assert_matches_scratch(&mut w);
        w.move_robot(1, p(10.0, 5.0));
        assert_matches_scratch(&mut w);
        assert!(w.sees(0, 2));
        w.move_robot(1, p(10.0, 0.0));
        assert_matches_scratch(&mut w);
        assert!(!w.sees(0, 2));
        w.move_robot(3, p(9.0, 11.0));
        w.move_robot(0, p(1.0, 0.5));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn sparse_pair_store_only_materializes_queried_rows() {
        let n = 40;
        let centers: Vec<Point> = (0..n)
            .map(|i| p((i % 8) as f64 * 5.0, (i / 8) as f64 * 5.0))
            .collect();
        let mut w = world(centers, WorldMode::Sparse);
        let _ = w.visible_of(0);
        let (entries, _) = w.pair_store_stats();
        assert_eq!(
            entries,
            (n - 1) as u64,
            "one row refresh must materialize exactly its own pairs"
        );
    }

    #[test]
    fn sparse_long_chords_register_coarsely_and_still_invalidate() {
        // The 0–1 chord is far longer than SPARSE_REG_SPAN_CELLS base
        // cells, so its corridor registers at a coarse level; a robot
        // jumping into the corridor must still dirty it through the
        // coarse-cell drain.
        let mut w = world(
            vec![p(0.0, 0.0), p(200.0, 0.0), p(100.0, 50.0)],
            WorldMode::Sparse,
        );
        assert!(w.sees(0, 1));
        w.move_robot(2, p(100.0, 0.0));
        assert!(!w.sees(0, 1), "the newcomer must block the long sight line");
        assert_matches_scratch(&mut w);
        w.move_robot(2, p(100.0, 50.0));
        assert!(w.sees(0, 1));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn sparse_registrations_and_pending_queues_stay_bounded() {
        let mut w = world(
            vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 3.0)],
            WorldMode::Sparse,
        );
        for k in 0..500 {
            let y = if k % 2 == 0 { 0.0 } else { 3.0 };
            w.move_robot(2, p(20.0, y));
            let _ = w.visible_of(0);
        }
        let worst = w
            .sparse
            .regs
            .iter()
            .flat_map(CellMap::values)
            .map(|r| r.refs.len())
            .max()
            .unwrap_or(0);
        assert!(
            worst <= 2 * REGISTRATION_COMPACT_LEN,
            "sparse registration lists must stay bounded (worst {worst})"
        );
        let worst_pending = w.sparse.pending.iter().map(|q| q.js.len()).max().unwrap();
        assert!(
            worst_pending <= 2 * REGISTRATION_COMPACT_LEN.max(w.len()),
            "pending queues must stay bounded (worst {worst_pending})"
        );
        assert_matches_scratch(&mut w);
    }

    /// Observable state after one Look: the visible set, every robot's
    /// view version, and the cache, pair-store and certificate counters.
    type LookState = (Vec<usize>, Vec<u64>, [u64; 6]);

    /// Looks with robot `i`, records the state, and reports whether the
    /// refresh fanned out: the fan-out gate's test on the refresh's plan,
    /// which stays in the world's buffer until the next refresh.
    fn look_and_record(w: &mut World, i: usize, trace: &mut Vec<LookState>) -> bool {
        let visible = w.visible_of(i);
        let versions = (0..w.len()).map(|k| w.view_version(k)).collect();
        let ((hits, misses), (entries, regs), (covers, skips)) =
            (w.cache_stats(), w.pair_store_stats(), w.cert_stats());
        trace.push((
            visible,
            versions,
            [hits, misses, entries, regs, covers, skips],
        ));
        w.row_fanout_width > 1 && w.plan.len() >= ROW_FANOUT_MIN_PAIRS
    }

    #[test]
    fn row_fanout_matches_the_serial_refresh() {
        // First rows of this hex packing exceed the fan-out threshold, and
        // so does the pending queue of a robot that jumps out of its drift
        // radius. The width is forced, so the fan-out runs on any host.
        let n = ROW_FANOUT_MIN_PAIRS + 88;
        let centers = crate::init::hex(n, 2.1);
        let lookers = [0, n / 2, n - 1];
        let run = |width: usize| {
            let mut w = world(centers.clone(), WorldMode::Sparse);
            w.row_fanout_width = width;
            let (mut trace, mut fanned) = (Vec::new(), Vec::new());
            let mut look_all = |w: &mut World| {
                for &i in &lookers {
                    fanned.push(look_and_record(w, i, &mut trace));
                }
            };
            look_all(&mut w); // first Looks
            let mid = w.center(n / 2);
            w.move_robot(n / 2, p(mid.x + 0.01, mid.y)); // within drift
            look_all(&mut w);
            let corner = w.center(0);
            w.move_robot(0, p(corner.x - 3.0, corner.y - 3.0)); // out of drift
            look_all(&mut w);
            w.move_robot(0, corner);
            look_all(&mut w);
            (trace, fanned)
        };
        let (serial, serial_fanned) = run(1);
        let (fanout, fanout_fanned) = run(2);
        for (k, (want, got)) in serial.iter().zip(&fanout).enumerate() {
            assert_eq!(want, got, "Look {k} diverged between width 1 and width 2");
        }
        assert!(serial_fanned.iter().all(|&f| !f), "width 1 never fans out");
        assert_eq!(
            fanout_fanned,
            [
                [true, true, true],
                [false, false, false],
                [true, false, false],
                [true, false, false]
            ]
            .concat(),
            "first rows and the jumper's re-Looks fan out; small queues do not"
        );
    }

    #[test]
    fn stale_and_duplicate_pending_entries_recompute_once() {
        // Robot 2 sits in the 0–1 corridor. Each of its two moves dirties
        // (0, 1), (0, 2) and (1, 2) and queues them on both endpoints'
        // rows; `sees` probes clean the pairs without consuming the
        // queues, all but (0, 1) after the second move. Rows 0 and 1 end
        // up holding their partner twice while only (0, 1) is dirty.
        let (i, j, k) = (0, 1, 2);
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 1.5)],
            WorldMode::Sparse,
        );
        for r in 0..3 {
            let _ = w.visible_of(r);
        }
        for (step, y) in [1.6, 1.5].into_iter().enumerate() {
            w.move_robot(k, p(5.0, y));
            assert!(w.sparse.slab[w.sparse.ids[&pair_key(i, j)] as usize].dirty);
            let _ = (w.sees(i, k), w.sees(j, k));
            if step == 0 {
                let _ = w.sees(i, j);
            }
        }
        let queued = |w: &World, row: usize, partner: u32| {
            w.sparse.pending[row]
                .js
                .iter()
                .filter(|&&q| q == partner)
                .count()
        };
        assert_eq!((queued(&w, i, j as u32), queued(&w, j, i as u32)), (2, 2));
        let (hits, misses) = w.cache_stats();
        let (_, regs) = w.pair_store_stats();
        // The pair's corridor cover: what its one commit registers (no
        // list here is long enough to be compacted).
        let (ci, cj) = (w.center(i), w.center(j));
        let mut cover = 0;
        w.grid.for_each_cell_near_segment_at(
            w.sparse_reg_level(ci, cj),
            ci,
            cj,
            VISIBILITY_PRUNE_RADIUS,
            |_| {
                cover += 1;
                true
            },
        );
        let _ = w.visible_of(j);
        assert_eq!(
            w.cache_stats(),
            (hits, misses + 1),
            "row {j} recomputes once"
        );
        assert_eq!(w.pair_store_stats(), (3, regs + cover));
        let _ = w.visible_of(i);
        assert!(w.plan.is_empty(), "row {i} has nothing left to recompute");
        assert_eq!(
            w.cache_stats(),
            (hits, misses + 1),
            "row {i} recomputes nothing"
        );
        assert_eq!(w.pair_store_stats(), (3, regs + cover));
        let centers = w.centers().to_vec();
        for r in 0..3 {
            assert_eq!(w.visible_of(r), visible_set(r, &centers));
        }
    }

    #[test]
    fn mid_chord_window_agrees_with_the_full_corridor() {
        // Wherever the window certifies a pair, the full corridor must
        // certify it too and the exhaustive kernel must answer "blocked" —
        // on a jittered hex packing, a random spread and an exact lattice
        // (axis-aligned chords put obstacles at tied offsets). Two rows per
        // configuration keep the exhaustive checks cheap.
        let n = 600;
        let configs = [
            ("hex", crate::init::hex(n, 2.1)),
            ("random", crate::init::random_spread(n, 7, 80.0)),
            ("lattice", crate::init::grid(n, 0.1)),
        ];
        for (name, centers) in configs {
            let mut w = world(centers.clone(), WorldMode::Sparse);
            let mut probe = PairProbe::default();
            let mut fires = Vec::new();
            for a in (0..n).step_by(300) {
                for b in a + 1..n {
                    if !w.window_certifies(a, b, &mut probe) {
                        continue;
                    }
                    let others: Vec<Point> = (0..n)
                        .filter(|&k| k != a && k != b)
                        .map(|k| centers[k])
                        .collect();
                    assert!(
                        strip_cover_blocked_with_slack(centers[a], centers[b], &others),
                        "{name}: the window certified ({a}, {b}) but the full slice does not"
                    );
                    assert!(
                        !disc_sees_disc(a, b, &centers),
                        "{name}: the window certified ({a}, {b}) but the pair sees"
                    );
                    fires.push((a, b));
                }
            }
            assert!(
                fires.len() >= 100,
                "{name}: only {} window fires",
                fires.len()
            );
            // Move an obstacle of the longest certified corridor that sits
            // outside the window beyond the drift radius: the certificate
            // must not outlive it, and the re-Looked row must match the
            // oracle.
            let (a, b) = fires
                .iter()
                .copied()
                .max_by(|x, y| {
                    let span = |&(a, b): &(usize, usize)| centers[a].distance(centers[b]);
                    span(x).total_cmp(&span(y))
                })
                .expect("non-empty");
            let _ = w.visible_of(a);
            let chord = Segment::new(centers[a], centers[b]);
            let mid = centers[a].midpoint(centers[b]);
            let k = (0..n)
                .filter(|&k| k != a && k != b)
                .find(|&k| {
                    chord.distance_to(centers[k]) <= UNIT_RADIUS
                        && centers[k].distance(mid) > CERT_WINDOW_HALF_LEN + CERT_WINDOW_RADIUS
                })
                .expect("a corridor obstacle outside the window");
            let entry = |w: &World| w.sparse.slab[w.sparse.ids[&pair_key(a, b)] as usize];
            assert!(entry(&w).certified, "{name}: the Look certifies ({a}, {b})");
            w.move_robot(k, p(centers[k].x + 0.5, centers[k].y + 0.5));
            assert!(entry(&w).dirty, "{name}: the move must dirty ({a}, {b})");
            let mut scratch = world(w.centers().to_vec(), WorldMode::Scratch);
            assert_eq!(w.visible_of(a), scratch.visible_of(a), "{name}: row {a}");
        }
    }

    #[test]
    fn contact_candidates_cover_the_swept_path() {
        let mut w = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 30.0)],
            WorldMode::Sparse,
        );
        let mut out = Vec::new();
        w.contact_candidates(0, p(0.0, 0.0), Vec2::new(1.0, 0.0), 9.0, &mut out);
        assert!(out.contains(&1), "the disc ahead must be a candidate");
        assert!(!out.contains(&0), "the mover itself is excluded");
        let mut scratch = world(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 30.0)],
            WorldMode::Scratch,
        );
        scratch.contact_candidates(0, p(0.0, 0.0), Vec2::new(1.0, 0.0), 9.0, &mut out);
        assert_eq!(out, vec![1, 2], "scratch mode scans everyone");
    }
}
