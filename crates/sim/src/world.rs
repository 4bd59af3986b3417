//! Incremental world state.
//!
//! The paper's model is event-serial by construction — exactly one robot
//! acts per event — so between two consecutive Look snapshots at most one
//! center has changed. [`World`] exploits this: it owns the ground-truth
//! centers plus derived state that is **incrementally maintained** instead
//! of being recomputed from scratch on every event:
//!
//! * a **sparse visibility store**: per-robot sorted adjacency lists plus a
//!   slab of 16-byte pair entries, each invalidated when a move can
//!   actually have changed the pair's answer. A world of at most
//!   `SCAN_MAX_N` robots indexes the slab directly, one slot per pair; a
//!   larger one materializes only the pairs actually computed, through a
//!   hash map from each pair to a stable dense id, so its memory is linear
//!   in n plus the computed pairs, never Θ(n²);
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
//! *into* or *out of* that corridor: when the mover is an endpoint, or its
//! old or new center lies within the pruning radius of the chord. A
//! dirtied pair that was seen bumps both endpoints' view versions on the
//! spot.
//!
//! **Certified pairs** — those the slack strip cover proved blocked
//! ([`PairVerdict::Certified`]) — are the one exception. Their answer can
//! change only when a robot moves beyond `CERT_DRIFT_RADIUS` of its
//! anchor: robots entering a blocked corridor only block more, and a
//! certificate survives every robot drifting within that radius. So a move
//! within the radius leaves every certified pair clean without testing it,
//! and a move beyond it tests them like the others.
//!
//! A move finds the pairs to dirty by testing the stored clean pairs of
//! the pair slab (`World::scan_slab`). The slab has one of two layouts,
//! chosen by the robot count alone (`SCAN_MAX_N`, the bound that also
//! picks the corridor source below). Both dirty exactly the same pairs with
//! the same view-version bumps, so every answer and counter is the same on
//! either.
//!
//! * **Direct** (worlds of at most `SCAN_MAX_N` robots): one slot per pair
//!   at its `direct_id`, laid out on first use (never in `World::new`).
//!   `commit_pair` stores the verdict, the certified bit and the pair's
//!   `f32` reach (chord plus twice the pruning radius, with slack). A move
//!   visits the clean pairs row by row: a robot within the pruning radius
//!   of a chord is within the reach of its two endpoints together, so one
//!   add and compare per pair against the mover's distances rejects most
//!   of them, and the rest meet the exact test. A row refresh reads its
//!   row's slots by direct index and recomputes the dirty ones. No hash,
//!   no pending queue.
//! * **Hashed** (larger worlds): a hash map from each computed pair to a
//!   stable slab id, so memory stays linear in n plus the computed pairs,
//!   and a per-robot pending queue that the move fills with each pair it
//!   dirties, on both endpoints' rows, so a row refresh plans only its
//!   dirty pairs. Beside the slab the world keeps the list of its clean
//!   uncertified pairs: a commit pushes, and a move drops what it
//!   dirties. A move within the drift radius tests only that list, so the
//!   ~10⁴ certified pairs of every row an n = 10⁴ packing has Looked cost
//!   it nothing; a move beyond it tests every stored clean pair and
//!   rebuilds the list.
//!
//! ## Where a recompute's obstacles come from
//!
//! `Sites::compute_pair_answer` takes the pair's corridor slice from one
//! of two sources, chosen by the robot count alone (`SCAN_MAX_N`, set at
//! a measured crossover):
//!
//! * **Row scan** (small worlds): a row refresh first sorts every other
//!   site by squared distance from the Looking robot, into SoA lanes
//!   primed once per (row, configuration version). Each planned pair then
//!   runs the SoA corridor filter over the prefix of the lanes within
//!   chord length plus pruning radius — a prefix that holds every site
//!   within the pair's capsule.
//! * **Grid gather** (larger worlds): the grid cells covering the
//!   corridor. A long chord through a dense region is first tried against
//!   the few obstacles near its midpoint (the mid-chord window), and only
//!   when their strip cover does not certify it blocked is the whole
//!   corridor gathered. The row scan skips the window: with no gather to
//!   save, the full slice's cover answers the same pairs.
//!
//! Both sources keep the same obstacle set after the filter.
//!
//! ## Where a row's pair kernels run
//!
//! The event loop is serial, so the only in-run parallelism is inside one
//! row refresh, whose planned pairs are independent read-only kernels. A
//! plan of at least `ROW_FANOUT_MIN_PAIRS` pairs is fanned out: the world
//! fills its reused `FanoutJob` (the row, each pair's partner, one answer
//! slot per pair, and an `Arc` of the centers, grid and version) and posts
//! it to a process-wide pool of `host_parallelism() − 1` helper threads,
//! started on the first fan-out and kept alive, spinning briefly and then
//! parked, between rows. A post opens one seat per free core, up to the
//! helpers, and wakes only those: each sweep run in progress holds a
//! core, so while a multi-worker sweep keeps every core busy its rows get
//! no seat and its worlds answer alone until a worker falls idle. The
//! pool serves one row at a time; a world that finds it busy answers its
//! row alone too. The caller claims chunks of the plan through an atomic
//! counter from the start and answers them itself; once none is left it
//! takes the job back out of the slot, waits only for a helper still
//! finishing a chunk, and commits the answers serially in plan order. A
//! helper never outlives its job's hold on the configuration, so
//! `move_robot` writes it through `Arc::make_mut` without copying. A panic
//! in a helper's kernel is re-raised on the caller.
//!
//! ## Bit-identical results
//!
//! The cached path answers every query through the *same* geometric kernels
//! as the from-scratch path. A recompute is one `pair_verdict` call on a
//! conservatively pre-filtered obstacle slice, whether the row scan or the
//! grid gather supplied it, in whatever order: its strip-cover cascade
//! (one strip list per chord) holds one-sided "blocked" proofs in front of
//! the witness kernel, `disc_sees_disc_among`, which on that slice is
//! exactly `disc_sees_disc` over all centers, and every step depends only
//! on the obstacle set. The mid-chord window is one more such proof. The
//! hull, connectivity and sample predicates are evaluated by the same
//! functions on the same inputs. A `World` in [`WorldMode::Scratch`]
//! recomputes everything per query, which is how the determinism suite pins
//! the equivalence event-for-event.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use fatrobots_geometry::grid::{CellHashBuilder, UniformGrid};
use fatrobots_geometry::hull::{ConvexHull, HullScratch};
use fatrobots_geometry::visibility::{
    corridor_filter_soa, disc_sees_disc, no_three_collinear, pair_verdict,
    strip_cover_blocked_with_slack, visible_set, PairVerdict, COVER_STABILITY_RADIUS,
    STRIP_COVER_MIN_SPAN, VISIBILITY_PRUNE_RADIUS,
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

/// Minimum length before a pending queue is ever compacted (sorted and
/// deduplicated). Beyond it, compaction triggers when a queue doubles past
/// its size after the previous compaction, so the work is amortized O(1)
/// per push while the duplicates of rows that rarely refresh stay bounded.
const PENDING_COMPACT_LEN: usize = 64;

/// Plan length from which a sparse row refresh fans its pair kernels out
/// to the helper pool ([`World::compute_answers`]). Measured on a 2-vCPU
/// host (rustc 1.95) as refreshes of rows with `L` dirtied pairs at width
/// 2 vs serial, helper awake, at n ∈ {32, 96, 128}: random spreads gain
/// 1.0× at `L` = 2, 1.1–1.2× at 4 and 1.2–1.5× from 8 on; hex packings
/// 1.0–1.2× at 2, 1.2–1.35× at 4 and 1.4–1.65× from 8 on. 8 is the
/// shortest plan at which every case gained at least 1.2×. Rows of
/// n = 6 worlds (at most 5 pairs) never fan out.
const ROW_FANOUT_MIN_PAIRS: usize = 8;

/// Chunks per fan-out thread a plan is cut into: enough that a helper
/// waking late still finds work and both threads finish within one small
/// chunk of each other, few enough that claims stay rare.
const FANOUT_CHUNKS_PER_THREAD: usize = 4;

/// Largest chunk a fan-out thread claims at a time (a 10⁴-pair row is cut
/// into ~150 claims).
const FANOUT_CHUNK_MAX: usize = 64;

/// How long an idle helper spins on the job slot before it parks: longer
/// than the gap between two fanned-out Looks of a busy run, so a run's
/// helper stays awake between its rows and parks when the run ends.
const HELPER_SPIN: Duration = Duration::from_micros(200);

/// The host's parallelism, read once.
fn host_parallelism() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(crate::sweep::default_jobs)
}

/// How a [`World`] answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldMode {
    /// The incremental world (the default): per-robot adjacency lists and
    /// a slab-indexed pair store, which a move scans for the pairs it
    /// dirties. Up to `SCAN_MAX_N` robots the slab holds every pair at a
    /// direct index; larger worlds materialize only computed pairs,
    /// keeping memory linear in n + computed pairs. Answers are
    /// event-for-event identical to [`WorldMode::Scratch`] (same kernels).
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
/// unordered pair `{a, b}` (`a < b`). The endpoints live here, so a scan
/// of a slot list reads them with one index.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    a: u32,
    b: u32,
    seen: bool,
    dirty: bool,
    /// The last recompute answered [`PairVerdict::Certified`].
    certified: bool,
    /// The pair has been materialized: always, for an entry of the hashed
    /// slab; for a slot of the direct slab, once a row refresh or a
    /// [`World::sees`] probe first asks for the pair.
    stored: bool,
}

// The hashed slab holds one entry per computed pair: 6.4·10⁵ of them once
// 64 rows of an n = 10⁴ world have been Looked.
const _: () = assert!(std::mem::size_of::<PairEntry>() == 12);

/// Maximum distance a robot may drift from its anchor before the anchor
/// resets (the resetting move itself tests every certified pair, so it
/// dirties every one it can affect first). Certificates are issued when
/// the endpoints are within this radius of their anchors and honored
/// while every robot involved stays within it, so any robot's position
/// differs from its certification-time one by at most
/// `2·CERT_DRIFT_RADIUS = COVER_STABILITY_RADIUS` — exactly the per-robot
/// drift a [`PairVerdict::Certified`] verdict guarantees against, for
/// obstacles as well as endpoints.
const CERT_DRIFT_RADIUS: f64 = COVER_STABILITY_RADIUS / 2.0;

/// Half-length of the mid-chord window [`Sites::compute_pair_answer`]
/// tries the slack cover on before gathering a long chord's whole
/// corridor, in worlds above [`SCAN_MAX_N`] robots (the row scan has no
/// gather to save): one cell edge either side of the midpoint, which holds
/// the few central obstacles the cover needs in a dense packing.
const CERT_WINDOW_HALF_LEN: f64 = GRID_CELL;

/// Gather radius of the mid-chord window (grid path only, like
/// [`CERT_WINDOW_HALF_LEN`]). An obstacle contributes a strip to the slack
/// cover only within `square + hw` of the chord (≤ 2.4 for the shortest
/// certifiable chord, → 2.0 for long ones), so this keeps every obstacle
/// the window's stretch of the cover can use.
const CERT_WINDOW_RADIUS: f64 = 2.5 * UNIT_RADIUS;

/// Largest world that takes both small-world paths. Its pair recomputes
/// take their corridor slice from the row scan ([`Sites::prime_row`])
/// instead of the grid gather and the mid-chord window, and its pair slab
/// takes the direct layout ([`SlabLayout::Direct`]).
///
/// The bound is the corridor source's measured crossover: serial row
/// refreshes of random spreads (`Shape::Random`) and hex packings at
/// spacing 2.1, 2 vCPUs, rustc 1.95, scan vs grid (first rows, a mover's
/// re-Look, a watcher's re-Look; README has the table). On random spreads
/// the scan gains 1.4–1.9× on first and mover rows at every n up to 600;
/// watcher rows, where the priming sort is most of the cost, fall to
/// 1.08× at 256 and 0.85× at 600. Hex packings, where the window
/// certifies most long chords, gain 1.15–1.3× at n = 32, break even at 96
/// and 128, and lose from 192 (0.91×), 256 (0.77–0.89×) and 600
/// (0.61–0.66×). At n = 10⁴ the scan is 2–3.5× slower on random spreads
/// and 12–14× on hex. 128 is the largest size measured where neither
/// shape loses.
const SCAN_MAX_N: usize = 128;

/// Relative slack on the row scan's squared prefix bound
/// `(|c_a c_b| + VISIBILITY_PRUNE_RADIUS)²`. The SoA corridor filter
/// accepts sites up to `1 + 5·10⁻¹⁰` times the pruning radius from the
/// chord; this slack (`≈ 1 + 5·10⁻⁷` on the distance) covers that and the
/// rounding of both squared distances for any chord, the zero-length one
/// included, so the prefix holds every site the filter can keep.
const ROW_PREFIX_SLACK: f64 = 1.0 + 1e-6;

/// Packed key of the unordered pair `{a, b}` (`a < b`) in the pair store.
fn pair_key(a: usize, b: usize) -> u64 {
    debug_assert!(a < b);
    ((a as u64) << 32) | b as u64
}

/// A robot's queue of pairs to recompute at its next row refresh. May hold
/// stale entries (pairs already recomputed through the partner's row); the
/// refresh skips anything no longer dirty. `compact_at` bounds the queue of
/// rows that rarely refresh (amortized-compaction watermark).
#[derive(Debug, Default)]
struct PendingRow {
    js: Vec<u32>,
    compact_at: usize,
}

/// How a [`WorldMode::Sparse`] world lays out its pair slab. Chosen by the
/// robot count alone ([`SCAN_MAX_N`]); both dirty exactly the same pairs
/// on a move and plan exactly the same pairs on a row refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlabLayout {
    /// Worlds of at most [`SCAN_MAX_N`] robots: a slot for every pair at
    /// its [`direct_id`], each clean one with its reach lane, scanned row
    /// by row on a move; a row refresh reads its row's slots. No hash, no
    /// pending queue.
    Direct,
    /// Larger worlds: only the computed pairs, found through a hash map,
    /// and per-robot pending queues feeding the row refreshes. A move
    /// within the drift radius scans the list of clean uncertified pairs
    /// ([`SparseVis::uncertified`]); a move beyond it scans every stored
    /// pair.
    Hashed,
}

/// Slab id of the pair `{a, b}` (`a < b`) in the direct slab of a world of
/// `n` robots: row-major over `a`, so the pairs `(a, b > a)` of one row are
/// contiguous.
fn direct_id(a: usize, b: usize, n: usize) -> u32 {
    debug_assert!(a < b && b < n);
    (a * (2 * n - a - 1) / 2 + (b - a - 1)) as u32
}

/// Slack on the chord length behind a [`SparseVis::reach`] entry: a clean
/// certified pair's endpoints may each have drifted up to
/// `2·CERT_DRIFT_RADIUS = COVER_STABILITY_RADIUS` since its recompute
/// (`CERT_DRIFT_RADIUS`), which lengthens the chord by at most twice that.
const REACH_DRIFT_SLACK: f64 = 2.0 * COVER_STABILITY_RADIUS;

/// The reach of a clean pair of chord length `chord` as stored in
/// [`SparseVis::reach`]: the chord plus the pruning radius at either end
/// and [`REACH_DRIFT_SLACK`], inflated relatively and absolutely far past
/// the rounding of the `f32` lanes and of the exact `f64` test, so the
/// scan's reject is conservative. Negated for a certified pair.
fn reach_lane(chord: f64, certified: bool) -> f32 {
    let reach = (chord + 2.0 * VISIBILITY_PRUNE_RADIUS + REACH_DRIFT_SLACK) * (1.0 + 1e-5) + 1e-3;
    (if certified { -reach } else { reach }) as f32
}

/// The exact invalidation test: whether a move of robot `mover` from `old`
/// to `new` can change the answer of the pair `{a, b}` — the mover is an
/// endpoint, or its old or new position lies within the pruning radius of
/// the chord. Squared-distance form of `distance_to(..) <=
/// VISIBILITY_PRUNE_RADIUS`: exactly equivalent (the radius squares
/// exactly), one square root cheaper.
fn affects(centers: &[Point], a: usize, b: usize, mover: usize, old: Point, new: Point) -> bool {
    let prune_sq = VISIBILITY_PRUNE_RADIUS * VISIBILITY_PRUNE_RADIUS;
    a == mover || b == mover || {
        let chord = Segment::new(centers[a], centers[b]);
        chord.distance_sq_to(old) <= prune_sq || chord.distance_sq_to(new) <= prune_sq
    }
}

/// The visibility state of [`WorldMode::Sparse`]: everything is sized by
/// what has actually been computed, never by n² — except the direct slab
/// of a small world ([`SlabLayout::Direct`]), which holds all n(n − 1)/2
/// pairs from its first use.
#[derive(Debug, Default)]
struct SparseVis {
    /// Slab id of every pair computed so far, keyed by [`pair_key`]
    /// ([`SlabLayout::Hashed`] only). Pairs are never removed, so ids are
    /// stable. Absent means "never computed" — [`SparseVis::intern`]
    /// materializes a dirty, unseen entry.
    ids: HashMap<u64, u32, CellHashBuilder>,
    /// The pair entries, indexed by id: in the order they were first
    /// computed ([`SlabLayout::Hashed`]), or at their [`direct_id`]
    /// ([`SlabLayout::Direct`]).
    slab: Vec<PairEntry>,
    /// Materialized pair entries (the entries whose `stored` bit is set).
    entries: u64,
    /// [`SlabLayout::Direct`] only, aligned with `slab`: the reach of each
    /// clean pair ([`reach_lane`]; negative when certified), NaN for a
    /// dirty or never-computed one. A robot at distances `d_a`, `d_b` from
    /// the endpoints lies within the pruning radius of the chord only if
    /// `d_a + d_b` is at most the chord plus twice that radius, so
    /// [`World::scan_slab`] rejects a pair on one add and one compare
    /// before the exact test.
    reach: Vec<f32>,
    /// [`SlabLayout::Hashed`] only: the slab ids of exactly the clean
    /// uncertified pairs, in no particular order. A commit of an
    /// uncertified verdict pushes its pair; a move drops every pair it
    /// dirties, and a move beyond the drift radius, which visits every
    /// stored pair, rebuilds the list. A move within the drift radius
    /// visits this list alone.
    uncertified: Vec<u32>,
    /// The clean certified pairs, which a move within the drift radius
    /// leaves clean without testing them.
    clean_certified: u64,
    /// [`SlabLayout::Direct`] only: scratch of [`World::scan_slab`], the
    /// distances of every site from the mover's old position, then from
    /// its new one.
    dists: Vec<f32>,
    /// Sorted adjacency: `adj[i]` holds exactly the robots whose pair with
    /// `i` is stored with `seen == true` (possibly dirty — a row refresh
    /// recomputes the dirty pairs before the list is read).
    adj: Vec<Vec<u32>>,
    /// Per-robot recompute queues, fed by the moves ([`SlabLayout::Hashed`]
    /// only).
    pending: Vec<PendingRow>,
    /// Whether row `i` has ever been fully computed. A row's first refresh
    /// computes all of its pairs; afterwards only dirtied pairs recompute.
    row_init: Vec<bool>,
}

impl SparseVis {
    /// The slab id of the pair `{a, b}` (`a < b`) in the hashed slab,
    /// materializing a fresh dirty, unseen entry for a pair never
    /// computed: one hash probe.
    fn intern(&mut self, a: usize, b: usize) -> u32 {
        let SparseVis {
            ids, slab, entries, ..
        } = self;
        *ids.entry(pair_key(a, b)).or_insert_with(|| {
            let id = u32::try_from(slab.len()).expect("pair ids fit in u32");
            slab.push(PairEntry {
                a: a as u32,
                b: b as u32,
                seen: false,
                dirty: true,
                certified: false,
                stored: true,
            });
            *entries += 1;
            id
        })
    }

    /// The slab id of the pair `{a, b}` (`a < b`) in the direct slab of a
    /// world of `n` robots, marking the pair stored. The first call lays
    /// out the slab: every pair dirty, unseen and not yet stored.
    fn intern_direct(&mut self, a: usize, b: usize, n: usize) -> u32 {
        if self.slab.is_empty() {
            self.slab.reserve_exact(n * (n - 1) / 2);
            for a in 0..n as u32 {
                self.slab.extend((a + 1..n as u32).map(|b| PairEntry {
                    a,
                    b,
                    seen: false,
                    dirty: true,
                    certified: false,
                    stored: false,
                }));
            }
            self.reach = vec![f32::NAN; self.slab.len()];
        }
        let id = direct_id(a, b, n);
        let entry = &mut self.slab[id as usize];
        if !entry.stored {
            entry.stored = true;
            self.entries += 1;
        }
        id
    }
}

/// Marks the clean pair `entry` dirty on a move. A robot's Look snapshot
/// changes only when a robot it *sees* moved or its visible set flips, so
/// dirtying a **seen** pair bumps both endpoints' view versions right
/// here: the move that dirties a pair always tests it, and while the pair
/// stays dirty no further endpoint move can slip through unbumped.
/// **Unseen** pairs stay silent — their endpoints' views can only change
/// if the answer flips, which the recompute detects (and bumps), always
/// before any robot stamps a view version off that state. This is what
/// keeps one move's invalidation at O(deg) bumps: moving a robot nobody
/// sees bumps nobody else.
fn mark_dirty(entry: &mut PairEntry, clean_certified: &mut u64, view_versions: &mut [u64]) {
    entry.dirty = true;
    if entry.certified {
        *clean_certified -= 1;
    }
    if entry.seen {
        view_versions[entry.a as usize] += 1;
        view_versions[entry.b as usize] += 1;
    }
}

/// Queues `j` on a pending row, keeping the queue bounded by the number of
/// distinct partners: past the watermark the queue is sorted and
/// deduplicated (stale entries are cheap to carry — the refresh skips
/// anything no longer dirty — but duplicates must not accumulate without
/// bound on rows that rarely refresh).
fn push_pending(row: &mut PendingRow, j: u32) {
    row.js.push(j);
    if row.js.len() >= row.compact_at.max(PENDING_COMPACT_LEN) {
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

/// Per-thread scratch buffers for [`Sites::compute_pair_answer`] — the
/// read-only twin of the `World`'s own reusable query buffers, owned by the
/// caller so concurrent probes never share storage.
#[derive(Debug, Default)]
struct PairProbe {
    cand: Vec<usize>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    keep: Vec<u32>,
    obs: Vec<Point>,
    /// The row scan's lanes (worlds of at most [`SCAN_MAX_N`] robots).
    row: RowLanes,
}

/// One row of a small world in structure-of-arrays lanes: every site but
/// the row's own, sorted by squared distance `d2` from the row's center.
/// Primed once per (row, configuration version) by [`Sites::prime_row`];
/// a pair's corridor candidates are then a prefix of the lanes.
#[derive(Debug, Default)]
struct RowLanes {
    /// The (row, version) the lanes hold; `None` until first primed.
    key: Option<(usize, u64)>,
    /// Sort scratch: (bits of `d2`, site). Squared distances are never
    /// negative, so their bit patterns sort as the values do.
    order: Vec<(u64, u32)>,
    d2: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    sites: Vec<u32>,
}

/// The configuration a pair recompute reads: the centers, their grid and
/// the configuration version. A [`World`] holds it behind an `Arc` so a
/// fan-out helper can read it without borrowing the world; only a fan-out
/// job clones that `Arc`, and it drops the clone before the row commits,
/// so `move_robot`'s `Arc::make_mut` always finds it unique and never
/// copies.
#[derive(Debug, Clone)]
struct Sites {
    centers: Vec<Point>,
    grid: UniformGrid,
    /// Configuration version: incremented once per applied move.
    version: u64,
}

/// The simulator's ground-truth configuration plus incrementally maintained
/// derived state. See the module docs for the design.
#[derive(Debug)]
pub struct World {
    mode: WorldMode,
    /// How a sparse world lays out its pair slab: by the robot count (a
    /// test may pick the hashed layout at construction).
    layout: SlabLayout,
    sites: Arc<Sites>,
    /// Visibility state ([`WorldMode::Sparse`] only; empty otherwise).
    sparse: SparseVis,
    /// Per-robot certificate anchors ([`WorldMode::Sparse`] only; empty
    /// otherwise). Invariant outside `move_robot`: every robot is within
    /// [`CERT_DRIFT_RADIUS`] of its anchor — a move that would break this
    /// first fails every skip check (dirtying the row as usual) and then
    /// resets the anchor to the new position.
    anchors: Vec<Point>,
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
    /// strip cover (either tier of `pair_verdict`, or the mid-chord
    /// window) instead of the witness kernel, and the clean certified pairs
    /// in-drift moves left clean untested.
    cover_answers: u64,
    cert_skips: u64,
    /// Reusable candidate buffer of the grid-local predicates.
    cand_buf: Vec<usize>,
    /// Reusable scratch of the serial pair recompute.
    probe: PairProbe,
    /// Threads a sparse row refresh of at least `ROW_FANOUT_MIN_PAIRS`
    /// recomputes fans its pair kernels out over (calling thread
    /// included); 1 keeps every refresh serial.
    row_fanout_width: usize,
    /// This world's fan-out job, created on its first fan-out and reused
    /// for every later one.
    job: Option<Arc<FanoutJob>>,
    /// Fan-out telemetry: rows whose job was posted to the helper pool.
    fanout_rows: u64,
    /// Reusable buffers of [`Self::refresh_row`]: the slab ids of the
    /// pairs to recompute, and their answers (aligned with the plan). Both
    /// hold the last refresh's contents until the next one.
    plan: Vec<u32>,
    answers: Vec<PairVerdict>,
}

impl World {
    /// Creates the world for the given centers.
    pub fn new(centers: Vec<Point>, mode: WorldMode) -> Self {
        let layout = if centers.len() <= SCAN_MAX_N {
            SlabLayout::Direct
        } else {
            SlabLayout::Hashed
        };
        Self::with_layout(centers, mode, layout)
    }

    /// [`Self::new`] with the given slab layout.
    fn with_layout(centers: Vec<Point>, mode: WorldMode, layout: SlabLayout) -> Self {
        let n = centers.len();
        let grid = UniformGrid::new(GRID_CELL, &centers);
        let sparse = if mode == WorldMode::Sparse {
            let pending = match layout {
                SlabLayout::Direct => Vec::new(),
                SlabLayout::Hashed => (0..n).map(|_| PendingRow::default()).collect(),
            };
            SparseVis {
                adj: vec![Vec::new(); n],
                pending,
                row_init: vec![false; n],
                ..SparseVis::default()
            }
        } else {
            SparseVis::default()
        };
        let anchors = if mode == WorldMode::Sparse {
            centers.clone()
        } else {
            Vec::new()
        };
        World {
            mode,
            layout,
            sites: Arc::new(Sites {
                centers,
                grid,
                version: 0,
            }),
            sparse,
            anchors,
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
            job: None,
            fanout_rows: 0,
            plan: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.sites.centers.len()
    }

    /// `true` when the world holds no robots.
    pub fn is_empty(&self) -> bool {
        self.sites.centers.is_empty()
    }

    /// The query mode.
    pub fn mode(&self) -> WorldMode {
        self.mode
    }

    /// The ground-truth centers.
    pub fn centers(&self) -> &[Point] {
        &self.sites.centers
    }

    /// Center of robot `i`.
    pub fn center(&self, i: usize) -> Point {
        self.sites.centers[i]
    }

    /// Cache telemetry: `(hits, misses)` of the pairwise visibility cache.
    /// A miss is one pair recompute. A hit is a pair found clean where it
    /// is counted: at a row's first refresh (the row's pairs already
    /// computed through other rows) and on a [`Self::sees`] probe. A
    /// re-Look plans only its row's dirty pairs and counts no hit for the
    /// clean ones it reuses, so hits + misses is not the pairs Looked at.
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

    /// Pair-store telemetry: `(entries, 0)` — the materialized pair
    /// entries, only the pairs actually computed, which is what the scale
    /// gate's linear-memory assertion watches. The second slot counted
    /// corridor registrations, which no world keeps any more; it is always
    /// 0 and stays only because the benchmark harness reads this pair.
    /// Both are 0 in [`WorldMode::Scratch`] (whose store stays empty).
    pub fn pair_store_stats(&self) -> (u64, u64) {
        (self.sparse.entries, 0)
    }

    /// Blocked-certificate telemetry: `(cover_answers, cert_skips)` —
    /// recomputes answered by a strip cover instead of the witness kernel,
    /// and the certified pairs in-drift moves kept clean untested: one
    /// clean certified pair per in-drift move. Both are 0 in
    /// [`WorldMode::Scratch`].
    pub fn cert_stats(&self) -> (u64, u64) {
        (self.cover_answers, self.cert_skips)
    }

    /// Fan-out telemetry: the row refreshes whose pair kernels were posted
    /// to the helper pool. Depends on the host's cores and on other
    /// worlds holding the pool, never on what is computed.
    pub fn fanout_rows(&self) -> u64 {
        self.fanout_rows
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
    /// every pair the move can affect (`Self::scan_slab`) and rehashes
    /// the robot in the grid. Moving a robot to its current position is a
    /// no-op (nothing can have changed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn move_robot(&mut self, i: usize, p: Point) {
        let old = self.sites.centers[i];
        if old == p {
            return;
        }
        match self.mode {
            WorldMode::Sparse => {
                // The mover's own view always changes (its center is part of
                // it). Every *other* affected view is bumped either by the
                // scan (clean seen pairs being dirtied — the robots that can
                // watch this move happen) or by the flip check when a dirty
                // pair is recomputed: moving a robot nobody sees bumps only
                // the mover.
                self.view_versions[i] += 1;
                let in_drift =
                    p.distance_sq(self.anchors[i]) <= CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS;
                self.scan_slab(i, old, p, in_drift);
                // Anchor maintenance, after the scan: a move beyond the
                // drift radius has just tested the certified pairs too
                // (dirtying those the mover can affect), so re-anchoring
                // here cannot strand a certificate issued against the old
                // anchor.
                if !in_drift {
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
        // No fan-out job outlives its row, so nothing shares the
        // configuration here and `make_mut` never copies it.
        let sites = Arc::make_mut(&mut self.sites);
        sites.version += 1;
        sites.grid.move_point(i, old, p);
        sites.centers[i] = p;
    }

    /// Dirties exactly the stored clean pairs that a move of robot `mover`
    /// from `old` to `new` can affect ([`affects`]), with their
    /// view-version bumps ([`mark_dirty`]). While the mover stays within
    /// [`CERT_DRIFT_RADIUS`] of its anchor (`in_drift`), certified pairs
    /// are left clean untested, and each counts one cert skip.
    fn scan_slab(&mut self, mover: usize, old: Point, new: Point, in_drift: bool) {
        if in_drift {
            self.cert_skips += self.sparse.clean_certified;
        }
        match self.layout {
            SlabLayout::Direct => self.scan_direct(mover, old, new, in_drift),
            SlabLayout::Hashed => self.scan_hashed(mover, old, new, in_drift),
        }
    }

    /// [`Self::scan_slab`] on the direct slab: visits every clean pair
    /// row by row.
    ///
    /// A pair is rejected first on its [`SparseVis::reach`] lane: a point
    /// within the pruning radius of the chord is within the chord plus
    /// twice that radius of the two endpoints together, so a pair whose
    /// endpoints' distances from `old` and from `new` both sum past its
    /// reach cannot be affected. The reach is negative for a certified
    /// pair and NaN for a dirty one, so an in-drift move's compare rejects
    /// both, and a beyond-drift move compares against the reach's
    /// magnitude. Only the pairs the reject keeps meet the exact test.
    ///
    /// [`Self::scan_hashed`]'s loop would serve this slab too, but run on
    /// it, perfbench `random_n96` (n = 96) took 19% more wall time (median
    /// of three alternating 20 s pairs, 2 vCPUs, rustc 1.95).
    fn scan_direct(&mut self, mover: usize, old: Point, new: Point, in_drift: bool) {
        let SparseVis {
            slab,
            reach,
            clean_certified,
            dists,
            ..
        } = &mut self.sparse;
        if slab.is_empty() {
            return; // nothing computed yet
        }
        let centers = &self.sites.centers;
        let n = centers.len();
        dists.clear();
        for from in [old, new] {
            dists.extend(centers.iter().map(|&c| c.distance(from) as f32));
        }
        let (d_old, d_new) = dists.split_at(n);
        let view_versions = &mut self.view_versions;
        let mut row_start = 0;
        for a in 0..n - 1 {
            let (oa, na) = (d_old[a], d_new[a]);
            let row_len = n - 1 - a;
            // The reject fills one mask per 64 pairs of the row, without a
            // branch; the exact test then visits the mask's set bits.
            for chunk in (0..row_len).step_by(64) {
                let lanes = reach[row_start + chunk..row_start + row_len.min(chunk + 64)]
                    .iter()
                    .zip(&d_old[a + 1 + chunk..])
                    .zip(&d_new[a + 1 + chunk..]);
                let mut mask = 0u64;
                for (k, ((&r, &ob), &nb)) in lanes.enumerate() {
                    let r = if in_drift { r } else { r.abs() };
                    mask |= u64::from((oa + ob <= r) | (na + nb <= r)) << k;
                }
                while mask != 0 {
                    let k = chunk + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if affects(centers, a, a + 1 + k, mover, old, new) {
                        let id = row_start + k;
                        mark_dirty(&mut slab[id], clean_certified, view_versions);
                        reach[id] = f32::NAN;
                    }
                }
            }
            row_start += row_len;
        }
    }

    /// [`Self::scan_slab`] on the hashed slab: an in-drift move tests only
    /// the list of clean uncertified pairs and drops from it what it
    /// dirties; a beyond-drift move tests every stored clean pair and
    /// rebuilds the list. Each dirtied pair is queued on both endpoints'
    /// pending rows. There is no reach reject: the exact test reads only
    /// the pair's two endpoints, which is less than the distances a reject
    /// would compute.
    fn scan_hashed(&mut self, mover: usize, old: Point, new: Point, in_drift: bool) {
        let SparseVis {
            slab,
            uncertified,
            clean_certified,
            pending,
            ..
        } = &mut self.sparse;
        let centers = &self.sites.centers;
        let view_versions = &mut self.view_versions;
        let stored = slab.len() as u32;
        // Tests the pair `id` if it is clean, dirtying it when the move
        // affects it; `true` when it is left clean and uncertified.
        let mut keep = |id: u32| {
            let entry = &mut slab[id as usize];
            let (a, b) = (entry.a as usize, entry.b as usize);
            if entry.dirty {
                return false;
            }
            if !affects(centers, a, b, mover, old, new) {
                return !entry.certified;
            }
            mark_dirty(entry, clean_certified, view_versions);
            push_pending(&mut pending[a], b as u32);
            push_pending(&mut pending[b], a as u32);
            false
        };
        if in_drift {
            uncertified.retain(|&id| keep(id));
        } else {
            uncertified.clear();
            uncertified.extend((0..stored).filter(|&id| keep(id)));
        }
    }

    /// Whether robots `i` and `j` see each other, answered from the cache
    /// when the entry is clean and recomputed (through the pruned pair
    /// kernel, as a pair of row `i`) otherwise. In a world of at most
    /// `SCAN_MAX_N` robots, probes of one row at one configuration
    /// version share that row's primed lanes.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    pub fn sees(&mut self, i: usize, j: usize) -> bool {
        assert!(i != j, "a robot trivially sees itself");
        if self.mode == WorldMode::Scratch {
            return disc_sees_disc(i, j, &self.sites.centers);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        assert!(b < self.len(), "robot index out of bounds");
        let id = self.intern(a, b);
        let entry = self.sparse.slab[id as usize];
        if !entry.dirty {
            self.hits += 1;
            return entry.seen;
        }
        self.misses += 1;
        let verdict = self.sites.compute_pair_answer(i, j, &mut self.probe);
        self.commit_pair(id, verdict);
        verdict == PairVerdict::Seen
    }

    /// The slab id of the pair `{a, b}` (`a < b`) in this world's slab
    /// layout, materializing the pair if it never was.
    fn intern(&mut self, a: usize, b: usize) -> u32 {
        match self.layout {
            SlabLayout::Direct => self.sparse.intern_direct(a, b, self.len()),
            SlabLayout::Hashed => self.sparse.intern(a, b),
        }
    }
}

impl Sites {
    /// Replaces `out` with the sites other than `a` and `b` in the cells of
    /// the conservative cover of the capsule of `radius` around `p`–`q` — a
    /// superset of the sites within `radius` of the segment.
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
        grid.for_each_cell_near_segment(p, q, radius, |cell| {
            if let Some(sites) = grid.sites_in(cell) {
                out.extend(sites.iter().copied().filter(|&k| k != a && k != b));
            }
            true
        });
    }

    /// The mid-chord window step of [`Self::compute_pair_answer`] (grid
    /// path only): for a chord of span at least
    /// [`STRIP_COVER_MIN_SPAN`] whose midpoint lies in an occupied
    /// base cell, `true` when the slack strip cover fires on the sites
    /// within [`CERT_WINDOW_RADIUS`] of the chord's middle stretch of
    /// half-length [`CERT_WINDOW_HALF_LEN`]. The occupancy gate keeps the
    /// try to chords through dense regions, where it almost always fires;
    /// elsewhere it would cost more than it saves.
    fn window_certifies(&self, a: usize, b: usize, probe: &mut PairProbe) -> bool {
        let (ca, cb) = (self.centers[a], self.centers[b]);
        let span = ca.distance(cb);
        let mid = ca.midpoint(cb);
        if span < STRIP_COVER_MIN_SPAN || self.grid.sites_in(self.grid.cell_of(mid)).is_none() {
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

    /// Primes `lanes` with row `row` of the current configuration: every
    /// other site with its squared distance from `c_row`, sorted by that
    /// distance (ties by site index). A no-op when the lanes already hold
    /// this row at this version, so every pair of a row refresh — and every
    /// [`World::sees`] probe of one row, as `is_gathered`'s fallback makes
    /// them — shares one O(n log n) sort.
    fn prime_row(&self, row: usize, lanes: &mut RowLanes) {
        if lanes.key == Some((row, self.version)) {
            return;
        }
        let c = self.centers[row];
        lanes.order.clear();
        lanes.order.extend(
            self.centers
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != row)
                .map(|(k, q)| {
                    let (dx, dy) = (q.x - c.x, q.y - c.y);
                    ((dx * dx + dy * dy).to_bits(), k as u32)
                }),
        );
        lanes.order.sort_unstable();
        let RowLanes {
            d2,
            xs,
            ys,
            sites,
            order,
            ..
        } = lanes;
        d2.clear();
        xs.clear();
        ys.clear();
        sites.clear();
        for &(bits, k) in order.iter() {
            let q = self.centers[k as usize];
            d2.push(f64::from_bits(bits));
            xs.push(q.x);
            ys.push(q.y);
            sites.push(k);
        }
        lanes.key = Some((row, self.version));
    }

    /// Row-scan source of the corridor slice ([`SCAN_MAX_N`]): fills
    /// `probe.obs` with the sites other than `row` and `partner` that the
    /// SoA corridor filter keeps, scanning only the prefix of row `row`'s
    /// primed lanes within `|c_row c_partner| + VISIBILITY_PRUNE_RADIUS`
    /// of `c_row` (inflated by [`ROW_PREFIX_SLACK`]). Every site the filter
    /// can accept lies in that prefix, so the kept set is exactly the grid
    /// gather's ([`Self::gather_corridor`]).
    fn scan_corridor(&self, row: usize, partner: usize, probe: &mut PairProbe) {
        self.prime_row(row, &mut probe.row);
        let (a, b) = (row.min(partner), row.max(partner));
        let (ca, cb) = (self.centers[a], self.centers[b]);
        let reach = ca.distance(cb) + VISIBILITY_PRUNE_RADIUS;
        let bound = reach * reach * ROW_PREFIX_SLACK;
        let lanes = &probe.row;
        let end = lanes.d2.partition_point(|&d| d <= bound);
        probe.keep.clear();
        corridor_filter_soa(
            ca,
            cb,
            VISIBILITY_PRUNE_RADIUS,
            &lanes.xs[..end],
            &lanes.ys[..end],
            &mut probe.keep,
        );
        probe.obs.clear();
        probe.obs.extend(
            probe
                .keep
                .iter()
                .map(|&l| l as usize)
                .filter(|&l| lanes.sites[l] as usize != partner)
                .map(|l| Point::new(lanes.xs[l], lanes.ys[l])),
        );
    }

    /// Grid source of the corridor slice: fills `probe.obs` with the sites
    /// other than `a` and `b` in the grid cells covering the pair's
    /// corridor that the SoA corridor filter keeps.
    fn gather_corridor(&self, a: usize, b: usize, probe: &mut PairProbe) {
        let (ca, cb) = (self.centers[a], self.centers[b]);
        self.gather_sites_near(a, b, ca, cb, VISIBILITY_PRUNE_RADIUS, &mut probe.cand);
        probe.sx.clear();
        probe.sy.clear();
        for &k in &probe.cand {
            let q = self.centers[k];
            probe.sx.push(q.x);
            probe.sy.push(q.y);
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
    }

    /// Computes the verdict of the pair `{row, partner}` **without
    /// mutating anything**, on caller-owned scratch (serial recomputes call
    /// this on the world's own probe, fan-out threads on their own), for a
    /// Look of robot `row`. The one branch is where the corridor slice
    /// comes from:
    ///
    /// * **Row scan** (`n ≤` [`SCAN_MAX_N`], `scan_corridor`): the
    ///   distance-sorted prefix of row `row`'s lanes, primed on first use
    ///   at this version.
    /// * **Grid gather** (larger worlds, `gather_corridor`): the grid cells
    ///   covering the corridor. A long chord through a dense region first
    ///   tries the **mid-chord window** (`window_certifies`): the slack
    ///   strip cover on the few obstacles near its middle. A fire answers
    ///   [`PairVerdict::Certified`] without gathering the corridor. This is
    ///   sound because the slack cover proves every sight segment of the
    ///   candidate square blocked under ρ-drift of every robot, and that
    ///   proof holds for any obstacle superset (new obstacles only block
    ///   more), so the full kernel must answer `false` too. The covering
    ///   obstacles sit within `UNIT_RADIUS + hw` of the chord, inside the
    ///   pair's corridor, so the `CERT_DRIFT_RADIUS` skip argument is
    ///   unchanged.
    ///
    /// Both sources keep the same obstacle set, and [`pair_verdict`]'s
    /// cascade depends on the set, not its order. The seen bit is always
    /// the witness kernel's answer. A window fire can differ from the full
    /// slice's verdict only when the full slice's cover overflows its
    /// polygon budget where the window's did not.
    ///
    /// Safe to call from any thread on a shared configuration: it reads
    /// only the centers, the grid and the configuration version, which no
    /// commit writes, so where it runs cannot change the answer
    /// [`World::commit_pair`] later stores.
    ///
    /// # Panics
    /// Panics if `row == partner` or either index is out of bounds.
    fn compute_pair_answer(
        &self,
        row: usize,
        partner: usize,
        probe: &mut PairProbe,
    ) -> PairVerdict {
        let (a, b) = (row.min(partner), row.max(partner));
        assert!(a < b && b < self.centers.len(), "invalid pair");
        if self.centers.len() <= SCAN_MAX_N {
            self.scan_corridor(row, partner, probe);
        } else if self.window_certifies(a, b, probe) {
            return PairVerdict::Certified;
        } else {
            self.gather_corridor(a, b, probe);
        }
        pair_verdict(self.centers[a], self.centers[b], &probe.obs)
    }
}

impl World {
    /// Commits one computed verdict to the pair in slab slot `id`: clears
    /// its dirty flag, stores the seen and certified bits, bumps both views
    /// and updates both adjacency lists on a flip, and counts a cover
    /// answer. Then it stores the pair's reach lane on the direct slab, or
    /// pushes an uncertified pair onto the list of clean uncertified pairs
    /// on the hashed one. `verdict` is what [`Sites::compute_pair_answer`]
    /// returned for the pair on the current centers. Touches no hash map.
    fn commit_pair(&mut self, id: u32, verdict: PairVerdict) {
        let seen = verdict == PairVerdict::Seen;
        let certified = verdict == PairVerdict::Certified;
        let entry = &mut self.sparse.slab[id as usize];
        entry.dirty = false;
        entry.certified = certified;
        let flipped = entry.seen != seen;
        entry.seen = seen;
        let (a, b) = (entry.a as usize, entry.b as usize);
        if matches!(verdict, PairVerdict::CoverBlocked | PairVerdict::Certified) {
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
            if seen {
                adj_insert(&mut adj[a], b as u32);
                adj_insert(&mut adj[b], a as u32);
            } else {
                adj_remove(&mut adj[a], b as u32);
                adj_remove(&mut adj[b], a as u32);
            }
        }
        self.sparse.clean_certified += u64::from(certified);
        match self.layout {
            SlabLayout::Direct => {
                let chord = self.sites.centers[a].distance(self.sites.centers[b]);
                self.sparse.reach[id as usize] = reach_lane(chord, certified);
            }
            SlabLayout::Hashed if !certified => self.sparse.uncertified.push(id),
            SlabLayout::Hashed => {}
        }
    }

    /// Brings every pair of row `i` up to date, so that `adj[i]` *is* the
    /// visible set. Three steps:
    ///
    /// 1. **Plan**, with one pair-store probe per candidate. A row's first
    ///    refresh plans every pair of the row not already clean (the
    ///    unavoidable O(n), paid lazily per row; a pair never computed is
    ///    materialized dirty). Afterwards, in a world of at most
    ///    `SCAN_MAX_N` robots, it reads the row's slab slots by direct
    ///    index and plans the dirty ones; in a larger world it plans only
    ///    the pairs the moves queued. The queue may hold duplicates
    ///    and stale entries (pairs already recomputed through the
    ///    partner's row or a direct [`Self::sees`] probe): it is sorted and
    ///    deduplicated, and the dirty check drops the stale ones. Either
    ///    way the plan holds exactly the row's dirty pairs, in partner
    ///    order. The hit/miss telemetry is counted from the plan.
    /// 2. **Compute** one answer per planned pair, read-only
    ///    ([`Self::compute_answers`]; fanned out to the helper pool for
    ///    a plan of at least `ROW_FANOUT_MIN_PAIRS` pairs).
    /// 3. **Commit** the answers in plan order ([`Self::commit_pair`]).
    ///
    /// Planned pairs are distinct and no commit dirties a pair, so
    /// committing after computing everything lands in exactly the state of
    /// recomputing pair by pair; the fan-out changes no answer, no
    /// bookkeeping and no counter.
    fn refresh_row(&mut self, i: usize) {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        let n = self.sites.centers.len();
        if !self.sparse.row_init[i] {
            for j in (0..n).filter(|&j| j != i) {
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                let id = self.intern(a, b);
                if self.sparse.slab[id as usize].dirty {
                    plan.push(id);
                }
            }
            self.sparse.row_init[i] = true;
            self.hits += (n - 1 - plan.len()) as u64;
            // Whatever the moves queued before is now clean (no pending
            // rows on the direct slab).
            if let Some(pending) = self.sparse.pending.get_mut(i) {
                pending.js.clear();
                pending.compact_at = 0;
            }
        } else if self.layout == SlabLayout::Direct {
            let slab = &self.sparse.slab;
            plan.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| direct_id(i.min(j), i.max(j), n))
                    .filter(|&id| slab[id as usize].dirty),
            );
        } else {
            let sparse = &mut self.sparse;
            let mut js = std::mem::take(&mut sparse.pending[i].js);
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
            js.clear();
            sparse.pending[i] = PendingRow { js, compact_at: 0 };
        }
        self.misses += plan.len() as u64;
        let mut probe = std::mem::take(&mut self.probe);
        let mut answers = std::mem::take(&mut self.answers);
        self.compute_answers(i, &plan, &mut probe, &mut answers);
        for (&id, &answer) in plan.iter().zip(&answers) {
            self.commit_pair(id, answer);
        }
        self.probe = probe;
        self.plan = plan;
        self.answers = answers;
    }

    /// Replaces `out` with one verdict per pair of `plan` (slab ids of pairs
    /// of row `row`), in plan order. A plan shorter than
    /// `ROW_FANOUT_MIN_PAIRS`, or a fan-out width of 1, runs serially on
    /// `probe`. Otherwise the plan becomes this world's [`FanoutJob`]: the
    /// calling thread and as many helpers as free cores allow claim chunks
    /// of it until none is left ([`fan_out`]), each
    /// answering on its own probe. Each answer is
    /// [`Sites::compute_pair_answer`] on the same configuration — read-only
    /// and thread-independent — so `out` is identical for every width.
    fn compute_answers(
        &mut self,
        row: usize,
        plan: &[u32],
        probe: &mut PairProbe,
        out: &mut Vec<PairVerdict>,
    ) {
        let slab = &self.sparse.slab;
        let partner = |id: u32| {
            let entry = &slab[id as usize];
            if entry.a as usize == row {
                entry.b
            } else {
                entry.a
            }
        };
        out.clear();
        if self.row_fanout_width <= 1 || plan.len() < ROW_FANOUT_MIN_PAIRS {
            out.extend(plan.iter().map(|&id| {
                self.sites
                    .compute_pair_answer(row, partner(id) as usize, probe)
            }));
            return;
        }
        let shared = self.job.get_or_insert_with(Arc::default);
        let job = Arc::get_mut(shared).expect("a settled job has no helper");
        job.sites = Some(Arc::clone(&self.sites));
        job.row = row;
        job.partners.clear();
        job.partners.extend(plan.iter().map(|&id| partner(id)));
        job.answers.resize_with(plan.len(), AtomicU8::default);
        let seats = fanout_seats(self.row_fanout_width, crate::sweep::runs_in_flight());
        job.chunk = plan
            .len()
            .div_ceil((seats + 1) * FANOUT_CHUNKS_PER_THREAD)
            .min(FANOUT_CHUNK_MAX);
        *job.next.get_mut() = 0;
        let (job, posted) = fan_out(shared, probe, seats);
        self.fanout_rows += u64::from(posted);
        out.extend(
            job.answers
                .iter_mut()
                .map(|a| VERDICTS[*a.get_mut() as usize]),
        );
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
    /// to the helper pool (`Self::refresh_row`); that only moves
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
            out.extend(visible_set(i, &self.sites.centers));
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
        let stale =
            self.mode == WorldMode::Scratch || self.hull_version != Some(self.sites.version);
        if stale {
            self.hull
                .rebuild_with(&self.sites.centers, &mut self.hull_scratch);
            if self.mode != WorldMode::Scratch {
                self.hull_rebuilds += 1;
            }
            self.hull_all_on = self.len() <= 2 || self.hull.all_on_hull();
            self.hull_version = Some(self.sites.version);
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
            return config::is_valid(&self.sites.centers);
        }
        if let Some((v, ok)) = self.valid_cache {
            if v == self.sites.version {
                return ok;
            }
        }
        let mut cand = std::mem::take(&mut self.cand_buf);
        let mut ok = true;
        'outer: for i in 0..self.len() {
            self.sites.grid.candidates_near_point(
                self.sites.centers[i],
                2.0 * UNIT_RADIUS,
                &mut cand,
            );
            for &j in cand.iter().filter(|&&j| j > i) {
                // The same float expression as the reference (`gap >=
                // -TOUCH_TOL` in `config::is_valid`): the
                // algebraically equal `d < 2R - TOUCH_TOL` rounds
                // differently at the boundary.
                let gap = self.sites.centers[i].distance(self.sites.centers[j]) - 2.0 * UNIT_RADIUS;
                if gap < -TOUCH_TOL {
                    ok = false;
                    break 'outer;
                }
            }
        }
        self.cand_buf = cand;
        self.valid_cache = Some((self.sites.version, ok));
        ok
    }

    /// `true` when the union of the discs is connected (cached; the
    /// tangency graph is built from grid neighbourhoods instead of all
    /// pairs).
    pub fn is_connected(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return config::is_connected(&self.sites.centers);
        }
        if let Some((v, ok)) = self.connected_cache {
            if v == self.sites.version {
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
            self.sites.grid.candidates_near_point(
                self.sites.centers[i],
                2.0 * UNIT_RADIUS + TOUCH_TOL,
                &mut cand,
            );
            for &j in cand.iter().filter(|&&j| j > i) {
                let gap = self.sites.centers[i].distance(self.sites.centers[j]) - 2.0 * UNIT_RADIUS;
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
        self.connected_cache = Some((self.sites.version, ok));
        ok
    }

    /// The gathering predicate (Definition 1): connected and fully visible.
    /// Exactly [`config::is_gathered`], with the pairwise full-visibility
    /// fallback answered from the pair cache.
    pub fn is_gathered(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return config::is_gathered(&self.sites.centers);
        }
        if !self.is_connected() {
            return false;
        }
        if self.all_on_hull() && no_three_collinear(&self.sites.centers, COLLINEARITY_TOL) {
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
            return SamplePredicates::from_centers(&self.sites.centers);
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
        self.sites.grid.candidates_near_segment(
            start,
            end,
            2.0 * UNIT_RADIUS + CONTACT_QUERY_MARGIN,
            out,
        );
        out.retain(|&j| j != i);
    }
}

/// The verdicts in the order a [`FanoutJob`] stores them (`verdict as u8`).
const VERDICTS: [PairVerdict; 4] = [
    PairVerdict::Seen,
    PairVerdict::Blocked,
    PairVerdict::CoverBlocked,
    PairVerdict::Certified,
];

// Every stored verdict decodes to itself.
const _: () = {
    let mut k = 0;
    while k < VERDICTS.len() {
        assert!(VERDICTS[k] as usize == k);
        k += 1;
    }
};

/// One fanned-out row: the configuration, the Looking row, the partner of
/// every planned pair and one answer slot per pair. A world keeps its job
/// and reuses the buffers from row to row. Helpers reach the job through
/// an `Arc` clone that they drop once no chunk is left, before the
/// caller reads the answers.
#[derive(Debug, Default)]
struct FanoutJob {
    /// The configuration the answers are computed on; `None` between rows,
    /// so the world's own handle stays unique.
    sites: Option<Arc<Sites>>,
    row: usize,
    partners: Vec<u32>,
    /// `answers[k]` is the verdict of the pair with `partners[k]`, as
    /// `verdict as u8` (an index into [`VERDICTS`]).
    answers: Vec<AtomicU8>,
    /// Plan entries per claim.
    chunk: usize,
    /// The first unclaimed plan index.
    next: AtomicUsize,
    /// The first panic a helper caught while answering this job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The partner whose pair kernel panics (test hook).
    #[cfg(test)]
    panic_on: Option<u32>,
}

impl FanoutJob {
    /// Claims chunks of the plan until none is left, answering them on
    /// `probe`.
    ///
    /// Both orderings are `Relaxed`: a claim publishes nothing, and the
    /// answers reach the caller through the `Arc` — a helper's drop of its
    /// clone (a release) before the caller's `Arc::get_mut` (an acquire)
    /// in [`settle`].
    fn work(&self, probe: &mut PairProbe) {
        let sites = self.sites.as_deref().expect("a posted job has sites");
        let len = self.partners.len();
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= len {
                return;
            }
            for k in start..(start + self.chunk).min(len) {
                let partner = self.partners[k];
                #[cfg(test)]
                assert!(self.panic_on != Some(partner), "injected pair-kernel panic");
                let verdict = sites.compute_pair_answer(self.row, partner as usize, probe);
                self.answers[k].store(verdict as u8, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide fan-out pool: one job slot, served by helper threads
/// that start on the first fan-out ([`helpers`]). One row at a time is
/// posted; a world that finds the slot taken answers its row alone.
struct Pool {
    /// The posted job. Every update is one assignment, so the guard of a
    /// poisoned lock still holds a valid slot and is used as is.
    slot: Mutex<Option<Arc<FanoutJob>>>,
    /// The post board: the number of posts so far in the high 32 bits and
    /// the open seats of the latest post in the low 32. Written under the
    /// slot lock by a post (and zeroed seats by a take-back); an idle
    /// helper reads it without the lock and takes a seat by decrementing
    /// the exact word it read, so at most the posted number of helpers
    /// look into the slot for a job, each for the post whose seat it took.
    /// The lock publishes the job itself.
    board: AtomicU64,
}

static POOL: Pool = Pool {
    slot: Mutex::new(None),
    board: AtomicU64::new(0),
};

/// The helper seats a fanned-out row gets at fan-out width `width` while
/// `runs` sweep runs are in progress: one per core that neither the runs
/// nor the caller (a run itself, or the only one) hold. [`post`] caps them
/// at the helpers.
fn fanout_seats(width: usize, runs: usize) -> usize {
    width.saturating_sub(runs.max(1))
}

/// One more post on `board`, with `seats` open seats.
fn next_post(board: u64, seats: usize) -> u64 {
    ((board >> 32) + 1) << 32 | seats as u64
}

/// The pool's helper threads, started on first use:
/// `host_parallelism() − 1` of them, and one on a single-core host (where
/// only a world whose width a test forced to 2 fans out). They live as
/// long as the process and catch every panic of a job, so none is joined.
fn helpers() -> &'static [Thread] {
    static HELPERS: OnceLock<Vec<Thread>> = OnceLock::new();
    HELPERS.get_or_init(|| {
        (1..host_parallelism().max(2))
            .map(|k| {
                std::thread::Builder::new()
                    .name(format!("row-fanout-{k}"))
                    .spawn(helper_loop)
                    .expect("spawning a fan-out helper")
                    .thread()
                    .clone()
            })
            .collect()
    })
}

/// A helper's life: wait for a posted job, work it, drop it. A panic in a
/// pair kernel is caught and stored on the job for the caller to re-raise;
/// the helper then serves the next job on fresh scratch.
fn helper_loop() {
    let mut probe = PairProbe::default();
    let mut seen = 0;
    loop {
        let job = next_job(&mut seen);
        // Lanes are keyed by (row, version), which another world, or a
        // later run, can repeat: every job primes afresh.
        probe.row.key = None;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.work(&mut probe))) {
            let mut panic = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
            panic.get_or_insert(payload);
            probe = PairProbe::default();
        }
    }
}

/// The next posted job with unclaimed chunks for which this helper took a
/// seat. Spins for [`HELPER_SPIN`] after the last post it saw, then parks
/// until a post unparks it.
fn next_job(seen: &mut u64) -> Arc<FanoutJob> {
    let mut idle_since = Instant::now();
    loop {
        let board = POOL.board.load(Ordering::Acquire);
        let post = board >> 32;
        if post == *seen {
            if idle_since.elapsed() < HELPER_SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::park();
                idle_since = Instant::now();
            }
            continue;
        }
        let seated = board as u32 > 0
            && POOL
                .board
                .compare_exchange_weak(board, board - 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if board as u32 > 0 && !seated {
            // Another helper took a seat first; read the board again.
            continue;
        }
        *seen = post;
        idle_since = Instant::now();
        if seated {
            let slot = POOL.slot.lock().unwrap_or_else(PoisonError::into_inner);
            let current = POOL.board.load(Ordering::Relaxed) >> 32 == post;
            let open = slot
                .as_ref()
                .filter(|job| current && job.next.load(Ordering::Relaxed) < job.partners.len());
            if let Some(job) = open {
                return Arc::clone(job);
            }
        }
    }
}

/// Answers every chunk of `shared` on the calling thread and, when the slot
/// is free, on up to `seats` helpers too, then returns the settled job and
/// whether it was posted. The caller claims chunks itself from the start
/// and takes the job back out of the slot once none is left, so it never
/// waits for a parked helper — only for a helper that cloned the job to
/// finish its current chunk. A panic on either side is re-raised here,
/// after every helper has let go.
fn fan_out<'a>(
    shared: &'a mut Arc<FanoutJob>,
    probe: &mut PairProbe,
    seats: usize,
) -> (&'a mut FanoutJob, bool) {
    let posted = post(shared, seats);
    let caller = catch_unwind(AssertUnwindSafe(|| shared.work(probe)));
    if posted {
        take_back();
    }
    (settle(shared, caller), posted)
}

/// Puts `job` into the pool's slot with `seats` open seats (at most one per
/// helper) and wakes that many helpers; `false` when `seats` is 0 or the
/// slot holds another world's row.
fn post(job: &Arc<FanoutJob>, seats: usize) -> bool {
    if seats == 0 {
        return false;
    }
    let helpers = helpers();
    let seats = seats.min(helpers.len());
    {
        let mut slot = POOL.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_some() {
            return false;
        }
        *slot = Some(Arc::clone(job));
        let board = POOL.board.load(Ordering::Relaxed);
        POOL.board.store(next_post(board, seats), Ordering::Release);
    }
    for helper in &helpers[..seats] {
        helper.unpark();
    }
    true
}

/// Empties the pool's slot and closes its open seats, so no helper clones
/// the posted job any more.
fn take_back() {
    let mut slot = POOL.slot.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
    POOL.board
        .fetch_and(!u64::from(u32::MAX), Ordering::Relaxed);
}

/// Waits until every helper has dropped `shared` (the job is out of the
/// slot, so no new clone appears), releases the job's configuration, and
/// re-raises the caller's or a helper's panic.
fn settle(shared: &mut Arc<FanoutJob>, caller: std::thread::Result<()>) -> &mut FanoutJob {
    let mut spins = 0u32;
    while Arc::strong_count(shared) > 1 {
        if spins < 1 << 10 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    let job = Arc::get_mut(shared).expect("every helper has dropped the job");
    job.sites = None;
    let helper = job
        .panic
        .get_mut()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = caller.err().or(helper) {
        resume_unwind(payload);
    }
    job
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

    /// A sparse world with the given slab layout, whatever its size.
    fn world_on(centers: Vec<Point>, layout: SlabLayout) -> World {
        World::with_layout(centers, WorldMode::Sparse, layout)
    }

    /// Both slab layouts.
    const LAYOUTS: [SlabLayout; 2] = [SlabLayout::Direct, SlabLayout::Hashed];

    /// A sparse world over `centers` with each slab layout.
    fn sparse_worlds(centers: Vec<Point>) -> [World; 2] {
        LAYOUTS.map(|layout| world_on(centers.clone(), layout))
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
        for mut w in sparse_worlds(vec![
            p(0.0, 0.0),
            p(3.0, 0.5),
            p(6.0, -0.5),
            p(2.0, 4.0),
            p(5.0, 3.0),
        ]) {
            assert_matches_scratch(&mut w);
        }
    }

    #[test]
    fn moves_invalidate_exactly_what_they_must() {
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]) {
            assert_matches_scratch(&mut w);
            // Slide the middle robot off the 0–2 corridor: 0 and 2 regain
            // sight.
            w.move_robot(1, p(10.0, 5.0));
            assert_matches_scratch(&mut w);
            assert!(w.sees(0, 2));
            // And back on: they lose it again.
            w.move_robot(1, p(10.0, 0.0));
            assert_matches_scratch(&mut w);
            assert!(!w.sees(0, 2));
        }
    }

    #[test]
    fn unrelated_pairs_hit_the_cache_after_a_move() {
        for mut w in sparse_worlds(vec![
            p(0.0, 0.0),
            p(6.0, 0.0),
            p(100.0, 100.0),
            p(106.0, 100.0),
        ]) {
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
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(30.0, 0.0)]) {
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
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]) {
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
    }

    #[test]
    fn unchanged_view_version_guarantees_identical_visible_set() {
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]) {
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
    }

    #[test]
    fn hull_refresh_rebuilds_once_per_stale_query() {
        for w in sparse_worlds(vec![
            p(0.0, 0.0),
            p(20.0, 0.0),
            p(20.0, 20.0),
            p(0.0, 20.0),
            p(10.0, 10.0),
        ]) {
            hull_refresh_rebuilds_once_per_stale_query_on(w);
        }
    }

    fn hull_refresh_rebuilds_once_per_stale_query_on(mut w: World) {
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
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(5.0, 0.0)]) {
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
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 50.0)]) {
            assert!(w.sees(0, 1));
            w.move_robot(2, p(5.0, 0.0));
            assert!(!w.sees(0, 1), "the newcomer must block the sight line");
            assert_matches_scratch(&mut w);
            // And jumping away again restores it.
            w.move_robot(2, p(5.0, 50.0));
            assert!(w.sees(0, 1));
            assert_matches_scratch(&mut w);
        }
    }

    #[test]
    fn sparse_world_matches_scratch_through_moves() {
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]) {
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
    }

    #[test]
    fn sparse_pair_store_only_materializes_queried_rows() {
        let n = 40;
        let centers: Vec<Point> = (0..n)
            .map(|i| p((i % 8) as f64 * 5.0, (i / 8) as f64 * 5.0))
            .collect();
        for mut w in sparse_worlds(centers) {
            let _ = w.visible_of(0);
            let (entries, _) = w.pair_store_stats();
            assert_eq!(
                entries,
                (n - 1) as u64,
                "one row refresh must materialize exactly its own pairs ({:?})",
                w.layout
            );
        }
    }

    #[test]
    fn sparse_long_chords_still_invalidate() {
        // The 0–1 chord spans 50 grid cells; a robot jumping into the
        // middle of its corridor from far away must still dirty it,
        // through the direct slab's reach reject and the hashed slab's
        // list.
        for mut w in sparse_worlds(vec![p(0.0, 0.0), p(200.0, 0.0), p(100.0, 50.0)]) {
            assert!(w.sees(0, 1));
            w.move_robot(2, p(100.0, 0.0));
            assert!(!w.sees(0, 1), "the newcomer must block the long sight line");
            assert_matches_scratch(&mut w);
            w.move_robot(2, p(100.0, 50.0));
            assert!(w.sees(0, 1));
            assert_matches_scratch(&mut w);
        }
    }

    #[test]
    fn pending_queues_stay_bounded() {
        let mut w = world_on(
            vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 3.0)],
            SlabLayout::Hashed,
        );
        for k in 0..500 {
            let y = if k % 2 == 0 { 0.0 } else { 3.0 };
            w.move_robot(2, p(20.0, y));
            let _ = w.visible_of(0);
        }
        let worst = w.sparse.pending.iter().map(|q| q.js.len()).max().unwrap();
        assert!(
            worst <= 2 * PENDING_COMPACT_LEN.max(w.len()),
            "pending queues must stay bounded (worst {worst})"
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

    /// What a fan-out scenario observes: the state after every Look, every
    /// `sees` answer, and whether each Look's refresh fanned out.
    struct FanoutTrace {
        looks: Vec<LookState>,
        sees: Vec<bool>,
        fanned: Vec<bool>,
    }

    /// Drives a world over `centers` at a forced fan-out width, so the
    /// fan-out runs on any host (on one core the helper time-slices with
    /// the caller). Four rounds: first Looks, then re-Looks after a move
    /// within the drift radius, a jump beyond it and the jump back. Each
    /// round first probes a spread of each looker's pairs with `sees`
    /// (priming the caller's lanes at this version, which its Look then
    /// shares), then Looks with three robots.
    fn fanout_scenario(centers: &[Point], width: usize) -> FanoutTrace {
        let n = centers.len();
        let mut w = world(centers.to_vec(), WorldMode::Sparse);
        w.row_fanout_width = width;
        let lookers = [0, n / 2, n - 1];
        let mut trace = FanoutTrace {
            looks: Vec::new(),
            sees: Vec::new(),
            fanned: Vec::new(),
        };
        let mut round = |w: &mut World| {
            for &i in &lookers {
                for j in (1..n).step_by(7).filter(|&j| j != i) {
                    trace.sees.push(w.sees(i, j));
                }
            }
            for &i in &lookers {
                let fanned = look_and_record(w, i, &mut trace.looks);
                trace.fanned.push(fanned);
            }
        };
        round(&mut w);
        let mid = w.center(n / 2);
        w.move_robot(n / 2, p(mid.x + 0.01, mid.y));
        round(&mut w);
        let corner = w.center(0);
        w.move_robot(0, p(corner.x - 3.0, corner.y - 3.0));
        round(&mut w);
        w.move_robot(0, corner);
        round(&mut w);
        trace
    }

    /// Asserts that `got` observed exactly what the serial `want` did.
    fn assert_same_answers(name: &str, want: &FanoutTrace, got: &FanoutTrace) {
        for (k, (want, got)) in want.looks.iter().zip(&got.looks).enumerate() {
            assert_eq!(want, got, "{name}: Look {k} diverged from width 1");
        }
        assert_eq!(want.looks.len(), got.looks.len(), "{name}: Look count");
        assert_eq!(want.sees, got.sees, "{name}: a `sees` probe diverged");
    }

    /// The fan-out scenes: both corridor sources. The n = 600 hex packing
    /// takes the grid gather; a random spread at E1's n = 96 and a hex
    /// packing at `SCAN_MAX_N` take the row scan.
    fn fanout_scenes() -> [(&'static str, Vec<Point>); 3] {
        [
            ("hex600", crate::init::hex(600, 2.1)),
            ("random96", crate::init::Shape::Random.generate(96, 3)),
            ("hex128", crate::init::hex(SCAN_MAX_N, 2.1)),
        ]
    }

    #[test]
    fn row_fanout_matches_the_serial_refresh() {
        for (name, centers) in fanout_scenes() {
            let serial = fanout_scenario(&centers, 1);
            let fanout = fanout_scenario(&centers, 2);
            assert_same_answers(name, &serial, &fanout);
            assert!(
                serial.fanned.iter().all(|&f| !f),
                "{name}: width 1 never fans out"
            );
            assert!(
                fanout.fanned[..3].iter().all(|&f| f),
                "{name}: first rows fan out"
            );
            assert!(
                fanout.fanned[3..].iter().any(|&f| f),
                "{name}: some re-Look fans out"
            );
        }
        // Two row-scan worlds of one size take turns with the first Look
        // of row 0, so every job repeats the previous job's (row, version)
        // key on the other configuration: a helper that kept its lanes
        // from one job to the next would answer from the wrong world.
        let pair = [
            crate::init::Shape::Random.generate(96, 3),
            crate::init::hex(96, 2.1),
        ];
        let want = pair
            .clone()
            .map(|centers| world(centers, WorldMode::Sparse).visible_of(0));
        for round in 0..20 {
            for (centers, want) in pair.iter().zip(&want) {
                let mut w = world(centers.clone(), WorldMode::Sparse);
                w.row_fanout_width = 2;
                assert_eq!(&w.visible_of(0), want, "round {round}");
            }
        }
    }

    #[test]
    fn fanout_seats_follow_the_free_cores() {
        // A 2-core host: one seat, unless both cores run sweep runs.
        assert_eq!(fanout_seats(2, 0), 1);
        assert_eq!(fanout_seats(2, 1), 1);
        assert_eq!(fanout_seats(2, 2), 0);
        // A 64-core host: one seat per core that neither a run nor the
        // caller holds, whatever the row's length.
        assert_eq!(fanout_seats(64, 0), 63);
        assert_eq!(fanout_seats(64, 1), 63);
        assert_eq!(fanout_seats(64, 62), 2);
        assert_eq!(fanout_seats(64, 64), 0);
        assert_eq!(fanout_seats(64, 100), 0);
        // One core: the caller's own.
        assert_eq!(fanout_seats(1, 0), 0);
    }

    #[test]
    fn rows_stay_on_the_caller_while_sweep_runs_hold_every_core() {
        // Each sweep run in progress holds a core: with as many runs as
        // the world's width, first rows of 90-odd pairs get no helper seat,
        // and the answers are the serial ones. (Other tests' worlds post
        // nothing meanwhile either, which changes none of their answers.)
        let centers = crate::init::Shape::Random.generate(96, 1);
        let mut busy = world(centers.clone(), WorldMode::Sparse);
        busy.row_fanout_width = 2;
        crate::sweep::RUNS_IN_FLIGHT.fetch_add(2, Ordering::Relaxed);
        let looks: Vec<Vec<usize>> = (0..4).map(|i| busy.visible_of(i)).collect();
        crate::sweep::RUNS_IN_FLIGHT.fetch_sub(2, Ordering::Relaxed);
        assert!(busy.plan.len() > 90, "a first row plans its new pairs");
        assert_eq!(busy.fanout_rows(), 0, "no row is posted to busy cores");
        let mut serial = world(centers, WorldMode::Sparse);
        serial.row_fanout_width = 1;
        let want: Vec<Vec<usize>> = (0..4).map(|i| serial.visible_of(i)).collect();
        assert_eq!(looks, want);
    }

    #[test]
    fn concurrent_worlds_share_the_helpers_and_match_the_serial_refresh() {
        // Two threads drive their own row-scan worlds through the one
        // process-wide pool at once, released together by a barrier. A
        // row posted while the other world's row holds the slot is
        // answered by its caller alone.
        let scenes = fanout_scenes();
        let serial: Vec<FanoutTrace> = scenes[1..]
            .iter()
            .map(|(_, centers)| fanout_scenario(centers, 1))
            .collect();
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = scenes
            .into_iter()
            .skip(1)
            .zip(serial)
            .map(|((name, centers), want)| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for rep in 0..4 {
                        let got = fanout_scenario(&centers, 2);
                        assert_same_answers(&format!("{name} (repetition {rep})"), &want, &got);
                    }
                })
            })
            .collect();
        for thread in threads {
            if let Err(payload) = thread.join() {
                resume_unwind(payload);
            }
        }
    }

    /// Posts `shared` and leaves every chunk to the helpers: waits until
    /// they have claimed the whole plan, takes the job back and settles
    /// it. Returns the answers, or the message of the panic `settle`
    /// re-raised.
    fn run_on_helpers(shared: &mut Arc<FanoutJob>) -> Result<Vec<PairVerdict>, String> {
        // Another test's row may hold the slot for a moment.
        while !post(shared, 1) {
            std::thread::yield_now();
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while shared.next.load(Ordering::Relaxed) < shared.partners.len() {
            assert!(Instant::now() < deadline, "no helper took the job");
            std::thread::yield_now();
        }
        take_back();
        catch_unwind(AssertUnwindSafe(|| {
            let job = settle(shared, Ok(()));
            job.answers
                .iter_mut()
                .map(|a| VERDICTS[*a.get_mut() as usize])
                .collect()
        }))
        .map_err(|payload| crate::sweep::panic_message(payload.as_ref()))
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helper_serves_on() {
        let n = 32;
        let w = world(crate::init::Shape::Random.generate(n, 3), WorldMode::Sparse);
        let partners: Vec<u32> = (1..n as u32).collect();
        // One chunk holds the whole plan, so the helper that claims it
        // answers every pair: the panic happens on a helper.
        let job = |panic_on| FanoutJob {
            sites: Some(Arc::clone(&w.sites)),
            row: 0,
            partners: partners.clone(),
            answers: partners.iter().map(|_| AtomicU8::default()).collect(),
            chunk: partners.len(),
            panic_on,
            ..FanoutJob::default()
        };
        let mut shared = Arc::new(job(Some(partners[5])));
        assert_eq!(
            run_on_helpers(&mut shared),
            Err("injected pair-kernel panic".to_string())
        );
        assert!(shared.sites.is_none(), "a settled job lets go of the sites");
        let mut probe = PairProbe::default();
        let want: Vec<PairVerdict> = partners
            .iter()
            .map(|&j| w.sites.compute_pair_answer(0, j as usize, &mut probe))
            .collect();
        for round in 0..3 {
            let mut shared = Arc::new(job(None));
            assert_eq!(
                run_on_helpers(&mut shared),
                Ok(want.clone()),
                "round {round}: the helper serves the next job"
            );
        }
        assert_eq!(Arc::strong_count(&w.sites), 1, "no job holds the sites");
        // Through a Look, whichever thread claims the pair: the panic
        // unwinds out of the refresh with the kernel's message.
        let mut w = world(crate::init::Shape::Random.generate(n, 3), WorldMode::Sparse);
        w.row_fanout_width = 2;
        w.job = Some(Arc::new(FanoutJob {
            panic_on: Some(7),
            ..FanoutJob::default()
        }));
        let look = catch_unwind(AssertUnwindSafe(|| w.visible_of(0)));
        let message = look.map_err(|payload| crate::sweep::panic_message(payload.as_ref()));
        assert_eq!(message, Err("injected pair-kernel panic".to_string()));
    }

    #[test]
    fn stale_and_duplicate_pending_entries_recompute_once() {
        // Robot 2 sits in the 0–1 corridor. Each of its two moves dirties
        // (0, 1), (0, 2) and (1, 2) and queues them on both endpoints'
        // rows; `sees` probes clean the pairs without consuming the
        // queues, all but (0, 1) after the second move. Rows 0 and 1 end
        // up holding their partner twice while only (0, 1) is dirty.
        let (i, j, k) = (0, 1, 2);
        let mut w = world_on(
            vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 1.5)],
            SlabLayout::Hashed,
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
        let _ = w.visible_of(j);
        assert_eq!(
            w.cache_stats(),
            (hits, misses + 1),
            "row {j} recomputes once"
        );
        let _ = w.visible_of(i);
        assert!(w.plan.is_empty(), "row {i} has nothing left to recompute");
        assert_eq!(
            w.cache_stats(),
            (hits, misses + 1),
            "row {i} recomputes nothing"
        );
        assert_eq!(w.pair_store_stats(), (3, 0));
        let centers = w.centers().to_vec();
        for r in 0..3 {
            assert_eq!(w.visible_of(r), visible_set(r, &centers));
        }
    }

    /// One step of a recorded run: a Look, or a move of one robot.
    enum Step {
        Look(usize),
        Move(usize, Point),
    }

    /// The start and the Looks and moves of `events` events of the paper's
    /// algorithm under the random-async adversary from a random start of
    /// `n` robots.
    fn random_async_trace(n: usize, seed: u64, events: usize) -> (Vec<Point>, Vec<Step>) {
        use crate::engine::{SimConfig, Simulator};
        use crate::experiment::RunSpec;
        use fatrobots_model::RobotId;
        use fatrobots_scheduler::Event;
        let spec = RunSpec::new(n, seed);
        let start = spec.shape.generate(n, seed);
        let config = SimConfig {
            max_events: events,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            start.clone(),
            spec.strategy.build(n),
            spec.adversary.build(seed, n),
            config,
        );
        let mut at = start.clone();
        let mut steps = Vec::new();
        sim.run_observed(|sim, event| {
            if let Event::Look(RobotId(i)) = *event {
                steps.push(Step::Look(i));
            }
            for (i, (was, &now)) in at.iter_mut().zip(sim.centers()).enumerate() {
                if *was != now {
                    steps.push(Step::Move(i, now));
                    *was = now;
                }
            }
        });
        (start, steps)
    }

    /// The stored dirty pairs of a sparse world, in ascending order.
    fn dirty_pairs(w: &World) -> Vec<(u32, u32)> {
        let mut dirty: Vec<(u32, u32)> = w
            .sparse
            .slab
            .iter()
            .filter(|e| e.stored && e.dirty)
            .map(|e| (e.a, e.b))
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// The partners the next refresh of each Looked row would plan, read
    /// from the slab on the direct layout and from the pending queue on the
    /// hashed one; `None` for a row never refreshed (its first refresh
    /// plans every pair not yet clean).
    fn next_plans(w: &World) -> Vec<Option<Vec<u32>>> {
        let n = w.len();
        let dirty = |i: usize, j: usize| {
            let (a, b) = (i.min(j), i.max(j));
            let id = match w.layout {
                SlabLayout::Direct => Some(direct_id(a, b, n)),
                SlabLayout::Hashed => w.sparse.ids.get(&pair_key(a, b)).copied(),
            };
            id.is_some_and(|id| w.sparse.slab[id as usize].dirty)
        };
        (0..n)
            .map(|i| {
                if !w.sparse.row_init[i] {
                    return None;
                }
                let mut js: Vec<u32> = match w.layout {
                    SlabLayout::Direct => (0..n as u32).filter(|&j| j as usize != i).collect(),
                    SlabLayout::Hashed => w.sparse.pending[i].js.clone(),
                };
                js.sort_unstable();
                js.dedup();
                js.retain(|&j| dirty(i, j as usize));
                Some(js)
            })
            .collect()
    }

    /// Asserts that the hashed world's list of clean uncertified pairs
    /// holds exactly its clean uncertified pairs, each once.
    fn assert_list_is_exact(w: &World, at: &str) {
        let mut listed = w.sparse.uncertified.clone();
        listed.sort_unstable();
        let want: Vec<u32> = (0..w.sparse.slab.len() as u32)
            .filter(|&id| {
                let entry = &w.sparse.slab[id as usize];
                entry.stored && !entry.dirty && !entry.certified
            })
            .collect();
        assert_eq!(listed, want, "{at}: the list of clean uncertified pairs");
    }

    #[test]
    fn direct_and_hashed_slabs_dirty_the_same_pairs_through_a_run() {
        // Both layouts replay one recorded run side by side: after every
        // move and every Look the stored dirty pairs, every view version,
        // the plan of every Looked row's next refresh and the cache and
        // certificate counters must agree, every Look must answer alike,
        // and the hashed world's list must hold exactly its clean
        // uncertified pairs.
        // An n = 6 run gathers within a few hundred events: take several.
        let runs = (1..=8)
            .map(|seed| (6, seed, 6_000))
            .chain([(32, 3, 30_000)]);
        for (n, seed, events) in runs {
            let (start, steps) = random_async_trace(n, seed, events);
            let [mut direct, mut hashed] = sparse_worlds(start);
            let (mut moves, mut beyond, mut dirtied) = (0, 0, 0);
            for (k, step) in steps.iter().enumerate() {
                let at = format!("n = {n}, seed {seed}, step {k}");
                match *step {
                    Step::Look(i) => {
                        assert_eq!(direct.visible_of(i), hashed.visible_of(i), "{at}: row {i}");
                    }
                    Step::Move(i, to) => {
                        let drift = to.distance_sq(hashed.anchors[i]);
                        beyond += usize::from(drift > CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS);
                        direct.move_robot(i, to);
                        hashed.move_robot(i, to);
                        moves += 1;
                        dirtied += dirty_pairs(&direct).len();
                    }
                }
                assert_eq!(dirty_pairs(&direct), dirty_pairs(&hashed), "{at}");
                assert_eq!(direct.view_versions, hashed.view_versions, "{at}");
                assert_eq!(next_plans(&direct), next_plans(&hashed), "{at}");
                assert_eq!(direct.cache_stats(), hashed.cache_stats(), "{at}");
                assert_eq!(direct.cert_stats(), hashed.cert_stats(), "{at}");
                assert_list_is_exact(&hashed, &at);
            }
            assert!(
                moves > 0 && dirtied > moves,
                "n = {n}, seed {seed}: {moves} moves"
            );
            if n == 32 {
                assert!(moves > 1_000, "{moves} moves");
                assert!(
                    beyond > 0 && beyond < moves,
                    "{beyond} of {moves} moves beyond the drift radius"
                );
                assert!(
                    direct.cert_stats().1 > 0,
                    "no in-drift move passed a certificate"
                );
            }
            assert_eq!(direct.pair_store_stats(), hashed.pair_store_stats());
        }
    }

    #[test]
    fn a_large_world_keeps_certified_pairs_clean_in_drift_and_tests_them_beyond() {
        // A hex packing above SCAN_MAX_N robots, which takes the hashed
        // slab. The mover goes out within its drift radius and home, then
        // beyond it and home (each of those two resets its anchor). After
        // each move every pair that was clean must be dirty exactly when
        // the exact test says the move affects it — except a certified pair
        // on an in-drift move, which stays clean — and each in-drift move
        // counts one skip per clean certified pair.
        let centers = crate::init::hex(2 * SCAN_MAX_N, 2.1);
        let n = centers.len();
        let m = n / 2;
        let mut w = world(centers, WorldMode::Sparse);
        assert_eq!(w.layout, SlabLayout::Hashed);
        for i in (0..n).step_by(8).chain([m]) {
            let _ = w.visible_of(i);
        }
        let home = w.center(m);
        let nudge = |d: f64| p(home.x + d, home.y - d);
        for to in [
            nudge(0.6 * CERT_DRIFT_RADIUS),
            home,
            nudge(4.0 * CERT_DRIFT_RADIUS),
            home,
        ] {
            let in_drift = to.distance_sq(w.anchors[m]) <= CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS;
            let (before, from) = (w.centers().to_vec(), w.center(m));
            let clean: Vec<(u32, PairEntry)> = (0..w.sparse.slab.len() as u32)
                .map(|id| (id, w.sparse.slab[id as usize]))
                .filter(|(_, entry)| !entry.dirty)
                .collect();
            let certified = clean.iter().filter(|(_, e)| e.certified).count() as u64;
            let skips = w.cert_stats().1;
            w.move_robot(m, to);
            let mut affected_certified = 0;
            for &(id, was) in &clean {
                let (a, b) = (was.a as usize, was.b as usize);
                let affected = affects(&before, a, b, m, from, to);
                affected_certified += usize::from(affected && was.certified);
                assert_eq!(
                    w.sparse.slab[id as usize].dirty,
                    affected && !(in_drift && was.certified),
                    "pair ({a}, {b}), certified {}, move to {to:?}",
                    was.certified
                );
            }
            assert!(
                affected_certified > 0,
                "the move to {to:?} affects some certified pair"
            );
            let want_skips = skips + if in_drift { certified } else { 0 };
            assert_eq!(w.cert_stats().1, want_skips, "move to {to:?}");
            assert_list_is_exact(&w, &format!("move to {to:?}"));
            let mut scratch = world(w.centers().to_vec(), WorldMode::Scratch);
            for i in [m, m + 1] {
                assert_eq!(w.visible_of(i), scratch.visible_of(i), "row {i}");
            }
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
                    if !w.sites.window_certifies(a, b, &mut probe) {
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
            assert!(
                entry(&w).certified && !entry(&w).dirty,
                "{name}: the Look certifies ({a}, {b})"
            );
            w.move_robot(k, p(centers[k].x + 0.5, centers[k].y + 0.5));
            assert!(entry(&w).dirty, "{name}: the move must dirty ({a}, {b})");
            let mut scratch = world(w.centers().to_vec(), WorldMode::Scratch);
            assert_eq!(w.visible_of(a), scratch.visible_of(a), "{name}: row {a}");
        }
    }

    #[test]
    fn row_scan_and_grid_gather_keep_the_same_corridor() {
        // At the crossover's own n, where Looks take the row scan: for
        // every pair of two rows, the row-primed slice and the grid
        // gather's slice must keep the same obstacles after the corridor
        // filter, and the covers and the kernel must answer the same from
        // either (they arrive in different orders: distance vs cell walk).
        let n = SCAN_MAX_N;
        let configs = [
            ("random", crate::init::Shape::Random.generate(n, 5)),
            ("hex", crate::init::hex(n, 2.1)),
            ("lattice", crate::init::grid(n, 0.1)),
            ("line", crate::init::line(n, 0.5)),
        ];
        for (name, centers) in configs {
            let mut w = world(centers.clone(), WorldMode::Sparse);
            let (mut scan, mut grid) = (PairProbe::default(), PairProbe::default());
            let mut certified = 0;
            for row in [0, n / 2] {
                for partner in (0..n).filter(|&j| j != row) {
                    let (a, b) = (row.min(partner), row.max(partner));
                    w.sites.scan_corridor(row, partner, &mut scan);
                    let mut scanned: Vec<usize> = scan
                        .keep
                        .iter()
                        .map(|&l| scan.row.sites[l as usize] as usize)
                        .filter(|&k| k != partner)
                        .collect();
                    w.sites.gather_corridor(a, b, &mut grid);
                    let mut gathered: Vec<usize> =
                        grid.keep.iter().map(|&l| grid.cand[l as usize]).collect();
                    scanned.sort_unstable();
                    gathered.sort_unstable();
                    assert_eq!(scanned, gathered, "{name}: corridor of ({a}, {b})");
                    let (ca, cb) = (centers[a], centers[b]);
                    let verdict = pair_verdict(ca, cb, &scan.obs);
                    assert_eq!(
                        verdict,
                        pair_verdict(ca, cb, &grid.obs),
                        "{name}: verdict of ({a}, {b})"
                    );
                    assert_eq!(
                        verdict == PairVerdict::Seen,
                        disc_sees_disc(a, b, &centers),
                        "{name}: ({a}, {b})"
                    );
                    certified += usize::from(verdict == PairVerdict::Certified);
                }
            }
            assert!(
                matches!(name, "random" | "line") || certified > 0,
                "{name}: no pair was certified"
            );
            // `sees` probes of a few rows, interleaved with other rows'
            // refreshes and with moves. Each round primes row `a` through
            // a probe of a pair with the mover `m`, then jumps `m` onto the
            // middle of the chord `a`–`b`: a probe answered from lanes
            // primed before the jump would miss the new obstacle.
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            let mut next = |m: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % m
            };
            let mut blocked_by_jump = 0;
            for round in 0..60 {
                let (a, b, m) = ([0, n / 2, n - 1][next(3)], next(n), next(n));
                if a == b || m == a || m == b {
                    continue;
                }
                let _ = w.visible_of(next(n));
                let home = w.center(m);
                w.move_robot(m, p(home.x + 0.3, home.y - 0.3));
                assert_eq!(
                    w.sees(a, m),
                    disc_sees_disc(a, m, w.centers()),
                    "{name}: round {round}, sees({a}, {m})"
                );
                w.move_robot(m, w.center(a).midpoint(w.center(b)));
                let seen = w.sees(a, b);
                assert_eq!(
                    seen,
                    disc_sees_disc(a, b, w.centers()),
                    "{name}: round {round}, sees({a}, {b})"
                );
                blocked_by_jump += usize::from(!seen);
                w.move_robot(m, home);
            }
            assert!(blocked_by_jump > 5, "{name}: the jumps never blocked");
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
