//! Visibility between unit discs among unit-disc obstacles.
//!
//! Section 2 of the paper defines visibility as follows: a point `p` is
//! visible to robot `r_i` when there is a point `p_i` on the bounding circle
//! of `r_i` such that the open segment `(p_i, p)` contains no point of any
//! *other* robot; `r_i` sees robot `r_j` when at least one point of `r_j`'s
//! bounding circle is visible to `r_i`.
//!
//! Deciding this exactly requires an arrangement of tangent lines. We use a
//! two-tier approach:
//!
//! 1. **Exact test in convex position** — when all centers in question lie on
//!    their common convex hull and no three are collinear, every robot sees
//!    every other robot (this is the equivalence the paper's Lemma 4 relies
//!    on). The model crate's `config::is_fully_visible_convex` decides this
//!    case exactly.
//! 2. **Critical-offset witness search for arbitrary configurations** —
//!    [`disc_sees_disc`] looks for a *witness sight segment* between the two
//!    boundaries: segments at the critical perpendicular offsets of the
//!    chord (the corridor edges and the edges of every obstacle's shadow),
//!    first parallel to it, then slanted between two critical offsets, and
//!    finally along the common tangents of every pair of discs involved. A
//!    segment counts as a sight line when it keeps a fixed clearance from
//!    every other (closed) disc. Each witness is verified, so the test never
//!    reports visibility that does not exist; it can miss sight lines that
//!    only exist through gaps thinner than that clearance, which makes the
//!    simulated robots strictly *more* conservative than the paper's
//!    idealised robots — they act on less information, never on wrong
//!    information.

use std::cmp::Ordering;

use crate::circle::UNIT_RADIUS;
use crate::kernel::{EpsKernel, Kernel};
use crate::line::Line;
use crate::point::Point;
use crate::predicates::Orientation;
use crate::segment::Segment;

/// Pruning radius for the pair-level visibility test: a disc whose center is
/// farther than this from the segment joining two centers can neither enter
/// the corridor-obstacle set of [`disc_sees_disc_among`] (which requires a
/// perpendicular offset below `3·UNIT_RADIUS`) nor block any candidate
/// witness segment (candidates lie in the radius-`UNIT_RADIUS` capsule
/// around the chord, so a blocker sits within `2·UNIT_RADIUS` plus the
/// clearance of the chord). Passing any superset of the centers within this
/// distance of the chord to [`disc_sees_disc_among`] therefore yields
/// exactly the same answer as passing every center.
pub const VISIBILITY_PRUNE_RADIUS: f64 = 3.0 * UNIT_RADIUS;

/// The corridor-obstacle predicate of the pair-level test: `true` when the
/// center `ck` projects strictly between the chord endpoints and lies
/// within [`VISIBILITY_PRUNE_RADIUS`] of the chord's supporting line.
/// `ci` is the first endpoint, `dir`/`perp` the chord's unit direction and
/// CCW normal, `span` its length. This single definition is what
/// [`disc_sees_disc`]'s early-out, [`disc_sees_disc_among`]'s filter, and
/// (through the constant) the simulator's cache invalidation all agree on.
#[inline]
fn in_corridor(
    ci: Point,
    dir: crate::point::Vec2,
    perp: crate::point::Vec2,
    span: f64,
    ck: Point,
) -> bool {
    let w = ck - ci;
    let along = w.dot(dir);
    along > 0.0 && along < span && w.dot(perp).abs() < VISIBILITY_PRUNE_RADIUS
}

/// Obstacle clearance of the witness search: candidate sight lines are
/// placed this far outside an obstacle's boundary, and a candidate counts as
/// blocked when it comes within `UNIT_RADIUS + SIGHT_CLEARANCE / 2` of an
/// obstacle center. Robots are closed discs, so grazing an obstacle
/// boundary blocks the sight line (this is why three collinear hull robots
/// break full visibility).
const SIGHT_CLEARANCE: f64 = 1e-9;

/// `true` when the unit disc centred at `centers[i]` can see the unit disc
/// centred at `centers[j]`, treating every other disc in `centers` as an
/// opaque obstacle.
///
/// The test searches for a *witness sight segment* from the boundary of disc
/// `i` to the boundary of disc `j` that stays strictly clear of every other
/// (closed) disc, in three stages:
///
/// 1. **Parallel family** — segments at a common perpendicular offset
///    `o ∈ [−1, 1]` from the center-to-center chord. The candidate offsets
///    are the corridor edges plus the edges of every obstacle's blocked
///    interval.
/// 2. **Slanted family** — when no parallel witness exists, segments whose
///    perpendicular offsets at the two endpoints differ (`o₁ ≠ o₂`), with
///    both endpoints drawn from the same critical-offset set. This covers
///    the thin diagonal sight lines that appear when touching robots sit
///    near the line of sight at different depths.
/// 3. **Tangent family** — the common tangents of every pair of discs
///    involved (obstacles and the two endpoints), pushed out by
///    `SIGHT_CLEARANCE`: any free sight segment can be moved until it
///    touches two discs, so this stage completes the search up to that
///    clearance.
///
/// Every candidate is verified with an exact segment-versus-disc distance
/// test (the ε classification `cmp_segment_dist_sq`), so a `true` answer always
/// corresponds to a genuine sight line. A `false` answer can only miss
/// sight lines through gaps thinner than the clearance, which errs on the
/// conservative side: the robot acts as if it saw less, not more.
///
/// # Panics
/// Panics if `i == j` or either index is out of bounds.
pub fn disc_sees_disc(i: usize, j: usize, centers: &[Point]) -> bool {
    assert!(i != j, "a robot trivially sees itself");
    // Evaluate in normalized (lower index first) orientation: the kernel's
    // strict float comparisons are not exactly symmetric under endpoint
    // swap, and every caller — including the simulator's cached pair
    // matrix, which stores one entry per unordered pair — must see the
    // same answer for (i, j) and (j, i).
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    let ci = centers[lo];
    let cj = centers[hi];
    // Cheap no-allocation early-out through the shared `in_corridor`
    // predicate: with no center in the corridor the kernel returns `true`
    // without looking at the obstacle slice.
    let axis = cj - ci;
    let span = axis.norm();
    if span <= f64::EPSILON {
        return true;
    }
    let dir = axis / span;
    let perp = dir.perp_ccw();
    let corridor_empty = !centers
        .iter()
        .enumerate()
        .any(|(k, &ck)| k != lo && k != hi && in_corridor(ci, dir, perp, span, ck));
    if corridor_empty {
        return true;
    }
    let others: Vec<Point> = centers
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != lo && k != hi)
        .map(|(_, &c)| c)
        .collect();
    disc_sees_disc_among(ci, cj, &others)
}

/// Pair-level form of [`disc_sees_disc`]: decides whether the unit disc at
/// `ci` sees the unit disc at `cj` when exactly the discs in `obstacles`
/// (which must not include `ci` or `cj`) are present.
///
/// `obstacles` may safely contain discs that are irrelevant to the pair —
/// the corridor filter below discards them — so callers with a spatial
/// index can pass any superset of the centers within
/// [`VISIBILITY_PRUNE_RADIUS`] of the segment `ci`–`cj` and obtain exactly
/// the same answer as the exhaustive test over all centers.
pub fn disc_sees_disc_among(ci: Point, cj: Point, obstacles: &[Point]) -> bool {
    // The kernel runs hundreds of thousands of times per simulated second;
    // its working buffers live in a per-thread scratch so the steady state
    // performs no heap allocation (sweep workers each get their own).
    AMONG_SCRATCH
        .with(|scratch| disc_sees_disc_among_with(ci, cj, obstacles, &mut scratch.borrow_mut()))
}

/// Reusable working buffers of [`disc_sees_disc_among`].
#[derive(Default)]
struct AmongScratch {
    /// Corridor obstacles; doubles as the stage-3 `relevant` list.
    corridor: Vec<Point>,
    /// Critical perpendicular offsets.
    offsets: Vec<f64>,
    /// Threat-ordered obstacle copy (large slices only).
    threat: Vec<Point>,
    /// Per-offset boundary endpoints + blocked flags, disc `i` / disc `j`.
    ends_i: Vec<(Point, bool)>,
    ends_j: Vec<(Point, bool)>,
}

thread_local! {
    static AMONG_SCRATCH: std::cell::RefCell<AmongScratch> =
        std::cell::RefCell::new(AmongScratch::default());
}

/// Squared distance from `p` to the segment `ab` compared with a squared
/// threshold `r_sq`: the ε classification of a witness candidate against
/// one obstacle (`norm_sq > block_sq` means clear).
fn cmp_segment_dist_sq(a: Point, b: Point, p: Point, r_sq: f64) -> Ordering {
    Segment::new(a, b)
        .distance_sq_to(p)
        .partial_cmp(&r_sq)
        .unwrap_or(Ordering::Equal)
}

fn disc_sees_disc_among_with(
    ci: Point,
    cj: Point,
    obstacles: &[Point],
    scratch: &mut AmongScratch,
) -> bool {
    let axis = cj - ci;
    let span = axis.norm();
    if span <= f64::EPSILON {
        return true;
    }
    let dir = axis / span;
    let perp = dir.perp_ccw();

    // Obstacles that can possibly obstruct: those whose centers project
    // strictly between the two endpoints and whose perpendicular offset is
    // within one diameter of the corridor (the shared `in_corridor`
    // predicate).
    let AmongScratch {
        corridor,
        offsets,
        threat,
        ends_i,
        ends_j,
    } = scratch;
    corridor.clear();
    corridor.extend(
        obstacles
            .iter()
            .filter(|&&ck| in_corridor(ci, dir, perp, span, ck)),
    );
    if corridor.is_empty() {
        return true;
    }

    // Critical perpendicular offsets: the corridor edges and both edges of
    // every obstacle's shadow.
    offsets.clear();
    offsets.push(-UNIT_RADIUS);
    offsets.push(UNIT_RADIUS);
    for &c in corridor.iter() {
        let o = (c - ci).dot(perp);
        offsets.push(o - UNIT_RADIUS - SIGHT_CLEARANCE);
        offsets.push(o + UNIT_RADIUS + SIGHT_CLEARANCE);
    }
    offsets.retain(|o| (-UNIT_RADIUS..=UNIT_RADIUS).contains(o));

    // Endpoint on the boundary of the disc at `center`, at perpendicular
    // offset `o`, on the side facing the other disc (`sign` = +1 towards j,
    // −1 towards i).
    let endpoint = |center: Point, o: f64, sign: f64| {
        let along = (UNIT_RADIUS * UNIT_RADIUS - o * o).max(0.0).sqrt();
        center + perp * o + dir * (along * sign)
    };

    // The search below is purely **existential** — the answer is `true` iff
    // *some* candidate segment verifies as clear — so three transformations
    // speed up the (expensive, every-candidate-fails) blocked case without
    // changing any answer:
    //
    // * obstacles are verified in **threat order** (ascending perpendicular
    //   distance from the chord axis), so a blocked candidate meets its
    //   blocker after one or two tests instead of scanning the whole slice
    //   (`all` over a set is order-independent);
    // * the per-offset boundary endpoints are computed **once** instead of
    //   once per candidate pair (same formula, same values);
    // * candidates whose endpoint already sits within blocking range of
    //   some obstacle are **pruned**: the closest segment point to that
    //   obstacle is at most the endpoint distance away, so verification
    //   provably fails. Pruning only ever skips failing candidates.
    //
    // Small slices skip the sorting/precompute bookkeeping (it costs more
    // than it saves there) and run the same candidate loops directly.
    let block_dist = UNIT_RADIUS + SIGHT_CLEARANCE / 2.0;
    let block_sq = block_dist * block_dist;
    let threat: &[Point] = if obstacles.len() >= SORTED_THREAT_MIN {
        threat.clear();
        threat.extend_from_slice(obstacles);
        threat.sort_unstable_by(|a, b| {
            let oa = (*a - ci).dot(perp).abs();
            let ob = (*b - ci).dot(perp).abs();
            oa.partial_cmp(&ob).unwrap_or(std::cmp::Ordering::Equal)
        });
        threat
    } else {
        obstacles
    };
    // A candidate is a genuine witness when every obstacle keeps squared
    // distance > block_sq from it (the historic inline closest-point
    // computation, bit for bit).
    let clear = |p1: Point, p2: Point| {
        threat
            .iter()
            .all(|&ck| cmp_segment_dist_sq(p1, p2, ck, block_sq) == Ordering::Greater)
    };

    if obstacles.len() < SORTED_THREAT_MIN {
        // Stages 1 and 2, direct form.
        for &o in offsets.iter() {
            if clear(endpoint(ci, o, 1.0), endpoint(cj, o, -1.0)) {
                return true;
            }
        }
        for &o1 in offsets.iter() {
            for &o2 in offsets.iter() {
                if crate::predicates::approx_eq_tol(o1, o2, f64::EPSILON) {
                    continue;
                }
                if clear(endpoint(ci, o1, 1.0), endpoint(cj, o2, -1.0)) {
                    return true;
                }
            }
        }
    } else {
        // Degenerate-segment form of the same kernel classification: the
        // prune must agree with `clear`, or exact evaluation could skip a
        // candidate the exact `clear` would have accepted.
        let point_blocked = |p: Point| {
            threat
                .iter()
                .any(|&ck| cmp_segment_dist_sq(p, p, ck, block_sq) != Ordering::Greater)
        };
        ends_i.clear();
        ends_i.extend(offsets.iter().map(|&o| {
            let p = endpoint(ci, o, 1.0);
            (p, point_blocked(p))
        }));
        ends_j.clear();
        ends_j.extend(offsets.iter().map(|&o| {
            let p = endpoint(cj, o, -1.0);
            (p, point_blocked(p))
        }));

        // Stage 1: parallel witnesses.
        for (&(p1, b1), &(p2, b2)) in ends_i.iter().zip(ends_j.iter()) {
            if !b1 && !b2 && clear(p1, p2) {
                return true;
            }
        }
        // Stage 2: slanted witnesses with both endpoint offsets critical.
        for (i1, &o1) in offsets.iter().enumerate() {
            let (p1, b1) = ends_i[i1];
            if b1 {
                continue;
            }
            for (i2, &o2) in offsets.iter().enumerate() {
                if crate::predicates::approx_eq_tol(o1, o2, f64::EPSILON) {
                    continue;
                }
                let (p2, b2) = ends_j[i2];
                if !b2 && clear(p1, p2) {
                    return true;
                }
            }
        }
    }
    // Stage 3: witnesses tangent to two of the circles involved. If any free
    // sight segment exists it can be translated/rotated until it touches two
    // of the discs (possibly the endpoints' own discs), so enumerating the
    // common tangent lines of every pair — pushed out by the clearance so
    // the witness is strictly free — is a complete search up to that
    // clearance.
    let relevant = corridor;
    relevant.push(ci);
    relevant.push(cj);
    let mut lines = [Line::through(Point::ORIGIN, Point::new(1.0, 0.0)); 8];
    for a in 0..relevant.len() {
        for b in (a + 1)..relevant.len() {
            let count = tangent_candidate_lines(
                relevant[a],
                relevant[b],
                UNIT_RADIUS + SIGHT_CLEARANCE,
                (ci, cj),
                &mut lines,
            );
            for line in &lines[..count] {
                if let Some(seg) = chord_between_discs(line, ci, cj) {
                    if clear(seg.a, seg.b) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Obstacle-slice size from which the pair kernel's blocked-case
/// bookkeeping (threat-sorted verification order, endpoint precompute,
/// blocked-endpoint pruning) pays for itself. Below it, the direct loops
/// are faster — small slices mean few candidates and cheap scans, and the
/// bookkeeping's sort and precompute passes would dominate. Neither path
/// allocates: the bookkeeping buffers live in the thread-local
/// `AmongScratch`. Either path enumerates and verifies the identical
/// candidate set.
const SORTED_THREAT_MIN: usize = 6;

/// How far (beyond [`UNIT_RADIUS`]) a tangent candidate line may run from an
/// endpoint disc and still be emitted by [`tangent_candidate_lines`]. The
/// pre-reject estimate and `chord_between_discs`'s exact test evaluate the
/// same point–line distance through differently rounded expressions; both
/// are a handful of IEEE operations on simulation-scale coordinates, so
/// they agree to ~1e-12. This margin is six orders above that: a line
/// discarded here provably fails the `> UNIT_RADIUS` rejection of
/// `chord_between_discs` too, so the prefilter never removes a candidate
/// the search would have kept.
const TANGENT_REACH_MARGIN: f64 = 1e-6;

/// The candidate sight lines tangent (at distance `r`) to the two unit discs
/// centred at `a` and `b`: up to four lines, each described by a unit normal
/// `ν` and offset `c` with `ν·x + c = 0`. Writes into the caller's fixed
/// buffer (at most eight candidates exist) and returns how many were
/// produced, so the stage-3 search performs no heap allocation.
///
/// `endpoints = (ci, cj)` are the sight pair's discs: lines that provably
/// miss either disc (farther than `UNIT_RADIUS` + [`TANGENT_REACH_MARGIN`])
/// are rejected **before** the line is constructed — in dense blocked
/// configurations ~97% of tangent lines die on `chord_between_discs`'s
/// first check, and this prefilter answers the same question with six
/// flops instead of a full construction. Borderline lines are still
/// emitted and decided by the exact test, so the surviving candidate set
/// is unchanged.
fn tangent_candidate_lines(
    a: Point,
    b: Point,
    r: f64,
    endpoints: (Point, Point),
    out: &mut [Line; 8],
) -> usize {
    let mut count = 0;
    let w = a - b;
    let d = w.norm();
    if d <= f64::EPSILON {
        return count;
    }
    let u = w / d;
    let v = u.perp_ccw();
    // The endpoint discs in the (u, v) frame anchored at `a`: the distance
    // from a tangent line (ν·x + c = 0, ν = along·u ± perp_mag·v,
    // c = s1·r − ν·a) to a point p is |ν·(p − a) + s1·r|.
    let (ci, cj) = endpoints;
    let w1 = ci - a;
    let w2 = cj - a;
    let (w1u, w1v) = (w1.dot(u), w1.dot(v));
    let (w2u, w2v) = (w2.dot(u), w2.dot(v));
    let reach = UNIT_RADIUS + TANGENT_REACH_MARGIN;
    for (s1, s2) in [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)] {
        // Find unit normals ν with ν·a + c = s1·r and ν·b + c = s2·r, i.e.
        // ν·w = (s1 − s2)·r.
        let q = (s1 - s2) * r;
        if q.abs() > d {
            continue; // the discs are too close for this tangent family
        }
        let along = q / d; // component of ν along w
        let perp_mag = (1.0 - along * along).max(0.0).sqrt();
        for sign in [1.0, -1.0] {
            let di_est = (along * w1u + sign * perp_mag * w1v + s1 * r).abs();
            let dj_est = (along * w2u + sign * perp_mag * w2v + s1 * r).abs();
            if di_est <= reach && dj_est <= reach {
                let nu = u * along + v * (perp_mag * sign);
                let c = s1 * r - nu.dot(a.to_vec());
                // Represent the line through its foot point with direction ⟂ ν.
                let foot = Point::ORIGIN + nu * (-c);
                out[count] = Line::from_point_dir(foot, nu.perp_ccw());
                count += 1;
            }
            if perp_mag <= f64::EPSILON {
                break; // the two mirror solutions coincide
            }
        }
    }
    count
}

/// The portion of `line` that runs from the boundary of the unit disc at
/// `ci` to the boundary of the unit disc at `cj`, or `None` when the line
/// misses either disc.
fn chord_between_discs(line: &Line, ci: Point, cj: Point) -> Option<Segment> {
    // Whether the candidate line reaches both discs is a kernel
    // classification; the chord endpoints below are f64 constructions.
    if line.cmp_distance_to_k::<EpsKernel>(ci, UNIT_RADIUS) == Ordering::Greater
        || line.cmp_distance_to_k::<EpsKernel>(cj, UNIT_RADIUS) == Ordering::Greater
    {
        return None;
    }
    let di = line.distance_to(ci);
    let dj = line.distance_to(cj);
    let pi = line.project(ci);
    let pj = line.project(cj);
    if pi.distance(pj) <= f64::EPSILON {
        return None;
    }
    // Pull each endpoint back onto its own disc boundary (towards the other
    // disc) so the segment spans exactly the gap between the discs.
    let dir = (pj - pi).normalized();
    let off_i = (UNIT_RADIUS * UNIT_RADIUS - di.powi(2)).max(0.0).sqrt();
    let off_j = (UNIT_RADIUS * UNIT_RADIUS - dj.powi(2)).max(0.0).sqrt();
    Some(Segment::new(pi + dir * off_i, pj - dir * off_j))
}

/// Indices of all robots visible to robot `i` in the configuration `centers`
/// (excluding `i` itself), decided pair by pair by the witness search of
/// [`disc_sees_disc`].
pub fn visible_set(i: usize, centers: &[Point]) -> Vec<usize> {
    (0..centers.len())
        .filter(|&j| j != i && disc_sees_disc(i, j, centers))
        .collect()
}

/// Relative slack applied to the squared corridor radius by
/// [`corridor_filter_soa`]. The batched lanes evaluate the distance with a
/// fused expression whose rounding can differ from
/// `Segment::distance_sq_to` by a few ulps; inflating the acceptance radius
/// keeps the filtered set a **superset** of the scalar filter's set, which
/// is all the witness kernel's contract requires (extra obstacles beyond
/// the pruning radius never change its answer).
const SOA_FILTER_SLACK: f64 = 1.0 + 1e-9;

/// Batched corridor pre-filter over candidate obstacles held in
/// structure-of-arrays form: appends to `out` the index of every candidate
/// `(xs[k], ys[k])` whose distance to segment `a`–`b` is (conservatively)
/// at most `radius`.
///
/// The loop body is branch-free per lane and runs over `chunks_exact(4)` so
/// the compiler can vectorize it; a scalar tail handles the remainder. The
/// accepted set is a superset of
/// `{k : Segment::distance_sq_to((xs[k], ys[k])) <= radius²}` (see
/// `SOA_FILTER_SLACK`), so feeding it to [`disc_sees_disc_among`] with
/// `radius = VISIBILITY_PRUNE_RADIUS` yields exactly the exhaustive
/// answer.
///
/// # Panics
/// Panics if `xs` and `ys` differ in length.
pub fn corridor_filter_soa(
    a: Point,
    b: Point,
    radius: f64,
    xs: &[f64],
    ys: &[f64],
    out: &mut Vec<u32>,
) {
    assert_eq!(xs.len(), ys.len(), "SoA coordinate slices must match");
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len_sq = dx * dx + dy * dy;
    let inv_len_sq = if len_sq <= f64::EPSILON {
        0.0 // degenerate chord: every t collapses to the endpoint `a`
    } else {
        1.0 / len_sq
    };
    let r_sq = radius * radius * SOA_FILTER_SLACK;
    let lane = |x: f64, y: f64| -> bool {
        let px = x - a.x;
        let py = y - a.y;
        let t = ((px * dx + py * dy) * inv_len_sq).clamp(0.0, 1.0);
        let ex = px - t * dx;
        let ey = py - t * dy;
        ex * ex + ey * ey <= r_sq
    };
    let chunks_x = xs.chunks_exact(4);
    let chunks_y = ys.chunks_exact(4);
    let tail = chunks_x.remainder().len();
    let mut base = 0u32;
    for (cx, cy) in chunks_x.zip(chunks_y) {
        // Evaluate all four lanes unconditionally (no early exit), then
        // push the survivors: the mask computation is what vectorizes.
        let mask = [
            lane(cx[0], cy[0]),
            lane(cx[1], cy[1]),
            lane(cx[2], cy[2]),
            lane(cx[3], cy[3]),
        ];
        for (l, &keep) in mask.iter().enumerate() {
            if keep {
                out.push(base + l as u32);
            }
        }
        base += 4;
    }
    let start = xs.len() - tail;
    for k in start..xs.len() {
        if lane(xs[k], ys[k]) {
            out.push(k as u32);
        }
    }
}

/// Safety margin the strip-cover certificate subtracts from the blocking
/// half-width. The kernel blocks a candidate when an obstacle sits within
/// `UNIT_RADIUS + SIGHT_CLEARANCE/2` of it, so certifying at
/// `UNIT_RADIUS − 1e-7` leaves a gap seven-plus orders of magnitude above
/// the ~1e-13 absolute rounding of the polygon clipping below: a line the
/// cover misses by honest arithmetic can never be rounded into the covered
/// set.
const STRIP_COVER_SAFETY: f64 = 1e-7;

/// Per-robot stability radius (ρ) of [`strip_cover_blocked_with_slack`]:
/// when the slack cover fires, the pair stays blocked for **any**
/// configuration in which every robot — the two endpoints *and* every
/// obstacle — sits within ρ of its position at certification time.
/// Endpoint drift is absorbed by enlarging the candidate square; obstacle
/// drift by narrowing every blocking strip by ρ (an obstacle that moved ρ
/// still blocks the narrowed strip); *new* obstacles only block more
/// (the witness search is monotone in obstacles) and obstacles can only
/// leave a corridor by first drifting beyond ρ.
///
/// The value trades skip duration against cover density: narrowing strips
/// by ρ shrinks their width to `2(1−ρ)`, and in a hex packing at center
/// spacing `s` the tightest cover constraint is parallel-to-chord
/// candidates, covered at perpendicular strip pitch `s·√3/2` (the row
/// height). At the paper-regime spacing ≈ 2.1 that pitch is ≈ 1.82, so
/// ρ must stay below ≈ 0.09 for the certificate to fire at all; 0.05
/// leaves a ≈ 0.08 overlap margin for packing jitter while still
/// tolerating a generous oscillation radius (ρ/2 per robot) in the
/// simulator.
pub const COVER_STABILITY_RADIUS: f64 = 0.05;

/// Minimum chord span of the slack strip cover (and of the simulator's
/// mid-chord window, which runs it): keeps the slack square's inflation
/// `(1+ρ)·(2+2ρ)/(T−2−2ρ)` comfortably bounded. The exact cover derives
/// its own bounds from the span and has no floor (see [`pair_verdict`]).
pub const STRIP_COVER_MIN_SPAN: f64 = 8.0;

/// Axial end margin of the slack cover before its `2ρ` widening:
/// obstacles closer than this to either endpoint (measured along the chord
/// axis) are ignored, because beyond it the foot of the perpendicular from
/// the obstacle onto a candidate line provably falls inside the candidate
/// *segment*, so line distance equals segment distance.
const STRIP_COVER_AXIAL_MARGIN: f64 = 2.5;

const STRIP_COVER_MAX_POLYS: usize = 16;
const STRIP_COVER_MAX_VERTS: usize = 24;

/// Which step of [`pair_verdict`]'s cascade answered a pair, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairVerdict {
    /// The witness kernel found a sight line.
    Seen,
    /// The witness kernel found none.
    Blocked,
    /// The exact strip cover proved the pair blocked.
    CoverBlocked,
    /// The slack strip cover proved the pair blocked under drift
    /// [`COVER_STABILITY_RADIUS`] of every robot.
    Certified,
}

/// The visibility of the pair `ci`–`cj` among `obstacles` (the contract of
/// [`disc_sees_disc_among`]), through one cascade: the slack strip cover
/// ([`PairVerdict::Certified`], chords of span at least
/// [`STRIP_COVER_MIN_SPAN`]), then the exact one
/// ([`PairVerdict::CoverBlocked`], every chord longer than 3), both sound
/// O(|obstacles| · polygons) *blocked* certificates swept over one strip
/// list; then the O(k²) witness kernel. Only the kernel can answer
/// [`PairVerdict::Seen`].
///
/// # Line-space cover
///
/// Work in the chord frame (origin `ci`, axis towards `cj`, span `T`) and
/// write a candidate's supporting line as `y = a + s·x`, with `b = a + s·T`
/// its offset at `cj`. Every candidate segment the kernel verifies has one
/// endpoint within `UNIT_RADIUS` of `ci` and the other within `UNIT_RADIUS`
/// of `cj` (stages 1–2 use `endpoint(c, o, ±1)` exactly on the unit circle;
/// stage 3 pulls both endpoints onto the unit circles). Hence:
///
/// * **Slope.** The endpoints sit at axial positions `t_i ≤ 1` and
///   `t_j ≥ T − 1` with offsets in `[−1, 1]`, so
///   `|s| ≤ s_max = 2/(T−2)`.
/// * **Offsets.** The line passes within `1` of `ci` and of `cj`, so
///   `|a|, |b| ≤ √(1+s²)`. The square root is convex on `[0, s_max]`, so
///   it lies below its chord there: `√(1+s²) ≤ 1 + k·|s|` with
///   `k = (√(1+s_max²) − 1)/s_max`.
///
/// **The exact cover's region.** Split at `a = b` into the pieces `s ≥ 0`
/// and `s ≤ 0`. With `s = (b − a)/T`, the piece `s ≥ 0` is cut by six
/// half-planes: `b ≥ a`, `b − a ≤ T·s_max`, `±a ≤ 1 + k·(b − a)/T` and
/// `±b ≤ 1 + k·(b − a)/T`, each bound widened by
/// `ε = STRIP_COVER_SAFETY`; the piece `s ≤ 0` mirrors it. The four offset
/// bounds alone cut each piece to a triangle with corners `(−r, −r)`,
/// `(r, r)` and `(∓R, ±R)`, where `r = 1 + ε` and `R = r/(1 − 2k/T)`. Its
/// apex slope `2r/(T − 2k)` stays below `s_max` for every span below 10⁷
/// (`k < 1`), and dropping a bound only enlarges a sound region anyway, so
/// the slope bounds are left out. The two triangles meet only along
/// `a = b`, `|a| ≤ r`, and their union is the convex rhombus with those
/// four corners; the sweep starts from it. Unlike a square, it admits no
/// parallel line at offset beyond `r`, so a chord blocked only by
/// near-collinear robots grazing it (a row of a packing) is covered.
///
/// **The slack cover's region** is the square `[−S, S]²` of
/// [`strip_cover_blocked_with_slack`].
///
/// **Strips.** An obstacle at `(t_k, o_k)` with `u = t_k/T` *blocks* every
/// line whose axial offset difference satisfies
/// `|a(1−u) + b·u − o_k| ≤ hw` (`hw = UNIT_RADIUS − ε`): the perpendicular
/// distance is the axial difference divided by `√(1+s²)`, hence ≤ hw,
/// strictly inside the kernel's blocking distance
/// `UNIT_RADIUS + SIGHT_CLEARANCE/2` — provided the foot of that
/// perpendicular lands inside the candidate segment, so that segment
/// distance equals line distance. Each obstacle therefore covers a
/// diagonal **strip** of the `(a, b)` plane.
///
/// **Axial margin.** On a line within `hw` of the obstacle at `t_k`, the
/// foot sits within `hw·|s|/(1+s²)` of `t_k` along the axis. `s/(1+s²)`
/// rises on `[0, 1]` and peaks at ½ there, so that distance is at most
/// `f = σ/(1+σ²)` with `σ = min(s_max, 1)`. Every candidate segment spans
/// at least `[1, T−1]` along the axis, so the exact cover uses the
/// obstacles with `t_k ∈ [m, T−m]`, `m = 1 + f + ε`. (The slack cover
/// keeps its fixed margin `2.5 + 2ρ`.)
///
/// **Short chords.** The exact cover has no span floor: it runs whenever
/// its window `[m, T−m]` is non-empty. Since `m ≤ 1.5 + ε`, with equality
/// up to `T = 4`, that is every chord with `T > 3 + 2ε`.
///
/// **The sweep.** If the strips jointly cover the region, every candidate
/// is blocked and the kernel must answer "not seen". The cover test clips
/// the region against the complement of each strip, maintaining the
/// uncovered part as a small set of convex polygons; the certificate
/// fires when the set becomes empty. Obstacles are processed
/// nearest-the-chord first so central strips (which cover the most) come
/// early; ties are broken by axial position, then by signed offset, so for
/// finite coordinates the processing order — and with it the budget
/// verdict below — depends only on the obstacle set, never on the order of
/// the slice.
///
/// **Diagonal pre-check.** Along `a = b` every strip is the same interval
/// `[o_k − hw, o_k + hw]`, whatever its `u`. Before clipping, the exact
/// cover walks these intervals over the region's diagonal `|a| ≤ r`; if a
/// gap wider than `ε` remains, it answers "no fire" without clipping. That
/// changes no verdict: the gap's middle point has a ball of radius above
/// `ε/2` that no strip meets (a strip's `a(1−u) + b·u` moves by at most the
/// distance moved), and the clipping cannot shed a region that wide, so
/// the sweep would not have fired either. Every pair with a parallel
/// witness (the kernel's stage 1) leaves such a gap.
///
/// The strip list holds every obstacle either cover uses, with its axial
/// position, and each sweep skips the strips outside its own filter. The
/// sort is a total order on `(|o|, u, o)`, so each cover sweeps exactly
/// the list it would build alone, and reaches the same verdict,
/// polygon-budget give-ups included.
///
/// # One-sidedness and numerics
///
/// A cover that does not fire never means "visible" — the kernel runs
/// next, so the fast path cannot flip an answer. For a fire to be sound
/// despite floating point: a genuinely clear witness line keeps axial
/// distance `> UNIT_RADIUS` from every usable obstacle, so its `(a, b)`
/// point sits at distance ≥ `ε` from every (narrowed) strip — an uncovered
/// ball that survives the ~1e-13 absolute clipping error. The same `ε`
/// widens every derived bound, which absorbs the ~1e-15 by which a
/// rounded stage-3 endpoint may miss its unit circle. The clipping uses
/// closed half-planes and keeps an edge's crossing whenever its two ends
/// lie strictly on opposite sides, so measure-zero slivers are retained,
/// and a sweep gives up (does not fire) rather than drop state when
/// polygon or vertex budgets overflow.
///
/// A used obstacle sits within `R + hw < 2.71` of the chord axis for the
/// exact cover (`R < 1.71` for `T > 3`) and within `S + hw < 2.38` for the
/// slack cover, strictly between the endpoints: inside
/// [`VISIBILITY_PRUNE_RADIUS`], so it is present in any obstacle slice the
/// kernel contract admits — the verdict is stable under the same superset
/// rule as the kernel.
pub fn pair_verdict(ci: Point, cj: Point, obstacles: &[Point]) -> PairVerdict {
    match strip_cover(
        ci,
        cj,
        obstacles,
        [PairVerdict::Certified, PairVerdict::CoverBlocked],
        true,
    ) {
        Some(verdict) => verdict,
        None if disc_sees_disc_among(ci, cj, obstacles) => PairVerdict::Seen,
        None => PairVerdict::Blocked,
    }
}

/// The slack strip cover of [`pair_verdict`] alone: a `true` verdict
/// certifies that the kernel answers "not seen" for **any** configuration
/// in which every robot — endpoints and obstacles alike — sits within
/// [`COVER_STABILITY_RADIUS`] (ρ) of its position at this call (still
/// under the kernel's obstacle-superset contract).
///
/// All reasoning stays in the *certification* frame. Endpoint drift ≤ ρ:
/// a witness for the drifted pair has endpoints within `1 + ρ` of the
/// certification centers, hence slope `|s| ≤ (2+2ρ)/(T−2−2ρ)` and
/// extrapolated offsets
/// `|a| ≤ (1+ρ)·(1 + (2+2ρ)/(T−2−2ρ))` in the certification frame — the
/// enlarged square. Obstacle drift ≤ ρ: every strip is narrowed by
/// ρ, so a candidate inside the narrowed strip keeps perpendicular
/// distance ≤ `hw − ρ + ρ = hw` to the *drifted* obstacle and stays
/// blocked; the axial margin grows by `2ρ` so the perpendicular foot
/// still lands inside the (drifted) candidate segment. Obstacles that
/// *enter* the corridor after certification only remove witnesses (the
/// search is monotone in obstacles), and a certification obstacle can
/// only leave the corridor by first exceeding drift ρ. The simulator
/// turns this into a cheap dirty-skip: while every robot stays within
/// `ρ/2` of its registration anchor, a certified-blocked pair needs no
/// recompute — and no per-move attention at all.
pub fn strip_cover_blocked_with_slack(ci: Point, cj: Point, obstacles: &[Point]) -> bool {
    strip_cover(ci, cj, obstacles, [PairVerdict::Certified], true).is_some()
}

/// The exact strip cover of [`pair_verdict`] alone.
#[cfg(test)]
fn strip_cover_blocked(ci: Point, cj: Point, obstacles: &[Point]) -> bool {
    strip_cover(ci, cj, obstacles, [PairVerdict::CoverBlocked], true).is_some()
}

/// One strip cover on a chord of length `span`: the corners of its start
/// region in `(a, b)`, the largest `|a(1−u) + b·u|` on that region, the
/// half-width of its strips, its axial margin, and — for the exact cover —
/// the half-length `r` of the region's diagonal `a = b`, which its
/// pre-check walks. The bounds are derived in [`pair_verdict`].
struct Cover {
    region: [(f64, f64); 4],
    reach: f64,
    hw: f64,
    margin: f64,
    diagonal: Option<f64>,
}

impl Cover {
    /// The cover whose fire answers `verdict`, or `None` on a chord too
    /// short for it: the slack one for [`PairVerdict::Certified`] (strips
    /// narrowed by ρ, spans from [`STRIP_COVER_MIN_SPAN`]), else the exact
    /// one (spans above `3 + 2ε`).
    fn new(verdict: PairVerdict, span: f64) -> Option<Self> {
        if verdict == PairVerdict::Certified {
            if span < STRIP_COVER_MIN_SPAN {
                return None;
            }
            let p = COVER_STABILITY_RADIUS;
            let slope = (2.0 + 2.0 * p) / (span - 2.0 - 2.0 * p);
            let square = (1.0 + p) * (1.0 + slope) + STRIP_COVER_SAFETY;
            return Some(Cover {
                region: [
                    (-square, -square),
                    (square, -square),
                    (square, square),
                    (-square, square),
                ],
                reach: square,
                hw: UNIT_RADIUS - p - STRIP_COVER_SAFETY,
                margin: STRIP_COVER_AXIAL_MARGIN + 2.0 * p,
                diagonal: None,
            });
        }
        // s_max, σ, k, r and R of the derivation in `pair_verdict`.
        let slope = 2.0 / (span - 2.0);
        let sigma = slope.min(1.0);
        let margin = 1.0 + sigma / (1.0 + sigma * sigma) + STRIP_COVER_SAFETY;
        if !(slope > 0.0 && span > 2.0 * margin) {
            return None;
        }
        let k = ((1.0 + slope * slope).sqrt() - 1.0) / slope;
        let r = 1.0 + STRIP_COVER_SAFETY;
        let apex = r / (1.0 - 2.0 * k / span);
        Some(Cover {
            region: [(-r, -r), (apex, -apex), (r, r), (-apex, apex)],
            reach: apex,
            hw: UNIT_RADIUS - STRIP_COVER_SAFETY,
            margin,
            diagonal: Some(r),
        })
    }

    /// `true` when the obstacle at axial position `t` and offset `o` is
    /// away from both ends and its strip can meet the region.
    fn uses(&self, span: f64, t: f64, o: f64) -> bool {
        (self.margin..=span - self.margin).contains(&t) && o.abs() <= self.reach + self.hw
    }
}

/// The strip covers named by `verdicts`, in order, on the chord `ci`–`cj`
/// over one strip list: the verdict of the first whose strips cover its
/// region, or `None` (always for chords of span 3 or less).
/// `diagonal_check` runs the exact cover's diagonal pre-check; it changes
/// no verdict, and only the test comparing both settings turns it off.
fn strip_cover<const N: usize>(
    ci: Point,
    cj: Point,
    obstacles: &[Point],
    verdicts: [PairVerdict; N],
    diagonal_check: bool,
) -> Option<PairVerdict> {
    let axis = cj - ci;
    let span = axis.norm();
    let covers = verdicts.map(|verdict| Cover::new(verdict, span));
    if covers.iter().all(Option::is_none) {
        return None;
    }
    let dir = axis / span;
    let perp = dir.perp_ccw();
    STRIP_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let StripScratch {
            strips,
            polys,
            flip,
            pool,
        } = &mut *scratch;
        strips.clear();
        for &c in obstacles {
            let w = c - ci;
            let (t, o) = (w.dot(dir), w.dot(perp));
            if covers.iter().flatten().any(|cover| cover.uses(span, t, o)) {
                strips.push((t, t / span, o));
            }
        }
        if strips.is_empty() {
            return None;
        }
        // Nearest the chord first, then each run of tied offsets
        // (lattices, axis-aligned chords) by (u, o): a total order on
        // (|o|, u, o) that costs one extra scan where nothing ties.
        strips
            .sort_unstable_by(|a, b| a.2.abs().partial_cmp(&b.2.abs()).unwrap_or(Ordering::Equal));
        let mut start = 0;
        while start < strips.len() {
            let offset = strips[start].2.abs();
            let run = strips[start..]
                .iter()
                .take_while(|s| s.2.abs() == offset)
                .count();
            if run > 1 {
                strips[start..start + run]
                    .sort_unstable_by(|p, q| p.1.total_cmp(&q.1).then_with(|| p.2.total_cmp(&q.2)));
            }
            start += run;
        }
        let mut covered = |cover: &Cover| {
            if let Some(r) = cover.diagonal.filter(|_| diagonal_check) {
                let offsets = strips
                    .iter()
                    .filter(|&&(t, _, o)| cover.uses(span, t, o))
                    .map(|&(_, _, o)| o);
                if diagonal_gap(offsets, cover.hw, r) {
                    return false;
                }
            }
            pool.append(polys);
            pool.append(flip);
            let mut start = pool.pop().unwrap_or_default();
            start.clear();
            start.extend_from_slice(&cover.region);
            polys.push(start);
            let hw = cover.hw;
            for &(t, u, o) in strips.iter() {
                if !cover.uses(span, t, o) {
                    continue;
                }
                // Uncovered ∩ strip-complement: each polygon splits into the
                // part below the strip (f ≤ o − hw) and the part above it
                // (f ≥ o + hw), where f(a, b) = a·(1−u) + b·u.
                let (na, nb) = (1.0 - u, u);
                for poly in polys.drain(..) {
                    let mut below = pool.pop().unwrap_or_default();
                    let mut above = pool.pop().unwrap_or_default();
                    below.clear();
                    above.clear();
                    clip_halfplane(&poly, na, nb, o - hw, 1.0, &mut below);
                    clip_halfplane(&poly, na, nb, o + hw, -1.0, &mut above);
                    pool.push(poly);
                    for piece in [below, above] {
                        if piece.is_empty() {
                            pool.push(piece);
                        } else {
                            flip.push(piece);
                        }
                    }
                }
                std::mem::swap(polys, flip);
                if polys.is_empty() {
                    return true;
                }
                if polys.len() > STRIP_COVER_MAX_POLYS
                    || polys.iter().any(|p| p.len() > STRIP_COVER_MAX_VERTS)
                {
                    // Budget overflow: give up soundly rather than drop state.
                    return false;
                }
            }
            false
        };
        covers
            .iter()
            .position(|cover| cover.as_ref().is_some_and(&mut covered))
            .map(|k| verdicts[k])
    })
}

/// The exact cover's diagonal pre-check: `true` when the intervals
/// `[o − hw, o + hw]` of the strip offsets `offsets` (in the strip list's
/// ascending-`|o|` order) leave a gap wider than `STRIP_COVER_SAFETY` on
/// `[−r, r]`. The offsets `≥ 0` then arrive in ascending order and chain
/// upwards from the lowest; the others chain downwards from the highest.
/// All intervals share one width, so a gap inside a chain shows between
/// two consecutive offsets, and the other chain cannot fill it.
fn diagonal_gap(offsets: impl Iterator<Item = f64>, hw: f64, r: f64) -> bool {
    let wide = |from: f64, to: f64| to.min(r) - from.max(-r) > STRIP_COVER_SAFETY;
    // (lowest, highest) covered by each chain.
    let (mut up, mut down) = (None::<(f64, f64)>, None::<(f64, f64)>);
    for o in offsets {
        let (lo, hi) = (o - hw, o + hw);
        if o >= 0.0 {
            match &mut up {
                Some((_, top)) if wide(*top, lo) => return true,
                Some((_, top)) => *top = hi,
                None => up = Some((lo, hi)),
            }
        } else {
            match &mut down {
                Some((bottom, _)) if wide(hi, *bottom) => return true,
                Some((bottom, _)) => *bottom = lo,
                None => down = Some((lo, hi)),
            }
        }
    }
    let (up_lo, up_hi) = up.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
    let (down_lo, down_hi) = down.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
    wide(f64::NEG_INFINITY, down_lo.min(up_lo))
        || wide(down_hi, up_lo)
        || wide(up_hi.max(down_hi), f64::INFINITY)
}

/// Clips convex polygon `input` to the closed half-plane
/// `sign·(na·a + nb·b − c) ≤ 0` (Sutherland–Hodgman, one plane). An edge
/// whose ends lie strictly on opposite sides always emits its crossing,
/// even where rounding puts it on an end: dropping it would drop the
/// outside end's neighbourhood from the polygon too.
fn clip_halfplane(
    input: &[(f64, f64)],
    na: f64,
    nb: f64,
    c: f64,
    sign: f64,
    out: &mut Vec<(f64, f64)>,
) {
    let n = input.len();
    for i in 0..n {
        let p = input[i];
        let q = input[(i + 1) % n];
        let dp = sign * (na * p.0 + nb * p.1 - c);
        let dq = sign * (na * q.0 + nb * q.1 - c);
        if dp <= 0.0 {
            out.push(p);
        }
        if (dp < 0.0 && dq > 0.0) || (dp > 0.0 && dq < 0.0) {
            let t = dp / (dp - dq);
            out.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
        }
    }
}

thread_local! {
    /// Strip/polygon scratch of `strip_cover` — the cascade runs per pair
    /// recompute on the simulator's hot path, so the outer vectors must not
    /// reallocate once warm.
    static STRIP_SCRATCH: std::cell::RefCell<StripScratch> =
        const {
            std::cell::RefCell::new(StripScratch {
                strips: Vec::new(),
                polys: Vec::new(),
                flip: Vec::new(),
                pool: Vec::new(),
            })
        };
}

struct StripScratch {
    /// Filtered obstacles as `(t, t/span, perpendicular offset)`, with
    /// `t` the axial position.
    strips: Vec<(f64, f64, f64)>,
    /// Current uncovered region as disjoint convex polygons in `(a, b)`.
    polys: Vec<Vec<(f64, f64)>>,
    /// Next generation of `polys` while clipping.
    flip: Vec<Vec<(f64, f64)>>,
    /// Retired vertex buffers, reused so the sweep stops allocating once
    /// warm.
    pool: Vec<Vec<(f64, f64)>>,
}

/// `true` when no three of the given points are collinear within `tol`
/// (tolerance on the doubled triangle area).
pub fn no_three_collinear(points: &[Point], tol: f64) -> bool {
    let n = points.len();
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                if EpsKernel::orientation_tol(points[a], points[b], points[c], tol)
                    == Orientation::Collinear
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Minimum gap (boundary-to-boundary distance) over all pairs of unit discs,
/// or `None` for fewer than two discs. Negative values indicate overlap.
pub fn min_pairwise_gap(centers: &[Point]) -> Option<f64> {
    let n = centers.len();
    if n < 2 {
        return None;
    }
    let mut best = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let gap = centers[i].distance(centers[j]) - 2.0 * UNIT_RADIUS;
            if gap < best {
                best = gap;
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// A deterministic stream of samples in `[0, 1)` (a 64-bit LCG).
    fn unit_lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    /// A 12 × 12 hex packing at a spacing drawn from `[2.05, 2.35)`, every
    /// coordinate jittered by up to ±0.01: far pairs are genuinely
    /// blocked, so the strip covers fire often.
    fn jittered_hex(next: &mut impl FnMut() -> f64) -> Vec<Point> {
        let spacing = 2.05 + 0.3 * next();
        let side = 12;
        let row_h = spacing * 3f64.sqrt() / 2.0;
        (0..side * side)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                let stagger = if r % 2 == 1 { spacing / 2.0 } else { 0.0 };
                p(
                    c as f64 * spacing + stagger + (next() - 0.5) * 0.02,
                    r as f64 * row_h + (next() - 0.5) * 0.02,
                )
            })
            .collect()
    }

    #[test]
    fn two_discs_always_see_each_other() {
        let centers = vec![p(0.0, 0.0), p(10.0, 0.0)];
        assert!(disc_sees_disc(0, 1, &centers));
        assert!(disc_sees_disc(1, 0, &centers));
    }

    #[test]
    fn blocking_disc_in_the_middle_hides_far_disc() {
        // Three collinear discs spaced far apart: the middle one blocks the
        // center line but NOT the tangent lines... unless the corridor is
        // fully covered. With equal radii and perfect collinearity the middle
        // disc exactly fills the corridor, so the outer robots cannot see
        // each other.
        let centers = vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)];
        assert!(!disc_sees_disc(0, 2, &centers));
        assert!(disc_sees_disc(0, 1, &centers));
        assert!(disc_sees_disc(1, 2, &centers));
    }

    #[test]
    fn offset_disc_does_not_block() {
        // The "blocking" disc is displaced well off the corridor.
        let centers = vec![p(0.0, 0.0), p(10.0, 5.0), p(20.0, 0.0)];
        assert!(disc_sees_disc(0, 2, &centers));
    }

    #[test]
    fn slightly_offset_disc_leaves_a_thin_sight_line() {
        // Middle disc displaced by more than a radius from the corridor
        // center line frees one tangent side.
        let centers = vec![p(0.0, 0.0), p(10.0, 2.5), p(20.0, 0.0)];
        assert!(disc_sees_disc(0, 2, &centers));
    }

    #[test]
    fn visibility_is_symmetric_on_random_like_configs() {
        let centers = vec![
            p(0.0, 0.0),
            p(3.0, 0.5),
            p(6.0, -0.5),
            p(2.0, 4.0),
            p(5.0, 3.0),
        ];
        for i in 0..centers.len() {
            for j in 0..centers.len() {
                if i != j {
                    assert_eq!(
                        disc_sees_disc(i, j, &centers),
                        disc_sees_disc(j, i, &centers),
                        "asymmetric visibility between {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn visible_set_excludes_self() {
        let centers = vec![p(0.0, 0.0), p(4.0, 0.0), p(8.0, 0.0)];
        let v = visible_set(1, &centers);
        assert_eq!(v, vec![0, 2]);
        let v0 = visible_set(0, &centers);
        assert_eq!(v0, vec![1]);
    }

    #[test]
    fn no_three_collinear_tolerance_band() {
        let pts = vec![p(0.0, 0.0), p(5.0, 0.05), p(10.0, 0.0), p(5.0, 10.0)];
        // Tiny tolerance: the small bump is NOT collinear.
        assert!(no_three_collinear(&pts, 1e-9));
        // Large tolerance (the paper's 1/n band scaled): it IS collinear.
        assert!(!no_three_collinear(&pts, 1.0));
    }

    #[test]
    fn min_gap_reports_touching_and_overlap() {
        assert_eq!(min_pairwise_gap(&[p(0.0, 0.0)]), None);
        let touching = vec![p(0.0, 0.0), p(2.0, 0.0)];
        assert!(min_pairwise_gap(&touching).unwrap().abs() < 1e-12);
        let apart = vec![p(0.0, 0.0), p(5.0, 0.0)];
        assert!((min_pairwise_gap(&apart).unwrap() - 3.0).abs() < 1e-12);
        let overlap = vec![p(0.0, 0.0), p(1.0, 0.0)];
        assert!(min_pairwise_gap(&overlap).unwrap() < 0.0);
    }

    #[test]
    fn soa_corridor_filter_is_a_tight_superset_of_the_scalar_filter() {
        use crate::segment::Segment;
        // A pseudo-random cloud (fixed LCG so the test is deterministic)
        // around two chords, one generic and one degenerate. Every scalar
        // accept must survive the batched filter, and every batched accept
        // must be within the slack-inflated radius.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 40.0 - 10.0
        };
        let n = 103; // not a multiple of 4: exercises the scalar tail
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next()).collect();
        for (a, b) in [(p(0.0, 0.0), p(17.0, 6.0)), (p(3.0, 3.0), p(3.0, 3.0))] {
            let radius = VISIBILITY_PRUNE_RADIUS;
            let seg = Segment::new(a, b);
            let mut got = Vec::new();
            corridor_filter_soa(a, b, radius, &xs, &ys, &mut got);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
            for k in 0..n {
                let d_sq = seg.distance_sq_to(p(xs[k], ys[k]));
                if d_sq <= radius * radius {
                    assert!(
                        got.contains(&(k as u32)),
                        "scalar accept {k} dropped by the batched filter"
                    );
                }
            }
            for &k in &got {
                let d_sq = seg.distance_sq_to(p(xs[k as usize], ys[k as usize]));
                assert!(
                    d_sq <= radius * radius * (1.0 + 1e-6),
                    "batched accept {k} is far outside the corridor"
                );
            }
        }
    }

    #[test]
    fn strip_cover_requires_actual_cover() {
        let (ci, cj) = (p(0.0, 0.0), p(30.0, 0.0));
        // Empty corridor and a single mid-chord obstacle: the parallel
        // grazing candidates at offset ±1 survive one strip, so no cover.
        assert!(!strip_cover_blocked(ci, cj, &[]));
        assert!(!strip_cover_blocked(ci, cj, &[p(15.0, 0.0)]));
        // Three obstacles at staggered depths and offsets close the square:
        // the mid strip kills everything but the grazing corners, and the
        // offset strips at other depths kill those.
        let wall = [p(15.0, 0.0), p(10.0, 1.1), p(20.0, -1.1)];
        assert!(strip_cover_blocked(ci, cj, &wall));
        assert!(!disc_sees_disc_among(ci, cj, &wall));
        // Without the lower flanker the grazing candidates just below the
        // mid obstacle stay clear (axial distance ≳ UNIT_RADIUS): the
        // lower corner of the line square is uncovered, so no certificate.
        let open = [p(15.0, 0.0), p(15.0, 1.1)];
        assert!(!strip_cover_blocked(ci, cj, &open));
        // Obstacles within the axial end margin are ignored: a wall hugging
        // an endpoint cannot certify on its own.
        let hugging = [p(1.0, 0.0), p(1.2, 1.1), p(1.4, -1.1)];
        assert!(!strip_cover_blocked(ci, cj, &hugging));
        // A short chord needs its own cover: a column across its middle
        // blocks every candidate, a lone disc there leaves the grazing
        // lines. Chords of span 3 or less never certify.
        let (si, sj) = (p(0.0, 0.0), p(4.0, 0.0));
        let column = [p(2.0, 0.0), p(2.0, 1.9), p(2.0, -1.9)];
        assert!(strip_cover_blocked(si, sj, &column));
        assert!(!disc_sees_disc_among(si, sj, &column));
        assert!(!strip_cover_blocked(si, sj, &[p(2.0, 0.0)]));
        assert!(!strip_cover_blocked(si, p(3.0, 0.0), &[p(1.5, 0.0)]));
        assert!(!strip_cover_blocked(
            si,
            p(3.0, 0.0),
            &[p(1.5, 0.0), p(1.5, 1.9), p(1.5, -1.9)]
        ));
    }

    #[test]
    fn a_row_grazed_by_its_near_collinear_row_mates_is_covered() {
        // The boundary row of a packing: every candidate line grazes some
        // row-mate, so the kernel finds nothing. A square region would
        // admit parallel lines at offset up to 1 + 2/(T−2), which no
        // candidate takes and no strip covers; the rhombus admits only
        // `|a| ≤ 1 + ε` along `a = b`, which the row-mates cover.
        let (ci, cj) = (p(0.0, 0.0), p(20.0, 0.0));
        let row: Vec<Point> = (1..10)
            .map(|k| p(2.0 * k as f64, if k % 2 == 0 { 0.001 } else { -0.001 }))
            .collect();
        assert!(!disc_sees_disc_among(ci, cj, &row));
        assert!(strip_cover_blocked(ci, cj, &row));
        // Exactly collinear row-mates leave the parallel lines at offset
        // `(hw, 1]` uncovered, so the cover stays silent there and the
        // kernel answers.
        let flat: Vec<Point> = (1..10).map(|k| p(2.0 * k as f64, 0.0)).collect();
        assert!(!disc_sees_disc_among(ci, cj, &flat));
        assert!(!strip_cover_blocked(ci, cj, &flat));
    }

    #[test]
    fn clipping_keeps_a_crossing_that_rounds_onto_the_outside_end() {
        // From a cover sweep that fired on a pair the kernel sees: the
        // third vertex is a hair outside the half-plane, the second
        // inside, and `dp / (dp − dq)` rounds to 1. The crossing must be
        // kept (it sits on the outside vertex), or the triangle between
        // the second and fourth vertices is lost.
        let poly = [
            (-1.0000000999999998, -1.0000000999999998),
            (1.0000001000000003, 1.0000001000000003),
            (1.0000517453720896, 1.0603158921606601),
            (-1.0017672709949583, 1.0603158921606601),
        ];
        let (na, nb) = (0.0008569833780390975, 0.9991430166219609);
        let mut out = Vec::new();
        clip_halfplane(&poly, na, nb, 1.0000001, 1.0, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(&out[..2], &poly[..2]);
        let excess = na * out[2].0 + nb * out[2].1 - 1.0000001;
        assert!((0.0..1e-12).contains(&excess), "{out:?}");
    }

    /// The obstacles of chord `i`–`j` among `centers` within
    /// [`VISIBILITY_PRUNE_RADIUS`] of it, endpoints excluded: the slice the
    /// simulator passes, which the kernel contract admits.
    fn corridor_of(centers: &[Point], i: usize, j: usize, out: &mut Vec<Point>) {
        let chord = Segment::new(centers[i], centers[j]);
        let reach_sq = VISIBILITY_PRUNE_RADIUS * VISIBILITY_PRUNE_RADIUS;
        out.clear();
        out.extend(
            centers
                .iter()
                .enumerate()
                .filter(|&(k, &c)| k != i && k != j && chord.distance_sq_to(c) <= reach_sq)
                .map(|(_, &c)| c),
        );
    }

    /// Names of the chord families of [`cover_test_chords`].
    const COVER_FAMILIES: [&str; 4] = ["hex", "lattice", "scatter", "short"];

    /// The exact cover's test chords, over 10⁵ of them, each passed to
    /// `visit(family, ci, cj, corridor)`:
    /// 0. jittered hex packings: random pairs, plus every pair of the
    ///    bottom row and of the left column, grazed by near-collinear
    ///    row-mates;
    /// 1. exact lattices (square at spacing 2.1, hex at 2.0 and 2.1), every
    ///    pair: axis-aligned chords tie offsets;
    /// 2. random scatter: 100 discs at pairwise distance ≥ 2 in a 36 × 36
    ///    box, random pairs;
    /// 3. short chords of span 3–8 through 2–13 random discs near them,
    ///    rotated and shifted.
    fn cover_test_chords(mut visit: impl FnMut(usize, Point, Point, &[Point])) {
        let mut next = unit_lcg(0x0050_07D5_C0DE);
        let mut corridor = Vec::new();
        let pick = |next: &mut dyn FnMut() -> f64, n: usize| {
            let i = (next() * n as f64) as usize % n;
            let j = (i + 1 + (next() * (n - 1) as f64) as usize % (n - 1)) % n;
            (i, j)
        };
        for _ in 0..40 {
            let centers = jittered_hex(&mut next);
            let (row, column): (Vec<usize>, Vec<usize>) =
                ((0..12).collect(), (0..12).map(|r| 12 * r).collect());
            let mut pairs: Vec<(usize, usize)> =
                (0..600).map(|_| pick(&mut next, centers.len())).collect();
            for line in [&row, &column] {
                for (x, &i) in line.iter().enumerate() {
                    pairs.extend(line[x + 1..].iter().map(|&j| (i, j)));
                }
            }
            for (i, j) in pairs {
                corridor_of(&centers, i, j, &mut corridor);
                visit(0, centers[i], centers[j], &corridor);
            }
        }
        let square: Vec<Point> = (0..144)
            .map(|i| p((i % 12) as f64 * 2.1, (i / 12) as f64 * 2.1))
            .collect();
        let hex = |spacing: f64| -> Vec<Point> {
            (0..144)
                .map(|i| {
                    let (r, c) = (i / 12, i % 12);
                    let stagger = if r % 2 == 1 { spacing / 2.0 } else { 0.0 };
                    p(
                        c as f64 * spacing + stagger,
                        r as f64 * spacing * 3f64.sqrt() / 2.0,
                    )
                })
                .collect()
        };
        for centers in [square, hex(2.0), hex(2.1)] {
            for i in 0..centers.len() {
                for j in i + 1..centers.len() {
                    corridor_of(&centers, i, j, &mut corridor);
                    visit(1, centers[i], centers[j], &corridor);
                }
            }
        }
        for _ in 0..30 {
            let mut centers: Vec<Point> = Vec::new();
            while centers.len() < 100 {
                let c = p(36.0 * next(), 36.0 * next());
                if centers.iter().all(|&d| d.distance(c) >= 2.0) {
                    centers.push(c);
                }
            }
            for _ in 0..800 {
                let (i, j) = pick(&mut next, centers.len());
                corridor_of(&centers, i, j, &mut corridor);
                visit(2, centers[i], centers[j], &corridor);
            }
        }
        for _ in 0..25_000 {
            let span = 3.0 + 5.0 * next();
            let angle = std::f64::consts::TAU * next();
            let (dir, origin) = (p(angle.cos(), angle.sin()), p(40.0 * next(), 40.0 * next()));
            let place = |t: f64, o: f64| {
                p(
                    origin.x + t * dir.x - o * dir.y,
                    origin.y + t * dir.y + o * dir.x,
                )
            };
            let count = 2 + (12.0 * next()) as usize;
            corridor.clear();
            for _ in 0..count {
                let (t, o) = (span * next(), 5.2 * (next() - 0.5));
                corridor.push(place(t, o));
            }
            visit(3, place(0.0, 0.0), place(span, 0.0), &corridor);
        }
    }

    #[test]
    fn strip_cover_certificate_always_agrees_with_the_kernel() {
        // Randomized soundness check: whenever the cover certificate fires,
        // the full witness search must say "blocked" — including under
        // endpoint perturbations within the advertised slack. Clusters are
        // hex-packed, so far pairs are genuinely blocked and the
        // certificate fires for a healthy fraction of samples (asserted, so
        // the test cannot silently go vacuous). The slack cover is also
        // tried on a *sub-slice* — the obstacles near the chord's middle —
        // and a fire there must hold for the full slice, drift included:
        // extra obstacles only block more.
        let mut next = unit_lcg(0x00C0FFEE);
        // The drift contract: blocked for ANY configuration with every
        // robot within ρ of its certification position. Spot-check
        // worst-ish drifts: endpoints pulled together/sideways AND every
        // obstacle jostled by a deterministic per-obstacle offset of norm ρ.
        let assert_blocked_under_drift = |ci: Point, cj: Point, obstacles: &[Point], what: &str| {
            let d = COVER_STABILITY_RADIUS;
            for (round, (da, db)) in [
                ((d, 0.0), (-d, 0.0)),
                ((0.0, d), (0.0, -d)),
                ((d / 2.0, d / 2.0), (-d / 2.0, d / 2.0)),
            ]
            .into_iter()
            .enumerate()
            {
                let (qi, qj) = (p(ci.x + da.0, ci.y + da.1), p(cj.x + db.0, cj.y + db.1));
                let drifted: Vec<Point> = obstacles
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| {
                        let ang = (k * 37 + round * 101) as f64;
                        p(c.x + d * ang.cos(), c.y + d * ang.sin())
                    })
                    .collect();
                assert!(
                    !disc_sees_disc_among(qi, qj, &drifted),
                    "{what} fired but a ρ-drifted configuration sees (span {})",
                    ci.distance(cj)
                );
            }
        };
        let (mut fired, mut slack_fired, mut window_fired) = (0u32, 0u32, 0u32);
        for _ in 0..25 {
            let centers = jittered_hex(&mut next);
            for _ in 0..10 {
                let i = (next() * centers.len() as f64) as usize % centers.len();
                let j = (next() * centers.len() as f64) as usize % centers.len();
                if i == j {
                    continue;
                }
                let (ci, cj) = (centers[i], centers[j]);
                let obstacles: Vec<Point> = centers
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &c)| c)
                    .collect();
                if strip_cover_blocked(ci, cj, &obstacles) {
                    fired += 1;
                    assert!(
                        !disc_sees_disc_among(ci, cj, &obstacles),
                        "strip cover fired for a pair the kernel sees (span {})",
                        ci.distance(cj)
                    );
                }
                if strip_cover_blocked_with_slack(ci, cj, &obstacles) {
                    slack_fired += 1;
                    assert_blocked_under_drift(ci, cj, &obstacles, "slack cover");
                }
                // The mid-chord window: obstacles within 2.5 of the chord's
                // middle stretch of half-length 4.
                let span = ci.distance(cj);
                let (mid, dir) = (ci.midpoint(cj), (cj - ci) / span);
                let half = dir * 4.0;
                let window = Segment::new(mid - half, mid + half);
                let middle: Vec<Point> = obstacles
                    .iter()
                    .copied()
                    .filter(|&c| window.distance_sq_to(c) <= 2.5 * 2.5)
                    .collect();
                if middle.len() < obstacles.len() && strip_cover_blocked_with_slack(ci, cj, &middle)
                {
                    window_fired += 1;
                    assert!(
                        !disc_sees_disc_among(ci, cj, &obstacles),
                        "mid-chord cover fired for a pair the full slice sees (span {span})"
                    );
                    assert_blocked_under_drift(ci, cj, &obstacles, "mid-chord cover");
                }
            }
        }
        assert!(
            fired >= 30,
            "exact cover fired only {fired} times — vacuous test"
        );
        assert!(
            slack_fired >= 15,
            "slack cover fired only {slack_fired} times — vacuous test"
        );
        assert!(
            window_fired >= 50,
            "mid-chord cover fired only {window_fired} times — vacuous test"
        );
        // At scale, every span the exact cover accepts: a fire must
        // mean the kernel finds no sight line.
        let (mut chords, mut fires) = ([0usize; 4], [0usize; 4]);
        cover_test_chords(|family, ci, cj, obstacles| {
            chords[family] += 1;
            if strip_cover_blocked(ci, cj, obstacles) {
                fires[family] += 1;
                assert!(
                    !disc_sees_disc_among(ci, cj, obstacles),
                    "{} chord {ci:?}–{cj:?}: the exact cover fired on a pair the kernel sees",
                    COVER_FAMILIES[family]
                );
            }
        });
        // Measured: 23 370, 24 270, 14 258 and 7 950 fires.
        const FIRE_FLOORS: [usize; 4] = [10_000, 10_000, 5_000, 3_000];
        assert!(chords.iter().sum::<usize>() >= 100_000, "{chords:?}");
        for (k, family) in COVER_FAMILIES.iter().enumerate() {
            assert!(
                fires[k] >= FIRE_FLOORS[k],
                "{family}: the exact cover fired {} times on {} chords — vacuous",
                fires[k],
                chords[k]
            );
        }
    }

    #[test]
    fn the_diagonal_walk_skips_only_across_gaps_wider_than_rounding() {
        let hw = UNIT_RADIUS - STRIP_COVER_SAFETY;
        let r = 1.0 + STRIP_COVER_SAFETY;
        let gap = |offsets: &[f64]| diagonal_gap(offsets.iter().copied(), hw, r);
        // Three rows whose intervals meet with a gap of `d` at ±hw: a
        // rounding-wide gap proves nothing (the clipping may close it), a
        // gap above ε leaves an uncovered ball.
        for (d, wide) in [(0.0, false), (4e-16, false), (9e-8, false), (3e-7, true)] {
            let row = 2.0 * hw + d;
            assert_eq!(gap(&[0.0, row, -row]), wide, "gap {d:e}");
            assert_eq!(gap(&[-0.0, -row, row]), wide, "gap {d:e}");
        }
        // The ends of `[−r, r]`: one central strip leaves `2ε` uncovered at
        // each; two flanking ones close it.
        assert!(gap(&[]));
        assert!(gap(&[0.0]));
        assert!(!gap(&[0.0, 0.5, -0.5]));
        // The junction of the chains: strips at ±0.9 meet across zero, at
        // ±1.1 they leave `(−0.1, 0.1)` open.
        assert!(!gap(&[0.9, -0.9]));
        assert!(gap(&[1.1, -1.1]));
        assert!(!gap(&[-0.2, 1.1, -1.1]));
        // A gap beyond `r` is outside the region's diagonal; one inside a
        // chain is not.
        assert!(!gap(&[-0.05, 0.05, 1.5, 5.0]));
        assert!(gap(&[0.0, -1.9, 2.5]));
    }

    #[test]
    fn the_diagonal_pre_check_changes_no_verdict() {
        // The exact cover with and without its pre-check, on the chords of
        // the soundness test: a skip must never cost a fire.
        let (mut skipped, mut fires) = (0usize, 0usize);
        let exact = [PairVerdict::CoverBlocked];
        cover_test_chords(|family, ci, cj, obstacles| {
            let checked = strip_cover(ci, cj, obstacles, exact, true);
            let swept = strip_cover(ci, cj, obstacles, exact, false);
            assert_eq!(
                checked, swept,
                "{} chord {ci:?}–{cj:?} among {obstacles:?}",
                COVER_FAMILIES[family]
            );
            fires += usize::from(swept.is_some());
            let axis = cj - ci;
            let (dir, span) = (axis / axis.norm(), axis.norm());
            if let Some(cover) = Cover::new(PairVerdict::CoverBlocked, span) {
                let offsets = obstacles.iter().filter_map(|&c| {
                    let w = c - ci;
                    let (t, o) = (w.dot(dir), w.dot(dir.perp_ccw()));
                    cover.uses(span, t, o).then_some(o)
                });
                let mut sorted: Vec<f64> = offsets.collect();
                sorted.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
                skipped += usize::from(diagonal_gap(
                    sorted.into_iter(),
                    cover.hw,
                    cover.diagonal.unwrap(),
                ));
            }
        });
        assert!(
            skipped >= 20_000 && fires >= 50_000,
            "the pre-check skipped {skipped} chords and the cover fired on {fires} — vacuous"
        );
    }

    #[test]
    fn one_strip_list_answers_like_one_list_per_tier() {
        // `pair_verdict` sweeps both cover tiers over one shared strip list;
        // each tier must answer exactly as it does on the list filtered
        // for it alone, and the cascade must keep the slack → exact →
        // kernel order. Scenes: the jittered hex packings of the soundness
        // test above and an exact lattice (axis-aligned chords tie
        // offsets), each with random chords, plus short random chords
        // through a random scatter of discs — there the slack tier's wider
        // end margin drops strips the exact tier keeps, so a sweep that
        // used the other tier's strips would answer differently.
        let mut tally = [0usize; 4];
        let mut check = |ci: Point, cj: Point, obstacles: &[Point]| {
            let want = if strip_cover_blocked_with_slack(ci, cj, obstacles) {
                PairVerdict::Certified
            } else if strip_cover_blocked(ci, cj, obstacles) {
                PairVerdict::CoverBlocked
            } else if disc_sees_disc_among(ci, cj, obstacles) {
                PairVerdict::Seen
            } else {
                PairVerdict::Blocked
            };
            let got = pair_verdict(ci, cj, obstacles);
            assert_eq!(got, want, "chord {ci:?}–{cj:?} among {obstacles:?}");
            tally[got as usize] += 1;
        };
        let mut next = unit_lcg(0x005E_ED0F_57A1);
        let mut scenes: Vec<Vec<Point>> = (0..25).map(|_| jittered_hex(&mut next)).collect();
        scenes.push(
            (0..144)
                .map(|i| p((i % 12) as f64 * 2.1, (i / 12) as f64 * 2.1))
                .collect(),
        );
        for centers in &scenes {
            for _ in 0..30 {
                let i = (next() * centers.len() as f64) as usize % centers.len();
                let j = (next() * centers.len() as f64) as usize % centers.len();
                if i == j {
                    continue;
                }
                let obstacles: Vec<Point> = centers
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &c)| c)
                    .collect();
                check(centers[i], centers[j], &obstacles);
            }
        }
        for _ in 0..1000 {
            let span = 8.0 + 6.0 * next();
            let count = 4 + (16.0 * next()) as usize;
            let obstacles: Vec<Point> = (0..count)
                .map(|_| p(span * next(), 4.4 * (next() - 0.5)))
                .collect();
            check(p(0.0, 0.0), p(span, 0.0), &obstacles);
        }
        let [seen, blocked, cover_blocked, certified] = tally;
        assert!(
            certified >= 15 && cover_blocked >= 15 && seen > 0 && blocked > 0,
            "verdicts seen/blocked/cover/certified = {tally:?}: a tier is barely exercised"
        );
    }

    #[test]
    #[should_panic]
    fn soa_corridor_filter_rejects_mismatched_slices() {
        let mut out = Vec::new();
        corridor_filter_soa(p(0.0, 0.0), p(1.0, 0.0), 1.0, &[0.0, 1.0], &[0.0], &mut out);
    }
}
