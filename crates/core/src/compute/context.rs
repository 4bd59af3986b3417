//! Shared geometric context for the Compute procedures.
//!
//! Each run of the local algorithm computes the robot's view hull once and
//! carries it (plus the derived `onCH` set) through the state transitions,
//! exactly as the paper has Procedure `Start` pass `onCH(V_i)` along to the
//! subsequent procedures.
//!
//! ## The scratch arena
//!
//! A [`Ctx`] owns a [`ComputeScratch`]: every buffer a decision needs — the
//! view's center list, the hull (with its construction scratch), the `onCH`
//! boundary, the auxiliary point buffer of Procedure `NotOnStraightLine`,
//! the component partition of Procedure `NotConnected` and the union-find
//! storage of the connectivity test. The engine keeps one arena per
//! simulator and moves it in and out of each `Ctx`
//! ([`Ctx::with_scratch`] / [`Ctx::into_scratch`]), so the steady-state
//! decision pipeline performs no heap allocation once the buffers are warm.
//! Multi-element queries (`touching_me`, `hull_adjacent_pairs`,
//! `hull_triples_containing`) return iterators over the scratch-backed
//! slices instead of freshly allocated `Vec`s.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::marker::PhantomData;

use fatrobots_geometry::hull::{ConvexHull, HullScratch};
use fatrobots_geometry::kernel::{EpsKernel, Kernel};
use fatrobots_geometry::{Line, Point, Segment, Vec2, UNIT_RADIUS};
use fatrobots_model::config::{gap_touches, TOUCH_TOL as MODEL_TOUCH_TOL};
use fatrobots_model::LocalView;

use crate::functions::BoundaryPartition;
use crate::params::AlgorithmParams;

/// Gap below which two robots are considered touching by the local
/// algorithm. Matches the model-layer tolerance.
pub const TOUCH_TOL: f64 = 1e-6;

/// The reusable buffers of one Compute run. Owned by the caller (the
/// simulator keeps one per engine, the sweep one per worker run) and moved
/// through [`Ctx::with_scratch`] so consecutive decisions reuse the same
/// heap storage.
#[derive(Debug, Default)]
pub struct ComputeScratch {
    /// All centers in the view, observer first.
    all: Vec<Point>,
    /// The view hull, rebuilt in place per decision.
    hull: ConvexHull,
    /// Construction buffers for the hull rebuild.
    hull_scratch: HullScratch,
    /// `onCH(V_i)` in counter-clockwise order.
    onch: Vec<Point>,
    /// Auxiliary keyed point buffer (the `onCH2` projection set of
    /// Procedure `NotOnStraightLine`, tagged with a sort key so the
    /// ordering never recomputes `atan2` inside the comparator).
    aux_points: RefCell<Vec<(f64, Point)>>,
    /// Component partition of the convergence procedures.
    partition: RefCell<BoundaryPartition>,
    /// Union-find storage of the view-connectivity test.
    parent: RefCell<Vec<usize>>,
}

/// Precomputed per-run context handed to every procedure.
///
/// The kernel parameter `K` selects the predicate policy for every
/// geometric *classification* the procedures make (hull membership,
/// touch tests, chord bands, boundary crossings). Constructed values —
/// targets, projections, step lengths — are plain `f64` arithmetic shared
/// by every kernel, so two kernels can only diverge by classifying, never
/// by constructing. The default [`EpsKernel`] is bit-identical to the
/// historical ε-tolerant code and remains the hot path.
#[derive(Debug)]
pub struct Ctx<K: Kernel = EpsKernel> {
    params: AlgorithmParams,
    me: Point,
    view_size: usize,
    /// Memoized at build time: Procedure `Start` and the band tests query
    /// this repeatedly per decision.
    me_on_hull: bool,
    /// Memoized at build time: every `outward_at` call needs it.
    interior_point: Point,
    scratch: ComputeScratch,
    _kernel: PhantomData<K>,
}

impl<K: Kernel> Ctx<K> {
    /// Builds the context for one Compute run with fresh buffers.
    pub fn new(view: &LocalView, params: AlgorithmParams) -> Self {
        Self::with_scratch(view, params, ComputeScratch::default())
    }

    /// Builds the context for one Compute run, reusing the caller's scratch
    /// arena. Recover the arena afterwards with [`Self::into_scratch`].
    pub fn with_scratch(
        view: &LocalView,
        params: AlgorithmParams,
        mut scratch: ComputeScratch,
    ) -> Self {
        let me = view.me();
        scratch.all.clear();
        scratch.all.push(me);
        scratch.all.extend_from_slice(view.others());
        scratch
            .hull
            .rebuild_with_k::<K>(&scratch.all, &mut scratch.hull_scratch);
        scratch.onch.clear();
        let (hull, onch) = (&scratch.hull, &mut scratch.onch);
        onch.extend(hull.boundary_iter());
        let me_on_hull = scratch.onch.iter().any(|p| p.approx_eq(me));
        let interior_point = Point::centroid(&scratch.onch);
        Ctx {
            params,
            me,
            view_size: view.size(),
            me_on_hull,
            interior_point,
            scratch,
            _kernel: PhantomData,
        }
    }

    /// Releases the scratch arena for reuse by the next decision.
    pub fn into_scratch(self) -> ComputeScratch {
        self.scratch
    }

    /// The algorithm parameters.
    pub fn params(&self) -> AlgorithmParams {
        self.params
    }

    /// The observing robot's own center.
    pub fn me(&self) -> Point {
        self.me
    }

    /// All centers in the view (observer included).
    pub fn all(&self) -> &[Point] {
        &self.scratch.all
    }

    /// `|V_i|`: number of robots in the view, observer included.
    pub fn view_size(&self) -> usize {
        self.view_size
    }

    /// The total number of robots `n`.
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Convex hull of the view.
    pub fn hull(&self) -> &ConvexHull {
        &self.scratch.hull
    }

    /// `onCH(V_i)`: the centers of the view on the hull boundary, in
    /// counter-clockwise order.
    pub fn onch(&self) -> &[Point] {
        &self.scratch.onch
    }

    /// `|onCH(V_i)|`.
    pub fn onch_len(&self) -> usize {
        self.scratch.onch.len()
    }

    /// `true` when the observer is on the hull of its view (memoized at
    /// context build).
    pub fn me_on_hull(&self) -> bool {
        self.me_on_hull
    }

    /// A point in the interior of the view hull (the centroid of the hull
    /// boundary points), used to orient "inside"/"outside" directions.
    /// Memoized at context build.
    pub fn interior_point(&self) -> Point {
        self.interior_point
    }

    /// `true` when the union of the view's discs is connected — the flood
    /// fill of Procedure `AllOnConvexHull`, answered from scratch-backed
    /// union-find storage. Agrees exactly with
    /// `fatrobots_model::config::is_connected` (same tangency predicate, same
    /// graph) — and therefore deliberately stays on the shared model-layer
    /// `gap_touches` predicate rather than the kernel: the model's world
    /// invariants and the local algorithm must answer connectivity
    /// identically under every kernel.
    pub fn view_connected(&self) -> bool {
        let centers = &self.scratch.all;
        let n = centers.len();
        if n <= 1 {
            return true;
        }
        let mut parent = self.scratch.parent.borrow_mut();
        parent.clear();
        parent.extend(0..n);
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
        // Conservative squared-distance prefilter: a pair provably farther
        // apart than the touch threshold (with generous float slack) skips
        // the square root; survivors run the exact reference expression.
        let reach = 2.0 * UNIT_RADIUS + 2.0 * MODEL_TOUCH_TOL;
        let reach_sq = reach * reach;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = centers[j] - centers[i];
                if d.norm_sq() > reach_sq {
                    continue;
                }
                if gap_touches(centers[i].distance(centers[j]) - 2.0 * UNIT_RADIUS) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let root = find(&mut parent, 0);
        (1..n).all(|i| find(&mut parent, i) == root)
    }

    /// Runs `f` with the auxiliary keyed-point buffer (cleared first). Used
    /// by procedures that need temporary sortable point storage without
    /// allocating.
    pub(crate) fn with_aux_points<R>(
        &self,
        f: impl FnOnce(&Ctx<K>, &mut Vec<(f64, Point)>) -> R,
    ) -> R {
        let mut aux = self.scratch.aux_points.borrow_mut();
        aux.clear();
        f(self, &mut aux)
    }

    /// Hull neighbours of the boundary point at position `i` of
    /// [`Self::onch`]: `(left, right)` exactly as
    /// [`Self::hull_neighbors_of`] reports for that point, without the
    /// boundary position scan (view points are pairwise distinct — robots
    /// are at least a diameter apart).
    pub fn onch_neighbors_at(&self, i: usize) -> Option<(Point, Point)> {
        let onch = &self.scratch.onch;
        let m = onch.len();
        if m < 2 {
            return None;
        }
        Some((onch[(i + 1) % m], onch[(i + m - 1) % m]))
    }

    /// Rebuilds the component partition of the hull boundary (Function
    /// `Connected-Components` over `onCH(V_i)`) in scratch storage and runs
    /// `f` on it together with the boundary slice.
    pub(crate) fn with_partition<R>(&self, f: impl FnOnce(&BoundaryPartition, &[Point]) -> R) -> R {
        let mut partition = self.scratch.partition.borrow_mut();
        partition.rebuild(&self.scratch.onch, self.params.gap_threshold());
        f(&partition, &self.scratch.onch)
    }

    /// Hull neighbours of a boundary point `p`: `(left, right)` where *left*
    /// is the next boundary point counter-clockwise and *right* the next
    /// clockwise (the paper's chirality convention).
    pub fn hull_neighbors_of(&self, p: Point) -> Option<(Point, Point)> {
        self.scratch.hull.neighbors_of(p)
    }

    /// Unit vector pointing from hull point `p` towards the outside of the
    /// hull: perpendicular to the chord joining `p`'s hull neighbours, on the
    /// side away from the hull interior. Falls back to the direction away
    /// from the interior point (or an arbitrary perpendicular for fully
    /// degenerate views), mirroring the paper's "if this is not possible to
    /// determine choose a random direction".
    pub fn outward_at(&self, p: Point) -> Vec2 {
        let interior = self.interior_point;
        let fallback = || {
            let d = p - interior;
            if d.is_zero() {
                Vec2::new(0.0, 1.0)
            } else {
                d.normalized()
            }
        };
        match self.hull_neighbors_of(p) {
            Some((left, right)) if left.distance(right) > f64::EPSILON => {
                let mut perp = (right - left).normalized().perp_ccw();
                let away = p - interior;
                if away.is_zero() {
                    // Degenerate hull (all points collinear): either
                    // perpendicular is "outside".
                    perp
                } else {
                    if perp.dot(away) < 0.0 {
                        perp = -perp;
                    }
                    perp
                }
            }
            _ => fallback(),
        }
    }

    /// Unit vector pointing from hull point `p` towards the inside of the
    /// hull (the negation of [`Self::outward_at`]).
    pub fn inward_at(&self, p: Point) -> Vec2 {
        -self.outward_at(p)
    }

    /// `true` when the unit discs at `a` and `b` touch (or interpenetrate,
    /// which a valid configuration never shows). The touch threshold
    /// `2·R + TOUCH_TOL` is an algorithmic clearance both kernels honor;
    /// the kernel decides the distance classification against it.
    pub fn touching(&self, a: Point, b: Point) -> bool {
        K::cmp_dist(a, b, 2.0 * UNIT_RADIUS + TOUCH_TOL) != Ordering::Greater
    }

    /// Centers of the robots in the view touching the observer, in view
    /// order.
    pub fn touching_me(&self) -> impl Iterator<Item = Point> + Clone + '_ {
        let me = self.me;
        self.scratch
            .all
            .iter()
            .copied()
            .filter(move |&q| !q.approx_eq(me) && self.touching(me, q))
    }

    /// Consecutive triples `(a, b, c)` of hull boundary points (cyclic) that
    /// contain the given point. Empty for hulls with fewer than three
    /// boundary points.
    pub fn hull_triples_containing(
        &self,
        p: Point,
    ) -> impl Iterator<Item = (Point, Point, Point)> + Clone + '_ {
        let onch = &self.scratch.onch;
        let m = onch.len();
        let count = if m < 3 { 0 } else { m };
        (0..count)
            .map(move |i| (onch[i], onch[(i + 1) % m], onch[(i + 2) % m]))
            .filter(move |&(a, b, c)| p.approx_eq(a) || p.approx_eq(b) || p.approx_eq(c))
    }

    /// Consecutive pairs of hull boundary points (the hull "sides" between
    /// adjacent robots), cyclic.
    pub fn hull_adjacent_pairs(&self) -> impl Iterator<Item = (Point, Point)> + Clone + '_ {
        let onch = &self.scratch.onch;
        let m = onch.len();
        let count = match m {
            0 | 1 => 0,
            2 => 1,
            _ => m,
        };
        (0..count).map(move |i| (onch[i], onch[(i + 1) % m]))
    }

    /// Distance from `p` to the straight line through `a` and `b`
    /// (`f64::INFINITY` when `a == b`). A constructed *value* (it feeds
    /// step-length arithmetic), so it is shared f64 math under every
    /// kernel; classifications against a band go through
    /// [`Self::within_chord_band`] instead.
    pub fn distance_to_chord(&self, p: Point, a: Point, b: Point) -> f64 {
        if a.distance(b) <= f64::EPSILON {
            f64::INFINITY
        } else {
            Line::through(a, b).distance_to(p)
        }
    }

    /// `true` when `p` lies within perpendicular distance `band` of the
    /// chord through `a` and `b` — the kernel-decided form of
    /// `distance_to_chord(p, a, b) <= band` (a degenerate chord has
    /// infinite distance and is never within any band).
    pub fn within_chord_band(&self, p: Point, a: Point, b: Point, band: f64) -> bool {
        if a.distance(b) <= f64::EPSILON {
            false
        } else {
            Line::through(a, b).cmp_distance_to_k::<K>(p, band) != Ordering::Greater
        }
    }

    /// First exit point of the ray `from → through → ∞` through the hull
    /// boundary (the paper's construction in Procedure `NotOnStraightLine`
    /// that projects interior robots onto the hull).
    pub fn ray_exit_point(&self, from: Point, through: Point) -> Option<Point> {
        let dir = (through - from).normalized();
        if dir.is_zero() {
            return None;
        }
        // A segment long enough to cross any hull we will ever see.
        let span = self.scratch.hull.perimeter().max(1.0) * 4.0 + from.distance(through);
        let far = from + dir * span;
        let seg = Segment::new(from, far);
        let mut best: Option<(f64, Point)> = None;
        for edge in self.scratch.hull.edges_iter() {
            if let Some(x) = K::segment_intersection(&seg, &edge) {
                let d = x.distance(from);
                // The exit point is the farthest crossing from the observer.
                if best.map_or(true, |(bd, _)| d > bd) {
                    best = Some((d, x));
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatrobots_model::LocalView;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square_ctx() -> Ctx {
        let me = p(0.0, 0.0);
        let others = vec![p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0), p(5.0, 5.0)];
        let view = LocalView::new(me, others, 5);
        Ctx::new(&view, AlgorithmParams::for_n(5))
    }

    #[test]
    fn context_basic_queries() {
        let ctx = square_ctx();
        assert_eq!(ctx.view_size(), 5);
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.onch_len(), 4);
        assert!(ctx.me_on_hull());
        assert_eq!(ctx.hull_adjacent_pairs().count(), 4);
        assert_eq!(ctx.hull_triples_containing(ctx.me()).count(), 3);
    }

    #[test]
    fn scratch_reuse_rebuilds_an_identical_context() {
        // Two different views decided through the same arena must see
        // exactly the state a fresh context would.
        let view_a = LocalView::new(p(0.0, 0.0), vec![p(10.0, 0.0), p(5.0, 9.0)], 3);
        let view_b = LocalView::new(
            p(5.0, 5.0),
            vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)],
            5,
        );
        let ctx_a: Ctx = Ctx::with_scratch(
            &view_a,
            AlgorithmParams::for_n(3),
            ComputeScratch::default(),
        );
        let scratch = ctx_a.into_scratch();
        let reused: Ctx = Ctx::with_scratch(&view_b, AlgorithmParams::for_n(5), scratch);
        let fresh: Ctx = Ctx::new(&view_b, AlgorithmParams::for_n(5));
        assert_eq!(reused.all(), fresh.all());
        assert_eq!(reused.onch(), fresh.onch());
        assert_eq!(reused.me_on_hull(), fresh.me_on_hull());
        assert_eq!(reused.interior_point(), fresh.interior_point());
        assert_eq!(reused.hull(), fresh.hull());
    }

    #[test]
    fn outward_direction_points_away_from_interior() {
        let ctx = square_ctx();
        let out = ctx.outward_at(p(0.0, 0.0));
        // At the (0,0) corner of the square the outward direction has
        // negative x and y components.
        assert!(out.x < 0.0 && out.y < 0.0);
        let inward = ctx.inward_at(p(0.0, 0.0));
        assert!(inward.x > 0.0 && inward.y > 0.0);
        assert!((out.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn touching_queries() {
        let me = p(0.0, 0.0);
        let view = LocalView::new(me, vec![p(2.0, 0.0), p(7.0, 0.0), p(3.0, 6.0)], 4);
        let ctx: Ctx = Ctx::new(&view, AlgorithmParams::for_n(4));
        assert!(ctx.touching(me, p(2.0, 0.0)));
        assert!(!ctx.touching(me, p(7.0, 0.0)));
        assert_eq!(ctx.touching_me().collect::<Vec<_>>(), vec![p(2.0, 0.0)]);
    }

    #[test]
    fn view_connectivity_matches_the_model_predicate() {
        use fatrobots_model::config;
        let views = [
            LocalView::new(p(0.0, 0.0), vec![p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())], 3),
            LocalView::new(p(0.0, 0.0), vec![p(10.0, 0.0), p(5.0, 8.0)], 3),
            LocalView::new(
                p(0.0, 0.0),
                vec![p(2.0, 0.0), p(10.0, 0.0), p(12.0, 0.0)],
                4,
            ),
            LocalView::new(p(3.0, 4.0), vec![], 1),
        ];
        for view in views {
            let ctx: Ctx = Ctx::new(&view, AlgorithmParams::for_n(view.n()));
            assert_eq!(
                ctx.view_connected(),
                config::is_connected(ctx.all()),
                "connectivity diverged for view at {:?}",
                view.me()
            );
        }
    }

    #[test]
    fn ray_exit_point_leaves_through_the_hull() {
        let ctx = square_ctx();
        let exit = ctx.ray_exit_point(p(0.0, 0.0), p(5.0, 5.0)).unwrap();
        assert!(exit.approx_eq(p(10.0, 10.0)));
        assert!(ctx.ray_exit_point(p(0.0, 0.0), p(0.0, 0.0)).is_none());
    }

    #[test]
    fn distance_to_degenerate_chord_is_infinite() {
        let ctx = square_ctx();
        assert!(ctx
            .distance_to_chord(p(1.0, 1.0), p(2.0, 2.0), p(2.0, 2.0))
            .is_infinite());
        assert!((ctx.distance_to_chord(p(0.0, 5.0), p(0.0, 0.0), p(10.0, 0.0)) - 5.0).abs() < 1e-9);
    }
}
