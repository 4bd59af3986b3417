//! Convex hulls of planar point sets.
//!
//! The paper computes `onCH(c_1, …, c_m)` — the subset of the input points
//! that lie **on** the convex hull (Section 3.1) — with Graham's scan. We use
//! Andrew's monotone chain, which computes the same hull. One subtlety
//! matters for faithfulness: the paper treats points that lie on a hull
//! *edge* (collinear boundary points) as being "on the convex hull" — its
//! type-2 bad configurations explicitly have four hull robots on a common
//! line. [`ConvexHull`] therefore distinguishes
//!
//! * the **corner vertices** ([`ConvexHull::vertices`]) — the minimal vertex
//!   set, no three collinear, in counter-clockwise order; and
//! * the **boundary points** ([`ConvexHull::boundary`]) — every input point
//!   lying on the hull boundary (corners *and* points interior to an edge),
//!   in counter-clockwise order along the boundary.
//!
//! The gathering algorithm's `onCH(V_i)` is the boundary-point set.

use std::cmp::Ordering;

use crate::kernel::{EpsKernel, Kernel};
use crate::point::Point;
use crate::predicates::Orientation;
use crate::segment::Segment;

/// Tolerance on segment distances for hull *boundary membership* (which
/// input points count as lying on a hull edge). An algorithmic tolerance:
/// every kernel honors it — [`EpsKernel`] with the rounded f64 distance,
/// the exact kernel by comparing the underlying polynomial exactly.
pub const BOUNDARY_TOL: f64 = 1e-7;

/// Convex hull of a point set, retaining the relationship to the input
/// points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvexHull {
    input: Vec<Point>,
    vertices: Vec<Point>,
    boundary_indices: Vec<usize>,
}

/// Reusable working storage for hull construction: the sort buffer of the
/// monotone chain, the edge-parameter tags of the boundary ordering, and
/// the per-edge rejection precomputation. Threading one of these through
/// repeated [`ConvexHull::rebuild_with`] calls keeps the steady-state hull
/// rebuild allocation-free.
#[derive(Debug, Default)]
pub struct HullScratch {
    tagged: Vec<(usize, f64, usize)>,
    edge_pre: Vec<EdgePrefilter>,
    /// Sorted, deduplicated input feeding the monotone chain.
    deduped: Vec<Point>,
}

/// The total order of the monotone chain's sort: by `x`, then `y`. Ties are
/// value-identical points, collapsed later by the dedup either way.
fn point_order(a: &Point, b: &Point) -> Ordering {
    a.x.partial_cmp(&b.x)
        .unwrap()
        .then(a.y.partial_cmp(&b.y).unwrap())
}

/// The total order of the boundary tags `(edge, t, input index)`: along the
/// boundary, with the input index as the final tie-break (exactly the order
/// a stable sort by `(edge, t)` would produce).
fn tag_order(a: &(usize, f64, usize), b: &(usize, f64, usize)) -> Ordering {
    a.0.cmp(&b.0)
        .then(a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
        .then(a.2.cmp(&b.2))
}

/// Precomputed rejection bounds for one hull edge, used by the boundary
/// ordering to discard far (point, edge) pairs with a few flops instead of
/// a full segment-distance evaluation. The bounds are conservative lower
/// bounds on the segment distance (the line distance via the cross product,
/// and the overshoot beyond either endpoint via the projection), widened by
/// a 2× safety factor, so a rejected pair provably fails the exact `1e-7`
/// test the survivors still run.
#[derive(Debug, Clone, Copy)]
struct EdgePrefilter {
    a: Point,
    b: Point,
    d: crate::point::Vec2,
    /// `2·1e-7·len`: reject when `|d × w| = len·line_dist` exceeds it.
    cross_max: f64,
    /// `-2·1e-7·len`: reject when `d·w = len·proj` falls below it.
    proj_lo: f64,
    /// `len² + 2·1e-7·len`: reject when `d·w` exceeds it.
    proj_hi: f64,
}

impl EdgePrefilter {
    /// The boundary-ordering tolerance on segment distances.
    const TOL: f64 = BOUNDARY_TOL;

    fn new(a: Point, b: Point) -> Self {
        let d = b - a;
        let len2 = d.norm_sq();
        let len = len2.sqrt();
        if len2 <= f64::EPSILON {
            // Degenerate edge: no sound rejection bound — let every point
            // through to the exact path.
            EdgePrefilter {
                a,
                b,
                d,
                cross_max: f64::INFINITY,
                proj_lo: f64::NEG_INFINITY,
                proj_hi: f64::INFINITY,
            }
        } else {
            let slack = 2.0 * Self::TOL * len;
            EdgePrefilter {
                a,
                b,
                d,
                cross_max: slack,
                proj_lo: -slack,
                proj_hi: len2 + slack,
            }
        }
    }

    /// `true` when `p` can possibly lie within [`Self::TOL`] of the edge.
    #[inline]
    fn may_touch(&self, p: Point) -> bool {
        let w = p - self.a;
        let cross = self.d.x * w.y - self.d.y * w.x;
        if cross.abs() > self.cross_max {
            return false;
        }
        let proj = self.d.dot(w);
        proj >= self.proj_lo && proj <= self.proj_hi
    }
}

/// Corner vertices of the convex hull of `points`, in counter-clockwise
/// order, with collinear boundary points removed.
///
/// Degenerate inputs are handled: fewer than three distinct points, or all
/// points collinear, yield the (at most two) extreme points.
///
/// ```
/// use fatrobots_geometry::{Point, hull::convex_hull};
/// let pts = [
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 0.0),
///     Point::new(1.0, 0.0),   // on an edge: not a corner
///     Point::new(1.0, 2.0),
///     Point::new(1.0, 0.5),   // interior
/// ];
/// assert_eq!(convex_hull(&pts).len(), 3);
/// ```
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut out = Vec::new();
    convex_hull_into(points, &mut Vec::new(), &mut out);
    out
}

/// [`convex_hull`] writing into caller-owned storage: `sorted` is the sort
/// buffer of the monotone chain, `out` receives the corner vertices. Both
/// buffers are cleared first and reused across calls without reallocating
/// once warm.
pub fn convex_hull_into(points: &[Point], sorted: &mut Vec<Point>, out: &mut Vec<Point>) {
    convex_hull_into_k::<EpsKernel>(points, sorted, out);
}

/// [`convex_hull_into`] with the chain's turn tests routed through kernel
/// `K`. The sort order and the point dedup (point *identity*, not a
/// geometric classification) are shared by all kernels.
pub fn convex_hull_into_k<K: Kernel>(
    points: &[Point],
    sorted: &mut Vec<Point>,
    out: &mut Vec<Point>,
) {
    sorted.clear();
    sorted.extend_from_slice(points);
    // Unstable sort: no allocation, and the key (x, y) is total — ties are
    // bitwise-identical points, which the dedup collapses either way.
    sorted.sort_unstable_by(point_order);
    sorted.dedup_by(|a, b| a.approx_eq(*b));
    chain_of_sorted_dedup_k::<K>(sorted, out);
}

/// The monotone chain proper: corner vertices of a point slice that is
/// already sorted by [`point_order`] and deduplicated. The turn test is the
/// kernel's policy orientation — a kept corner must be a strict
/// counter-clockwise turn. Under [`EpsKernel`] this is exactly the historic
/// `cross_of_triple(..) <= EPS` pop condition.
fn chain_of_sorted_dedup_k<K: Kernel>(sorted: &[Point], out: &mut Vec<Point>) {
    let n = sorted.len();
    out.clear();
    if n <= 2 {
        out.extend_from_slice(sorted);
        return;
    }

    let hull = out;
    // Lower hull.
    for &p in sorted.iter() {
        while hull.len() >= 2
            && K::orientation(hull[hull.len() - 2], hull[hull.len() - 1], p)
                != Orientation::CounterClockwise
        {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in sorted.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && K::orientation(hull[hull.len() - 2], hull[hull.len() - 1], p)
                != Orientation::CounterClockwise
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point equals the first
    if hull.len() < 2 {
        // All points collinear: return the two extremes.
        hull.clear();
        hull.push(sorted[0]);
        hull.push(sorted[n - 1]);
    }
}

impl ConvexHull {
    /// Builds the convex hull of `points`, remembering which input points are
    /// on the boundary.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn from_points(points: &[Point]) -> Self {
        let mut hull = ConvexHull::default();
        hull.rebuild_with(points, &mut HullScratch::default());
        hull
    }

    /// Rebuilds this hull in place from a new point set, reusing the hull's
    /// own buffers and the caller's [`HullScratch`]. Produces exactly the
    /// hull [`Self::from_points`] would; once the buffers are warm, a
    /// rebuild performs no heap allocation.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn rebuild_with(&mut self, points: &[Point], scratch: &mut HullScratch) {
        self.rebuild_with_k::<EpsKernel>(points, scratch);
    }

    /// [`Self::rebuild_with`] with the chain turn tests and the boundary
    /// membership tests routed through kernel `K`.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn rebuild_with_k<K: Kernel>(&mut self, points: &[Point], scratch: &mut HullScratch) {
        assert!(!points.is_empty(), "convex hull of an empty point set");
        self.input.clear();
        self.input.extend_from_slice(points);
        convex_hull_into_k::<K>(points, &mut scratch.deduped, &mut self.vertices);
        Self::order_boundary_into::<K>(
            &self.input,
            &self.vertices,
            scratch,
            &mut self.boundary_indices,
        );
    }

    /// Orders all input points lying on the hull boundary counter-clockwise
    /// along the boundary (corners and edge-interior points alike), writing
    /// the indices into `out`. The boundary membership test of each point
    /// is routed through kernel `K`; the [`EdgePrefilter`]
    /// rejection stays shared: its bounds carry a 2× slack over
    /// [`BOUNDARY_TOL`], so any point the exact kernel could accept (within
    /// one f64 rounding of the tolerance) still reaches the kernel test.
    fn order_boundary_into<K: Kernel>(
        points: &[Point],
        vertices: &[Point],
        scratch: &mut HullScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if vertices.len() == 1 {
            out.extend(
                points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.approx_eq(vertices[0]))
                    .map(|(i, _)| i),
            );
            return;
        }
        // For each boundary input point find (edge index, parameter along edge).
        let nv = vertices.len();
        let tagged = &mut scratch.tagged;
        tagged.clear(); // (edge, t, input index)
        let edge_count = if nv == 2 { 1 } else { nv };
        // Precompute each edge's rejection bounds once: the inner loop then
        // discards almost every (point, edge) pair with a cross product and
        // a dot product, and only the handful of survivors pay for the
        // exact segment-distance evaluation. This is where the hull spent
        // ~90% of its time before.
        let edge_pre = &mut scratch.edge_pre;
        edge_pre.clear();
        edge_pre.extend(
            (0..edge_count).map(|e| EdgePrefilter::new(vertices[e], vertices[(e + 1) % nv])),
        );
        for (idx, &p) in points.iter().enumerate() {
            if let Some((e, t)) = Self::tag_point::<K>(p, edge_pre, edge_count) {
                tagged.push((e, t, idx));
            }
        }
        // Unstable sort with the input index as the final tie-break: no
        // allocation, and exactly the order the previous stable sort
        // produced (stable sort ≡ sort by (key, original position)).
        tagged.sort_unstable_by(tag_order);
        out.extend(tagged.iter().map(|&(_, _, i)| i));
    }

    /// The boundary tag of one point: the hull edge it lies on (within the
    /// ordering tolerance) and its parameter along that edge, or `None` for
    /// points off the boundary. The `d <= BOUNDARY_TOL` membership test is
    /// decided by kernel `K`; the *ordering* between several accepted edges
    /// and the edge parameter `t` are f64 constructions shared by all
    /// kernels (the corner-snap rule is a parameter-space convention, not a
    /// geometric classification).
    fn tag_point<K: Kernel>(
        p: Point,
        edge_pre: &[EdgePrefilter],
        edge_count: usize,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (edge, t, dist)
        for (e, pre) in edge_pre.iter().enumerate() {
            if !pre.may_touch(p) {
                continue;
            }
            let (a, b) = (pre.a, pre.b);
            let seg = Segment::new(a, b);
            let d = seg.distance_to(p);
            if K::cmp_segment_dist(a, b, p, BOUNDARY_TOL) != Ordering::Greater {
                let t = if seg.length() <= f64::EPSILON {
                    0.0
                } else {
                    (p - a).dot(seg.direction()) / seg.direction().norm_sq()
                };
                match best {
                    Some((_, _, bd)) if bd <= d => {}
                    _ => best = Some((e, t.clamp(0.0, 1.0), d)),
                }
            }
        }
        best.map(|(e, t, _)| {
            // Avoid double-counting a corner as the end of one edge and
            // the start of the next: snap t≈1 to the next edge at t=0.
            if t >= 1.0 - 1e-9 && edge_count > 1 {
                ((e + 1) % edge_count, 0.0)
            } else {
                (e, t)
            }
        })
    }

    /// The corner vertices in counter-clockwise order (no three collinear).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Indices (into the input slice) of all points on the hull boundary, in
    /// counter-clockwise order along the boundary.
    pub fn boundary_indices(&self) -> &[usize] {
        &self.boundary_indices
    }

    /// All input points on the hull boundary, in counter-clockwise order.
    pub fn boundary(&self) -> Vec<Point> {
        self.boundary_iter().collect()
    }

    /// Iterator form of [`Self::boundary`]: the boundary points in
    /// counter-clockwise order, without allocating.
    pub fn boundary_iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.boundary_indices.iter().map(|&i| self.input[i])
    }

    /// `true` when input point `index` lies on the hull boundary.
    pub fn index_on_hull(&self, index: usize) -> bool {
        self.boundary_indices.contains(&index)
    }

    /// `true` when `p` lies on the hull boundary (within tolerance), whether
    /// or not it is one of the input points.
    pub fn point_on_boundary(&self, p: Point) -> bool {
        self.point_on_boundary_k::<EpsKernel>(p)
    }

    /// [`Self::point_on_boundary`] with the edge-distance tests decided by
    /// kernel `K` (single-vertex hulls use shared point identity).
    pub fn point_on_boundary_k<K: Kernel>(&self, p: Point) -> bool {
        let nv = self.vertices.len();
        match nv {
            1 => self.vertices[0].approx_eq(p),
            2 => {
                K::cmp_segment_dist(self.vertices[0], self.vertices[1], p, BOUNDARY_TOL)
                    != Ordering::Greater
            }
            _ => (0..nv).any(|e| {
                K::cmp_segment_dist(
                    self.vertices[e],
                    self.vertices[(e + 1) % nv],
                    p,
                    BOUNDARY_TOL,
                ) != Ordering::Greater
            }),
        }
    }

    /// `true` when `p` lies inside the hull or on its boundary.
    pub fn contains(&self, p: Point) -> bool {
        self.contains_k::<EpsKernel>(p)
    }

    /// [`Self::contains`] with the per-edge side tests decided by kernel
    /// `K`: `p` is inside iff no edge sees it strictly clockwise beyond the
    /// [`BOUNDARY_TOL`] band (under [`EpsKernel`] exactly the historic
    /// `cross_of_triple(..) >= -1e-7` test).
    pub fn contains_k<K: Kernel>(&self, p: Point) -> bool {
        let nv = self.vertices.len();
        match nv {
            1 => self.vertices[0].approx_eq(p),
            2 => {
                K::cmp_segment_dist(self.vertices[0], self.vertices[1], p, BOUNDARY_TOL)
                    != Ordering::Greater
            }
            _ => (0..nv).all(|e| {
                K::orientation_tol(
                    self.vertices[e],
                    self.vertices[(e + 1) % nv],
                    p,
                    BOUNDARY_TOL,
                ) != Orientation::Clockwise
            }),
        }
    }

    /// `true` when `p` lies strictly inside the hull (not on the boundary).
    pub fn contains_strict(&self, p: Point) -> bool {
        self.contains_strict_k::<EpsKernel>(p)
    }

    /// [`Self::contains_strict`] under kernel `K`.
    pub fn contains_strict_k<K: Kernel>(&self, p: Point) -> bool {
        self.contains_k::<K>(p) && !self.point_on_boundary_k::<K>(p)
    }

    /// Neighbours of boundary point `p` along the boundary ordering:
    /// `(left, right)` where *left* is the next boundary point
    /// counter-clockwise and *right* is the next boundary point clockwise.
    ///
    /// Matches the paper's convention under chirality: looking from a hull
    /// robot towards the inside of the hull, its *right* neighbour is the next
    /// robot clockwise along the hull.
    ///
    /// Returns `None` when `p` is not a boundary point or the hull has fewer
    /// than two boundary points.
    pub fn neighbors_of(&self, p: Point) -> Option<(Point, Point)> {
        let m = self.boundary_indices.len();
        if m < 2 {
            return None;
        }
        let pos = self
            .boundary_indices
            .iter()
            .position(|&i| self.input[i].approx_eq(p))?;
        let left = self.input[self.boundary_indices[(pos + 1) % m]];
        let right = self.input[self.boundary_indices[(pos + m - 1) % m]];
        Some((left, right))
    }

    /// Edges of the corner-vertex polygon as segments, in counter-clockwise
    /// order, without allocating. A two-vertex hull yields its single
    /// segment once; degenerate hulls yield nothing.
    pub fn edges_iter(&self) -> impl Iterator<Item = Segment> + '_ {
        let nv = self.vertices.len();
        let count = match nv {
            0 | 1 => 0,
            2 => 1,
            _ => nv,
        };
        (0..count).map(move |e| Segment::new(self.vertices[e], self.vertices[(e + 1) % nv]))
    }

    /// Area of the hull polygon (0 for degenerate hulls).
    pub fn area(&self) -> f64 {
        let nv = self.vertices.len();
        if nv < 3 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..nv {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % nv];
            sum += a.x * b.y - b.x * a.y;
        }
        sum.abs() / 2.0
    }

    /// Perimeter of the hull polygon.
    pub fn perimeter(&self) -> f64 {
        self.edges_iter().map(|e| e.length()).sum()
    }

    /// Outward unit normal of the boundary at the edge from `a` to `b`, where
    /// `a`, `b` are consecutive boundary points in counter-clockwise order.
    ///
    /// For a CCW polygon the outward normal of edge `a → b` is the clockwise
    /// perpendicular of the edge direction.
    pub fn outward_normal(a: Point, b: Point) -> crate::point::Vec2 {
        (b - a).normalized().perp_cw()
    }

    /// `true` when every input point lies on the hull boundary
    /// (the paper's condition `|onCH(G)| = n`).
    pub fn all_on_hull(&self) -> bool {
        self.boundary_indices.len() == self.input.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square_with_extras() -> Vec<Point> {
        vec![
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 0.0), // on bottom edge
            p(2.0, 2.0), // interior
        ]
    }

    #[test]
    fn hull_of_square() {
        let h = convex_hull(&square_with_extras());
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn boundary_includes_edge_points_but_not_interior() {
        let pts = square_with_extras();
        let hull = ConvexHull::from_points(&pts);
        assert_eq!(hull.vertices().len(), 4);
        assert_eq!(hull.boundary_indices().len(), 5);
        assert!(hull.index_on_hull(4));
        assert!(!hull.index_on_hull(5));
        assert!(!hull.all_on_hull());
    }

    #[test]
    fn boundary_order_is_cyclic_and_consistent() {
        let pts = square_with_extras();
        let hull = ConvexHull::from_points(&pts);
        let b = hull.boundary();
        assert_eq!(b.len(), 5);
        // Each consecutive pair must lie on a common hull edge.
        for w in 0..b.len() {
            let a = b[w];
            let c = b[(w + 1) % b.len()];
            assert!(a.distance(c) > 0.0);
        }
        // The edge point (2,0) must be between (0,0) and (4,0) in the cyclic order.
        let pos = |q: Point| b.iter().position(|x| x.approx_eq(q)).unwrap();
        let i00 = pos(p(0.0, 0.0));
        let i20 = pos(p(2.0, 0.0));
        let i40 = pos(p(4.0, 0.0));
        let m = b.len();
        assert!(
            (i00 + 1) % m == i20 && (i20 + 1) % m == i40
                || (i40 + 1) % m == i20 && (i20 + 1) % m == i00
        );
    }

    #[test]
    fn neighbors_on_square() {
        let pts = vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)];
        let hull = ConvexHull::from_points(&pts);
        let (left, right) = hull.neighbors_of(p(0.0, 0.0)).unwrap();
        // CCW order of the square is (0,0),(4,0),(4,4),(0,4).
        assert!(left.approx_eq(p(4.0, 0.0)));
        assert!(right.approx_eq(p(0.0, 4.0)));
        assert!(hull.neighbors_of(p(9.0, 9.0)).is_none());
    }

    #[test]
    fn containment_queries() {
        let hull = ConvexHull::from_points(&square_with_extras());
        assert!(hull.contains(p(2.0, 2.0)));
        assert!(hull.contains_strict(p(2.0, 2.0)));
        assert!(hull.contains(p(2.0, 0.0)));
        assert!(!hull.contains_strict(p(2.0, 0.0)));
        assert!(!hull.contains(p(5.0, 5.0)));
        assert!(hull.point_on_boundary(p(4.0, 2.0)));
        assert!(!hull.point_on_boundary(p(2.0, 2.0)));
    }

    #[test]
    fn area_and_perimeter() {
        let hull = ConvexHull::from_points(&square_with_extras());
        assert!((hull.area() - 16.0).abs() < 1e-9);
        assert!((hull.perimeter() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_collinear_input() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(3.0, 0.0)];
        let hull = ConvexHull::from_points(&pts);
        assert_eq!(hull.vertices().len(), 2);
        assert_eq!(hull.boundary_indices().len(), 4);
        assert!(hull.all_on_hull());
        assert_eq!(hull.area(), 0.0);
        assert!(hull.contains(p(1.5, 0.0)));
        assert!(!hull.contains(p(1.5, 1.0)));
    }

    #[test]
    fn degenerate_small_inputs() {
        let one = ConvexHull::from_points(&[p(1.0, 1.0)]);
        assert_eq!(one.vertices().len(), 1);
        assert_eq!(one.boundary_indices().len(), 1);
        assert!(one.contains(p(1.0, 1.0)));
        assert!(!one.contains(p(2.0, 1.0)));

        let two = ConvexHull::from_points(&[p(0.0, 0.0), p(2.0, 0.0)]);
        assert_eq!(two.vertices().len(), 2);
        assert_eq!(two.boundary_indices().len(), 2);
        assert_eq!(two.edges_iter().count(), 1);
    }

    #[test]
    fn vertices_are_counter_clockwise() {
        let pts = vec![
            p(0.0, 0.0),
            p(3.0, 1.0),
            p(4.0, 4.0),
            p(1.0, 3.0),
            p(2.0, 2.0),
        ];
        let hull = ConvexHull::from_points(&pts);
        let v = hull.vertices();
        let mut area2 = 0.0;
        for i in 0..v.len() {
            let a = v[i];
            let b = v[(i + 1) % v.len()];
            area2 += a.x * b.y - b.x * a.y;
        }
        assert!(area2 > 0.0, "vertices must be in CCW order");
    }

    #[test]
    fn outward_normal_points_out() {
        let pts = vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)];
        let hull = ConvexHull::from_points(&pts);
        // Bottom edge (0,0)->(4,0): outward normal should point to -y.
        let n = ConvexHull::outward_normal(p(0.0, 0.0), p(4.0, 0.0));
        assert!(n.y < 0.0);
        let inside = p(2.0, 2.0);
        assert!(hull.contains(inside));
        assert!(!hull.contains(inside + n * 10.0));
    }

    #[test]
    fn rebuild_with_matches_from_points_across_shapes() {
        let mut hull = ConvexHull::default();
        let mut scratch = HullScratch::default();
        let inputs: Vec<Vec<Point>> = vec![
            square_with_extras(),
            vec![p(1.0, 1.0)],
            vec![p(0.0, 0.0), p(2.0, 0.0)],
            vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(3.0, 0.0)],
            vec![
                p(0.0, 0.0),
                p(3.0, 1.0),
                p(4.0, 4.0),
                p(1.0, 3.0),
                p(2.0, 2.0),
            ],
        ];
        // One hull + one scratch reused across every rebuild must always
        // reproduce the from-scratch construction exactly.
        for pts in &inputs {
            hull.rebuild_with(pts, &mut scratch);
            assert_eq!(hull, ConvexHull::from_points(pts));
        }
    }

    #[test]
    fn iterator_accessors_match_their_vec_forms() {
        let hull = ConvexHull::from_points(&square_with_extras());
        assert_eq!(hull.boundary_iter().collect::<Vec<_>>(), hull.boundary());
        let corners = hull.vertices();
        let closed = corners.iter().zip(corners.iter().cycle().skip(1));
        let edges: Vec<Segment> = closed.map(|(&a, &b)| Segment::new(a, b)).collect();
        assert_eq!(hull.edges_iter().collect::<Vec<_>>(), edges);
        let two = ConvexHull::from_points(&[p(0.0, 0.0), p(2.0, 0.0)]);
        assert_eq!(two.edges_iter().count(), 1);
        let one = ConvexHull::from_points(&[p(1.0, 1.0)]);
        assert_eq!(one.edges_iter().count(), 0);
    }

    #[test]
    fn all_on_hull_detects_convex_position() {
        let pts = vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)];
        assert!(ConvexHull::from_points(&pts).all_on_hull());
        let mut with_interior = pts.clone();
        with_interior.push(p(2.0, 2.0));
        assert!(!ConvexHull::from_points(&with_interior).all_on_hull());
    }
}
