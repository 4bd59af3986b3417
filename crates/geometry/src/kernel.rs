//! Geometric predicate kernels.
//!
//! Every *classification* the gathering pipeline makes — orientation of a
//! triple, "is this point within `r` of that segment/chord", "do these
//! segments intersect" — is answered through a [`Kernel`]. Two kernels are
//! provided:
//!
//! * [`EpsKernel`] — the production hot path: the ε-tolerant f64 predicates
//!   of [`crate::predicates`], bit-identical to the pre-kernel code. This is
//!   the default kernel everywhere (`Ctx<K = EpsKernel>` in the core crate),
//!   so the refactor costs the hot path nothing.
//! * [`ExactKernel`] — adaptive-precision exact arithmetic (Shewchuk-style
//!   floating-point expansions built from f64 mantissa decomposition; no
//!   external crates). Each predicate first evaluates a cheap f64 filter
//!   with a conservative forward error bound and only falls back to the
//!   exact expansion computation when the filter cannot certify the sign.
//!   Explicit *algorithmic* tolerances (the paper's `1/n` band, the hull
//!   boundary tolerance `1e-7`, the touch tolerance `1e-6`) are still
//!   honored — exactly: the underlying polynomial is evaluated exactly and
//!   compared against the tolerance without rounding.
//!
//! The [`shadow`] submodule adds a third kernel that evaluates *both* and
//! tallies their disagreements per predicate site — the instrument behind
//! the sim crate's `ShadowExecutor`.
//!
//! ## What kernels do (and do not) decide
//!
//! Kernels govern sign/threshold *predicates on polynomial quantities* of
//! the input points. Derived f64 *constructions* (step targets, projected
//! points, normalized directions, square-root distances used as magnitudes)
//! are shared by all kernels: exact arithmetic cannot un-round a
//! constructed coordinate, and re-deriving them symbolically is outside the
//! scope of this oracle. Consequently two kernels produce *bitwise equal*
//! move targets whenever all predicate verdicts along the decision path
//! agree — which is exactly what makes decision divergence a faithful
//! "the ε-tolerance changed the outcome" signal.

use std::cmp::Ordering;

use crate::point::Point;
use crate::predicates::{self, Orientation};
use crate::segment::Segment;

pub mod expansion;
pub mod shadow;

use expansion::Expansion;

/// A family of geometric predicate implementations.
///
/// All methods are associated functions on zero-sized marker types, so a
/// kernel-generic call compiles to a direct (inlinable) call — selecting
/// [`EpsKernel`] is free.
pub trait Kernel:
    Copy + Clone + Default + std::fmt::Debug + PartialEq + Eq + Send + Sync + 'static
{
    /// Short human-readable kernel name (for logs and reports).
    const NAME: &'static str;

    /// Orientation of the triple `(a, b, c)` under the kernel's *policy*
    /// collinearity width (ε on the doubled triangle area for
    /// [`EpsKernel`]; the exact sign for [`ExactKernel`]).
    fn orientation(a: Point, b: Point, c: Point) -> Orientation;

    /// Orientation of `(a, b, c)` against an explicit algorithmic tolerance
    /// `tol ≥ 0` on the doubled triangle area. Both kernels honor `tol`;
    /// [`ExactKernel`] evaluates the cross product exactly before comparing.
    fn orientation_tol(a: Point, b: Point, c: Point, tol: f64) -> Orientation;

    /// `|p − q|` compared with `r` (`r ≥ 0`). [`EpsKernel`] compares the
    /// rounded Euclidean distance (matching the pre-kernel call sites);
    /// [`ExactKernel`] compares `|p − q|²` with `r²` exactly.
    fn cmp_dist(p: Point, q: Point, r: f64) -> Ordering;

    /// Distance from `p` to the segment `ab` compared with `r` (`r ≥ 0`),
    /// in the *square-root* form `dist(p, ab) <=> r` used by the hull
    /// boundary tagging and circle blocking tests.
    fn cmp_segment_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering;

    /// Distance from `p` to the infinite line through `a` and `b` compared
    /// with `r` (`r ≥ 0`): the chord-band test of Procedure
    /// `NotAllOnConvexHull` and the tangent-line side test of the
    /// visibility kernel. Degenerate `a == b` falls back to point distance.
    fn cmp_line_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering;

    /// Intersection point of two non-parallel segments, if it lies on both
    /// (the classification mirrors [`Segment::intersection`]; the returned
    /// point is always the shared f64 construction).
    fn segment_intersection(s1: &Segment, s2: &Segment) -> Option<Point>;
}

/// The production ε-tolerant kernel: every method is the exact code the
/// pre-kernel call sites ran, so routing through `EpsKernel` is
/// bit-identical (pinned by the event-for-event determinism harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpsKernel;

impl Kernel for EpsKernel {
    const NAME: &'static str = "eps";

    #[inline]
    fn orientation(a: Point, b: Point, c: Point) -> Orientation {
        predicates::orientation(a, b, c)
    }

    #[inline]
    fn orientation_tol(a: Point, b: Point, c: Point, tol: f64) -> Orientation {
        predicates::orientation_tol(a, b, c, tol)
    }

    #[inline]
    fn cmp_dist(p: Point, q: Point, r: f64) -> Ordering {
        p.distance(q).partial_cmp(&r).unwrap_or(Ordering::Equal)
    }

    #[inline]
    fn cmp_segment_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        Segment::new(a, b)
            .distance_to(p)
            .partial_cmp(&r)
            .unwrap_or(Ordering::Equal)
    }

    #[inline]
    fn cmp_line_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        // Exactly `Line::through(a, b).distance_to(p)`; callers guard
        // near-coincident chord endpoints themselves (the exact-zero branch
        // only protects against a 0/0 NaN).
        let d = b - a;
        let dist = if d.norm_sq() == 0.0 {
            p.distance(a)
        } else {
            (d.cross(p - a) / d.norm()).abs()
        };
        dist.partial_cmp(&r).unwrap_or(Ordering::Equal)
    }

    #[inline]
    fn segment_intersection(s1: &Segment, s2: &Segment) -> Option<Point> {
        s1.intersection(s2)
    }
}

/// Exact-arithmetic kernel.
///
/// Predicates are decided by the *sign of an exactly evaluated polynomial*
/// in the input coordinates (cross products, squared distances), computed
/// with floating-point expansions — sums of non-overlapping f64 components
/// whose mathematical sum is exact. A cheap f64 evaluation with a
/// conservative forward error bound answers the common, far-from-degenerate
/// case; the expansion path runs only when the f64 margin cannot certify
/// the sign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactKernel;

/// Machine epsilon halved: the unit roundoff `u = 2⁻⁵³`, the per-operation
/// relative error bound of round-to-nearest f64 arithmetic.
const U: f64 = f64::EPSILON / 2.0;

/// Exact sign of `cross_of_triple(a, b, c)` — Shewchuk's `orient2d`.
fn exact_cross_sign(a: Point, b: Point, c: Point) -> Ordering {
    // f64 filter with the standard orient2d error bound.
    let detleft = (b.x - a.x) * (c.y - a.y);
    let detright = (b.y - a.y) * (c.x - a.x);
    let det = detleft - detright;
    let detsum = detleft.abs() + detright.abs();
    let errbound = (3.0 + 16.0 * U) * U * detsum;
    if det > errbound {
        return Ordering::Greater;
    }
    if det < -errbound {
        return Ordering::Less;
    }
    exact_cross_expansion(a, b, c).sign()
}

/// The cross product `(b−a) × (c−a)` as an exact expansion.
fn exact_cross_expansion(a: Point, b: Point, c: Point) -> Expansion {
    let bax = Expansion::from_diff(b.x, a.x);
    let bay = Expansion::from_diff(b.y, a.y);
    let cax = Expansion::from_diff(c.x, a.x);
    let cay = Expansion::from_diff(c.y, a.y);
    bax.mul(&cay).sub(&bay.mul(&cax))
}

/// Exact `|p − q|²` as an expansion.
fn exact_dist_sq(p: Point, q: Point) -> Expansion {
    let dx = Expansion::from_diff(p.x, q.x);
    let dy = Expansion::from_diff(p.y, q.y);
    dx.mul(&dx).add(&dy.mul(&dy))
}

/// Exact sign of `|p − q|² − r²`.
fn exact_cmp_dist(p: Point, q: Point, r: f64) -> Ordering {
    // Filter: the f64 evaluation of dsq − r² has relative error ≲ 5u on a
    // magnitude bounded by dsq + r²; certify when the margin clears it.
    let dsq = (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y);
    let rsq = r * r;
    let diff = dsq - rsq;
    let errbound = 8.0 * U * (dsq.abs() + rsq.abs());
    if diff > errbound {
        return Ordering::Greater;
    }
    if diff < -errbound {
        return Ordering::Less;
    }
    exact_dist_sq(p, q)
        .sub(&Expansion::from_product(r, r))
        .sign()
}

impl ExactKernel {
    /// Exact sign of `t`-numerator/range tests for a segment parameter
    /// `t = num / den`: returns whether `t ∈ [0, 1]`, decided without the
    /// division (`den != 0`).
    fn param_in_unit_range(num: &Expansion, den: &Expansion) -> bool {
        let ds = den.sign();
        debug_assert_ne!(ds, Ordering::Equal);
        let ns = num.sign();
        // t >= 0 ⟺ num and den share a sign (or num == 0).
        let nonneg = ns == Ordering::Equal || ns == ds;
        if !nonneg {
            return false;
        }
        // t <= 1 ⟺ den − num has the sign of den (or is 0).
        let rs = den.sub(num).sign();
        rs == Ordering::Equal || rs == ds
    }
}

impl Kernel for ExactKernel {
    const NAME: &'static str = "exact";

    fn orientation(a: Point, b: Point, c: Point) -> Orientation {
        match exact_cross_sign(a, b, c) {
            Ordering::Greater => Orientation::CounterClockwise,
            Ordering::Less => Orientation::Clockwise,
            Ordering::Equal => Orientation::Collinear,
        }
    }

    fn orientation_tol(a: Point, b: Point, c: Point, tol: f64) -> Orientation {
        if tol == 0.0 {
            return Self::orientation(a, b, c);
        }
        // Filter on the f64 cross value: certify when |cr| clears tol by
        // more than the forward error of the f64 evaluation.
        let detleft = (b.x - a.x) * (c.y - a.y);
        let detright = (b.y - a.y) * (c.x - a.x);
        let det = detleft - detright;
        let err = (3.0 + 16.0 * U) * U * (detleft.abs() + detright.abs());
        if det - tol > err {
            return Orientation::CounterClockwise;
        }
        if det + tol < -err {
            return Orientation::Clockwise;
        }
        if det.abs() + err < tol {
            return Orientation::Collinear;
        }
        let cross = exact_cross_expansion(a, b, c);
        if cross.sub(&Expansion::from(tol)).sign() == Ordering::Greater {
            Orientation::CounterClockwise
        } else if cross.add(&Expansion::from(tol)).sign() == Ordering::Less {
            Orientation::Clockwise
        } else {
            Orientation::Collinear
        }
    }

    fn cmp_dist(p: Point, q: Point, r: f64) -> Ordering {
        exact_cmp_dist(p, q, r)
    }

    fn cmp_segment_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        // dist <=> r decided as dist² <=> r² with r² as the *exact* product
        // (not fl(r·r)), so the verdict is exact in the given r.
        exact_segment_cmp(a, b, p, &Expansion::from_product(r, r))
    }

    fn cmp_line_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        let v_sq = exact_dist_sq(a, b);
        if v_sq.sign() == Ordering::Equal {
            return exact_cmp_dist(p, a, r);
        }
        // dist = |v × u| / |v| <=> r  ⟺  (v × u)² <=> r²·|v|².
        let cross = exact_cross_expansion(a, b, p);
        let lhs = cross.mul(&cross);
        let rhs = Expansion::from_product(r, r).mul(&v_sq);
        lhs.sub(&rhs).sign()
    }

    fn segment_intersection(s1: &Segment, s2: &Segment) -> Option<Point> {
        // denom = d1 × d2 with exact coordinate differences; an exactly
        // zero denom means parallel → no (proper) intersection.
        let d1x = Expansion::from_diff(s1.b.x, s1.a.x);
        let d1y = Expansion::from_diff(s1.b.y, s1.a.y);
        let d2x = Expansion::from_diff(s2.b.x, s2.a.x);
        let d2y = Expansion::from_diff(s2.b.y, s2.a.y);
        let denom = d1x.mul(&d2y).sub(&d1y.mul(&d2x));
        if denom.sign() == Ordering::Equal {
            return None;
        }
        let wx = Expansion::from_diff(s2.a.x, s1.a.x);
        let wy = Expansion::from_diff(s2.a.y, s1.a.y);
        let t_num = wx.mul(&d2y).sub(&wy.mul(&d2x));
        let u_num = wx.mul(&d1y).sub(&wy.mul(&d1x));
        if Self::param_in_unit_range(&t_num, &denom) && Self::param_in_unit_range(&u_num, &denom) {
            // The intersection *point* is a construction: reuse the f64 one
            // (same formula as `Segment::intersection`).
            let d1 = s1.direction();
            let d2 = s2.direction();
            let den = d1.cross(d2);
            let t = (s2.a - s1.a).cross(d2) / den;
            Some(s1.point_at(predicates::clamp(t, 0.0, 1.0)))
        } else {
            None
        }
    }
}

/// Exact `dist(p, segment ab)² <=> r_sq` via case analysis on the clamped
/// projection parameter — the same region decomposition
/// [`Segment::closest_point_to`] rounds through, decided exactly:
///
/// * `(p−a)·(b−a) ≤ 0` → the closest point is `a`: compare `|p−a|²`;
/// * `(p−b)·(b−a) ≥ 0` → the closest point is `b`: compare `|p−b|²`;
/// * otherwise the interior: compare `((b−a) × (p−a))²` with
///   `r_sq · |b−a|²`.
fn exact_segment_cmp(a: Point, b: Point, p: Point, r_sq: &Expansion) -> Ordering {
    let vx = Expansion::from_diff(b.x, a.x);
    let vy = Expansion::from_diff(b.y, a.y);
    let v_sq = vx.mul(&vx).add(&vy.mul(&vy));
    let ux = Expansion::from_diff(p.x, a.x);
    let uy = Expansion::from_diff(p.y, a.y);
    let u_sq = || ux.mul(&ux).add(&uy.mul(&uy));
    if v_sq.sign() == Ordering::Equal {
        return u_sq().sub(r_sq).sign();
    }
    let dot_a = ux.mul(&vx).add(&uy.mul(&vy));
    if dot_a.sign() != Ordering::Greater {
        return u_sq().sub(r_sq).sign();
    }
    let wx = Expansion::from_diff(p.x, b.x);
    let wy = Expansion::from_diff(p.y, b.y);
    let dot_b = wx.mul(&vx).add(&wy.mul(&vy));
    if dot_b.sign() != Ordering::Less {
        let w_sq = wx.mul(&wx).add(&wy.mul(&wy));
        return w_sq.sub(r_sq).sign();
    }
    let cross = vx.mul(&uy).sub(&vy.mul(&ux));
    cross.mul(&cross).sub(&r_sq.mul(&v_sq)).sign()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::EPS;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn eps_kernel_matches_free_predicates() {
        let (a, b, c) = (p(0.0, 0.0), p(4.0, 0.0), p(2.0, 3.0));
        assert_eq!(
            EpsKernel::orientation(a, b, c),
            predicates::orientation(a, b, c)
        );
        assert_eq!(
            EpsKernel::orientation_tol(a, b, c, 1e-7),
            predicates::orientation_tol(a, b, c, 1e-7)
        );
        assert_eq!(EpsKernel::cmp_dist(a, b, 4.0), Ordering::Equal);
        assert_eq!(EpsKernel::cmp_dist(a, b, 5.0), Ordering::Less);
        assert_eq!(EpsKernel::cmp_segment_dist(a, b, c, 3.0), Ordering::Equal);
        assert_eq!(EpsKernel::cmp_line_dist(a, b, c, 2.0), Ordering::Greater);
    }

    #[test]
    fn exact_orientation_on_clear_triples() {
        let (a, b, c) = (p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0));
        assert_eq!(
            ExactKernel::orientation(a, b, c),
            Orientation::CounterClockwise
        );
        assert_eq!(ExactKernel::orientation(a, c, b), Orientation::Clockwise);
        assert_eq!(
            ExactKernel::orientation(a, b, p(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn exact_orientation_resolves_sub_eps_offsets() {
        // A perpendicular offset of 1e-12 is far below EPS = 1e-9: the ε
        // kernel calls this collinear, the exact kernel does not.
        let (a, b) = (p(0.0, 0.0), p(1.0, 0.0));
        let c = p(0.5, 1e-12);
        assert_eq!(EpsKernel::orientation(a, b, c), Orientation::Collinear);
        assert_eq!(
            ExactKernel::orientation(a, b, c),
            Orientation::CounterClockwise
        );
    }

    #[test]
    fn exact_orientation_is_antisymmetric_at_ulp_scale() {
        // Near-collinear triple whose f64 cross is pure rounding noise.
        let a = p(0.1, 0.1);
        let b = p(0.30000000000000004, 0.30000000000000004);
        let c = p(0.5000000000000001, 0.5000000000000002);
        let abc = ExactKernel::orientation(a, b, c);
        let bac = ExactKernel::orientation(b, a, c);
        let cyc = ExactKernel::orientation(b, c, a);
        assert_eq!(abc, cyc, "cyclic permutation must preserve orientation");
        match (abc, bac) {
            (Orientation::Collinear, Orientation::Collinear) => {}
            (Orientation::CounterClockwise, Orientation::Clockwise) => {}
            (Orientation::Clockwise, Orientation::CounterClockwise) => {}
            other => panic!("swap must flip orientation, got {other:?}"),
        }
    }

    #[test]
    fn exact_cmp_dist_decides_squared_ties() {
        assert_eq!(
            ExactKernel::cmp_dist(p(0.0, 0.0), p(3.0, 4.0), 5.0),
            Ordering::Equal
        );
        assert_eq!(
            ExactKernel::cmp_dist(p(0.0, 0.0), p(3.0, 4.0), 5.0 + 1e-12),
            Ordering::Less
        );
        // 1ulp above 5.0: the squared comparison still resolves it.
        let r = f64::from_bits(5.0f64.to_bits() + 1);
        assert_eq!(
            ExactKernel::cmp_dist(p(0.0, 0.0), p(3.0, 4.0), r),
            Ordering::Less
        );
    }

    #[test]
    fn exact_segment_cmp_covers_all_regions() {
        let (a, b) = (p(0.0, 0.0), p(4.0, 0.0));
        // Endpoint region (before a).
        assert_eq!(
            ExactKernel::cmp_segment_dist(a, b, p(-3.0, 4.0), 5.0),
            Ordering::Equal
        );
        // Endpoint region (past b).
        assert_eq!(
            ExactKernel::cmp_segment_dist(a, b, p(7.0, 4.0), 5.0),
            Ordering::Equal
        );
        // Interior region.
        assert_eq!(
            ExactKernel::cmp_segment_dist(a, b, p(2.0, 3.0), 3.0),
            Ordering::Equal
        );
        assert_eq!(
            ExactKernel::cmp_segment_dist(a, b, p(2.0, 3.0), 2.5),
            Ordering::Greater
        );
        // Degenerate segment.
        assert_eq!(
            ExactKernel::cmp_segment_dist(a, a, p(3.0, 4.0), 5.0),
            Ordering::Equal
        );
    }

    #[test]
    fn exact_line_dist_is_a_side_agnostic_chord_test() {
        let (a, b) = (p(0.0, 0.0), p(10.0, 0.0));
        assert_eq!(
            ExactKernel::cmp_line_dist(a, b, p(5.0, 0.25), 0.25),
            Ordering::Equal
        );
        assert_eq!(
            ExactKernel::cmp_line_dist(a, b, p(5.0, -0.25), 0.25),
            Ordering::Equal
        );
        assert_eq!(
            ExactKernel::cmp_line_dist(a, b, p(500.0, 0.2), 0.25),
            Ordering::Less
        );
    }

    #[test]
    fn exact_segment_intersection_agrees_on_clear_crossings() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 2.0));
        let s2 = Segment::new(p(0.0, 2.0), p(2.0, 0.0));
        let x = ExactKernel::segment_intersection(&s1, &s2).unwrap();
        assert!(x.approx_eq(p(1.0, 1.0)));
        assert_eq!(
            ExactKernel::segment_intersection(&s1, &s2),
            EpsKernel::segment_intersection(&s1, &s2)
        );
        let s3 = Segment::new(p(5.0, 5.0), p(6.0, 6.0));
        assert!(ExactKernel::segment_intersection(&s1, &s3).is_none());
    }

    #[test]
    fn kernels_agree_far_from_degeneracy() {
        // A coarse deterministic sweep; the statistical version lives in the
        // geometry proptests.
        let pts = [
            p(0.0, 0.0),
            p(3.0, 1.0),
            p(1.0, 4.0),
            p(-2.0, 2.5),
            p(5.0, -1.0),
        ];
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    let cr = predicates::cross_of_triple(a, b, c);
                    if cr.abs() > 10.0 * EPS {
                        assert_eq!(
                            EpsKernel::orientation(a, b, c),
                            ExactKernel::orientation(a, b, c),
                            "{a} {b} {c}"
                        );
                    }
                }
            }
        }
    }
}
