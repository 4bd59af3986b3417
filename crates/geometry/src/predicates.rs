//! ε-tolerant geometric predicates.
//!
//! All fuzzy comparisons in the workspace funnel through this module so that
//! the tolerance policy lives in one place.

use crate::point::Point;

/// Default comparison tolerance used by the geometric predicates.
///
/// The gathering algorithm's own tolerances (`1/n`, `1/2n`, see the paper's
/// Section 3–4) are at least six orders of magnitude larger than this for any
/// realistic number of robots, so predicate noise never flips an algorithmic
/// decision.
pub const EPS: f64 = 1e-9;

/// Result of an orientation query for the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The triple makes a left turn (counter-clockwise).
    CounterClockwise,
    /// The triple makes a right turn (clockwise).
    Clockwise,
    /// The three points are collinear (within tolerance).
    Collinear,
}

/// `true` when `a` and `b` differ by at most [`EPS`].
///
/// ```
/// use fatrobots_geometry::predicates::approx_eq;
/// assert!(approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!approx_eq(1.0, 1.001));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// `true` when `a` and `b` differ by at most `tol`.
#[inline]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Twice the signed area of triangle `(a, b, c)`.
///
/// Positive for a counter-clockwise (left) turn, negative for clockwise.
#[inline]
pub fn cross_of_triple(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Orientation of the ordered triple `(a, b, c)` with tolerance `tol` on the
/// doubled signed area.
pub fn orientation_tol(a: Point, b: Point, c: Point, tol: f64) -> Orientation {
    let cr = cross_of_triple(a, b, c);
    if cr > tol {
        Orientation::CounterClockwise
    } else if cr < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Orientation of the ordered triple `(a, b, c)` with the default tolerance.
///
/// ```
/// use fatrobots_geometry::{Point, predicates::{orientation, Orientation}};
/// let o = orientation(Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(1.0, 1.0));
/// assert_eq!(o, Orientation::CounterClockwise);
/// ```
pub fn orientation(a: Point, b: Point, c: Point) -> Orientation {
    orientation_tol(a, b, c, EPS)
}

/// `true` when the three points are collinear within the default tolerance.
pub fn collinear(a: Point, b: Point, c: Point) -> bool {
    orientation(a, b, c) == Orientation::Collinear
}

/// Clamp `v` into `[lo, hi]`.
///
/// Contract: requires `lo <= hi` (checked in debug builds). For finite `v`
/// the result is `lo` when `v < lo`, `hi` when `v > hi`, and `v` otherwise
/// — numerically equal to the previous `v.max(lo).min(hi)` for every
/// non-NaN input (`-0.0` at a `0.0` bound keeps its sign bit here, which
/// compares equal everywhere downstream). A NaN `v` clamps to `lo`: the old
/// chain silently resolved NaN to `hi` (both `max` and `min` prefer the
/// non-NaN operand, so NaN fell through to the upper bound), which turned
/// a poisoned segment parameter into "the far endpoint". Callers clamp
/// ratios whose degenerate form is `0/0 → t = 0` (start of segment), so
/// `lo` is the conservative resolution — and a debug assertion flags the
/// poisoned input rather than letting it propagate silently.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp with inverted bounds: [{lo}, {hi}]");
    debug_assert!(!v.is_nan(), "clamp called with NaN");
    if v < lo {
        lo
    } else if v > hi {
        hi
    } else if v.is_nan() {
        lo
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + EPS / 2.0));
        assert!(!approx_eq(1.0, 1.0 + 10.0 * EPS));
    }

    #[test]
    fn orientation_turns() {
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(2.0, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orientation_is_antisymmetric() {
        let a = p(0.3, 1.7);
        let b = p(-2.0, 0.4);
        let c = p(5.5, -3.3);
        let o1 = orientation(a, b, c);
        let o2 = orientation(a, c, b);
        assert_ne!(o1, Orientation::Collinear);
        assert_ne!(o1, o2);
    }

    #[test]
    fn cross_of_triple_signed_area() {
        // Unit right triangle has area 1/2, doubled signed area 1.
        assert!((cross_of_triple(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_works() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        // Boundary values pass through exactly; signed zero is preserved.
        assert_eq!(clamp(0.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(1.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-0.0, 0.0, 1.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamp_resolves_nan_to_the_lower_bound() {
        // Release-mode contract: NaN → lo (debug builds assert instead).
        assert_eq!(clamp(f64::NAN, 0.0, 1.0), 0.0);
    }

    #[test]
    fn collinear_with_tolerance_band() {
        // Slightly off the line but inside EPS on the cross product.
        let c = p(2.0, 1e-12);
        assert!(collinear(p(0.0, 0.0), p(1.0, 0.0), c));
    }
}
