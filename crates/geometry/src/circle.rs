//! Circles and unit discs.

use crate::point::{Point, Vec2};
use crate::predicates::{approx_eq, EPS};
use crate::segment::Segment;

/// Radius of the robots' unit discs (the paper's "fat robots" are closed
/// discs of radius 1).
pub const UNIT_RADIUS: f64 = 1.0;

/// A circle (equivalently, the closed disc it bounds).
///
/// ```
/// use fatrobots_geometry::{Circle, Point, Segment};
/// let c = Circle::unit(Point::new(0.0, 0.0));
/// let chord = Segment::new(Point::new(-3.0, 0.0), Point::new(3.0, 0.0));
/// assert_eq!(c.intersect_segment(&chord).len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius of the circle (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from center and radius.
    ///
    /// # Panics
    /// Panics in debug builds if `radius` is negative.
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "circle radius must be non-negative");
        Circle { center, radius }
    }

    /// A unit disc (radius [`UNIT_RADIUS`]) centred at `center`.
    pub fn unit(center: Point) -> Self {
        Circle::new(center, UNIT_RADIUS)
    }

    /// The point of the circle boundary closest to `p` (for `p` different
    /// from the center). For `p == center`, an arbitrary boundary point is
    /// returned.
    pub fn boundary_point_towards(&self, p: Point) -> Point {
        let d = p - self.center;
        if d.is_zero() {
            self.center + Vec2::new(self.radius, 0.0)
        } else {
            self.center + d.normalized() * self.radius
        }
    }

    /// Intersection points of the circle with the supporting line of `seg`
    /// restricted to the segment. Returns 0, 1 or 2 points.
    pub fn intersect_segment(&self, seg: &Segment) -> Vec<Point> {
        let d = seg.direction();
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return if approx_eq(seg.a.distance(self.center), self.radius) {
                vec![seg.a]
            } else {
                vec![]
            };
        }
        let f = seg.a - self.center;
        let a = len_sq;
        let b = 2.0 * f.dot(d);
        let c = f.norm_sq() - self.radius * self.radius;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return vec![];
        }
        let sqrt_disc = disc.sqrt();
        let mut out = Vec::new();
        for t in [(-b - sqrt_disc) / (2.0 * a), (-b + sqrt_disc) / (2.0 * a)] {
            if (-EPS..=1.0 + EPS).contains(&t) {
                let p = seg.point_at(t.clamp(0.0, 1.0));
                if out.iter().all(|q: &Point| !q.approx_eq(p)) {
                    out.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn boundary_points() {
        let c = Circle::unit(p(0.0, 0.0));
        assert!(c.boundary_point_towards(p(5.0, 0.0)).approx_eq(p(1.0, 0.0)));
        // Degenerate: p == center still yields a boundary point.
        assert!((c.boundary_point_towards(p(0.0, 0.0)).distance(c.center) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_circle_intersection() {
        let c = Circle::unit(p(0.0, 0.0));
        let seg = Segment::new(p(-3.0, 0.0), p(3.0, 0.0));
        let pts = c.intersect_segment(&seg);
        assert_eq!(pts.len(), 2);
        let tangent = Segment::new(p(-3.0, 1.0), p(3.0, 1.0));
        assert_eq!(c.intersect_segment(&tangent).len(), 1);
        let outside = Segment::new(p(-3.0, 5.0), p(3.0, 5.0));
        assert!(c.intersect_segment(&outside).is_empty());
        let short = Segment::new(p(0.0, 0.0), p(0.5, 0.0));
        assert!(c.intersect_segment(&short).is_empty());
    }
}
