//! Circles and unit discs.

use crate::point::{Point, Vec2};
use crate::predicates::{approx_eq, approx_eq_tol, EPS};
use crate::segment::Segment;

/// Radius of the robots' unit discs (the paper's "fat robots" are closed
/// discs of radius 1).
pub const UNIT_RADIUS: f64 = 1.0;

/// A circle (equivalently, the closed disc it bounds).
///
/// ```
/// use fatrobots_geometry::{Circle, Point};
/// let c = Circle::unit(Point::new(0.0, 0.0));
/// let d = Circle::unit(Point::new(2.0, 0.0));
/// assert!(c.is_tangent_to(&d));
/// assert!(!c.overlaps(&d));
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

    /// `true` when `p` lies inside or on the circle (closed disc membership).
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance(p) <= self.radius + EPS
    }

    /// `true` when `p` lies strictly inside the circle (by more than `tol`).
    pub fn contains_strict(&self, p: Point, tol: f64) -> bool {
        self.center.distance(p) < self.radius - tol
    }

    /// `true` when the two closed discs share interior points
    /// (center distance strictly less than the sum of radii).
    pub fn overlaps(&self, other: &Circle) -> bool {
        self.center.distance(other.center) < self.radius + other.radius - EPS
    }

    /// `true` when the two discs are externally tangent (touching in exactly
    /// one point, within tolerance).
    pub fn is_tangent_to(&self, other: &Circle) -> bool {
        approx_eq_tol(
            self.center.distance(other.center),
            self.radius + other.radius,
            1e-6,
        )
    }

    /// Gap between the two disc boundaries: center distance minus the sum of
    /// the radii. Zero for tangent discs, negative for overlapping ones.
    pub fn gap_to(&self, other: &Circle) -> f64 {
        self.center.distance(other.center) - self.radius - other.radius
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

    /// Boundary point at angle `theta` (radians from the +x axis).
    pub fn point_at_angle(&self, theta: f64) -> Point {
        self.center + Vec2::from_angle(theta) * self.radius
    }

    /// Minimum distance from `p` to the closed disc (0 when `p` is inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        (self.center.distance(p) - self.radius).max(0.0)
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

    /// Intersection points of two circle boundaries (0, 1 or 2 points).
    pub fn intersect_circle(&self, other: &Circle) -> Vec<Point> {
        let d = other.center - self.center;
        let dist = d.norm();
        if dist <= f64::EPSILON {
            return vec![]; // concentric: none or infinitely many; report none
        }
        if dist > self.radius + other.radius + EPS
            || dist < (self.radius - other.radius).abs() - EPS
        {
            return vec![];
        }
        let a =
            (self.radius * self.radius - other.radius * other.radius + dist * dist) / (2.0 * dist);
        let h_sq = self.radius * self.radius - a * a;
        let h = h_sq.max(0.0).sqrt();
        let base = self.center + d.normalized() * a;
        let off = d.normalized().perp_ccw() * h;
        if h <= EPS {
            vec![base]
        } else {
            vec![base + off, base - off]
        }
    }

    /// The two outer common tangent segments between two **equal-radius**
    /// circles, as segments between the tangency points. Returns `None` when
    /// the centers coincide.
    ///
    /// For equal radii the outer tangents are simply the center segment
    /// translated by ±r perpendicular to it, which is all the visibility test
    /// needs.
    pub fn outer_tangent_segments(&self, other: &Circle) -> Option<[Segment; 2]> {
        debug_assert!(
            approx_eq_tol(self.radius, other.radius, 1e-12),
            "outer_tangent_segments assumes equal radii"
        );
        let d = other.center - self.center;
        if d.is_zero() {
            return None;
        }
        let n = d.normalized().perp_ccw() * self.radius;
        Some([
            Segment::new(self.center + n, other.center + n),
            Segment::new(self.center - n, other.center - n),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn containment() {
        let c = Circle::unit(p(0.0, 0.0));
        assert!(c.contains(p(0.5, 0.5)));
        assert!(c.contains(p(1.0, 0.0))); // boundary counts
        assert!(!c.contains(p(1.5, 0.0)));
        assert!(c.contains_strict(p(0.0, 0.0), 1e-6));
        assert!(!c.contains_strict(p(1.0, 0.0), 1e-6));
    }

    #[test]
    fn tangency_and_overlap() {
        let a = Circle::unit(p(0.0, 0.0));
        let b = Circle::unit(p(2.0, 0.0));
        let c = Circle::unit(p(1.5, 0.0));
        let d = Circle::unit(p(5.0, 0.0));
        assert!(a.is_tangent_to(&b));
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(!a.is_tangent_to(&d));
        assert!((a.gap_to(&d) - 3.0).abs() < 1e-12);
        assert!(a.gap_to(&c) < 0.0);
    }

    #[test]
    fn boundary_points() {
        let c = Circle::unit(p(0.0, 0.0));
        assert!(c.boundary_point_towards(p(5.0, 0.0)).approx_eq(p(1.0, 0.0)));
        assert!(c
            .point_at_angle(std::f64::consts::FRAC_PI_2)
            .approx_eq(p(0.0, 1.0)));
        // Degenerate: p == center still yields a boundary point.
        assert!((c.boundary_point_towards(p(0.0, 0.0)).distance(c.center) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_point() {
        let c = Circle::unit(p(0.0, 0.0));
        assert_eq!(c.distance_to_point(p(0.3, 0.0)), 0.0);
        assert!((c.distance_to_point(p(3.0, 0.0)) - 2.0).abs() < 1e-12);
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

    #[test]
    fn circle_circle_intersection() {
        let a = Circle::unit(p(0.0, 0.0));
        let b = Circle::unit(p(1.0, 0.0));
        assert_eq!(a.intersect_circle(&b).len(), 2);
        let t = Circle::unit(p(2.0, 0.0));
        assert_eq!(a.intersect_circle(&t).len(), 1);
        let far = Circle::unit(p(5.0, 0.0));
        assert!(a.intersect_circle(&far).is_empty());
        assert!(a.intersect_circle(&a).is_empty());
    }

    #[test]
    fn outer_tangents_of_equal_circles() {
        let a = Circle::unit(p(0.0, 0.0));
        let b = Circle::unit(p(4.0, 0.0));
        let tangents = a.outer_tangent_segments(&b).unwrap();
        assert!(tangents[0].a.approx_eq(p(0.0, 1.0)) || tangents[0].a.approx_eq(p(0.0, -1.0)));
        assert!((tangents[0].length() - 4.0).abs() < 1e-12);
        assert!(a.outer_tangent_segments(&a).is_none());
    }
}
