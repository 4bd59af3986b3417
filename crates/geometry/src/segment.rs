//! Straight segments in the plane.

use crate::point::{Point, Vec2};
use crate::predicates::{approx_eq, clamp, EPS};

/// A straight segment between two endpoints.
///
/// ```
/// use fatrobots_geometry::{Point, Segment};
/// let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
/// assert_eq!(s.length(), 4.0);
/// assert!((s.distance_to(Point::new(2.0, 1.5)) - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates the segment between `a` and `b` (degenerate segments allowed).
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Direction vector from `a` to `b` (not normalised).
    #[inline]
    pub fn direction(&self) -> Vec2 {
        self.b - self.a
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Closest point of the segment to `p`.
    pub fn closest_point_to(&self, p: Point) -> Point {
        let d = self.direction();
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return self.a;
        }
        let t = clamp((p - self.a).dot(d) / len_sq, 0.0, 1.0);
        self.point_at(t)
    }

    /// Euclidean distance from `p` to the segment.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.closest_point_to(p).distance(p)
    }

    /// Squared distance from `p` to the segment: the same closest-point
    /// construction as [`Self::distance_to`] minus the square root. Because
    /// `sqrt` is correctly rounded and monotone, `distance_sq_to(p) <= r*r`
    /// decides `distance_to(p) <= r` **exactly** whenever `r*r` is exact —
    /// which is how the hot paths (obstacle gathering, cache invalidation)
    /// use it.
    pub fn distance_sq_to(&self, p: Point) -> f64 {
        (p - self.closest_point_to(p)).norm_sq()
    }

    /// Minimum distance between two segments.
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let d1 = self.distance_to(other.a).min(self.distance_to(other.b));
        let d2 = other.distance_to(self.a).min(other.distance_to(self.b));
        d1.min(d2)
    }

    /// `true` when the two segments share at least one point
    /// (proper crossing, touching endpoints or collinear overlap).
    pub fn intersects(&self, other: &Segment) -> bool {
        self.intersection(other).is_some() || self.collinear_overlap(other)
    }

    /// Intersection point of two non-parallel segments, if it lies on both.
    pub fn intersection(&self, other: &Segment) -> Option<Point> {
        let d1 = self.direction();
        let d2 = other.direction();
        let denom = d1.cross(d2);
        if approx_eq(denom, 0.0) {
            return None;
        }
        let t = (other.a - self.a).cross(d2) / denom;
        let u = (other.a - self.a).cross(d1) / denom;
        if (-EPS..=1.0 + EPS).contains(&t) && (-EPS..=1.0 + EPS).contains(&u) {
            Some(self.point_at(clamp(t, 0.0, 1.0)))
        } else {
            None
        }
    }

    fn collinear_overlap(&self, other: &Segment) -> bool {
        let d1 = self.direction();
        let d2 = other.direction();
        if d1.cross(d2).abs() > EPS || d1.cross(other.a - self.a).abs() > EPS {
            return false;
        }
        // Project onto the dominant axis of d1.
        let project = |p: Point| {
            if d1.x.abs() >= d1.y.abs() {
                p.x
            } else {
                p.y
            }
        };
        let (s0, s1) = {
            let (x, y) = (project(self.a), project(self.b));
            (x.min(y), x.max(y))
        };
        let (o0, o1) = {
            let (x, y) = (project(other.a), project(other.b));
            (x.min(y), x.max(y))
        };
        s0 <= o1 + EPS && o0 <= s1 + EPS
    }

    /// `true` when `p` lies on the segment within tolerance `tol`.
    pub fn contains_tol(&self, p: Point, tol: f64) -> bool {
        self.distance_to(p) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn length_midpoint_direction() {
        let s = Segment::new(p(0.0, 0.0), p(3.0, 4.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.midpoint(), p(1.5, 2.0));
        assert_eq!(s.direction(), Vec2::new(3.0, 4.0));
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        assert_eq!(s.closest_point_to(p(-2.0, 1.0)), p(0.0, 0.0));
        assert_eq!(s.closest_point_to(p(6.0, 1.0)), p(4.0, 0.0));
        assert_eq!(s.closest_point_to(p(2.0, 1.0)), p(2.0, 0.0));
    }

    #[test]
    fn distance_to_point() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        assert!((s.distance_to(p(2.0, 3.0)) - 3.0).abs() < 1e-12);
        assert!((s.distance_to(p(-3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 2.0));
        let s2 = Segment::new(p(0.0, 2.0), p(2.0, 0.0));
        let x = s1.intersection(&s2).unwrap();
        assert!(x.approx_eq(p(1.0, 1.0)));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(0.0, 1.0), p(1.0, 1.0));
        assert!(!s1.intersects(&s2));
        assert!((s1.distance_to_segment(&s2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn touching_at_endpoint_counts_as_intersection() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(1.0, 0.0), p(2.0, 5.0));
        assert!(s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 0.0);
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        let s2 = Segment::new(p(1.0, 0.0), p(5.0, 0.0));
        assert!(s1.intersects(&s2));
        let s3 = Segment::new(p(3.0, 0.0), p(5.0, 0.0));
        assert!(!s1.intersects(&s3));
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = Segment::new(p(1.0, 1.0), p(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert!((s.distance_to(p(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn contains_tolerance() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        assert!(s.contains_tol(p(2.0, 0.05), 0.1));
        assert!(!s.contains_tol(p(2.0, 0.5), 0.1));
    }
}
