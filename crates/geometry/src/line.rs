//! Infinite lines in the plane.

use std::cmp::Ordering;

use crate::kernel::Kernel;
use crate::point::{Point, Vec2};
use crate::predicates::{approx_eq_tol, EPS};

/// An infinite line through two distinct points.
///
/// ```
/// use fatrobots_geometry::{Line, Point};
/// let l = Line::through(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
/// assert!((l.distance_to(Point::new(1.0, 3.0)) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    a: Point,
    b: Point,
}

impl Line {
    /// Line through the two points `a` and `b`.
    ///
    /// # Panics
    /// Panics in debug builds when `a` and `b` coincide (no direction).
    pub fn through(a: Point, b: Point) -> Self {
        debug_assert!(
            a.distance(b) > f64::EPSILON,
            "a line needs two distinct points"
        );
        Line { a, b }
    }

    /// Line through `p` with direction `dir`.
    pub fn from_point_dir(p: Point, dir: Vec2) -> Self {
        Line::through(p, p + dir)
    }

    /// One anchor point of the line.
    pub fn anchor(&self) -> Point {
        self.a
    }

    /// Direction vector (not normalised).
    pub fn direction(&self) -> Vec2 {
        self.b - self.a
    }

    /// Perpendicular (unsigned) distance from point `p` to the line.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.signed_distance_to(p).abs()
    }

    /// Signed perpendicular distance: positive when `p` lies to the left of
    /// the directed line `a → b`.
    pub fn signed_distance_to(&self, p: Point) -> f64 {
        let d = self.direction();
        d.cross(p - self.a) / d.norm()
    }

    /// Orthogonal projection of `p` onto the line.
    pub fn project(&self, p: Point) -> Point {
        let d = self.direction();
        let t = (p - self.a).dot(d) / d.norm_sq();
        self.a + d * t
    }

    /// Intersection point with another line, or `None` when (numerically)
    /// parallel.
    pub fn intersect(&self, other: &Line) -> Option<Point> {
        let d1 = self.direction();
        let d2 = other.direction();
        let denom = d1.cross(d2);
        if approx_eq_tol(denom, 0.0, EPS * d1.norm() * d2.norm()) {
            return None;
        }
        let t = (other.a - self.a).cross(d2) / denom;
        Some(self.a + d1 * t)
    }

    /// `true` when `p` lies on the line within tolerance `tol`
    /// (perpendicular distance).
    pub fn contains_tol(&self, p: Point, tol: f64) -> bool {
        self.distance_to(p) <= tol
    }

    /// [`Self::distance_to`]`(p) <=> r` decided by kernel `K` on the line's
    /// two defining points. Under the ε kernel this is bit-identical to
    /// comparing [`Self::distance_to`] directly; the exact kernel compares
    /// the underlying squared-cross polynomial exactly.
    pub fn cmp_distance_to_k<K: Kernel>(&self, p: Point, r: f64) -> Ordering {
        K::cmp_line_dist(self.a, self.b, p, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_projection() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let p = Point::new(2.0, 3.0);
        assert!((l.distance_to(p) - 3.0).abs() < 1e-12);
        assert!(l.project(p).approx_eq(Point::new(2.0, 0.0)));
    }

    #[test]
    fn signed_distance_side() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert!(l.signed_distance_to(Point::new(0.0, 2.0)) > 0.0);
        assert!(l.signed_distance_to(Point::new(0.0, -2.0)) < 0.0);
    }

    #[test]
    fn intersection_of_crossing_lines() {
        let l1 = Line::through(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let l2 = Line::through(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        let p = l1.intersect(&l2).unwrap();
        assert!(p.approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    fn parallel_lines_do_not_intersect() {
        let l1 = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let l2 = Line::through(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(l1.intersect(&l2).is_none());
    }

    #[test]
    fn contains_with_tolerance() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert!(l.contains_tol(Point::new(5.0, 0.05), 0.1));
        assert!(!l.contains_tol(Point::new(5.0, 0.5), 0.1));
    }

    #[test]
    fn from_point_dir_matches_through() {
        let l = Line::from_point_dir(Point::new(1.0, 1.0), Vec2::new(0.0, 3.0));
        assert!((l.distance_to(Point::new(4.0, 7.0)) - 3.0).abs() < 1e-12);
    }
}
