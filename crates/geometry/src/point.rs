//! Points and vectors in the plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::predicates::approx_eq;

/// A point in the Euclidean plane.
///
/// `Point` is a plain value type (`Copy`); the coordinates are public because
/// the type is a passive data carrier with no invariant to protect.
///
/// ```
/// use fatrobots_geometry::Point;
/// let a = Point::new(1.0, 2.0);
/// let b = Point::new(4.0, 6.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement (vector) in the Euclidean plane.
///
/// The distinction between [`Point`] and `Vec2` keeps "positions" and
/// "directions" statically separate (`Point - Point = Vec2`,
/// `Point + Vec2 = Point`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other` (avoids the square root).
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    /// Midpoint of the segment joining `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: returns `self` for `t = 0`, `other` for `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// The point at distance `d` from `self` in direction `dir`
    /// (which need not be normalised).
    ///
    /// # Panics
    /// Panics in debug builds if `dir` is (numerically) the zero vector.
    pub fn offset(self, dir: Vec2, d: f64) -> Point {
        debug_assert!(dir.norm() > 0.0, "offset direction must be non-zero");
        self + dir.normalized() * d
    }

    /// Coordinate-wise approximate equality with the crate tolerance.
    pub fn approx_eq(self, other: Point) -> bool {
        approx_eq(self.x, other.x) && approx_eq(self.y, other.y)
    }

    /// The vector from the origin to this point.
    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Centroid (arithmetic mean) of a non-empty set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn centroid(points: &[Point]) -> Point {
        assert!(!points.is_empty(), "centroid of an empty point set");
        let n = points.len() as f64;
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Point::new(sx / n, sy / n)
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm (length).
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The vector scaled to unit length.
    ///
    /// Returns [`Vec2::ZERO`] when the vector is (numerically) zero so that
    /// callers never divide by zero; callers that require a direction should
    /// check [`Vec2::is_zero`] first.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// `true` when the vector has (numerically) zero length.
    pub fn is_zero(self) -> bool {
        self.norm() <= f64::EPSILON
    }

    /// Perpendicular vector, rotated 90° counter-clockwise.
    #[inline]
    pub fn perp_ccw(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Perpendicular vector, rotated 90° clockwise.
    #[inline]
    pub fn perp_cw(self) -> Vec2 {
        Vec2::new(self.y, -self.x)
    }

    /// The vector rotated by `theta` radians counter-clockwise.
    pub fn rotated(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Angle of the vector in radians, in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.6}, {:.6}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        let v = b - a;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(a + v, b);
        assert_eq!(b - v, a);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point::new(1.0, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), Point::new(0.5, 1.0));
    }

    #[test]
    fn offset_moves_along_direction() {
        let p = Point::new(1.0, 1.0);
        let q = p.offset(Vec2::new(0.0, 2.0), 3.0);
        assert!(q.approx_eq(Point::new(1.0, 4.0)));
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        assert!(Vec2::ZERO.is_zero());
        let v = Vec2::new(3.0, 4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn perpendicular_rotations() {
        let v = Vec2::new(1.0, 0.0);
        assert_eq!(v.perp_ccw(), Vec2::new(0.0, 1.0));
        assert_eq!(v.perp_cw(), Vec2::new(0.0, -1.0));
        let r = v.rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn angle_round_trip() {
        let theta = 0.7;
        let v = Vec2::new(1.0, 0.0).rotated(theta);
        assert!((v.angle() - theta).abs() < 1e-12);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(Point::centroid(&pts), Point::new(1.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn centroid_of_empty_panics() {
        let _ = Point::centroid(&[]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::new(1.0, 2.0)).is_empty());
        assert!(!format!("{}", Vec2::new(1.0, 2.0)).is_empty());
    }
}
