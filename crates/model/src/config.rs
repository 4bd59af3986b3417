//! Predicates on a geometric configuration `G = (c_1, …, c_n)`.
//!
//! A configuration is a slice of robot centers, indexed by robot: the
//! simulator's world owns the one copy of it, and every predicate here
//! borrows it.

use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::predicates::approx_eq_tol;
use fatrobots_geometry::visibility::{disc_sees_disc, min_pairwise_gap, no_three_collinear};
use fatrobots_geometry::{Point, UNIT_RADIUS};

/// Tolerance used when deciding whether two unit discs touch: the boundary
/// gap may be at most this value. The simulator places touching robots at
/// distance exactly 2 up to floating-point error, and the gathering
/// algorithm's own tolerances (`1/2n`) are far larger than this.
pub const TOUCH_TOL: f64 = 1e-6;

/// Tolerance on the doubled triangle area below which three centers count
/// as collinear in [`is_fully_visible_convex`] and [`is_gathered`].
pub const COLLINEARITY_TOL: f64 = 1e-9;

/// The tangency predicate on a boundary gap (center distance minus one
/// diameter): touching when the gap is within [`TOUCH_TOL`] of zero, or
/// negative (overlap counts as contact). The single definition shared by
/// [`is_connected`], the component partition, and the simulator's
/// grid-local connectivity — these must agree exactly for the incremental
/// world state to stay bit-identical to the from-scratch path.
#[inline]
pub fn gap_touches(gap: f64) -> bool {
    approx_eq_tol(gap, 0.0, TOUCH_TOL) || gap < 0.0
}

/// `true` when no two robot discs overlap (they may touch).
///
/// The paper's model forbids two robots from sharing more than one boundary
/// point; the simulator asserts this invariant after every event.
pub fn is_valid(centers: &[Point]) -> bool {
    match min_pairwise_gap(centers) {
        None => true,
        Some(gap) => gap >= -TOUCH_TOL,
    }
}

/// Partition of the robots into connected components of the tangency graph
/// (the components of the union of the closed discs). Each component is a
/// sorted list of robot indices.
fn tangency_components(centers: &[Point]) -> Vec<Vec<usize>> {
    let n = centers.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let touching =
        |i: usize, j: usize| gap_touches(centers[i].distance(centers[j]) - 2.0 * UNIT_RADIUS);
    for i in 0..n {
        for j in (i + 1)..n {
            if touching(i, j) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    groups.into_values().collect()
}

/// `true` when the union of the robot discs is connected (Definition: between
/// any two points of any two robots there is a polygonal line inside the
/// union). Equivalent to the tangency graph being connected.
pub fn is_connected(centers: &[Point]) -> bool {
    centers.len() <= 1 || tangency_components(centers).len() == 1
}

/// `true` when every robot center lies on the convex hull boundary
/// (`|onCH(G)| = n`).
pub fn all_on_hull(centers: &[Point]) -> bool {
    centers.len() <= 2 || ConvexHull::from_points(centers).all_on_hull()
}

/// Exact full-visibility test for configurations in convex position: all
/// centers on the hull and no three centers collinear within
/// [`COLLINEARITY_TOL`].
///
/// This is the characterisation the algorithm itself uses (Lemma 4).
pub fn is_fully_visible_convex(centers: &[Point]) -> bool {
    all_on_hull(centers) && no_three_collinear(centers, COLLINEARITY_TOL)
}

/// General full-visibility test: every robot sees every other robot, each
/// pair decided by the critical-offset witness search of [`disc_sees_disc`].
///
/// Quadratic in `n` and considerably more expensive than
/// [`is_fully_visible_convex`]; intended for metrics and tests on arbitrary
/// (non-convex-position) configurations.
pub fn is_fully_visible(centers: &[Point]) -> bool {
    let n = centers.len();
    for i in 0..n {
        for j in (i + 1)..n {
            if !disc_sees_disc(i, j, centers) {
                return false;
            }
        }
    }
    true
}

/// `true` when the configuration solves the gathering problem geometrically:
/// connected and fully visible (Definition 1).
pub fn is_gathered(centers: &[Point]) -> bool {
    is_connected(centers) && (is_fully_visible_convex(centers) || is_fully_visible(centers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn chain(n: usize) -> Vec<Point> {
        (0..n).map(|i| p(2.0 * i as f64, 0.0)).collect()
    }

    #[test]
    fn validity_detects_overlap() {
        assert!(is_valid(&chain(4)));
        assert!(!is_valid(&[p(0.0, 0.0), p(1.0, 0.0)]));
        assert!(is_valid(&[]));
    }

    #[test]
    fn connectivity_of_chain_and_split() {
        assert!(is_connected(&chain(5)));
        let split = [p(0.0, 0.0), p(2.0, 0.0), p(10.0, 0.0)];
        assert!(!is_connected(&split));
        assert_eq!(tangency_components(&split), vec![vec![0, 1], vec![2]]);
        assert!(is_connected(&[p(0.0, 0.0)]));
    }

    #[test]
    fn hull_predicates() {
        let square = [p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        assert!(all_on_hull(&square));
        assert!(is_fully_visible_convex(&square));

        let mut with_interior = square;
        with_interior[0] = p(6.0, 5.0);
        // Moving a corner into the interior leaves only 3 on the hull.
        assert!(!all_on_hull(&with_interior));
        assert!(!is_fully_visible_convex(&with_interior));
    }

    #[test]
    fn collinear_hull_is_not_fully_visible() {
        let line = chain(4);
        assert!(all_on_hull(&line));
        assert!(!is_fully_visible_convex(&line));
        assert!(!is_fully_visible(&line));
        // Three collinear centers on one hull edge.
        let collinear_edge = [p(0.0, 0.0), p(5.0, 0.0), p(10.0, 0.0), p(5.0, 10.0)];
        assert!(!is_fully_visible_convex(&collinear_edge));
    }

    #[test]
    fn gathered_configuration() {
        // Three touching robots forming a triangle: connected, convex
        // position, no three collinear.
        let g = [p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())];
        assert!(is_valid(&g));
        assert!(is_connected(&g));
        assert!(is_gathered(&g));

        // A disconnected square is not gathered.
        let square = [p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        assert!(!is_gathered(&square));
    }
}
