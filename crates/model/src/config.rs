//! Geometric, state and robot configurations.

use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::predicates::approx_eq_tol;
use fatrobots_geometry::visibility::{disc_sees_disc, min_pairwise_gap, no_three_collinear};
use fatrobots_geometry::{Point, UNIT_RADIUS};

use crate::phase::Phase;

/// Tolerance used when deciding whether two unit discs touch: the boundary
/// gap may be at most this value. The simulator places touching robots at
/// distance exactly 2 up to floating-point error, and the gathering
/// algorithm's own tolerances (`1/2n`) are far larger than this.
pub const TOUCH_TOL: f64 = 1e-6;

/// The tangency predicate on a boundary gap (center distance minus one
/// diameter): touching when the gap is within [`TOUCH_TOL`] of zero, or
/// negative (overlap counts as contact). The single definition shared by
/// [`GeometricConfig::touching`], the component partition, and the
/// simulator's grid-local connectivity — these must agree exactly for the
/// incremental world state to stay bit-identical to the from-scratch path.
#[inline]
pub fn gap_touches(gap: f64) -> bool {
    approx_eq_tol(gap, 0.0, TOUCH_TOL) || gap < 0.0
}

/// A geometric configuration `G = (c_1, …, c_n)`: the centers of the robots'
/// unit discs.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricConfig {
    centers: Vec<Point>,
}

impl GeometricConfig {
    /// Creates a configuration from robot centers.
    pub fn new(centers: Vec<Point>) -> Self {
        GeometricConfig { centers }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` when the configuration holds no robots.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The robot centers, indexed by robot.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Center of robot `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn center(&self, i: usize) -> Point {
        self.centers[i]
    }

    /// Replaces the center of robot `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn set_center(&mut self, i: usize, p: Point) {
        self.centers[i] = p;
    }

    /// `true` when no two robot discs overlap (they may touch).
    ///
    /// The paper's model forbids two robots from sharing more than one
    /// boundary point; the simulator asserts this invariant after every
    /// event.
    pub fn is_valid(&self) -> bool {
        Self::is_valid_on(&self.centers)
    }

    /// Borrowed form of [`Self::is_valid`]: validity of a raw center slice,
    /// with no configuration allocated. This is what the simulator's
    /// per-event assertion calls.
    pub fn is_valid_on(centers: &[Point]) -> bool {
        match min_pairwise_gap(centers) {
            None => true,
            Some(gap) => gap >= -TOUCH_TOL,
        }
    }

    /// Boundary gap between robots `i` and `j` (center distance minus 2).
    /// Zero for touching robots, negative for overlapping ones.
    pub fn gap(&self, i: usize, j: usize) -> f64 {
        self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS
    }

    /// `true` when robots `i` and `j` touch (tangent discs).
    pub fn touching(&self, i: usize, j: usize) -> bool {
        gap_touches(self.gap(i, j))
    }

    /// Indices of robots touching robot `i`.
    pub fn neighbors_touching(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| j != i && self.touching(i, j))
            .collect()
    }

    /// Partition of the robots into connected components of the tangency
    /// graph (the components of the union of the closed discs). Each
    /// component is a sorted list of robot indices.
    pub fn tangency_components(&self) -> Vec<Vec<usize>> {
        Self::tangency_components_on(&self.centers)
    }

    /// Borrowed form of [`Self::tangency_components`].
    pub fn tangency_components_on(centers: &[Point]) -> Vec<Vec<usize>> {
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

    /// `true` when the union of the robot discs is connected
    /// (Definition: between any two points of any two robots there is a
    /// polygonal line inside the union). Equivalent to the tangency graph
    /// being connected.
    pub fn is_connected(&self) -> bool {
        Self::is_connected_on(&self.centers)
    }

    /// Borrowed form of [`Self::is_connected`].
    pub fn is_connected_on(centers: &[Point]) -> bool {
        centers.len() <= 1 || Self::tangency_components_on(centers).len() == 1
    }

    /// Convex hull of the robot centers.
    pub fn hull(&self) -> ConvexHull {
        ConvexHull::from_points(&self.centers)
    }

    /// `true` when every robot center lies on the convex hull boundary
    /// (`|onCH(G)| = n`).
    pub fn all_on_hull(&self) -> bool {
        Self::all_on_hull_on(&self.centers)
    }

    /// Borrowed form of [`Self::all_on_hull`].
    pub fn all_on_hull_on(centers: &[Point]) -> bool {
        centers.len() <= 2 || ConvexHull::from_points(centers).all_on_hull()
    }

    /// Exact full-visibility test for configurations in convex position:
    /// all centers on the hull and no three centers collinear within
    /// `collinearity_tol` (tolerance on the doubled triangle area).
    ///
    /// This is the characterisation the algorithm itself uses (Lemma 4).
    pub fn is_fully_visible_convex(&self, collinearity_tol: f64) -> bool {
        Self::is_fully_visible_convex_on(&self.centers, collinearity_tol)
    }

    /// Borrowed form of [`Self::is_fully_visible_convex`].
    pub fn is_fully_visible_convex_on(centers: &[Point], collinearity_tol: f64) -> bool {
        Self::all_on_hull_on(centers) && no_three_collinear(centers, collinearity_tol)
    }

    /// General full-visibility test: every robot sees every other robot,
    /// each pair decided by the critical-offset witness search of
    /// [`disc_sees_disc`].
    ///
    /// Quadratic in `n` and considerably more expensive than
    /// [`Self::is_fully_visible_convex`]; intended for metrics and tests on
    /// arbitrary (non-convex-position) configurations.
    pub fn is_fully_visible_sampled(&self) -> bool {
        Self::is_fully_visible_sampled_on(&self.centers)
    }

    /// Borrowed form of [`Self::is_fully_visible_sampled`].
    pub fn is_fully_visible_sampled_on(centers: &[Point]) -> bool {
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

    /// `true` when the configuration solves the gathering problem
    /// geometrically: connected and fully visible (Definition 1).
    pub fn is_gathered(&self, collinearity_tol: f64) -> bool {
        Self::is_gathered_on(&self.centers, collinearity_tol)
    }

    /// Borrowed form of [`Self::is_gathered`]: the gathering predicate on a
    /// raw center slice, with no configuration allocated.
    pub fn is_gathered_on(centers: &[Point], collinearity_tol: f64) -> bool {
        Self::is_connected_on(centers)
            && (Self::is_fully_visible_convex_on(centers, collinearity_tol)
                || Self::is_fully_visible_sampled_on(centers))
    }

    /// Total area of the convex hull of the centers (a monotonicity witness
    /// for the paper's Lemmas 20 and 21).
    pub fn hull_area(&self) -> f64 {
        self.hull().area()
    }
}

/// A robot configuration `R = (⟨s_1, c_1⟩, …, ⟨s_n, c_n⟩)`: phases combined
/// with positions.
#[derive(Debug, Clone, PartialEq)]
pub struct RobotConfig {
    phases: Vec<Phase>,
    geometry: GeometricConfig,
}

impl RobotConfig {
    /// Creates the initial robot configuration for the given centers:
    /// every robot is in phase `Wait`.
    pub fn initial(centers: Vec<Point>) -> Self {
        let phases = vec![Phase::Wait; centers.len()];
        RobotConfig {
            phases,
            geometry: GeometricConfig::new(centers),
        }
    }

    /// Creates a robot configuration from explicit phases and centers.
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn new(phases: Vec<Phase>, centers: Vec<Point>) -> Self {
        assert_eq!(
            phases.len(),
            centers.len(),
            "one phase per robot is required"
        );
        RobotConfig {
            phases,
            geometry: GeometricConfig::new(centers),
        }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` when there are no robots.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The geometric part of the configuration.
    pub fn geometry(&self) -> &GeometricConfig {
        &self.geometry
    }

    /// Mutable access to the geometric part.
    pub fn geometry_mut(&mut self) -> &mut GeometricConfig {
        &mut self.geometry
    }

    /// Phase of robot `i`.
    pub fn phase(&self, i: usize) -> Phase {
        self.phases[i]
    }

    /// Sets the phase of robot `i`.
    ///
    /// # Panics
    /// Panics if the transition is not allowed by the cycle of Figure 1.
    pub fn set_phase(&mut self, i: usize, next: Phase) {
        assert!(
            self.phases[i].can_transition_to(next),
            "illegal phase transition {:?} -> {:?} for robot {i}",
            self.phases[i],
            next
        );
        self.phases[i] = next;
    }

    /// All phases, indexed by robot.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// `true` when every robot is in the terminal phase.
    pub fn all_terminated(&self) -> bool {
        self.phases.iter().all(|p| p.is_terminal())
    }

    /// `true` when this is a terminal robot configuration that also solves
    /// gathering (connected, fully visible, all terminated) — the
    /// postcondition of Theorem 26.
    pub fn is_gathering_terminal(&self, collinearity_tol: f64) -> bool {
        self.all_terminated() && self.geometry.is_gathered(collinearity_tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn chain(n: usize) -> GeometricConfig {
        GeometricConfig::new((0..n).map(|i| p(2.0 * i as f64, 0.0)).collect())
    }

    #[test]
    fn validity_detects_overlap() {
        assert!(chain(4).is_valid());
        let bad = GeometricConfig::new(vec![p(0.0, 0.0), p(1.0, 0.0)]);
        assert!(!bad.is_valid());
        let empty = GeometricConfig::new(vec![]);
        assert!(empty.is_valid() && empty.is_empty());
    }

    #[test]
    fn touching_and_gap() {
        let g = chain(3);
        assert!(g.touching(0, 1));
        assert!(!g.touching(0, 2));
        assert!((g.gap(0, 2) - 2.0).abs() < 1e-12);
        assert_eq!(g.neighbors_touching(1), vec![0, 2]);
    }

    #[test]
    fn connectivity_of_chain_and_split() {
        assert!(chain(5).is_connected());
        let split = GeometricConfig::new(vec![p(0.0, 0.0), p(2.0, 0.0), p(10.0, 0.0)]);
        assert!(!split.is_connected());
        assert_eq!(split.tangency_components().len(), 2);
        let single = GeometricConfig::new(vec![p(0.0, 0.0)]);
        assert!(single.is_connected());
    }

    #[test]
    fn hull_predicates() {
        let square =
            GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)]);
        assert!(square.all_on_hull());
        assert!(square.is_fully_visible_convex(1e-9));
        assert!((square.hull_area() - 100.0).abs() < 1e-9);

        let mut with_interior = square.clone();
        with_interior.set_center(0, p(6.0, 5.0));
        // Moving a corner into the interior leaves only 3 on the hull.
        assert!(!with_interior.all_on_hull());
        assert!(!with_interior.is_fully_visible_convex(1e-9));
    }

    #[test]
    fn collinear_hull_is_not_fully_visible() {
        let line = chain(4);
        assert!(line.all_on_hull());
        assert!(!line.is_fully_visible_convex(1e-9));
        assert!(!line.is_fully_visible_sampled());
    }

    #[test]
    fn gathered_configuration() {
        // Three touching robots forming a triangle: connected, convex
        // position, no three collinear.
        let g = GeometricConfig::new(vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())]);
        assert!(g.is_valid());
        assert!(g.is_connected());
        assert!(g.is_gathered(1e-9));

        // A disconnected square is not gathered.
        let square =
            GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)]);
        assert!(!square.is_gathered(1e-9));
    }

    #[test]
    fn robot_config_phase_transitions() {
        let mut r = RobotConfig::initial(vec![p(0.0, 0.0), p(4.0, 0.0)]);
        assert_eq!(r.phase(0), Phase::Wait);
        assert!(!r.all_terminated());
        r.set_phase(0, Phase::Look);
        r.set_phase(0, Phase::Compute);
        r.set_phase(0, Phase::Terminate);
        assert!(r.phase(0).is_terminal());
    }

    #[test]
    #[should_panic]
    fn illegal_phase_transition_panics() {
        let mut r = RobotConfig::initial(vec![p(0.0, 0.0)]);
        r.set_phase(0, Phase::Move); // Wait -> Move is not allowed
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = RobotConfig::new(vec![Phase::Wait], vec![p(0.0, 0.0), p(4.0, 0.0)]);
    }

    #[test]
    fn gathering_terminal_postcondition() {
        let centers = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())];
        let mut r = RobotConfig::initial(centers);
        assert!(!r.is_gathering_terminal(1e-9));
        for i in 0..r.len() {
            r.set_phase(i, Phase::Look);
            r.set_phase(i, Phase::Compute);
            r.set_phase(i, Phase::Terminate);
        }
        assert!(r.is_gathering_terminal(1e-9));
    }
}
