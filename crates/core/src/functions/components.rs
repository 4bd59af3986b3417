//! Function `Connected-Components` (Section 3.4) and its flat form,
//! [`BoundaryPartition`], on which Cases A–C of
//! [`converge::not_connected`](crate::compute::converge::not_connected) realise Functions `How-Much-Distance`,
//! `In-Largest-Component` and `In-Smallest-Component` (Sections 3.5–3.7).
//!
//! These functions are called by a robot that sees all `n` robots and finds
//! every center on the convex hull (the convergence phase). The robots on the
//! hull are grouped into *components*: maximal runs of hull-adjacent robots
//! whose boundary gap is at most `1/2m` (the paper's threshold). The paper's
//! §3.4 spells this grouping out as a four-level nested case analysis that
//! walks left and right from the caller; the formulation here — order the
//! robots along the hull, cut the cyclic sequence at every gap larger than
//! the threshold — produces the same partition and the same
//! `⟨(c_l, c_r), k⟩` summaries, which is all the convergence phase uses.
//!
//! ## Orientation
//!
//! Chirality lets all robots agree on clockwise. Hulls are stored
//! counter-clockwise; the *right* neighbour of a hull robot is the next robot
//! clockwise (the paper's "straight direction is the inside of the hull"
//! convention), so a component's **rightmost** member is the one whose
//! clockwise neighbour lies in a different component.

use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::{Point, UNIT_RADIUS};

/// A connected component of hull robots: a maximal run of hull-adjacent
/// robots with boundary gaps at most the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct HullComponent {
    /// Members in counter-clockwise order along the hull; the first entry is
    /// the rightmost (clockwise-most) member, the last is the leftmost.
    members_ccw: Vec<Point>,
}

impl HullComponent {
    /// Number of robots in the component (the paper's `k`).
    pub fn len(&self) -> usize {
        self.members_ccw.len()
    }

    /// `true` when the component has no members (never produced by
    /// [`connected_components`]; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members_ccw.is_empty()
    }

    /// Members in counter-clockwise order along the hull.
    pub fn members(&self) -> &[Point] {
        &self.members_ccw
    }

    /// The rightmost member: the one whose clockwise hull neighbour belongs
    /// to a different component (the paper's `c_r`).
    pub fn rightmost(&self) -> Point {
        self.members_ccw[0]
    }

    /// The leftmost member (the paper's `c_l`).
    pub fn leftmost(&self) -> Point {
        *self.members_ccw.last().expect("components are non-empty")
    }

    /// `true` when `p` is one of the members.
    pub fn contains(&self, p: Point) -> bool {
        self.members_ccw.iter().any(|q| q.approx_eq(p))
    }
}

/// The partition of the hull robots into components, in counter-clockwise
/// order around the hull.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPartition {
    components: Vec<HullComponent>,
    single_cycle: bool,
}

impl ComponentPartition {
    /// The components, in counter-clockwise order around the hull.
    pub fn components(&self) -> &[HullComponent] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the partition is empty (no robots).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// `true` when every hull gap is at most the threshold, so all robots
    /// form one cyclic component. In that case
    /// [`HullComponent::rightmost`]/[`HullComponent::leftmost`] are an
    /// arbitrary (but deterministic) cut of the cycle.
    pub fn is_single(&self) -> bool {
        self.single_cycle || self.components.len() <= 1
    }

    /// Index of the component containing `p`, if any.
    pub fn component_of(&self, p: Point) -> Option<usize> {
        self.components.iter().position(|c| c.contains(p))
    }

    /// Index of the component clockwise-adjacent to component `i` (its
    /// *right neighbour*). With a single component this is `i` itself.
    pub fn right_neighbor(&self, i: usize) -> usize {
        let k = self.components.len();
        (i + k - 1) % k
    }

    /// Boundary gap (center distance minus 2) between component `i`'s
    /// rightmost robot and its right-neighbour component's leftmost robot.
    pub fn right_gap(&self, i: usize) -> f64 {
        let j = self.right_neighbor(i);
        self.components[i]
            .rightmost()
            .distance(self.components[j].leftmost())
            - 2.0 * UNIT_RADIUS
    }

    /// Sizes of all components, in the same order as [`Self::components`].
    pub fn sizes(&self) -> Vec<usize> {
        self.components.iter().map(HullComponent::len).collect()
    }
}

/// The component partition of a hull boundary, stored as `(start, len)`
/// runs of indices into the caller's counter-clockwise boundary slice.
///
/// This is the flat, reusable form of [`ComponentPartition`] used by the
/// Compute hot path: [`BoundaryPartition::rebuild`] performs no heap
/// allocation once its buffers are warm, and every query is answered from
/// the run table plus the boundary slice the caller already owns (the
/// `Ctx`'s `onCH(V_i)`). For the same boundary it produces exactly the
/// partition [`connected_components`] builds from the underlying centers:
/// the same component order, members, rightmost/leftmost choices and gaps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundaryPartition {
    /// `(start index into the boundary, member count)` per component, in
    /// the same counter-clockwise order as [`ComponentPartition`].
    runs: Vec<(usize, usize)>,
    /// Reused buffer for the gap-break indices.
    breaks: Vec<usize>,
    /// Length of the boundary slice the runs index into.
    boundary_len: usize,
    single_cycle: bool,
}

impl BoundaryPartition {
    /// Rebuilds the partition of the given counter-clockwise hull boundary
    /// in place, cutting the cyclic sequence at every gap larger than the
    /// threshold (the grouping of Function `Connected-Components`).
    pub fn rebuild(&mut self, onch_ccw: &[Point], gap_threshold: f64) {
        self.runs.clear();
        self.breaks.clear();
        let m = onch_ccw.len();
        self.boundary_len = m;
        self.single_cycle = false;
        if m == 0 {
            return;
        }
        if m == 1 {
            self.runs.push((0, 1));
            self.single_cycle = true;
            return;
        }
        let gap = |i: usize| onch_ccw[i].distance(onch_ccw[(i + 1) % m]) - 2.0 * UNIT_RADIUS;
        self.breaks
            .extend((0..m).filter(|&i| gap(i) > gap_threshold));
        if self.breaks.is_empty() {
            self.runs.push((0, m));
            self.single_cycle = true;
            return;
        }
        let k = self.breaks.len();
        for w in 0..k {
            // A component starts right after one break and ends at the next.
            let start = (self.breaks[(w + k - 1) % k] + 1) % m;
            let end = self.breaks[w]; // inclusive
            let len = (end + m - start) % m + 1;
            self.runs.push((start, len));
        }
        // Match connected_components' deterministic layout: components
        // ordered by the position of their rightmost member in the
        // boundary (which, absent approx-duplicate points, is the start
        // index itself).
        // Unstable sort (no allocation) with the start index as the final
        // tie-break, reproducing the stable order exactly.
        self.runs.sort_unstable_by_key(|&(start, _)| {
            (
                onch_ccw
                    .iter()
                    .position(|q| q.approx_eq(onch_ccw[start]))
                    .unwrap_or(usize::MAX),
                start,
            )
        });
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when the partition is empty (no boundary points).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// `true` when every hull gap is at most the threshold, so all robots
    /// form one cyclic component.
    pub fn is_single(&self) -> bool {
        self.single_cycle || self.runs.len() <= 1
    }

    /// Number of members of component `i`.
    pub fn size(&self, i: usize) -> usize {
        self.runs[i].1
    }

    /// Sizes of all components, in component order.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().map(|&(_, len)| len)
    }

    /// Index of the component containing `p`, scanning components and their
    /// members in the same order as [`ComponentPartition::component_of`].
    pub fn component_of(&self, onch_ccw: &[Point], p: Point) -> Option<usize> {
        let m = self.boundary_len;
        self.runs
            .iter()
            .position(|&(start, len)| (0..len).any(|o| onch_ccw[(start + o) % m].approx_eq(p)))
    }

    /// The rightmost (clockwise-most) member of component `i`.
    pub fn rightmost(&self, onch_ccw: &[Point], i: usize) -> Point {
        onch_ccw[self.runs[i].0]
    }

    /// The leftmost member of component `i`.
    pub fn leftmost(&self, onch_ccw: &[Point], i: usize) -> Point {
        let (start, len) = self.runs[i];
        onch_ccw[(start + len - 1) % self.boundary_len]
    }

    /// Index of the component clockwise-adjacent to component `i`.
    pub fn right_neighbor(&self, i: usize) -> usize {
        let k = self.runs.len();
        (i + k - 1) % k
    }

    /// Boundary gap (center distance minus 2) between component `i`'s
    /// rightmost robot and its right-neighbour component's leftmost robot.
    pub fn right_gap(&self, onch_ccw: &[Point], i: usize) -> f64 {
        let j = self.right_neighbor(i);
        self.rightmost(onch_ccw, i)
            .distance(self.leftmost(onch_ccw, j))
            - 2.0 * UNIT_RADIUS
    }
}

/// Function `Connected-Components`: group the given robot centers (all of
/// which must lie on their common convex hull) into components using the gap
/// threshold (the paper uses `1/2m`).
///
/// Centers that do not lie on the hull boundary are ignored; the local
/// algorithm only calls this in configurations where every robot is on the
/// hull.
pub fn connected_components(centers: &[Point], gap_threshold: f64) -> ComponentPartition {
    if centers.is_empty() {
        return ComponentPartition {
            components: vec![],
            single_cycle: false,
        };
    }
    let hull = ConvexHull::from_points(centers);
    let ordered = hull.boundary();
    let m = ordered.len();
    if m == 1 {
        return ComponentPartition {
            components: vec![HullComponent {
                members_ccw: ordered,
            }],
            single_cycle: true,
        };
    }

    // Break the cyclic CCW sequence at every gap larger than the threshold.
    let gap = |i: usize| ordered[i].distance(ordered[(i + 1) % m]) - 2.0 * UNIT_RADIUS;
    let breaks: Vec<usize> = (0..m).filter(|&i| gap(i) > gap_threshold).collect();
    if breaks.is_empty() {
        return ComponentPartition {
            components: vec![HullComponent {
                members_ccw: ordered,
            }],
            single_cycle: true,
        };
    }

    let mut components = Vec::with_capacity(breaks.len());
    for w in 0..breaks.len() {
        // A component starts right after one break and ends at the next.
        let start = (breaks[(w + breaks.len() - 1) % breaks.len()] + 1) % m;
        let end = breaks[w]; // inclusive
        let mut members = Vec::new();
        let mut idx = start;
        loop {
            members.push(ordered[idx]);
            if idx == end {
                break;
            }
            idx = (idx + 1) % m;
        }
        components.push(HullComponent {
            members_ccw: members,
        });
    }
    // Order components counter-clockwise by their starting index for a
    // deterministic layout.
    components.sort_by_key(|c| {
        ordered
            .iter()
            .position(|q| q.approx_eq(c.rightmost()))
            .unwrap_or(usize::MAX)
    });
    ComponentPartition {
        components,
        single_cycle: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Robots on a circle of radius `r`, grouped: each group is a list of
    /// touching robots (adjacent chord distance exactly 2), groups are
    /// separated by the given angular gaps.
    fn circle_groups(r: f64, group_sizes: &[usize], start_angles: &[f64]) -> Vec<Point> {
        assert_eq!(group_sizes.len(), start_angles.len());
        let step = 2.0 * (1.0 / r).asin(); // chord of exactly 2
        let mut pts = Vec::new();
        for (&size, &start) in group_sizes.iter().zip(start_angles) {
            for k in 0..size {
                let a = start + k as f64 * step;
                pts.push(Point::new(r * a.cos(), r * a.sin()));
            }
        }
        pts
    }

    #[test]
    fn grouping_by_gap_threshold() {
        let n = 6;
        let centers = circle_groups(60.0, &[3, 2, 1], &[0.0, 2.0, 4.0]);
        let part = connected_components(&centers, 1.0 / (2.0 * n as f64));
        assert_eq!(part.len(), 3);
        assert!(!part.is_single());
        let mut sizes = part.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn all_touching_is_a_single_component() {
        let centers = circle_groups(60.0, &[6], &[0.0]);
        let part = connected_components(&centers, 0.05);
        assert!(part.is_single());
        assert_eq!(part.len(), 1);
        assert_eq!(part.components()[0].len(), 6);
    }

    #[test]
    fn rightmost_and_leftmost_follow_clockwise_convention() {
        // One group of three robots on the circle at increasing angle
        // (counter-clockwise), plus a far-away singleton so the partition is
        // not a single cycle.
        let centers = circle_groups(60.0, &[3, 1], &[0.0, 3.0]);
        let part = connected_components(&centers, 0.05);
        assert_eq!(part.len(), 2);
        let big = part
            .components()
            .iter()
            .find(|c| c.len() == 3)
            .expect("group of three exists");
        // CCW order = increasing angle, so the rightmost (clockwise-most)
        // member is the one at the smallest angle (y closest to 0 from
        // above), and the leftmost is at the largest angle.
        assert!(big.rightmost().y < big.leftmost().y);
        assert!(big.rightmost().approx_eq(centers[0]));
        assert!(big.leftmost().approx_eq(centers[2]));
    }

    #[test]
    fn right_gap_measures_distance_to_clockwise_neighbour() {
        // Two singletons at angles 0 and π/2 on a circle of radius 10.
        let centers = circle_groups(10.0, &[1, 1], &[0.0, std::f64::consts::FRAC_PI_2]);
        let part = connected_components(&centers, 0.05);
        assert_eq!(part.len(), 2);
        let i0 = part.component_of(centers[0]).unwrap();
        // The clockwise neighbour of the robot at angle 0 is the robot at
        // angle π/2 (going clockwise wraps around the short way below the
        // x-axis? No: with only two robots the hull is a segment; both gaps
        // are the same distance).
        let expected_gap = centers[0].distance(centers[1]) - 2.0;
        assert!((part.right_gap(i0) - expected_gap).abs() < 1e-9);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty = connected_components(&[], 0.1);
        assert!(empty.is_empty());
        let single = connected_components(&[Point::new(0.0, 0.0)], 0.1);
        assert!(single.is_single());
        assert_eq!(single.components()[0].len(), 1);
    }

    #[test]
    fn boundary_partition_matches_connected_components_exactly() {
        // The flat scratch partition used by the Compute hot path must
        // reproduce the heavy partition structure-for-structure: same
        // component count, order, members, endpoints and gaps.
        let configs: Vec<(Vec<Point>, f64)> = vec![
            (
                circle_groups(60.0, &[3, 2, 1], &[0.0, 2.0, 4.0]),
                1.0 / 12.0,
            ),
            (circle_groups(60.0, &[6], &[0.0]), 0.05),
            (circle_groups(60.0, &[3, 1], &[0.0, 3.0]), 0.05),
            (circle_groups(40.0, &[1, 1, 1], &[0.0, 0.5, 3.0]), 1.0 / 6.0),
            (
                circle_groups(60.0, &[4, 3, 2, 1], &[0.0, 1.5, 3.0, 4.5]),
                1.0 / 20.0,
            ),
            (vec![Point::new(0.0, 0.0)], 0.1),
            (vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)], 0.1),
        ];
        let mut flat = BoundaryPartition::default();
        for (centers, threshold) in configs {
            let heavy = connected_components(&centers, threshold);
            let onch = ConvexHull::from_points(&centers).boundary();
            flat.rebuild(&onch, threshold);
            assert_eq!(flat.len(), heavy.len());
            assert_eq!(flat.is_single(), heavy.is_single());
            assert_eq!(flat.sizes().collect::<Vec<_>>(), heavy.sizes());
            for (i, comp) in heavy.components().iter().enumerate() {
                assert!(flat.rightmost(&onch, i).approx_eq(comp.rightmost()));
                assert!(flat.leftmost(&onch, i).approx_eq(comp.leftmost()));
                assert!((flat.right_gap(&onch, i) - heavy.right_gap(i)).abs() < 1e-12);
            }
            for &c in &centers {
                assert_eq!(flat.component_of(&onch, c), heavy.component_of(c));
            }
            assert_eq!(flat.component_of(&onch, Point::new(1e6, 1e6)), None);
        }
    }

    #[test]
    fn partition_covers_every_robot_exactly_once() {
        let centers = circle_groups(60.0, &[4, 3, 2, 1], &[0.0, 1.5, 3.0, 4.5]);
        let part = connected_components(&centers, 1.0 / 20.0);
        let total: usize = part.sizes().iter().sum();
        assert_eq!(total, centers.len());
        for &c in &centers {
            assert!(part.component_of(c).is_some());
        }
    }
}
