//! Local views (`V_i`): the snapshot a robot obtains in its Look phase.

use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::visibility::{visible_set, VisibilityConfig};
use fatrobots_geometry::Point;

use crate::config::GeometricConfig;

/// The local view `V_i ⊆ G` of a robot: its own center plus the centers of
/// all robots visible to it at the moment of the snapshot, together with the
/// globally-known number of robots `n`.
///
/// Per the paper, `V_i` is the *only* input of the local Compute algorithm;
/// the robot additionally knows `n` and the common unit of distance (the
/// disc radius), both of which are part of the model.
///
/// A view additionally carries a **version stamp** — provenance metadata
/// set by the simulator ([`LocalView::stamp_version`]) recording the
/// world's per-robot view version at snapshot time. The paper's `V_i` is
/// exactly `(me, others, n)`; the stamp is bookkeeping for the engine's
/// decision memoization (two snapshots of a robot carrying the same
/// non-zero stamp are guaranteed identical) and deliberately does **not**
/// participate in equality.
#[derive(Debug, Clone)]
pub struct LocalView {
    me: Point,
    others: Vec<Point>,
    n: usize,
    /// 0 = never stamped; the engine stamps world versions, which start at 1.
    version: u64,
}

impl PartialEq for LocalView {
    /// View identity is the paper's `V_i = (me, others, n)`; the version
    /// stamp is provenance, not content.
    fn eq(&self, other: &Self) -> bool {
        self.me == other.me && self.others == other.others && self.n == other.n
    }
}

impl LocalView {
    /// Creates a view for a robot at `me` that sees `others`, in a system of
    /// `n` robots.
    ///
    /// # Panics
    /// Panics if `others` holds `n` or more centers (a robot can see at most
    /// `n − 1` other robots).
    pub fn new(me: Point, others: Vec<Point>, n: usize) -> Self {
        assert!(
            others.len() < n,
            "a robot sees at most n-1 other robots (saw {} of n={})",
            others.len(),
            n
        );
        LocalView {
            me,
            others,
            n,
            version: 0,
        }
    }

    /// Takes the snapshot of robot `i` in configuration `g`, using the
    /// sampling-based visibility oracle: the Look phase of the paper.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn snapshot(g: &GeometricConfig, i: usize, vis: &VisibilityConfig) -> Self {
        let centers = g.centers();
        let visible = visible_set(i, centers, vis);
        Self::from_visible(centers, i, &visible)
    }

    /// Builds the view of robot `i` from a center slice and a precomputed
    /// list of visible robot indices (ascending, excluding `i`), borrowing
    /// the configuration instead of cloning it.
    ///
    /// This is the constructor the simulator's incremental world state uses:
    /// the visibility decisions come from its cached pair store, so the
    /// per-Look cost is one small allocation for the view itself.
    ///
    /// # Panics
    /// Panics if `i` or any element of `visible` is out of bounds, or if
    /// `visible` does not leave room for the observer (`visible.len() >= n`).
    pub fn from_visible(centers: &[Point], i: usize, visible: &[usize]) -> Self {
        debug_assert!(
            visible.iter().all(|&j| j != i),
            "the visible set must not contain the observer"
        );
        Self::new(
            centers[i],
            visible.iter().map(|&j| centers[j]).collect(),
            centers.len(),
        )
    }

    /// Refills this view in place with the snapshot [`Self::from_visible`]
    /// would build, reusing the view's own center storage. This is what the
    /// engine calls on every Look event: each robot keeps one `LocalView`
    /// for the lifetime of the run, so the steady-state snapshot performs no
    /// heap allocation.
    ///
    /// # Panics
    /// Panics (in debug builds) if `visible` contains the observer; panics
    /// if any index is out of bounds or `visible` does not leave room for
    /// the observer.
    pub fn refill_from_visible(&mut self, centers: &[Point], i: usize, visible: &[usize]) {
        debug_assert!(
            visible.iter().all(|&j| j != i),
            "the visible set must not contain the observer"
        );
        assert!(
            visible.len() < centers.len(),
            "a robot sees at most n-1 other robots (saw {} of n={})",
            visible.len(),
            centers.len()
        );
        self.me = centers[i];
        self.n = centers.len();
        self.version = 0; // content changed: a stale stamp must never survive
        self.others.clear();
        self.others.extend(visible.iter().map(|&j| centers[j]));
    }

    /// Stamps this view with the simulator's per-robot view version (see
    /// the type docs). [`Self::refill_from_visible`] resets the stamp to 0
    /// (unstamped), so a forgotten stamp can never alias a previous one.
    pub fn stamp_version(&mut self, version: u64) {
        self.version = version;
    }

    /// The version stamp: 0 when never stamped, otherwise the world's view
    /// version for this robot at snapshot time.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Takes a snapshot assuming full visibility (every other robot is seen).
    /// Useful once the configuration is in convex position, where visibility
    /// is decided exactly by the no-three-collinear predicate and the
    /// sampling oracle is unnecessary.
    pub fn full_snapshot(g: &GeometricConfig, i: usize) -> Self {
        let centers = g.centers();
        LocalView {
            me: centers[i],
            others: centers
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &c)| c)
                .collect(),
            n: g.len(),
            version: 0,
        }
    }

    /// The observing robot's own center (`c_i`).
    pub fn me(&self) -> Point {
        self.me
    }

    /// Centers of the *other* visible robots.
    pub fn others(&self) -> &[Point] {
        &self.others
    }

    /// All centers in the view: the observer first, then the others.
    pub fn all_centers(&self) -> Vec<Point> {
        let mut v = Vec::with_capacity(self.others.len() + 1);
        v.push(self.me);
        v.extend_from_slice(&self.others);
        v
    }

    /// Number of robots in the view (`|V_i|`, observer included).
    pub fn size(&self) -> usize {
        self.others.len() + 1
    }

    /// The total number of robots `n` in the system (known to every robot).
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when the robot sees all `n − 1` other robots (`|V_i| = n`).
    pub fn sees_all(&self) -> bool {
        self.size() == self.n
    }

    /// Convex hull of all centers in the view.
    pub fn hull(&self) -> ConvexHull {
        ConvexHull::from_points(&self.all_centers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn snapshot_reflects_occlusion() {
        // Three collinear robots: the middle one hides the far one.
        let g = GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        let vis = VisibilityConfig::default();
        let v0 = LocalView::snapshot(&g, 0, &vis);
        assert_eq!(v0.size(), 2);
        assert!(!v0.sees_all());
        let v1 = LocalView::snapshot(&g, 1, &vis);
        assert_eq!(v1.size(), 3);
        assert!(v1.sees_all());
    }

    #[test]
    fn from_visible_matches_snapshot() {
        let g = GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        let vis = VisibilityConfig::default();
        for i in 0..g.len() {
            let direct = LocalView::snapshot(&g, i, &vis);
            let visible = fatrobots_geometry::visibility::visible_set(i, g.centers(), &vis);
            let borrowed = LocalView::from_visible(g.centers(), i, &visible);
            assert_eq!(direct, borrowed);
        }
    }

    #[test]
    fn refill_reuses_storage_and_matches_from_visible() {
        let g = GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        let vis = VisibilityConfig::default();
        // One view refilled across every robot must always equal the
        // freshly built snapshot.
        let mut view = LocalView::new(p(0.0, 0.0), vec![], 3);
        for i in 0..g.len() {
            let visible = fatrobots_geometry::visibility::visible_set(i, g.centers(), &vis);
            view.refill_from_visible(g.centers(), i, &visible);
            assert_eq!(view, LocalView::from_visible(g.centers(), i, &visible));
        }
    }

    #[test]
    fn version_stamp_is_provenance_not_content() {
        let mut view = LocalView::new(p(0.0, 0.0), vec![p(5.0, 0.0)], 2);
        assert_eq!(view.version(), 0, "fresh views are unstamped");
        view.stamp_version(7);
        assert_eq!(view.version(), 7);
        // Equality ignores the stamp: V_i is (me, others, n).
        assert_eq!(view, LocalView::new(p(0.0, 0.0), vec![p(5.0, 0.0)], 2));
        // A refill resets the stamp so it can never alias the previous one.
        view.refill_from_visible(&[p(0.0, 0.0), p(5.0, 0.0)], 0, &[1]);
        assert_eq!(view.version(), 0);
    }

    #[test]
    #[should_panic]
    fn refill_rejects_oversized_visible_sets() {
        let mut view = LocalView::new(p(0.0, 0.0), vec![], 2);
        view.refill_from_visible(&[p(0.0, 0.0), p(5.0, 0.0)], 0, &[1, 1]);
    }

    #[test]
    fn full_snapshot_sees_everyone() {
        let g = GeometricConfig::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        let v = LocalView::full_snapshot(&g, 0);
        assert!(v.sees_all());
        assert_eq!(v.me(), p(0.0, 0.0));
        assert_eq!(v.others().len(), 2);
    }

    #[test]
    fn all_centers_starts_with_observer() {
        let v = LocalView::new(p(1.0, 1.0), vec![p(5.0, 5.0)], 3);
        let all = v.all_centers();
        assert_eq!(all[0], p(1.0, 1.0));
        assert_eq!(all.len(), 2);
        assert_eq!(v.n(), 3);
        assert!(!v.sees_all());
    }

    #[test]
    fn hull_of_view() {
        let v = LocalView::new(
            p(0.0, 0.0),
            vec![p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)],
            4,
        );
        assert_eq!(v.hull().vertices().len(), 4);
        assert!(v.sees_all());
    }

    #[test]
    #[should_panic]
    fn view_cannot_exceed_n() {
        let _ = LocalView::new(p(0.0, 0.0), vec![p(3.0, 0.0), p(6.0, 0.0)], 2);
    }
}
