//! # fatrobots-baselines
//!
//! Baseline gathering strategies used as comparators for the paper's
//! algorithm in the experiment harness (experiment E5, `report --e5`; see
//! README, "The `report` CLI").
//!
//! None of these baselines is taken from a specific prior implementation;
//! they are the natural strawmen the paper's introduction argues against:
//!
//! * [`CentroidBaseline`] — the classical point-robot rule "move towards the
//!   centroid of what you see", which ignores both fatness and occlusion;
//! * [`GreedyNearest`] — "move until you touch your nearest visible robot",
//!   which connects locally but has no mechanism to establish full
//!   visibility or a single connected component;
//! * [`SmallN`] — a stand-in for the exhaustive case analysis of Czyzowicz,
//!   Gąsieniec & Pelc (2009), which solves gathering for n ≤ 4 fat robots
//!   and, by design, does not generalise: for n ≥ 5 it refuses to move.
//!
//! All baselines implement [`fatrobots_core::Strategy`], so the simulation
//! engine runs them exactly as it runs the paper's local algorithm. Their
//! termination rule is deliberately generous (terminate as soon as the view
//! is connected and contains all `n` robots); the experiments show they
//! still fail to gather for n ≥ 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fatrobots_core::{Decision, Strategy};
use fatrobots_geometry::{Point, EPS, UNIT_RADIUS};
use fatrobots_model::{config, LocalView};

/// Shared termination test used by every baseline: the robot stops as soon
/// as it sees all `n` robots and the discs in its view form one connected
/// component. (The paper's algorithm requires full visibility *and* convex
/// position; baselines get the weaker test so that any failure is theirs.)
fn view_gathered(view: &LocalView) -> bool {
    view.sees_all() && config::is_connected(&view.all_centers())
}

/// The point at distance 2 from `toward` on the segment `from → toward`: the
/// closest position at which the mover's disc is tangent to the target disc.
fn tangent_approach(from: Point, toward: Point) -> Point {
    let d = from.distance(toward);
    if d <= 2.0 * UNIT_RADIUS {
        return from;
    }
    toward + (from - toward).normalized() * (2.0 * UNIT_RADIUS)
}

/// Classical centroid pursuit: every robot heads for the centroid of its
/// view. Fat, non-transparent robots following this rule pile up around the
/// centroid, block each other's views and generally never reach a
/// configuration they can recognise as gathered.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentroidBaseline;

impl CentroidBaseline {
    /// Creates the baseline.
    pub fn new() -> Self {
        CentroidBaseline
    }
}

impl Strategy for CentroidBaseline {
    fn decide(&self, view: &LocalView) -> Decision {
        if view_gathered(view) {
            return Decision::Terminate;
        }
        let centroid = Point::centroid(&view.all_centers());
        if centroid.distance(view.me()) < EPS {
            return Decision::MoveTo(view.me());
        }
        Decision::MoveTo(centroid)
    }

    fn memoizable(&self) -> bool {
        true // a pure deterministic function of the view
    }

    fn name(&self) -> &'static str {
        "centroid"
    }
}

/// Greedy local attachment: head for the nearest visible robot and stop when
/// tangent to it. Quickly forms small clumps, but nothing ever merges the
/// clumps or restores visibility across them.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyNearest;

impl GreedyNearest {
    /// Creates the baseline.
    pub fn new() -> Self {
        GreedyNearest
    }
}

impl Strategy for GreedyNearest {
    fn decide(&self, view: &LocalView) -> Decision {
        if view_gathered(view) {
            return Decision::Terminate;
        }
        let me = view.me();
        let nearest = view.others().iter().copied().min_by(|a, b| {
            a.distance(me)
                .partial_cmp(&b.distance(me))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        match nearest {
            Some(q) => Decision::MoveTo(tangent_approach(me, q)),
            None => Decision::MoveTo(me),
        }
    }

    fn memoizable(&self) -> bool {
        true // a pure deterministic function of the view
    }

    fn name(&self) -> &'static str {
        "greedy-nearest"
    }
}

/// A stand-in for the small-`n` exhaustive strategy of Czyzowicz et al.:
/// behaves like [`GreedyNearest`] for systems of at most four robots (where
/// occlusion cannot hide more than a constant number of robots and local
/// attachment does gather), and refuses to move for larger systems — the
/// approach simply has no case analysis beyond n = 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmallN;

impl SmallN {
    /// The largest system size this strategy is defined for.
    pub const MAX_N: usize = 4;

    /// Creates the baseline.
    pub fn new() -> Self {
        SmallN
    }
}

impl Strategy for SmallN {
    fn decide(&self, view: &LocalView) -> Decision {
        if view.n() > Self::MAX_N {
            // Out of the strategy's domain: the robot idles forever.
            return Decision::MoveTo(view.me());
        }
        GreedyNearest.decide(view)
    }

    fn memoizable(&self) -> bool {
        true // a pure deterministic function of the view
    }

    fn name(&self) -> &'static str {
        "small-n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn centroid_heads_for_the_centroid() {
        let view = LocalView::new(p(0.0, 0.0), vec![p(12.0, 0.0), p(0.0, 12.0)], 3);
        let Decision::MoveTo(t) = CentroidBaseline::new().decide(&view) else {
            panic!("expected a move");
        };
        assert!(t.approx_eq(p(4.0, 4.0)));
    }

    #[test]
    fn centroid_terminates_when_view_is_gathered() {
        let view = LocalView::new(p(0.0, 0.0), vec![p(2.0, 0.0), p(4.0, 0.0)], 3);
        assert_eq!(CentroidBaseline::new().decide(&view), Decision::Terminate);
    }

    #[test]
    fn greedy_targets_tangency_with_the_nearest_robot() {
        let view = LocalView::new(p(0.0, 0.0), vec![p(10.0, 0.0), p(0.0, 6.0)], 3);
        let Decision::MoveTo(t) = GreedyNearest::new().decide(&view) else {
            panic!("expected a move");
        };
        // Nearest is (0,6); tangency point is (0,4).
        assert!(t.approx_eq(p(0.0, 4.0)));
    }

    #[test]
    fn greedy_with_no_visible_robot_stays() {
        let view = LocalView::new(p(3.0, 3.0), vec![], 5);
        assert_eq!(
            GreedyNearest::new().decide(&view),
            Decision::MoveTo(p(3.0, 3.0))
        );
    }

    #[test]
    fn tangent_approach_never_overshoots() {
        let t = tangent_approach(p(0.0, 0.0), p(1.5, 0.0));
        assert!(
            t.approx_eq(p(0.0, 0.0)),
            "already within contact range: stay"
        );
        let far = tangent_approach(p(0.0, 0.0), p(10.0, 0.0));
        assert!((far.distance(p(10.0, 0.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn small_n_acts_only_up_to_four_robots() {
        let small_view = LocalView::new(p(0.0, 0.0), vec![p(10.0, 0.0)], 2);
        assert_ne!(
            SmallN::new().decide(&small_view),
            Decision::MoveTo(p(0.0, 0.0)),
            "for n ≤ 4 the strategy moves"
        );
        let big_view = LocalView::new(p(0.0, 0.0), vec![p(10.0, 0.0), p(20.0, 5.0)], 5);
        assert_eq!(
            SmallN::new().decide(&big_view),
            Decision::MoveTo(p(0.0, 0.0)),
            "for n ≥ 5 the strategy idles"
        );
    }

    #[test]
    fn strategy_names_are_distinct() {
        let names = [
            CentroidBaseline::new().name(),
            GreedyNearest::new().name(),
            SmallN::new().name(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
