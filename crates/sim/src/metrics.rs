//! Per-run metrics.

use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::Point;
use fatrobots_model::config::{self, COLLINEARITY_TOL};
use fatrobots_scheduler::Event;

/// One sampled point of the configuration-level series recorded during a
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Event index at which the sample was taken.
    pub event: usize,
    /// Area of the convex hull of the robot centers.
    pub hull_area: f64,
    /// `true` when every center was on the hull.
    pub all_on_hull: bool,
    /// `true` when additionally no three consecutive hull centers were
    /// collinear (full visibility in convex position).
    pub fully_visible: bool,
    /// `true` when the union of the discs was connected.
    pub connected: bool,
}

/// The configuration-level predicate values behind one [`Sample`],
/// decoupled from *how* they were obtained: [`SamplePredicates::from_centers`]
/// recomputes everything from scratch, while the incremental world state
/// supplies them from its caches via [`SamplePredicates::from_hull`]. Both
/// paths evaluate the same formulas on the same inputs, so the recorded
/// samples are identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePredicates {
    /// Area of the convex hull of the centers.
    pub hull_area: f64,
    /// `true` when every center is on the hull boundary.
    pub all_on_hull: bool,
    /// `true` when additionally no three consecutive hull centers are
    /// collinear (full visibility in convex position).
    pub fully_visible: bool,
    /// `true` when the union of the discs is connected.
    pub connected: bool,
}

impl SamplePredicates {
    /// Evaluates every predicate from scratch on a center slice.
    pub fn from_centers(centers: &[Point]) -> Self {
        let hull = ConvexHull::from_points(centers);
        let all_on_hull = centers.len() <= 2 || hull.all_on_hull();
        let connected = config::is_connected(centers);
        Self::from_hull(&hull, all_on_hull, connected)
    }

    /// Builds the predicates from an already-computed hull and
    /// connectivity answer (the incremental world's cached values).
    pub fn from_hull(hull: &ConvexHull, all_on_hull: bool, connected: bool) -> Self {
        let fully_visible = all_on_hull && consecutive_hull_triples_ok(&hull.boundary());
        SamplePredicates {
            hull_area: hull.area(),
            all_on_hull,
            fully_visible,
            connected,
        }
    }
}

/// Metrics collected by the simulator over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Total number of events applied.
    pub events: usize,
    /// Number of `Look` events (equals the number of started LCM cycles).
    pub looks: usize,
    /// Number of `Compute` events.
    pub computes: usize,
    /// Number of `Move` events (cycles that produced a motion).
    pub moves: usize,
    /// Number of `Arrive` events.
    pub arrivals: usize,
    /// Number of `Stop` events.
    pub stops: usize,
    /// Number of `Collide` events.
    pub collisions: usize,
    /// Number of `Done` events (terminations).
    pub dones: usize,
    /// Total distance travelled by all robots.
    pub distance_travelled: f64,
    /// First event index at which every center was on the hull, if ever.
    pub first_all_on_hull: Option<usize>,
    /// First event index at which the configuration was fully visible (all
    /// on hull, no three consecutive hull centers collinear), if ever.
    pub first_fully_visible: Option<usize>,
    /// First event index at which the configuration was connected, if ever.
    pub first_connected: Option<usize>,
    /// Sampled configuration-level series (present when sampling is
    /// enabled).
    pub samples: Vec<Sample>,
}

impl Metrics {
    /// Records one applied event.
    pub fn record_event(&mut self, event: &Event) {
        self.events += 1;
        match event {
            Event::Look(_) => self.looks += 1,
            Event::Compute(_) => self.computes += 1,
            Event::Move(_) => self.moves += 1,
            Event::Arrive(_) => self.arrivals += 1,
            Event::Stop(_) => self.stops += 1,
            Event::Collide(_) => self.collisions += 1,
            Event::Done(_) => self.dones += 1,
        }
    }

    /// Adds travelled distance.
    pub fn record_travel(&mut self, distance: f64) {
        self.distance_travelled += distance;
    }

    /// Records a [`Sample`] from already-evaluated predicates (the
    /// incremental world's cached hull and connectivity).
    pub fn record_sample_predicates(&mut self, p: SamplePredicates) {
        let sample = Sample {
            event: self.events,
            hull_area: p.hull_area,
            all_on_hull: p.all_on_hull,
            fully_visible: p.fully_visible,
            connected: p.connected,
        };
        if p.all_on_hull && self.first_all_on_hull.is_none() {
            self.first_all_on_hull = Some(self.events);
        }
        if p.fully_visible && self.first_fully_visible.is_none() {
            self.first_fully_visible = Some(self.events);
        }
        if p.connected && self.first_connected.is_none() {
            self.first_connected = Some(self.events);
        }
        self.samples.push(sample);
    }

    /// Fraction of consecutive sample pairs where the hull area did not
    /// decrease (a monotonicity witness for Lemma 20) over the samples taken
    /// *before* full visibility was first reached.
    pub fn expansion_monotonicity(&self) -> Option<f64> {
        let cutoff = self.first_fully_visible?;
        let pre: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.event <= cutoff)
            .map(|s| s.hull_area)
            .collect();
        monotone_fraction(&pre, true)
    }

    /// Fraction of consecutive sample pairs where the hull area did not
    /// increase (Lemma 21) over the samples taken *after* full visibility
    /// was first reached.
    pub fn convergence_monotonicity(&self) -> Option<f64> {
        let cutoff = self.first_fully_visible?;
        let post: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.event >= cutoff)
            .map(|s| s.hull_area)
            .collect();
        monotone_fraction(&post, false)
    }
}

/// Fraction of consecutive pairs that are non-decreasing (`increasing =
/// true`) or non-increasing (`increasing = false`), with a small slack for
/// floating-point noise. `None` when fewer than two values.
fn monotone_fraction(values: &[f64], increasing: bool) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let slack = 1e-6;
    let ok = values
        .windows(2)
        .filter(|w| {
            if increasing {
                w[1] >= w[0] - slack
            } else {
                w[1] <= w[0] + slack
            }
        })
        .count();
    Some(ok as f64 / (values.len() - 1) as f64)
}

/// `true` when no three *consecutive* hull boundary points are collinear
/// within [`COLLINEARITY_TOL`] — in convex position this is equivalent to no
/// three centers being collinear at all, and it is O(n) instead of O(n³).
fn consecutive_hull_triples_ok(boundary: &[Point]) -> bool {
    let m = boundary.len();
    if m < 3 {
        return true;
    }
    (0..m).all(|i| {
        let a = boundary[i];
        let b = boundary[(i + 1) % m];
        let c = boundary[(i + 2) % m];
        fatrobots_geometry::predicates::orientation_tol(a, b, c, COLLINEARITY_TOL)
            != fatrobots_geometry::predicates::Orientation::Collinear
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatrobots_model::RobotId;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn record(m: &mut Metrics, centers: &[Point]) {
        m.record_sample_predicates(SamplePredicates::from_centers(centers));
    }

    #[test]
    fn event_counters() {
        let mut m = Metrics::default();
        m.record_event(&Event::Look(RobotId(0)));
        m.record_event(&Event::Compute(RobotId(0)));
        m.record_event(&Event::Move(RobotId(0)));
        m.record_event(&Event::Arrive(RobotId(0)));
        m.record_event(&Event::Stop(RobotId(1)));
        m.record_event(&Event::Collide(vec![RobotId(0), RobotId(1)]));
        m.record_event(&Event::Done(RobotId(2)));
        assert_eq!(m.events, 7);
        assert_eq!(
            (
                m.looks,
                m.computes,
                m.moves,
                m.arrivals,
                m.stops,
                m.collisions,
                m.dones
            ),
            (1, 1, 1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn samples_and_first_time_markers() {
        let mut m = Metrics::default();
        // Disconnected square: all on hull, fully visible, not connected.
        let square = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        record(&mut m, &square);
        assert_eq!(m.first_all_on_hull, Some(0));
        assert_eq!(m.first_fully_visible, Some(0));
        assert_eq!(m.first_connected, None);
        // Connected triangle.
        m.record_event(&Event::Look(RobotId(0)));
        let triangle = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())];
        record(&mut m, &triangle);
        assert_eq!(m.first_connected, Some(1));
        assert_eq!(m.samples.len(), 2);
        assert!(m.samples[0].hull_area > m.samples[1].hull_area);
    }

    #[test]
    fn collinear_configuration_is_not_fully_visible() {
        let mut m = Metrics::default();
        let line = vec![p(0.0, 0.0), p(2.0, 0.0), p(4.0, 0.0)];
        record(&mut m, &line);
        assert!(m.samples[0].all_on_hull);
        assert!(!m.samples[0].fully_visible);
        assert!(m.samples[0].connected);
    }

    #[test]
    fn monotonicity_fractions() {
        assert_eq!(monotone_fraction(&[1.0], true), None);
        assert_eq!(monotone_fraction(&[1.0, 2.0, 3.0], true), Some(1.0));
        assert_eq!(monotone_fraction(&[3.0, 2.0, 2.5], false), Some(0.5));
    }

    #[test]
    fn expansion_and_convergence_monotonicity_need_full_visibility() {
        let mut m = Metrics::default();
        let line = vec![p(0.0, 0.0), p(6.0, 0.0), p(12.0, 0.0)];
        record(&mut m, &line);
        assert!(m.expansion_monotonicity().is_none());
        // Reach a fully visible configuration, then shrink it.
        let tri_big = vec![p(0.0, 0.0), p(12.0, 0.0), p(6.0, 10.0)];
        let tri_small = vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 8.0)];
        m.record_event(&Event::Look(RobotId(0)));
        record(&mut m, &tri_big);
        m.record_event(&Event::Look(RobotId(1)));
        record(&mut m, &tri_small);
        assert_eq!(m.convergence_monotonicity(), Some(1.0));
    }
}
