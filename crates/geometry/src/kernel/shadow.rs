//! The shadow kernel: run [`EpsKernel`] and [`ExactKernel`] side by side,
//! tally their disagreements per predicate site, and *return the ε
//! verdict* — so a decision computed under [`ShadowKernel`] is bitwise the
//! decision the production engine makes, with a disagreement log on the
//! side. The sim crate's `ShadowExecutor` drives this per Compute event.
//!
//! The tally lives in a thread-local ([`reset`]/[`take`]): a shadow replay
//! owns its thread (one run per worker in the sweep pool), so no shared
//! state or locks are needed and parallel shadow sweeps stay independent.

use std::cell::RefCell;
use std::cmp::Ordering;

use super::{EpsKernel, ExactKernel, Kernel};
use crate::point::Point;
use crate::predicates::Orientation;
use crate::segment::Segment;

/// Where in the pipeline a kernel predicate was asked — the unit of
/// divergence attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateSite {
    /// Policy-width orientation of a triple (hull chains, side tests).
    Orientation,
    /// Orientation against an explicit tolerance (collinearity band,
    /// hull containment).
    OrientationTol,
    /// Point–point distance vs radius (touch tests, visibility range).
    CmpDist,
    /// Point–segment distance vs radius, sqrt form (hull boundary,
    /// circle blocking).
    CmpSegmentDist,
    /// Point–line distance vs radius (chord band, tangent side tests).
    CmpLineDist,
    /// Segment–segment intersection classification (ray exits,
    /// boundary crossings).
    SegmentIntersection,
}

impl PredicateSite {
    /// All sites, in tally-array order.
    pub const ALL: [PredicateSite; 6] = [
        PredicateSite::Orientation,
        PredicateSite::OrientationTol,
        PredicateSite::CmpDist,
        PredicateSite::CmpSegmentDist,
        PredicateSite::CmpLineDist,
        PredicateSite::SegmentIntersection,
    ];

    /// Stable short name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            PredicateSite::Orientation => "orientation",
            PredicateSite::OrientationTol => "orientation_tol",
            PredicateSite::CmpDist => "cmp_dist",
            PredicateSite::CmpSegmentDist => "cmp_segment_dist",
            PredicateSite::CmpLineDist => "cmp_line_dist",
            PredicateSite::SegmentIntersection => "segment_intersection",
        }
    }

    fn idx(self) -> usize {
        match self {
            PredicateSite::Orientation => 0,
            PredicateSite::OrientationTol => 1,
            PredicateSite::CmpDist => 2,
            PredicateSite::CmpSegmentDist => 3,
            PredicateSite::CmpLineDist => 4,
            PredicateSite::SegmentIntersection => 5,
        }
    }
}

/// Number of predicate sites: the length of every per-site tally.
const SITES: usize = PredicateSite::ALL.len();

/// Per-site call and disagreement tallies for one shadow evaluation span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowLog {
    calls: [u64; SITES],
    disagreements: [u64; SITES],
}

impl ShadowLog {
    /// Total predicate calls across all sites.
    pub fn calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total ε-vs-exact disagreements across all sites.
    pub fn disagreements(&self) -> u64 {
        self.disagreements.iter().sum()
    }

    /// Calls observed at one site.
    pub fn calls_at(&self, site: PredicateSite) -> u64 {
        self.calls[site.idx()]
    }

    /// Disagreements observed at one site.
    pub fn disagreements_at(&self, site: PredicateSite) -> u64 {
        self.disagreements[site.idx()]
    }

    /// The site with the most disagreements, if any disagreed.
    pub fn dominant_site(&self) -> Option<PredicateSite> {
        PredicateSite::ALL
            .into_iter()
            .max_by_key(|s| self.disagreements[s.idx()])
            .filter(|s| self.disagreements[s.idx()] > 0)
    }

    /// Merge another log into this one (aggregation across events/runs).
    pub fn merge(&mut self, other: &ShadowLog) {
        for i in 0..SITES {
            self.calls[i] += other.calls[i];
            self.disagreements[i] += other.disagreements[i];
        }
    }

    fn record(&mut self, site: PredicateSite, agreed: bool) {
        self.calls[site.idx()] += 1;
        if !agreed {
            self.disagreements[site.idx()] += 1;
        }
    }
}

thread_local! {
    static LOG: RefCell<ShadowLog> = const { RefCell::new(ShadowLog {
        calls: [0; SITES],
        disagreements: [0; SITES],
    }) };
}

/// Clear this thread's shadow tally (call before an evaluation span).
pub fn reset() {
    LOG.with(|l| *l.borrow_mut() = ShadowLog::default());
}

/// Take this thread's shadow tally, clearing it.
pub fn take() -> ShadowLog {
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

fn record(site: PredicateSite, agreed: bool) {
    LOG.with(|l| l.borrow_mut().record(site, agreed));
}

/// Evaluates every predicate under both [`EpsKernel`] and [`ExactKernel`],
/// records agreement per [`PredicateSite`] in the thread-local log, and
/// returns the ε verdict — shadow-driven decisions equal production
/// decisions by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowKernel;

impl Kernel for ShadowKernel {
    const NAME: &'static str = "shadow";

    fn orientation(a: Point, b: Point, c: Point) -> Orientation {
        let eps = EpsKernel::orientation(a, b, c);
        let exact = ExactKernel::orientation(a, b, c);
        record(PredicateSite::Orientation, eps == exact);
        eps
    }

    fn orientation_tol(a: Point, b: Point, c: Point, tol: f64) -> Orientation {
        let eps = EpsKernel::orientation_tol(a, b, c, tol);
        let exact = ExactKernel::orientation_tol(a, b, c, tol);
        record(PredicateSite::OrientationTol, eps == exact);
        eps
    }

    fn cmp_dist(p: Point, q: Point, r: f64) -> Ordering {
        let eps = EpsKernel::cmp_dist(p, q, r);
        let exact = ExactKernel::cmp_dist(p, q, r);
        record(PredicateSite::CmpDist, eps == exact);
        eps
    }

    fn cmp_segment_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        let eps = EpsKernel::cmp_segment_dist(a, b, p, r);
        let exact = ExactKernel::cmp_segment_dist(a, b, p, r);
        record(PredicateSite::CmpSegmentDist, eps == exact);
        eps
    }

    fn cmp_line_dist(a: Point, b: Point, p: Point, r: f64) -> Ordering {
        let eps = EpsKernel::cmp_line_dist(a, b, p, r);
        let exact = ExactKernel::cmp_line_dist(a, b, p, r);
        record(PredicateSite::CmpLineDist, eps == exact);
        eps
    }

    fn segment_intersection(s1: &Segment, s2: &Segment) -> Option<Point> {
        let eps = EpsKernel::segment_intersection(s1, s2);
        let exact = ExactKernel::segment_intersection(s1, s2);
        // Classification agreement only: when both kernels say "crosses",
        // the constructed point is the same f64 construction by design.
        record(
            PredicateSite::SegmentIntersection,
            eps.is_some() == exact.is_some(),
        );
        eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn shadow_returns_the_eps_verdict_and_tallies() {
        reset();
        let (a, b) = (p(0.0, 0.0), p(1.0, 0.0));
        // Sub-ε offset: ε says Collinear, exact says CCW → disagreement.
        let near = p(0.5, 1e-12);
        assert_eq!(
            ShadowKernel::orientation(a, b, near),
            EpsKernel::orientation(a, b, near)
        );
        // Clear CCW: agreement.
        let far = p(0.5, 1.0);
        assert_eq!(
            ShadowKernel::orientation(a, b, far),
            Orientation::CounterClockwise
        );
        let log = take();
        assert_eq!(log.calls_at(PredicateSite::Orientation), 2);
        assert_eq!(log.disagreements_at(PredicateSite::Orientation), 1);
        assert_eq!(log.dominant_site(), Some(PredicateSite::Orientation));
        // take() cleared the tally.
        assert_eq!(take(), ShadowLog::default());
    }

    #[test]
    fn merge_accumulates_sites_independently() {
        reset();
        ShadowKernel::cmp_dist(p(0.0, 0.0), p(3.0, 4.0), 5.0);
        let mut total = take();
        reset();
        ShadowKernel::cmp_line_dist(p(0.0, 0.0), p(1.0, 0.0), p(0.5, 0.2), 0.1);
        total.merge(&take());
        assert_eq!(total.calls(), 2);
        assert_eq!(total.calls_at(PredicateSite::CmpDist), 1);
        assert_eq!(total.calls_at(PredicateSite::CmpLineDist), 1);
    }
}
