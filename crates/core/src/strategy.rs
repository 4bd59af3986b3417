//! A common interface for local decision rules, so the simulation engine can
//! run the paper's algorithm and the baseline strategies interchangeably.

use fatrobots_geometry::kernel::Kernel;
use fatrobots_model::LocalView;

use crate::compute::context::ComputeScratch;
use crate::compute::{Decision, KernelAlgorithm};

/// A local gathering strategy: a deterministic, memoryless map from a
/// robot's snapshot to a decision, exactly the shape of the paper's local
/// algorithm `A_i`. Baseline strategies implement the same trait so that the
/// simulator and the experiment harness can swap them in.
///
/// `Send + Sync` is a supertrait so one strategy object can be shared
/// across threads; every strategy here is a stateless value (`decide`
/// takes `&self`), so the bound costs nothing.
pub trait Strategy: Send + Sync {
    /// Decide what the robot should do given its current view.
    fn decide(&self, view: &LocalView) -> Decision;

    /// Like [`Strategy::decide`], with a caller-owned scratch arena the
    /// strategy may use for its working buffers. The engine calls this on
    /// every Compute event with the simulator's arena; strategies without
    /// reusable state (the baselines) fall back to [`Strategy::decide`] and
    /// simply ignore it. Implementations must return exactly the decision
    /// [`Strategy::decide`] would.
    fn decide_with(&self, view: &LocalView, _scratch: &mut ComputeScratch) -> Decision {
        self.decide(view)
    }

    /// `true` when this strategy is a pure deterministic function of the
    /// view — [`Strategy::decide`] called twice on identical views must
    /// return identical decisions — so the simulator may **memoize**
    /// decisions: when it can prove a robot's view is unchanged since its
    /// previous Look, it replays the cached decision instead of running the
    /// Compute pipeline at all.
    ///
    /// The paper's `A_i` is exactly such a map (deterministic, memoryless,
    /// Section 4.1), and so is every baseline in this workspace — they all
    /// opt in. The default is `false` so that a future stateful or
    /// randomized strategy is never silently memoized: replaying a decision
    /// it would not repeat changes its behaviour, and forgetting to
    /// override an opt-out default would do so invisibly.
    fn memoizable(&self) -> bool {
        false
    }

    /// A short name used in experiment reports.
    fn name(&self) -> &'static str;
}

impl<K: Kernel> Strategy for KernelAlgorithm<K> {
    fn decide(&self, view: &LocalView) -> Decision {
        self.run(view)
    }

    fn decide_with(&self, view: &LocalView, scratch: &mut ComputeScratch) -> Decision {
        self.run_with(view, scratch)
    }

    fn memoizable(&self) -> bool {
        true // the paper's algorithm is a pure function of the view (§4.1)
    }

    fn name(&self) -> &'static str {
        "agm-gathering"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::LocalAlgorithm;
    use crate::params::AlgorithmParams;
    use fatrobots_geometry::Point;

    #[test]
    fn local_algorithm_implements_strategy() {
        let algo = LocalAlgorithm::new(AlgorithmParams::for_n(3));
        let strategy: &dyn Strategy = &algo;
        let view = LocalView::new(
            Point::new(0.0, 0.0),
            vec![Point::new(2.0, 0.0), Point::new(1.0, 3.0_f64.sqrt())],
            3,
        );
        assert_eq!(strategy.decide(&view), Decision::Terminate);
        assert_eq!(strategy.name(), "agm-gathering");
        assert!(
            strategy.memoizable(),
            "the paper's algorithm is a pure view function and opts in"
        );
    }

    #[test]
    fn memoization_is_opt_in() {
        // A strategy that does not declare itself a pure view function must
        // never be memoized by default — replaying would change it.
        struct Opaque;
        impl Strategy for Opaque {
            fn decide(&self, view: &LocalView) -> Decision {
                Decision::MoveTo(view.me())
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        assert!(!Opaque.memoizable());
    }
}
