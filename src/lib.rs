//! # fatrobots
//!
//! A reproduction of *A Distributed Algorithm for Gathering Many Fat Mobile
//! Robots in the Plane* (Agathangelou, Georgiou & Mavronicolas, PODC 2013)
//! as a Rust workspace: the gathering algorithm itself, the geometric and
//! robot-model substrates it needs, an asynchronous adversary-driven
//! simulator, baseline strategies and an experiment harness.
//!
//! This meta-crate re-exports the public API of every workspace crate so
//! that applications can depend on a single crate:
//!
//! * [`geometry`] — points, segments, circles, convex hulls, visibility
//!   among unit-disc obstacles;
//! * [`model`] — robot ids, Look–Compute–Move phases, configuration
//!   predicates, local views;
//! * [`core`] — the Section-3 geometric functions and the 17-state local
//!   Compute algorithm;
//! * [`scheduler`] — the asynchronous event model and adversary strategies;
//! * [`sim`] — the simulation engine, workload generators, metrics and the
//!   experiment harness;
//! * [`baselines`] — comparison strategies (centroid pursuit, greedy
//!   nearest-neighbour, the small-`n` stand-in).
//!
//! ## Quickstart
//!
//! ```
//! use fatrobots::prelude::*;
//!
//! let n = 5;
//! let centers = fatrobots::sim::init::circle(n, 12.0);
//! let mut sim = Simulator::new(
//!     centers,
//!     Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
//!     Box::new(RoundRobin::new()),
//!     SimConfig::default(),
//! );
//! let outcome = sim.run();
//! assert!(outcome.gathered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fatrobots_baselines as baselines;
pub use fatrobots_core as core;
pub use fatrobots_geometry as geometry;
pub use fatrobots_model as model;
pub use fatrobots_scheduler as scheduler;
pub use fatrobots_sim as sim;

/// The most common imports, bundled for convenience.
pub mod prelude {
    pub use fatrobots_core::{AlgorithmParams, Decision, LocalAlgorithm, Strategy};
    pub use fatrobots_geometry::{Point, Vec2};
    pub use fatrobots_model::{config, LocalView, Phase, RobotId};
    pub use fatrobots_scheduler::{Adversary, Liveness, RandomAsync, RoundRobin};
    pub use fatrobots_sim::engine::{RunOutcome, SimConfig, Simulator};
    pub use fatrobots_sim::init::Shape;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_an_end_to_end_run() {
        let centers = crate::sim::init::circle(3, 8.0);
        let mut sim = Simulator::new(
            centers,
            Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(3))),
            Box::new(RoundRobin::new()),
            SimConfig::default(),
        );
        assert!(sim.run().gathered);
    }
}
