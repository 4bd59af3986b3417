//! # fatrobots-core
//!
//! The gathering algorithm of *A Distributed Algorithm for Gathering Many
//! Fat Mobile Robots in the Plane* (Agathangelou, Georgiou & Mavronicolas,
//! PODC 2013) — the paper's primary contribution.
//!
//! The crate has two layers, mirroring the paper:
//!
//! * [`functions`] — the geometric helper functions of Section 3
//!   (`On-Convex-Hull`, `Move-to-Point`, `Find-Points`,
//!   `Connected-Components`, `In-Straight-Line-2`; `How-Much-Distance`,
//!   `In-Largest-Component` and `In-Smallest-Component` are realised by the
//!   convergence phase's Cases A–C on the component partition);
//! * [`compute`] — the local algorithm of Section 4: the seventeen
//!   `Compute.*` states (Figure 4) and one procedure per state, assembled by
//!   [`compute::LocalAlgorithm`], which maps a robot's local view to either a
//!   target point or the termination signal ⊥.
//!
//! All tolerances used by the algorithm (`1/n` collinearity band, `1/2n`
//! component gaps, `1/2n − ε` steps) are derived from a single
//! [`AlgorithmParams`] value, so the whole algorithm is parameterised only by
//! the number of robots `n`, exactly as in the paper.
//!
//! ```
//! use fatrobots_core::compute::{Decision, LocalAlgorithm};
//! use fatrobots_core::AlgorithmParams;
//! use fatrobots_model::LocalView;
//! use fatrobots_geometry::Point;
//!
//! // Three touching robots in a triangle: already gathered, so the
//! // algorithm tells each robot to terminate.
//! let centers = [
//!     Point::new(0.0, 0.0),
//!     Point::new(2.0, 0.0),
//!     Point::new(1.0, 3.0_f64.sqrt()),
//! ];
//! let algo = LocalAlgorithm::new(AlgorithmParams::for_n(3));
//! let view = LocalView::new(centers[0], centers[1..].to_vec(), 3);
//! assert_eq!(algo.run(&view), Decision::Terminate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod functions;
pub mod params;
pub mod strategy;

pub use compute::{
    ComputeOutcome, ComputeScratch, ComputeState, Decision, KernelAlgorithm, LocalAlgorithm,
};
pub use params::AlgorithmParams;
pub use strategy::Strategy;
