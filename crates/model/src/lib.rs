//! # fatrobots-model
//!
//! The robot and configuration model of Section 2 of
//! *A Distributed Algorithm for Gathering Many Fat Mobile Robots in the
//! Plane* (Agathangelou, Georgiou & Mavronicolas, PODC 2013).
//!
//! The crate defines:
//!
//! * [`RobotId`] — fat robots are closed unit discs, identified only for
//!   bookkeeping (the algorithm itself is anonymous);
//! * [`Phase`] — the five-state Look–Compute–Move machine of Figure 1
//!   (`Wait`, `Look`, `Compute`, `Move`, `Terminate`);
//! * [`config`] — predicates on a geometric configuration
//!   `G = (c_1, …, c_n)`, given as a slice of centers: validity (no two
//!   discs overlap), connectivity of the disc union, convex position and
//!   full visibility. A robot configuration `R = (⟨s_1, c_1⟩, …)` is a
//!   phase slice beside that center slice (the simulator holds both);
//! * [`LocalView`] — the snapshot `V_i ⊆ G` a robot obtains in its Look
//!   phase, which is the only input of the local Compute algorithm.
//!
//! ```
//! use fatrobots_model::config;
//! use fatrobots_geometry::Point;
//!
//! // Three unit discs in a row, each touching the next: connected.
//! let g = [
//!     Point::new(0.0, 0.0),
//!     Point::new(2.0, 0.0),
//!     Point::new(4.0, 0.0),
//! ];
//! assert!(config::is_valid(&g));
//! assert!(config::is_connected(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod phase;
pub mod robot;
pub mod view;

pub use phase::Phase;
pub use robot::RobotId;
pub use view::LocalView;
