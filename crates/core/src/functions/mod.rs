//! The geometric functions of Section 3 of the paper.
//!
//! Each submodule implements one numbered function:
//!
//! | Paper §  | Function                | Module |
//! |----------|-------------------------|--------|
//! | 3.1      | `On-Convex-Hull`        | [`on_convex_hull`](mod@on_convex_hull) |
//! | 3.2      | `Move-to-Point`         | [`move_to_point`](mod@move_to_point) |
//! | 3.3      | `Find-Points`           | [`find_points`](mod@find_points) |
//! | 3.4      | `Connected-Components`  | [`components`] |
//! | 3.5–3.7  | `How-Much-Distance`, `In-Largest-Component`, `In-Smallest-Component` | Cases A–C of [`converge::not_connected`](crate::compute::converge::not_connected), on [`BoundaryPartition`] |
//! | 3.8      | `In-Straight-Line-2`    | [`straight_line`] |

pub mod components;
pub mod find_points;
pub mod move_to_point;
pub mod on_convex_hull;
pub mod straight_line;

pub use components::{connected_components, BoundaryPartition, ComponentPartition, HullComponent};
pub use find_points::{find_points, find_points_iter, safe_distance, safe_distance_for_angle};
pub use move_to_point::{move_to_point, MoveToPoint};
pub use on_convex_hull::{on_convex_hull, OnConvexHullResult};
pub use straight_line::{in_straight_line_2, in_straight_line_2_k};
