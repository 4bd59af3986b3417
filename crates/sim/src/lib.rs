//! # fatrobots-sim
//!
//! The discrete-event simulation engine for fat-robot gathering: it executes
//! the Look–Compute–Move model of Section 2 of the paper, with an
//! [`Adversary`](fatrobots_scheduler::Adversary) supplying the asynchronous
//! schedule and a [`Strategy`](fatrobots_core::Strategy) (the paper's local
//! algorithm or one of the baselines) supplying the per-robot decisions.
//!
//! The crate provides:
//!
//! * [`checkpoint`] — the crash-safe sweep journal: one length-framed,
//!   CRC-checksummed record per completed run (its ordinal and summary),
//!   appended and synced as the run finishes, under a header stamped with
//!   this build's engine-semantics id; decoding recovers to the last valid
//!   record, so a killed sweep resumes byte-identically and a journal of a
//!   differently behaving build is never resumed;
//! * [`engine`] — the [`Simulator`]: one event per call, motion
//!   integration with contact detection, validity assertions, termination
//!   detection, an event budget, and a cooperative cancellation flag for
//!   supervised runs;
//! * [`init`] — seeded initial-configuration generators (random spread,
//!   line, grid, circle, clusters);
//! * [`metrics`] — per-run metrics: event counts, travelled distance, times
//!   to all-on-hull / full visibility / connectivity, hull-area series;
//! * [`render`] — small SVG / ASCII renderers for configurations;
//! * [`shadow`] — the exact-arithmetic shadow oracle: replays every Compute
//!   decision under the exact kernel via [`engine::Simulator::run_observed`]
//!   and attributes ε-vs-exact decision divergences to predicate sites;
//! * [`experiment`] — the parameter-sweep harness behind the `report` CLI's
//!   tables (README, "The `report` CLI") and the Criterion benches;
//! * [`json`] — the hand-rolled JSON codec (ordered document model, pretty
//!   writer, strict parser) behind `bench_report.json` and the fuzz
//!   fixtures;
//! * [`fuzz`] — the shrinking scenario fuzzer: sweeps shape × adversary ×
//!   fault × n × seed under an event budget hunting non-gathering runs,
//!   shrinks finds via deterministic replay, and emits the livelock
//!   regression fixtures under `tests/fixtures/livelock/`;
//! * [`sweep`] — the sweep dispatcher: runs each `RunSpec` once, inline or
//!   on per-call scoped workers, and returns summaries in deterministic
//!   input order; a panicking run or one past its watchdog deadline
//!   becomes a structured failure row instead of aborting the sweep;
//! * [`world`] — the incremental world state: ground-truth centers plus a
//!   sparse pairwise visibility store (lazy dirty-pair invalidation over a
//!   hierarchical spatial grid), cached hull/connectivity/validity, and a
//!   from-scratch reference mode that pins the cached path to
//!   bit-identical results. A row refresh of at least eight recomputes
//!   fans its read-only pair kernels out to a persistent pool of helper
//!   threads and commits them serially — the engine's only in-run
//!   parallelism.
//!
//! ## Quick example
//!
//! ```
//! use fatrobots_sim::engine::{SimConfig, Simulator};
//! use fatrobots_sim::init;
//! use fatrobots_core::{AlgorithmParams, LocalAlgorithm};
//! use fatrobots_scheduler::RoundRobin;
//!
//! let n = 5;
//! let centers = init::circle(n, 12.0);
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

pub mod checkpoint;
pub mod engine;
pub mod experiment;
pub mod fuzz;
pub mod init;
pub mod json;
pub mod metrics;
pub mod render;
pub mod shadow;
pub mod sweep;
pub mod world;

pub use engine::{CancelFlag, RunOutcome, SimConfig, Simulator};
pub use metrics::Metrics;
pub use shadow::{DivergenceRecord, ShadowExecutor, ShadowStats};
pub use world::{World, WorldMode};
