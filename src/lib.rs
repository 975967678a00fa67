//! `soe-repro` — a reproduction of *"Fairness and Throughput in Switch on
//! Event Multithreading"* (Ron Gabor, Shlomo Weiss, Avi Mendelson;
//! MICRO 2006).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — the Section 2 analytical model (equations 1–13, the
//!   fairness metric, the `IPSw` quota solver, F-sweeps),
//! * [`sim`] — the cycle-level out-of-order SOE core + memory hierarchy,
//! * [`workloads`] — synthetic SPEC-CPU2000-like trace generators,
//! * [`core`] — the paper's fairness-enforcement mechanism (hardware
//!   counters, Δ-periodic estimation, deficit counters) and the
//!   experiment runner,
//! * [`stats`] — statistics and table/chart rendering.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record of
//! every table and figure.
//!
//! # Examples
//!
//! The analytical Table 2 example:
//!
//! ```
//! use soe_repro::model::{FairnessLevel, SoeModel, SystemParams, ThreadModel};
//!
//! let m = SoeModel::new(
//!     vec![ThreadModel::new(2.5, 15_000.0), ThreadModel::new(2.5, 1_000.0)],
//!     SystemParams::default(),
//! );
//! assert!(m.analyze(FairnessLevel::NONE).fairness < 0.12);
//! assert!(m.analyze(FairnessLevel::PERFECT).fairness > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use soe_core as core;
pub use soe_model as model;
pub use soe_sim as sim;
pub use soe_stats as stats;
pub use soe_workloads as workloads;

/// Compiles (and, where not marked `no_run`, runs) the README's Rust
/// examples as doctests, so they cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
