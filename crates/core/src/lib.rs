//! The paper's contribution: **fairness enforcement for Switch-on-Event
//! multithreading** (Gabor, Weiss, Mendelson — MICRO 2006), implemented
//! on top of the `soe-sim` cycle-level simulator.
//!
//! The mechanism (Sections 2–3 of the paper):
//!
//! 1. **Track** three hardware counters per thread — instructions
//!    retired, running cycles, and switch-causing last-level misses
//!    ([`HwCounters`]).
//! 2. **Estimate**, every Δ = 250 000 cycles, what each thread's IPC
//!    *would have been* had it run alone (Eq 11–13, [`Estimator`]).
//! 3. **Compute** the per-thread instructions-per-switch quota `IPSw_j`
//!    that bounds the spread of per-thread speedups by the target
//!    fairness `F` (Eq 9, [`quotas_from_estimates`]).
//! 4. **Enforce** the quota with deficit counters ([`DeficitCounter`]),
//!    forcing additional thread switches beyond the ordinary
//!    switch-on-miss events; a maximum-cycles quota guarantees every
//!    thread runs (and is measured) in every window.
//!
//! [`FairnessPolicy`] packages the mechanism as a `soe_sim`
//! [`SwitchPolicy`](soe_sim::SwitchPolicy); [`TimeSlicePolicy`] is the
//! Section 6 strawman baseline; the [`runner`] module reproduces the
//! paper's methodology (warm up → reset → measure, single-thread
//! references) as one run path, [`runner::run_spec`].
//!
//! # Examples
//!
//! Measure a strongly unfair pair, then enforce fairness 1/2:
//!
//! ```no_run
//! use soe_core::runner::{run_singles, run_spec, RunConfig, RunSpec};
//! use soe_core::PolicyFactory;
//! use soe_model::FairnessLevel;
//! use soe_workloads::Pair;
//!
//! let cfg = RunConfig::quick();
//! let pair = Pair { a: "gcc", b: "eon" };
//! let singles = run_singles(&pair, &cfg)?;
//! let factory = PolicyFactory::builtin();
//! let mut fairness = Vec::new();
//! for f in [FairnessLevel::NONE, FairnessLevel::HALF] {
//!     let spec = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, &cfg)?;
//!     fairness.push(run_spec(spec, &singles)?.run.fairness);
//! }
//! assert!(fairness[1] >= fairness[0]);
//! # Ok::<(), soe_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod deficit;
mod estimator;
mod metrics;
pub mod obs;
pub mod policies;
mod policy;
pub mod pool;
mod registry;
pub mod runner;
pub mod serve;
pub mod supervise;
pub mod timeseries;

pub use counters::HwCounters;
pub use deficit::DeficitCounter;
pub use estimator::{
    quotas_from_estimates, weighted_quotas_from_estimates, Estimator, WindowRecord,
};
pub use metrics::{PairRun, SingleRun, ThreadOutcome};
pub use obs::MetricsRegistry;
pub use policies::{IslipPolicy, UsageFairPolicy, WdrrPolicy};
pub use policy::{FairnessConfig, FairnessPolicy, MissLatencyMode, TimeSlicePolicy};
pub use pool::{resolve_workers, run_jobs, try_run_jobs, Job, JobError, PoolOptions};
pub use registry::{PolicyBuilder, PolicyError, PolicyFactory, PolicySpec};
pub use supervise::{
    atomic_write, supervise_call, supervise_jobs, supervise_jobs_with, FailureKind,
    FailureManifest, Fault, FaultPlan, JobFailure, Journal, JournalRecovery, Quarantined,
    SkippedRun, SuperviseOptions, SuperviseReport,
};
