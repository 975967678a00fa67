//! `soe-serve`: a robust scenario-evaluation service over the
//! simulator.
//!
//! Turns the library's run entry points into a long-lived service that
//! accepts line-delimited `soe-serve/v1` JSON requests (roster, policy,
//! fairness target, sizing) and answers each with the scenario's
//! deterministic result — while surviving the failure modes a batch
//! runner can ignore:
//!
//! * **Malformed input** is answered with a typed `error` response
//!   ([`proto::RequestError`]), never a crash.
//! * **Hog clients** are contained by per-client bounded
//!   deficit-round-robin queues ([`queue::FairQueue`]) — the paper's
//!   fairness mechanism, re-applied to request scheduling — with
//!   explicit `shed` backpressure when a queue fills.
//! * **Stuck or crashing simulations** run under the supervision
//!   layer's watchdog + retry machinery and are quarantined into a
//!   [`FailureManifest`](crate::supervise::FailureManifest) after
//!   exhausting retries.
//! * **Process death** is survivable: accepted requests and their
//!   responses are journaled, and `--resume` replays answered requests
//!   byte-identically and re-runs unanswered ones — exactly-once across
//!   restarts.
//! * **Repeated scenarios** are memoized via checksummed warmup
//!   checkpoints ([`memo::MemoCache`]); corrupt cache entries fall back
//!   to cold runs.
//! * **Repeated threads** are measured once: [`run_scenario`] keeps each
//!   single-thread reference it simulates in a bounded per-process
//!   cache, since a reference does not depend on the co-runners, policy
//!   or target F.
//!
//! Each session emits a `soe-serve-slo/1` report ([`slo::SloReport`]):
//! per-client latency percentiles, queue waits, shed counts, and the
//! Jain fairness index across clients. The `soe-serve` and
//! `soe-loadgen` binaries wrap this module; see `EXPERIMENTS.md` for
//! the protocol walkthrough.

pub mod memo;
pub mod proto;
pub mod queue;
mod service;
pub mod slo;

pub use memo::{MemoCache, MemoLookup};
pub use proto::{
    parse_request, Request, RequestError, Response, Scenario, ScenarioResult, PROTOCOL,
};
pub use queue::{FairQueue, QueueDiscipline, Shed};
pub use service::{memo_key, run_scenario, serve, ServeConfig, ServeOutcome};
pub use slo::{jain, percentile, ClientSlo, ClientTally, SloReport, SLO_SCHEMA};
