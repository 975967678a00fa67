//! Observability over the simulator's cycle-level event stream: a typed
//! metrics registry, exporters (compact JSONL, Chrome `trace_event`
//! JSON for Perfetto, CSV time series), and a trace validator.
//!
//! The recording side lives in [`soe_sim::obs`] — the event vocabulary
//! and the bounded ring buffer are simulator concerns — while this
//! module owns everything downstream of a finished
//! [`Trace`](soe_sim::obs::Trace): turning it into files humans and
//! machines read, and checking the invariants the mechanism promises
//! (cycle order, switch alternation, miss/fill pairing).
//!
//! Everything here obeys the workspace lint rules for `crates/core`
//! (no hash containers, no wall clock, no panic paths outside tests):
//! exports iterate in deterministic order and the validator returns
//! `Result` rather than asserting, so a corrupt trace surfaces as a
//! typed error a supervisor can report.

pub mod check;
pub mod export;
pub mod metrics;

pub use check::{check_events, check_jsonl, parse_jsonl, ParsedTrace, TraceSummary};
pub use export::{chrome_trace, trace_jsonl, trace_series};
pub use metrics::MetricsRegistry;

use soe_sim::obs::EventKind;
use soe_sim::SwitchReason;

/// Stable wire label of an event kind: the `kind` field of trace JSONL,
/// the Chrome trace's instant-event names and the `events.*` counters of
/// `metrics.csv` all use it, so the mapping cannot drift between them.
/// `check::parse_event` is its inverse.
pub(crate) fn kind_label(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SwitchOut { .. } => "switch_out",
        EventKind::SwitchIn { .. } => "switch_in",
        EventKind::L2Miss { .. } => "l2_miss",
        EventKind::L2Fill { .. } => "l2_fill",
        EventKind::RetireSample { .. } => "retire_sample",
        EventKind::EstimatorUpdate { .. } => "estimator_update",
        EventKind::DeficitGrant { .. } => "deficit_grant",
        EventKind::DeficitForce { .. } => "deficit_force",
        EventKind::CycleQuotaExpiry { .. } => "cycle_quota_expiry",
    }
}

/// Stable wire label of a switch reason (used by every exporter and the
/// parser, so the mapping cannot drift between them).
pub(crate) fn reason_label(reason: SwitchReason) -> &'static str {
    match reason {
        SwitchReason::MissEvent => "miss",
        SwitchReason::Forced => "forced",
        SwitchReason::Hint => "hint",
    }
}

/// Inverse of [`reason_label`].
pub(crate) fn parse_reason(label: &str) -> Option<SwitchReason> {
    match label {
        "miss" => Some(SwitchReason::MissEvent),
        "forced" => Some(SwitchReason::Forced),
        "hint" => Some(SwitchReason::Hint),
        _ => None,
    }
}

/// Formats an `f64` with Rust's shortest round-trip representation —
/// deterministic and `parse::<f64>()`-exact, which the CSV round-trip
/// and byte-identity guarantees rely on.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // No mechanism value is non-finite; still, never emit bare JSON
        // tokens like `inf` that a reader would reject.
        "null".to_string()
    }
}
