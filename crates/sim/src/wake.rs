//! Wake sources: the machine's answer to "when can anything happen
//! next".
//!
//! Every way the machine can make progress again after a tick that made
//! none — ROB completions, front-end refills and fetch resumes (which
//! carry cache-fill and bus-grant timestamps, since the hierarchy is
//! timestamp-passing), store-buffer drains, switch drain completions,
//! and scheduled switch-policy decisions — is a [`WakeSource`]. When the
//! machine quiesces, `Machine::step` takes the earliest live wake over
//! all six sources and jumps `now` straight to it; same-cycle ties go to
//! the lowest rank (declaration order), so the choice is deterministic
//! and never depends on wall-clock time or hash iteration order.

/// The sources that can wake a quiescent machine. Declaration order is
/// the rank that breaks same-cycle ties (lowest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum WakeSource {
    /// The switch drain completes and the incoming thread takes the
    /// pipeline. While draining this is the *only* live source.
    DrainDone = 0,
    /// The earliest in-flight ROB entry completes execution (data-cache
    /// fills and MSHR completions surface here: a load's completion
    /// timestamp *is* its fill time).
    RobComplete = 1,
    /// Fetch resumes after an I-cache/iTLB fill or a redirect penalty
    /// (instruction-side cache fills and bus grants surface here).
    FetchResume = 2,
    /// The front-end pipe delivers fetched micro-ops to rename.
    FrontReady = 3,
    /// The store buffer commits its next retired store.
    StoreDrain = 4,
    /// A scheduled switch-policy decision point: a Δ-window
    /// recalculation or a cycle-quota expiry.
    PolicyDecision = 5,
}

/// Number of wake sources (array-table size).
pub const KIND_COUNT: usize = 6;

/// All sources, in rank order.
pub const ALL_KINDS: [WakeSource; KIND_COUNT] = [
    WakeSource::DrainDone,
    WakeSource::RobComplete,
    WakeSource::FetchResume,
    WakeSource::FrontReady,
    WakeSource::StoreDrain,
    WakeSource::PolicyDecision,
];

impl WakeSource {
    /// Stable display name (used by `soe-perf --profile`).
    pub fn name(self) -> &'static str {
        match self {
            WakeSource::DrainDone => "drain_done",
            WakeSource::RobComplete => "rob_complete",
            WakeSource::FetchResume => "fetch_resume",
            WakeSource::FrontReady => "front_ready",
            WakeSource::StoreDrain => "store_drain",
            WakeSource::PolicyDecision => "policy_decision",
        }
    }
}

/// Per-source quiesce counters, surfaced by `Machine::calendar_stats`
/// for `soe-perf --profile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Quiesces at which this source was live.
    pub scheduled: u64,
    /// Jumps this source bounded (it held the earliest wake).
    pub dispatched: u64,
    /// Cycles skipped by the jumps this source bounded.
    pub skipped: u64,
}

/// Aggregate wake counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Per-source counters, indexed by [`WakeSource`] rank.
    pub kinds: [SourceStats; KIND_COUNT],
}

impl WakeStats {
    /// Total jumps across all sources.
    pub fn total_dispatched(&self) -> u64 {
        self.kinds.iter().map(|k| k.dispatched).sum()
    }

    /// Total live sources seen across all quiesces.
    pub fn total_scheduled(&self) -> u64 {
        self.kinds.iter().map(|k| k.scheduled).sum()
    }
}
