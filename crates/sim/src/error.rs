//! Structured simulator failures.
//!
//! The experiment supervisor (in `soe-core`) needs machine failures as
//! *values* it can retry, quarantine and report — not panics that take a
//! whole worker (or the whole evening's matrix) down with them. The
//! checked entry points ([`Machine::try_run_cycles`]) return these;
//! the legacy panicking entry points format them into their panic
//! message, so nothing is lost for callers that prefer to crash.
//!
//! [`Machine::try_run_cycles`]: crate::Machine::try_run_cycles

use crate::types::{Cycle, InstrIndex, ThreadId};

/// A structured simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine kept ticking but retired no instruction on any thread
    /// for a whole forward-progress window — the cycle-level analogue of
    /// a hung job. A correctly configured run never does this: the
    /// window is chosen far above the longest legitimate stall (memory
    /// latency plus TLB walks plus bus queueing).
    Stalled {
        /// Cycle at which the window expired.
        cycle: Cycle,
        /// The forward-progress window that was exceeded.
        window: Cycle,
        /// Thread occupying the core when progress stopped.
        thread: ThreadId,
        /// Total instructions (all threads) committed when progress
        /// stopped.
        retired: InstrIndex,
    },
    /// No pipeline activity *and* no pending event: the machine can
    /// provably never make progress again (a simulator bug, by
    /// construction).
    Wedged {
        /// Cycle at which the machine wedged.
        cycle: Cycle,
        /// Thread occupying the core.
        thread: ThreadId,
        /// Occupied re-order-buffer entries.
        rob_len: usize,
    },
    /// This thread's stop check (see [`crate::cancel`]) fired: the
    /// run was stopped from outside and produced no result.
    Cancelled {
        /// Cycle at which the run noticed the stop.
        cycle: Cycle,
    },
    /// The machine configuration failed validation before the run
    /// started (see [`MachineConfig::check`](crate::MachineConfig::check)).
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Stalled {
                cycle,
                window,
                thread,
                retired,
            } => write!(
                f,
                "simulation stalled: no instruction retired for {window} cycles \
                 (at cycle {cycle}, thread {thread}, {retired} total instructions committed)"
            ),
            Self::Wedged {
                cycle,
                thread,
                rob_len,
            } => write!(
                f,
                "machine wedged at cycle {cycle}: no pipeline activity and no pending event \
                 (thread {thread}, ROB {rob_len} entries)"
            ),
            Self::Cancelled { cycle } => write!(f, "simulation cancelled at cycle {cycle}"),
            Self::InvalidConfig(msg) => write!(f, "invalid machine configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
