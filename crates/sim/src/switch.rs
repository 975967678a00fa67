//! The thread-switch policy interface — where the paper's contribution
//! plugs into the machine.
//!
//! The machine exposes three decision points to a [`SwitchPolicy`]:
//!
//! * [`SwitchPolicy::on_miss_stall`] — the head of the ROB is flagged as
//!   handling an unresolved L2 miss (the classic SOE switch event),
//! * [`SwitchPolicy::after_retire`] — per retired instruction (where the
//!   fairness mechanism's deficit counters live),
//! * [`SwitchPolicy::each_cycle`] — per running cycle (where the
//!   maximum-cycles quota and the Δ-periodic recalculation live).
//!
//! `soe-core` implements the paper's policies on top of this trait; the
//! simulator ships only the two trivial ones ([`NeverSwitch`] for
//! single-thread reference runs and [`SwitchOnEvent`] for plain F = 0
//! SOE).

use crate::obs::SharedTracer;
use crate::types::{Cycle, ThreadId};

/// Whether to keep the current thread on the core or switch it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Keep running the current thread.
    Continue,
    /// Switch the current thread out.
    Switch,
}

/// Why a thread was switched out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// The head of the ROB stalled on an unresolved L2 miss — the switch
    /// hides a memory access.
    MissEvent,
    /// The policy forced the switch (fairness quota, time slice, ...);
    /// the switch hides nothing and its latency is pure overhead.
    Forced,
    /// Software requested the switch with an explicit hint instruction
    /// (`pause`): the thread expects to make no progress for a while.
    Hint,
}

/// A thread-switch policy observed and consulted by the machine.
///
/// All hooks have no-op/neutral defaults so policies only override the
/// decision points they care about.
pub trait SwitchPolicy {
    /// Display name (used in experiment reports).
    fn name(&self) -> &str;

    /// A thread has been switched in; it starts fetching at `now`.
    fn on_switch_in(&mut self, tid: ThreadId, now: Cycle) {
        let _ = (tid, now);
    }

    /// A thread has been switched out at `now` for `reason`.
    ///
    /// Counting `MissEvent` reasons here yields the paper's `Misses_j`
    /// counter — only misses that actually caused a switch are counted,
    /// which also de-duplicates overlapped miss clusters.
    fn on_switch_out(&mut self, tid: ThreadId, now: Cycle, reason: SwitchReason) {
        let _ = (tid, now, reason);
    }

    /// An instruction from `tid` just retired. Returning
    /// [`SwitchDecision::Switch`] forces a switch after this instruction.
    fn after_retire(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        let _ = (tid, now);
        SwitchDecision::Continue
    }

    /// The next-to-retire micro-op of `tid` waits on an unresolved L2
    /// miss. Called once per stall episode. Returning `Switch` hides the
    /// stall behind another thread.
    fn on_miss_stall(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        let _ = (tid, now);
        SwitchDecision::Switch
    }

    /// Observed event latency: just before [`SwitchPolicy::on_miss_stall`]
    /// the machine reports how many more cycles the stalling access needs
    /// — the exposed (post-overlap) miss latency a hardware counter would
    /// measure. Section 6 of the paper proposes measuring event latencies
    /// this way instead of assuming a fixed `Miss_lat`; policies that
    /// support variable-latency events use this hook.
    fn observe_miss_latency(&mut self, tid: ThreadId, remaining: Cycle) {
        let _ = (tid, remaining);
    }

    /// A `pause` switch-hint instruction from `tid` just retired.
    /// Returning `Switch` honors the hint. The default honors hints for
    /// multithreaded policies via [`SwitchPolicy::on_miss_stall`]'s
    /// default-switch philosophy; single-thread policies override.
    fn on_pause(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        let _ = (tid, now);
        SwitchDecision::Switch
    }

    /// Called once per cycle while `tid` occupies the core (not during
    /// switch drains). During provably quiescent stalls the machine may
    /// fast-forward, so consecutive calls can have cycle gaps —
    /// implementations must reason from the `now` timestamp, not from
    /// call counts.
    fn each_cycle(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        let _ = (tid, now);
        SwitchDecision::Continue
    }

    /// Select which thread to switch *in* now that `current` has been
    /// switched out. `threads` is the roster size; every returned id must
    /// satisfy `id.index() < threads` — out-of-range picks are ignored.
    ///
    /// Returning `None` — the default — keeps the machine's fixed
    /// rotation (`current + 1 mod threads`), which is what the paper's
    /// two-thread policies rely on. Arbitration disciplines (rotating
    /// grant pointers, usage banning) override this to skip contexts
    /// that are busy or ineligible; the machine falls back to the
    /// rotation whenever the pick is absent or out of range, so a buggy
    /// policy degrades to round-robin instead of wedging the core.
    fn pick_next(&mut self, current: ThreadId, threads: usize, now: Cycle) -> Option<ThreadId> {
        let _ = (current, threads, now);
        None
    }

    /// The measurement window starts at `now`: warmup is over and the
    /// machine's statistics were just reset. Policies drop per-window
    /// accounting here (recorded history, conservation counters) so that
    /// post-run oracles see exactly the measured window; long-lived
    /// arbitration state (grant pointers, deficits) should survive.
    /// Default: no-op.
    fn on_measure_start(&mut self, now: Cycle) {
        let _ = now;
    }

    /// The run is traced into `tracer` (handed over by
    /// [`Machine::attach_tracer`](crate::Machine::attach_tracer)); policies
    /// with mechanism events of their own keep it and emit into it.
    /// Default: no-op.
    fn attach_tracer(&mut self, tracer: SharedTracer) {
        let _ = tracer;
    }

    /// The next cycle at or after `now` at which
    /// [`SwitchPolicy::each_cycle`] could do anything — return `Switch`
    /// or mutate policy state (a Δ-window recalculation, a cycle-quota
    /// expiry). `None` — the default — means "never": `each_cycle` is a
    /// pure `Continue` between machine events.
    ///
    /// The machine treats this as an event source for its quiescent
    /// fast-forward: a jump over a stall stops at the returned cycle so
    /// the decision fires at exactly the cycle it would have fired at
    /// in a tick-by-tick run. Implementations with any time-scheduled
    /// behaviour in `each_cycle` must override this, or fast-forward
    /// runs will take those decisions late.
    fn next_decision_at(&self, tid: ThreadId, now: Cycle) -> Option<Cycle> {
        let _ = (tid, now);
        None
    }

    /// Downcast hook: policies that accumulate state worth reading back
    /// after a run (e.g. the fairness engine's per-window estimates)
    /// return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable counterpart of [`SwitchPolicy::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Never switches — the policy used for single-thread reference runs
/// (`IPC_ST` measurement): the core simply waits out every miss stall.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverSwitch;

impl NeverSwitch {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl SwitchPolicy for NeverSwitch {
    fn name(&self) -> &str {
        "single-thread"
    }
    fn on_miss_stall(&mut self, _tid: ThreadId, _now: Cycle) -> SwitchDecision {
        SwitchDecision::Continue
    }
    fn on_pause(&mut self, _tid: ThreadId, _now: Cycle) -> SwitchDecision {
        SwitchDecision::Continue
    }
}

/// Plain switch-on-event multithreading (the paper's `F = 0` baseline):
/// switch on every L2-miss stall, never force anything else.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchOnEvent;

impl SwitchOnEvent {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl SwitchPolicy for SwitchOnEvent {
    fn name(&self) -> &str {
        "soe(F=0)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_switch_always_continues() {
        let mut p = NeverSwitch::new();
        assert_eq!(
            p.on_miss_stall(ThreadId::new(0), 10),
            SwitchDecision::Continue
        );
        assert_eq!(
            p.after_retire(ThreadId::new(0), 10),
            SwitchDecision::Continue
        );
    }

    #[test]
    fn switch_on_event_switches_on_miss_only() {
        let mut p = SwitchOnEvent::new();
        assert_eq!(
            p.on_miss_stall(ThreadId::new(0), 10),
            SwitchDecision::Switch
        );
        assert_eq!(
            p.after_retire(ThreadId::new(0), 10),
            SwitchDecision::Continue
        );
        assert_eq!(p.each_cycle(ThreadId::new(0), 10), SwitchDecision::Continue);
    }

    #[test]
    fn default_pick_next_defers_to_machine_rotation() {
        let mut p = SwitchOnEvent::new();
        assert_eq!(p.pick_next(ThreadId::new(0), 4, 10), None);
        // on_measure_start is a no-op by default — just must not panic.
        p.on_measure_start(10);
    }
}
