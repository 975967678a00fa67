//! iSLIP-style rotating-priority arbitration over ready contexts.

use soe_sim::{Cycle, SwitchDecision, SwitchPolicy, SwitchReason, ThreadId};

/// Rotating-priority round-robin in the style of an iSLIP arbiter
/// (PAPERS.md: "From MWM to iSLIP"): the grant pointer advances to the
/// last context that accepted the core, and the next grant starts
/// scanning one past it — so no context can monopolize the pointer, and
/// under full load every context is granted once per rotation.
///
/// The "request" signal of a switch arbiter is *readiness*: a context
/// that was switched out on a miss is busy until the miss resolves, so
/// the pick scans the rotation for the first context whose outstanding
/// miss (estimated via an EWMA of observed exposed latencies) has
/// drained. If every context is busy the policy abstains and the
/// machine's fixed rotation picks, which keeps the core wedging-proof.
///
/// Forced switches use a fixed time slice (the rotation period), like a
/// crossbar reconfiguring every cell time.
#[derive(Debug, Clone)]
pub struct IslipPolicy {
    /// Occupancy slice: a context is forced out after this many cycles.
    slice: u64,
    /// EWMA of observed exposed miss latencies (busy-time estimate).
    miss_lat: f64,
    /// Estimated cycle at which each context's outstanding miss drains.
    busy_until: Vec<Cycle>,
    /// Index of the last context granted the core (the accept pointer).
    grant_ptr: usize,
    switch_in_at: Cycle,
    /// Grants issued (== switch-ins observed) since the last
    /// measurement-window reset; conservation-checked by the
    /// conformance matrix.
    grants: u64,
    /// Busy contexts skipped over while scanning for a grant.
    busy_skips: u64,
    /// Slice-expiry forced switches since the last reset.
    forced_by_slice: u64,
    name: String,
}

impl IslipPolicy {
    /// Creates the arbiter for `threads` contexts with the given
    /// occupancy slice and initial busy-time estimate. Degenerate
    /// arguments are clamped (slice to ≥ 1 cycle, latency to ≥ 1.0)
    /// rather than rejected: construction goes through
    /// [`PolicySpec::check`](crate::PolicySpec::check), which validates
    /// sizing before any builder runs.
    pub fn new(threads: usize, slice: u64, miss_lat: f64) -> Self {
        let threads = threads.max(1);
        let slice = slice.max(1);
        Self {
            slice,
            miss_lat: if miss_lat.is_finite() && miss_lat >= 1.0 {
                miss_lat
            } else {
                1.0
            },
            busy_until: vec![0; threads],
            grant_ptr: 0,
            switch_in_at: 0,
            grants: 0,
            busy_skips: 0,
            forced_by_slice: 0,
            name: format!("islip({slice})"),
        }
    }

    /// Grants issued (switch-ins accepted) since the last
    /// measurement-window reset.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// The current accept pointer (index of the last granted context).
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn grant_ptr(&self) -> usize {
        self.grant_ptr
    }

    /// The occupancy slice in cycles.
    pub fn slice(&self) -> u64 {
        self.slice
    }
}

impl SwitchPolicy for IslipPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_switch_in(&mut self, tid: ThreadId, now: Cycle) {
        self.switch_in_at = now;
        // Accept: the pointer moves to the granted context, so the next
        // scan starts one past it — iSLIP's starvation-freedom rule.
        self.grant_ptr = tid.index();
        self.grants += 1;
    }

    fn on_switch_out(&mut self, tid: ThreadId, now: Cycle, reason: SwitchReason) {
        if reason == SwitchReason::MissEvent {
            // The context stays "requesting" but not ready until its
            // miss drains; model that with the EWMA'd latency.
            if let Some(b) = self.busy_until.get_mut(tid.index()) {
                *b = now + self.miss_lat as Cycle;
            }
        }
    }

    fn observe_miss_latency(&mut self, _tid: ThreadId, remaining: Cycle) {
        // Same 1/32-step EWMA the fairness mechanism uses in measured
        // mode: fast enough to track the workload, slow enough to
        // smooth overlap noise.
        self.miss_lat += (remaining as f64 - self.miss_lat) / 32.0;
        if self.miss_lat < 1.0 {
            self.miss_lat = 1.0;
        }
    }

    fn each_cycle(&mut self, _tid: ThreadId, now: Cycle) -> SwitchDecision {
        if now - self.switch_in_at >= self.slice {
            self.forced_by_slice += 1;
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn pick_next(&mut self, _current: ThreadId, threads: usize, now: Cycle) -> Option<ThreadId> {
        let n = self.busy_until.len().min(threads);
        // Scan the rotation starting one past the accept pointer for the
        // first ready (not busy) context.
        for k in 1..=n {
            let cand = (self.grant_ptr + k) % n;
            let busy = self.busy_until.get(cand).copied().unwrap_or(0);
            if busy <= now {
                return Some(ThreadId::new(cand as u8));
            }
            self.busy_skips += 1;
        }
        // Every context is busy: abstain, the machine rotation picks.
        None
    }

    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        Some(self.switch_in_at + self.slice)
    }

    fn on_measure_start(&mut self, now: Cycle) {
        // Reset window accounting; keep the pointer and busy estimates —
        // they are the arbiter's long-lived state.
        self.grants = 0;
        self.busy_skips = 0;
        self.forced_by_slice = 0;
        self.switch_in_at = now;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_rotates_past_accepted_context() {
        let mut p = IslipPolicy::new(4, 1_000, 300.0);
        // Context 2 accepted the core: next scan starts at 3.
        p.on_switch_in(ThreadId::new(2), 10);
        assert_eq!(p.grant_ptr(), 2);
        assert_eq!(p.pick_next(ThreadId::new(2), 4, 20), Some(ThreadId::new(3)));
    }

    #[test]
    fn busy_contexts_are_skipped() {
        let mut p = IslipPolicy::new(4, 1_000, 300.0);
        p.on_switch_in(ThreadId::new(0), 0);
        // Context 1 misses at cycle 50: busy until ~350.
        p.on_switch_out(ThreadId::new(1), 50, SwitchReason::MissEvent);
        assert_eq!(
            p.pick_next(ThreadId::new(0), 4, 100),
            Some(ThreadId::new(2)),
            "context 1 is busy, grant skips to 2"
        );
        assert_eq!(p.busy_skips, 1);
        // After the miss drains it is granted again.
        assert_eq!(
            p.pick_next(ThreadId::new(0), 4, 400),
            Some(ThreadId::new(1))
        );
    }

    #[test]
    fn all_busy_abstains_to_machine_rotation() {
        let mut p = IslipPolicy::new(2, 1_000, 300.0);
        p.on_switch_out(ThreadId::new(0), 10, SwitchReason::MissEvent);
        p.on_switch_out(ThreadId::new(1), 10, SwitchReason::MissEvent);
        assert_eq!(p.pick_next(ThreadId::new(0), 2, 20), None);
    }

    #[test]
    fn slice_expiry_forces_switch() {
        let mut p = IslipPolicy::new(2, 500, 300.0);
        p.on_switch_in(ThreadId::new(0), 1_000);
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 1_499),
            SwitchDecision::Continue
        );
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 1_500),
            SwitchDecision::Switch
        );
        assert_eq!(p.forced_by_slice, 1);
        assert_eq!(p.next_decision_at(ThreadId::new(0), 1_000), Some(1_500));
    }

    #[test]
    fn grants_count_switch_ins_and_reset_on_measure_start() {
        let mut p = IslipPolicy::new(2, 500, 300.0);
        p.on_switch_in(ThreadId::new(0), 0);
        p.on_switch_in(ThreadId::new(1), 100);
        assert_eq!(p.grants(), 2);
        p.on_measure_start(200);
        assert_eq!(p.grants(), 0);
        assert_eq!(p.grant_ptr(), 1, "pointer survives the window reset");
    }

    #[test]
    fn degenerate_arguments_are_clamped_not_panicking() {
        let p = IslipPolicy::new(0, 0, f64::NAN);
        assert_eq!(p.slice(), 1);
        assert!(p.name().starts_with("islip("));
    }
}
