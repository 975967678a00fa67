//! Weighted deficit round-robin — NoC-style fixed-quantum scheduling.

use soe_model::weighted::Weights;
use soe_sim::{Cycle, SwitchDecision, SwitchPolicy, ThreadId};

use crate::deficit::DeficitCounter;

/// Weighted deficit round-robin over hardware contexts, in the style of
/// fair packet scheduling on a network-on-chip link (PAPERS.md: "Fair
/// Packet Scheduling in NoC"): each context owns a
/// [`DeficitCounter`] credited with a *fixed* per-thread quantum
/// `base_quantum × wᵢ` (normalized so the mean quantum equals the base)
/// on switch-in and debited one per retired instruction; exhaustion
/// forces the switch. Visit order is the machine's plain rotation —
/// DRR's "visit every queue in turn".
///
/// The contrast with the paper's [`FairnessPolicy`](crate::FairnessPolicy)
/// is the quantum's origin: WDRR fixes it up front (service is
/// proportional to weight in *instructions*), while the paper
/// continuously re-derives per-thread quotas from stand-alone IPC
/// estimates (service is proportional in *speedup*). A cycle guard
/// bounds occupancy so an ultra-low-IPC context cannot stretch its
/// quantum into starvation of the others.
#[derive(Debug, Clone)]
pub struct WdrrPolicy {
    deficits: Vec<DeficitCounter>,
    /// Per-thread instruction quanta (weight-proportional).
    quanta: Vec<f64>,
    /// Occupancy bound in cycles (safety guard, DRR's "max cell time").
    cycle_guard: u64,
    switch_in_at: Cycle,
    /// Instructions debited since the last measurement-window reset;
    /// conservation-checked against machine retire counts.
    debited: u64,
    /// Quantum-exhaustion forced switches since the last reset.
    forced_by_deficit: u64,
    /// Cycle-guard forced switches since the last reset.
    forced_by_guard: u64,
    name: String,
}

impl WdrrPolicy {
    /// Creates the scheduler for `threads` contexts. `base_quantum` is
    /// the mean instructions-per-turn; `weights` (defaulting to
    /// uniform) scale it per thread; `cap` is the banked-leftover cap
    /// multiple; `cycle_guard` bounds occupancy in cycles. Degenerate
    /// arguments are clamped (quantum ≥ 1 instruction, cap ≥ 1, guard
    /// ≥ 1 cycle) rather than rejected: construction goes through
    /// [`PolicySpec::check`](crate::PolicySpec::check), which validates
    /// sizing before any builder runs.
    pub fn new(
        threads: usize,
        base_quantum: f64,
        weights: Option<&Weights>,
        cap: f64,
        cycle_guard: u64,
    ) -> Self {
        let threads = threads.max(1);
        let base = if base_quantum.is_finite() && base_quantum >= 1.0 {
            base_quantum
        } else {
            1.0
        };
        let cap = if cap.is_finite() && cap >= 1.0 {
            cap
        } else {
            1.0
        };
        let cycle_guard = cycle_guard.max(1);
        // Normalize weights to mean 1 so the roster's aggregate quantum
        // is `threads × base` regardless of the weight scale.
        let raw: Vec<f64> = match weights {
            Some(w) => (0..threads)
                .map(|i| w.as_slice().get(i).copied().unwrap_or(1.0))
                .collect(),
            None => vec![1.0; threads],
        };
        let mean = raw.iter().sum::<f64>() / threads as f64;
        let quanta: Vec<f64> = raw
            .iter()
            .map(|w| {
                let q = base * w / mean.max(f64::MIN_POSITIVE);
                if q.is_finite() && q >= 1.0 {
                    q
                } else {
                    1.0
                }
            })
            .collect();
        let deficits = quanta
            .iter()
            .map(|q| {
                let mut d = DeficitCounter::new(cap);
                d.set_quota(Some(*q));
                d
            })
            .collect();
        let weighted = weights.is_some();
        Self {
            deficits,
            quanta,
            cycle_guard,
            switch_in_at: 0,
            debited: 0,
            forced_by_deficit: 0,
            forced_by_guard: 0,
            name: if weighted {
                format!("wdrr({base:.0},weighted)")
            } else {
                format!("wdrr({base:.0})")
            },
        }
    }

    /// Per-thread instruction quanta after weight normalization.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn quanta(&self) -> &[f64] {
        &self.quanta
    }

    /// Current per-thread deficits (unused credit).
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn deficits(&self) -> Vec<f64> {
        self.deficits.iter().map(|d| d.deficit()).collect()
    }

    /// Instructions debited since the last measurement-window reset.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn debited(&self) -> u64 {
        self.debited
    }

    /// Quantum-exhaustion forced switches since the last reset.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn forced_by_deficit(&self) -> u64 {
        self.forced_by_deficit
    }

    /// Cycle-guard forced switches since the last reset.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn forced_by_guard(&self) -> u64 {
        self.forced_by_guard
    }
}

impl SwitchPolicy for WdrrPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_switch_in(&mut self, tid: ThreadId, now: Cycle) {
        self.switch_in_at = now;
        if let Some(d) = self.deficits.get_mut(tid.index()) {
            d.on_switch_in();
        }
    }

    fn after_retire(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        let _ = now;
        self.debited += 1;
        let Some(d) = self.deficits.get_mut(tid.index()) else {
            return SwitchDecision::Continue;
        };
        if d.on_retire() {
            self.forced_by_deficit += 1;
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn each_cycle(&mut self, _tid: ThreadId, now: Cycle) -> SwitchDecision {
        if now - self.switch_in_at >= self.cycle_guard {
            self.forced_by_guard += 1;
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        Some(self.switch_in_at + self.cycle_guard)
    }

    fn on_measure_start(&mut self, now: Cycle) {
        // Window accounting resets; deficits survive — banked leftover
        // is the discipline's state, not a statistic.
        self.debited = 0;
        self.forced_by_deficit = 0;
        self.forced_by_guard = 0;
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
    fn quantum_exhaustion_forces_switch() {
        let mut p = WdrrPolicy::new(2, 3.0, None, 2.0, 1 << 30);
        let t = ThreadId::new(0);
        p.on_switch_in(t, 0);
        assert_eq!(p.after_retire(t, 1), SwitchDecision::Continue);
        assert_eq!(p.after_retire(t, 2), SwitchDecision::Continue);
        assert_eq!(p.after_retire(t, 3), SwitchDecision::Switch);
        assert_eq!(p.forced_by_deficit(), 1);
        assert_eq!(p.debited(), 3);
    }

    #[test]
    fn weights_scale_quanta_proportionally() {
        let w = Weights::new(vec![3.0, 1.0]);
        let p = WdrrPolicy::new(2, 100.0, Some(&w), 2.0, 1 << 30);
        // Mean-normalized: (3,1) → mean 2 → quanta (150, 50).
        assert!((p.quanta()[0] - 150.0).abs() < 1e-9);
        assert!((p.quanta()[1] - 50.0).abs() < 1e-9);
        // Aggregate is threads × base either way.
        assert!((p.quanta().iter().sum::<f64>() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn leftover_carries_when_miss_cuts_the_turn_short() {
        let mut p = WdrrPolicy::new(2, 10.0, None, 4.0, 1 << 30);
        let t = ThreadId::new(0);
        p.on_switch_in(t, 0);
        for k in 0..4 {
            assert_eq!(p.after_retire(t, k), SwitchDecision::Continue);
        }
        // Miss switch-out after 4 of 10: 6 carry into the next turn.
        p.on_switch_in(t, 500);
        let mut retired = 0;
        loop {
            retired += 1;
            if p.after_retire(t, 500 + retired) == SwitchDecision::Switch {
                break;
            }
        }
        assert_eq!(retired, 16, "10 fresh + 6 carried");
    }

    #[test]
    fn cycle_guard_bounds_occupancy() {
        let mut p = WdrrPolicy::new(2, 1e9, None, 2.0, 400);
        let t = ThreadId::new(0);
        p.on_switch_in(t, 1_000);
        assert_eq!(p.each_cycle(t, 1_399), SwitchDecision::Continue);
        assert_eq!(p.each_cycle(t, 1_400), SwitchDecision::Switch);
        assert_eq!(p.forced_by_guard(), 1);
        assert_eq!(p.next_decision_at(t, 1_000), Some(1_400));
    }

    #[test]
    fn measure_start_resets_accounting_not_deficits() {
        let mut p = WdrrPolicy::new(2, 10.0, None, 2.0, 1 << 30);
        let t = ThreadId::new(0);
        p.on_switch_in(t, 0);
        p.after_retire(t, 1);
        let deficit_before = p.deficits()[0];
        p.on_measure_start(100);
        assert_eq!(p.debited(), 0);
        assert!((p.deficits()[0] - deficit_before).abs() < 1e-9);
    }

    #[test]
    fn degenerate_arguments_are_clamped_not_panicking() {
        let p = WdrrPolicy::new(0, f64::NAN, None, 0.0, 0);
        assert_eq!(p.quanta().len(), 1);
        assert!(p.quanta()[0] >= 1.0);
        assert_eq!(p.cycle_guard, 1);
    }
}
