//! Usage-fair banning: over-served threads are temporarily ineligible.

use soe_sim::{Cycle, SwitchDecision, SwitchPolicy, SwitchReason, ThreadId};

/// Usage-fair arbitration by *banning*: the policy meters each thread's
/// service (core-occupancy cycles) and a thread whose decayed share
/// exceeds `share_multiple ×` the fair share is temporarily ineligible
/// to switch in — it is skipped in the rotation until other threads
/// catch up. This is the classic "ban the hog" discipline of fair
/// queueing applied to the switch arbiter, and complements the paper's
/// mechanism: instead of shortening the hog's turns (deficit quotas),
/// it lengthens the gap between them.
///
/// Service decays by half every `window` cycles so bans reflect recent
/// behaviour, not ancient history — a thread that phase-changes out of
/// hogging is unbanned within a few windows.
///
/// The thread with the minimum service is always eligible (its share is
/// at most the mean, and `share_multiple ≥ 1`), so a grant always
/// exists and the core cannot wedge. A `share_multiple` of `None`
/// (target fairness F = 0) disables banning entirely; the policy then
/// degrades to plain rotation with a cycle-quota guard.
#[derive(Debug, Clone)]
pub struct UsageFairPolicy {
    /// Cycle quota: a thread is forced out after this much occupancy.
    quota: u64,
    /// Decay period in cycles (service halves once per window).
    window: u64,
    /// Ban threshold as a multiple of the fair share; `None` disables.
    share_multiple: Option<f64>,
    /// Decayed per-thread service (occupancy cycles).
    service: Vec<f64>,
    /// Un-decayed occupancy accounted since the last measurement-window
    /// reset; conservation-checked by the conformance matrix.
    occupied_total: u64,
    switch_in_at: Cycle,
    next_decay: Cycle,
    /// Ineligible threads skipped in the rotation since the last reset.
    bans: u64,
    /// Cycle-quota forced switches since the last reset.
    forced_by_quota: u64,
    name: String,
}

impl UsageFairPolicy {
    /// Creates the policy for `threads` contexts. `quota` is the
    /// occupancy cycle quota, `window` the service-decay period, and
    /// `share_multiple` the ban threshold (`None` disables banning;
    /// values below 1.0 are clamped to 1.0 so the minimum-service
    /// thread is always eligible). Degenerate sizes are clamped rather
    /// than rejected: construction goes through
    /// [`PolicySpec::check`](crate::PolicySpec::check), which validates
    /// sizing before any builder runs.
    pub fn new(threads: usize, quota: u64, window: u64, share_multiple: Option<f64>) -> Self {
        let threads = threads.max(1);
        let quota = quota.max(1);
        let window = window.max(1);
        let share_multiple = share_multiple.map(|m| if m.is_finite() { m.max(1.0) } else { 1.0 });
        let name = match share_multiple {
            Some(m) => format!("ban({quota},x{m:.2})"),
            None => format!("ban({quota},off)"),
        };
        Self {
            quota,
            window,
            share_multiple,
            service: vec![0.0; threads],
            occupied_total: 0,
            switch_in_at: 0,
            next_decay: window,
            bans: 0,
            forced_by_quota: 0,
            name,
        }
    }

    /// Whether thread `i` may switch in at this instant.
    fn eligible(&self, i: usize) -> bool {
        let Some(multiple) = self.share_multiple else {
            return true;
        };
        let total: f64 = self.service.iter().sum();
        let fair_share = total / self.service.len() as f64;
        let mine = self.service.get(i).copied().unwrap_or(0.0);
        // One quota of slack keeps cold-start and near-tie rotations
        // from flapping; the minimum-service thread always passes.
        mine <= multiple * fair_share + self.quota as f64
    }

    /// Decayed per-thread service in occupancy cycles.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn service(&self) -> &[f64] {
        &self.service
    }

    /// Un-decayed occupancy cycles accounted since the last
    /// measurement-window reset.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn occupied_total(&self) -> u64 {
        self.occupied_total
    }

    /// The occupancy cycle quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }
}

impl SwitchPolicy for UsageFairPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_switch_in(&mut self, _tid: ThreadId, now: Cycle) {
        self.switch_in_at = now;
    }

    fn on_switch_out(&mut self, tid: ThreadId, now: Cycle, _reason: SwitchReason) {
        let occupied = now.saturating_sub(self.switch_in_at);
        self.occupied_total += occupied;
        if let Some(s) = self.service.get_mut(tid.index()) {
            *s += occupied as f64;
        }
        // Exponential decay at switch boundaries (service only changes
        // here, so mid-turn decay would be unobservable anyway).
        while now >= self.next_decay {
            for s in &mut self.service {
                *s /= 2.0;
            }
            self.next_decay += self.window;
        }
    }

    fn each_cycle(&mut self, _tid: ThreadId, now: Cycle) -> SwitchDecision {
        if now - self.switch_in_at >= self.quota {
            self.forced_by_quota += 1;
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn pick_next(&mut self, current: ThreadId, threads: usize, _now: Cycle) -> Option<ThreadId> {
        let n = self.service.len().min(threads);
        for k in 1..=n {
            let cand = (current.index() + k) % n;
            if self.eligible(cand) {
                return Some(ThreadId::new(cand as u8));
            }
            self.bans += 1;
        }
        // Unreachable with share_multiple ≥ 1 (the minimum-service
        // thread is always eligible), but abstaining keeps the machine
        // rotation as a safety net.
        None
    }

    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        Some(self.switch_in_at + self.quota)
    }

    fn on_measure_start(&mut self, now: Cycle) {
        // Window accounting resets; decayed service survives (it is the
        // discipline's memory of who hogged recently).
        self.occupied_total = 0;
        self.bans = 0;
        self.forced_by_quota = 0;
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

    fn serve(p: &mut UsageFairPolicy, tid: u8, start: Cycle, cycles: u64) -> Cycle {
        p.on_switch_in(ThreadId::new(tid), start);
        p.on_switch_out(ThreadId::new(tid), start + cycles, SwitchReason::MissEvent);
        start + cycles
    }

    #[test]
    fn hog_gets_banned_until_others_catch_up() {
        let mut p = UsageFairPolicy::new(3, 100, 1 << 40, Some(1.0));
        let mut now = 0;
        // Thread 0 hogs: 10 long turns vs one short turn each for 1/2.
        for _ in 0..10 {
            now = serve(&mut p, 0, now, 1_000);
        }
        now = serve(&mut p, 1, now, 50);
        now = serve(&mut p, 2, now, 50);
        // Rotation from thread 2 would pick 0, but 0 is over-share.
        assert_eq!(
            p.pick_next(ThreadId::new(2), 3, now),
            Some(ThreadId::new(1)),
            "the hog is skipped"
        );
        assert!(p.bans >= 1);
        // Once the others accumulate comparable service, 0 is unbanned.
        for _ in 0..10 {
            now = serve(&mut p, 1, now, 1_000);
            now = serve(&mut p, 2, now, 1_000);
        }
        assert_eq!(
            p.pick_next(ThreadId::new(2), 3, now),
            Some(ThreadId::new(0))
        );
    }

    #[test]
    fn disabled_banning_is_plain_rotation() {
        let mut p = UsageFairPolicy::new(3, 100, 1 << 40, None);
        let mut now = 0;
        for _ in 0..10 {
            now = serve(&mut p, 0, now, 1_000);
        }
        assert_eq!(
            p.pick_next(ThreadId::new(0), 3, now),
            Some(ThreadId::new(1))
        );
        assert_eq!(
            p.pick_next(ThreadId::new(1), 3, now),
            Some(ThreadId::new(2))
        );
        assert_eq!(p.bans, 0);
    }

    #[test]
    fn min_service_thread_is_always_eligible() {
        let mut p = UsageFairPolicy::new(2, 100, 1 << 40, Some(1.0));
        let mut now = 0;
        for _ in 0..20 {
            now = serve(&mut p, 0, now, 1_000);
        }
        // Thread 1 has zero service; a pick must exist.
        assert_eq!(
            p.pick_next(ThreadId::new(0), 2, now),
            Some(ThreadId::new(1))
        );
    }

    #[test]
    fn service_decays_by_half_each_window() {
        let mut p = UsageFairPolicy::new(2, 100, 1_000, Some(2.0));
        serve(&mut p, 0, 0, 400);
        assert!((p.service()[0] - 400.0).abs() < 1e-9);
        // Crossing the window boundary halves everything once.
        serve(&mut p, 1, 900, 200);
        assert!((p.service()[0] - 200.0).abs() < 1e-9);
        assert!((p.service()[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_conservation_and_window_reset() {
        let mut p = UsageFairPolicy::new(2, 100, 1 << 40, Some(1.5));
        let mut now = 0;
        now = serve(&mut p, 0, now, 300);
        serve(&mut p, 1, now, 200);
        assert_eq!(p.occupied_total(), 500);
        p.on_measure_start(10_000);
        assert_eq!(p.occupied_total(), 0);
        assert!(p.service()[0] > 0.0, "decayed service survives the reset");
    }

    #[test]
    fn quota_expiry_forces_switch() {
        let mut p = UsageFairPolicy::new(2, 500, 1 << 40, Some(1.0));
        p.on_switch_in(ThreadId::new(0), 100);
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 599),
            SwitchDecision::Continue
        );
        assert_eq!(p.each_cycle(ThreadId::new(0), 600), SwitchDecision::Switch);
        assert_eq!(p.forced_by_quota, 1);
        assert_eq!(p.next_decision_at(ThreadId::new(0), 100), Some(600));
    }
}
