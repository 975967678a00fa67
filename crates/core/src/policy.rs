//! The paper's switch policies: the fairness-enforcement mechanism and
//! the Section 6 time-slicing baseline.

use soe_model::weighted::Weights;
use soe_model::FairnessLevel;
use soe_sim::obs::{EventKind, SharedTracer};
use soe_sim::{Cycle, SwitchDecision, SwitchPolicy, SwitchReason, ThreadId};

use crate::counters::HwCounters;
use crate::deficit::DeficitCounter;
use crate::estimator::{Estimator, WindowRecord};

/// How the mechanism obtains the event (miss) latency used in Eq 9/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissLatencyMode {
    /// Use the configured `miss_lat` as a predefined parameter — the
    /// paper's evaluation setting (300 cycles).
    #[default]
    Fixed,
    /// Track the observed exposed latency of switch-causing events with
    /// an exponential moving average — Section 6's proposal for events
    /// whose latency is variable or hard to predict (e.g. L1 misses).
    Measured,
}

/// Configuration of the fairness-enforcement mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessConfig {
    /// Target fairness `F` (0 disables enforcement but keeps estimation).
    pub target: FairnessLevel,
    /// Recalculation period Δ in cycles (the paper uses 250 000).
    pub delta: u64,
    /// Maximum cycles a thread may hold the core before being forced out
    /// (the paper uses 50 000 — less than Δ/N so every thread runs in
    /// every window).
    pub max_cycles_quota: u64,
    /// Average memory access latency used in Eq 9/13 (the initial value
    /// when `miss_lat_mode` is [`MissLatencyMode::Measured`]).
    pub miss_lat: f64,
    /// Whether the miss latency is a fixed parameter or measured online.
    pub miss_lat_mode: MissLatencyMode,
    /// Deficit leftover cap, as a multiple of the quota.
    pub deficit_cap: f64,
    /// Stabilizing quota floor: a forced round is never shorter than this
    /// many cycles' worth of instructions. Guards against the
    /// estimation-feedback instability the paper notes under strict
    /// enforcement (Section 6); 0 disables the floor.
    pub min_quota_cycles: u64,
    /// Whether to record per-window history (Figure 5 time series).
    pub record_history: bool,
}

impl FairnessConfig {
    /// The paper's parameters at the given target fairness.
    pub fn paper(target: FairnessLevel) -> Self {
        Self {
            target,
            delta: 250_000,
            max_cycles_quota: 50_000,
            miss_lat: 300.0,
            miss_lat_mode: MissLatencyMode::Fixed,
            deficit_cap: 2.0,
            min_quota_cycles: 600,
            record_history: true,
        }
    }

    /// Validates the configuration, returning a descriptive error instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Fails if Δ or the cycle quota is zero, or the quota is not below
    /// Δ (every thread must get a chance to run within each window).
    pub fn check(&self, threads: usize) -> Result<(), soe_sim::ConfigError> {
        let fail = |msg: String| Err(soe_sim::ConfigError(msg));
        if self.delta == 0 {
            return fail("delta must be positive".into());
        }
        if self.max_cycles_quota == 0 {
            return fail("cycle quota must be positive".into());
        }
        if self.max_cycles_quota as u128 * threads as u128 > self.delta as u128 {
            return fail(format!(
                "cycle quota must be at most delta / threads so every thread \
                 runs within each window (quota {} * {} threads > delta {})",
                self.max_cycles_quota, threads, self.delta
            ));
        }
        if self.miss_lat <= 0.0 {
            return fail("miss latency must be positive".into());
        }
        if self.deficit_cap < 1.0 {
            return fail(format!(
                "deficit cap must be at least 1.0 quota (got {}); a smaller \
                 cap forgives deficit faster than it accrues",
                self.deficit_cap
            ));
        }
        // No invariant to enforce: every FairnessLevel target is a legal
        // enforcement setting (0 disables), both latency modes are valid,
        // a zero quota floor disables the stabilizer, and history
        // recording only affects memory use.
        let _ = (
            self.target,
            self.miss_lat_mode,
            self.min_quota_cycles,
            self.record_history,
        );
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`FairnessConfig::check`] message on any invalid
    /// parameter.
    pub fn validate(&self, threads: usize) {
        if let Err(e) = self.check(threads) {
            // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use check()
            panic!("{e}");
        }
    }
}

/// The paper's fairness-enforcement mechanism (Sections 2–3):
///
/// 1. three hardware counters per thread ([`HwCounters`]),
/// 2. every Δ cycles, estimate each thread's stand-alone `IPC_ST`
///    (Eq 11–13) and recompute the `IPSw_j` quotas (Eq 9),
/// 3. enforce the quotas with per-thread deficit counters
///    ([`DeficitCounter`]),
/// 4. switch on last-level-miss stalls as plain SOE does, and
/// 5. force a switch when a thread exceeds the maximum cycles quota
///    (guaranteeing every thread runs — and is measured — each window).
///
/// With `target = F = 0` the policy never forces switches and behaves
/// exactly like event-only SOE while still estimating (useful for the
/// F = 0 rows of every figure).
#[derive(Debug)]
pub struct FairnessPolicy {
    cfg: FairnessConfig,
    counters: Vec<HwCounters>,
    deficits: Vec<DeficitCounter>,
    estimator: Estimator,
    switch_in_at: Cycle,
    forced_by_deficit: u64,
    forced_by_cycle_quota: u64,
    /// EWMA of observed exposed event latencies (measured mode).
    measured_lat: f64,
    /// Optional per-thread service weights (weighted-fairness extension;
    /// `None` = the paper's uniform definition).
    weights: Option<Weights>,
    /// Optional cycle-level event recorder for the mechanism's own
    /// events (estimator updates, deficit grants/forces, quota expiry).
    tracer: Option<SharedTracer>,
    name: String,
}

impl FairnessPolicy {
    /// Creates the mechanism for `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the configuration is invalid.
    pub fn new(threads: usize, cfg: FairnessConfig) -> Self {
        cfg.validate(threads);
        let mut estimator = Estimator::new(threads, cfg.delta, cfg.miss_lat, cfg.record_history);
        estimator.set_min_quota_cycles(cfg.min_quota_cycles as f64);
        Self {
            counters: vec![HwCounters::new(); threads],
            deficits: vec![DeficitCounter::new(cfg.deficit_cap); threads],
            estimator,
            switch_in_at: 0,
            forced_by_deficit: 0,
            forced_by_cycle_quota: 0,
            measured_lat: cfg.miss_lat,
            weights: None,
            tracer: None,
            name: format!("fairness({})", cfg.target),
            cfg,
        }
    }

    /// Sets per-thread service weights (builder style): speedups are
    /// balanced proportionally to the weights instead of equally.
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs from the thread count.
    pub fn with_weights(mut self, weights: Weights) -> Self {
        assert_eq!(weights.len(), self.counters.len(), "one weight per thread");
        self.name = format!("fairness({},weighted)", self.cfg.target);
        self.weights = Some(weights);
        self
    }

    /// The paper-parameter mechanism at target `f`.
    // soe-lint: allow(dead-pub): tests/determinism.rs and tests/golden.rs
    pub fn paper(threads: usize, f: FairnessLevel) -> Self {
        Self::new(threads, FairnessConfig::paper(f))
    }

    /// The configuration.
    pub fn config(&self) -> &FairnessConfig {
        &self.cfg
    }

    /// Recorded Δ-window history.
    pub fn records(&self) -> &[WindowRecord] {
        self.estimator.records()
    }

    /// Discards recorded history (after warm-up).
    pub fn clear_records(&mut self) {
        self.estimator.clear_records();
    }

    /// Switches forced by deficit exhaustion (fairness quota).
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn forced_by_deficit(&self) -> u64 {
        self.forced_by_deficit
    }

    /// Switches forced by the maximum-cycles quota.
    // soe-lint: allow(dead-pub): tests/policy_conformance.rs
    pub fn forced_by_cycle_quota(&self) -> u64 {
        self.forced_by_cycle_quota
    }

    fn recalc(&mut self, now: Cycle) {
        if self.cfg.miss_lat_mode == MissLatencyMode::Measured {
            self.estimator.set_miss_lat(self.measured_lat.max(1.0));
        }
        let samples: Vec<_> = self.counters.iter().map(|c| c.sample()).collect();
        let quotas =
            self.estimator
                .recalc_weighted(now, &samples, self.cfg.target, self.weights.as_ref());
        for (d, q) in self.deficits.iter_mut().zip(&quotas) {
            d.set_quota(*q);
        }
        if let Some(t) = &self.tracer {
            let mut tr = t.borrow_mut();
            for (i, q) in quotas.iter().enumerate() {
                let ipc_st = self
                    .estimator
                    .estimates()
                    .get(i)
                    .and_then(|e| e.as_ref())
                    .map_or(0.0, |e| e.ipc_st);
                tr.emit(
                    now,
                    EventKind::EstimatorUpdate {
                        tid: ThreadId::new(i as u8),
                        ipc_st,
                        quota: *q,
                    },
                );
            }
        }
    }
}

impl SwitchPolicy for FairnessPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_switch_in(&mut self, tid: ThreadId, now: Cycle) {
        self.switch_in_at = now;
        // soe-lint: allow(slice-index): per-thread vectors are sized to the thread count at construction
        self.counters[tid.index()].on_switch_in();
        // soe-lint: allow(slice-index): per-thread vectors are sized to the thread count at construction
        let d = &mut self.deficits[tid.index()];
        let before = d.deficit();
        d.on_switch_in();
        if let Some(t) = &self.tracer {
            // A grant only exists when a quota is in force; with no
            // quota the balance is untouched and nothing is recorded.
            if let Some(quota) = d.quota() {
                let balance = d.deficit();
                t.borrow_mut().emit(
                    now,
                    EventKind::DeficitGrant {
                        tid,
                        credited: balance - before,
                        balance,
                        quota,
                    },
                );
            }
        }
    }

    fn on_switch_out(&mut self, tid: ThreadId, now: Cycle, reason: SwitchReason) {
        // soe-lint: allow(slice-index): per-thread vectors are sized to the thread count at construction
        self.counters[tid.index()].on_switch_out(now, reason);
    }

    fn after_retire(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        // soe-lint: allow(slice-index): per-thread vectors are sized to the thread count at construction
        self.counters[tid.index()].after_retire(now);
        // soe-lint: allow(slice-index): per-thread vectors are sized to the thread count at construction
        if self.deficits[tid.index()].on_retire() {
            self.forced_by_deficit += 1;
            if let Some(t) = &self.tracer {
                t.borrow_mut().emit(now, EventKind::DeficitForce { tid });
            }
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn on_miss_stall(&mut self, _tid: ThreadId, _now: Cycle) -> SwitchDecision {
        SwitchDecision::Switch
    }

    fn observe_miss_latency(&mut self, _tid: ThreadId, remaining: Cycle) {
        // EWMA with a 1/32 step: fast enough to track variable-latency
        // event mixes, slow enough to smooth out overlap noise.
        self.measured_lat += (remaining as f64 - self.measured_lat) / 32.0;
    }

    fn each_cycle(&mut self, tid: ThreadId, now: Cycle) -> SwitchDecision {
        if self.estimator.due(now) {
            self.recalc(now);
        }
        // The maximum-cycles quota is part of the enforcement mechanism
        // (it guarantees every thread is sampled within each Δ window);
        // with F = 0 the machine is plain event-only SOE.
        if self.cfg.target.is_enforced() && now - self.switch_in_at >= self.cfg.max_cycles_quota {
            self.forced_by_cycle_quota += 1;
            if let Some(t) = &self.tracer {
                t.borrow_mut()
                    .emit(now, EventKind::CycleQuotaExpiry { tid });
            }
            return SwitchDecision::Switch;
        }
        SwitchDecision::Continue
    }

    fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    fn on_measure_start(&mut self, _now: Cycle) {
        // Keep estimator state and deficits (they are the mechanism's
        // long-lived memory); drop only the warm-up window history so
        // Figure 5 series cover exactly the measured window.
        self.clear_records();
    }

    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        // `each_cycle` acts at exactly two scheduled points: the end of
        // the current Δ window (recalculation, any F) and the cycle
        // quota expiring (enforced F only).
        let due = self.estimator.next_due();
        if self.cfg.target.is_enforced() {
            Some(due.min(self.switch_in_at + self.cfg.max_cycles_quota))
        } else {
            Some(due)
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Simple time sharing (Section 6's strawman): switch every
/// `quota_cycles` cycles of occupancy, in addition to the ordinary
/// miss-event switches.
#[derive(Debug, Clone)]
pub struct TimeSlicePolicy {
    quota_cycles: u64,
    switch_in_at: Cycle,
    name: String,
}

impl TimeSlicePolicy {
    /// Creates the policy with the given cycle quota.
    ///
    /// # Panics
    ///
    /// Panics if `quota_cycles == 0`.
    pub fn new(quota_cycles: u64) -> Self {
        assert!(quota_cycles > 0, "cycle quota must be positive");
        Self {
            quota_cycles,
            switch_in_at: 0,
            name: format!("timeslice({quota_cycles})"),
        }
    }
}

impl SwitchPolicy for TimeSlicePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_switch_in(&mut self, _tid: ThreadId, now: Cycle) {
        self.switch_in_at = now;
    }

    fn each_cycle(&mut self, _tid: ThreadId, now: Cycle) -> SwitchDecision {
        if now - self.switch_in_at >= self.quota_cycles {
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }

    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        Some(self.switch_in_at + self.quota_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(f: FairnessLevel) -> FairnessPolicy {
        FairnessPolicy::new(
            2,
            FairnessConfig {
                target: f,
                delta: 10_000,
                max_cycles_quota: 5_000,
                miss_lat: 300.0,
                miss_lat_mode: Default::default(),
                deficit_cap: 2.0,
                min_quota_cycles: 600,
                record_history: true,
            },
        )
    }

    /// Drives the policy through one synthetic round for `tid`:
    /// `instrs` retirements over `cycles` cycles, ending with a miss.
    fn round(p: &mut FairnessPolicy, tid: u8, start: Cycle, instrs: u64, cycles: u64) -> Cycle {
        let tid = ThreadId::new(tid);
        p.on_switch_in(tid, start);
        for k in 0..instrs {
            p.after_retire(tid, start + k * cycles / instrs.max(1));
        }
        p.on_switch_out(tid, start + cycles, SwitchReason::MissEvent);
        start + cycles + 25
    }

    #[test]
    fn recalc_happens_every_delta() {
        let mut p = policy(FairnessLevel::PERFECT);
        let mut now = 0;
        // Run synthetic alternating rounds past one delta.
        for _ in 0..20 {
            now = round(&mut p, 0, now, 500, 1_000);
            now = round(&mut p, 1, now, 100, 400);
        }
        // each_cycle drives the recalculation.
        p.on_switch_in(ThreadId::new(0), now);
        p.each_cycle(ThreadId::new(0), now);
        assert!(
            !p.records().is_empty(),
            "delta windows must have been recorded"
        );
    }

    #[test]
    fn unfair_pair_gets_quota_for_fast_thread() {
        let mut p = policy(FairnessLevel::PERFECT);
        let mut now = 0;
        for _ in 0..30 {
            now = round(&mut p, 0, now, 5_000, 2_000); // fast: rare misses
            now = round(&mut p, 1, now, 200, 100); // slow: missy
        }
        p.on_switch_in(ThreadId::new(0), now);
        p.each_cycle(ThreadId::new(0), now);
        let rec = p.records().last().expect("recorded").clone();
        assert!(
            rec.quotas[0].is_some(),
            "the miss-poor thread must get forced switches: {rec:?}"
        );
        assert!(
            rec.quotas[1].is_none(),
            "the missy thread keeps natural switching: {rec:?}"
        );
    }

    #[test]
    fn f_zero_never_forces_by_deficit() {
        let mut p = policy(FairnessLevel::NONE);
        let mut now = 0;
        for _ in 0..50 {
            now = round(&mut p, 0, now, 5_000, 2_000);
            now = round(&mut p, 1, now, 200, 100);
        }
        p.on_switch_in(ThreadId::new(0), now);
        p.each_cycle(ThreadId::new(0), now);
        let tid = ThreadId::new(0);
        for k in 0..10_000 {
            assert_eq!(p.after_retire(tid, now + k), SwitchDecision::Continue);
        }
        assert_eq!(p.forced_by_deficit(), 0);
    }

    #[test]
    fn max_cycles_quota_forces_eventually() {
        let mut p = policy(FairnessLevel::QUARTER);
        p.on_switch_in(ThreadId::new(0), 0);
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 100),
            SwitchDecision::Continue
        );
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 5_000),
            SwitchDecision::Switch,
            "cycle quota exceeded"
        );
        assert_eq!(p.forced_by_cycle_quota(), 1);
    }

    #[test]
    fn time_slice_switches_on_quota() {
        let mut p = TimeSlicePolicy::new(400);
        p.on_switch_in(ThreadId::new(0), 1_000);
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 1_399),
            SwitchDecision::Continue
        );
        assert_eq!(
            p.each_cycle(ThreadId::new(0), 1_400),
            SwitchDecision::Switch
        );
        assert_eq!(
            p.on_miss_stall(ThreadId::new(0), 1_200),
            SwitchDecision::Switch,
            "misses still switch"
        );
    }

    #[test]
    #[should_panic(expected = "delta / threads")]
    fn quota_above_delta_over_threads_panics() {
        FairnessPolicy::new(
            4,
            FairnessConfig {
                target: FairnessLevel::HALF,
                delta: 100_000,
                max_cycles_quota: 50_000,
                miss_lat: 300.0,
                miss_lat_mode: Default::default(),
                deficit_cap: 2.0,
                min_quota_cycles: 600,
                record_history: false,
            },
        );
    }

    #[test]
    fn measured_miss_latency_tracks_observations() {
        let mut p = FairnessPolicy::new(
            2,
            FairnessConfig {
                miss_lat_mode: MissLatencyMode::Measured,
                ..FairnessConfig::paper(FairnessLevel::HALF)
            },
        );
        p.recalc(0);
        assert_eq!(p.estimator.miss_lat(), 300.0);
        for _ in 0..500 {
            p.observe_miss_latency(ThreadId::new(0), 100);
        }
        p.recalc(10_000);
        assert!(
            (p.estimator.miss_lat() - 100.0).abs() < 5.0,
            "EWMA should converge to the observed latency: {}",
            p.estimator.miss_lat()
        );
    }

    #[test]
    fn fixed_mode_ignores_observations() {
        let mut p = policy(FairnessLevel::HALF);
        for _ in 0..500 {
            p.observe_miss_latency(ThreadId::new(0), 100);
        }
        p.recalc(10_000);
        assert_eq!(p.estimator.miss_lat(), 300.0);
    }

    #[test]
    fn weighted_policy_biases_quota_toward_heavy_thread() {
        use soe_model::weighted::Weights;
        let mut p = policy(FairnessLevel::PERFECT).with_weights(Weights::new(vec![1.0, 1.0]));
        let mut pw = policy(FairnessLevel::PERFECT).with_weights(Weights::new(vec![4.0, 1.0]));
        let mut now = 0;
        let mut now_w = 0;
        for _ in 0..30 {
            now = round(&mut p, 0, now, 5_000, 2_000);
            now = round(&mut p, 1, now, 5_000, 2_000);
            now_w = round(&mut pw, 0, now_w, 5_000, 2_000);
            now_w = round(&mut pw, 1, now_w, 5_000, 2_000);
        }
        p.on_switch_in(ThreadId::new(0), now);
        p.each_cycle(ThreadId::new(0), now);
        pw.on_switch_in(ThreadId::new(0), now_w);
        pw.each_cycle(ThreadId::new(0), now_w);
        // Identical threads: uniform weights give (nearly) equal quotas;
        // 4:1 weights let thread 0 run ~4x longer between forced switches.
        let u = p.records().last().unwrap().clone();
        let w = pw.records().last().unwrap().clone();
        // Identical threads, uniform weights: already fair, no forced
        // switches for either.
        assert!(
            u.quotas.iter().all(|q| q.is_none()),
            "uniform quotas {:?}",
            u.quotas
        );
        // 4:1 weights: the light thread must be throttled to a quarter of
        // its natural quota while the heavy thread stays unconstrained.
        assert!(
            w.quotas[0].is_none(),
            "heavy thread unconstrained: {:?}",
            w.quotas
        );
        let light = w.quotas[1].expect("light thread throttled");
        let est = w.estimates[1];
        assert!(
            (light / est.ipm - 0.25).abs() < 0.05,
            "light quota {} vs IPM {}",
            light,
            est.ipm
        );
    }

    #[test]
    fn policy_is_downcastable() {
        let p = policy(FairnessLevel::HALF);
        let any = p.as_any().expect("fairness policy exposes state");
        assert!(any.downcast_ref::<FairnessPolicy>().is_some());
    }
}
