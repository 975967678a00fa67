//! The Δ-periodic estimator: per-window `IPC_ST` estimation and Eq 9
//! quota recalculation (Section 3.1).

use serde::{Deserialize, Serialize};
use soe_model::weighted::{weighted_ipsw_quotas, Weights};
use soe_model::{
    estimate_thread, ipsw_quotas, CounterSample, FairnessLevel, ThreadEstimate, ThreadModel,
};
use soe_sim::Cycle;

/// One Δ-window recalculation record — the raw material of the Figure 5
/// time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRecord {
    /// Cycle at which the recalculation happened.
    pub at: Cycle,
    /// Actual window length in cycles.
    pub window_cycles: u64,
    /// Per-thread instructions retired inside the window.
    pub window_instrs: Vec<u64>,
    /// Per-thread estimates (Eq 11–13) computed from the window.
    pub estimates: Vec<ThreadEstimate>,
    /// Per-thread quotas in force for the next window (`None` = no
    /// forced switches for that thread).
    pub quotas: Vec<Option<f64>>,
}

/// Computes Eq 9 quotas from per-thread window estimates.
///
/// A quota of `None` means the thread needs no forced switches (its Eq 9
/// quota is capped at its natural `IPM`, i.e. miss-driven switching
/// already satisfies the target). With `F = 0` every quota is `None`.
///
/// Threads whose window retired nothing keep no meaningful estimate;
/// callers pass their previous estimate instead (the estimator does).
///
/// # Examples
///
/// ```
/// use soe_core::quotas_from_estimates;
/// use soe_model::{FairnessLevel, ThreadEstimate};
///
/// let fast = ThreadEstimate { ipm: 15_000.0, cpm: 6_000.0, ipc_st: 15_000.0 / 6_300.0 };
/// let slow = ThreadEstimate { ipm: 1_000.0, cpm: 400.0, ipc_st: 1_000.0 / 700.0 };
/// let q = quotas_from_estimates(&[fast, slow], 300.0, FairnessLevel::PERFECT);
/// assert!((q[0].unwrap() - 1_666.7).abs() < 1.0); // Table 2's forced quota
/// assert!(q[1].is_none()); // the missy thread keeps its natural switching
/// ```
// soe-lint: allow(dead-pub): tests/proptest_core.rs checks Eq 9 through it
pub fn quotas_from_estimates(
    estimates: &[ThreadEstimate],
    miss_lat: f64,
    f: FairnessLevel,
) -> Vec<Option<f64>> {
    weighted_quotas_from_estimates(estimates, miss_lat, f, None, 0.0)
}

/// [`quotas_from_estimates`] with optional per-thread service weights
/// (the weighted-fairness extension; `None` = uniform, the paper's
/// definition) and a stabilizing quota floor.
///
/// `min_quota_cycles` bounds how short a forced round may get: each
/// thread's quota is floored at `IPC_ST_est × min_quota_cycles`
/// instructions. Very small quotas destabilize the mechanism — the
/// throttled thread runs in slivers, its measured behaviour degrades
/// (cache interference, switch overhead), the estimate drops and the
/// quota shrinks further — the estimation-accuracy feedback the paper's
/// Section 6 warns about under strict enforcement. The floor trades a
/// little enforcement strength at extreme settings for stability.
pub fn weighted_quotas_from_estimates(
    estimates: &[ThreadEstimate],
    miss_lat: f64,
    f: FairnessLevel,
    weights: Option<&Weights>,
    min_quota_cycles: f64,
) -> Vec<Option<f64>> {
    if !f.is_enforced() {
        return vec![None; estimates.len()];
    }
    let threads: Vec<ThreadModel> = estimates
        .iter()
        .map(|e| ThreadModel::from_ipm_cpm(e.ipm.max(1.0), e.cpm.max(1.0)))
        .collect();
    let params = soe_model::SystemParams::new(miss_lat, 0.0);
    let quotas = match weights {
        Some(w) => weighted_ipsw_quotas(&threads, params, f, w),
        None => ipsw_quotas(&threads, params, f),
    };
    quotas
        .iter()
        .zip(threads.iter().zip(estimates))
        .map(|(q, (t, e))| {
            let q = q.max(e.ipc_st * min_quota_cycles);
            // Quota at (or above) the natural IPM: miss switching already
            // achieves it; no forced switches needed.
            if q >= t.ipm() - 1e-9 {
                None
            } else {
                Some(q.max(1.0))
            }
        })
        .collect()
}

/// The Δ-periodic estimator: tracks cumulative counters, differentiates
/// them per window, maintains per-thread estimates (falling back to the
/// previous window when a thread did not run), and records every window
/// for later plotting.
#[derive(Debug, Clone)]
pub struct Estimator {
    delta: u64,
    miss_lat: f64,
    min_quota_cycles: f64,
    last_sample: Vec<CounterSample>,
    last_recalc: Cycle,
    estimates: Vec<Option<ThreadEstimate>>,
    records: Vec<WindowRecord>,
    record_history: bool,
}

impl Estimator {
    /// Creates an estimator for `threads` hardware threads recalculating
    /// every `delta` cycles with the given miss latency.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `delta == 0` or `miss_lat <= 0`.
    pub fn new(threads: usize, delta: u64, miss_lat: f64, record_history: bool) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(delta > 0, "delta must be positive");
        assert!(miss_lat > 0.0, "miss latency must be positive");
        Self {
            delta,
            miss_lat,
            min_quota_cycles: 0.0,
            last_sample: vec![CounterSample::default(); threads],
            last_recalc: 0,
            estimates: vec![None; threads],
            records: Vec::new(),
            record_history,
        }
    }

    /// Whether a recalculation is due at `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.last_recalc + self.delta
    }

    /// The first cycle at which [`Estimator::due`] becomes true — the
    /// end of the current Δ window. Policies report this as a scheduled
    /// decision point so quiescent fast-forward never jumps over a
    /// recalculation.
    pub fn next_due(&self) -> Cycle {
        self.last_recalc + self.delta
    }

    /// Performs the Δ recalculation: differentiates `samples` against the
    /// previous reading, refreshes estimates and returns the Eq 9 quotas
    /// for target `f`.
    pub fn recalc(
        &mut self,
        now: Cycle,
        samples: &[CounterSample],
        f: FairnessLevel,
    ) -> Vec<Option<f64>> {
        self.recalc_weighted(now, samples, f, None)
    }

    /// [`Estimator::recalc`] with optional per-thread service weights.
    pub fn recalc_weighted(
        &mut self,
        now: Cycle,
        samples: &[CounterSample],
        f: FairnessLevel,
        weights: Option<&Weights>,
    ) -> Vec<Option<f64>> {
        assert_eq!(
            samples.len(),
            self.last_sample.len(),
            "one sample per thread"
        );
        let mut window_instrs = Vec::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            // soe-lint: allow(slice-index): the assert above pins samples.len() to the per-thread vector lengths
            let window = s.since(&self.last_sample[i]);
            window_instrs.push(window.instrs);
            if window.instrs > 0 && window.cycles > 0 {
                // soe-lint: allow(slice-index): the assert above pins samples.len() to the per-thread vector lengths
                self.estimates[i] = Some(estimate_thread(window, self.miss_lat));
            }
            // soe-lint: allow(slice-index): the assert above pins samples.len() to the per-thread vector lengths
            self.last_sample[i] = *s;
        }
        let effective: Vec<ThreadEstimate> = self
            .estimates
            .iter()
            .map(|e| {
                e.unwrap_or(ThreadEstimate {
                    // No data yet: a neutral optimistic estimate that
                    // yields no forced switches until real data arrives.
                    ipm: 1.0,
                    cpm: 1.0,
                    ipc_st: 0.5,
                })
            })
            .collect();
        // Threads without any estimate yet are excluded from enforcement:
        // their placeholder would otherwise distort CPM_min.
        let quotas = if self.estimates.iter().all(|e| e.is_some()) {
            weighted_quotas_from_estimates(
                &effective,
                self.miss_lat,
                f,
                weights,
                self.min_quota_cycles,
            )
        } else {
            vec![None; samples.len()]
        };
        if self.record_history {
            self.records.push(WindowRecord {
                at: now,
                window_cycles: now - self.last_recalc,
                window_instrs,
                estimates: effective,
                quotas: quotas.clone(),
            });
        }
        self.last_recalc = now;
        quotas
    }

    /// The latest per-thread estimates (`None` until a thread has run).
    pub fn estimates(&self) -> &[Option<ThreadEstimate>] {
        &self.estimates
    }

    /// Sets the stabilizing quota floor (see
    /// [`weighted_quotas_from_estimates`]).
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn set_min_quota_cycles(&mut self, cycles: f64) {
        assert!(cycles >= 0.0, "quota floor must be non-negative");
        self.min_quota_cycles = cycles;
    }

    /// Updates the miss latency used by Eq 9/13 — for the measured-latency
    /// mode of Section 6 (variable-latency events).
    ///
    /// # Panics
    ///
    /// Panics if `miss_lat` is not positive.
    pub fn set_miss_lat(&mut self, miss_lat: f64) {
        assert!(miss_lat > 0.0, "miss latency must be positive");
        self.miss_lat = miss_lat;
    }

    /// The miss latency currently in use.
    // soe-lint: allow(dead-pub): policy.rs's miss-latency tests read the latency in use
    pub fn miss_lat(&self) -> f64 {
        self.miss_lat
    }

    /// All recorded windows.
    pub fn records(&self) -> &[WindowRecord] {
        &self.records
    }

    /// Discards recorded windows (e.g. after warm-up).
    pub fn clear_records(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(instrs: u64, cycles: u64, misses: u64) -> CounterSample {
        CounterSample {
            instrs,
            cycles,
            misses,
        }
    }

    #[test]
    fn estimates_follow_window_deltas() {
        let mut e = Estimator::new(2, 1_000, 300.0, true);
        let q = e.recalc(
            1_000,
            &[sample(10_000, 4_000, 10), sample(5_000, 2_000, 20)],
            FairnessLevel::PERFECT,
        );
        assert_eq!(q.len(), 2);
        let est = e.estimates()[0].unwrap();
        assert!((est.ipm - 1_000.0).abs() < 1e-9);
        assert!((est.cpm - 400.0).abs() < 1e-9);
        // Second window: deltas, not cumulative values.
        e.recalc(
            2_000,
            &[sample(12_000, 4_800, 12), sample(6_000, 2_400, 24)],
            FairnessLevel::PERFECT,
        );
        let est = e.estimates()[0].unwrap();
        assert!((est.ipm - 1_000.0).abs() < 1e-9, "ipm {}", est.ipm);
    }

    #[test]
    fn starved_thread_keeps_previous_estimate() {
        let mut e = Estimator::new(2, 1_000, 300.0, false);
        e.recalc(
            1_000,
            &[sample(8_000, 3_000, 8), sample(2_000, 900, 4)],
            FairnessLevel::HALF,
        );
        let before = e.estimates()[1].unwrap();
        // Thread 1 retires nothing in the second window.
        e.recalc(
            2_000,
            &[sample(16_000, 6_000, 16), sample(2_000, 900, 4)],
            FairnessLevel::HALF,
        );
        assert_eq!(e.estimates()[1].unwrap(), before);
    }

    #[test]
    fn no_enforcement_until_all_threads_measured() {
        let mut e = Estimator::new(2, 1_000, 300.0, false);
        let q = e.recalc(
            1_000,
            &[sample(8_000, 3_000, 8), sample(0, 0, 0)],
            FairnessLevel::PERFECT,
        );
        assert!(q.iter().all(|x| x.is_none()), "no data for thread 1 yet");
    }

    #[test]
    fn records_accumulate_and_clear() {
        let mut e = Estimator::new(1, 100, 300.0, true);
        e.recalc(100, &[sample(10, 10, 1)], FairnessLevel::NONE);
        e.recalc(200, &[sample(20, 20, 2)], FairnessLevel::NONE);
        assert_eq!(e.records().len(), 2);
        assert_eq!(e.records()[1].window_cycles, 100);
        e.clear_records();
        assert!(e.records().is_empty());
    }

    #[test]
    fn due_respects_delta() {
        let e = Estimator::new(1, 250_000, 300.0, false);
        assert!(!e.due(249_999));
        assert!(e.due(250_000));
    }

    #[test]
    fn f_zero_yields_no_quotas() {
        let est = ThreadEstimate {
            ipm: 1_000.0,
            cpm: 400.0,
            ipc_st: 1.4,
        };
        let q = quotas_from_estimates(&[est, est], 300.0, FairnessLevel::NONE);
        assert_eq!(q, vec![None, None]);
    }
}
