//! Mechanism behaviour verified through the event trace: the trace is
//! the oracle for time-domain properties that end-of-run aggregates
//! cannot show — window coverage, estimator cadence, occupancy bounds
//! and deficit caps.
//!
//! All tests run an enforced target (the maximum-cycles quota and the
//! deficit mechanism are part of enforcement; with F = 0 the machine is
//! plain event-only SOE and forces nothing).

mod common;

use common::traced_run;
use soe_core::runner::RunConfig;
use soe_core::SingleRun;
use soe_model::FairnessLevel;
use soe_sim::obs::{EventKind, Trace};
use soe_workloads::Pair;

const DELTA: u64 = 100_000;
const QUOTA: u64 = 25_000;
const MEASURE: u64 = 800_000;

/// Mechanism sizing under test: Δ = 100 000 with a 25 000-cycle quota
/// (the paper's 50 000 / 250 000 relation, scaled), eight measured
/// windows.
fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 100_000;
    cfg.measure_cycles = MEASURE;
    cfg.fairness.delta = DELTA;
    cfg.fairness.max_cycles_quota = QUOTA;
    cfg
}

fn fake_singles(pair: &Pair) -> Vec<SingleRun> {
    [pair.a, pair.b]
        .iter()
        .map(|n| SingleRun {
            name: n.to_string(),
            retired: 1_000_000,
            cycles: 1_000_000,
            ipc_st: 1.0,
            l2_misses: 1_000,
            ipm: 1_000.0,
        })
        .collect()
}

fn capture(f: FairnessLevel) -> Trace {
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    traced_run(&pair, f, &fake_singles(&pair), &cfg()).1
}

#[test]
fn paper_parameters_guarantee_window_coverage() {
    // The 50 000-cycle quota makes the guarantee arithmetic: two threads
    // at 50 000 cycles each fit inside one Δ = 250 000 window, so every
    // runnable thread is scheduled (and sampled) at least once per
    // window. The config validator enforces the same relation.
    let paper = RunConfig::paper().fairness;
    assert!(paper.max_cycles_quota * 2 <= paper.delta);
    const { assert!(QUOTA * 2 <= DELTA, "test sizing keeps the same relation") };
    assert!(RunConfig::paper().fairness.check(2).is_ok());
}

#[test]
fn every_thread_is_scheduled_in_every_delta_window() {
    let traced = capture(FairnessLevel::QUARTER);
    let first = traced.events.first().expect("events").at;
    let last_in = traced
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SwitchIn { .. }))
        .map(|e| e.at)
        .max()
        .expect("switch-ins");
    // Full Δ windows on the absolute cycle grid, covered end to end by
    // the measurement (the trailing partial window proves nothing).
    let lo = first.div_ceil(DELTA);
    let hi = last_in / DELTA;
    assert!(hi > lo + 4, "the run must span several full windows");
    let mut seen = vec![[false; 2]; (hi - lo) as usize];
    for e in &traced.events {
        if let EventKind::SwitchIn { tid } = e.kind {
            let w = e.at / DELTA;
            if w >= lo && w < hi {
                seen[(w - lo) as usize][tid.index()] = true;
            }
        }
    }
    for (i, w) in seen.iter().enumerate() {
        assert!(
            w[0] && w[1],
            "window {} (cycles {}..{}): both threads must be scheduled, got {w:?}",
            i,
            (lo + i as u64) * DELTA,
            (lo + i as u64 + 1) * DELTA
        );
    }
}

#[test]
fn estimator_updates_fire_once_per_delta_window() {
    let traced = capture(FairnessLevel::QUARTER);
    // One update per thread per recalculation, both stamped on the same
    // cycle: collect the distinct recalculation cycles.
    let mut recalcs: Vec<u64> = traced
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::EstimatorUpdate { .. }))
        .map(|e| e.at)
        .collect();
    assert_eq!(recalcs.len() % 2, 0, "one update per thread per recalc");
    recalcs.dedup();
    assert!(
        recalcs.len() >= 5,
        "eight measured windows must recalculate repeatedly: {recalcs:?}"
    );
    // The policy recalculates at the first each_cycle at or after the
    // boundary, so the cadence is Δ plus a small drift — never less
    // than Δ, never a skipped window.
    const SLACK: u64 = 10_000;
    for pair in recalcs.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            (DELTA..=DELTA + SLACK).contains(&gap),
            "recalc gap {gap} outside [{DELTA}, {}]: {recalcs:?}",
            DELTA + SLACK
        );
    }
}

#[test]
fn occupancy_never_exceeds_the_cycle_quota() {
    let traced = capture(FairnessLevel::QUARTER);
    // From each switch-in to the same thread's next switch-out. The
    // quota check runs each cycle, and the switch-out is stamped when
    // the switch initiates, so the bound is tight up to the drain.
    const SLACK: u64 = 2_000;
    let mut open = [None::<u64>; 2];
    let mut longest = 0;
    for e in &traced.events {
        match e.kind {
            EventKind::SwitchIn { tid } => open[tid.index()] = Some(e.at),
            EventKind::SwitchOut { tid, .. } => {
                if let Some(start) = open[tid.index()].take() {
                    let occupancy = e.at - start;
                    longest = longest.max(occupancy);
                    assert!(
                        occupancy <= QUOTA + SLACK,
                        "thread {tid} occupied the core {occupancy} cycles at {}",
                        e.at
                    );
                }
            }
            _ => {}
        }
    }
    assert!(longest > 0, "the trace must contain closed occupancy spans");
}

#[test]
fn quota_expiries_are_followed_by_forced_switch_outs() {
    let traced = capture(FairnessLevel::QUARTER);
    let events = &traced.events;
    let expiries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CycleQuotaExpiry { .. }))
        .count();
    assert!(
        expiries > 0,
        "swim:eon under enforcement must hit the cycle quota"
    );
    // Every expiry is immediately answered by a forced switch-out of the
    // same thread on the same cycle (emission order within a cycle is
    // the causal order).
    for (i, e) in events.iter().enumerate() {
        if let EventKind::CycleQuotaExpiry { tid } = e.kind {
            let followed = events
                .iter()
                .skip(i + 1)
                .take_while(|n| n.at == e.at)
                .any(|n| {
                    matches!(n.kind, EventKind::SwitchOut { tid: t, reason } if t == tid
                        && reason == soe_sim::SwitchReason::Forced)
                });
            assert!(
                followed,
                "expiry of {tid} at {} not followed by its forced switch-out",
                e.at
            );
        }
    }
}

#[test]
fn deficit_balances_respect_the_configured_cap() {
    let traced = capture(FairnessLevel::HALF);
    let cap = cfg().fairness.deficit_cap;
    let mut grants = 0;
    for e in &traced.events {
        if let EventKind::DeficitGrant {
            tid,
            credited,
            balance,
            quota,
        } = e.kind
        {
            grants += 1;
            assert!(quota > 0.0, "a grant implies a quota in force");
            assert!(
                credited <= quota + 1e-9,
                "thread {tid}: credited {credited} above quota {quota}"
            );
            assert!(
                balance <= quota * cap + 1e-9,
                "thread {tid}: balance {balance} above cap {} (quota {quota})",
                quota * cap
            );
        }
    }
    assert!(grants > 0, "enforcement at F=1/2 must grant deficit quotas");
}
