//! End-to-end: the paper's central claims, exercised through the full
//! stack (workload generator → simulator → fairness mechanism → runner).

mod common;

use common::fairness_run;
use soe_core::runner::{run_singles, RunConfig};
use soe_model::FairnessLevel;
use soe_workloads::Pair;

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 400_000;
    cfg.measure_cycles = 1_200_000;
    cfg
}

/// swim:eon — a streaming thread against a compute thread: the most
/// unfair regime, where the mechanism matters most.
#[test]
fn enforcement_recovers_a_starving_thread() {
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let f0 = fairness_run(&pair, FairnessLevel::NONE, &singles, &cfg);
    let f1 = fairness_run(&pair, FairnessLevel::PERFECT, &singles, &cfg);

    // Without enforcement, the streamer runs far below its solo speed
    // while the compute thread is barely touched.
    assert!(
        f0.threads[0].speedup < 0.45,
        "swim should be heavily slowed at F=0: {:?}",
        f0.threads[0]
    );
    assert!(
        f0.threads[1].speedup > 2.0 * f0.threads[0].speedup,
        "eon should dominate at F=0: {} vs {}",
        f0.threads[1].speedup,
        f0.threads[0].speedup
    );
    // Enforcement closes the gap substantially.
    assert!(
        f1.fairness > 2.0 * f0.fairness,
        "F=1 fairness {} must be far above F=0 fairness {}",
        f1.fairness,
        f0.fairness
    );
    assert!(f1.threads[0].speedup > f0.threads[0].speedup);
}

/// Fairness must improve as F increases, and forced switches must be the
/// instrument: none at F=0, more at stricter targets.
#[test]
fn fairness_and_forced_switches_scale_with_target() {
    let pair = Pair { a: "art", b: "eon" };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let runs: Vec<_> = FairnessLevel::paper_levels()
        .iter()
        .map(|f| fairness_run(&pair, *f, &singles, &cfg))
        .collect();

    assert_eq!(runs[0].forced_switches, 0, "F=0 forces nothing");
    assert!(
        runs[3].forced_switches > runs[1].forced_switches,
        "F=1 must force more switches than F=1/4: {} vs {}",
        runs[3].forced_switches,
        runs[1].forced_switches
    );
    assert!(
        runs[3].fairness > runs[0].fairness,
        "F=1 ({}) must beat F=0 ({})",
        runs[3].fairness,
        runs[0].fairness
    );
    // Throughput ordering: enforcement costs throughput on this
    // strongly-unfair, equal-ish-IPC_no_miss pair.
    assert!(
        runs[3].throughput <= runs[0].throughput * 1.02,
        "F=1 should not out-run F=0 materially: {} vs {}",
        runs[3].throughput,
        runs[0].throughput
    );
}

/// A same-benchmark pair is naturally fair; enforcement must neither be
/// needed nor harmful.
#[test]
fn same_benchmark_pair_is_fair_and_enforcement_is_cheap() {
    let pair = Pair {
        a: "applu",
        b: "applu",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let f0 = fairness_run(&pair, FairnessLevel::NONE, &singles, &cfg);
    let fq = fairness_run(&pair, FairnessLevel::QUARTER, &singles, &cfg);
    assert!(
        f0.fairness > 0.6,
        "identical threads should be roughly fair at F=0: {}",
        f0.fairness
    );
    // Negligible cost when no correction is needed (paper: "has
    // negligible effect on the execution").
    assert!(
        fq.throughput > f0.throughput * 0.93,
        "F=1/4 on a fair pair must be nearly free: {} vs {}",
        fq.throughput,
        f0.throughput
    );
}

/// SOE must actually deliver a throughput gain over single-thread
/// time-multiplexing for miss-heavy pairs — the reason SOE exists.
#[test]
fn soe_beats_single_thread_on_missy_pairs() {
    let pair = Pair {
        a: "mcf",
        b: "swim",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let f0 = fairness_run(&pair, FairnessLevel::NONE, &singles, &cfg);
    assert!(
        f0.soe_speedup > 1.10,
        "two streaming threads should overlap stalls: speedup {}",
        f0.soe_speedup
    );
}

/// The measured switch latency must land near the paper's ~25 cycles.
#[test]
fn switch_latency_matches_paper() {
    let pair = Pair {
        a: "swim",
        b: "applu",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let run = fairness_run(&pair, FairnessLevel::HALF, &singles, &cfg);
    assert!(
        (15.0..=40.0).contains(&run.avg_switch_latency),
        "avg switch latency {}",
        run.avg_switch_latency
    );
}
