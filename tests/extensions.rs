//! End-to-end tests of the Section 6 extensions: weighted fairness,
//! measured event latency, pause hints, recorded-trace replay and the
//! prefetcher ablation.

use soe_core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_core::{FairnessConfig, FairnessPolicy, MissLatencyMode, PairRun, SingleRun};
use soe_model::weighted::{weighted_fairness, Weights};
use soe_model::FairnessLevel;
use soe_sim::{Machine, SwitchOnEvent, SwitchPolicy, TraceSource};
use soe_workloads::{spec, LitFile, Pair, PauseOverlay, SyntheticTrace};

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 400_000;
    cfg.measure_cycles = 1_200_000;
    cfg
}

/// Runs `pair` under `policy`, reported at fairness target `target`.
fn policy_run(
    pair: &Pair,
    policy: Box<dyn SwitchPolicy>,
    singles: &[SingleRun],
    cfg: &RunConfig,
    target: Option<FairnessLevel>,
) -> PairRun {
    let spec = RunSpec::roster(&[pair.a, pair.b], policy, target, *cfg).expect("valid roster");
    run_spec(spec, singles).expect("pair run").run
}

#[test]
fn weighted_enforcement_biases_speedups_toward_the_heavy_thread() {
    // A balanced pair with mild 2:1 weights: the quota math's assumption
    // (switch overhead small relative to the round) holds here, so the
    // achieved speedup ratio should approach the weight ratio. (On
    // extreme pairs heavy weights throttle the light thread into rounds
    // so short that overhead dominates — directionally correct but far
    // from the target, as the model itself predicts.)
    let pair = Pair {
        a: "lucas",
        b: "applu",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let fairness = FairnessConfig {
        target: FairnessLevel::PERFECT,
        ..cfg.fairness
    };
    let uniform = policy_run(
        &pair,
        Box::new(FairnessPolicy::new(2, fairness)),
        &singles,
        &cfg,
        Some(FairnessLevel::PERFECT),
    );
    let weights = Weights::new(vec![2.0, 1.0]);
    let weighted = policy_run(
        &pair,
        Box::new(FairnessPolicy::new(2, fairness).with_weights(weights.clone())),
        &singles,
        &cfg,
        Some(FairnessLevel::PERFECT),
    );
    let ratio_u = uniform.threads[0].speedup / uniform.threads[1].speedup;
    let ratio_w = weighted.threads[0].speedup / weighted.threads[1].speedup;
    assert!(
        ratio_w > ratio_u * 1.3,
        "2:1 weights must tilt the speedup ratio: uniform {ratio_u:.2}, weighted {ratio_w:.2}"
    );
    assert!(
        (1.4..=3.0).contains(&ratio_w),
        "achieved ratio {ratio_w:.2} should approach the 2:1 target"
    );
    // The weighted run should be roughly weighted-fair.
    let speedups: Vec<f64> = weighted.threads.iter().map(|t| t.speedup).collect();
    let wf = weighted_fairness(&speedups, &weights);
    assert!(wf > 0.5, "weighted fairness {wf:.2}");
}

#[test]
fn measured_latency_mode_matches_fixed_mode_on_l2_miss_events() {
    // With only L2-miss events (whose exposed latency clusters near the
    // configured 300 cycles), measured mode must behave like fixed mode.
    let pair = Pair { a: "art", b: "eon" };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let run = |mode: MissLatencyMode| {
        let fairness = FairnessConfig {
            target: FairnessLevel::HALF,
            miss_lat_mode: mode,
            ..cfg.fairness
        };
        policy_run(
            &pair,
            Box::new(FairnessPolicy::new(2, fairness)),
            &singles,
            &cfg,
            Some(FairnessLevel::HALF),
        )
    };
    let fixed = run(MissLatencyMode::Fixed);
    let measured = run(MissLatencyMode::Measured);
    assert!(
        (fixed.fairness - measured.fairness).abs() < 0.15,
        "fixed {:.3} vs measured {:.3}",
        fixed.fairness,
        measured.fairness
    );
    assert!(
        (fixed.throughput - measured.throughput).abs() / fixed.throughput < 0.1,
        "throughputs diverged: {:.3} vs {:.3}",
        fixed.throughput,
        measured.throughput
    );
}

#[test]
fn pause_overlay_yields_the_core_between_spin_iterations() {
    // A spinning thread that pauses often shares the core voluntarily
    // even though it never misses.
    let spinner = PauseOverlay::new(
        SyntheticTrace::new(spec::profile("eon").unwrap(), 0x10_0000_0000, 0),
        200,
    );
    let worker = SyntheticTrace::new(spec::profile("eon").unwrap(), 0x20_0000_0000, 0);
    let mut m = Machine::new(
        soe_sim::MachineConfig::default(),
        vec![Box::new(spinner), Box::new(worker)],
        Box::new(SwitchOnEvent::new()),
    );
    m.run_cycles(400_000);
    let s = m.stats();
    assert!(
        s.threads[0].hint_switches > 100,
        "spinner must yield via pause: {:?}",
        s.threads[0]
    );
    // Both threads make progress despite eon's near-zero miss rate.
    assert!(s.threads[1].retired > 10_000, "{:?}", s.threads[1]);
}

#[test]
fn recorded_trace_replay_behaves_like_the_live_trace() {
    // Record 400k instructions of swim, replay alone, and compare the
    // measured IPC to the live trace over the same window.
    let live = SyntheticTrace::new(spec::profile("swim").unwrap(), 0x10_0000_0000, 0);
    let lit = LitFile::record(&live, 0, 400_000);
    let run = |t: Box<dyn TraceSource>| {
        let mut m = Machine::new(
            soe_sim::MachineConfig::default(),
            vec![t],
            Box::new(soe_sim::NeverSwitch::new()),
        );
        m.run_cycles(100_000);
        m.reset_stats();
        let start = m.now();
        m.run_cycles(200_000);
        m.stats().total_retired() as f64 / (m.now() - start) as f64
    };
    let ipc_live = run(Box::new(live));
    let ipc_lit = run(Box::new(lit));
    assert!(
        (ipc_live - ipc_lit).abs() / ipc_live < 0.02,
        "live {ipc_live:.3} vs replay {ipc_lit:.3}"
    );
}

#[test]
fn prefetching_reduces_the_stalls_soe_feeds_on() {
    // With an aggressive stream prefetcher, swim's miss-driven switch
    // rate under SOE collapses — the ablation behind keeping prefetch off
    // in the paper configuration.
    let run = |degree: usize| {
        let mc = soe_sim::MachineConfig {
            l2_prefetch_degree: degree,
            ..soe_sim::MachineConfig::default()
        };
        let pair = Pair {
            a: "swim",
            b: "swim",
        };
        let mut m = Machine::new(mc, pair.boxed_traces(), Box::new(SwitchOnEvent::new()));
        m.run_cycles(300_000);
        m.reset_stats();
        m.run_cycles(500_000);
        (
            m.stats().total_switches,
            m.stats().total_retired(),
            m.hierarchy().stats().prefetches_useful,
        )
    };
    let (sw_off, _, pf_off) = run(0);
    let (sw_on, retired_on, pf_on) = run(8);
    assert_eq!(pf_off, 0);
    assert!(pf_on > 100, "prefetches must be useful: {pf_on}");
    assert!(
        sw_on < sw_off / 2,
        "prefetching must slash miss-driven switches: {sw_on} vs {sw_off}"
    );
    assert!(retired_on > 0);
}
