//! The mechanism's foundation: estimating each thread's stand-alone IPC
//! from hardware counters *while it runs under SOE* (Figure 5, top
//! panel). The estimate should track the real (measured-alone) IPC_ST,
//! sitting slightly below it (shared caches/predictor and lost
//! miss-overlap, as the paper explains).

use soe_core::runner::{run_singles, RunConfig};
use soe_core::timeseries::estimated_ipc_st_series;
use soe_core::{FairnessConfig, FairnessPolicy};
use soe_model::FairnessLevel;
use soe_sim::Machine;
use soe_workloads::Pair;

fn estimates_for(pair: &Pair, f: FairnessLevel, cfg: &RunConfig) -> Vec<f64> {
    let fairness = FairnessConfig {
        target: f,
        record_history: true,
        ..cfg.fairness
    };
    let mut m = Machine::new(
        cfg.machine,
        pair.boxed_traces(),
        Box::new(FairnessPolicy::new(2, fairness)),
    );
    m.run_cycles(cfg.warmup_cycles);
    if let Some(p) = m
        .policy_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<FairnessPolicy>())
    {
        p.clear_records();
    }
    m.run_cycles(cfg.measure_cycles);
    let records = m
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<FairnessPolicy>())
        .expect("fairness policy")
        .records()
        .to_vec();
    estimated_ipc_st_series(&records, &[pair.a, pair.b])
        .iter()
        .map(|ts| ts.mean_y())
        .collect()
}

#[test]
fn estimates_track_real_single_thread_ipc() {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 600_000;
    cfg.measure_cycles = 1_500_000;
    let pair = Pair {
        a: "lucas",
        b: "applu",
    };
    let singles = run_singles(&pair, &cfg).expect("references run");
    let est = estimates_for(&pair, FairnessLevel::HALF, &cfg);

    for (i, s) in singles.iter().enumerate() {
        let ratio = est[i] / s.ipc_st;
        assert!(
            (0.5..=1.15).contains(&ratio),
            "{}: estimated {:.3} vs real {:.3} (ratio {:.2})",
            s.name,
            est[i],
            s.ipc_st,
            ratio
        );
    }
}

#[test]
fn estimates_preserve_thread_ordering() {
    // Even if absolute estimates drift, the mechanism only needs the
    // *relative* picture to divide quota correctly.
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 500_000;
    cfg.measure_cycles = 1_200_000;
    let pair = Pair { a: "mcf", b: "eon" };
    let singles = run_singles(&pair, &cfg).expect("references run");
    assert!(singles[1].ipc_st > singles[0].ipc_st, "eon faster than mcf");
    let est = estimates_for(&pair, FairnessLevel::QUARTER, &cfg);
    assert!(
        est[1] > est[0],
        "estimated ordering must match: eon {:.3} vs mcf {:.3}",
        est[1],
        est[0]
    );
}
