//! Cross-validation: the Section 2 analytical model against the detailed
//! simulator. The paper notes "our empirical results indicate that the
//! analytical model gives adequate approximation" — these tests pin that
//! down with tolerance bands.

mod common;

use common::fairness_run;
use soe_core::runner::{run_singles, RunConfig};
use soe_model::{FairnessLevel, SoeModel, SystemParams, ThreadModel};
use soe_workloads::Pair;

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 600_000;
    cfg.measure_cycles = 1_500_000;
    cfg
}

/// Builds the analytical twin of a measured pair from its single-thread
/// references.
fn model_of(singles: &[soe_core::SingleRun]) -> SoeModel {
    let threads = singles
        .iter()
        .map(|s| {
            // CPM from the measured run: execution cycles per miss after
            // removing the memory stall component.
            let cpm = (s.cycles as f64 - s.l2_misses as f64 * 300.0) / s.l2_misses.max(1) as f64;
            ThreadModel::from_ipm_cpm(s.ipm, cpm.max(1.0))
        })
        .collect();
    SoeModel::new(threads, SystemParams::new(300.0, 25.0))
}

#[test]
fn model_predicts_simulated_unfairness_direction_and_magnitude() {
    let pair = Pair {
        a: "apsi",
        b: "swim",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let model = model_of(&singles);

    let predicted = model.analyze(FairnessLevel::NONE);
    let simulated = fairness_run(&pair, FairnessLevel::NONE, &singles, &cfg);

    // Which thread suffers must agree.
    let pred_slow = predicted.per_thread[0].speedup < predicted.per_thread[1].speedup;
    let sim_slow = simulated.threads[0].speedup < simulated.threads[1].speedup;
    assert_eq!(
        pred_slow, sim_slow,
        "model and simulator disagree on the victim"
    );

    // Fairness within a factor-2 band (the model ignores overlap,
    // sharing and warm-up effects).
    let ratio = simulated.fairness / predicted.fairness.max(1e-9);
    assert!(
        (0.4..=2.5).contains(&ratio),
        "fairness: model {:.3} vs simulated {:.3}",
        predicted.fairness,
        simulated.fairness
    );
}

#[test]
fn model_predicts_simulated_throughput_within_band() {
    let pair = Pair {
        a: "lucas",
        b: "applu",
    };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let model = model_of(&singles);
    for f in [FairnessLevel::NONE, FairnessLevel::PERFECT] {
        let predicted = model.analyze(f).throughput;
        let simulated = fairness_run(&pair, f, &singles, &cfg).throughput;
        let ratio = simulated / predicted;
        assert!(
            (0.6..=1.4).contains(&ratio),
            "{}: model {:.3} vs simulated {:.3}",
            f.label(),
            predicted,
            simulated
        );
    }
}

#[test]
fn eq5_predicts_unenforced_fairness_from_cpm() {
    // Eq 5: without enforcement, fairness is set by the CPM ratio — a
    // pure workload property. Verify on a strongly asymmetric pair.
    let pair = Pair { a: "mcf", b: "eon" };
    let cfg = cfg();
    let singles = run_singles(&pair, &cfg).expect("references run");
    let model = model_of(&singles);
    let eq5 = {
        let cpms: Vec<f64> = model.threads().iter().map(|t| t.cpm() + 300.0).collect();
        (cpms[0] / cpms[1]).min(cpms[1] / cpms[0])
    };
    let simulated = fairness_run(&pair, FairnessLevel::NONE, &singles, &cfg).fairness;
    assert!(
        simulated < 3.0 * eq5 + 0.1,
        "Eq 5 predicts {eq5:.3}; simulator measured {simulated:.3}"
    );
    assert!(eq5 < 0.35, "mcf:eon must be predicted unfair, got {eq5}");
    assert!(
        simulated < 0.5,
        "mcf:eon must measure unfair, got {simulated}"
    );
}
