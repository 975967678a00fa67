//! A miniature version of the full evaluation matrix, asserting the
//! figure-level *shapes* the paper reports (the full-size numbers live in
//! EXPERIMENTS.md; this test keeps them from silently regressing).

mod common;

use common::fairness_run;
use soe_core::runner::{run_singles, RunConfig};
use soe_model::FairnessLevel;
use soe_workloads::Pair;

#[test]
fn mini_matrix_reproduces_the_figure_shapes() {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 400_000;
    cfg.measure_cycles = 1_000_000;

    // One extremely unfair pair, one moderately unfair, one naturally
    // fair — a 3-pair cross-section of Figure 6/7/8.
    let pairs = [
        Pair { a: "art", b: "eon" },
        Pair {
            a: "apsi",
            b: "swim",
        },
        Pair {
            a: "applu",
            b: "applu",
        },
    ];
    let levels = [
        FairnessLevel::NONE,
        FairnessLevel::HALF,
        FairnessLevel::PERFECT,
    ];

    let mut all = Vec::new();
    for pair in &pairs {
        let singles = run_singles(pair, &cfg).expect("references run");
        let runs: Vec<_> = levels
            .iter()
            .map(|f| fairness_run(pair, *f, &singles, &cfg))
            .collect();
        all.push(runs);
    }

    // Figure 8 shape: fairness is (weakly) monotone in F for every pair,
    // and enforcement reaches at least ~80 % of each target.
    for (pair, runs) in pairs.iter().zip(&all) {
        assert!(
            runs[1].fairness >= runs[0].fairness - 0.05,
            "{}: F=1/2 fairness {} under F=0 {}",
            pair.label(),
            runs[1].fairness,
            runs[0].fairness
        );
        // Small windows (20 Δ periods) leave estimation noise; the
        // full-size runs in EXPERIMENTS.md land much closer to target.
        assert!(
            runs[1].fairness > 0.3,
            "{}: F=1/2 must land near target: {}",
            pair.label(),
            runs[1].fairness
        );
        assert!(
            runs[2].fairness > 0.55,
            "{}: F=1 must approach 1: {}",
            pair.label(),
            runs[2].fairness
        );
    }

    // Figure 8 ordering: the unfair pair is far below the fair pair at F=0.
    assert!(
        all[0][0].fairness < 0.2,
        "art:eon F=0 {}",
        all[0][0].fairness
    );
    assert!(
        all[2][0].fairness > 0.6,
        "applu:applu F=0 {}",
        all[2][0].fairness
    );

    // Figure 7 shape: averaged over the cross-section, enforcement costs
    // bounded throughput, and F=1 never costs more than ~35 % on any pair.
    for (pair, runs) in pairs.iter().zip(&all) {
        let rel = runs[2].throughput / runs[0].throughput;
        assert!(rel > 0.6, "{}: F=1 relative throughput {rel}", pair.label());
    }

    // Figure 6 shape: the naturally fair pair is essentially unaffected
    // by enforcement.
    let fair_rel = all[2][2].throughput / all[2][0].throughput;
    assert!(
        fair_rel > 0.9,
        "enforcement must be nearly free on a fair pair: {fair_rel}"
    );
}
