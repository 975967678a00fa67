//! Weighted (prioritized) fairness: give a latency-sensitive foreground
//! thread a 2:1 service guarantee over a background thread — the
//! proportional-share extension of the paper's mechanism.
//!
//! ```sh
//! cargo run --release --example priority_threads
//! ```

use soe_repro::core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_repro::core::{FairnessConfig, FairnessPolicy};
use soe_repro::model::weighted::{weighted_fairness, Weights};
use soe_repro::model::FairnessLevel;
use soe_repro::sim::SimError;
use soe_repro::workloads::Pair;

fn main() -> Result<(), SimError> {
    // Foreground: lucas (FP kernel). Background: applu (comparable FP
    // code). Both would get ~equal service under plain fairness.
    let pair = Pair {
        a: "lucas",
        b: "applu",
    };
    let cfg = RunConfig::quick();
    let singles = run_singles(&pair, &cfg)?;
    println!(
        "references: {} IPC_ST {:.3}, {} IPC_ST {:.3}\n",
        singles[0].name, singles[0].ipc_st, singles[1].name, singles[1].ipc_st
    );

    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>14}",
        "policy", "IPC_SOE", "speedup[fg]", "speedup[bg]", "speedup ratio"
    );
    for (label, weights) in [
        ("uniform (paper Eq 4/9)", Weights::uniform(2)),
        ("weighted 2:1", Weights::new(vec![2.0, 1.0])),
        ("weighted 4:1", Weights::new(vec![4.0, 1.0])),
    ] {
        let fairness = FairnessConfig {
            target: FairnessLevel::PERFECT,
            ..cfg.fairness
        };
        let policy = FairnessPolicy::new(2, fairness).with_weights(weights.clone());
        let spec = RunSpec::roster(&[pair.a, pair.b], Box::new(policy), None, cfg)?;
        let r = run_spec(spec, &singles)?.run;
        let speedups: Vec<f64> = r.threads.iter().map(|t| t.speedup).collect();
        println!(
            "{:<28} {:>10.3} {:>12.3} {:>12.3} {:>14.2}  (weighted fairness {:.2})",
            label,
            r.throughput,
            speedups[0],
            speedups[1],
            speedups[0] / speedups[1],
            weighted_fairness(&speedups, &weights),
        );
    }
    println!(
        "\nThe mechanism's quota (Eq 9) generalizes cleanly: scaling a thread's quota\n\
         by its weight bounds the spread of weight-normalized speedups, throttling the\n\
         background thread proportionally without starving it. Note the stabilizer\n\
         floor (FairnessConfig::min_quota_cycles) caps how hard the background thread\n\
         can be squeezed, so extreme weight ratios saturate — the same estimation-\n\
         accuracy guardrail the paper motivates for strict enforcement (Section 6)."
    );
    Ok(())
}
