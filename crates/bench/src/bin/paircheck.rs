//! Fast pair-level sanity check: SOE speedup over single-thread at F=0
//! and F=1 for a handful of pairs, with reduced windows. Used while
//! calibrating the workload profiles.

use soe_core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_core::{PairRun, PolicyFactory};
use soe_model::FairnessLevel;
use soe_sim::SimError;
use soe_workloads::Pair;

fn main() -> Result<(), SimError> {
    let mut cfg = RunConfig::paper();
    cfg.warmup_cycles = 1_000_000;
    cfg.measure_cycles = 3_000_000;
    let pairs = [
        Pair { a: "gcc", b: "gcc" },
        Pair {
            a: "bzip2",
            b: "bzip2",
        },
        Pair {
            a: "swim",
            b: "bzip2",
        },
        Pair { a: "mcf", b: "mcf" },
        Pair { a: "gcc", b: "eon" },
        Pair {
            a: "swim",
            b: "swim",
        },
    ];
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "pair", "ST[0]", "ST[1]", "F0 tput", "F0 spd%", "F1 tput", "F0 fair"
    );
    let factory = PolicyFactory::builtin();
    for pair in pairs {
        let singles = run_singles(&pair, &cfg)?;
        let run = |f| -> Result<PairRun, SimError> {
            let spec = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, &cfg)?;
            Ok(run_spec(spec, &singles)?.run)
        };
        let f0 = run(FairnessLevel::NONE)?;
        let f1 = run(FairnessLevel::PERFECT)?;
        println!(
            "{:<14} {:>8.3} {:>8.3} {:>9.3} {:>8.1}% {:>9.3} {:>9.3}",
            pair.label(),
            singles[0].ipc_st,
            singles[1].ipc_st,
            f0.throughput,
            (f0.soe_speedup - 1.0) * 100.0,
            f1.throughput,
            f0.fairness,
        );
    }
    Ok(())
}
