//! Quickstart: run one unfair thread pair under plain SOE, watch one
//! thread starve, then enforce fairness and watch it recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use soe_repro::core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_repro::core::PolicyFactory;
use soe_repro::model::FairnessLevel;
use soe_repro::sim::SimError;
use soe_repro::workloads::Pair;

fn main() -> Result<(), SimError> {
    // swim streams through memory (a last-level miss every ~600
    // instructions); eon almost never misses. Under plain switch-on-event
    // multithreading, eon keeps the core whenever swim stalls — swim's
    // "miss latency" becomes however long eon chooses to run.
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    let cfg = RunConfig::quick();

    println!("measuring single-thread references (IPC_ST)...");
    let singles = run_singles(&pair, &cfg)?;
    for s in &singles {
        println!(
            "  {:<6} IPC_ST = {:.3}  (one L2 miss per {:.0} instructions)",
            s.name, s.ipc_st, s.ipm
        );
    }

    println!(
        "\nrunning {} under SOE at each fairness level...",
        pair.label()
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "F", "IPC_SOE", "fairness", "speedup[a]", "speedup[b]", "forced"
    );
    let factory = PolicyFactory::builtin();
    for f in FairnessLevel::paper_levels() {
        let spec = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, &cfg)?;
        let r = run_spec(spec, &singles)?.run;
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>12.3} {:>12.3} {:>9}",
            f.label(),
            r.throughput,
            r.fairness,
            r.threads[0].speedup,
            r.threads[1].speedup,
            r.forced_switches
        );
    }
    println!(
        "\nReading the table: at F=0 thread a (swim) runs far below its solo speed while\n\
         thread b (eon) is barely affected. Raising the enforced fairness F narrows the\n\
         speedup gap at a small throughput cost — the paper's central tradeoff."
    );
    Ok(())
}
