//! Section 6 — why simple time sharing is ineffective: the analytical
//! example (400-cycle slices on the Table 2 scenario) and a simulated
//! comparison of time-slice quotas against the fairness mechanism.

use soe_bench::{banner, run_config, sizing_from_args};
use soe_core::runner::{run_singles, run_spec, RunSpec};
use soe_core::{PolicyFactory, TimeSlicePolicy};
use soe_model::example::table2_scenario;
use soe_model::timeshare::time_share;
use soe_model::FairnessLevel;
use soe_sim::SimError;
use soe_stats::{fnum, Align, Table};
use soe_workloads::Pair;

fn main() -> Result<(), SimError> {
    let sizing = sizing_from_args();
    banner(
        "Section 6: simple time sharing vs the fairness mechanism",
        sizing,
    );

    // --- Analytical part: the paper's exact example -------------------
    println!("Analytical example (Table 2 scenario, 400-cycle slices):");
    let model = table2_scenario();
    let ts = time_share(&model, 400.0);
    println!(
        "  time sharing: speedups {:.2} / {:.2}, fairness {:.2} (paper: 0.5 / 0.8 -> 0.6)",
        ts.per_thread[0].speedup, ts.per_thread[1].speedup, ts.fairness
    );
    let enforced = model.analyze(FairnessLevel::PERFECT);
    println!(
        "  mechanism (F=1): speedups {:.2} / {:.2}, fairness {:.2} (paper: 0.63 / 0.63 -> 1.0)\n",
        enforced.per_thread[0].speedup, enforced.per_thread[1].speedup, enforced.fairness
    );

    // --- Simulated part ------------------------------------------------
    let cfg = run_config(sizing);
    let pair = Pair { a: "gcc", b: "eon" };
    println!("Simulated comparison on {} :", pair.label());
    let singles = run_singles(&pair, &cfg)?;
    let names = [pair.a, pair.b];

    let mut t = Table::new(vec![
        "policy".into(),
        "throughput".into(),
        "fairness".into(),
        "speedup[gcc]".into(),
        "speedup[eon]".into(),
        "switches".into(),
    ]);
    for c in 1..6 {
        t.align(c, Align::Right);
    }
    let mut add = |r: &soe_core::PairRun| {
        t.row(vec![
            r.policy.clone(),
            fnum(r.throughput, 3),
            fnum(r.fairness, 3),
            fnum(r.threads[0].speedup, 3),
            fnum(r.threads[1].speedup, 3),
            r.total_switches.to_string(),
        ]);
    };
    for quota in [400, 2_000, 10_000, 50_000] {
        let policy = Box::new(TimeSlicePolicy::new(quota));
        add(&run_spec(RunSpec::roster(&names, policy, None, cfg)?, &singles)?.run);
    }
    for f in [
        FairnessLevel::NONE,
        FairnessLevel::HALF,
        FairnessLevel::PERFECT,
    ] {
        let spec = RunSpec::named(&PolicyFactory::builtin(), "fairness", &names, f, &cfg)?;
        add(&run_spec(spec, &singles)?.run);
    }
    println!("{t}");
    println!(
        "Small time slices pay frequent pipeline drains for mediocre fairness; large\n\
         slices keep throughput but leave execution unfair. The mechanism hits the\n\
         target fairness at a fraction of the switches."
    );
    Ok(())
}
