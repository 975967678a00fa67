//! Ablation study: sensitivity of the mechanism to its design
//! parameters — the recalculation period Δ, the maximum-cycles quota,
//! the deficit leftover cap, and the hardware switch (drain) latency.
//!
//! The paper fixes Δ = 250 000, quota = 50 000 and a ~25-cycle switch;
//! this binary shows those are reasonable points, not magic ones.

use soe_bench::{banner, run_config, run_supervised, write_observability, Cli};
use soe_core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_core::{FairnessConfig, FairnessPolicy, Job};
use soe_model::FairnessLevel;
use soe_stats::{fnum, Align, Table};
use soe_workloads::Pair;

/// One ablation point: the machine/run configuration, the fairness
/// configuration, and whether the single-thread references must be
/// re-measured because the machine itself changed.
#[derive(Clone, Copy)]
struct Variant {
    cfg: RunConfig,
    fairness: FairnessConfig,
    remeasure_singles: bool,
}

fn run_with(
    pair: &Pair,
    singles: &[soe_core::SingleRun],
    cfg: &RunConfig,
    fairness: FairnessConfig,
) -> Result<soe_core::PairRun, String> {
    let policy = Box::new(FairnessPolicy::new(2, fairness));
    RunSpec::roster(&[pair.a, pair.b], policy, Some(fairness.target), *cfg)
        .and_then(|spec| run_spec(spec, singles))
        .map(|out| out.run)
        .map_err(|e| e.to_string())
}

fn main() {
    let cli = Cli::parse_or_exit();
    let sizing = cli.sizing;
    banner(
        "Ablation: mechanism parameter sensitivity (swim:eon, F = 1/2)",
        sizing,
    );
    write_observability(&cli);
    let base_cfg = run_config(sizing);
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    let singles = run_singles(&pair, &base_cfg).unwrap_or_else(|e| {
        eprintln!("error: measuring baseline references: {e}");
        std::process::exit(1);
    });

    let base_fairness = FairnessConfig {
        target: FairnessLevel::HALF,
        ..base_cfg.fairness
    };
    let baseline = Variant {
        cfg: base_cfg,
        fairness: base_fairness,
        remeasure_singles: false,
    };

    // The full variant grid, built up front so every run can go through
    // the pool as one independent job.
    let mut variants: Vec<(String, Variant)> = vec![("baseline".into(), baseline)];

    // Δ sensitivity (quota scaled to stay <= Δ/2).
    for delta in [base_fairness.delta / 5, base_fairness.delta * 4] {
        let fairness = FairnessConfig {
            delta,
            max_cycles_quota: (delta / 4).max(1),
            ..base_fairness
        };
        variants.push((
            format!("delta={delta}"),
            Variant {
                fairness,
                ..baseline
            },
        ));
    }

    // Max-cycles quota sensitivity.
    for quota in [base_fairness.max_cycles_quota / 5, base_fairness.delta / 2] {
        let fairness = FairnessConfig {
            max_cycles_quota: quota.max(1),
            ..base_fairness
        };
        variants.push((
            format!("cycle-quota={quota}"),
            Variant {
                fairness,
                ..baseline
            },
        ));
    }

    // Deficit leftover cap.
    for cap in [1.0, 8.0] {
        let fairness = FairnessConfig {
            deficit_cap: cap,
            ..base_fairness
        };
        variants.push((
            format!("deficit-cap={cap}x"),
            Variant {
                fairness,
                ..baseline
            },
        ));
    }

    // Hardware drain latency (re-measures singles: the machine changed).
    for drain in [2u64, 20] {
        let mut cfg = base_cfg;
        cfg.machine.soe.drain_latency = drain;
        variants.push((
            format!("drain={drain}cy"),
            Variant {
                cfg,
                remeasure_singles: true,
                ..baseline
            },
        ));
    }

    // Microarchitectural options: predictor organization and store-buffer
    // drain rate (re-measuring singles since the machine changed).
    for kind in [
        soe_sim::config::PredictorKind::Bimodal,
        soe_sim::config::PredictorKind::Tournament,
    ] {
        let mut cfg = base_cfg;
        cfg.machine.predictor.kind = kind;
        variants.push((
            format!("predictor={kind:?}"),
            Variant {
                cfg,
                remeasure_singles: true,
                ..baseline
            },
        ));
    }
    {
        let mut cfg = base_cfg;
        cfg.machine.store_drain_interval = 2;
        variants.push((
            "store-drain=2cy".into(),
            Variant {
                cfg,
                remeasure_singles: true,
                ..baseline
            },
        ));
    }

    // Section 6 extensions: measured event latency, and switching on L1
    // misses as an additional event class (paired with measured latency,
    // since L1-event latencies are variable).
    let measured = FairnessConfig {
        miss_lat_mode: soe_core::MissLatencyMode::Measured,
        ..base_fairness
    };
    variants.push((
        "measured-miss-lat".into(),
        Variant {
            fairness: measured,
            ..baseline
        },
    ));
    {
        let mut cfg = base_cfg;
        cfg.machine.soe.switch_on_l1_miss = true;
        variants.push((
            "switch-on-L1+measured".into(),
            Variant {
                cfg,
                fairness: measured,
                remeasure_singles: true,
            },
        ));
    }

    let jobs: Vec<Job<Variant>> = variants
        .iter()
        .map(|(label, v)| Job::new(label.clone(), *v))
        .collect();
    let runs = run_supervised(jobs, &cli, |v| {
        if v.remeasure_singles {
            let singles = run_singles(&pair, &v.cfg).map_err(|e| e.to_string())?;
            run_with(&pair, &singles, &v.cfg, v.fairness)
        } else {
            run_with(&pair, &singles, &v.cfg, v.fairness)
        }
    });

    let mut t = Table::new(vec![
        "variant".into(),
        "throughput".into(),
        "fairness".into(),
        "forced sw".into(),
        "avg sw lat".into(),
    ]);
    for c in 1..5 {
        t.align(c, Align::Right);
    }
    for ((label, _), r) in variants.iter().zip(&runs) {
        t.row(vec![
            label.clone(),
            fnum(r.throughput, 3),
            fnum(r.fairness, 3),
            r.forced_switches.to_string(),
            fnum(r.avg_switch_latency, 1),
        ]);
    }

    println!("{t}");
    println!(
        "Expected shape: smaller Δ tracks phases but adds estimation noise; a huge\n\
         cycle quota lets one thread hog entire windows; a tight deficit cap loses\n\
         carried credit; a longer drain raises the cost of every forced switch."
    );
}
