//! Figure 5 — detailed examination of the gcc:eon pair: estimated vs
//! real single-thread IPC (top), per-thread speedups with and without
//! enforcement (middle), and achieved fairness over time (bottom),
//! with fairness enforced to F = 1/4.

use soe_bench::{banner, run_config, run_supervised, save_svg, write_observability, Cli};
use soe_core::runner::run_singles;
use soe_core::timeseries::{estimated_ipc_st_series, fairness_series, speedup_series};
use soe_core::{FairnessConfig, FairnessPolicy, Job, SingleRun, WindowRecord};
use soe_model::FairnessLevel;
use soe_sim::Machine;
use soe_stats::chart::line_chart;
use soe_workloads::Pair;

/// The three independent measurements behind the figure.
enum Task {
    Singles,
    Records(FairnessLevel),
}

enum Measured {
    Singles([SingleRun; 2]),
    Records(Vec<WindowRecord>),
}

fn run_with_records(
    pair: &Pair,
    f: FairnessLevel,
    cfg: &soe_core::runner::RunConfig,
) -> Result<Vec<WindowRecord>, String> {
    // A dedicated run that keeps the policy alive so its history can be
    // extracted afterwards.
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
    m.try_run_cycles(cfg.warmup_cycles, cfg.stall_window)
        .map_err(|e| e.to_string())?;
    m.try_run_cycles(cfg.measure_cycles, cfg.stall_window)
        .map_err(|e| e.to_string())?;
    Ok(m.policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<FairnessPolicy>())
        .expect("fairness policy")
        .records()
        .to_vec())
}

/// Rebuilds a series under a new display name (for combined charts).
fn rename(ts: soe_stats::TimeSeries, name: &str) -> soe_stats::TimeSeries {
    let mut out = soe_stats::TimeSeries::new(name);
    for (x, y) in ts.iter() {
        out.push(x, y);
    }
    out
}

fn main() {
    let cli = Cli::parse_or_exit();
    let sizing = cli.sizing;
    banner(
        "Figure 5: gcc:eon — IPC_ST estimation, speedups and achieved fairness (F = 1/4)",
        sizing,
    );
    write_observability(&cli);
    let cfg = run_config(sizing);
    let pair = Pair { a: "gcc", b: "eon" };

    // The references and the two recorded runs are independent; run
    // them supervised. Order is preserved, so destructuring below is
    // safe.
    let jobs = vec![
        Job::new("singles-gcc,eon".to_string(), Task::Singles),
        Job::new(
            "records@F=0".to_string(),
            Task::Records(FairnessLevel::NONE),
        ),
        Job::new(
            "records@F=1/4".to_string(),
            Task::Records(FairnessLevel::QUARTER),
        ),
    ];
    let job_pair = pair.clone();
    let mut out = run_supervised(jobs, &cli, move |task| match task {
        Task::Singles => Ok(Measured::Singles(
            run_singles(&job_pair, &cfg).map_err(|e| e.to_string())?,
        )),
        Task::Records(f) => Ok(Measured::Records(run_with_records(&job_pair, *f, &cfg)?)),
    })
    .into_iter();
    let (
        Some(Measured::Singles(singles)),
        Some(Measured::Records(recs_f0)),
        Some(Measured::Records(recs_fq)),
    ) = (out.next(), out.next(), out.next())
    else {
        unreachable!("pool preserves submission order");
    };

    let ipc_st_real = [singles[0].ipc_st, singles[1].ipc_st];
    println!(
        "real IPC_ST: gcc = {:.3}, eon = {:.3}\n",
        ipc_st_real[0], ipc_st_real[1]
    );

    println!("--- top panel: estimated IPC_ST while running in SOE (F = 1/4) ---");
    for ts in estimated_ipc_st_series(&recs_fq, &["gcc", "eon"]) {
        println!("{}\n", line_chart(&ts, 6, 64));
        println!(
            "   mean estimate {:.3} (real {:.3})\n",
            ts.mean_y(),
            if ts.name().contains("gcc") {
                ipc_st_real[0]
            } else {
                ipc_st_real[1]
            }
        );
    }

    println!("--- middle panel: per-thread speedups ---");
    for (label, recs) in [("F=0", &recs_f0), ("F=1/4", &recs_fq)] {
        println!("[{label}]");
        for ts in speedup_series(recs, &["gcc", "eon"], &ipc_st_real) {
            println!(
                "  {}: mean speedup {:.3} (min {:.3}, max {:.3})",
                ts.name(),
                ts.mean_y(),
                ts.min_y().unwrap_or(0.0),
                ts.max_y().unwrap_or(0.0)
            );
        }
    }

    println!("\n--- bottom panel: achieved fairness over time ---");
    for (label, recs) in [("F=0", &recs_f0), ("F=1/4", &recs_fq)] {
        let ts = fairness_series(recs, &ipc_st_real);
        println!("[{label}] mean achieved fairness {:.3}", ts.mean_y());
        println!("{}\n", line_chart(&ts, 6, 64));
    }

    save_svg(
        "figure5_estimates",
        &soe_stats::svg::line_chart(
            &estimated_ipc_st_series(&recs_fq, &["gcc", "eon"]),
            "Figure 5 (top): estimated IPC_ST under SOE, F = 1/4",
            "cycle",
            "estimated IPC_ST",
        ),
    );
    save_svg(
        "figure5_speedups",
        &soe_stats::svg::line_chart(
            &speedup_series(&recs_fq, &["gcc", "eon"], &ipc_st_real),
            "Figure 5 (middle): per-thread speedups, F = 1/4",
            "cycle",
            "speedup",
        ),
    );
    save_svg(
        "figure5_fairness",
        &soe_stats::svg::line_chart(
            &[
                {
                    let mut t = fairness_series(&recs_f0, &ipc_st_real);
                    t = rename(t, "F=0");
                    t
                },
                {
                    let mut t = fairness_series(&recs_fq, &ipc_st_real);
                    t = rename(t, "F=1/4");
                    t
                },
            ],
            "Figure 5 (bottom): achieved fairness over time",
            "cycle",
            "achieved fairness",
        ),
    );

    let gcc_f0: f64 = speedup_series(&recs_f0, &["gcc", "eon"], &ipc_st_real)[0].mean_y();
    let gcc_fq: f64 = speedup_series(&recs_fq, &["gcc", "eon"], &ipc_st_real)[0].mean_y();
    println!(
        "gcc speedup improves {:.1}x when fairness is enforced to 1/4 \
         (paper: \"20 times faster than without fairness enforcement\")",
        gcc_fq / gcc_f0.max(1e-9)
    );
}
