//! Workload calibration: runs every named profile alone on the simulated
//! machine and reports its measured single-thread characteristics
//! (`IPC_ST`, `IPM`, branch mispredict rate, cache miss rates), next to
//! the profile's targets.
//!
//! Not a paper table per se, but the ground truth behind the DESIGN.md
//! substitution argument: the profiles must span the same
//! (IPC, IPM) spectrum as the SPEC workloads the paper used.

use soe_bench::{banner, run_config, sizing_from_args};
use soe_core::runner::try_run_single;
use soe_sim::{Machine, MachineConfig, NeverSwitch, SimError};
use soe_stats::{fnum, Align, Table};
use soe_workloads::{spec, SyntheticTrace};

fn main() -> Result<(), SimError> {
    let sizing = sizing_from_args();
    banner("Workload calibration (single-thread references)", sizing);
    let cfg = run_config(sizing);

    let mut table = Table::new(vec![
        "benchmark".into(),
        "IPC_ST".into(),
        "IPM (measured)".into(),
        "IPM (target)".into(),
        "CPM (derived)".into(),
        "mispredict %".into(),
        "L1D miss %".into(),
        "L2 miss %".into(),
    ]);
    for c in 1..8 {
        table.align(c, Align::Right);
    }

    for name in spec::NAMES {
        let Some(profile) = spec::profile(name) else {
            eprintln!("error: spec::NAMES lists {name:?} but spec::profile does not know it");
            std::process::exit(1);
        };
        let target_ipm = profile.target_ipm();
        let trace = SyntheticTrace::new(profile, 0x10_0000_0000, 0);

        // Full single run for IPC/IPM.
        let s = try_run_single(Box::new(trace.clone()), &cfg)?;

        // A second short run for the microarchitectural rates.
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![Box::new(trace)],
            Box::new(NeverSwitch::new()),
        );
        m.run_cycles(cfg.warmup_cycles + cfg.measure_cycles / 2);
        let mp = m.predictor_stats().mispredict_rate() * 100.0;
        let l1d = m.hierarchy().l1d_stats().miss_rate() * 100.0;
        let l2 = m.hierarchy().l2_stats().miss_rate() * 100.0;

        let cpm =
            s.cycles as f64 / s.l2_misses.max(1) as f64 - 300.0 * (s.l2_misses > 0) as u64 as f64;
        table.row(vec![
            s.name.clone(),
            fnum(s.ipc_st, 3),
            fnum(s.ipm, 0),
            fnum(target_ipm, 0),
            fnum(cpm.max(0.0), 0),
            fnum(mp, 2),
            fnum(l1d, 2),
            fnum(l2, 2),
        ]);
    }
    println!("{table}");
    println!("CPM derived as cycles/miss minus the 300-cycle memory latency.");
    Ok(())
}
