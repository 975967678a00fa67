//! Extension experiment: SOE throughput and fairness as the thread count
//! grows (the paper's equations are N-thread; Eickemeyer et al., cited in
//! Section 1.1, report SOE throughput saturating around three threads).
//!
//! One memory-bound thread is added at a time on top of a compute thread;
//! once the combined compute between misses covers the memory latency,
//! additional threads stop helping and only add switch overhead and cache
//! pressure.

use soe_bench::{banner, run_config, run_supervised, write_observability, Cli};
use soe_core::runner::{run_spec, try_run_single, RunSpec};
use soe_core::{Job, PolicyFactory};
use soe_model::FairnessLevel;
use soe_stats::{fnum, Align, Table};
use soe_workloads::{spec, SyntheticTrace};

/// Memory-bound, small-footprint threads: the workloads SOE exists for
/// (each spends most of its solo time stalled on memory).
const ROSTER: [&str; 6] = ["swim", "art", "lucas", "mcf", "applu", "mgrid"];

fn main() {
    let cli = Cli::parse_or_exit();
    let sizing = cli.sizing;
    // `--policy` swaps the enforcement discipline for the whole sweep;
    // the fairness column still sweeps F through the policy's knobs.
    let policy = cli.policy_or_exit("fairness");
    banner(
        &format!("Thread-count sweep: SOE throughput vs number of threads (policy: {policy})"),
        sizing,
    );
    write_observability(&cli);
    let cfg = run_config(sizing);
    let roster = ROSTER;

    // Single-thread references, measured once each. Seeds are a pure
    // function of the roster position, so pooling cannot change them.
    let single_jobs: Vec<Job<usize>> = roster
        .iter()
        .enumerate()
        .map(|(i, name)| Job::new(format!("single/{name}"), i))
        .collect();
    let singles = run_supervised(single_jobs, &cli, move |i| {
        let name = ROSTER[*i];
        let profile = spec::profile(name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        let trace = SyntheticTrace::new(profile, (*i as u64 + 1) * 0x10_0000_0000, 0);
        try_run_single(Box::new(trace), &cfg).map_err(|e| e.to_string())
    });

    // Sweep: every (thread count, fairness level) is independent once
    // the references exist, so the whole grid goes into one job list.
    let levels = [FairnessLevel::NONE, FairnessLevel::HALF];
    let sweep_jobs: Vec<Job<(usize, FairnessLevel)>> = (1..=roster.len())
        .flat_map(|n| {
            levels
                .iter()
                .map(move |f| Job::new(format!("{n}-threads@{}", f.label()), (n, *f)))
        })
        .collect();
    let runs = run_supervised(sweep_jobs, &cli, |(n, f)| {
        let n = *n;
        // The max-cycles quota must leave room for every thread within
        // each Δ window; scale it down as the thread count grows.
        let mut cfg_n = cfg;
        cfg_n.fairness.max_cycles_quota = cfg
            .fairness
            .max_cycles_quota
            .min(cfg.fairness.delta / (n as u64 + 1));
        // Every thread needs its share of warm-up.
        cfg_n.warmup_cycles = cfg.warmup_cycles * n as u64;
        let factory = PolicyFactory::builtin();
        RunSpec::named(&factory, &policy, &ROSTER[..n], *f, &cfg_n)
            .and_then(|spec| run_spec(spec, &singles[..n]))
            .map(|out| out.run)
            .map_err(|e| e.to_string())
    });

    let mut t = Table::new(vec![
        "threads".into(),
        "mix".into(),
        "IPC_SOE (F=0)".into(),
        "speedup vs ST".into(),
        "fairness (F=0)".into(),
        "fairness (F=1/2)".into(),
        "IPC (F=1/2)".into(),
    ]);
    for c in 2..7 {
        t.align(c, Align::Right);
    }
    for (n, pair) in (1..=roster.len()).zip(runs.chunks(levels.len())) {
        let (f0, fh) = (&pair[0], &pair[1]);
        t.row(vec![
            n.to_string(),
            roster[..n].join(":"),
            fnum(f0.throughput, 3),
            format!("{:+.1}%", (f0.soe_speedup - 1.0) * 100.0),
            fnum(f0.fairness, 3),
            fnum(fh.fairness, 3),
            fnum(fh.throughput, 3),
        ]);
    }
    println!("{t}");
    println!(
        "Expected shape: adding a second/third thread hides miss stalls and lifts\n\
         throughput; beyond that, shared-L1/L2 interference and switch overhead on\n\
         this 32 KiB-L1 machine eat the gains (cf. Eickemeyer et al.'s maximum near\n\
         three threads). Fairness enforcement keeps working at every N."
    );
}
