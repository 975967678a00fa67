//! The policy zoo: a fairness-vs-throughput frontier per registered
//! switch discipline, per roster size (2/4/8-way) — the ROADMAP's
//! N-way policy-comparison deliverable.
//!
//! Every cell of the grid (roster size × policy × fairness target)
//! runs the same roster under [`soe_core::runner::RunSpec::named`]
//! with the registry's uniform F→knob translation, so disciplines are
//! compared at matched aggressiveness, not hand-tuned settings. The
//! results land as deterministic JSON (`policyzoo-{full,quick}.json`):
//! byte-identical across invocations and `--jobs` counts, which CI
//! asserts with a double-run compare.

use soe_bench::{banner, run_config, run_supervised, save_svg, write_observability, Cli, Sizing};
use soe_core::runner::{run_spec, try_run_single, RunSpec};
use soe_core::{atomic_write, Job, PairRun, PolicyFactory, SingleRun};
use soe_model::FairnessLevel;
use soe_stats::{fnum, svg, Align, Table, TimeSeries};
use soe_workloads::{spec, SyntheticTrace};

use serde::{Deserialize, Serialize};

/// Eight threads spanning memory-bound hogs-victims (`swim`, `art`,
/// `lucas`, `mcf`, `applu`, `mgrid`) and compute-bound threads that
/// starve under plain SOE (`eon`, `gcc`) — every prefix is an
/// interesting mix.
const ROSTER: [&str; 8] = [
    "swim", "eon", "art", "gcc", "lucas", "mcf", "applu", "mgrid",
];

/// Roster sizes for the frontier (the paper's 2-way plus 4/8-way).
const SIZES: [usize; 3] = [2, 4, 8];

/// One cell of the zoo grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ZooRun {
    /// Registry name of the discipline (`fairness`, `islip`, ...).
    policy: String,
    /// Roster size.
    threads: usize,
    /// Target fairness label (`F=1/2`, ...).
    target: String,
    /// The measured run.
    run: PairRun,
}

/// The complete grid, in deterministic (size, policy, level) order.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ZooResultSet {
    /// Schema tag (`soe-policyzoo/1`).
    schema: String,
    /// Roster used (first `threads` entries per cell).
    roster: Vec<String>,
    /// Single-thread references, in roster order.
    singles: Vec<SingleRun>,
    /// Every grid cell.
    runs: Vec<ZooRun>,
}

fn levels(sizing: Sizing) -> Vec<FairnessLevel> {
    match sizing {
        Sizing::Full => FairnessLevel::paper_levels().to_vec(),
        // Quick keeps the frontier's endpoints and middle.
        Sizing::Quick => vec![
            FairnessLevel::NONE,
            FairnessLevel::HALF,
            FairnessLevel::PERFECT,
        ],
    }
}

fn main() {
    let cli = Cli::parse_or_exit();
    let sizing = cli.sizing;
    banner(
        "Policy zoo: fairness-vs-throughput frontier per discipline",
        sizing,
    );
    write_observability(&cli);
    let cfg = run_config(sizing);
    let factory = PolicyFactory::builtin();
    let policies: Vec<String> = match &cli.policy {
        Some(_) => vec![cli.policy_or_exit("fairness")],
        None => factory.names(),
    };

    // Single-thread references, one per roster slot; seeds are a pure
    // function of the slot, so pooling cannot change them.
    let single_jobs: Vec<Job<usize>> = ROSTER
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

    // The grid: every (size, policy, level) cell is independent.
    let grid: Vec<(usize, String, FairnessLevel)> = SIZES
        .iter()
        .flat_map(|n| {
            policies
                .iter()
                .flat_map(move |p| levels(sizing).into_iter().map(move |f| (*n, p.clone(), f)))
        })
        .collect();
    let jobs: Vec<Job<(usize, String, FairnessLevel)>> = grid
        .iter()
        .map(|(n, p, f)| Job::new(format!("zoo/{p}/{n}way@{}", f.label()), (*n, p.clone(), *f)))
        .collect();
    let runs: Vec<PairRun> = run_supervised(jobs, &cli, |(n, p, f)| {
        let n = *n;
        // Same per-size scaling as threadsweep: the cycle quota must
        // leave room for every thread within each Δ window, and every
        // thread needs its share of warm-up.
        let mut cfg_n = cfg;
        cfg_n.fairness.max_cycles_quota = cfg
            .fairness
            .max_cycles_quota
            .min(cfg.fairness.delta / (n as u64 + 1));
        cfg_n.warmup_cycles = cfg.warmup_cycles * n as u64;
        let factory = PolicyFactory::builtin();
        RunSpec::named(&factory, p, &ROSTER[..n], *f, &cfg_n)
            .and_then(|spec| run_spec(spec, &singles[..n]))
            .map(|out| out.run)
            .map_err(|e| e.to_string())
    });

    let set = ZooResultSet {
        schema: "soe-policyzoo/1".to_string(),
        roster: ROSTER.iter().map(ToString::to_string).collect(),
        singles,
        runs: grid
            .iter()
            .zip(&runs)
            .map(|((n, p, f), run)| ZooRun {
                policy: p.clone(),
                threads: *n,
                target: f.label(),
                run: run.clone(),
            })
            .collect(),
    };

    // Frontier tables and figures, one per roster size.
    for n in SIZES {
        let mut t = Table::new(vec![
            "policy".into(),
            "F".into(),
            "fairness".into(),
            "IPC".into(),
            "SOE speedup".into(),
            "forced/kcyc".into(),
            "switches".into(),
        ]);
        for c in 2..7 {
            t.align(c, Align::Right);
        }
        for z in set.runs.iter().filter(|z| z.threads == n) {
            t.row(vec![
                z.policy.clone(),
                z.target.clone(),
                fnum(z.run.fairness, 3),
                fnum(z.run.throughput, 3),
                fnum(z.run.soe_speedup, 3),
                fnum(z.run.forced_per_kcycle, 2),
                z.run.total_switches.to_string(),
            ]);
        }
        println!("\n{n}-way roster: {}", ROSTER[..n].join(":"));
        println!("{t}");

        // Frontier figure: achieved fairness (x) vs throughput (y), one
        // polyline per policy, points ordered by fairness.
        let series: Vec<TimeSeries> = policies
            .iter()
            .map(|p| {
                let mut pts: Vec<(f64, f64)> = set
                    .runs
                    .iter()
                    .filter(|z| z.threads == n && z.policy == *p)
                    .map(|z| (z.run.fairness, z.run.throughput))
                    .collect();
                pts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let mut s = TimeSeries::new(p.clone());
                for (x, y) in pts {
                    s.push(x, y);
                }
                s
            })
            .collect();
        save_svg(
            &format!(
                "policyzoo-{n}way{}",
                if sizing == Sizing::Quick {
                    "-quick"
                } else {
                    ""
                }
            ),
            &svg::line_chart(
                &series,
                &format!("Fairness-throughput frontier, {n}-way"),
                "fairness (min speedup ratio)",
                "throughput (IPC)",
            ),
        );
    }

    // Deterministic JSON: the grid order is fixed, so two runs (at any
    // worker count) produce identical bytes — CI compares them.
    let path = std::path::PathBuf::from(
        // soe-lint: allow(determinism-taint): SOE_RESULTS_DIR picks where the results land, not what bytes they contain
        std::env::var("SOE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    )
    .join(match sizing {
        Sizing::Full => "policyzoo-full.json",
        Sizing::Quick => "policyzoo-quick.json",
    });
    let json = serde_json::to_string(&set).expect("serialize zoo results");
    match atomic_write(&path, json.as_bytes()) {
        Ok(()) => println!("\n[zoo] wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "Reading the frontier: up and to the right wins. The paper's `fairness`\n\
         mechanism holds throughput while moving right as F grows; fixed-knob\n\
         disciplines (timeslice/islip/wdrr/ban) trade throughput for fairness\n\
         on a steeper curve because they cannot target the lagging thread."
    );
}
