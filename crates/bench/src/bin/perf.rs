//! soe-perf — host-performance benchmark harness.
//!
//! Measures how fast the simulator runs on the host (Msim-cycles/s and
//! retired KIPS) over a fixed, deterministic workload roster, and
//! writes the measurements as `BENCH_13.json` for cross-commit
//! comparison. Simulated results are untouched by definition: the
//! roster reuses the ordinary runners; only wall-clock is added.
//!
//! `--profile` switches to a diagnostic mode that runs the roster once
//! on directly-constructed machines and reports, per wake source, how
//! often it was live at a quiesce, how many jumps it bounded and how
//! many cycles those jumps skipped — the observability window into the
//! discrete-event core.
//!
//! Host timing (`std::time::Instant`) is allowed here — soe-lint bans
//! it in the `sim`/`core` crates so simulated behaviour can never
//! depend on the host clock, and the bench crate is the one place
//! wall-clock measurement belongs.
//!
//! # Output schema (`soe-perf/v1`)
//!
//! ```json
//! {
//!   "schema": "soe-perf/v1",
//!   "quick": false,
//!   "repeats": 3,
//!   "entries": [
//!     { "name": "pair:gcc:eon@F=0", "kind": "pair",
//!       "sim_cycles": 4500000, "retired": 5100000, "wall_s": 0.81,
//!       "msim_cycles_per_s": 5.55, "retired_kips": 6296.3 }
//!   ],
//!   "totals": { "name": "totals", "kind": "totals", "...": "..." }
//! }
//! ```
//!
//! Each entry's `wall_s` is the **minimum** over `repeats` runs (the
//! least-noise estimator for a deterministic workload); `sim_cycles`
//! counts one run's simulated cycles, warm-up included, since the wall
//! time includes the warm-up too (for pair entries, the two
//! single-thread references plus the pair run). `retired` counts the
//! measurement windows only. `BENCH_5.json` and `BENCH_10.json` predate
//! the warm-up accounting: their `sim_cycles` cover the windows alone,
//! so their rates read 20% low. `totals` sums the roster. Compare two
//! commits by checking out each, running
//! `cargo run --release --bin perf`, and diffing `msim_cycles_per_s`;
//! the harness also prints an informational comparison against the
//! committed `BENCH_13.json` (or `--baseline PATH`) when one exists.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use soe_core::runner::{try_run_pair, try_run_single, RunConfig};
use soe_model::FairnessLevel;
use soe_sim::SourceStats;
use soe_workloads::pairs::{paper_pairs, Pair};

const SCHEMA: &str = "soe-perf/v1";
const DEFAULT_OUT: &str = "BENCH_13.json";

const USAGE: &str = "\
soe-perf: host-throughput benchmark over a fixed workload roster

USAGE: perf [--quick] [--repeats N] [--out PATH] [--baseline PATH]
            [--gate PCT] [--profile]

  --quick          1 repeat per roster entry (CI sizing; default 3)
  --repeats N      explicit repeat count (minimum wall time wins)
  --out PATH       where to write the JSON report (default BENCH_13.json)
  --baseline PATH  compare against this report (default BENCH_13.json)
  --gate PCT       exit nonzero unless roster totals are within ±PCT%
                   of the baseline (the CI regression gate); requires
                   a readable baseline report
  --profile        report per-wake-source quiesce counters over the
                   roster instead of measuring throughput (no JSON)";

/// One measured roster entry (also reused for the roster totals).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    name: String,
    kind: String,
    sim_cycles: u64,
    retired: u64,
    wall_s: f64,
    msim_cycles_per_s: f64,
    retired_kips: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    quick: bool,
    repeats: usize,
    entries: Vec<Entry>,
    totals: Entry,
}

fn entry(name: String, kind: &str, sim_cycles: u64, retired: u64, wall_s: f64) -> Entry {
    Entry {
        name,
        kind: kind.to_string(),
        sim_cycles,
        retired,
        wall_s: round3(wall_s),
        msim_cycles_per_s: round3(sim_cycles as f64 / wall_s / 1e6),
        retired_kips: round3(retired as f64 / wall_s / 1e3),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("soe-perf: {msg}");
    std::process::exit(1);
}

fn find_pair<'a>(pairs: &'a [Pair], label: &str) -> &'a Pair {
    pairs
        .iter()
        .find(|p| p.label() == label)
        .unwrap_or_else(|| die(&format!("roster pair {label} missing from paper_pairs()")))
}

/// Runs one single-thread roster workload; returns (sim_cycles,
/// retired), the cycles counting the warm-up.
fn run_single_entry(pair: &Pair, cfg: &RunConfig) -> (u64, u64) {
    let (a, _) = pair.traces();
    let r = try_run_single(Box::new(a), cfg)
        .unwrap_or_else(|e| die(&format!("single {}: {e}", pair.a)));
    (cfg.warmup_cycles + r.cycles, r.retired)
}

/// Runs one SOE pair roster workload (singles + pair, as an experiment
/// would); returns (sim_cycles, retired) across all three runs, the
/// cycles counting each run's warm-up.
fn run_pair_entry(pair: &Pair, f: FairnessLevel, cfg: &RunConfig) -> (u64, u64) {
    let (a, b) = pair.traces();
    let singles = [
        try_run_single(Box::new(a), cfg)
            .unwrap_or_else(|e| die(&format!("pair {} singles: {e}", pair.label()))),
        try_run_single(Box::new(b), cfg)
            .unwrap_or_else(|e| die(&format!("pair {} singles: {e}", pair.label()))),
    ];
    let r = try_run_pair(pair, f, &singles, cfg)
        .unwrap_or_else(|e| die(&format!("pair {}: {e}", pair.label())));
    let retired: u64 = r.threads.iter().map(|t| t.retired).sum();
    (
        3 * cfg.warmup_cycles + singles[0].cycles + singles[1].cycles + r.cycles,
        singles[0].retired + singles[1].retired + retired,
    )
}

fn main() {
    let mut repeats: usize = 3;
    let mut out = DEFAULT_OUT.to_string();
    let mut baseline = DEFAULT_OUT.to_string();
    let mut profile = false;
    let mut gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => repeats = 1,
            "--profile" => profile = true,
            "--repeats" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--repeats needs a value"));
                repeats = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    die(&format!("--repeats expects a positive count, got {v:?}"))
                });
            }
            "--gate" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--gate needs a percentage"));
                gate = Some(
                    v.parse()
                        .ok()
                        .filter(|&p: &f64| p > 0.0)
                        .unwrap_or_else(|| {
                            die(&format!("--gate expects a positive percentage, got {v:?}"))
                        }),
                );
            }
            "--out" => out = args.next().unwrap_or_else(|| die("--out needs a path")),
            "--baseline" => {
                baseline = args
                    .next()
                    .unwrap_or_else(|| die("--baseline needs a path"));
            }
            other => die(&format!("unknown flag {other:?} (try --help)")),
        }
    }

    let previous = load_report(&baseline);
    let cfg = RunConfig::quick();
    let pairs = paper_pairs();

    if profile {
        run_wake_profile(&pairs, &cfg);
        return;
    }

    // The fixed roster: two contrasting single-thread workloads
    // (memory-bound swim, branchy gcc) and two SOE pairs at F = 0 and
    // an enforced F = 1/2, exercising the stall/jump path, the switch
    // machinery and the fairness engine. Deliberately small and
    // stable: the value of a trajectory of `BENCH_*.json` files lies
    // in every commit measuring the same work.
    type Job<'a> = (String, &'static str, Box<dyn Fn() -> (u64, u64) + 'a>);
    let jobs: Vec<Job<'_>> = vec![
        {
            let p = find_pair(&pairs, "swim:bzip2");
            (
                format!("single:{}", p.a),
                "single",
                Box::new(move || run_single_entry(p, &cfg)),
            )
        },
        {
            let p = find_pair(&pairs, "gcc:eon");
            (
                format!("single:{}", p.a),
                "single",
                Box::new(move || run_single_entry(p, &cfg)),
            )
        },
        {
            let p = find_pair(&pairs, "gcc:eon");
            let f = FairnessLevel::NONE;
            (
                format!("pair:{}@{}", p.label(), f.label()),
                "pair",
                Box::new(move || run_pair_entry(p, f, &cfg)),
            )
        },
        {
            let p = find_pair(&pairs, "art:eon");
            let f = FairnessLevel::HALF;
            (
                format!("pair:{}@{}", p.label(), f.label()),
                "pair",
                Box::new(move || run_pair_entry(p, f, &cfg)),
            )
        },
    ];

    println!("soe-perf: {repeats} repeat(s) per entry, minimum wall time wins\n");
    let mut entries = Vec::new();
    for (name, kind, run) in jobs {
        let mut best: Option<(f64, u64, u64)> = None;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let (cycles, retired) = run();
            let wall = t0.elapsed().as_secs_f64();
            if best.is_none_or(|(w, _, _)| wall < w) {
                best = Some((wall, cycles, retired));
            }
        }
        let (wall_s, sim_cycles, retired) = best.unwrap_or_else(|| die("no repeats ran"));
        let e = entry(name, kind, sim_cycles, retired, wall_s);
        report_line(&e, previous.as_ref());
        entries.push(e);
    }

    let totals = entry(
        "totals".into(),
        "totals",
        entries.iter().map(|e| e.sim_cycles).sum(),
        entries.iter().map(|e| e.retired).sum(),
        entries.iter().map(|e| e.wall_s).sum(),
    );
    println!();
    report_line(&totals, previous.as_ref());

    let report = Report {
        schema: SCHEMA.to_string(),
        quick: repeats == 1,
        repeats,
        entries,
        totals,
    };
    let mut json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| die(&format!("{e}")));
    json.push('\n');
    match soe_core::atomic_write(std::path::Path::new(&out), json.as_bytes()) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => die(&format!("writing {out}: {e}")),
    }

    if let Some(tol) = gate {
        let old = previous
            .as_ref()
            .map(|p| p.totals.msim_cycles_per_s)
            .unwrap_or_else(|| {
                die(&format!(
                    "--gate needs a readable {SCHEMA} baseline at {baseline}"
                ))
            });
        let delta = (report.totals.msim_cycles_per_s / old - 1.0) * 100.0;
        if delta < -tol {
            die(&format!(
                "gate: totals {delta:+.1}% vs baseline {old:.2} Msim-cycles/s \
                 breaches the -{tol}% floor — performance regression"
            ));
        }
        if delta > tol {
            die(&format!(
                "gate: totals {delta:+.1}% vs baseline {old:.2} Msim-cycles/s \
                 breaches the +{tol}% ceiling — rebaseline {baseline} so the \
                 gate keeps measuring against the current engine"
            ));
        }
        println!("gate: totals {delta:+.1}% vs baseline, within ±{tol}%");
    }
}

/// `--profile`: runs the measurement roster once on directly
/// constructed machines and prints, per wake source, how many quiesces
/// found it live, how many jumps it bounded, how many cycles those
/// jumps skipped, and its jump rate per thousand simulated cycles.
/// Purely diagnostic: no JSON is written and no wall-clock is measured.
fn run_wake_profile(pairs: &[Pair], cfg: &RunConfig) {
    use soe_core::{FairnessConfig, FairnessPolicy};
    use soe_sim::wake::ALL_KINDS;
    use soe_sim::{Machine, NeverSwitch, TraceSource};

    let cycles = cfg.warmup_cycles + cfg.measure_cycles;
    println!("soe-perf --profile: wake-source counters over {cycles} cycles per entry\n");

    let mut machines: Vec<(String, Machine)> = Vec::new();
    for label in ["swim:bzip2", "gcc:eon"] {
        let p = find_pair(pairs, label);
        let (a, _) = p.traces();
        let trace: Box<dyn TraceSource> = Box::new(a);
        machines.push((
            format!("single:{}", p.a),
            Machine::new(cfg.machine, vec![trace], Box::new(NeverSwitch::new())),
        ));
    }
    for (label, f) in [
        ("gcc:eon", FairnessLevel::NONE),
        ("art:eon", FairnessLevel::HALF),
    ] {
        let p = find_pair(pairs, label);
        let fairness = FairnessConfig {
            target: f,
            ..cfg.fairness
        };
        let policy = FairnessPolicy::new(2, fairness);
        machines.push((
            format!("pair:{}@{}", p.label(), f.label()),
            Machine::new(cfg.machine, p.boxed_traces(), Box::new(policy)),
        ));
    }

    for (name, mut m) in machines {
        m.try_run_cycles(cycles, cfg.stall_window)
            .unwrap_or_else(|e| die(&format!("profile {name}: {e}")));
        let stats = m.calendar_stats();
        println!("  {name}");
        println!(
            "    {:<16} {:>10} {:>13} {:>14} {:>12}",
            "source", "live", "bounded jumps", "skipped cycles", "jumps/1k-cyc"
        );
        // ALL_KINDS is declared in rank order, so it zips with the
        // rank-indexed `kinds` table.
        for (kind, k) in ALL_KINDS.into_iter().zip(&stats.kinds) {
            profile_row(kind.name(), k, cycles);
        }
        let total = stats
            .kinds
            .iter()
            .fold(SourceStats::default(), |t, k| SourceStats {
                scheduled: t.scheduled + k.scheduled,
                dispatched: t.dispatched + k.dispatched,
                skipped: t.skipped + k.skipped,
            });
        profile_row("total", &total, cycles);
        println!();
    }
}

fn profile_row(label: &str, k: &SourceStats, cycles: u64) {
    println!(
        "    {:<16} {:>10} {:>13} {:>14} {:>12.3}",
        label,
        k.scheduled,
        k.dispatched,
        k.skipped,
        k.dispatched as f64 * 1000.0 / cycles as f64,
    );
}

fn report_line(e: &Entry, previous: Option<&Report>) {
    let vs = previous
        .and_then(|p| baseline_rate(p, &e.name))
        .map(|old| {
            let delta = (e.msim_cycles_per_s / old - 1.0) * 100.0;
            format!("  ({delta:+.1}% vs baseline {old:.2})")
        })
        .unwrap_or_default();
    println!(
        "  {:<24} {:>8.2}s  {:>8.2} Msim-cycles/s  {:>9.1} retired KIPS{vs}",
        e.name, e.wall_s, e.msim_cycles_per_s, e.retired_kips
    );
}

fn baseline_rate(report: &Report, name: &str) -> Option<f64> {
    if name == "totals" {
        return Some(report.totals.msim_cycles_per_s);
    }
    report
        .entries
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.msim_cycles_per_s)
}

fn load_report(path: &str) -> Option<Report> {
    let data = std::fs::read_to_string(path).ok()?;
    let report: Report = serde_json::from_str(&data).ok()?;
    (report.schema == SCHEMA).then_some(report)
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
