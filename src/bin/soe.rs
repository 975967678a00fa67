//! `soe` — command-line front end to the SOE fairness reproduction.
//!
//! ```text
//! soe list                                   # known benchmarks
//! soe single gcc [--quick]                   # measure IPC_ST alone
//! soe pair gcc:eon [--f 0.5] [--quick]       # one SOE run
//! soe pair gcc:eon --timeslice 400           # time-slicing baseline
//! soe sweep gcc:eon [--quick]                # all four paper F levels
//! soe model 2.5,2.5 15000,1000 [--f 0.5]     # analytical two-thread model
//! soe record swim out.lit [--count 100000]   # capture a LIT trace file
//! soe replay a.lit b.lit [--f 0.5] [--quick] # run recorded traces in SOE
//! ```

use std::process::ExitCode;

use soe_repro::core::runner::{run_singles, run_spec, try_run_single, RunConfig, RunSpec};
use soe_repro::core::{FairnessPolicy, PairRun, PolicyFactory, SingleRun, TimeSlicePolicy};
use soe_repro::model::weighted::Weights;
use soe_repro::model::{FairnessLevel, SoeModel, SystemParams, ThreadModel};
use soe_repro::sim::{MachineConfig, TraceSource};
use soe_repro::workloads::{analyze_trace, spec, LitFile, Pair, SyntheticTrace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("single") => cmd_single(&args[1..]),
        Some("pair") => cmd_pair(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("config") => cmd_config(),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `soe help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "soe — Switch-on-Event multithreading fairness (MICRO 2006 reproduction)\n\n\
         usage:\n\
         \x20 soe list\n\
         \x20 soe single <bench> [--quick]\n\
         \x20 soe pair <a:b> [--f <0..1>] [--weights <w0,w1>] [--timeslice <cycles>] [--quick]\n\
         \x20 soe sweep <a:b> [--quick]\n\
         \x20 soe model <ipc1,ipc2> <ipm1,ipm2> [--f <0..1>]\n\
         \x20 soe record <bench> <out.lit> [--count <n>] [--start <n>]\n\
         \x20 soe replay <a.lit> <b.lit> [--f <0..1>] [--quick]\n\
         \x20 soe config                              # dump the default machine as JSON\n\
         \x20 soe analyze <bench|file.lit> [--count <n>] [--start <n>]\n\n\
         Any run command also accepts --config <machine.json> to override the\n\
         simulated machine (edit the output of `soe config`)."
    );
}

// ----------------------------------------------------------------------
// argument helpers
// ----------------------------------------------------------------------

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_f(args: &[String]) -> Result<FairnessLevel, String> {
    match flag_value(args, "--f") {
        None => Ok(FairnessLevel::NONE),
        Some(v) => {
            let f: f64 = v.parse().map_err(|_| format!("bad --f value `{v}`"))?;
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("--f must be in [0, 1], got {f}"));
            }
            Ok(FairnessLevel::new(f))
        }
    }
}

/// The run sizing (`--quick` or the paper's), on the machine that
/// `--config` loads, if given.
fn config(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        RunConfig::quick()
    } else {
        RunConfig::paper()
    };
    if let Some(path) = flag_value(args, "--config") {
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("reading --config {path}: {e}"))?;
        let machine: MachineConfig =
            serde_json::from_str(&json).map_err(|e| format!("parsing --config {path}: {e}"))?;
        machine
            .check()
            .map_err(|e| format!("invalid machine in --config {path}: {}", e.0))?;
        cfg.machine = machine;
    }
    Ok(cfg)
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let usage = "usage: soe analyze <bench|file.lit> [--count n] [--start n]";
    let what = args.first().filter(|a| !a.starts_with("--")).ok_or(usage)?;
    let count: u64 = flag_value(args, "--count")
        .map(|v| v.parse().map_err(|_| "bad --count"))
        .transpose()?
        .unwrap_or(200_000);
    let start: u64 = flag_value(args, "--start")
        .map(|v| v.parse().map_err(|_| "bad --start"))
        .transpose()?
        .unwrap_or(0);
    let source: Box<dyn soe_repro::sim::TraceSource> = if what.ends_with(".lit") {
        Box::new(LitFile::load(what).map_err(|e| format!("loading {what}: {e}"))?)
    } else {
        let profile = spec::profile(what).ok_or_else(|| format!("unknown benchmark `{what}`"))?;
        Box::new(SyntheticTrace::new(profile, 0x10_0000_0000, 0))
    };
    let s = analyze_trace(&*source, start, count);
    println!(
        "trace {} (window {} from {start}):",
        source.name(),
        s.window
    );
    println!(
        "  mix: {:.1}% loads, {:.1}% stores, {:.1}% branches ({:.0}% taken), {:.1}% calls",
        s.load_frac * 100.0,
        s.store_frac * 100.0,
        s.branch_frac * 100.0,
        s.taken_frac * 100.0,
        s.call_frac * 100.0
    );
    println!("  mean producer distance: {:.2}", s.mean_dep_dist);
    println!(
        "  data footprint: {} lines ({} KiB) over {} pages",
        s.data_lines,
        s.data_lines / 16,
        s.data_pages
    );
    println!(
        "  code footprint: {} lines ({} KiB)",
        s.code_lines,
        s.code_lines / 16
    );
    println!(
        "  instructions per fresh data line: {:.0} (cold-cache IPM proxy)",
        s.instrs_per_fresh_line
    );
    Ok(())
}

fn cmd_config() -> Result<(), String> {
    let cfg = soe_repro::sim::MachineConfig::default();
    println!(
        "{}",
        serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn parse_pair(spec_str: &str) -> Result<Pair, String> {
    let (a, b) = spec_str
        .split_once(':')
        .ok_or_else(|| format!("pair must look like `gcc:eon`, got `{spec_str}`"))?;
    let a = spec::NAMES
        .iter()
        .find(|n| **n == a)
        .ok_or_else(|| format!("unknown benchmark `{a}` (see `soe list`)"))?;
    let b = spec::NAMES
        .iter()
        .find(|n| **n == b)
        .ok_or_else(|| format!("unknown benchmark `{b}` (see `soe list`)"))?;
    Ok(Pair { a, b })
}

fn print_run(r: &PairRun) {
    println!("policy       {}", r.policy);
    println!("cycles       {}", r.cycles);
    println!(
        "throughput   {:.3} IPC  ({:+.1}% vs single-thread)",
        r.throughput,
        (r.soe_speedup - 1.0) * 100.0
    );
    println!("fairness     {:.3}", r.fairness);
    for t in &r.threads {
        println!(
            "  {:<8} IPC_SOE {:.3}  IPC_ST {:.3}  speedup {:.3}  ({} instrs)",
            t.name, t.ipc_soe, t.ipc_st, t.speedup, t.retired
        );
    }
    println!(
        "switches     {} total ({} event, {} forced; avg latency {:.1} cycles)",
        r.total_switches, r.event_switches, r.forced_switches, r.avg_switch_latency
    );
}

// ----------------------------------------------------------------------
// commands
// ----------------------------------------------------------------------

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<8} {:>12} {:>10}  character",
        "name", "target IPM", "block len"
    );
    for name in spec::NAMES {
        let p = spec::profile(name).expect("known");
        let kind = if p.target_ipm() < 1_000.0 {
            "memory-bound (starves others' victims)"
        } else if p.target_ipm() > 5_000.0 {
            "compute-bound (monopolizes an unfair core)"
        } else {
            "moderate"
        };
        println!(
            "{:<8} {:>12.0} {:>10}  {}",
            name,
            p.target_ipm(),
            p.block_len,
            kind
        );
    }
    Ok(())
}

fn cmd_single(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: soe single <bench> [--quick]")?;
    let profile = spec::profile(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let cfg = config(args)?;
    let trace = SyntheticTrace::new(profile, 0x10_0000_0000, 0);
    let s = try_run_single(Box::new(trace), &cfg).map_err(|e| e.to_string())?;
    print_single(&s);
    Ok(())
}

fn print_single(s: &SingleRun) {
    println!(
        "{}: IPC_ST {:.3} over {} cycles ({} instrs; one L2 miss per {:.0} instrs)",
        s.name, s.ipc_st, s.cycles, s.retired, s.ipm
    );
}

fn cmd_pair(args: &[String]) -> Result<(), String> {
    let pair = parse_pair(args.first().ok_or("usage: soe pair <a:b> [--f F]")?)?;
    let cfg = config(args)?;
    let singles = run_singles(&pair, &cfg).map_err(|e| e.to_string())?;
    for s in &singles {
        print_single(s);
    }
    let names = [pair.a, pair.b];
    let spec = if let Some(q) = flag_value(args, "--timeslice") {
        let q: u64 = q.parse().map_err(|_| "bad --timeslice value")?;
        RunSpec::roster(&names, Box::new(TimeSlicePolicy::new(q)), None, cfg)
    } else if let Some(w) = flag_value(args, "--weights") {
        let weights: Vec<f64> = w
            .split(',')
            .map(|x| x.parse::<f64>().map_err(|_| format!("bad weight `{x}`")))
            .collect::<Result<_, _>>()?;
        if weights.len() != 2 {
            return Err("--weights needs exactly two values, e.g. 2,1".into());
        }
        let f = parse_f(args)?;
        let mut fc = cfg.fairness;
        fc.target = if f.is_enforced() {
            f
        } else {
            FairnessLevel::PERFECT
        };
        let policy = FairnessPolicy::new(2, fc).with_weights(Weights::new(weights));
        RunSpec::roster(&names, Box::new(policy), Some(fc.target), cfg)
    } else {
        let factory = PolicyFactory::builtin();
        RunSpec::named(&factory, "fairness", &names, parse_f(args)?, &cfg)
    };
    let run = spec
        .and_then(|spec| run_spec(spec, &singles))
        .map_err(|e| e.to_string())?
        .run;
    println!();
    print_run(&run);
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let pair = parse_pair(args.first().ok_or("usage: soe sweep <a:b>")?)?;
    let cfg = config(args)?;
    let singles = run_singles(&pair, &cfg).map_err(|e| e.to_string())?;
    for s in &singles {
        print_single(s);
    }
    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "F", "IPC_SOE", "fairness", "speedup[0]", "speedup[1]", "forced"
    );
    let factory = PolicyFactory::builtin();
    for f in FairnessLevel::paper_levels() {
        let r = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, &cfg)
            .and_then(|spec| run_spec(spec, &singles))
            .map_err(|e| e.to_string())?
            .run;
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
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    let usage = "usage: soe model <ipc1,ipc2,..> <ipm1,ipm2,..> [--f F]";
    let parse_list = |s: &String| -> Result<Vec<f64>, String> {
        s.split(',')
            .map(|x| x.parse::<f64>().map_err(|_| format!("bad number `{x}`")))
            .collect()
    };
    let ipcs = parse_list(args.first().ok_or(usage)?)?;
    let ipms = parse_list(args.get(1).ok_or(usage)?)?;
    if ipcs.len() != ipms.len() || ipcs.len() < 2 {
        return Err("need matching lists of at least two threads".into());
    }
    let threads: Vec<ThreadModel> = ipcs
        .iter()
        .zip(&ipms)
        .map(|(ipc, ipm)| ThreadModel::new(*ipc, *ipm))
        .collect();
    let model = SoeModel::new(threads, SystemParams::default());
    let f = parse_f(args)?;
    let a = model.analyze(f);
    println!(
        "target {}: throughput {:.3}, fairness {:.3}",
        f.label(),
        a.throughput,
        a.fairness
    );
    for (i, t) in a.per_thread.iter().enumerate() {
        println!(
            "  thread {i}: IPC_ST {:.3}  IPC_SOE {:.3}  speedup {:.3}  IPSw {:.0}",
            t.ipc_st, t.ipc_soe, t.speedup, t.ipsw
        );
    }
    if !model.miss_resolution_holds(f) {
        println!(
            "note: the round is too short to cover the memory latency; the model\n\
             over-estimates the missy threads here (see Eq 2's validity assumption)."
        );
    }
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let usage = "usage: soe record <bench> <out.lit> [--count n] [--start n]";
    let name = args.first().ok_or(usage)?;
    let out = args.get(1).ok_or(usage)?;
    let profile = spec::profile(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let count: u64 = flag_value(args, "--count")
        .map(|v| v.parse().map_err(|_| "bad --count"))
        .transpose()?
        .unwrap_or(1_000_000);
    let start: u64 = flag_value(args, "--start")
        .map(|v| v.parse().map_err(|_| "bad --start"))
        .transpose()?
        .unwrap_or(0);
    let trace = SyntheticTrace::new(profile, 0x10_0000_0000, 0);
    let lit = LitFile::record(&trace, start, count);
    lit.save(out).map_err(|e| format!("saving {out}: {e}"))?;
    println!("recorded {count} micro-ops of {name} (from {start}) into {out}");
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let usage = "usage: soe replay <a.lit> <b.lit> [--f F] [--quick]";
    let a = args.first().ok_or(usage)?;
    let b = args.get(1).filter(|x| !x.starts_with("--")).ok_or(usage)?;
    let lit_a = LitFile::load(a).map_err(|e| format!("loading {a}: {e}"))?;
    let lit_b = LitFile::load(b).map_err(|e| format!("loading {b}: {e}"))?;
    let cfg = config(args)?;
    let f = parse_f(args)?;

    // Single-thread references for the replayed traces.
    let single = |lit: &LitFile| try_run_single(Box::new(lit.clone()), &cfg);
    let singles = [single(&lit_a), single(&lit_b)]
        .into_iter()
        .collect::<Result<Vec<SingleRun>, _>>()
        .map_err(|e| e.to_string())?;
    for s in &singles {
        print_single(s);
    }

    let mut fc = cfg.fairness;
    fc.target = f;
    let spec = RunSpec {
        label: format!("{a}:{b}"),
        traces: vec![Box::new(lit_a), Box::new(lit_b)],
        policy: Box::new(FairnessPolicy::new(2, fc)),
        target: Some(f),
        cfg,
        trace: None,
    };
    let r = run_spec(spec, &singles).map_err(|e| e.to_string())?.run;
    println!();
    println!("replayed under fairness({}):", f.label());
    for t in &r.threads {
        println!(
            "  {:<8} IPC_SOE {:.3}  speedup {:.3}  ({} instrs)",
            t.name, t.ipc_soe, t.speedup, t.retired
        );
    }
    println!("  {} switches over {} cycles", r.total_switches, r.cycles);
    Ok(())
}
