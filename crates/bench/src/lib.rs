//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this library provides the common experiment sizing, output
//! and supervision conventions. Pass `--quick` to any binary for a
//! scaled-down run (useful for smoke-testing; the full runs are what
//! `EXPERIMENTS.md` records), and `--jobs N` (or `SOE_JOBS=N`) to bound
//! the worker threads used for independent simulation runs.
//!
//! The matrix-driven binaries (`figure6`/`figure7`/`figure8`) and the
//! pooled sweeps additionally understand the supervision flags parsed
//! by [`Cli`]: `--resume`, `--timeout SECS`, `--retries N`, plus the
//! `SOE_FAULTS` chaos-injection environment variable.
//!
//! Every [`Cli`] binary also honours the observability flags: `--trace
//! PATH` captures a deterministic cycle-level event trace of the
//! reference pair (JSONL + Chrome trace + series CSV, see
//! [`write_observability`]) and `--metrics PATH` writes the matching
//! metrics-registry CSV.

pub mod experiments;

use std::time::Duration;

use soe_core::runner::RunConfig;
use soe_core::{supervise_jobs, FaultPlan, Job, SuperviseOptions};

/// Experiment sizing selected from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// Full-size runs (the defaults used in EXPERIMENTS.md).
    Full,
    /// Scaled-down smoke runs (`--quick`).
    Quick,
}

/// Parses the standard binary arguments (`--quick`).
pub fn sizing_from_args() -> Sizing {
    if std::env::args().any(|a| a == "--quick") {
        Sizing::Quick
    } else {
        Sizing::Full
    }
}

fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err("--jobs expects a positive integer, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--jobs expects a positive integer, got {value:?}")),
    }
}

/// Matches `--name value` / `--name=value`, pulling the value from the
/// remaining arguments when needed. `None` means `arg` is not this flag.
fn flag_value(
    arg: &str,
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Option<Result<String, String>> {
    if let Some(v) = arg.strip_prefix(name) {
        if let Some(inline) = v.strip_prefix('=') {
            return Some(Ok(inline.to_string()));
        }
        if v.is_empty() {
            return Some(
                args.next()
                    .ok_or_else(|| format!("{name} requires a value")),
            );
        }
    }
    None
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flags shared by the supervised experiment binaries.
const USAGE: &str = "\
usage: <binary> [--quick] [--force] [--resume] [--jobs N] [--timeout SECS] [--retries N]
                [--policy NAME] [--trace PATH] [--metrics PATH]

  --quick         scaled-down smoke sizing (default: full paper sizing)
  --force         ignore an existing results cache and recompute
  --resume        reuse completed runs from the on-disk journal
  --jobs N        worker threads (default: SOE_JOBS or available cores)
  --timeout SECS  per-run watchdog; 0 disables (default: 1800)
  --retries N     retries per failing run before quarantine (default: 2)
  --policy NAME   switch discipline from the policy registry, where the
                  binary supports it (default: fairness; see
                  `soe_core::PolicyFactory::builtin` for the zoo)
  --trace PATH    also capture a traced reference run: JSONL events at
                  PATH, plus PATH.chrome.json (Perfetto) and
                  PATH.series.csv (time series)
  --metrics PATH  write the traced reference run's metrics registry as CSV

environment:
  SOE_JOBS        default worker threads
  SOE_RESULTS_DIR cache/journal/manifest directory (default: results/)
  SOE_FAULTS      deterministic fault injection, e.g. panic:0.05,stall:0.02@7";

/// Parsed command line for the supervised experiment binaries: sizing,
/// cache control, resume, worker count, and the per-run watchdog /
/// retry budget fed into [`SuperviseOptions`], plus the observability
/// capture paths (`--trace` / `--metrics`).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment sizing (`--quick`).
    pub sizing: Sizing,
    /// Ignore an existing results cache (`--force`).
    pub force: bool,
    /// Reuse completed runs from the journal (`--resume`).
    pub resume: bool,
    /// Worker threads.
    pub workers: usize,
    /// Per-attempt watchdog timeout; `None` (from `--timeout 0`) waits
    /// forever.
    pub timeout: Option<Duration>,
    /// Retries per failing run before quarantine.
    pub retries: u32,
    /// Capture a traced reference run: events as JSONL here, plus the
    /// Chrome trace and series CSV siblings (`--trace`).
    pub trace: Option<String>,
    /// Write the traced reference run's metrics registry as CSV here
    /// (`--metrics`).
    pub metrics: Option<String>,
    /// Switch discipline from the policy registry (`--policy`), for the
    /// binaries that sweep one: `None` means the binary's default
    /// (the paper's `fairness` mechanism). Validated against
    /// [`soe_core::PolicyFactory`] by [`Cli::policy_or_exit`], not at
    /// parse time, so binaries with a custom registry can resolve it
    /// themselves.
    pub policy: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`, exiting with a diagnostic and usage on
    /// any malformed flag (and on `--help`, with status 0).
    pub fn parse_or_exit() -> Self {
        if std::env::args().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match Self::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => usage_error(&e),
        }
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed flag or value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = Self {
            sizing: Sizing::Full,
            force: false,
            resume: false,
            workers: 0,
            timeout: Some(Duration::from_secs(1_800)),
            retries: 2,
            trace: None,
            metrics: None,
            policy: None,
        };
        let mut explicit_jobs = None;
        let mut args = args.fuse();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.sizing = Sizing::Quick,
                "--force" => cli.force = true,
                "--resume" => cli.resume = true,
                _ => {
                    if let Some(v) = flag_value(&arg, "--jobs", &mut args) {
                        explicit_jobs = Some(parse_jobs(&v?)?);
                    } else if let Some(v) = flag_value(&arg, "--timeout", &mut args) {
                        let v = v?;
                        let secs = v
                            .parse::<u64>()
                            .map_err(|_| format!("--timeout expects whole seconds, got {v:?}"))?;
                        cli.timeout = (secs > 0).then_some(Duration::from_secs(secs));
                    } else if let Some(v) = flag_value(&arg, "--retries", &mut args) {
                        let v = v?;
                        cli.retries = v.parse::<u32>().map_err(|_| {
                            format!("--retries expects a non-negative integer, got {v:?}")
                        })?;
                    } else if let Some(v) = flag_value(&arg, "--trace", &mut args) {
                        cli.trace = Some(v?);
                    } else if let Some(v) = flag_value(&arg, "--metrics", &mut args) {
                        cli.metrics = Some(v?);
                    } else if let Some(v) = flag_value(&arg, "--policy", &mut args) {
                        cli.policy = Some(v?);
                    } else {
                        return Err(format!("unknown flag {arg:?}"));
                    }
                }
            }
        }
        cli.workers = soe_core::resolve_workers(explicit_jobs);
        Ok(cli)
    }

    /// The supervision settings for this invocation: the parsed watchdog
    /// and retry budget, plus fault injection from `SOE_FAULTS`. Exits
    /// with a diagnostic if `SOE_FAULTS` is set but malformed (a chaos
    /// run silently running without faults would fake a pass).
    pub fn supervise_options(&self) -> SuperviseOptions {
        let faults = FaultPlan::from_env().unwrap_or_else(|e| usage_error(&e));
        if let Some(plan) = &faults {
            eprintln!(
                "[supervise] fault injection active: panic:{}, stall:{} ({:?}) @ seed {}",
                plan.panic_prob, plan.stall_prob, plan.stall, plan.seed
            );
        }
        SuperviseOptions {
            timeout: self.timeout,
            retries: self.retries,
            faults,
            ..SuperviseOptions::new(self.workers)
        }
    }

    /// Resolves `--policy` against the built-in registry: the requested
    /// name when given (exiting with the registered names on an unknown
    /// one — a typo silently falling back to `fairness` would fake a
    /// sweep), else `default_name`.
    pub fn policy_or_exit(&self, default_name: &str) -> String {
        let name = self.policy.as_deref().unwrap_or(default_name);
        let factory = soe_core::PolicyFactory::builtin();
        if !factory.contains(name) {
            usage_error(&format!(
                "unknown policy {name:?} (registered: {})",
                factory.names().join(", ")
            ));
        }
        name.to_string()
    }
}

/// Runs independent jobs under full supervision (watchdog, retries,
/// fault injection) and insists on a complete batch: if any job is
/// quarantined the process reports every failure and exits with status
/// 1, because a figure computed from partial sweep data would be
/// silently wrong.
pub fn run_supervised<P, R, F>(jobs: Vec<Job<P>>, cli: &Cli, f: F) -> Vec<R>
where
    P: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&P) -> Result<R, String> + Send + Sync + 'static,
{
    let report = supervise_jobs(jobs, &cli.supervise_options(), f, |_, _| {});
    if !report.is_complete() {
        eprintln!(
            "error: {} run(s) still failing after retries:",
            report.quarantined.len()
        );
        for q in &report.quarantined {
            eprintln!("  {q}");
        }
        std::process::exit(1);
    }
    report
        .results
        .into_iter()
        .map(|r| r.expect("complete report has every result"))
        .collect()
}

/// The run configuration for a sizing.
pub fn run_config(sizing: Sizing) -> RunConfig {
    match sizing {
        Sizing::Full => RunConfig::paper(),
        Sizing::Quick => RunConfig::quick(),
    }
}

/// Writes an SVG figure next to the cached results
/// (`$SOE_RESULTS_DIR/reports/<name>.svg`, default `results/reports/`)
/// and prints where it went. The write is atomic, so a crash mid-write
/// cannot leave a truncated figure behind.
pub fn save_svg(name: &str, svg: &str) {
    let path = std::path::PathBuf::from(
        // soe-lint: allow(determinism-taint): SOE_RESULTS_DIR picks where the figure lands, not what bytes it contains
        std::env::var("SOE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    )
    .join("reports")
    .join(format!("{name}.svg"));
    match soe_core::atomic_write(&path, svg.as_bytes()) {
        Ok(()) => println!("[svg] wrote {}", path.display()),
        Err(e) => eprintln!("[svg] {e}"),
    }
}

/// The artifacts of one observability capture, already serialized and
/// self-validated: the JSONL event stream, its Chrome `trace_event`
/// rendering, the extracted time series, and the metrics registry.
#[derive(Debug, Clone)]
pub struct Observability {
    /// Compact JSONL event stream (`soe-trace/1`), checker-validated.
    pub jsonl: String,
    /// Chrome `trace_event` JSON for Perfetto / `chrome://tracing`.
    pub chrome: String,
    /// `series,x,y` CSV of the extracted time series.
    pub series_csv: String,
    /// `kind,name,value` CSV of the metrics registry (event counts
    /// merged with the run's aggregate metrics).
    pub metrics_csv: String,
    /// The checker's summary of the validated event stream.
    pub summary: soe_core::obs::TraceSummary,
}

/// Runs the traced reference pair — `swim:eon` at F = 1/2, a
/// memory-bound/compute-bound pairing that exercises misses, estimator
/// windows and forced switches — and serializes every observability
/// artifact. The captured JSONL is validated with
/// [`soe_core::obs::check_jsonl`] before being returned, so a trace
/// that violates the stream invariants can never be written to disk.
///
/// Fully deterministic: two calls at the same sizing return
/// byte-identical artifacts.
///
/// # Errors
///
/// A human-readable message if a simulation fails or the captured
/// trace fails validation.
pub fn observe_pair(sizing: Sizing) -> Result<Observability, String> {
    use soe_core::obs;
    use soe_core::runner::{run_spec, try_run_single, RunSpec};

    let cfg = run_config(sizing);
    let pair = soe_workloads::Pair {
        a: "swim",
        b: "eon",
    };
    let singles: Vec<soe_core::SingleRun> = [pair.a, pair.b]
        .iter()
        .map(|name| {
            let profile = soe_workloads::spec::profile(name)
                .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            let trace = soe_workloads::SyntheticTrace::new(profile, 0x10_0000_0000, 0);
            try_run_single(Box::new(trace), &cfg).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let names = [pair.a, pair.b];
    let factory = soe_core::PolicyFactory::builtin();
    let f = soe_model::FairnessLevel::HALF;
    let mut spec =
        RunSpec::named(&factory, "fairness", &names, f, &cfg).map_err(|e| e.to_string())?;
    spec.trace = Some(soe_sim::obs::TraceConfig::default());
    let out = run_spec(spec, &singles).map_err(|e| e.to_string())?;
    let trace = out.trace.ok_or("the traced run returned no trace")?;
    let jsonl = obs::trace_jsonl(&trace, &names);
    let summary =
        obs::check_jsonl(&jsonl).map_err(|e| format!("captured trace failed validation: {e}"))?;
    let chrome = obs::chrome_trace(&trace, &names);
    let series_csv = soe_stats::series_to_csv(&obs::trace_series(&trace));
    let mut metrics = obs::metrics::from_trace(&trace);
    metrics.merge(&obs::metrics::from_pair_run(&out.run));
    Ok(Observability {
        jsonl,
        chrome,
        series_csv,
        metrics_csv: metrics.to_csv(),
        summary,
    })
}

/// Honours `--trace` / `--metrics`: captures the traced reference run
/// and writes the requested artifacts (atomically), printing where
/// each went. A no-op when neither flag was given; exits with status 1
/// if the capture fails or an artifact cannot be written.
pub fn write_observability(cli: &Cli) {
    if cli.trace.is_none() && cli.metrics.is_none() {
        return;
    }
    eprintln!("[obs] capturing traced reference run (swim:eon, F=1/2)...");
    let obs = match observe_pair(cli.sizing) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[obs] trace validated: {} events, {} dropped",
        obs.summary.events, obs.summary.dropped
    );
    let mut outputs: Vec<(String, &str)> = Vec::new();
    if let Some(path) = &cli.trace {
        outputs.push((path.clone(), obs.jsonl.as_str()));
        outputs.push((format!("{path}.chrome.json"), obs.chrome.as_str()));
        outputs.push((format!("{path}.series.csv"), obs.series_csv.as_str()));
    }
    if let Some(path) = &cli.metrics {
        outputs.push((path.clone(), obs.metrics_csv.as_str()));
    }
    for (path, data) in outputs {
        match soe_core::atomic_write(std::path::Path::new(&path), data.as_bytes()) {
            Ok(()) => println!("[obs] wrote {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Prints a figure/table header banner.
pub fn banner(title: &str, sizing: Sizing) {
    println!("==========================================================");
    println!("{title}");
    println!(
        "(sizing: {})",
        match sizing {
            Sizing::Full => "full",
            Sizing::Quick => "quick (--quick)",
        }
    );
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn full_config_is_paper_sized() {
        let c = run_config(Sizing::Full);
        assert_eq!(c.fairness.delta, 250_000);
        assert_eq!(c.fairness.max_cycles_quota, 50_000);
    }

    #[test]
    fn quick_config_is_smaller() {
        let full = run_config(Sizing::Full);
        let quick = run_config(Sizing::Quick);
        assert!(quick.measure_cycles < full.measure_cycles);
    }

    #[test]
    fn cli_defaults_are_conservative() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.sizing, Sizing::Full);
        assert!(!cli.force);
        assert!(!cli.resume);
        assert_eq!(cli.timeout, Some(Duration::from_secs(1_800)));
        assert_eq!(cli.retries, 2);
        assert!(cli.workers >= 1);
        assert_eq!(cli.trace, None);
        assert_eq!(cli.metrics, None);
    }

    #[test]
    fn cli_parses_every_flag() {
        let cli = parse(&[
            "--quick",
            "--force",
            "--resume",
            "--jobs",
            "3",
            "--timeout=90",
            "--retries",
            "0",
            "--trace",
            "out/run.jsonl",
            "--metrics=out/metrics.csv",
            "--policy",
            "islip",
        ])
        .unwrap();
        assert_eq!(cli.sizing, Sizing::Quick);
        assert!(cli.force);
        assert!(cli.resume);
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.timeout, Some(Duration::from_secs(90)));
        assert_eq!(cli.retries, 0);
        assert_eq!(cli.trace.as_deref(), Some("out/run.jsonl"));
        assert_eq!(cli.metrics.as_deref(), Some("out/metrics.csv"));
        assert_eq!(cli.policy.as_deref(), Some("islip"));
    }

    #[test]
    fn cli_policy_defaults_to_none() {
        assert_eq!(parse(&[]).unwrap().policy, None);
        assert_eq!(
            parse(&["--policy=wdrr"]).unwrap().policy.as_deref(),
            Some("wdrr")
        );
    }

    #[test]
    fn cli_timeout_zero_disables_the_watchdog() {
        assert_eq!(parse(&["--timeout", "0"]).unwrap().timeout, None);
    }

    #[test]
    fn cli_rejects_malformed_input() {
        for bad in [
            &["--jobs", "zero"][..],
            &["--jobs", "0"],
            &["--jobs"],
            &["--timeout", "soon"],
            &["--retries", "-1"],
            &["--trace"],
            &["--metrics"],
            &["--policy"],
            &["--frobnicate"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(bad[0].trim_start_matches('-')) || err.contains(bad[0]));
        }
    }
}
