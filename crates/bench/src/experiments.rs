//! The shared experiment engine: runs the paper's full evaluation matrix
//! (16 pairs × {F = 0, 1/4, 1/2, 1}, plus the 12 single-thread
//! references) once, and caches the results as JSON so every figure
//! binary can reuse them.
//!
//! The ~76 runs of the matrix are independent, so they are dispatched
//! through the [`soe_core::supervise`] engine: single-thread references
//! first (the pair runs need their `IPC_ST` denominators), then every
//! pair × fairness-level combination. Each job derives its traces (and
//! therefore all pseudo-randomness) from its own pair definition alone
//! — nothing depends on scheduling — so any worker count produces a
//! `ResultSet` bit-identical to the serial path, which
//! `tests/determinism.rs` asserts.
//!
//! Long matrices are crash-safe: every completed run is appended to a
//! checksummed [`Journal`] the moment it finishes, so a killed process
//! loses at most its in-flight runs and `--resume` replays the journal
//! instead of the simulator. Runs that keep failing (or time out under
//! the watchdog) are quarantined into a [`FailureManifest`] and the
//! rest of the matrix still completes.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use soe_core::runner::{run_spec, try_run_single, RunConfig, RunSpec};
use soe_core::{atomic_write, supervise_jobs, Job, Journal, SuperviseOptions, SuperviseReport};
pub use soe_core::{FailureManifest, SkippedRun};
use soe_core::{PairRun, PolicyFactory, SingleRun};
use soe_model::FairnessLevel;
use soe_workloads::pairs::paper_pairs;
use soe_workloads::Pair;

use crate::{Cli, Sizing};

/// All runs of one pair: the two references plus one run per F level
/// (in [`FairnessLevel::paper_levels`] order).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairResults {
    /// `"gcc:eon"`.
    pub label: String,
    /// Single-thread references, in thread order.
    pub singles: Vec<SingleRun>,
    /// SOE runs at F = 0, 1/4, 1/2, 1.
    pub runs: Vec<PairRun>,
}

/// The complete result set behind Figures 6–8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultSet {
    /// Per-pair results, in [`paper_pairs`] order.
    pub pairs: Vec<PairResults>,
}

/// How to execute one matrix: supervision settings plus the optional
/// on-disk journal backing `--resume`.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Watchdog / retry / fault-injection settings.
    pub supervise: SuperviseOptions,
    /// Where to journal completed runs; `None` keeps the matrix purely
    /// in-memory.
    pub journal: Option<PathBuf>,
    /// Reuse completed runs already in the journal. Without this the
    /// journal is truncated and the matrix starts from scratch.
    pub resume: bool,
}

impl MatrixOptions {
    /// The plain in-memory configuration [`run_matrix`] uses: no
    /// journal, no watchdog, no retries, no fault injection — and no
    /// environment sensitivity, so library callers and determinism
    /// tests cannot be perturbed by `SOE_FAULTS`.
    pub fn plain(workers: usize) -> Self {
        let mut supervise = SuperviseOptions::new(workers);
        supervise.retries = 0;
        Self {
            supervise,
            journal: None,
            resume: false,
        }
    }
}

/// The outcome of a supervised matrix: the (possibly partial) results,
/// the failure manifest, and how much work the journal saved.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Results for every pair whose references and runs all completed,
    /// in [`paper_pairs`] order.
    pub set: ResultSet,
    /// What is missing, if anything.
    pub manifest: FailureManifest,
    /// Runs replayed from the journal instead of simulated.
    pub reused: usize,
    /// Runs actually simulated this invocation.
    pub executed: usize,
}

fn results_dir() -> PathBuf {
    // soe-lint: allow(determinism-taint): SOE_RESULTS_DIR picks where artifacts land, not what bytes they contain
    PathBuf::from(std::env::var("SOE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

fn cache_path(sizing: Sizing) -> PathBuf {
    results_dir().join(match sizing {
        Sizing::Full => "experiments-full.json",
        Sizing::Quick => "experiments-quick.json",
    })
}

/// The journal of completed runs for `sizing`
/// (`$SOE_RESULTS_DIR/journal-{full,quick}.log`).
pub fn journal_path(sizing: Sizing) -> PathBuf {
    results_dir().join(match sizing {
        Sizing::Full => "journal-full.log",
        Sizing::Quick => "journal-quick.log",
    })
}

/// The failure manifest for `sizing`
/// (`$SOE_RESULTS_DIR/failures-{full,quick}.json`).
pub fn manifest_path(sizing: Sizing) -> PathBuf {
    results_dir().join(match sizing {
        Sizing::Full => "failures-full.json",
        Sizing::Quick => "failures-quick.json",
    })
}

/// Loads the cached result set for `sizing`, or runs the full matrix
/// under supervision and caches it.
///
/// A corrupt cache is recomputed (with a warning), not fatal. With
/// `--resume`, completed runs are replayed from the journal. If any run
/// is quarantined the partial results are returned, the cache is *not*
/// written, and the failure manifest lands at [`manifest_path`] so the
/// gap is explicit; a later `--resume` re-attempts only what is missing.
pub fn full_results(sizing: Sizing, cli: &Cli) -> ResultSet {
    let path = cache_path(sizing);
    if !cli.force && !cli.resume {
        if let Ok(json) = fs::read_to_string(&path) {
            match serde_json::from_str::<ResultSet>(&json) {
                Ok(set) => {
                    eprintln!(
                        "[experiments] loaded cached results from {}",
                        path.display()
                    );
                    return set;
                }
                Err(e) => eprintln!(
                    "[experiments] corrupt results cache {} ({e}); recomputing",
                    path.display()
                ),
            }
        }
    }
    let opts = MatrixOptions {
        supervise: cli.supervise_options(),
        journal: Some(journal_path(sizing)),
        resume: cli.resume,
    };
    let outcome = run_matrix_supervised(&crate::run_config(sizing), &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let manifest = manifest_path(sizing);
    if outcome.manifest.is_empty() {
        let json = serde_json::to_string(&outcome.set).expect("serialize results");
        if let Err(e) = atomic_write(&path, json.as_bytes()) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        let _ = fs::remove_file(&manifest);
        eprintln!("[experiments] wrote results cache to {}", path.display());
    } else {
        let json =
            serde_json::to_string_pretty(&outcome.manifest).expect("serialize failure manifest");
        if let Err(e) = atomic_write(&manifest, json.as_bytes()) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[experiments] matrix incomplete: {} quarantined, {} skipped; \
             manifest at {}; re-run with --resume to retry only the gaps",
            outcome.manifest.quarantined.len(),
            outcome.manifest.skipped.len(),
            manifest.display()
        );
    }
    outcome.set
}

/// Runs the full matrix at `cfg` on `workers` threads, in memory,
/// panicking if any run fails — the simple library entry point.
///
/// Bit-identical to running the matrix serially: every job builds its
/// own traces from explicit seeds (benchmark profile seed, per-thread
/// address-space base, same-benchmark stream offset), so the schedule
/// cannot leak into the results, and the supervisor reassembles them in
/// submission order.
///
/// # Panics
///
/// Panics, listing the failures, if any run panics or errors.
pub fn run_matrix(cfg: &RunConfig, workers: usize) -> ResultSet {
    let outcome = run_matrix_supervised(cfg, &MatrixOptions::plain(workers))
        .expect("in-memory matrix cannot hit journal I/O");
    if !outcome.manifest.is_empty() {
        let lines: Vec<String> = outcome
            .manifest
            .quarantined
            .iter()
            .map(ToString::to_string)
            .chain(
                outcome
                    .manifest
                    .skipped
                    .iter()
                    .map(|s| format!("{} skipped: {}", s.key, s.reason)),
            )
            .collect();
        panic!("experiment matrix failed:\n  {}", lines.join("\n  "));
    }
    outcome.set
}

/// The journal key of a single-thread reference run.
fn single_key(name: &str) -> String {
    format!("single/{name}")
}

/// The journal key of one pair × fairness-level run.
fn pair_key(pair: &Pair, f: FairnessLevel) -> String {
    format!("pair/{}/{}", pair.label(), f.label())
}

/// Runs the matrix under full supervision: journaled resume, per-run
/// watchdogs, retry/quarantine, and (if configured) deterministic fault
/// injection.
///
/// Completed runs are journaled as they finish; with
/// [`MatrixOptions::resume`] they are replayed from the journal without
/// re-simulation, and — because the vendored JSON round-trips floats
/// exactly — the resumed [`ResultSet`] is byte-identical to a fresh
/// uninterrupted run. Quarantined references cascade: the pair runs
/// that would have needed them are skipped (with the reason recorded)
/// rather than attempted with bogus denominators.
///
/// # Errors
///
/// Only journal I/O errors (opening, truncating). Simulation failures
/// never error — they are quarantined into the manifest.
pub fn run_matrix_supervised(
    cfg: &RunConfig,
    opts: &MatrixOptions,
) -> std::io::Result<MatrixOutcome> {
    let pairs = paper_pairs();
    let levels = FairnessLevel::paper_levels();
    let workers = opts.supervise.workers;
    let mut journal = match &opts.journal {
        Some(path) => Some(Journal::open(path)?),
        None => None,
    };
    if let Some(j) = journal.as_mut() {
        if opts.resume {
            let r = j.recovery();
            if r.dropped > 0 {
                eprintln!(
                    "[experiments] journal {}: dropped {} corrupt record(s), kept {}",
                    j.path().display(),
                    r.dropped,
                    r.kept
                );
            }
            eprintln!(
                "[experiments] resuming from {} ({} completed run(s))",
                j.path().display(),
                j.len()
            );
        } else {
            j.reset()?;
        }
        // Arm the journal with the same fault plan as the runs, so an
        // `io:P` class in SOE_FAULTS also exercises the append path
        // (which retries internally before surfacing an error).
        j.set_faults(opts.supervise.faults);
    }
    let mut manifest = FailureManifest::default();
    let mut reused = 0;
    let mut executed = 0;

    // Phase 1 — single-thread references, one per distinct benchmark
    // (the paper's 12), in first-appearance order.
    let mut names: Vec<&'static str> = Vec::new();
    for pair in &pairs {
        for name in [pair.a, pair.b] {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    let mut singles: BTreeMap<&'static str, SingleRun> = BTreeMap::new();
    let mut single_jobs: Vec<Job<&'static str>> = Vec::new();
    for name in &names {
        match replay(journal.as_ref(), opts.resume, &single_key(name)) {
            Some(run) => {
                reused += 1;
                singles.insert(name, run);
            }
            None => single_jobs.push(Job::new(single_key(name), *name)),
        }
    }
    eprintln!(
        "[experiments] {} single-thread references ({} from journal) on {workers} worker(s)",
        names.len(),
        names.len() - single_jobs.len()
    );
    let report = supervise_and_journal(single_jobs, opts, journal.as_mut(), |name| {
        let profile = soe_workloads::spec::profile(name)
            .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        let trace = soe_workloads::SyntheticTrace::new(profile, 0x10_0000_0000, 0);
        try_run_single(Box::new(trace), cfg).map_err(|e| e.to_string())
    });
    for (name, run) in report.results.into_iter().flatten() {
        executed += 1;
        singles.insert(name, run);
    }
    manifest.quarantined.extend(report.quarantined);

    // Phase 2 — every pair × fairness level, flattened into one job
    // list so workers stay busy across pair boundaries. Pairs whose
    // references failed are skipped, not attempted with missing
    // denominators.
    let mut runs: BTreeMap<String, PairRun> = BTreeMap::new();
    let mut pair_jobs: Vec<Job<(usize, FairnessLevel)>> = Vec::new();
    for (index, pair) in pairs.iter().enumerate() {
        let missing: Vec<&str> = [pair.a, pair.b]
            .into_iter()
            .filter(|n| !singles.contains_key(n))
            .collect();
        for f in &levels {
            let key = pair_key(pair, *f);
            if !missing.is_empty() {
                manifest.skipped.push(SkippedRun {
                    key,
                    reason: format!(
                        "single-thread reference(s) quarantined: {}",
                        missing.join(", ")
                    ),
                });
            } else {
                match replay(journal.as_ref(), opts.resume, &key) {
                    Some(run) => {
                        reused += 1;
                        runs.insert(key, run);
                    }
                    None => pair_jobs.push(Job::new(key, (index, *f))),
                }
            }
        }
    }
    eprintln!(
        "[experiments] {} pair runs ({} pairs x {} levels, {} from journal, {} skipped) \
         on {workers} worker(s)",
        pair_jobs.len(),
        pairs.len(),
        levels.len(),
        runs.len(),
        manifest.skipped.len()
    );
    let report = supervise_and_journal(pair_jobs, opts, journal.as_mut(), |&(index, f)| {
        let pair = &pairs[index];
        let pair_singles = [singles[pair.a].clone(), singles[pair.b].clone()];
        let factory = PolicyFactory::builtin();
        RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, cfg)
            .and_then(|spec| run_spec(spec, &pair_singles))
            .map(|out| out.run)
            .map_err(|e| e.to_string())
    });
    for ((index, f), run) in report.results.into_iter().flatten() {
        executed += 1;
        runs.insert(pair_key(&pairs[index], f), run);
    }
    manifest.quarantined.extend(report.quarantined);

    // Reassemble in pair order, keeping only pairs with a full set of
    // runs — a partial row would make every figure silently wrong.
    let set = ResultSet {
        pairs: pairs
            .iter()
            .filter(|pair| {
                singles.contains_key(pair.a)
                    && singles.contains_key(pair.b)
                    && levels
                        .iter()
                        .all(|f| runs.contains_key(&pair_key(pair, *f)))
            })
            .map(|pair| PairResults {
                label: pair.label(),
                singles: vec![singles[pair.a].clone(), singles[pair.b].clone()],
                runs: levels
                    .iter()
                    .map(|f| runs[&pair_key(pair, *f)].clone())
                    .collect(),
            })
            .collect(),
    };
    Ok(MatrixOutcome {
        set,
        manifest,
        reused,
        executed,
    })
}

/// Replays `key` from the journal if resuming and the payload parses.
/// A payload that fails to parse (schema drift, say) is treated as
/// absent: the run is simply re-simulated.
fn replay<T: Deserialize>(journal: Option<&Journal>, resume: bool, key: &str) -> Option<T> {
    if !resume {
        return None;
    }
    let payload = journal?.get(key)?;
    match serde_json::from_str(payload) {
        Ok(value) => Some(value),
        Err(e) => {
            eprintln!("[experiments] journal record {key} unreadable ({e}); re-running");
            None
        }
    }
}

/// Supervises `jobs`, journaling each result under its job's label
/// (the run's journal key) the moment it completes — before the matrix
/// moves on — so a crash loses only in-flight runs. Journal append
/// failures degrade to a warning: the matrix still completes, only
/// resumability suffers. Each result comes back paired with its payload.
fn supervise_and_journal<P, R, F>(
    jobs: Vec<Job<P>>,
    opts: &MatrixOptions,
    mut journal: Option<&mut Journal>,
    f: F,
) -> SuperviseReport<(P, R)>
where
    P: Copy + Send + Sync,
    R: Send + Serialize,
    F: Fn(&P) -> Result<R, String> + Sync,
{
    let run = |p: &P| f(p).map(|r| (*p, r));
    supervise_jobs(jobs, &opts.supervise, run, |job, (_, run)| {
        if let Some(j) = journal.as_mut() {
            let payload = serde_json::to_string(run).expect("serialize run");
            if let Err(e) = j.append(&job.label, &payload) {
                eprintln!("[experiments] journal append failed ({e}); continuing unjournaled");
            }
        }
    })
}
