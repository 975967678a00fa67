//! The job engine: every batch of independent runs (the experiment
//! matrix, the figure sweeps, the service's per-request calls) goes
//! through [`supervise_jobs`] or [`supervise_call`], with journaled
//! resume, per-job watchdogs, retry with backoff, quarantine, and
//! deterministic fault injection.
//!
//! The paper's evaluation is ~76 independent cycle-level runs (16 pairs
//! × 4 fairness levels plus 12 single-thread references); they share no
//! state, so they are dispatched across cores rather than iterated. The
//! build environment is offline, so this is plain scoped `std::thread`
//! workers over a shared self-scheduling queue (an atomic cursor over the
//! job list: idle workers grab the next index), not a rayon dependency.
//! Results come back in submission order whatever the completion order,
//! and the engine adds no randomness of its own: a job derives
//! everything (trace seeds included) from its own payload, so any worker
//! count produces bit-identical results (asserted by
//! `tests/determinism.rs`). Worker-count resolution (CLI flag, then
//! `SOE_JOBS`, then the host's available parallelism) lives in
//! [`resolve_workers`] so every binary plumbs the same precedence.
//!
//! A long matrix must also stay *alive*. The engine applies the same
//! DRR-style discipline the paper applies to threads to our own jobs:
//!
//! * **Bounded time** — every job attempt runs on the thread that asked
//!   for it, under a wall-clock deadline ([`SuperviseOptions::timeout`])
//!   that the simulator polls ([`soe_sim::cancel`]): a run past its
//!   deadline stops within `POLL_CYCLES` simulated cycles with
//!   `SimError::Cancelled`, so a hung run neither holds the whole matrix
//!   hostage nor keeps simulating after its caller has given up. A job
//!   that blocks *outside* the simulator is not cut loose at its
//!   deadline unless it polls [`soe_sim::cancel::requested`] itself; it
//!   is reported as timed out once it returns. Inside the simulator, the
//!   forward-progress watchdog (`Machine::try_run_cycles` +
//!   `SimError::Stalled`) catches runs that tick without retiring.
//! * **Guaranteed forward progress** — panicked, failed or timed-out
//!   jobs are retried with exponential backoff
//!   ([`SuperviseOptions::retries`], [`SuperviseOptions::backoff`]) and,
//!   if they keep failing, **quarantined**: the matrix completes with
//!   partial results plus a failure manifest instead of aborting.
//! * **Durability** — the [`Journal`] is an append-only, checksummed
//!   record of completed runs. A killed process loses at most the
//!   in-flight runs; reopening the journal recovers every intact record
//!   (dropping a torn tail or bit-flipped lines) so `--resume` skips
//!   completed work and reproduces bit-identical output.
//! * **Testability** — the [`FaultPlan`] injects panics and stalls
//!   deterministically from a seed (`SOE_FAULTS=panic:0.05,stall:0.02@7`),
//!   so all of the above is exercised in tests and CI chaos runs, not
//!   just during real incidents.
//! * **Observability** — with [`SuperviseOptions::progress`] on, each
//!   completion prints jobs-completed / total with an ETA from a running
//!   mean of job durations to stderr.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use soe_workloads::hash::fnv1a64;

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data goes to a temporary
/// file in the same directory (same filesystem, so the rename cannot
/// cross devices), is synced, and is renamed over the target. A crash at
/// any point leaves either the old file or the new one — never a
/// half-written mix.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename, tagged with the path.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("atomic_write: {} has no file name", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{name}.tmp{}", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // The rename is only durable once the *directory entry* is on
        // disk: after a power loss an unsynced rename can silently
        // revert, losing a journal or manifest the caller believed
        // written. Sync the parent directory too.
        sync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| std::io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))
}

/// Fsyncs the directory containing `path`, making a just-renamed entry
/// durable. Errors are tagged with the directory path. On non-Unix hosts
/// a directory cannot be opened for syncing; the call is a no-op there.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = parent.unwrap_or_else(|| Path::new("."));
        let handle = std::fs::File::open(dir).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("opening directory {} for fsync: {e}", dir.display()),
            )
        })?;
        handle.sync_all().map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("fsyncing directory {}: {e}", dir.display()),
            )
        })?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The run journal
// ---------------------------------------------------------------------------

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalRecovery {
    /// Intact records recovered (later duplicates of a key win).
    pub kept: usize,
    /// Corrupt lines dropped: a torn tail from a crash mid-append, or
    /// bit-flipped lines failing their checksum.
    pub dropped: usize,
}

/// An append-only, checksummed record of completed runs.
///
/// Each record is one line, `<fnv1a64 hex> <key> <payload>\n`, where the
/// checksum covers `<key> <payload>`. Keys must not contain spaces or
/// newlines; payloads must not contain newlines (JSON fits both).
/// Appends are a single `write_all` + flush + sync, so a crash can only
/// tear the *last* line; [`Journal::open`] drops any line that fails to
/// parse or checksum and — if anything was dropped — compacts the file
/// atomically so the corruption never accumulates.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    // BTreeMap so any future iteration over entries is ordered; replay
    // order is carried separately by `order` (insertion sequence).
    entries: BTreeMap<String, String>,
    order: Vec<String>,
    recovery: JournalRecovery,
    /// Length of the file's intact records: where the next line starts.
    end: u64,
    /// Whether a failed write may have left a fragment past `end`.
    torn: bool,
    /// Armed injected write failures (the `io:P` fault class).
    faults: Option<FaultPlan>,
    /// Tears the next write after this many bytes (unit tests only: an
    /// injected `io` fault fails before touching the file).
    #[cfg(test)]
    tear_next_write: Option<usize>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovering every
    /// intact record.
    ///
    /// # Errors
    ///
    /// Any I/O error from reading or (when compaction is needed)
    /// rewriting the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let raw = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("reading journal {}: {e}", path.display()),
                ));
            }
        };
        let mut entries = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut recovery = JournalRecovery::default();
        for line in raw.split(|b| *b == b'\n') {
            if line.is_empty() {
                continue;
            }
            match Self::parse_line(line) {
                Some((key, payload)) => {
                    recovery.kept += 1;
                    if entries.insert(key.clone(), payload).is_none() {
                        order.push(key);
                    }
                }
                None => recovery.dropped += 1,
            }
        }
        if recovery.dropped > 0 {
            // Compact: rewrite only the intact records, atomically, so
            // the next crash-recovery starts from a clean file.
            let mut clean = Vec::new();
            for key in &order {
                if let Some(payload) = entries.get(key) {
                    Self::encode_line(&mut clean, key, payload);
                }
            }
            atomic_write(&path, &clean)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| {
                std::io::Error::new(e.kind(), format!("opening journal {}: {e}", path.display()))
            })?;
        let end = file.metadata()?.len();
        Ok(Self {
            path,
            file,
            entries,
            order,
            recovery,
            end,
            torn: false,
            faults: None,
            #[cfg(test)]
            tear_next_write: None,
        })
    }

    fn parse_line(line: &[u8]) -> Option<(String, String)> {
        let line = std::str::from_utf8(line).ok()?;
        let (hex, rest) = line.split_once(' ')?;
        if hex.len() != 16 {
            return None;
        }
        let sum = u64::from_str_radix(hex, 16).ok()?;
        if fnv1a64(rest.as_bytes()) != sum {
            return None;
        }
        let (key, payload) = rest.split_once(' ')?;
        Some((key.to_string(), payload.to_string()))
    }

    fn encode_line(out: &mut Vec<u8>, key: &str, payload: &str) {
        let body = format!("{key} {payload}");
        out.extend_from_slice(format!("{:016x} {body}\n", fnv1a64(body.as_bytes())).as_bytes());
    }

    /// What recovery found when this journal was opened.
    pub fn recovery(&self) -> JournalRecovery {
        self.recovery
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The payload recorded for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Iterates `(key, payload)` records in first-append order — the
    /// order a resuming service must replay them in.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.order
            .iter()
            .filter_map(|k| self.entries.get(k).map(|p| (k.as_str(), p.as_str())))
    }

    /// Arms deterministic injected write failures (the `io:P` class of
    /// the [`FaultPlan`] grammar): each append attempt draws from the
    /// plan and, on a hit, fails before touching the file. Appends retry
    /// up to [`Journal::APPEND_ATTEMPTS`] times, so only a persistent
    /// injected fault (or a real I/O error) surfaces to the caller.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.faults = faults;
    }

    /// Write attempts per [`Journal::append`] before the error surfaces.
    pub const APPEND_ATTEMPTS: u32 = 3;

    /// Appends (or overwrites) a record durably: the line is written in
    /// one `write_all`, flushed, and synced before this returns. Write
    /// failures — real or injected via [`Journal::set_faults`] — are
    /// retried up to [`Journal::APPEND_ATTEMPTS`] times. A partial line
    /// left by a failed attempt is truncated away before the next write,
    /// so a retried line never lands glued onto a fragment.
    ///
    /// # Errors
    ///
    /// The last error once every attempt failed; also if `key` contains
    /// a space or either part contains a newline (which would tear the
    /// line format).
    pub fn append(&mut self, key: &str, payload: &str) -> std::io::Result<()> {
        if key.is_empty() || key.contains(' ') || key.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("journal key {key:?} must be non-empty and contain no space/newline"),
            ));
        }
        if payload.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("journal payload for {key} must not contain newlines"),
            ));
        }
        let mut line = Vec::new();
        Self::encode_line(&mut line, key, payload);
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 1..=Self::APPEND_ATTEMPTS {
            if let Some(plan) = self.faults {
                if plan.decide_io(key, attempt) {
                    last_err = Some(std::io::Error::other(format!(
                        "injected fault: io (journal append {key}, attempt {attempt})"
                    )));
                    continue;
                }
            }
            match self.write_line(&line) {
                Ok(()) => {
                    if self
                        .entries
                        .insert(key.to_string(), payload.to_string())
                        .is_none()
                    {
                        self.order.push(key.to_string());
                    }
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("journal append failed")))
    }

    /// One durable write attempt of an encoded line. A failed attempt
    /// can leave a fragment without its newline, so the next attempt
    /// first truncates back to the last intact record: a line glued onto
    /// a fragment would fail its checksum and be dropped on reopen.
    fn write_line(&mut self, line: &[u8]) -> std::io::Result<()> {
        if self.torn {
            self.file.set_len(self.end)?;
        }
        self.torn = true;
        #[cfg(test)]
        if let Some(len) = self.tear_next_write.take() {
            self.file.write_all(line.get(..len).unwrap_or(line))?;
            return Err(std::io::Error::other("torn write"));
        }
        self.file.write_all(line)?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.end += line.len() as u64;
        self.torn = false;
        Ok(())
    }

    /// Truncates the journal to empty (a fresh, non-resumed matrix).
    ///
    /// # Errors
    ///
    /// Any I/O error from the truncation.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.end = 0;
        self.torn = false;
        self.entries.clear();
        self.order.clear();
        self.recovery = JournalRecovery::default();
        Ok(())
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// A fault decision for one job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Run the job normally.
    None,
    /// Panic before the job body runs.
    Panic,
    /// Sleep for the given duration before the job body runs (long
    /// enough, relative to the watchdog timeout, to look hung).
    Stall(Duration),
}

/// Seed-driven fault injection: every `(job key, attempt)` pair maps
/// deterministically to a fault decision, so a chaos run is exactly
/// reproducible and a retry of the same job may deterministically
/// succeed.
///
/// # The `SOE_FAULTS` grammar (the single source of truth)
///
/// ```text
/// SOE_FAULTS = class ("," class)* ("@" seed)?
/// class      = "panic:P"     probability an attempt panics
///            | "stall:P"     probability an attempt sleeps `stall_ms`
///                            (long enough to trip the watchdog)
///            | "stall_ms:N"  stall duration in ms (default 2000)
///            | "io:P"        probability a journal write attempt fails
///                            (appends retry; see `Journal::set_faults`)
///            | "drop:P"      probability the service layer loses an
///                            incoming request before accepting it
///            | "slow:P"      probability an attempt is delayed `slow_ms`
///                            (latency, not a hang)
///            | "slow_ms:N"   slow-worker delay in ms (default 250)
/// ```
///
/// Probabilities are in `[0, 1]`; the seed (default 0) is mixed into
/// every decision. Example: `panic:0.05,io:0.2,slow:0.1,slow_ms:50@7`.
/// The matrix engine exercises `panic`/`stall`/`io`; `drop` and `slow`
/// are consumed by the `serve` service layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability an attempt panics.
    pub panic_prob: f64,
    /// Probability an attempt stalls (checked after the panic draw).
    pub stall_prob: f64,
    /// How long a stalled attempt sleeps.
    pub stall: Duration,
    /// Probability a journal write attempt fails (`io:P`).
    pub io_prob: f64,
    /// Probability an incoming service request is dropped (`drop:P`).
    pub drop_prob: f64,
    /// Probability an attempt is delayed by [`FaultPlan::slow`]
    /// (`slow:P`).
    pub slow_prob: f64,
    /// How long a slow attempt is delayed.
    pub slow: Duration,
    /// Seed mixed into every decision.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with every fault class off (probability 0) at `seed`.
    pub fn none(seed: u64) -> Self {
        Self {
            panic_prob: 0.0,
            stall_prob: 0.0,
            stall: Duration::from_millis(2_000),
            io_prob: 0.0,
            drop_prob: 0.0,
            slow_prob: 0.0,
            slow: Duration::from_millis(250),
            seed,
        }
    }

    /// Parses a spec in the grammar documented on [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed component.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (body, seed) = match spec.rsplit_once('@') {
            Some((body, seed)) => (
                body,
                seed.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("SOE_FAULTS: bad seed {seed:?}"))?,
            ),
            None => (spec, 0),
        };
        let mut plan = Self::none(seed);
        let parse_ms = |name: &str, value: &str| {
            value
                .parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| format!("SOE_FAULTS: bad {name} {value:?}"))
        };
        for entry in body.split(',').filter(|e| !e.trim().is_empty()) {
            let (name, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("SOE_FAULTS: entry {entry:?} is not name:value"))?;
            let value = value.trim();
            match name.trim() {
                "panic" => plan.panic_prob = parse_prob(value)?,
                "stall" => plan.stall_prob = parse_prob(value)?,
                "stall_ms" => plan.stall = parse_ms("stall_ms", value)?,
                "io" => plan.io_prob = parse_prob(value)?,
                "drop" => plan.drop_prob = parse_prob(value)?,
                "slow" => plan.slow_prob = parse_prob(value)?,
                "slow_ms" => plan.slow = parse_ms("slow_ms", value)?,
                other => return Err(format!("SOE_FAULTS: unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from the `SOE_FAULTS` environment variable.
    ///
    /// # Errors
    ///
    /// The [`FaultPlan::parse`] message if the variable is set but
    /// malformed (never silently ignored — a chaos run that quietly ran
    /// without faults would fake a passing result).
    pub fn from_env() -> Result<Option<Self>, String> {
        // soe-lint: allow(determinism-taint): SOE_FAULTS is an explicit operator chaos knob; the run records the plan verbatim and replays deterministically from it
        match std::env::var("SOE_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// One deterministic uniform draw in `[0, 1)` for `(key, attempt,
    /// salt)`. Salts keep the fault classes' draws independent.
    fn draw(&self, key: &str, attempt: u32, salt: u64) -> f64 {
        let mut h = fnv1a64(key.as_bytes());
        for chunk in [self.seed, u64::from(attempt), salt] {
            h ^= splitmix64(chunk.wrapping_add(h));
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // 53 high-quality bits -> [0, 1).
        (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The deterministic panic/stall decision for `key` at `attempt`.
    pub fn decide(&self, key: &str, attempt: u32) -> Fault {
        if self.panic_prob <= 0.0 && self.stall_prob <= 0.0 {
            return Fault::None;
        }
        if self.draw(key, attempt, 1) < self.panic_prob {
            Fault::Panic
        } else if self.draw(key, attempt, 2) < self.stall_prob {
            Fault::Stall(self.stall)
        } else {
            Fault::None
        }
    }

    /// Whether the journal write for `key` at `attempt` fails (`io:P`).
    pub fn decide_io(&self, key: &str, attempt: u32) -> bool {
        self.io_prob > 0.0 && self.draw(key, attempt, 3) < self.io_prob
    }

    /// Whether the incoming request `key` is lost before acceptance
    /// (`drop:P`). Drops have no retry, so no attempt number.
    pub fn decide_drop(&self, key: &str) -> bool {
        self.drop_prob > 0.0 && self.draw(key, 1, 4) < self.drop_prob
    }

    /// The slow-worker delay for `key` at `attempt`, if drawn (`slow:P`).
    pub fn decide_slow(&self, key: &str, attempt: u32) -> Option<Duration> {
        (self.slow_prob > 0.0 && self.draw(key, attempt, 5) < self.slow_prob).then_some(self.slow)
    }
}

fn parse_prob(value: &str) -> Result<f64, String> {
    let p = value
        .parse::<f64>()
        .map_err(|_| format!("SOE_FAULTS: bad probability {value:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("SOE_FAULTS: probability {p} outside [0, 1]"));
    }
    Ok(p)
}

/// splitmix64 finalizer — decorrelates the FNV lattice.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Supervised execution
// ---------------------------------------------------------------------------

/// One unit of work: an opaque payload plus a human-readable label used
/// in progress output and quarantine reports (e.g. `"swim:eon @ F=1/2"`).
#[derive(Debug, Clone)]
pub struct Job<P> {
    /// Shown in progress lines and quarantine reports.
    pub label: String,
    /// Everything the job function needs. Determinism across worker
    /// counts requires the payload to carry (or imply) its own RNG
    /// seeds — nothing may depend on execution order.
    pub payload: P,
}

impl<P> Job<P> {
    /// Creates a labelled job.
    pub fn new(label: impl Into<String>, payload: P) -> Self {
        Self {
            label: label.into(),
            payload,
        }
    }
}

/// Resolves the worker count from (in precedence order) an explicit
/// request (`--jobs N`), the `SOE_JOBS` environment variable, and the
/// host's available parallelism.
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    explicit
        .filter(|n| *n > 0)
        .or_else(|| {
            // soe-lint: allow(determinism-taint): SOE_JOBS changes scheduling, not result bytes — runs are keyed and merged in label order
            std::env::var("SOE_JOBS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|n| *n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Supervisor configuration.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseOptions {
    /// Concurrent jobs (managers); `1` still supervises but runs one job
    /// at a time.
    pub workers: usize,
    /// Wall-clock budget per attempt; `None` waits forever (no
    /// watchdog).
    pub timeout: Option<Duration>,
    /// Further attempts after the first failure (so `retries: 2` means
    /// at most 3 attempts) before the job is quarantined.
    pub retries: u32,
    /// Pause before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Deterministic fault injection, if enabled.
    pub faults: Option<FaultPlan>,
    /// Print per-completion progress lines to stderr.
    pub progress: bool,
}

impl SuperviseOptions {
    /// `workers` managers, progress on, no timeout, 2 retries with a
    /// 500 ms initial backoff, no fault injection.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            timeout: None,
            retries: 2,
            backoff: Duration::from_millis(500),
            faults: None,
            progress: true,
        }
    }

    /// [`SuperviseOptions::new`] with progress output off (tests,
    /// library callers).
    // soe-lint: allow(dead-pub): tests/serve.rs and tests/trace_invariants.rs
    pub fn quiet(workers: usize) -> Self {
        Self {
            progress: false,
            ..Self::new(workers)
        }
    }
}

/// How one job attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The job panicked (captured; the worker survived).
    Panicked,
    /// The job returned an error value (e.g. a `SimError`).
    Failed,
    /// The watchdog expired before the attempt produced a result.
    TimedOut,
}

/// One failed attempt of a supervised job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobFailure {
    /// How the attempt failed.
    pub kind: FailureKind,
    /// 1-based attempt number.
    pub attempt: u32,
    /// The panic message, error value, or timeout description.
    pub message: String,
}

/// A job whose every attempt failed: excluded from the results, reported
/// in the failure manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantined {
    /// Submission index of the job.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// Every failed attempt, in order.
    pub failures: Vec<JobFailure>,
}

impl std::fmt::Display for Quarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let last = self.failures.last();
        write!(
            f,
            "job #{} `{}` quarantined after {} attempt(s): {}",
            self.index,
            self.label,
            self.failures.len(),
            last.map_or("<no attempts>".to_string(), |l| format!(
                "{:?}: {}",
                l.kind, l.message
            ))
        )
    }
}

/// A run excluded from a batch without being attempted, because
/// something it depends on was quarantined (or the service layer
/// deterministically dropped it under fault injection).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedRun {
    /// The run's journal key (`pair/gcc:eon/F=1/2`, `req/c1-0004`).
    pub key: String,
    /// Why it could not run.
    pub reason: String,
}

/// Everything that kept a batch from completing: runs whose every
/// attempt failed, and runs skipped because a dependency failed.
/// Serialized next to the results so a partial batch is an explicit,
/// inspectable state rather than a silent one. Shared by the experiment
/// matrix (`soe-bench`) and the capacity-planning service
/// ([`serve`](crate::serve)).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailureManifest {
    /// Runs quarantined after exhausting their retry budget.
    pub quarantined: Vec<Quarantined>,
    /// Runs never attempted (e.g. their single-thread reference failed).
    pub skipped: Vec<SkippedRun>,
}

impl FailureManifest {
    /// Whether the batch completed with nothing missing.
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty() && self.skipped.is_empty()
    }
}

/// The outcome of a supervised batch: per-job results in submission
/// order (`None` where the job was quarantined) plus the quarantine
/// list.
#[derive(Debug)]
pub struct SuperviseReport<R> {
    /// Results in submission order; `None` marks a quarantined job.
    pub results: Vec<Option<R>>,
    /// Jobs whose every attempt failed.
    pub quarantined: Vec<Quarantined>,
}

impl<R> SuperviseReport<R> {
    /// Whether every job produced a result.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Runs `jobs` under supervision on `opts.workers` scoped workers, each
/// attempt under [`supervise_call`] on the worker that took the job:
/// retries with exponential backoff, persistent failures quarantined.
/// Results come back in submission order.
///
/// The job function returns `Result<R, String>`, so structured failures
/// (a `SimError`, say) are retried and reported without being funneled
/// through panics; panics are still captured. `on_complete(job, &result)`
/// runs on the collector thread, in completion order, as each job
/// succeeds — the place to journal results durably while the matrix is
/// still running (pass `|_, _| {}` for none).
pub fn supervise_jobs<P, R, F>(
    jobs: Vec<Job<P>>,
    opts: &SuperviseOptions,
    f: F,
    mut on_complete: impl FnMut(&Job<P>, &R),
) -> SuperviseReport<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> Result<R, String> + Sync,
{
    let total = jobs.len();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Duration, Result<R, Quarantined>)>();

    let mut results: Vec<Option<R>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    let mut quarantined: Vec<Quarantined> = Vec::new();

    std::thread::scope(|scope| {
        for _ in 0..opts.workers.max(1).min(total) {
            let tx = tx.clone();
            let (jobs, f, cursor) = (&jobs, &f, &cursor);
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                // soe-lint: allow(wall-clock, determinism-taint): ETA wall-time; journal keys and result bytes never include it
                let start = Instant::now();
                let outcome = supervise_call(&job.label, index, opts, &|| f(&job.payload));
                if tx.send((index, start.elapsed(), outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut progress = Progress::new(total, opts.progress);
        for (index, took, outcome) in rx {
            // soe-lint: allow(slice-index): workers only send indexes below jobs.len()
            let job = &jobs[index];
            progress.completed(&job.label, took);
            match outcome {
                Ok(r) => {
                    on_complete(job, &r);
                    // soe-lint: allow(slice-index): results was sized to jobs.len() above
                    results[index] = Some(r);
                }
                Err(q) => {
                    if opts.progress {
                        eprintln!("[supervise] {q}");
                    }
                    quarantined.push(q);
                }
            }
        }
    });

    quarantined.sort_by_key(|q| q.index);
    SuperviseReport {
        results,
        quarantined,
    }
}

/// Runs one supervised call to completion or quarantine, every attempt
/// on the calling thread: exponential backoff between attempts and
/// deterministic fault injection keyed by `label`. The building block
/// behind [`supervise_jobs`], used directly by the
/// [`serve`](crate::serve) service layer for per-request supervision.
///
/// With a [`SuperviseOptions::timeout`], each attempt runs under a
/// [`soe_sim::cancel`] stop check that fires at its deadline, so a
/// simulation stops at its next poll; an attempt that returns after its
/// deadline is [`FailureKind::TimedOut`] whatever it returned.
///
/// `index` only labels the resulting [`Quarantined`] record (submission
/// index in a batch, request sequence number in a service).
///
/// # Errors
///
/// [`Quarantined`] with the full per-attempt failure history once the
/// retry budget is exhausted.
pub fn supervise_call<R>(
    label: &str,
    index: usize,
    opts: &SuperviseOptions,
    f: &dyn Fn() -> Result<R, String>,
) -> Result<R, Quarantined> {
    let mut failures: Vec<JobFailure> = Vec::new();
    for attempt in 1..=opts.retries.saturating_add(1) {
        if attempt > 1 {
            // Exponential backoff: backoff, 2*backoff, 4*backoff, ...
            let pause = opts.backoff.saturating_mul(1u32 << (attempt - 2).min(16));
            std::thread::sleep(pause);
        }
        match run_attempt(label, attempt, opts, f) {
            Ok(r) => return Ok(r),
            Err(failure) => failures.push(failure),
        }
    }
    Err(Quarantined {
        index,
        label: label.to_string(),
        failures,
    })
}

/// One attempt of [`supervise_call`], on the calling thread.
fn run_attempt<R>(
    label: &str,
    attempt: u32,
    opts: &SuperviseOptions,
    f: &dyn Fn() -> Result<R, String>,
) -> Result<R, JobFailure> {
    let fault = opts
        .faults
        .map_or(Fault::None, |plan| plan.decide(label, attempt));
    let slow = opts
        .faults
        .and_then(|plan| plan.decide_slow(label, attempt));
    let timeout = opts.timeout;
    // soe-lint: allow(wall-clock, determinism-taint): the watchdog deadline only stops a run, and a stopped run yields no result bytes
    let started = Instant::now();
    let left = move || timeout.map(|t| t.saturating_sub(started.elapsed()));
    let passed = move || left() == Some(Duration::ZERO);
    // Injected sleeps wait on the deadline, as a polling simulation does.
    let nap = |d: Duration| std::thread::sleep(left().map_or(d, |l| d.min(l)));
    let run = || {
        catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Fault::None => {}
                // soe-lint: allow(panic-macro): deliberate fault injection for chaos testing; caught by the harness
                Fault::Panic => panic!("injected fault: panic (attempt {attempt})"),
                Fault::Stall(d) => nap(d),
            }
            if let Some(d) = slow {
                // Slow-worker fault: added latency, not a hang.
                nap(d);
            }
            f()
        }))
    };
    let outcome = soe_sim::cancel::with_stop(passed, run);
    let failure = |kind, message| JobFailure {
        kind,
        attempt,
        message,
    };
    match outcome {
        Err(payload) => Err(failure(FailureKind::Panicked, panic_message(&*payload))),
        Ok(result) if passed() => {
            let t = timeout.unwrap_or_default();
            let why = result.err().map_or_else(String::new, |m| format!(": {m}"));
            Err(failure(
                FailureKind::TimedOut,
                format!("no result within {t:?}; attempt cancelled{why}"),
            ))
        }
        Ok(Ok(r)) => Ok(r),
        Ok(Err(message)) => Err(failure(FailureKind::Failed, message)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Progress accounting: jobs completed / total plus an ETA from the
/// running mean of job durations.
struct Progress {
    total: usize,
    done: usize,
    spent: Duration,
    started: Instant,
    enabled: bool,
}

impl Progress {
    fn new(total: usize, enabled: bool) -> Self {
        Self {
            total,
            done: 0,
            spent: Duration::ZERO,
            // soe-lint: allow(wall-clock, determinism-taint): progress/ETA reporting on stderr only, never serialized state
            started: Instant::now(),
            enabled,
        }
    }

    fn completed(&mut self, label: &str, took: Duration) {
        self.done += 1;
        self.spent += took;
        if !self.enabled {
            return;
        }
        let mean = self.spent.as_secs_f64() / self.done as f64;
        // Remaining work divided by the measured rate of this batch:
        // wall-clock elapsed per completed job accounts for the worker
        // count without asking how many threads are busy.
        let wall_per_job = self.started.elapsed().as_secs_f64() / self.done as f64;
        let remaining = (self.total - self.done) as f64 * wall_per_job;
        eprintln!(
            "[supervise] {}/{} {label} done in {:.1}s (mean {:.1}s, ETA {:.0}s)",
            self.done,
            self.total,
            took.as_secs_f64(),
            mean,
            remaining,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("soe-supervise-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let path = tmp("roundtrip");
        let mut j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        j.append("single/swim", r#"{"ipc":0.5}"#).unwrap();
        j.append("pair/swim:eon/F=0", r#"{"x":1}"#).unwrap();
        j.append("single/swim", r#"{"ipc":0.75}"#).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get("single/swim"), Some(r#"{"ipc":0.75}"#));
        assert_eq!(j.get("pair/swim:eon/F=0"), Some(r#"{"x":1}"#));
        assert_eq!(j.recovery().dropped, 0);
    }

    #[test]
    fn journal_drops_torn_tail_and_compacts() {
        let path = tmp("torn");
        let mut j = Journal::open(&path).unwrap();
        j.append("a", "1").unwrap();
        j.append("b", "2").unwrap();
        drop(j);
        // Simulate a crash mid-append: append half a line.
        let mut raw = std::fs::read(&path).unwrap();
        let full_len = raw.len();
        raw.extend_from_slice(b"0123456789abcdef c 3-but-the-line-is-t");
        atomic_write(&path, &raw).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.recovery().dropped, 1);
        assert_eq!(j.get("a"), Some("1"));
        // Compaction rewrote a clean file.
        assert_eq!(std::fs::read(&path).unwrap().len(), full_len);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.recovery().dropped, 0);
        assert_eq!(j2.len(), 2);
    }

    #[test]
    fn journal_append_retry_after_a_torn_write_keeps_the_record() {
        let path = tmp("torn-retry");
        let mut j = Journal::open(&path).unwrap();
        j.append("a", "1").unwrap();
        // The first attempt writes part of the line and fails; the retry
        // succeeds, so the record must survive a reopen.
        j.tear_next_write = Some(10);
        j.append("b", "2").unwrap();
        j.append("c", "3").unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovery().dropped, 0, "no fragment left behind");
        assert_eq!(
            j.iter().collect::<Vec<_>>(),
            [("a", "1"), ("b", "2"), ("c", "3")]
        );
    }

    #[test]
    fn journal_rejects_bit_flips() {
        let path = tmp("bitflip");
        let mut j = Journal::open(&path).unwrap();
        j.append("a", "payload-one").unwrap();
        j.append("b", "payload-two").unwrap();
        drop(j);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a bit inside the first record's payload.
        let pos = 20;
        raw[pos] ^= 0x01;
        atomic_write(&path, &raw).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovery().dropped, 1);
        assert_eq!(j.get("a"), None, "corrupt record must not surface");
        assert_eq!(j.get("b"), Some("payload-two"));
    }

    #[test]
    fn journal_append_rejects_separator_bytes() {
        let path = tmp("reject");
        let mut j = Journal::open(&path).unwrap();
        assert!(j.append("has space", "x").is_err());
        assert!(j.append("ok", "has\nnewline").is_err());
        assert!(j.append("", "x").is_err());
        j.append("ok", "fine").unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let path = tmp("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter.
        let dir = path.parent().unwrap();
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1);
    }

    #[test]
    fn fault_plan_parses_and_is_deterministic() {
        let plan = FaultPlan::parse("panic:0.25,stall:0.1,stall_ms:1234@99").unwrap();
        assert_eq!(plan.panic_prob, 0.25);
        assert_eq!(plan.stall_prob, 0.1);
        assert_eq!(plan.stall, Duration::from_millis(1234));
        assert_eq!(plan.seed, 99);
        for key in ["a", "b", "pair/swim:eon/F=1"] {
            for attempt in 1..4 {
                assert_eq!(plan.decide(key, attempt), plan.decide(key, attempt));
            }
        }
        // Different seeds must produce different decision patterns over
        // enough keys.
        let other = FaultPlan { seed: 100, ..plan };
        let pattern = |p: &FaultPlan| -> Vec<Fault> {
            (0..64).map(|i| p.decide(&format!("k{i}"), 1)).collect()
        };
        assert_ne!(pattern(&plan), pattern(&other));
        // Probabilities are roughly honored: panic:1.0 always panics.
        let always = FaultPlan::parse("panic:1.0").unwrap();
        assert_eq!(always.decide("anything", 1), Fault::Panic);
        let never = FaultPlan::parse("panic:0.0,stall:0.0").unwrap();
        assert_eq!(never.decide("anything", 1), Fault::None);
    }

    #[test]
    fn fault_plan_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic:1.5").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("explode:0.5").is_err());
        assert!(FaultPlan::parse("panic:0.5@notanumber").is_err());
        assert!(FaultPlan::parse("io:2.0").is_err());
        assert!(FaultPlan::parse("slow_ms:abc").is_err());
    }

    #[test]
    fn fault_plan_parses_service_layer_classes() {
        let plan = FaultPlan::parse("panic:0.1,io:0.5,drop:0.2,slow:0.3,slow_ms:77@5").unwrap();
        assert_eq!(plan.io_prob, 0.5);
        assert_eq!(plan.drop_prob, 0.2);
        assert_eq!(plan.slow_prob, 0.3);
        assert_eq!(plan.slow, Duration::from_millis(77));
        // Decisions are deterministic and independent per class.
        for key in ["req/a", "req/b"] {
            assert_eq!(plan.decide_io(key, 1), plan.decide_io(key, 1));
            assert_eq!(plan.decide_drop(key), plan.decide_drop(key));
            assert_eq!(plan.decide_slow(key, 1), plan.decide_slow(key, 1));
        }
        let always = FaultPlan::parse("io:1.0,drop:1.0,slow:1.0,slow_ms:9").unwrap();
        assert!(always.decide_io("k", 1));
        assert!(always.decide_drop("k"));
        assert_eq!(always.decide_slow("k", 1), Some(Duration::from_millis(9)));
        let never = FaultPlan::none(3);
        assert!(!never.decide_io("k", 1));
        assert!(!never.decide_drop("k"));
        assert_eq!(never.decide_slow("k", 1), None);
    }

    #[test]
    fn journal_append_retries_through_injected_io_faults() {
        let plan = FaultPlan::parse("io:0.5@11").unwrap();
        // Find a key whose first append attempt is injected to fail but
        // whose retry succeeds — pure plan logic, no seed hunting.
        let key = (0..10_000)
            .map(|i| format!("k{i}"))
            .find(|k| plan.decide_io(k, 1) && !plan.decide_io(k, 2))
            .expect("a transient-io key exists in 10k draws");
        let path = tmp("iofault");
        let mut j = Journal::open(&path).unwrap();
        j.set_faults(Some(plan));
        j.append(&key, "survived").unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.get(&key), Some("survived"));
    }

    #[test]
    fn journal_append_surfaces_persistent_io_faults() {
        let path = tmp("iofault-hard");
        let mut j = Journal::open(&path).unwrap();
        j.set_faults(Some(FaultPlan::parse("io:1.0@1").unwrap()));
        let err = j.append("doomed", "x").unwrap_err();
        assert!(err.to_string().contains("injected fault: io"), "{err}");
        // The record must not be visible in memory either.
        assert_eq!(j.get("doomed"), None);
        // Disarming restores normal appends.
        j.set_faults(None);
        j.append("doomed", "y").unwrap();
        assert_eq!(j.get("doomed"), Some("y"));
    }

    #[test]
    fn journal_iter_is_in_first_append_order() {
        let path = tmp("iterorder");
        let mut j = Journal::open(&path).unwrap();
        j.append("b", "1").unwrap();
        j.append("a", "2").unwrap();
        j.append("b", "3").unwrap();
        let got: Vec<(String, String)> = j
            .iter()
            .map(|(k, p)| (k.to_string(), p.to_string()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("b".to_string(), "3".to_string()),
                ("a".to_string(), "2".to_string())
            ]
        );
    }

    /// Runs `jobs` quietly on `workers` workers with no hook and
    /// unwraps the report, which must be complete.
    fn run_all<P, R, F>(jobs: Vec<Job<P>>, workers: usize, f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> Result<R, String> + Sync,
    {
        let report = supervise_jobs(jobs, &SuperviseOptions::quiet(workers), f, |_, _| {});
        assert!(report.is_complete(), "{:?}", report.quarantined);
        report.results.into_iter().flatten().collect()
    }

    #[test]
    fn supervised_jobs_return_in_order() {
        let jobs: Vec<Job<u64>> = (0..16).map(|i| Job::new(format!("j{i}"), i)).collect();
        assert_eq!(
            run_all(jobs, 4, |i| Ok(*i * 2)),
            (0..16).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_job_list_gives_an_empty_report() {
        let report = supervise_jobs(
            Vec::<Job<u32>>::new(),
            &SuperviseOptions::quiet(4),
            |p| Ok(*p),
            |_, _| {},
        );
        assert!(report.is_complete());
        assert!(report.results.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<Job<u32>> = (0..3).map(|i| Job::new(format!("j{i}"), i)).collect();
        assert_eq!(run_all(jobs, 32, |i| Ok(i + 1)), vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_completion_returns_in_submission_order() {
        let jobs: Vec<Job<u64>> = (0..64).map(|i| Job::new(format!("j{i}"), i)).collect();
        // Make later jobs finish first to exercise out-of-order arrival.
        let values = run_all(jobs, 8, |i| {
            std::thread::sleep(Duration::from_micros(200 * (64 - *i)));
            Ok(*i * 3)
        });
        assert_eq!(values, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_at_any_worker_count() {
        let run = |w: usize| -> Vec<u64> {
            let jobs = (0..40u64).map(|i| Job::new(format!("j{i}"), i)).collect();
            run_all(jobs, w, |i| Ok(i.wrapping_mul(0x9e3779b97f4a7c15)))
        };
        let serial = run(1);
        for w in [2, 3, 8] {
            assert_eq!(run(w), serial, "worker count {w} diverged");
        }
    }

    #[test]
    fn resolve_workers_precedence() {
        // Explicit beats everything.
        assert_eq!(resolve_workers(Some(3)), 3);
        // 0 is treated as unset.
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        std::env::remove_var("SOE_JOBS");
        assert_eq!(resolve_workers(Some(0)), host);
        assert_eq!(resolve_workers(None), host);
        // SOE_JOBS=1 degrades to serial.
        std::env::set_var("SOE_JOBS", "1");
        assert_eq!(resolve_workers(None), 1);
        std::env::set_var("SOE_JOBS", "junk");
        assert_eq!(resolve_workers(None), host);
        std::env::remove_var("SOE_JOBS");
    }

    #[test]
    fn retry_recovers_a_flaky_job() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let jobs = vec![Job::new("flaky", ())];
        let mut opts = SuperviseOptions::quiet(1);
        opts.retries = 2;
        opts.backoff = Duration::from_millis(1);
        let flaky = |_: &()| {
            if CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_string())
            } else {
                Ok(42u32)
            }
        };
        let report = supervise_jobs(jobs, &opts, flaky, |_, _| {});
        assert!(report.is_complete());
        assert_eq!(report.results[0], Some(42));
        assert_eq!(CALLS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn persistent_failure_is_quarantined_with_history() {
        let jobs = vec![Job::new("good", 1u32), Job::new("bad", 2u32)];
        let mut opts = SuperviseOptions::quiet(2);
        opts.retries = 1;
        opts.backoff = Duration::from_millis(1);
        let broken = |i: &u32| {
            if *i == 2 {
                Err("always broken".to_string())
            } else {
                Ok(*i)
            }
        };
        let report = supervise_jobs(jobs, &opts, broken, |_, _| {});
        assert!(!report.is_complete());
        assert_eq!(report.results[0], Some(1));
        assert_eq!(report.results[1], None);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.label, "bad");
        assert_eq!(q.failures.len(), 2, "initial attempt + 1 retry");
        assert!(q
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::Failed && f.message == "always broken"));
    }

    #[test]
    fn panicking_job_is_captured_and_quarantined() {
        let jobs: Vec<Job<u32>> = (0..8).map(|i| Job::new(format!("pair-{i}"), i)).collect();
        let mut opts = SuperviseOptions::quiet(4);
        opts.retries = 0;
        let boom = |i: &u32| {
            assert!(*i != 5, "run {i} went kapow");
            Ok(*i)
        };
        let report = supervise_jobs(jobs, &opts, boom, |_, _| {});
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!((q.index, q.label.as_str()), (5, "pair-5"));
        assert_eq!(q.failures[0].kind, FailureKind::Panicked);
        assert!(q.failures[0].message.contains("run 5 went kapow"));
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(*r, (i != 5).then_some(i as u32), "job {i}");
        }
    }

    #[test]
    fn watchdog_cancels_a_hung_job_within_bounds() {
        let mut opts = SuperviseOptions::quiet(2);
        opts.timeout = Some(Duration::from_millis(50));
        opts.retries = 1;
        opts.backoff = Duration::from_millis(1);
        let jobs = vec![Job::new("hung", true), Job::new("fine", false)];
        let wall = Instant::now();
        let hangs = |hang: &bool| {
            while *hang && !soe_sim::cancel::requested() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(7u32)
        };
        let report = supervise_jobs(jobs, &opts, hangs, |_, _| {});
        let elapsed = wall.elapsed();
        assert!(!report.is_complete());
        assert_eq!(report.results[1], Some(7));
        let q = &report.quarantined[0];
        assert_eq!(q.label, "hung");
        assert!(q.failures.iter().all(|f| f.kind == FailureKind::TimedOut));
        // 2 attempts x 50ms + 1ms backoff + slack: the job never ends on
        // its own — the watchdog, not the job, bounded the wait.
        assert!(
            elapsed < Duration::from_secs(10),
            "watchdog failed to bound the wait: {elapsed:?}"
        );
    }

    #[test]
    fn supervise_call_runs_every_attempt_on_the_calling_thread() {
        let mut opts = SuperviseOptions::quiet(1);
        opts.timeout = Some(Duration::from_secs(60));
        opts.retries = 2;
        opts.backoff = Duration::from_millis(1);
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let attempt = || {
            let mut seen = seen.lock().unwrap();
            seen.push(std::thread::current().id());
            if seen.len() < 3 {
                Err("transient".to_string())
            } else {
                Ok(())
            }
        };
        supervise_call("inline", 0, &opts, &attempt).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![caller; 3]);
    }

    #[test]
    fn injected_stall_waits_on_the_deadline_not_its_length() {
        let mut opts = SuperviseOptions::quiet(1);
        opts.timeout = Some(Duration::from_millis(50));
        opts.retries = 0;
        opts.faults = Some(FaultPlan::parse("stall:1.0,stall_ms:30000@1").unwrap());
        let wall = Instant::now();
        let q = supervise_call("stalled", 0, &opts, &|| Ok(())).unwrap_err();
        assert_eq!(q.failures[0].kind, FailureKind::TimedOut);
        assert!(q.failures[0].message.contains("cancelled"), "{q}");
        let elapsed = wall.elapsed();
        assert!(elapsed < Duration::from_secs(10), "{elapsed:?}");
    }

    #[test]
    fn injected_panics_quarantine_and_completion_hook_fires() {
        let jobs: Vec<Job<u32>> = (0..8).map(|i| Job::new(format!("j{i}"), i)).collect();
        let mut opts = SuperviseOptions::quiet(2);
        opts.retries = 0;
        opts.faults = Some(FaultPlan::parse("panic:1.0@7").unwrap());
        let completed = std::sync::Mutex::new(Vec::new());
        let report = supervise_jobs(
            jobs,
            &opts,
            |i| Ok(*i),
            |job, _r| completed.lock().unwrap().push(job.label.clone()),
        );
        assert_eq!(report.quarantined.len(), 8, "panic:1.0 fails everything");
        assert!(completed.lock().unwrap().is_empty());
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.failures[0].message.contains("injected fault")));
    }
}
