//! The service loop: accept → validate → fair-queue → supervise →
//! respond, with journaled exactly-once semantics and graceful drain.
//!
//! # Lifecycle
//!
//! One reader thread feeds request lines into the loop; each dispatched
//! cold request runs under [`supervise_call`] (watchdog timeout,
//! retry-with-backoff, quarantine) on one thread of its own, and every
//! attempt runs on that thread. A timed-out attempt is cancelled: its
//! simulation stops at its next poll of the deadline, so at most
//! [`ServeConfig::workers`] simulations run at once. The loop
//! multiplexes line arrival, request completion, and shutdown:
//!
//! * **EOF** — stop accepting, *drain everything*: every queued request
//!   still runs and is answered.
//! * **Shutdown** (SIGTERM via the `shutdown` flag, or a
//!   `control:"shutdown"` request) — stop accepting *and* stop
//!   dispatching; in-flight requests finish and are answered; queued
//!   requests stay journaled (`req/<id>` without `res/<id>`) and are
//!   replayed by the next `--resume` session.
//!
//! # Exactly-once
//!
//! An accepted request is journaled (`req/<id>` → the canonical request
//! JSON) *before* it is queued; its response is journaled (`res/<id>` →
//! the response line) before it is emitted. On `--resume` every
//! journaled response is re-emitted verbatim and every accepted-but-
//! unanswered request is re-queued — so each accepted request is
//! answered exactly once across sessions, byte-identical to an
//! uninterrupted run (results are deterministic and contain no
//! wall-clock state). Refused work (shed, rejected) is answered but
//! never journaled: refusal is not acceptance.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::Value;
use soe_model::FairnessLevel;
use soe_workloads::hash::fnv1a64;
use soe_workloads::pairs::THREAD_BASE_STRIDE;
use soe_workloads::Checkpoint;

use crate::metrics::SingleRun;
use crate::policy::TimeSlicePolicy;
use crate::registry::PolicyFactory;
use crate::runner::{run_spec, try_run_single, RunConfig, RunSpec};
use crate::serve::memo::{MemoCache, MemoLookup};
use crate::serve::proto::{parse_request, Request, Response, Scenario, ScenarioResult};
use crate::serve::queue::{FairQueue, QueueDiscipline};
use crate::serve::slo::{ClientTally, SloReport};
use crate::supervise::{
    supervise_call, FailureManifest, FaultPlan, Journal, Quarantined, SkippedRun, SuperviseOptions,
};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent scenario simulations.
    pub workers: usize,
    /// Per-client queue bound (DRR discipline only).
    pub capacity: usize,
    /// DRR quantum, in scenario cost units (thread-cycles); one
    /// micro-sized two-thread scenario costs ~240k.
    pub quantum: f64,
    /// Queue discipline ([`QueueDiscipline::DeficitRoundRobin`] unless
    /// deliberately running the starvation baseline).
    pub discipline: QueueDiscipline,
    /// Watchdog wall-clock budget per simulation attempt.
    pub timeout: Option<Duration>,
    /// Retries after a failed attempt before quarantining.
    pub retries: u32,
    /// Initial retry backoff (doubles per retry).
    pub backoff: Duration,
    /// Deterministic fault injection (`SOE_FAULTS`), service classes
    /// included (`io`, `drop`, `slow`).
    pub faults: Option<FaultPlan>,
    /// Where to journal accepted requests and responses; `None`
    /// disables crash recovery.
    pub journal: Option<PathBuf>,
    /// Replay the journal on startup instead of truncating it.
    pub resume: bool,
    /// Warmup-checkpoint memo cache directory; `None` disables
    /// memoization.
    pub memo_dir: Option<PathBuf>,
    /// Print progress lines to stderr.
    pub progress: bool,
}

impl ServeConfig {
    /// Defaults: 2 workers, DRR with capacity 8 and a one-micro-request
    /// quantum, 60 s watchdog, 2 retries from 100 ms, no journal, no
    /// memo, quiet.
    pub fn new() -> Self {
        Self {
            workers: 2,
            capacity: 8,
            quantum: 250_000.0,
            discipline: QueueDiscipline::DeficitRoundRobin,
            timeout: Some(Duration::from_secs(60)),
            retries: 2,
            backoff: Duration::from_millis(100),
            faults: None,
            journal: None,
            resume: false,
            memo_dir: None,
            progress: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending knob.
    pub fn check(&self) -> Result<(), String> {
        if self.workers == 0 || self.workers > 256 {
            return Err(format!("workers must be in 1..=256, got {}", self.workers));
        }
        if self.capacity == 0 || self.capacity > 65_536 {
            return Err(format!(
                "capacity must be in 1..=65536, got {}",
                self.capacity
            ));
        }
        if !self.quantum.is_finite() || self.quantum <= 0.0 {
            return Err(format!(
                "quantum must be positive and finite, got {}",
                self.quantum
            ));
        }
        if let Some(t) = self.timeout {
            if t.is_zero() {
                return Err("timeout must be nonzero (or None for no watchdog)".to_string());
            }
        }
        if self.retries > 10 {
            return Err(format!("retries must be at most 10, got {}", self.retries));
        }
        if self.backoff > Duration::from_secs(60) {
            return Err(format!(
                "backoff must be at most 60s, got {:?}",
                self.backoff
            ));
        }
        if self.resume && self.journal.is_none() {
            return Err("resume requires a journal path".to_string());
        }
        // No invariants beyond type-validity for the remaining knobs.
        let _ = (
            &self.discipline,
            &self.faults,
            &self.memo_dir,
            self.progress,
        );
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What a service session produced (besides the response stream).
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-client service levels and the fairness index.
    pub report: SloReport,
    /// Quarantined and dropped requests.
    pub manifest: FailureManifest,
    /// Accepted requests left journaled but unanswered (nonzero only
    /// after a shutdown-without-drain; replayable with `resume`).
    pub pending: u64,
}

/// A request admitted to the queue.
struct PendingReq {
    req: Request,
    scenario: Scenario,
    accepted_at: Instant,
    /// Value of the dispatch counter when this request was accepted —
    /// queue wait is measured in dispatches that happened in between.
    arrival_dispatched: u64,
}

/// A request handed to a worker, awaiting completion.
struct InFlight {
    id: String,
    client: String,
    accepted_at: Instant,
    memo_key: Option<String>,
}

enum Event {
    Line(String),
    Eof,
    Done {
        seq: u64,
        outcome: Result<String, Quarantined>,
    },
}

/// Bookkeeping shared by every response path.
struct Session<'a> {
    out: &'a mut dyn Write,
    journal: Option<Journal>,
    memo: Option<MemoCache>,
    tallies: BTreeMap<String, ClientTally>,
    manifest: FailureManifest,
    seen: BTreeSet<String>,
    served: u64,
    replayed: u64,
    shed: u64,
    rejected: u64,
    dropped: u64,
    quarantined: u64,
    progress: bool,
}

impl Session<'_> {
    fn tally(&mut self, client: &str) -> &mut ClientTally {
        self.tallies.entry(client.to_string()).or_default()
    }

    /// Serializes `resp`, journals it under `res/<id>` when `journal_id`
    /// is set, and writes it to the output stream.
    fn respond(&mut self, journal_id: Option<&str>, resp: &Response) -> std::io::Result<()> {
        let line = serde_json::to_string(resp).unwrap_or_default();
        if let (Some(j), Some(id)) = (self.journal.as_mut(), journal_id) {
            if let Err(e) = j.append(&format!("res/{id}"), &line) {
                // The response still goes out; a restart may recompute
                // and re-answer this request (deterministically, with
                // identical bytes) — degraded durability, not data loss.
                eprintln!("[soe-serve] journal append failed for res/{id}: {e}");
            }
        }
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

/// Runs the service loop over `input`, writing response lines to `out`,
/// until EOF (drain everything) or shutdown (finish in-flight, journal
/// the rest). `shutdown` is polled between events — wire it to a
/// SIGTERM handler's `AtomicBool`.
///
/// # Errors
///
/// Configuration errors ([`ServeConfig::check`]) as
/// [`std::io::ErrorKind::InvalidInput`]; journal/output I/O errors.
/// Malformed *requests* are never errors — they produce `error`
/// responses.
pub fn serve<R: Read + Send + 'static>(
    input: R,
    out: &mut dyn Write,
    cfg: &ServeConfig,
    shutdown: Option<&AtomicBool>,
) -> std::io::Result<ServeOutcome> {
    cfg.check()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // soe-lint: allow(wall-clock, determinism-taint): SLO latency fields are documented host wall-time, never simulated state
    let session_start = Instant::now();

    let mut journal = match cfg.journal.as_deref() {
        Some(path) => Some(Journal::open(path)?),
        None => None,
    };
    if let Some(j) = journal.as_mut() {
        if !cfg.resume {
            j.reset()?;
        }
        j.set_faults(cfg.faults);
    }
    let memo = match cfg.memo_dir.as_deref() {
        Some(dir) => Some(MemoCache::open(dir)?),
        None => None,
    };

    let mut session = Session {
        out,
        journal,
        memo,
        tallies: BTreeMap::new(),
        manifest: FailureManifest::default(),
        seen: BTreeSet::new(),
        served: 0,
        replayed: 0,
        shed: 0,
        rejected: 0,
        dropped: 0,
        quarantined: 0,
        progress: cfg.progress,
    };
    let mut queue: FairQueue<PendingReq> =
        FairQueue::new(cfg.discipline, cfg.capacity, cfg.quantum);
    let mut inflight: BTreeMap<u64, InFlight> = BTreeMap::new();
    let mut dispatched: u64 = 0;
    let mut seq: u64 = 0;

    // --- Resume: re-emit journaled responses, re-queue unanswered
    // accepted requests, in first-append order.
    if cfg.resume {
        let entries: Vec<(String, String)> = session
            .journal
            .as_ref()
            .map(|j| {
                j.iter()
                    .filter_map(|(k, p)| {
                        k.strip_prefix("req/")
                            .map(|id| (id.to_string(), p.to_string()))
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (id, payload) in entries {
            let stored = session
                .journal
                .as_ref()
                .and_then(|j| j.get(&format!("res/{id}")))
                .map(str::to_string);
            match stored {
                Some(line) => {
                    // Byte-identical replay of the already-journaled
                    // response.
                    session.out.write_all(line.as_bytes())?;
                    session.out.write_all(b"\n")?;
                    session.seen.insert(id.clone());
                    session.replayed += 1;
                    if let Ok(req) = serde_json::from_str::<Request>(&payload) {
                        session.tally(&req.client).replayed += 1;
                    }
                }
                None => match serde_json::from_str::<Request>(&payload) {
                    Ok(req) if req.check().is_ok() && req.scenario.is_some() => {
                        let Some(sc) = req.scenario.clone() else {
                            continue;
                        };
                        session.seen.insert(id.clone());
                        session.tally(&req.client).accepted += 1;
                        let client = req.client.clone();
                        // soe-lint: allow(wall-clock, determinism-taint): SLO latency fields are documented host wall-time, never simulated state
                        let accepted_at = Instant::now();
                        queue.push_forced(
                            &client,
                            sc.cost(),
                            PendingReq {
                                req,
                                scenario: sc,
                                accepted_at,
                                arrival_dispatched: dispatched,
                            },
                        );
                    }
                    _ => session.manifest.skipped.push(SkippedRun {
                        key: format!("req/{id}"),
                        reason: "journaled request no longer parses or validates".to_string(),
                    }),
                },
            }
        }
        session.out.flush()?;
        if session.progress {
            eprintln!(
                "[soe-serve] resume: {} response(s) replayed, {} request(s) re-queued",
                session.replayed,
                queue.len()
            );
        }
    }

    // --- Reader thread: lines in, one Eof marker at the end. The main
    // loop keeps its own Sender, so the channel never disconnects.
    let (tx, rx) = mpsc::channel::<Event>();
    {
        let reader_tx = tx.clone();
        std::thread::spawn(move || {
            let buf = BufReader::new(input);
            for line in buf.lines() {
                let Ok(line) = line else { break };
                if reader_tx.send(Event::Line(line)).is_err() {
                    return;
                }
            }
            let _ = reader_tx.send(Event::Eof);
        });
    }

    let supervise_opts = SuperviseOptions {
        workers: 1,
        timeout: cfg.timeout,
        retries: cfg.retries,
        backoff: cfg.backoff,
        faults: cfg.faults,
        progress: false,
    };

    let mut eof = false;
    let mut quit = false;
    loop {
        // Dispatch while workers are free (never after shutdown).
        while !quit && inflight.len() < cfg.workers {
            let Some((client, pending)) = queue.pop() else {
                break;
            };
            dispatched += 1;
            let wait = dispatched
                .saturating_sub(1)
                .saturating_sub(pending.arrival_dispatched) as f64;
            session.tally(&client).queue_waits.push(wait);
            let key = session.memo.as_ref().map(|_| memo_key(&pending.scenario));
            // Memo probe: a validated hit completes the request without
            // touching a worker; corruption falls back to a cold run.
            if let (Some(cache), Some(k)) = (session.memo.clone(), key.as_deref()) {
                match cache.load(k) {
                    MemoLookup::Hit(payload) => {
                        complete_ok(
                            &mut session,
                            &pending.req.id,
                            &client,
                            pending.accepted_at,
                            &payload,
                        );
                        continue;
                    }
                    MemoLookup::Corrupt(reason) => {
                        eprintln!("[soe-serve] memo entry invalid, cold-running: {reason}");
                    }
                    MemoLookup::Miss => {}
                }
            }
            seq += 1;
            inflight.insert(
                seq,
                InFlight {
                    id: pending.req.id.clone(),
                    client: client.clone(),
                    accepted_at: pending.accepted_at,
                    memo_key: key,
                },
            );
            let label = format!("req/{}", pending.req.id);
            let scenario = pending.scenario.clone();
            let worker_tx = tx.clone();
            std::thread::spawn(move || {
                let run = || run_scenario(&scenario);
                let outcome = supervise_call(&label, seq as usize, &supervise_opts, &run);
                let _ = worker_tx.send(Event::Done { seq, outcome });
            });
        }

        if let Some(flag) = shutdown {
            if flag.load(Ordering::SeqCst) {
                quit = true;
            }
        }
        // Terminal condition: nothing running, and either we are
        // quitting (queued requests stay journaled) or there is nothing
        // left to accept or dispatch.
        if inflight.is_empty() && (quit || (eof && queue.is_empty())) {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(Event::Line(line)) => {
                if !quit && handle_line(&mut session, &mut queue, cfg, dispatched, &line)? {
                    quit = true;
                }
            }
            Ok(Event::Eof) => eof = true,
            Ok(Event::Done { seq, outcome }) => {
                let Some(meta) = inflight.remove(&seq) else {
                    continue;
                };
                match outcome {
                    Ok(payload) => {
                        if let (Some(cache), Some(k)) =
                            (session.memo.clone(), meta.memo_key.as_deref())
                        {
                            if let Err(e) = cache.store(k, &payload) {
                                eprintln!("[soe-serve] memo store failed for {k}: {e}");
                            }
                        }
                        complete_ok(
                            &mut session,
                            &meta.id,
                            &meta.client,
                            meta.accepted_at,
                            &payload,
                        );
                    }
                    Err(q) => {
                        let message = q
                            .failures
                            .last()
                            .map(|f| f.message.clone())
                            .unwrap_or_default();
                        let attempts = q.failures.len() as u64;
                        session.manifest.quarantined.push(q);
                        session.quarantined += 1;
                        let t = session.tally(&meta.client);
                        t.quarantined += 1;
                        t.latencies_ms
                            .push(meta.accepted_at.elapsed().as_secs_f64() * 1_000.0);
                        let resp = Response::Quarantined {
                            id: meta.id.clone(),
                            client: meta.client.clone(),
                            attempts,
                            message,
                        };
                        session.respond(Some(&meta.id), &resp)?;
                        if session.progress {
                            eprintln!("[soe-serve] quarantined req/{}", meta.id);
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    let pending = queue.len() as u64;
    let drain = Response::Drain {
        served: session.served,
        replayed: session.replayed,
        shed: session.shed,
        rejected: session.rejected,
        dropped: session.dropped,
        quarantined: session.quarantined,
        pending,
    };
    // The drain summary is session state, not a request's answer: it is
    // emitted but never journaled.
    session.respond(None, &drain)?;

    let wall_ms = session_start.elapsed().as_millis() as u64;
    let report = SloReport::build(cfg.discipline.name(), wall_ms, &session.tallies);
    Ok(ServeOutcome {
        report,
        manifest: session.manifest,
        pending,
    })
}

/// Emits (and journals) a `result` response.
fn complete_ok(
    session: &mut Session<'_>,
    id: &str,
    client: &str,
    accepted_at: Instant,
    payload: &str,
) {
    let value: Value = serde_json::from_str(payload).unwrap_or(Value::Null);
    let resp = Response::Result {
        id: id.to_string(),
        client: client.to_string(),
        result: value,
    };
    session.served += 1;
    let t = session.tally(client);
    t.completed += 1;
    t.latencies_ms
        .push(accepted_at.elapsed().as_secs_f64() * 1_000.0);
    if let Err(e) = session.respond(Some(id), &resp) {
        eprintln!("[soe-serve] emitting result for req/{id}: {e}");
    }
}

/// Processes one input line. Returns `true` when the line was a
/// shutdown request.
fn handle_line(
    session: &mut Session<'_>,
    queue: &mut FairQueue<PendingReq>,
    cfg: &ServeConfig,
    dispatched: u64,
    raw: &str,
) -> std::io::Result<bool> {
    let line = raw.trim();
    if line.is_empty() {
        return Ok(false);
    }
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(rej) => {
            session.rejected += 1;
            // Lines whose client field cannot be recovered are tallied
            // under a reserved name so the report's totals still match
            // the drain line. Real clients are validated tokens and can
            // never collide with a parenthesized name.
            let who = if rej.client.is_empty() {
                "(unattributed)"
            } else {
                rej.client.as_str()
            };
            let t = session.tally(who);
            t.submitted += 1;
            t.rejected += 1;
            let resp = Response::Error {
                id: rej.id,
                client: rej.client,
                code: rej.error.code().to_string(),
                message: rej.error.to_string(),
            };
            session.respond(None, &resp)?;
            return Ok(false);
        }
    };
    if req.control == "shutdown" {
        if session.progress {
            eprintln!("[soe-serve] shutdown requested by {}", req.client);
        }
        return Ok(true);
    }
    session.tally(&req.client).submitted += 1;
    // Injected request-drop fault: the request vanishes before
    // acceptance, as if the connection died mid-line. Recorded in the
    // manifest so chaos runs can assert on it.
    if let Some(plan) = cfg.faults {
        if plan.decide_drop(&format!("req/{}", req.id)) {
            session.dropped += 1;
            session.tally(&req.client).dropped += 1;
            session.manifest.skipped.push(SkippedRun {
                key: format!("req/{}", req.id),
                reason: "injected fault: drop (request lost before acceptance)".to_string(),
            });
            return Ok(false);
        }
    }
    if session.seen.contains(&req.id) {
        session.rejected += 1;
        session.tally(&req.client).rejected += 1;
        let resp = Response::Error {
            id: req.id.clone(),
            client: req.client.clone(),
            code: "duplicate".to_string(),
            message: format!("request id {:?} was already accepted", req.id),
        };
        session.respond(None, &resp)?;
        return Ok(false);
    }
    let Some(scenario) = req.scenario.clone() else {
        // Unreachable after check(); answer defensively rather than
        // crash.
        session.rejected += 1;
        session.tally(&req.client).rejected += 1;
        let resp = Response::Error {
            id: req.id.clone(),
            client: req.client.clone(),
            code: "internal".to_string(),
            message: "request accepted without a scenario".to_string(),
        };
        session.respond(None, &resp)?;
        return Ok(false);
    };
    // Backpressure before acceptance: a shed request is never journaled.
    if let Some(shed) = queue.would_shed(&req.client) {
        session.shed += 1;
        session.tally(&req.client).shed += 1;
        let resp = Response::Shed {
            id: req.id.clone(),
            client: req.client.clone(),
            depth: shed.depth as u64,
            capacity: shed.capacity as u64,
        };
        session.respond(None, &resp)?;
        return Ok(false);
    }
    // Acceptance: journal first (durability), then queue. A journal
    // failure refuses the request — accepting without a durable record
    // would break exactly-once on restart.
    let canonical = serde_json::to_string(&req).unwrap_or_default();
    if let Some(j) = session.journal.as_mut() {
        if let Err(e) = j.append(&format!("req/{}", req.id), &canonical) {
            session.rejected += 1;
            session.tally(&req.client).rejected += 1;
            let resp = Response::Error {
                id: req.id.clone(),
                client: req.client.clone(),
                code: "journal".to_string(),
                message: format!("could not journal acceptance: {e}"),
            };
            session.respond(None, &resp)?;
            return Ok(false);
        }
    }
    session.seen.insert(req.id.clone());
    session.tally(&req.client).accepted += 1;
    let client = req.client.clone();
    let cost = scenario.cost();
    // soe-lint: allow(wall-clock, determinism-taint): SLO latency fields are documented host wall-time, never simulated state
    let accepted_at = Instant::now();
    let pending = PendingReq {
        req,
        scenario,
        accepted_at,
        arrival_dispatched: dispatched,
    };
    if let Err(shed) = queue.push(&client, cost, pending) {
        // would_shed() was clear a moment ago and the loop is
        // single-threaded, so this is unreachable; refuse gracefully
        // anyway.
        session.shed += 1;
        let t = session.tally(&client);
        t.accepted = t.accepted.saturating_sub(1);
        t.shed += 1;
        let resp = Response::Shed {
            id: String::new(),
            client,
            depth: shed.depth as u64,
            capacity: shed.capacity as u64,
        };
        session.respond(None, &resp)?;
    }
    Ok(false)
}

/// The sizing and mechanism parameters for one checked scenario:
/// `quick()` parameters with the requested window sizes, and the cycle
/// quota scaled down so `quota × threads ≤ Δ` holds for any roster size.
fn scenario_run_config(sc: &Scenario) -> RunConfig {
    let threads = sc.roster.len().max(1) as u64;
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = sc.warmup_cycles;
    cfg.measure_cycles = sc.measure_cycles;
    cfg.fairness.target = FairnessLevel::new(sc.f);
    let per_thread = (cfg.fairness.delta / threads).max(1);
    cfg.fairness.max_cycles_quota = cfg.fairness.max_cycles_quota.min(per_thread);
    cfg.fairness.min_quota_cycles = cfg
        .fairness
        .min_quota_cycles
        .min(cfg.fairness.max_cycles_quota);
    cfg
}

/// Runs one scenario to its deterministic JSON payload.
///
/// # Errors
///
/// A human-readable message (a field [`Scenario::check`] rejects,
/// inconsistent mechanism parameters, or a structured `SimError` from
/// the run) — the supervisor retries and ultimately quarantines on
/// `Err`.
pub fn run_scenario(sc: &Scenario) -> Result<String, String> {
    sc.check().map_err(|e| e.to_string())?;
    let names: Vec<&str> = sc.roster.iter().map(String::as_str).collect();
    let cfg = scenario_run_config(sc);
    // Single-thread references: one per distinct benchmark, measured on
    // the trace (profile + base + offset) of its first thread. A
    // duplicate reuses that reference, so its trace is never built.
    let mut singles: Vec<SingleRun> = Vec::with_capacity(names.len());
    let checkpoints = soe_workloads::pairs::group_checkpoints(&names);
    for (name, checkpoint) in names.iter().zip(checkpoints) {
        let single = match singles.iter().find(|s| s.name == *name) {
            Some(s) => s.clone(),
            None => reference(checkpoint, &cfg)?,
        };
        singles.push(single);
    }
    // The checked policy is `fairness` or `timeslice`; the protocol's
    // timeslice takes its explicit quota, not the registry's derived one.
    let (factory, f) = (PolicyFactory::builtin(), cfg.fairness.target);
    let spec = match sc.policy.as_str() {
        "timeslice" => {
            let policy = Box::new(TimeSlicePolicy::new(sc.timeslice_cycles));
            RunSpec::roster(&names, policy, None, cfg)
        }
        name => RunSpec::named(&factory, name, &names, f, &cfg),
    }
    .map_err(|e| e.to_string())?;
    let run = run_spec(spec, &singles).map_err(|e| e.to_string())?.run;
    let result = ScenarioResult { singles, run };
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

/// Most single-thread references one process keeps (≈200 bytes each).
/// Past this, references are still measured but no longer stored.
const REFERENCE_CACHE_CAP: usize = 1024;

/// Single-thread references this process has already measured, keyed by
/// [`reference_key`]. A reference depends on its thread alone, not on
/// the co-runners, policy, target F or address-space slot, so every cold
/// request after the first that names the same benchmark at the same
/// stream position and sizing reads it from here instead of simulating
/// it again. Only successful runs are stored; two workers that miss one
/// key at once both simulate it, which is harmless because the value is
/// a pure function of the key.
///
/// It lives here, not in the runner, so the figure binaries and the
/// benchmark still simulate every reference they ask for.
static REFERENCES: Mutex<BTreeMap<String, SingleRun>> = Mutex::new(BTreeMap::new());

/// What a single-thread reference run can observe: the thread's
/// profile digest and stream position, the machine, and the run
/// windows. The fairness parameters, the policy and the co-runners never
/// reach a `NeverSwitch` run, so they are left out. So is the slot: every
/// base is a multiple of [`THREAD_BASE_STRIDE`], and no address-indexed
/// structure reads bits that high (`tests/relocation_invariance.rs`),
/// so the base is keyed modulo the stride.
fn reference_key(checkpoint: &Checkpoint, cfg: &RunConfig) -> String {
    let slot_free = Checkpoint {
        base: checkpoint.base % THREAD_BASE_STRIDE,
        ..checkpoint.clone()
    };
    let machine = format!("{:?}", cfg.machine);
    format!(
        "{} machine={:016x} warmup={} measure={} stall={:?}",
        slot_free.memo_key(),
        fnv1a64(machine.as_bytes()),
        cfg.warmup_cycles,
        cfg.measure_cycles,
        cfg.stall_window
    )
}

/// Stores `single` under `key` unless `cache` already holds
/// [`REFERENCE_CACHE_CAP`] entries.
fn remember(cache: &mut BTreeMap<String, SingleRun>, key: String, single: &SingleRun) {
    if cache.len() < REFERENCE_CACHE_CAP {
        cache.insert(key, single.clone());
    }
}

/// The single-thread reference of the thread that starts at
/// `checkpoint`: from [`REFERENCES`] if this process has measured it,
/// else simulated (without holding the lock) and then stored.
fn reference(checkpoint: Checkpoint, cfg: &RunConfig) -> Result<SingleRun, String> {
    let key = reference_key(&checkpoint, cfg);
    let cached = REFERENCES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned();
    if let Some(single) = cached {
        return Ok(single);
    }
    let single =
        try_run_single(Box::new(checkpoint.into_trace()), cfg).map_err(|e| e.to_string())?;
    remember(
        &mut REFERENCES.lock().unwrap_or_else(PoisonError::into_inner),
        key,
        &single,
    );
    Ok(single)
}

/// The memoization key for a scenario: roster in clear (debuggable
/// cache directories) plus a digest of the canonical scenario JSON and
/// every thread's checkpoint identity — so a change to a profile's
/// parameters, the address-space layout, *or* any request knob
/// invalidates stale entries.
pub fn memo_key(sc: &Scenario) -> String {
    let names: Vec<&str> = sc.roster.iter().map(String::as_str).collect();
    let mut ident = serde_json::to_string(sc).unwrap_or_default();
    for checkpoint in soe_workloads::pairs::group_checkpoints(&names) {
        ident.push('|');
        ident.push_str(&checkpoint.memo_key());
    }
    format!("{}-{:016x}", sc.roster.join("+"), fnv1a64(ident.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(roster: &[&str], policy: &str, f: f64, timeslice_cycles: u64) -> Scenario {
        Scenario {
            roster: roster.iter().map(ToString::to_string).collect(),
            policy: policy.to_string(),
            f,
            timeslice_cycles,
            warmup_cycles: 10_000,
            measure_cycles: 20_000,
        }
    }

    #[test]
    fn memo_key_matches_keys_from_built_traces() {
        // The key from the group's checkpoints must equal the key from
        // checkpoints captured off the built traces, byte for byte.
        for roster in [
            &["gcc", "eon"][..],
            &["swim", "swim"],
            &["mcf", "gcc", "mcf", "mcf"],
            &["art", "apsi", "lucas", "art", "wupwise", "apsi"],
        ] {
            let sc = scenario(roster, "fairness", 0.5, 0);
            let mut ident = serde_json::to_string(&sc).unwrap_or_default();
            for trace in soe_workloads::pairs::group_traces(roster) {
                ident.push('|');
                ident.push_str(&soe_workloads::Checkpoint::capture(&trace, 0).memo_key());
            }
            let built = format!("{}-{:016x}", sc.roster.join("+"), fnv1a64(ident.as_bytes()));
            assert_eq!(memo_key(&sc), built, "roster {roster:?}");
        }
    }

    /// The reference key of thread `i` of `sc`, at `sc`'s run config.
    fn key_of(sc: &Scenario, i: usize) -> String {
        let names: Vec<&str> = sc.roster.iter().map(String::as_str).collect();
        let checkpoints = soe_workloads::pairs::group_checkpoints(&names);
        reference_key(&checkpoints[i], &scenario_run_config(sc))
    }

    /// The reference `run_scenario` reported for thread `i` of `sc`
    /// must be the runner's own answer for that thread's checkpoint.
    fn assert_reference_is_direct(sc: &Scenario, i: usize) {
        let served: ScenarioResult = serde_json::from_str(&run_scenario(sc).unwrap()).unwrap();
        let names: Vec<&str> = sc.roster.iter().map(String::as_str).collect();
        let checkpoint = soe_workloads::pairs::group_checkpoints(&names).remove(i);
        let direct =
            try_run_single(Box::new(checkpoint.into_trace()), &scenario_run_config(sc)).unwrap();
        assert_eq!(
            serde_json::to_string(&served.singles[i]).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "thread {i} of {:?}",
            sc.roster
        );
    }

    #[test]
    fn a_cached_reference_equals_a_direct_single_thread_run() {
        // All three scenarios run gcc at stream position 0, under
        // different policies, targets, co-runners and slots: the later
        // two read gcc's reference from the cache, measured in slot 0,
        // and it must be the runner's own answer for their own slot.
        let first = scenario(&["gcc", "swim"], "fairness", 0.5, 0);
        run_scenario(&first).unwrap();
        assert!(REFERENCES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&key_of(&first, 0)));
        assert_reference_is_direct(
            &scenario(&["gcc", "eon", "mcf"], "timeslice", 0.0, 5_000),
            0,
        );
        let relocated = scenario(&["eon", "mcf", "gcc"], "fairness", 1.0, 0);
        assert_eq!(key_of(&relocated, 2), key_of(&first, 0));
        assert_reference_is_direct(&relocated, 2);
    }

    #[test]
    fn reference_key_covers_exactly_what_a_single_thread_run_reads() {
        let base = scenario(&["gcc", "swim"], "fairness", 0.5, 0);
        let key = key_of(&base, 0);
        // Knobs a NeverSwitch run never sees share the key, and so does
        // the slot: relocation leaves a single-thread run unchanged.
        for same in [
            scenario(&["gcc", "swim"], "fairness", 1.0, 0),
            scenario(&["gcc", "swim"], "timeslice", 0.0, 5_000),
            scenario(&["gcc", "swim"], "timeslice", 0.0, 2_000),
            scenario(&["gcc", "eon", "mcf", "art"], "fairness", 0.0, 0),
        ] {
            assert_eq!(key_of(&same, 0), key, "{same:?}");
        }
        let slot = scenario(&["swim", "gcc"], "fairness", 0.5, 0);
        assert_eq!(key_of(&slot, 1), key, "slot (address-space base)");
        let far = scenario(
            &["art", "eon", "mcf", "swim", "apsi", "lucas", "mgrid", "gcc"],
            "fairness",
            0.5,
            0,
        );
        assert_eq!(key_of(&far, 7), key, "slot 8");
        // Everything the run reads changes it.
        let mut warmup = base.clone();
        warmup.warmup_cycles += 1;
        let mut measure = base.clone();
        measure.measure_cycles += 1;
        let duplicate = scenario(&["gcc", "gcc"], "fairness", 0.5, 0);
        let profile = scenario(&["eon", "swim"], "fairness", 0.5, 0);
        assert_ne!(key_of(&warmup, 0), key, "warm-up window");
        assert_ne!(key_of(&measure, 0), key, "measurement window");
        assert_ne!(key_of(&duplicate, 1), key, "duplicate offset");
        assert_ne!(key_of(&profile, 0), key, "profile");
        let names = ["gcc", "swim"];
        let mut checkpoint = soe_workloads::pairs::group_checkpoints(&names).remove(0);
        let cfg = scenario_run_config(&base);
        assert_eq!(reference_key(&checkpoint, &cfg), key);
        let mut machine = cfg;
        machine.machine.mem_latency += 1;
        assert_ne!(reference_key(&checkpoint, &machine), key, "machine");
        checkpoint.profile.mem.cold_load_prob *= 1.5;
        assert_ne!(reference_key(&checkpoint, &cfg), key, "profile parameters");
    }

    #[test]
    fn reference_cache_stops_growing_at_its_cap() {
        let single = SingleRun {
            name: "gcc".to_string(),
            retired: 1,
            cycles: 2,
            ipc_st: 0.5,
            l2_misses: 0,
            ipm: 1.0,
        };
        let mut cache = BTreeMap::new();
        for i in 0..REFERENCE_CACHE_CAP + 10 {
            remember(&mut cache, format!("k{i}"), &single);
        }
        assert_eq!(cache.len(), REFERENCE_CACHE_CAP);
        assert!(cache.contains_key("k0"));
        assert!(!cache.contains_key(&format!("k{REFERENCE_CACHE_CAP}")));
    }

    #[test]
    fn run_scenario_rejects_what_the_request_check_rejects() {
        for (roster, policy, field) in [
            (&["gcc"][..], "fairness", "scenario.roster"),
            (&["gcc", "no-such-benchmark"], "fairness", "scenario.roster"),
            (&["gcc", "eon"], "timeslice", "scenario.timeslice_cycles"),
        ] {
            let sc = scenario(roster, policy, 0.5, 0);
            let err = run_scenario(&sc).expect_err("an invalid scenario must not run");
            assert!(err.contains(field), "{err:?} does not name {field}");
        }
    }
}
