//! End-to-end robustness of the `soe-serve` service: exactly-once
//! crash recovery (SIGKILL mid-load + `--resume`), graceful SIGTERM
//! drain, DRR fairness versus the unbounded-FIFO starvation baseline,
//! typed rejection of malformed input, and the warmup watchdog.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use soe_repro::core::serve::{
    run_scenario, serve, QueueDiscipline, Scenario, ServeConfig, SloReport,
};
use soe_repro::core::{supervise_call, FailureKind, SuperviseOptions};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soe-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One line of the `soe-serve/v1` protocol: a two-thread fairness
/// scenario at the given window sizing.
fn req(id: &str, client: &str, roster: &str, warmup: u64, measure: u64) -> String {
    let names: Vec<String> = roster.split(':').map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"proto\":\"soe-serve/v1\",\"id\":\"{id}\",\"client\":\"{client}\",\
         \"scenario\":{{\"roster\":[{}],\"policy\":\"fairness\",\"f\":0.5,\
         \"warmup_cycles\":{warmup},\"measure_cycles\":{measure}}}}}",
        names.join(",")
    )
}

// ----------------------------------------------------------------------
// in-process: fairness, validation, memoization
// ----------------------------------------------------------------------

/// 1 hog flooding 16 requests ahead of 3 polite clients with 4 each —
/// identical cost per request, so fair service is exact interleaving.
fn hog_load() -> String {
    let mut lines = String::new();
    for k in 0..16 {
        lines.push_str(&req(&format!("hog-{k}"), "hog", "gcc:swim", 5_000, 10_000));
        lines.push('\n');
    }
    for c in 0..3 {
        for k in 0..4 {
            lines.push_str(&req(
                &format!("c{c}-{k}"),
                &format!("c{c}"),
                "gcc:swim",
                5_000,
                10_000,
            ));
            lines.push('\n');
        }
    }
    lines
}

fn run_in_process(input: &str, discipline: QueueDiscipline) -> SloReport {
    let mut cfg = ServeConfig::new();
    cfg.workers = 1;
    cfg.capacity = 4;
    // One request costs (5k + 10k) * (2 threads + 1) = 45k units.
    cfg.quantum = 45_000.0;
    cfg.discipline = discipline;
    let mut out: Vec<u8> = Vec::new();
    let outcome = serve(Cursor::new(input.as_bytes().to_vec()), &mut out, &cfg, None).unwrap();
    outcome.report
}

#[test]
fn drr_contains_the_hog_where_fifo_starves() {
    let input = hog_load();
    let drr = run_in_process(&input, QueueDiscipline::DeficitRoundRobin);
    let fifo = run_in_process(&input, QueueDiscipline::UnboundedFifo);

    // DRR: the hog's overflow is shed with backpressure and completions
    // stay near-equal across clients.
    assert!(drr.shed > 0, "bounded queues must shed the hog's flood");
    assert!(
        drr.jain_fairness >= 0.9,
        "DRR jain {:.3} (report: {drr:?})",
        drr.jain_fairness
    );
    for c in drr.clients.iter().filter(|c| c.client.starts_with('c')) {
        assert_eq!(
            c.completed, 4,
            "polite client {} starved under DRR",
            c.client
        );
        assert_eq!(c.shed, 0, "polite client {} shed under DRR", c.client);
    }

    // FIFO: nothing sheds, the hog monopolizes completions, and polite
    // requests wait behind its entire backlog.
    assert_eq!(fifo.shed, 0, "the FIFO baseline never sheds");
    assert!(
        fifo.jain_fairness < 0.7,
        "FIFO jain {:.3} should expose the hog",
        fifo.jain_fairness
    );
    let polite_p99 = |r: &SloReport| -> f64 {
        r.clients
            .iter()
            .filter(|c| c.client.starts_with('c'))
            .map(|c| c.p99_queue_wait)
            .fold(0.0, f64::max)
    };
    assert!(
        polite_p99(&fifo) > polite_p99(&drr),
        "polite p99 queue wait: fifo {:.0} must exceed drr {:.0}",
        polite_p99(&fifo),
        polite_p99(&drr)
    );
}

#[test]
fn malformed_input_gets_typed_errors_never_a_crash() {
    let good = req("ok-1", "alice", "gcc:swim", 5_000, 10_000);
    let input = [
        good.as_str(),
        // Same id again: duplicate.
        good.as_str(),
        // Not JSON at all.
        "][ this is not json",
        // Wrong protocol tag (scenario omitted so parsing succeeds and
        // the protocol check is what rejects it).
        "{\"proto\":\"bogus/9\",\"id\":\"x\",\"client\":\"alice\"}",
        // Well-formed JSON, invalid field (unknown benchmark).
        "{\"proto\":\"soe-serve/v1\",\"id\":\"bad-bench\",\"client\":\"alice\",\
         \"scenario\":{\"roster\":[\"gcc\",\"nonesuch\"],\"policy\":\"fairness\",\
         \"f\":0.5,\"warmup_cycles\":1000,\"measure_cycles\":20000}}",
    ]
    .join("\n");

    let mut cfg = ServeConfig::new();
    cfg.workers = 1;
    let mut out: Vec<u8> = Vec::new();
    let outcome = serve(Cursor::new(input.into_bytes()), &mut out, &cfg, None).unwrap();
    assert_eq!(outcome.report.served, 1);
    assert_eq!(outcome.report.rejected, 4);
    assert_eq!(outcome.pending, 0);

    let text = String::from_utf8(out).unwrap();
    let errors: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"error\""))
        .collect();
    assert_eq!(errors.len(), 4, "{text}");
    for code in [
        "\"code\":\"duplicate\"",
        "\"code\":\"parse\"",
        "\"code\":\"proto\"",
        "\"code\":\"field\"",
    ] {
        assert!(
            errors.iter().any(|l| l.contains(code)),
            "missing {code} in {errors:?}"
        );
    }
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"type\":\"result\""))
            .count(),
        1
    );
}

#[test]
fn identical_scenarios_are_memoized_with_identical_results() {
    let dir = tmp_dir("memo");
    let input = [
        req("first", "alice", "gcc:swim", 5_000, 10_000),
        req("second", "bob", "gcc:swim", 5_000, 10_000),
    ]
    .join("\n");
    let mut cfg = ServeConfig::new();
    cfg.workers = 1;
    cfg.memo_dir = Some(dir.join("cache"));
    let mut out: Vec<u8> = Vec::new();
    serve(Cursor::new(input.into_bytes()), &mut out, &cfg, None).unwrap();
    let text = String::from_utf8(out).unwrap();
    let payload = |id: &str| -> String {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_default();
        line.split_once("\"result\":")
            .map(|(_, p)| p.to_string())
            .unwrap_or_default()
    };
    assert!(!payload("first").is_empty());
    assert_eq!(
        payload("first"),
        payload("second"),
        "the memoized result must be byte-identical to the computed one"
    );
    let entries = std::fs::read_dir(dir.join("cache")).unwrap().count();
    assert_eq!(entries, 1, "one scenario, one cache entry");
}

#[test]
fn watchdog_fires_during_warmup() {
    // A scenario whose warmup alone takes far longer than the watchdog:
    // the supervisor must cancel it and quarantine, not hang, and the
    // simulation must have stopped by the time the call returns.
    let sc = Scenario {
        roster: vec!["gcc".to_string(), "swim".to_string()],
        policy: "fairness".to_string(),
        f: 0.5,
        timeslice_cycles: 0,
        warmup_cycles: 100_000_000,
        measure_cycles: 10_000,
    };
    let mut opts = SuperviseOptions::quiet(1);
    opts.retries = 0;
    opts.timeout = Some(Duration::from_millis(150));
    let ended = AtomicBool::new(false);
    let attempt = || {
        let result = run_scenario(&sc);
        ended.store(true, Ordering::SeqCst);
        result
    };
    let wall = Instant::now();
    let result = supervise_call("req/warmup-hang", 0, &opts, &attempt);
    let elapsed = wall.elapsed();
    assert!(
        ended.load(Ordering::SeqCst),
        "the timed-out simulation was still running when supervise_call returned"
    );
    let q = result.expect_err("a 100M-cycle warmup cannot beat a 150ms watchdog");
    assert_eq!(q.failures.len(), 1);
    assert_eq!(q.failures[0].kind, FailureKind::TimedOut);
    assert!(q.failures[0].message.contains("cancelled"), "{q}");
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
}

// ----------------------------------------------------------------------
// subprocess: kill -9 recovery and SIGTERM drain
// ----------------------------------------------------------------------

fn spawn_serve(journal: &Path, resume: bool, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soe-serve"));
    cmd.arg("--journal")
        .arg(journal)
        .arg("--quiet")
        .args(["--capacity", "64"])
        .args(extra);
    if resume {
        cmd.arg("--resume");
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd.spawn().unwrap()
}

fn result_lines(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"type\":\"result\"")) {
        let id = line
            .split_once("\"id\":\"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(id, _)| id.to_string())
            .unwrap_or_default();
        let prev = map.insert(id.clone(), line.to_string());
        assert!(prev.is_none(), "request {id} answered twice in one stream");
    }
    map
}

fn load(n: usize) -> String {
    (0..n)
        .map(|k| {
            let client = format!("c{}", k % 2);
            req(
                &format!("{client}-{k}"),
                &client,
                "gcc:swim",
                20_000,
                60_000,
            ) + "\n"
        })
        .collect()
}

#[test]
fn sigkill_mid_load_then_resume_answers_exactly_once_byte_identical() {
    let dir = tmp_dir("kill");
    let input = load(14);

    // Reference: the same stream served without interruption.
    let mut reference = spawn_serve(&dir.join("ref.log"), false, &["--workers", "2"]);
    reference
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = reference.wait_with_output().unwrap();
    assert!(out.status.success());
    let expected = result_lines(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(expected.len(), 14);

    // Victim: SIGKILL as soon as three results are out — mid-load, with
    // requests accepted, in flight, and queued.
    let journal = dir.join("victim.log");
    let mut victim = spawn_serve(&journal, false, &["--workers", "2"]);
    victim
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let mut seen = 0;
    let mut reader = BufReader::new(victim.stdout.take().unwrap());
    let mut line = String::new();
    while seen < 3 {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        if line.contains("\"type\":\"result\"") {
            seen += 1;
        }
    }
    victim.kill().unwrap();
    let _ = victim.wait();

    // Resume: the journal replays answered requests verbatim and
    // re-runs the rest — every accepted request answered exactly once,
    // byte-identical to the uninterrupted run.
    let mut resumed = spawn_serve(&journal, true, &["--workers", "2"]);
    drop(resumed.stdin.take());
    let out = resumed.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let replayed = result_lines(&text);
    assert_eq!(
        replayed, expected,
        "resumed stream must be byte-identical to the uninterrupted run"
    );
    let drain = text
        .lines()
        .find(|l| l.contains("\"type\":\"drain\""))
        .expect("resume session must end with a drain line");
    assert!(drain.contains("\"pending\":0"), "{drain}");
}

#[test]
fn sigterm_finishes_in_flight_and_journals_the_rest() {
    let dir = tmp_dir("sigterm");
    let input = load(8);
    let journal = dir.join("graceful.log");

    let mut child = spawn_serve(&journal, false, &["--workers", "1"]);
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    // Wait for the first result so work is genuinely in progress.
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "stream ended early"
        );
        if line.contains("\"type\":\"result\"") {
            break;
        }
    }
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(ok.success());

    // Graceful: the stream ends with a drain line, pending work stays
    // journaled, and the exit is clean.
    let mut rest = String::new();
    let mut text = line.clone();
    loop {
        rest.clear();
        if reader.read_line(&mut rest).unwrap() == 0 {
            break;
        }
        text.push_str(&rest);
    }
    let status = child.wait().unwrap();
    assert!(status.success(), "SIGTERM must exit cleanly, got {status}");
    let drain = text
        .lines()
        .last()
        .filter(|l| l.contains("\"type\":\"drain\""))
        .expect("last line must be the drain summary")
        .to_string();
    let served_before = result_lines(&text).len();
    assert!(
        served_before < 8,
        "SIGTERM landed too late to leave pending work"
    );
    assert!(!drain.contains("\"pending\":0"), "{drain}");

    // The next session serves everything exactly once.
    let mut resumed = spawn_serve(&journal, true, &["--workers", "1"]);
    drop(resumed.stdin.take());
    let out = resumed.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(result_lines(&text).len(), 8);
    assert!(
        text.lines()
            .last()
            .is_some_and(|l| l.contains("\"pending\":0")),
        "resume must clear the backlog"
    );
}
