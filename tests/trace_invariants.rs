//! Trace-stream invariants over real simulations: the properties the
//! tracer and the instrumentation promise by construction, checked
//! against captured runs rather than synthetic event lists.
//!
//! * events come out in non-decreasing cycle order;
//! * per thread, switch-out and switch-in strictly alternate;
//! * every demand L2 miss has exactly one matching fill;
//! * two identical runs serialize to byte-identical traces, at any
//!   worker count;
//! * tracing never perturbs the simulation (the traced run's metrics
//!   equal the untraced run's);
//! * the checker itself rejects corrupted streams (self-check).

mod common;

use common::traced_run;
use proptest::prelude::*;
use soe_core::obs::{check_events, check_jsonl, trace_jsonl};
use soe_core::pool::{run_jobs, Job};
use soe_core::runner::{run_spec, RunConfig, RunSpec};
use soe_core::{PolicyFactory, SingleRun};
use soe_model::FairnessLevel;
use soe_sim::obs::{EventKind, Trace, TraceConfig, Tracer};
use soe_sim::ThreadId;
use soe_workloads::Pair;

/// A short-but-real sizing: one warm-up Δ plus eight measured windows.
fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 100_000;
    cfg.measure_cycles = 400_000;
    cfg
}

/// Synthetic single-thread references: the traced runs only use them
/// as IPC denominators, which no trace invariant depends on.
fn fake_singles(names: &[&str]) -> Vec<SingleRun> {
    names
        .iter()
        .map(|n| SingleRun {
            name: n.to_string(),
            retired: 1_000_000,
            cycles: 1_000_000,
            ipc_st: 1.0,
            l2_misses: 1_000,
            ipm: 1_000.0,
        })
        .collect()
}

fn capture(f: FairnessLevel) -> Trace {
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    traced_run(&pair, f, &fake_singles(&[pair.a, pair.b]), &cfg()).1
}

#[test]
fn captured_trace_satisfies_every_stream_invariant() {
    let traced = capture(FairnessLevel::HALF);
    assert!(!traced.events.is_empty(), "the run must emit events");
    assert_eq!(traced.dropped, 0, "default capacity must suffice");
    let summary = check_events(&traced).expect("invariants hold");
    // The run actually exercised the instrumented paths.
    for kind in [
        "switch_in",
        "switch_out",
        "l2_miss",
        "l2_fill",
        "retire_sample",
    ] {
        assert!(
            summary.by_kind.get(kind).copied().unwrap_or(0) > 0,
            "expected {kind} events, got {:?}",
            summary.by_kind
        );
    }
}

#[test]
fn cycles_are_monotone_and_switches_alternate() {
    let traced = capture(FairnessLevel::HALF);
    let mut prev = 0;
    // Last switch direction per thread: true = in.
    let mut state = [None::<bool>; 2];
    for e in &traced.events {
        assert!(e.at >= prev, "cycle order: {} after {prev}", e.at);
        prev = e.at;
        let (tid, is_in) = match e.kind {
            EventKind::SwitchIn { tid } => (tid, true),
            EventKind::SwitchOut { tid, .. } => (tid, false),
            _ => continue,
        };
        assert_ne!(
            state[tid.index()],
            Some(is_in),
            "thread {tid} repeated a switch-{} at cycle {}",
            if is_in { "in" } else { "out" },
            e.at
        );
        state[tid.index()] = Some(is_in);
    }
}

#[test]
fn every_l2_miss_is_paired_with_a_fill() {
    let traced = capture(FairnessLevel::HALF);
    assert_eq!(traced.dropped, 0);
    let mut outstanding = std::collections::BTreeMap::<u64, i64>::new();
    let (mut misses, mut fills) = (0u64, 0u64);
    for e in &traced.events {
        match e.kind {
            EventKind::L2Miss { line } => {
                misses += 1;
                *outstanding.entry(line).or_insert(0) += 1;
            }
            EventKind::L2Fill { line } => {
                fills += 1;
                let n = outstanding.entry(line).or_insert(0);
                *n -= 1;
                assert!(*n >= 0, "fill of line {line:#x} precedes its miss");
            }
            _ => {}
        }
    }
    assert!(misses > 0, "a memory-bound pair must miss");
    assert_eq!(misses, fills, "every miss needs exactly one fill");
    assert!(outstanding.values().all(|n| *n == 0));
}

#[test]
fn two_identical_runs_produce_byte_identical_traces() {
    let names = ["swim", "eon"];
    let a = trace_jsonl(&capture(FairnessLevel::HALF), &names);
    let b = trace_jsonl(&capture(FairnessLevel::HALF), &names);
    assert!(a == b, "identical runs must serialize identically");
}

#[test]
fn traces_are_byte_identical_across_worker_counts() {
    // Two independent captures dispatched through the worker pool at 1
    // and then 2 workers: scheduling must not leak into any trace.
    let capture_jobs = || {
        vec![
            Job::new("trace-half", FairnessLevel::HALF),
            Job::new("trace-quarter", FairnessLevel::QUARTER),
        ]
    };
    let serialize = |f: &FairnessLevel| trace_jsonl(&capture(*f), &["swim", "eon"]);
    let serial = run_jobs(capture_jobs(), 1, serialize);
    let pooled = run_jobs(capture_jobs(), 2, serialize);
    assert_eq!(serial.len(), pooled.len());
    for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
        assert!(a == b, "job {i}: --jobs 1 and --jobs 2 traces differ");
    }
}

/// Over every registered discipline at 2 and 4 threads: the traced
/// run reports exactly the untraced run's metrics, and its trace passes
/// every stream invariant.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let factory = PolicyFactory::builtin();
    let roster = ["swim", "eon", "art", "gcc"];
    for policy in factory.names() {
        for names in [&roster[..2], &roster[..]] {
            let n = names.len();
            let mut cfg = cfg();
            // Every thread must fit in each Δ window.
            cfg.fairness.max_cycles_quota = cfg
                .fairness
                .max_cycles_quota
                .min(cfg.fairness.delta / n as u64);
            let run = |trace| {
                let mut spec = RunSpec::named(&factory, &policy, names, FairnessLevel::HALF, &cfg)
                    .unwrap_or_else(|e| panic!("{policy}/{n}: {e}"));
                spec.trace = trace;
                run_spec(spec, &fake_singles(names)).unwrap_or_else(|e| panic!("{policy}/{n}: {e}"))
            };
            let (traced, untraced) = (run(Some(TraceConfig::default())), run(None));
            assert!(
                untraced.trace.is_none(),
                "{policy}/{n}: untraced run traced"
            );
            assert_eq!(
                traced.run, untraced.run,
                "{policy}/{n}: tracing must be observation-only"
            );
            let trace = traced.trace.expect("a traced run records its trace");
            check_events(&trace).unwrap_or_else(|e| panic!("{policy}/{n}: {e}"));
        }
    }
}

#[test]
fn checker_rejects_a_corrupted_real_trace() {
    let traced = capture(FairnessLevel::HALF);
    let good = trace_jsonl(&traced, &["swim", "eon"]);
    check_jsonl(&good).expect("the capture itself validates");
    // Swap the first and last event lines: same events, same counts,
    // but the cycle order breaks.
    let mut lines: Vec<&str> = good.lines().collect();
    let last = lines.len() - 1;
    lines.swap(1, last);
    assert!(
        check_jsonl(&lines.join("\n")).is_err(),
        "reordered events must be caught"
    );
    // Truncation is caught by the header's declared event count.
    let truncated: Vec<&str> = good.lines().take(10).collect();
    assert!(check_jsonl(&truncated.join("\n")).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recorder's ordering and bounding hold for arbitrary emission
    /// patterns: interleaved future-stamped events, watermark advances
    /// and tiny capacities.
    #[test]
    fn tracer_orders_and_bounds_arbitrary_emissions(
        capacity in 1usize..32,
        ops in prop::collection::vec((0u64..1_000, 0u64..400, 0u8..2), 1..200),
    ) {
        let mut tracer = Tracer::new(TraceConfig {
            capacity,
            retire_sample_period: 10_000,
        });
        let mut emitted = 0u64;
        let mut watermark = 0;
        for (at, lead, kind) in ops {
            // Advance roughly monotonically, emitting at or after the
            // watermark (as the instrumented simulator does).
            watermark = watermark.max(at);
            tracer.advance(watermark, 0);
            let stamp = watermark + lead;
            match kind {
                0 => tracer.emit(stamp, EventKind::L2Miss { line: stamp }),
                _ => tracer.emit(stamp, EventKind::SwitchIn { tid: ThreadId::new(0) }),
            }
            emitted += 1;
        }
        let trace = tracer.take();
        prop_assert!(trace.events.len() <= capacity, "capacity bound");
        prop_assert_eq!(trace.events.len() as u64 + trace.dropped, emitted);
        for w in trace.events.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "released order");
        }
    }
}
