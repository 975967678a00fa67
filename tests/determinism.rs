//! Reproducibility: identical configurations must produce identical
//! results, and LIT-style checkpoints must resume exactly.

use soe_core::FairnessPolicy;
use soe_model::FairnessLevel;
use soe_sim::{Machine, MachineConfig, SwitchOnEvent, TraceSource};
use soe_workloads::{spec, Checkpoint, Pair, SyntheticTrace};

#[test]
fn identical_runs_produce_identical_statistics() {
    let run = || {
        let pair = Pair {
            a: "art",
            b: "gzip",
        };
        let mut m = Machine::new(
            MachineConfig::default(),
            pair.boxed_traces(),
            Box::new(FairnessPolicy::paper(2, FairnessLevel::HALF)),
        );
        m.run_cycles(600_000);
        (
            m.stats().clone(),
            m.hierarchy().stats(),
            m.predictor_stats(),
        )
    };
    let (s1, h1, p1) = run();
    let (s2, h2, p2) = run();
    assert_eq!(s1, s2, "machine stats must be bit-identical");
    assert_eq!(h1, h2, "hierarchy stats must be bit-identical");
    assert_eq!(p1, p2, "predictor stats must be bit-identical");
}

#[test]
fn fast_forward_does_not_change_results() {
    let run = |ff: bool| {
        let cfg = MachineConfig {
            fast_forward: ff,
            ..MachineConfig::default()
        };
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let mut m = Machine::new(cfg, pair.boxed_traces(), Box::new(SwitchOnEvent::new()));
        m.run_cycles(300_000);
        m.stats().clone()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn checkpoint_resume_matches_continuous_stream() {
    let t = SyntheticTrace::new(spec::profile("bzip2").unwrap(), 0x7_0000_0000, 0);
    let cp = Checkpoint::capture(&t, 123_456);
    let json = cp.to_json().expect("serialize");
    let resumed = Checkpoint::from_json(&json).expect("parse").into_trace();
    for k in (0..50_000).step_by(997) {
        assert_eq!(resumed.uop_at(k), t.uop_at(123_456 + k));
    }
}

/// The full quick-sizing experiment matrix on `workers` workers,
/// serialized to JSON.
fn matrix_json(workers: usize) -> String {
    let cfg = soe_core::runner::RunConfig::quick();
    serde_json::to_string(&soe_bench::experiments::run_matrix(&cfg, workers))
        .expect("serialize result set")
}

/// The serial matrix JSON, computed once per test process and shared by
/// the two matrix tests below so each pays only for its own extra runs.
fn serial_matrix_json() -> &'static str {
    static SERIAL: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SERIAL.get_or_init(|| matrix_json(1))
}

#[test]
fn repeated_matrix_runs_produce_identical_result_set_json() {
    // Guards the no-unordered-collections invariant end to end: two
    // back-to-back runs of the same matrix in the same process must
    // serialize to byte-identical JSON. HashMap's per-instance hash
    // seed would make any iteration-order dependence visible here.
    assert_eq!(
        serial_matrix_json(),
        matrix_json(1),
        "ResultSet JSON diverged between runs"
    );
}

#[test]
fn parallel_matrix_is_bit_identical_to_serial() {
    // The acceptance bar for the job engine: the full quick-sizing
    // experiment matrix, serialized to JSON, must be byte-for-byte
    // identical whether run on 1, 2, or 3 workers. Every job derives its traces
    // from explicit seeds, so scheduling must not be observable.
    for workers in [2, 3] {
        assert_eq!(
            serial_matrix_json(),
            matrix_json(workers),
            "ResultSet JSON diverged at {workers} workers"
        );
    }
}

#[test]
fn offset_pairs_decorrelate_same_benchmark_threads() {
    // The 1M-instruction offset must actually change the instruction
    // stream the second thread sees at any given position.
    let pair = Pair {
        a: "mgrid",
        b: "mgrid",
    };
    let (a, b) = pair.traces();
    let differing = (0..10_000)
        .filter(|i| {
            let (ua, ub) = (a.uop_at(*i), b.uop_at(*i));
            ua.kind != ub.kind
                || ua.mem_addr.map(|x| x & 0xffff_ffff) != ub.mem_addr.map(|x| x & 0xffff_ffff)
        })
        .count();
    assert!(
        differing > 5_000,
        "streams too correlated: {differing}/10000 differ"
    );
}
