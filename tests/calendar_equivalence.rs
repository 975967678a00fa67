//! Equivalence goldens for the calendar engine: the global-event-calendar
//! `Machine` must reproduce, byte for byte, what the pre-refactor
//! stepping engine produced in cycle-exact mode on the paper's pair
//! roster. The constants below were captured from the stepping engine
//! (with `exact_policy_events = true`, the mode that survived the
//! refactor) immediately before the per-cycle polling loop was deleted —
//! they pin `PairRun` metrics, single-thread references, and the traced
//! event stream.
//!
//! To refresh after a *deliberate* behaviour change, run
//! `GOLDEN_PRINT=1 cargo test -p soe-repro --test calendar_equivalence -- --nocapture`
//! and paste the printed values.

mod common;

use common::{fairness_run, traced_run};
use soe_core::runner::{try_run_single, RunConfig};
use soe_model::FairnessLevel;
use soe_workloads::pairs::paper_pairs;

/// FNV-1a 64 over bytes: stable, dependency-free drift detector.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Equivalence sizing: small enough to run on every `cargo test`, large
/// enough that every pair crosses estimator recalculations, quota
/// expiries and thousands of switches.
fn cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 150_000;
    cfg.fairness.delta = 25_000;
    cfg.fairness.max_cycles_quota = 10_000;
    cfg
}

/// One digest per pair over the JSON of both single-thread references
/// and the F = 0 and F = 1/2 pair runs.
fn pair_digest(pair: &soe_workloads::Pair) -> u64 {
    let cfg = cfg();
    let (a, b) = pair.traces();
    let sa = try_run_single(Box::new(a), &cfg).expect("single a");
    let sb = try_run_single(Box::new(b), &cfg).expect("single b");
    let singles = [sa, sb];
    let f0 = fairness_run(pair, FairnessLevel::NONE, &singles, &cfg);
    let fh = fairness_run(pair, FairnessLevel::HALF, &singles, &cfg);
    let mut bytes = Vec::new();
    for json in [
        serde_json::to_string(&singles[0]).expect("json"),
        serde_json::to_string(&singles[1]).expect("json"),
        serde_json::to_string(&f0).expect("json"),
        serde_json::to_string(&fh).expect("json"),
    ] {
        bytes.extend_from_slice(json.as_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn calendar_engine_matches_pre_refactor_stepping_engine() {
    let pairs = paper_pairs();
    assert_eq!(pairs.len(), GOLDEN.len(), "paper roster changed size");
    let mut failures = Vec::new();
    for (pair, (label, want)) in pairs.iter().zip(GOLDEN) {
        assert_eq!(pair.label(), *label, "paper roster changed order");
        let got = pair_digest(pair);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("    (\"{}\", {:#018x}),", pair.label(), got);
        } else if got != *want {
            failures.push(format!("{label}: {got:#018x} != {want:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "PairRun output diverged from the pre-refactor stepping engine:\n{}",
        failures.join("\n")
    );
}

/// The traced runs additionally pin the cycle-level event stream — the
/// strongest oracle available: every switch, L2 miss/fill, estimator
/// update and quota expiry must land on the same cycle as in the
/// stepping engine.
#[test]
fn calendar_engine_trace_stream_matches_stepping_engine() {
    let cfg = cfg();
    for (name_a, name_b, want_events, want_digest) in TRACED_GOLDEN {
        let pair = soe_workloads::Pair {
            a: name_a,
            b: name_b,
        };
        let (a, b) = pair.traces();
        let singles = [
            try_run_single(Box::new(a), &cfg).expect("single a"),
            try_run_single(Box::new(b), &cfg).expect("single b"),
        ];
        let (_, trace) = traced_run(&pair, FairnessLevel::HALF, &singles, &cfg);
        let stream = format!("{:?}", trace.events);
        let got = (trace.events.len() as u64, fnv1a(stream.as_bytes()));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!(
                "    (\"{}\", \"{}\", {}, {:#018x}),",
                name_a, name_b, got.0, got.1
            );
        } else {
            assert_eq!(
                got,
                (*want_events, *want_digest),
                "{}:{}: traced event stream diverged",
                name_a,
                name_b
            );
        }
    }
}

/// Captured from the pre-refactor stepping engine (cycle-exact mode).
const GOLDEN: &[(&str, u64)] = &[
    ("gcc:eon", 0xd8d48ba818b1db93),
    ("galgel:gcc", 0x61869e5b205550ae),
    ("apsi:swim", 0x6f61ddf1e0357427),
    ("lucas:applu", 0x0316d25d4410d4c5),
    ("mcf:gzip", 0x53596ca71ef59c95),
    ("art:eon", 0x40821c8df4f8a1e3),
    ("swim:bzip2", 0x111d9dde453ebc80),
    ("mcf:mgrid", 0x7bbf22453dff7b8f),
    ("gcc:gcc", 0x64c5c74d907035e8),
    ("eon:eon", 0x05a1543d7a8ab6ac),
    ("bzip2:bzip2", 0xf5d4d7a27ad63af0),
    ("mgrid:mgrid", 0x737a1aade3f88b82),
    ("swim:swim", 0x110fb80f3e34acaf),
    ("mcf:mcf", 0xb1e2828e459b24ce),
    ("applu:applu", 0x5b1d6e41fe3ac3d7),
    ("art:art", 0xf88090e0d89f6390),
];

/// (pair, events, FNV-1a of the debug-formatted event stream), captured
/// from the pre-refactor stepping engine (cycle-exact mode).
const TRACED_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("gcc", "eon", 5752, 0x1b570b6b0831137f),
    ("swim", "bzip2", 9767, 0x07ea142329342a81),
];
