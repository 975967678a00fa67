//! The cross-policy conformance matrix: every discipline registered in
//! [`PolicyFactory::builtin`] must pass the same machine-checked
//! contract at roster sizes 2, 4 and 8 — trace invariants, forced-switch
//! occupancy floors, per-policy bookkeeping conservation, two-run and
//! serial==parallel determinism, and fast-forward invariance. The `registry_and_matrix_agree` guard pins the macro's
//! policy list to the registry, so *registering a new policy without
//! adding it to the matrix fails `cargo test`* — a policy earns its way
//! into the zoo by passing the contract, not by compiling.

use std::cell::RefCell;
use std::rc::Rc;

use soe_core::obs::check_events;
use soe_core::runner::{run_spec, RunConfig, RunSpec};
use soe_core::{
    FairnessConfig, FairnessPolicy, IslipPolicy, PolicyFactory, PolicySpec, SingleRun,
    UsageFairPolicy, WdrrPolicy,
};
use soe_model::FairnessLevel;
use soe_sim::obs::{EventKind, SharedTracer, Trace, TraceConfig, Tracer};
use soe_sim::{
    Machine, MachineConfig, MachineStats, SimError, SwitchPolicy, SwitchReason, TraceSource,
};
use soe_workloads::pairs::group_traces;

/// Eight-thread roster; every contract cell uses a prefix. Mixes
/// memory-bound hogs with compute-bound victims so enforcement has
/// something to enforce at every size.
const ROSTER: [&str; 8] = [
    "swim", "eon", "art", "gcc", "lucas", "mcf", "applu", "mgrid",
];

/// Cycles measured per contract cell (after `20_000 × n` warm-up).
const MEASURE: u64 = 160_000;

/// Contract sizing: small Δ and quota so a 160 k-cycle window sees many
/// windows and forced switches; the quota is scaled so every thread
/// fits in each window at any roster size.
fn sizing(n: usize, f: FairnessLevel) -> FairnessConfig {
    let mut cfg = RunConfig::quick().fairness;
    cfg.target = f;
    cfg.delta = 12_000;
    cfg.max_cycles_quota = 4_000.min(cfg.delta / (n as u64 + 1));
    cfg.min_quota_cycles = 300;
    cfg.record_history = false;
    cfg
}

fn spec(n: usize, f: FairnessLevel) -> PolicySpec {
    PolicySpec::new(n, f, sizing(n, f))
}

/// One driven contract run with the policy still attached: stats and
/// trace cover exactly the measurement window, and the machine is
/// returned so oracles can downcast the post-run policy state.
struct ContractRun {
    stats: MachineStats,
    trace: Trace,
    machine: Machine,
    measure_start: u64,
}

fn run_contract(policy: &str, n: usize, f: FairnessLevel, fast_forward: bool) -> ContractRun {
    let factory = PolicyFactory::builtin();
    let built = factory
        .build(policy, &spec(n, f))
        .unwrap_or_else(|e| panic!("{policy} must build at {n} threads: {e}"));
    let mut mc = MachineConfig::test_config();
    mc.fast_forward = fast_forward;
    let traces: Vec<Box<dyn TraceSource>> = group_traces(&ROSTER[..n])
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn TraceSource>)
        .collect();
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let mut m = Machine::new(mc, traces, built);
    m.attach_tracer(Rc::clone(&tracer));
    m.run_cycles(20_000 * n as u64);
    m.reset_stats();
    let measure_start = m.now();
    m.policy_mut().on_measure_start(measure_start);
    tracer.borrow_mut().restart(measure_start);
    m.run_cycles(MEASURE);
    let stats = m.stats().clone();
    let trace = tracer.borrow_mut().take();
    ContractRun {
        stats,
        trace,
        machine: m,
        measure_start,
    }
}

/// Per-thread switch-in→switch-out occupancy episodes from the trace.
/// The leading episode (running at the restart) is anchored at
/// `measure_start`; a trailing open episode is dropped, matching the
/// policies' own accounting.
fn episodes(trace: &Trace, measure_start: u64) -> Vec<(u8, u64, SwitchReason)> {
    let mut out = Vec::new();
    let mut last_in: Option<(u8, u64)> = None;
    let mut leading = true;
    for e in &trace.events {
        match e.kind {
            EventKind::SwitchIn { tid } => {
                last_in = Some((tid.index() as u8, e.at));
                leading = false;
            }
            EventKind::SwitchOut { tid, reason } => {
                if let Some((in_tid, at)) = last_in.take() {
                    assert_eq!(
                        in_tid,
                        tid.index() as u8,
                        "switch-out of a thread that was not switched in"
                    );
                    out.push((in_tid, e.at - at, reason));
                } else if leading {
                    out.push((tid.index() as u8, e.at - measure_start, reason));
                    leading = false;
                }
            }
            _ => {}
        }
    }
    out
}

fn retired_sum(stats: &MachineStats) -> u64 {
    stats.threads.iter().map(|t| t.retired).sum()
}

fn forced_sum(stats: &MachineStats) -> u64 {
    stats.threads.iter().map(|t| t.forced_switches).sum()
}

/// The full contract for one (policy, roster-size) cell.
fn assert_contract(policy: &str, n: usize) {
    let f = FairnessLevel::HALF;
    let r = run_contract(policy, n, f, true);

    // --- Trace invariants: monotone cycles, per-thread switch in/out
    // alternation, miss/fill pairing — the shared stream oracle.
    assert_eq!(r.trace.dropped, 0, "{policy}/{n}: trace ring overflowed");
    let summary = check_events(&r.trace)
        .unwrap_or_else(|e| panic!("{policy}/{n}: trace invariants violated: {e}"));
    assert!(summary.events > 0, "{policy}/{n}: empty trace");

    // --- Liveness: every discipline must switch, and every thread must
    // make progress within the window (no starvation).
    assert!(r.stats.total_switches > 0, "{policy}/{n}: never switched");
    for (i, t) in r.stats.threads.iter().enumerate() {
        assert!(
            t.retired > 0,
            "{policy}/{n}: thread {i} starved (0 retirements in {MEASURE} cycles)"
        );
    }

    // --- Forced-switch floor: no forced switch while the quota (time
    // slice) is unexpired. Occupancy of every forced episode must reach
    // the discipline's floor. Deficit-based disciplines (fairness,
    // wdrr) force at retirement boundaries with no cycle floor, so the
    // oracle applies to the slice/quota disciplines.
    let s = spec(n, f);
    let floor = match policy {
        "timeslice" | "islip" => Some(s.slice_cycles()),
        "ban" => Some(s.fairness.max_cycles_quota),
        _ => None,
    };
    if let Some(floor) = floor {
        let eps = for_drain_slack();
        for (tid, occ, reason) in episodes(&r.trace, r.measure_start) {
            if reason == SwitchReason::Forced {
                assert!(
                    occ + eps >= floor,
                    "{policy}/{n}: thread {tid} forced out after only {occ} cycles \
                     (floor {floor})"
                );
            }
        }
    }

    // --- Per-policy bookkeeping conservation, read back through the
    // machine's policy downcast.
    match policy {
        "islip" => {
            let p = downcast::<IslipPolicy>(&r.machine, policy);
            let switch_ins = r
                .trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::SwitchIn { .. }))
                .count() as u64;
            assert_eq!(
                p.grants(),
                switch_ins,
                "{policy}/{n}: grants must equal observed switch-ins"
            );
            let last_in = r.trace.events.iter().rev().find_map(|e| match e.kind {
                EventKind::SwitchIn { tid } => Some(tid.index()),
                _ => None,
            });
            if let Some(last) = last_in {
                assert_eq!(
                    p.grant_ptr(),
                    last,
                    "{policy}/{n}: pointer off the last grant"
                );
            }
        }
        "ban" => {
            let p = downcast::<UsageFairPolicy>(&r.machine, policy);
            let episode_cycles: u64 = episodes(&r.trace, r.measure_start)
                .iter()
                .map(|(_, occ, _)| occ)
                .sum();
            assert_eq!(
                p.occupied_total(),
                episode_cycles,
                "{policy}/{n}: accounted occupancy must equal traced episode cycles"
            );
            assert!(
                p.occupied_total() <= MEASURE,
                "{policy}/{n}: occupancy exceeds the window"
            );
            assert!(
                p.service().iter().all(|s| s.is_finite() && *s >= 0.0),
                "{policy}/{n}: service went non-finite or negative"
            );
        }
        "wdrr" => {
            let p = downcast::<WdrrPolicy>(&r.machine, policy);
            let hints: u64 = r.stats.threads.iter().map(|t| t.hint_switches).sum();
            assert_eq!(
                p.debited(),
                retired_sum(&r.stats) - hints,
                "{policy}/{n}: every retired instruction must be debited exactly once"
            );
            assert_eq!(
                p.forced_by_deficit() + p.forced_by_guard(),
                forced_sum(&r.stats),
                "{policy}/{n}: forced switches must all be accounted to a cause"
            );
            let cap = s.fairness.deficit_cap;
            for (i, (d, q)) in p.deficits().iter().zip(p.quanta()).enumerate() {
                assert!(
                    *d > -1.0 - 1e-9 && *d <= q * cap + 1e-9,
                    "{policy}/{n}: thread {i} deficit {d} outside (-1, cap×quantum {q}]"
                );
            }
        }
        "fairness" => {
            let p = downcast::<FairnessPolicy>(&r.machine, policy);
            // The mechanism's counters span warm-up too (they are its
            // long-lived state), so they bound the window's count from
            // above.
            assert!(
                p.forced_by_deficit() + p.forced_by_cycle_quota() >= forced_sum(&r.stats),
                "{policy}/{n}: machine saw more forced switches than the mechanism issued"
            );
        }
        "timeslice" => {} // stateless beyond the slice clock
        other => panic!("no conservation oracle for {other:?} — add one to join the zoo"),
    }

    // --- Fast-forward invariance: a tick-by-tick run and a jumping
    // run must be indistinguishable.
    // Every built-in implements `next_decision_at`, so this holds
    // unconditionally for the whole zoo.
    let tick = run_contract(policy, n, f, false);
    assert_eq!(
        tick.stats, r.stats,
        "{policy}/{n}: fast-forward changed the statistics"
    );
    assert_eq!(
        tick.trace, r.trace,
        "{policy}/{n}: fast-forward changed the trace"
    );

    // --- Two-run determinism through the public runner: byte-identical
    // PairRun JSON.
    let cfg = contract_run_config(n, f);
    let singles = fake_singles(n);
    let factory = PolicyFactory::builtin();
    let names = &ROSTER[..n];
    let run = || {
        RunSpec::named(&factory, policy, names, f, &cfg)
            .and_then(|spec| run_spec(spec, &singles))
            .unwrap_or_else(|e| panic!("{policy}/{n}: runner failed: {e}"))
            .run
    };
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a).expect("serialize"),
        serde_json::to_string(&b).expect("serialize"),
        "{policy}/{n}: two identical runs serialized differently"
    );
}

/// Switch drain can land the forced switch a drain-latency late in the
/// trace timeline; allow that much slack against the floor.
fn for_drain_slack() -> u64 {
    64
}

fn downcast<'a, T: 'static>(m: &'a Machine, policy: &str) -> &'a T {
    m.policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<T>())
        .unwrap_or_else(|| panic!("{policy} must expose its state via as_any"))
}

fn contract_run_config(n: usize, f: FairnessLevel) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.machine = MachineConfig::test_config();
    cfg.warmup_cycles = 20_000 * n as u64;
    cfg.measure_cycles = MEASURE;
    cfg.fairness = sizing(n, f);
    cfg
}

/// Synthetic single-thread references: determinism and error-path tests
/// only need consistent denominators, not measured ones.
fn fake_singles(n: usize) -> Vec<SingleRun> {
    ROSTER[..n]
        .iter()
        .map(|name| SingleRun {
            name: (*name).to_string(),
            retired: 1_000_000,
            cycles: 1_000_000,
            ipc_st: 1.0,
            l2_misses: 10_000,
            ipm: 100.0,
        })
        .collect()
}

/// Instantiates the 3-roster contract for one policy as a test module.
macro_rules! conformance {
    ($($modname:ident => $policy:literal),+ $(,)?) => {
        $(
            mod $modname {
                #[test]
                fn roster2() {
                    super::assert_contract($policy, 2);
                }
                #[test]
                fn roster4() {
                    super::assert_contract($policy, 4);
                }
                #[test]
                fn roster8() {
                    super::assert_contract($policy, 8);
                }
            }
        )+

        /// The macro's list, in registry (sorted) order.
        const MATRIX: &[&str] = &[$($policy),+];
    };
}

conformance! {
    ban => "ban",
    fairness => "fairness",
    islip => "islip",
    timeslice => "timeslice",
    wdrr => "wdrr",
}

/// Registering a policy without adding it to the conformance matrix is
/// a test failure: the registry and the macro list must agree exactly.
#[test]
fn registry_and_matrix_agree() {
    let names = PolicyFactory::builtin().names();
    assert_eq!(
        names, MATRIX,
        "policy registry and conformance matrix diverged — every registered \
         policy must appear in the conformance! macro above (and pass it)"
    );
}

/// Serial == parallel: the whole zoo at one roster size through the
/// job engine at 1 and 2 workers must serialize identically.
#[test]
fn zoo_results_identical_at_any_worker_count() {
    use soe_core::{supervise_jobs, Job, SuperviseOptions};

    let n = 4;
    let f = FairnessLevel::HALF;
    let cfg = contract_run_config(n, f);
    let singles = fake_singles(n);
    let names = PolicyFactory::builtin().names();
    let run_at = |workers: usize| {
        let jobs: Vec<Job<String>> = names
            .iter()
            .map(|p| Job::new(format!("zoo/{p}"), p.clone()))
            .collect();
        let singles = singles.clone();
        let run = move |p: &String| {
            let factory = PolicyFactory::builtin();
            RunSpec::named(&factory, p, &ROSTER[..n], f, &cfg)
                .and_then(|spec| run_spec(spec, &singles))
                .map(|out| out.run)
                .map_err(|e| e.to_string())
        };
        let opts = SuperviseOptions::quiet(workers);
        let report = supervise_jobs(jobs, &opts, run, |_, _| {});
        let failed = &report.quarantined;
        assert!(report.is_complete(), "zoo run failed: {failed:?}");
        let runs: Vec<_> = report.results.into_iter().flatten().collect();
        serde_json::to_string(&runs).expect("serialize")
    };
    assert_eq!(run_at(1), run_at(2), "worker count changed the results");
}

// ---------------------------------------------------------------------
// Typed-error paths of the multi-thread runner and the registry.
// ---------------------------------------------------------------------

/// The paper's mechanism for a 2-thread roster.
fn fairness_policy() -> Box<dyn SwitchPolicy> {
    PolicyFactory::builtin()
        .build("fairness", &spec(2, FairnessLevel::HALF))
        .expect("builds")
}

/// `spec` must fail, before running, with an `InvalidConfig` whose
/// message names every string in `wanted`.
fn expect_invalid(spec: Result<RunSpec, SimError>, singles: &[SingleRun], wanted: &[&str]) {
    match spec.and_then(|s| run_spec(s, singles)) {
        Err(SimError::InvalidConfig(msg)) => {
            for w in wanted {
                assert!(msg.contains(w), "unhelpful message: {msg}");
            }
        }
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("an invalid run must not run"),
    }
}

#[test]
fn singles_length_mismatch_is_a_typed_error() {
    let cfg = contract_run_config(2, FairnessLevel::HALF);
    let spec = RunSpec::roster(
        &ROSTER[..2],
        fairness_policy(),
        Some(FairnessLevel::HALF),
        cfg,
    );
    // 1 reference for a 2-thread roster
    let wanted = "1 single-thread reference(s) for a 2-thread roster";
    expect_invalid(spec, &fake_singles(1), &[wanted]);
}

#[test]
fn zero_thread_roster_is_a_typed_error_not_a_panic() {
    let cfg = contract_run_config(2, FairnessLevel::HALF);
    let spec = RunSpec::roster(&[], fairness_policy(), None, cfg);
    expect_invalid(spec, &[], &["at least one thread"]);
}

#[test]
fn unknown_benchmark_in_roster_is_a_typed_error() {
    let cfg = contract_run_config(2, FairnessLevel::HALF);
    let spec = RunSpec::roster(&["swim", "no-such-benchmark"], fairness_policy(), None, cfg);
    expect_invalid(spec, &fake_singles(2), &["no-such-benchmark"]);
}

#[test]
fn unknown_policy_through_the_runner_is_a_typed_error() {
    let cfg = contract_run_config(2, FairnessLevel::HALF);
    let factory = PolicyFactory::builtin();
    let spec = RunSpec::named(&factory, "lottery", &ROSTER[..2], FairnessLevel::HALF, &cfg);
    expect_invalid(spec, &fake_singles(2), &["lottery", "registered"]);
}
