//! Property-based tests of the simulator and workload generator: for any
//! generated workload profile and machine, the machine makes progress,
//! never wedges, and its counters stay mutually consistent.

use proptest::prelude::*;
use soe_core::runner::{run_spec, RunConfig, RunSpec};
use soe_core::{PolicyFactory, PolicySpec, SingleRun};
use soe_model::FairnessLevel;
use soe_sim::{Machine, MachineConfig, NeverSwitch, SwitchOnEvent, TraceSource};
use soe_workloads::{InstrMix, MemoryBehavior, Profile, SyntheticTrace};

fn profile_strategy() -> impl Strategy<Value = Profile> {
    (
        0u64..u64::MAX,
        0.05f64..0.4, // load
        0.0f64..0.2,  // store
        1.0f64..10.0, // dep dist
        0.5f64..1.0,  // predictability
        5u64..24,     // block len (>= 5: calling blocks are possible)
        8u64..512,    // code lines
        0.0f64..0.02, // cold load prob
        0.0f64..0.4,  // call block fraction
    )
        .prop_map(
            |(seed, load, store, dep, pred, block, code, cold, calls)| Profile {
                name: "prop".into(),
                seed,
                mix: InstrMix {
                    load,
                    store,
                    mul: 0.02,
                    div: 0.001,
                },
                mean_dep_dist: dep,
                branch_predictability: pred,
                block_len: block,
                code_lines: code,
                call_block_frac: calls,
                mem: MemoryBehavior {
                    hot_lines: 64,
                    warm_lines: 512,
                    cold_load_prob: cold,
                    warm_load_prob: 0.05,
                    cold_store_prob: cold / 4.0,
                },
                phases: Vec::new(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any generated single-thread workload runs without wedging and
    /// retires a plausible number of instructions.
    #[test]
    fn single_thread_always_progresses(profile in profile_strategy()) {
        let trace = SyntheticTrace::new(profile, 0x10_0000_0000, 0);
        let mut m = Machine::new(
            MachineConfig::test_config(),
            vec![Box::new(trace)],
            Box::new(NeverSwitch::new()),
        );
        m.run_cycles(60_000);
        let s = m.stats();
        prop_assert!(s.total_retired() > 0, "no retirement at all");
        let width = MachineConfig::test_config().pipeline.retire_width as u64;
        prop_assert!(s.total_retired() <= s.cycles * width);
    }

    /// Any generated two-thread SOE workload keeps both counters
    /// consistent: switches balance, and per-thread running cycles never
    /// exceed wall-clock.
    #[test]
    fn soe_pair_counters_are_consistent(
        pa in profile_strategy(),
        pb in profile_strategy(),
    ) {
        let a = SyntheticTrace::new(pa, 0x10_0000_0000, 0);
        let b = SyntheticTrace::new(pb, 0x20_0000_0000, 0);
        let mut m = Machine::new(
            MachineConfig::test_config(),
            vec![Box::new(a), Box::new(b)],
            Box::new(SwitchOnEvent::new()),
        );
        m.run_cycles(80_000);
        let s = m.stats();
        let per_thread: u64 = s.threads.iter().map(|t| t.switches()).sum();
        prop_assert_eq!(per_thread, s.total_switches);
        let running: u64 = s.threads.iter().map(|t| t.running_cycles).sum();
        prop_assert!(running <= s.cycles, "running {} > wall {}", running, s.cycles);
        for t in &s.threads {
            // Both conditional branches and returns can mispredict.
            prop_assert!(t.mispredicts <= t.branches + t.returns);
            // Paired within a block; the run may end mid-block.
            prop_assert!(t.calls.abs_diff(t.returns) <= 1, "calls/returns unpaired");
        }
        prop_assert!(s.measured_switches <= s.total_switches);
    }

    /// The trace generator's purity: re-reading any position yields the
    /// same micro-op, and memory ops always carry addresses.
    #[test]
    fn generated_uops_are_pure_and_well_formed(
        profile in profile_strategy(),
        idx in 0u64..5_000_000,
    ) {
        let t = SyntheticTrace::new(profile, 0x10_0000_0000, 0);
        let u1 = t.uop_at(idx);
        let u2 = t.uop_at(idx);
        prop_assert_eq!(u1, u2);
        if u1.kind.is_mem() {
            prop_assert!(u1.mem_addr.is_some());
        }
    }
}

/// Sizing for the cross-policy property runs: small Δ windows so even a
/// short measurement sees enforcement, quota scaled to fit every thread.
fn zoo_config(n: usize) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.machine = MachineConfig::test_config();
    cfg.warmup_cycles = 10_000 * n as u64;
    cfg.measure_cycles = 60_000;
    cfg.stall_window = None;
    cfg.fairness.delta = 10_000;
    cfg.fairness.max_cycles_quota = 3_000.min(cfg.fairness.delta / (n as u64 + 1));
    cfg.fairness.min_quota_cycles = 300;
    cfg.fairness.record_history = false;
    cfg
}

/// Synthetic single-thread references: the properties only need
/// consistent denominators, not measured ones.
fn fake_singles(n: usize) -> Vec<SingleRun> {
    (0..n)
        .map(|i| SingleRun {
            name: format!("prop{i}"),
            retired: 500_000,
            cycles: 500_000,
            ipc_st: 1.0,
            l2_misses: 5_000,
            ipm: 100.0,
        })
        .collect()
}

/// One full runner pass for a generated roster under a registry policy.
fn run_zoo(policy: &str, profiles: &[Profile], f: FairnessLevel) -> soe_core::PairRun {
    let n = profiles.len();
    let cfg = zoo_config(n);
    let factory = PolicyFactory::builtin();
    let mut spec_cfg = cfg.fairness;
    spec_cfg.target = f;
    let built = factory
        .build(policy, &PolicySpec::new(n, f, spec_cfg))
        .unwrap_or_else(|e| panic!("{policy} must build at {n} threads: {e}"));
    let traces: Vec<Box<dyn TraceSource>> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(SyntheticTrace::new(
                p.clone(),
                (i as u64 + 1) * 0x10_0000_0000,
                0,
            )) as Box<dyn TraceSource>
        })
        .collect();
    let spec = RunSpec {
        label: format!("prop/{policy}/{n}way"),
        traces,
        policy: built,
        target: Some(f),
        cfg,
        trace: None,
    };
    run_spec(spec, &fake_singles(n))
        .unwrap_or_else(|e| panic!("{policy}/{n}: runner failed: {e}"))
        .run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any registered policy over any generated roster (2/4/8 threads)
    /// completes without panicking, keeps its counters conserved, and is
    /// deterministic: two identical runs serialize to identical bytes.
    #[test]
    fn every_policy_runs_any_roster_deterministically(
        base in profile_strategy(),
        pidx in 0usize..5,
        sidx in 0usize..3,
        half in prop::bool::ANY,
    ) {
        let policy = PolicyFactory::builtin().names()[pidx].clone();
        let n = [2usize, 4, 8][sidx];
        // One generated behaviour per thread: same shape, distinct
        // streams via the seed (cheaper than n independent profiles,
        // still exercises n-way contention).
        let profiles: Vec<Profile> = (0..n)
            .map(|i| {
                let mut p = base.clone();
                p.seed = p.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                p.name = format!("prop{i}");
                p
            })
            .collect();
        let f = if half { FairnessLevel::HALF } else { FairnessLevel::NONE };

        let run = run_zoo(&policy, &profiles, f);

        // Conservation: every thread retires, throughput matches the
        // retired sum, and switch causes partition the total.
        let retired: u64 = run.threads.iter().map(|t| t.retired).sum();
        prop_assert!(retired > 0, "{}: nothing retired", policy);
        for t in &run.threads {
            prop_assert!(t.retired > 0, "{}: thread {} starved", policy, t.name);
        }
        let ipc = retired as f64 / run.cycles as f64;
        prop_assert!(
            (run.throughput - ipc).abs() < 1e-9,
            "{}: throughput {} != retired/cycles {}", policy, run.throughput, ipc
        );
        prop_assert!(run.event_switches + run.forced_switches <= run.total_switches);
        prop_assert!(run.fairness.is_finite() && run.fairness >= 0.0);

        // Determinism: a second identical run must produce identical
        // bytes (fresh traces, fresh policy — nothing shared).
        let again = run_zoo(&policy, &profiles, f);
        let a = serde_json::to_string(&run).expect("serialize");
        let b = serde_json::to_string(&again).expect("serialize");
        prop_assert!(a == b, "{}: two identical runs diverged", policy);
    }
}
