//! Fast-forward invariance under the full fairness mechanism.
//!
//! The cycle loop may jump over quiescent stretches instead of ticking
//! through them, but a jump is only legal if it is invisible: every
//! statistic, every fairness decision and every trace event must land on
//! the same cycle as in a tick-by-tick run. The unit test in
//! `crates/sim/src/core.rs` (`fast_forward_is_invisible_*`) covers the
//! bare machine; this suite closes the loop over the *clients* the sim
//! crate cannot see — the paper's `FairnessPolicy` with its scheduled
//! Δ-window recalculations and cycle quotas, and the full pair runner.
//!
//! Scheduled policy decision points are machine events, so jumps stop
//! at them and every run is cycle-exact regardless of `fast_forward`.
//!
//! Two further cases pin the back-end wake rules: a single thread whose
//! window fills behind L2 misses (rename blocked, so the front end is no
//! wake source), and a forced-switch pair of divide chains, where a
//! squashed divide keeps the unpipelined divider busy while the next
//! thread's divide waits for it.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::traced_run;
use proptest::prelude::*;
use soe_core::runner::{try_run_single, RunConfig};
use soe_core::FairnessPolicy;
use soe_model::FairnessLevel;
use soe_sim::obs::{SharedTracer, TraceConfig, Tracer};
use soe_sim::{
    Cycle, InstrIndex, Machine, MachineConfig, MachineStats, NeverSwitch, SwitchDecision,
    SwitchPolicy, ThreadId, Trace, TraceSource, Uop, UopKind,
};
use soe_workloads::pairs::paper_pairs;
use soe_workloads::{InstrMix, MemoryBehavior, Profile, SyntheticTrace};

/// Short-but-real sizing with the policy cadence scaled down to match,
/// so a run still sees several Δ recalculations and quota expiries.
fn cfg(measure_cycles: u64) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 30_000;
    cfg.measure_cycles = measure_cycles;
    cfg.fairness.delta = 12_000;
    cfg.fairness.max_cycles_quota = 5_000;
    cfg.fairness.min_quota_cycles = 300;
    cfg
}

/// A compact version of the random workload generator used by
/// `proptest_sim`: enough variety to exercise misses, dependency
/// stalls and branchy code without wedging the machine.
fn profile_strategy() -> impl Strategy<Value = Profile> {
    (
        0u64..u64::MAX,
        0.05f64..0.4, // load fraction
        1.0f64..8.0,  // mean dependency distance
        0.6f64..1.0,  // branch predictability
        0.0f64..0.02, // cold load probability
    )
        .prop_map(|(seed, load, dep, pred, cold)| Profile {
            name: "ff-prop".into(),
            seed,
            mix: InstrMix {
                load,
                store: 0.08,
                mul: 0.02,
                div: 0.001,
            },
            mean_dep_dist: dep,
            branch_predictability: pred,
            block_len: 12,
            code_lines: 96,
            call_block_frac: 0.1,
            mem: MemoryBehavior {
                hot_lines: 64,
                warm_lines: 512,
                cold_load_prob: cold,
                warm_load_prob: 0.05,
                cold_store_prob: cold / 4.0,
            },
            phases: Vec::new(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Over random paper pairs, fairness targets and sizings: running
    /// the traced pair runner with fast-forward on and off yields an
    /// identical [`PairRun`] and an identical trace stream.
    #[test]
    fn fast_forward_invisible_for_fairness_pairs(
        pair_idx in 0usize..16,
        f_idx in 0usize..4,
        measure in 100_000u64..180_000,
    ) {
        let pairs = paper_pairs();
        let pair = &pairs[pair_idx];
        let f = FairnessLevel::paper_levels()[f_idx];
        let base = cfg(measure);

        // One singles array shared by both runs: any difference in the
        // assembled PairRun must come from the pair simulation itself.
        let (a, b) = pair.traces();
        let singles = [
            try_run_single(Box::new(a), &base).expect("single run failed"),
            try_run_single(Box::new(b), &base).expect("single run failed"),
        ];
        let run = |ff: bool| {
            let mut c = base;
            c.machine.fast_forward = ff;
            traced_run(pair, f, &singles, &c)
        };
        let (jump_run, jump_trace) = run(true);
        let (tick_run, tick_trace) = run(false);
        prop_assert!(!tick_trace.events.is_empty(), "no events traced");
        prop_assert_eq!(tick_run, jump_run);
        prop_assert_eq!(tick_trace, jump_trace);
    }

    /// Over random synthetic workloads and seeds: a machine driven
    /// directly by the [`FairnessPolicy`] (tracer attached) produces
    /// identical statistics and an identical trace stream with
    /// fast-forward on and off.
    #[test]
    fn fast_forward_invisible_for_random_seeds(
        pa in profile_strategy(),
        pb in profile_strategy(),
        seed_a in 0u64..1_000,
        seed_b in 0u64..1_000,
        f_idx in 0usize..4,
    ) {
        let f = FairnessLevel::paper_levels()[f_idx];
        let mut fcfg = RunConfig::quick().fairness;
        fcfg.target = f;
        fcfg.delta = 8_000;
        fcfg.max_cycles_quota = 3_000;
        fcfg.min_quota_cycles = 300;

        let mk = |ff: bool| {
            let mut mc = MachineConfig::test_config();
            mc.fast_forward = ff;
            let tracer: SharedTracer =
                Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
            let policy = FairnessPolicy::new(2, fcfg);
            let a = SyntheticTrace::new(pa.clone(), 0x10_0000_0000, seed_a);
            let b = SyntheticTrace::new(pb.clone(), 0x20_0000_0000, seed_b);
            let mut m = Machine::new(mc, vec![Box::new(a), Box::new(b)], Box::new(policy));
            m.attach_tracer(Rc::clone(&tracer));
            m.run_cycles(60_000);
            let trace = tracer.borrow_mut().take();
            (m.stats().clone(), trace)
        };
        let (stats_jump, trace_jump) = mk(true);
        let (stats_tick, trace_tick) = mk(false);
        prop_assert_eq!(stats_tick, stats_jump);
        prop_assert_eq!(trace_tick, trace_jump);
    }
}

/// Runs `traces` under `policy` for `cycles` with fast-forward on or
/// off and a tracer attached.
fn run_machine(
    cfg: MachineConfig,
    ff: bool,
    traces: Vec<Box<dyn TraceSource>>,
    policy: Box<dyn SwitchPolicy>,
    cycles: Cycle,
) -> (MachineStats, Trace) {
    let mut mc = cfg;
    mc.fast_forward = ff;
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let mut m = Machine::new(mc, traces, policy);
    m.attach_tracer(Rc::clone(&tracer));
    m.run_cycles(cycles);
    let trace = tracer.borrow_mut().take();
    (m.stats().clone(), trace)
}

/// A thread streaming through memory: every `stride`-th micro-op loads a
/// fresh line (an L2 miss), every 16th is a coin-flip branch (fetch
/// stalls on each mispredict, so refills arrive at rename in bursts),
/// every `store_every`-th stores to a hot line, and the rest are ALU ops
/// depending on their predecessor at distance `dep`. The independent
/// work behind each miss fills the ROB, the reservation station or a
/// load/store buffer long before the miss returns.
#[derive(Debug)]
struct MissShadow {
    stride: u64,
    store_every: u64,
    dep: u32,
}

impl TraceSource for MissShadow {
    fn uop_at(&self, i: InstrIndex) -> Uop {
        let pc = 0x4000 + (i % 64) * 4;
        if i.is_multiple_of(self.stride) {
            Uop::new(UopKind::Load, pc).with_mem(0x100_0000 + (i / self.stride) * 64)
        } else if i % 16 == 15 {
            let taken = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1;
            Uop::new(
                UopKind::Branch {
                    taken,
                    target: pc + 4,
                },
                pc,
            )
        } else if i.is_multiple_of(self.store_every) {
            Uop::new(UopKind::Store, pc).with_mem(0x8000 + (i % 8) * 64)
        } else {
            Uop::new(UopKind::Alu, pc).with_deps(self.dep, 0)
        }
    }
    fn name(&self) -> &str {
        "miss-shadow"
    }
}

/// A chain of dependent divides in a private code region.
#[derive(Debug)]
struct DivChain {
    region: u64,
}

impl TraceSource for DivChain {
    fn uop_at(&self, i: InstrIndex) -> Uop {
        Uop::new(UopKind::Div, self.region + (i % 64) * 4).with_deps(1, 0)
    }
    fn name(&self) -> &str {
        "div-chain"
    }
}

/// Forces a switch every `period` cycles of occupancy, announcing each
/// decision through `next_decision_at` as the real disciplines do.
#[derive(Debug)]
struct EveryPeriod {
    period: Cycle,
    due: Cycle,
}

impl SwitchPolicy for EveryPeriod {
    fn name(&self) -> &str {
        "every-period"
    }
    fn on_switch_in(&mut self, _tid: ThreadId, now: Cycle) {
        self.due = now + self.period;
    }
    fn each_cycle(&mut self, _tid: ThreadId, now: Cycle) -> SwitchDecision {
        if now >= self.due {
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }
    fn next_decision_at(&self, _tid: ThreadId, _now: Cycle) -> Option<Cycle> {
        Some(self.due)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A single thread whose window fills behind L2 misses: while rename
    /// is blocked the front end wakes nothing, and the jumps over each
    /// miss shadow must still land on the cycles a ticked run reaches.
    #[test]
    fn fast_forward_invisible_behind_a_full_window(
        stride in 24u64..160,
        store_every in 2u64..9,
        dep in 0u32..4,
    ) {
        let mk = |ff: bool| {
            let t = MissShadow { stride, store_every, dep };
            run_machine(
                MachineConfig::default(),
                ff,
                vec![Box::new(t)],
                Box::new(NeverSwitch::new()),
                60_000,
            )
        };
        let (stats_jump, trace_jump) = mk(true);
        let (stats_tick, trace_tick) = mk(false);
        prop_assert!(stats_tick.total_retired() > 0);
        prop_assert_eq!(stats_tick, stats_jump);
        prop_assert_eq!(trace_tick, trace_jump);
    }
}

/// Divide chains under forced switches: the switch squashes a divide in
/// flight, but the unpipelined divider stays busy. The next thread's
/// divide is ready and waits only for the divider, behind a full
/// reservation station and with nothing left to complete, so the
/// divider's free cycle is the only wake before the next forced switch.
#[test]
fn fast_forward_invisible_for_a_divider_held_across_a_switch() {
    for period in [233, 500, 1_009] {
        let mut cfg = MachineConfig::test_config();
        cfg.pipeline.div_latency = 90;
        cfg.pipeline.rs_size = 8;
        let mk = |ff: bool| {
            run_machine(
                cfg,
                ff,
                vec![
                    Box::new(DivChain { region: 0x1000 }),
                    Box::new(DivChain { region: 0x9000 }),
                ],
                Box::new(EveryPeriod { period, due: 0 }),
                40_000,
            )
        };
        let (stats_jump, trace_jump) = mk(true);
        let (stats_tick, trace_tick) = mk(false);
        assert!(
            stats_tick.total_switches > 20,
            "period {period}: too few forced switches"
        );
        assert!(stats_tick.threads.iter().all(|t| t.retired > 0));
        assert_eq!(stats_tick, stats_jump, "period {period}: stats differ");
        assert_eq!(trace_tick, trace_jump, "period {period}: traces differ");
    }
}
