//! The experiment runner: the paper's methodology (warm up, reset
//! statistics, measure, divide each thread's IPC by its single-thread
//! `IPC_ST`, Eq 1) as one run path.
//!
//! A [`RunSpec`] says what to run — a roster of traces, a policy, the
//! sizing and whether to trace — and [`run_spec`] runs it against
//! previously measured single-thread references from
//! [`try_run_single`] / [`run_singles`].

use std::cell::RefCell;
use std::rc::Rc;

use soe_model::FairnessLevel;
use soe_sim::obs::{SharedTracer, Trace, TraceConfig, Tracer};
use soe_sim::{
    Machine, MachineConfig, MachineStats, NeverSwitch, SimError, SwitchPolicy, TraceSource,
};
use soe_workloads::Pair;

use crate::metrics::{PairRun, SingleRun, ThreadOutcome};
use crate::policy::FairnessConfig;
use crate::registry::{PolicyFactory, PolicySpec};

/// Experiment sizing: how long to warm up and measure.
///
/// The paper warms caches with 10 M instructions and measures ≥ 6 M
/// instructions per thread. Because a starved thread (the phenomenon
/// under study!) may retire arbitrarily slowly, this reproduction sizes
/// runs in *cycles*: per-thread IPCs are well-defined over any window,
/// and unfair runs do not take unbounded wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Simulated machine parameters.
    pub machine: MachineConfig,
    /// Warm-up cycles (statistics discarded).
    pub warmup_cycles: u64,
    /// Measurement window in cycles.
    pub measure_cycles: u64,
    /// Fairness-mechanism parameters (the target is overridden per run).
    pub fairness: FairnessConfig,
    /// Forward-progress watchdog: the run fails with
    /// [`SimError::Stalled`] if no instruction retires (on any thread)
    /// for this many cycles. Must sit far above the longest legitimate
    /// stall (300-cycle memory plus TLB walks, bus queueing and switch
    /// drain); `None` disables the check.
    pub stall_window: Option<u64>,
}

impl RunConfig {
    /// Full-size runs with the paper's mechanism parameters
    /// (Δ = 250 000, 50 000-cycle quota, 300-cycle memory).
    pub fn paper() -> Self {
        Self {
            machine: MachineConfig::default(),
            warmup_cycles: 2_000_000,
            measure_cycles: 8_000_000,
            fairness: FairnessConfig::paper(FairnessLevel::NONE),
            stall_window: Some(1_000_000),
        }
    }

    /// Scaled-down runs for tests: a smaller machine-warmup and window
    /// with a proportionally smaller Δ and cycle quota.
    pub fn quick() -> Self {
        Self {
            machine: MachineConfig::default(),
            warmup_cycles: 300_000,
            measure_cycles: 1_200_000,
            fairness: FairnessConfig {
                delta: 50_000,
                max_cycles_quota: 20_000,
                ..FairnessConfig::paper(FairnessLevel::NONE)
            },
            stall_window: Some(200_000),
        }
    }
}

/// One run to make: a roster of traces under a policy, at a sizing,
/// optionally traced. Build it with [`RunSpec::roster`] (benchmark names,
/// any policy) or [`RunSpec::named`] (benchmark names, a registered
/// policy); set the fields directly for custom trace sources.
pub struct RunSpec {
    /// Report label (`"a:b"` for a named roster).
    pub label: String,
    /// One trace source per hardware thread.
    pub traces: Vec<Box<dyn TraceSource>>,
    /// The switch policy under test.
    pub policy: Box<dyn SwitchPolicy>,
    /// The fairness target reported with the run (`None` for
    /// disciplines without one).
    pub target: Option<FairnessLevel>,
    /// Machine, warm-up, window and watchdog.
    pub cfg: RunConfig,
    /// `Some` records the measurement window's cycle-level event
    /// trace with these knobs; `None` (the default) runs untraced.
    pub trace: Option<TraceConfig>,
}

impl RunSpec {
    /// Runs the benchmarks `names` (one thread each, laid out by
    /// [`group_traces`](soe_workloads::pairs::group_traces): disjoint
    /// address spaces, duplicates offset) under `policy`, untraced.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty roster or an unknown
    /// benchmark name.
    pub fn roster(
        names: &[&str],
        policy: Box<dyn SwitchPolicy>,
        target: Option<FairnessLevel>,
        cfg: RunConfig,
    ) -> Result<Self, SimError> {
        if names.is_empty() {
            return Err(empty_roster());
        }
        if let Some(unknown) = names
            .iter()
            .find(|n| soe_workloads::spec::profile(n).is_none())
        {
            return Err(SimError::InvalidConfig(format!(
                "unknown benchmark {unknown:?} in roster"
            )));
        }
        let traces = soe_workloads::pairs::group_traces(names)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn TraceSource>)
            .collect();
        Ok(Self {
            label: names.join(":"),
            traces,
            policy,
            target,
            cfg,
            trace: None,
        })
    }

    /// [`RunSpec::roster`] under the discipline registered as `policy`
    /// (the paper's mechanism is `"fairness"`), built from a
    /// [`PolicySpec`] with the roster size, the target `f`, and
    /// `cfg.fairness` re-aimed at `f`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an unregistered policy name or an
    /// invalid spec (via [`PolicyError`](crate::PolicyError)), plus
    /// everything [`RunSpec::roster`] reports.
    pub fn named(
        factory: &PolicyFactory,
        policy: &str,
        names: &[&str],
        f: FairnessLevel,
        cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        let fairness = FairnessConfig {
            target: f,
            ..cfg.fairness
        };
        let spec = PolicySpec::new(names.len(), f, fairness);
        Self::roster(names, factory.build(policy, &spec)?, Some(f), *cfg)
    }
}

/// What [`run_spec`] measured.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The run's aggregate metrics.
    pub run: PairRun,
    /// The measurement window's event stream when the spec asked for
    /// one (fills initiated in the window may complete — and are
    /// stamped — past its end).
    pub trace: Option<Trace>,
}

/// Runs `spec`, using `singles` (one per thread, in roster order) for
/// the speedup denominators: build the machine, warm up, zero the
/// statistics, open the policy's measurement window via
/// [`SwitchPolicy::on_measure_start`], measure, and assemble the
/// [`PairRun`].
///
/// A traced spec shares one bounded recorder ([`Tracer`]) between the
/// machine, the memory hierarchy and the policy (through
/// [`Machine::attach_tracer`]); it restarts after warm-up so the trace
/// covers exactly the measurement window. Tracing reads simulation
/// state but never writes it, so the [`PairRun`] is identical either
/// way.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an empty roster, a `singles` length
/// mismatch, a bad machine or trace configuration, all before the
/// machine is built; [`SimError::Stalled`] / [`SimError::Wedged`] from
/// the run itself.
pub fn run_spec(spec: RunSpec, singles: &[SingleRun]) -> Result<RunOutput, SimError> {
    let RunSpec {
        label,
        traces,
        policy,
        target,
        cfg,
        trace,
    } = spec;
    if traces.is_empty() {
        return Err(empty_roster());
    }
    if singles.len() != traces.len() {
        return Err(SimError::InvalidConfig(format!(
            "{} single-thread reference(s) for a {}-thread roster",
            singles.len(),
            traces.len()
        )));
    }
    cfg.machine
        .check()
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    let tracer: Option<SharedTracer> = match trace {
        Some(tcfg) => {
            tcfg.check().map_err(|e| SimError::InvalidConfig(e.0))?;
            Some(Rc::new(RefCell::new(Tracer::new(tcfg))))
        }
        None => None,
    };
    let policy_name = policy.name().to_string();
    let mut m = Machine::new(cfg.machine, traces, policy);
    if let Some(t) = &tracer {
        m.attach_tracer(Rc::clone(t));
    }
    let (cycles, _) = warm_up_and_measure(&mut m, &cfg, tracer.as_ref())?;
    Ok(RunOutput {
        run: assemble_pair_run(label, policy_name, target, cycles, m.stats(), singles),
        trace: tracer.map(|t| t.borrow_mut().take()),
    })
}

fn empty_roster() -> SimError {
    SimError::InvalidConfig("roster must contain at least one thread".into())
}

/// Runs `trace` alone on the machine and measures its single-thread
/// behaviour — the ground-truth `IPC_ST` of Eq 1.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] before the machine is built;
/// [`SimError::Stalled`] / [`SimError::Wedged`] from the run itself.
pub fn try_run_single(trace: Box<dyn TraceSource>, cfg: &RunConfig) -> Result<SingleRun, SimError> {
    cfg.machine
        .check()
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    let name = trace.name().to_string();
    let mut m = Machine::new(cfg.machine, vec![trace], Box::new(NeverSwitch::new()));
    let (cycles, l2_misses) = warm_up_and_measure(&mut m, cfg, None)?;
    let retired = m.stats().threads.first().map_or(0, |t| t.retired);
    Ok(SingleRun {
        name,
        retired,
        cycles,
        ipc_st: retired as f64 / cycles as f64,
        l2_misses,
        ipm: retired as f64 / l2_misses.max(1) as f64,
    })
}

/// Measures the two single-thread references of a pair, each on the
/// trace (address space and offset) its thread runs in the pair.
///
/// # Errors
///
/// Whatever [`try_run_single`] reports for either thread.
pub fn run_singles(pair: &Pair, cfg: &RunConfig) -> Result<[SingleRun; 2], SimError> {
    let (a, b) = pair.traces();
    Ok([
        try_run_single(Box::new(a), cfg)?,
        try_run_single(Box::new(b), cfg)?,
    ])
}

/// [`run_spec`] over caller-built traces, untraced. Kept only because
/// the frozen `perfbench/` calls it: delete at the next benchmark
/// change.
///
/// # Errors
///
/// Everything [`run_spec`] reports.
pub fn try_run_traces_with_policy(
    label: String,
    traces: Vec<Box<dyn TraceSource>>,
    policy: Box<dyn SwitchPolicy>,
    target: Option<FairnessLevel>,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    run_spec(
        RunSpec {
            label,
            traces,
            policy,
            target,
            cfg: *cfg,
            trace: None,
        },
        singles,
    )
    .map(|out| out.run)
}

/// [`run_spec`] of [`RunSpec::named`]. Kept only because the frozen
/// `perfbench/` calls it: delete at the next benchmark change.
///
/// # Errors
///
/// Everything [`RunSpec::named`] and [`run_spec`] report.
pub fn try_run_multi_named(
    factory: &PolicyFactory,
    policy: &str,
    names: &[&str],
    f: FairnessLevel,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    RunSpec::named(factory, policy, names, f, cfg)
        .and_then(|spec| run_spec(spec, singles))
        .map(|out| out.run)
}

/// The methodology every run shares: warm up, zero the statistics, open
/// the policy's measurement window (restarting `tracer`, if any, so its
/// trace covers exactly that window), then measure. Returns the measured
/// cycles and the L2 misses (data and page walks) inside them.
fn warm_up_and_measure(
    m: &mut Machine,
    cfg: &RunConfig,
    tracer: Option<&SharedTracer>,
) -> Result<(u64, u64), SimError> {
    let l2_misses = |m: &Machine| {
        let h = m.hierarchy().stats();
        h.data_l2_misses + h.walk_l2_misses
    };
    m.try_run_cycles(cfg.warmup_cycles, cfg.stall_window)?;
    let misses_before = l2_misses(m);
    m.reset_stats();
    let start = m.now();
    m.policy_mut().on_measure_start(start);
    if let Some(t) = tracer {
        t.borrow_mut().restart(start);
    }
    m.try_run_cycles(cfg.measure_cycles, cfg.stall_window)?;
    Ok((m.now() - start, l2_misses(m) - misses_before))
}

/// Builds the finalized [`PairRun`] from measured statistics.
fn assemble_pair_run(
    label: String,
    policy: String,
    target: Option<FairnessLevel>,
    cycles: u64,
    stats: &MachineStats,
    singles: &[SingleRun],
) -> PairRun {
    let threads: Vec<ThreadOutcome> = singles
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let retired = stats.threads.get(i).map_or(0, |t| t.retired);
            let ipc_soe = retired as f64 / cycles as f64;
            ThreadOutcome {
                name: s.name.clone(),
                retired,
                ipc_soe,
                ipc_st: s.ipc_st,
                speedup: ipc_soe / s.ipc_st,
            }
        })
        .collect();
    let mut run = PairRun {
        label,
        policy,
        target,
        cycles,
        threads,
        throughput: 0.0,
        fairness: 0.0,
        weighted_speedup: 0.0,
        harmonic_fairness: 0.0,
        soe_speedup: 0.0,
        total_switches: stats.total_switches,
        event_switches: stats.threads.iter().map(|t| t.event_switches).sum(),
        forced_switches: stats.threads.iter().map(|t| t.forced_switches).sum(),
        forced_per_kcycle: 0.0,
        avg_switch_latency: stats.avg_switch_latency(),
    };
    run.finalize();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use soe_workloads::Pair;

    fn tiny_cfg() -> RunConfig {
        let mut cfg = RunConfig::quick();
        cfg.warmup_cycles = 400_000;
        cfg.measure_cycles = 1_000_000;
        cfg
    }

    fn fairness_run(pair: &Pair, f: FairnessLevel, singles: &[SingleRun]) -> PairRun {
        let factory = PolicyFactory::builtin();
        let spec = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], f, &tiny_cfg())
            .expect("valid spec");
        run_spec(spec, singles).expect("run succeeds").run
    }

    #[test]
    fn single_run_measures_sane_ipc() {
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let (a, _) = pair.traces();
        let s = try_run_single(Box::new(a), &tiny_cfg()).expect("single run");
        assert!(s.ipc_st > 0.1 && s.ipc_st < 4.0, "ipc {}", s.ipc_st);
        assert!(s.l2_misses > 0, "swim must miss");
        assert!(s.ipm > 10.0, "ipm {}", s.ipm);
    }

    #[test]
    fn pair_run_produces_consistent_metrics() {
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let singles = run_singles(&pair, &tiny_cfg()).expect("singles");
        let run = fairness_run(&pair, FairnessLevel::NONE, &singles);
        assert_eq!(run.threads.len(), 2);
        assert!(run.throughput > 0.0);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&run.fairness),
            "fairness {}",
            run.fairness
        );
        let sum: f64 = run.threads.iter().map(|t| t.ipc_soe).sum();
        assert!((run.throughput - sum).abs() < 1e-12);
    }

    #[test]
    fn enforcement_improves_fairness_for_unfair_pair() {
        // swim misses constantly; eon barely — strongly unfair at F=0.
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let singles = run_singles(&pair, &tiny_cfg()).expect("singles");
        let f0 = fairness_run(&pair, FairnessLevel::NONE, &singles);
        let f1 = fairness_run(&pair, FairnessLevel::PERFECT, &singles);
        assert!(
            f1.fairness > f0.fairness,
            "F=1 fairness {} must beat F=0 fairness {}",
            f1.fairness,
            f0.fairness
        );
        assert!(f1.forced_switches > 0, "enforcement must force switches");
    }

    #[test]
    fn traced_pair_singles_mismatch_is_a_typed_error() {
        let singles = [SingleRun {
            name: "swim".into(),
            retired: 1,
            cycles: 1,
            ipc_st: 1.0,
            l2_misses: 0,
            ipm: 1.0,
        }];
        let factory = PolicyFactory::builtin();
        let mut spec = RunSpec::named(
            &factory,
            "fairness",
            &["swim", "eon"],
            FairnessLevel::HALF,
            &tiny_cfg(),
        )
        .expect("valid spec");
        spec.trace = Some(TraceConfig::default());
        match run_spec(spec, &singles) {
            Err(SimError::InvalidConfig(msg)) => assert!(
                msg.contains("1 single-thread reference(s) for a 2-thread roster"),
                "unhelpful message: {msg}"
            ),
            Err(e) => panic!("expected InvalidConfig, got {e}"),
            Ok(_) => panic!("mismatched singles must not run"),
        }
    }
}
