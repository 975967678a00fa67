//! The experiment runner: single-thread reference runs and SOE pair runs
//! under any policy, following the paper's methodology (warm up, reset
//! statistics, measure).

use std::cell::RefCell;
use std::rc::Rc;

use soe_model::FairnessLevel;
use soe_sim::obs::{SharedTracer, Trace, TraceConfig, Tracer};
use soe_sim::{
    Machine, MachineConfig, MachineStats, NeverSwitch, SimError, SwitchPolicy, TraceSource,
};
use soe_workloads::Pair;

use crate::metrics::{PairRun, SingleRun, ThreadOutcome};
use crate::policy::{FairnessConfig, FairnessPolicy, TimeSlicePolicy};
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
    /// Cycle-level event tracing knobs. `None` disables tracing (the
    /// default, and the only setting the plain runners consult); the
    /// traced entry points ([`try_run_pair_traced`]) use `Some` values
    /// or fall back to [`TraceConfig::default`].
    pub trace: Option<TraceConfig>,
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
            trace: None,
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
                target: FairnessLevel::NONE,
                delta: 50_000,
                max_cycles_quota: 20_000,
                miss_lat: 300.0,
                miss_lat_mode: Default::default(),
                deficit_cap: 2.0,
                min_quota_cycles: 600,
                record_history: true,
            },
            stall_window: Some(200_000),
            trace: None,
        }
    }

    fn with_target(&self, f: FairnessLevel) -> FairnessConfig {
        FairnessConfig {
            target: f,
            ..self.fairness
        }
    }
}

/// Runs `trace` alone on the machine and measures its single-thread
/// behaviour — the ground-truth `IPC_ST` of Eq 1.
///
/// # Panics
///
/// Panics on an invalid configuration, a wedged machine, or a tripped
/// stall watchdog; [`try_run_single`] is the non-panicking form.
pub fn run_single(trace: Box<dyn TraceSource>, cfg: &RunConfig) -> SingleRun {
    // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use try_run_single
    try_run_single(trace, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_single`] returning structured [`SimError`]s (bad configuration,
/// wedged machine, stall-watchdog expiry) instead of panicking, so a
/// supervisor can retry or quarantine the run.
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
    m.try_run_cycles(cfg.warmup_cycles, cfg.stall_window)?;
    let miss_before = {
        let h = m.hierarchy().stats();
        h.data_l2_misses + h.walk_l2_misses
    };
    m.reset_stats();
    let start = m.now();
    m.try_run_cycles(cfg.measure_cycles, cfg.stall_window)?;
    let cycles = m.now() - start;
    let retired = m.stats().threads.first().map_or(0, |t| t.retired);
    let h = m.hierarchy().stats();
    let l2_misses = h.data_l2_misses + h.walk_l2_misses - miss_before;
    Ok(SingleRun {
        name,
        retired,
        cycles,
        ipc_st: retired as f64 / cycles as f64,
        l2_misses,
        ipm: retired as f64 / l2_misses.max(1) as f64,
    })
}

/// Runs `pair` under an arbitrary policy, using previously measured
/// single-thread results for the speedup denominators.
///
/// # Panics
///
/// Panics if `singles` does not contain one entry per thread in pair
/// order.
pub fn run_pair_with_policy(
    pair: &Pair,
    policy: Box<dyn SwitchPolicy>,
    singles: &[SingleRun],
    cfg: &RunConfig,
    target: Option<FairnessLevel>,
) -> PairRun {
    // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use the try_ form
    try_run_pair_with_policy(pair, policy, singles, cfg, target).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_pair_with_policy`] returning structured [`SimError`]s instead of
/// panicking, so a supervisor can retry or quarantine the run.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] before the machine is built;
/// [`SimError::Stalled`] / [`SimError::Wedged`] from the run itself.
///
/// # Panics
///
/// Still panics if `singles` does not contain one entry per thread in
/// pair order — that is a caller bug, not a run failure.
pub fn try_run_pair_with_policy(
    pair: &Pair,
    policy: Box<dyn SwitchPolicy>,
    singles: &[SingleRun],
    cfg: &RunConfig,
    target: Option<FairnessLevel>,
) -> Result<PairRun, SimError> {
    assert_eq!(singles.len(), 2, "one single-thread reference per thread");
    try_run_traces_with_policy(
        pair.label(),
        pair.boxed_traces(),
        policy,
        target,
        singles,
        cfg,
    )
}

/// The shared N-thread measurement loop: warm up, reset statistics,
/// notify the policy via
/// [`SwitchPolicy::on_measure_start`](soe_sim::SwitchPolicy::on_measure_start),
/// measure, assemble the [`PairRun`]. Every pair/multi runner funnels
/// through here so all policies get the same methodology; property
/// tests drive it directly with synthetic trace sources.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an empty roster, a `singles` length
/// mismatch, or a bad machine configuration;  [`SimError::Stalled`] /
/// [`SimError::Wedged`] from the run itself.
pub fn try_run_traces_with_policy(
    label: String,
    traces: Vec<Box<dyn TraceSource>>,
    policy: Box<dyn SwitchPolicy>,
    target: Option<FairnessLevel>,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    if traces.is_empty() {
        return Err(SimError::InvalidConfig(
            "roster must contain at least one thread".into(),
        ));
    }
    check_singles(singles, traces.len())?;
    cfg.machine
        .check()
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    let policy_name = policy.name().to_string();
    let mut m = Machine::new(cfg.machine, traces, policy);
    let cycles = warm_up_and_measure(&mut m, cfg, None)?;
    Ok(assemble_pair_run(
        label,
        policy_name,
        target,
        cycles,
        m.stats(),
        singles,
    ))
}

/// `singles` must hold one single-thread reference per roster thread.
fn check_singles(singles: &[SingleRun], threads: usize) -> Result<(), SimError> {
    if singles.len() == threads {
        return Ok(());
    }
    Err(SimError::InvalidConfig(format!(
        "{} single-thread reference(s) for a {threads}-thread roster",
        singles.len()
    )))
}

/// The methodology every pair-style runner shares: warm up, zero the
/// statistics, open the policy's measurement window (restarting
/// `tracer`, if any, so its trace covers exactly that window), then
/// measure. Returns the measured cycle count.
fn warm_up_and_measure(
    m: &mut Machine,
    cfg: &RunConfig,
    tracer: Option<&SharedTracer>,
) -> Result<u64, SimError> {
    m.try_run_cycles(cfg.warmup_cycles, cfg.stall_window)?;
    m.reset_stats();
    let start = m.now();
    m.policy_mut().on_measure_start(start);
    if let Some(t) = tracer {
        t.borrow_mut().restart(start);
    }
    m.try_run_cycles(cfg.measure_cycles, cfg.stall_window)?;
    Ok(m.now() - start)
}

/// Builds the finalized [`PairRun`] from measured statistics — shared by
/// every pair-style runner so traced and untraced runs report metrics
/// through one code path.
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

/// A pair run together with the cycle-level event trace of its
/// measurement window.
#[derive(Debug, Clone)]
pub struct TracedPairRun {
    /// The run's aggregate metrics, identical in form to an untraced run.
    pub run: PairRun,
    /// The recorded event stream (warm-up discarded; fills initiated in
    /// the window may complete — and are stamped — past its end).
    pub trace: Trace,
}

/// Runs `pair` under the fairness mechanism at target `f` with
/// cycle-level event tracing enabled: the machine, the memory hierarchy
/// and the policy share one bounded recorder ([`Tracer`]), which is
/// restarted after warm-up so the trace covers exactly the measurement
/// window. Uses `cfg.trace` knobs, or [`TraceConfig::default`] when
/// `None`.
///
/// Tracing reads simulation state but never writes it, so the returned
/// [`PairRun`] is identical to what [`try_run_pair`] reports for the
/// same inputs.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for a `singles` length mismatch or a bad
/// configuration, before the machine is built; [`SimError::Stalled`] /
/// [`SimError::Wedged`] from the run itself.
pub fn try_run_pair_traced(
    pair: &Pair,
    f: FairnessLevel,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<TracedPairRun, SimError> {
    check_singles(singles, 2)?;
    let fairness = cfg.with_target(f);
    fairness
        .check(2)
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    cfg.machine
        .check()
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    let tcfg = cfg.trace.unwrap_or_default();
    tcfg.check().map_err(|e| SimError::InvalidConfig(e.0))?;
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(tcfg)));
    let policy = FairnessPolicy::new(2, fairness).with_tracer(Rc::clone(&tracer));
    let policy_name = policy.name().to_string();
    let mut m = Machine::new(cfg.machine, pair.boxed_traces(), Box::new(policy));
    m.attach_tracer(Rc::clone(&tracer));
    let cycles = warm_up_and_measure(&mut m, cfg, Some(&tracer))?;
    let trace = tracer.borrow_mut().take();
    Ok(TracedPairRun {
        run: assemble_pair_run(
            pair.label(),
            policy_name,
            Some(f),
            cycles,
            m.stats(),
            singles,
        ),
        trace,
    })
}

/// Runs `pair` under the paper's fairness mechanism at target `f`
/// (`F = 0` gives event-only SOE with estimation enabled).
pub fn run_pair(pair: &Pair, f: FairnessLevel, singles: &[SingleRun], cfg: &RunConfig) -> PairRun {
    // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use the try_ form
    try_run_pair(pair, f, singles, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_pair`] returning structured [`SimError`]s instead of panicking.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] if the machine or fairness configuration
/// is inconsistent; [`SimError::Stalled`] / [`SimError::Wedged`] from
/// the run itself.
pub fn try_run_pair(
    pair: &Pair,
    f: FairnessLevel,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    let fairness = cfg.with_target(f);
    fairness
        .check(2)
        .map_err(|e| SimError::InvalidConfig(e.0))?;
    let policy = FairnessPolicy::new(2, fairness);
    try_run_pair_with_policy(pair, Box::new(policy), singles, cfg, Some(f))
}

/// Runs `pair` under the Section 6 time-slicing baseline.
pub fn run_pair_timeslice(
    pair: &Pair,
    quota_cycles: u64,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> PairRun {
    run_pair_with_policy(
        pair,
        Box::new(TimeSlicePolicy::new(quota_cycles)),
        singles,
        cfg,
        None,
    )
}

/// Runs an N-thread group under the fairness mechanism at target `f` —
/// the paper's equations are N-thread even though its evaluation uses
/// two.
///
/// # Panics
///
/// Panics if `singles` does not match `names` in length and order.
pub fn run_multi(
    names: &[&str],
    f: FairnessLevel,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> PairRun {
    assert_eq!(singles.len(), names.len(), "one reference per thread");
    let policy = FairnessPolicy::new(names.len(), cfg.with_target(f));
    try_run_multi_with_policy(names, Box::new(policy), Some(f), singles, cfg)
        // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use the try_ form
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs an N-thread group under an arbitrary policy, returning
/// structured [`SimError`]s instead of panicking — the entry point the
/// `serve` service layer schedules scenario requests through.
///
/// Unlike [`run_multi`], a `singles`/`names` length mismatch is reported
/// as [`SimError::InvalidConfig`] rather than a panic: the roster comes
/// from an untrusted request, not from a caller-controlled constant.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] before the machine is built;
/// [`SimError::Stalled`] / [`SimError::Wedged`] from the run itself.
pub fn try_run_multi_with_policy(
    names: &[&str],
    policy: Box<dyn SwitchPolicy>,
    target: Option<FairnessLevel>,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    if names.is_empty() {
        return Err(SimError::InvalidConfig(
            "roster must contain at least one thread".into(),
        ));
    }
    if singles.len() != names.len() {
        return Err(SimError::InvalidConfig(format!(
            "{} single-thread reference(s) for a {}-thread roster",
            singles.len(),
            names.len()
        )));
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
    try_run_traces_with_policy(names.join(":"), traces, policy, target, singles, cfg)
}

/// Runs an N-thread group under a *named* discipline built from the
/// [`PolicyFactory`] registry: the sweep binaries' entry point
/// (`threadsweep --policy`, the `policyzoo` grid). The spec hands the
/// builder the roster size, the target `f`, and `cfg.fairness` re-aimed
/// at `f`.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an unregistered policy name or an
/// invalid spec (via [`PolicyError`](crate::PolicyError)), plus
/// everything [`try_run_multi_with_policy`] reports.
pub fn try_run_multi_named(
    factory: &PolicyFactory,
    policy: &str,
    names: &[&str],
    f: FairnessLevel,
    singles: &[SingleRun],
    cfg: &RunConfig,
) -> Result<PairRun, SimError> {
    let spec = PolicySpec::new(names.len(), f, cfg.with_target(f));
    let built = factory.build(policy, &spec)?;
    try_run_multi_with_policy(names, built, Some(f), singles, cfg)
}

/// Measures the two single-thread references of a pair.
pub fn run_singles(pair: &Pair, cfg: &RunConfig) -> [SingleRun; 2] {
    let (a, b) = pair.traces();
    [run_single(Box::new(a), cfg), run_single(Box::new(b), cfg)]
}

/// The complete per-pair experiment: single-thread references plus one
/// SOE run per fairness level.
#[derive(Debug, Clone)]
pub struct PairExperiment {
    /// The pair.
    pub pair: Pair,
    /// Ground-truth single-thread runs.
    pub singles: [SingleRun; 2],
    /// One run per requested fairness level, in request order.
    pub runs: Vec<PairRun>,
}

/// Runs `pair` at every level in `levels`.
pub fn run_experiment(pair: &Pair, levels: &[FairnessLevel], cfg: &RunConfig) -> PairExperiment {
    let singles = run_singles(pair, cfg);
    let runs = levels
        .iter()
        .map(|f| run_pair(pair, *f, &singles, cfg))
        .collect();
    PairExperiment {
        pair: pair.clone(),
        singles,
        runs,
    }
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

    #[test]
    fn single_run_measures_sane_ipc() {
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let (a, _) = pair.traces();
        let s = run_single(Box::new(a), &tiny_cfg());
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
        let cfg = tiny_cfg();
        let singles = run_singles(&pair, &cfg);
        let run = run_pair(&pair, FairnessLevel::NONE, &singles, &cfg);
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
        let cfg = tiny_cfg();
        let singles = run_singles(&pair, &cfg);
        let f0 = run_pair(&pair, FairnessLevel::NONE, &singles, &cfg);
        let f1 = run_pair(&pair, FairnessLevel::PERFECT, &singles, &cfg);
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
        let pair = Pair {
            a: "swim",
            b: "eon",
        };
        let singles = [SingleRun {
            name: "swim".into(),
            retired: 1,
            cycles: 1,
            ipc_st: 1.0,
            l2_misses: 0,
            ipm: 1.0,
        }];
        match try_run_pair_traced(&pair, FairnessLevel::HALF, &singles, &tiny_cfg()) {
            Err(SimError::InvalidConfig(msg)) => assert!(
                msg.contains("1 single-thread reference(s) for a 2-thread roster"),
                "unhelpful message: {msg}"
            ),
            Err(e) => panic!("expected InvalidConfig, got {e}"),
            Ok(_) => panic!("mismatched singles must not run"),
        }
    }
}
