//! Shared by the integration tests that run pairs under the paper's
//! mechanism; each test crate uses a subset.
#![allow(dead_code)]

use soe_core::runner::{run_spec, RunConfig, RunSpec};
use soe_core::{PairRun, PolicyFactory, SingleRun};
use soe_model::FairnessLevel;
use soe_sim::obs::{Trace, TraceConfig};
use soe_workloads::Pair;

fn fairness_spec(pair: &Pair, f: FairnessLevel, cfg: &RunConfig) -> RunSpec {
    let names = [pair.a, pair.b];
    RunSpec::named(&PolicyFactory::builtin(), "fairness", &names, f, cfg)
        .expect("the fairness mechanism builds for a pair")
}

/// Runs `pair` under the paper's fairness mechanism at target `f`.
pub fn fairness_run(pair: &Pair, f: FairnessLevel, s: &[SingleRun], cfg: &RunConfig) -> PairRun {
    run_spec(fairness_spec(pair, f, cfg), s)
        .expect("pair run")
        .run
}

/// [`fairness_run`] with the measurement window traced.
pub fn traced_run(
    pair: &Pair,
    f: FairnessLevel,
    s: &[SingleRun],
    cfg: &RunConfig,
) -> (PairRun, Trace) {
    let mut spec = fairness_spec(pair, f, cfg);
    spec.trace = Some(TraceConfig::default());
    let out = run_spec(spec, s).expect("traced pair run");
    (out.run, out.trace.expect("a traced run records its trace"))
}
