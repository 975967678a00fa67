//! Extending the system: implement a custom switch policy against the
//! simulator's `SwitchPolicy` trait, register it in the policy registry,
//! and compare it with the paper's mechanism through the same runner
//! every registered discipline uses.
//!
//! The custom policy here is *round-robin with a retirement budget*: each
//! thread may retire at most N instructions per turn — a plausible-sounding
//! alternative that, like time slicing, equalizes the wrong quantity
//! (instruction counts rather than slowdowns).
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use soe_repro::core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_repro::core::{PolicyError, PolicyFactory, PolicySpec};
use soe_repro::model::FairnessLevel;
use soe_repro::sim::{Cycle, SwitchDecision, SwitchPolicy, ThreadId};
use soe_repro::workloads::Pair;

/// Switch after `budget` retired instructions (and on misses, as always).
struct RetirementBudget {
    budget: u64,
    retired_this_turn: u64,
    name: String,
}

impl RetirementBudget {
    fn new(budget: u64) -> Self {
        Self {
            budget,
            retired_this_turn: 0,
            name: format!("retire-budget({budget})"),
        }
    }
}

impl SwitchPolicy for RetirementBudget {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_switch_in(&mut self, _tid: ThreadId, _now: Cycle) {
        self.retired_this_turn = 0;
    }
    fn after_retire(&mut self, _tid: ThreadId, _now: Cycle) -> SwitchDecision {
        self.retired_this_turn += 1;
        if self.retired_this_turn >= self.budget {
            SwitchDecision::Switch
        } else {
            SwitchDecision::Continue
        }
    }
}

fn main() {
    let pair = Pair { a: "art", b: "eon" };
    let roster = [pair.a, pair.b];
    let cfg = RunConfig::quick();
    let singles = run_singles(&pair, &cfg).expect("references run");
    println!(
        "pair {}: IPC_ST = {:.3} / {:.3}\n",
        pair.label(),
        singles[0].ipc_st,
        singles[1].ipc_st
    );

    // Register the custom discipline alongside the built-ins. The builder
    // derives its budget from the registry's uniform F→knob translation
    // (the same instruction quantum `wdrr` uses), so `F` sweeps the
    // budget exactly as it sweeps every other discipline's aggressiveness.
    let mut factory = PolicyFactory::builtin();
    factory
        .register("retire-budget", |spec: &PolicySpec| {
            Ok(Box::new(RetirementBudget::new(
                spec.quantum_instructions().max(1.0) as u64
            )) as Box<dyn SwitchPolicy>)
        })
        .expect("the name is free");

    // Registering a taken name is a typed error, not a silent overwrite.
    let dup = factory.register("retire-budget", |_spec: &PolicySpec| {
        unreachable!("never built")
    });
    assert!(matches!(dup, Err(PolicyError::Duplicate { .. })));

    // An unregistered name is a typed error, not a panic — and it names
    // the alternatives.
    let mut sizing = cfg.fairness;
    sizing.target = FairnessLevel::HALF;
    let spec = PolicySpec::new(roster.len(), FairnessLevel::HALF, sizing);
    match factory.build("no-such-policy", &spec) {
        Err(PolicyError::Unknown { name, known }) => {
            println!("build({name:?}) -> unknown policy; registered: {known:?}\n");
        }
        Err(other) => panic!("expected PolicyError::Unknown, got {other}"),
        Ok(_) => panic!("an unregistered name must not build"),
    }

    println!(
        "{:<22} {:>6} {:>10} {:>9} {:>12} {:>12}",
        "policy", "F", "IPC_SOE", "fairness", "speedup[a]", "speedup[b]"
    );
    let show = |f: FairnessLevel, r: &soe_repro::core::PairRun| {
        println!(
            "{:<22} {:>6} {:>10.3} {:>9.3} {:>12.3} {:>12.3}",
            r.policy,
            f.label(),
            r.throughput,
            r.fairness,
            r.threads[0].speedup,
            r.threads[1].speedup
        );
    };

    // Every registered discipline — the custom one included — through
    // the same runner, at matched aggressiveness.
    for f in [FairnessLevel::NONE, FairnessLevel::HALF] {
        for name in factory.names() {
            let r = RunSpec::named(&factory, &name, &roster, f, &cfg)
                .and_then(|spec| run_spec(spec, &singles))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            show(f, &r.run);
        }
        println!();
    }

    println!(
        "Equal retirement budgets equalize instruction *counts*, so the missy thread\n\
         (which needs more wall-clock per instruction) is still slowed far more than\n\
         the compute thread. The mechanism instead equalizes *slowdowns*, because its\n\
         quota is proportional to each thread's estimated stand-alone IPC (Eq 9)."
    );
}
