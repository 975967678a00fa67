//! Workload profiles: the statistical description a synthetic trace is
//! generated from.

use serde::{Deserialize, Serialize};

/// Instruction-mix fractions (the remainder after loads, stores, branches,
/// multiplies and divides are plain ALU operations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstrMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of multiplies (medium-latency ops).
    pub mul: f64,
    /// Fraction of divides (long-latency ops).
    pub div: f64,
}

impl InstrMix {
    fn validate(&self) {
        let total = self.load + self.store + self.mul + self.div;
        assert!(
            self.load >= 0.0 && self.store >= 0.0 && self.mul >= 0.0 && self.div >= 0.0,
            "mix fractions must be non-negative"
        );
        assert!(total <= 0.95, "mix must leave room for ALU ops");
    }
}

/// Data-memory behaviour of a profile.
///
/// Loads pick one of three regions:
/// * **cold** (probability `cold_load_prob`): a streaming region touched
///   line by line and never revisited — every cold load is a last-level
///   cache miss. The profile's *instructions per miss* is therefore
///   `IPM ≈ 1 / (load_fraction · cold_load_prob)`.
/// * **warm** (probability `warm_load_prob` of the remainder): a working
///   set sized to live in the L2 but not the L1.
/// * **hot** (the rest): a small working set that lives in the L1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    /// L1-resident working set, in 64-byte lines.
    pub hot_lines: u64,
    /// L2-resident working set, in 64-byte lines.
    pub warm_lines: u64,
    /// Probability that a load streams through cold memory (an L2 miss).
    pub cold_load_prob: f64,
    /// Probability that a non-cold load hits the warm (L2-resident) set.
    pub warm_load_prob: f64,
    /// Probability that a store goes to the cold streaming region.
    pub cold_store_prob: f64,
}

/// One execution phase: for `len_instrs` dynamic instructions the
/// profile's miss rate and ILP are scaled by these factors. Phases repeat
/// cyclically (gcc-style alternating behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase length in dynamic instructions.
    pub len_instrs: u64,
    /// Multiplier on `cold_load_prob` during this phase.
    pub miss_scale: f64,
    /// Multiplier on `mean_dep_dist` during this phase.
    pub ilp_scale: f64,
}

/// A statistical workload profile from which a replayable micro-op trace
/// is generated.
///
/// Profiles stand in for the paper's SPEC CPU2000 LIT traces: each named
/// profile in [`crate::spec`] is calibrated so that its emergent
/// `IPC_no_miss` and `IPM` land in the range the corresponding SPEC
/// workload exhibits on a P6-class machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Display name.
    pub name: String,
    /// Seed for all of the trace's deterministic choices.
    pub seed: u64,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Mean producer distance of register dependences — the ILP knob
    /// (larger = more instruction-level parallelism).
    pub mean_dep_dist: f64,
    /// Fraction of conditional branches whose outcome is a fixed function
    /// of their PC (perfectly learnable); the rest are per-instance
    /// random (≈50 % mispredicted).
    pub branch_predictability: f64,
    /// Straight-line block length in micro-ops; each block ends with a
    /// branch, so the branch fraction is `1 / block_len`.
    pub block_len: u64,
    /// Code footprint in 64-byte lines.
    pub code_lines: u64,
    /// Fraction of (static) blocks that call a leaf function mid-block
    /// and return — exercising the return address stack. `0` disables
    /// calls (requires `block_len >= 5` when positive).
    #[serde(default)]
    pub call_block_frac: f64,
    /// Data-memory behaviour.
    pub mem: MemoryBehavior,
    /// Cyclic execution phases; empty = stationary behaviour.
    pub phases: Vec<Phase>,
}

impl Profile {
    /// Validates all parameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fractions, a zero block length or an empty
    /// working set.
    pub fn validate(&self) {
        self.mix.validate();
        assert!(self.mean_dep_dist >= 1.0, "dependency distance mean >= 1");
        assert!(
            (0.0..=1.0).contains(&self.branch_predictability),
            "branch predictability must be a probability"
        );
        assert!(self.block_len >= 2, "blocks must hold at least two uops");
        assert!(
            (0.0..=1.0).contains(&self.call_block_frac),
            "call fraction must be a probability"
        );
        assert!(
            self.call_block_frac == 0.0 || self.block_len >= 5,
            "calling blocks need at least five uops (prefix, call, body, return, fall-through)"
        );
        assert!(self.code_lines >= 1, "code footprint must be non-empty");
        assert!(
            self.mem.hot_lines >= 1 && self.mem.warm_lines >= 1,
            "working sets non-empty"
        );
        for p in [
            self.mem.cold_load_prob,
            self.mem.warm_load_prob,
            self.mem.cold_store_prob,
        ] {
            assert!((0.0..=1.0).contains(&p), "memory probabilities in [0,1]");
        }
        for ph in &self.phases {
            assert!(ph.len_instrs > 0, "phase length must be positive");
            assert!(ph.miss_scale >= 0.0 && ph.ilp_scale > 0.0, "phase scales");
        }
    }

    /// The profile's intended average instructions per last-level-cache
    /// miss, `IPM ≈ 1 / (load · cold_load_prob)` (ignoring phase scaling
    /// and warm-set capacity effects).
    pub fn target_ipm(&self) -> f64 {
        let p = self.mix.load * self.mem.cold_load_prob;
        if p <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / p
        }
    }

    /// Total length of one phase cycle in instructions (`None` when the
    /// profile is stationary).
    pub fn phase_cycle(&self) -> Option<u64> {
        if self.phases.is_empty() {
            None
        } else {
            Some(self.phases.iter().map(|p| p.len_instrs).sum())
        }
    }

    /// The phase parameters in effect at dynamic instruction `index`:
    /// `(miss_scale, ilp_scale)`.
    // soe-lint: allow(dead-pub): profile.rs's phase tests
    pub fn phase_at(&self, index: u64) -> (f64, f64) {
        let Some(cycle) = self.phase_cycle() else {
            return (1.0, 1.0);
        };
        let mut pos = index % cycle;
        for p in &self.phases {
            if pos < p.len_instrs {
                return (p.miss_scale, p.ilp_scale);
            }
            pos -= p.len_instrs;
        }
        // soe-lint: allow(panic-reachability): pos < cycle = Σ len_instrs, so one phase must absorb it
        unreachable!("phase walk covers the cycle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Profile {
        Profile {
            name: "t".into(),
            seed: 1,
            mix: InstrMix {
                load: 0.25,
                store: 0.1,
                mul: 0.05,
                div: 0.0,
            },
            mean_dep_dist: 5.0,
            branch_predictability: 0.95,
            block_len: 8,
            code_lines: 128,
            call_block_frac: 0.0,
            mem: MemoryBehavior {
                hot_lines: 256,
                warm_lines: 4096,
                cold_load_prob: 0.001,
                warm_load_prob: 0.1,
                cold_store_prob: 0.001,
            },
            phases: Vec::new(),
        }
    }

    #[test]
    fn base_profile_is_valid() {
        base().validate();
    }

    #[test]
    fn target_ipm_matches_closed_form() {
        let p = base();
        assert!((p.target_ipm() - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_miss_profile_has_infinite_ipm() {
        let mut p = base();
        p.mem.cold_load_prob = 0.0;
        assert!(p.target_ipm().is_infinite());
    }

    #[test]
    fn stationary_profile_has_unit_phases() {
        assert_eq!(base().phase_at(12345), (1.0, 1.0));
        assert_eq!(base().phase_cycle(), None);
    }

    #[test]
    fn phases_cycle() {
        let mut p = base();
        p.phases = vec![
            Phase {
                len_instrs: 100,
                miss_scale: 2.0,
                ilp_scale: 1.0,
            },
            Phase {
                len_instrs: 50,
                miss_scale: 0.5,
                ilp_scale: 1.5,
            },
        ];
        p.validate();
        assert_eq!(p.phase_cycle(), Some(150));
        assert_eq!(p.phase_at(0).0, 2.0);
        assert_eq!(p.phase_at(99).0, 2.0);
        assert_eq!(p.phase_at(100).0, 0.5);
        assert_eq!(p.phase_at(150).0, 2.0, "wraps");
    }

    #[test]
    #[should_panic(expected = "room for ALU")]
    fn overloaded_mix_panics() {
        let mut p = base();
        p.mix.load = 0.9;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_block_panics() {
        let mut p = base();
        p.block_len = 1;
        p.validate();
    }
}
