//! Machine configuration — the simulated processor's Table 3 parameters.

use serde::{Deserialize, Serialize};

use crate::types::Cycle;

/// A descriptive configuration-validation failure.
///
/// Produced by the non-panicking [`CacheConfig::check`] and
/// [`MachineConfig::check`]; the message names the offending structure and
/// parameter so a bad config is diagnosed before it panics deep in the
/// pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(ConfigError(format!($($msg)+)));
        }
    };
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
    /// Access latency in cycles (hit latency).
    pub hit_latency: Cycle,
    /// Number of miss status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Validates the geometry, naming the cache (`"L1D"`, ...) in any error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if sets, associativity or line size are not
    /// powers of two, or any field is zero.
    pub fn check(&self, name: &str) -> Result<(), ConfigError> {
        ensure!(
            self.sets > 0 && self.sets.is_power_of_two(),
            "{name}: sets must be a power of two (got {})",
            self.sets
        );
        ensure!(
            self.line_bytes > 0 && self.line_bytes.is_power_of_two(),
            "{name}: line size must be a power of two (got {})",
            self.line_bytes
        );
        ensure!(
            self.ways > 0,
            "{name}: associativity must be positive (got 0)"
        );
        ensure!(
            self.ways.is_power_of_two(),
            "{name}: associativity must be a power of two (got {})",
            self.ways
        );
        ensure!(self.mshrs > 0, "{name}: need at least one MSHR (got 0)");
        ensure!(
            self.hit_latency > 0,
            "{name}: hit latency must be at least one cycle (got 0)"
        );
        Ok(())
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics with the [`CacheConfig::check`] message on any invalid
    /// parameter.
    pub fn validate(&self) {
        if let Err(e) = self.check("cache") {
            // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use check()
            panic!("{e}");
        }
    }
}

/// Geometry and timing of one TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size as a power of two (e.g. 12 for 4 KiB pages).
    pub page_bits: u32,
    /// Base page-walk latency in cycles, on top of the memory accesses the
    /// walk performs.
    pub walk_latency: Cycle,
}

/// Direction predictor organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PredictorKind {
    /// gshare (PC XOR global history) — the default.
    #[default]
    Gshare,
    /// History-less per-PC 2-bit counters.
    Bimodal,
    /// Alpha-21264-style gshare/bimodal with a chooser.
    Tournament,
}

/// Branch prediction structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Global history length in bits (gshare).
    pub history_bits: u32,
    /// log2 of the pattern history table size.
    pub pht_bits: u32,
    /// Number of BTB entries (direct mapped).
    pub btb_entries: usize,
    /// Front-end redirect penalty on a mispredicted branch, in cycles
    /// (applied from branch resolution to fetch resume).
    pub mispredict_penalty: Cycle,
    /// Direction predictor organization.
    #[serde(default)]
    pub kind: PredictorKind,
}

/// Front-end / back-end widths and structure sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Micro-ops fetched per cycle (within one I-cache line).
    pub fetch_width: usize,
    /// Micro-ops decoded and renamed per cycle.
    pub rename_width: usize,
    /// Micro-ops issued to functional units per cycle.
    pub issue_width: usize,
    /// Micro-ops retired per cycle.
    pub retire_width: usize,
    /// Re-order buffer entries.
    pub rob_size: usize,
    /// Reservation station (scheduler) entries.
    pub rs_size: usize,
    /// Load buffer entries.
    pub load_buffer: usize,
    /// Store buffer entries.
    pub store_buffer: usize,
    /// Cycles from fetch to rename (front-end depth); determines the
    /// pipeline refill part of the thread-switch latency.
    pub frontend_depth: Cycle,
    /// Simple ALU count.
    pub alu_units: usize,
    /// Multiplier count.
    pub mul_units: usize,
    /// Divider count (unpipelined).
    pub div_units: usize,
    /// Load ports (AGU + D-cache read ports).
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Multiply latency in cycles.
    pub mul_latency: Cycle,
    /// Divide latency in cycles.
    pub div_latency: Cycle,
}

/// Switch-on-Event machinery parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoeConfig {
    /// Cycles to drain the RS/ROB/load buffers on a thread switch (the
    /// paper simulates a 6-cycle drain).
    pub drain_latency: Cycle,
    /// Also flag loads that miss the L1 but hit the L2 as switch events
    /// (Section 6's proposed extension: "L1 misses ... can cause a thread
    /// switch to hide L1 miss latency"). Off by default — the paper's
    /// evaluation switches on last-level misses only.
    pub switch_on_l1_miss: bool,
}

/// The complete simulated machine configuration.
///
/// [`MachineConfig::default`] reproduces the paper's Table 3 parameters: a
/// P6-derived out-of-order core with 32 KiB L1s, a 2 MiB unified L2, a
/// pipelined bus and a constant 300-cycle memory.
///
/// # Examples
///
/// ```
/// use soe_sim::MachineConfig;
///
/// let c = MachineConfig::default();
/// assert_eq!(c.mem_latency, 300);
/// assert_eq!(c.l2.capacity(), 2 * 1024 * 1024);
/// c.validate();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Pipeline widths and structures.
    pub pipeline: PipelineConfig,
    /// Branch prediction.
    pub predictor: PredictorConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache (the last level; its misses are the SOE
    /// switch events).
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Cycles between back-to-back bus transfers (pipelined bus
    /// occupancy per request).
    pub bus_cycles_per_transfer: Cycle,
    /// Constant memory access latency in cycles (the paper uses 300,
    /// i.e. 75 ns at 4 GHz).
    pub mem_latency: Cycle,
    /// Next-line stream prefetcher degree at the L2: on a demand miss to
    /// line `L`, lines `L+1 .. L+degree` are fetched too. `0` disables
    /// prefetching (the paper's machine; prefetching shrinks the very
    /// stalls SOE exists to hide, so it is studied as an ablation).
    pub l2_prefetch_degree: usize,
    /// Cycles between retired-store commits from the store buffer to the
    /// cache hierarchy. `0` (default) commits stores instantly at
    /// retirement; a positive interval models a draining store buffer
    /// whose occupancy can stall retirement when full.
    #[serde(default)]
    pub store_drain_interval: Cycle,
    /// Thread-switch machinery.
    pub soe: SoeConfig,
    /// Skip idle cycles when the whole machine is provably quiescent
    /// (pure simulation speedup; results are identical). Scheduled
    /// switch-policy decision points (Δ-window recalculations,
    /// cycle-quota expiries) are wake sources of their own, so jumps
    /// always stop at them: a fast-forwarded run takes every decision at
    /// the exact cycle a tick-by-tick run would.
    pub fast_forward: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig {
                fetch_width: 4,
                rename_width: 4,
                issue_width: 5,
                retire_width: 4,
                rob_size: 128,
                rs_size: 48,
                load_buffer: 48,
                store_buffer: 32,
                frontend_depth: 12,
                alu_units: 3,
                mul_units: 1,
                div_units: 1,
                load_ports: 2,
                store_ports: 1,
                mul_latency: 3,
                div_latency: 20,
            },
            predictor: PredictorConfig {
                history_bits: 12,
                pht_bits: 14,
                btb_entries: 2048,
                mispredict_penalty: 14,
                kind: PredictorKind::Gshare,
            },
            l1i: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 4,
            },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 3,
                mshrs: 16,
            },
            l2: CacheConfig {
                sets: 2048,
                ways: 16,
                line_bytes: 64,
                hit_latency: 14,
                mshrs: 16,
            },
            itlb: TlbConfig {
                entries: 64,
                page_bits: 12,
                walk_latency: 20,
            },
            dtlb: TlbConfig {
                entries: 64,
                page_bits: 12,
                walk_latency: 20,
            },
            bus_cycles_per_transfer: 4,
            mem_latency: 300,
            l2_prefetch_degree: 0,
            store_drain_interval: 0,
            soe: SoeConfig {
                drain_latency: 6,
                switch_on_l1_miss: false,
            },
            fast_forward: true,
        }
    }
}

impl MachineConfig {
    /// Validates every sub-structure, returning a descriptive error instead
    /// of panicking deep in the pipeline.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on any inconsistent parameter (zero widths,
    /// non-power-of-two cache geometry, retire width of zero, ...).
    pub fn check(&self) -> Result<(), ConfigError> {
        let p = &self.pipeline;
        ensure!(p.fetch_width > 0, "fetch width must be positive");
        ensure!(p.rename_width > 0, "rename width must be positive");
        ensure!(p.issue_width > 0, "issue width must be positive");
        ensure!(p.retire_width > 0, "retire width must be positive");
        ensure!(p.rob_size > 0, "ROB must be non-empty");
        ensure!(p.rs_size > 0, "RS must be non-empty");
        ensure!(
            p.load_buffer > 0 && p.store_buffer > 0,
            "LSQ must be non-empty"
        );
        ensure!(
            p.alu_units > 0 && p.load_ports > 0 && p.store_ports > 0,
            "need at least one ALU, load port and store port"
        );
        self.l1i.check("L1I")?;
        self.l1d.check("L1D")?;
        self.l2.check("L2")?;
        ensure!(
            self.itlb.entries > 0 && self.dtlb.entries > 0,
            "TLBs need entries"
        );
        ensure!(self.mem_latency > 0, "memory latency must be positive");
        ensure!(
            self.bus_cycles_per_transfer > 0,
            "bus occupancy must be positive"
        );
        let pr = &self.predictor;
        ensure!(
            pr.history_bits <= 32,
            "history length must fit the 32-bit global history register (got {})",
            pr.history_bits
        );
        ensure!(
            pr.pht_bits > 0 && pr.pht_bits <= 30,
            "PHT size must be 2^1..2^30 entries (got 2^{})",
            pr.pht_bits
        );
        ensure!(
            pr.btb_entries > 0 && pr.btb_entries.is_power_of_two(),
            "BTB entries must be a power of two (got {})",
            pr.btb_entries
        );
        ensure!(
            pr.mispredict_penalty > 0,
            "mispredict penalty must be at least one cycle (got 0)"
        );
        // No invariant to enforce: any prefetch degree (0 disables), any
        // drain interval (0 commits instantly), any drain latency (0
        // models a free switch), and both fast-forward settings are
        // legal machines.
        let _ = (
            pr.kind,
            self.l2_prefetch_degree,
            self.store_drain_interval,
            self.soe.drain_latency,
            self.soe.switch_on_l1_miss,
            self.fast_forward,
        );
        Ok(())
    }

    /// Validates every sub-structure.
    ///
    /// # Panics
    ///
    /// Panics with the [`MachineConfig::check`] message on any inconsistent
    /// parameter.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use check()
            panic!("{e}");
        }
    }

    /// A smaller, faster machine for unit tests: same structure, reduced
    /// cache sizes so that misses are easy to provoke.
    #[allow(clippy::field_reassign_with_default)]
    // soe-lint: allow(dead-pub): the small machine of the sim unit tests and tests/*.rs proptests
    pub fn test_config() -> Self {
        let mut c = Self::default();
        c.l1i = CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
        };
        c.l1d = CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 64,
            hit_latency: 3,
            mshrs: 8,
        };
        c.l2 = CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 64,
            hit_latency: 10,
            mshrs: 8,
        };
        c.mem_latency = 100;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MachineConfig::default().validate();
    }

    #[test]
    fn test_config_is_valid_and_small() {
        let c = MachineConfig::test_config();
        c.validate();
        assert!(c.l2.capacity() < MachineConfig::default().l2.capacity());
    }

    #[test]
    fn capacities_match_table3() {
        let c = MachineConfig::default();
        assert_eq!(c.l1i.capacity(), 32 * 1024);
        assert_eq!(c.l1d.capacity(), 32 * 1024);
        assert_eq!(c.l2.capacity(), 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_cache_geometry_panics() {
        let mut c = MachineConfig::default();
        c.l1d.sets = 63;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retire width")]
    fn zero_retire_width_panics() {
        let mut c = MachineConfig::default();
        c.pipeline.retire_width = 0;
        c.validate();
    }

    #[test]
    fn check_names_the_offending_cache() {
        let mut c = MachineConfig::default();
        c.l1d.sets = 63;
        let err = c.check().unwrap_err();
        assert!(err.0.contains("L1D"), "got: {err}");
        assert!(err.0.contains("63"), "got: {err}");
    }

    #[test]
    fn non_power_of_two_associativity_is_rejected() {
        let mut c = MachineConfig::default();
        c.l2.ways = 12;
        let err = c.check().unwrap_err();
        assert!(err.0.contains("associativity"), "got: {err}");
        assert!(err.0.contains("12"), "got: {err}");
    }

    #[test]
    fn zero_cache_sets_are_rejected() {
        let mut c = MachineConfig::default();
        c.l1i.sets = 0;
        assert!(c.check().is_err());
    }
}
