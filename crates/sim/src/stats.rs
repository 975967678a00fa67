//! Machine-level statistics: the hardware counters of the simulated
//! processor.

use serde::{Deserialize, Serialize};

use crate::types::Cycle;

/// Per-thread retirement-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Instructions retired (the paper's `Instrs_j`; doubles as the
    /// thread's architectural position for trace replay).
    pub retired: u64,
    /// Cycles from the retirement of the first instruction after
    /// switch-in until switch-out (the paper's `Cycles_j`; excludes switch
    /// overhead).
    pub running_cycles: u64,
    /// L2-miss stalls that caused a thread switch (the paper's
    /// `Misses_j`).
    pub switch_misses: u64,
    /// Switches out of this thread caused by miss events.
    pub event_switches: u64,
    /// Switches out of this thread forced by the policy (these hide no
    /// memory access).
    pub forced_switches: u64,
    /// Switches requested by software hint instructions (`pause`).
    pub hint_switches: u64,
    /// Retired branches.
    pub branches: u64,
    /// Mispredicted retired branches.
    pub mispredicts: u64,
    /// Retired calls.
    pub calls: u64,
    /// Retired returns.
    pub returns: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
}

impl ThreadStats {
    /// All switches out of this thread.
    // soe-lint: allow(dead-pub): tests/proptest_sim.rs checks switch conservation with it
    pub fn switches(&self) -> u64 {
        self.event_switches + self.forced_switches + self.hint_switches
    }
}

/// Whole-machine statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Per-thread counters.
    pub threads: Vec<ThreadStats>,
    /// Total thread switches.
    pub total_switches: u64,
    /// Accumulated switch latency: from switch start until the first
    /// retirement of the incoming thread.
    pub switch_overhead_cycles: u64,
    /// Number of switches whose latency has been fully measured (the
    /// incoming thread retired at least one instruction).
    pub measured_switches: u64,
}

impl MachineStats {
    /// Creates zeroed statistics for `threads` hardware contexts.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: vec![ThreadStats::default(); threads],
            ..Self::default()
        }
    }

    /// Total retired instructions across threads.
    pub fn total_retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    /// Whole-machine IPC: total retired over total cycles.
    // soe-lint: allow(dead-pub): the core.rs and stats.rs unit tests
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }

    /// Average measured thread-switch latency in cycles (the paper
    /// reports this accumulating to around 25).
    pub fn avg_switch_latency(&self) -> f64 {
        if self.measured_switches == 0 {
            0.0
        } else {
            self.switch_overhead_cycles as f64 / self.measured_switches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = MachineStats::new(2);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn aggregates_sum_threads() {
        let mut s = MachineStats::new(2);
        s.cycles = 100;
        s.threads[0].retired = 120;
        s.threads[1].retired = 80;
        assert_eq!(s.total_retired(), 200);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn switch_latency_average() {
        let mut s = MachineStats::new(1);
        s.switch_overhead_cycles = 50;
        s.measured_switches = 2;
        assert_eq!(s.avg_switch_latency(), 25.0);
    }

    #[test]
    fn switches_sum_reasons() {
        let t = ThreadStats {
            event_switches: 3,
            forced_switches: 4,
            ..Default::default()
        };
        assert_eq!(t.switches(), 7);
    }
}
