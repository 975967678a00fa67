//! The full memory hierarchy: L1I + L1D backed by a unified L2, a
//! pipelined bus and constant-latency memory, plus i/d TLBs whose page
//! walks go through the L2.

use serde::{Deserialize, Serialize};

use crate::config::MachineConfig;
use crate::mem::{Bus, Cache, MshrFile, Tlb};
use crate::obs::{EventKind, SharedTracer};
use crate::types::{Addr, Cycle};

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Cycle at which the data is available.
    pub complete_at: Cycle,
    /// Whether the data is being served from memory — i.e. the access
    /// depends on an L2 miss (its own, or a coalesced in-flight fill).
    /// A ROB entry carrying this flag that reaches the retirement head
    /// unresolved is the paper's SOE switch event.
    pub from_memory: bool,
    /// Whether this access *initiated* a new L2 miss (first of an
    /// overlapped group) — the statistic the paper's `Misses_j` counts.
    pub initiated_l2_miss: bool,
}

/// Aggregate hierarchy counters (beyond the per-structure stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Demand L2 misses initiated by data accesses.
    pub data_l2_misses: u64,
    /// Demand L2 misses initiated by instruction fetches.
    pub ifetch_l2_misses: u64,
    /// L2 misses initiated by TLB page walks.
    pub walk_l2_misses: u64,
    /// L2 lines fetched by the stream prefetcher.
    pub prefetches_issued: u64,
    /// Prefetched lines that a demand access later hit (useful
    /// prefetches).
    pub prefetches_useful: u64,
}

/// The shared memory hierarchy. Caches, TLBs and predictors are *not*
/// flushed on SOE thread switches (Section 4.1 of the paper); threads
/// interact only through capacity and bandwidth.
///
/// # Examples
///
/// ```
/// use soe_sim::{MachineConfig, mem::Hierarchy};
///
/// let cfg = MachineConfig::test_config();
/// let mut h = Hierarchy::new(&cfg);
/// let first = h.access_data(0, 0x4000, false);
/// assert!(first.from_memory); // cold miss goes to memory
/// let again = h.access_data(first.complete_at, 0x4000, false);
/// assert!(!again.from_memory); // now cached
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1i_mshr: MshrFile,
    l1d_mshr: MshrFile,
    l2_mshr: MshrFile,
    bus: Bus,
    itlb: Tlb,
    dtlb: Tlb,
    mem_latency: Cycle,
    prefetch_degree: usize,
    /// Prefetched lines not yet touched by demand (for usefulness
    /// accounting).
    // BTreeSet keeps the simulator free of hash-order state even though
    // this set is only probed point-wise today.
    prefetched: std::collections::BTreeSet<Addr>,
    stats: HierarchyStats,
    /// Optional event recorder; every initiated demand L2 miss emits a
    /// miss event plus a fill event scheduled at its completion cycle.
    tracer: Option<SharedTracer>,
}

/// Base physical address of the simulated page tables; placed far above
/// any workload address space so PTE lines never alias workload lines.
const PAGE_TABLE_BASE: Addr = 0x7000_0000_0000;

impl Hierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l1i_mshr: MshrFile::new(cfg.l1i.mshrs),
            l1d_mshr: MshrFile::new(cfg.l1d.mshrs),
            l2_mshr: MshrFile::new(cfg.l2.mshrs),
            bus: Bus::new(cfg.bus_cycles_per_transfer),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            mem_latency: cfg.mem_latency,
            prefetch_degree: cfg.l2_prefetch_degree,
            prefetched: std::collections::BTreeSet::new(),
            stats: HierarchyStats::default(),
            tracer: None,
        }
    }

    /// Attaches a cycle-level event recorder (normally a clone of the
    /// machine's, via [`crate::Machine::attach_tracer`]).
    pub fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Issues next-line prefetches behind a demand miss to `line`.
    fn prefetch_after(&mut self, ready: Cycle, line: Addr) {
        let line_bytes = self.l2.config().line_bytes as Addr;
        for k in 1..=self.prefetch_degree as Addr {
            let target = line + k * line_bytes;
            if self.l2.probe(target) || self.l2_mshr.outstanding(target, ready).is_some() {
                continue;
            }
            // Prefetches are dropped rather than queued when the MSHRs
            // are busy — they must never delay demand misses.
            if self.l2_mshr.next_free(ready) > ready {
                break;
            }
            let bus_start = self.bus.schedule(ready);
            let done = bus_start + self.mem_latency;
            self.l2_mshr.register(target, ready, done);
            if let Some(ev) = self.l2.fill(target, false) {
                if ev.dirty {
                    self.bus.schedule(done);
                }
            }
            self.prefetched.insert(target);
            self.stats.prefetches_issued += 1;
        }
    }

    /// L2 access at `ready`; returns (completion cycle, initiated-miss,
    /// from-memory).
    fn access_l2(&mut self, ready: Cycle, line: Addr) -> (Cycle, bool, bool) {
        // Lines are installed in the tag array when the request is made
        // (eager state update); the MSHR holds the fill *timing*, so an
        // in-flight line must be checked before the tag array.
        let inflight = self.l2_mshr.outstanding(line, ready);
        let hit = self.l2.lookup(line);
        if hit || inflight.is_some() {
            // Usefulness accounting: first demand touch of a prefetched
            // line.
            if self.prefetched.remove(&line) {
                self.stats.prefetches_useful += 1;
            }
        }
        if let Some(fill) = inflight {
            // Coalesce with the in-flight fill.
            return (fill.max(ready + self.l2.config().hit_latency), false, true);
        }
        if hit {
            return (ready + self.l2.config().hit_latency, false, false);
        }
        let slot = self.l2_mshr.next_free(ready);
        let bus_start = self.bus.schedule(slot + self.l2.config().hit_latency);
        let done = bus_start + self.mem_latency;
        self.l2_mshr.register(line, slot, done);
        if let Some(ev) = self.l2.fill(line, false) {
            if ev.dirty {
                // Write-back occupies a bus slot after the fill.
                self.bus.schedule(done);
            }
        }
        if self.prefetch_degree > 0 {
            // Prefetches ride the bus right behind the demand transfer.
            self.prefetch_after(bus_start + 1, line);
        }
        if let Some(t) = &self.tracer {
            // The fill is emitted now but stamped at its completion
            // cycle; the tracer re-orders it into its place.
            let mut tr = t.borrow_mut();
            tr.emit(ready, EventKind::L2Miss { line });
            tr.emit(done, EventKind::L2Fill { line });
        }
        (done, true, true)
    }

    fn access_l1(
        &mut self,
        now: Cycle,
        addr: Addr,
        instr: bool,
        allocate_dirty: bool,
    ) -> MemResponse {
        let (l1, mshr) = if instr {
            (&mut self.l1i, &mut self.l1i_mshr)
        } else {
            (&mut self.l1d, &mut self.l1d_mshr)
        };
        let hit_lat = l1.config().hit_latency;
        let line = l1.line_addr(addr);
        // In-flight fills take precedence over the (eagerly updated) tag
        // array: the line is present but its data has not arrived yet.
        let inflight = mshr.outstanding(line, now);
        let hit = l1.lookup(addr);
        if let Some(fill) = inflight {
            if allocate_dirty {
                l1.mark_dirty(addr);
            }
            return MemResponse {
                complete_at: fill.max(now + hit_lat),
                from_memory: true,
                initiated_l2_miss: false,
            };
        }
        if hit {
            if allocate_dirty {
                l1.mark_dirty(addr);
            }
            return MemResponse {
                complete_at: now + hit_lat,
                from_memory: false,
                initiated_l2_miss: false,
            };
        }
        let start = mshr.next_free(now);
        let (done, initiated, from_mem) = self.access_l2(start + hit_lat, line);
        // Re-borrow after the L2 call.
        let (l1, mshr) = if instr {
            (&mut self.l1i, &mut self.l1i_mshr)
        } else {
            (&mut self.l1d, &mut self.l1d_mshr)
        };
        mshr.register(line, start, done);
        if let Some(ev) = l1.fill(addr, allocate_dirty) {
            if ev.dirty {
                // Dirty L1 victim written back into the L2.
                if !self.l2.mark_dirty(ev.line_addr) {
                    // Victim line no longer in L2: write it to memory.
                    self.bus.schedule(done);
                }
            }
        }
        MemResponse {
            complete_at: done,
            from_memory: from_mem,
            initiated_l2_miss: initiated,
        }
    }

    /// A data-side access (load or store) at `now`. Stores allocate the
    /// line dirty (write-back, write-allocate).
    pub fn access_data(&mut self, now: Cycle, addr: Addr, is_store: bool) -> MemResponse {
        let r = self.access_l1(now, addr, false, is_store);
        if r.initiated_l2_miss {
            self.stats.data_l2_misses += 1;
        }
        r
    }

    /// An instruction fetch of the line containing `pc` at `now`.
    pub fn access_ifetch(&mut self, now: Cycle, pc: Addr) -> MemResponse {
        let r = self.access_l1(now, pc, true, false);
        if r.initiated_l2_miss {
            self.stats.ifetch_l2_misses += 1;
        }
        r
    }

    fn walk(&mut self, now: Cycle, vpn: u64, walk_latency: Cycle) -> MemResponse {
        // The page-table entry is read through the L2 (walks bypass L1D).
        let pte_addr = PAGE_TABLE_BASE + vpn * 8;
        let line = self.l2.line_addr(pte_addr);
        let (done, initiated, from_mem) = self.access_l2(now, line);
        if initiated {
            self.stats.walk_l2_misses += 1;
        }
        MemResponse {
            complete_at: done + walk_latency,
            from_memory: from_mem,
            initiated_l2_miss: initiated,
        }
    }

    /// Translates a data address; on a dTLB miss performs the page walk.
    pub fn translate_data(&mut self, now: Cycle, addr: Addr) -> MemResponse {
        if self.dtlb.translate(addr) {
            return MemResponse {
                complete_at: now,
                from_memory: false,
                initiated_l2_miss: false,
            };
        }
        let vpn = self.dtlb.vpn(addr);
        let lat = self.dtlb.config().walk_latency;
        self.walk(now, vpn, lat)
    }

    /// Translates an instruction address; on an iTLB miss performs the
    /// page walk.
    pub fn translate_instr(&mut self, now: Cycle, addr: Addr) -> MemResponse {
        if self.itlb.translate(addr) {
            return MemResponse {
                complete_at: now,
                from_memory: false,
                initiated_l2_miss: false,
            };
        }
        let vpn = self.itlb.vpn(addr);
        let lat = self.itlb.config().walk_latency;
        self.walk(now, vpn, lat)
    }

    /// L1 instruction cache statistics.
    pub fn l1i_stats(&self) -> crate::mem::CacheStats {
        self.l1i.stats()
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> crate::mem::CacheStats {
        self.l1d.stats()
    }

    /// Unified L2 statistics.
    pub fn l2_stats(&self) -> crate::mem::CacheStats {
        self.l2.stats()
    }

    /// dTLB statistics.
    pub fn dtlb_stats(&self) -> crate::mem::TlbStats {
        self.dtlb.stats()
    }

    /// Aggregate hierarchy counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Total bus transfers.
    pub fn bus_transfers(&self) -> u64 {
        self.bus.transfers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&MachineConfig::test_config())
    }

    #[test]
    fn cold_load_goes_to_memory() {
        let mut h = hierarchy();
        let r = h.access_data(0, 0x10_000, false);
        assert!(r.from_memory);
        assert!(r.initiated_l2_miss);
        // L1 (3) + L2 (10) + memory (100) plus bus scheduling.
        assert!(r.complete_at >= 100);
        assert_eq!(h.stats().data_l2_misses, 1);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut h = hierarchy();
        let first = h.access_data(0, 0x10_000, false);
        let r = h.access_data(first.complete_at + 1, 0x10_000, false);
        assert!(!r.from_memory);
        assert_eq!(r.complete_at, first.complete_at + 1 + 3);
    }

    #[test]
    fn overlapped_misses_to_same_line_coalesce() {
        let mut h = hierarchy();
        let a = h.access_data(0, 0x20_000, false);
        let b = h.access_data(1, 0x20_010, false); // same 64B line
        assert!(a.initiated_l2_miss);
        assert!(!b.initiated_l2_miss, "second miss coalesces");
        assert!(b.from_memory, "but still depends on memory");
        assert!(b.complete_at <= a.complete_at.max(1 + 3));
        assert_eq!(h.stats().data_l2_misses, 1);
    }

    #[test]
    fn misses_to_different_lines_overlap_on_the_bus() {
        let mut h = hierarchy();
        let a = h.access_data(0, 0x30_000, false);
        let b = h.access_data(0, 0x40_000, false);
        assert!(a.initiated_l2_miss && b.initiated_l2_miss);
        // Pipelined bus: second fill lands shortly after the first, far
        // sooner than two serialized memory latencies.
        assert!(b.complete_at < a.complete_at + 50);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = hierarchy();
        let r = h.access_ifetch(0, 0x1000);
        assert!(r.from_memory);
        let r2 = h.access_ifetch(r.complete_at, 0x1000);
        assert!(!r2.from_memory);
        assert_eq!(h.l1i_stats().hits, 1);
        assert_eq!(h.l1i_stats().misses, 1);
    }

    #[test]
    fn dtlb_walk_charges_latency_and_can_miss_l2() {
        let mut h = hierarchy();
        let r = h.translate_data(0, 0x5000_0000);
        assert!(r.from_memory, "cold page walk reads PTE from memory");
        assert!(r.complete_at >= 100 + 20);
        assert_eq!(h.stats().walk_l2_misses, 1);
        // Second access to the same page hits the TLB instantly.
        let r2 = h.translate_data(r.complete_at, 0x5000_0fff);
        assert!(!r2.from_memory);
        assert_eq!(r2.complete_at, r.complete_at);
    }

    #[test]
    fn stores_allocate_dirty_and_write_back() {
        let mut h = hierarchy();
        let cfg = MachineConfig::test_config();
        // Store to a line, then evict it by filling the same L1 set.
        h.access_data(0, 0x0, true);
        let l1_sets = cfg.l1d.sets as u64;
        let stride = l1_sets * cfg.l1d.line_bytes as u64;
        for i in 1..=cfg.l1d.ways as u64 {
            h.access_data(1000 * i, i * stride, false);
        }
        assert!(h.l1d_stats().writebacks >= 1);
    }

    #[test]
    fn stream_prefetcher_covers_sequential_misses() {
        let mut cfg = MachineConfig::test_config();
        cfg.l2_prefetch_degree = 4;
        let mut h = Hierarchy::new(&cfg);
        // Walk 32 sequential lines: with degree-4 prefetch most demand
        // accesses after the first should find their line ready.
        let mut now = 0;
        let mut initiated = 0;
        for i in 0..32u64 {
            let r = h.access_data(now, 0x80_0000 + i * 64, false);
            if r.initiated_l2_miss {
                initiated += 1;
            }
            now = r.complete_at + 50;
        }
        assert!(
            initiated < 16,
            "prefetching should absorb most sequential misses: {initiated}"
        );
        let s = h.stats();
        assert!(s.prefetches_issued > 8, "issued {}", s.prefetches_issued);
        assert!(
            s.prefetches_useful > 4,
            "useful {} of {}",
            s.prefetches_useful,
            s.prefetches_issued
        );
    }

    #[test]
    fn prefetcher_off_by_default() {
        let mut h = hierarchy();
        let mut now = 0;
        for i in 0..8u64 {
            let r = h.access_data(now, 0x90_0000 + i * 64, false);
            assert!(r.initiated_l2_miss, "every sequential line misses");
            now = r.complete_at + 10;
        }
        assert_eq!(h.stats().prefetches_issued, 0);
    }
}
