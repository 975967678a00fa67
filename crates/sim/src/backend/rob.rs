//! The re-order buffer: in-order allocation and retirement around an
//! out-of-order execution window.
//!
//! Besides the entries themselves the buffer maintains several pieces
//! of derived state incrementally, so the per-cycle pipeline stages
//! never need an O(ROB) scan:
//!
//! * a completion heap (`completions`) of `(completion cycle, stream
//!   position)` pairs, which makes "what completes now?"
//!   ([`Rob::complete_until`]) and "when does the next thing
//!   complete?" ([`Rob::earliest_completion`]) cheap — the latter
//!   is the machine's `RobComplete` wake source;
//! * occupancy counters (waiting / loads / stores) for rename-stage
//!   resource checks ([`Rob::occupancy`]);
//! * a wake-on-writeback issue scheduler. Every `Waiting` entry is
//!   either *eligible* — its bit is set in a mask indexed by stream
//!   position modulo a power of two no smaller than the capacity, which
//!   [`Rob::next_eligible`] scans oldest-first from the head's slot — or
//!   *parked* on the intrusive waiter list of the one not-done entry it
//!   waits for: a producer (issued or not) or, for a load, the youngest
//!   older store to the same address. [`Rob::push`] parks at dispatch,
//!   [`Rob::issue_check`] parks an eligible entry it finds blocked, and
//!   [`Rob::complete_until`] moves a completing entry's waiters back
//!   into the mask. The issue stage runs after writeback in every
//!   cycle, so a parked entry is examined again in exactly the cycle its
//!   blocker's result becomes available;
//! * the stream positions of in-flight stores, so memory
//!   disambiguation ([`Rob::older_store_to`]) scans the store buffer,
//!   not the whole window;
//! * all state transitions funnel through [`Rob::push`],
//!   [`Rob::issue_check`], [`Rob::set_executing`],
//!   [`Rob::complete_until`], [`Rob::pop_head`] and [`Rob::squash`] so
//!   the derived state cannot drift from the entries. Entry state is
//!   therefore read-only from the outside.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::types::{Addr, Cycle, InstrIndex};
use crate::uop::{Uop, UopKind};

/// Execution state of one ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched into the reservation station, waiting for operands or a
    /// functional unit.
    Waiting,
    /// Issued; completes at the contained cycle.
    Executing(Cycle),
    /// Completed (result available to dependents).
    Done,
}

/// One in-flight micro-op.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Dynamic stream position.
    pub index: InstrIndex,
    /// The micro-op.
    pub uop: Uop,
    /// Execution state.
    pub state: EntryState,
    /// True while the entry's data depends on an unresolved L2 miss —
    /// the paper's in-ROB miss flag that triggers SOE switches when it
    /// reaches the retirement head.
    pub mem_pending: bool,
    /// Whether the branch was mispredicted at fetch.
    pub mispredicted: bool,
    /// Head of the intrusive list of entries parked on this one: they
    /// become eligible for issue when this entry completes.
    waiters_head: Option<InstrIndex>,
    /// Link in the waiter list this entry is parked in, if any.
    next_waiter: Option<InstrIndex>,
}

/// What the issue stage needs of an entry that [`Rob::issue_check`]
/// cleared to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issuable {
    /// Operation class (selects the functional unit).
    pub kind: UopKind,
    /// Data address of a load or store.
    pub mem_addr: Option<Addr>,
    /// A load whose data forwards from an older, completed store to the
    /// same address.
    pub forward: bool,
}

/// The re-order buffer. Entries are stored contiguously by stream
/// position: the entry for position `i` lives at offset `i - head_index`.
///
/// # Examples
///
/// ```
/// use soe_sim::backend::{EntryState, Rob};
/// use soe_sim::{Uop, UopKind};
///
/// let mut rob = Rob::new(4);
/// rob.push(0, Uop::new(UopKind::Alu, 0), false);
/// assert_eq!(rob.len(), 1);
/// assert_eq!(rob.get(0).map(|e| e.state), Some(EntryState::Waiting));
/// rob.set_executing(0, 5, false);
/// assert_eq!(rob.get(0).map(|e| e.state), Some(EntryState::Executing(5)));
/// assert_eq!(rob.earliest_completion(), Some(5));
/// ```
#[derive(Debug)]
pub struct Rob {
    head_index: InstrIndex,
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Completion heap: `(completion cycle, stream position)` of every
    /// `Executing` entry, min-first. Every `Executing` entry has exactly
    /// one slot here; squash empties it, so no stale entry survives.
    completions: BinaryHeap<Reverse<(Cycle, InstrIndex)>>,
    /// Number of entries in `EntryState::Waiting`.
    waiting: usize,
    /// Number of in-flight loads (any state).
    loads: usize,
    /// Number of in-flight stores (any state).
    stores: usize,
    /// Eligibility mask, one bit per slot `index & slot_mask`: set for
    /// `Waiting` entries that are not parked. The slot count is a power
    /// of two of at least one word and no smaller than the capacity, so
    /// live entries never share a slot and words align with the wrap.
    eligible: Vec<u64>,
    slot_mask: InstrIndex,
    /// Stream positions of in-flight stores, oldest first.
    store_indices: VecDeque<InstrIndex>,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        let slots = capacity.next_power_of_two().max(64);
        Self {
            head_index: 0,
            entries: VecDeque::with_capacity(capacity),
            capacity,
            completions: BinaryHeap::with_capacity(capacity),
            waiting: 0,
            loads: 0,
            stores: 0,
            eligible: vec![0; slots / 64],
            slot_mask: slots as InstrIndex - 1,
            store_indices: VecDeque::new(),
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Stream position of the oldest in-flight entry (valid even when
    /// empty: the next position to allocate).
    pub fn head_index(&self) -> InstrIndex {
        self.head_index
    }

    /// Allocates an entry at the tail (in `Waiting` state): eligible for
    /// issue, or parked on its blocker if one is not done.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full or `index` is not the next sequential
    /// position.
    pub fn push(&mut self, index: InstrIndex, uop: Uop, mispredicted: bool) {
        assert!(!self.is_full(), "ROB overflow");
        assert_eq!(
            index,
            self.head_index + self.entries.len() as u64,
            "ROB allocation must be sequential"
        );
        match uop.kind {
            UopKind::Load => self.loads += 1,
            UopKind::Store => {
                self.stores += 1;
                self.store_indices.push_back(index);
            }
            _ => {}
        }
        self.waiting += 1;
        let blocker = self.readiness(index, &uop).err();
        self.entries.push_back(RobEntry {
            index,
            uop,
            state: EntryState::Waiting,
            mem_pending: false,
            mispredicted,
            waiters_head: None,
            next_waiter: None,
        });
        match blocker {
            Some(b) => self.park(index, b),
            None => self.set_eligible(index, true),
        }
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Retires (removes) the oldest entry, or returns `None` when the
    /// ROB is empty.
    ///
    /// # Panics
    ///
    /// Panics if the head exists but is not `Done` — retiring an
    /// incomplete entry is a pipeline-ordering bug, never a recoverable
    /// condition.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        assert_eq!(e.state, EntryState::Done, "retiring incomplete entry");
        match e.uop.kind {
            UopKind::Load => self.loads -= 1,
            UopKind::Store => {
                self.stores -= 1;
                // Stores retire in order, so the oldest tracked store is
                // this one; the guard keeps a hypothetical drift
                // panic-free.
                if self.store_indices.front() == Some(&e.index) {
                    self.store_indices.pop_front();
                }
            }
            _ => {}
        }
        self.head_index += 1;
        Some(e)
    }

    /// Shared access by stream position.
    pub fn get(&self, index: InstrIndex) -> Option<&RobEntry> {
        let off = index.checked_sub(self.head_index)?;
        self.entries.get(off as usize)
    }

    fn get_mut(&mut self, index: InstrIndex) -> Option<&mut RobEntry> {
        let off = index.checked_sub(self.head_index)?;
        self.entries.get_mut(off as usize)
    }

    /// Issues entry `index`: `Waiting` → `Executing(done)`, registering
    /// it in the completion heap. Entries parked on it stay parked until
    /// it completes. Returns whether the transition happened (`false` if
    /// the entry is absent or not `Waiting`).
    pub fn set_executing(&mut self, index: InstrIndex, done: Cycle, mem_pending: bool) -> bool {
        let Some(e) = self.get_mut(index) else {
            return false;
        };
        if e.state != EntryState::Waiting {
            debug_assert!(false, "issuing entry {index} twice");
            return false;
        }
        e.state = EntryState::Executing(done);
        e.mem_pending = mem_pending;
        self.waiting -= 1;
        self.completions.push(Reverse((done, index)));
        self.set_eligible(index, false);
        true
    }

    /// The earliest pending completion cycle, if anything is executing —
    /// O(1), no entry scan.
    pub fn earliest_completion(&self) -> Option<Cycle> {
        self.completions.peek().map(|&Reverse((c, _))| c)
    }

    /// Marks every entry whose completion cycle is `<= now` as `Done`
    /// (clearing its miss flag) and makes the entries parked on it
    /// eligible, appending the stream positions of the mispredicted ones
    /// to `resolved` in ascending (program) order — the order the old
    /// oldest-first writeback scan produced. Returns whether anything
    /// completed.
    pub fn complete_until(&mut self, now: Cycle, resolved: &mut Vec<InstrIndex>) -> bool {
        let mut progress = false;
        while let Some(&Reverse((done, index))) = self.completions.peek() {
            if done > now {
                break;
            }
            self.completions.pop();
            // Heap entries are cleared on squash, so the entry is
            // always present; the guard keeps this panic-free.
            let Some(e) = self.get_mut(index) else {
                continue;
            };
            e.state = EntryState::Done;
            e.mem_pending = false;
            let mispredicted = e.mispredicted;
            let mut next = e.waiters_head.take();
            while let Some(w) = next {
                next = self.get_mut(w).and_then(|e| e.next_waiter.take());
                self.set_eligible(w, true);
            }
            progress = true;
            if mispredicted {
                resolved.push(index);
            }
        }
        if resolved.len() > 1 {
            resolved.sort_unstable();
        }
        progress
    }

    /// The producer `dist` positions before `consumer`, if it is in the
    /// window and not done (`dist == 0` means no dependence; producers
    /// before the window have retired).
    fn producer_blocker(&self, consumer: InstrIndex, dist: u32) -> Option<InstrIndex> {
        if dist == 0 {
            return None;
        }
        let p = self.get(consumer.checked_sub(u64::from(dist))?)?;
        (p.state != EntryState::Done).then_some(p.index)
    }

    /// Issue readiness of entry `index` carrying `uop`: `Ok(forward)`
    /// when its operands are available (`forward` for a load served by
    /// an older completed store to its address), or `Err` naming the
    /// not-done entry it waits for — the first unfinished producer, or
    /// for a load the youngest older store to the same address (memory
    /// disambiguation: the load waits for the store's data, then
    /// forwards).
    fn readiness(&self, index: InstrIndex, uop: &Uop) -> Result<bool, InstrIndex> {
        for d in uop.src_dist {
            if let Some(p) = self.producer_blocker(index, d) {
                return Err(p);
            }
        }
        if uop.kind != UopKind::Load {
            return Ok(false);
        }
        match uop.mem_addr.and_then(|a| self.older_store_to(index, a)) {
            Some(st) if st.state == EntryState::Done => Ok(true),
            Some(st) => Err(st.index),
            None => Ok(false),
        }
    }

    /// Finds the youngest store older than `load_index` with the same data
    /// address, for store-to-load forwarding. Returns its state. Scans
    /// the in-flight stores only, not the whole window.
    pub fn older_store_to(&self, load_index: InstrIndex, addr: u64) -> Option<&RobEntry> {
        self.store_indices
            .iter()
            .rev()
            .copied()
            .skip_while(|&i| i >= load_index)
            .filter_map(|i| self.get(i))
            .find(|e| e.uop.mem_addr == Some(addr))
    }

    /// The oldest eligible entry at or after stream position `from` —
    /// the issue stage's cursor. Costs one step per mask word, not per
    /// entry.
    pub fn next_eligible(&self, from: InstrIndex) -> Option<InstrIndex> {
        let end = self.head_index + self.entries.len() as u64;
        let mut i = from.max(self.head_index);
        while i < end {
            let slot = i & self.slot_mask;
            let bits = self
                .eligible
                .get((slot / 64) as usize)
                .map_or(0, |w| w >> (slot % 64));
            if bits != 0 {
                let found = i + u64::from(bits.trailing_zeros());
                return (found < end).then_some(found);
            }
            i += 64 - slot % 64;
        }
        None
    }

    /// The entries parked on `index`, most recently parked first.
    // soe-lint: allow(dead-pub): tests/rob_model.rs checks the wait lists against its reference model
    pub fn waiters(&self, index: InstrIndex) -> impl Iterator<Item = InstrIndex> + '_ {
        std::iter::successors(self.get(index).and_then(|e| e.waiters_head), |&w| {
            self.get(w).and_then(|e| e.next_waiter)
        })
    }

    /// Examines the eligible entry `index` for issue this cycle: returns
    /// what the issue stage needs if it is ready, or parks it on its
    /// blocker (see [`Rob::push`]) and returns `None`. `index` must come
    /// from [`Rob::next_eligible`]: an entry parked twice would link its
    /// waiter list into a cycle.
    pub fn issue_check(&mut self, index: InstrIndex) -> Option<Issuable> {
        let e = self.get(index)?;
        match self.readiness(index, &e.uop) {
            Ok(forward) => Some(Issuable {
                kind: e.uop.kind,
                mem_addr: e.uop.mem_addr,
                forward,
            }),
            Err(blocker) => {
                self.park(index, blocker);
                None
            }
        }
    }

    /// Moves `index` out of the mask onto the waiter list of the
    /// not-done entry `blocker`; it is left eligible if `blocker` is gone.
    fn park(&mut self, index: InstrIndex, blocker: InstrIndex) {
        let Some(b) = self.get_mut(blocker) else {
            self.set_eligible(index, true);
            return;
        };
        let prev = b.waiters_head.replace(index);
        if let Some(e) = self.get_mut(index) {
            e.next_waiter = prev;
        }
        self.set_eligible(index, false);
    }

    fn set_eligible(&mut self, index: InstrIndex, on: bool) {
        let slot = index & self.slot_mask;
        if let Some(w) = self.eligible.get_mut((slot / 64) as usize) {
            let bit = 1u64 << (slot % 64);
            if on {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// Iterates over in-flight entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Squashes every in-flight entry and repoints the window at
    /// `restart_index` (thread switch or full-pipeline flush).
    pub fn squash(&mut self, restart_index: InstrIndex) {
        self.entries.clear();
        self.head_index = restart_index;
        self.completions.clear();
        self.waiting = 0;
        self.loads = 0;
        self.stores = 0;
        self.eligible.fill(0);
        self.store_indices.clear();
    }

    /// Number of entries waiting in the reservation station — O(1).
    // soe-lint: allow(dead-pub): tests/rob_model.rs checks the wait lists against its reference model
    pub fn waiting_count(&self) -> usize {
        self.waiting
    }

    /// Occupancy counts: (waiting-in-RS, loads, stores) — O(1), kept
    /// incrementally at push/issue/retire/squash.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.waiting, self.loads, self.stores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(pc: u64) -> Uop {
        Uop::new(UopKind::Alu, pc)
    }

    /// Issue + complete in one step, for tests that only care about the
    /// end state.
    fn force_done(rob: &mut Rob, index: InstrIndex) {
        assert!(rob.set_executing(index, 0, false));
        let mut resolved = Vec::new();
        rob.complete_until(Cycle::MAX, &mut resolved);
    }

    #[test]
    fn sequential_allocation_and_retirement() {
        let mut rob = Rob::new(4);
        rob.push(0, alu(0), false);
        rob.push(1, alu(4), false);
        force_done(&mut rob, 0);
        let e = rob.pop_head().expect("head exists");
        assert_eq!(e.index, 0);
        assert_eq!(rob.head_index(), 1);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn non_sequential_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(5, alu(0), false);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn retiring_waiting_entry_panics() {
        let mut rob = Rob::new(4);
        rob.push(0, alu(0), false);
        let _ = rob.pop_head();
    }

    #[test]
    fn producer_tracking() {
        let mut rob = Rob::new(8);
        rob.push(0, alu(0), false);
        rob.push(1, alu(4), false);
        assert!(rob.producer_blocker(1, 1).is_some());
        force_done(&mut rob, 0);
        assert!(rob.producer_blocker(1, 1).is_none());
        assert!(
            rob.producer_blocker(1, 5).is_none(),
            "pre-program producers are done"
        );
        assert!(rob.producer_blocker(1, 0).is_none(), "no dependence");
    }

    #[test]
    fn retired_producers_count_as_done() {
        let mut rob = Rob::new(4);
        rob.push(0, alu(0), false);
        force_done(&mut rob, 0);
        let _ = rob.pop_head();
        rob.push(1, alu(4), false);
        assert!(rob.producer_blocker(1, 1).is_none());
    }

    #[test]
    fn store_forwarding_finds_youngest_older_store() {
        let mut rob = Rob::new(8);
        rob.push(0, Uop::new(UopKind::Store, 0).with_mem(0x100), false);
        rob.push(1, Uop::new(UopKind::Store, 4).with_mem(0x100), false);
        rob.push(2, Uop::new(UopKind::Load, 8).with_mem(0x100), false);
        let s = rob.older_store_to(2, 0x100).expect("store found");
        assert_eq!(s.index, 1, "youngest older store wins");
        assert!(rob.older_store_to(2, 0x200).is_none());
        assert!(rob.older_store_to(0, 0x100).is_none(), "no younger stores");
    }

    #[test]
    fn squash_empties_and_repoints() {
        let mut rob = Rob::new(4);
        rob.push(0, alu(0), false);
        rob.set_executing(0, 7, true);
        rob.squash(42);
        assert!(rob.is_empty());
        assert_eq!(rob.head_index(), 42);
        assert_eq!(rob.earliest_completion(), None, "calendar cleared");
        assert_eq!(rob.occupancy(), (0, 0, 0), "counters cleared");
        rob.push(42, alu(0), false);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn occupancy_counts_kinds() {
        let mut rob = Rob::new(8);
        rob.push(0, Uop::new(UopKind::Load, 0).with_mem(0x1), false);
        rob.push(1, Uop::new(UopKind::Store, 4).with_mem(0x2), false);
        rob.push(2, alu(8), false);
        force_done(&mut rob, 2);
        let (waiting, loads, stores) = rob.occupancy();
        assert_eq!((waiting, loads, stores), (2, 1, 1));
    }

    #[test]
    fn earliest_completion_tracks_calendar() {
        let mut rob = Rob::new(8);
        rob.push(0, alu(0), false);
        rob.push(1, alu(4), false);
        rob.push(2, alu(8), false);
        assert_eq!(rob.earliest_completion(), None);
        rob.set_executing(0, 30, false);
        rob.set_executing(1, 10, false);
        assert_eq!(rob.earliest_completion(), Some(10));
        let mut resolved = Vec::new();
        assert!(rob.complete_until(10, &mut resolved));
        assert_eq!(rob.earliest_completion(), Some(30), "10-bucket drained");
        assert!(!rob.complete_until(29, &mut resolved), "nothing due yet");
        assert!(rob.complete_until(30, &mut resolved));
        assert_eq!(rob.earliest_completion(), None);
        assert_eq!(rob.waiting_count(), 1, "entry 2 never issued");
    }

    #[test]
    fn complete_until_reports_mispredicts_in_program_order() {
        let mut rob = Rob::new(8);
        for i in 0..4 {
            rob.push(i, alu(i * 4), true);
        }
        // Issue out of order into the same completion cycle.
        rob.set_executing(3, 5, false);
        rob.set_executing(1, 5, false);
        rob.set_executing(2, 4, false);
        let mut resolved = Vec::new();
        assert!(rob.complete_until(5, &mut resolved));
        assert_eq!(resolved, vec![1, 2, 3], "ascending stream positions");
    }

    #[test]
    fn complete_until_clears_miss_flag() {
        let mut rob = Rob::new(4);
        rob.push(0, Uop::new(UopKind::Load, 0).with_mem(0x40), false);
        rob.set_executing(0, 9, true);
        assert!(rob.head().is_some_and(|e| e.mem_pending));
        let mut resolved = Vec::new();
        rob.complete_until(9, &mut resolved);
        let head = rob.head().expect("entry still allocated");
        assert_eq!(head.state, EntryState::Done);
        assert!(!head.mem_pending);
        assert!(resolved.is_empty(), "not mispredicted");
    }

    #[test]
    fn blocked_entries_park_until_their_blocker_completes() {
        let mut rob = Rob::new(8);
        rob.push(0, alu(0), false);
        rob.push(1, alu(4).with_deps(1, 0), false);
        rob.push(2, Uop::new(UopKind::Store, 8).with_mem(0x80), false);
        // The load waits for the older store to its address.
        rob.push(3, Uop::new(UopKind::Load, 12).with_mem(0x80), false);
        rob.push(4, Uop::new(UopKind::Load, 16).with_mem(0x80), false);
        let parked = |rob: &Rob, i| rob.waiters(i).collect::<Vec<_>>();
        assert_eq!(parked(&rob, 0), vec![1], "parked at push");
        assert_eq!(parked(&rob, 2), vec![4, 3], "most recent first");
        assert_eq!(rob.next_eligible(0), Some(0));
        assert_eq!(rob.next_eligible(1), Some(2), "parked entry skipped");
        assert!(rob.set_executing(0, 5, false));
        assert!(rob.set_executing(2, 6, false));
        assert_eq!(rob.next_eligible(0), None, "issued entries leave the mask");
        let mut resolved = Vec::new();
        rob.complete_until(5, &mut resolved);
        assert_eq!(rob.next_eligible(0), Some(1), "woken at writeback");
        rob.complete_until(6, &mut resolved);
        assert_eq!(rob.next_eligible(2), Some(3));
        let load = rob.issue_check(3).expect("store done: the load forwards");
        assert!(load.forward);
    }
}
