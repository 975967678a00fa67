//! The machine: an out-of-order core with Switch-on-Event multithreading.
//!
//! One [`Machine`] owns the shared front end (fetch, gshare, BTB), the
//! shared memory hierarchy, the out-of-order back end (ROB, functional
//! units) and N thread contexts, exactly one of which occupies the
//! pipeline at any time. A pluggable [`SwitchPolicy`] decides when the
//! running thread is switched out; switching squashes the pipeline (the
//! paper's 6-cycle drain), repoints the front end at the incoming
//! thread's architectural position and refills — caches, TLBs and
//! predictor state are shared and survive switches.

use crate::backend::{EntryState, FuPool, Rob};
use crate::config::MachineConfig;
use crate::config::PredictorKind;
use crate::error::SimError;
use crate::frontend::{Bimodal, Btb, DirectionPredictor, FetchUnit, Gshare, Tournament};
use crate::mem::Hierarchy;
use crate::obs::{EventKind, SharedTracer};
use crate::stats::MachineStats;
use crate::switch::{SwitchDecision, SwitchPolicy, SwitchReason};
use crate::trace::TraceSource;
use crate::types::{Cycle, InstrIndex, ThreadId};
use crate::uop::UopKind;
use crate::wake::{WakeSource, WakeStats, ALL_KINDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Running,
    Draining { until: Cycle, next: ThreadId },
}

/// The simulated SOE machine.
///
/// # Examples
///
/// ```
/// use soe_sim::{AluTrace, Machine, MachineConfig, NeverSwitch};
///
/// let mut m = Machine::new(
///     MachineConfig::test_config(),
///     vec![Box::new(AluTrace::new())],
///     Box::new(NeverSwitch::new()),
/// );
/// m.run_cycles(10_000);
/// assert!(m.stats().total_retired() > 0);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    traces: Vec<Box<dyn TraceSource>>,
    policy: Box<dyn SwitchPolicy>,
    hier: Hierarchy,
    predictor: Box<dyn DirectionPredictor>,
    btb: Btb,
    fetch: FetchUnit,
    rob: Rob,
    fu: FuPool,
    now: Cycle,
    current: ThreadId,
    state: CoreState,
    stats: MachineStats,
    /// Architectural position (instructions committed) per thread; unlike
    /// the resettable statistics this survives `reset_stats`.
    positions: Vec<InstrIndex>,
    /// Start cycle of an in-flight switch whose latency is still being
    /// measured (cleared at the incoming thread's first retirement).
    switch_started: Option<Cycle>,
    /// Cycle of the first retirement since the last switch-in (start of
    /// the paper's `Cycles_j` accounting interval).
    run_started: Option<Cycle>,
    /// Stream position of the miss-stall episode already reported to the
    /// policy, so each stall triggers exactly one decision.
    stall_reported: Option<InstrIndex>,
    /// Retired stores awaiting commit (used only when
    /// `store_drain_interval > 0`).
    store_queue: std::collections::VecDeque<crate::types::Addr>,
    /// Next cycle the store buffer may commit an entry.
    store_drain_at: Cycle,
    /// Optional cycle-level event recorder (see [`crate::obs`]). `None`
    /// — the default — costs one branch per tick and nothing else;
    /// tracing never influences simulation state.
    tracer: Option<SharedTracer>,
    /// Instructions retired across all threads — always equal to the sum
    /// of `positions`, maintained at retirement so the tracer watermark
    /// and the stall watchdog never re-sum per cycle.
    total_retired: InstrIndex,
    /// Reused buffer for writeback's resolved-mispredict positions.
    scratch_resolved: Vec<InstrIndex>,
    /// Reused buffer for `run_until_retired`'s per-thread targets.
    scratch_targets: Vec<InstrIndex>,
    /// Per-source quiesce counters (see [`crate::wake`]).
    wake_stats: WakeStats,
    /// The next cycle at which the switch policy can possibly act
    /// (cached from `next_decision_at`); the per-cycle `each_cycle`
    /// virtual call is skipped until then. `0` forces re-evaluation.
    policy_due: Cycle,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("current", &self.current)
            .field("threads", &self.traces.len())
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine running `traces` (one per hardware thread) under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty, has more than 255 threads, or `cfg`
    /// is invalid.
    pub fn new(
        cfg: MachineConfig,
        traces: Vec<Box<dyn TraceSource>>,
        mut policy: Box<dyn SwitchPolicy>,
    ) -> Self {
        cfg.validate();
        assert!(!traces.is_empty(), "need at least one thread");
        assert!(traces.len() <= 255, "at most 255 threads");
        let n = traces.len();
        policy.on_switch_in(ThreadId::new(0), 0);
        Self {
            hier: Hierarchy::new(&cfg),
            predictor: match cfg.predictor.kind {
                PredictorKind::Gshare => Box::new(Gshare::new(cfg.predictor)),
                PredictorKind::Bimodal => Box::new(Bimodal::new(cfg.predictor.pht_bits)),
                PredictorKind::Tournament => Box::new(Tournament::new(cfg.predictor)),
            },
            btb: Btb::new(cfg.predictor.btb_entries),
            fetch: FetchUnit::new(&cfg),
            rob: Rob::new(cfg.pipeline.rob_size),
            fu: FuPool::new(&cfg.pipeline),
            now: 0,
            current: ThreadId::new(0),
            state: CoreState::Running,
            stats: MachineStats::new(n),
            positions: vec![0; n],
            switch_started: None,
            run_started: None,
            stall_reported: None,
            store_queue: std::collections::VecDeque::new(),
            store_drain_at: 0,
            tracer: None,
            total_retired: 0,
            scratch_resolved: Vec::new(),
            scratch_targets: Vec::new(),
            wake_stats: WakeStats::default(),
            policy_due: 0,
            cfg,
            traces,
            policy,
        }
    }

    /// Attaches a cycle-level event recorder. The machine emits
    /// switch-out/in and retire-rate events, and the memory hierarchy
    /// (handed a clone of the same buffer) emits L2 miss/fill events;
    /// policies emitting mechanism events should share this tracer too.
    pub fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.hier.attach_tracer(SharedTracer::clone(&tracer));
        self.tracer = Some(tracer);
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The thread currently occupying (or being switched into) the core.
    pub fn current_thread(&self) -> ThreadId {
        self.current
    }

    /// Number of hardware threads.
    pub fn thread_count(&self) -> usize {
        self.traces.len()
    }

    fn multi(&self) -> bool {
        self.traces.len() > 1
    }

    /// Machine statistics (resettable view).
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The shared memory hierarchy (for cache/TLB statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Branch predictor statistics.
    pub fn predictor_stats(&self) -> crate::frontend::PredictorStats {
        self.predictor.stats()
    }

    /// The switch policy, for reading back engine-side state.
    pub fn policy(&self) -> &dyn SwitchPolicy {
        &*self.policy
    }

    /// Mutable access to the switch policy (e.g. to clear recorded
    /// history after warm-up).
    pub fn policy_mut(&mut self) -> &mut dyn SwitchPolicy {
        // External mutation can move the policy's scheduled decision
        // points; drop the cached gate so the next tick re-reads them.
        self.policy_due = 0;
        &mut *self.policy
    }

    /// Per-source wake counters: how often each source was live at a
    /// quiesce, how many jumps it bounded and how many cycles those
    /// jumps skipped (see [`crate::wake`]); surfaced by
    /// `soe-perf --profile`.
    pub fn calendar_stats(&self) -> &WakeStats {
        &self.wake_stats
    }

    /// Architectural position (committed instruction count) of `tid`,
    /// unaffected by [`Machine::reset_stats`].
    pub fn position(&self, tid: ThreadId) -> InstrIndex {
        // soe-lint: allow(slice-index): every per-thread vector is sized to traces.len() at construction and ThreadIds never exceed it
        self.positions[tid.index()]
    }

    /// Funnel for per-thread stats: the single bounds-carrying access
    /// point for `stats.threads` (everywhere a disjoint field borrow is
    /// not required).
    fn thread_stats_mut(&mut self, tid: ThreadId) -> &mut crate::stats::ThreadStats {
        // soe-lint: allow(slice-index): every per-thread vector is sized to traces.len() at construction and ThreadIds never exceed it
        &mut self.stats.threads[tid.index()]
    }

    /// Zeroes the statistics while keeping all microarchitectural and
    /// architectural state (used to discard warm-up, as the paper does
    /// with its first million instructions).
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::new(self.traces.len());
        // Restart the Cycles_j accounting interval at the reset point so
        // the discarded warm-up cycles are not attributed to the thread.
        if self.run_started.is_some() {
            self.run_started = Some(self.now);
        }
        self.switch_started = None;
    }

    // ------------------------------------------------------------------
    // Pipeline stages
    // ------------------------------------------------------------------

    /// Commits queued retired stores at the configured drain rate.
    fn drain_store_buffer(&mut self, now: Cycle) -> bool {
        if self.cfg.store_drain_interval == 0 {
            return false;
        }
        let mut progress = false;
        while self.store_drain_at <= now {
            let Some(addr) = self.store_queue.pop_front() else {
                self.store_drain_at = now + 1;
                break;
            };
            self.hier.access_data(now, addr, true);
            self.store_drain_at = now + self.cfg.store_drain_interval;
            progress = true;
        }
        progress
    }

    /// Completion/writeback: mark finished executions `Done`, resolve
    /// branches. The ROB's completion calendar makes the idle case — no
    /// execution finishing this cycle, the common state inside a miss
    /// shadow — a single comparison instead of a full scan.
    fn writeback(&mut self, now: Cycle) -> bool {
        match self.rob.earliest_completion() {
            Some(c) if c <= now => {}
            _ => return false,
        }
        let mut resolved = std::mem::take(&mut self.scratch_resolved);
        resolved.clear();
        let progress = self.rob.complete_until(now, &mut resolved);
        for idx in resolved.drain(..) {
            self.fetch.branch_executed(idx, now);
        }
        self.scratch_resolved = resolved;
        progress
    }

    /// Retirement: commit up to `retire_width` completed heads, fire SOE
    /// triggers and policy callbacks. Returns (made-progress,
    /// switch-initiated).
    fn retire_stage(&mut self, now: Cycle) -> (bool, bool) {
        let mut progress = false;
        for _ in 0..self.cfg.pipeline.retire_width {
            let Some(head) = self.rob.head() else { break };
            match head.state {
                EntryState::Done => {
                    // A full store buffer blocks store retirement until a
                    // slot drains.
                    if self.cfg.store_drain_interval > 0
                        && head.uop.kind == UopKind::Store
                        && self.store_queue.len() >= self.cfg.pipeline.store_buffer
                    {
                        break;
                    }
                    let Some(e) = self.rob.pop_head() else { break };
                    progress = true;
                    self.note_retire(now);
                    // Direct index (not thread_stats_mut): the disjoint
                    // field borrow lets `self.hier` run while `t` lives.
                    // soe-lint: allow(slice-index): every per-thread vector is sized to traces.len() at construction
                    let t = &mut self.stats.threads[self.current.index()];
                    t.retired += 1;
                    match e.uop.kind {
                        UopKind::Load => t.loads += 1,
                        UopKind::Store => {
                            t.stores += 1;
                            // Retired stores drain through the store
                            // buffer into the cache hierarchy.
                            if self.cfg.store_drain_interval == 0 {
                                self.hier.access_data(now, e.uop.mem_addr(), true);
                            } else {
                                self.store_queue.push_back(e.uop.mem_addr());
                            }
                        }
                        UopKind::Branch { .. } => {
                            t.branches += 1;
                            if e.mispredicted {
                                t.mispredicts += 1;
                            }
                        }
                        UopKind::Call { .. } => t.calls += 1,
                        UopKind::Return { .. } => {
                            t.returns += 1;
                            if e.mispredicted {
                                t.mispredicts += 1;
                            }
                        }
                        _ => {}
                    }
                    // soe-lint: allow(slice-index): every per-thread vector is sized to traces.len() at construction
                    self.positions[self.current.index()] += 1;
                    self.total_retired += 1;
                    if e.uop.kind == UopKind::Pause
                        && self.multi()
                        && self.policy.on_pause(self.current, now) == SwitchDecision::Switch
                    {
                        self.initiate_switch(now, SwitchReason::Hint);
                        return (true, true);
                    }
                    if self.policy.after_retire(self.current, now) == SwitchDecision::Switch
                        && self.multi()
                    {
                        self.initiate_switch(now, SwitchReason::Forced);
                        return (true, true);
                    }
                }
                _ => {
                    // Head not complete. If it is flagged as handling an
                    // unresolved miss, this is the SOE switch event.
                    if head.mem_pending && self.stall_reported != Some(head.index) {
                        self.stall_reported = Some(head.index);
                        if let EntryState::Executing(done) = head.state {
                            self.policy
                                .observe_miss_latency(self.current, done.saturating_sub(now));
                        }
                        if self.policy.on_miss_stall(self.current, now) == SwitchDecision::Switch
                            && self.multi()
                        {
                            self.thread_stats_mut(self.current).switch_misses += 1;
                            self.initiate_switch(now, SwitchReason::MissEvent);
                            return (progress, true);
                        }
                    }
                    break;
                }
            }
        }
        (progress, false)
    }

    /// Issue: select ready reservation-station entries oldest-first.
    ///
    /// Only the ROB's eligible entries are examined (see
    /// [`Rob::next_eligible`]). One that turns out blocked is parked on
    /// its blocker by [`Rob::issue_check`] and comes back when the
    /// blocker completes; one turned away by a busy functional unit stays
    /// eligible and is examined again next cycle.
    fn issue_stage(&mut self, now: Cycle) -> bool {
        let mut issued = 0;
        let mut cursor = self.rob.head_index();
        while issued < self.cfg.pipeline.issue_width {
            let Some(idx) = self.rob.next_eligible(cursor) else {
                break;
            };
            cursor = idx + 1;
            let Some(ready) = self.rob.issue_check(idx) else {
                continue;
            };
            let Some(fu_done) = self.fu.try_issue(ready.kind, now) else {
                continue;
            };
            let (done, mem_pending) = match ready.kind {
                UopKind::Load => {
                    // soe-lint: allow(panic-unwrap): a load without an address is a trace-generation bug
                    let addr = ready.mem_addr.expect("load without an address");
                    let t = self.hier.translate_data(fu_done, addr);
                    if ready.forward {
                        // Store-to-load forwarding: data comes from the
                        // store buffer, two cycles after the address.
                        (t.complete_at.max(fu_done) + 2, t.from_memory)
                    } else {
                        let r = self.hier.access_data(t.complete_at, addr, false);
                        // Optionally treat L1-miss/L2-hit loads as switch
                        // events too (Section 6 extension).
                        let l1_miss = self.cfg.soe.switch_on_l1_miss
                            && r.complete_at > t.complete_at + self.cfg.l1d.hit_latency;
                        (r.complete_at, r.from_memory || t.from_memory || l1_miss)
                    }
                }
                UopKind::Store => {
                    // soe-lint: allow(panic-unwrap): a store without an address is a trace-generation bug
                    let addr = ready.mem_addr.expect("store without an address");
                    let t = self.hier.translate_data(fu_done, addr);
                    (t.complete_at.max(fu_done), t.from_memory)
                }
                _ => (fu_done, false),
            };
            if self.rob.set_executing(idx, done.max(now + 1), mem_pending) {
                issued += 1;
            }
        }
        issued > 0
    }

    /// Whether rename has room for a micro-op of `kind`: a ROB entry, a
    /// reservation-station slot and, for a load or store, a load or
    /// store buffer slot. The `FrontReady` wake uses the same predicate.
    fn can_rename(&self, kind: UopKind) -> bool {
        let p = &self.cfg.pipeline;
        let (waiting, loads, stores) = self.rob.occupancy();
        !self.rob.is_full()
            && waiting < p.rs_size
            && match kind {
                UopKind::Load => loads < p.load_buffer,
                UopKind::Store => stores < p.store_buffer,
                _ => true,
            }
    }

    /// Rename/allocate: move front-end entries into the ROB.
    fn rename_stage(&mut self, now: Cycle) -> bool {
        let mut progress = false;
        for _ in 0..self.cfg.pipeline.rename_width {
            match self.fetch.peek_ready(now) {
                Some(e) if self.can_rename(e.uop.kind) => {}
                _ => break,
            }
            // The loop peeked Some immediately above; a pop miss means
            // the fetch queue changed under us — stop dispatching.
            let Some(e) = self.fetch.pop_ready(now) else {
                break;
            };
            self.rob.push(e.index, e.uop, e.mispredicted);
            progress = true;
        }
        progress
    }

    fn fetch_stage(&mut self, now: Cycle) -> bool {
        let Machine {
            fetch,
            traces,
            hier,
            predictor,
            btb,
            current,
            ..
        } = self;
        // soe-lint: allow(slice-index): every per-thread vector is sized to traces.len() at construction
        fetch.tick(now, &*traces[current.index()], hier, &mut **predictor, btb) > 0
    }

    // ------------------------------------------------------------------
    // Thread switching
    // ------------------------------------------------------------------

    fn note_retire(&mut self, now: Cycle) {
        if self.run_started.is_none() {
            self.run_started = Some(now);
            if let Some(start) = self.switch_started.take() {
                self.stats.switch_overhead_cycles += now - start;
                self.stats.measured_switches += 1;
            }
        }
    }

    fn initiate_switch(&mut self, now: Cycle, reason: SwitchReason) {
        debug_assert!(self.multi(), "switching requires multiple threads");
        let cur = self.current;
        if let Some(start) = self.run_started.take() {
            self.thread_stats_mut(cur).running_cycles += now - start;
        }
        match reason {
            SwitchReason::MissEvent => self.thread_stats_mut(cur).event_switches += 1,
            SwitchReason::Forced => self.thread_stats_mut(cur).forced_switches += 1,
            SwitchReason::Hint => self.thread_stats_mut(cur).hint_switches += 1,
        }
        self.stats.total_switches += 1;
        if let Some(t) = &self.tracer {
            t.borrow_mut()
                .emit(now, EventKind::SwitchOut { tid: cur, reason });
        }
        self.policy.on_switch_out(cur, now, reason);
        // Drain: squash everything un-retired; in-flight cache fills keep
        // going (MSHR timing lives in the hierarchy).
        self.rob.squash(0);
        let threads = self.traces.len();
        let rotation = ThreadId::new(((cur.index() + 1) % threads) as u8);
        // Arbitration disciplines may pick the incoming thread; an absent
        // or out-of-range pick falls back to the fixed rotation so a
        // misbehaving policy degrades to round-robin, never wedges.
        let next = match self.policy.pick_next(cur, threads, now) {
            Some(pick) if pick.index() < threads => pick,
            _ => rotation,
        };
        self.state = CoreState::Draining {
            until: now + self.cfg.soe.drain_latency,
            next,
        };
        self.switch_started = Some(now);
        self.stall_reported = None;
        // The outgoing thread's scheduled decisions die with the switch.
        self.policy_due = 0;
    }

    fn complete_switch_in(&mut self, next: ThreadId, now: Cycle) {
        self.current = next;
        self.state = CoreState::Running;
        let pos = self.position(next);
        self.rob.squash(pos);
        self.fetch.restart(pos, now);
        self.run_started = None;
        self.stall_reported = None;
        // `on_switch_in` restarts quota clocks; re-read the schedule.
        self.policy_due = 0;
        if let Some(t) = &self.tracer {
            t.borrow_mut().emit(now, EventKind::SwitchIn { tid: next });
        }
        self.policy.on_switch_in(next, now);
    }

    // ------------------------------------------------------------------
    // Clock
    // ------------------------------------------------------------------

    /// Advances the machine by one cycle. Returns whether any pipeline
    /// activity occurred (used by the quiescent fast-forward).
    pub fn tick(&mut self) -> bool {
        let now = self.now;
        if let Some(t) = &self.tracer {
            // Watermark advance + retire-rate samples. Runs before any
            // stage so a sample boundary at `now` is stamped with the
            // count *before* this cycle's retirements — identically
            // whether the boundary was reached tick-by-tick or jumped
            // over by the quiescent fast-forward.
            t.borrow_mut().advance(now, self.total_retired);
        }
        if let CoreState::Draining { until, next } = self.state {
            if now >= until {
                self.complete_switch_in(next, now);
            } else {
                // Nothing but the cycle counter evolves during a drain
                // (stages, store buffer and policy are all skipped), so
                // report no progress and let the quiescent fast-forward
                // jump straight to `until`.
                self.now += 1;
                return false;
            }
        }
        self.fu.begin_cycle(now);
        let mut progress = self.drain_store_buffer(now);
        progress |= self.writeback(now);
        let (retired, switched) = self.retire_stage(now);
        progress |= retired;
        if !switched {
            progress |= self.issue_stage(now);
            progress |= self.rename_stage(now);
            progress |= self.fetch_stage(now);
            // The policy gate: `each_cycle` only ever acts at cycles its
            // own `next_decision_at` announces (Δ recalculations, quota
            // expiries — the policy-conformance matrix pins this), so
            // the virtual call is skipped until the cached due cycle.
            if self.multi() && now >= self.policy_due {
                if self.policy.each_cycle(self.current, now) == SwitchDecision::Switch {
                    self.initiate_switch(now, SwitchReason::Forced);
                    progress = true;
                } else {
                    // A decision point reported at `now` was just taken
                    // (declined); the next distinct one is later.
                    self.policy_due = self
                        .policy
                        .next_decision_at(self.current, now)
                        .map_or(Cycle::MAX, |c| c.max(now + 1));
                }
            }
        } else {
            progress = true;
        }
        self.now = now + 1;
        self.stats.cycles = self.now;
        progress
    }

    /// The live wake cycle of `kind` — the earliest cycle at which that
    /// source can make the machine progress — or `None` while it cannot.
    /// [`Machine::next_wake`] takes the min over this one definition.
    ///
    /// Every source is O(1) or O(log ROB): completions come from the
    /// ROB's completion heap, the rest are front-end, store-buffer and
    /// policy timestamps. Cache fills and bus grants need no sources of
    /// their own: the hierarchy is timestamp-passing, so they surface as
    /// the completion/resume timestamps of the accesses that triggered
    /// them.
    fn wake_at(&self, kind: WakeSource) -> Option<Cycle> {
        if let CoreState::Draining { until, .. } = self.state {
            // During a drain the stages, the store buffer and the policy
            // are all skipped, so the switch-in is the only event.
            return (kind == WakeSource::DrainDone).then_some(until);
        }
        match kind {
            WakeSource::DrainDone => None,
            WakeSource::RobComplete => {
                let done = self.rob.earliest_completion();
                // An entry still eligible after a tick without progress
                // was ready but turned away by a busy unit, and only the
                // unpipelined divider stays busy across cycles. After a
                // switch squash it can stay busy with no completion
                // behind it, so its free cycle is a wake too.
                if self.rob.next_eligible(self.rob.head_index()).is_none() {
                    return done;
                }
                let free = self.fu.div_free_at().max(self.now);
                Some(done.map_or(free, |d| d.min(free)))
            }
            WakeSource::FetchResume => self.fetch.next_activity().map(|c| c.max(self.now)),
            // The front micro-op wakes rename only if rename has room for
            // it. Only retirement and issue free that room, and both wait
            // on `RobComplete` or `StoreDrain`, so a blocked front needs
            // no wake of its own.
            WakeSource::FrontReady => self
                .fetch
                .front()
                .filter(|e| self.can_rename(e.uop.kind))
                .map(|e| e.ready_at.max(self.now)),
            WakeSource::StoreDrain => {
                (!self.store_queue.is_empty()).then(|| self.store_drain_at.max(self.now + 1))
            }
            // A scheduled policy decision (Δ-window recalculation, cycle
            // quota) is an event too: stopping the jump there keeps
            // fast-forward runs cycle-exact with ticked ones.
            // Clamp to `now`, not `now + 1`: after a no-progress tick
            // `self.now` is the next *unprocessed* cycle, and a decision
            // due exactly there must suppress the jump (`step` skips
            // jumps to `now`) so the ordinary tick consults the policy on
            // time rather than one cycle late.
            WakeSource::PolicyDecision if self.multi() => self
                .policy
                .next_decision_at(self.current, self.now)
                .map(|c| c.max(self.now)),
            WakeSource::PolicyDecision => None,
        }
    }

    /// The earliest live wake over every source, a same-cycle tie going
    /// to the lowest rank, or `None` when no source is live. Counts each
    /// live source.
    fn next_wake(&mut self) -> Option<(Cycle, WakeSource)> {
        let wakes = ALL_KINDS.map(|kind| self.wake_at(kind).map(|c| (c, kind)));
        for (k, wake) in self.wake_stats.kinds.iter_mut().zip(wakes) {
            k.scheduled += u64::from(wake.is_some());
        }
        wakes.into_iter().flatten().min()
    }

    /// One step: tick, and on quiescence advance `now` to the next wake
    /// (clamped to `limit`, so a run never overshoots its requested end
    /// cycle).
    fn step(&mut self, limit: Cycle) -> Result<(), SimError> {
        let progress = self.tick();
        if !progress && self.cfg.fast_forward {
            let Some((cycle, kind)) = self.next_wake() else {
                return Err(SimError::Wedged {
                    cycle: self.now,
                    thread: self.current,
                    rob_len: self.rob.len(),
                });
            };
            // A wake due exactly at `now` needs no jump: the next tick
            // processes that cycle.
            if cycle > self.now {
                let to = cycle.min(limit);
                if let Some(k) = self.wake_stats.kinds.get_mut(kind as usize) {
                    k.dispatched += 1;
                    k.skipped += to - self.now;
                }
                self.now = to;
                if matches!(self.state, CoreState::Running) {
                    // Drain jumps leave `stats.cycles` where ticked
                    // drains left it: it is refreshed by the first
                    // post-drain tick.
                    self.stats.cycles = self.now;
                }
            }
        }
        Ok(())
    }

    /// Runs for exactly `cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if the machine wedges (see [`Machine::try_run_cycles`] for
    /// the non-panicking form).
    pub fn run_cycles(&mut self, cycles: Cycle) {
        if let Err(e) = self.try_run_cycles(cycles, None) {
            // soe-lint: allow(panic-macro): documented panicking wrapper; callers wanting errors use try_run_cycles
            panic!("{e}");
        }
    }

    /// Runs for exactly `cycles` simulated cycles, returning a structured
    /// error instead of panicking, with an optional forward-progress
    /// watchdog.
    ///
    /// With `stall_window = Some(w)`, the run fails with
    /// [`SimError::Stalled`] if no instruction retires (on any thread) for
    /// `w` consecutive cycles. Pick `w` far above the longest legitimate
    /// stall — the 300-cycle memory latency plus TLB walks, bus queueing
    /// and drain — so only a genuinely hung simulation trips it.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] on watchdog expiry, [`SimError::Wedged`] if
    /// the machine provably cannot make progress again.
    pub fn try_run_cycles(
        &mut self,
        cycles: Cycle,
        stall_window: Option<Cycle>,
    ) -> Result<(), SimError> {
        let end = self.now + cycles;
        let mut last_retired = self.total_retired;
        let mut last_progress = self.now;
        while self.now < end {
            self.step(end)?;
            if let Some(window) = stall_window {
                let retired = self.total_retired;
                if retired != last_retired {
                    last_retired = retired;
                    last_progress = self.now;
                } else if self.now - last_progress >= window {
                    return Err(SimError::Stalled {
                        cycle: self.now,
                        window,
                        thread: self.current,
                        retired,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs until every thread has committed at least `instrs` further
    /// instructions (measured from the current architectural positions).
    ///
    /// # Panics
    ///
    /// Panics if the target is not reached within `max_cycles` additional
    /// cycles — a liveness guard against mis-configured experiments.
    pub fn run_until_retired(&mut self, instrs: u64, max_cycles: Cycle) {
        let mut targets = std::mem::take(&mut self.scratch_targets);
        targets.clear();
        targets.extend(self.positions.iter().map(|p| p + instrs));
        let deadline = self.now + max_cycles;
        while self.positions.iter().zip(&targets).any(|(p, t)| p < t) {
            assert!(
                self.now < deadline,
                "run_until_retired: {} instructions not reached within {} cycles \
                 (positions {:?})",
                instrs,
                max_cycles,
                self.positions
            );
            if let Err(e) = self.step(deadline) {
                // soe-lint: allow(panic-macro): documented panicking wrapper around the try_ stepper
                panic!("{e}");
            }
        }
        self.scratch_targets = targets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{NeverSwitch, SwitchOnEvent};
    use crate::trace::{AluTrace, PatternTrace};
    use crate::uop::Uop;

    fn single(trace: Box<dyn TraceSource>) -> Machine {
        Machine::new(
            MachineConfig::test_config(),
            vec![trace],
            Box::new(NeverSwitch::new()),
        )
    }

    #[test]
    fn alu_trace_reaches_multi_issue_ipc() {
        // Default config: the 4 KiB code footprint fits the 32 KiB L1I.
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![Box::new(AluTrace::new())],
            Box::new(NeverSwitch::new()),
        );
        m.run_cycles(30_000); // cold-start: I-cache warm-up
        m.reset_stats();
        let start = m.now();
        m.run_cycles(20_000);
        let ipc = m.stats().total_retired() as f64 / (m.now() - start) as f64;
        // Independent single-cycle ops: limited by rename width (4) and
        // ALU count (3); expect close to 3.
        assert!(ipc > 2.0, "ipc = {ipc}");
        assert!(ipc <= 4.0, "ipc = {ipc}");
    }

    #[test]
    fn dependent_chain_runs_at_one_ipc() {
        let t = PatternTrace::new("chain", vec![Uop::new(UopKind::Alu, 0x40).with_deps(1, 0)]);
        let mut m = single(Box::new(t));
        m.run_cycles(20_000);
        let ipc = m.stats().ipc();
        assert!(ipc > 0.8 && ipc <= 1.05, "ipc = {ipc}");
    }

    #[test]
    fn missy_loads_stall_single_thread() {
        // Loads striding through memory: every line is cold, so the core
        // spends most cycles waiting out memory latency.
        #[derive(Debug)]
        struct Stream;
        impl TraceSource for Stream {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                if i.is_multiple_of(4) {
                    Uop::new(UopKind::Load, 0x40 + (i % 64) * 4).with_mem(0x10_0000 + i * 64)
                } else {
                    Uop::new(UopKind::Alu, 0x40 + (i % 64) * 4)
                }
            }
            fn name(&self) -> &str {
                "stream"
            }
        }
        let mut m = single(Box::new(Stream));
        m.run_cycles(50_000);
        let ipc = m.stats().ipc();
        // With MLP the core overlaps misses, but IPC must still be well
        // below the ALU-bound case.
        assert!(ipc < 2.0, "ipc = {ipc}");
        assert!(m.hierarchy().stats().data_l2_misses > 100);
    }

    #[test]
    fn fast_forward_is_invisible_in_results() {
        let mk = |ff: bool| {
            let mut cfg = MachineConfig::test_config();
            cfg.fast_forward = ff;
            #[derive(Debug)]
            struct Stream;
            impl TraceSource for Stream {
                fn uop_at(&self, i: InstrIndex) -> Uop {
                    if i.is_multiple_of(7) {
                        Uop::new(UopKind::Load, 0x40).with_mem(0x20_0000 + i * 64)
                    } else {
                        Uop::new(UopKind::Alu, 0x44).with_deps(1, 0)
                    }
                }
            }
            let mut m = Machine::new(cfg, vec![Box::new(Stream)], Box::new(NeverSwitch::new()));
            m.run_cycles(30_000);
            (m.stats().total_retired(), m.stats().cycles)
        };
        let (r1, c1) = mk(true);
        let (r2, c2) = mk(false);
        assert_eq!(r2, r1, "fast-forward changed retirement count");
        assert_eq!(c2, c1);
    }

    #[test]
    fn fast_forward_is_invisible_under_soe_with_tracer() {
        use crate::obs::{SharedTracer, TraceConfig, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;
        // Two-thread SOE run with the tracer attached: jumps must leave
        // the full statistics block and the event stream untouched, not
        // just the retirement totals. (The fairness-policy variant lives
        // in the root `fast_forward_invariance` suite — the policy is a
        // client crate.)
        let mk = |ff: bool| {
            let mut cfg = MachineConfig::test_config();
            cfg.fast_forward = ff;
            let mut m = Machine::new(
                cfg,
                vec![
                    Box::new(MissEvery {
                        ipm: 2_000,
                        region: 0x100_0000,
                    }),
                    Box::new(MissEvery {
                        ipm: 8,
                        region: 0x900_0000,
                    }),
                ],
                Box::new(SwitchOnEvent::new()),
            );
            let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
            m.attach_tracer(Rc::clone(&tracer));
            m.run_cycles(60_000);
            let trace = tracer.borrow_mut().take();
            (m.stats().clone(), trace)
        };
        let (stats_jump, trace_jump) = mk(true);
        let (stats_tick, trace_tick) = mk(false);
        assert!(
            stats_tick.total_switches > 0,
            "workload never switched; the test is vacuous"
        );
        assert!(!trace_tick.events.is_empty(), "no events traced");
        assert_eq!(
            stats_tick, stats_jump,
            "fast-forward changed SOE statistics"
        );
        assert_eq!(
            trace_tick, trace_jump,
            "fast-forward changed the trace stream"
        );
    }

    /// A synthetic thread missing the L2 every `ipm` instructions
    /// (streaming loads in a private address region).
    #[derive(Debug)]
    struct MissEvery {
        ipm: u64,
        region: u64,
    }
    impl TraceSource for MissEvery {
        fn uop_at(&self, i: InstrIndex) -> Uop {
            let pc = self.region + 0x40 + (i % 64) * 4;
            if i.is_multiple_of(self.ipm) {
                // One fresh line per miss, streaming densely so the page
                // working set stays TLB-friendly.
                let ordinal = i / self.ipm;
                Uop::new(UopKind::Load, pc).with_mem(self.region + 0x100_0000 + ordinal * 64)
            } else {
                Uop::new(UopKind::Alu, pc)
            }
        }
        fn name(&self) -> &str {
            "miss-every"
        }
    }

    #[test]
    fn soe_starves_a_thread_behind_a_never_missing_one() {
        // Thread 0 never misses: plain SOE never switches away from it.
        // This is exactly the starvation problem the paper addresses.
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![
                Box::new(AluTrace::new()),
                Box::new(MissEvery {
                    ipm: 8,
                    region: 0x900_0000,
                }),
            ],
            Box::new(SwitchOnEvent::new()),
        );
        m.run_cycles(50_000);
        let s = m.stats();
        assert_eq!(s.total_switches, 0);
        assert_eq!(s.threads[1].retired, 0, "thread 1 completely starved");
    }

    #[test]
    fn soe_switches_on_l2_miss_and_runs_both_threads() {
        // Thread 0: rare misses (high IPM). Thread 1: misses constantly.
        let mut m = Machine::new(
            MachineConfig::test_config(),
            vec![
                Box::new(MissEvery {
                    ipm: 2_000,
                    region: 0x100_0000,
                }),
                Box::new(MissEvery {
                    ipm: 8,
                    region: 0x900_0000,
                }),
            ],
            Box::new(SwitchOnEvent::new()),
        );
        m.run_cycles(200_000);
        let s = m.stats();
        assert!(s.total_switches > 10, "switches = {}", s.total_switches);
        assert!(s.threads[0].retired > 0);
        assert!(s.threads[1].retired > 0);
        assert!(
            s.threads[1].switch_misses > 0,
            "missy thread must have caused event switches"
        );
        // The low-miss thread should get the lion's share of instructions.
        assert!(s.threads[0].retired > s.threads[1].retired);
    }

    #[test]
    fn switch_latency_is_in_the_papers_ballpark() {
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![
                Box::new(MissEvery {
                    ipm: 500,
                    region: 0x100_0000,
                }),
                Box::new(MissEvery {
                    ipm: 500,
                    region: 0x900_0000,
                }),
            ],
            Box::new(SwitchOnEvent::new()),
        );
        m.run_cycles(300_000);
        let lat = m.stats().avg_switch_latency();
        assert!(
            (15.0..=45.0).contains(&lat),
            "avg switch latency {lat} outside the ~25-cycle ballpark"
        );
    }

    #[test]
    fn single_thread_ignores_forced_switch_decisions() {
        // A policy that always wants to switch must be harmless with one
        // thread.
        struct Always;
        impl SwitchPolicy for Always {
            fn name(&self) -> &str {
                "always"
            }
            fn after_retire(&mut self, _: ThreadId, _: Cycle) -> SwitchDecision {
                SwitchDecision::Switch
            }
            fn each_cycle(&mut self, _: ThreadId, _: Cycle) -> SwitchDecision {
                SwitchDecision::Switch
            }
        }
        let mut m = Machine::new(
            MachineConfig::test_config(),
            vec![Box::new(AluTrace::new())],
            Box::new(Always),
        );
        m.run_cycles(5_000);
        assert_eq!(m.stats().total_switches, 0);
        assert!(m.stats().total_retired() > 0);
    }

    #[test]
    fn reset_stats_keeps_architectural_position() {
        let mut m = single(Box::new(AluTrace::new()));
        m.run_cycles(5_000);
        let pos = m.position(ThreadId::new(0));
        assert!(pos > 0);
        m.reset_stats();
        assert_eq!(m.stats().total_retired(), 0);
        assert_eq!(m.position(ThreadId::new(0)), pos);
        m.run_cycles(1_000);
        assert!(m.position(ThreadId::new(0)) > pos);
    }

    #[test]
    fn stall_detector_flags_no_retirement_within_window() {
        // Every instruction misses to memory (100 cycles in test_config),
        // so retirement gaps dwarf a 10-cycle window: the watchdog must
        // trip deterministically.
        let mut m = single(Box::new(MissEvery {
            ipm: 1,
            region: 0x100_0000,
        }));
        let err = m.try_run_cycles(50_000, Some(10)).unwrap_err();
        match err {
            SimError::Stalled { window, .. } => assert_eq!(window, 10),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn stall_detector_passes_a_healthy_run() {
        let mut m = single(Box::new(MissEvery {
            ipm: 8,
            region: 0x100_0000,
        }));
        m.try_run_cycles(50_000, Some(10_000))
            .expect("well above the longest legitimate stall");
        assert!(m.stats().total_retired() > 0);
    }

    #[test]
    fn try_run_cycles_matches_run_cycles() {
        let run = |checked: bool| {
            let mut m = single(Box::new(MissEvery {
                ipm: 16,
                region: 0x100_0000,
            }));
            if checked {
                m.try_run_cycles(30_000, Some(20_000)).unwrap();
            } else {
                m.run_cycles(30_000);
            }
            (m.stats().total_retired(), m.now())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn run_until_retired_reaches_target() {
        let mut m = single(Box::new(AluTrace::new()));
        m.run_until_retired(10_000, 1_000_000);
        assert!(m.position(ThreadId::new(0)) >= 10_000);
    }

    #[test]
    fn branches_are_counted_and_mispredicts_resolve() {
        // A branch whose direction is a pseudo-random function of its
        // index: plenty of mispredicts, all of which must resolve.
        #[derive(Debug)]
        struct Branchy;
        impl TraceSource for Branchy {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                if i % 4 == 3 {
                    let h = i.wrapping_mul(0x9e3779b97f4a7c15);
                    Uop::new(
                        UopKind::Branch {
                            taken: h >> 60 & 1 == 1,
                            target: 0x40,
                        },
                        0x40 + (i % 16) * 4,
                    )
                } else {
                    Uop::new(UopKind::Alu, 0x40 + (i % 16) * 4)
                }
            }
        }
        let mut m = single(Box::new(Branchy));
        m.run_cycles(50_000);
        let t = m.stats().threads[0];
        assert!(t.branches > 1_000);
        assert!(t.mispredicts > 100, "mispredicts = {}", t.mispredicts);
        assert!(t.mispredicts < t.branches);
        // Mispredicts cost cycles: IPC below the ALU-bound case.
        assert!(m.stats().ipc() < 2.5);
    }

    /// Loads cycling a working set that fits the L2 but not the L1D:
    /// steady-state L1 misses that hit the L2.
    #[derive(Debug)]
    struct L2Resident {
        region: u64,
    }
    impl TraceSource for L2Resident {
        fn uop_at(&self, i: InstrIndex) -> Uop {
            let pc = self.region + 0x40 + (i % 64) * 4;
            if i.is_multiple_of(4) {
                // 4096 lines = 256 KiB: 8x the L1D, 1/8 of the L2.
                let line = (i / 4) % 4_096;
                Uop::new(UopKind::Load, pc).with_mem(self.region + 0x100_0000 + line * 64)
            } else {
                Uop::new(UopKind::Alu, pc)
            }
        }
        fn name(&self) -> &str {
            "l2-resident"
        }
    }

    #[test]
    fn l1_miss_switching_raises_switch_rate() {
        // With switch_on_l1_miss, loads served by the L2 also trigger
        // switches: the same workload must switch much more often.
        let count_switches = |l1: bool| {
            let mut cfg = MachineConfig::default();
            cfg.soe.switch_on_l1_miss = l1;
            let mut m = Machine::new(
                cfg,
                vec![
                    Box::new(L2Resident { region: 0x100_0000 }),
                    Box::new(L2Resident { region: 0x900_0000 }),
                ],
                Box::new(SwitchOnEvent::new()),
            );
            // Warm the L2 first so steady-state behaviour dominates the
            // count (the cold pass ping-pongs both configurations alike).
            m.run_cycles(600_000);
            m.reset_stats();
            m.run_cycles(600_000);
            m.stats().total_switches
        };
        let base = count_switches(false);
        let with_l1 = count_switches(true);
        assert!(
            with_l1 > 2 * base.max(1),
            "L1-event switching must add switches: {with_l1} vs {base}"
        );
    }

    #[test]
    fn observe_miss_latency_reports_remaining_stall() {
        struct Capture {
            seen: Vec<Cycle>,
        }
        impl SwitchPolicy for Capture {
            fn name(&self) -> &str {
                "capture"
            }
            fn observe_miss_latency(&mut self, _tid: ThreadId, remaining: Cycle) {
                self.seen.push(remaining);
            }
            fn on_miss_stall(&mut self, _tid: ThreadId, _now: Cycle) -> SwitchDecision {
                SwitchDecision::Switch
            }
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
        }
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![
                Box::new(MissEvery {
                    ipm: 1_000,
                    region: 0x100_0000,
                }),
                Box::new(MissEvery {
                    ipm: 1_000,
                    region: 0x900_0000,
                }),
            ],
            Box::new(Capture { seen: Vec::new() }),
        );
        m.run_cycles(300_000);
        let seen = &m
            .policy()
            .as_any()
            .and_then(|a| a.downcast_ref::<Capture>())
            .unwrap()
            .seen;
        assert!(!seen.is_empty());
        let mean = seen.iter().sum::<Cycle>() as f64 / seen.len() as f64;
        // Exposed latency is below the full 300-cycle memory latency
        // (out-of-order overlap) but must remain a large fraction of it.
        // Exposed latency clusters near the 300-cycle memory latency
        // (plus L2/bus time, minus out-of-order overlap).
        assert!(
            (50.0..=400.0).contains(&mean),
            "mean exposed latency {mean}"
        );
    }

    #[test]
    fn pause_hints_switch_threads_and_are_counted() {
        // Thread 0 pauses every 64 instructions; thread 1 is pure ALU.
        #[derive(Debug)]
        struct Pausey;
        impl TraceSource for Pausey {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                let pc = 0x5000 + (i % 64) * 4;
                if i % 64 == 7 {
                    Uop::new(UopKind::Pause, pc)
                } else {
                    Uop::new(UopKind::Alu, pc)
                }
            }
        }
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![Box::new(Pausey), Box::new(Pausey)],
            Box::new(SwitchOnEvent::new()),
        );
        m.run_cycles(100_000);
        let s = m.stats();
        assert!(
            s.threads[0].hint_switches > 10,
            "pauses must switch: {:?}",
            s.threads[0]
        );
        assert!(s.threads[1].hint_switches > 10);
        assert!(s.threads[1].retired > 0, "the other thread gets the core");
        // A single-thread machine ignores the hint entirely.
        let mut alone = Machine::new(
            MachineConfig::default(),
            vec![Box::new(Pausey)],
            Box::new(NeverSwitch::new()),
        );
        alone.run_cycles(50_000);
        assert_eq!(alone.stats().total_switches, 0);
        assert!(alone.stats().total_retired() > 0);
    }

    #[test]
    fn matched_calls_and_returns_predict_via_ras() {
        // Pattern: [alu, call f, f-body alu, return, alu, ...] with the
        // return target equal to the call's fall-through — a RAS-friendly
        // stream that must retire with almost no mispredicts.
        #[derive(Debug)]
        struct Callsy;
        impl TraceSource for Callsy {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                let block = i / 8;
                let base = 0x4000 + (block % 32) * 64;
                match i % 8 {
                    0..=2 => Uop::new(UopKind::Alu, base + (i % 8) * 4),
                    3 => Uop::new(UopKind::Call { target: 0x9000 }, base + 12),
                    4 | 5 => Uop::new(UopKind::Alu, 0x9000 + (i % 8 - 4) * 4),
                    6 => Uop::new(UopKind::Return { target: base + 16 }, 0x9008),
                    _ => Uop::new(UopKind::Alu, base + 16),
                }
            }
        }
        let mut m = single(Box::new(Callsy));
        m.run_cycles(60_000);
        let t = m.stats().threads[0];
        assert!(t.calls > 500, "calls {}", t.calls);
        assert!(t.returns > 500, "returns {}", t.returns);
        assert!(
            t.mispredicts < t.returns / 10,
            "RAS should predict matched returns: {} mispredicts / {} returns",
            t.mispredicts,
            t.returns
        );
        assert!(m.stats().ipc() > 0.8, "ipc {}", m.stats().ipc());
    }

    #[test]
    fn unmatched_returns_mispredict() {
        // Returns with no preceding call: the RAS has nothing useful.
        #[derive(Debug)]
        struct Retsy;
        impl TraceSource for Retsy {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                let base = 0x4000 + (i % 256) * 4;
                if i % 16 == 15 {
                    Uop::new(UopKind::Return { target: base + 4 }, base)
                } else {
                    Uop::new(UopKind::Alu, base)
                }
            }
        }
        let mut m = single(Box::new(Retsy));
        m.run_cycles(60_000);
        let t = m.stats().threads[0];
        assert!(t.returns > 100);
        assert!(
            t.mispredicts as f64 > t.returns as f64 * 0.5,
            "bogus returns must mispredict: {} of {}",
            t.mispredicts,
            t.returns
        );
    }

    #[test]
    fn predictor_kind_is_configurable_and_matters() {
        // An alternating branch: gshare-class predictors learn it,
        // bimodal cannot.
        #[derive(Debug)]
        struct Alternating;
        impl TraceSource for Alternating {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                // One static branch (fixed PC) whose outcome alternates
                // per dynamic instance.
                let pc = 0x40 + (i % 4) * 4;
                if i % 4 == 3 {
                    Uop::new(
                        UopKind::Branch {
                            taken: (i / 4).is_multiple_of(2),
                            target: 0x40,
                        },
                        pc,
                    )
                } else {
                    Uop::new(UopKind::Alu, pc)
                }
            }
        }
        let run = |kind: PredictorKind| {
            let mut predictor = MachineConfig::default().predictor;
            predictor.kind = kind;
            let cfg = MachineConfig {
                predictor,
                ..MachineConfig::default()
            };
            let mut m = Machine::new(
                cfg,
                vec![Box::new(Alternating)],
                Box::new(NeverSwitch::new()),
            );
            m.run_cycles(60_000);
            (
                m.predictor_stats().mispredict_rate(),
                m.stats().total_retired(),
            )
        };
        let (gshare, retired_g) = run(PredictorKind::Gshare);
        let (bimodal, retired_b) = run(PredictorKind::Bimodal);
        let (tournament, _) = run(PredictorKind::Tournament);
        assert!(bimodal > 0.3, "bimodal cannot learn alternation: {bimodal}");
        assert!(gshare < 0.05, "gshare learns alternation: {gshare}");
        assert!(tournament < 0.1, "tournament follows gshare: {tournament}");
        assert!(
            retired_g > retired_b,
            "better prediction must retire more: {retired_g} vs {retired_b}"
        );
    }

    #[test]
    fn store_buffer_drain_throttles_store_bursts() {
        // A store-heavy stream: with a slow drain (one commit per 8
        // cycles), retirement must stall on the full buffer and IPC drop
        // well below the instant-commit configuration.
        #[derive(Debug)]
        struct Storey;
        impl TraceSource for Storey {
            fn uop_at(&self, i: InstrIndex) -> Uop {
                let pc = 0x40 + (i % 32) * 4;
                if i.is_multiple_of(2) {
                    Uop::new(UopKind::Store, pc).with_mem(0x9000 + (i % 64) * 8)
                } else {
                    Uop::new(UopKind::Alu, pc)
                }
            }
        }
        let run = |interval: Cycle| {
            let cfg = MachineConfig {
                store_drain_interval: interval,
                ..MachineConfig::default()
            };
            let mut m = Machine::new(cfg, vec![Box::new(Storey)], Box::new(NeverSwitch::new()));
            m.run_cycles(60_000);
            m.stats().ipc()
        };
        let instant = run(0);
        let fast = run(1);
        let slow = run(8);
        // One store every other instruction: a 1-cycle drain keeps up,
        // an 8-cycle drain bounds IPC near 1/(8*0.5) = 0.25.
        assert!(
            (fast - instant).abs() / instant < 0.15,
            "fast {fast} vs instant {instant}"
        );
        assert!(slow < 0.35, "slow drain must throttle: {slow}");
        assert!(slow > 0.15, "but not deadlock: {slow}");
    }

    #[test]
    fn store_load_forwarding_keeps_ipc_high() {
        // store to X; load from X right after: forwarding avoids the
        // cache round trip entirely.
        let t = PatternTrace::new(
            "fwd",
            vec![
                Uop::new(UopKind::Store, 0x80).with_mem(0x5000),
                Uop::new(UopKind::Load, 0x84)
                    .with_mem(0x5000)
                    .with_deps(1, 0),
                Uop::new(UopKind::Alu, 0x88).with_deps(1, 0),
                Uop::new(UopKind::Alu, 0x8c),
            ],
        );
        let mut m = single(Box::new(t));
        m.run_cycles(20_000);
        assert!(m.stats().ipc() > 0.5, "ipc = {}", m.stats().ipc());
    }
}
