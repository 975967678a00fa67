//! Cycle-level observability: a deterministic, bounded event stream.
//!
//! The paper's mechanism lives entirely in time-domain behaviour — runs
//! delimited by L2 misses, Δ-window re-estimation, deficit-driven switch
//! decisions — which end-of-run aggregates cannot show. This module
//! defines the event vocabulary ([`EventKind`]) and a bounded recorder
//! ([`Tracer`]) that the machine, the memory hierarchy and the fairness
//! policy feed when (and only when) a tracer is attached.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Nothing here is consulted unless a tracer
//!    is attached; tracing never influences simulation state, so traced
//!    and untraced runs produce byte-identical results.
//! 2. **Deterministic.** Events are ordered by `(cycle, emission
//!    sequence)` in a `BTreeMap`, so two identical runs — at any worker
//!    count — produce byte-identical traces.
//! 3. **Bounded.** The ring keeps at most [`TraceConfig::capacity`]
//!    events, dropping the *oldest* first and counting the drops, so a
//!    long run cannot exhaust memory.
//!
//! Events may be emitted out of order in real time (an L2 fill is known
//! at miss time but completes hundreds of cycles later); the tracer
//! holds them in a pending set and releases them to the ring only once
//! the watermark passes, which restores global cycle order.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::config::ConfigError;
use crate::switch::SwitchReason;
use crate::types::{Addr, Cycle, ThreadId};

/// A tracer shared between the machine, the memory hierarchy and the
/// switch policy. Simulation is single-threaded per machine, so an
/// `Rc<RefCell<…>>` suffices; machines built inside worker closures each
/// own an independent buffer.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Tracing knobs, carried by `RunConfig` (`None` disables tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained; beyond it the oldest are dropped (and
    /// counted in [`Trace::dropped`]).
    pub capacity: usize,
    /// Period of the machine-wide retire-rate samples, in cycles.
    /// Samples are stamped on the period grid, so fast-forwarding over
    /// quiescent stalls cannot move them.
    pub retire_sample_period: Cycle,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 20,
            retire_sample_period: 10_000,
        }
    }
}

impl TraceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Fails if the capacity or sample period is zero.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError("trace capacity must be positive".into()));
        }
        if self.retire_sample_period == 0 {
            return Err(ConfigError("retire sample period must be positive".into()));
        }
        Ok(())
    }
}

/// What happened (the timestamp lives in [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The running thread was switched out, with the cause.
    SwitchOut {
        /// The outgoing thread.
        tid: ThreadId,
        /// Why it was switched out.
        reason: SwitchReason,
    },
    /// A thread completed its switch-in and occupies the core.
    SwitchIn {
        /// The incoming thread.
        tid: ThreadId,
    },
    /// A demand L2 miss was initiated for `line`.
    L2Miss {
        /// The missing cache line address.
        line: Addr,
    },
    /// The fill for an earlier demand L2 miss completed.
    L2Fill {
        /// The filled cache line address.
        line: Addr,
    },
    /// Machine-wide cumulative retired-instruction sample, stamped on
    /// the [`TraceConfig::retire_sample_period`] grid.
    RetireSample {
        /// Instructions retired (all threads) since machine construction.
        retired: u64,
    },
    /// The Δ-window estimator recomputed a thread's stand-alone IPC
    /// estimate and quota (Eq 11–13 / Eq 9).
    EstimatorUpdate {
        /// The thread the estimate is for.
        tid: ThreadId,
        /// Estimated stand-alone IPC (`IPC_ST_j`); 0 until the thread
        /// has been sampled at least once.
        ipc_st: f64,
        /// Forced-switch instruction quota (`IPSw_j`); `None` means no
        /// forced switching for this thread this window.
        quota: Option<f64>,
    },
    /// A switched-in thread was credited its deficit quota.
    DeficitGrant {
        /// The credited thread.
        tid: ThreadId,
        /// Credit applied (post-cap balance minus prior balance).
        credited: f64,
        /// Balance after the grant.
        balance: f64,
        /// The quota in force at grant time.
        quota: f64,
    },
    /// A thread exhausted its deficit and was forced out (DRR-style
    /// enforcement).
    DeficitForce {
        /// The exhausted thread.
        tid: ThreadId,
    },
    /// A thread exceeded the maximum-cycles quota and was forced out.
    CycleQuotaExpiry {
        /// The over-quota thread.
        tid: ThreadId,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated cycle the event is attributed to.
    pub at: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// A finished recording: events in non-decreasing cycle order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full (oldest-first drops).
    pub dropped: u64,
}

/// The bounded, order-restoring event recorder.
///
/// # Examples
///
/// ```
/// use soe_sim::obs::{EventKind, TraceConfig, Tracer};
///
/// let mut t = Tracer::new(TraceConfig::default());
/// t.emit(40, EventKind::L2Miss { line: 0x80 });
/// t.emit(340, EventKind::L2Fill { line: 0x80 }); // known at miss time
/// t.emit(60, EventKind::RetireSample { retired: 7 });
/// let trace = t.take();
/// let cycles: Vec<u64> = trace.events.iter().map(|e| e.at).collect();
/// assert_eq!(cycles, vec![40, 60, 340]); // cycle order restored
/// ```
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    /// Events not yet released to the ring, ordered by
    /// `(cycle, emission sequence)` — the deterministic total order.
    pending: BTreeMap<(Cycle, u64), EventKind>,
    seq: u64,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    /// Cycle up to which (exclusive) pending events have been released.
    watermark: Cycle,
    /// Next retire-sample boundary.
    next_sample: Cycle,
}

impl Tracer {
    /// Creates an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (zero capacity or sample period).
    pub fn new(cfg: TraceConfig) -> Self {
        if let Err(e) = cfg.check() {
            // soe-lint: allow(panic-macro): config is validated before any run; mirrors the other config validate() wrappers
            panic!("{e}");
        }
        Self {
            cfg,
            pending: BTreeMap::new(),
            seq: 0,
            ring: VecDeque::new(),
            dropped: 0,
            watermark: 0,
            next_sample: cfg.retire_sample_period,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Records `kind` at cycle `at`. `at` may lie in the future (e.g. a
    /// scheduled fill completion); it is clamped to the watermark so a
    /// late emission can never break the released order.
    pub fn emit(&mut self, at: Cycle, kind: EventKind) {
        let at = at.max(self.watermark);
        self.pending.insert((at, self.seq), kind);
        self.seq += 1;
    }

    /// Advances the watermark to `now`, stamping any crossed retire-rate
    /// sample boundaries with the *current* cumulative `retired` count
    /// (nothing retires during a quiescent fast-forward jump, so the
    /// count at each crossed boundary equals the count at `now`) and
    /// releasing pending events strictly below `now` to the ring.
    pub fn advance(&mut self, now: Cycle, retired: u64) {
        while self.next_sample <= now {
            let at = self.next_sample;
            self.emit(at, EventKind::RetireSample { retired });
            self.next_sample += self.cfg.retire_sample_period;
        }
        self.watermark = self.watermark.max(now);
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 >= now {
                break;
            }
            let ((at, _), kind) = entry.remove_entry();
            self.push(TraceEvent { at, kind });
        }
    }

    /// Discards everything recorded so far and restarts the recording at
    /// `now` (used to drop warm-up): the ring, the pending set and the
    /// drop count are cleared, and the next retire sample lands on the
    /// first period boundary strictly after `now`.
    pub fn restart(&mut self, now: Cycle) {
        self.pending.clear();
        self.ring.clear();
        self.dropped = 0;
        self.watermark = now;
        self.next_sample =
            (now / self.cfg.retire_sample_period + 1) * self.cfg.retire_sample_period;
    }

    /// Finishes the recording: releases every pending event (scheduled
    /// fills may extend past the last simulated cycle) and returns the
    /// trace, leaving the recorder empty.
    pub fn take(&mut self) -> Trace {
        while let Some(entry) = self.pending.first_entry() {
            let ((at, _), kind) = entry.remove_entry();
            self.push(TraceEvent { at, kind });
        }
        Trace {
            events: self.ring.drain(..).collect(),
            dropped: self.dropped,
        }
    }

    /// Events currently retained (released + pending).
    pub fn len(&self) -> usize {
        self.ring.len() + self.pending.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, event: TraceEvent) {
        if self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, period: Cycle) -> TraceConfig {
        TraceConfig {
            capacity,
            retire_sample_period: period,
        }
    }

    #[test]
    fn events_come_out_in_cycle_order() {
        let mut t = Tracer::new(cfg(64, 1_000_000));
        t.emit(10, EventKind::L2Miss { line: 1 });
        t.emit(310, EventKind::L2Fill { line: 1 });
        t.emit(20, EventKind::L2Miss { line: 2 });
        t.emit(320, EventKind::L2Fill { line: 2 });
        t.advance(300, 0);
        t.emit(
            300,
            EventKind::SwitchIn {
                tid: ThreadId::new(0),
            },
        );
        let trace = t.take();
        let at: Vec<Cycle> = trace.events.iter().map(|e| e.at).collect();
        assert_eq!(at, vec![10, 20, 300, 310, 320]);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn same_cycle_events_keep_emission_order() {
        let mut t = Tracer::new(cfg(64, 1_000_000));
        t.emit(
            5,
            EventKind::DeficitForce {
                tid: ThreadId::new(1),
            },
        );
        t.emit(
            5,
            EventKind::SwitchOut {
                tid: ThreadId::new(1),
                reason: SwitchReason::Forced,
            },
        );
        let trace = t.take();
        assert!(matches!(
            trace.events[0].kind,
            EventKind::DeficitForce { .. }
        ));
        assert!(matches!(trace.events[1].kind, EventKind::SwitchOut { .. }));
    }

    #[test]
    fn capacity_drops_oldest_and_counts() {
        let mut t = Tracer::new(cfg(2, 1_000_000));
        for i in 0..5u64 {
            t.emit(i, EventKind::L2Miss { line: i });
        }
        let trace = t.take();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.events[0].at, 3);
        assert_eq!(trace.events[1].at, 4);
    }

    #[test]
    fn retire_samples_land_on_the_period_grid() {
        let mut t = Tracer::new(cfg(64, 100));
        t.advance(50, 1);
        t.advance(350, 7); // jumps over 100, 200, 300
        let trace = t.take();
        let samples: Vec<(Cycle, u64)> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RetireSample { retired } => Some((e.at, retired)),
                _ => None,
            })
            .collect();
        assert_eq!(samples, vec![(100, 7), (200, 7), (300, 7)]);
    }

    #[test]
    fn restart_discards_history_and_realigns_samples() {
        let mut t = Tracer::new(cfg(2, 100));
        for i in 0..5u64 {
            t.emit(i, EventKind::L2Miss { line: i });
        }
        t.restart(150);
        assert!(t.is_empty());
        assert_eq!(t.dropped, 0);
        t.advance(260, 9);
        let trace = t.take();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].at, 200, "first boundary strictly after 150");
    }

    #[test]
    fn late_emission_is_clamped_to_the_watermark() {
        let mut t = Tracer::new(cfg(64, 1_000_000));
        t.advance(100, 0);
        t.emit(40, EventKind::L2Fill { line: 9 }); // late: clamped to 100
        t.emit(
            100,
            EventKind::SwitchIn {
                tid: ThreadId::new(0),
            },
        );
        let trace = t.take();
        assert_eq!(trace.events[0].at, 100);
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(cfg(0, 10).check().is_err());
        assert!(cfg(10, 0).check().is_err());
        assert!(TraceConfig::default().check().is_ok());
    }
}
