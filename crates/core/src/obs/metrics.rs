//! A typed counters/gauges metrics registry with a CSV wire format.
//!
//! Counters are monotone `u64` totals (events, switches, cycles);
//! gauges are `f64` point-in-time values (fairness, IPC). Backed by
//! `BTreeMap` so iteration — and therefore the CSV export — is
//! deterministic.

use std::collections::BTreeMap;

use soe_sim::obs::{EventKind, Trace};

use crate::metrics::PairRun;
use crate::obs::{fmt_f64, kind_label};

/// The registry: named counters and gauges.
///
/// # Examples
///
/// ```
/// use soe_core::obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("events.l2_miss", 3);
/// m.set_gauge("fairness", 0.82);
/// assert_eq!(
///     m.to_csv(),
///     "kind,name,value\ncounter,events.l2_miss,3\ngauge,fairness,0.82\n"
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Number of entries (counters + gauges).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len()
    }

    /// Whether the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges overwrite.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
    }

    /// Serializes as `kind,name,value` CSV with a header row, sorted by
    /// name within each kind — byte-stable for identical contents.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{k},{v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{k},{}\n", fmt_f64(*v)));
        }
        out
    }
}

/// Event-stream aggregates: total events, drops, per-kind counts, and
/// per-thread switch activity.
pub fn from_trace(trace: &Trace) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.inc("trace.events", trace.events.len() as u64);
    m.inc("trace.dropped", trace.dropped);
    for e in &trace.events {
        let tid = match e.kind {
            EventKind::SwitchOut { tid, .. }
            | EventKind::SwitchIn { tid }
            | EventKind::EstimatorUpdate { tid, .. }
            | EventKind::DeficitGrant { tid, .. }
            | EventKind::DeficitForce { tid }
            | EventKind::CycleQuotaExpiry { tid } => Some(tid),
            EventKind::L2Miss { .. }
            | EventKind::L2Fill { .. }
            | EventKind::RetireSample { .. } => None,
        };
        let kind = kind_label(&e.kind);
        m.inc(&format!("events.{kind}"), 1);
        if let Some(tid) = tid {
            m.inc(&format!("thread.{tid}.{kind}"), 1);
        }
    }
    m
}

/// A pair run's aggregates as registry entries (counters for totals,
/// gauges for derived metrics).
pub fn from_pair_run(run: &PairRun) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.inc("run.cycles", run.cycles);
    m.inc("run.total_switches", run.total_switches);
    m.inc("run.event_switches", run.event_switches);
    m.inc("run.forced_switches", run.forced_switches);
    m.set_gauge("run.fairness", run.fairness);
    m.set_gauge("run.throughput", run.throughput);
    m.set_gauge("run.weighted_speedup", run.weighted_speedup);
    m.set_gauge("run.avg_switch_latency", run.avg_switch_latency);
    for (i, t) in run.threads.iter().enumerate() {
        m.inc(&format!("thread.T{i}.retired"), t.retired);
        m.set_gauge(&format!("thread.T{i}.ipc_soe"), t.ipc_soe);
        m.set_gauge(&format!("thread.T{i}.ipc_st"), t.ipc_st);
        m.set_gauge(&format!("thread.T{i}.speedup"), t.speedup);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use soe_sim::obs::TraceEvent;
    use soe_sim::{SwitchReason, ThreadId};

    #[test]
    fn counters_add_and_gauges_overwrite_on_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 2);
        a.set_gauge("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("n", 3);
        b.set_gauge("g", 2.5);
        a.merge(&b);
        assert_eq!(a.counters.get("n"), Some(&5));
        assert_eq!(a.gauges.get("g"), Some(&2.5));
    }

    #[test]
    fn to_csv_output_is_pinned() {
        let mut m = MetricsRegistry::new();
        m.inc("run.cycles", 1_200_000);
        m.inc("events.l2_miss", 3);
        m.set_gauge("run.fairness", 1.0 / 3.0);
        m.set_gauge("thread.T0.ipc_st", 2.0f64.sqrt());
        assert_eq!(
            m.to_csv(),
            "kind,name,value\n\
             counter,events.l2_miss,3\n\
             counter,run.cycles,1200000\n\
             gauge,run.fairness,0.3333333333333333\n\
             gauge,thread.T0.ipc_st,1.4142135623730951\n"
        );
        assert_eq!(MetricsRegistry::new().to_csv(), "kind,name,value\n");
    }

    #[test]
    fn trace_metrics_count_by_kind_and_thread() {
        let t0 = ThreadId::new(0);
        let trace = Trace {
            events: vec![
                TraceEvent {
                    at: 1,
                    kind: EventKind::SwitchIn { tid: t0 },
                },
                TraceEvent {
                    at: 2,
                    kind: EventKind::L2Miss { line: 0x40 },
                },
                TraceEvent {
                    at: 300,
                    kind: EventKind::L2Fill { line: 0x40 },
                },
            ],
            dropped: 0,
        };
        let m = from_trace(&trace);
        let counter = |name: &str| m.counters.get(name).copied();
        assert_eq!(counter("trace.events"), Some(3));
        assert_eq!(counter("events.switch_in"), Some(1));
        assert_eq!(counter("thread.T0.switch_in"), Some(1));
        assert_eq!(counter("events.l2_miss"), Some(1));
        assert_eq!(counter("events.l2_fill"), Some(1));
    }

    #[test]
    fn trace_metrics_count_every_kind_label() {
        let t1 = ThreadId::new(1);
        let kinds = [
            EventKind::SwitchOut {
                tid: t1,
                reason: SwitchReason::MissEvent,
            },
            EventKind::SwitchIn { tid: t1 },
            EventKind::L2Miss { line: 0x80 },
            EventKind::L2Fill { line: 0x80 },
            EventKind::RetireSample { retired: 10 },
            EventKind::EstimatorUpdate {
                tid: t1,
                ipc_st: 1.5,
                quota: None,
            },
            EventKind::DeficitGrant {
                tid: t1,
                credited: 2.0,
                balance: 1.0,
                quota: 4.0,
            },
            EventKind::DeficitForce { tid: t1 },
            EventKind::CycleQuotaExpiry { tid: t1 },
        ];
        let trace = Trace {
            events: kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| TraceEvent { at: i as u64, kind })
                .collect(),
            dropped: 0,
        };
        let m = from_trace(&trace);
        let labels = [
            ("switch_out", true),
            ("switch_in", true),
            ("l2_miss", false),
            ("l2_fill", false),
            ("retire_sample", false),
            ("estimator_update", true),
            ("deficit_grant", true),
            ("deficit_force", true),
            ("cycle_quota_expiry", true),
        ];
        for (kind, (label, per_thread)) in kinds.iter().zip(labels) {
            assert_eq!(kind_label(kind), label);
            assert_eq!(m.counters.get(&format!("events.{label}")), Some(&1));
            let thread = m.counters.get(&format!("thread.T1.{label}")).copied();
            assert_eq!(thread, per_thread.then_some(1), "{label}");
        }
        // Two trace totals, nine kinds, six of them per thread.
        assert_eq!(m.counters.len(), 2 + 9 + 6);
    }
}
