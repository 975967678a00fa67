//! Trace exporters: compact JSONL, Chrome `trace_event` JSON, and CSV
//! time series.
//!
//! All three serializers are hand-written so the wire formats are fully
//! byte-stable: field order is fixed, floats use Rust's shortest
//! round-trip `Display`, and iteration orders are deterministic. Two
//! identical runs therefore produce byte-identical exports, which the
//! trace-invariant tests rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use soe_sim::obs::{EventKind, Trace};
use soe_stats::TimeSeries;

use crate::obs::{fmt_f64, kind_label, reason_label};

/// Escapes a string for embedding inside JSON double quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes one event body (everything after the `"at"` field).
fn event_body(kind: &EventKind) -> String {
    let fields = match kind {
        EventKind::SwitchOut { tid, reason } => format!(
            ",\"tid\":{},\"reason\":\"{}\"",
            tid.index(),
            reason_label(*reason)
        ),
        EventKind::SwitchIn { tid }
        | EventKind::DeficitForce { tid }
        | EventKind::CycleQuotaExpiry { tid } => format!(",\"tid\":{}", tid.index()),
        EventKind::L2Miss { line } | EventKind::L2Fill { line } => format!(",\"line\":{line}"),
        EventKind::RetireSample { retired } => format!(",\"retired\":{retired}"),
        EventKind::EstimatorUpdate { tid, ipc_st, quota } => format!(
            ",\"tid\":{},\"ipc_st\":{},\"quota\":{}",
            tid.index(),
            fmt_f64(*ipc_st),
            quota.map_or_else(|| "null".to_string(), fmt_f64),
        ),
        EventKind::DeficitGrant {
            tid,
            credited,
            balance,
            quota,
        } => format!(
            ",\"tid\":{},\"credited\":{},\"balance\":{},\"quota\":{}",
            tid.index(),
            fmt_f64(*credited),
            fmt_f64(*balance),
            fmt_f64(*quota),
        ),
    };
    format!("\"kind\":\"{}\"{fields}", kind_label(kind))
}

/// Serializes a trace as compact JSONL: a header object on the first
/// line — schema tag, thread names, event and drop counts — then one
/// flat JSON object per event in cycle order.
///
/// The format is the machine-checking interchange: it round-trips
/// exactly through [`parse_jsonl`](crate::obs::parse_jsonl) and is what
/// `--trace <path>` writes and `tracecheck` validates.
pub fn trace_jsonl(trace: &Trace, threads: &[&str]) -> String {
    let names: Vec<String> = threads
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let mut out = format!(
        "{{\"schema\":\"soe-trace/1\",\"threads\":[{}],\"events\":{},\"dropped\":{}}}\n",
        names.join(","),
        trace.events.len(),
        trace.dropped,
    );
    for e in &trace.events {
        let _ = writeln!(out, "{{\"at\":{},{}}}", e.at, event_body(&e.kind));
    }
    out
}

/// Serializes a trace as Chrome `trace_event` JSON (the Perfetto /
/// `chrome://tracing` format).
///
/// Timestamps are simulated **cycles**, not microseconds — Perfetto
/// renders them fine; just read the time axis as cycles. The export
/// contains:
///
/// * one lane per thread plus a `memory` lane, named via `thread_name`
///   metadata events;
/// * a complete (`"X"`) occupancy slice per switch-in → switch-out
///   interval, with the switch-out reason in `args` (an interval still
///   open at trace end is dropped rather than guessed);
/// * instant (`"i"`) events for L2 misses and fills on the memory lane,
///   and for forced switches, quota expiries and estimator updates on
///   the owning thread's lane.
pub fn chrome_trace(trace: &Trace, threads: &[&str]) -> String {
    let mem_lane = threads.len();
    let mut records: Vec<String> = Vec::new();
    for (i, name) in threads.iter().enumerate() {
        records.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"args\":{{\"name\":\"T{i} {}\"}}}}",
            json_escape(name)
        ));
    }
    records.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{mem_lane},\"args\":{{\"name\":\"memory\"}}}}"
    ));
    // Open switch-in cycle per thread lane, keyed by thread index.
    let mut open: BTreeMap<usize, u64> = BTreeMap::new();
    let instant = |records: &mut Vec<String>, name: &str, ts: u64, lane: usize| {
        records.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{lane},\"s\":\"t\"}}"
        ));
    };
    for e in &trace.events {
        match e.kind {
            EventKind::SwitchIn { tid } => {
                open.insert(tid.index(), e.at);
            }
            EventKind::SwitchOut { tid, reason } => {
                if let Some(start) = open.remove(&tid.index()) {
                    records.push(format!(
                        "{{\"name\":\"run\",\"cat\":\"occupancy\",\"ph\":\"X\",\"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"reason\":\"{}\"}}}}",
                        e.at.saturating_sub(start),
                        tid.index(),
                        reason_label(reason),
                    ));
                }
            }
            EventKind::L2Miss { .. } | EventKind::L2Fill { .. } => {
                instant(&mut records, kind_label(&e.kind), e.at, mem_lane)
            }
            EventKind::DeficitForce { tid }
            | EventKind::CycleQuotaExpiry { tid }
            | EventKind::EstimatorUpdate { tid, .. } => {
                instant(&mut records, kind_label(&e.kind), e.at, tid.index())
            }
            EventKind::RetireSample { retired } => {
                records.push(format!(
                    "{{\"name\":\"retired\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"retired\":{retired}}}}}",
                    e.at
                ));
            }
            EventKind::DeficitGrant { .. } => {}
        }
    }
    format!("{{\"traceEvents\":[{}]}}\n", records.join(","))
}

/// Extracts plottable time series from a trace, in deterministic order:
/// the machine-wide `retired_total` counter, then per-thread
/// `est_ipc_st[Tj]` (estimator updates) and `deficit[Tj]` (post-grant
/// deficit balances), threads in index order.
///
/// Feed the result to `soe_stats::svg::line_chart` or flatten it with
/// [`series_to_csv`](soe_stats::series_to_csv).
pub fn trace_series(trace: &Trace) -> Vec<TimeSeries> {
    let mut retired = TimeSeries::new("retired_total");
    let mut est: BTreeMap<usize, TimeSeries> = BTreeMap::new();
    let mut deficit: BTreeMap<usize, TimeSeries> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::RetireSample { retired: r } => retired.push(e.at as f64, r as f64),
            EventKind::EstimatorUpdate { tid, ipc_st, .. } => est
                .entry(tid.index())
                .or_insert_with(|| TimeSeries::new(format!("est_ipc_st[{tid}]")))
                .push(e.at as f64, ipc_st),
            EventKind::DeficitGrant { tid, balance, .. } => deficit
                .entry(tid.index())
                .or_insert_with(|| TimeSeries::new(format!("deficit[{tid}]")))
                .push(e.at as f64, balance),
            // Scheduling and memory events carry no plottable value.
            EventKind::SwitchIn { .. }
            | EventKind::SwitchOut { .. }
            | EventKind::L2Miss { .. }
            | EventKind::L2Fill { .. }
            | EventKind::DeficitForce { .. }
            | EventKind::CycleQuotaExpiry { .. } => {}
        }
    }
    let mut out = vec![retired];
    out.extend(est.into_values());
    out.extend(deficit.into_values());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soe_sim::obs::TraceEvent;
    use soe_sim::{SwitchReason, ThreadId};

    fn sample_trace() -> Trace {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        Trace {
            events: vec![
                TraceEvent {
                    at: 0,
                    kind: EventKind::SwitchIn { tid: t0 },
                },
                TraceEvent {
                    at: 40,
                    kind: EventKind::L2Miss { line: 0x1240 },
                },
                TraceEvent {
                    at: 40,
                    kind: EventKind::SwitchOut {
                        tid: t0,
                        reason: SwitchReason::MissEvent,
                    },
                },
                TraceEvent {
                    at: 55,
                    kind: EventKind::SwitchIn { tid: t1 },
                },
                TraceEvent {
                    at: 55,
                    kind: EventKind::DeficitGrant {
                        tid: t1,
                        credited: 120.5,
                        balance: 120.5,
                        quota: 120.5,
                    },
                },
                TraceEvent {
                    at: 100,
                    kind: EventKind::RetireSample { retired: 180 },
                },
                TraceEvent {
                    at: 250,
                    kind: EventKind::EstimatorUpdate {
                        tid: t0,
                        ipc_st: 1.25,
                        quota: Some(321.0),
                    },
                },
                TraceEvent {
                    at: 250,
                    kind: EventKind::EstimatorUpdate {
                        tid: t1,
                        ipc_st: 0.5,
                        quota: None,
                    },
                },
                TraceEvent {
                    at: 340,
                    kind: EventKind::L2Fill { line: 0x1240 },
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_has_header_then_one_line_per_event() {
        let text = trace_jsonl(&sample_trace(), &["gcc", "eon"]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10);
        assert_eq!(
            lines[0],
            "{\"schema\":\"soe-trace/1\",\"threads\":[\"gcc\",\"eon\"],\"events\":9,\"dropped\":0}"
        );
        assert_eq!(lines[2], "{\"at\":40,\"kind\":\"l2_miss\",\"line\":4672}");
        assert!(lines[8].contains("\"quota\":null"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_escapes_thread_names() {
        let trace = Trace::default();
        let text = trace_jsonl(&trace, &["a\"b\\c"]);
        assert!(text.starts_with("{\"schema\":\"soe-trace/1\",\"threads\":[\"a\\\"b\\\\c\"]"));
    }

    #[test]
    fn chrome_trace_pairs_occupancy_slices() {
        let text = chrome_trace(&sample_trace(), &["gcc", "eon"]);
        // T0 ran cycles 0..40 and was switched out on a miss.
        assert!(text.contains(
            "{\"name\":\"run\",\"cat\":\"occupancy\",\"ph\":\"X\",\"ts\":0,\"dur\":40,\"pid\":0,\"tid\":0,\"args\":{\"reason\":\"miss\"}}"
        ));
        // T1's interval never closed: no slice, no panic.
        assert!(!text.contains("\"tid\":1,\"args\":{\"reason\""));
        assert!(text.contains("\"name\":\"thread_name\""));
        assert!(text.contains(
            "{\"name\":\"l2_miss\",\"ph\":\"i\",\"ts\":40,\"pid\":0,\"tid\":2,\"s\":\"t\"}"
        ));
    }

    #[test]
    fn series_extract_in_deterministic_order() {
        let series = trace_series(&sample_trace());
        let names: Vec<&str> = series.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "retired_total",
                "est_ipc_st[T0]",
                "est_ipc_st[T1]",
                "deficit[T1]"
            ]
        );
        assert_eq!(
            series[0].points(),
            &[soe_stats::Point { x: 100.0, y: 180.0 }]
        );
    }
}
