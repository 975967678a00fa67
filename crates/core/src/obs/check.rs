//! Trace validation: structural invariants over the event stream, and a
//! parser for the JSONL wire format so the same checks run on files.
//!
//! The invariants checked here are the ones the mechanism promises by
//! construction:
//!
//! * events are in non-decreasing cycle order;
//! * per thread, switch-out and switch-in events strictly alternate (a
//!   thread cannot leave a core it does not occupy);
//! * every L2 fill answers an earlier L2 miss of the same line, and no
//!   miss is left unfilled (only checkable when nothing was dropped);
//! * the cumulative retire samples never decrease.
//!
//! Violations return `Err` with a message naming the first offending
//! event — never a panic — so `tracecheck` and CI can report them.

use std::collections::BTreeMap;

use soe_sim::obs::{EventKind, Trace, TraceEvent};
use soe_sim::{Cycle, ThreadId};

use crate::obs::{kind_label, parse_reason};

/// Aggregates reported by a successful check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events checked.
    pub events: u64,
    /// Events the recorder dropped to honour its capacity bound.
    pub dropped: u64,
    /// Event counts by wire-format kind label.
    pub by_kind: BTreeMap<String, u64>,
    /// Cycle of the first event, if any.
    pub first_at: Option<Cycle>,
    /// Cycle of the last event, if any.
    pub last_at: Option<Cycle>,
}

/// Checks the structural invariants of an in-memory trace.
///
/// # Errors
///
/// A message naming the first violated invariant and the event index
/// where it happened.
pub fn check_events(trace: &Trace) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary {
        events: trace.events.len() as u64,
        dropped: trace.dropped,
        ..TraceSummary::default()
    };
    let mut prev_at: Option<Cycle> = None;
    // Per thread: was the last switch event a switch-in?
    let mut switched_in: BTreeMap<u8, bool> = BTreeMap::new();
    // Per line: misses seen but not yet filled.
    let mut outstanding: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_retired: Option<u64> = None;
    for (i, e) in trace.events.iter().enumerate() {
        if let Some(p) = prev_at {
            if e.at < p {
                return Err(format!(
                    "event {i}: cycle order violated ({} after {p})",
                    e.at
                ));
            }
        }
        prev_at = Some(e.at);
        *summary
            .by_kind
            .entry(kind_label(&e.kind).to_string())
            .or_insert(0) += 1;
        summary.first_at.get_or_insert(e.at);
        summary.last_at = Some(e.at);
        match e.kind {
            EventKind::SwitchIn { tid }
                if switched_in.insert(tid.index() as u8, true) == Some(true) =>
            {
                return Err(format!("event {i}: {tid} switched in twice in a row"));
            }
            EventKind::SwitchIn { .. } => {}
            // A leading switch-out is fine: the thread may have been
            // switched in before recording started (e.g. at machine
            // construction, or before a warm-up restart).
            EventKind::SwitchOut { tid, .. }
                if switched_in.insert(tid.index() as u8, false) == Some(false) =>
            {
                return Err(format!("event {i}: {tid} switched out twice in a row"));
            }
            EventKind::SwitchOut { .. } => {}
            EventKind::L2Miss { line } => {
                *outstanding.entry(line).or_insert(0) += 1;
            }
            EventKind::L2Fill { line } if trace.dropped == 0 => match outstanding.get_mut(&line) {
                Some(n) if *n > 0 => *n -= 1,
                _ => {
                    return Err(format!(
                        "event {i}: fill of line {line:#x} without an outstanding miss"
                    ))
                }
            },
            EventKind::RetireSample { retired } => {
                if let Some(prev) = last_retired {
                    if retired < prev {
                        return Err(format!(
                            "event {i}: retire sample decreased ({retired} after {prev})"
                        ));
                    }
                }
                last_retired = Some(retired);
            }
            // Fills in a lossy trace can't be matched to misses; the
            // remaining kinds carry no stream invariant of their own.
            EventKind::L2Fill { .. }
            | EventKind::EstimatorUpdate { .. }
            | EventKind::DeficitGrant { .. }
            | EventKind::DeficitForce { .. }
            | EventKind::CycleQuotaExpiry { .. } => {}
        }
    }
    if trace.dropped == 0 {
        if let Some((line, n)) = outstanding.iter().find(|(_, n)| **n > 0) {
            return Err(format!("{n} miss(es) of line {line:#x} never filled"));
        }
    }
    Ok(summary)
}

/// A trace parsed back from its JSONL serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Thread names from the header, in thread-index order.
    pub threads: Vec<String>,
    /// The reconstructed events and drop count.
    pub trace: Trace,
}

/// Extracts the raw token following `"key":` in a flat JSON object.
///
/// Good enough for the trace wire format: objects are single-level, and
/// the only string values (`kind`, `reason`, `schema`) never contain
/// commas, braces or escapes.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end)
}

/// Parses a numeric field.
fn num_field<T: std::str::FromStr>(line: &str, key: &str, lineno: usize) -> Result<T, String> {
    raw_field(line, key)
        .and_then(|raw| raw.parse::<T>().ok())
        .ok_or_else(|| format!("line {lineno}: missing or malformed \"{key}\""))
}

/// Parses a quoted string field (no escape handling — see [`raw_field`]).
fn str_field<'a>(line: &'a str, key: &str, lineno: usize) -> Result<&'a str, String> {
    raw_field(line, key)
        .and_then(|raw| raw.strip_prefix('"'))
        .and_then(|raw| raw.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: missing or malformed \"{key}\""))
}

/// Parses the header's `"threads":[...]` array of JSON strings,
/// unescaping `\"` and `\\`.
fn parse_threads(header: &str) -> Result<Vec<String>, String> {
    let start = header
        .find("\"threads\":[")
        .ok_or_else(|| "header: missing \"threads\"".to_string())?
        + "\"threads\":[".len();
    let rest = header
        .get(start..)
        .ok_or_else(|| "header: truncated \"threads\"".to_string())?;
    let mut names = Vec::new();
    let mut chars = rest.chars();
    loop {
        match chars.next() {
            Some(']') => return Ok(names),
            Some(',') => {}
            Some('"') => {
                let mut name = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(c) => name.push(c),
                            None => return Err("header: unterminated escape".to_string()),
                        },
                        Some(c) => name.push(c),
                        None => return Err("header: unterminated thread name".to_string()),
                    }
                }
                names.push(name);
            }
            _ => return Err("header: malformed \"threads\" array".to_string()),
        }
    }
}

/// Parses one event line back into a [`TraceEvent`].
fn parse_event(line: &str, lineno: usize) -> Result<TraceEvent, String> {
    let at: Cycle = num_field(line, "at", lineno)?;
    let kind_label = str_field(line, "kind", lineno)?;
    let tid = |lineno| -> Result<ThreadId, String> {
        Ok(ThreadId::new(num_field::<u8>(line, "tid", lineno)?))
    };
    let kind = match kind_label {
        "switch_out" => EventKind::SwitchOut {
            tid: tid(lineno)?,
            reason: parse_reason(str_field(line, "reason", lineno)?)
                .ok_or_else(|| format!("line {lineno}: unknown switch reason"))?,
        },
        "switch_in" => EventKind::SwitchIn { tid: tid(lineno)? },
        "l2_miss" => EventKind::L2Miss {
            line: num_field(line, "line", lineno)?,
        },
        "l2_fill" => EventKind::L2Fill {
            line: num_field(line, "line", lineno)?,
        },
        "retire_sample" => EventKind::RetireSample {
            retired: num_field(line, "retired", lineno)?,
        },
        "estimator_update" => EventKind::EstimatorUpdate {
            tid: tid(lineno)?,
            ipc_st: num_field(line, "ipc_st", lineno)?,
            quota: match raw_field(line, "quota") {
                Some("null") => None,
                Some(raw) => Some(
                    raw.parse::<f64>()
                        .map_err(|_| format!("line {lineno}: malformed \"quota\""))?,
                ),
                None => return Err(format!("line {lineno}: missing \"quota\"")),
            },
        },
        "deficit_grant" => EventKind::DeficitGrant {
            tid: tid(lineno)?,
            credited: num_field(line, "credited", lineno)?,
            balance: num_field(line, "balance", lineno)?,
            quota: num_field(line, "quota", lineno)?,
        },
        "deficit_force" => EventKind::DeficitForce { tid: tid(lineno)? },
        "cycle_quota_expiry" => EventKind::CycleQuotaExpiry { tid: tid(lineno)? },
        other => return Err(format!("line {lineno}: unknown event kind {other:?}")),
    };
    Ok(TraceEvent { at, kind })
}

/// Parses the [`trace_jsonl`](crate::obs::trace_jsonl) wire format back
/// into a trace. Round-trips exactly: serializing the result reproduces
/// the input byte for byte.
///
/// # Errors
///
/// A message naming the first malformed line, a schema mismatch, or a
/// header whose declared event count disagrees with the body.
pub fn parse_jsonl(text: &str) -> Result<ParsedTrace, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty trace file".to_string())?;
    let schema = str_field(header, "schema", 1)?;
    if schema != "soe-trace/1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let threads = parse_threads(header)?;
    let declared_events: u64 = num_field(header, "events", 1)?;
    let dropped: u64 = num_field(header, "dropped", 1)?;
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        events.push(parse_event(line, i + 2)?);
    }
    if events.len() as u64 != declared_events {
        return Err(format!(
            "header declares {declared_events} events but body has {}",
            events.len()
        ));
    }
    Ok(ParsedTrace {
        threads,
        trace: Trace { events, dropped },
    })
}

/// Parses and validates a JSONL trace in one step: wire-format
/// well-formedness, header consistency, thread-id bounds against the
/// header's thread list, then every [`check_events`] invariant.
///
/// # Errors
///
/// The first parse or invariant failure, as a descriptive message.
pub fn check_jsonl(text: &str) -> Result<TraceSummary, String> {
    let parsed = parse_jsonl(text)?;
    let threads = parsed.threads.len();
    for (i, e) in parsed.trace.events.iter().enumerate() {
        let tid = match e.kind {
            EventKind::SwitchOut { tid, .. }
            | EventKind::SwitchIn { tid }
            | EventKind::EstimatorUpdate { tid, .. }
            | EventKind::DeficitGrant { tid, .. }
            | EventKind::DeficitForce { tid }
            | EventKind::CycleQuotaExpiry { tid } => Some(tid),
            // Machine-wide events name no thread.
            EventKind::L2Miss { .. }
            | EventKind::L2Fill { .. }
            | EventKind::RetireSample { .. } => None,
        };
        if let Some(tid) = tid {
            if tid.index() >= threads {
                return Err(format!(
                    "event {i}: thread {tid} out of range (header lists {threads} threads)"
                ));
            }
        }
    }
    check_events(&parsed.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::trace_jsonl;
    use soe_sim::SwitchReason;
    use std::collections::BTreeSet;

    fn ev(at: Cycle, kind: EventKind) -> TraceEvent {
        TraceEvent { at, kind }
    }

    fn valid_trace() -> Trace {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        Trace {
            events: vec![
                ev(0, EventKind::SwitchIn { tid: t0 }),
                ev(40, EventKind::L2Miss { line: 0x40 }),
                ev(
                    40,
                    EventKind::SwitchOut {
                        tid: t0,
                        reason: SwitchReason::MissEvent,
                    },
                ),
                ev(55, EventKind::SwitchIn { tid: t1 }),
                ev(
                    55,
                    EventKind::DeficitGrant {
                        tid: t1,
                        credited: 10.0,
                        balance: 10.0,
                        quota: 10.0,
                    },
                ),
                ev(100, EventKind::RetireSample { retired: 60 }),
                ev(200, EventKind::RetireSample { retired: 130 }),
                ev(340, EventKind::L2Fill { line: 0x40 }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn valid_trace_passes_and_summarizes() {
        let s = check_events(&valid_trace()).unwrap();
        assert_eq!(s.events, 8);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.by_kind.get("retire_sample"), Some(&2));
        assert_eq!(s.first_at, Some(0));
        assert_eq!(s.last_at, Some(340));
    }

    #[test]
    fn cycle_order_violation_is_reported() {
        let mut t = valid_trace();
        t.events.swap(5, 7);
        let err = check_events(&t).unwrap_err();
        assert!(err.contains("cycle order"), "{err}");
    }

    #[test]
    fn double_switch_in_is_reported() {
        let t0 = ThreadId::new(0);
        let t = Trace {
            events: vec![
                ev(0, EventKind::SwitchIn { tid: t0 }),
                ev(10, EventKind::SwitchIn { tid: t0 }),
            ],
            dropped: 0,
        };
        let err = check_events(&t).unwrap_err();
        assert!(err.contains("switched in twice"), "{err}");
    }

    #[test]
    fn leading_switch_out_is_tolerated() {
        // The thread occupying the core when recording starts produces a
        // switch-out with no recorded switch-in.
        let t0 = ThreadId::new(0);
        let t = Trace {
            events: vec![
                ev(
                    10,
                    EventKind::SwitchOut {
                        tid: t0,
                        reason: SwitchReason::MissEvent,
                    },
                ),
                ev(20, EventKind::SwitchIn { tid: t0 }),
            ],
            dropped: 0,
        };
        assert!(check_events(&t).is_ok());
    }

    #[test]
    fn unfilled_miss_is_reported_only_without_drops() {
        let mut t = Trace {
            events: vec![ev(40, EventKind::L2Miss { line: 0x80 })],
            dropped: 0,
        };
        assert!(check_events(&t).unwrap_err().contains("never filled"));
        // With drops, the matching fill may have been discarded: no error.
        t.dropped = 1;
        assert!(check_events(&t).is_ok());
    }

    #[test]
    fn orphan_fill_is_reported() {
        let t = Trace {
            events: vec![ev(40, EventKind::L2Fill { line: 0x80 })],
            dropped: 0,
        };
        assert!(check_events(&t)
            .unwrap_err()
            .contains("without an outstanding miss"));
    }

    #[test]
    fn decreasing_retire_sample_is_reported() {
        let t = Trace {
            events: vec![
                ev(100, EventKind::RetireSample { retired: 50 }),
                ev(200, EventKind::RetireSample { retired: 40 }),
            ],
            dropped: 0,
        };
        assert!(check_events(&t).unwrap_err().contains("decreased"));
    }

    /// One event of each of the nine kinds, with both `quota` forms of
    /// `EstimatorUpdate` and non-terminating floats.
    fn every_kind_trace() -> Trace {
        let t1 = ThreadId::new(1);
        let kinds = [
            EventKind::SwitchIn { tid: t1 },
            EventKind::SwitchOut {
                tid: t1,
                reason: SwitchReason::Forced,
            },
            EventKind::L2Miss { line: 0x1c0 },
            EventKind::L2Fill { line: 0x1c0 },
            EventKind::RetireSample { retired: 7 },
            EventKind::EstimatorUpdate {
                tid: t1,
                ipc_st: 1.0 / 3.0,
                quota: None,
            },
            EventKind::EstimatorUpdate {
                tid: t1,
                ipc_st: 2.5,
                quota: Some(2.0f64.sqrt()),
            },
            EventKind::DeficitGrant {
                tid: t1,
                credited: 0.1,
                balance: -0.25,
                quota: 12.0,
            },
            EventKind::DeficitForce { tid: t1 },
            EventKind::CycleQuotaExpiry { tid: t1 },
        ];
        Trace {
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| ev(10 * i as Cycle, kind))
                .collect(),
            dropped: 3,
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let every_kind = every_kind_trace();
        let labels: BTreeSet<&str> = every_kind
            .events
            .iter()
            .map(|e| kind_label(&e.kind))
            .collect();
        assert_eq!(labels.len(), 9, "the fixture covers every kind: {labels:?}");
        for trace in [valid_trace(), every_kind] {
            let text = trace_jsonl(&trace, &["gcc", "eon"]);
            let parsed = parse_jsonl(&text).unwrap();
            assert_eq!(parsed.threads, vec!["gcc", "eon"]);
            assert_eq!(parsed.trace, trace);
            assert_eq!(trace_jsonl(&parsed.trace, &["gcc", "eon"]), text);
        }
    }

    #[test]
    fn check_jsonl_accepts_the_exporter_output() {
        let text = trace_jsonl(&valid_trace(), &["gcc", "eon"]);
        let s = check_jsonl(&text).unwrap();
        assert_eq!(s.events, 8);
    }

    #[test]
    fn check_jsonl_rejects_corruption() {
        let good = trace_jsonl(&valid_trace(), &["gcc", "eon"]);
        // Header/body mismatch.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.pop();
        assert!(check_jsonl(&lines.join("\n"))
            .unwrap_err()
            .contains("declares"));
        // Unknown kind.
        let garbled = good.replace("retire_sample", "retire_sampel");
        assert!(check_jsonl(&garbled)
            .unwrap_err()
            .contains("unknown event kind"));
        // Thread id beyond the header's list.
        let bad_tid = good.replace("\"tid\":1", "\"tid\":7");
        assert!(check_jsonl(&bad_tid).unwrap_err().contains("out of range"));
        // Wrong schema.
        let bad_schema = good.replace("soe-trace/1", "soe-trace/9");
        assert!(check_jsonl(&bad_schema)
            .unwrap_err()
            .contains("unsupported schema"));
        // Empty input.
        assert!(check_jsonl("").is_err());
    }
}
