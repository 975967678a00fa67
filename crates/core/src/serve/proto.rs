//! The `soe-serve/v1` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! # Request
//!
//! One JSON object per line:
//!
//! ```json
//! {"proto":"soe-serve/v1","id":"alice-0001","client":"alice",
//!  "scenario":{"roster":["swim","eon"],"policy":"fairness","f":0.5,
//!              "warmup_cycles":20000,"measure_cycles":60000}}
//! ```
//!
//! `control` (optional, default `""`) may be `"shutdown"` to ask the
//! service to stop accepting and drain. Every field is validated by
//! [`Request::check`] / [`Scenario::check`]; a malformed line or a
//! failed validation produces a structured `error` response, never a
//! crash.
//!
//! # Response
//!
//! One JSON object per line, tagged by `type`:
//!
//! * `result` — the completed scenario (`singles` + `run`), exactly
//!   once per accepted request, byte-deterministic for a given request.
//! * `error` — the request was rejected (`code`:
//!   `parse`/`proto`/`field`/`duplicate`/`journal`/`internal`).
//! * `shed` — the client's queue was full; the request was refused
//!   *before* being accepted (backpressure, not failure).
//! * `quarantined` — the request was accepted but every simulation
//!   attempt failed; it is recorded in the failure manifest.
//! * `drain` — the final line before exit: totals for the session.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::metrics::{PairRun, SingleRun};

/// The protocol identifier every request must carry.
pub const PROTOCOL: &str = "soe-serve/v1";

/// Hard ceiling on warm-up or measurement cycles per request, so one
/// request cannot monopolize a worker for hours.
pub const MAX_CYCLES: u64 = 100_000_000;

/// Smallest admissible measurement window (shorter windows produce
/// meaningless IPC figures).
pub const MIN_MEASURE_CYCLES: u64 = 10_000;

/// Largest admissible roster (threads per simulated machine).
pub const MAX_ROSTER: usize = 8;

/// Why a request line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line is not well-formed JSON for the request schema.
    Parse(String),
    /// The `proto` field names a protocol this server does not speak.
    Proto {
        /// What the request claimed.
        got: String,
    },
    /// A field failed validation.
    Field {
        /// The offending field (dotted path, e.g. `scenario.roster`).
        field: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl RequestError {
    /// Stable machine-readable error code for the `error` response.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::Parse(_) => "parse",
            RequestError::Proto { .. } => "proto",
            RequestError::Field { .. } => "field",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Parse(msg) => write!(f, "malformed request: {msg}"),
            RequestError::Proto { got } => {
                write!(
                    f,
                    "unsupported protocol {got:?} (this server speaks {PROTOCOL})"
                )
            }
            RequestError::Field { field, reason } => write!(f, "invalid `{field}`: {reason}"),
        }
    }
}

/// What to simulate: a roster of benchmarks under a policy at a sizing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Benchmarks to co-schedule, one simulated thread each
    /// (2–[`MAX_ROSTER`] names from the SPEC-like profile set).
    pub roster: Vec<String>,
    /// `"fairness"` (the paper's mechanism) or `"timeslice"` (the
    /// Section 6 baseline).
    pub policy: String,
    /// Target fairness `F` in `[0, 1]` (ignored by `timeslice`).
    pub f: f64,
    /// Cycle quota for the `timeslice` policy (required nonzero there,
    /// ignored by `fairness`).
    #[serde(default)]
    pub timeslice_cycles: u64,
    /// Warm-up cycles (statistics discarded).
    pub warmup_cycles: u64,
    /// Measurement window in cycles.
    pub measure_cycles: u64,
}

impl Scenario {
    /// Validates every field, returning the first violation.
    ///
    /// # Errors
    ///
    /// [`RequestError::Field`] naming the offending field.
    pub fn check(&self) -> Result<(), RequestError> {
        let fail = |field: &str, reason: String| {
            Err(RequestError::Field {
                field: format!("scenario.{field}"),
                reason,
            })
        };
        // roster: bounded size, every name a known benchmark profile.
        if self.roster.len() < 2 || self.roster.len() > MAX_ROSTER {
            return fail(
                "roster",
                format!(
                    "need 2..={MAX_ROSTER} benchmarks, got {}",
                    self.roster.len()
                ),
            );
        }
        for name in &self.roster {
            if soe_workloads::spec::profile(name).is_none() {
                return fail("roster", format!("unknown benchmark {name:?}"));
            }
        }
        // policy: a known discipline.
        match self.policy.as_str() {
            "fairness" => {}
            "timeslice" => {
                // timeslice_cycles: the quota must be usable.
                if self.timeslice_cycles == 0 || self.timeslice_cycles > MAX_CYCLES {
                    return fail(
                        "timeslice_cycles",
                        format!(
                            "timeslice policy needs a quota in 1..={MAX_CYCLES}, got {}",
                            self.timeslice_cycles
                        ),
                    );
                }
            }
            other => {
                return fail(
                    "policy",
                    format!("unknown policy {other:?} (expected \"fairness\" or \"timeslice\")"),
                );
            }
        }
        // f: a meaningful fairness target.
        if !self.f.is_finite() || !(0.0..=1.0).contains(&self.f) {
            return fail(
                "f",
                format!("fairness target must be in [0, 1], got {}", self.f),
            );
        }
        // warmup_cycles / measure_cycles: bounded work per request.
        if self.warmup_cycles > MAX_CYCLES {
            return fail(
                "warmup_cycles",
                format!("at most {MAX_CYCLES} cycles, got {}", self.warmup_cycles),
            );
        }
        if self.measure_cycles < MIN_MEASURE_CYCLES || self.measure_cycles > MAX_CYCLES {
            return fail(
                "measure_cycles",
                format!(
                    "need {MIN_MEASURE_CYCLES}..={MAX_CYCLES} cycles, got {}",
                    self.measure_cycles
                ),
            );
        }
        Ok(())
    }

    /// The scheduling cost of this scenario in simulated thread-cycles
    /// — what the deficit-round-robin queue charges the client. It is an
    /// upper bound: it charges one reference run per thread, and a
    /// reference the process has already measured is not simulated
    /// again.
    pub fn cost(&self) -> f64 {
        (self.warmup_cycles + self.measure_cycles) as f64 * (self.roster.len() + 1) as f64
    }
}

/// A journal-safe token: non-empty, bounded, `[A-Za-z0-9._-]` only (no
/// spaces — journal keys are space-delimited — and no path separators).
fn check_token(field: &'static str, value: &str, max: usize) -> Result<(), RequestError> {
    if value.is_empty() || value.len() > max {
        return Err(RequestError::Field {
            field: field.to_string(),
            reason: format!("need 1..={max} characters, got {}", value.len()),
        });
    }
    if let Some(bad) = value
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(RequestError::Field {
            field: field.to_string(),
            reason: format!("character {bad:?} not allowed (use [A-Za-z0-9._-])"),
        });
    }
    Ok(())
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Must equal [`PROTOCOL`].
    pub proto: String,
    /// Client-chosen request id, unique per service lifetime
    /// (journal-safe token, ≤ 64 chars).
    pub id: String,
    /// The submitting client (journal-safe token, ≤ 32 chars) — the
    /// fair-queueing identity.
    pub client: String,
    /// `""` for a scenario request, `"shutdown"` to drain and exit.
    #[serde(default)]
    pub control: String,
    /// The scenario to run (required unless `control` is set).
    #[serde(default)]
    pub scenario: Option<Scenario>,
}

impl Request {
    /// Validates every field, returning the first violation.
    ///
    /// # Errors
    ///
    /// [`RequestError::Proto`] / [`RequestError::Field`].
    pub fn check(&self) -> Result<(), RequestError> {
        // proto: exact version match.
        if self.proto != PROTOCOL {
            return Err(RequestError::Proto {
                got: self.proto.clone(),
            });
        }
        // id / client: journal-safe tokens.
        check_token("id", &self.id, 64)?;
        check_token("client", &self.client, 32)?;
        // control: a known verb.
        match self.control.as_str() {
            "" => {
                // scenario: required for a plain request, and valid.
                match &self.scenario {
                    Some(sc) => sc.check()?,
                    None => {
                        return Err(RequestError::Field {
                            field: "scenario".to_string(),
                            reason: "required unless `control` is set".to_string(),
                        });
                    }
                }
            }
            "shutdown" => {}
            other => {
                return Err(RequestError::Field {
                    field: "control".to_string(),
                    reason: format!("unknown verb {other:?} (expected \"shutdown\")"),
                });
            }
        }
        Ok(())
    }
}

/// A refused request line: the error plus whatever identity could be
/// recovered from the line (empty strings when parsing failed outright).
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedLine {
    /// The request id, if the line parsed far enough to have one.
    pub id: String,
    /// The client, if the line parsed far enough to have one.
    pub client: String,
    /// Why it was refused.
    pub error: RequestError,
}

/// Parses and validates one request line.
///
/// # Errors
///
/// [`RejectedLine`] carrying the id/client when the JSON parsed but
/// validation failed, so the error response can still be correlated.
pub fn parse_request(line: &str) -> Result<Request, RejectedLine> {
    let req: Request = serde_json::from_str(line).map_err(|e| RejectedLine {
        id: String::new(),
        client: String::new(),
        error: RequestError::Parse(e.to_string()),
    })?;
    match req.check() {
        Ok(()) => Ok(req),
        Err(error) => Err(RejectedLine {
            id: req.id.clone(),
            client: req.client.clone(),
            error,
        }),
    }
}

/// A completed scenario: the per-benchmark single-thread references and
/// the multi-threaded run. Fully deterministic for a given [`Scenario`]
/// — it contains no wall-clock state, which is what makes journaled
/// replay byte-identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Single-thread reference runs, in roster order.
    pub singles: Vec<SingleRun>,
    /// The multi-threaded run under the requested policy.
    pub run: PairRun,
}

/// One response line (see the module docs for the shapes).
///
/// Serialization is hand-written so every line leads with
/// `{"proto":"soe-serve/v1","type":...}` — the externally-tagged derive
/// layout would bury the discriminant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The completed scenario for an accepted request.
    Result {
        /// Echoed request id.
        id: String,
        /// Echoed client.
        client: String,
        /// The [`ScenarioResult`] as a JSON value.
        result: Value,
    },
    /// The request was rejected before being accepted.
    Error {
        /// Echoed request id (may be empty for unparseable lines).
        id: String,
        /// Echoed client (may be empty for unparseable lines).
        client: String,
        /// Machine-readable code (`parse`, `proto`, `field`,
        /// `duplicate`, `journal`, `internal`).
        code: String,
        /// Human-readable explanation.
        message: String,
    },
    /// Backpressure: the client's queue was full.
    Shed {
        /// Echoed request id.
        id: String,
        /// Echoed client.
        client: String,
        /// The client's queue depth at refusal.
        depth: u64,
        /// The per-client queue bound.
        capacity: u64,
    },
    /// The request was accepted but every attempt failed.
    Quarantined {
        /// Echoed request id.
        id: String,
        /// Echoed client.
        client: String,
        /// Attempts made before giving up.
        attempts: u64,
        /// The last failure, human-readable.
        message: String,
    },
    /// The final line: session totals.
    Drain {
        /// Results computed and emitted this session.
        served: u64,
        /// Results re-emitted verbatim from the journal (`--resume`).
        replayed: u64,
        /// Requests refused with backpressure.
        shed: u64,
        /// Requests rejected by validation.
        rejected: u64,
        /// Requests dropped by injected `drop` faults.
        dropped: u64,
        /// Requests quarantined after exhausting retries.
        quarantined: u64,
        /// Accepted requests left journaled but unserved (replayable
        /// with `--resume` after a shutdown).
        pending: u64,
    },
}

impl Response {
    /// The `type` tag this response serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Result { .. } => "result",
            Response::Error { .. } => "error",
            Response::Shed { .. } => "shed",
            Response::Quarantined { .. } => "quarantined",
            Response::Drain { .. } => "drain",
        }
    }
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("proto".to_string(), s(PROTOCOL)),
            ("type".to_string(), s(self.kind())),
        ];
        match self {
            Response::Result { id, client, result } => {
                m.push(("id".to_string(), s(id)));
                m.push(("client".to_string(), s(client)));
                m.push(("result".to_string(), result.clone()));
            }
            Response::Error {
                id,
                client,
                code,
                message,
            } => {
                m.push(("id".to_string(), s(id)));
                m.push(("client".to_string(), s(client)));
                m.push(("code".to_string(), s(code)));
                m.push(("message".to_string(), s(message)));
            }
            Response::Shed {
                id,
                client,
                depth,
                capacity,
            } => {
                m.push(("id".to_string(), s(id)));
                m.push(("client".to_string(), s(client)));
                m.push(("depth".to_string(), Value::UInt(*depth)));
                m.push(("capacity".to_string(), Value::UInt(*capacity)));
            }
            Response::Quarantined {
                id,
                client,
                attempts,
                message,
            } => {
                m.push(("id".to_string(), s(id)));
                m.push(("client".to_string(), s(client)));
                m.push(("attempts".to_string(), Value::UInt(*attempts)));
                m.push(("message".to_string(), s(message)));
            }
            Response::Drain {
                served,
                replayed,
                shed,
                rejected,
                dropped,
                quarantined,
                pending,
            } => {
                m.push(("served".to_string(), Value::UInt(*served)));
                m.push(("replayed".to_string(), Value::UInt(*replayed)));
                m.push(("shed".to_string(), Value::UInt(*shed)));
                m.push(("rejected".to_string(), Value::UInt(*rejected)));
                m.push(("dropped".to_string(), Value::UInt(*dropped)));
                m.push(("quarantined".to_string(), Value::UInt(*quarantined)));
                m.push(("pending".to_string(), Value::UInt(*pending)));
            }
        }
        Value::Map(m)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v.as_map().ok_or_else(|| {
            DeError::custom(format!("expected a response object, got {}", v.kind()))
        })?;
        let proto: String = serde::read_field(fields, "proto")?;
        if proto != PROTOCOL {
            return Err(DeError::custom(format!(
                "unsupported response proto {proto:?}"
            )));
        }
        let kind: String = serde::read_field(fields, "type")?;
        match kind.as_str() {
            "result" => Ok(Response::Result {
                id: serde::read_field(fields, "id")?,
                client: serde::read_field(fields, "client")?,
                result: serde::read_field(fields, "result")?,
            }),
            "error" => Ok(Response::Error {
                id: serde::read_field(fields, "id")?,
                client: serde::read_field(fields, "client")?,
                code: serde::read_field(fields, "code")?,
                message: serde::read_field(fields, "message")?,
            }),
            "shed" => Ok(Response::Shed {
                id: serde::read_field(fields, "id")?,
                client: serde::read_field(fields, "client")?,
                depth: serde::read_field(fields, "depth")?,
                capacity: serde::read_field(fields, "capacity")?,
            }),
            "quarantined" => Ok(Response::Quarantined {
                id: serde::read_field(fields, "id")?,
                client: serde::read_field(fields, "client")?,
                attempts: serde::read_field(fields, "attempts")?,
                message: serde::read_field(fields, "message")?,
            }),
            "drain" => Ok(Response::Drain {
                served: serde::read_field(fields, "served")?,
                replayed: serde::read_field(fields, "replayed")?,
                shed: serde::read_field(fields, "shed")?,
                rejected: serde::read_field(fields, "rejected")?,
                dropped: serde::read_field(fields, "dropped")?,
                quarantined: serde::read_field(fields, "quarantined")?,
                pending: serde::read_field(fields, "pending")?,
            }),
            other => Err(DeError::custom(format!("unknown response type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario {
            roster: vec!["swim".to_string(), "eon".to_string()],
            policy: "fairness".to_string(),
            f: 0.5,
            timeslice_cycles: 0,
            warmup_cycles: 20_000,
            measure_cycles: 60_000,
        }
    }

    fn request() -> Request {
        Request {
            proto: PROTOCOL.to_string(),
            id: "alice-0001".to_string(),
            client: "alice".to_string(),
            control: String::new(),
            scenario: Some(scenario()),
        }
    }

    #[test]
    fn valid_request_round_trips() {
        let req = request();
        req.check().unwrap();
        let line = serde_json::to_string(&req).unwrap();
        let back = parse_request(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn malformed_line_is_a_parse_error() {
        let err = parse_request("{oops").unwrap_err();
        assert_eq!(err.error.code(), "parse");
        assert!(err.id.is_empty());
    }

    #[test]
    fn wrong_proto_is_rejected_with_identity() {
        let mut req = request();
        req.proto = "soe-serve/v9".to_string();
        let line = serde_json::to_string(&req).unwrap();
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.error.code(), "proto");
        assert_eq!(err.id, "alice-0001");
        assert_eq!(err.client, "alice");
    }

    #[test]
    fn field_violations_name_the_field() {
        let cases: Vec<(Request, &str)> = vec![
            (
                {
                    let mut r = request();
                    r.id = "has space".to_string();
                    r
                },
                "id",
            ),
            (
                {
                    let mut r = request();
                    r.client = String::new();
                    r
                },
                "client",
            ),
            (
                {
                    let mut r = request();
                    r.control = "explode".to_string();
                    r
                },
                "control",
            ),
            (
                {
                    let mut r = request();
                    r.scenario = None;
                    r
                },
                "scenario",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.roster = vec!["swim".to_string()];
                    }
                    r
                },
                "scenario.roster",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.roster = (0..20).map(|i| format!("bench{i}")).collect();
                    }
                    r
                },
                "scenario.roster",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.policy = "lottery".to_string();
                    }
                    r
                },
                "scenario.policy",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.f = 1.5;
                    }
                    r
                },
                "scenario.f",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.policy = "timeslice".to_string();
                        sc.timeslice_cycles = 0;
                    }
                    r
                },
                "scenario.timeslice_cycles",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.warmup_cycles = MAX_CYCLES + 1;
                    }
                    r
                },
                "scenario.warmup_cycles",
            ),
            (
                {
                    let mut r = request();
                    if let Some(sc) = r.scenario.as_mut() {
                        sc.measure_cycles = 5;
                    }
                    r
                },
                "scenario.measure_cycles",
            ),
        ];
        for (req, field) in cases {
            match req.check() {
                Err(RequestError::Field { field: got, .. }) => {
                    assert_eq!(got, field, "for {req:?}")
                }
                other => panic!("expected Field({field}) error, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_needs_no_scenario() {
        let mut req = request();
        req.control = "shutdown".to_string();
        req.scenario = None;
        req.check().unwrap();
    }

    #[test]
    fn responses_round_trip_with_leading_tags() {
        let responses = vec![
            Response::Error {
                id: "x".to_string(),
                client: "c".to_string(),
                code: "parse".to_string(),
                message: "bad".to_string(),
            },
            Response::Shed {
                id: "x".to_string(),
                client: "c".to_string(),
                depth: 4,
                capacity: 4,
            },
            Response::Quarantined {
                id: "x".to_string(),
                client: "c".to_string(),
                attempts: 3,
                message: "panicked".to_string(),
            },
            Response::Drain {
                served: 1,
                replayed: 2,
                shed: 3,
                rejected: 4,
                dropped: 5,
                quarantined: 6,
                pending: 7,
            },
        ];
        for r in responses {
            let line = serde_json::to_string(&r).unwrap();
            assert!(
                line.starts_with(&format!(
                    "{{\"proto\":\"{PROTOCOL}\",\"type\":\"{}\"",
                    r.kind()
                )),
                "{line}"
            );
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn scenario_cost_scales_with_size() {
        let sc = scenario();
        let mut big = sc.clone();
        big.roster.push("gcc".to_string());
        assert!(big.cost() > sc.cost());
        let mut long = sc.clone();
        long.measure_cycles *= 10;
        assert!(long.cost() > sc.cost());
    }
}
