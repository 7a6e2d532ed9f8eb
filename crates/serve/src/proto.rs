//! Typed requests and responses, encoded as JSON frame payloads.
//!
//! The wire format is deliberately boring: every payload is one JSON
//! object carrying a `schema` version, and every response says `ok`
//! up-front so clients can branch before looking at the rest. Encoding
//! reuses the bench crate's dependency-free [`Json`] writer/parser and
//! its [`Counters`] codec for the memo blocks — the server introduces no
//! new serialization machinery.

use wcet_bench::counters::Counters;
use wcet_bench::json::Json;
use wcet_bench::scenario::run::TaskBound;
use wcet_bench::scenario::{CellOutcome, FailureKind};
use wcet_core::MemoStats;

/// Highest protocol schema version this build speaks. Peers accept
/// `1..=PROTO_SCHEMA`; messages are stamped with the *minimum* schema
/// that can carry them (plain traffic still says `1`), so schema-1
/// peers keep interoperating until a schema-2-only feature — request
/// limits, `deadline`/`overloaded` errors — is actually on the wire.
pub const PROTO_SCHEMA: u64 = 2;

fn schema_gate(doc: &Json, who: &str) -> Result<u64, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"schema\" field in {who}"))?;
    if !(1..=PROTO_SCHEMA).contains(&schema) {
        return Err(format!(
            "unsupported schema version {schema} (this peer speaks 1..={PROTO_SCHEMA})"
        ));
    }
    Ok(schema)
}

/// Optional per-request resource limits (schema 2). The server hands
/// them to the scenario runner as per-cell budgets plus a run deadline,
/// so an oversized or poisoned request stops with a typed
/// [`ErrorKind::Budget`] / [`ErrorKind::Deadline`] error instead of
/// pinning a worker. All-`None` limits travel as schema 1 — nothing is
/// emitted on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// Wall-clock limit, milliseconds: each cell's analysis gets at most
    /// this long, and the run hands out no new chunk of cells once it
    /// has elapsed since the submission started.
    pub deadline_ms: Option<u64>,
    /// Simplex pivot budget of each cell, across its IPET solves.
    pub budget_pivots: Option<u64>,
    /// Worklist block-evaluation budget of each cell, across its
    /// fixpoint runs.
    pub budget_evals: Option<u64>,
}

impl RequestLimits {
    /// True when no limit is set (the request can travel as schema 1).
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == RequestLimits::default()
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze a single-cell scenario spec (a spec that expands to more
    /// than one cell is a protocol error — use [`Request::SubmitMatrix`]).
    SubmitScenario {
        /// The scenario spec text, as a `.scn` file body.
        spec: String,
        /// Optional per-request resource limits.
        limits: RequestLimits,
    },
    /// Analyze every cell of a (possibly multi-cell) scenario matrix.
    SubmitMatrix {
        /// The scenario spec text, as a `.scn` file body.
        spec: String,
        /// Optional per-request resource limits.
        limits: RequestLimits,
    },
    /// Report cumulative server statistics.
    Stats,
    /// Flush bounded cells to the disk memo and stop the server.
    Shutdown,
}

impl Request {
    /// The `req` label this request travels under.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Request::SubmitScenario { .. } => "submit_scenario",
            Request::SubmitMatrix { .. } => "submit_matrix",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// The minimum schema version that can carry this request: `1`
    /// unless per-request limits are set.
    #[must_use]
    pub fn min_schema(&self) -> u64 {
        match self {
            Request::SubmitScenario { limits, .. } | Request::SubmitMatrix { limits, .. }
                if !limits.is_none() =>
            {
                2
            }
            _ => 1,
        }
    }

    /// Encodes the request as a frame payload, stamped with
    /// [`Request::min_schema`] so schema-1 servers still parse plain
    /// traffic.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut pairs = vec![
            ("schema", Json::from(self.min_schema())),
            ("req", Json::str(self.label())),
        ];
        match self {
            Request::SubmitScenario { spec, limits } | Request::SubmitMatrix { spec, limits } => {
                pairs.push(("spec", Json::str(spec.clone())));
                if let Some(ms) = limits.deadline_ms {
                    pairs.push(("deadline_ms", Json::from(ms)));
                }
                if let Some(p) = limits.budget_pivots {
                    pairs.push(("budget_pivots", Json::from(p)));
                }
                if let Some(e) = limits.budget_evals {
                    pairs.push(("budget_evals", Json::from(e)));
                }
            }
            Request::Stats | Request::Shutdown => {}
        }
        Json::obj(pairs).to_string()
    }

    /// Decodes a frame payload into a request. Schema 1 and 2 documents
    /// both parse; limit fields are optional and default to unset.
    ///
    /// # Errors
    ///
    /// A human-readable protocol diagnostic: malformed JSON, a missing
    /// or mistyped field, an unsupported schema version, or an unknown
    /// `req` label.
    pub fn decode(payload: &str) -> Result<Request, String> {
        let doc = Json::parse(payload).map_err(|e| format!("malformed JSON: {e}"))?;
        schema_gate(&doc, "request")?;
        let req = doc
            .get("req")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing or non-string \"req\" field".to_string())?;
        let spec = || {
            doc.get("spec")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("request {req:?} needs a string \"spec\" field"))
        };
        let limits = RequestLimits {
            deadline_ms: doc.get("deadline_ms").and_then(Json::as_u64),
            budget_pivots: doc.get("budget_pivots").and_then(Json::as_u64),
            budget_evals: doc.get("budget_evals").and_then(Json::as_u64),
        };
        match req {
            "submit_scenario" => Ok(Request::SubmitScenario {
                spec: spec()?,
                limits,
            }),
            "submit_matrix" => Ok(Request::SubmitMatrix {
                spec: spec()?,
                limits,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request {other:?}")),
        }
    }
}

/// What class of failure an error response reports. `Panic`, `Budget`
/// and `Deadline` mirror the scenario runner's [`FailureKind`] ladder;
/// `Protocol` covers everything wrong with the request itself;
/// `Deadline` and `Overloaded` are the schema-2 overload ladder — both
/// are *recoverable*: the request was refused or cut short, the server
/// is healthy, and a retry (after `retry_after_ms`, for `Overloaded`) is
/// the correct client response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was malformed: bad frame, bad JSON, bad schema, bad
    /// spec shape.
    Protocol,
    /// The analysis panicked; the cell is reported, the server survives.
    Panic,
    /// The analysis exhausted a resource budget.
    Budget,
    /// The analysis exhausted its per-request wall-clock limit
    /// (schema 2).
    Deadline,
    /// The server refused admission: its pending queue and in-flight
    /// slots were full (schema 2). Never a silent drop — the connection
    /// gets this frame before it closes.
    Overloaded {
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
}

impl From<FailureKind> for ErrorKind {
    fn from(kind: FailureKind) -> ErrorKind {
        match kind {
            FailureKind::Panic => ErrorKind::Panic,
            FailureKind::Budget => ErrorKind::Budget,
            FailureKind::Deadline => ErrorKind::Deadline,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Panic => "panic",
            ErrorKind::Budget => "budget",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Overloaded { .. } => "overloaded",
        })
    }
}

impl ErrorKind {
    /// The minimum schema version that can carry this kind on the wire.
    #[must_use]
    pub fn min_schema(&self) -> u64 {
        match self {
            ErrorKind::Protocol | ErrorKind::Panic | ErrorKind::Budget => 1,
            ErrorKind::Deadline | ErrorKind::Overloaded { .. } => 2,
        }
    }

    fn from_label(label: &str, retry_after_ms: u64) -> Option<ErrorKind> {
        match label {
            "protocol" => Some(ErrorKind::Protocol),
            "panic" => Some(ErrorKind::Panic),
            "budget" => Some(ErrorKind::Budget),
            "deadline" => Some(ErrorKind::Deadline),
            "overloaded" => Some(ErrorKind::Overloaded { retry_after_ms }),
            _ => None,
        }
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One task's served bound (or its per-task analysis error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundRow {
    /// Program name.
    pub task: String,
    /// Core index.
    pub core: u64,
    /// Hardware-thread index.
    pub thread: u64,
    /// Mode label.
    pub mode: String,
    /// The WCET bound in cycles, or the analysis error.
    pub outcome: Result<u64, String>,
}

/// One analyzed cell: its fingerprint and every task bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBounds {
    /// Cell name (`matrix#ordinal`).
    pub cell: String,
    /// Semantic fingerprint, the disk-memo key.
    pub fingerprint: (u64, u64),
    /// Per-task bounds (empty when the cell failed to build).
    pub rows: Vec<BoundRow>,
    /// Build or supervision failure, when the cell has one.
    pub error: Option<String>,
}

impl CellBounds {
    /// Projects a [`CellOutcome`] down to what travels on the wire: the
    /// bounds, not the reports.
    #[must_use]
    pub fn of(cell: &CellOutcome) -> CellBounds {
        CellBounds {
            cell: cell.scenario.name.clone(),
            fingerprint: cell.fingerprint,
            rows: cell
                .rows
                .iter()
                .map(|r| BoundRow {
                    task: r.task.clone(),
                    core: r.core as u64,
                    thread: r.thread as u64,
                    mode: r.mode.clone(),
                    outcome: r
                        .outcome
                        .as_ref()
                        .map(|b: &TaskBound| b.wcet)
                        .map_err(String::clone),
                })
                .collect(),
            error: cell.error.clone().or_else(|| {
                cell.failure
                    .as_ref()
                    .map(|f| format!("{}: {}", f.kind, f.message))
            }),
        }
    }
}

/// Per-request effort deltas plus the cumulative memo view.
///
/// Deltas are differences of shared counters taken around the request;
/// under concurrent submissions they attribute overlapping work to
/// whichever request reads last, so treat them as effort indicators, not
/// an exact accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Memo counter deltas attributable to this request.
    pub memo: MemoStats,
    /// Cumulative memo counters after this request.
    pub memo_total: MemoStats,
    /// IPET solves that reused a warm basis, this request.
    pub solver_warm_hits: u64,
    /// IPET solves that ran cold, this request.
    pub solver_cold_solves: u64,
    /// Simplex pivots spent, this request.
    pub solver_pivots: u64,
    /// Worklist block evaluations spent, this request.
    pub fixpoint_evaluated: u64,
}

/// The response to a submission: every cell's bounds plus effort stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsResponse {
    /// Matrix name from the spec.
    pub matrix: String,
    /// Unique cells, in expansion order.
    pub cells: Vec<CellBounds>,
    /// Cells dropped as fingerprint duplicates.
    pub duplicates: u64,
    /// Cells answered from the durable disk memo without analysis.
    pub disk_hits: u64,
    /// Effort accounting for this request.
    pub stats: RequestStats,
}

/// The response to a [`Request::Stats`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsResponse {
    /// Requests handled so far (all kinds).
    pub requests: u64,
    /// Cumulative memo counters.
    pub memo: MemoStats,
    /// Entries currently resident across the hot memo tables.
    pub memo_entries: u64,
    /// Per-table entry budget, if the memo is bounded.
    pub memo_budget: Option<u64>,
    /// Cells answered from the durable disk memo, lifetime.
    pub disk_hits: u64,
    /// IPET solves that reused a warm basis, lifetime.
    pub solver_warm_hits: u64,
    /// IPET solves that ran cold, lifetime.
    pub solver_cold_solves: u64,
    /// Connections admitted and not yet closed, right now (schema-2
    /// counter; zero when absent on the wire).
    pub queue_depth: u64,
    /// Connections refused with [`ErrorKind::Overloaded`], lifetime.
    pub shed: u64,
    /// Submissions that died on their wall-clock deadline, lifetime.
    pub deadline_errors: u64,
    /// Submissions that died on a pivot/eval budget, lifetime.
    pub budget_errors: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Bounds for a submission.
    Bounds(BoundsResponse),
    /// Cumulative statistics.
    Stats(StatsResponse),
    /// The server accepted a shutdown; `flushed` counts the hot cells
    /// persisted to the disk memo on the way out.
    Shutdown {
        /// Bounded cells flushed to the disk memo.
        flushed: u64,
    },
    /// A typed failure.
    Error(ServeError),
}

fn fingerprint_json(fp: (u64, u64)) -> Json {
    Json::Arr(vec![Json::from(fp.0), Json::from(fp.1)])
}

fn fingerprint_from(j: &Json) -> Option<(u64, u64)> {
    let arr = j.as_arr()?;
    match arr {
        [hi, lo] => Some((hi.as_u64()?, lo.as_u64()?)),
        _ => None,
    }
}

fn row_json(row: &BoundRow) -> Json {
    let mut pairs = vec![
        ("task", Json::str(row.task.clone())),
        ("core", Json::from(row.core)),
        ("thread", Json::from(row.thread)),
        ("mode", Json::str(row.mode.clone())),
    ];
    match &row.outcome {
        Ok(wcet) => pairs.push(("wcet", Json::from(*wcet))),
        Err(e) => pairs.push(("error", Json::str(e.clone()))),
    }
    Json::obj(pairs)
}

fn row_from(j: &Json) -> Option<BoundRow> {
    Some(BoundRow {
        task: j.get("task").and_then(Json::as_str)?.to_string(),
        core: j.get("core").and_then(Json::as_u64)?,
        thread: j.get("thread").and_then(Json::as_u64)?,
        mode: j.get("mode").and_then(Json::as_str)?.to_string(),
        outcome: match j.get("wcet").and_then(Json::as_u64) {
            Some(wcet) => Ok(wcet),
            None => Err(j.get("error").and_then(Json::as_str)?.to_string()),
        },
    })
}

fn cell_json(cell: &CellBounds) -> Json {
    Json::obj([
        ("cell", Json::str(cell.cell.clone())),
        ("fp", fingerprint_json(cell.fingerprint)),
        ("rows", Json::Arr(cell.rows.iter().map(row_json).collect())),
        (
            "error",
            cell.error
                .as_ref()
                .map_or(Json::Null, |e| Json::str(e.clone())),
        ),
    ])
}

fn cell_from(j: &Json) -> Option<CellBounds> {
    Some(CellBounds {
        cell: j.get("cell").and_then(Json::as_str)?.to_string(),
        fingerprint: j.get("fp").and_then(fingerprint_from)?,
        rows: j
            .get("rows")
            .and_then(Json::as_arr)?
            .iter()
            .map(row_from)
            .collect::<Option<Vec<_>>>()?,
        error: j.get("error").and_then(Json::as_str).map(str::to_string),
    })
}

fn request_stats_json(s: &RequestStats) -> Json {
    Json::obj([
        ("memo", s.memo.to_json()),
        ("memo_total", s.memo_total.to_json()),
        ("solver_warm_hits", Json::from(s.solver_warm_hits)),
        ("solver_cold_solves", Json::from(s.solver_cold_solves)),
        ("solver_pivots", Json::from(s.solver_pivots)),
        ("fixpoint_evaluated", Json::from(s.fixpoint_evaluated)),
    ])
}

fn request_stats_from(j: &Json) -> Option<RequestStats> {
    Some(RequestStats {
        memo: MemoStats::from_json(j.get("memo")?)?,
        memo_total: MemoStats::from_json(j.get("memo_total")?)?,
        solver_warm_hits: j.get("solver_warm_hits").and_then(Json::as_u64)?,
        solver_cold_solves: j.get("solver_cold_solves").and_then(Json::as_u64)?,
        solver_pivots: j.get("solver_pivots").and_then(Json::as_u64)?,
        fixpoint_evaluated: j.get("fixpoint_evaluated").and_then(Json::as_u64)?,
    })
}

impl Response {
    /// The minimum schema version that can carry this response: `1`
    /// unless the error kind is schema-2-only.
    #[must_use]
    pub fn min_schema(&self) -> u64 {
        match self {
            Response::Error(e) => e.kind.min_schema(),
            _ => 1,
        }
    }

    /// Encodes the response as a frame payload, stamped with
    /// [`Response::min_schema`]. The schema-2 stats counters are
    /// *additive* — they always travel, schema-1 clients simply ignore
    /// the unknown fields — so a plain stats response still says
    /// schema 1.
    #[must_use]
    pub fn encode(&self) -> String {
        let doc = match self {
            Response::Bounds(b) => Json::obj([
                ("schema", Json::from(self.min_schema())),
                ("ok", Json::from(true)),
                ("kind", Json::str("bounds")),
                ("matrix", Json::str(b.matrix.clone())),
                ("cells", Json::Arr(b.cells.iter().map(cell_json).collect())),
                ("duplicates", Json::from(b.duplicates)),
                ("disk_hits", Json::from(b.disk_hits)),
                ("stats", request_stats_json(&b.stats)),
            ]),
            Response::Stats(s) => Json::obj([
                ("schema", Json::from(self.min_schema())),
                ("ok", Json::from(true)),
                ("kind", Json::str("stats")),
                ("requests", Json::from(s.requests)),
                ("memo", s.memo.to_json()),
                ("memo_entries", Json::from(s.memo_entries)),
                ("memo_budget", s.memo_budget.map_or(Json::Null, Json::from)),
                ("disk_hits", Json::from(s.disk_hits)),
                ("solver_warm_hits", Json::from(s.solver_warm_hits)),
                ("solver_cold_solves", Json::from(s.solver_cold_solves)),
                ("queue_depth", Json::from(s.queue_depth)),
                ("shed", Json::from(s.shed)),
                ("deadline_errors", Json::from(s.deadline_errors)),
                ("budget_errors", Json::from(s.budget_errors)),
            ]),
            Response::Shutdown { flushed } => Json::obj([
                ("schema", Json::from(self.min_schema())),
                ("ok", Json::from(true)),
                ("kind", Json::str("shutdown")),
                ("flushed", Json::from(*flushed)),
            ]),
            Response::Error(e) => {
                let mut error_pairs = vec![
                    ("kind", Json::str(e.kind.to_string())),
                    ("message", Json::str(e.message.clone())),
                ];
                if let ErrorKind::Overloaded { retry_after_ms } = e.kind {
                    error_pairs.push(("retry_after_ms", Json::from(retry_after_ms)));
                }
                Json::obj([
                    ("schema", Json::from(self.min_schema())),
                    ("ok", Json::from(false)),
                    ("error", Json::obj(error_pairs)),
                ])
            }
        };
        doc.to_string()
    }

    /// Decodes a frame payload into a response. Schema 1 and 2 both
    /// parse; the schema-2 stats counters default to zero when absent.
    ///
    /// # Errors
    ///
    /// A human-readable diagnostic when the payload is not a
    /// well-formed response document.
    pub fn decode(payload: &str) -> Result<Response, String> {
        let doc = Json::parse(payload).map_err(|e| format!("malformed JSON: {e}"))?;
        schema_gate(&doc, "response")?;
        let ok = match doc.get("ok") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing \"ok\" field".to_string()),
        };
        if !ok {
            let err = doc
                .get("error")
                .ok_or_else(|| "error response without \"error\" body".to_string())?;
            let retry_after_ms = err
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .and_then(|l| ErrorKind::from_label(l, retry_after_ms))
                .ok_or_else(|| "error response with unknown kind".to_string())?;
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            return Ok(Response::Error(ServeError { kind, message }));
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "ok response without \"kind\"".to_string())?;
        let bad = |what: &str| format!("bounds response with a malformed {what}");
        match kind {
            "bounds" => Ok(Response::Bounds(BoundsResponse {
                matrix: doc
                    .get("matrix")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("matrix"))?
                    .to_string(),
                cells: doc
                    .get("cells")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("cell list"))?
                    .iter()
                    .map(cell_from)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("cell"))?,
                duplicates: doc
                    .get("duplicates")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("duplicate count"))?,
                disk_hits: doc
                    .get("disk_hits")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("disk-hit count"))?,
                stats: doc
                    .get("stats")
                    .and_then(request_stats_from)
                    .ok_or_else(|| bad("stats block"))?,
            })),
            "stats" => {
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("stats response missing {k:?}"))
                };
                let additive = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                Ok(Response::Stats(StatsResponse {
                    requests: field("requests")?,
                    memo: doc
                        .get("memo")
                        .and_then(MemoStats::from_json)
                        .ok_or_else(|| "stats response with a malformed memo".to_string())?,
                    memo_entries: field("memo_entries")?,
                    memo_budget: doc.get("memo_budget").and_then(Json::as_u64),
                    disk_hits: field("disk_hits")?,
                    solver_warm_hits: field("solver_warm_hits")?,
                    solver_cold_solves: field("solver_cold_solves")?,
                    queue_depth: additive("queue_depth"),
                    shed: additive("shed"),
                    deadline_errors: additive("deadline_errors"),
                    budget_errors: additive("budget_errors"),
                }))
            }
            "shutdown" => Ok(Response::Shutdown {
                flushed: doc
                    .get("flushed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "shutdown response without \"flushed\"".to_string())?,
            }),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::SubmitScenario {
                spec: "name = x\ncores = 2\n".to_string(),
                limits: RequestLimits::default(),
            },
            Request::SubmitMatrix {
                spec: "name = m\ncores = [2, 4]\n".to_string(),
                limits: RequestLimits::default(),
            },
            Request::SubmitMatrix {
                spec: "name = m\ncores = 2\n".to_string(),
                limits: RequestLimits {
                    deadline_ms: Some(2_000),
                    budget_pivots: Some(1_000_000),
                    budget_evals: None,
                },
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let decoded = Request::decode(&req.encode()).expect("decodes");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn plain_requests_stay_schema_1_and_limits_bump_to_2() {
        let plain = Request::SubmitScenario {
            spec: "name = x\n".to_string(),
            limits: RequestLimits::default(),
        };
        assert_eq!(plain.min_schema(), 1);
        assert!(plain.encode().contains("\"schema\":1"));
        let limited = Request::SubmitScenario {
            spec: "name = x\n".to_string(),
            limits: RequestLimits {
                deadline_ms: Some(500),
                ..RequestLimits::default()
            },
        };
        assert_eq!(limited.min_schema(), 2);
        assert!(limited.encode().contains("\"schema\":2"));
        assert!(limited.encode().contains("\"deadline_ms\":500"));
        // A hand-written schema-1 document (what an old client sends)
        // still parses, with no limits armed.
        let legacy = "{\"schema\": 1, \"req\": \"submit_matrix\", \"spec\": \"name = m\\n\"}";
        match Request::decode(legacy).expect("legacy parses") {
            Request::SubmitMatrix { limits, .. } => assert!(limits.is_none()),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn request_decode_rejects_bad_documents() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{\"req\": \"stats\"}").is_err());
        let wrong_schema = "{\"schema\": 99, \"req\": \"stats\"}";
        let err = Request::decode(wrong_schema).expect_err("schema gate");
        assert!(err.contains("schema version 99"), "{err}");
        let unknown = "{\"schema\": 1, \"req\": \"reboot\"}";
        assert!(Request::decode(unknown).is_err());
        let missing_spec = "{\"schema\": 1, \"req\": \"submit_matrix\"}";
        assert!(Request::decode(missing_spec).is_err());
    }

    fn bounds_fixture() -> Response {
        Response::Bounds(BoundsResponse {
            matrix: "example".to_string(),
            cells: vec![CellBounds {
                cell: "example#0".to_string(),
                fingerprint: (u64::MAX, 7),
                rows: vec![
                    BoundRow {
                        task: "fir".to_string(),
                        core: 0,
                        thread: 0,
                        mode: "isolated".to_string(),
                        outcome: Ok(12_345),
                    },
                    BoundRow {
                        task: "crc".to_string(),
                        core: 1,
                        thread: 0,
                        mode: "isolated".to_string(),
                        outcome: Err("unplaceable".to_string()),
                    },
                ],
                error: None,
            }],
            duplicates: 2,
            disk_hits: 1,
            stats: RequestStats {
                memo: MemoStats {
                    hierarchy_hits: 3,
                    bound_misses: 1,
                    ..MemoStats::default()
                },
                memo_total: MemoStats {
                    hierarchy_hits: 9,
                    ..MemoStats::default()
                },
                solver_warm_hits: 4,
                solver_cold_solves: 2,
                solver_pivots: 100,
                fixpoint_evaluated: 5_000,
            },
        })
    }

    fn stats_fixture() -> Response {
        Response::Stats(StatsResponse {
            requests: 3,
            memo: MemoStats {
                l1_hits: 6,
                neighbor_hits: 2,
                ..MemoStats::default()
            },
            memo_entries: 12,
            memo_budget: Some(64),
            disk_hits: 0,
            solver_warm_hits: 1,
            solver_cold_solves: 2,
            queue_depth: 4,
            shed: 9,
            deadline_errors: 1,
            budget_errors: 2,
        })
    }

    #[test]
    fn responses_round_trip() {
        let (bounds, stats) = (bounds_fixture(), stats_fixture());
        let shutdown = Response::Shutdown { flushed: 24 };
        let error = Response::Error(ServeError {
            kind: ErrorKind::Protocol,
            message: "zero-length frame".to_string(),
        });
        let deadline = Response::Error(ServeError {
            kind: ErrorKind::Deadline,
            message: "cell budget exceeded: over 500 cell wall-clock ms".to_string(),
        });
        let overloaded = Response::Error(ServeError {
            kind: ErrorKind::Overloaded { retry_after_ms: 75 },
            message: "server at capacity".to_string(),
        });
        for resp in [bounds, stats, shutdown, error, deadline, overloaded] {
            let decoded = Response::decode(&resp.encode()).expect("decodes");
            assert_eq!(decoded, resp);
        }
    }

    /// The round trip above still passes if encode and decode rename a
    /// key together; the frame bytes pinned here do not.
    #[test]
    fn frame_bytes_are_pinned() {
        const BOUNDS: &str = r#"{"cells":[{"cell":"example#0","error":null,"fp":[18446744073709551615,7],"rows":[{"core":0,"mode":"isolated","task":"fir","thread":0,"wcet":12345},{"core":1,"error":"unplaceable","mode":"isolated","task":"crc","thread":0}]}],"disk_hits":1,"duplicates":2,"kind":"bounds","matrix":"example","ok":true,"schema":1,"stats":{"fixpoint_evaluated":5000,"memo":{"bound_evictions":0,"bound_hits":0,"bound_misses":1,"cost_evictions":0,"cost_hits":0,"cost_misses":0,"hierarchy_evictions":0,"hierarchy_hits":3,"hierarchy_misses":0,"l1_evictions":0,"l1_hits":0,"l1_misses":0,"neighbor_hits":0},"memo_total":{"bound_evictions":0,"bound_hits":0,"bound_misses":0,"cost_evictions":0,"cost_hits":0,"cost_misses":0,"hierarchy_evictions":0,"hierarchy_hits":9,"hierarchy_misses":0,"l1_evictions":0,"l1_hits":0,"l1_misses":0,"neighbor_hits":0},"solver_cold_solves":2,"solver_pivots":100,"solver_warm_hits":4}}"#;
        const STATS: &str = r#"{"budget_errors":2,"deadline_errors":1,"disk_hits":0,"kind":"stats","memo":{"bound_evictions":0,"bound_hits":0,"bound_misses":0,"cost_evictions":0,"cost_hits":0,"cost_misses":0,"hierarchy_evictions":0,"hierarchy_hits":0,"hierarchy_misses":0,"l1_evictions":0,"l1_hits":6,"l1_misses":0,"neighbor_hits":2},"memo_budget":64,"memo_entries":12,"ok":true,"queue_depth":4,"requests":3,"schema":1,"shed":9,"solver_cold_solves":2,"solver_warm_hits":1}"#;
        for (resp, frame) in [(bounds_fixture(), BOUNDS), (stats_fixture(), STATS)] {
            assert_eq!(resp.encode(), frame);
            assert_eq!(Response::decode(frame).expect("decodes"), resp);
        }
    }

    #[test]
    fn overload_errors_stamp_schema_2_and_carry_retry_after() {
        let resp = Response::Error(ServeError {
            kind: ErrorKind::Overloaded { retry_after_ms: 75 },
            message: "server at capacity".to_string(),
        });
        assert_eq!(resp.min_schema(), 2);
        assert!(resp.encode().contains("\"schema\":2"));
        assert!(resp.encode().contains("\"retry_after_ms\":75"));
        match Response::decode(&resp.encode()).expect("decodes") {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Overloaded { retry_after_ms: 75 });
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Plain errors still travel as schema 1 — old clients parse them.
        let plain = Response::Error(ServeError {
            kind: ErrorKind::Budget,
            message: "over budget".to_string(),
        });
        assert!(plain.encode().contains("\"schema\":1"));
    }

    #[test]
    fn schema_1_stats_documents_default_the_new_counters_to_zero() {
        // A schema-1 server's stats response has none of the overload
        // counters; the schema-2 client must parse it with zeros.
        let mut resp = Response::Stats(StatsResponse {
            requests: 3,
            memo: MemoStats::default(),
            memo_entries: 0,
            memo_budget: None,
            disk_hits: 0,
            solver_warm_hits: 0,
            solver_cold_solves: 0,
            queue_depth: 7,
            shed: 7,
            deadline_errors: 7,
            budget_errors: 7,
        });
        let legacy = resp
            .encode()
            .replace("\"queue_depth\":7,", "")
            .replace("\"shed\":7,", "")
            .replace("\"deadline_errors\":7,", "")
            .replace("\"budget_errors\":7,", "");
        if let Response::Stats(s) = &mut resp {
            s.queue_depth = 0;
            s.shed = 0;
            s.deadline_errors = 0;
            s.budget_errors = 0;
        }
        assert_eq!(Response::decode(&legacy).expect("legacy parses"), resp);
    }

    #[test]
    fn unbounded_budget_travels_as_null() {
        let resp = Response::Stats(StatsResponse {
            requests: 0,
            memo: MemoStats::default(),
            memo_entries: 0,
            memo_budget: None,
            disk_hits: 0,
            solver_warm_hits: 0,
            solver_cold_solves: 0,
            queue_depth: 0,
            shed: 0,
            deadline_errors: 0,
            budget_errors: 0,
        });
        assert!(resp.encode().contains("\"memo_budget\":null"));
        assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
    }

    #[test]
    fn error_kinds_mirror_the_failure_ladder() {
        assert_eq!(ErrorKind::from(FailureKind::Panic), ErrorKind::Panic);
        assert_eq!(ErrorKind::from(FailureKind::Budget), ErrorKind::Budget);
        assert_eq!(ErrorKind::from(FailureKind::Deadline), ErrorKind::Deadline);
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::Panic,
            ErrorKind::Budget,
            ErrorKind::Deadline,
            ErrorKind::Overloaded { retry_after_ms: 9 },
        ] {
            assert_eq!(ErrorKind::from_label(&kind.to_string(), 9), Some(kind));
        }
    }
}
