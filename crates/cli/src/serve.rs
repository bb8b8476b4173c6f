//! `aa-solve serve` — a deadline-aware LDJSON request loop, and the
//! front-end every serving mode shares.
//!
//! Requests arrive one JSON object per line on stdin; responses leave
//! one JSON object per line on stdout, in completion order (clients
//! correlate by echoed `id`). `serve`, `serve --shards N` and `serve
//! --fleet N` differ only in how their N workers run — shard threads or
//! worker processes, the supervisor's two links (see [`crate::fleet`]).
//! What a client sees comes from one implementation:
//!
//! * the **ingress loop** (`ingress`) reads lines bounded by
//!   `--max-line-bytes` (an oversized line is answered `class:"parse"`
//!   instead of growing the buffer), checks their syntax with one
//!   tree-free [`serde_json::scan`], answers control lines the mode
//!   rejects with `class:"control"`, decodes the envelope (`id`,
//!   `stream`, `deadline_ms`), and hands the request — its problem
//!   still the client's raw JSON text — to the supervisor;
//! * the **supervisor** ([`crate::fleet`]) routes, tracks and replays
//!   each request over its links, and answers it exactly once;
//! * the **worker** decodes the problem text once, in its job's build
//!   inside [`aa_core::StreamSolver::answer`]: [`build_request`] decodes
//!   and builds it against the stream's previous threads and the text
//!   that built them, carrying each thread whose bytes did not change
//!   unread (a worker process's reader passes the text on from the
//!   frame undecoded, once it has crossed the pipe verbatim), and the
//!   worker answers every request: a refused parse or build, an expired
//!   deadline, or a solve — a panicking one answering
//!   `class:"solve_panic"`;
//! * the **answer path** (`Answers`) turns every outcome — solved,
//!   failed with a class, expired in a queue, or shed at the door with
//!   `{"status":"overloaded","retry_after_ms":…}` — into its response
//!   line, written in one write, and all of its `aa_serve_*`
//!   accounting. A solve arrives as bytes: its members from `"tier"`
//!   through `allocation` were written once, as JSON text, where it was
//!   solved (a worker process's frame, relayed undecoded, or a shard
//!   thread's buffer), and the `ok` line splices them in as they are
//!   ([`crate::proto`] has the relay).
//!
//! All accounting flows through an [`aa_obs::Registry`] (the
//! `aa_serve_*` family, plus the supervisor's `aa_fleet_*` series), so a
//! live `--metrics-addr` scrape sees the same numbers the shutdown dump
//! reports. [`ServeCounters`] is a snapshot of that registry taken at
//! EOF.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aa_core::fleet::{
    Link, DEFAULT_DRAIN_TIMEOUT_MS, DEFAULT_HEARTBEAT_INTERVAL_MS, DEFAULT_HEARTBEAT_MISS_LIMIT,
    DEFAULT_MAX_RETRIES, DEFAULT_SLO_P99_MS,
};
use aa_core::tiered::Tier;
use aa_core::{Built, Previous, Problem, ThreadText};
use aa_sim::ProcessChaosPlan;
use aa_utility::{DynUtility, UtilitySpec};
use serde::{Deserialize, Serialize};

use crate::proto::Body;
use crate::{build_problem_from, CliError, ProblemFile};

/// One request line: an optional correlation `id` (echoed back
/// verbatim), an optional stream key for warm-state locality, an
/// optional per-request deadline, and the problem.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Client correlation token; any JSON value, echoed in the response.
    pub id: serde_json::Value,
    /// Warm-state routing key: requests sharing a `stream` go to the
    /// same shard and reuse its incremental solver state. Omitted →
    /// cold queue (any shard).
    pub stream: Option<u64>,
    /// Wall-clock deadline for this request, milliseconds from arrival.
    /// Falls back to the loop's `--deadline-ms` default, else unlimited.
    pub deadline_ms: Option<u64>,
    /// The problem to solve.
    pub problem: ProblemFile,
}

// Hand-written so `id`, `stream`, and `deadline_ms` may be omitted
// entirely; the derive treats every field as required.
impl Deserialize for ServeRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = serde::expect_obj(v, "ServeRequest")?;
        let id = v.get("id").cloned().unwrap_or(serde::Value::Null);
        let stream = optional_u64(v.get("stream"), "stream")?;
        let deadline_ms = optional_u64(v.get("deadline_ms"), "deadline_ms")?;
        let problem = serde::de_field(obj, "problem", "ServeRequest")?;
        Ok(ServeRequest { id, stream, deadline_ms, problem })
    }
}

/// An optional unsigned [`ServeRequest`] field: absent or `null` is
/// `None`.
fn optional_u64(v: Option<&serde::Value>, field: &str) -> Result<Option<u64>, serde::DeError> {
    match v {
        None | Some(serde::Value::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            format!("ServeRequest.{field}: expected unsigned integer, found {x:?}")
        }),
    }
}

/// Decode one request line's envelope from its [`serde_json::scan`],
/// begun at `scanned`, leaving the problem as raw text; the request's
/// clock starts here.
/// Errors are [`ServeRequest`]'s own, in its order, except a problem
/// that breaks its schema: that surfaces later, from [`build_request`]
/// in the executor, with the same text.
fn envelope(
    line: &str,
    doc: &serde_json::Scan<'_>,
    scanned: Instant,
    default_deadline_ms: Option<u64>,
) -> Result<Admit, serde::DeError> {
    if !doc.is_object() {
        // Rare: rebuild the tree so the error prints the value as
        // `ServeRequest` does.
        let v: serde::Value = serde_json::from_str(line).expect("scanned lines parse");
        return Err(serde::expect_obj(&v, "ServeRequest").expect_err("not an object"));
    }
    let stream = optional_u64(doc.get("stream").as_ref(), "stream")?;
    let deadline_ms = optional_u64(doc.get("deadline_ms").as_ref(), "deadline_ms")?;
    let problem = doc.raw("problem").ok_or("ServeRequest: missing field `problem`")?;
    let id = doc.get("id").unwrap_or(serde::Value::Null);
    Ok(Admit {
        ticket: Ticket {
            id,
            scanned,
            arrived: Instant::now(),
            deadline_ms: deadline_ms.or(default_deadline_ms),
        },
        stream,
        problem: Arc::new(problem.to_string()),
    })
}

/// The one decode of a request's problem, from the client's JSON text,
/// against what its stream's last answer left ([`Previous`]): a thread
/// link and a worker process both run it in their job's build, inside
/// [`aa_core::StreamSolver::answer`].
///
/// One walk reads the text as [`ProblemFile`]'s typed decode does. A
/// thread value whose bytes are the kept text's value at the same index
/// takes `previous.threads[i]` unread: a JSON object is self-delimiting,
/// so the same bytes decode to the same spec, and the stream keeps its
/// text only while `previous.threads` are what that text built. Every
/// other thread is decoded and built with
/// [`UtilitySpec::build_reusing`](aa_utility::UtilitySpec::build_reusing).
/// Text the walk declines — bad syntax, a schema or build error, a shape
/// the typed decode does not take — is read the long way (a parse of the
/// whole text, then [`build_problem_from`]), which decides every error:
/// a parse error is `class:"parse"` with [`ServeRequest`]'s text, a build
/// error `class:"problem"`. The walk's problem is also returned with the
/// span of each thread's value ([`ThreadText`]) for the next request.
///
/// Records a `build` span (args `threads`, `carried`, `decoded`) and
/// counts each thread in `aa_build_threads_total{via}`: `text` (carried
/// unread), `spec` (decoded; its spec matched `previous.threads[i]`) or
/// `fresh` (built anew).
pub fn build_request(
    text: &Arc<String>,
    previous: Previous<'_>,
) -> Result<Built, (&'static str, String)> {
    let mut span = aa_obs::span!("build");
    let mut carried = 0;
    let (problem, kept) = match walk_problem(text, previous, &mut carried) {
        Some((problem, spans)) => (problem, Some(ThreadText { text: Arc::clone(text), spans })),
        None => {
            carried = 0;
            let file = parse_problem(text)?;
            let problem = build_problem_from(&file, previous.threads)
                .map_err(|e| ("problem", e.to_string()))?;
            (problem, None)
        }
    };
    let n = problem.len() as u64;
    let reused = problem
        .threads()
        .iter()
        .zip(previous.threads)
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count() as u64;
    let [via_text, via_spec, via_fresh] = build_counters();
    via_text.add(carried);
    via_spec.add(reused - carried);
    via_fresh.add(n - reused);
    span.set_args([("threads", n), ("carried", carried), ("decoded", n - carried)]);
    Ok((problem, kept))
}

/// A schema or syntax error in the problem text: `class:"parse"`, its
/// text as [`ServeRequest`] reports it.
pub(crate) fn parse_problem(text: &str) -> Result<ProblemFile, (&'static str, String)> {
    serde_json::from_str(text).map_err(|e| ("parse", format!("ServeRequest.problem: {e}")))
}

/// [`build_request`]'s one walk: `None` declines. Members as
/// [`ProblemFile`]'s derived `from_json` reads them (the first of each
/// field decoded, any other member skipped), then nothing but
/// whitespace; `carried` counts the threads taken unread.
fn walk_problem(
    text: &str,
    previous: Previous<'_>,
    carried: &mut u64,
) -> Option<(Problem, Vec<(u32, u32)>)> {
    let mut r = serde::Reader::new(text);
    let (mut servers, mut capacity, mut threads) = (None, None, None);
    let mut spans = Vec::new();
    let mut more = r.enter(b'{').ok()?;
    while more {
        match &*r.key().ok()? {
            "servers" if servers.is_none() => servers = Some(usize::from_json(&mut r)?),
            "capacity" if capacity.is_none() => capacity = Some(f64::from_json(&mut r)?),
            "threads" if threads.is_none() => {
                threads = Some(walk_threads(&mut r, previous, &mut spans, carried)?);
            }
            _ => r.skip().ok()?,
        }
        more = r.more(b'}').ok()?;
    }
    let problem = Problem::new(servers?, capacity?, threads?).ok()?;
    r.at_end().then_some((problem, spans))
}

/// The `threads` array, each value's span pushed on `spans`: carried
/// from `previous` when its bytes are the kept value at its index, else
/// decoded and built.
fn walk_threads(
    r: &mut serde::Reader<'_>,
    previous: Previous<'_>,
    spans: &mut Vec<(u32, u32)>,
    carried: &mut u64,
) -> Option<Vec<DynUtility>> {
    let kept = previous.text.filter(|t| t.spans.len() == previous.threads.len());
    let mut threads = Vec::with_capacity(previous.threads.len());
    spans.reserve_exact(previous.threads.len());
    let mut more = r.enter(b'[').ok()?;
    while more {
        let i = threads.len();
        r.skip_ws();
        let start = u32::try_from(r.pos()).ok()?;
        if kept.and_then(|t| t.value(i)).is_some_and(|value| r.skip_verbatim(value)) {
            threads.push(Arc::clone(&previous.threads[i]));
            *carried += 1;
        } else {
            let spec = UtilitySpec::from_json(r)?;
            threads.push(spec.build_reusing(previous.threads.get(i)).ok()?);
        }
        spans.push((start, u32::try_from(r.pos()).ok()?));
        more = r.more(b']').ok()?;
    }
    Some(threads)
}

/// `aa_build_threads_total{via="text"|"spec"|"fresh"}`, cached.
fn build_counters() -> &'static [aa_obs::Counter; 3] {
    static HANDLES: std::sync::OnceLock<[aa_obs::Counter; 3]> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        ["text", "spec", "fresh"].map(|via| r.counter_labeled("aa_build_threads_total", "via", via))
    })
}

/// One response line. The serve loop writes an `ok` line without
/// building this value: it splices the solve's members, relayed as the
/// bytes the worker wrote, between the same envelope members, and the
/// line equals this variant's serialization followed by `worker`,
/// `attempts` and `solve_micros`.
#[derive(Debug, Clone, Serialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum ServeResponse {
    /// The solve finished (possibly degraded — see `tier`).
    Ok {
        /// Echoed request id.
        id: serde_json::Value,
        /// Name of the ladder tier that answered.
        tier: String,
        /// True when the answer is anything less than the top tier
        /// completing.
        degraded: bool,
        /// Total utility of the assignment.
        utility: f64,
        /// Server index per thread.
        server: Vec<usize>,
        /// Allocation per thread.
        allocation: Vec<f64>,
        /// End-to-end latency (arrival → response), milliseconds.
        latency_ms: f64,
    },
    /// The admission queue was full; nothing was attempted. Retry after
    /// the hinted backoff.
    Overloaded {
        /// Echoed request id.
        id: serde_json::Value,
        /// Suggested client backoff: the queue's current estimated
        /// drain time.
        retry_after_ms: u64,
    },
    /// The request failed. `class` is stable for dispatch; `error` is
    /// human-readable.
    Error {
        /// Echoed request id (`null` for unparseable lines).
        id: serde_json::Value,
        /// Error class: `parse`, `problem`, `deadline`, `solve`,
        /// `solve_panic` (a contained solver panic), `internal` (every
        /// worker retired, or the request lost `--max-retries` dispatches
        /// to worker deaths; safe to retry), or `shutdown` (unanswered
        /// when the drain timed out; safe to retry).
        class: String,
        /// Human-readable detail.
        error: String,
    },
}

/// Latency accounting for one ladder tier: a snapshot of the
/// `aa_serve_tier_solve_micros{tier=…}` histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TierCounter {
    /// Requests this tier answered.
    pub answered: u64,
    /// Total solve wall time across those answers, microseconds.
    pub total_micros: u64,
    /// Worst single solve wall time, microseconds.
    pub max_micros: u64,
}

/// Counters accumulated over one serve session, dumped at shutdown: a
/// snapshot of the session's `aa_serve_*` registry entries taken at EOF.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServeCounters {
    /// Non-empty request lines read.
    pub received: u64,
    /// Requests answered with `status: ok`.
    pub solved: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Admitted requests whose deadline lapsed before a worker got to
    /// them (answered without a solve).
    pub expired_in_queue: u64,
    /// Lines that were not valid requests (including oversized lines).
    pub parse_errors: u64,
    /// Admitted requests whose solve failed (bad problem, cancellation,
    /// contained panic).
    pub solve_errors: u64,
    /// Solves that panicked (contained); a subset of `solve_errors`.
    pub solve_panics: u64,
    /// Admitted requests answered with `class:"internal"`: lost to
    /// worker deaths past the retry budget, or to every worker retiring.
    pub internal_errors: u64,
    /// Solved requests whose end-to-end latency exceeded their deadline
    /// by more than the grace window.
    pub deadline_misses: u64,
    /// Median end-to-end latency over `status: ok` responses,
    /// milliseconds (histogram-derived, capped at the exact observed
    /// maximum; 0 when nothing was solved).
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end latency over `status: ok` responses,
    /// milliseconds (histogram-derived, capped at the exact observed
    /// maximum; 0 when nothing was solved).
    pub latency_p99_ms: f64,
    /// Latency accounting per answering tier.
    pub per_tier: BTreeMap<String, TierCounter>,
}

/// Configuration for [`run_serve`]: the front-end's and the
/// supervisor's knobs, for either link.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// How the workers run: shard threads (`--shards`) or processes
    /// (`--fleet`).
    pub link: Link,
    /// Workers: `--shards N` or `--fleet N`, at most
    /// [`aa_core::fleet::MAX_WORKERS`].
    pub workers: usize,
    /// Per-worker admission depth; the supervisor sheds beyond
    /// `queue × workers` pending requests.
    pub queue: usize,
    /// Deadline for requests that don't carry their own, milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Longest accepted input line, bytes; longer lines are answered
    /// with a `class:"parse"` error and skipped.
    pub max_line_bytes: usize,
    /// End-to-end p99 latency objective, milliseconds (`--slo-p99-ms`);
    /// `None` uses [`DEFAULT_SLO_P99_MS`].
    pub slo_p99_ms: Option<u64>,
    /// Heartbeat ping interval for worker processes, milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive unanswered pings before a worker process is declared
    /// dead.
    pub heartbeat_miss_limit: u32,
    /// Dispatch attempts per request before it is answered with a
    /// retryable `class:"internal"` error.
    pub max_retries: u32,
    /// Restarts per worker before it is retired.
    pub max_restarts: u64,
    /// Post-EOF drain budget, milliseconds (also forwarded to worker
    /// processes).
    pub drain_timeout_ms: u64,
    /// Per-worker warm-stream cap.
    pub max_streams: usize,
    /// Solver ladder; `None` is the full default ladder.
    pub ladder: Option<Vec<Tier>>,
    /// Seed for replay/respawn backoff jitter.
    pub seed: u64,
    /// Trace output path (`--trace`). When set, the front-end records
    /// request spans and writes one Chrome trace at shutdown: its own
    /// collector (shard threads record into it) plus, on process links,
    /// a lane per worker process, whose spans every request's trace
    /// context links back.
    pub trace: Option<PathBuf>,
    /// Worker executable override; `None` re-execs the current binary.
    /// A testing hook (`--worker-cmd`): the malformed-frame binary test
    /// substitutes a stub worker through it.
    pub worker_cmd: Option<PathBuf>,
    /// Scheduled faults per worker. `None` in production.
    pub chaos: Option<ProcessChaosPlan>,
    /// Tests only: thread links solve every request under
    /// [`aa_core::Budget::with_fuel`] instead of its deadline, so a
    /// degraded answer does not hang on the wall clock.
    #[cfg(test)]
    pub(crate) fuel: Option<u64>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            link: Link::Thread,
            workers: 1,
            queue: 16,
            default_deadline_ms: None,
            max_line_bytes: 1 << 20,
            slo_p99_ms: None,
            heartbeat_ms: DEFAULT_HEARTBEAT_INTERVAL_MS,
            heartbeat_miss_limit: DEFAULT_HEARTBEAT_MISS_LIMIT,
            max_retries: DEFAULT_MAX_RETRIES,
            max_restarts: DEFAULT_MAX_RESTARTS,
            drain_timeout_ms: DEFAULT_DRAIN_TIMEOUT_MS,
            max_streams: 1024,
            ladder: None,
            seed: 0,
            trace: None,
            worker_cmd: None,
            chaos: None,
            #[cfg(test)]
            fuel: None,
        }
    }
}

/// Default restart budget per worker before it is retired.
pub const DEFAULT_MAX_RESTARTS: u64 = 8;

/// Registry handles for one serve session. Every count the loop keeps
/// lives in the metrics registry; [`ServeCounters`] is derived from
/// these handles at EOF.
pub(crate) struct ServeMetrics {
    received: aa_obs::Counter,
    solved: aa_obs::Counter,
    shed: aa_obs::Counter,
    expired_in_queue: aa_obs::Counter,
    parse_errors: aa_obs::Counter,
    solve_errors: aa_obs::Counter,
    solve_panics: aa_obs::Counter,
    internal_errors: aa_obs::Counter,
    deadline_misses: aa_obs::Counter,
    /// End-to-end latency of `status: ok` responses.
    latency: aa_obs::Histogram,
    /// Solve wall time per answering tier
    /// (`aa_serve_tier_solve_micros{tier=…}`).
    per_tier: Vec<(&'static str, aa_obs::Histogram)>,
    /// End-to-end latency per response class
    /// (`aa_slo_e2e_micros{class=…}`).
    per_class_e2e: Vec<(&'static str, aa_obs::Histogram)>,
    /// Burn-rate tracker against the p99 latency objective (`aa_slo_*`).
    slo: aa_obs::SloTracker,
}

/// Response classes with end-to-end latency semantics; each gets a
/// pre-registered `aa_slo_e2e_micros{class=…}` histogram.
const SLO_CLASSES: [&str; 8] =
    ["ok", "overloaded", "deadline", "solve", "solve_panic", "problem", "internal", "shutdown"];

impl ServeMetrics {
    /// Register the session's handles; `slo_p99_ms` is the end-to-end
    /// objective (`None`: [`DEFAULT_SLO_P99_MS`]).
    pub(crate) fn new(registry: &aa_obs::Registry, slo_p99_ms: Option<u64>) -> Self {
        let target_micros = slo_p99_ms.unwrap_or(DEFAULT_SLO_P99_MS).saturating_mul(1000);
        ServeMetrics {
            received: registry.counter("aa_serve_received_total"),
            solved: registry.counter("aa_serve_solved_total"),
            shed: registry.counter("aa_serve_shed_total"),
            expired_in_queue: registry.counter("aa_serve_expired_in_queue_total"),
            parse_errors: registry.counter("aa_serve_parse_errors_total"),
            solve_errors: registry.counter("aa_serve_solve_errors_total"),
            solve_panics: registry.counter("aa_serve_solve_panics_total"),
            internal_errors: registry.counter("aa_serve_internal_errors_total"),
            deadline_misses: registry.counter("aa_serve_deadline_misses_total"),
            latency: registry.histogram("aa_serve_latency_micros"),
            per_tier: Tier::ALL
                .iter()
                .map(|t| {
                    (
                        t.name(),
                        registry.histogram_labeled("aa_serve_tier_solve_micros", "tier", t.name()),
                    )
                })
                .collect(),
            per_class_e2e: SLO_CLASSES
                .iter()
                .map(|c| (*c, registry.histogram_labeled("aa_slo_e2e_micros", "class", c)))
                .collect(),
            slo: aa_obs::SloTracker::register(registry, target_micros),
        }
    }

    /// Record one finished request against the SLO layer: the per-class
    /// end-to-end histogram plus the burn-rate tracker (only `ok`
    /// responses under the target count as good).
    fn observe_e2e(&self, class: &str, latency_micros: u64) {
        let latency = latency_micros.max(1);
        if let Some((_, h)) = self.per_class_e2e.iter().find(|(n, _)| *n == class) {
            h.record_micros(latency);
        }
        self.slo.observe(latency, class == "ok");
    }

    /// The EOF snapshot. Tiers that never answered are omitted, matching
    /// the pre-registry dump (a `BTreeMap` populated on first answer).
    pub(crate) fn snapshot(&self) -> ServeCounters {
        let mut per_tier = BTreeMap::new();
        for (name, h) in &self.per_tier {
            if h.count() > 0 {
                per_tier.insert(
                    (*name).to_string(),
                    TierCounter {
                        answered: h.count(),
                        total_micros: h.sum_micros(),
                        max_micros: h.max_micros(),
                    },
                );
            }
        }
        #[allow(clippy::cast_precision_loss)]
        ServeCounters {
            received: self.received.get(),
            solved: self.solved.get(),
            shed: self.shed.get(),
            expired_in_queue: self.expired_in_queue.get(),
            parse_errors: self.parse_errors.get(),
            solve_errors: self.solve_errors.get(),
            solve_panics: self.solve_panics.get(),
            internal_errors: self.internal_errors.get(),
            deadline_misses: self.deadline_misses.get(),
            latency_p50_ms: self.latency.quantile_micros(0.50) as f64 / 1e3,
            latency_p99_ms: self.latency.quantile_micros(0.99) as f64 / 1e3,
            per_tier,
        }
    }
}

/// An admitted request's identity and clock: everything its answer
/// needs besides the outcome.
pub(crate) struct Ticket {
    pub(crate) id: serde_json::Value,
    /// When the line's syntax scan began: a traced request's first span.
    pub(crate) scanned: Instant,
    pub(crate) arrived: Instant,
    pub(crate) deadline_ms: Option<u64>,
}

impl Ticket {
    /// The absolute deadline, if the request has one.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline_ms.map(|d| self.arrived + Duration::from_millis(d))
    }
}

/// A request on its way to the mode's executor: envelope decoded, the
/// problem still the client's JSON text (shared, so a fleet replay
/// resends the same bytes and a thread link keeps them without a copy).
pub(crate) struct Admit {
    pub(crate) ticket: Ticket,
    pub(crate) stream: Option<u64>,
    pub(crate) problem: Arc<String>,
}

/// How one request ended.
pub(crate) enum Outcome {
    /// Solved. `body` is the answer's members from `tier` through
    /// `allocation`, already JSON text; `routed` is the answering
    /// `(worker, attempts)`, which the line carries with `solve_micros`.
    Ok { tier: String, body: Body, solve_micros: u64, routed: (usize, u32) },
    /// Failed with a stable error class and its text.
    Error { class: String, error: String },
    /// The deadline lapsed before a solve started.
    Expired(String),
    /// Shed at admission; nothing was attempted.
    Overloaded,
}

impl Outcome {
    pub(crate) fn error(class: &str, error: impl Into<String>) -> Self {
        Outcome::Error { class: class.to_string(), error: error.into() }
    }
}

/// An `ok` line, newline included: [`ServeResponse::Ok`]'s members with
/// the solve's spliced in as `body`'s text, then `worker`, `attempts` and
/// `solve_micros`. Every member is written with the serializer's own
/// writers, so the line equals the serializer's for the same answer.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn ok_line(
    id: &serde_json::Value,
    body: &str,
    latency_ms: f64,
    (worker, attempts): (usize, u32),
    solve_micros: u64,
) -> String {
    let id = serde_json::to_string(id).expect("ids always serialize");
    let mut line = String::with_capacity(body.len() + id.len() + 128);
    line.push_str(r#"{"status":"ok","id":"#);
    line.push_str(&id);
    line.push(',');
    line.push_str(body);
    line.push_str(r#","latency_ms":"#);
    serde_json::write_num(latency_ms, &mut line);
    line.push_str(r#","worker":"#);
    serde_json::write_num(worker as f64, &mut line);
    line.push_str(r#","attempts":"#);
    serde_json::write_num(f64::from(attempts), &mut line);
    line.push_str(r#","solve_micros":"#);
    serde_json::write_num(solve_micros as f64, &mut line);
    line.push_str("}\n");
    line
}

/// Slack added to a deadline before a solved request counts as a
/// deadline miss, milliseconds.
const GRACE_MS: u64 = 10;

/// The one answer path: writes each request's response line and does
/// all of its [`ServeMetrics`] accounting.
pub(crate) struct Answers<'a, W> {
    pub(crate) out: &'a Mutex<W>,
    pub(crate) metrics: &'a ServeMetrics,
    /// Admission depth, for the overload retry hint.
    pub(crate) queue: usize,
}

impl<W: Write> Answers<'_, W> {
    /// Answer an admitted request: the response line, the per-class
    /// counters, and the end-to-end latency the SLO layer tracks.
    pub(crate) fn send(&self, ticket: Ticket, outcome: Outcome) -> std::io::Result<()> {
        let latency_ms = ticket.arrived.elapsed().as_secs_f64() * 1e3;
        // Floor at 1 µs so percentile snapshots of sub-microsecond
        // responses stay nonzero.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let latency_micros = ((latency_ms * 1e3) as u64).max(1);
        let m = self.metrics;
        let id = ticket.id;
        match outcome {
            Outcome::Ok { tier, body, solve_micros, routed } => {
                m.solved.inc();
                m.latency.record_micros(latency_micros);
                m.observe_e2e("ok", latency_micros);
                if let Some((_, h)) = m.per_tier.iter().find(|(n, _)| *n == tier) {
                    h.record_micros(solve_micros.max(1));
                }
                #[allow(clippy::cast_precision_loss)]
                if ticket.deadline_ms.is_some_and(|d| latency_ms > (d + GRACE_MS) as f64) {
                    m.deadline_misses.inc();
                }
                self.write_line(ok_line(&id, body.as_str(), latency_ms, routed, solve_micros))
            }
            Outcome::Overloaded => {
                m.shed.inc();
                m.observe_e2e("overloaded", latency_micros);
                let retry_after_ms = estimated_drain_ms(m, self.queue);
                self.write(&ServeResponse::Overloaded { id, retry_after_ms })
            }
            Outcome::Expired(error) => {
                m.expired_in_queue.inc();
                m.observe_e2e("deadline", latency_micros);
                self.write(&ServeResponse::Error { id, class: "deadline".to_string(), error })
            }
            // A problem refused by the executor's decode answers like a
            // line refused at the door: `parse` without its id, `problem`
            // with it, and neither in the end-to-end latency layer.
            Outcome::Error { class, error } if class == "parse" => {
                self.reject(serde_json::Value::Null, &class, error)
            }
            Outcome::Error { class, error } if class == "problem" => self.reject(id, &class, error),
            Outcome::Error { class, error } => {
                m.observe_e2e(&class, latency_micros);
                self.reject(id, &class, error)
            }
        }
    }

    /// Answer an error by class. Lines refused at the door (parse and
    /// control errors) come here directly, problems the executor refused
    /// through [`Answers::send`]: counted, but outside the end-to-end
    /// latency layer.
    pub(crate) fn reject(&self, id: serde_json::Value, class: &str, error: String) -> std::io::Result<()> {
        let m = self.metrics;
        match class {
            "parse" | "control" => m.parse_errors.inc(),
            "problem" | "deadline" | "solve" => m.solve_errors.inc(),
            "solve_panic" => {
                m.solve_errors.inc();
                m.solve_panics.inc();
            }
            // Drain answers; counted by the supervisor's own metrics.
            "shutdown" => {}
            _ => m.internal_errors.inc(),
        }
        self.write(&ServeResponse::Error { id, class: class.to_string(), error })
    }

    /// Write `line` serialized, as one JSON line.
    pub(crate) fn write<T: Serialize>(&self, line: &T) -> std::io::Result<()> {
        let mut line = serde_json::to_string(line).expect("responses always serialize");
        line.push('\n');
        self.write_line(line)
    }

    /// Write one line, its newline included, in one write — the only
    /// place response bytes are written.
    fn write_line(&self, line: String) -> std::io::Result<()> {
        let mut w = self.out.lock().unwrap_or_else(|e| e.into_inner());
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

/// The supervisor's half of the ingress loop.
pub(crate) trait Admission {
    /// Route one request to the executor, which decodes its problem.
    /// `Ok(false)` stops reading (the executor is gone).
    fn admit(&mut self, req: Admit) -> std::io::Result<bool>;

    /// Act on a `{"control":…}` line. `Err(why)` answers it with
    /// `class:"control"`; `Ok(false)` stops reading.
    fn control(&mut self, line: &serde_json::Scan<'_>, id: &serde_json::Value) -> Result<bool, &'static str>;
}

/// The ingress loop every serving mode runs on the calling thread:
/// bounded read → UTF-8 check → syntax scan → control-line check →
/// envelope → `admission`. Every line that does not reach admission is
/// answered here. Returns at EOF.
pub(crate) fn ingress<R: BufRead, W: Write>(
    mut input: R,
    max_line_bytes: usize,
    default_deadline_ms: Option<u64>,
    answers: &Answers<'_, W>,
    admission: &mut impl Admission,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut input, &mut buf, max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                answers.metrics.received.inc();
                let error = format!(
                    "request line exceeds the {max_line_bytes} byte cap (--max-line-bytes)"
                );
                answers.reject(serde_json::Value::Null, "parse", error)?;
                continue;
            }
            LineRead::Line => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request stream is not valid UTF-8",
            ));
        };
        if line.trim().is_empty() {
            continue;
        }
        answers.metrics.received.inc();
        let scanned = Instant::now();
        let doc = match serde_json::scan(line) {
            Ok(doc) => doc,
            Err(e) => {
                answers.reject(serde_json::Value::Null, "parse", e.to_string())?;
                continue;
            }
        };
        if doc.raw("control").is_some() {
            let id = doc.get("id").unwrap_or(serde_json::Value::Null);
            match admission.control(&doc, &id) {
                Ok(true) => {}
                Ok(false) => return Ok(()),
                Err(why) => answers.reject(id, "control", why.to_string())?,
            }
            continue;
        }
        let admit = match envelope(line, &doc, scanned, default_deadline_ms) {
            Ok(admit) => admit,
            Err(e) => {
                answers.reject(serde_json::Value::Null, "parse", e)?;
                continue;
            }
        };
        if !admission.admit(admit)? {
            return Ok(());
        }
    }
}

/// Run the request loop until `input` reaches EOF, then drain (every
/// admitted request gets its one response, a `shutdown` error past
/// `--drain-timeout-ms`) and return the session counters. Responses go
/// to `output` one JSON object per line; all accounting goes through
/// `registry` (the `aa_serve_*` family plus the supervisor's
/// `aa_fleet_*` series), so a concurrent exporter sees live counts.
///
/// Handles are get-or-create: running two sessions through the same
/// registry accumulates across both (pass a fresh [`aa_obs::Registry`]
/// per session for isolated counts; the binary passes the process-global
/// one so `--metrics-addr` scrapes cover the whole run).
pub fn run_serve<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    opts: &ServeOpts,
    registry: &aa_obs::Registry,
) -> Result<ServeCounters, CliError> {
    let out = Mutex::new(output);
    let metrics = ServeMetrics::new(registry, opts.slo_p99_ms);
    let answers = Answers { out: &out, metrics: &metrics, queue: opts.queue };
    crate::fleet::supervise(input, &answers, opts, registry)?;
    Ok(metrics.snapshot())
}

/// Outcome of one bounded line read.
enum LineRead {
    /// End of input.
    Eof,
    /// A complete line is in the buffer (trailing newline stripped).
    Line,
    /// The line exceeded the cap; the buffer holds its prefix and the
    /// rest was discarded up to the next newline.
    Oversized,
}

/// Read one `\n`-terminated line into `buf`, never buffering more than
/// `max + 1` bytes of it. The overflow tail is consumed (discarded) so
/// the reader stays line-synchronized for the next request.
fn read_bounded_line<R: BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let n = std::io::Read::take(&mut *input, max as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(LineRead::Line);
    }
    if buf.len() <= max {
        // Final line without a trailing newline.
        return Ok(LineRead::Line);
    }
    // Over the cap mid-line: skip to the next newline without buffering.
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
    Ok(LineRead::Oversized)
}

/// Backoff hint for a shed request: queue depth × the mean solve time
/// observed so far. Pure so its invariants are property-tested: the
/// hint is monotone (non-decreasing) in queue depth and strictly
/// positive — a shed client is never told to retry in zero milliseconds.
pub fn drain_hint_ms(answered: u64, total_micros: u64, queue: usize) -> u64 {
    // 1 ms/solve assumed before any solve completes.
    let mean_micros = total_micros.checked_div(answered).unwrap_or(1000);
    (mean_micros.saturating_mul(queue as u64) / 1000).max(1)
}

/// [`drain_hint_ms`] fed from the per-tier histograms.
fn estimated_drain_ms(metrics: &ServeMetrics, queue: usize) -> u64 {
    let (answered, micros) = metrics
        .per_tier
        .iter()
        .fold((0_u64, 0_u64), |(a, m), (_, h)| (a + h.count(), m + h.sum_micros()));
    drain_hint_ms(answered, micros, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_sim::ProcessFault;
    use aa_utility::UtilitySpec;

    /// The problem every request line carries, as JSON text.
    fn problem_text(threads: usize) -> String {
        let problem = ProblemFile {
            servers: 4,
            capacity: 100.0,
            threads: (0..threads)
                .map(|i| UtilitySpec::Power {
                    scale: 1.0 + (i % 7) as f64,
                    beta: 0.5,
                    cap: 100.0,
                })
                .collect(),
        };
        serde_json::to_string(&problem).unwrap()
    }

    fn request_line(id: u64, deadline_ms: Option<u64>, threads: usize) -> String {
        let problem = problem_text(threads);
        match deadline_ms {
            Some(d) => format!(r#"{{"id":{id},"deadline_ms":{d},"problem":{problem}}}"#),
            None => format!(r#"{{"id":{id},"problem":{problem}}}"#),
        }
    }

    fn stream_request_line(id: u64, stream: u64, threads: usize) -> String {
        format!(r#"{{"id":{id},"stream":{stream},"problem":{}}}"#, problem_text(threads))
    }

    fn run(input: &str, opts: &ServeOpts) -> (ServeCounters, Vec<serde_json::Value>) {
        let mut output: Vec<u8> = Vec::new();
        // A per-session registry keeps tests isolated from each other
        // and from the process-global registry.
        let registry = aa_obs::Registry::new();
        let counters = run_serve(input.as_bytes(), &mut output, opts, &registry).unwrap();
        let responses = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        (counters, responses)
    }

    #[test]
    fn solves_requests_and_echoes_ids() {
        let input = format!("{}\n{}\n", request_line(1, None, 6), request_line(2, None, 8));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.received, 2);
        assert_eq!(counters.solved, 2);
        assert_eq!(counters.shed, 0);
        assert_eq!(responses.len(), 2);
        let mut ids: Vec<u64> =
            responses.iter().map(|r| r["id"].as_u64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        for r in &responses {
            assert_eq!(r["status"], "ok", "{r:?}");
            assert!(r["utility"].as_f64().unwrap() > 0.0);
            assert_eq!(r["server"].as_array().unwrap().len(), r["allocation"].as_array().unwrap().len());
        }
        // Per-tier accounting saw both answers.
        let answered: u64 = counters.per_tier.values().map(|t| t.answered).sum();
        assert_eq!(answered, 2);
        // Latency percentiles cover the solved requests: positive,
        // ordered, and p99 bounded by the worst observed response.
        assert!(counters.latency_p50_ms > 0.0, "{counters:?}");
        assert!(counters.latency_p99_ms >= counters.latency_p50_ms, "{counters:?}");
        let worst = responses
            .iter()
            .map(|r| r["latency_ms"].as_f64().unwrap())
            .fold(0.0_f64, f64::max);
        assert!(counters.latency_p99_ms <= worst + 1e-9, "{counters:?}");
    }

    #[test]
    fn live_registry_sees_the_same_counts_as_the_snapshot() {
        let registry = aa_obs::Registry::new();
        let mut output: Vec<u8> = Vec::new();
        let input = format!("{}\n{}\n", request_line(1, None, 6), request_line(2, None, 8));
        let counters =
            run_serve(input.as_bytes(), &mut output, &ServeOpts::default(), &registry).unwrap();
        // The registry holds the session's numbers — what a concurrent
        // /metrics scrape would have reported at EOF.
        let prom = aa_obs::export::prometheus_text(&registry);
        assert!(prom.contains("aa_serve_received_total 2"), "{prom}");
        assert!(prom.contains("aa_serve_solved_total 2"), "{prom}");
        // The supervisor exports through the same registry.
        assert!(prom.contains(r#"aa_fleet_worker_solves{worker="0"} 2"#), "{prom}");
        assert!(prom.contains(r#"aa_fleet_restarts_total{worker="0"} 0"#), "{prom}");
        // The SLO layer tracked both ok responses end-to-end.
        assert!(prom.contains("aa_slo_target_p99_micros 100000"), "{prom}");
        assert!(prom.contains(r#"aa_slo_e2e_micros_count{class="ok"} 2"#), "{prom}");
        assert!(prom.contains("aa_slo_good_total"), "{prom}");
        assert!(prom.contains("aa_slo_burn_rate"), "{prom}");
        assert_eq!(counters.received, 2);
        assert_eq!(counters.solved, 2);
    }

    #[test]
    fn burst_beyond_the_queue_is_shed_with_backoff_hints() {
        // First request is large and unbudgeted: the shard is busy for
        // many milliseconds while the reader (all in-memory) admits one
        // more and must shed the rest of the burst.
        let mut input = request_line(0, None, 4000);
        for i in 1..=6 {
            input.push('\n');
            input.push_str(&request_line(i, None, 4));
        }
        input.push('\n');
        let opts = ServeOpts { queue: 1, ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.received, 7);
        assert!(counters.shed > 0, "burst was not shed: {counters:?}");
        assert_eq!(counters.solved + counters.shed, 7);
        assert_eq!(counters.deadline_misses, 0);
        let overloaded: Vec<_> =
            responses.iter().filter(|r| r["status"] == "overloaded").collect();
        assert_eq!(overloaded.len() as u64, counters.shed);
        for r in &overloaded {
            assert!(r["retry_after_ms"].as_u64().unwrap() >= 1);
        }
        // Every line got exactly one response.
        assert_eq!(responses.len(), 7);
    }

    #[test]
    fn tight_deadlines_degrade_but_never_fail() {
        // The tight budget is fuel, not a 1 ms wall clock: a wall-clock
        // deadline can lapse while the request waits for the shard
        // thread to wake, and the request is then refused unsolved.
        let input = format!("{}\n", request_line(9, None, 3000));
        let opts = ServeOpts { fuel: Some(50), ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.solved, 1);
        assert_eq!(counters.solve_errors, 0);
        assert_eq!(responses[0]["status"], "ok");
        // 50 budget checks cannot fit the full ladder on 3000 threads:
        // degraded.
        assert_eq!(responses[0]["degraded"].as_bool(), Some(true), "{:?}", responses[0]);
    }

    #[test]
    fn deadline_that_lapses_in_queue_is_answered_without_a_solve() {
        // Large unbudgeted head request occupies the shard; the second
        // request's 1 ms deadline lapses while it waits.
        let input = format!(
            "{}\n{}\n",
            request_line(0, None, 4000),
            request_line(1, Some(1), 4)
        );
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.expired_in_queue, 1, "{counters:?}");
        let expired = responses.iter().find(|r| r["id"].as_u64() == Some(1)).unwrap();
        assert_eq!(expired["status"], "error");
        assert_eq!(expired["class"], "deadline");
    }

    #[test]
    fn malformed_lines_get_parse_errors_and_serving_continues() {
        let input = format!("this is not json\n{}\n", request_line(5, None, 4));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.parse_errors, 1);
        assert_eq!(counters.solved, 1);
        let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
        assert_eq!(parse["class"], "parse");
        assert_eq!(parse["id"], serde_json::Value::Null);
        assert!(responses
            .iter()
            .any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(5)));
    }

    #[test]
    fn invalid_problems_are_typed_not_fatal() {
        let bad = r#"{"id":3,"problem":{"servers":0,"capacity":10.0,"threads":[]}}"#;
        let input = format!("{bad}\n{}\n", request_line(4, None, 4));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.solve_errors, 1);
        assert_eq!(counters.solved, 1);
        let err = responses.iter().find(|r| r["id"].as_u64() == Some(3)).unwrap();
        assert_eq!(err["status"], "error");
        assert_eq!(err["class"], "problem");
    }

    #[test]
    fn counters_serialize_for_the_shutdown_dump() {
        let input = format!("{}\n", request_line(1, None, 4));
        let (counters, _) = run(&input, &ServeOpts::default());
        let json = serde_json::to_string_pretty(&counters).unwrap();
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back["solved"].as_u64(), Some(1));
        assert!(back["per_tier"].as_object().is_some());
    }

    #[test]
    fn empty_input_returns_zeroed_counters() {
        let (counters, responses) = run("", &ServeOpts::default());
        assert_eq!(counters, ServeCounters::default());
        assert!(responses.is_empty());
    }

    #[test]
    fn sharded_serve_answers_keyed_streams_from_fixed_shards() {
        let mut input = String::new();
        for i in 0..24u64 {
            input.push_str(&stream_request_line(i, i % 6, 6));
            input.push('\n');
        }
        let opts = ServeOpts { workers: 3, queue: 64, ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.received, 24);
        assert_eq!(counters.solved, 24);
        assert_eq!(counters.shed, 0);
        // Each stream answered from its ring owner.
        let ring = aa_core::Ring::new(3);
        for r in &responses {
            let stream = r["id"].as_u64().unwrap() % 6;
            assert_eq!(r["worker"].as_u64().map(|w| w as usize), ring.owner(stream), "{r:?}");
        }
    }

    #[test]
    fn oversized_line_gets_a_parse_error_and_serving_continues() {
        let big = format!(r#"{{"id":1,"problem":"{}"}}"#, "x".repeat(8192));
        let input = format!("{big}\n{}\n", request_line(2, None, 4));
        let opts = ServeOpts { max_line_bytes: 1024, ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.received, 2);
        assert_eq!(counters.parse_errors, 1);
        assert_eq!(counters.solved, 1);
        let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
        assert_eq!(parse["class"], "parse");
        assert!(parse["error"].as_str().unwrap().contains("max-line-bytes"));
        assert!(responses
            .iter()
            .any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(2)));
    }

    #[test]
    fn a_shard_crash_replays_every_request_and_serving_continues() {
        // Kill the only shard on its first request, outside the caught
        // solve. The supervisor replays that request and everything
        // queued behind it on the respawned shard: all six answer ok,
        // exactly once, and the death shows as one restart.
        let mut input = String::new();
        for i in 0..6u64 {
            input.push_str(&stream_request_line(i, 1, 6));
            input.push('\n');
        }
        let plan = ProcessChaosPlan { faults: vec![vec![(1, ProcessFault::Kill)]] };
        let opts = ServeOpts { chaos: Some(plan), queue: 64, ..ServeOpts::default() };
        let registry = aa_obs::Registry::new();
        let mut output: Vec<u8> = Vec::new();
        crate::fleet::quiet_chaos();
        let counters = run_serve(input.as_bytes(), &mut output, &opts, &registry).unwrap();
        let responses: Vec<serde_json::Value> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!((counters.received, counters.solved), (6, 6), "{counters:?}");
        let mut ids: Vec<u64> = responses.iter().map(|r| r["id"].as_u64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>(), "{responses:?}");
        assert!(responses.iter().all(|r| r["status"] == "ok"), "{responses:?}");
        let replayed = responses.iter().find(|r| r["id"].as_u64() == Some(0)).unwrap();
        assert_eq!(replayed["attempts"].as_u64(), Some(2), "{replayed:?}");
        let restarts = registry.counter_labeled("aa_fleet_restarts_total", "worker", "0");
        assert_eq!(restarts.get(), 1);
    }

    #[test]
    fn drain_hint_is_monotone_and_positive() {
        assert_eq!(drain_hint_ms(0, 0, 0), 1);
        assert_eq!(drain_hint_ms(0, 0, 16), 16);
        let mut last = 0;
        for queue in 0..200 {
            let hint = drain_hint_ms(10, 50_000, queue);
            assert!(hint >= 1);
            assert!(hint >= last, "hint regressed at queue={queue}");
            last = hint;
        }
    }
}
