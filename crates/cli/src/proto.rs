//! Wire protocol between the fleet front-end and its worker processes.
//!
//! Every message is one frame as defined by [`aa_core::fleet`]: a
//! big-endian `u32` payload length, the JSON payload, and a `\n`
//! trailer. The front-end writes [`ToWorker`] frames on the worker's
//! stdin; the worker writes [`FromWorker`] frames on its stdout. stderr
//! is left alone (inherited) so worker panics stay visible.
//!
//! The protocol is strictly request/response plus heartbeats:
//!
//! * `Hello` — first frame a worker emits, carrying its index and pid;
//!   the front-end treats a worker as up only after its hello.
//! * `Ping`/`Pong` — heartbeats; a worker answers pings from a reader
//!   thread even mid-solve, so only a wedged or dead process misses.
//! * `Req`/`Resp` — one solve; `seq` is the front-end's pending-map key
//!   and must be echoed verbatim.
//!
//! Anything else a worker writes — truncated frames, bad trailers,
//! unparseable JSON — is a protocol violation and the front-end treats
//! the worker exactly as if it had crashed.
//!
//! A `Req`'s `problem` is the client's own JSON text: the front-end
//! splices it into the frame unparsed, as the frame's last member, and
//! the worker reads the frame's header and passes the problem's text on
//! to its build without decoding it, so a problem that fails its schema
//! or its syntax is answered, not a protocol violation. The frame is
//! still a [`ToWorker::Req`] document.
//!
//! Answers cross the same way in reverse. A worker writes each `Resp`
//! frame straight from its solve, with the serializer's number and
//! string writers ([`serde_json::write_num`]) and no tree; the frame
//! still equals `serde_json::to_string` of the [`FromWorker::Resp`]. The
//! front-end's reader walks the frame once and keeps a solve's members
//! from `"tier"` through the `allocation` array as a byte range of the
//! frame (`Body`), undecoded: the client's `ok` line carries those
//! bytes as they came, since the line writes the same members with the
//! same writers. Any frame that walk declines is decoded whole.
//!
//! Every frame is assembled in one buffer, length prefix and trailer
//! included (`Frame`), so it crosses its pipe in one write.

use std::ops::{Deref, Range};

use aa_core::fleet::FRAME_TRAILER;
use aa_core::{ShardError, TieredSolve};
use serde::{Deserialize, Reader, Serialize};

use crate::ProblemFile;

/// Distributed trace context carried on a [`ToWorker::Req`]: the
/// front-end's request trace id and the span id the worker should root
/// its pipeline spans under. Span ids stay below 2⁵³ (the wire is JSON
/// `f64`), which the front-end's lane remap guarantees.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TraceCtx {
    /// Front-end trace id for this request (never 0).
    pub trace_id: u64,
    /// Front-end span id of the request span; the worker's solve root
    /// span binds to it as a parent.
    pub parent_span: u64,
}

/// Frames the front-end sends to a worker (on its stdin).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ToWorker {
    /// Solve one problem.
    Req {
        /// Front-end pending-map key; echoed in the response.
        seq: u64,
        /// Stream key for warm-state affinity, if any.
        stream: Option<u64>,
        /// Per-request solve budget in milliseconds, measured from
        /// worker arrival, if any.
        budget_ms: Option<u64>,
        /// Trace context, when the front-end is tracing.
        trace: Option<TraceCtx>,
        /// The problem spec, in the same schema as the `solve` command.
        problem: ProblemFile,
    },
    /// Heartbeat probe.
    Ping {
        /// Echoed in the pong so stale pongs are discarded.
        nonce: u64,
    },
}

/// A `Req` frame's fields besides the problem, in [`ToWorker::Req`]'s
/// order (what [`encode_req`] serializes).
#[derive(Serialize)]
struct ReqHeader {
    seq: u64,
    stream: Option<u64>,
    budget_ms: Option<u64>,
    trace: Option<TraceCtx>,
}

/// One frame's bytes in one buffer: room for the length prefix, the
/// payload, and (once [`Frame::into_bytes`] seals it) the trailer, so
/// the frame crosses its pipe in one write instead of
/// [`aa_core::fleet::write_frame`]'s three. Derefs to its payload.
pub(crate) struct Frame(String);

/// Where a [`Frame`]'s length prefix goes until the payload is known.
const PREFIX: &str = "\0\0\0\0";

impl Frame {
    /// An empty payload with room for `payload` bytes.
    fn with_capacity(payload: usize) -> Frame {
        let mut text = String::with_capacity(PREFIX.len() + payload + 1);
        text.push_str(PREFIX);
        Frame(text)
    }

    /// A frame around the serialized `msg`.
    pub(crate) fn of<T: Serialize>(msg: &T) -> Frame {
        let payload = serde_json::to_string(msg).expect("frames always serialize");
        let mut frame = Frame::with_capacity(payload.len());
        frame.0.push_str(&payload);
        frame
    }

    /// The frame's bytes, as [`aa_core::fleet::write_frame`] writes them.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        let mut bytes = self.0.into_bytes();
        #[allow(clippy::cast_possible_truncation)]
        let len = (bytes.len() - PREFIX.len()) as u32;
        bytes[..PREFIX.len()].copy_from_slice(&len.to_be_bytes());
        bytes.push(FRAME_TRAILER);
        bytes
    }
}

impl Deref for Frame {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0[PREFIX.len()..]
    }
}

/// A [`ToWorker::Req`] frame with `problem` — raw JSON text — spliced in
/// verbatim. When `problem` is the serializer's own output, the payload
/// equals `serde_json::to_string` of the `Req`.
pub(crate) fn encode_req(
    seq: u64,
    stream: Option<u64>,
    budget_ms: Option<u64>,
    trace: Option<TraceCtx>,
    problem: &str,
) -> Frame {
    let header = serde_json::to_string(&ReqHeader { seq, stream, budget_ms, trace })
        .expect("headers always serialize");
    let fields = &header[1..header.len() - 1];
    let mut frame = Frame::with_capacity(fields.len() + problem.len() + 32);
    let out = &mut frame.0;
    out.push_str(r#"{"type":"req","#);
    out.push_str(fields);
    out.push_str(r#","problem":"#);
    out.push_str(problem);
    out.push('}');
    frame
}

/// A [`ToWorker`] frame as the worker reads it: the header, and where
/// the problem's text sits in the frame, undecoded.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// [`ToWorker::Ping`].
    Ping { nonce: u64 },
    /// [`ToWorker::Req`]; its problem text is decoded by the build, which
    /// answers a problem that breaks its schema or syntax.
    Req {
        seq: u64,
        stream: Option<u64>,
        budget_ms: Option<u64>,
        trace: Option<TraceCtx>,
        /// The problem's text: these bytes of the frame.
        problem: Range<usize>,
    },
}

/// Read one frame payload. `None` (bad JSON in the header, an unknown
/// type, a missing or mistyped header field, a `Req` without a problem)
/// is a protocol violation; a problem the build cannot read is not.
///
/// Every frame the front-end writes is read in one walk over its header
/// ([`decode_in_order`]), which takes the rest of the frame, up to its
/// closing `}`, as the problem's text. A frame that walk declines is read
/// the long way ([`decode_scanned`]).
pub(crate) fn decode_to_worker(payload: &str) -> Option<Inbound> {
    decode_in_order(payload).or_else(|| decode_scanned(payload))
}

/// One [`Reader`] walk over a frame whose members come in the order
/// [`encode_req`] (or the serializer, for a ping) writes them. A `Req`'s
/// `problem` is its last member: its text is every byte after the key's
/// `:` up to the frame's last byte, which must be `}`, and is not read
/// here. `None` declines: a header member out of order, unknown, repeated
/// or mistyped, or a ping with bytes after its closing `}`.
fn decode_in_order(payload: &str) -> Option<Inbound> {
    let mut r = Reader::new(payload);
    let more = r.enter(b'{').ok()?;
    let mut m = InOrder { r, more };
    match m.next::<String>("type")?.as_str() {
        "ping" => {
            let nonce = m.next("nonce")?;
            (!m.more && m.r.at_end()).then_some(Inbound::Ping { nonce })
        }
        "req" => {
            let (seq, stream, budget_ms, trace) =
                (m.next("seq")?, m.next("stream")?, m.next("budget_ms")?, m.next("trace")?);
            if !m.more || m.r.key().ok()? != "problem" {
                return None;
            }
            let start = m.r.pos();
            let end = start + payload[start..].strip_suffix('}')?.len();
            Some(Inbound::Req { seq, stream, budget_ms, trace, problem: start..end })
        }
        _ => None,
    }
}

/// An entered object whose members are read in a fixed order.
struct InOrder<'a> {
    r: Reader<'a>,
    /// Whether another member follows.
    more: bool,
}

impl InOrder<'_> {
    /// The next member's value, when its key is `key` and it decodes.
    fn next<T: Deserialize>(&mut self, key: &str) -> Option<T> {
        self.key(key)?;
        let value = T::from_json(&mut self.r)?;
        self.after()?;
        Some(value)
    }

    /// Step past the next member's key, when it is `key`; its value is
    /// the reader's next.
    fn key(&mut self, key: &str) -> Option<()> {
        (self.more && self.r.key().ok()? == key).then_some(())
    }

    /// After a member's value: whether another follows.
    fn after(&mut self) -> Option<()> {
        self.more = self.r.more(b'}').ok()?;
        Some(())
    }
}

/// The frame read from its [`serde_json::scan`]: the header members by
/// key, the problem as its value's text.
fn decode_scanned(payload: &str) -> Option<Inbound> {
    let doc = serde_json::scan(payload).ok()?;
    fn field<T: Deserialize>(doc: &serde_json::Scan<'_>, key: &str) -> Option<T> {
        T::from_value(&doc.get(key)?).ok()
    }
    match field::<String>(&doc, "type")?.as_str() {
        "ping" => Some(Inbound::Ping { nonce: field(&doc, "nonce")? }),
        "req" => Some(Inbound::Req {
            seq: field(&doc, "seq")?,
            stream: field(&doc, "stream")?,
            budget_ms: field(&doc, "budget_ms")?,
            trace: field(&doc, "trace")?,
            problem: doc.span("problem")?,
        }),
        _ => None,
    }
}

/// Frames a worker sends to the front-end (on its stdout).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum FromWorker {
    /// First frame after startup; the worker is routable from here on.
    Hello {
        /// The worker's fleet index (echo of `--index`).
        worker: usize,
        /// The worker's OS process id, for supervision logs.
        pid: u32,
        /// The worker's span clock at send time (µs since its collector
        /// epoch; 0 when no collector is installed). The front-end
        /// subtracts this from its own clock at receipt to get the
        /// per-incarnation alignment offset for merged traces.
        now_micros: u64,
    },
    /// Heartbeat answer.
    Pong {
        /// The probe's nonce.
        nonce: u64,
        /// Cumulative solves this incarnation, for metrics.
        solves: u64,
        /// Cumulative contained solve panics this incarnation.
        solve_panics: u64,
        /// Span clock at send time, refreshing the alignment offset.
        now_micros: u64,
        /// Full registry snapshot for federation — full snapshots, not
        /// deltas, so a dropped pong costs staleness of one heartbeat,
        /// never correctness. `None` when it equals the last one this
        /// incarnation sent (the front-end keeps that one); a fresh
        /// incarnation always sends its first.
        metrics: Option<MetricsSnapshot>,
    },
    /// Answer to a [`ToWorker::Req`].
    Resp {
        /// The request's `seq`, echoed.
        seq: u64,
        /// What happened.
        result: WorkerResult,
    },
    /// Low-rate observability shipment: completed spans since the last
    /// `Obs` frame (cursor-tracked, so never re-sent and never lost)
    /// plus trace bindings linking worker solve roots to front-end
    /// request spans. Only emitted when the worker was started with
    /// `--obs-spans`.
    Obs {
        /// Span clock at send time (clock alignment, as in `Pong`).
        now_micros: u64,
        /// Completed spans, worker-local ids, worker clock domain.
        spans: Vec<WireSpan>,
        /// Solve-root → front-end parent links for the spans above.
        bindings: Vec<SpanBinding>,
        /// Cumulative spans dropped by the worker's full buffer.
        dropped: u64,
        /// Registry snapshot, same semantics as in `Pong`.
        metrics: Option<MetricsSnapshot>,
    },
}

/// One completed span on the wire (an owned [`aa_obs::SpanEvent`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireSpan {
    /// Span name.
    pub name: String,
    /// Start, µs since the worker's collector epoch.
    pub start_micros: u64,
    /// Duration, µs.
    pub duration_micros: u64,
    /// Worker-local thread id.
    pub thread_id: u64,
    /// Worker-local span id (never 0, always < 2⁵³).
    pub id: u64,
    /// Worker-local parent id; 0 for roots.
    pub parent_id: u64,
    /// The span's named numbers ([`aa_obs::SpanGuard::set_args`]).
    pub args: Vec<(String, u64)>,
}

/// Links one worker-local solve-root span to the front-end request
/// span it belongs under.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpanBinding {
    /// Worker-local id of the solve root span.
    pub span: u64,
    /// The request's trace id (echo of [`TraceCtx::trace_id`]).
    pub trace_id: u64,
    /// Front-end span id to parent under (echo of
    /// [`TraceCtx::parent_span`]).
    pub parent_span: u64,
}

/// A full worker registry snapshot for metrics federation: flat export
/// keys and values, histograms as raw log-linear bucket parts
/// (boundaries are a protocol constant shared by both sides).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter `(export key, cumulative value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(export key, last value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram parts.
    pub histograms: Vec<WireHistogram>,
}

/// One histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireHistogram {
    /// The export key (`name` or `name{k="v"}`).
    pub key: String,
    /// Per-bucket counts — `aa_obs::metrics::NUM_BOUNDARIES + 1`
    /// entries; receivers discard snapshots with any other length.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_micros: u64,
    /// Largest observation, µs.
    pub max_micros: u64,
}

impl MetricsSnapshot {
    /// Capture `registry`'s local entries as a wire snapshot.
    #[must_use]
    pub fn from_registry(registry: &aa_obs::Registry) -> MetricsSnapshot {
        let fed = registry.to_federated();
        MetricsSnapshot {
            counters: fed.counters,
            gauges: fed.gauges,
            histograms: fed
                .histograms
                .into_iter()
                .map(|h| WireHistogram {
                    key: h.key,
                    buckets: h.buckets,
                    count: h.count,
                    sum_micros: h.sum_micros,
                    max_micros: h.max_micros,
                })
                .collect(),
        }
    }

    /// Convert into the `aa-obs` federation type for merging.
    #[must_use]
    pub fn into_federated(self) -> aa_obs::FederatedSnapshot {
        aa_obs::FederatedSnapshot {
            counters: self.counters,
            gauges: self.gauges,
            histograms: self
                .histograms
                .into_iter()
                .map(|h| aa_obs::FederatedHistogram {
                    key: h.key,
                    buckets: h.buckets,
                    count: h.count,
                    sum_micros: h.sum_micros,
                    max_micros: h.max_micros,
                })
                .collect(),
        }
    }
}

/// The outcome of one worker-side solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkerResult {
    /// Solved.
    Ok {
        /// Ladder tier that produced the answer.
        tier: String,
        /// Whether the answer came from a degraded (non-top) tier.
        degraded: bool,
        /// Total utility of the assignment.
        utility: f64,
        /// Thread → server assignment.
        server: Vec<usize>,
        /// Thread → resource allocation.
        allocation: Vec<f64>,
        /// Solve latency in microseconds.
        solve_micros: u64,
    },
    /// Not solved; `class` matches the serve tier's error classes
    /// (`deadline`, `solve`, `internal`, `shutdown`).
    Err {
        /// Error class, for the client's retry decision.
        class: String,
        /// Human-readable detail.
        error: String,
        /// Time spent before failing, in microseconds.
        solve_micros: u64,
        /// True when the budget expired while queued in the worker
        /// (never started solving).
        queue_expired: bool,
    },
}

/// A worker's answer as the front-end relays it.
#[derive(Debug)]
pub(crate) enum Answer {
    /// [`WorkerResult::Ok`], its members from `tier` through `allocation`
    /// kept as text.
    Ok {
        /// Ladder tier that produced the answer.
        tier: String,
        /// The members the client's `ok` line carries as they are.
        body: Body,
        /// Solve latency in microseconds.
        solve_micros: u64,
    },
    /// [`WorkerResult::Err`].
    Err { class: String, error: String, queue_expired: bool },
}

/// A solved answer's members from `"tier"` through the `allocation`
/// array, as JSON text: `text[range]`, where `text` is the buffer they
/// were written or read in (a whole `Resp` frame, on a process link).
#[derive(Debug)]
pub(crate) struct Body {
    text: String,
    range: Range<usize>,
}

impl Body {
    /// The members' text.
    pub(crate) fn as_str(&self) -> &str {
        &self.text[self.range.clone()]
    }

    /// A body written by `write` into a buffer of its own.
    fn written(capacity: usize, write: impl FnOnce(&mut String)) -> Body {
        let mut text = String::with_capacity(capacity);
        write(&mut text);
        Body { range: 0..text.len(), text }
    }
}

impl Answer {
    /// One shard completion's answer; a solve's body is written here, on
    /// the thread that solved it.
    pub(crate) fn of(outcome: Result<TieredSolve, ShardError>, solve_micros: u64) -> Answer {
        match outcome {
            Ok(solve) => Answer::Ok {
                tier: solve.degradation.tier.name().to_string(),
                body: Body::written(body_capacity(solve.assignment.server.len()), |out| {
                    write_solve(out, &solve);
                }),
                solve_micros,
            },
            Err(e) => {
                let (class, error, queue_expired) = failure(&e);
                Answer::Err { class: class.to_string(), error, queue_expired }
            }
        }
    }
}

impl From<WorkerResult> for Answer {
    /// A decoded result's answer: the members written as the worker's
    /// own frame writes them.
    fn from(result: WorkerResult) -> Answer {
        match result {
            WorkerResult::Ok { tier, degraded, utility, server, allocation, solve_micros } => {
                let body = Body::written(body_capacity(server.len()), |out| {
                    write_body(out, &tier, degraded, utility, &server, &allocation);
                });
                Answer::Ok { tier, body, solve_micros }
            }
            WorkerResult::Err { class, error, queue_expired, .. } => {
                Answer::Err { class, error, queue_expired }
            }
        }
    }
}

/// A body's size guess for `n` threads: a server index, an allocation
/// and two commas each, plus the other members.
fn body_capacity(n: usize) -> usize {
    24 * n + 96
}

/// A failed or refused request's `(class, error, queue_expired)`, as its
/// [`WorkerResult::Err`] carries them.
fn failure(e: &ShardError) -> (&'static str, String, bool) {
    let error = match e {
        ShardError::Expired => "budget expired while queued in worker".to_string(),
        e => e.to_string(),
    };
    (e.class(), error, matches!(e, ShardError::Expired))
}

/// [`write_body`] of a solve.
fn write_solve(out: &mut String, solve: &TieredSolve) {
    let (tier, degraded) = (solve.degradation.tier.name(), solve.degradation.degraded);
    let a = &solve.assignment;
    write_body(out, tier, degraded, solve.utility, &a.server, &a.amount);
}

/// Append [`WorkerResult::Ok`]'s members from `tier` through
/// `allocation`, as its serializer writes them.
fn write_body(
    out: &mut String,
    tier: &str,
    degraded: bool,
    utility: f64,
    server: &[usize],
    allocation: &[f64],
) {
    out.push_str(r#""tier":"#);
    serde_json::write_str(tier, out);
    out.push_str(r#","degraded":"#);
    out.push_str(if degraded { "true" } else { "false" });
    out.push_str(r#","utility":"#);
    serde_json::write_num(utility, out);
    out.push_str(r#","server":["#);
    #[allow(clippy::cast_precision_loss)]
    write_items(out, server, |&s, out| serde_json::write_num(s as f64, out));
    out.push_str(r#"],"allocation":["#);
    write_items(out, allocation, |&x, out| serde_json::write_num(x, out));
    out.push(']');
}

/// `items`, comma-separated.
fn write_items<T>(out: &mut String, items: &[T], write: impl Fn(&T, &mut String)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
}

/// The worker's [`FromWorker::Resp`] frame for one shard completion,
/// written straight from the solve: its payload equals
/// `serde_json::to_string` of the `Resp` whose result is the completion's
/// [`WorkerResult`].
#[allow(clippy::cast_precision_loss)]
pub(crate) fn resp_frame(
    seq: u64,
    outcome: &Result<TieredSolve, ShardError>,
    solve_micros: u64,
) -> Frame {
    let n = outcome.as_ref().map_or(0, |s| s.assignment.server.len());
    let mut frame = Frame::with_capacity(body_capacity(n) + 96);
    let out = &mut frame.0;
    out.push_str(r#"{"type":"resp","seq":"#);
    serde_json::write_num(seq as f64, out);
    let micros = |out: &mut String| {
        out.push_str(r#","solve_micros":"#);
        serde_json::write_num(solve_micros as f64, out);
    };
    match outcome {
        Ok(solve) => {
            out.push_str(r#","result":{"kind":"ok","#);
            write_solve(out, solve);
            micros(out);
        }
        Err(e) => {
            let (class, error, queue_expired) = failure(e);
            out.push_str(r#","result":{"kind":"err","class":"#);
            serde_json::write_str(class, out);
            out.push_str(r#","error":"#);
            serde_json::write_str(&error, out);
            micros(out);
            out.push_str(r#","queue_expired":"#);
            out.push_str(if queue_expired { "true" } else { "false" });
        }
    }
    out.push_str("}}");
    frame
}


/// A [`FromWorker`] frame as the front-end reads it.
#[derive(Debug)]
pub(crate) enum Received {
    /// A `Resp` frame the one walk took, its answer's body kept as the
    /// frame's own bytes.
    Resp { seq: u64, answer: Answer },
    /// Any other frame, or a `Resp` the walk declined, decoded whole.
    Frame(FromWorker),
}

/// Read one frame payload from a worker. `None` — bad JSON, an unknown
/// type, a missing or mistyped field — is a protocol violation.
///
/// A `Resp` frame as the worker writes it ([`resp_frame`]) is read in one
/// walk ([`walk_resp`]); every other frame, and a `Resp` that walk
/// declines, goes through the typed decode.
pub(crate) fn decode_from_worker(payload: String) -> Option<Received> {
    let Some((seq, walked)) = walk_resp(&payload) else {
        return serde_json::from_str(&payload).ok().map(Received::Frame);
    };
    let answer = match walked {
        Walked::Ok { tier, body, solve_micros } => {
            Answer::Ok { tier, body: Body { text: payload, range: body }, solve_micros }
        }
        Walked::Err { class, error, queue_expired } => Answer::Err { class, error, queue_expired },
    };
    Some(Received::Resp { seq, answer })
}

/// What [`walk_resp`] read: an [`Answer`] whose body is still a range of
/// the walked text.
enum Walked {
    Ok { tier: String, body: Range<usize>, solve_micros: u64 },
    Err { class: String, error: String, queue_expired: bool },
}

/// One [`Reader`] walk over a `Resp` frame whose members come in the
/// order the serializer writes them. Every value is checked as the typed
/// decode of [`FromWorker`] checks it, but only `seq`, `kind`, `tier` and
/// `solve_micros` (and an error's members) are decoded: a solve's members
/// from `"tier"` through the `allocation` array are returned as their
/// byte range. `None` declines: another frame type, a member out of
/// order, unknown, repeated or mistyped, bytes after the closing `}`, or
/// a number in the body whose text would not read back as the value the
/// typed decode gives it (an infinite value, or a negative zero).
fn walk_resp(payload: &str) -> Option<(u64, Walked)> {
    let mut r = Reader::new(payload);
    let more = r.enter(b'{').ok()?;
    let mut m = InOrder { r, more };
    if m.next::<String>("type")? != "resp" {
        return None;
    }
    let seq = m.next("seq")?;
    m.key("result")?;
    let more = m.r.enter(b'{').ok()?;
    let mut m = InOrder { r: m.r, more };
    let walked = match m.next::<String>("kind")?.as_str() {
        "ok" => {
            m.r.skip_ws();
            let start = m.r.pos();
            let tier = m.next("tier")?;
            m.next::<bool>("degraded")?;
            m.key("utility")?;
            relayed_number(&mut m.r)?;
            m.after()?;
            m.key("server")?;
            items(&mut m.r, |r| {
                // A negative zero reads as server 0 but prints as `0`.
                (r.peek() != Some(b'-')).then_some(())?;
                usize::from_json(r).map(drop)
            })?;
            m.after()?;
            m.key("allocation")?;
            items(&mut m.r, relayed_number)?;
            let end = m.r.pos();
            m.after()?;
            Walked::Ok { tier, body: start..end, solve_micros: m.next("solve_micros")? }
        }
        "err" => {
            let (class, error) = (m.next("class")?, m.next("error")?);
            m.next::<u64>("solve_micros")?;
            Walked::Err { class, error, queue_expired: m.next("queue_expired")? }
        }
        _ => return None,
    };
    // Both objects closed, and nothing after them.
    (!m.more && !m.r.more(b'}').ok()? && m.r.at_end()).then_some((seq, walked))
}

/// The reader's next value is an array; each item passes `item`.
fn items(r: &mut Reader<'_>, mut item: impl FnMut(&mut Reader<'_>) -> Option<()>) -> Option<()> {
    let mut more = r.enter(b'[').ok()?;
    while more {
        item(r)?;
        more = r.more(b']').ok()?;
    }
    Some(())
}

/// The reader's next value decodes as an `f64` whose text reads back as
/// that value: `null` (NaN, which prints as `null`) or a finite number
/// other than a negative zero (which prints as `0`).
fn relayed_number(r: &mut Reader<'_>) -> Option<()> {
    let x = f64::from_json(r)?;
    let negative_zero = x == 0.0 && x.is_sign_negative();
    (!x.is_infinite() && !negative_zero).then_some(())
}

/// The JSON crate's seeded document mutator (reordered, duplicated,
/// unknown and missing members, odd numbers and escapes, trailing
/// bytes, truncation), for the decode differential below.
#[cfg(test)]
#[path = "../../../vendor/serde_json/tests/support/differential.rs"]
#[allow(dead_code)] // the typed differential's `agree` is not needed here
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_core::{Previous, Problem};
    use aa_utility::{DynUtility, UtilitySpec};
    use super::differential::mutated_text;
    use crate::build_problem_from;
    use crate::serve::{build_request, parse_problem};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // The request-frame tests compare a frame's payload with the
    // serializer's text.
    impl PartialEq<String> for Frame {
        fn eq(&self, other: &String) -> bool {
            **self == **other
        }
    }

    impl std::fmt::Debug for Frame {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            std::fmt::Debug::fmt(&**self, f)
        }
    }

    fn round_trip_to(msg: &ToWorker) -> ToWorker {
        serde_json::from_str(&serde_json::to_string(msg).unwrap()).unwrap()
    }

    fn round_trip_from(msg: &FromWorker) -> FromWorker {
        serde_json::from_str(&serde_json::to_string(msg).unwrap()).unwrap()
    }

    #[test]
    fn requests_round_trip_with_and_without_options() {
        let problem = ProblemFile {
            servers: 2,
            capacity: 8.0,
            threads: vec![
                UtilitySpec::Power { scale: 1.0, beta: 0.5, cap: 8.0 },
                UtilitySpec::Log { scale: 2.0, rate: 0.9, cap: 8.0 },
            ],
        };
        let full = ToWorker::Req {
            seq: 42,
            stream: Some(7),
            budget_ms: Some(100),
            trace: Some(TraceCtx { trace_id: 9, parent_span: 31 }),
            problem: problem.clone(),
        };
        match round_trip_to(&full) {
            ToWorker::Req { seq, stream, budget_ms, trace, problem: p } => {
                assert_eq!((seq, stream, budget_ms), (42, Some(7), Some(100)));
                let trace = trace.expect("trace ctx survives");
                assert_eq!((trace.trace_id, trace.parent_span), (9, 31));
                assert_eq!(p.servers, problem.servers);
                assert_eq!(p.threads.len(), problem.threads.len());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let bare =
            ToWorker::Req { seq: 0, stream: None, budget_ms: None, trace: None, problem };
        match round_trip_to(&bare) {
            ToWorker::Req { stream, budget_ms, trace, .. } => {
                assert_eq!((stream, budget_ms), (None, None));
                assert!(trace.is_none());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_to(&ToWorker::Ping { nonce: 9 }) {
            ToWorker::Ping { nonce } => assert_eq!(nonce, 9),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    fn sample_problem() -> ProblemFile {
        ProblemFile {
            servers: 2,
            capacity: 100.0,
            threads: vec![
                UtilitySpec::Power { scale: 1.5, beta: 0.5, cap: 100.0 },
                UtilitySpec::Log { scale: 2.0, rate: 0.9, cap: 100.0 },
            ],
        }
    }

    #[test]
    fn spliced_request_frames_match_the_serializer_byte_for_byte() {
        let problem = sample_problem();
        let text = serde_json::to_string(&problem).unwrap();
        let trace = Some(TraceCtx { trace_id: 9, parent_span: 31 });
        for (seq, stream, budget_ms, trace) in
            [(42, Some(7), Some(100), trace), (0, None, None, None), (1 << 40, Some(0), Some(0), None)]
        {
            let spliced = encode_req(seq, stream, budget_ms, trace, &text);
            let msg = ToWorker::Req { seq, stream, budget_ms, trace, problem: problem.clone() };
            assert_eq!(spliced, serde_json::to_string(&msg).unwrap());
        }
    }

    #[test]
    fn spliced_problem_text_decodes_like_the_canonical_frame() {
        // Whitespace and another spelling of each number: the client's
        // text crosses verbatim and still decodes to the same request.
        let text = r#" { "servers" : 2.0e0, "capacity":1.0e2, "threads" : [
            {"kind":"power","scale":15e-1,"beta":0.50,"cap":100},
            {"cap":1E2,"kind":"log","scale":2,"rate":0.9} ] } "#;
        let trace = Some(TraceCtx { trace_id: 3, parent_span: 4 });
        let spliced = encode_req(5, Some(6), Some(7), trace, text.trim());
        let canonical = serde_json::to_string(&ToWorker::Req {
            seq: 5,
            stream: Some(6),
            budget_ms: Some(7),
            trace,
            problem: sample_problem(),
        })
        .unwrap();
        let decoded: ToWorker = serde_json::from_str(&spliced).unwrap();
        assert_eq!(serde_json::to_string(&decoded).unwrap(), canonical);
        // The worker's read sees the same header, and passes the
        // client's text on as it came.
        match decode_to_worker(&spliced) {
            Some(Inbound::Req { seq, stream, budget_ms, trace, problem }) => {
                assert_eq!((seq, stream, budget_ms), (5, Some(6), Some(7)));
                assert_eq!(trace.map(|t| (t.trace_id, t.parent_span)), Some((3, 4)));
                assert_eq!(&spliced[problem], text.trim());
            }
            other => panic!("wrong frame: {other:?}"),
        }
        match decode_to_worker(&serde_json::to_string(&ToWorker::Ping { nonce: 8 }).unwrap()) {
            Some(Inbound::Ping { nonce: 8 }) => {}
            other => panic!("wrong frame: {other:?}"),
        }
        // A broken header is a protocol violation, and so is a frame
        // without its closing `}`; a broken problem is not the header's
        // business.
        assert!(decode_to_worker(r#"{"type":"req","seq":"x","stream":null,"budget_ms":null,"trace":null,"problem":{}}"#).is_none());
        assert!(decode_to_worker(r#"{"type":"bogus"}"#).is_none());
        assert!(decode_to_worker(r#"{"type":"req","seq":1,"stream":null,"budget_ms":null,"trace":null,"problem":1"#).is_none());
        assert!(decode_to_worker(r#"{"type":"req","seq":1,"stream":null,"budget_ms":null,"trace":null,"problem":"x"}"#).is_some());
        assert!(decode_to_worker(r#"{"type":"req","seq":1,"stream":null,"budget_ms":null,"trace":null,"problem":[}"#).is_some());
    }

    /// A frame's header as `Debug` text, its problem left out.
    fn header(msg: &Option<Inbound>) -> String {
        match msg {
            Some(Inbound::Req { seq, stream, budget_ms, trace, .. }) => {
                let trace = trace.map(|t| (t.trace_id, t.parent_span));
                format!("req {seq} {stream:?} {budget_ms:?} {trace:?}")
            }
            other => format!("{other:?}"),
        }
    }

    /// The worker's read of `frame` against the scan oracle, and whether
    /// the one walk takes it (`walks`). A frame the walk declines reads
    /// as the scan reads it. One it takes has the header the scan gives
    /// the frame with its problem replaced by `null`, and passes every
    /// byte after `"problem":` up to the closing `}` on as the problem —
    /// the scan's own problem text, up to whitespace, when the frame
    /// scans and its problem is the last member.
    fn reads_like_the_scan(frame: &str, walks: bool) {
        let got = decode_to_worker(frame);
        assert_eq!(decode_in_order(frame).is_some(), walks, "on {frame:?}");
        let scanned = decode_scanned(frame);
        let Some(Inbound::Req { problem, .. }) = decode_in_order(frame) else {
            assert_eq!(format!("{got:?}"), format!("{scanned:?}"), "on {frame:?}");
            return;
        };
        assert_eq!(problem.end, frame.len() - 1, "on {frame:?}");
        let (head, problem) = (&frame[..problem.start], &frame[problem]);
        let nulled = format!("{head}null}}");
        let oracle = decode_scanned(&nulled);
        let null = matches!(&oracle, Some(Inbound::Req { problem, .. }) if &nulled[problem.clone()] == "null");
        assert!(null, "on {frame:?}");
        assert_eq!(header(&got), header(&oracle), "on {frame:?}");
        if let Some(Inbound::Req { problem: raw, .. }) = &scanned {
            if frame[raw.clone()] == *problem.trim_matches(|c: char| c.is_ascii_whitespace()) {
                assert_eq!(header(&got), header(&scanned), "on {frame:?}");
            }
        }
    }

    #[test]
    fn front_end_frames_take_the_one_walk() {
        let text = serde_json::to_string(&sample_problem()).unwrap();
        let trace = Some(TraceCtx { trace_id: 9, parent_span: 31 });
        for (seq, stream, budget_ms, trace) in
            [(42, Some(7), Some(100), trace), (0, None, None, None)]
        {
            reads_like_the_scan(&encode_req(seq, stream, budget_ms, trace, &text), true);
        }
        let ping = serde_json::to_string(&ToWorker::Ping { nonce: 8 }).unwrap();
        reads_like_the_scan(&ping, true);
        // A problem that breaks its schema or its syntax crosses as it
        // came; the build answers it.
        for bad in [r#"{"servers":2,"capacity":8.0,"threads":"x"}"#, r#"{"servers":2,"#, "", "}"] {
            let frame = encode_req(1, None, None, None, bad);
            reads_like_the_scan(&frame, true);
            let read = decode_to_worker(&frame);
            let passed = matches!(&read, Some(Inbound::Req { problem, .. }) if &frame[problem.clone()] == bad);
            assert!(passed, "{read:?}");
        }
    }

    #[test]
    fn frames_the_walk_declines_decode_through_the_scan() {
        let p = serde_json::to_string(&sample_problem()).unwrap();
        let header = r#""seq":1,"stream":null,"budget_ms":5,"trace":null"#;
        let declined = [
            // Reordered header keys.
            format!(r#"{{"seq":1,"type":"req","stream":null,"budget_ms":5,"trace":null,"problem":{p}}}"#),
            format!(r#"{{"type":"req","stream":null,"seq":1,"budget_ms":5,"trace":null,"problem":{p}}}"#),
            r#"{"nonce":3,"type":"ping"}"#.to_string(),
            // Unknown and missing members.
            format!(r#"{{"type":"req",{header},"extra":[1],"problem":{p}}}"#),
            r#"{"type":"ping","nonce":3,"extra":null}"#.to_string(),
            format!(r#"{{"type":"req","seq":1,"stream":null,"budget_ms":5,"problem":{p}}}"#),
            format!(r#"{{"type":"req",{header}}}"#),
            // Garbage after the closing `}`, and frames cut after a `,`.
            format!(r#"{{"type":"req",{header},"problem":{p}}}x"#),
            format!(r#"{{"type":"req",{header},"problem":{p},"#),
            r#"{"type":"ping","nonce":3,"#.to_string(),
            r#"{"type":"ping","nonce":3}{}"#.to_string(),
            // A mistyped header field, an unknown type, not an object.
            format!(r#"{{"type":"req","seq":"1","stream":null,"budget_ms":5,"trace":null,"problem":{p}}}"#),
            r#"{"type":"pong","nonce":3}"#.to_string(),
            "[1]".to_string(),
            String::new(),
        ];
        for frame in &declined {
            reads_like_the_scan(frame, false);
        }
        // The problem is the last member: whatever follows it up to the
        // closing `}` is its text, for the build to answer.
        let taken = [
            format!(r#"{{"type":"req",{header},"problem":{p},"type":"ping"}}"#),
            format!(r#"{{"type":"req",{header},"problem":{p},"problem":{{}}}}"#),
            format!(r#"{{"type":"req",{header},"problem":{p}}}{{}}"#),
            format!(r#"{{"type":"req",{header},"problem":{{"servers":-1,"capacity":8,"threads":[]}}}}"#),
            format!(r#"{{"type":"req",{header},"problem":{{"servers":2,"capacity":8.0,"threads":[}}}}"#),
            format!(r#"{{"type":"req",{header},"problem":{{"servers":01}}}}"#),
            format!("{{ \"type\" : \"req\" ,{header},\n\"problem\":{p} }}"),
        ];
        for frame in &taken {
            reads_like_the_scan(frame, true);
        }
    }

    fn random_problem(rng: &mut StdRng) -> ProblemFile {
        let cap = rng.gen_range(1.0..100.0);
        let points = |rng: &mut StdRng| {
            (0..rng.gen_range(2..4usize))
                .map(|i| (i as f64, i as f64 * rng.gen_range(0.0..3.0)))
                .collect()
        };
        ProblemFile {
            servers: rng.gen_range(1..5usize),
            capacity: cap,
            threads: (0..rng.gen_range(0..5usize))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => UtilitySpec::Power { scale: rng.gen_range(0.0..5.0), beta: 0.5, cap },
                    1 => UtilitySpec::Log { scale: 1.0, rate: rng.gen_range(0.0..2.0), cap },
                    _ => UtilitySpec::Pchip { points: points(rng) },
                })
                .collect(),
        }
    }

    fn maybe_u64(rng: &mut StdRng) -> Option<u64> {
        rng.gen_bool(0.5).then(|| rng.gen_range(0..1u64 << 53))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn mutated_frames_decode_like_the_scan(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = rng.gen_range(0..1000u64);
            let (stream, budget_ms) = (maybe_u64(&mut rng), maybe_u64(&mut rng));
            let trace = rng.gen_bool(0.5).then_some(TraceCtx { trace_id: 7, parent_span: 9 });
            let problem = random_problem(&mut rng);
            if rng.gen_bool(1.0 / 3.0) {
                // The whole frame mutated.
                let msg = if rng.gen_bool(0.2) {
                    ToWorker::Ping { nonce: rng.gen_range(0..1000u64) }
                } else {
                    ToWorker::Req { seq, stream, budget_ms, trace, problem }
                };
                let frame = mutated_text(&msg, &mut rng);
                reads_like_the_scan(&frame, decode_in_order(&frame).is_some());
            } else {
                // The front-end's frame around a mutated client problem:
                // the header as written, the problem as the client sent it.
                let text = mutated_text(&problem, &mut rng);
                let frame = encode_req(seq, stream, budget_ms, trace, &text);
                reads_like_the_scan(&frame, true);
                let Some(Inbound::Req { problem: got, .. }) = decode_to_worker(&frame) else {
                    panic!("a front-end frame is a request: {frame:?}");
                };
                prop_assert_eq!(&frame[got], text.as_str());
                // The build answers that text as `parse_problem` then
                // `build_problem_from` do: for a new stream, and for one
                // that keeps the unmutated problem's text and threads.
                let text = Arc::new(text);
                builds_like_parse_then_build(&text, Previous::default());
                let clean = Arc::new(serde_json::to_string(&problem).unwrap());
                if let Ok((built, Some(kept))) = build_request(&clean, Previous::default()) {
                    let previous = Previous { threads: built.threads(), text: Some(&kept) };
                    builds_like_parse_then_build(&text, previous);
                }
            }
        }
    }

    /// [`build_request`] on `text` against `previous` answers as a parse
    /// of the whole text then [`build_problem_from`] do: the same class
    /// and error text, or the same problem (by `Debug`, so a NaN matches
    /// itself) reusing the same previous thread objects.
    fn builds_like_parse_then_build(text: &Arc<String>, previous: Previous<'_>) {
        let reused = |p: &Problem| -> Vec<bool> {
            let same = |(a, b): (&DynUtility, &DynUtility)| Arc::ptr_eq(a, b);
            p.threads().iter().zip(previous.threads).map(same).collect()
        };
        let read = |r: Result<Problem, (&'static str, String)>| {
            r.map(|p| (format!("{p:?}"), reused(&p)))
        };
        let got = read(build_request(text, previous).map(|(p, _)| p));
        let oracle = read(parse_problem(text).and_then(|file| {
            build_problem_from(&file, previous.threads).map_err(|e| ("problem", e.to_string()))
        }));
        assert_eq!(got, oracle, "on {text:?}");
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let ok = FromWorker::Resp {
            seq: 3,
            result: WorkerResult::Ok {
                tier: "algo2".into(),
                degraded: false,
                utility: 12.345678901234567,
                server: vec![0, 1, 0],
                allocation: vec![4.0, 8.0, 4.0],
                solve_micros: 57,
            },
        };
        match round_trip_from(&ok) {
            FromWorker::Resp { seq: 3, result: WorkerResult::Ok { utility, .. } } => {
                // f64 must survive the JSON hop bit-exactly: the fleet's
                // bit-identity acceptance depends on it.
                assert_eq!(utility.to_bits(), 12.345678901234567f64.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let err = FromWorker::Resp {
            seq: 4,
            result: WorkerResult::Err {
                class: "deadline".into(),
                error: "budget expired in queue".into(),
                solve_micros: 0,
                queue_expired: true,
            },
        };
        match round_trip_from(&err) {
            FromWorker::Resp { result: WorkerResult::Err { class, queue_expired, .. }, .. } => {
                assert_eq!(class, "deadline");
                assert!(queue_expired);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_from(&FromWorker::Hello { worker: 2, pid: 4242, now_micros: 777 }) {
            FromWorker::Hello { worker, pid, now_micros } => {
                assert_eq!((worker, pid, now_micros), (2, 4242, 777));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn obs_frames_round_trip_spans_bindings_and_metrics() {
        let snap = MetricsSnapshot {
            counters: vec![("aa_worker_solves_total".into(), 12)],
            gauges: vec![("aa_queue_depth".into(), 1.5)],
            histograms: vec![WireHistogram {
                key: "aa_worker_solve_micros".into(),
                buckets: vec![0; aa_obs::metrics::NUM_BOUNDARIES + 1],
                count: 0,
                sum_micros: 0,
                max_micros: 0,
            }],
        };
        let obs = FromWorker::Obs {
            now_micros: 1_000_000,
            spans: vec![WireSpan {
                name: "fleet_solve".into(),
                start_micros: 500,
                duration_micros: 120,
                thread_id: 3,
                id: 41,
                parent_id: 0,
                args: vec![("threads".into(), 512)],
            }],
            bindings: vec![SpanBinding { span: 41, trace_id: 9, parent_span: 31 }],
            dropped: 2,
            metrics: Some(snap),
        };
        match round_trip_from(&obs) {
            FromWorker::Obs { now_micros, spans, bindings, dropped, metrics } => {
                assert_eq!(now_micros, 1_000_000);
                assert_eq!(spans.len(), 1);
                assert_eq!(spans[0].name, "fleet_solve");
                assert_eq!((spans[0].id, spans[0].parent_id), (41, 0));
                assert_eq!(spans[0].args, vec![("threads".to_string(), 512)]);
                assert_eq!(bindings[0].parent_span, 31);
                assert_eq!(dropped, 2);
                let m = metrics.expect("metrics survive");
                assert_eq!(m.counters, vec![("aa_worker_solves_total".to_string(), 12)]);
                assert_eq!(m.gauges[0].1, 1.5);
                assert_eq!(m.histograms[0].buckets.len(), aa_obs::metrics::NUM_BOUNDARIES + 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A pong carrying a federation snapshot round-trips too; one
        // without stays None (the single-process tier never federates).
        let pong = FromWorker::Pong {
            nonce: 5,
            solves: 3,
            solve_panics: 0,
            now_micros: 42,
            metrics: None,
        };
        match round_trip_from(&pong) {
            FromWorker::Pong { nonce, now_micros, metrics, .. } => {
                assert_eq!((nonce, now_micros), (5, 42));
                assert!(metrics.is_none());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let fed = MetricsSnapshot::from_registry(&{
            let r = aa_obs::Registry::new();
            r.counter("aa_t_total").add(4);
            r.histogram("aa_h_micros").record_micros(10);
            r
        });
        assert_eq!(fed.counters, vec![("aa_t_total".to_string(), 4)]);
        let back = fed.into_federated();
        assert_eq!(back.histograms[0].count, 1);
    }

    // ---- answers relayed as bytes ----

    /// A double drawn to hit every branch of the number writer: NaN, ±∞,
    /// −0.0, integral values on both sides of 2⁵³, subnormals, fractions.
    fn number(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..9u32) {
            0 => f64::NAN,
            1 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
            2 => -0.0,
            3 => (rng.gen_range(1..1u64 << 40) as f64) * 2f64.powi(rng.gen_range(14..60)),
            4 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            5 => rng.gen_range(-1e6..1e6f64).round(),
            6 => f64::from_bits(rng.gen()),
            _ => rng.gen_range(0.0..100.0),
        }
    }

    fn solve(rng: &mut StdRng) -> TieredSolve {
        let n = rng.gen_range(0..6usize);
        let server = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..1usize << 60),
                _ => rng.gen_range(0..16usize),
            })
            .collect();
        // A real solve's report, its fields redrawn.
        let mut solve = solved().clone();
        solve.assignment = aa_core::Assignment { server, amount: (0..n).map(|_| number(rng)).collect() };
        solve.utility = number(rng);
        solve.degradation.tier = aa_core::Tier::ALL[rng.gen_range(0..aa_core::Tier::ALL.len())];
        solve.degradation.degraded = rng.gen_bool(0.5);
        solve
    }

    /// One tiered solve of a one-thread problem.
    fn solved() -> &'static TieredSolve {
        static SOLVED: std::sync::OnceLock<TieredSolve> = std::sync::OnceLock::new();
        SOLVED.get_or_init(|| {
            let problem = crate::build_problem(&sample_problem()).unwrap();
            let solver = aa_core::TieredSolver::with_ladder(vec![aa_core::Tier::Uu]);
            solver.try_solve_within_caught(&problem, &aa_core::Budget::unlimited(), None).unwrap()
        })
    }

    fn shard_error(rng: &mut StdRng) -> ShardError {
        use aa_core::SolveError;
        let text = ["", "plain", "quote\"back\\slash\nline", "é → 𝄞", "ctl\u{1}"];
        let text = text[rng.gen_range(0..text.len())].to_string();
        match rng.gen_range(0..5u32) {
            0 => ShardError::Expired,
            1 => ShardError::Refused { class: "parse", error: text },
            2 => ShardError::Solve(SolveError::Panicked(text)),
            3 => ShardError::Solve(SolveError::DeadlineExceeded),
            _ => ShardError::Solve(SolveError::NonFiniteUtility { thread: rng.gen_range(0..9usize) }),
        }
    }

    /// A completion's [`WorkerResult`] as the tree path built it: the
    /// solve's fields, or the error's class and text (an expiry in the
    /// worker's own words).
    fn tree_result(outcome: &Result<TieredSolve, ShardError>, solve_micros: u64) -> WorkerResult {
        match outcome {
            Ok(s) => WorkerResult::Ok {
                tier: s.degradation.tier.name().to_string(),
                degraded: s.degradation.degraded,
                utility: s.utility,
                server: s.assignment.server.clone(),
                allocation: s.assignment.amount.clone(),
                solve_micros,
            },
            Err(e) => WorkerResult::Err {
                class: e.class().to_string(),
                error: match e {
                    ShardError::Expired => "budget expired while queued in worker".to_string(),
                    e => e.to_string(),
                },
                solve_micros,
                queue_expired: matches!(e, ShardError::Expired),
            },
        }
    }

    /// A client id: a string, an object, `null`, a number or an array.
    fn client_id(rng: &mut StdRng) -> serde_json::Value {
        use serde_json::Value;
        match rng.gen_range(0..5u32) {
            0 => Value::Str(["req-1", "", "quote\"é\n"][rng.gen_range(0..3usize)].to_string()),
            1 => Value::Obj(vec![
                ("k".to_string(), Value::Num(number(rng))),
                ("nested".to_string(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ]),
            2 => Value::Null,
            3 => Value::Num(number(rng)),
            _ => Value::Arr(vec![Value::Str("a".into()), Value::Num(7.0)]),
        }
    }

    /// The `ok` line the tree path wrote for `result`: `ServeResponse::Ok`'s
    /// tree plus `worker`, `attempts` and `solve_micros`, serialized.
    fn tree_line(id: &serde_json::Value, result: &WorkerResult, latency_ms: f64, routed: (usize, u32)) -> String {
        use serde_json::Value;
        let WorkerResult::Ok { tier, degraded, utility, server, allocation, solve_micros } = result else {
            panic!("only a solve has an ok line");
        };
        let line = crate::serve::ServeResponse::Ok {
            id: id.clone(),
            tier: tier.clone(),
            degraded: *degraded,
            utility: *utility,
            server: server.clone(),
            allocation: allocation.clone(),
            latency_ms,
        };
        let mut v = line.to_value();
        let Value::Obj(fields) = &mut v else { panic!("an ok line is an object") };
        fields.push(("worker".to_string(), routed.0.to_value()));
        fields.push(("attempts".to_string(), routed.1.to_value()));
        fields.push(("solve_micros".to_string(), solve_micros.to_value()));
        format!("{}\n", serde_json::to_string(&v).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        #[test]
        fn answers_cross_as_the_serializer_writes_them(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = if rng.gen_bool(0.5) { rng.gen_range(0..1000u64) } else { rng.gen() };
            let solve_micros = if rng.gen_bool(0.5) { rng.gen_range(0..1u64 << 20) } else { rng.gen() };
            let outcome = if rng.gen_bool(0.75) { Ok(solve(&mut rng)) } else { Err(shard_error(&mut rng)) };
            // The worker's frame is the serializer's, and the pipe sees
            // what `write_frame` writes.
            let frame = resp_frame(seq, &outcome, solve_micros);
            let result = tree_result(&outcome, solve_micros);
            let tree = serde_json::to_string(&FromWorker::Resp { seq, result: result.clone() }).unwrap();
            prop_assert_eq!(&*frame, tree.as_str());
            let mut piped = Vec::new();
            aa_core::fleet::write_frame(&mut piped, tree.as_bytes()).unwrap();
            prop_assert_eq!(&frame.into_bytes(), &piped);
            // The front-end's one walk takes it, and the client's line
            // is the tree path's, byte for byte — over a process link
            // (the frame's bytes) and a thread link (the completion's).
            let Some(Received::Resp { seq: got, answer }) = decode_from_worker(tree.clone()) else {
                panic!("the walk declined the worker's own frame: {tree:?}");
            };
            // Over the pipe, the tree path's front-end saw the frame's
            // decode (a number past 2⁵³ rounded); over a thread, the
            // completion's own values.
            let Ok(FromWorker::Resp { seq: sent, result: decoded }) = serde_json::from_str(&tree) else {
                panic!("the worker's frame decodes: {tree:?}");
            };
            prop_assert_eq!(got, sent);
            let (id, latency_ms) = (client_id(&mut rng), number(&mut rng).abs());
            let routed = (rng.gen_range(0..300usize), rng.gen_range(1..5u32));
            let threaded = Answer::of(outcome, solve_micros);
            for (answer, result) in [(answer, decoded), (threaded, result)] {
                match (answer, &result) {
                    (Answer::Ok { tier, body, solve_micros: micros }, WorkerResult::Ok { tier: t, solve_micros: m, .. }) => {
                        prop_assert_eq!((&tier, micros), (t, *m));
                        let line = crate::serve::ok_line(&id, body.as_str(), latency_ms, routed, micros);
                        prop_assert_eq!(line, tree_line(&id, &result, latency_ms, routed));
                    }
                    (Answer::Err { class, error, queue_expired }, WorkerResult::Err { class: c, error: e, queue_expired: q, .. }) => {
                        prop_assert_eq!((&class, &error, queue_expired), (c, e, *q));
                    }
                    (answer, result) => panic!("{answer:?} for {result:?}"),
                }
            }
        }
    }

    /// [`decode_from_worker`] on `frame` against the typed decode: the walk
    /// takes only frames the typed decode reads as the same `Resp`, and
    /// any frame it declines reads as the typed decode reads it (`None`,
    /// a protocol violation, where that fails). A taken solve's `ok` line
    /// is value-equal to the line of the decoded result, and byte-equal
    /// when `from_encoder`.
    fn relays_like_the_typed_decode(frame: &str, from_encoder: bool) {
        let typed = serde_json::from_str::<FromWorker>(frame);
        let got = decode_from_worker(frame.to_string());
        let Some(Received::Resp { seq, answer }) = got else {
            let expected = typed.ok().map(Received::Frame);
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "on {frame:?}");
            assert!(walk_resp(frame).is_none());
            return;
        };
        let Ok(FromWorker::Resp { seq: typed_seq, result }) = typed else {
            panic!("the walk took a frame the typed decode reads as {typed:?}: {frame:?}");
        };
        assert_eq!(seq, typed_seq, "on {frame:?}");
        match (answer, Answer::from(result)) {
            (Answer::Ok { tier, body, solve_micros }, Answer::Ok { tier: t, body: b, solve_micros: s }) => {
                assert_eq!((tier, solve_micros), (t, s), "on {frame:?}");
                let id = serde_json::Value::Str("id".into());
                let line = |body: &Body| crate::serve::ok_line(&id, body.as_str(), 1.5, (0, 1), s);
                let (relayed, decoded) = (line(&body), line(&b));
                let value = |l: &str| format!("{:?}", serde_json::from_str::<serde_json::Value>(l));
                assert_eq!(value(&relayed), value(&decoded), "on {frame:?}");
                if from_encoder {
                    assert_eq!(relayed, decoded, "on {frame:?}");
                }
            }
            (walked, typed) => assert_eq!(format!("{walked:?}"), format!("{typed:?}"), "on {frame:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn mutated_resp_frames_relay_like_the_typed_decode(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let solve_micros = rng.gen_range(0..1u64 << 20);
            let outcome = if rng.gen_bool(0.8) { Ok(solve(&mut rng)) } else { Err(shard_error(&mut rng)) };
            let seq = rng.gen_range(0..1000u64);
            let frame = resp_frame(seq, &outcome, solve_micros);
            relays_like_the_typed_decode(&frame, true);
            let msg = match rng.gen_range(0..10u32) {
                0 => FromWorker::Hello { worker: 1, pid: 7, now_micros: 5 },
                1 => FromWorker::Pong { nonce: 3, solves: 2, solve_panics: 0, now_micros: 9, metrics: None },
                _ => FromWorker::Resp { seq, result: tree_result(&outcome, solve_micros) },
            };
            relays_like_the_typed_decode(&mutated_text(&msg, &mut rng), false);
        }
    }

    #[test]
    fn resp_frames_the_walk_declines_decode_whole() {
        let ok = |server: &str, allocation: &str, tail: &str| {
            format!(
                r#"{{"type":"resp","seq":4,"result":{{"kind":"ok","tier":"algo2","degraded":false,"utility":2.5,"server":{server},"allocation":{allocation},"solve_micros":9{tail}"#
            )
        };
        let taken = ok("[0,1]", "[1.5,2]", "}}");
        relays_like_the_typed_decode(&taken, true);
        assert!(walk_resp(&taken).is_some());
        let declined = [
            // Reordered members, outside and inside the result.
            r#"{"seq":4,"type":"resp","result":{"kind":"ok","tier":"algo2","degraded":false,"utility":2.5,"server":[0],"allocation":[1],"solve_micros":9}}"#.to_string(),
            r#"{"type":"resp","seq":4,"result":{"kind":"ok","degraded":false,"tier":"algo2","utility":2.5,"server":[0],"allocation":[1],"solve_micros":9}}"#.to_string(),
            // A duplicate `allocation`, and an unknown member.
            ok("[0]", r#"[1],"allocation":[2]"#, "}}"),
            ok("[0]", r#"[1],"extra":null"#, "}}"),
            // A string inside `server`; a truncated array.
            ok(r#"[0,"1"]"#, "[1,2]", "}}"),
            ok("[0,1", "", ""),
            // Bytes after the closing `}`, and a frame cut short of it.
            ok("[0]", "[1]", "}}x"),
            ok("[0]", "[1]", "}} {}"),
            ok("[0]", "[1]", "}"),
            // Numbers that read back as another value than they decode to.
            ok("[-0]", "[1]", "}}"),
            ok("[0]", "[-0.0]", "}}"),
            ok("[0]", "[1e400]", "}}"),
            r#"{"type":"resp","seq":4,"result":{"kind":"ok","tier":"algo2","degraded":false,"utility":-1e999,"server":[],"allocation":[],"solve_micros":9}}"#.to_string(),
            // Another kind, another frame type, not an object.
            r#"{"type":"resp","seq":4,"result":{"kind":"maybe"}}"#.to_string(),
            serde_json::to_string(&FromWorker::Hello { worker: 0, pid: 1, now_micros: 2 }).unwrap(),
            "[1]".to_string(),
            String::new(),
        ];
        for frame in &declined {
            assert!(walk_resp(frame).is_none(), "took {frame:?}");
            relays_like_the_typed_decode(frame, false);
        }
        // Whitespace, escapes and other spellings inside the body cross
        // as they came, and read as the same values.
        let respelled = "{ \"type\" : \"resp\" , \"seq\":4, \"result\":{\"kind\":\"ok\", \"t\\u0069er\" : \"alg\\u006f2\", \"degraded\":true,\"utility\":null,\"server\":[ 1.0 ,1e1],\"allocation\":[null, 2.50e0 ],\"solve_micros\":9 } }\n";
        assert!(walk_resp(respelled).is_some());
        relays_like_the_typed_decode(respelled, false);
    }
}
