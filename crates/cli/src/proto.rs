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

use std::ops::Range;

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

/// The payload of a [`ToWorker::Req`] frame with `problem` — raw JSON
/// text — spliced in verbatim. When `problem` is the serializer's own
/// output, the bytes equal `serde_json::to_string` of the `Req`.
pub(crate) fn encode_req(
    seq: u64,
    stream: Option<u64>,
    budget_ms: Option<u64>,
    trace: Option<TraceCtx>,
    problem: &str,
) -> String {
    let header = serde_json::to_string(&ReqHeader { seq, stream, budget_ms, trace })
        .expect("headers always serialize");
    let fields = &header[1..header.len() - 1];
    let mut out = String::with_capacity(fields.len() + problem.len() + 32);
    out.push_str(r#"{"type":"req","#);
    out.push_str(fields);
    out.push_str(r#","problem":"#);
    out.push_str(problem);
    out.push('}');
    out
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
        if !self.more || self.r.key().ok()? != key {
            return None;
        }
        let value = T::from_json(&mut self.r)?;
        self.more = self.r.more(b'}').ok()?;
        Some(value)
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
        /// Full registry snapshot for federation (every pong — full
        /// snapshots, not deltas, so a dropped pong costs staleness of
        /// one heartbeat, never correctness).
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter `(export key, cumulative value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(export key, last value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram parts.
    pub histograms: Vec<WireHistogram>,
}

/// One histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
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
}
