//! The hidden `serve-worker` mode: one supervised worker process.
//!
//! A worker is the same binary as the front-end, re-executed with the
//! internal `serve-worker` subcommand. It speaks the [`crate::proto`]
//! frame protocol on stdin/stdout and is a one-shard [`ShardPool`] — the
//! thread executor `--shards` runs — behind its pipe:
//!
//! * the **reader** (the calling thread) pulls frames off stdin,
//!   answering heartbeat pings at once (even mid-solve; a pong carries
//!   the registry snapshot only when it changed since the last one this
//!   incarnation sent), and reads each
//!   request's header in one walk over the frame, passing the problem —
//!   the client's JSON text, forwarded verbatim as the frame's last
//!   member — on undecoded before queueing the request on the shard;
//! * the **shard thread** answers each request through
//!   [`aa_core::StreamSolver::answer`]: it decodes and builds the problem
//!   against its stream's previous threads and kept text
//!   ([`crate::serve::build_request`], as a thread link does), answers a
//!   failed parse or build with its class (`parse`, `problem`), and
//!   solves the rest with the budget counted from worker arrival (queue
//!   wait counts, the decode and the build do not). Its completion
//!   writes the answer frame straight from the solve, with no JSON tree
//!   ([`crate::proto`]: the front-end relays the frame's bytes to the
//!   client as they are), before it takes the next request;
//! * on stdin **EOF** the worker drains: the shard keeps solving what it
//!   holds for up to `drain_timeout_ms`, answers the remainder with
//!   retryable `class:"shutdown"` errors, and the worker exits 0.
//!
//! Chaos faults are keyed on the worker's *cumulative* request count:
//! the front-end passes `--chaos-offset` on restart so the counter
//! persists across incarnations and a scheduled storm fires each fault
//! exactly once, deterministically. A fault fires when the shard takes
//! its request.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use aa_core::fleet::{read_frame, MAX_FRAME_BYTES};
use aa_core::shard::{BuildFn, CompletionFn, ShardConfig, ShardJob, ShardPool};
use aa_core::tiered::Tier;
use aa_obs::Collector;
use aa_sim::ProcessFault;

use crate::proto::{
    decode_to_worker, resp_frame, Frame, FromWorker, Inbound, MetricsSnapshot, SpanBinding,
    TraceCtx, WireSpan,
};
use crate::serve::build_request;

/// Exit code a worker uses for self-inflicted chaos deaths, distinct
/// from clean drain (0) so the supervisor logs are unambiguous.
pub const CHAOS_EXIT_CODE: i32 = 86;

/// Configuration for [`run_worker`], parsed from the `serve-worker`
/// argv by `main.rs`.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// This worker's fleet index (echoed in the hello).
    pub index: usize,
    /// Warm-stream cap (FIFO eviction beyond it).
    pub max_streams: usize,
    /// Solver ladder override; `None` is the full default ladder.
    pub ladder: Option<Vec<Tier>>,
    /// Post-EOF drain budget in milliseconds.
    pub drain_timeout_ms: u64,
    /// Scheduled faults for this worker plus the cumulative request
    /// offset already consumed by earlier incarnations.
    pub chaos: Option<(Vec<(u64, ProcessFault)>, u64)>,
    /// Install a span collector and ship completed spans back in
    /// [`FromWorker::Obs`] frames (`--obs-spans`, set by a tracing
    /// front-end). Metrics federation via `Pong` is always on; only
    /// span shipping is gated here.
    pub trace_spans: bool,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            index: 0,
            max_streams: 1024,
            ladder: None,
            drain_timeout_ms: aa_core::fleet::DEFAULT_DRAIN_TIMEOUT_MS,
            chaos: None,
            trace_spans: false,
        }
    }
}

/// Counters the reader reports in every pong, kept by the shard.
#[derive(Default)]
struct Stats {
    solves: AtomicU64,
    solve_panics: AtomicU64,
    /// While stalled, the reader drops pings so the front-end sees
    /// missed heartbeats (micros since the worker's epoch; 0 = never).
    stall_until_micros: AtomicU64,
}

/// Run one worker over arbitrary streams (stdin/stdout in production,
/// in-memory pipes in tests). Returns when input is exhausted and the
/// drain is complete.
pub fn run_worker<R, W>(mut input: R, output: W, opts: &WorkerOpts) -> std::io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
{
    let epoch = Instant::now();
    let out = Arc::new(Mutex::new(Out { w: output, shipped: None }));
    let stats = Arc::new(Stats::default());
    // Requests' trace contexts, by seq, until their solve root binds.
    let traces: Arc<Mutex<HashMap<u64, TraceCtx>>> = Arc::default();
    // Set at EOF: requests the shard takes after it answer `shutdown`.
    let drain_at: Arc<OnceLock<Instant>> = Arc::default();

    let obs = Mutex::new(WorkerObsState::new(opts.trace_spans));
    let hello = FromWorker::Hello {
        worker: opts.index,
        pid: std::process::id(),
        now_micros: span_clock_micros(epoch),
    };
    lock(&out).send(Frame::of(&hello))?;
    let complete: CompletionFn = {
        let (out, stats, traces) = (Arc::clone(&out), Arc::clone(&stats), Arc::clone(&traces));
        Arc::new(move |c| {
            match &c.outcome {
                Ok(_) => stats.solves.fetch_add(1, Ordering::AcqRel),
                Err(e) if e.class() == "solve_panic" => {
                    stats.solve_panics.fetch_add(1, Ordering::AcqRel)
                }
                Err(_) => 0,
            };
            let ctx = traces.lock().unwrap_or_else(|e| e.into_inner()).remove(&c.seq);
            let mut obs = obs.lock().unwrap_or_else(|e| e.into_inner());
            if let (Some(span), Some(ctx)) = (c.span, ctx) {
                let binding = SpanBinding { span, trace_id: ctx.trace_id, parent_span: ctx.parent_span };
                obs.bindings.push(binding);
            }
            obs.observe(c.outcome.is_ok(), c.solve_micros);
            // A failed write means the front-end is gone; the reader
            // sees EOF shortly after.
            let _ = lock(&out).send(resp_frame(c.seq, &c.outcome, c.solve_micros));
            let _ = obs.ship(&out);
        })
    };
    let cfg = ShardConfig {
        shards: 1,
        max_streams: opts.max_streams,
        ladder: opts.ladder.clone(),
        ..ShardConfig::default()
    };
    let pool = ShardPool::new(cfg, aa_obs::global(), complete);

    let (faults, mut received) = opts.chaos.clone().unwrap_or_default();
    if !faults.is_empty() {
        crate::fleet::quiet_chaos();
    }
    // A frame whose header the worker cannot read is a front-end bug;
    // the worker treats it like EOF (drain and exit) rather than guessing.
    while let Ok(Some(payload)) = read_frame(&mut input, MAX_FRAME_BYTES) {
        let Ok(mut frame) = String::from_utf8(payload) else { break };
        let Some(msg) = decode_to_worker(&frame) else { break };
        match msg {
            Inbound::Ping { nonce } => {
                let stalled_until = stats.stall_until_micros.load(Ordering::Acquire);
                if epoch.elapsed().as_micros() as u64 >= stalled_until {
                    let _ = pong(&out, aa_obs::global(), nonce, &stats, epoch);
                }
            }
            Inbound::Req { seq, stream, budget_ms, trace, problem } => {
                // The frame's own buffer, cut down to the problem's text,
                // is what the build reads and its stream may keep.
                frame.truncate(problem.end);
                frame.drain(..problem.start);
                let text = Arc::new(frame);
                // The budget covers the solve, not the decode.
                let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                if let Some(ctx) = trace {
                    traces.lock().unwrap_or_else(|e| e.into_inner()).insert(seq, ctx);
                }
                received += 1;
                let fault = faults.iter().find(|&&(s, _)| s == received).map(|&(_, f)| f);
                let (drain_at, stats) = (Arc::clone(&drain_at), Arc::clone(&stats));
                let build: BuildFn = Arc::new(move |previous| {
                    if drain_at.get().is_some_and(|&t| Instant::now() >= t) {
                        return Err(("shutdown", "worker drain timeout; retry elsewhere".to_string()));
                    }
                    if let Some(fault) = fault {
                        inject(fault, &stats, epoch);
                    }
                    build_request(&text, previous)
                });
                let inject_panic = (fault == Some(ProcessFault::PanicSolve))
                    .then(|| "chaos: injected solve panic".to_string());
                let arrived = Instant::now();
                let job = ShardJob { seq, stream, build, deadline, arrived, inject_panic, fuel: None };
                let _ = pool.submit_to(0, job);
            }
        }
    }
    let _ = drain_at.set(Instant::now() + Duration::from_millis(opts.drain_timeout_ms));
    pool.shutdown();
    Ok(())
}

/// The worker's span clock at call time: the collector's epoch-relative
/// clock when one is installed (the domain every shipped span timestamp
/// lives in), else microseconds since worker start. The front-end uses
/// this for cross-process clock alignment.
fn span_clock_micros(epoch: Instant) -> u64 {
    match Collector::get() {
        Some(c) => c.now_micros(),
        None => epoch.elapsed().as_micros() as u64,
    }
}

/// The worker's stdout, and the registry snapshot it last shipped.
struct Out<W> {
    w: W,
    /// The last snapshot a `Pong` or `Obs` frame carried; `None` until
    /// the first, so each incarnation ships its first.
    shipped: Option<MetricsSnapshot>,
}

impl<W: Write> Out<W> {
    /// Write one frame, in one write, and flush it.
    fn send(&mut self, frame: Frame) -> std::io::Result<()> {
        self.w.write_all(&frame.into_bytes())?;
        self.w.flush()
    }

    /// `registry`'s snapshot when it differs from the last one shipped
    /// (and is now the last one shipped); `None` — which the front-end
    /// reads as "unchanged" — otherwise. Taken under the output lock, so
    /// frames leave in the order their snapshots were taken.
    fn snapshot(&mut self, registry: &aa_obs::Registry) -> Option<MetricsSnapshot> {
        let now = MetricsSnapshot::from_registry(registry);
        if self.shipped.as_ref() == Some(&now) {
            return None;
        }
        self.shipped = Some(now.clone());
        Some(now)
    }
}

fn lock<W>(out: &Mutex<Out<W>>) -> MutexGuard<'_, Out<W>> {
    out.lock().unwrap_or_else(|e| e.into_inner())
}

/// Answer ping `nonce` with this incarnation's counters, its span clock,
/// and `registry`'s snapshot when it changed since the last one shipped:
/// the heartbeat cadence is the federation cadence.
fn pong<W: Write>(
    out: &Mutex<Out<W>>,
    registry: &aa_obs::Registry,
    nonce: u64,
    stats: &Stats,
    epoch: Instant,
) -> std::io::Result<()> {
    let mut out = lock(out);
    let msg = FromWorker::Pong {
        nonce,
        solves: stats.solves.load(Ordering::Acquire),
        solve_panics: stats.solve_panics.load(Ordering::Acquire),
        now_micros: span_clock_micros(epoch),
        metrics: out.snapshot(registry),
    };
    out.send(Frame::of(&msg))
}

/// Worker-side observability: the per-solve histogram every worker
/// federates via `Pong`, and — when `--obs-spans` is set — the span
/// shipper (cursor-tracked so [`Collector::events_since`] batches are
/// never re-sent or lost) plus the bindings of each `fleet_solve` root
/// to its front-end request span, for the merged trace.
struct WorkerObsState {
    solve_hist: aa_obs::Histogram,
    errors: aa_obs::Counter,
    dropped: aa_obs::Counter,
    collector: Option<&'static Collector>,
    cursor: u64,
    last_dropped: u64,
    bindings: Vec<SpanBinding>,
}

impl WorkerObsState {
    fn new(trace_spans: bool) -> WorkerObsState {
        let registry = aa_obs::global();
        let collector = if trace_spans {
            let c = Collector::install();
            c.set_enabled(true);
            Some(c)
        } else {
            None
        };
        WorkerObsState {
            solve_hist: registry.histogram("aa_worker_solve_micros"),
            errors: registry.counter("aa_worker_solve_errors_total"),
            dropped: registry.counter("aa_obs_spans_dropped_total"),
            // Start the cursor at the current end of the buffer: spans
            // from before this incarnation's loop are not ours to ship.
            cursor: collector.map_or(0, |c| c.events_since(u64::MAX).1),
            last_dropped: collector.map_or(0, Collector::dropped_events),
            collector,
            bindings: Vec::new(),
        }
    }

    /// Count one answer: a solve's latency, or an error.
    fn observe(&self, solved: bool, solve_micros: u64) {
        if solved {
            self.solve_hist.record_micros(solve_micros);
        } else {
            self.errors.inc();
        }
    }

    /// Ship everything new since the last call as one `Obs` frame (and
    /// drain the shipped events so the preallocated buffer never fills
    /// from long-lived workers). No-op when untraced or nothing is new.
    fn ship<W: Write>(&mut self, out: &Mutex<Out<W>>) -> std::io::Result<()> {
        let Some(c) = self.collector else { return Ok(()) };
        let (events, next) = c.events_since(self.cursor);
        let args = c.span_args();
        let dropped_now = c.dropped_events();
        if events.is_empty() && self.bindings.is_empty() && dropped_now == self.last_dropped {
            return Ok(());
        }
        c.drain_through(next);
        self.cursor = next;
        self.dropped.add(dropped_now - self.last_dropped);
        self.last_dropped = dropped_now;
        let spans = events
            .into_iter()
            .map(|e| WireSpan {
                name: e.name.to_string(),
                start_micros: e.start_micros,
                duration_micros: e.duration_micros,
                thread_id: e.thread_id,
                id: e.id,
                parent_id: e.parent_id,
                args: args
                    .get(&e.id)
                    .into_iter()
                    .flatten()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
            })
            .collect();
        let mut out = lock(out);
        let msg = FromWorker::Obs {
            now_micros: c.now_micros(),
            spans,
            bindings: std::mem::take(&mut self.bindings),
            dropped: dropped_now,
            metrics: out.snapshot(aa_obs::global()),
        };
        out.send(Frame::of(&msg))
    }
}

/// Fire one scheduled fault as the shard takes its request. `Kill` and
/// `Garbage` do not return; `PanicSolve` fires inside the solve instead.
fn inject(fault: ProcessFault, stats: &Stats, epoch: Instant) {
    match fault {
        ProcessFault::Kill => {
            // No flush, no drain: indistinguishable from SIGKILL as far
            // as the front-end can observe.
            std::process::exit(CHAOS_EXIT_CODE);
        }
        ProcessFault::Stall { millis } => {
            let until = (epoch.elapsed() + Duration::from_millis(millis)).as_micros() as u64;
            stats.stall_until_micros.store(until, Ordering::Release);
            std::thread::sleep(Duration::from_millis(millis));
        }
        ProcessFault::Garbage => {
            // A length header promising more bytes than follow: the
            // front-end's framing layer must treat this as a crash.
            let mut w = std::io::stdout().lock();
            let _ = w.write_all(&64u32.to_be_bytes());
            let _ = w.write_all(b"not json");
            let _ = w.flush();
            std::process::exit(CHAOS_EXIT_CODE);
        }
        ProcessFault::PanicSolve => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_req, ToWorker, WorkerResult};
    use aa_core::fleet::write_frame;
    use crate::ProblemFile;
    use aa_utility::UtilitySpec;

    fn problem_file(threads: usize) -> ProblemFile {
        ProblemFile {
            servers: 2,
            capacity: 8.0,
            threads: (0..threads)
                .map(|i| UtilitySpec::Power {
                    scale: 1.0 + i as f64 * 0.25,
                    beta: 0.5,
                    cap: 8.0,
                })
                .collect(),
        }
    }

    /// An untraced request frame over `problem_file(threads)`.
    fn req(seq: u64, stream: Option<u64>, budget_ms: Option<u64>, threads: usize) -> Vec<u8> {
        let problem = problem_file(threads);
        frame(&ToWorker::Req { seq, stream, budget_ms, trace: None, problem })
    }

    fn frame(msg: &ToWorker) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, serde_json::to_string(msg).unwrap().as_bytes()).unwrap();
        buf
    }

    /// The worker's stdout, kept readable after the run.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run(input: Vec<u8>, opts: &WorkerOpts) -> Vec<FromWorker> {
        let output = Shared::default();
        run_worker(&input[..], output.clone(), opts).unwrap();
        frames(&output)
    }

    /// Every frame written to `output`, decoded.
    fn frames(output: &Shared) -> Vec<FromWorker> {
        let output = output.0.lock().unwrap().clone();
        let mut cursor = &output[..];
        let mut msgs = Vec::new();
        while let Some(payload) = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap() {
            msgs.push(
                serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap(),
            );
        }
        msgs
    }

    /// An idle worker's heartbeats carry no snapshot after the first: the
    /// front-end keeps the last one. (A private registry: the global one
    /// moves with every other test's builds.)
    #[test]
    fn two_pongs_without_a_solve_between_them_carry_one_snapshot() {
        let registry = aa_obs::Registry::new();
        let solves = registry.counter("aa_worker_solves_total");
        let (stats, epoch) = (Stats::default(), Instant::now());
        let output = Shared::default();
        let out = Mutex::new(Out { w: output.clone(), shipped: None });
        for nonce in 0..2 {
            pong(&out, &registry, nonce, &stats, epoch).unwrap();
        }
        solves.inc();
        pong(&out, &registry, 2, &stats, epoch).unwrap();
        pong(&out, &registry, 3, &stats, epoch).unwrap();
        let shipped: Vec<(u64, bool)> = frames(&output)
            .into_iter()
            .map(|m| match m {
                FromWorker::Pong { nonce, metrics, .. } => (nonce, metrics.is_some()),
                other => panic!("only pongs were sent: {other:?}"),
            })
            .collect();
        assert_eq!(shipped, [(0, true), (1, false), (2, true), (3, false)]);
        // A fresh incarnation ships its first snapshot, changed or not.
        let fresh = Shared::default();
        let out = Mutex::new(Out { w: fresh.clone(), shipped: None });
        pong(&out, &registry, 0, &stats, epoch).unwrap();
        assert!(matches!(&frames(&fresh)[..], [FromWorker::Pong { metrics: Some(_), .. }]));
    }

    #[test]
    fn worker_hellos_solves_and_answers_pings() {
        let mut input = Vec::new();
        input.extend(req(0, Some(7), None, 6));
        input.extend(frame(&ToWorker::Ping { nonce: 99 }));
        input.extend(req(1, Some(7), None, 6));
        let msgs = run(input, &WorkerOpts::default());
        assert!(
            matches!(msgs[0], FromWorker::Hello { worker: 0, .. }),
            "first frame must be the hello: {msgs:?}"
        );
        let mut utilities = Vec::new();
        let mut ponged = false;
        for m in &msgs[1..] {
            match m {
                FromWorker::Pong { nonce, .. } => {
                    assert_eq!(*nonce, 99);
                    ponged = true;
                }
                FromWorker::Resp { result: WorkerResult::Ok { utility, .. }, .. } => {
                    utilities.push(utility.to_bits())
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(ponged, "ping was dropped: {msgs:?}");
        assert_eq!(utilities.len(), 2);
        // Warm (second) solve must be bit-identical to the cold one.
        assert_eq!(utilities[0], utilities[1]);
    }

    /// The solve loop blocks without a timeout, so a lost EOF wakeup
    /// would hang a run instead of delaying it; the watchdog turns a
    /// hang into a failure.
    #[test]
    fn worker_returns_at_eof_without_polling() {
        let one_req = req(3, None, None, 2);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..200 {
                let msgs = run(Vec::new(), &WorkerOpts::default());
                assert_eq!(msgs.len(), 1, "only the hello: {msgs:?}");
                let msgs = run(one_req.clone(), &WorkerOpts::default());
                assert!(
                    matches!(
                        msgs[1..],
                        [FromWorker::Resp { seq: 3, result: WorkerResult::Ok { .. } }]
                    ),
                    "the request must be answered: {msgs:?}"
                );
            }
            done.send(()).expect("the test is waiting");
        });
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("a worker run hung at EOF (or panicked)");
    }

    #[test]
    fn expired_budget_answers_deadline_without_solving() {
        let mut input = Vec::new();
        input.extend(req(5, None, Some(0), 2000));
        let msgs = run(input, &WorkerOpts::default());
        let resp = msgs
            .iter()
            .find_map(|m| match m {
                FromWorker::Resp { seq: 5, result } => Some(result.clone()),
                _ => None,
            })
            .expect("request answered");
        match resp {
            WorkerResult::Err { class, queue_expired, .. } => {
                assert_eq!(class, "deadline");
                assert!(queue_expired);
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_problem_is_typed_not_fatal() {
        let mut input = Vec::new();
        input.extend(frame(&ToWorker::Req {
            seq: 0,
            stream: None,
            budget_ms: None,
            trace: None,
            problem: ProblemFile { servers: 0, capacity: 4.0, threads: vec![] },
        }));
        input.extend(req(1, None, None, 4));
        let msgs = run(input, &WorkerOpts::default());
        let classes: Vec<String> = msgs
            .iter()
            .filter_map(|m| match m {
                FromWorker::Resp { result: WorkerResult::Err { class, .. }, .. } => {
                    Some(class.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec!["problem".to_string()]);
        assert!(msgs.iter().any(|m| matches!(
            m,
            FromWorker::Resp { seq: 1, result: WorkerResult::Ok { .. } }
        )));
    }

    #[test]
    fn schema_invalid_problem_is_answered_and_the_worker_keeps_serving() {
        // Client bytes reach the worker verbatim, so a problem that
        // breaks its schema must be an answer, not a protocol violation
        // that kills the worker on every replay.
        let mut input = Vec::new();
        let bad = encode_req(0, None, None, None, r#"{"servers":2,"capacity":8.0,"threads":"x"}"#);
        write_frame(&mut input, bad.as_bytes()).unwrap();
        input.extend(req(1, None, None, 4));
        let msgs = run(input, &WorkerOpts::default());
        let answers: Vec<(u64, String)> = msgs
            .iter()
            .filter_map(|m| match m {
                FromWorker::Resp { seq, result: WorkerResult::Err { class, error, .. } } => {
                    assert!(error.starts_with("ServeRequest.problem: "), "{error}");
                    Some((*seq, class.clone()))
                }
                FromWorker::Resp { seq, result: WorkerResult::Ok { .. } } => {
                    Some((*seq, "ok".to_string()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(answers, vec![(0, "parse".to_string()), (1, "ok".to_string())]);
    }

    #[test]
    fn drain_timeout_answers_queued_requests_with_shutdown() {
        // Zero drain budget, and a scheduled stall on the first solve so
        // the reader is guaranteed to reach EOF while the solve loop is
        // paused: everything popped after the stall is past the drain
        // deadline and answers `shutdown`.
        let mut input = Vec::new();
        for seq in 0..4 {
            input.extend(req(seq, Some(1), None, 6));
        }
        let opts = WorkerOpts {
            drain_timeout_ms: 0,
            chaos: Some((vec![(1, ProcessFault::Stall { millis: 150 })], 0)),
            ..WorkerOpts::default()
        };
        let msgs = run(input, &opts);
        let mut answered = 0u64;
        let mut shutdowns = 0u64;
        for m in &msgs {
            if let FromWorker::Resp { result, .. } = m {
                answered += 1;
                if let WorkerResult::Err { class, .. } = result {
                    if class == "shutdown" {
                        shutdowns += 1;
                    }
                }
            }
        }
        assert_eq!(answered, 4, "every queued request must be answered: {msgs:?}");
        assert!(shutdowns >= 1, "drain produced no shutdown answers: {msgs:?}");
    }

    #[test]
    fn stall_fault_drops_pings_until_it_passes() {
        let mut input = Vec::new();
        input.extend(req(0, None, None, 4));
        let opts = WorkerOpts {
            chaos: Some((vec![(1, ProcessFault::Stall { millis: 30 })], 0)),
            ..WorkerOpts::default()
        };
        let msgs = run(input, &opts);
        // The solve still answers after the stall.
        assert!(msgs.iter().any(|m| matches!(
            m,
            FromWorker::Resp { seq: 0, result: WorkerResult::Ok { .. } }
        )));
    }

    #[test]
    fn obs_spans_ship_with_bindings_and_federated_metrics() {
        let mut input = Vec::new();
        input.extend(frame(&ToWorker::Req {
            seq: 0,
            stream: Some(1),
            budget_ms: None,
            trace: Some(TraceCtx { trace_id: 11, parent_span: 400 }),
            problem: problem_file(6),
        }));
        let opts = WorkerOpts { trace_spans: true, ..WorkerOpts::default() };
        let msgs = run(input, &opts);
        match &msgs[0] {
            FromWorker::Hello { worker: 0, .. } => {}
            other => panic!("first frame must be the hello: {other:?}"),
        }
        let mut solve_roots = Vec::new();
        let mut bound = false;
        for m in &msgs {
            if let FromWorker::Obs { spans, bindings, metrics, .. } = m {
                solve_roots.extend(
                    spans.iter().filter(|s| s.name == "fleet_solve").map(|s| s.id),
                );
                for b in bindings {
                    if b.trace_id == 11 && b.parent_span == 400 {
                        bound = true;
                    }
                }
                let snap = metrics.as_ref().expect("obs frames carry a snapshot");
                assert!(
                    snap.histograms.iter().any(|h| h.key == "aa_worker_solve_micros"),
                    "solve histogram federates: {snap:?}"
                );
            }
        }
        assert!(!solve_roots.is_empty(), "solve root span was shipped: {msgs:?}");
        assert!(bound, "binding links the solve root to the front-end parent: {msgs:?}");
        assert!(msgs.iter().any(|m| matches!(
            m,
            FromWorker::Resp { seq: 0, result: WorkerResult::Ok { .. } }
        )));
    }

    #[test]
    fn chaos_offset_shifts_the_fault_schedule() {
        // Fault at cumulative seq 3 with offset 2 fires on this
        // incarnation's *first* solve; a stall (not kill) keeps the
        // test process alive while proving the trigger fired.
        let mut input = Vec::new();
        input.extend(req(0, None, None, 4));
        let opts = WorkerOpts {
            chaos: Some((vec![(3, ProcessFault::Stall { millis: 20 })], 2)),
            ..WorkerOpts::default()
        };
        let started = Instant::now();
        let msgs = run(input, &opts);
        assert!(started.elapsed() >= Duration::from_millis(20), "stall never fired");
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FromWorker::Resp { seq: 0, .. })));
    }
}
