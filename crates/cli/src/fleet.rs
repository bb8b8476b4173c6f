//! `aa-solve serve --fleet N` — a multi-process request loop: worker
//! *processes*, a routing front-end, and rebalance on membership change.
//!
//! The single-process [`crate::serve`] loop isolates solve crashes with
//! shard *threads*; this module isolates them with whole processes. The
//! front-end re-execs its own binary N times in the hidden
//! `serve-worker` mode ([`crate::worker`]) and speaks the
//! [`crate::proto`] frame protocol over each worker's stdin/stdout
//! pipes. Everything else is shared with `--shards`: the ingress loop,
//! the answer path (so the same lines and error classes, plus `worker`,
//! `attempts` and `solve_micros` on `status:"ok"` lines), and the
//! worker-side stream solver. What stays per mode is the supervisor
//! below and its crash semantics: a dead worker's requests replay.
//!
//! # Event loop
//!
//! One thread owns all fleet state (no locks around routing decisions):
//!
//! * the **stdin reader** (the calling thread) runs the shared ingress
//!   loop and forwards admissions and resize lines as events;
//! * per worker, a **pipe reader thread** decodes frames into events; a
//!   truncated, oversized, or unparseable frame is a protocol violation
//!   and the worker is treated exactly as if it had crashed;
//! * the **event loop** routes stream keys over
//!   [`FleetRouter`]'s consistent-hash ring, tracks every admitted
//!   request in a [`PendingMap`] (exactly-once: the first completion per
//!   seq wins, later ones are dropped), heartbeats workers, and
//!   supervises: a dead worker's in-flight requests are pulled back and
//!   retried on survivors with exponential backoff and seeded jitter,
//!   its ring ranges reroute, and the worker respawns with backoff.
//!   Requests that exhaust `--max-retries` dispatches are answered with
//!   a retryable `class:"internal"` error. After a restart the ring
//!   rebalances back lazily: the next request per stream routes to the
//!   restored owner, parking behind any survivor still working that
//!   stream (drain → handoff → resume; never two workers on one stream).
//!   Warm state is not migrated — the restored owner rebuilds it
//!   transparently on the stream's next request.
//!
//! # Membership control
//!
//! A control line `{"control":"resize","fleet":N}` resizes the fleet in
//! place. Growing spawns new workers; shrinking marks removed workers
//! draining (they finish in-flight work, then their stdin closes and
//! they exit cleanly) and hands their ring ranges to the survivors.
//!
//! # Shutdown
//!
//! On stdin EOF the front-end stops admitting and waits up to
//! `--drain-timeout-ms` for pending requests; whatever remains is
//! answered with a retryable `class:"shutdown"` error. Workers then see
//! their own stdin EOF and drain the same way.
//!
//! # Chaos
//!
//! [`run_fleet_chaos`] drives a real fleet (worker processes re-execed
//! from the current binary) through a seeded
//! [`ProcessChaosPlan`] storm — kills, heartbeat stalls, garbage frames
//! — keyed on per-worker cumulative solve sequence numbers so the same
//! seed replays the same storm. The verdict
//! ([`FleetChaosReport`]) contains only schedule- and invariant-derived
//! fields, so two runs with the same seed serialize byte-identically.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aa_core::fleet::{
    read_frame, write_frame, Backoff, FleetRouter, ParkedQueues, PendingMap, RouteDecision,
    DEFAULT_DRAIN_TIMEOUT_MS, DEFAULT_HEARTBEAT_INTERVAL_MS, DEFAULT_HEARTBEAT_MISS_LIMIT,
    DEFAULT_MAX_RETRIES, DEFAULT_RETRY_BACKOFF_BASE_MS, DEFAULT_RETRY_BACKOFF_MAX_MS,
    MAX_FRAME_BYTES,
};
use aa_obs::export::{chrome_trace_merged, LaneEvent, TraceLane};
use aa_core::ring::{splitmix64, Ring};
use aa_core::tiered::Tier;
use aa_core::{Budget, TieredSolver};
use aa_sim::{
    analyze_fleet, balanced_keys, FleetChaosConfig, FleetChaosReport, FleetObservation,
    FleetObservations, ProcessChaosPlan,
};
use aa_utility::UtilitySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::proto::{
    encode_req, FromWorker, MetricsSnapshot, SpanBinding, ToWorker, TraceCtx, WireSpan,
    WorkerResult,
};
use crate::serve::{ingress, Admission, Admit, Answers, Outcome, ServeCounters, ServeMetrics};
use crate::{build_problem, CliError, ProblemFile};

/// Default restart budget per worker before it is retired.
pub const DEFAULT_MAX_RESTARTS: u64 = 8;

/// The answer for requests stranded when every worker has retired.
const ALL_RETIRED: &str = "all fleet workers retired; safe to retry elsewhere";

/// Parse a `--ladder` flag value: comma-separated [`Tier`] names in
/// descending order, e.g. `"exact-bb,algo2,uu"`. Any registered
/// algorithm is a rung.
pub fn parse_ladder(s: &str) -> Result<Vec<Tier>, String> {
    let mut tiers = Vec::new();
    for name in s.split(',') {
        let name = name.trim();
        tiers.push(Tier::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Tier::ALL.iter().map(|t| t.name()).collect();
            format!("unknown ladder tier {name:?}; expected one of {}", known.join(", "))
        })?);
    }
    if tiers.is_empty() {
        return Err("ladder must name at least one tier".to_string());
    }
    Ok(tiers)
}

/// Configuration for [`run_fleet_serve`].
#[derive(Debug, Clone)]
pub struct FleetOpts {
    /// Worker processes.
    pub workers: usize,
    /// Per-worker admission depth; the fleet sheds beyond
    /// `queue × workers` pending requests.
    pub queue: usize,
    /// Deadline for requests that don't carry their own, milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Longest accepted input line, bytes.
    pub max_line_bytes: usize,
    /// Heartbeat ping interval, milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive unanswered pings before a worker is declared dead.
    pub heartbeat_miss_limit: u32,
    /// Dispatch attempts per request before it is answered with a
    /// retryable `class:"internal"` error.
    pub max_retries: u32,
    /// Restarts per worker before it is retired.
    pub max_restarts: u64,
    /// Post-EOF drain budget, milliseconds (also forwarded to workers).
    pub drain_timeout_ms: u64,
    /// Per-worker warm-stream cap (forwarded to workers).
    pub max_streams: usize,
    /// Solver ladder override (forwarded to workers); `None` is the
    /// full default ladder.
    pub ladder: Option<Vec<Tier>>,
    /// Seed for retry/respawn backoff jitter.
    pub seed: u64,
    /// Merged-trace output path (`--trace`). When set, workers run with
    /// `--obs-spans`, every request carries a [`TraceCtx`], and the
    /// front-end writes one Chrome trace with a lane per worker process
    /// at shutdown.
    pub trace: Option<PathBuf>,
    /// End-to-end p99 latency objective, milliseconds (`--slo-p99-ms`);
    /// `None` uses [`aa_core::fleet::DEFAULT_SLO_P99_MS`].
    pub slo_p99_ms: Option<u64>,
    /// Worker executable override; `None` re-execs the current binary.
    /// A testing hook (`--worker-cmd`): the malformed-frame binary test
    /// substitutes a stub worker through it.
    pub worker_cmd: Option<PathBuf>,
    /// Scheduled process faults, forwarded per worker. `None` in
    /// production.
    pub chaos: Option<ProcessChaosPlan>,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            workers: 4,
            queue: 16,
            default_deadline_ms: None,
            max_line_bytes: 1 << 20,
            heartbeat_ms: DEFAULT_HEARTBEAT_INTERVAL_MS,
            heartbeat_miss_limit: DEFAULT_HEARTBEAT_MISS_LIMIT,
            max_retries: DEFAULT_MAX_RETRIES,
            max_restarts: DEFAULT_MAX_RESTARTS,
            drain_timeout_ms: DEFAULT_DRAIN_TIMEOUT_MS,
            max_streams: 1024,
            ladder: None,
            seed: 0,
            trace: None,
            slo_p99_ms: None,
            worker_cmd: None,
            chaos: None,
        }
    }
}

/// Everything the event loop reacts to. An [`Admit`] is also the
/// payload [`PendingMap`] carries for every admitted request — all that
/// is needed to replay it on another worker or answer it.
enum Event {
    Admit(Box<Admit>),
    Resize { workers: usize, id: serde_json::Value },
    FromWorker { worker: usize, incarnation: u64, msg: FromWorker },
    WorkerGone { worker: usize, incarnation: u64 },
    Eof,
}

/// Acknowledgement line for a `{"control":"resize",...}` request.
#[derive(Debug, Clone, Serialize)]
struct ResizeAck {
    status: String,
    id: serde_json::Value,
    fleet: usize,
    was: usize,
}

/// Per-worker registry handles (`aa_fleet_*{worker=…}`).
struct WorkerMetrics {
    restarts: aa_obs::Counter,
    dispatched: aa_obs::Counter,
    up: aa_obs::Gauge,
    solves: aa_obs::Gauge,
    solve_panics: aa_obs::Gauge,
}

/// Front-end registry handles (`aa_fleet_*`), alongside the request
/// accounting the fleet shares with single-process serve
/// ([`ServeMetrics`], the `aa_serve_*` family).
struct FleetMetrics {
    dispatched: aa_obs::Counter,
    parked: aa_obs::Counter,
    retries: aa_obs::Counter,
    replayed: aa_obs::Counter,
    exhausted: aa_obs::Counter,
    duplicates: aa_obs::Counter,
    shutdown_answers: aa_obs::Counter,
    resizes: aa_obs::Counter,
    handoffs: aa_obs::Counter,
    per_worker: Vec<WorkerMetrics>,
}

impl FleetMetrics {
    fn new(registry: &aa_obs::Registry, workers: usize) -> Self {
        let mut fm = FleetMetrics {
            dispatched: registry.counter("aa_fleet_dispatched_total"),
            parked: registry.counter("aa_fleet_parked_total"),
            retries: registry.counter("aa_fleet_retries_total"),
            replayed: registry.counter("aa_fleet_replayed_total"),
            exhausted: registry.counter("aa_fleet_retry_exhausted_total"),
            duplicates: registry.counter("aa_fleet_duplicate_responses_total"),
            shutdown_answers: registry.counter("aa_fleet_shutdown_answers_total"),
            resizes: registry.counter("aa_fleet_resizes_total"),
            handoffs: registry.counter("aa_fleet_handoffs_total"),
            per_worker: Vec::new(),
        };
        fm.ensure(registry, workers);
        fm
    }

    /// Extend the per-worker series through `workers` slots (resize).
    fn ensure(&mut self, registry: &aa_obs::Registry, workers: usize) {
        while self.per_worker.len() < workers {
            let w = self.per_worker.len().to_string();
            self.per_worker.push(WorkerMetrics {
                restarts: registry.counter_labeled("aa_fleet_restarts_total", "worker", &w),
                dispatched: registry.counter_labeled(
                    "aa_fleet_worker_dispatched_total",
                    "worker",
                    &w,
                ),
                up: registry.gauge_labeled("aa_fleet_worker_up", "worker", &w),
                solves: registry.gauge_labeled("aa_fleet_worker_solves", "worker", &w),
                solve_panics: registry.gauge_labeled("aa_fleet_worker_solve_panics", "worker", &w),
            });
        }
    }
}

/// One worker slot's process-supervision state. The slot outlives its
/// process: each respawn bumps `incarnation`, and pipe events carrying
/// a stale incarnation are discarded.
struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<std::process::ChildStdin>,
    reader: Option<std::thread::JoinHandle<()>>,
    incarnation: u64,
    up: bool,
    retired: bool,
    /// Shrink handoff: finish in-flight work, then close and exit.
    draining: bool,
    deaths: u64,
    /// Responses seen this incarnation (fallback chaos-offset estimate).
    resp_count: u64,
    /// Cumulative solve-seq offset handed to the next incarnation.
    chaos_offset: u64,
    respawn_at: Option<Instant>,
    spawned_at: Instant,
    unanswered_pings: u32,
    nonce: u64,
    in_flight: u64,
}

impl WorkerSlot {
    fn empty() -> Self {
        WorkerSlot {
            child: None,
            stdin: None,
            reader: None,
            incarnation: 0,
            up: false,
            retired: false,
            draining: false,
            deaths: 0,
            resp_count: 0,
            chaos_offset: 0,
            respawn_at: None,
            spawned_at: Instant::now(),
            unanswered_pings: 0,
            nonce: 0,
            in_flight: 0,
        }
    }
}

/// Build the `serve-worker` argv for slot `w` (pure, for tests).
fn worker_args(opts: &FleetOpts, w: usize, chaos_offset: u64) -> Vec<String> {
    let mut args = vec![
        "serve-worker".to_string(),
        "--index".to_string(),
        w.to_string(),
        "--max-streams".to_string(),
        opts.max_streams.to_string(),
        "--drain-timeout-ms".to_string(),
        opts.drain_timeout_ms.to_string(),
    ];
    if opts.trace.is_some() {
        args.push("--obs-spans".to_string());
    }
    if let Some(ladder) = &opts.ladder {
        args.push("--ladder".to_string());
        args.push(ladder.iter().map(|t| t.name()).collect::<Vec<_>>().join(","));
    }
    if let Some(plan) = &opts.chaos {
        if let Some(faults) = plan.faults.get(w) {
            if !faults.is_empty() {
                args.push("--chaos-faults".to_string());
                args.push(serde_json::to_string(faults).expect("plan serializes"));
                args.push("--chaos-offset".to_string());
                args.push(chaos_offset.to_string());
            }
        }
    }
    args
}

/// Decode one worker's stdout into events. Any protocol violation —
/// truncated frame, bad trailer, oversized length, unparseable payload
/// — ends the stream and reports the worker gone, so the front-end
/// treats it exactly as a crash (restart and replay).
fn reader_thread(stdout: ChildStdout, worker: usize, incarnation: u64, tx: &Sender<Event>) {
    let mut input = BufReader::new(stdout);
    loop {
        match read_frame(&mut input, MAX_FRAME_BYTES) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let parsed = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(|s| serde_json::from_str::<FromWorker>(s).ok());
                match parsed {
                    Some(msg) => {
                        if tx.send(Event::FromWorker { worker, incarnation, msg }).is_err() {
                            return;
                        }
                    }
                    None => break,
                }
            }
            Err(_) => break,
        }
    }
    let _ = tx.send(Event::WorkerGone { worker, incarnation });
}

/// One worker incarnation's shipped observability state: the spans and
/// trace bindings it sent in `Obs` frames, its OS pid (the merged
/// trace's lane id), and the clock-alignment offset measured at every
/// worker-stamped frame.
struct LaneState {
    worker: usize,
    incarnation: u64,
    pid: u32,
    /// Front-end span clock minus worker span clock at the most recent
    /// handshake, µs. Added to worker timestamps when merging lanes.
    offset_micros: i64,
    spans: Vec<WireSpan>,
    bindings: Vec<SpanBinding>,
    /// Cumulative spans the worker dropped (full buffer), as last
    /// reported.
    dropped: u64,
}

/// Request-trace linkage created at admission: the reserved front-end
/// request span id (the `parent_span` workers root their solve spans
/// under) and the first-dispatch timestamp splitting queue wait from
/// worker time.
struct ReqTrace {
    trace_id: u64,
    span: u64,
    dispatched: Option<Instant>,
}

/// Front-end half of distributed tracing: per-incarnation worker lanes,
/// open request traces, and the merged Chrome-trace write at shutdown.
struct FleetObs {
    collector: &'static aa_obs::Collector,
    path: PathBuf,
    lanes: Vec<LaneState>,
    requests: HashMap<u64, ReqTrace>,
    /// Front-end span id → trace id, for annotating lane-0 events.
    span_trace: HashMap<u64, u64>,
}

impl FleetObs {
    fn new(path: PathBuf) -> FleetObs {
        let collector = aa_obs::Collector::install();
        collector.set_enabled(true);
        FleetObs {
            collector,
            path,
            lanes: Vec::new(),
            requests: HashMap::new(),
            span_trace: HashMap::new(),
        }
    }

    /// Open a request trace at admission, reserving the front-end span
    /// id workers will parent their solve spans under. Trace ids are
    /// `seq + 1` so 0 never appears on the wire.
    fn admit(&mut self, seq: u64) {
        let trace_id = seq + 1;
        let span = self.collector.alloc_span_id();
        self.requests.insert(seq, ReqTrace { trace_id, span, dispatched: None });
    }

    /// The [`TraceCtx`] to stamp on a dispatch of `seq`. The first
    /// dispatch starts the queue→worker clock; retries reuse the same
    /// context so a replayed solve still lands under the same request
    /// span.
    fn dispatch_ctx(&mut self, seq: u64) -> Option<TraceCtx> {
        let rt = self.requests.get_mut(&seq)?;
        if rt.dispatched.is_none() {
            rt.dispatched = Some(Instant::now());
        }
        Some(TraceCtx { trace_id: rt.trace_id, parent_span: rt.span })
    }

    fn lane_mut(&mut self, worker: usize, incarnation: u64) -> &mut LaneState {
        let at = self
            .lanes
            .iter()
            .position(|l| l.worker == worker && l.incarnation == incarnation)
            .unwrap_or_else(|| {
                self.lanes.push(LaneState {
                    worker,
                    incarnation,
                    pid: 0,
                    offset_micros: 0,
                    spans: Vec::new(),
                    bindings: Vec::new(),
                    dropped: 0,
                });
                self.lanes.len() - 1
            });
        &mut self.lanes[at]
    }

    /// Refresh a lane's clock offset from a worker-stamped frame
    /// (`Hello`, `Pong`, and `Obs` all carry the worker's span clock).
    fn on_worker_clock(&mut self, worker: usize, incarnation: u64, pid: Option<u32>, worker_now: u64) {
        let now = self.collector.now_micros();
        let lane = self.lane_mut(worker, incarnation);
        #[allow(clippy::cast_possible_wrap)]
        {
            lane.offset_micros = now as i64 - worker_now as i64;
        }
        if let Some(pid) = pid {
            lane.pid = pid;
        }
    }

    /// Fold one shipped `Obs` frame into the worker's lane.
    fn on_obs(
        &mut self,
        worker: usize,
        incarnation: u64,
        spans: Vec<WireSpan>,
        bindings: Vec<SpanBinding>,
        dropped: u64,
    ) {
        let lane = self.lane_mut(worker, incarnation);
        lane.spans.extend(spans);
        lane.bindings.extend(bindings);
        lane.dropped = lane.dropped.max(dropped);
    }

    /// Close a request's trace at completion: record the request span
    /// under its reserved id plus queue-wait and worker-await children
    /// (the latter only once the request was actually dispatched).
    fn finish(&mut self, seq: u64, arrived: Instant) {
        let Some(rt) = self.requests.remove(&seq) else { return };
        let start = self.collector.micros_at(arrived);
        let end = self.collector.now_micros();
        self.collector
            .record_prealloc(rt.span, "request", start, end.saturating_sub(start), 0);
        self.span_trace.insert(rt.span, rt.trace_id);
        if let Some(d) = rt.dispatched {
            let dispatch = self.collector.micros_at(d);
            let queued = self.collector.record_manual(
                "queue_wait",
                start,
                dispatch.saturating_sub(start),
                rt.span,
            );
            let awaited = self.collector.record_manual(
                "await_worker",
                dispatch,
                end.saturating_sub(dispatch),
                rt.span,
            );
            self.span_trace.insert(queued, rt.trace_id);
            self.span_trace.insert(awaited, rt.trace_id);
        }
    }

    /// Assemble and write the merged Chrome trace: lane 0 is the
    /// front-end collector verbatim; each worker incarnation becomes a
    /// lane keyed by its OS pid with timestamps shifted onto the
    /// front-end clock and span ids remapped into a per-lane namespace.
    /// Worker solve roots with a trace binding re-parent under the
    /// front-end request span — that link is what makes each timeline
    /// end-to-end.
    fn write(&self) {
        const LANE_ID_MASK: u64 = (1 << 40) - 1;
        let mut lanes = Vec::with_capacity(self.lanes.len() + 1);
        lanes.push(TraceLane {
            pid: 1,
            label: "front-end".to_string(),
            events: self
                .collector
                .events()
                .into_iter()
                .map(|e| LaneEvent {
                    name: e.name.to_string(),
                    start_micros: e.start_micros,
                    duration_micros: e.duration_micros,
                    thread_id: e.thread_id,
                    id: e.id,
                    parent_id: e.parent_id,
                    trace_id: self.span_trace.get(&e.id).copied().unwrap_or(0),
                })
                .collect(),
        });
        let mut dropped = self.collector.dropped_events();
        for (i, lane) in self.lanes.iter().enumerate() {
            dropped += lane.dropped;
            let lane_no = i as u64 + 1;
            let remap = |id: u64| (lane_no << 40) | (id & LANE_ID_MASK);
            let bound: HashMap<u64, &SpanBinding> =
                lane.bindings.iter().map(|b| (b.span, b)).collect();
            let events = lane
                .spans
                .iter()
                .map(|s| {
                    let (parent_id, trace_id) = match (s.parent_id, bound.get(&s.id)) {
                        // A bound root parents under the front-end
                        // request span (lane-0 ids are not remapped).
                        (0, Some(b)) => (b.parent_span, b.trace_id),
                        (0, None) => (0, 0),
                        (p, _) => (remap(p), 0),
                    };
                    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
                    let start_micros =
                        (s.start_micros as i64 + lane.offset_micros).max(0) as u64;
                    LaneEvent {
                        name: s.name.clone(),
                        start_micros,
                        duration_micros: s.duration_micros,
                        thread_id: s.thread_id,
                        id: remap(s.id),
                        parent_id,
                        trace_id,
                    }
                })
                .collect();
            // A lane with no Hello (pid unknown) still renders, on a
            // synthetic pid clear of real ones.
            #[allow(clippy::cast_possible_truncation)]
            let pid = if lane.pid == 0 { 1_000_000 + lane_no as u32 } else { lane.pid };
            lanes.push(TraceLane {
                pid,
                label: format!("worker {} pid {pid}", lane.worker),
                events,
            });
        }
        let json = chrome_trace_merged(&lanes, dropped);
        match std::fs::write(&self.path, &json) {
            Ok(()) => aa_obs::obs_info!(
                "fleet",
                "merged trace: {} lanes → {}",
                lanes.len(),
                self.path.display()
            ),
            Err(e) => aa_obs::obs_warn!(
                "fleet",
                "failed to write merged trace {}: {e}",
                self.path.display()
            ),
        }
    }
}

/// A retired worker must stop exporting as live: drop its federated
/// series (no more re-publishes — the slot never respawns) and pin its
/// `aa_fleet_worker_up{worker=…}` gauge to 0.
fn retire_worker_export(registry: &aa_obs::Registry, fm: &FleetMetrics, w: usize) {
    registry.drop_worker(&w.to_string());
    if let Some(m) = fm.per_worker.get(w) {
        m.up.set(0.0);
    }
}

/// The event loop's state. One instance, owned by one thread.
struct FleetCore<'a, W: Write> {
    opts: &'a FleetOpts,
    registry: &'a aa_obs::Registry,
    answers: &'a Answers<'a, W>,
    fm: FleetMetrics,
    tx: Sender<Event>,
    router: FleetRouter,
    pending: PendingMap<Admit>,
    parked: ParkedQueues<u64>,
    /// Requests admitted while no worker is routable (transient
    /// all-down); drained on the next hello.
    pen: VecDeque<u64>,
    /// Replays scheduled after backoff: (due, seq).
    retries: BinaryHeap<Reverse<(Instant, u64)>>,
    slots: Vec<WorkerSlot>,
    next_seq: u64,
    next_incarnation: u64,
    rng: StdRng,
    retry_backoff: Backoff,
    spawn_backoff: Backoff,
    last_tick: Instant,
    eof: bool,
    drain_deadline: Option<Instant>,
    /// Distributed-tracing state; `Some` iff `--trace` was given.
    obs: Option<FleetObs>,
}

impl<'a, W: Write> FleetCore<'a, W> {
    fn new(
        opts: &'a FleetOpts,
        registry: &'a aa_obs::Registry,
        answers: &'a Answers<'a, W>,
        tx: Sender<Event>,
    ) -> Result<Self, CliError> {
        let workers = opts.workers.max(1);
        let mut core = FleetCore {
            opts,
            registry,
            answers,
            fm: FleetMetrics::new(registry, workers),
            tx,
            router: FleetRouter::new(workers),
            pending: PendingMap::new(),
            parked: ParkedQueues::new(),
            pen: VecDeque::new(),
            retries: BinaryHeap::new(),
            slots: (0..workers).map(|_| WorkerSlot::empty()).collect(),
            next_seq: 0,
            next_incarnation: 1,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x666c_6565_7421),
            retry_backoff: Backoff {
                base: Duration::from_millis(DEFAULT_RETRY_BACKOFF_BASE_MS),
                max: Duration::from_millis(DEFAULT_RETRY_BACKOFF_MAX_MS),
            },
            spawn_backoff: Backoff {
                base: Duration::from_millis(DEFAULT_RETRY_BACKOFF_BASE_MS),
                max: Duration::from_millis(DEFAULT_RETRY_BACKOFF_MAX_MS),
            },
            last_tick: Instant::now(),
            eof: false,
            drain_deadline: None,
            obs: opts.trace.clone().map(FleetObs::new),
        };
        for w in 0..workers {
            if let Err(e) = core.spawn_worker(w) {
                // Startup is all-or-nothing: tear down what spawned and
                // surface the distinct exit-code-9 class.
                core.shutdown();
                return Err(CliError::WorkerSpawn(e));
            }
        }
        Ok(core)
    }

    /// Spawn (or respawn) slot `w` and its pipe reader thread.
    fn spawn_worker(&mut self, w: usize) -> std::io::Result<()> {
        let program = match &self.opts.worker_cmd {
            Some(p) => p.clone(),
            None => std::env::current_exe()?,
        };
        let inc = self.next_incarnation;
        self.next_incarnation += 1;
        let mut child = Command::new(program)
            .args(worker_args(self.opts, w, self.slots[w].chaos_offset))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stdin = child.stdin.take().expect("stdin piped");
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || reader_thread(stdout, w, inc, &tx));
        let slot = &mut self.slots[w];
        slot.child = Some(child);
        slot.stdin = Some(stdin);
        slot.reader = Some(reader);
        slot.incarnation = inc;
        slot.up = false;
        slot.resp_count = 0;
        slot.respawn_at = None;
        slot.spawned_at = Instant::now();
        slot.unanswered_pings = 0;
        slot.in_flight = 0;
        Ok(())
    }

    /// Best-effort frame write; a dead pipe surfaces via the reader's
    /// `WorkerGone`, which replays whatever was assigned.
    fn send_to(&mut self, w: usize, payload: &str) {
        if let Some(stdin) = self.slots[w].stdin.as_mut() {
            let _ = write_frame(stdin, payload.as_bytes());
            let _ = stdin.flush();
        }
    }

    fn run(mut self, rx: &Receiver<Event>) {
        self.last_tick = Instant::now();
        loop {
            match rx.recv_timeout(self.next_wakeup()) {
                Ok(ev) => self.handle(ev),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while `self.tx` lives, but harmless.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.service_timers();
            if self.eof {
                if self.pending.is_empty() {
                    break;
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    self.answer_all(
                        "shutdown",
                        "front-end shutting down before the request was answered; safe to retry",
                    );
                    break;
                }
            }
        }
        self.shutdown();
        // A worker ships its final span batch right after the answer
        // that emptied `pending`, so those frames may still be queued
        // when the loop exits. Absorb the stragglers (Obs only —
        // responses and deaths are moot post-shutdown) so the merged
        // trace and federated metrics cover every solve.
        while let Ok(ev) = rx.try_recv() {
            if let Event::FromWorker { msg: FromWorker::Obs { .. }, .. } = &ev {
                self.handle(ev);
            }
        }
        if let Some(obs) = &self.obs {
            obs.write();
        }
    }

    /// How long the loop may sleep before a timer (heartbeat, retry,
    /// respawn, drain deadline) needs service.
    fn next_wakeup(&self) -> Duration {
        let now = Instant::now();
        let mut next = self.last_tick + Duration::from_millis(self.opts.heartbeat_ms.max(1));
        if let Some(Reverse((t, _))) = self.retries.peek() {
            next = next.min(*t);
        }
        for slot in &self.slots {
            if let Some(t) = slot.respawn_at {
                next = next.min(t);
            }
        }
        if let Some(d) = self.drain_deadline {
            next = next.min(d);
        }
        next.saturating_duration_since(now)
    }

    fn service_timers(&mut self) {
        let now = Instant::now();
        for w in 0..self.slots.len() {
            if self.slots[w].respawn_at.is_some_and(|t| now >= t) {
                self.slots[w].respawn_at = None;
                self.respawn(w);
            }
        }
        while self.retries.peek().is_some_and(|Reverse((t, _))| *t <= now) {
            let Reverse((_, seq)) = self.retries.pop().expect("peeked");
            self.dispatch(seq);
        }
        if now.saturating_duration_since(self.last_tick)
            >= Duration::from_millis(self.opts.heartbeat_ms.max(1))
        {
            self.last_tick = now;
            self.tick();
        }
    }

    /// One heartbeat round: declare silent workers dead, ping the rest.
    fn tick(&mut self) {
        let hello_grace = Duration::from_millis(
            self.opts.heartbeat_ms.max(1)
                * u64::from(self.opts.heartbeat_miss_limit.max(1) + 1),
        );
        for w in 0..self.slots.len() {
            if self.slots[w].child.is_none() || self.slots[w].retired {
                continue;
            }
            if !self.slots[w].up {
                if self.slots[w].spawned_at.elapsed() > hello_grace {
                    self.kill_worker(w);
                }
                continue;
            }
            if self.slots[w].unanswered_pings >= self.opts.heartbeat_miss_limit.max(1) {
                self.kill_worker(w);
                continue;
            }
            self.slots[w].nonce += 1;
            let ping = ToWorker::Ping { nonce: self.slots[w].nonce };
            self.send_to(w, &serde_json::to_string(&ping).expect("pings always serialize"));
            self.slots[w].unanswered_pings += 1;
            self.maybe_close_draining(w);
        }
    }

    /// Force-kill a wedged worker; its reader thread reports the death.
    fn kill_worker(&mut self, w: usize) {
        if let Some(child) = self.slots[w].child.as_mut() {
            let _ = child.kill();
        }
    }

    /// A shrink-drained worker with nothing in flight gets its EOF.
    fn maybe_close_draining(&mut self, w: usize) {
        if self.slots[w].draining && self.slots[w].in_flight == 0 {
            self.slots[w].stdin = None;
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Admit(admit) => self.on_admit(*admit),
            Event::Resize { workers, id } => self.on_resize(workers, id),
            Event::FromWorker { worker, incarnation, msg } => {
                if worker >= self.slots.len() || self.slots[worker].incarnation != incarnation {
                    return;
                }
                match msg {
                    FromWorker::Hello { pid, now_micros, .. } => {
                        if let Some(obs) = &mut self.obs {
                            obs.on_worker_clock(worker, incarnation, Some(pid), now_micros);
                        }
                        self.on_hello(worker);
                    }
                    FromWorker::Pong { solves, solve_panics, now_micros, metrics, .. } => {
                        self.slots[worker].unanswered_pings = 0;
                        #[allow(clippy::cast_precision_loss)]
                        {
                            self.fm.per_worker[worker].solves.set(solves as f64);
                            self.fm.per_worker[worker].solve_panics.set(solve_panics as f64);
                        }
                        if let Some(obs) = &mut self.obs {
                            obs.on_worker_clock(worker, incarnation, None, now_micros);
                        }
                        self.federate(worker, metrics);
                    }
                    FromWorker::Resp { seq, result } => self.on_resp(worker, seq, result),
                    FromWorker::Obs { now_micros, spans, bindings, dropped, metrics } => {
                        if let Some(obs) = &mut self.obs {
                            obs.on_worker_clock(worker, incarnation, None, now_micros);
                            obs.on_obs(worker, incarnation, spans, bindings, dropped);
                        }
                        self.federate(worker, metrics);
                    }
                }
            }
            Event::WorkerGone { worker, incarnation } => self.on_gone(worker, incarnation),
            Event::Eof => {
                self.eof = true;
                if !self.pending.is_empty() {
                    self.drain_deadline = Some(
                        Instant::now() + Duration::from_millis(self.opts.drain_timeout_ms),
                    );
                }
            }
        }
    }

    /// Fold a worker's shipped registry snapshot into the front-end's.
    fn federate(&self, worker: usize, snapshot: Option<MetricsSnapshot>) {
        if let Some(snap) = snapshot {
            self.registry.merge_worker_snapshot(&worker.to_string(), snap.into_federated());
        }
    }

    fn on_admit(&mut self, admit: Admit) {
        let cap = self.opts.queue.max(1) * self.router.workers().max(1);
        if self.pending.len() >= cap {
            // A dead output pipe is not fatal mid-drain: the loop still
            // owes every worker an orderly shutdown.
            self.answers.send(admit.ticket, Outcome::Overloaded).ok();
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .insert(seq, admit.stream, admit)
            .expect("front-end seqs are unique by construction");
        if let Some(obs) = &mut self.obs {
            obs.admit(seq);
        }
        self.dispatch(seq);
    }

    /// Answer a request that left `pending`: close its trace (when
    /// tracing) and hand the outcome to the shared answer path.
    fn answer(&mut self, seq: u64, job: Admit, outcome: Outcome) {
        if let Some(obs) = &mut self.obs {
            obs.finish(seq, job.ticket.arrived);
        }
        self.answers.send(job.ticket, outcome).ok();
    }

    /// Route and send one pending, unassigned request.
    fn dispatch(&mut self, seq: u64) {
        let Some(entry) = self.pending.get(seq) else {
            return; // already answered (e.g. a retry raced a completion)
        };
        if entry.assigned.is_some() {
            return;
        }
        let stream = entry.stream;
        if entry.job.ticket.deadline().is_some_and(|d| Instant::now() >= d) {
            let e = self.pending.complete(seq).expect("just observed pending");
            let d = e.job.ticket.deadline_ms.unwrap_or(0);
            let error = format!("deadline ({d} ms) expired before dispatch");
            self.answer(seq, e.job, Outcome::Expired(error));
            return;
        }
        match stream {
            Some(strm) => match self.router.route(strm) {
                RouteDecision::To(w) => self.send_req(w, seq),
                RouteDecision::Park => {
                    self.parked.park(strm, seq);
                    self.fm.parked.inc();
                }
                RouteDecision::NoWorkers => self.no_workers(seq),
            },
            None => {
                let cold = {
                    let slots = &self.slots;
                    self.router.route_cold(|w| slots[w].in_flight as usize)
                };
                match cold {
                    Some(w) => self.send_req(w, seq),
                    None => self.no_workers(seq),
                }
            }
        }
    }

    fn send_req(&mut self, w: usize, seq: u64) {
        let now = Instant::now();
        self.pending.assign(seq, w).expect("dispatch checked pending");
        let entry = self.pending.get(seq).expect("just assigned");
        #[allow(clippy::cast_possible_truncation)]
        let budget_ms = entry
            .job
            .ticket
            .deadline()
            .map(|d| d.saturating_duration_since(now).as_millis() as u64);
        let trace = self.obs.as_mut().and_then(|o| o.dispatch_ctx(seq));
        let payload = encode_req(seq, entry.stream, budget_ms, trace, &entry.job.problem);
        self.slots[w].in_flight += 1;
        self.fm.dispatched.inc();
        self.fm.per_worker[w].dispatched.inc();
        self.send_to(w, &payload);
    }

    /// No routable worker: hold the request unless the whole fleet is
    /// retired, in which case fail it as retryable-internal.
    fn no_workers(&mut self, seq: u64) {
        if self.all_retired() {
            if let Some(e) = self.pending.complete(seq) {
                let error = "no live fleet workers (all retired); safe to retry elsewhere";
                self.answer(seq, e.job, Outcome::error("internal", error));
            }
        } else {
            self.pen.push_back(seq);
        }
    }

    fn all_retired(&self) -> bool {
        (0..self.router.workers()).all(|w| self.slots[w].retired)
    }

    fn on_hello(&mut self, w: usize) {
        self.slots[w].up = true;
        self.slots[w].unanswered_pings = 0;
        self.fm.per_worker[w].up.set(1.0);
        self.router.worker_up(w);
        let pen = std::mem::take(&mut self.pen);
        for seq in pen {
            self.dispatch(seq);
        }
    }

    fn on_resp(&mut self, w: usize, seq: u64, result: WorkerResult) {
        self.slots[w].resp_count += 1;
        self.slots[w].in_flight = self.slots[w].in_flight.saturating_sub(1);
        let Some(entry) = self.pending.complete(seq) else {
            // A completion for a seq no longer pending — replayed and
            // answered elsewhere already. Exactly-once: drop it.
            self.fm.duplicates.inc();
            return;
        };
        let outcome = match result {
            WorkerResult::Ok { tier, degraded, utility, server, allocation, solve_micros } => {
                Outcome::Ok {
                    tier,
                    degraded,
                    utility,
                    server,
                    allocation,
                    solve_micros,
                    routed: Some((w, entry.attempts)),
                }
            }
            WorkerResult::Err { class, error, queue_expired, .. } => {
                if class == "shutdown" {
                    self.fm.shutdown_answers.inc();
                }
                if class == "deadline" && queue_expired {
                    Outcome::Expired(error)
                } else {
                    Outcome::Error { class, error }
                }
            }
        };
        let stream = entry.stream;
        self.answer(seq, entry.job, outcome);
        if let Some(strm) = stream {
            let released = self.router.complete(strm, w);
            self.release(released);
        }
        self.maybe_close_draining(w);
    }

    /// A worker died (or violated the protocol): reroute its ring
    /// ranges, replay its in-flight requests with backoff, respawn it.
    fn on_gone(&mut self, w: usize, incarnation: u64) {
        if w >= self.slots.len() || self.slots[w].incarnation != incarnation {
            return;
        }
        // Reap this incarnation.
        if let Some(h) = self.slots[w].reader.take() {
            let _ = h.join();
        }
        if let Some(mut child) = self.slots[w].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[w].stdin = None;
        self.slots[w].up = false;
        self.slots[w].unanswered_pings = 0;
        self.fm.per_worker[w].up.set(0.0);

        // Reroute: streams the dead worker held release to their ring
        // successor immediately.
        let released = self.router.worker_down(w);
        self.release(released);

        // Replay in-flight requests — reinsert-then-complete, so the
        // pending map stays the sole exactly-once bookkeeper.
        let taken = self.pending.take_assigned(w);
        self.slots[w].in_flight = 0;
        let now = Instant::now();
        for entry in taken {
            self.fm.replayed.inc();
            let seq = entry.seq;
            let attempts = entry.attempts;
            let exhausted = attempts > self.opts.max_retries;
            self.pending
                .reinsert(entry)
                .expect("taken seqs are no longer in the map");
            if exhausted {
                let e = self.pending.complete(seq).expect("just reinserted");
                self.fm.exhausted.inc();
                let error = format!(
                    "request lost {attempts} dispatch attempts to worker crashes; safe to retry"
                );
                self.answer(seq, e.job, Outcome::error("internal", error));
            } else {
                self.fm.retries.inc();
                let delay = self.retry_backoff.delay(attempts.max(1), &mut self.rng);
                self.retries.push(Reverse((now + delay, seq)));
            }
        }

        // Supervise: count the death, then retire or schedule respawn.
        self.slots[w].deaths += 1;
        self.fm.per_worker[w].restarts.inc();
        if w >= self.router.workers() || self.slots[w].draining {
            // Shrunk away — the death doubles as drain completion.
            self.slots[w].draining = false;
            self.slots[w].retired = true;
            self.fm.handoffs.inc();
            retire_worker_export(self.registry, &self.fm, w);
            return;
        }
        if self.retire_if_spent(w) {
            return;
        }
        // Next incarnation's chaos offset: the plan's fault seq for this
        // death keeps the cumulative solve counter exact (the fault that
        // just fired can never re-fire); unplanned deaths fall back to
        // the observed response count.
        let fallback = self.slots[w].chaos_offset + self.slots[w].resp_count;
        self.slots[w].chaos_offset = match &self.opts.chaos {
            Some(plan) => plan
                .faults
                .get(w)
                .and_then(|fs| fs.get(self.slots[w].deaths as usize - 1))
                .map_or(fallback, |&(seq, _)| seq),
            None => fallback,
        };
        self.schedule_respawn(w);
    }

    /// Dispatch the requests parked behind `streams` (handoffs released
    /// by a completion or a worker going down).
    fn release(&mut self, streams: Vec<u64>) {
        for strm in streams {
            for seq in self.parked.release(strm) {
                self.dispatch(seq);
            }
        }
    }

    /// Retire slot `w` once its deaths exceed `--max-restarts`; when that
    /// leaves no live slot, everything pending is answered `internal`.
    /// True when the slot is retired.
    fn retire_if_spent(&mut self, w: usize) -> bool {
        if self.slots[w].deaths <= self.opts.max_restarts {
            return false;
        }
        self.slots[w].retired = true;
        retire_worker_export(self.registry, &self.fm, w);
        if self.all_retired() {
            self.answer_all("internal", ALL_RETIRED);
        }
        true
    }

    /// Respawn slot `w` after the backoff its death count earns.
    fn schedule_respawn(&mut self, w: usize) {
        #[allow(clippy::cast_possible_truncation)]
        let attempt = self.slots[w].deaths.min(u64::from(u32::MAX)) as u32;
        let delay = self.spawn_backoff.delay(attempt, &mut self.rng);
        self.slots[w].respawn_at = Some(Instant::now() + delay);
    }

    fn respawn(&mut self, w: usize) {
        if self.slots[w].retired || w >= self.router.workers() {
            return;
        }
        if self.spawn_worker(w).is_err() {
            // Runtime spawn failure (distinct from startup): treat it as
            // an instant death and keep backing off until the restart
            // budget retires the slot.
            self.slots[w].deaths += 1;
            if !self.retire_if_spent(w) {
                self.schedule_respawn(w);
            }
        }
    }

    /// Membership change by control request: growing spawns, shrinking
    /// drains and hands the removed ring ranges to the survivors.
    /// `n >= 1` by construction: the ingress answers a zero-size resize
    /// as an unsupported control line.
    fn on_resize(&mut self, n: usize, id: serde_json::Value) {
        let was = self.router.workers();
        self.fm.resizes.inc();
        if n > was {
            self.fm.ensure(self.registry, n);
            while self.slots.len() < n {
                self.slots.push(WorkerSlot::empty());
            }
            self.router.resize(n);
            for w in was..n {
                self.slots[w].retired = false;
                self.slots[w].draining = false;
                self.slots[w].deaths = 0;
                if self.spawn_worker(w).is_err() {
                    // Grow is best-effort at runtime: the slot stays
                    // down and the respawn path keeps trying.
                    self.slots[w].deaths = 1;
                    self.schedule_respawn(w);
                }
            }
        } else if n < was {
            // Down the removed workers in the router *before* resizing:
            // resize drops their outstanding entries, and the parked
            // streams they held must be recovered first.
            for w in n..was {
                self.slots[w].draining = true;
                self.slots[w].respawn_at = None;
                let released = self.router.worker_down(w);
                self.release(released);
            }
            self.router.resize(n);
            for w in n..was {
                if self.slots[w].child.is_none() {
                    // Already dead — nothing to drain.
                    self.slots[w].draining = false;
                    self.slots[w].retired = true;
                    retire_worker_export(self.registry, &self.fm, w);
                } else {
                    self.maybe_close_draining(w);
                }
            }
        }
        let ack = ResizeAck { status: "resized".to_string(), id, fleet: n, was };
        self.answers.write(&ack).ok();
    }

    /// Answer everything still pending with one retryable error: every
    /// slot retired (`internal`), or the drain timed out at shutdown
    /// (`shutdown`). Nothing can be dispatched after this.
    fn answer_all(&mut self, class: &str, error: &str) {
        self.pen.clear();
        self.retries.clear();
        self.parked = ParkedQueues::new();
        for e in self.pending.drain_all() {
            if class == "shutdown" {
                self.fm.shutdown_answers.inc();
            }
            self.answer(e.seq, e.job, Outcome::error(class, error));
        }
    }

    /// Close every worker's stdin, give them a bounded window to drain
    /// and exit cleanly, then force the stragglers and join the readers.
    fn shutdown(&mut self) {
        for slot in &mut self.slots {
            slot.stdin = None;
            slot.respawn_at = None;
        }
        let deadline = Instant::now()
            + Duration::from_millis(self.opts.drain_timeout_ms.saturating_add(500));
        loop {
            let mut alive = false;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) | Err(_) => slot.child = None,
                        Ok(None) => alive = true,
                    }
                }
            }
            if !alive || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (w, slot) in self.slots.iter_mut().enumerate() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            // Safe to join: the child is dead, so the pipe is at EOF.
            if let Some(h) = slot.reader.take() {
                let _ = h.join();
            }
            if w < self.fm.per_worker.len() {
                self.fm.per_worker[w].up.set(0.0);
            }
        }
    }
}

/// `--fleet` admission: forward requests and resize lines to the event
/// loop. The problem travels undecoded: its one decode is the worker's,
/// so a malformed problem costs an admission slot and a round trip and
/// comes back `class:"parse"` or `class:"problem"`.
struct FleetAdmission<'a> {
    tx: &'a Sender<Event>,
}

impl Admission for FleetAdmission<'_> {
    fn admit(&mut self, req: Admit) -> std::io::Result<bool> {
        Ok(self.tx.send(Event::Admit(Box::new(req))).is_ok())
    }

    fn control(
        &mut self,
        line: &serde_json::Scan<'_>,
        id: &serde_json::Value,
    ) -> Result<bool, &'static str> {
        let control = line.get("control");
        let fleet = line.get("fleet").as_ref().and_then(serde_json::Value::as_u64);
        match (control.as_ref().and_then(serde_json::Value::as_str), fleet) {
            (Some("resize"), Some(n)) if n >= 1 => {
                #[allow(clippy::cast_possible_truncation)]
                let workers = n as usize;
                Ok(self.tx.send(Event::Resize { workers, id: id.clone() }).is_ok())
            }
            _ => Err("unsupported control line; expected \
                      {\"control\":\"resize\",\"fleet\":N} with N >= 1"),
        }
    }
}

/// Run the fleet request loop until `input` reaches EOF, then drain
/// (bounded by `drain_timeout_ms`) and return the session counters.
/// Spawn failure at startup is [`CliError::WorkerSpawn`] (exit code 9).
///
/// All accounting flows through `registry`: the same `aa_serve_*` family
/// as single-process serve for request-level counts, plus the
/// front-end's `aa_fleet_*` route/retry/handoff counters and the
/// per-worker `aa_fleet_*{worker=…}` series.
pub fn run_fleet_serve<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    opts: &FleetOpts,
    registry: &aa_obs::Registry,
) -> Result<ServeCounters, CliError> {
    let out = Mutex::new(output);
    let metrics = ServeMetrics::new(registry, opts.slo_p99_ms);
    let answers =
        Answers { out: &out, metrics: &metrics, queue: opts.queue };
    let (tx, rx) = mpsc::channel::<Event>();
    std::thread::scope(|s| -> Result<(), CliError> {
        let core = FleetCore::new(opts, registry, &answers, tx.clone())?;
        let event_loop = s.spawn(move || core.run(&rx));
        let mut admission = FleetAdmission { tx: &tx };
        let read_result =
            ingress(input, opts.max_line_bytes, opts.default_deadline_ms, &answers, &mut admission);
        let _ = tx.send(Event::Eof);
        drop(tx);
        event_loop.join().expect("fleet event loop does not panic");
        read_result.map_err(CliError::Io)
    })?;
    Ok(metrics.snapshot())
}

// ---------------------------------------------------------------------------
// Chaos driver
// ---------------------------------------------------------------------------

/// A [`BufRead`] fed line-by-line from a channel — the chaos driver's
/// end of the fleet's stdin.
struct LineSource {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl LineSource {
    fn new(rx: Receiver<String>) -> Self {
        LineSource { rx, buf: Vec::new(), pos: 0 }
    }
}

impl Read for LineSource {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineSource {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => {
                    // Sender dropped: EOF.
                    self.buf.clear();
                    self.pos = 0;
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// A [`Write`] that forwards complete lines into a channel — the
/// driver's end of the fleet's stdout.
struct LineSink {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl LineSink {
    fn new(tx: Sender<String>) -> Self {
        LineSink { tx, buf: Vec::new() }
    }
}

impl Write for LineSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(p) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=p).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let _ = self.tx.send(text);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Deterministic per-stream problem: one fixed problem per stream (the
/// same every round, so worker warm state is exercised and the expected
/// utility bits are a pure function of `(seed, stream)`).
fn stream_problem(seed: u64, stream: u64) -> ProblemFile {
    let mut state = splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let capacity = 64.0;
    let servers = 2 + (next() % 2) as usize;
    let thread_count = 4 + (next() % 3) as usize;
    let threads = (0..thread_count)
        .map(|_| {
            let r = next();
            #[allow(clippy::cast_precision_loss)]
            let scale = 1.0 + (r % 8) as f64 * 0.5;
            #[allow(clippy::cast_precision_loss)]
            let shape = 0.1 * ((r >> 8) % 4) as f64;
            if r % 2 == 0 {
                UtilitySpec::Power { scale, beta: 0.3 + shape, cap: capacity }
            } else {
                UtilitySpec::Log { scale, rate: 0.5 + shape, cap: capacity }
            }
        })
        .collect();
    ProblemFile { servers, capacity, threads }
}

/// One request line the chaos driver sends.
#[derive(Serialize)]
struct ChaosRequestLine {
    id: u64,
    stream: u64,
    problem: ProblemFile,
}

/// Parse one fleet response line into an observation (plus the
/// answering worker, when the line carries one).
fn parse_chaos_line(line: &str, seq_stream: &[u64]) -> Option<(FleetObservation, Option<usize>)> {
    let v = serde_json::from_str::<serde_json::Value>(line).ok()?;
    let seq = v.get("id")?.as_u64()?;
    #[allow(clippy::cast_possible_truncation)]
    let stream = *seq_stream.get(seq as usize)?;
    let status = v.get("status")?.as_str()?.to_string();
    let ok = status == "ok";
    let class = if ok {
        String::new()
    } else {
        v.get("class")
            .and_then(serde_json::Value::as_str)
            .unwrap_or(&status)
            .to_string()
    };
    let utility_bits = if ok { v.get("utility")?.as_f64()?.to_bits() } else { 0 };
    #[allow(clippy::cast_possible_truncation)]
    let attempts = v.get("attempts").and_then(serde_json::Value::as_u64).unwrap_or(1) as u32;
    let solve_micros = v
        .get("solve_micros")
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0);
    #[allow(clippy::cast_possible_truncation)]
    let worker = v.get("worker").and_then(serde_json::Value::as_u64).map(|w| w as usize);
    Some((
        FleetObservation { seq, stream, ok, class, utility_bits, attempts, solve_micros },
        worker,
    ))
}

/// The fast deterministic ladder both the chaos workers and the
/// single-process reference solve use.
fn chaos_ladder() -> Vec<Tier> {
    vec![Tier::Algo2, Tier::Uu]
}

/// Drive a real multi-process fleet through a seeded fault storm and
/// fold the observations into the deterministic verdict.
///
/// The front-end runs in-process (sharing a private metrics registry
/// with the driver); the workers are genuine child processes re-execed
/// from the current binary, so kills, stalls, and garbage frames
/// exercise the real pipes-and-supervision path. Call this from the
/// `aa-solve` binary only — a foreign `current_exe` has no
/// `serve-worker` mode.
pub fn run_fleet_chaos(cfg: &FleetChaosConfig) -> Result<FleetChaosReport, CliError> {
    let plan = ProcessChaosPlan::from_config(cfg);
    let streams = balanced_keys(cfg.workers, cfg.streams_per_worker);
    let files: Vec<ProblemFile> = streams.iter().map(|&s| stream_problem(cfg.seed, s)).collect();

    // Single-process reference: the same ladder, unlimited budget, cold
    // solve (warm and cold are bit-identical by the tiered contract, so
    // this pins the fleet's answers bit-for-bit).
    let mut reference_bits = HashMap::new();
    for (file, &stream) in files.iter().zip(&streams) {
        let problem = build_problem(file)?;
        let solver = TieredSolver::with_ladder(chaos_ladder());
        let solve = solver.try_solve_within_caught(&problem, &Budget::unlimited(), None)?;
        reference_bits.insert(stream, solve.utility.to_bits());
    }

    let opts = FleetOpts {
        workers: cfg.workers,
        queue: streams.len().max(4),
        // Tight heartbeats so scheduled stalls (stall_millis, default
        // 2000 ms) blow the 150 ms × 4 tolerance fast, while
        // microsecond-scale solves never miss one.
        heartbeat_ms: 150,
        heartbeat_miss_limit: 4,
        max_retries: 6,
        // A storm must never retire a worker: every scheduled fault is
        // supposed to end in a restart.
        max_restarts: u64::MAX - 1,
        ladder: Some(chaos_ladder()),
        seed: cfg.seed,
        slo_p99_ms: Some((cfg.slo_p99_micros / 1000).max(1)),
        chaos: Some(plan.clone()),
        ..FleetOpts::default()
    };
    let registry = aa_obs::Registry::new();
    let (tx_in, rx_in) = mpsc::channel::<String>();
    let (tx_out, rx_out) = mpsc::channel::<String>();

    let mut completions: Vec<FleetObservation> = Vec::new();
    let mut survived = true;
    let mut rebalanced = true;
    let mut admitted = 0u64;
    let mut seq_stream: Vec<u64> = Vec::new();
    let response_timeout = Duration::from_secs(60);

    let serve_result = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            run_fleet_serve(LineSource::new(rx_in), LineSink::new(tx_out), &opts, &registry)
        });

        // One closed-loop round: a request per stream, then every answer
        // before the next, so parked/outstanding state never exceeds one
        // request per stream. A `probe` round also checks that each
        // stream answered from its ring owner.
        let ring = Ring::new(cfg.workers);
        let mut round = |probe: bool| -> bool {
            for (file, &stream) in files.iter().zip(&streams) {
                let line = ChaosRequestLine { id: admitted, stream, problem: file.clone() };
                let json = serde_json::to_string(&line).expect("requests serialize");
                if tx_in.send(json).is_err() {
                    return false;
                }
                seq_stream.push(stream);
                admitted += 1;
            }
            for _ in 0..streams.len() {
                let Ok(line) = rx_out.recv_timeout(response_timeout) else { return false };
                if let Some((obs, worker)) = parse_chaos_line(&line, &seq_stream) {
                    if probe && worker != ring.owner(obs.stream) {
                        rebalanced = false;
                    }
                    completions.push(obs);
                }
            }
            true
        };
        survived = (0..cfg.rounds).all(|_| round(false));

        // Quiesce: the storm is over once every worker is back up.
        if survived {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let all_up = (0..cfg.workers).all(|w| {
                    registry
                        .gauge_labeled("aa_fleet_worker_up", "worker", &w.to_string())
                        .get()
                        == 1.0
                });
                if all_up {
                    break;
                }
                if Instant::now() >= deadline {
                    survived = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        // Probe round: with the fleet whole again, every stream must
        // route back to its ring owner (rebalance after recovery).
        survived = survived && round(true);

        drop(tx_in);
        handle.join().expect("fleet serve thread does not panic")
    });
    serve_result?;

    let restarts = (0..cfg.workers)
        .map(|w| {
            registry
                .counter_labeled("aa_fleet_restarts_total", "worker", &w.to_string())
                .get()
        })
        .collect();
    // SLO accounting is complete iff the burn-rate tracker observed
    // every completion the loop answered.
    let slo_tracked =
        registry.counter("aa_slo_good_total").get() + registry.counter("aa_slo_breach_total").get();
    let observations = FleetObservations {
        admitted,
        completions,
        restarts,
        survived,
        rebalanced,
        slo_tracked,
        reference_bits,
    };
    Ok(analyze_fleet(cfg, &plan, &observations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_sim::ProcessFault;

    #[test]
    fn ladders_parse_by_stable_names() {
        assert_eq!(
            parse_ladder("exact-bb, algo2-refined,algo2,uu").unwrap(),
            vec![Tier::BranchAndBound, Tier::Algo2Refined, Tier::Algo2, Tier::Uu]
        );
        assert_eq!(parse_ladder("algo2,uu").unwrap(), chaos_ladder());
        assert!(parse_ladder("algo3").is_err());
        assert!(parse_ladder("").is_err());
        // Round-trip: every tier's name parses back to itself.
        for tier in [Tier::BranchAndBound, Tier::Algo2Refined, Tier::Algo2, Tier::Price, Tier::Uu] {
            assert_eq!(parse_ladder(tier.name()).unwrap(), vec![tier]);
        }
    }

    #[test]
    fn worker_args_carry_ladder_and_chaos_schedule() {
        let plan = ProcessChaosPlan { faults: vec![vec![(5, ProcessFault::Kill)], vec![]] };
        let opts = FleetOpts {
            workers: 2,
            ladder: Some(vec![Tier::Algo2, Tier::Uu]),
            chaos: Some(plan),
            ..FleetOpts::default()
        };
        let args = worker_args(&opts, 0, 5);
        assert_eq!(args[0], "serve-worker");
        let ladder_at = args.iter().position(|a| a == "--ladder").expect("ladder flag");
        assert_eq!(args[ladder_at + 1], "algo2,uu");
        assert_eq!(parse_ladder(&args[ladder_at + 1]).unwrap(), vec![Tier::Algo2, Tier::Uu]);
        let faults_at = args.iter().position(|a| a == "--chaos-faults").expect("chaos flag");
        let parsed: Vec<(u64, ProcessFault)> =
            serde_json::from_str(&args[faults_at + 1]).expect("schedule round-trips");
        assert_eq!(parsed, vec![(5, ProcessFault::Kill)]);
        let off_at = args.iter().position(|a| a == "--chaos-offset").expect("offset flag");
        assert_eq!(args[off_at + 1], "5");

        // Worker 1 has no scheduled faults: no chaos flags at all.
        let args1 = worker_args(&opts, 1, 0);
        assert!(!args1.iter().any(|a| a == "--chaos-faults"));
        // No chaos configured: plain argv, and no span shipping unless
        // the front-end is tracing.
        let plain = worker_args(&FleetOpts::default(), 0, 0);
        assert!(!plain
            .iter()
            .any(|a| a == "--chaos-faults" || a == "--ladder" || a == "--obs-spans"));
        let traced = worker_args(
            &FleetOpts { trace: Some(PathBuf::from("t.json")), ..FleetOpts::default() },
            0,
            0,
        );
        assert!(traced.iter().any(|a| a == "--obs-spans"));
    }

    #[test]
    fn retired_worker_stops_exporting_as_live() {
        let registry = aa_obs::Registry::new();
        let fm = FleetMetrics::new(&registry, 2);
        fm.per_worker[1].up.set(1.0);
        // Worker 1 federated a solve histogram before retiring.
        let snap = {
            let worker_side = aa_obs::Registry::new();
            worker_side.histogram("aa_worker_solve_micros").record_micros(25);
            worker_side.to_federated()
        };
        registry.merge_worker_snapshot("1", snap);
        let before = aa_obs::export::prometheus_text(&registry);
        assert!(before.contains("aa_fleet_worker_up{worker=\"1\"} 1"), "{before}");
        assert!(before.contains("aa_worker_solve_micros_count{worker=\"1\"} 1"), "{before}");

        retire_worker_export(&registry, &fm, 1);
        let after = aa_obs::export::prometheus_text(&registry);
        // The up gauge pins to 0 and the worker's federated series are
        // gone — a retired worker never re-exports as live.
        assert!(after.contains("aa_fleet_worker_up{worker=\"1\"} 0"), "{after}");
        assert!(!after.contains("aa_worker_solve_micros_count{worker=\"1\"}"), "{after}");
        assert!(!after.contains("worker=\"fleet\""), "{after}");
        // Out-of-range slots are a no-op, not a panic.
        retire_worker_export(&registry, &fm, 9);
    }

    #[test]
    fn balanced_streams_cover_every_worker() {
        let streams = balanced_keys(4, 2);
        assert_eq!(streams.len(), 8);
        let ring = Ring::new(4);
        let mut per_worker = vec![0usize; 4];
        for &s in &streams {
            per_worker[ring.owner(s).unwrap()] += 1;
        }
        assert_eq!(per_worker, vec![2, 2, 2, 2]);
        // Deterministic.
        assert_eq!(streams, balanced_keys(4, 2));
    }

    #[test]
    fn stream_problems_are_deterministic_and_valid() {
        for stream in balanced_keys(3, 2) {
            let a = stream_problem(2016, stream);
            let b = stream_problem(2016, stream);
            assert_eq!(a, b, "same (seed, stream) must give the same problem");
            build_problem(&a).expect("generated problems validate");
        }
        assert_ne!(stream_problem(2016, 0), stream_problem(2017, 0));
    }

    #[test]
    fn line_source_and_sink_round_trip() {
        let (tx, rx) = mpsc::channel();
        tx.send("hello".to_string()).unwrap();
        tx.send("world".to_string()).unwrap();
        drop(tx);
        let mut src = LineSource::new(rx);
        let mut text = String::new();
        src.read_to_string(&mut text).unwrap();
        assert_eq!(text, "hello\nworld\n");

        let (tx, rx) = mpsc::channel();
        let mut sink = LineSink::new(tx);
        // Split writes reassemble into whole lines.
        sink.write_all(b"one li").unwrap();
        sink.write_all(b"ne\ntwo\n").unwrap();
        assert_eq!(rx.try_recv().unwrap(), "one line");
        assert_eq!(rx.try_recv().unwrap(), "two");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn chaos_lines_parse_into_observations() {
        let seq_stream = vec![7u64, 9u64];
        let ok_line = r#"{"status":"ok","id":1,"tier":"algo2","degraded":false,"utility":2.5,"server":[0],"allocation":[4.0],"latency_ms":0.3,"worker":2,"attempts":3,"solve_micros":41}"#;
        let (obs, worker) = parse_chaos_line(ok_line, &seq_stream).expect("parses");
        assert_eq!(
            (obs.seq, obs.stream, obs.ok, obs.attempts, obs.solve_micros, worker),
            (1, 9, true, 3, 41, Some(2))
        );
        assert_eq!(obs.utility_bits, 2.5f64.to_bits());

        let err_line = r#"{"status":"error","id":0,"class":"internal","error":"x"}"#;
        let (obs, worker) = parse_chaos_line(err_line, &seq_stream).expect("parses");
        assert_eq!((obs.seq, obs.stream, obs.ok, obs.utility_bits), (0, 7, false, 0));
        assert_eq!(obs.class, "internal");
        assert_eq!(worker, None);

        // Unknown id → dropped rather than misattributed.
        assert!(parse_chaos_line(r#"{"status":"ok","id":99}"#, &seq_stream).is_none());
    }
}
