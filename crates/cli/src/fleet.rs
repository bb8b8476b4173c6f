//! The serve supervisor behind every serving mode: routing,
//! exactly-once tracking and crash recovery over N worker links.
//!
//! A *link* is how one supervised worker runs ([`Link`]):
//!
//! * a **thread link** is a shard of one in-process
//!   [`aa_core::ShardPool`], fed request values over its queue — no
//!   serialization, no metric federation or span shipping (it shares the
//!   process's registry and collector), and no heartbeat: a thread's
//!   death is its exit. Plain `serve` and `serve --shards N` run N of
//!   them;
//! * a **process link** is a `serve-worker` child process
//!   ([`crate::worker`]: a one-shard pool behind its pipe) speaking the
//!   [`crate::proto`] frame protocol over its stdin/stdout. `serve
//!   --fleet N` runs N of them.
//!
//! Both answer every request through the same worker loop (a shard
//! thread calling [`aa_core::StreamSolver::answer`]), and everything
//! above the link is one implementation: the ingress loop and the answer
//! path ([`crate::serve`]), and this supervisor.
//!
//! # Threads
//!
//! All supervisor state sits behind one lock, taken by two threads:
//!
//! * the **stdin reader** (the calling thread) runs the shared ingress
//!   loop and dispatches each admitted request itself, so a request
//!   waits on no other thread to reach its worker; resize lines go to
//!   the event loop as events;
//! * each link reports answers and deaths as events: a thread link's
//!   completion callback and exit hook, or a process link's **pipe
//!   reader thread**, which decodes frames (a truncated, oversized, or
//!   unparseable frame is a protocol violation, and the worker is
//!   treated exactly as if it had crashed);
//! * the **event loop** thread handles those events and the timers.
//!
//! Under the lock, the supervisor routes stream keys over
//! [`FleetRouter`]'s consistent-hash ring (key-less requests go to the
//! least-loaded worker), tracks every admitted request in a
//! [`PendingMap`] (exactly-once: the first completion per seq wins,
//! later ones are dropped), heartbeats process links, and supervises: a
//! dead worker's in-flight and queued requests are pulled back and
//! replayed on survivors with exponential backoff and seeded jitter,
//! its ring ranges reroute, and the worker respawns with backoff — past
//! `--max-restarts` deaths it retires instead, and when every worker
//! has retired what is pending answers a retryable `class:"internal"`.
//! Requests that exhaust `--max-retries` dispatches answer the same
//! way. After a restart the ring rebalances back lazily: the next
//! request per stream routes to the restored owner, parking behind any
//! survivor still working that stream (drain → handoff → resume; never
//! two workers on one stream). Warm state is not migrated — the
//! restored owner rebuilds it transparently on the stream's next
//! request.
//!
//! # Membership control
//!
//! Over process links, a control line `{"control":"resize","fleet":N}`
//! (`1 <= N <=` [`MAX_WORKERS`]) resizes the fleet in place. Growing
//! spawns new workers; shrinking marks removed workers draining (they
//! finish in-flight work, then their stdin closes and they exit cleanly)
//! and hands their ring ranges to the survivors. Thread links take no
//! control lines.
//!
//! # Shutdown
//!
//! On stdin EOF the front-end stops admitting and waits up to
//! `--drain-timeout-ms` for pending requests; whatever remains is
//! answered with a retryable `class:"shutdown"` error. Worker processes
//! then see their own stdin EOF and drain the same way; shard threads
//! finish what they hold.
//!
//! # Chaos
//!
//! [`run_fleet_chaos`] drives a real supervisor over either link through
//! a seeded [`ProcessChaosPlan`] storm — kills, stalls, garbage frames,
//! contained solve panics — keyed on per-worker cumulative request
//! counts so the same seed replays the same storm. The verdict
//! ([`FleetChaosReport`]) contains only schedule- and invariant-derived
//! fields, so two runs with the same seed serialize byte-identically.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aa_core::fleet::{
    read_frame, write_frame, Backoff, FleetRouter, Link, ParkedQueues, PendingMap, RouteDecision,
    DEFAULT_RETRY_BACKOFF_BASE_MS, DEFAULT_RETRY_BACKOFF_MAX_MS, MAX_FRAME_BYTES, MAX_WORKERS,
};
use aa_core::ring::{splitmix64, Ring};
use aa_core::shard::{BuildFn, ShardConfig, ShardJob, ShardPool};
use aa_core::tiered::Tier;
use aa_core::{Budget, TieredSolver};
use aa_obs::export::{chrome_trace_merged, LaneEvent, TraceLane};
use aa_sim::{
    analyze_fleet, balanced_keys, FleetChaosConfig, FleetChaosReport, FleetObservation,
    FleetObservations, ProcessChaosPlan, ProcessFault,
};
use aa_utility::UtilitySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::proto::{
    encode_req, FromWorker, MetricsSnapshot, SpanBinding, ToWorker, TraceCtx, WireSpan,
    WorkerResult,
};
use crate::serve::{
    build_request, ingress, run_serve, Admission, Admit, Answers, Outcome,
    ServeOpts,
};
use crate::worker::worker_result;
use crate::{build_problem, CliError, ProblemFile};

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

/// Everything the event loop reacts to.
enum Event {
    Resize { workers: usize, id: serde_json::Value },
    /// A process link's frame.
    FromWorker { worker: usize, incarnation: u64, msg: FromWorker },
    /// A process link's pipe closed or broke protocol.
    WorkerGone { worker: usize, incarnation: u64 },
    /// A thread link's answer.
    Done(aa_core::ShardCompletion),
    /// A thread link's thread died.
    Exited(usize),
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

/// Supervisor registry handles (`aa_fleet_*`), alongside the request
/// accounting of the shared answer path (the `aa_serve_*` family).
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

/// One worker slot's supervision state. The slot outlives its worker:
/// each respawn bumps `incarnation`, and pipe events carrying a stale
/// incarnation are discarded.
#[derive(Default)]
struct WorkerSlot {
    /// The running worker process, on a process link.
    process: Option<ProcessLink>,
    incarnation: u64,
    up: bool,
    retired: bool,
    /// Shrink handoff: finish in-flight work, then close and exit.
    draining: bool,
    deaths: u64,
    /// Requests sent this incarnation: a thread link's chaos count, and
    /// the chaos offset after an unplanned death.
    sent: u64,
    /// Cumulative request count handed to the next incarnation.
    chaos_offset: u64,
    respawn_at: Option<Instant>,
    in_flight: u64,
}

/// A live worker process and its pipes.
struct ProcessLink {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: std::thread::JoinHandle<()>,
    spawned_at: Instant,
    unanswered_pings: u32,
    nonce: u64,
}

/// Build the `serve-worker` argv for slot `w` (pure, for tests).
fn worker_args(opts: &ServeOpts, w: usize, chaos_offset: u64) -> Vec<String> {
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
        let args = self.collector.span_args();
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
                    args: args
                        .get(&e.id)
                        .into_iter()
                        .flatten()
                        .map(|&(k, v)| (k.to_string(), v))
                        .collect(),
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
                        args: s.args.clone(),
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

/// The supervisor's state, behind one lock: the ingress thread admits
/// requests, the event-loop thread handles link events and timers. An
/// [`Admit`] is the payload [`PendingMap`] carries for every admitted
/// request — all that is needed to replay it on another worker or
/// answer it.
struct FleetCore<'a, W: Write> {
    opts: &'a ServeOpts,
    registry: &'a aa_obs::Registry,
    answers: &'a Answers<'a, W>,
    fm: FleetMetrics,
    tx: Sender<Event>,
    /// The shard threads behind thread links; `None` on process links.
    pool: Option<ShardPool>,
    router: FleetRouter,
    pending: PendingMap<Admit>,
    parked: ParkedQueues<u64>,
    /// Requests admitted while no worker is routable (transient
    /// all-down); drained when a worker comes up.
    pen: VecDeque<u64>,
    /// Replays scheduled after backoff: (due, seq).
    retries: BinaryHeap<Reverse<(Instant, u64)>>,
    slots: Vec<WorkerSlot>,
    next_seq: u64,
    next_incarnation: u64,
    rng: StdRng,
    /// Paces request replays and worker respawns.
    backoff: Backoff,
    last_tick: Instant,
    eof: bool,
    drain_deadline: Option<Instant>,
    /// Distributed-tracing state; `Some` iff `--trace` was given.
    obs: Option<FleetObs>,
}

impl<'a, W: Write> FleetCore<'a, W> {
    fn new(
        opts: &'a ServeOpts,
        registry: &'a aa_obs::Registry,
        answers: &'a Answers<'a, W>,
        tx: Sender<Event>,
    ) -> Result<Self, CliError> {
        let workers = opts.workers.clamp(1, MAX_WORKERS);
        let pool = (opts.link == Link::Thread).then(|| {
            let cfg = ShardConfig {
                shards: workers,
                max_streams: opts.max_streams,
                ladder: opts.ladder.clone(),
                ..ShardConfig::default()
            };
            let (done, exited) = (tx.clone(), tx.clone());
            ShardPool::supervised(
                cfg,
                registry,
                Arc::new(move |c| {
                    let _ = done.send(Event::Done(c));
                }),
                Arc::new(move |w| {
                    let _ = exited.send(Event::Exited(w));
                }),
            )
        });
        let mut core = FleetCore {
            opts,
            registry,
            answers,
            fm: FleetMetrics::new(registry, workers),
            tx,
            pool,
            router: FleetRouter::new(workers),
            pending: PendingMap::new(),
            parked: ParkedQueues::new(),
            pen: VecDeque::new(),
            retries: BinaryHeap::new(),
            slots: (0..workers).map(|_| WorkerSlot::default()).collect(),
            next_seq: 0,
            next_incarnation: 1,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x666c_6565_7421),
            backoff: Backoff {
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

    /// Start (or restart) slot `w`'s worker: a fresh shard thread, up at
    /// once, or a child process and its pipe reader thread, up at its
    /// hello.
    fn spawn_worker(&mut self, w: usize) -> std::io::Result<()> {
        let inc = self.next_incarnation;
        self.next_incarnation += 1;
        let slot = &mut self.slots[w];
        slot.incarnation = inc;
        slot.up = false;
        slot.sent = 0;
        slot.respawn_at = None;
        slot.in_flight = 0;
        if let Some(pool) = &mut self.pool {
            pool.respawn(w);
            self.on_hello(w);
            return Ok(());
        }
        let program = match &self.opts.worker_cmd {
            Some(p) => p.clone(),
            None => std::env::current_exe()?,
        };
        let mut child = Command::new(program)
            .args(worker_args(self.opts, w, self.slots[w].chaos_offset))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stdin = child.stdin.take();
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || reader_thread(stdout, w, inc, &tx));
        self.slots[w].process = Some(ProcessLink {
            child,
            stdin,
            reader,
            spawned_at: Instant::now(),
            unanswered_pings: 0,
            nonce: 0,
        });
        Ok(())
    }

    /// Best-effort frame write; a dead pipe surfaces via the reader's
    /// `WorkerGone`, which replays whatever was assigned.
    fn send_to(&mut self, w: usize, payload: &str) {
        if let Some(stdin) = self.slots[w].process.as_mut().and_then(|p| p.stdin.as_mut()) {
            let _ = write_frame(stdin, payload.as_bytes());
            let _ = stdin.flush();
        }
    }

    /// The event loop: wait for the next event or timer without the lock,
    /// then handle it under the lock, until EOF and the drain are done.
    fn run(core: &Mutex<Self>, rx: &Receiver<Event>) {
        let lock = || core.lock().unwrap_or_else(|e| e.into_inner());
        lock().last_tick = Instant::now();
        let mut core = loop {
            // Admissions take no timer, so a wait computed here stays
            // valid while the ingress thread admits.
            let wait = lock().next_wakeup();
            let event = match wait {
                Some(wait) => rx.recv_timeout(wait),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let mut core = lock();
            match event {
                Ok(ev) => core.handle(ev),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while `core.tx` lives, but harmless.
                Err(RecvTimeoutError::Disconnected) => break core,
            }
            core.service_timers();
            if core.eof {
                if core.pending.is_empty() {
                    break core;
                }
                if core.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    core.answer_all(
                        "shutdown",
                        "front-end shutting down before the request was answered; safe to retry",
                    );
                    break core;
                }
            }
        };
        core.shutdown();
        // A worker ships its final span batch right after the answer
        // that emptied `pending`, so those frames may still be queued
        // when the loop exits. Absorb the stragglers (Obs only —
        // responses and deaths are moot post-shutdown) so the merged
        // trace and federated metrics cover every solve.
        while let Ok(ev) = rx.try_recv() {
            if let Event::FromWorker { msg: FromWorker::Obs { .. }, .. } = &ev {
                core.handle(ev);
            }
        }
        if let Some(obs) = &core.obs {
            obs.write();
        }
    }

    fn heartbeat(&self) -> Duration {
        Duration::from_millis(self.opts.heartbeat_ms.max(1))
    }

    /// How long the loop may sleep before a timer (heartbeat, retry,
    /// respawn, drain deadline) needs service; `None` while none is set
    /// (thread links are not heartbeaten).
    fn next_wakeup(&self) -> Option<Duration> {
        let heartbeat = self.pool.is_none().then(|| self.last_tick + self.heartbeat());
        let retry = self.retries.peek().map(|Reverse((t, _))| *t);
        let respawns = self.slots.iter().filter_map(|s| s.respawn_at);
        let next = heartbeat.into_iter().chain(retry).chain(respawns).chain(self.drain_deadline);
        next.min().map(|t| t.saturating_duration_since(Instant::now()))
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
        if self.pool.is_none() && now.saturating_duration_since(self.last_tick) >= self.heartbeat() {
            self.last_tick = now;
            self.tick();
        }
    }

    /// One heartbeat round over the worker processes: declare silent
    /// ones dead, ping the rest.
    fn tick(&mut self) {
        let misses = self.opts.heartbeat_miss_limit.max(1);
        let hello_grace = self.heartbeat() * (misses + 1);
        for w in 0..self.slots.len() {
            if self.slots[w].retired {
                continue;
            }
            let up = self.slots[w].up;
            let Some(p) = self.slots[w].process.as_mut() else { continue };
            if (!up && p.spawned_at.elapsed() > hello_grace) || (up && p.unanswered_pings >= misses) {
                // Force-kill the wedged worker; its reader reports the death.
                let _ = p.child.kill();
                continue;
            }
            if !up {
                continue;
            }
            p.nonce += 1;
            p.unanswered_pings += 1;
            let ping = ToWorker::Ping { nonce: p.nonce };
            self.send_to(w, &serde_json::to_string(&ping).expect("pings always serialize"));
            self.maybe_close_draining(w);
        }
    }

    /// A shrink-drained worker with nothing in flight gets its EOF.
    fn maybe_close_draining(&mut self, w: usize) {
        if self.slots[w].draining && self.slots[w].in_flight == 0 {
            if let Some(p) = self.slots[w].process.as_mut() {
                p.stdin = None;
            }
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
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
                        if let Some(p) = self.slots[worker].process.as_mut() {
                            p.unanswered_pings = 0;
                        }
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
            Event::Done(c) => {
                let result = worker_result(c.outcome, c.solve_micros);
                let m = &self.fm.per_worker[c.shard];
                match &result {
                    WorkerResult::Ok { .. } => m.solves.set(m.solves.get() + 1.0),
                    WorkerResult::Err { class, .. } if class == "solve_panic" => {
                        m.solve_panics.set(m.solve_panics.get() + 1.0);
                    }
                    WorkerResult::Err { .. } => {}
                }
                self.on_resp(c.shard, c.seq, result);
            }
            // A thread reports its death after its last answer, and its
            // slot respawns only once this event is handled, so the
            // death is always the current incarnation's.
            Event::Exited(worker) => self.on_gone(worker, self.slots[worker].incarnation),
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
        self.pending.assign(seq, w).expect("dispatch checked pending");
        let entry = self.pending.get(seq).expect("just assigned");
        let trace = self.obs.as_mut().and_then(|o| o.dispatch_ctx(seq));
        let slot = &mut self.slots[w];
        slot.in_flight += 1;
        slot.sent += 1;
        self.fm.dispatched.inc();
        self.fm.per_worker[w].dispatched.inc();
        if let Some(pool) = &self.pool {
            let count = slot.chaos_offset + slot.sent;
            let plan = self.opts.chaos.as_ref().and_then(|plan| plan.faults.get(w));
            let fault = plan.into_iter().flatten().find(|&&(s, _)| s == count).map(|&(_, f)| f);
            let job = thread_job(seq, entry, fault);
            #[cfg(test)]
            let job = ShardJob { fuel: self.opts.fuel, ..job };
            let _ = pool.submit_to(w, job);
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        let budget_ms = entry
            .job
            .ticket
            .deadline()
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
        let payload = encode_req(seq, entry.stream, budget_ms, trace, &entry.job.problem);
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
        if let Some(p) = self.slots[w].process.as_mut() {
            p.unanswered_pings = 0;
        }
        self.fm.per_worker[w].up.set(1.0);
        self.router.worker_up(w);
        let pen = std::mem::take(&mut self.pen);
        for seq in pen {
            self.dispatch(seq);
        }
    }

    fn on_resp(&mut self, w: usize, seq: u64, result: WorkerResult) {
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
                    routed: (w, entry.attempts),
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
        // Reap this incarnation: its reader has seen the pipe close.
        if let Some(mut p) = self.slots[w].process.take() {
            let _ = p.reader.join();
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        self.slots[w].up = false;
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
                let delay = self.backoff.delay(attempts.max(1), &mut self.rng);
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
        // Next incarnation's chaos offset: the plan's fault count for
        // this death keeps the cumulative request counter exact (the
        // fault that just fired can never re-fire); unplanned deaths
        // fall back to the requests this incarnation was sent.
        let slot = &self.slots[w];
        let fallback = slot.chaos_offset + slot.sent;
        let planned = self.opts.chaos.as_ref().and_then(|plan| {
            plan.restarting(w, self.opts.link).nth(slot.deaths as usize - 1)
        });
        self.slots[w].chaos_offset = planned.unwrap_or(fallback);
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
        let delay = self.backoff.delay(attempt, &mut self.rng);
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
    /// drains and hands the removed ring ranges to the survivors. Only
    /// process links take it, and `1 <= n <= MAX_WORKERS` by
    /// construction: the ingress answers any other resize as an
    /// unsupported control line.
    fn on_resize(&mut self, n: usize, id: serde_json::Value) {
        let was = self.router.workers();
        self.fm.resizes.inc();
        if n > was {
            self.fm.ensure(self.registry, n);
            self.slots.resize_with(n.max(self.slots.len()), WorkerSlot::default);
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
                if self.slots[w].process.is_none() {
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

    /// Stop every worker: shard threads finish what they hold; worker
    /// processes get their stdin closed and a bounded window to drain and
    /// exit cleanly, then the stragglers are killed and the readers
    /// joined.
    fn shutdown(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        for slot in &mut self.slots {
            slot.respawn_at = None;
            if let Some(p) = slot.process.as_mut() {
                p.stdin = None;
            }
        }
        let deadline = Instant::now()
            + Duration::from_millis(self.opts.drain_timeout_ms.saturating_add(500));
        while Instant::now() < deadline {
            let mut alive = self.slots.iter_mut().filter_map(|s| s.process.as_mut());
            if !alive.any(|p| matches!(p.child.try_wait(), Ok(None))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (w, slot) in self.slots.iter_mut().enumerate() {
            if let Some(mut p) = slot.process.take() {
                let _ = p.child.kill();
                let _ = p.child.wait();
                // Safe to join: the child is dead, so the pipe is at EOF.
                let _ = p.reader.join();
            }
            if let Some(m) = self.fm.per_worker.get(w) {
                m.up.set(0.0);
            }
        }
    }
}

/// Keep the panics of scheduled faults (their messages start `chaos:`)
/// off stderr for the rest of the process; every other panic still
/// prints.
pub(crate) fn quiet_chaos() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let print = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload.downcast_ref::<&str>().copied();
            let message = message.or(payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with("chaos:")) {
                print(info);
            }
        }));
    });
}

/// A thread link's job for `entry`: its problem decoded on the shard
/// from the client's text, armed with the scheduled chaos `fault`, if
/// any. A kill panics outside the caught solve, ending the thread.
fn thread_job(seq: u64, entry: &aa_core::PendingEntry<Admit>, fault: Option<ProcessFault>) -> ShardJob {
    let text = Arc::clone(&entry.job.problem);
    let build: BuildFn = Arc::new(move |previous| {
        match fault {
            Some(ProcessFault::Kill | ProcessFault::Garbage) => panic!("chaos: thread link killed"),
            Some(ProcessFault::Stall { millis }) => std::thread::sleep(Duration::from_millis(millis)),
            _ => {}
        }
        build_request(&text, previous)
    });
    ShardJob {
        seq,
        stream: entry.stream,
        build,
        deadline: entry.job.ticket.deadline(),
        arrived: Instant::now(),
        inject_panic: (fault == Some(ProcessFault::PanicSolve))
            .then(|| "chaos: injected solve panic".to_string()),
        fuel: None,
    }
}

/// The supervisor's admission: dispatch each request on the ingress
/// thread, so it waits on no other thread to reach its worker, and
/// forward resize lines to the event loop. The problem travels
/// undecoded: its one decode is the worker's, so a malformed problem
/// costs an admission slot and a round trip and comes back
/// `class:"parse"` or `class:"problem"`.
struct FleetAdmission<'a, 'b, W: Write> {
    core: &'a Mutex<FleetCore<'b, W>>,
    tx: &'a Sender<Event>,
    link: Link,
}

impl<W: Write> Admission for FleetAdmission<'_, '_, W> {
    fn admit(&mut self, req: Admit) -> std::io::Result<bool> {
        self.core.lock().unwrap_or_else(|e| e.into_inner()).on_admit(req);
        Ok(true)
    }

    fn control(
        &mut self,
        line: &serde_json::Scan<'_>,
        id: &serde_json::Value,
    ) -> Result<bool, &'static str> {
        if self.link == Link::Thread {
            return Err("unsupported control line; --shards takes none (resize needs --fleet)");
        }
        let control = line.get("control");
        let fleet = line.get("fleet").as_ref().and_then(serde_json::Value::as_u64);
        match (control.as_ref().and_then(serde_json::Value::as_str), fleet) {
            #[allow(clippy::cast_possible_truncation)]
            (Some("resize"), Some(n)) if (1..=MAX_WORKERS as u64).contains(&n) => {
                Ok(self.tx.send(Event::Resize { workers: n as usize, id: id.clone() }).is_ok())
            }
            _ => Err("unsupported control line; expected \
                      {\"control\":\"resize\",\"fleet\":N} with 1 <= N <= 256"),
        }
    }
}

/// Run the supervisor until `input` reaches EOF, then drain (bounded by
/// `drain_timeout_ms`); every answer goes through `answers`. Spawn
/// failure at startup is [`CliError::WorkerSpawn`] (exit code 9).
///
/// Besides the request-level `aa_serve_*` family `answers` keeps, the
/// supervisor's route/retry/handoff counters and per-worker series
/// (`aa_fleet_*{worker=…}`) go to `registry`.
pub(crate) fn supervise<R: BufRead, W: Write + Send>(
    input: R,
    answers: &Answers<'_, W>,
    opts: &ServeOpts,
    registry: &aa_obs::Registry,
) -> Result<(), CliError> {
    let (tx, rx) = mpsc::channel::<Event>();
    let core = Mutex::new(FleetCore::new(opts, registry, answers, tx.clone())?);
    std::thread::scope(|s| {
        let core = &core;
        let event_loop = s.spawn(move || FleetCore::run(core, &rx));
        let mut admission = FleetAdmission { core, tx: &tx, link: opts.link };
        let read_result =
            ingress(input, opts.max_line_bytes, opts.default_deadline_ms, answers, &mut admission);
        let _ = tx.send(Event::Eof);
        drop(tx);
        event_loop.join().expect("the supervisor's event loop does not panic");
        read_result.map_err(CliError::Io)
    })
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

/// How many worker slots' `aa_fleet_worker_up` gauges read 1.
fn up_count(registry: &aa_obs::Registry, workers: usize) -> usize {
    let up = |w: usize| registry.gauge_labeled("aa_fleet_worker_up", "worker", &w.to_string());
    (0..workers).filter(|&w| up(w).get() == 1.0).count()
}

/// Wait until every worker is up; false if that takes 30 s.
fn await_all_up(registry: &aa_obs::Registry, workers: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while up_count(registry, workers) < workers {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Drive a real supervisor over `cfg.link` through a seeded fault storm
/// and fold the observations into the deterministic verdict.
///
/// The front-end runs in-process (sharing a private metrics registry
/// with the harness). Thread links are its shard threads, with scheduled
/// kills kept off stderr; process links are genuine child
/// processes re-execed from the current binary, so kills, stalls, and
/// garbage frames exercise the real pipes-and-supervision path (call
/// this from the `aa-solve` binary only: a foreign `current_exe` has no
/// `serve-worker` mode).
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

    let opts = ServeOpts {
        link: cfg.link,
        workers: cfg.workers,
        queue: streams.len().max(4),
        // Tight heartbeats so scheduled process stalls (stall_millis,
        // default 2000 ms) blow the 150 ms × 4 tolerance fast, while
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
        ..ServeOpts::default()
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
    if cfg.link == Link::Thread {
        quiet_chaos();
    }

    let serve_result = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            run_serve(LineSource::new(rx_in), LineSink::new(tx_out), &opts, &registry)
        });

        // One closed-loop round, once every worker is up: a request per
        // stream, then every answer before the next, so parked and
        // outstanding state never exceeds one request per stream and
        // each worker takes its own streams' requests. A `probe` round
        // also checks that each stream answered from its ring owner.
        let ring = Ring::new(cfg.workers);
        let mut round = |probe: bool| -> bool {
            if !await_all_up(&registry, cfg.workers) {
                return false;
            }
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
        // Probe round: with every worker back up after the storm, every
        // stream must route back to its ring owner (rebalance after
        // recovery).
        survived = survived && round(true);
        let live = up_count(&registry, cfg.workers);

        drop(tx_in);
        let served = handle.join().expect("the serve thread does not panic");
        served.map(|_| live)
    });
    let live = serve_result?;

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
        live,
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
        let opts = ServeOpts {
            link: Link::Process,
            workers: 2,
            ladder: Some(vec![Tier::Algo2, Tier::Uu]),
            chaos: Some(plan),
            ..ServeOpts::default()
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
        let plain = worker_args(&ServeOpts::default(), 0, 0);
        assert!(!plain
            .iter()
            .any(|a| a == "--chaos-faults" || a == "--ladder" || a == "--obs-spans"));
        let traced = worker_args(
            &ServeOpts { trace: Some(PathBuf::from("t.json")), ..ServeOpts::default() },
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

    /// One keyed request line on `stream`; `salt` varies the problem.
    fn line(id: u64, stream: u64, salt: u64) -> String {
        let problem = serde_json::to_string(&stream_problem(salt, stream)).unwrap();
        format!(r#"{{"id":{id},"stream":{stream},"problem":{problem}}}"#)
    }

    /// One answer line as `(id, status or class, answering worker,
    /// attempts, error)`.
    type Answer = (u64, String, Option<u64>, u64, String);

    /// Serve `lines` over thread links under a chaos `plan`; the answers
    /// in id order and the session's registry. Fails instead of hanging
    /// when the run outlives 20 s.
    fn serve_storm(
        lines: &[String],
        plan: Vec<Vec<(u64, ProcessFault)>>,
        opts: ServeOpts,
    ) -> (Vec<Answer>, aa_obs::Registry) {
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let opts = ServeOpts { chaos: Some(ProcessChaosPlan { faults: plan }), ..opts };
        let (done, finished) = mpsc::channel();
        quiet_chaos();
        std::thread::spawn(move || {
            let registry = aa_obs::Registry::new();
            let mut out = Vec::new();
            run_serve(input.as_bytes(), &mut out, &opts, &registry).unwrap();
            let _ = done.send((out, registry));
        });
        let (out, registry) =
            finished.recv_timeout(Duration::from_secs(20)).expect("the supervisor hung");
        let mut answers: Vec<_> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| {
                let r: serde_json::Value = serde_json::from_str(l).unwrap();
                let what = r["class"].as_str().or(r["status"].as_str()).unwrap().to_string();
                let error = r["error"].as_str().unwrap_or("").to_string();
                let attempts = r["attempts"].as_u64().unwrap_or(0);
                (r["id"].as_u64().unwrap(), what, r["worker"].as_u64(), attempts, error)
            })
            .collect();
        answers.sort_by_key(|a| a.0);
        (answers, registry)
    }

    fn restarts(registry: &aa_obs::Registry, w: usize) -> u64 {
        registry.counter_labeled("aa_fleet_restarts_total", "worker", &w.to_string()).get()
    }

    /// Mutation: on a thread's death, skip the replay of what was taken
    /// from it — its requests then sit until the drain answers them
    /// `shutdown`.
    #[test]
    fn a_killed_thread_link_respawns_and_its_inflight_request_replays_ok() {
        let lines: Vec<String> = (0..4).map(|i| line(i, 7, 1)).collect();
        let opts = ServeOpts { drain_timeout_ms: 500, ..ServeOpts::default() };
        let (answers, registry) = serve_storm(&lines, vec![vec![(1, ProcessFault::Kill)]], opts);
        let ids: Vec<u64> = answers.iter().map(|a| a.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "each request answered exactly once: {answers:?}");
        assert!(answers.iter().all(|a| a.1 == "ok"), "{answers:?}");
        assert_eq!(answers[0].3, 2, "the killed request replayed once: {answers:?}");
        assert_eq!(restarts(&registry, 0), 1);
        let up = registry.gauge_labeled("aa_fleet_worker_up", "worker", "0");
        assert_eq!(up.get(), 0.0, "down after shutdown");
    }

    /// Mutation: never retire (respawn past `--max-restarts`) — the
    /// stream's requests then die on worker 0 until their retries run
    /// out and answer `internal`.
    #[test]
    fn a_thread_link_past_max_restarts_retires_and_its_streams_reroute() {
        let ring = Ring::new(2);
        let key = (0..).find(|&k| ring.owner(k) == Some(0)).unwrap();
        let lines: Vec<String> = (0..4).map(|i| line(i, key, 2)).collect();
        let opts = ServeOpts { workers: 2, max_restarts: 1, ..ServeOpts::default() };
        let kill_all = (1..=64).map(|s| (s, ProcessFault::Kill)).collect();
        let (answers, registry) = serve_storm(&lines, vec![kill_all, vec![]], opts);
        assert_eq!(answers.len(), 4, "{answers:?}");
        for a in &answers {
            assert_eq!((a.1.as_str(), a.2), ("ok", Some(1)), "rerouted to worker 1: {answers:?}");
        }
        assert_eq!(restarts(&registry, 0), 2, "retired on its second death");
        assert_eq!(restarts(&registry, 1), 0);
    }

    /// Mutation: never retire — requests then answer `internal` only
    /// when their retries run out, saying so, not that every worker
    /// retired.
    #[test]
    fn retiring_every_link_answers_internal_then_refuses_work() {
        let lines: Vec<String> = (0..6).map(|i| line(i, i, 3)).collect();
        let opts = ServeOpts { workers: 2, max_restarts: 0, max_retries: 8, ..ServeOpts::default() };
        let kill_all: Vec<_> = (1..=64).map(|s| (s, ProcessFault::Kill)).collect();
        let (answers, registry) = serve_storm(&lines, vec![kill_all.clone(), kill_all], opts);
        assert_eq!(answers.iter().map(|a| a.0).collect::<Vec<_>>(), (0..6).collect::<Vec<_>>());
        for a in &answers {
            assert_eq!(a.1, "internal", "{answers:?}");
            assert!(a.4.contains("retired"), "answered for a retired fleet: {answers:?}");
        }
        assert_eq!((restarts(&registry, 0), restarts(&registry, 1)), (1, 1));
    }

    /// Mutation: the drain deadline is never armed at EOF — the run then
    /// waits out the kills and respawn backoffs until its retries run
    /// out, far past the drain window.
    #[test]
    fn shutdown_during_a_respawn_backoff_drains_promptly() {
        let lines: Vec<String> = (0..3).map(|i| line(i, 5, 4)).collect();
        let opts = ServeOpts {
            max_restarts: 64,
            max_retries: 64,
            drain_timeout_ms: 200,
            ..ServeOpts::default()
        };
        let kill_all = (1..=256).map(|s| (s, ProcessFault::Kill)).collect();
        let started = Instant::now();
        let (answers, registry) = serve_storm(&lines, vec![kill_all], opts);
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(3), "the drain waited: {elapsed:?}");
        assert_eq!(answers.len(), 3, "{answers:?}");
        assert!(answers.iter().all(|a| a.1 == "shutdown"), "{answers:?}");
        assert!(restarts(&registry, 0) >= 2, "the thread kept dying and respawning");
    }

    /// The thread-link storm at CI's shape, smaller: every shard killed
    /// three times, with contained panics and stalls.
    #[test]
    fn chaos_storm_preserves_every_robustness_invariant() {
        let cfg = FleetChaosConfig {
            link: Link::Thread,
            workers: 3,
            rounds: 60,
            kills: 9,
            panics: 3,
            stalls: 3,
            stall_millis: 1,
            ..FleetChaosConfig::default()
        };
        let report = run_fleet_chaos(&cfg).unwrap();
        assert!(report.survived, "the supervisor wedged during the storm");
        assert!(
            report.exactly_once,
            "lost {:?} / duplicated {:?}",
            report.missing_seqs, report.duplicate_seqs
        );
        assert_eq!(report.restarts, vec![3, 3, 3], "{report:?}");
        assert_eq!((report.live, report.solve_panics, report.internal), (3, 3, 0), "{report:?}");
        assert!(report.outputs_identical && report.rebalanced, "{report:?}");
        assert!(report.healthy(), "{report:?}");
    }
}
