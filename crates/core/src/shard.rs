//! Supervised worker-shard pool for the serving tier.
//!
//! The pool runs `N` worker threads ("shards"), each owning a
//! [`StreamSolver`] — a [`TieredSolver`] plus a per-stream [`WarmState`]
//! map, the same solve state every fleet worker process runs. Requests
//! carry an optional *stream id*; keyed requests are routed to a shard by a
//! consistent-hash ring (so a stream's warm state stays on one shard),
//! while key-less "cold" requests land on a shared steal queue that any
//! idle shard drains.
//!
//! Crash isolation is layered:
//!
//! 1. Every solve runs behind a `catch_unwind` boundary
//!    ([`TieredSolver::try_solve_within_caught`]); a panicking solver
//!    yields [`SolveError::Panicked`] and the worker thread keeps going.
//! 2. If a worker thread itself dies (a panic outside the caught region —
//!    in production a bug, in tests an injected [`FaultAction::KillShard`]),
//!    the supervisor thread notices via `JoinHandle::is_finished`, answers
//!    the in-flight request with [`ShardError::Crashed`], drains the dead
//!    shard's queue with [`ShardError::Drained`], and respawns the worker
//!    after an exponential backoff with seeded jitter.
//! 3. After more than [`ShardConfig::max_restarts`] restarts the shard's
//!    circuit breaker trips: the shard is retired, its ring points are
//!    skipped, and its keys reroute to the surviving shards.
//!
//! A restarted worker starts with a fresh warm-state map: the first
//! post-restart request per stream is simply a cold solve (bit-identical
//! to the warm path by construction), after which the stream is warm again.
//!
//! Exactly-once accounting: an admitted job lives in exactly one place at
//! any time — a queue, a worker's in-flight slot, or a delivered
//! [`ShardCompletion`]. Workers populate the in-flight slot *before* any
//! fallible work and clear it only after the completion callback returns,
//! so a crash at any point leaves the job discoverable by the supervisor.
//! The completion callback must not panic; it runs on worker and
//! supervisor threads.
//!
//! Determinism for tests comes from [`ChaosHook`]: faults are keyed on the
//! per-shard solve sequence number (which survives restarts), not wall
//! time, so a seeded script kills shard `s` on exactly its `k`-th job no
//! matter how threads interleave.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aa_obs::{Counter, Gauge, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::Budget;
use crate::incremental::WarmState;
use crate::problem::Problem;
use crate::ring::Ring;
use crate::solver::SolveError;
use crate::tiered::{panic_message, TieredSolve, TieredSolver};

/// A fault injected by a [`ChaosHook`] before a shard starts a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault; solve normally.
    None,
    /// Panic *inside* the caught solve region: the request is answered
    /// with [`SolveError::Panicked`] and the worker thread survives.
    PanicSolve,
    /// Panic *outside* the caught region, killing the worker thread. The
    /// supervisor answers the in-flight request, drains the queue, and
    /// restarts the shard.
    KillShard,
    /// Sleep for the given duration before solving — a slow/stalled
    /// shard. Its own queue backs up; cold traffic is stolen by others.
    Stall(Duration),
}

/// Deterministic fault injector: `(shard_index, solve_seq) -> action`,
/// where `solve_seq` is the 1-based count of jobs the shard has popped
/// across all its incarnations.
pub type ChaosHook = Arc<dyn Fn(usize, u64) -> FaultAction + Send + Sync>;

/// Callback invoked with every completion. Must not panic.
pub type CompletionFn = Arc<dyn Fn(ShardCompletion) + Send + Sync>;

/// Configuration for a [`ShardPool`].
#[derive(Clone)]
pub struct ShardConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Per-shard queue capacity; a full queue sheds with
    /// [`SubmitError::QueueFull`].
    pub queue: usize,
    /// Capacity of the shared cold (key-less) steal queue.
    pub cold_queue: usize,
    /// Per-shard cap on retained warm streams (FIFO eviction).
    pub max_streams: usize,
    /// First restart backoff; doubles per restart up to `backoff_max`.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff (jitter may exceed it slightly).
    pub backoff_max: Duration,
    /// Restarts after which the shard's circuit breaker trips and the
    /// shard is retired. `K` restarts are allowed; the `K+1`-th crash
    /// retires it.
    pub max_restarts: u32,
    /// Consecutive-failure threshold for each worker's tier breaker
    /// (see [`TieredSolver::breaker`]).
    pub breaker_threshold: u32,
    /// Cooldown (in requests) for each worker's tier breaker.
    pub breaker_cooldown: u64,
    /// Seed for restart jitter.
    pub seed: u64,
    /// Tier ladder for each worker's solver; `None` uses the full
    /// default ladder. The warm incremental path only engages on the
    /// [`Tier::Algo2`](crate::tiered::Tier::Algo2) rung, so latency-bound
    /// callers typically want `[Algo2, Uu]`.
    pub ladder: Option<Vec<crate::tiered::Tier>>,
    /// Optional deterministic fault injector.
    pub chaos: Option<ChaosHook>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            queue: 16,
            cold_queue: 32,
            max_streams: 1024,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(200),
            max_restarts: 8,
            breaker_threshold: 3,
            breaker_cooldown: 64,
            seed: 2016,
            ladder: None,
            chaos: None,
        }
    }
}

impl std::fmt::Debug for ShardConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardConfig")
            .field("shards", &self.shards)
            .field("queue", &self.queue)
            .field("cold_queue", &self.cold_queue)
            .field("max_streams", &self.max_streams)
            .field("backoff_base", &self.backoff_base)
            .field("backoff_max", &self.backoff_max)
            .field("max_restarts", &self.max_restarts)
            .field("breaker_threshold", &self.breaker_threshold)
            .field("breaker_cooldown", &self.breaker_cooldown)
            .field("seed", &self.seed)
            .field("ladder", &self.ladder)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// One admitted solve request.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Caller-assigned sequence number, echoed in the completion.
    pub seq: u64,
    /// Stream id for warm-state locality; `None` goes to the cold queue.
    pub stream: Option<u64>,
    /// The problem to solve.
    pub problem: Problem,
    /// Absolute deadline; expired jobs complete with [`ShardError::Expired`].
    pub deadline: Option<Instant>,
    /// When the job was admitted (set by [`ShardJob::new`]).
    pub arrived: Instant,
}

impl ShardJob {
    /// Build a job stamped with the current time.
    pub fn new(seq: u64, stream: Option<u64>, problem: Problem, deadline: Option<Instant>) -> Self {
        ShardJob { seq, stream, problem, deadline, arrived: Instant::now() }
    }
}

/// Why a job completed without an answer.
#[derive(Debug)]
pub enum ShardError {
    /// The solve itself failed (including [`SolveError::Panicked`] from
    /// a contained solver panic).
    Solve(SolveError),
    /// The deadline passed while the job sat in a queue.
    Expired,
    /// The worker thread died while this job was in flight; answered by
    /// the supervisor.
    Crashed,
    /// The job was queued on a shard that died or was retired before
    /// reaching it; answered by the supervisor.
    Drained,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Solve(e) => write!(f, "{e}"),
            ShardError::Expired => write!(f, "deadline expired before the solve started"),
            ShardError::Crashed => write!(f, "worker shard crashed mid-request"),
            ShardError::Drained => write!(f, "request drained from a dead shard's queue"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    /// The stable wire class a serve answer carries for this error — the
    /// one `SolveError` → class map both serving modes use.
    pub fn class(&self) -> &'static str {
        match self {
            ShardError::Solve(SolveError::Panicked(_)) | ShardError::Crashed => "solve_panic",
            ShardError::Solve(SolveError::DeadlineExceeded | SolveError::Cancelled)
            | ShardError::Expired => "deadline",
            ShardError::Solve(_) => "solve",
            ShardError::Drained => "internal",
        }
    }
}

/// One executor's solve state, shared by shard threads and fleet worker
/// processes: a [`TieredSolver`] plus the per-stream [`WarmState`] map
/// (FIFO eviction beyond `max_streams`; key-less requests share the
/// `None` entry).
pub struct StreamSolver {
    solver: TieredSolver,
    warm: HashMap<Option<u64>, WarmState>,
    order: VecDeque<Option<u64>>,
    max_streams: usize,
}

impl StreamSolver {
    /// A fresh solver over `ladder` (`None`: the full default ladder)
    /// with the given tier-breaker settings and warm-stream cap.
    pub fn new(
        ladder: Option<Vec<crate::tiered::Tier>>,
        breaker_threshold: u32,
        breaker_cooldown: u64,
        max_streams: usize,
    ) -> Self {
        let solver = match ladder {
            Some(ladder) => TieredSolver::with_ladder(ladder),
            None => TieredSolver::new(),
        }
        .breaker(breaker_threshold, breaker_cooldown);
        StreamSolver { solver, warm: HashMap::new(), order: VecDeque::new(), max_streams }
    }

    /// Solve one request on `stream`'s warm state, behind the tiered
    /// solver's `catch_unwind` boundary. A `deadline` already past at
    /// `started` answers [`ShardError::Expired`] without solving; a live
    /// one becomes the solve's budget. `inject_panic` (chaos only) panics
    /// with that message inside the caught region instead of solving.
    pub fn solve(
        &mut self,
        stream: Option<u64>,
        problem: &Problem,
        deadline: Option<Instant>,
        started: Instant,
        inject_panic: Option<String>,
    ) -> Result<TieredSolve, ShardError> {
        let budget = match deadline {
            Some(d) if started >= d => return Err(ShardError::Expired),
            Some(d) => Budget::with_deadline(d - started),
            None => Budget::unlimited(),
        };
        if self.warm.len() >= self.max_streams.max(1) && !self.warm.contains_key(&stream) {
            if let Some(old) = self.order.pop_front() {
                self.warm.remove(&old);
            }
        }
        let order = &mut self.order;
        let state = self.warm.entry(stream).or_insert_with(|| {
            order.push_back(stream);
            WarmState::new()
        });
        match inject_panic {
            Some(msg) => std::panic::catch_unwind(|| -> Result<TieredSolve, SolveError> {
                std::panic::panic_any(msg)
            })
            .unwrap_or_else(|payload| {
                state.invalidate();
                Err(SolveError::Panicked(panic_message(payload.as_ref())))
            }),
            None => self.solver.try_solve_within_caught(problem, &budget, Some(state)),
        }
        .map_err(ShardError::Solve)
    }
}

/// Why [`ShardPool::submit`] rejected a job (the job was *not* admitted;
/// no completion will be delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The routed shard's queue (or the cold queue, `shard == None`) is full.
    QueueFull {
        /// The shard whose queue was full; `None` for the cold queue.
        shard: Option<usize>,
    },
    /// Every shard's circuit breaker has tripped.
    NoLiveShards,
    /// The pool is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { shard: Some(s) } => write!(f, "shard {s} queue full"),
            SubmitError::QueueFull { shard: None } => write!(f, "cold queue full"),
            SubmitError::NoLiveShards => write!(f, "no live shards"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Delivered exactly once per admitted job.
#[derive(Debug)]
pub struct ShardCompletion {
    /// The caller's sequence number from [`ShardJob::seq`].
    pub seq: u64,
    /// The job's stream id.
    pub stream: Option<u64>,
    /// The shard that answered (for supervisor-drained cold jobs, the
    /// shard whose death triggered the drain).
    pub shard: usize,
    /// Whether the job was stolen from the cold queue.
    pub stolen: bool,
    /// Microseconds spent queued before the solve started.
    pub waited_micros: u64,
    /// Microseconds spent solving (0 for supervisor-answered jobs).
    pub solve_micros: u64,
    /// The solve result.
    pub outcome: Result<TieredSolve, ShardError>,
}

enum PushError {
    Full,
    Closed,
}

struct QueueInner {
    jobs: VecDeque<ShardJob>,
    open: bool,
}

/// A capacity-bounded MPMC queue that outlives the threads draining it —
/// unlike an `mpsc` channel, a worker death leaves the queued jobs
/// reachable by the supervisor and by the respawned worker.
struct JobQueue {
    cap: usize,
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        JobQueue {
            cap: cap.max(1),
            inner: Mutex::new(QueueInner { jobs: VecDeque::new(), open: true }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn try_push(&self, job: ShardJob) -> Result<usize, (PushError, ShardJob)> {
        let mut g = self.lock();
        if !g.open {
            return Err((PushError::Closed, job));
        }
        if g.jobs.len() >= self.cap {
            return Err((PushError::Full, job));
        }
        g.jobs.push_back(job);
        let len = g.jobs.len();
        drop(g);
        self.cv.notify_one();
        Ok(len)
    }

    fn try_pop(&self) -> Option<ShardJob> {
        self.lock().jobs.pop_front()
    }

    fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    fn is_empty(&self) -> bool {
        self.lock().jobs.is_empty()
    }

    fn drain_all(&self) -> Vec<ShardJob> {
        self.lock().jobs.drain(..).collect()
    }

    fn close(&self) {
        self.lock().open = false;
        self.cv.notify_all();
    }

    fn notify(&self) {
        self.cv.notify_all();
    }

    /// Briefly block until notified or `timeout`, but only if empty.
    fn wait_brief(&self, timeout: Duration) {
        let g = self.lock();
        if g.jobs.is_empty() {
            let _ = self
                .cv
                .wait_timeout(g, timeout)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct InflightMeta {
    seq: u64,
    stream: Option<u64>,
    arrived: Instant,
    stolen: bool,
}

struct ShardMetrics {
    queue_depth: Gauge,
    restarts: Counter,
    breaker_open: Gauge,
    solves: Counter,
    panics: Counter,
    stolen: Counter,
    expired: Counter,
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: usize) -> Self {
        let s = shard.to_string();
        ShardMetrics {
            queue_depth: registry.gauge_labeled("aa_shard_queue_depth", "shard", &s),
            restarts: registry.counter_labeled("aa_shard_restarts_total", "shard", &s),
            breaker_open: registry.gauge_labeled("aa_shard_breaker_open", "shard", &s),
            solves: registry.counter_labeled("aa_shard_solves_total", "shard", &s),
            panics: registry.counter_labeled("aa_shard_solve_panics_total", "shard", &s),
            stolen: registry.counter_labeled("aa_shard_stolen_total", "shard", &s),
            expired: registry.counter_labeled("aa_shard_expired_total", "shard", &s),
        }
    }
}

struct ShardState {
    index: usize,
    queue: JobQueue,
    /// Set before any fallible per-job work; the supervisor answers it if
    /// the worker dies.
    inflight: Mutex<Option<InflightMeta>>,
    /// 1-based pop counter across restarts — the chaos key.
    solve_seq: AtomicU64,
    /// False once the breaker retires the shard.
    live: AtomicBool,
    /// True only when the worker drained and returned during shutdown.
    exited_clean: AtomicBool,
    restarts: AtomicU32,
    metrics: ShardMetrics,
}

struct PoolInner {
    cfg: ShardConfig,
    shards: Vec<Arc<ShardState>>,
    cold: JobQueue,
    /// Consistent-hash ring over shard indices.
    ring: Ring,
    complete: CompletionFn,
    shutting_down: AtomicBool,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    cold_depth: Gauge,
    sup_restarts: Counter,
    sup_crash_answers: Counter,
    sup_drained: Counter,
    sup_retired: Counter,
}

impl PoolInner {
    fn live_count(&self) -> usize {
        self.shards.iter().filter(|s| s.live.load(Ordering::Acquire)).count()
    }

    /// First live shard on the ring at or after the stream's hash point.
    fn route(&self, stream: u64) -> Option<usize> {
        self.ring
            .route(stream, |shard| self.shards[shard].live.load(Ordering::Acquire))
    }

    fn submit(&self, job: ShardJob) -> Result<(), SubmitError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        match job.stream {
            Some(key) => {
                let mut job = job;
                // A shard can retire between `route` and `try_push`;
                // `Closed` re-routes (the retired shard is no longer
                // live), while `Full` is genuine backpressure and sheds.
                for _ in 0..self.shards.len() {
                    let Some(s) = self.route(key) else {
                        return Err(SubmitError::NoLiveShards);
                    };
                    match self.shards[s].queue.try_push(job) {
                        Ok(len) => {
                            self.shards[s].metrics.queue_depth.set(len as f64);
                            return Ok(());
                        }
                        Err((PushError::Full, _)) => {
                            return Err(SubmitError::QueueFull { shard: Some(s) });
                        }
                        Err((PushError::Closed, j)) => job = j,
                    }
                }
                Err(SubmitError::NoLiveShards)
            }
            None => {
                if self.live_count() == 0 {
                    return Err(SubmitError::NoLiveShards);
                }
                match self.cold.try_push(job) {
                    Ok(len) => {
                        self.cold_depth.set(len as f64);
                        // Any idle shard may steal; wake them all.
                        for s in &self.shards {
                            if s.live.load(Ordering::Acquire) {
                                s.queue.notify();
                            }
                        }
                        Ok(())
                    }
                    Err((PushError::Full, _)) => Err(SubmitError::QueueFull { shard: None }),
                    Err((PushError::Closed, _)) => Err(SubmitError::NoLiveShards),
                }
            }
        }
    }
}

/// A supervised pool of crash-isolated worker shards. See the module docs.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    supervisor: Option<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn `cfg.shards` workers and the supervisor thread. Completions
    /// are delivered through `complete`, possibly from several threads
    /// concurrently; it must not panic.
    pub fn new(cfg: ShardConfig, registry: &Registry, complete: CompletionFn) -> Self {
        let n = cfg.shards.max(1);
        let shards: Vec<Arc<ShardState>> = (0..n)
            .map(|i| {
                let metrics = ShardMetrics::new(registry, i);
                metrics.queue_depth.set(0.0);
                metrics.breaker_open.set(0.0);
                Arc::new(ShardState {
                    index: i,
                    queue: JobQueue::new(cfg.queue),
                    inflight: Mutex::new(None),
                    solve_seq: AtomicU64::new(0),
                    live: AtomicBool::new(true),
                    exited_clean: AtomicBool::new(false),
                    restarts: AtomicU32::new(0),
                    metrics,
                })
            })
            .collect();
        let inner = Arc::new(PoolInner {
            cold: JobQueue::new(cfg.cold_queue),
            shards,
            ring: Ring::new(n),
            complete,
            shutting_down: AtomicBool::new(false),
            handles: Mutex::new((0..n).map(|_| None).collect()),
            cold_depth: registry.gauge("aa_shard_cold_queue_depth"),
            sup_restarts: registry.counter("aa_supervisor_restarts_total"),
            sup_crash_answers: registry.counter("aa_supervisor_crash_answers_total"),
            sup_drained: registry.counter("aa_supervisor_drained_total"),
            sup_retired: registry.counter("aa_supervisor_retired_total"),
            cfg,
        });
        for i in 0..n {
            spawn_worker(&inner, i);
        }
        let sup_inner = Arc::clone(&inner);
        let supervisor = std::thread::Builder::new()
            .name("aa-shard-supervisor".into())
            .spawn(move || supervisor_loop(sup_inner))
            .expect("spawn supervisor thread");
        ShardPool { inner, supervisor: Some(supervisor) }
    }

    /// Admit a job. `Ok(())` guarantees exactly one completion later;
    /// an error guarantees none.
    pub fn submit(&self, job: ShardJob) -> Result<(), SubmitError> {
        self.inner.submit(job)
    }

    /// Configured shard count.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Shards whose breaker has not tripped.
    pub fn live_shards(&self) -> usize {
        self.inner.live_count()
    }

    /// The shard a stream currently routes to, if any shard is live.
    pub fn route(&self, stream: u64) -> Option<usize> {
        self.inner.route(stream)
    }

    /// Restart count per shard.
    pub fn restarts(&self) -> Vec<u32> {
        self.inner
            .shards
            .iter()
            .map(|s| s.restarts.load(Ordering::Acquire))
            .collect()
    }

    /// Whether a shard's circuit breaker has tripped.
    pub fn breaker_open(&self, shard: usize) -> bool {
        !self.inner.shards[shard].live.load(Ordering::Acquire)
    }

    /// Stop admitting, drain every queue (each remaining admitted job
    /// still gets its one completion), and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(handle) = self.supervisor.take() else { return };
        self.inner.shutting_down.store(true, Ordering::Release);
        self.inner.cold.notify();
        for s in &self.inner.shards {
            s.queue.notify();
        }
        let _ = handle.join();
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn spawn_worker(inner: &Arc<PoolInner>, shard: usize) {
    let state = Arc::clone(&inner.shards[shard]);
    state.exited_clean.store(false, Ordering::Release);
    let worker_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("aa-shard-{shard}"))
        .spawn(move || worker_loop(worker_inner, state))
        .expect("spawn shard worker thread");
    let mut handles = inner.handles.lock().unwrap_or_else(|e| e.into_inner());
    handles[shard] = Some(handle);
}

fn worker_loop(inner: Arc<PoolInner>, me: Arc<ShardState>) {
    // Fresh per incarnation: tier breakers and warm state reset on
    // restart, so a restarted shard cold-solves its way back to warmth.
    let cfg = &inner.cfg;
    let mut streams = StreamSolver::new(
        cfg.ladder.clone(),
        cfg.breaker_threshold,
        cfg.breaker_cooldown,
        cfg.max_streams,
    );
    loop {
        let popped = loop {
            if let Some(job) = me.queue.try_pop() {
                me.metrics.queue_depth.set(me.queue.len() as f64);
                break Some((job, false));
            }
            if let Some(job) = inner.cold.try_pop() {
                inner.cold_depth.set(inner.cold.len() as f64);
                break Some((job, true));
            }
            if inner.shutting_down.load(Ordering::Acquire)
                && me.queue.is_empty()
                && inner.cold.is_empty()
            {
                break None;
            }
            me.queue.wait_brief(Duration::from_millis(2));
        };
        let Some((job, stolen)) = popped else { break };
        {
            let mut slot = me.inflight.lock().unwrap_or_else(|e| e.into_inner());
            *slot = Some(InflightMeta {
                seq: job.seq,
                stream: job.stream,
                arrived: job.arrived,
                stolen,
            });
        }
        let solve_seq = me.solve_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let mut inject_panic = None;
        if let Some(chaos) = &cfg.chaos {
            match chaos(me.index, solve_seq) {
                FaultAction::None => {}
                FaultAction::PanicSolve => {
                    inject_panic = Some(format!("chaos: injected solve panic on shard {}", me.index));
                }
                FaultAction::Stall(d) => std::thread::sleep(d),
                FaultAction::KillShard => {
                    // In-flight slot stays populated: the supervisor
                    // answers this job and restarts the shard.
                    panic!("chaos: shard {} killed before solve", me.index);
                }
            }
        }
        if stolen {
            me.metrics.stolen.inc();
        }
        let started = Instant::now();
        let waited = started.duration_since(job.arrived);
        let outcome = streams.solve(job.stream, &job.problem, job.deadline, started, inject_panic);
        match &outcome {
            Ok(_) => me.metrics.solves.inc(),
            Err(ShardError::Expired) => me.metrics.expired.inc(),
            Err(ShardError::Solve(SolveError::Panicked(_))) => me.metrics.panics.inc(),
            Err(_) => {}
        }
        let completion = ShardCompletion {
            seq: job.seq,
            stream: job.stream,
            shard: me.index,
            stolen,
            waited_micros: waited.as_micros() as u64,
            solve_micros: started.elapsed().as_micros() as u64,
            outcome,
        };
        (inner.complete)(completion);
        let mut slot = me.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *slot = None;
    }
    me.exited_clean.store(true, Ordering::Release);
}

fn supervisor_loop(inner: Arc<PoolInner>) {
    let mut rng = StdRng::seed_from_u64(inner.cfg.seed ^ 0x5570_6572_7669_7365);
    let n = inner.shards.len();
    let mut pending_restart: Vec<Option<Instant>> = vec![None; n];
    let mut done = vec![false; n];
    loop {
        let shutting = inner.shutting_down.load(Ordering::Acquire);
        let mut idle = true;
        for i in 0..n {
            if done[i] {
                continue;
            }
            let shard = &inner.shards[i];
            if let Some(at) = pending_restart[i] {
                if shutting {
                    pending_restart[i] = None;
                    drain_queue(&inner, shard);
                    done[i] = true;
                } else if Instant::now() >= at {
                    pending_restart[i] = None;
                    spawn_worker(&inner, i);
                } else {
                    idle = false;
                }
                continue;
            }
            let finished = {
                let handles = inner.handles.lock().unwrap_or_else(|e| e.into_inner());
                handles[i].as_ref().map(|h| h.is_finished()).unwrap_or(true)
            };
            if !finished {
                idle = false;
                continue;
            }
            let handle = {
                let mut handles = inner.handles.lock().unwrap_or_else(|e| e.into_inner());
                handles[i].take()
            };
            if let Some(h) = handle {
                let _ = h.join();
            }
            if shard.exited_clean.load(Ordering::Acquire) {
                // Clean drain-and-exit during shutdown.
                done[i] = true;
                continue;
            }
            // The worker died. Answer its in-flight job, drain its queue,
            // and decide between restart and retirement.
            let restarts = shard.restarts.fetch_add(1, Ordering::AcqRel) + 1;
            shard.metrics.restarts.inc();
            inner.sup_restarts.inc();
            answer_inflight(&inner, shard);
            drain_queue(&inner, shard);
            if shutting {
                done[i] = true;
            } else if restarts > inner.cfg.max_restarts {
                retire(&inner, shard);
                done[i] = true;
            } else {
                let delay = backoff_for(&inner.cfg, restarts, &mut rng);
                pending_restart[i] = Some(Instant::now() + delay);
                idle = false;
            }
        }
        if shutting && idle {
            // Workers normally drain the cold queue on the way out; jobs
            // are left behind only if every worker died first.
            drain(&inner, &inner.cold, &inner.cold_depth, 0);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Deliver a [`ShardError::Crashed`] completion for the job the dead
/// worker had in flight, if any.
fn answer_inflight(inner: &Arc<PoolInner>, shard: &ShardState) {
    let meta = shard.inflight.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(m) = meta {
        inner.sup_crash_answers.inc();
        (inner.complete)(ShardCompletion {
            seq: m.seq,
            stream: m.stream,
            shard: shard.index,
            stolen: m.stolen,
            waited_micros: m.arrived.elapsed().as_micros() as u64,
            solve_micros: 0,
            outcome: Err(ShardError::Crashed),
        });
    }
}

/// Answer everything in `queue` with [`ShardError::Drained`], blamed on
/// `blame`, and zero its depth gauge.
fn drain(inner: &PoolInner, queue: &JobQueue, depth: &Gauge, blame: usize) {
    for job in queue.drain_all() {
        inner.sup_drained.inc();
        (inner.complete)(ShardCompletion {
            seq: job.seq,
            stream: job.stream,
            shard: blame,
            stolen: false,
            waited_micros: job.arrived.elapsed().as_micros() as u64,
            solve_micros: 0,
            outcome: Err(ShardError::Drained),
        });
    }
    depth.set(queue.len() as f64);
}

/// Answer everything queued on a dead or retiring shard.
fn drain_queue(inner: &Arc<PoolInner>, shard: &ShardState) {
    drain(inner, &shard.queue, &shard.metrics.queue_depth, shard.index);
}

/// Trip the shard's breaker: stop routing to it, reject queued submits,
/// and drain anything that raced in.
fn retire(inner: &Arc<PoolInner>, shard: &ShardState) {
    shard.live.store(false, Ordering::Release);
    shard.queue.close();
    shard.metrics.breaker_open.set(1.0);
    inner.sup_retired.inc();
    drain_queue(inner, shard);
    if inner.live_count() == 0 {
        inner.cold.close();
        drain(inner, &inner.cold, &inner.cold_depth, shard.index);
    }
}

fn backoff_for(cfg: &ShardConfig, restarts: u32, rng: &mut StdRng) -> Duration {
    crate::fleet::Backoff { base: cfg.backoff_base, max: cfg.backoff_max }.delay(restarts, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, DynUtility, LogUtility, Power, Utility};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    fn mixed_problem(m: usize, n: usize, seed: u64) -> Problem {
        Problem::builder(m, 12.0)
            .threads((0..n).map(|i| {
                let s = 1.0 + ((i as u64 * 5 + seed * 3) % 7) as f64;
                match i % 3 {
                    0 => arc(Power::new(s, 0.5, 12.0)),
                    1 => arc(LogUtility::new(s, 0.8, 12.0)),
                    _ => arc(CappedLinear::new(s, 4.0, 12.0)),
                }
            }))
            .build()
            .unwrap()
    }

    struct Collected {
        completions: Mutex<Vec<ShardCompletion>>,
    }

    impl Collected {
        fn new() -> Arc<Self> {
            Arc::new(Collected { completions: Mutex::new(Vec::new()) })
        }

        fn hook(self: &Arc<Self>) -> CompletionFn {
            let me = Arc::clone(self);
            Arc::new(move |c| {
                me.completions.lock().unwrap_or_else(|e| e.into_inner()).push(c);
            })
        }

        fn len(&self) -> usize {
            self.completions.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        fn take(&self) -> Vec<ShardCompletion> {
            std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }

    fn wait_until(timeout: Duration, pred: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    /// Silence the default panic-printing hook for the duration of a
    /// test that kills shards on purpose.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn stream_solver_evicts_the_oldest_stream_at_max_streams() {
        use crate::incremental::SolveMode;
        use crate::tiered::Tier;

        let mut streams = StreamSolver::new(Some(vec![Tier::Algo2, Tier::Uu]), 3, 64, 2);
        let problems: Vec<Problem> = (0..3).map(|k| mixed_problem(2, 6, k)).collect();
        let solve = |streams: &mut StreamSolver, s: u64| {
            let solved = streams
                .solve(Some(s), &problems[s as usize], None, Instant::now(), None)
                .expect("healthy solve");
            assert!(streams.warm.len() <= 2, "cap exceeded");
            (streams.warm[&Some(s)].last_stats().mode, solved.utility.to_bits())
        };
        let (mode, cold0) = solve(&mut streams, 0);
        assert_eq!(mode, SolveMode::Cold);
        assert_eq!(solve(&mut streams, 1).0, SolveMode::Cold);
        assert_eq!(solve(&mut streams, 0), (SolveMode::Identical, cold0), "retained stays warm");
        // A third stream evicts the oldest (stream 0, FIFO by first use).
        assert_eq!(solve(&mut streams, 2).0, SolveMode::Cold);
        assert!(!streams.warm.contains_key(&Some(0)));
        assert_eq!(solve(&mut streams, 1).0, SolveMode::Identical, "retained stays warm");
        // The evicted stream starts over from a fresh warm state.
        assert_eq!(solve(&mut streams, 0), (SolveMode::Cold, cold0), "evicted rebuilds cold");
    }

    #[test]
    fn healthy_pool_answers_every_request_exactly_once() {
        let registry = Registry::new();
        let sink = Collected::new();
        let cfg = ShardConfig {
            shards: 3,
            queue: 64,
            cold_queue: 64,
            ..ShardConfig::default()
        };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        let total = 60u64;
        for seq in 0..total {
            let stream = if seq % 3 == 0 { None } else { Some(seq % 7) };
            let job = ShardJob::new(seq, stream, mixed_problem(2, 6, seq % 4), None);
            // Healthy pool with roomy queues: retry transient fullness.
            assert!(wait_until(Duration::from_secs(10), || pool
                .submit(job.clone())
                .is_ok()));
        }
        pool.shutdown();
        let completions = sink.take();
        assert_eq!(completions.len(), total as usize);
        let mut seqs: Vec<u64> = completions.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), total as usize, "duplicate or missing seqs");
        for c in &completions {
            assert!(c.outcome.is_ok(), "seq {} failed: {:?}", c.seq, c.outcome);
        }
    }

    #[test]
    fn keyed_requests_follow_consistent_hash_routing() {
        let registry = Registry::new();
        let sink = Collected::new();
        let cfg = ShardConfig { shards: 4, queue: 64, ..ShardConfig::default() };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        let expected: Vec<usize> = (0..16).map(|k| pool.route(k).unwrap()).collect();
        // Routing is a pure function of the key while all shards live.
        for (k, &e) in expected.iter().enumerate() {
            assert_eq!(pool.route(k as u64), Some(e));
        }
        for seq in 0..32u64 {
            let key = seq % 16;
            let job = ShardJob::new(seq, Some(key), mixed_problem(2, 5, key), None);
            assert!(wait_until(Duration::from_secs(10), || pool
                .submit(job.clone())
                .is_ok()));
        }
        pool.shutdown();
        for c in sink.take() {
            let key = c.stream.unwrap() as usize;
            assert_eq!(c.shard, expected[key], "stream {key} solved off-route");
            assert!(!c.stolen);
        }
    }

    #[test]
    fn contained_solve_panic_answers_structured_and_keeps_the_worker() {
        let registry = Registry::new();
        let sink = Collected::new();
        let chaos: ChaosHook = Arc::new(|_shard, seq| {
            if seq == 2 {
                FaultAction::PanicSolve
            } else {
                FaultAction::None
            }
        });
        let cfg = ShardConfig {
            shards: 1,
            queue: 64,
            chaos: Some(chaos),
            ..ShardConfig::default()
        };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        for seq in 0..5u64 {
            let job = ShardJob::new(seq, Some(1), mixed_problem(2, 5, 0), None);
            assert!(pool.submit(job).is_ok());
        }
        assert!(wait_until(Duration::from_secs(10), || sink.len() == 5));
        pool.shutdown();
        let completions = sink.take();
        let panicked: Vec<&ShardCompletion> = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    Err(ShardError::Solve(SolveError::Panicked(_)))
                )
            })
            .collect();
        assert_eq!(panicked.len(), 1);
        assert_eq!(completions.iter().filter(|c| c.outcome.is_ok()).count(), 4);
        // The panic was contained: the worker thread never died.
        assert_eq!(registry.counter("aa_supervisor_restarts_total").get(), 0);
    }

    #[test]
    fn killed_shard_restarts_and_the_inflight_job_is_answered() {
        with_quiet_panics(|| {
            let registry = Registry::new();
            let sink = Collected::new();
            let chaos: ChaosHook = Arc::new(|shard, seq| {
                if shard == 0 && seq == 1 {
                    FaultAction::KillShard
                } else {
                    FaultAction::None
                }
            });
            let cfg = ShardConfig {
                shards: 1,
                queue: 64,
                chaos: Some(chaos),
                backoff_base: Duration::from_millis(1),
                ..ShardConfig::default()
            };
            let pool = ShardPool::new(cfg, &registry, sink.hook());
            pool.submit(ShardJob::new(0, Some(9), mixed_problem(2, 5, 0), None)).unwrap();
            assert!(wait_until(Duration::from_secs(10), || sink.len() == 1));
            let first = sink.take();
            assert!(matches!(first[0].outcome, Err(ShardError::Crashed)));
            assert!(wait_until(Duration::from_secs(10), || pool.restarts()[0] == 1));
            // The restarted shard serves the same stream again, cold.
            pool.submit(ShardJob::new(1, Some(9), mixed_problem(2, 5, 0), None)).unwrap();
            assert!(wait_until(Duration::from_secs(10), || sink.len() == 1));
            let second = sink.take();
            assert!(second[0].outcome.is_ok());
            assert_eq!(registry.counter("aa_supervisor_crash_answers_total").get(), 1);
            pool.shutdown();
        });
    }

    #[test]
    fn breaker_retires_a_flapping_shard_and_reroutes_its_keys() {
        with_quiet_panics(|| {
            let registry = Registry::new();
            let sink = Collected::new();
            let chaos: ChaosHook = Arc::new(|shard, _seq| {
                if shard == 0 {
                    FaultAction::KillShard
                } else {
                    FaultAction::None
                }
            });
            let cfg = ShardConfig {
                shards: 2,
                queue: 64,
                chaos: Some(chaos),
                max_restarts: 1,
                backoff_base: Duration::from_millis(1),
                ..ShardConfig::default()
            };
            let pool = ShardPool::new(cfg, &registry, sink.hook());
            // Find a key routed to the doomed shard.
            let key = (0..1000u64).find(|&k| pool.route(k) == Some(0)).unwrap();
            // Each submit either crashes the worker (answered Crashed /
            // Drained) until the breaker trips, after which the key
            // reroutes to shard 1 and solves.
            let mut seq = 0u64;
            while !pool.breaker_open(0) {
                let job = ShardJob::new(seq, Some(key), mixed_problem(2, 5, 0), None);
                if pool.submit(job).is_ok() {
                    seq += 1;
                }
                let want = seq as usize;
                assert!(wait_until(Duration::from_secs(10), || sink.len() >= want
                    || pool.breaker_open(0)));
                assert!(seq < 64, "breaker never tripped");
            }
            assert_eq!(pool.live_shards(), 1);
            assert_eq!(pool.route(key), Some(1));
            let job = ShardJob::new(1000, Some(key), mixed_problem(2, 5, 0), None);
            assert!(wait_until(Duration::from_secs(10), || pool
                .submit(job.clone())
                .is_ok()));
            assert!(wait_until(Duration::from_secs(10), || {
                sink.completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .any(|c| c.seq == 1000 && c.outcome.is_ok() && c.shard == 1)
            }));
            assert!(registry.counter("aa_supervisor_retired_total").get() >= 1);
            pool.shutdown();
        });
    }

    #[test]
    fn full_queue_sheds_at_submit_time() {
        let registry = Registry::new();
        let sink = Collected::new();
        // Stall every solve so the queue cannot drain while we fill it.
        let chaos: ChaosHook =
            Arc::new(|_, _| FaultAction::Stall(Duration::from_millis(50)));
        let cfg = ShardConfig {
            shards: 1,
            queue: 2,
            chaos: Some(chaos),
            ..ShardConfig::default()
        };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        let mut shed = 0;
        for seq in 0..16u64 {
            let job = ShardJob::new(seq, Some(3), mixed_problem(2, 5, 0), None);
            match pool.submit(job) {
                Ok(()) => {}
                Err(SubmitError::QueueFull { shard: Some(0) }) => shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(shed > 0, "a 2-deep queue never filled under a stalled shard");
        pool.shutdown();
        // Shed jobs were never admitted; admitted == completed.
        assert_eq!(sink.len(), 16 - shed);
    }

    #[test]
    fn shutdown_drains_admitted_jobs_exactly_once() {
        let registry = Registry::new();
        let sink = Collected::new();
        let cfg = ShardConfig { shards: 2, queue: 128, ..ShardConfig::default() };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        let mut admitted = 0usize;
        for seq in 0..40u64 {
            let stream = if seq % 2 == 0 { Some(seq % 5) } else { None };
            if pool.submit(ShardJob::new(seq, stream, mixed_problem(2, 5, 0), None)).is_ok() {
                admitted += 1;
            }
        }
        pool.shutdown();
        let completions = sink.take();
        assert_eq!(completions.len(), admitted);
        let mut seqs: Vec<u64> = completions.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), admitted);
    }
}
