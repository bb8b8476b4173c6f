//! Self-restarting worker-shard pool for the serving tier.
//!
//! The pool runs `N` worker threads ("shards"), each owning a
//! [`StreamSolver`] — a [`TieredSolver`] plus a per-stream [`WarmState`]
//! map, the same solve state every fleet worker process runs. Requests
//! carry an optional *stream id*; keyed requests are routed to a shard by a
//! consistent-hash ring (so a stream's warm state stays on one shard),
//! while key-less "cold" requests land on a shared steal queue that any
//! idle shard drains.
//!
//! A job carries its problem as a build hook ([`BuildFn`]), not a built
//! [`Problem`]: the shard answers it through [`StreamSolver::answer`], the
//! one request entry a fleet worker calls too. It builds the problem
//! against the stream's previous thread objects (an unchanged curve keeps
//! its object, so the warm solve skips it), answers a refused build with
//! [`ShardError::Refused`], and does not charge the build to the deadline.
//!
//! Crash isolation is layered:
//!
//! 1. Every solve runs behind a `catch_unwind` boundary
//!    ([`TieredSolver::try_solve_within_caught`]); a panicking solver
//!    yields [`SolveError::Panicked`] and the shard keeps going.
//! 2. Each shard thread supervises itself. It runs one *incarnation* — a
//!    fresh [`StreamSolver`] draining jobs — at a time, behind a second
//!    `catch_unwind`. When an incarnation dies (a panic outside the caught
//!    solve — in production a bug, in tests an injected
//!    [`FaultAction::KillShard`]), the same thread answers the in-flight
//!    request with [`ShardError::Crashed`], drains its queue with
//!    [`ShardError::Drained`], waits out an exponential backoff with
//!    seeded jitter (shutdown cuts it short), and starts a new
//!    incarnation.
//! 3. After more than [`ShardConfig::max_restarts`] restarts the shard's
//!    circuit breaker trips: the shard is retired and its thread exits,
//!    its ring points are skipped, and its keys reroute to the surviving
//!    shards.
//!
//! A new incarnation starts with a fresh warm-state map: the first
//! post-restart request per stream is simply a cold solve (bit-identical
//! to the warm path by construction), after which the stream is warm again.
//!
//! Every queue (each shard's and the cold one), the live flags and the
//! shutdown flag sit under one mutex, with one condvar per shard. An idle
//! shard checks its own queue, the cold queue and shutdown under that lock
//! and then sleeps with no timeout; every push and the shutdown notify, so
//! no wakeup is lost and nothing polls.
//!
//! Exactly-once accounting: an admitted job lives in exactly one place at
//! any time — a queue, a shard's in-flight slot, or a delivered
//! [`ShardCompletion`]. The in-flight slot is filled *before* any fallible
//! work and cleared only after the completion callback returns, so a crash
//! at any point leaves the job for the shard's crash handler to answer.
//! The completion callback must not panic; it runs on the shard threads
//! and, for jobs left on the cold queue at shutdown, on the thread calling
//! [`ShardPool::shutdown`].
//!
//! Determinism for tests comes from [`ChaosHook`]: faults are keyed on the
//! per-shard solve sequence number (which survives restarts), not wall
//! time, so a seeded script kills shard `s` on exactly its `k`-th job no
//! matter how threads interleave.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aa_obs::{Counter, Gauge, Registry};
use aa_utility::DynUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::Budget;
use crate::fleet::Backoff;
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
    /// with [`SolveError::Panicked`] and the incarnation survives.
    PanicSolve,
    /// Panic *outside* the caught region, ending the shard's incarnation.
    /// Its thread answers the in-flight request, drains the queue, and
    /// starts a new incarnation after the backoff.
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

/// A request's problem, built by its executor: called with the thread
/// objects the stream's last warm solve was given (empty for a new
/// stream), it returns the problem, or the answer class and text the
/// request is refused with.
pub type BuildFn =
    Arc<dyn Fn(&[DynUtility]) -> Result<Problem, (&'static str, String)> + Send + Sync>;

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
    /// Seed for restart jitter; each shard draws from its own RNG, seeded
    /// from this value and the shard index.
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
            .field("seed", &self.seed)
            .field("ladder", &self.ladder)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// One admitted solve request.
#[derive(Clone)]
pub struct ShardJob {
    /// Caller-assigned sequence number, echoed in the completion.
    pub seq: u64,
    /// Stream id for warm-state locality; `None` goes to the cold queue.
    pub stream: Option<u64>,
    /// Builds the problem to solve, on the shard.
    pub build: BuildFn,
    /// Absolute deadline; expired jobs complete with [`ShardError::Expired`].
    pub deadline: Option<Instant>,
    /// When the job was admitted (set by [`ShardJob::new`]).
    pub arrived: Instant,
}

impl ShardJob {
    /// A job for an already built `problem` (its build ignores the
    /// stream's previous threads), stamped with the current time.
    pub fn new(seq: u64, stream: Option<u64>, problem: Problem, deadline: Option<Instant>) -> Self {
        let build: BuildFn = Arc::new(move |_| Ok(problem.clone()));
        ShardJob { seq, stream, build, deadline, arrived: Instant::now() }
    }
}

/// Why a job completed without an answer.
#[derive(Debug)]
pub enum ShardError {
    /// The request's problem was refused before any solve: its build
    /// answered this class and text.
    Refused {
        /// The stable wire class (`parse`, `problem`).
        class: &'static str,
        /// Human-readable detail.
        error: String,
    },
    /// The solve itself failed (including [`SolveError::Panicked`] from
    /// a contained solver panic).
    Solve(SolveError),
    /// The deadline passed while the job sat in a queue.
    Expired,
    /// The shard's incarnation died while this job was in flight;
    /// answered by the shard's crash handler.
    Crashed,
    /// The job was queued on a shard that crashed or was retired before
    /// reaching it, or left on the cold queue with no shard to take it.
    Drained,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Refused { error, .. } => f.write_str(error),
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
    /// one outcome → class map both serving modes use.
    pub fn class(&self) -> &'static str {
        match self {
            ShardError::Refused { class, .. } => class,
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
    /// A fresh solver over `ladder` (`None`: the full default ladder),
    /// with the tier breaker's defaults, keeping at most `max_streams`
    /// warm streams.
    pub fn new(ladder: Option<Vec<crate::tiered::Tier>>, max_streams: usize) -> Self {
        let solver = match ladder {
            Some(ladder) => TieredSolver::with_ladder(ladder),
            None => TieredSolver::new(),
        };
        StreamSolver { solver, warm: HashMap::new(), order: VecDeque::new(), max_streams }
    }

    /// Answer one request on `stream` — the entry a shard thread and a
    /// fleet worker both call. `build` gets the thread objects the
    /// stream's last warm solve was given ([`WarmState::previous_threads`];
    /// empty for a new stream); a refusal answers [`ShardError::Refused`]
    /// whatever the deadline. The build is not charged to the deadline,
    /// which moves out by the build's duration; then the problem is
    /// solved as [`Self::solve`] does. Returns the outcome and the
    /// microseconds the solve alone took (0 when refused).
    pub fn answer(
        &mut self,
        stream: Option<u64>,
        build: impl FnOnce(&[DynUtility]) -> Result<Problem, (&'static str, String)>,
        deadline: Option<Instant>,
        inject_panic: Option<String>,
    ) -> (Result<TieredSolve, ShardError>, u64) {
        let building = Instant::now();
        let previous = self.warm.get(&stream).map_or(&[][..], WarmState::previous_threads);
        let problem = match build(previous) {
            Ok(problem) => problem,
            Err((class, error)) => return (Err(ShardError::Refused { class, error }), 0),
        };
        let started = Instant::now();
        let deadline = deadline.map(|d| d + (started - building));
        let outcome = self.solve(stream, &problem, deadline, started, inject_panic);
        (outcome, started.elapsed().as_micros() as u64)
    }

    /// Solve one built problem on `stream`'s warm state, behind the
    /// tiered solver's `catch_unwind` boundary. A `deadline` already past
    /// at `started` answers [`ShardError::Expired`] without solving; a
    /// live one becomes the solve's budget. `inject_panic` (chaos only)
    /// panics with that message inside the caught region instead of
    /// solving.
    fn solve(
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
    /// The shard that answered (for drained cold jobs, the shard whose
    /// retirement triggered the drain, or 0 at shutdown).
    pub shard: usize,
    /// Whether the job was stolen from the cold queue.
    pub stolen: bool,
    /// Microseconds spent queued before the solve started.
    pub waited_micros: u64,
    /// Microseconds spent solving, the build excluded (0 for refused,
    /// crashed and drained jobs).
    pub solve_micros: u64,
    /// The solve result.
    pub outcome: Result<TieredSolve, ShardError>,
}

/// Metadata of a popped job, kept until its completion is delivered so
/// that a job nobody will solve can still be answered.
struct InflightMeta {
    seq: u64,
    stream: Option<u64>,
    arrived: Instant,
    stolen: bool,
}

impl InflightMeta {
    fn of(job: &ShardJob, stolen: bool) -> Self {
        InflightMeta { seq: job.seq, stream: job.stream, arrived: job.arrived, stolen }
    }

    /// The completion answering this job with `error` instead of a solve.
    fn unsolved(&self, shard: usize, error: ShardError) -> ShardCompletion {
        ShardCompletion {
            seq: self.seq,
            stream: self.stream,
            shard,
            stolen: self.stolen,
            waited_micros: self.arrived.elapsed().as_micros() as u64,
            solve_micros: 0,
            outcome: Err(error),
        }
    }
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

/// Everything a shard waits on, under one lock.
struct Queues {
    /// Each shard's own queue.
    shard: Vec<VecDeque<ShardJob>>,
    /// False once the breaker retires the shard: the ring skips it, so
    /// its queue takes no more jobs.
    live: Vec<bool>,
    /// Key-less jobs any shard may steal.
    cold: VecDeque<ShardJob>,
    shutting_down: bool,
}

struct ShardState {
    index: usize,
    /// Woken by a push to this shard's queue or to the cold queue, and by
    /// shutdown.
    wake: Condvar,
    restarts: AtomicU32,
    metrics: ShardMetrics,
}

struct PoolInner {
    cfg: ShardConfig,
    shards: Vec<ShardState>,
    queues: Mutex<Queues>,
    /// Consistent-hash ring over shard indices.
    ring: Ring,
    complete: CompletionFn,
    cold_depth: Gauge,
    sup_restarts: Counter,
    sup_crash_answers: Counter,
    sup_drained: Counter,
    sup_retired: Counter,
}

impl PoolInner {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// First live shard on the ring at or after the stream's hash point.
    fn route(&self, q: &Queues, stream: u64) -> Option<usize> {
        self.ring.route(stream, |shard| q.live[shard])
    }

    fn submit(&self, job: ShardJob) -> Result<(), SubmitError> {
        let mut q = self.lock();
        if q.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        // Retirement takes the same lock, so a routed shard stays live
        // until the push below is done.
        let shard = match job.stream {
            Some(key) => Some(self.route(&q, key).ok_or(SubmitError::NoLiveShards)?),
            None if q.live.contains(&true) => None,
            None => return Err(SubmitError::NoLiveShards),
        };
        let (queue, cap, depth) = match shard {
            Some(s) => (&mut q.shard[s], self.cfg.queue, &self.shards[s].metrics.queue_depth),
            None => (&mut q.cold, self.cfg.cold_queue, &self.cold_depth),
        };
        if queue.len() >= cap.max(1) {
            return Err(SubmitError::QueueFull { shard });
        }
        queue.push_back(job);
        depth.set(queue.len() as f64);
        drop(q);
        match shard {
            Some(s) => self.shards[s].wake.notify_one(),
            // Any idle shard may steal a cold job; wake them all.
            None => self.shards.iter().for_each(|s| s.wake.notify_one()),
        }
        Ok(())
    }

    /// Block until `me` has a job — its own queue first, then a steal from
    /// the cold queue — or shutdown finds both empty.
    fn next_job(&self, me: &ShardState) -> Option<(ShardJob, bool)> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.shard[me.index].pop_front() {
                me.metrics.queue_depth.set(q.shard[me.index].len() as f64);
                return Some((job, false));
            }
            if let Some(job) = q.cold.pop_front() {
                self.cold_depth.set(q.cold.len() as f64);
                return Some((job, true));
            }
            if q.shutting_down {
                return None;
            }
            q = me.wake.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wait out a restart backoff; false when shutdown cut it short.
    fn back_off(&self, me: &ShardState, delay: Duration) -> bool {
        let (q, _) = me
            .wake
            .wait_timeout_while(self.lock(), delay, |q| !q.shutting_down)
            .unwrap_or_else(|e| e.into_inner());
        !q.shutting_down
    }

    /// Answer `jobs` with [`ShardError::Drained`], blamed on `blame`.
    fn drain(&self, jobs: VecDeque<ShardJob>, blame: usize) {
        for job in jobs {
            self.sup_drained.inc();
            (self.complete)(InflightMeta::of(&job, false).unsolved(blame, ShardError::Drained));
        }
    }

    /// Answer everything queued on `me`.
    fn drain_shard(&self, me: &ShardState) {
        let jobs = {
            let mut q = self.lock();
            me.metrics.queue_depth.set(0.0);
            std::mem::take(&mut q.shard[me.index])
        };
        self.drain(jobs, me.index);
    }

    /// Trip the shard's breaker: stop routing to it and answer its queue.
    /// Retiring the last live shard also answers the cold queue, which no
    /// shard is left to steal from.
    fn retire(&self, me: &ShardState) {
        let cold = {
            let mut q = self.lock();
            q.live[me.index] = false;
            if q.live.contains(&true) {
                VecDeque::new()
            } else {
                self.cold_depth.set(0.0);
                std::mem::take(&mut q.cold)
            }
        };
        me.metrics.breaker_open.set(1.0);
        self.sup_retired.inc();
        // No push can reach a retired shard's queue, so this drain is final.
        self.drain_shard(me);
        self.drain(cold, me.index);
    }
}

/// A pool of crash-isolated, self-restarting worker shards. See the
/// module docs.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn one thread per shard. Completions are delivered through
    /// `complete`, possibly from several threads concurrently; it must not
    /// panic.
    pub fn new(cfg: ShardConfig, registry: &Registry, complete: CompletionFn) -> Self {
        let n = cfg.shards.max(1);
        let shards: Vec<ShardState> = (0..n)
            .map(|i| {
                let metrics = ShardMetrics::new(registry, i);
                metrics.queue_depth.set(0.0);
                metrics.breaker_open.set(0.0);
                ShardState { index: i, wake: Condvar::new(), restarts: AtomicU32::new(0), metrics }
            })
            .collect();
        let inner = Arc::new(PoolInner {
            queues: Mutex::new(Queues {
                shard: (0..n).map(|_| VecDeque::new()).collect(),
                live: vec![true; n],
                cold: VecDeque::new(),
                shutting_down: false,
            }),
            shards,
            ring: Ring::new(n),
            complete,
            cold_depth: registry.gauge("aa_shard_cold_queue_depth"),
            sup_restarts: registry.counter("aa_supervisor_restarts_total"),
            sup_crash_answers: registry.counter("aa_supervisor_crash_answers_total"),
            sup_drained: registry.counter("aa_supervisor_drained_total"),
            sup_retired: registry.counter("aa_supervisor_retired_total"),
            cfg,
        });
        let threads = (0..n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aa-shard-{i}"))
                    .spawn(move || shard_thread(&inner, &inner.shards[i]))
                    .expect("spawn shard thread")
            })
            .collect();
        ShardPool { inner, threads }
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
        self.inner.lock().live.iter().filter(|&&live| live).count()
    }

    /// The shard a stream currently routes to, if any shard is live.
    pub fn route(&self, stream: u64) -> Option<usize> {
        self.inner.route(&self.inner.lock(), stream)
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
        !self.inner.lock().live[shard]
    }

    /// Stop admitting, drain every queue (each remaining admitted job
    /// still gets its one completion), and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.inner.lock().shutting_down = true;
        for s in &self.inner.shards {
            s.wake.notify_one();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Shards solve the cold queue on their way out; jobs are left on
        // it only when no shard was running to take them.
        let cold = std::mem::take(&mut self.inner.lock().cold);
        self.inner.cold_depth.set(0.0);
        self.inner.drain(cold, 0);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One shard's thread: run incarnations until one returns at shutdown,
/// answering each crash in place, and exit early once retired.
fn shard_thread(inner: &PoolInner, me: &ShardState) {
    let cfg = &inner.cfg;
    let backoff = Backoff { base: cfg.backoff_base, max: cfg.backoff_max };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5570_6572_7669_7365 ^ me.index as u64);
    let mut solve_seq = 0;
    loop {
        let mut inflight = None;
        let run = catch_unwind(AssertUnwindSafe(|| {
            incarnation(inner, me, &mut inflight, &mut solve_seq)
        }));
        if run.is_ok() {
            return;
        }
        let restarts = me.restarts.fetch_add(1, Ordering::AcqRel) + 1;
        me.metrics.restarts.inc();
        inner.sup_restarts.inc();
        if let Some(job) = inflight {
            inner.sup_crash_answers.inc();
            (inner.complete)(job.unsolved(me.index, ShardError::Crashed));
        }
        if restarts > cfg.max_restarts {
            inner.retire(me);
            return;
        }
        inner.drain_shard(me);
        if !inner.back_off(me, backoff.delay(restarts, &mut rng)) {
            // Shutdown came first: answer what was queued meanwhile.
            inner.drain_shard(me);
            return;
        }
    }
}

/// One incarnation: a fresh [`StreamSolver`] — tier breakers and warm
/// state reset, so a restarted shard cold-solves its way back to warmth —
/// draining jobs until shutdown. `inflight` holds each job from before any
/// fallible work until its completion returns; `solve_seq` counts pops
/// across incarnations.
fn incarnation(
    inner: &PoolInner,
    me: &ShardState,
    inflight: &mut Option<InflightMeta>,
    solve_seq: &mut u64,
) {
    let cfg = &inner.cfg;
    let mut streams = StreamSolver::new(cfg.ladder.clone(), cfg.max_streams);
    while let Some((job, stolen)) = inner.next_job(me) {
        *inflight = Some(InflightMeta::of(&job, stolen));
        *solve_seq += 1;
        let mut inject_panic = None;
        if let Some(chaos) = &cfg.chaos {
            match chaos(me.index, *solve_seq) {
                FaultAction::None => {}
                FaultAction::PanicSolve => {
                    inject_panic = Some(format!("chaos: injected solve panic on shard {}", me.index));
                }
                FaultAction::Stall(d) => std::thread::sleep(d),
                // The in-flight slot stays filled: the crash handler
                // answers this job.
                FaultAction::KillShard => panic!("chaos: shard {} killed before solve", me.index),
            }
        }
        if stolen {
            me.metrics.stolen.inc();
        }
        let waited = job.arrived.elapsed();
        let (outcome, solve_micros) =
            streams.answer(job.stream, &*job.build, job.deadline, inject_panic);
        match &outcome {
            Ok(_) => me.metrics.solves.inc(),
            Err(ShardError::Expired) => me.metrics.expired.inc(),
            Err(ShardError::Solve(SolveError::Panicked(_))) => me.metrics.panics.inc(),
            Err(_) => {}
        }
        (inner.complete)(ShardCompletion {
            seq: job.seq,
            stream: job.stream,
            shard: me.index,
            stolen,
            waited_micros: waited.as_micros() as u64,
            solve_micros,
            outcome,
        });
        *inflight = None;
    }
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

    /// Every completion as `(seq, "Ok" or the error variant)`, by seq.
    fn answers(sink: &Collected) -> Vec<(u64, String)> {
        let mut out: Vec<_> = sink
            .take()
            .into_iter()
            .map(|c| (c.seq, c.outcome.map_or_else(|e| format!("{e:?}"), |_| "Ok".into())))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn stream_solver_evicts_the_oldest_stream_at_max_streams() {
        use crate::incremental::SolveMode;
        use crate::tiered::Tier;

        let mut streams = StreamSolver::new(Some(vec![Tier::Algo2, Tier::Uu]), 2);
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

    #[test]
    fn shutdown_during_a_restart_backoff_drains_the_queue_promptly() {
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
                queue: 8,
                chaos: Some(chaos),
                backoff_base: Duration::from_secs(30),
                backoff_max: Duration::from_secs(60),
                ..ShardConfig::default()
            };
            let pool = ShardPool::new(cfg, &registry, sink.hook());
            pool.submit(ShardJob::new(0, Some(4), mixed_problem(2, 5, 0), None)).unwrap();
            assert!(wait_until(Duration::from_secs(10), || sink.len() == 1
                && pool.restarts()[0] == 1));
            // The shard is now in a 30 s backoff; these queue behind it.
            for seq in 1..4u64 {
                pool.submit(ShardJob::new(seq, Some(4), mixed_problem(2, 5, 0), None)).unwrap();
            }
            let started = Instant::now();
            pool.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "shutdown waited out the backoff: {:?}",
                started.elapsed()
            );
            let expected: Vec<(u64, String)> =
                (0..4).map(|s| (s, if s == 0 { "Crashed" } else { "Drained" }.into())).collect();
            assert_eq!(answers(&sink), expected);
        });
    }

    #[test]
    fn retiring_every_shard_answers_the_cold_queue_then_refuses_work() {
        with_quiet_panics(|| {
            let registry = Registry::new();
            let sink = Collected::new();
            // Hold both kills until every job is queued, so the cold queue
            // still has jobs when the last shard retires.
            let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let gate = Arc::clone(&go);
            let chaos: ChaosHook = Arc::new(move |_, _| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                FaultAction::KillShard
            });
            let cfg = ShardConfig {
                shards: 2,
                cold_queue: 16,
                chaos: Some(chaos),
                max_restarts: 0,
                ..ShardConfig::default()
            };
            let pool = ShardPool::new(cfg, &registry, sink.hook());
            for seq in 0..8 {
                pool.submit(ShardJob::new(seq, None, mixed_problem(2, 5, 0), None)).unwrap();
            }
            go.store(true, Ordering::Release);
            assert!(wait_until(Duration::from_secs(10), || sink.len() == 8));
            assert_eq!(pool.live_shards(), 0);
            let job = ShardJob::new(99, None, mixed_problem(2, 5, 0), None);
            assert_eq!(pool.submit(job), Err(SubmitError::NoLiveShards));
            pool.shutdown();
            // The cold queue is FIFO: the two shards took jobs 0 and 1.
            let expected: Vec<(u64, String)> =
                (0..8).map(|s| (s, if s < 2 { "Crashed" } else { "Drained" }.into())).collect();
            assert_eq!(answers(&sink), expected);
        });
    }

    /// A one-shard pool over the `[Algo2, Uu]` ladder.
    fn algo2_pool(registry: &Registry, sink: &Arc<Collected>) -> ShardPool {
        use crate::tiered::Tier;
        let cfg = ShardConfig {
            queue: 8,
            ladder: Some(vec![Tier::Algo2, Tier::Uu]),
            ..ShardConfig::default()
        };
        ShardPool::new(cfg, registry, sink.hook())
    }

    /// A job answered through `build`, stamped with the current time.
    fn hooked(
        seq: u64,
        stream: Option<u64>,
        build: &BuildFn,
        deadline: Option<Instant>,
    ) -> ShardJob {
        ShardJob { seq, stream, build: Arc::clone(build), deadline, arrived: Instant::now() }
    }

    /// Submit `job` and wait for its completion.
    fn answer_one(pool: &ShardPool, sink: &Collected, job: ShardJob) -> ShardCompletion {
        pool.submit(job).expect("an idle shard admits");
        assert!(wait_until(Duration::from_secs(10), || sink.len() == 1));
        sink.take().pop().expect("one completion")
    }

    #[test]
    fn a_streams_second_request_builds_on_its_first_threads_and_rides_the_identical_path() {
        use aa_utility::UtilitySpec;

        let specs: Vec<UtilitySpec> = (0..8)
            .map(|i| match i % 2 {
                0 => UtilitySpec::Power { scale: 1.0 + i as f64, beta: 0.5, cap: 12.0 },
                _ => UtilitySpec::Log { scale: 1.0 + i as f64, rate: 0.8, cap: 12.0 },
            })
            .collect();
        let built: Arc<Mutex<Vec<Vec<DynUtility>>>> = Arc::default();
        let (hook_specs, hook_built) = (specs.clone(), Arc::clone(&built));
        let build: BuildFn = Arc::new(move |previous| {
            let threads = hook_specs
                .iter()
                .enumerate()
                .map(|(i, spec)| spec.build_reusing(previous.get(i)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ("problem", e.to_string()))?;
            hook_built.lock().unwrap().push(threads.clone());
            Problem::new(2, 12.0, threads).map_err(|e| ("problem", e.to_string()))
        });
        let cold =
            Problem::new(2, 12.0, specs.iter().map(|s| s.build().unwrap()).collect()).unwrap();
        let expected = crate::algo2::solve(&cold);

        let collector = aa_obs::Collector::install();
        collector.set_enabled(true);
        let identical = aa_obs::global().counter("aa_incremental_identical_total");
        let registry = Registry::new();
        let sink = Collected::new();
        let pool = algo2_pool(&registry, &sink);
        let first = answer_one(&pool, &sink, hooked(0, Some(5), &build, None));
        let before = identical.get();
        let second = answer_one(&pool, &sink, hooked(1, Some(5), &build, None));
        let after = identical.get();
        collector.set_enabled(false);
        pool.shutdown();

        let built = built.lock().unwrap();
        assert_eq!(built.len(), 2);
        assert!(
            built[0].iter().zip(&built[1]).all(|(a, b)| Arc::ptr_eq(a, b)),
            "the second build did not get the first request's thread objects"
        );
        assert!(after > before, "the repeat did not take the identical path");
        for c in [first, second] {
            let solved = c.outcome.expect("healthy solve");
            assert_eq!(solved.assignment.server, expected.server);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&solved.assignment.amount), bits(&expected.amount));
            assert_eq!(solved.utility.to_bits(), expected.total_utility(&cold).to_bits());
        }
    }

    #[test]
    fn a_refused_build_is_answered_once_and_the_shard_keeps_serving() {
        let registry = Registry::new();
        let sink = Collected::new();
        let pool = algo2_pool(&registry, &sink);
        let refuse: BuildFn = Arc::new(|_| Err(("parse", "no problem here".to_string())));
        pool.submit(hooked(0, Some(3), &refuse, None)).unwrap();
        pool.submit(ShardJob::new(1, Some(3), mixed_problem(2, 5, 0), None)).unwrap();
        assert!(wait_until(Duration::from_secs(10), || sink.len() == 2));
        pool.shutdown();
        let mut completions = sink.take();
        completions.sort_by_key(|c| c.seq);
        assert_eq!(completions.len(), 2, "each job is answered exactly once");
        match &completions[0].outcome {
            Err(e @ ShardError::Refused { .. }) => {
                assert_eq!((e.class(), e.to_string()), ("parse", "no problem here".to_string()));
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(completions[0].solve_micros, 0);
        assert!(completions[1].outcome.is_ok(), "{:?}", completions[1].outcome);
    }

    #[test]
    fn a_slow_build_is_not_charged_to_the_deadline() {
        let registry = Registry::new();
        let sink = Collected::new();
        let pool = algo2_pool(&registry, &sink);
        let budget = Duration::from_millis(200);
        let slow: BuildFn = Arc::new(move |_| {
            std::thread::sleep(2 * budget);
            Ok(mixed_problem(2, 5, 0))
        });
        let c = answer_one(&pool, &sink, hooked(0, None, &slow, Some(Instant::now() + budget)));
        pool.shutdown();
        assert!(c.outcome.is_ok(), "{:?}", c.outcome);
    }
}
