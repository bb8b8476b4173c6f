//! The thread executor: a pool of worker threads ("shards") the serve
//! supervisor (`aa_cli::fleet`) drives as its thread links.
//!
//! Each shard thread owns a [`StreamSolver`] — a [`TieredSolver`] plus a
//! per-stream [`WarmState`] map, the same solve state every fleet worker
//! process runs (a worker process is a one-shard pool behind its pipe) —
//! and answers the jobs on its own FIFO queue through
//! [`StreamSolver::answer`], one at a time. A job carries its problem as
//! a build hook ([`BuildFn`]), not a built [`Problem`]: the shard builds
//! it against the stream's previous thread objects and the request text
//! they were decoded from ([`Previous`]; an unchanged curve keeps its
//! object, so the warm solve skips it), answers a refused build with
//! [`ShardError::Refused`], and does not charge the build to the
//! deadline.
//!
//! A panicking solve is contained ([`TieredSolver::try_solve_within_caught`]
//! answers [`SolveError::Panicked`]) and the shard keeps going. A panic
//! anywhere else ends the shard's thread: the pool does not restart it,
//! retire it or answer its queue. It reports the death through the
//! [`ExitFn`] given to [`ShardPool::supervised`] and leaves recovery to
//! the caller, which replays what it had sent the shard and calls
//! [`ShardPool::respawn`] (a fresh thread with fresh warm state, so the
//! stream's first request after it is a cold solve, bit-identical to the
//! warm path by construction). So a job is answered exactly once only
//! while its shard lives; the supervisor's pending map is what makes it
//! exactly-once across deaths.
//!
//! Every queue and the shutdown flag sit under one mutex, with one
//! condvar per shard. An idle shard checks its queue and shutdown under
//! that lock and then sleeps with no timeout; every push and the shutdown
//! notify, so no wakeup is lost and nothing polls. The completion
//! callback must not panic; it runs on the shard threads.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use aa_obs::trace::SpanGuard;
use aa_obs::{Gauge, Registry};
use aa_utility::DynUtility;

use crate::budget::Budget;
use crate::incremental::WarmState;
use crate::problem::Problem;
use crate::ring::Ring;
use crate::solver::SolveError;
use crate::tiered::{panic_message, TieredSolve, TieredSolver};

/// Callback invoked with every completion. Must not panic.
pub type CompletionFn = Arc<dyn Fn(ShardCompletion) + Send + Sync>;

/// Callback invoked with a shard's index when its thread dies of a panic
/// outside the caught solve. Must not panic.
pub type ExitFn = Arc<dyn Fn(usize) + Send + Sync>;

/// A request's problem, built by its executor: called with what the
/// stream's last answer left ([`Previous`]), it returns the problem and,
/// when it can say where each thread's value sits in the request text,
/// that text ([`ThreadText`]) — or the answer class and text the request
/// is refused with.
pub type BuildFn =
    Arc<dyn Fn(Previous<'_>) -> Result<Built, (&'static str, String)> + Send + Sync>;

/// A built problem, and the text that says where each of its threads'
/// values sits, when the build can tell ([`BuildFn`]).
pub type Built = (Problem, Option<ThreadText>);

/// What a stream's last answer leaves its next build.
#[derive(Debug, Clone, Copy, Default)]
pub struct Previous<'a> {
    /// The thread objects the stream's last warm solve was given
    /// ([`WarmState::previous_threads`]; empty for a new stream).
    pub threads: &'a [DynUtility],
    /// The request text `threads` were decoded from, when the stream
    /// keeps it: `threads[i]` is what `text`'s value `i` builds.
    pub text: Option<&'a ThreadText>,
}

/// A request's text and the byte span of each thread's value in it, by
/// thread index. A stream keeps the text of its last build only while
/// its warm state's previous threads are exactly the threads that text
/// built, so a next request whose thread value `i` has the same bytes
/// can take `previous[i]` without decoding it.
#[derive(Debug, Clone)]
pub struct ThreadText {
    /// The text the threads were decoded from.
    pub text: Arc<String>,
    /// Thread `i`'s value is `text[spans[i].0 as usize..spans[i].1 as usize]`.
    pub spans: Vec<(u32, u32)>,
}

impl ThreadText {
    /// Thread `i`'s value, verbatim.
    pub fn value(&self, i: usize) -> Option<&str> {
        let &(start, end) = self.spans.get(i)?;
        self.text.get(Range { start: start as usize, end: end as usize })
    }
}

/// Configuration for a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Per-shard queue capacity for [`ShardPool::submit`]; a full queue
    /// sheds with [`SubmitError::QueueFull`].
    pub queue: usize,
    /// Per-shard cap on retained warm streams (FIFO eviction).
    pub max_streams: usize,
    /// Tier ladder for each shard's solver; `None` uses the full
    /// default ladder. The warm incremental path only engages on the
    /// [`Tier::Algo2`](crate::tiered::Tier::Algo2) rung, so latency-bound
    /// callers typically want `[Algo2, Uu]`.
    pub ladder: Option<Vec<crate::tiered::Tier>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, queue: 16, max_streams: 1024, ladder: None }
    }
}

/// One admitted solve request.
#[derive(Clone)]
pub struct ShardJob {
    /// Caller-assigned sequence number, echoed in the completion.
    pub seq: u64,
    /// Stream id for warm-state locality; `None` shares one warm state.
    pub stream: Option<u64>,
    /// Builds the problem to solve, on the shard.
    pub build: BuildFn,
    /// Absolute deadline; expired jobs complete with [`ShardError::Expired`].
    pub deadline: Option<Instant>,
    /// When the job was queued (set to now by [`ShardJob::new`]).
    pub arrived: Instant,
    /// Chaos only: panic with this message inside the caught solve
    /// region instead of solving.
    pub inject_panic: Option<String>,
    /// Tests only: solve under [`Budget::with_fuel`] — expiry after
    /// exactly this many budget checks — instead of the deadline's
    /// wall clock, so a degraded answer is reproducible.
    pub fuel: Option<u64>,
}

impl ShardJob {
    /// A job for an already built `problem` (its build ignores the
    /// stream's previous threads), stamped with the current time.
    pub fn new(seq: u64, stream: Option<u64>, problem: Problem, deadline: Option<Instant>) -> Self {
        let build: BuildFn = Arc::new(move |_| Ok((problem.clone(), None)));
        ShardJob {
            seq,
            stream,
            build,
            deadline,
            arrived: Instant::now(),
            inject_panic: None,
            fuel: None,
        }
    }
}

/// Why a job completed without an answer.
#[derive(Debug)]
pub enum ShardError {
    /// The request's problem was refused before any solve: its build
    /// answered this class and text.
    Refused {
        /// The stable wire class (`parse`, `problem`, `shutdown`).
        class: &'static str,
        /// Human-readable detail.
        error: String,
    },
    /// The solve itself failed (including [`SolveError::Panicked`] from
    /// a contained solver panic).
    Solve(SolveError),
    /// The deadline passed while the job sat in a queue.
    Expired,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Refused { error, .. } => f.write_str(error),
            ShardError::Solve(e) => write!(f, "{e}"),
            ShardError::Expired => write!(f, "deadline expired before the solve started"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    /// The stable wire class a serve answer carries for this error.
    pub fn class(&self) -> &'static str {
        match self {
            ShardError::Refused { class, .. } => class,
            ShardError::Solve(SolveError::Panicked(_)) => "solve_panic",
            ShardError::Solve(SolveError::DeadlineExceeded | SolveError::Cancelled)
            | ShardError::Expired => "deadline",
            ShardError::Solve(_) => "solve",
        }
    }
}

/// One executor's solve state, shared by shard threads and fleet worker
/// processes: a [`TieredSolver`] plus the per-stream map of [`WarmState`]
/// and kept [`ThreadText`] (FIFO eviction beyond `max_streams`; key-less
/// requests share the `None` entry).
pub struct StreamSolver {
    solver: TieredSolver,
    warm: HashMap<Option<u64>, Stream>,
    order: VecDeque<Option<u64>>,
    max_streams: usize,
}

/// One stream's state: its warm solve state, and the text that built its
/// previous threads while they are exactly that text's threads.
#[derive(Default)]
struct Stream {
    state: WarmState,
    text: Option<ThreadText>,
}

impl Stream {
    /// Keep `text`. When the stream already keeps a text whose buffers
    /// nothing else shares, `text` is copied into them: each stream then
    /// holds one long-lived buffer instead of a fresh request's every
    /// time, which would leave the heap fragmented.
    fn keep(&mut self, text: Option<ThreadText>) {
        if let (Some(kept), Some(new)) = (&mut self.text, &text) {
            if let Some(buf) = Arc::get_mut(&mut kept.text) {
                buf.clone_from(&new.text);
                kept.spans.clone_from(&new.spans);
                return;
            }
        }
        self.text = text;
    }
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
    /// fleet worker both call. `build` gets what the stream's last answer
    /// left ([`Previous`]: empty for a new stream); a refusal answers
    /// [`ShardError::Refused`] whatever the deadline. The build is not
    /// charged to the deadline, which moves out by the build's duration;
    /// then the problem is solved under the deadline (one already past
    /// answers [`ShardError::Expired`] without solving) — or, given
    /// `fuel` (tests only), under [`Budget::with_fuel`] whatever the
    /// deadline. Returns the outcome and the microseconds the solve alone
    /// took (0 when refused).
    ///
    /// After the answer the stream keeps the build's [`ThreadText`] when
    /// its warm state's previous threads are exactly the threads just
    /// built (the same objects, in order), and keeps nothing when a solve
    /// ran and left other threads; a request refused or expired before
    /// its solve leaves the stream as it was.
    pub fn answer(
        &mut self,
        stream: Option<u64>,
        build: impl FnOnce(Previous<'_>) -> Result<Built, (&'static str, String)>,
        deadline: Option<Instant>,
        fuel: Option<u64>,
        inject_panic: Option<String>,
    ) -> (Result<TieredSolve, ShardError>, u64) {
        let building = Instant::now();
        let previous = self.warm.get(&stream).map_or_else(Previous::default, |s| Previous {
            threads: s.state.previous_threads(),
            text: s.text.as_ref(),
        });
        let (problem, text) = match build(previous) {
            Ok(built) => built,
            Err((class, error)) => return (Err(ShardError::Refused { class, error }), 0),
        };
        let started = Instant::now();
        let deadline = deadline.map(|d| d + (started - building));
        let outcome = match fuel {
            Some(checks) => self.solve_within(stream, &problem, &Budget::with_fuel(checks), inject_panic),
            None => self.solve(stream, &problem, deadline, started, inject_panic),
        };
        let micros = started.elapsed().as_micros() as u64;
        if let Some(s) = self.warm.get_mut(&stream) {
            let kept = s.state.previous_threads();
            if kept.len() == problem.len()
                && kept.iter().zip(problem.threads()).all(|(a, b)| Arc::ptr_eq(a, b))
            {
                s.keep(text);
            } else if !matches!(outcome, Err(ShardError::Expired)) {
                s.text = None;
            }
        }
        (outcome, micros)
    }

    /// Solve one built problem on `stream`'s warm state under its
    /// deadline: one already past at `started` answers
    /// [`ShardError::Expired`] without solving; a live one becomes the
    /// solve's budget.
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
        self.solve_within(stream, problem, &budget, inject_panic)
    }

    /// Solve one built problem on `stream`'s warm state under `budget`,
    /// behind the tiered solver's `catch_unwind` boundary.
    /// `inject_panic` (chaos only) panics with that message inside the
    /// caught region instead of solving.
    fn solve_within(
        &mut self,
        stream: Option<u64>,
        problem: &Problem,
        budget: &Budget,
        inject_panic: Option<String>,
    ) -> Result<TieredSolve, ShardError> {
        if self.warm.len() >= self.max_streams.max(1) && !self.warm.contains_key(&stream) {
            if let Some(old) = self.order.pop_front() {
                self.warm.remove(&old);
            }
        }
        let order = &mut self.order;
        let state = &mut self.warm.entry(stream).or_insert_with(|| {
            order.push_back(stream);
            Stream::default()
        }).state;
        match inject_panic {
            Some(msg) => std::panic::catch_unwind(|| -> Result<TieredSolve, SolveError> {
                std::panic::panic_any(msg)
            })
            .unwrap_or_else(|payload| {
                state.invalidate();
                Err(SolveError::Panicked(panic_message(payload.as_ref())))
            }),
            None => self.solver.try_solve_within_caught(problem, budget, Some(state)),
        }
        .map_err(ShardError::Solve)
    }
}

/// Why [`ShardPool::submit`] rejected a job (the job was *not* admitted;
/// no completion will be delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The routed shard's queue is full.
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The pool is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { shard } => write!(f, "shard {shard} queue full"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Delivered once per job its shard answers.
#[derive(Debug)]
pub struct ShardCompletion {
    /// The caller's sequence number from [`ShardJob::seq`].
    pub seq: u64,
    /// The job's stream id.
    pub stream: Option<u64>,
    /// The shard that answered.
    pub shard: usize,
    /// Microseconds spent queued before the solve started.
    pub waited_micros: u64,
    /// Microseconds spent solving, the build excluded (0 when refused).
    pub solve_micros: u64,
    /// The id of the job's `fleet_solve` span, when spans are recorded.
    pub span: Option<u64>,
    /// The solve result.
    pub outcome: Result<TieredSolve, ShardError>,
}

/// Every shard's queue and the shutdown flag, under one lock.
struct Queues {
    jobs: Vec<VecDeque<ShardJob>>,
    shutting_down: bool,
}

struct PoolInner {
    cfg: ShardConfig,
    queues: Mutex<Queues>,
    /// Per shard: woken by a push to its queue and by shutdown.
    wake: Vec<Condvar>,
    /// Per shard: `aa_fleet_queue_depth{shard=…}`.
    depth: Vec<Gauge>,
    /// Consistent-hash ring over shard indices, for [`ShardPool::submit`].
    ring: Ring,
    complete: CompletionFn,
    exited: Option<ExitFn>,
}

impl PoolInner {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, shard: usize, job: ShardJob, cap: Option<usize>) -> Result<(), SubmitError> {
        let mut q = self.lock();
        if q.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        let queue = &mut q.jobs[shard];
        if cap.is_some_and(|cap| queue.len() >= cap.max(1)) {
            return Err(SubmitError::QueueFull { shard });
        }
        queue.push_back(job);
        self.depth[shard].set(queue.len() as f64);
        drop(q);
        self.wake[shard].notify_one();
        Ok(())
    }

    /// Block until `shard` has a job, or shutdown finds its queue empty.
    fn next_job(&self, shard: usize) -> Option<ShardJob> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.jobs[shard].pop_front() {
                self.depth[shard].set(q.jobs[shard].len() as f64);
                return Some(job);
            }
            if q.shutting_down {
                return None;
            }
            q = self.wake[shard].wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A pool of shard threads, one FIFO queue each. See the module docs.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    threads: Vec<Option<JoinHandle<()>>>,
}

impl ShardPool {
    /// Spawn one thread per shard. Completions are delivered through
    /// `complete`, possibly from several threads concurrently; it must not
    /// panic. Per-shard queue depths go to `registry`.
    pub fn new(cfg: ShardConfig, registry: &Registry, complete: CompletionFn) -> Self {
        let mut pool = Self::idle(cfg, registry, complete, None);
        for shard in 0..pool.threads.len() {
            pool.respawn(shard);
        }
        pool
    }

    /// [`ShardPool::new`] for a supervisor, which starts each shard's
    /// thread with [`ShardPool::respawn`]: a shard whose thread dies
    /// reports its index through `exited`, after its last completion.
    pub fn supervised(
        cfg: ShardConfig,
        registry: &Registry,
        complete: CompletionFn,
        exited: ExitFn,
    ) -> Self {
        Self::idle(cfg, registry, complete, Some(exited))
    }

    /// A pool with no thread running yet.
    fn idle(
        cfg: ShardConfig,
        registry: &Registry,
        complete: CompletionFn,
        exited: Option<ExitFn>,
    ) -> Self {
        let n = cfg.shards.max(1);
        let inner = Arc::new(PoolInner {
            queues: Mutex::new(Queues {
                jobs: (0..n).map(|_| VecDeque::new()).collect(),
                shutting_down: false,
            }),
            wake: (0..n).map(|_| Condvar::new()).collect(),
            depth: (0..n)
                .map(|i| registry.gauge_labeled("aa_fleet_queue_depth", "shard", &i.to_string()))
                .collect(),
            ring: Ring::new(n),
            complete,
            exited,
            cfg,
        });
        ShardPool { inner, threads: (0..n).map(|_| None).collect() }
    }

    /// Admit a job: a keyed job routes to its stream's shard on the
    /// consistent-hash ring, a key-less one to the shortest queue. `Ok`
    /// means its shard will answer it; an error means nothing was queued.
    pub fn submit(&self, job: ShardJob) -> Result<(), SubmitError> {
        let shard = match job.stream {
            Some(stream) => self.inner.ring.owner(stream).unwrap_or(0),
            None => {
                let q = self.inner.lock();
                (0..q.jobs.len()).min_by_key(|&s| (q.jobs[s].len(), s)).unwrap_or(0)
            }
        };
        self.inner.push(shard, job, Some(self.inner.cfg.queue))
    }

    /// Queue a job on `shard`, uncapped: the supervisor bounds what it
    /// has in flight. A job queued on a dead shard is never answered.
    pub fn submit_to(&self, shard: usize, job: ShardJob) -> Result<(), SubmitError> {
        self.inner.push(shard, job, None)
    }

    /// Start `shard`'s thread, with fresh warm state: the first one, or
    /// one replacing a thread that reported its death (it would block on
    /// a live one). Jobs queued for the dead thread are dropped: their
    /// sender replays them.
    pub fn respawn(&mut self, shard: usize) {
        if let Some(dead) = self.threads[shard].take() {
            let _ = dead.join();
        }
        self.inner.lock().jobs[shard].clear();
        self.inner.depth[shard].set(0.0);
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name(format!("aa-shard-{shard}"))
            .spawn(move || shard_thread(&inner, shard))
            .expect("spawn shard thread");
        self.threads[shard] = Some(thread);
    }

    /// Stop admitting, let every live shard answer what it has queued,
    /// and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.inner.lock().shutting_down = true;
        for wake in &self.inner.wake {
            wake.notify_one();
        }
        for t in self.threads.iter_mut().filter_map(Option::take) {
            let _ = t.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Reports a shard thread's death by panic to the pool's [`ExitFn`].
struct ExitGuard<'a> {
    inner: &'a PoolInner,
    shard: usize,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if let (true, Some(exited)) = (std::thread::panicking(), &self.inner.exited) {
            exited(self.shard);
        }
    }
}

/// One shard's thread: answer its queue in order until shutdown empties
/// it. A panic outside the caught solve unwinds out of here.
fn shard_thread(inner: &PoolInner, shard: usize) {
    let _exit = ExitGuard { inner, shard };
    let mut streams = StreamSolver::new(inner.cfg.ladder.clone(), inner.cfg.max_streams);
    while let Some(job) = inner.next_job(shard) {
        let waited = job.arrived.elapsed();
        let (outcome, solve_micros, span) = {
            let root = SpanGuard::enter("fleet_solve");
            let (outcome, micros) =
                streams.answer(job.stream, &*job.build, job.deadline, job.fuel, job.inject_panic);
            (outcome, micros, root.id())
        };
        (inner.complete)(ShardCompletion {
            seq: job.seq,
            stream: job.stream,
            shard,
            waited_micros: waited.as_micros() as u64,
            solve_micros,
            span,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

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
            (streams.warm[&Some(s)].state.last_stats().mode, solved.utility.to_bits())
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
        let cfg = ShardConfig { shards: 3, queue: 64, ..ShardConfig::default() };
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
        let ring = Ring::new(4);
        for seq in 0..32u64 {
            let key = seq % 16;
            let job = ShardJob::new(seq, Some(key), mixed_problem(2, 5, key), None);
            assert!(wait_until(Duration::from_secs(10), || pool
                .submit(job.clone())
                .is_ok()));
        }
        pool.shutdown();
        for c in sink.take() {
            let key = c.stream.unwrap();
            assert_eq!(Some(c.shard), ring.owner(key), "stream {key} solved off-route");
        }
    }

    #[test]
    fn contained_solve_panic_answers_structured_and_keeps_the_worker() {
        let registry = Registry::new();
        let sink = Collected::new();
        let cfg = ShardConfig { shards: 1, queue: 64, ..ShardConfig::default() };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        for seq in 0..5u64 {
            let mut job = ShardJob::new(seq, Some(1), mixed_problem(2, 5, 0), None);
            if seq == 1 {
                job.inject_panic = Some("injected".to_string());
            }
            assert!(pool.submit(job).is_ok());
        }
        assert!(wait_until(Duration::from_secs(10), || sink.len() == 5));
        pool.shutdown();
        // The panic was contained: the same thread answered every job,
        // the ones after the panic included.
        assert_eq!(
            answers(&sink),
            (0..5)
                .map(|s| (s, if s == 1 { "Solve(Panicked(\"injected\"))" } else { "Ok" }.into()))
                .collect::<Vec<(u64, String)>>()
        );
    }

    #[test]
    fn a_dead_shard_reports_its_exit_and_respawns_with_fresh_state() {
        with_quiet_panics(|| {
            let registry = Registry::new();
            let sink = Collected::new();
            let (tx, rx) = std::sync::mpsc::channel();
            let exited: ExitFn = Arc::new(move |shard| {
                let _ = tx.send(shard);
            });
            let cfg = ShardConfig { shards: 2, queue: 8, ..ShardConfig::default() };
            let mut pool = ShardPool::supervised(cfg, &registry, sink.hook(), exited);
            (0..2).for_each(|shard| pool.respawn(shard));
            let die: BuildFn = Arc::new(|_| panic!("killed outside the solve"));
            pool.submit_to(1, hooked(0, Some(4), &die, None)).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
            assert_eq!(sink.len(), 0, "a dead shard answers nothing");
            // Queued for the dead thread: dropped by the respawn.
            pool.submit_to(1, ShardJob::new(1, Some(4), mixed_problem(2, 5, 0), None)).unwrap();
            pool.respawn(1);
            pool.submit_to(1, ShardJob::new(2, Some(4), mixed_problem(2, 5, 0), None)).unwrap();
            assert!(wait_until(Duration::from_secs(10), || sink.len() == 1));
            pool.shutdown();
            assert_eq!(answers(&sink), vec![(2, "Ok".to_string())]);
            assert!(rx.try_recv().is_err(), "a clean shutdown is not a death");
        });
    }

    #[test]
    fn full_queue_sheds_at_submit_time() {
        let registry = Registry::new();
        let sink = Collected::new();
        let cfg = ShardConfig { shards: 1, queue: 2, ..ShardConfig::default() };
        let pool = ShardPool::new(cfg, &registry, sink.hook());
        // Slow every build so the queue cannot drain while we fill it.
        let slow: BuildFn = Arc::new(|_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok((mixed_problem(2, 5, 0), None))
        });
        let mut shed = 0;
        for seq in 0..16u64 {
            match pool.submit(hooked(seq, Some(3), &slow, None)) {
                Ok(()) => {}
                Err(SubmitError::QueueFull { shard: 0 }) => shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(shed > 0, "a 2-deep queue never filled under a slow shard");
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
        ShardJob {
            seq,
            stream,
            build: Arc::clone(build),
            deadline,
            arrived: Instant::now(),
            inject_panic: None,
            fuel: None,
        }
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
                .map(|(i, spec)| spec.build_reusing(previous.threads.get(i)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ("problem", e.to_string()))?;
            hook_built.lock().unwrap().push(threads.clone());
            let problem = Problem::new(2, 12.0, threads).map_err(|e| ("problem", e.to_string()))?;
            Ok((problem, None))
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
            Ok((mixed_problem(2, 5, 0), None))
        });
        let c = answer_one(&pool, &sink, hooked(0, None, &slow, Some(Instant::now() + budget)));
        pool.shutdown();
        assert!(c.outcome.is_ok(), "{:?}", c.outcome);
    }
}
