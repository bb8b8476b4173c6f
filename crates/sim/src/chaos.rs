//! Deterministic chaos harnesses for the shard pool and the process fleet.
//!
//! Mirrors the scripted-churn approach of [`crate::faults`], but the
//! target is the *serving tier* rather than the cluster model: a seeded
//! [`ChaosPlan`] schedules worker kills, contained solve panics, and
//! stalls against an [`aa_core::ShardPool`], keyed on each shard's solve
//! sequence number so the same plan produces the same faults regardless
//! of thread interleaving.
//!
//! [`run_chaos`] drives the pool through the plan with closed-loop
//! request rounds (one request per stream per round, then await the
//! round's completions) and produces a [`ChaosReport`] asserting the
//! pool's core robustness invariants:
//!
//! * **liveness** — the pool survives every kill; each shard restarts at
//!   least as many times as it was killed;
//! * **exactly-once** — every admitted request gets exactly one
//!   completion: no losses, no duplicates;
//! * **warm recovery** — for each disrupted stream, the trailing-window
//!   p99 of warm solve latency returns to within
//!   [`RECOVERY_FACTOR`]× its pre-kill value within
//!   [`RECOVERY_WINDOW_REQUESTS`] requests of the restart (the first
//!   post-restart solve is a cold warm-state rebuild and is left out,
//!   as the stream's cold first solve is before the kill).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aa_core::shard::{
    ChaosHook, CompletionFn, FaultAction, ShardCompletion, ShardConfig, ShardError, ShardJob,
    ShardPool,
};
use aa_core::tiered::Tier;
use aa_core::{Problem, SolveError};
use aa_obs::Registry;
use aa_utility::{DynUtility, LogUtility, Power};
use serde::{Deserialize, Serialize};

/// Recovery target: post-restart trailing p99 must come back within this
/// factor of the pre-kill p99.
pub const RECOVERY_FACTOR: f64 = 2.0;

/// Recovery must happen within this many post-restart requests on the
/// affected stream.
pub const RECOVERY_WINDOW_REQUESTS: usize = 50;

/// Trailing-window width (in requests) for the recovery p99.
const TRAIL: usize = 16;

/// Floor applied to the pre-kill p99 before scaling by
/// [`RECOVERY_FACTOR`]: warm identical-mode solves run in tens of
/// microseconds, below scheduler-jitter granularity on a loaded box, so
/// comparing raw 2× at that scale flakes. The invariant's target — a
/// stream stuck on the cold path (hundreds of microseconds per solve)
/// — still clears this floor by a wide margin.
pub const RECOVERY_FLOOR_MICROS: u64 = 100;

/// Configuration for [`run_chaos`].
#[derive(Debug, Clone, Serialize)]
pub struct ChaosConfig {
    /// Worker shards in the pool.
    pub shards: usize,
    /// Streams pinned to each shard (keys are found by probing the ring).
    pub streams_per_shard: usize,
    /// Closed-loop rounds; each round submits one request per stream.
    pub rounds: usize,
    /// Times each shard is killed over the run.
    pub kills_per_shard: usize,
    /// Inject a contained solve panic every N-th solve on each shard.
    pub panic_every: Option<u64>,
    /// Stall every N-th solve on each shard by [`ChaosConfig::stall`].
    pub stall_every: Option<u64>,
    /// Stall duration for scheduled stalls, in microseconds.
    pub stall_micros: u64,
    /// Seed for problem generation and restart jitter.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            shards: 4,
            streams_per_shard: 2,
            rounds: 100,
            kills_per_shard: 3,
            panic_every: Some(61),
            stall_every: Some(97),
            stall_micros: 1000,
            seed: 2016,
        }
    }
}

/// The deterministic fault schedule derived from a [`ChaosConfig`]:
/// per-shard solve-sequence numbers at which the worker is killed.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosPlan {
    /// `kill_seqs[s]` — solve sequence numbers that kill shard `s`.
    pub kill_seqs: Vec<Vec<u64>>,
    /// Contained-panic period, if any.
    pub panic_every: Option<u64>,
    /// Stall period, if any.
    pub stall_every: Option<u64>,
    /// Stall duration in microseconds.
    pub stall_micros: u64,
}

impl ChaosPlan {
    /// Derive the kill schedule: kills are spread evenly across each
    /// shard's expected solve count (`streams_per_shard × rounds`), so a
    /// shard is killed mid-traffic with warm streams on both sides.
    pub fn from_config(cfg: &ChaosConfig) -> Self {
        let expected = (cfg.streams_per_shard * cfg.rounds) as u64;
        let kills = cfg.kills_per_shard as u64;
        let kill_seqs = (0..cfg.shards)
            .map(|s| {
                (1..=kills)
                    .map(|k| {
                        // Offset per shard so kills don't align across
                        // shards (a storm, not a synchronized blackout).
                        (expected * k / (kills + 1)).saturating_add(s as u64) .max(2)
                    })
                    .collect()
            })
            .collect();
        ChaosPlan {
            kill_seqs,
            panic_every: cfg.panic_every,
            stall_every: cfg.stall_every,
            stall_micros: cfg.stall_micros,
        }
    }

    /// The plan as a [`ChaosHook`] for [`ShardConfig::chaos`].
    pub fn hook(&self) -> ChaosHook {
        let plan = self.clone();
        Arc::new(move |shard, seq| {
            if plan.kill_seqs.get(shard).is_some_and(|ks| ks.contains(&seq)) {
                return FaultAction::KillShard;
            }
            if plan.panic_every.is_some_and(|p| p > 0 && seq % p == 0) {
                return FaultAction::PanicSolve;
            }
            if plan.stall_every.is_some_and(|p| p > 0 && seq % p == 0) {
                return FaultAction::Stall(Duration::from_micros(plan.stall_micros));
            }
            FaultAction::None
        })
    }
}

/// Post-kill latency recovery on one disrupted stream.
#[derive(Debug, Clone, Serialize)]
pub struct StreamRecovery {
    /// The stream key.
    pub stream: u64,
    /// The shard the stream routes to.
    pub shard: usize,
    /// p99 of warm solve latency before the first disruption (µs).
    pub pre_kill_p99_micros: u64,
    /// Requests after the post-restart rebuild until the trailing-window
    /// p99 fell back within [`RECOVERY_FACTOR`]× pre-kill; `None` if it
    /// never did within the post-disruption tail.
    pub recovered_after: Option<usize>,
    /// Whether recovery happened within [`RECOVERY_WINDOW_REQUESTS`].
    pub recovered: bool,
}

/// Everything [`run_chaos`] observed, serializable as the CI artifact.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// The config that produced this report.
    pub config: ChaosConfig,
    /// The derived kill schedule.
    pub plan: ChaosPlan,
    /// Requests admitted by the pool (submit returned `Ok`).
    pub admitted: usize,
    /// Completions delivered.
    pub completed: usize,
    /// Sequence numbers answered more than once (must be empty).
    pub duplicate_seqs: Vec<u64>,
    /// Admitted sequence numbers never answered (must be empty).
    pub missing_seqs: Vec<u64>,
    /// Requests answered with a solve.
    pub ok: usize,
    /// Requests answered `Crashed` (in flight when a shard died).
    pub crashed: usize,
    /// Requests answered `Drained` (queued on a shard that died).
    pub drained: usize,
    /// Requests answered with a contained solve panic.
    pub solve_panics: usize,
    /// Restart count per shard after the run.
    pub restarts: Vec<u32>,
    /// Shards still live (breaker closed) after the run.
    pub live_shards: usize,
    /// Per-stream recovery measurements for disrupted streams.
    pub recoveries: Vec<StreamRecovery>,
    /// True iff no losses and no duplicates.
    pub exactly_once: bool,
    /// True iff the pool answered the final round after every kill —
    /// i.e. the serve tier never exited.
    pub survived: bool,
    /// Wall-clock duration of the run (µs).
    pub elapsed_micros: u64,
}

impl ChaosReport {
    /// All robustness invariants at once; the chaos-smoke CI gate.
    pub fn healthy(&self) -> bool {
        self.survived
            && self.exactly_once
            && self.live_shards == self.config.shards
            && self
                .restarts
                .iter()
                .all(|&r| r as usize >= self.config.kills_per_shard)
            && self.recoveries.iter().all(|r| r.recovered)
            && !self.recoveries.is_empty()
    }
}

/// Collects completions and lets the driver await a target count.
struct Sink {
    completions: Mutex<Vec<ShardCompletion>>,
    arrived: Condvar,
    count: AtomicUsize,
}

impl Sink {
    fn new() -> Arc<Self> {
        Arc::new(Sink {
            completions: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            count: AtomicUsize::new(0),
        })
    }

    fn hook(self: &Arc<Self>) -> CompletionFn {
        let me = Arc::clone(self);
        Arc::new(move |c| {
            let mut g = me.completions.lock().unwrap_or_else(|e| e.into_inner());
            g.push(c);
            me.count.store(g.len(), Ordering::Release);
            drop(g);
            me.arrived.notify_all();
        })
    }

    /// Wait until `target` completions have arrived; false on timeout.
    fn await_count(&self, target: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        while g.len() < target {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .arrived
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
        true
    }

    fn take(&self) -> Vec<ShardCompletion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A small concave workload for stream `key`: identical across a
/// stream's requests, so the warm path settles on `SolveMode::Identical`
/// and the post-restart cold rebuild is the visible latency spike.
fn stream_problem(key: u64, seed: u64) -> Problem {
    let n = 18 + (key % 5) as usize;
    Problem::builder(3, 12.0)
        .threads((0..n).map(|i| {
            let s = 1.0 + ((i as u64 * 7 + key * 3 + seed) % 11) as f64 * 0.5;
            if i % 2 == 0 {
                Arc::new(Power::new(s, 0.5, 12.0)) as DynUtility
            } else {
                Arc::new(LogUtility::new(s, 0.9, 12.0)) as DynUtility
            }
        }))
        .build()
        .expect("stream problem is well-formed")
}

/// Stream keys, in key order, that pin `per` streams to each of
/// `members` shards or workers on the consistent-hash ring both serving
/// modes route by.
pub fn balanced_keys(members: usize, per: usize) -> Vec<u64> {
    let ring = aa_core::Ring::new(members);
    let mut need = vec![per; members];
    let mut keys = Vec::with_capacity(members * per);
    for key in 0u64.. {
        if keys.len() == members * per {
            break;
        }
        assert!(key < 1_000_000, "ring probe failed to cover every member");
        if let Some(m) = ring.owner(key).filter(|&m| need[m] > 0) {
            need[m] -= 1;
            keys.push(key);
        }
    }
    keys
}

fn p99(sorted_or_not: &[u64]) -> u64 {
    assert!(!sorted_or_not.is_empty());
    let mut v = sorted_or_not.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64) * 0.99).ceil() as usize;
    v[idx.saturating_sub(1).min(v.len() - 1)]
}

/// The exactly-once fold both chaos verdicts use: seqs answered more
/// than once, and admitted seqs never answered (both sorted).
fn exactly_once_fold(
    admitted: impl IntoIterator<Item = u64>,
    answered: impl IntoIterator<Item = u64>,
) -> (Vec<u64>, Vec<u64>) {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for seq in answered {
        *counts.entry(seq).or_default() += 1;
    }
    let mut duplicates: Vec<u64> =
        counts.iter().filter(|&(_, &n)| n > 1).map(|(&s, _)| s).collect();
    duplicates.sort_unstable();
    let mut missing: Vec<u64> =
        admitted.into_iter().filter(|s| !counts.contains_key(s)).collect();
    missing.sort_unstable();
    (duplicates, missing)
}

/// One disrupted stream's warm-latency recovery, as [`recovery`] measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Recovery {
    /// p99 of the warm solves before the first disruption (µs, ≥ 1).
    pre_p99: u64,
    /// Post-rebuild requests until the trailing-window p99 fell back
    /// within bound; `None` if it never did.
    recovered_after: Option<usize>,
}

impl Recovery {
    fn recovered(&self) -> bool {
        self.recovered_after.is_some_and(|n| n <= RECOVERY_WINDOW_REQUESTS)
    }
}

/// The trailing-p99 recovery criterion both chaos verdicts use. `series`
/// is one stream's answers, in any order: `(seq, disruption, solve µs if
/// solved)`; it is sorted by seq (submission order) here. Each side
/// drops one cold solve: before the first disruption, the stream's first
/// solve; after the last, the warm-state rebuild on the restarted
/// executor (a stream warm again by its second request is recovered, not
/// held up by that one spike for a whole [`TRAIL`]). `None` when either
/// side has fewer than 8 solves to measure.
fn recovery(series: &mut [(u64, bool, Option<u64>)]) -> Option<Recovery> {
    series.sort_unstable_by_key(|&(seq, _, _)| seq);
    let first = series.iter().position(|&(_, hit, _)| hit)?;
    let last = series.iter().rposition(|&(_, hit, _)| hit)?;
    let solved = |part: &[(u64, bool, Option<u64>)]| -> Vec<u64> {
        part.iter().filter_map(|&(_, _, us)| us).skip(1).collect()
    };
    let (pre, post) = (solved(&series[..first]), solved(&series[last + 1..]));
    if pre.len() < 8 || post.len() < 8 {
        return None;
    }
    let pre_p99 = p99(&pre).max(1);
    let bound = (pre_p99.max(RECOVERY_FLOOR_MICROS) as f64) * RECOVERY_FACTOR;
    let recovered_after = (0..post.len())
        .find(|&i| (p99(&post[(i + 1).saturating_sub(TRAIL)..=i]) as f64) <= bound)
        .map(|i| i + 1);
    Some(Recovery { pre_p99, recovered_after })
}

/// Run the seeded chaos script against a real shard pool and measure the
/// robustness invariants. Deterministic in its fault *schedule* (which
/// shard dies on which solve); timings naturally vary.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let plan = ChaosPlan::from_config(cfg);
    let registry = Registry::new();
    let sink = Sink::new();
    // Quiet the default panic printer: shard kills are scheduled here,
    // and a chaos run would otherwise spew dozens of backtraces.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pool = ShardPool::new(
        ShardConfig {
            shards: cfg.shards,
            queue: (cfg.streams_per_shard * 2).max(16),
            // Kills must never trip the breaker in this harness; the
            // breaker path has its own tests.
            max_restarts: (cfg.kills_per_shard as u32 + 2).max(8),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            seed: cfg.seed,
            ladder: Some(vec![Tier::Algo2, Tier::Uu]),
            chaos: Some(plan.hook()),
            ..ShardConfig::default()
        },
        &registry,
        sink.hook(),
    );

    let keys = balanced_keys(pool.shard_count(), cfg.streams_per_shard);
    let shard_of: HashMap<u64, usize> =
        keys.iter().map(|&k| (k, pool.route(k).expect("live shard"))).collect();
    let problems: HashMap<u64, Problem> =
        keys.iter().map(|&k| (k, stream_problem(k, cfg.seed))).collect();

    let started = Instant::now();
    let mut admitted: Vec<u64> = Vec::new();
    let mut seq = 0u64;
    let mut lost_round = false;
    for _round in 0..cfg.rounds {
        let before = admitted.len();
        for &key in &keys {
            // Closed-loop: a transiently full queue (kill storm backlog)
            // drains within the round timeout.
            let wait_deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match pool.submit(ShardJob::new(seq, Some(key), problems[&key].clone(), None)) {
                    Ok(()) => {
                        admitted.push(seq);
                        break;
                    }
                    Err(aa_core::SubmitError::QueueFull { .. })
                        if Instant::now() < wait_deadline =>
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("chaos harness submit failed: {e}"),
                }
            }
            seq += 1;
        }
        let target = before + keys.len();
        if !sink.await_count(target, Duration::from_secs(30)) {
            lost_round = true;
            break;
        }
    }
    // The pool survived iff every admitted request of every round —
    // including rounds straddling kills — was answered.
    let survived = !lost_round;
    let restarts = pool.restarts();
    let live_shards = pool.live_shards();
    pool.shutdown();
    std::panic::set_hook(prev_hook);
    let elapsed = started.elapsed();

    let completions = sink.take();
    let (duplicate_seqs, missing_seqs) =
        exactly_once_fold(admitted.iter().copied(), completions.iter().map(|c| c.seq));

    let mut ok = 0;
    let mut crashed = 0;
    let mut drained = 0;
    let mut solve_panics = 0;
    for c in &completions {
        match &c.outcome {
            Ok(_) => ok += 1,
            Err(ShardError::Crashed) => crashed += 1,
            Err(ShardError::Drained) => drained += 1,
            Err(ShardError::Solve(SolveError::Panicked(_))) => solve_panics += 1,
            Err(_) => {}
        }
    }

    // Per-stream latency series; a failed answer marks a disruption.
    let mut by_stream: HashMap<u64, Vec<(u64, bool, Option<u64>)>> = HashMap::new();
    for c in &completions {
        if let Some(s) = c.stream {
            let us = c.outcome.is_ok().then_some(c.solve_micros);
            by_stream.entry(s).or_default().push((c.seq, us.is_none(), us));
        }
    }
    let mut recoveries = Vec::new();
    for (&stream, series) in &mut by_stream {
        if let Some(r) = recovery(series) {
            recoveries.push(StreamRecovery {
                stream,
                shard: shard_of[&stream],
                pre_kill_p99_micros: r.pre_p99,
                recovered_after: r.recovered_after,
                recovered: r.recovered(),
            });
        }
    }
    recoveries.sort_by_key(|r| r.stream);

    let exactly_once = duplicate_seqs.is_empty() && missing_seqs.is_empty();
    ChaosReport {
        config: cfg.clone(),
        plan,
        admitted: admitted.len(),
        completed: completions.len(),
        duplicate_seqs,
        missing_seqs,
        ok,
        crashed,
        drained,
        solve_panics,
        restarts,
        live_shards,
        recoveries,
        exactly_once,
        survived,
        elapsed_micros: elapsed.as_micros() as u64,
    }
}

/// A process-level fault a fleet worker injects against itself, keyed on
/// the worker's cumulative solve sequence number (1-based, persisting
/// across restarts via the front-end's replayed offset) so a storm
/// replays deterministically regardless of pipe and scheduler timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProcessFault {
    /// Exit immediately mid-solve, as if SIGKILLed.
    Kill,
    /// Stop answering heartbeats (while still holding the pipe open) for
    /// this long; a duration past the front-end's heartbeat tolerance
    /// gets the process killed and restarted from outside.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Write a truncated garbage frame on stdout and exit: the framing
    /// violation must be treated exactly like a crash.
    Garbage,
}

/// The deterministic process-fault schedule for a fleet: per worker, the
/// `(solve_seq, fault)` pairs at which that worker misbehaves.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProcessChaosPlan {
    /// `faults[w]` — this worker's schedule, strictly increasing in seq.
    pub faults: Vec<Vec<(u64, ProcessFault)>>,
}

impl ProcessChaosPlan {
    /// Derive the storm: kills, then stalls, then garbage faults are
    /// dealt round-robin over workers, and each worker's faults are
    /// spread evenly across its expected solve count
    /// (`streams_per_worker × rounds`) so it dies mid-traffic with warm
    /// streams on both sides — the same spreading as the in-process
    /// [`ChaosPlan`].
    pub fn from_config(cfg: &FleetChaosConfig) -> Self {
        let mut kinds: Vec<Vec<ProcessFault>> = vec![Vec::new(); cfg.workers];
        let storm = std::iter::repeat_n(ProcessFault::Kill, cfg.kills)
            .chain(std::iter::repeat_n(
                ProcessFault::Stall { millis: cfg.stall_millis },
                cfg.stalls,
            ))
            .chain(std::iter::repeat_n(ProcessFault::Garbage, cfg.garbage));
        for (i, fault) in storm.enumerate() {
            kinds[i % cfg.workers.max(1)].push(fault);
        }
        let expected = (cfg.streams_per_worker * cfg.rounds) as u64;
        let faults = kinds
            .into_iter()
            .enumerate()
            .map(|(w, fs)| {
                let count = fs.len() as u64;
                let mut last = 0u64;
                fs.into_iter()
                    .enumerate()
                    .map(|(j, fault)| {
                        let seq = (expected * (j as u64 + 1) / (count + 1))
                            .saturating_add(w as u64)
                            .max(2)
                            .max(last + 1);
                        last = seq;
                        (seq, fault)
                    })
                    .collect()
            })
            .collect();
        ProcessChaosPlan { faults }
    }

    /// Total scheduled faults across the fleet.
    pub fn total(&self) -> usize {
        self.faults.iter().map(|f| f.len()).sum()
    }
}

/// Configuration for a fleet chaos run (the multi-process analogue of
/// [`ChaosConfig`], driven by the CLI's `chaos --fleet` mode).
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosConfig {
    /// Worker processes in the fleet.
    pub workers: usize,
    /// Streams pinned to each worker (keys found by probing the ring).
    pub streams_per_worker: usize,
    /// Closed-loop rounds; each round submits one request per stream.
    pub rounds: usize,
    /// Scheduled worker kills across the fleet.
    pub kills: usize,
    /// Scheduled heartbeat stalls across the fleet.
    pub stalls: usize,
    /// Scheduled garbage-frame faults across the fleet.
    pub garbage: usize,
    /// Stall duration in milliseconds (must exceed the front-end's
    /// heartbeat tolerance to register as a fault at all).
    pub stall_millis: u64,
    /// End-to-end p99 latency objective the front-end's SLO layer runs
    /// against during the storm, microseconds.
    pub slo_p99_micros: u64,
    /// Seed for problem generation.
    pub seed: u64,
}

impl Default for FleetChaosConfig {
    fn default() -> Self {
        FleetChaosConfig {
            workers: 4,
            streams_per_worker: 2,
            rounds: 100,
            kills: 3,
            stalls: 1,
            garbage: 0,
            stall_millis: 2000,
            slo_p99_micros: 100_000,
            seed: 2016,
        }
    }
}

/// One completed request as the fleet front-end observed it.
#[derive(Debug, Clone)]
pub struct FleetObservation {
    /// Request sequence number (admission order, dense from 0).
    pub seq: u64,
    /// The stream the request was keyed on.
    pub stream: u64,
    /// Whether a worker solved it.
    pub ok: bool,
    /// Error class for non-ok answers (empty for ok).
    pub class: String,
    /// Bit pattern of the solved utility (0 for non-ok) — compared
    /// against the single-process reference for bit-identity.
    pub utility_bits: u64,
    /// Dispatch attempts the request took (>1 means it was replayed).
    pub attempts: u32,
    /// Worker-side solve latency in microseconds.
    pub solve_micros: u64,
}

/// Everything the chaos driver hands to [`analyze_fleet`].
#[derive(Debug, Clone)]
pub struct FleetObservations {
    /// Requests admitted (seqs are dense `0..admitted`).
    pub admitted: u64,
    /// Completions, in whatever order they arrived.
    pub completions: Vec<FleetObservation>,
    /// Restart count per worker after the run.
    pub restarts: Vec<u64>,
    /// Whether every round completed (the front-end never wedged).
    pub survived: bool,
    /// Whether every stream routed to its ring owner again after the
    /// storm ended and the fleet went quiescent.
    pub rebalanced: bool,
    /// Completions the front-end's SLO burn-rate tracker observed
    /// (`aa_slo_good_total + aa_slo_breach_total` after the run).
    pub slo_tracked: u64,
    /// `stream -> utility bits` from the single-process reference solve.
    pub reference_bits: HashMap<u64, u64>,
}

/// The fleet chaos verdict. Every field is a deterministic function of
/// the seed and schedule — no wall-clock timings — so two runs with the
/// same config serialize to byte-identical JSON, which is exactly what
/// the CI gate diffs.
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosReport {
    /// The config that produced this report.
    pub config: FleetChaosConfig,
    /// The derived fault schedule.
    pub plan: ProcessChaosPlan,
    /// Requests admitted.
    pub admitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Seqs answered more than once (must be empty).
    pub duplicate_seqs: Vec<u64>,
    /// Admitted seqs never answered (must be empty).
    pub missing_seqs: Vec<u64>,
    /// Requests answered with a solve.
    pub ok: u64,
    /// Requests answered with a front-end internal error.
    pub internal: u64,
    /// Restart count per worker.
    pub restarts: Vec<u64>,
    /// No losses, no duplicates.
    pub exactly_once: bool,
    /// The front-end answered every round through the whole storm.
    pub survived: bool,
    /// Every worker restarted at least as many times as it had faults
    /// scheduled.
    pub restarted_on_schedule: bool,
    /// Every stream routed back to its ring owner post-recovery.
    pub rebalanced: bool,
    /// Every solved utility is bit-identical to the single-process
    /// reference for its stream.
    pub outputs_identical: bool,
    /// Streams whose ring owner had at least one scheduled fault.
    pub disrupted_streams: usize,
    /// Disrupted streams measurable for recovery whose trailing-window
    /// p99 never returned within [`RECOVERY_FACTOR`]× pre-fault p99
    /// inside [`RECOVERY_WINDOW_REQUESTS`] requests.
    pub unrecovered_streams: usize,
    /// `unrecovered_streams == 0`.
    pub all_recovered: bool,
    /// The SLO objective the front-end ran against, microseconds.
    pub slo_target_p99_micros: u64,
    /// Completions the SLO burn-rate tracker observed.
    pub slo_tracked: u64,
    /// Every delivered completion was SLO-tracked: the observability
    /// layer lost nothing through the storm.
    pub slo_complete: bool,
}

impl FleetChaosReport {
    /// All fleet robustness invariants at once; the fleet-smoke CI gate.
    pub fn healthy(&self) -> bool {
        self.survived
            && self.exactly_once
            && self.admitted == self.completed
            && self.ok == self.admitted
            && self.internal == 0
            && self.restarted_on_schedule
            && self.rebalanced
            && self.outputs_identical
            && self.all_recovered
            && self.disrupted_streams > 0
            && self.slo_complete
    }
}

/// Pure analysis of a fleet chaos run: fold the driver's observations
/// into the deterministic [`FleetChaosReport`]. Separated from the
/// process-driving harness (which lives in the CLI crate, next to the
/// spawning code) so the verdict logic is unit-testable on synthetic
/// observations.
pub fn analyze_fleet(
    cfg: &FleetChaosConfig,
    plan: &ProcessChaosPlan,
    obs: &FleetObservations,
) -> FleetChaosReport {
    let (duplicate_seqs, missing_seqs) =
        exactly_once_fold(0..obs.admitted, obs.completions.iter().map(|c| c.seq));

    let ok = obs.completions.iter().filter(|c| c.ok).count() as u64;
    let internal = obs.completions.len() as u64 - ok;
    let outputs_identical = obs.completions.iter().filter(|c| c.ok).all(|c| {
        obs.reference_bits.get(&c.stream) == Some(&c.utility_bits)
    });

    let restarted_on_schedule = plan
        .faults
        .iter()
        .enumerate()
        .all(|(w, fs)| obs.restarts.get(w).copied().unwrap_or(0) >= fs.len() as u64);

    // A stream is disrupted iff its ring owner had a fault scheduled:
    // pure geometry, so the count is identical across runs.
    let ring = aa_core::Ring::new(cfg.workers);
    let mut streams: Vec<u64> = obs.completions.iter().map(|c| c.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    let disrupted_streams = streams
        .iter()
        .filter(|&&s| {
            ring.owner(s)
                .is_some_and(|w| plan.faults.get(w).is_some_and(|fs| !fs.is_empty()))
        })
        .count();

    // Recovery: per stream, a replayed request (attempts > 1) marks a
    // disruption — the same trailing-p99 criterion as the in-process
    // harness. Only the derived count enters the report; raw latencies
    // never do.
    let mut by_stream: HashMap<u64, Vec<(u64, bool, Option<u64>)>> = HashMap::new();
    for c in obs.completions.iter().filter(|c| c.ok) {
        by_stream.entry(c.stream).or_default().push((c.seq, c.attempts > 1, Some(c.solve_micros)));
    }
    let unrecovered_streams =
        by_stream.values_mut().filter_map(|s| recovery(s)).filter(|r| !r.recovered()).count();

    let exactly_once = duplicate_seqs.is_empty() && missing_seqs.is_empty();
    FleetChaosReport {
        config: cfg.clone(),
        plan: plan.clone(),
        admitted: obs.admitted,
        completed: obs.completions.len() as u64,
        duplicate_seqs,
        missing_seqs,
        ok,
        internal,
        restarts: obs.restarts.clone(),
        exactly_once,
        survived: obs.survived,
        restarted_on_schedule,
        rebalanced: obs.rebalanced,
        outputs_identical,
        disrupted_streams,
        unrecovered_streams,
        all_recovered: unrecovered_streams == 0,
        slo_target_p99_micros: cfg.slo_p99_micros,
        slo_tracked: obs.slo_tracked,
        slo_complete: obs.slo_tracked == obs.completions.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plan_is_deterministic_and_kills_every_shard() {
        let cfg = ChaosConfig::default();
        let a = ChaosPlan::from_config(&cfg);
        let b = ChaosPlan::from_config(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.kill_seqs.len(), cfg.shards);
        for ks in &a.kill_seqs {
            assert_eq!(ks.len(), cfg.kills_per_shard);
            let expected = (cfg.streams_per_shard * cfg.rounds) as u64;
            assert!(ks.iter().all(|&s| s >= 2 && s < expected));
        }
    }

    #[test]
    fn chaos_storm_preserves_every_robustness_invariant() {
        let cfg = ChaosConfig {
            shards: 3,
            streams_per_shard: 2,
            rounds: 80,
            kills_per_shard: 3,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        assert!(report.survived, "serve loop exited during the storm");
        assert!(
            report.exactly_once,
            "lost {:?} / duplicated {:?}",
            report.missing_seqs, report.duplicate_seqs
        );
        assert_eq!(report.admitted, report.completed);
        for (s, &r) in report.restarts.iter().enumerate() {
            assert!(
                r as usize >= cfg.kills_per_shard,
                "shard {s} restarted {r} < {} kills",
                cfg.kills_per_shard
            );
        }
        assert_eq!(report.live_shards, cfg.shards, "a breaker tripped");
        assert!(report.crashed >= 1, "no kill landed on an in-flight job");
        assert!(report.solve_panics >= 1, "no contained panic was scheduled");
        assert!(!report.recoveries.is_empty(), "no disrupted stream measured");
        for r in &report.recoveries {
            assert!(
                r.recovered,
                "stream {} on shard {} never recovered (pre p99 {}µs, after {:?})",
                r.stream, r.shard, r.pre_kill_p99_micros, r.recovered_after
            );
        }
        assert!(report.healthy());
        // The report is the CI artifact; it must serialize.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"exactly_once\":true"), "{json}");
    }

    #[test]
    fn recovery_skips_the_post_restart_rebuild() {
        // A stream whose shard is killed once: a cold first solve, warm
        // solves, the crash answer, then the restarted shard's cold
        // warm-state rebuild (231 µs) and warm solves again — the shape
        // of the post-kill series `chaos --shards 2 --streams-per-shard 1
        // --rounds 40 --kills 2 --seed 7` recorded on a 2-vCPU box. Fewer
        // than TRAIL + 1 solves follow the kill, so a window that kept
        // the rebuild would never drop it.
        let pre = [412, 61, 58, 67, 55, 60, 59, 62, 57, 64, 58];
        let post = [231, 28, 36, 28, 33, 29, 31, 30, 27, 32, 28, 30];
        let series = |post: &[u64]| -> Vec<(u64, bool, Option<u64>)> {
            let answers = pre
                .iter()
                .map(|&us| (false, Some(us)))
                .chain([(true, None)])
                .chain(post.iter().map(|&us| (false, Some(us))));
            // Out of order on purpose: the criterion sorts by seq.
            let mut s: Vec<_> = answers.enumerate().map(|(i, (d, us))| (i as u64, d, us)).collect();
            s.reverse();
            s
        };
        let r = recovery(&mut series(&post)).expect("enough signal on both sides");
        assert_eq!(r, Recovery { pre_p99: 67, recovered_after: Some(1) });
        assert!(r.recovered());

        // A stream still slow after the rebuild is flagged.
        let slow = recovery(&mut series(&[231; 12])).expect("measurable");
        assert_eq!(slow.recovered_after, None);
        assert!(!slow.recovered());

        // Too few solves after the rebuild to judge: not measured.
        assert_eq!(recovery(&mut series(&post[..8])), None);
    }

    #[test]
    fn process_plan_is_deterministic_and_spreads_the_storm() {
        let cfg = FleetChaosConfig::default();
        let a = ProcessChaosPlan::from_config(&cfg);
        let b = ProcessChaosPlan::from_config(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), cfg.workers);
        assert_eq!(a.total(), cfg.kills + cfg.stalls + cfg.garbage);
        let expected = (cfg.streams_per_worker * cfg.rounds) as u64;
        for fs in &a.faults {
            for pair in fs.windows(2) {
                assert!(pair[0].0 < pair[1].0, "fault seqs not increasing: {fs:?}");
            }
            assert!(fs.iter().all(|&(s, _)| s >= 2 && s < expected));
        }
        // Faults round-trip through the wire format the worker CLI uses.
        let json = serde_json::to_string(&a.faults[0]).unwrap();
        let back: Vec<(u64, ProcessFault)> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a.faults[0]);
    }

    fn clean_observations(
        cfg: &FleetChaosConfig,
        plan: &ProcessChaosPlan,
    ) -> FleetObservations {
        // Synthetic run: 2 streams per worker, every request solved at a
        // flat 40µs except one replayed spike per disrupted stream.
        let ring = aa_core::Ring::new(cfg.workers);
        let mut keys = Vec::new();
        let mut per: Vec<usize> = vec![0; cfg.workers];
        let mut key = 0u64;
        while per.iter().any(|&n| n < cfg.streams_per_worker) {
            let w = ring.owner(key).unwrap();
            if per[w] < cfg.streams_per_worker {
                per[w] += 1;
                keys.push(key);
            }
            key += 1;
        }
        let mut completions = Vec::new();
        let mut seq = 0u64;
        for round in 0..cfg.rounds {
            for &stream in &keys {
                let owner = ring.owner(stream).unwrap();
                let disrupted = !plan.faults[owner].is_empty();
                let hit = disrupted && round == cfg.rounds / 2;
                completions.push(FleetObservation {
                    seq,
                    stream,
                    ok: true,
                    class: String::new(),
                    utility_bits: 0x4050_0000_0000_0000 + stream,
                    attempts: if hit { 2 } else { 1 },
                    solve_micros: if hit { 900 } else { 40 },
                });
                seq += 1;
            }
        }
        let reference_bits =
            keys.iter().map(|&k| (k, 0x4050_0000_0000_0000 + k)).collect();
        FleetObservations {
            admitted: seq,
            completions,
            restarts: plan.faults.iter().map(|f| f.len() as u64).collect(),
            survived: true,
            rebalanced: true,
            slo_tracked: seq,
            reference_bits,
        }
    }

    #[test]
    fn analyze_fleet_passes_a_clean_run_and_flags_each_violation() {
        let cfg = FleetChaosConfig { rounds: 60, ..FleetChaosConfig::default() };
        let plan = ProcessChaosPlan::from_config(&cfg);
        let obs = clean_observations(&cfg, &plan);
        let report = analyze_fleet(&cfg, &plan, &obs);
        assert!(report.exactly_once);
        assert!(report.outputs_identical);
        assert!(report.all_recovered);
        assert!(report.disrupted_streams > 0);
        assert!(report.slo_complete);
        assert_eq!(report.slo_target_p99_micros, cfg.slo_p99_micros);
        assert!(report.healthy(), "{report:?}");
        // The report is the CI artifact and the byte-diff target.
        let a = serde_json::to_string(&report).unwrap();
        let b = serde_json::to_string(&analyze_fleet(&cfg, &plan, &obs)).unwrap();
        assert_eq!(a, b);

        // Losing a completion breaks exactly-once.
        let mut lossy = obs.clone();
        lossy.completions.pop();
        let r = analyze_fleet(&cfg, &plan, &lossy);
        assert!(!r.exactly_once && !r.missing_seqs.is_empty() && !r.healthy());

        // Answering twice breaks exactly-once.
        let mut dup = obs.clone();
        let c = dup.completions[0].clone();
        dup.completions.push(c);
        let r = analyze_fleet(&cfg, &plan, &dup);
        assert_eq!(r.duplicate_seqs, vec![0]);
        assert!(!r.healthy());

        // A diverging utility breaks bit-identity.
        let mut skew = obs.clone();
        skew.completions[5].utility_bits ^= 1;
        assert!(!analyze_fleet(&cfg, &plan, &skew).outputs_identical);

        // A worker restarting fewer times than its schedule fails.
        let mut lazy = obs.clone();
        lazy.restarts[0] = 0;
        assert!(!analyze_fleet(&cfg, &plan, &lazy).restarted_on_schedule);

        // A completion the SLO layer never tracked breaks slo_complete.
        let mut untracked = obs.clone();
        untracked.slo_tracked -= 1;
        let r = analyze_fleet(&cfg, &plan, &untracked);
        assert!(!r.slo_complete && !r.healthy());

        // A disrupted stream pinned at 30× its pre-fault latency after
        // the replay marker never recovers.
        let mut slow = obs.clone();
        let victim = slow
            .completions
            .iter()
            .find(|c| c.attempts > 1)
            .map(|c| c.stream)
            .expect("clean run has a replayed request");
        let marker = slow
            .completions
            .iter()
            .rposition(|c| c.stream == victim && c.attempts > 1)
            .unwrap();
        let marker_seq = slow.completions[marker].seq;
        for c in &mut slow.completions {
            if c.stream == victim && c.seq > marker_seq {
                c.solve_micros = 30_000;
            }
        }
        let r = analyze_fleet(&cfg, &plan, &slow);
        assert_eq!(r.unrecovered_streams, 1);
        assert!(!r.all_recovered && !r.healthy());
    }
}
