//! Deterministic chaos schedules and verdicts for the serve supervisor.
//!
//! Mirrors the scripted-churn approach of [`crate::faults`], but the
//! target is the *serving tier* rather than the cluster model: a seeded
//! [`ProcessChaosPlan`] schedules faults against each supervised worker
//! — a shard thread or a worker process — keyed on the worker's
//! cumulative request count, so the same seed replays the same storm
//! regardless of thread, pipe and scheduler timing.
//!
//! The harness that drives a real supervisor through the plan lives in
//! the CLI crate, next to the supervisor ([`FleetObservations`] is what
//! it hands back); [`analyze_fleet`] folds those observations into the
//! deterministic [`FleetChaosReport`] asserting the robustness
//! invariants:
//!
//! * **liveness** — the supervisor answers every round through the
//!   storm, each worker restarts at least once per restarting fault, and
//!   every worker is live at the end;
//! * **exactly-once** — every admitted request gets exactly one answer:
//!   no losses, no duplicates;
//! * **warm recovery** — for each disrupted stream, the trailing-window
//!   p99 of warm solve latency returns to within [`RECOVERY_FACTOR`]×
//!   its pre-fault value within [`RECOVERY_WINDOW_REQUESTS`] requests of
//!   the last disruption (the first solve after it is a cold warm-state
//!   rebuild and is left out, as the stream's cold first solve is before
//!   the fault).

use std::collections::HashMap;

use aa_core::fleet::Link;
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

/// A fault a supervised worker injects against itself, keyed on the
/// worker's cumulative request count (1-based, persisting across
/// restarts via the supervisor's replayed offset) so a storm replays
/// deterministically regardless of thread, pipe and scheduler timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProcessFault {
    /// Die mid-request: a process exits as if SIGKILLed, a shard thread
    /// panics outside the caught solve.
    Kill,
    /// Stall this long before solving. A process also stops answering
    /// heartbeats (while still holding the pipe open), so a duration past
    /// the supervisor's heartbeat tolerance gets it killed and restarted
    /// from outside; a thread is not pinged and just runs late.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// A process writes a truncated garbage frame on stdout and exits:
    /// the framing violation must be treated exactly like a crash. A
    /// thread, with no frame to corrupt, dies as on a kill.
    Garbage,
    /// Panic inside the caught solve: the request is answered
    /// `class:"solve_panic"` and the worker keeps serving.
    PanicSolve,
}

impl ProcessFault {
    /// Whether the fault ends the worker, so the supervisor restarts it.
    pub fn restarts(self, link: Link) -> bool {
        match self {
            ProcessFault::Kill | ProcessFault::Garbage => true,
            ProcessFault::Stall { .. } => link == Link::Process,
            ProcessFault::PanicSolve => false,
        }
    }
}

/// The deterministic fault schedule for a supervised set of workers: per
/// worker, the `(request count, fault)` pairs at which it misbehaves.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProcessChaosPlan {
    /// `faults[w]` — this worker's schedule, strictly increasing in seq.
    pub faults: Vec<Vec<(u64, ProcessFault)>>,
}

impl ProcessChaosPlan {
    /// Derive the storm: kills, then stalls, then garbage faults, then
    /// contained panics are dealt round-robin over workers, and each
    /// worker's faults are spread evenly across its expected request
    /// count (`streams_per_worker × rounds`) so it dies mid-traffic with
    /// warm streams on both sides.
    pub fn from_config(cfg: &FleetChaosConfig) -> Self {
        let mut kinds: Vec<Vec<ProcessFault>> = vec![Vec::new(); cfg.workers];
        let storm = std::iter::repeat_n(ProcessFault::Kill, cfg.kills)
            .chain(std::iter::repeat_n(
                ProcessFault::Stall { millis: cfg.stall_millis },
                cfg.stalls,
            ))
            .chain(std::iter::repeat_n(ProcessFault::Garbage, cfg.garbage))
            .chain(std::iter::repeat_n(ProcessFault::PanicSolve, cfg.panics));
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

    /// Total scheduled faults across the workers.
    pub fn total(&self) -> usize {
        self.faults.iter().map(|f| f.len()).sum()
    }

    /// `worker`'s faults that end it on `link`, in schedule order.
    pub fn restarting(&self, worker: usize, link: Link) -> impl Iterator<Item = u64> + '_ {
        self.faults
            .get(worker)
            .into_iter()
            .flatten()
            .filter(move |(_, f)| f.restarts(link))
            .map(|&(seq, _)| seq)
    }
}

/// Configuration for a chaos run against the serve supervisor, over
/// either link (the CLI's `chaos --shards N` and `chaos --fleet`).
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosConfig {
    /// How the workers run.
    pub link: Link,
    /// Supervised workers (shard threads or processes).
    pub workers: usize,
    /// Streams pinned to each worker (keys found by probing the ring).
    pub streams_per_worker: usize,
    /// Closed-loop rounds; each round submits one request per stream.
    pub rounds: usize,
    /// Scheduled worker kills across the workers.
    pub kills: usize,
    /// Scheduled stalls across the workers.
    pub stalls: usize,
    /// Scheduled garbage-frame faults across the workers.
    pub garbage: usize,
    /// Scheduled contained solve panics across the workers.
    pub panics: usize,
    /// Stall duration in milliseconds (against processes it must exceed
    /// the supervisor's heartbeat tolerance to register as a fault).
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
            link: Link::Process,
            workers: 4,
            streams_per_worker: 2,
            rounds: 100,
            kills: 3,
            stalls: 1,
            garbage: 0,
            panics: 0,
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
    /// Workers live (not retired) once the storm was over.
    pub live: usize,
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
    /// Requests answered with a contained solve panic.
    pub solve_panics: u64,
    /// Requests answered with any other error.
    pub internal: u64,
    /// Restart count per worker.
    pub restarts: Vec<u64>,
    /// Workers live (not retired) once the storm was over.
    pub live: usize,
    /// No losses, no duplicates.
    pub exactly_once: bool,
    /// The front-end answered every round through the whole storm.
    pub survived: bool,
    /// Every worker restarted at least once per scheduled fault that
    /// ends it on this link.
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
    /// All robustness invariants at once; the CI chaos gate. Every
    /// request is solved except the scheduled contained panics, each of
    /// which answers exactly once.
    pub fn healthy(&self) -> bool {
        let panics = self.plan.faults.iter().flatten();
        let panics = panics.filter(|(_, f)| *f == ProcessFault::PanicSolve).count() as u64;
        self.survived
            && self.exactly_once
            && self.admitted == self.completed
            && self.ok + self.solve_panics == self.admitted
            && self.solve_panics == panics
            && self.internal == 0
            && self.live == self.config.workers
            && self.restarted_on_schedule
            && self.rebalanced
            && self.outputs_identical
            && self.all_recovered
            && self.disrupted_streams > 0
            && self.slo_complete
    }
}

/// Pure analysis of a chaos run: fold the harness's observations into the
/// deterministic [`FleetChaosReport`]. Separated from the harness (which
/// lives in the CLI crate, next to the supervisor) so the verdict logic
/// is unit-testable on synthetic observations.
pub fn analyze_fleet(
    cfg: &FleetChaosConfig,
    plan: &ProcessChaosPlan,
    obs: &FleetObservations,
) -> FleetChaosReport {
    // Exactly-once: seqs answered more than once, and admitted seqs
    // never answered (both sorted).
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for c in &obs.completions {
        *counts.entry(c.seq).or_default() += 1;
    }
    let mut duplicate_seqs: Vec<u64> =
        counts.iter().filter(|&(_, &n)| n > 1).map(|(&s, _)| s).collect();
    duplicate_seqs.sort_unstable();
    let missing_seqs: Vec<u64> = (0..obs.admitted).filter(|s| !counts.contains_key(s)).collect();

    let ok = obs.completions.iter().filter(|c| c.ok).count() as u64;
    let solve_panics = obs.completions.iter().filter(|c| c.class == "solve_panic").count() as u64;
    let internal = obs.completions.len() as u64 - ok - solve_panics;
    let outputs_identical = obs.completions.iter().filter(|c| c.ok).all(|c| {
        obs.reference_bits.get(&c.stream) == Some(&c.utility_bits)
    });

    let restarted_on_schedule = (0..plan.faults.len()).all(|w| {
        obs.restarts.get(w).copied().unwrap_or(0) >= plan.restarting(w, cfg.link).count() as u64
    });

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
    // disruption. Only the derived count enters the report; raw
    // latencies never do.
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
        solve_panics,
        internal,
        restarts: obs.restarts.clone(),
        live: obs.live,
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
        // The shard storm: every thread link killed 3 times, plus two
        // contained panics and two stalls each.
        let cfg = FleetChaosConfig {
            link: Link::Thread,
            kills: 12,
            panics: 8,
            stalls: 8,
            stall_millis: 1,
            ..FleetChaosConfig::default()
        };
        let a = ProcessChaosPlan::from_config(&cfg);
        assert_eq!(a, ProcessChaosPlan::from_config(&cfg));
        assert_eq!(a.faults.len(), cfg.workers);
        let expected = (cfg.streams_per_worker * cfg.rounds) as u64;
        for w in 0..cfg.workers {
            assert_eq!(a.restarting(w, Link::Thread).count(), 3, "worker {w}: {a:?}");
            // On a thread a stall only runs late; on a process it is a death.
            assert_eq!(a.restarting(w, Link::Process).count(), 5, "worker {w}: {a:?}");
            let panics = a.faults[w].iter().filter(|(_, f)| *f == ProcessFault::PanicSolve);
            assert_eq!(panics.count(), 2);
            assert!(a.faults[w].iter().all(|&(s, _)| s >= 2 && s < expected));
        }
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
        let keys = balanced_keys(cfg.workers, cfg.streams_per_worker);
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
            live: cfg.workers,
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

        // A worker retired by the end fails.
        let mut retired = obs.clone();
        retired.live -= 1;
        assert!(!analyze_fleet(&cfg, &plan, &retired).healthy());

        // A contained panic answers `solve_panic` and passes only when
        // scheduled: unscheduled here, it fails the gate.
        let mut panicked = obs.clone();
        panicked.completions[3].ok = false;
        panicked.completions[3].class = "solve_panic".to_string();
        let r = analyze_fleet(&cfg, &plan, &panicked);
        assert_eq!((r.ok + 1, r.solve_panics, r.internal), (r.admitted, 1, 0));
        assert!(!r.healthy());

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
