//! Supervisor building blocks shared by `aa serve` (its thread and
//! process links alike) and the hidden `serve-worker` mode.
//!
//! This module is deliberately transport-level and policy-free: it owns
//! the wire framing, the retry and respawn backoff math, the front-end's
//! exactly-once pending map, and the membership-aware stream router. The
//! links themselves (shard threads, worker processes, pipes, heartbeat
//! timers) live in the CLI crate; everything here is pure data structure
//! and therefore unit- and property-testable without threads or
//! processes.
//!
//! ## Framing
//!
//! Frames are length-prefixed LDJSON: a 4-byte big-endian payload length,
//! the payload bytes, then a single `\n` trailer. The trailer is
//! redundant with the length on a healthy peer — which is exactly the
//! point: a worker that writes garbage or dies mid-frame produces a
//! length/trailer mismatch ([`FrameError::BadTrailer`] /
//! [`FrameError::Truncated`]) that the front-end treats as a crash, never
//! as a plausible-but-wrong message.
//!
//! ## Exactly-once
//!
//! [`PendingMap`] holds every admitted request from admission until the
//! single completion that removes it. `complete` is the *only* way an
//! entry leaves the map with an answer, and it removes the entry in the
//! same operation — a second completion for the same seq finds nothing
//! and is counted as a duplicate instead of answered. Replay after a
//! worker death goes through [`PendingMap::take_assigned`], which moves
//! the dead worker's entries back to unassigned; a late completion from
//! the old incarnation can no longer match them once they have been
//! re-answered, and the front-end drops stale-incarnation frames before
//! they reach the map at all.
//!
//! ## Handoff
//!
//! [`FleetRouter`] layers per-stream stickiness on the consistent-hash
//! [`Ring`]: a stream with requests outstanding on worker `x` keeps
//! routing to `x` even after membership change moves its ring owner, and
//! *new* requests for that stream park until `x` drains — drain →
//! handoff → resume, at per-stream granularity. Warm state never needs to
//! move over the wire: the new owner cold-rebuilds on the first
//! post-handoff request, bit-identically by the warm-start contract.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;

use crate::ring::Ring;

/// How a supervised worker runs: a shard thread fed request values over
/// a channel, or a child process fed frames over pipes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// An in-process shard thread (`serve`, `serve --shards N`).
    Thread,
    /// A `serve-worker` child process (`serve --fleet N`).
    Process,
}

impl serde::Serialize for Link {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(match self {
            Link::Thread => "thread",
            Link::Process => "process",
        }
        .to_string())
    }
}

/// The widest executor the supervisor runs: `--shards N`, `--fleet N`
/// and a resize line may ask for at most this many workers.
pub const MAX_WORKERS: usize = 256;

/// Hard cap on a single frame payload (8 MiB). A length prefix above
/// this is treated as garbage, not as a request for a huge allocation.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Trailer byte closing every frame (see the module docs).
pub const FRAME_TRAILER: u8 = b'\n';

/// Front-end → worker heartbeat ping interval.
pub const DEFAULT_HEARTBEAT_INTERVAL_MS: u64 = 500;

/// Consecutive unanswered pings after which a worker is declared stalled
/// and killed.
pub const DEFAULT_HEARTBEAT_MISS_LIMIT: u32 = 3;

/// First retry/restart backoff; doubles per attempt.
pub const DEFAULT_RETRY_BACKOFF_BASE_MS: u64 = 10;

/// Ceiling on the exponential retry/restart backoff.
pub const DEFAULT_RETRY_BACKOFF_MAX_MS: u64 = 500;

/// Replay attempts per request before it is answered `internal`.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// Bounded in-flight drain on stdin EOF (`--drain-timeout-ms`).
pub const DEFAULT_DRAIN_TIMEOUT_MS: u64 = 2000;

/// Default end-to-end p99 latency objective (`--slo-p99-ms`): the
/// target the `aa_slo_*` burn-rate series measures against.
pub const DEFAULT_SLO_P99_MS: u64 = 100;

/// Why a frame could not be read. Everything except [`FrameError::Io`]
/// on a live pipe means the peer is emitting garbage and must be treated
/// as crashed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed.
    Io(std::io::Error),
    /// The length prefix exceeds the caller's cap.
    TooLarge {
        /// Claimed payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// EOF in the middle of a frame (header or payload).
    Truncated,
    /// The payload was not followed by the `\n` trailer.
    BadTrailer,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::Truncated => write!(f, "peer closed mid-frame"),
            FrameError::BadTrailer => write!(f, "frame missing trailer byte"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: `u32` big-endian payload length, payload, trailer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.write_all(&[FRAME_TRAILER])
}

fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one frame. `Ok(None)` is a clean EOF (the pipe closed exactly on
/// a frame boundary); any mid-frame EOF or malformed framing is an error.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut hdr = [0u8; 4];
    match read_full(r, &mut hdr)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(FrameError::Truncated),
    }
    let len = u32::from_be_bytes(hdr) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut buf = vec![0u8; len + 1];
    if read_full(r, &mut buf)? != len + 1 {
        return Err(FrameError::Truncated);
    }
    if buf[len] != FRAME_TRAILER {
        return Err(FrameError::BadTrailer);
    }
    buf.truncate(len);
    Ok(Some(buf))
}

/// Exponential backoff with seeded jitter: the supervisor paces request
/// replays and worker respawns with it.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First-attempt delay; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the exponential part (jitter may exceed it slightly).
    pub max: Duration,
}

impl Backoff {
    /// Delay before 1-based `attempt`: `min(base·2^(attempt−1), max)`
    /// plus jitter drawn uniformly from `[0, base/2]`.
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.base.saturating_mul(1u32 << exp).min(self.max);
        let jitter_ns = (self.base.as_nanos() / 2).min(u64::MAX as u128) as u64;
        let jitter = if jitter_ns == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(rng.gen_range(0..=jitter_ns))
        };
        raw + jitter
    }
}

/// One request the front-end has admitted but not yet answered.
#[derive(Debug, Clone)]
pub struct PendingEntry<T> {
    /// Front-end sequence number (the map key, echoed for convenience).
    pub seq: u64,
    /// Stream key, if the request carried one.
    pub stream: Option<u64>,
    /// Worker currently holding the request, if dispatched.
    pub assigned: Option<usize>,
    /// Dispatch attempts so far (1 after the first assignment).
    pub attempts: u32,
    /// Whatever the caller needs to replay or answer the request.
    pub job: T,
}

/// The seq was already pending; the caller is reusing sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateSeq(pub u64);

/// Admission-to-answer tracker enforcing exactly-once (module docs).
#[derive(Debug)]
pub struct PendingMap<T> {
    entries: HashMap<u64, PendingEntry<T>>,
    answered: u64,
    duplicates: u64,
}

impl<T> Default for PendingMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        PendingMap { entries: HashMap::new(), answered: 0, duplicates: 0 }
    }

    /// Requests admitted but not yet answered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Requests answered so far (each seq counted at most once).
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// Completions that arrived for a seq no longer pending — late
    /// frames from a replaced incarnation, dropped instead of answered.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Admit a request. Duplicate seqs are rejected, not overwritten —
    /// overwriting would orphan the first entry and break exactly-once.
    pub fn insert(&mut self, seq: u64, stream: Option<u64>, job: T) -> Result<(), DuplicateSeq> {
        if self.entries.contains_key(&seq) {
            return Err(DuplicateSeq(seq));
        }
        self.entries
            .insert(seq, PendingEntry { seq, stream, assigned: None, attempts: 0, job });
        Ok(())
    }

    /// Re-admit an entry pulled back by [`PendingMap::take_assigned`],
    /// preserving its attempt count for the retry-budget check.
    pub fn reinsert(&mut self, entry: PendingEntry<T>) -> Result<(), DuplicateSeq> {
        if self.entries.contains_key(&entry.seq) {
            return Err(DuplicateSeq(entry.seq));
        }
        self.entries.insert(entry.seq, entry);
        Ok(())
    }

    /// Record a dispatch to `worker`, bumping the attempt counter.
    /// Returns the attempt number, or `None` if the seq is not pending.
    pub fn assign(&mut self, seq: u64, worker: usize) -> Option<u32> {
        let e = self.entries.get_mut(&seq)?;
        e.assigned = Some(worker);
        e.attempts += 1;
        Some(e.attempts)
    }

    /// Borrow a pending entry.
    pub fn get(&self, seq: u64) -> Option<&PendingEntry<T>> {
        self.entries.get(&seq)
    }

    /// Claim the right to answer `seq`. The first caller gets the entry
    /// (removed from the map); later callers get `None` and bump the
    /// duplicate counter.
    pub fn complete(&mut self, seq: u64) -> Option<PendingEntry<T>> {
        match self.entries.remove(&seq) {
            Some(e) => {
                self.answered += 1;
                Some(e)
            }
            None => {
                self.duplicates += 1;
                None
            }
        }
    }

    /// Pull back everything assigned to a dead worker for replay. The
    /// returned entries keep their attempt counts; they are no longer
    /// assigned (and so cannot be claimed by the dead incarnation).
    pub fn take_assigned(&mut self, worker: usize) -> Vec<PendingEntry<T>> {
        let seqs: Vec<u64> = self
            .entries
            .values()
            .filter(|e| e.assigned == Some(worker))
            .map(|e| e.seq)
            .collect();
        let mut out: Vec<PendingEntry<T>> = seqs
            .into_iter()
            .filter_map(|s| self.entries.remove(&s))
            .map(|mut e| {
                e.assigned = None;
                e
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Remove everything (shutdown / all-retired), in seq order. These
    /// count as answered: the caller is about to answer each one.
    pub fn drain_all(&mut self) -> Vec<PendingEntry<T>> {
        let mut out: Vec<PendingEntry<T>> = self.entries.drain().map(|(_, e)| e).collect();
        out.sort_by_key(|e| e.seq);
        self.answered += out.len() as u64;
        out
    }
}

/// Where the router sent (or refused to send) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Dispatch to this worker now.
    To(usize),
    /// The stream is mid-handoff: hold the request until
    /// [`FleetRouter::complete`] or [`FleetRouter::worker_down`] releases
    /// the stream.
    Park,
    /// No worker is up.
    NoWorkers,
}

/// Membership-aware stream router (see the module docs for the handoff
/// protocol). Not thread-safe; the front-end event loop owns it.
#[derive(Debug)]
pub struct FleetRouter {
    ring: Ring,
    up: Vec<bool>,
    /// `stream -> (worker, outstanding requests)` for keyed requests
    /// currently dispatched.
    outstanding: HashMap<u64, (usize, usize)>,
    /// Streams waiting for their old worker to drain before handoff.
    parked: HashSet<u64>,
}

impl FleetRouter {
    /// A router over `workers` slots, all initially down (the caller
    /// marks each up once its process handshake completes).
    pub fn new(workers: usize) -> Self {
        FleetRouter {
            ring: Ring::new(workers),
            up: vec![false; workers],
            outstanding: HashMap::new(),
            parked: HashSet::new(),
        }
    }

    /// Total worker slots (up or not).
    pub fn workers(&self) -> usize {
        self.up.len()
    }

    /// Whether a slot is up.
    pub fn is_up(&self, worker: usize) -> bool {
        self.up.get(worker).copied().unwrap_or(false)
    }

    /// The ring owner of a stream, liveness ignored (`None` only with
    /// zero slots).
    pub fn owner(&self, stream: u64) -> Option<usize> {
        self.ring.owner(stream)
    }

    /// Streams currently parked (diagnostics).
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Route a keyed request. On [`RouteDecision::To`] the stream's
    /// outstanding count is already incremented — the caller must
    /// eventually call [`FleetRouter::complete`] for it.
    pub fn route(&mut self, stream: u64) -> RouteDecision {
        if self.parked.contains(&stream) {
            // Keep parked requests FIFO: nothing overtakes the queue.
            return RouteDecision::Park;
        }
        let Some(target) = self.ring.route(stream, |w| self.up[w]) else {
            return RouteDecision::NoWorkers;
        };
        if let Some(&(held_by, count)) = self.outstanding.get(&stream) {
            if held_by != target {
                // Membership moved the ring owner while `held_by` still
                // works the stream: drain there first, then hand off.
                debug_assert!(count > 0);
                self.parked.insert(stream);
                return RouteDecision::Park;
            }
        }
        let e = self.outstanding.entry(stream).or_insert((target, 0));
        e.1 += 1;
        RouteDecision::To(target)
    }

    /// Pick the least-loaded up worker for a key-less request (ties go
    /// to the lowest index). `load` is the caller's in-flight count.
    pub fn route_cold(&self, load: impl Fn(usize) -> usize) -> Option<usize> {
        (0..self.up.len())
            .filter(|&w| self.up[w])
            .min_by_key(|&w| (load(w), w))
    }

    /// Record that one of `stream`'s requests on `worker` finished (for
    /// any reason — answered, replayed elsewhere, or dropped). Returns
    /// the streams released from parking by this completion.
    pub fn complete(&mut self, stream: u64, worker: usize) -> Vec<u64> {
        let mut released = Vec::new();
        if let Some(&(held_by, count)) = self.outstanding.get(&stream) {
            if held_by == worker {
                if count <= 1 {
                    self.outstanding.remove(&stream);
                    if self.parked.remove(&stream) {
                        released.push(stream);
                    }
                } else {
                    self.outstanding.insert(stream, (held_by, count - 1));
                }
            }
        }
        released
    }

    /// Mark a worker down, clearing its outstanding claims. Streams that
    /// were parked waiting on it are released (they re-route to the ring
    /// successor). The dead worker's own in-flight requests should be
    /// pulled back via [`PendingMap::take_assigned`] and re-routed; their
    /// outstanding counts are gone, so the retry routes freshly.
    pub fn worker_down(&mut self, worker: usize) -> Vec<u64> {
        if let Some(u) = self.up.get_mut(worker) {
            *u = false;
        }
        let dead: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|&(_, &(w, _))| w == worker)
            .map(|(&s, _)| s)
            .collect();
        let mut released = Vec::new();
        for s in dead {
            self.outstanding.remove(&s);
            if self.parked.remove(&s) {
                released.push(s);
            }
        }
        released.sort_unstable();
        released
    }

    /// Mark a worker up (handshake complete). Rebalance-back is lazy:
    /// the next request per stream routes to the restored ring owner,
    /// parking behind any survivor still draining that stream.
    pub fn worker_up(&mut self, worker: usize) {
        if let Some(u) = self.up.get_mut(worker) {
            *u = true;
        }
    }

    /// Resize to `workers` slots. New slots start down; removed slots
    /// must already be down and drained (callers retire them first).
    pub fn resize(&mut self, workers: usize) {
        self.ring.resize(workers);
        self.up.resize(workers, false);
        self.outstanding.retain(|_, &mut (w, _)| w < workers);
    }
}

/// FIFO queues of parked payloads, one per stream — the companion
/// structure to [`RouteDecision::Park`].
#[derive(Debug)]
pub struct ParkedQueues<T> {
    queues: HashMap<u64, VecDeque<T>>,
}

impl<T> Default for ParkedQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ParkedQueues<T> {
    /// An empty set of queues.
    pub fn new() -> Self {
        ParkedQueues { queues: HashMap::new() }
    }

    /// Park a payload at the back of its stream's queue.
    pub fn park(&mut self, stream: u64, payload: T) {
        self.queues.entry(stream).or_default().push_back(payload);
    }

    /// Take a released stream's queue, in arrival order.
    pub fn release(&mut self, stream: u64) -> VecDeque<T> {
        self.queues.remove(&stream).unwrap_or_default()
    }

    /// Total parked payloads across all streams.
    pub fn len(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Drain every queue, grouped by stream in ascending stream order.
    pub fn drain_all(&mut self) -> Vec<(u64, VecDeque<T>)> {
        let mut out: Vec<(u64, VecDeque<T>)> = self.queues.drain().collect();
        out.sort_by_key(|&(s, _)| s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn truncated_and_garbage_frames_are_errors_not_messages() {
        // EOF mid-header.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // EOF mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // Corrupt trailer.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let end = buf.len() - 1;
        buf[end] = b'X';
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::BadTrailer)));
        // Absurd length prefix.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn backoff_doubles_to_cap_and_jitters_within_half_base() {
        let b = Backoff { base: Duration::from_millis(8), max: Duration::from_millis(40) };
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 1..=10u32 {
            let exp = attempt.saturating_sub(1).min(16);
            let raw = Duration::from_millis(8)
                .saturating_mul(1u32 << exp)
                .min(Duration::from_millis(40));
            let d = b.delay(attempt, &mut rng);
            assert!(d >= raw, "attempt {attempt}: {d:?} < {raw:?}");
            assert!(d <= raw + Duration::from_millis(4), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn pending_map_answers_each_seq_exactly_once() {
        let mut p: PendingMap<&str> = PendingMap::new();
        p.insert(1, Some(5), "a").unwrap();
        p.insert(2, None, "b").unwrap();
        assert_eq!(p.insert(1, None, "dup"), Err(DuplicateSeq(1)));
        assert_eq!(p.assign(1, 0), Some(1));
        assert_eq!(p.assign(2, 1), Some(1));
        let won = p.complete(1).unwrap();
        assert_eq!((won.job, won.attempts), ("a", 1));
        // Second completion for the same seq loses and is counted.
        assert!(p.complete(1).is_none());
        assert_eq!(p.answered(), 1);
        assert_eq!(p.duplicates(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn take_assigned_moves_a_dead_workers_entries_back_for_replay() {
        let mut p: PendingMap<u32> = PendingMap::new();
        for seq in 0..6u64 {
            p.insert(seq, Some(seq % 2), seq as u32).unwrap();
            p.assign(seq, (seq % 3) as usize).unwrap();
        }
        let replay = p.take_assigned(0);
        assert_eq!(replay.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 3]);
        assert!(replay.iter().all(|e| e.assigned.is_none() && e.attempts == 1));
        assert_eq!(p.len(), 4);
        // Re-admit and re-assign bumps attempts past the first try.
        for e in replay {
            let seq = e.seq;
            p.reinsert(e).unwrap();
            assert_eq!(p.assign(seq, 1), Some(2));
        }
    }

    #[test]
    fn router_parks_during_handoff_and_releases_on_drain() {
        let mut r = FleetRouter::new(4);
        for w in 0..4 {
            r.worker_up(w);
        }
        // Find a stream and its owner, dispatch one request.
        let stream = 11u64;
        let owner = r.owner(stream).unwrap();
        assert_eq!(r.route(stream), RouteDecision::To(owner));
        // Owner dies: outstanding cleared, successor takes over.
        r.worker_down(owner);
        let successor = match r.route(stream) {
            RouteDecision::To(w) => w,
            other => panic!("expected reroute, got {other:?}"),
        };
        assert_ne!(successor, owner);
        // Owner comes back while the successor still holds a request:
        // new traffic parks (drain → handoff → resume).
        r.worker_up(owner);
        assert_eq!(r.route(stream), RouteDecision::Park);
        assert_eq!(r.parked_count(), 1);
        // Drain completes: the stream is released and routes home.
        let released = r.complete(stream, successor);
        assert_eq!(released, vec![stream]);
        assert_eq!(r.route(stream), RouteDecision::To(owner));
    }

    #[test]
    fn router_cold_routes_to_least_loaded_up_worker() {
        let mut r = FleetRouter::new(3);
        r.worker_up(0);
        r.worker_up(2);
        let load = |w: usize| [5usize, 0, 2][w];
        assert_eq!(r.route_cold(load), Some(2));
        r.worker_down(2);
        assert_eq!(r.route_cold(load), Some(0));
        r.worker_down(0);
        assert_eq!(r.route_cold(load), None);
    }

    #[test]
    fn parked_queues_preserve_per_stream_fifo() {
        let mut q: ParkedQueues<u32> = ParkedQueues::new();
        q.park(7, 1);
        q.park(7, 2);
        q.park(9, 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.release(7).into_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.drain_all(), vec![(9, VecDeque::from(vec![3]))]);
        assert!(q.is_empty());
    }

    #[test]
    fn resize_keeps_survivor_claims_and_drops_removed_slots() {
        let mut r = FleetRouter::new(2);
        r.worker_up(0);
        r.worker_up(1);
        // Claim one stream per worker.
        let s0 = (0..100u64).find(|&s| r.owner(s) == Some(0)).unwrap();
        let s1 = (0..100u64).find(|&s| r.owner(s) == Some(1)).unwrap();
        assert_eq!(r.route(s0), RouteDecision::To(0));
        assert_eq!(r.route(s1), RouteDecision::To(1));
        r.worker_down(1);
        r.resize(1);
        assert_eq!(r.workers(), 1);
        // Worker 0's claim survives; the removed slot's claim is gone.
        assert_eq!(r.route(s0), RouteDecision::To(0));
        assert_eq!(r.route(s1), RouteDecision::To(0));
    }
}
