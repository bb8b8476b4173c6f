//! The metrics registry: named counters, gauges and fixed-bucket
//! log-linear histograms.
//!
//! Handles are cheap `Arc` clones around atomics; the **record path
//! never allocates and never takes the registry lock** — callers fetch
//! a handle once (allocating the registry entry) and then record
//! through it for the rest of the process. Quantiles (p50/p90/p99) are
//! derived from the fixed buckets at *export* time, so observing a
//! value into a histogram is a couple of relaxed atomic adds — cheap
//! enough for the solver hot path and allocation-free by construction,
//! which is what keeps the `arena_alloc` zero-allocation guarantee
//! intact with a live collector.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log-linear bucket boundaries: `m·10^e` for `m ∈ 1..=9`,
/// `e ∈ 0..=8` — 1 µs up to 900 s, nine buckets per decade. Values
/// above the last boundary land in the overflow bucket.
pub const NUM_BOUNDARIES: usize = 81;

/// The `i`-th bucket boundary in microseconds: `(i % 9 + 1) · 10^(i / 9)`.
#[must_use]
pub fn bucket_boundary_micros(i: usize) -> u64 {
    debug_assert!(i < NUM_BOUNDARIES);
    (i as u64 % 9 + 1) * 10u64.pow(i as u32 / 9)
}

/// Index of the smallest boundary `≥ value` (le-semantics), or
/// `NUM_BOUNDARIES` for the overflow bucket. Pure integer math — no
/// search, no float, no allocation.
#[must_use]
pub fn bucket_index(value_micros: u64) -> usize {
    if value_micros <= 1 {
        return 0;
    }
    let d = value_micros.ilog10() as u64;
    let scale = 10u64.pow(d as u32);
    let m = value_micros / scale;
    let round_up = u64::from(value_micros > m * scale);
    let idx = (d * 9 + (m - 1) + round_up) as usize;
    idx.min(NUM_BOUNDARIES)
}

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    buckets: [AtomicU64; NUM_BOUNDARIES + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

/// A fixed-bucket log-linear latency histogram over microseconds.
///
/// `record_*` is allocation-free: one bucket index computation plus
/// four relaxed atomic updates. `count`/`sum`/`max` are tracked
/// exactly; quantiles are bucket-resolved upper bounds capped at the
/// exact observed maximum (so `quantile(0.99) ≤ max` always holds, and
/// any quantile of a non-empty histogram is ≥ 1 µs).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation, in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_micros.fetch_add(micros, Ordering::Relaxed);
        inner.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    #[must_use]
    pub fn sum_micros(&self) -> u64 {
        self.0.sum_micros.load(Ordering::Relaxed)
    }

    /// Largest observation, in microseconds (0 when empty).
    #[must_use]
    pub fn max_micros(&self) -> u64 {
        self.0.max_micros.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, boundaries then overflow.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Merge `other` into `self`: bucket-wise add (the boundaries are
    /// fixed and identical for every histogram), plus count/sum adds
    /// and a max fetch-max. This is exactly what recording `other`'s
    /// samples into `self` would have produced at bucket resolution, so
    /// merged quantiles equal single-histogram quantiles — the property
    /// the federation proptest pins.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum_micros.fetch_add(other.sum_micros(), Ordering::Relaxed);
        self.0.max_micros.fetch_max(other.max_micros(), Ordering::Relaxed);
    }

    /// Rebuild a histogram from shipped parts (a worker's wire
    /// snapshot). Returns `None` when `buckets` does not have exactly
    /// [`NUM_BOUNDARIES`]` + 1` entries — the boundaries are a protocol
    /// constant, so a length mismatch means version skew and the
    /// snapshot must be discarded rather than misfiled.
    #[must_use]
    pub fn from_parts(buckets: &[u64], count: u64, sum_micros: u64, max_micros: u64) -> Option<Histogram> {
        if buckets.len() != NUM_BOUNDARIES + 1 {
            return None;
        }
        let h = Histogram::default();
        for (slot, &v) in h.0.buckets.iter().zip(buckets.iter()) {
            slot.store(v, Ordering::Relaxed);
        }
        h.0.count.store(count, Ordering::Relaxed);
        h.0.sum_micros.store(sum_micros, Ordering::Relaxed);
        h.0.max_micros.store(max_micros, Ordering::Relaxed);
        Some(h)
    }

    /// Bucket-resolved `q`-quantile in microseconds: the boundary of the
    /// bucket holding the nearest-rank observation, capped at the exact
    /// observed maximum. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.max_micros();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                if i == NUM_BOUNDARIES {
                    return max;
                }
                return bucket_boundary_micros(i).min(max);
            }
        }
        max
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) name: String,
    /// Optional single `key="value"` label pair.
    pub(crate) label: Option<(String, String)>,
    pub(crate) metric: Metric,
}

impl Entry {
    /// `name` or `name{key="value"}` — the stable export key.
    pub(crate) fn key(&self) -> String {
        match &self.label {
            None => self.name.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
        }
    }
}

/// A worker registry snapshot as shipped over the fleet wire: flat
/// `(export key, value)` lists plus raw histogram parts. Full snapshots
/// — not deltas — so a merge is idempotent and a worker restart (which
/// resets its counters) simply replaces the previous incarnation's
/// contribution.
#[derive(Clone, Debug, Default)]
pub struct FederatedSnapshot {
    /// Counter export keys and cumulative values.
    pub counters: Vec<(String, u64)>,
    /// Gauge export keys and last values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram export keys and raw parts.
    pub histograms: Vec<FederatedHistogram>,
}

/// One histogram inside a [`FederatedSnapshot`].
#[derive(Clone, Debug)]
pub struct FederatedHistogram {
    /// The export key (`name` or `name{k="v"}`).
    pub key: String,
    /// Per-bucket counts, [`NUM_BOUNDARIES`]` + 1` entries.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_micros: u64,
    /// Largest observation, µs.
    pub max_micros: u64,
}

/// A registry of named metrics.
///
/// Instantiable (tests and the serve loop pass their own so process
/// state never leaks between runs); [`crate::global`] is the shared
/// process-wide instance the solver pipeline records into.
///
/// A fleet front-end additionally *federates*: worker processes ship
/// [`FederatedSnapshot`]s of their own registries, merged in via
/// [`Registry::merge_worker_snapshot`] and re-exported (with a
/// `worker=` label, plus a `worker="fleet"` bucket-wise aggregate for
/// histograms) by [`Registry::snapshot_federated`].
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) entries: Mutex<Vec<Entry>>,
    federated: Mutex<Vec<(String, FederatedSnapshot)>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_create(&self, name: &str, label: Option<(&str, &str)>, make: fn() -> Metric) -> Metric {
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = entries.iter().find(|e| {
            e.name == name
                && e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        }) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            metric: metric.clone(),
        });
        metric
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_create(name, None, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the counter `name{key="value"}`.
    ///
    /// # Panics
    /// If the name/label pair is already registered as a different kind.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> Counter {
        match self.get_or_create(name, Some((key, value)), || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_create(name, None, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name{key="value"}`.
    ///
    /// # Panics
    /// If the name/label pair is already registered as a different kind.
    pub fn gauge_labeled(&self, name: &str, key: &str, value: &str) -> Gauge {
        match self.get_or_create(name, Some((key, value)), || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_create(name, None, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the histogram `name{key="value"}`.
    ///
    /// # Panics
    /// If the name/label pair is already registered as a different kind.
    pub fn histogram_labeled(&self, name: &str, key: &str, value: &str) -> Histogram {
        match self.get_or_create(name, Some((key, value)), || {
            Metric::Histogram(Histogram::default())
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Snapshot of every registered entry, sorted by export key —
    /// deterministic regardless of registration order. Local entries
    /// only; see [`Registry::snapshot_federated`] for the fleet view.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out: Vec<(String, Metric)> =
            entries.iter().map(|e| (e.key(), e.metric.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Capture the local entries as a [`FederatedSnapshot`] — what a
    /// fleet worker ships to its front-end.
    #[must_use]
    pub fn to_federated(&self) -> FederatedSnapshot {
        let mut snap = FederatedSnapshot::default();
        for (key, metric) in self.snapshot() {
            match metric {
                Metric::Counter(c) => snap.counters.push((key, c.get())),
                Metric::Gauge(g) => snap.gauges.push((key, g.get())),
                Metric::Histogram(h) => snap.histograms.push(FederatedHistogram {
                    key,
                    buckets: h.bucket_counts(),
                    count: h.count(),
                    sum_micros: h.sum_micros(),
                    max_micros: h.max_micros(),
                }),
            }
        }
        snap
    }

    /// Merge (replace-or-insert) worker `worker`'s latest snapshot.
    /// Snapshots are full, so the newest one entirely supersedes the
    /// previous — stale series from a dead incarnation cannot linger.
    pub fn merge_worker_snapshot(&self, worker: &str, snap: FederatedSnapshot) {
        let mut fed = self.federated.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match fed.binary_search_by(|(w, _)| w.as_str().cmp(worker)) {
            Ok(i) => fed[i].1 = snap,
            Err(i) => fed.insert(i, (worker.to_string(), snap)),
        }
    }

    /// Forget worker `worker`'s federated series entirely — called when
    /// a worker is retired so `/metrics` stops re-exporting it as live.
    pub fn drop_worker(&self, worker: &str) {
        let mut fed = self.federated.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        fed.retain(|(w, _)| w != worker);
    }

    /// The fleet-complete snapshot: local entries, plus every federated
    /// worker series re-keyed with a `worker="…"` label, plus one
    /// `worker="fleet"` bucket-wise aggregate per federated histogram
    /// name (merged counts equal the sum of per-worker counts). Sorted
    /// by export key. Identical to [`Registry::snapshot`] when nothing
    /// has federated.
    #[must_use]
    pub fn snapshot_federated(&self) -> Vec<(String, Metric)> {
        let mut out = self.snapshot();
        let fed = self.federated.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Aggregate histograms across workers by their original key.
        let mut merged: Vec<(String, Histogram)> = Vec::new();
        for (worker, snap) in fed.iter() {
            for (key, v) in &snap.counters {
                let c = Counter::default();
                c.add(*v);
                out.push((key_with_worker(key, worker), Metric::Counter(c)));
            }
            for (key, v) in &snap.gauges {
                let g = Gauge::default();
                g.set(*v);
                out.push((key_with_worker(key, worker), Metric::Gauge(g)));
            }
            for fh in &snap.histograms {
                let Some(h) =
                    Histogram::from_parts(&fh.buckets, fh.count, fh.sum_micros, fh.max_micros)
                else {
                    continue;
                };
                match merged.iter().find(|(k, _)| k == &fh.key) {
                    Some((_, agg)) => agg.merge(&h),
                    None => {
                        let agg = Histogram::default();
                        agg.merge(&h);
                        merged.push((fh.key.clone(), agg));
                    }
                }
                out.push((key_with_worker(&fh.key, worker), Metric::Histogram(h)));
            }
        }
        for (key, agg) in merged {
            out.push((key_with_worker(&key, "fleet"), Metric::Histogram(agg)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Splice a `worker="…"` label into an export key: `name` →
/// `name{worker="w"}`, `name{k="v"}` → `name{k="v",worker="w"}`.
fn key_with_worker(key: &str, worker: &str) -> String {
    match key.strip_suffix('}') {
        Some(open) => format!("{open},worker=\"{worker}\"}}"),
        None => format!("{key}{{worker=\"{worker}\"}}"),
    }
}

/// A tiny SLO tracker: classifies each end-to-end completion as good
/// or breaching (latency over target, or a non-ok outcome), exports
/// `aa_slo_good_total` / `aa_slo_breach_total` / `aa_slo_burn_rate` /
/// `aa_slo_target_p99_micros`, and derives the burn rate as
/// breach-fraction over the 1 % error budget implied by a p99 target
/// (burn 1.0 = exactly consuming budget; > 1.0 = burning it down).
#[derive(Clone, Debug)]
pub struct SloTracker {
    target_micros: u64,
    good: Counter,
    breach: Counter,
    burn: Gauge,
}

/// Error budget implied by a p99 target: 1 % of requests may breach.
const SLO_ERROR_BUDGET: f64 = 0.01;

impl SloTracker {
    /// Register the `aa_slo_*` series in `registry` with a latency
    /// target of `target_micros`.
    #[must_use]
    pub fn register(registry: &Registry, target_micros: u64) -> SloTracker {
        #[allow(clippy::cast_precision_loss)]
        registry.gauge("aa_slo_target_p99_micros").set(target_micros as f64);
        SloTracker {
            target_micros,
            good: registry.counter("aa_slo_good_total"),
            breach: registry.counter("aa_slo_breach_total"),
            burn: registry.gauge("aa_slo_burn_rate"),
        }
    }

    /// The latency target, µs.
    #[must_use]
    pub fn target_micros(&self) -> u64 {
        self.target_micros
    }

    /// Record one completed request: `ok` outcomes under target are
    /// good, everything else breaches. Refreshes the burn-rate gauge.
    pub fn observe(&self, latency_micros: u64, ok: bool) {
        if ok && latency_micros <= self.target_micros {
            self.good.inc();
        } else {
            self.breach.inc();
        }
        self.burn.set(self.burn_rate());
    }

    /// Current burn rate: breach fraction ÷ error budget (0.0 when
    /// nothing has been observed).
    #[must_use]
    pub fn burn_rate(&self) -> f64 {
        let good = self.good.get();
        let breach = self.breach.get();
        let total = good + breach;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let fraction = breach as f64 / total as f64;
        fraction / SLO_ERROR_BUDGET
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("aa_test_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("aa_test_total").get(), 5, "same handle by name");
        let g = r.gauge("aa_test_gauge");
        g.set(2.5);
        assert_eq!(r.gauge("aa_test_gauge").get(), 2.5);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let r = Registry::new();
        r.counter_labeled("aa_tier_total", "tier", "algo2").add(3);
        r.counter_labeled("aa_tier_total", "tier", "uu").add(7);
        assert_eq!(r.counter_labeled("aa_tier_total", "tier", "algo2").get(), 3);
        assert_eq!(r.counter_labeled("aa_tier_total", "tier", "uu").get(), 7);
    }

    #[test]
    fn labeled_gauges_are_distinct() {
        let r = Registry::new();
        r.gauge_labeled("aa_shard_queue_depth", "shard", "0").set(3.0);
        r.gauge_labeled("aa_shard_queue_depth", "shard", "1").set(8.0);
        assert_eq!(r.gauge_labeled("aa_shard_queue_depth", "shard", "0").get(), 3.0);
        assert_eq!(r.gauge_labeled("aa_shard_queue_depth", "shard", "1").get(), 8.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("aa_kind");
        r.gauge("aa_kind");
    }

    #[test]
    fn histogram_merge_matches_recording_everything_once() {
        let a = Histogram::default();
        let b = Histogram::default();
        let combined = Histogram::default();
        for v in [1u64, 5, 90, 1_500] {
            a.record_micros(v);
            combined.record_micros(v);
        }
        for v in [2u64, 900, 2_000_000] {
            b.record_micros(v);
            combined.record_micros(v);
        }
        let merged = Histogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), combined.count());
        assert_eq!(merged.sum_micros(), combined.sum_micros());
        assert_eq!(merged.max_micros(), combined.max_micros());
        assert_eq!(merged.bucket_counts(), combined.bucket_counts());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile_micros(q), combined.quantile_micros(q));
        }
    }

    #[test]
    fn from_parts_rejects_wrong_bucket_count() {
        assert!(Histogram::from_parts(&[0; NUM_BOUNDARIES + 1], 0, 0, 0).is_some());
        assert!(Histogram::from_parts(&[0; NUM_BOUNDARIES], 0, 0, 0).is_none());
    }

    #[test]
    fn federation_re_exports_worker_series_and_aggregates() {
        let r = Registry::new();
        r.counter("aa_local_total").inc();
        let mut snap0 = FederatedSnapshot::default();
        snap0.counters.push(("aa_worker_solves_total".into(), 3));
        snap0.gauges.push(("aa_worker_depth".into(), 2.0));
        let h0 = Histogram::default();
        h0.record_micros(10);
        h0.record_micros(20);
        snap0.histograms.push(FederatedHistogram {
            key: "aa_worker_solve_micros".into(),
            buckets: h0.bucket_counts(),
            count: h0.count(),
            sum_micros: h0.sum_micros(),
            max_micros: h0.max_micros(),
        });
        let mut snap1 = FederatedSnapshot::default();
        snap1.counters.push(("aa_worker_solves_total".into(), 5));
        let h1 = Histogram::default();
        h1.record_micros(700);
        snap1.histograms.push(FederatedHistogram {
            key: "aa_worker_solve_micros".into(),
            buckets: h1.bucket_counts(),
            count: h1.count(),
            sum_micros: h1.sum_micros(),
            max_micros: h1.max_micros(),
        });
        r.merge_worker_snapshot("0", snap0.clone());
        r.merge_worker_snapshot("1", snap1);
        let keys: Vec<String> = r.snapshot_federated().iter().map(|(k, _)| k.clone()).collect();
        assert!(keys.contains(&"aa_local_total".to_string()), "{keys:?}");
        assert!(keys.contains(&"aa_worker_solves_total{worker=\"0\"}".to_string()), "{keys:?}");
        assert!(keys.contains(&"aa_worker_solves_total{worker=\"1\"}".to_string()), "{keys:?}");
        assert!(keys.contains(&"aa_worker_depth{worker=\"0\"}".to_string()), "{keys:?}");
        let fleet = r
            .snapshot_federated()
            .into_iter()
            .find(|(k, _)| k == "aa_worker_solve_micros{worker=\"fleet\"}")
            .expect("fleet aggregate exists");
        match fleet.1 {
            Metric::Histogram(h) => {
                assert_eq!(h.count(), 3, "merged count = sum of per-worker counts");
                assert_eq!(h.max_micros(), 700);
            }
            other => panic!("aggregate is a histogram, got {other:?}"),
        }
        // Re-merging worker 0 replaces (full snapshots, not deltas).
        r.merge_worker_snapshot("0", snap0);
        let count = r
            .snapshot_federated()
            .iter()
            .filter(|(k, _)| k == "aa_worker_solves_total{worker=\"0\"}")
            .count();
        assert_eq!(count, 1);
        // Retirement drops the worker's series entirely.
        r.drop_worker("0");
        let keys: Vec<String> = r.snapshot_federated().iter().map(|(k, _)| k.clone()).collect();
        assert!(!keys.iter().any(|k| k.contains("worker=\"0\"")), "{keys:?}");
        assert!(keys.contains(&"aa_worker_solves_total{worker=\"1\"}".to_string()), "{keys:?}");
    }

    #[test]
    fn key_with_worker_splices_into_existing_labels() {
        assert_eq!(key_with_worker("aa_x", "2"), "aa_x{worker=\"2\"}");
        assert_eq!(
            key_with_worker("aa_x{tier=\"algo2\"}", "2"),
            "aa_x{tier=\"algo2\",worker=\"2\"}"
        );
    }

    #[test]
    fn slo_tracker_burn_rate_tracks_breach_fraction() {
        let r = Registry::new();
        let slo = SloTracker::register(&r, 1_000);
        assert_eq!(slo.burn_rate(), 0.0);
        for _ in 0..99 {
            slo.observe(500, true);
        }
        slo.observe(2_000, true); // over target → breach
        assert!((slo.burn_rate() - 1.0).abs() < 1e-9, "1/100 breaches = burn 1.0");
        assert_eq!(r.counter("aa_slo_good_total").get(), 99);
        assert_eq!(r.counter("aa_slo_breach_total").get(), 1);
        assert!((r.gauge("aa_slo_burn_rate").get() - 1.0).abs() < 1e-9);
        assert_eq!(r.gauge("aa_slo_target_p99_micros").get(), 1_000.0);
        slo.observe(100, false); // fast but failed → still a breach
        assert_eq!(r.counter("aa_slo_breach_total").get(), 2);
    }
}
