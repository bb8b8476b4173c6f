//! Batched, struct-of-arrays demand-map kernel.
//!
//! The λ-bisection in `aa-allocator` evaluates every thread's **demand
//! at price λ** — [`Utility::inverse_derivative`] — a hundred-plus
//! times per solve. Doing that through `&dyn Utility` virtual dispatch
//! costs an indirect call per element per sweep, and for PCHIP curves
//! (the workload generator's bread and butter) the old trait-default
//! fell back to an *inner* bisection of ~40 `derivative` calls per
//! element per λ. This module flattens a `&[U]` slice into
//! struct-of-arrays form once per solve so each sweep is a single
//! cache-friendly pass over contiguous `Vec<f64>`s:
//!
//! * [`DemandTable::compile`] asks each utility to describe its demand
//!   map through a [`DemandSink`]; the four closed-form families
//!   (power, log, staircase, PCHIP) land in flat parameter arrays with
//!   one discriminant per element, everything else stays *opaque* and
//!   keeps its virtual-dispatch path.
//! * [`DemandTable::eval`] / [`DemandTable::batch_inverse_derivative`]
//!   answer demand-at-λ from the compiled form. The contract is
//!   **bit-identity**: every compiled path must return exactly the bits
//!   the element's own `inverse_derivative` would — the scalar bodies
//!   live here ([`power_demand`], [`log_demand`], [`staircase_demand`],
//!   [`pchip_inverse_derivative`]) and the trait impls call the same
//!   functions, so the identity holds by construction.
//!   `crates/allocator/tests/kernel_differential.rs` enforces it over
//!   random utility mixes anyway.
//! * When *every* element compiles to a staircase at unit scale, the
//!   table also merges all step prices into one sorted [`ladder`]
//!   ([`DemandTable::ladder`]): total demand is then a finite staircase
//!   in λ, and the bisection can collapse to a binary search over the
//!   merged knots instead of 128 float halvings (see
//!   `aa_allocator::bisection`).
//!
//! Buffers are retained across [`DemandTable::compile`] calls, so a
//! warm-path caller recompiling each epoch allocates nothing once
//! capacities have grown to fit (the zero-allocation steady state is
//! proven by `core/tests/arena_alloc.rs`).

use crate::traits::{clamp_domain, Utility};

/// Demand of a power-family utility at price `lambda`.
///
/// This is the closed form behind [`crate::Power::inverse_derivative`];
/// the method delegates here so kernel and dispatch cannot diverge.
#[inline]
pub fn power_demand(lambda: f64, scale: f64, beta: f64, cap: f64) -> f64 {
    if lambda <= 0.0 {
        return cap;
    }
    if beta == 1.0 {
        // Linear utility: all-or-nothing at slope `scale`.
        return if lambda <= scale { cap } else { 0.0 };
    }
    if scale == 0.0 {
        return 0.0;
    }
    let x = (scale * beta / lambda).powf(1.0 / (1.0 - beta));
    clamp_domain(x, cap)
}

/// Demand of a log-family utility at price `lambda`.
///
/// The closed form behind [`crate::LogUtility::inverse_derivative`].
#[inline]
pub fn log_demand(lambda: f64, scale: f64, rate: f64, cap: f64) -> f64 {
    if lambda <= 0.0 {
        return cap;
    }
    if rate == 0.0 || scale == 0.0 {
        return 0.0;
    }
    let x = (scale * rate / lambda - 1.0) / rate;
    clamp_domain(x, cap)
}

/// Demand of a staircase utility at price `lambda`.
///
/// `thresholds` are the step prices in **nonincreasing** order;
/// `levels` has one more entry than `thresholds`, nondecreasing, and
/// `levels[k]` is the demand when exactly `k` thresholds are ≥ λ. This
/// is verbatim the [`crate::PiecewiseLinear`] demand formula
/// (`xs[slopes.partition_point(|s| s >= λ)]`); the other staircase
/// families ([`crate::CappedLinear`], [`crate::Linearized`],
/// zero-weight [`crate::Scaled`]) encode their two-branch closed forms
/// into the same shape.
#[inline]
pub fn staircase_demand(lambda: f64, thresholds: &[f64], levels: &[f64]) -> f64 {
    levels[thresholds.partition_point(|&t| t >= lambda)]
}

/// Demand of a PCHIP (monotone cubic Hermite) utility at price
/// `lambda`: the largest `x` in `[0, cap]` with `f'(x) ≥ λ`, in closed
/// form.
///
/// Within segment `s` the derivative in the local coordinate
/// `t = (x − xs[s])/h` is the quadratic `A·t² + B·t + C` obtained by
/// collecting the Hermite basis derivatives
/// (`dh00 = 6t²−6t`, `dh10 = 3t²−4t+1`, `dh01 = −6t²+6t`,
/// `dh11 = 3t²−2t`, all over `h`):
///
/// ```text
/// A = (6(ys[s] − ys[s+1]) + 3h(ds[s] + ds[s+1])) / h
/// B = (6(ys[s+1] − ys[s]) − h(4·ds[s] + 2·ds[s+1])) / h
/// C = ds[s]                       (the knot derivative, exactly)
/// ```
///
/// For concave data the knot slopes `ds` are nonincreasing, so the
/// crossing segment is found by binary search over `ds` and the answer
/// is the *downward* crossing of the quadratic — the root
/// `(−B − √disc)/(2A)` for either sign of `A`, computed through the
/// product-of-roots form `2(C−λ)/(√disc − B)` when `B < 0` to avoid
/// cancellation. Replaces the trait-default inner bisection (~40
/// `derivative` calls per query) that made PCHIP-heavy instances the
/// benchmark's outlier.
pub fn pchip_inverse_derivative(lambda: f64, xs: &[f64], ys: &[f64], ds: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let cap = xs[n - 1];
    // `!(cap > 0.0)` on purpose: also rejects a NaN cap.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(cap > 0.0) {
        return 0.0;
    }
    if lambda <= 0.0 {
        return cap;
    }
    if ds[0] < lambda {
        // Price above the steepest (leftmost) knot slope: demand nothing.
        return 0.0;
    }
    if ds[n - 1] >= lambda {
        // Price below the shallowest knot slope: demand everything.
        return cap;
    }
    // ds[0] ≥ λ > ds[n-1]: the crossing segment s has
    // ds[s] ≥ λ > ds[s+1].  `partition_point` over the nonincreasing
    // knot slopes returns the count of slopes ≥ λ, which is in [1, n-1].
    let s = ds.partition_point(|&d| d >= lambda) - 1;
    let h = xs[s + 1] - xs[s];
    let a = (6.0 * (ys[s] - ys[s + 1]) + 3.0 * h * (ds[s] + ds[s + 1])) / h;
    let b = (6.0 * (ys[s + 1] - ys[s]) - h * (4.0 * ds[s] + 2.0 * ds[s + 1])) / h;
    let c = ds[s];
    let t = if a == 0.0 {
        if b == 0.0 {
            // Derivative constant at C ≥ λ across the segment.
            1.0
        } else {
            (lambda - c) / b
        }
    } else {
        let disc = b * b - 4.0 * a * (c - lambda);
        let sd = disc.max(0.0).sqrt();
        // Downward crossing: (−B − √disc)/(2A) for both signs of A
        // (larger root when A < 0, smaller when A > 0). When B < 0 the
        // numerator cancels, so use the product-of-roots form.
        if b < 0.0 {
            2.0 * (c - lambda) / (sd - b)
        } else {
            (-b - sd) / (2.0 * a)
        }
    };
    let t = t.clamp(0.0, 1.0);
    clamp_domain(xs[s] + t * h, cap)
}

/// One compiled element's demand family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `power_demand(λ, p0, p1, p2)`.
    Power,
    /// `log_demand(λ, p0, p1, p2)`.
    Log,
    /// `staircase_demand(λ, thresholds[off..off+len], levels[off2..off2+len+1])`.
    Staircase,
    /// `pchip_inverse_derivative(λ, xs[off..], ys[off..], ds[off..])`.
    Pchip,
    /// No closed form registered: virtual `inverse_derivative` dispatch.
    Opaque,
}

/// A `&[U]` slice compiled to struct-of-arrays demand form.
///
/// Build one with [`DemandTable::compile`]; query it with
/// [`DemandTable::eval`] (one element) or
/// [`DemandTable::batch_inverse_derivative`] (one sweep). All internal
/// buffers retain capacity across `compile` calls.
#[derive(Debug, Clone, Default)]
pub struct DemandTable {
    kinds: Vec<Kind>,
    /// Scalar parameter lanes; meaning depends on the element's kind.
    p0: Vec<f64>,
    p1: Vec<f64>,
    p2: Vec<f64>,
    /// λ is divided by this before the family form (1.0 = untouched;
    /// `λ / 1.0` is bitwise `λ`, so no branch is needed).
    pre_div: Vec<f64>,
    /// Post-composition cap: result is `min`-ed with this *only when*
    /// `has_post` (an unconditional `NaN.min(∞)` would diverge from
    /// direct dispatch).
    post_cap: Vec<f64>,
    has_post: Vec<bool>,
    /// Pool offsets/lengths: staircase thresholds or PCHIP knots.
    off: Vec<usize>,
    len: Vec<usize>,
    /// Staircase levels offset (levels run one longer than thresholds).
    off2: Vec<usize>,
    stair_thresholds: Vec<f64>,
    stair_levels: Vec<f64>,
    pchip_xs: Vec<f64>,
    pchip_ys: Vec<f64>,
    pchip_ds: Vec<f64>,
    /// All elements staircase at unit scale ⇒ total demand is a finite
    /// staircase in λ with knots on `ladder`.
    discrete: bool,
    /// Merged, ascending, deduplicated positive step prices.
    ladder: Vec<f64>,
}

impl DemandTable {
    /// An empty table; [`compile`](Self::compile) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of compiled elements.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Recompile the table for `utils`, reusing every buffer.
    pub fn compile<U: Utility>(&mut self, utils: &[U]) {
        self.kinds.clear();
        self.p0.clear();
        self.p1.clear();
        self.p2.clear();
        self.pre_div.clear();
        self.post_cap.clear();
        self.has_post.clear();
        self.off.clear();
        self.len.clear();
        self.off2.clear();
        self.stair_thresholds.clear();
        self.stair_levels.clear();
        self.pchip_xs.clear();
        self.pchip_ys.clear();
        self.pchip_ds.clear();
        // Fresh tables otherwise grow each per-element lane through
        // ~log₂(n) doubling reallocations; one upfront reserve keeps
        // compile a single pass.
        self.kinds.reserve(utils.len());
        self.p0.reserve(utils.len());
        self.p1.reserve(utils.len());
        self.p2.reserve(utils.len());
        self.pre_div.reserve(utils.len());
        self.post_cap.reserve(utils.len());
        self.has_post.reserve(utils.len());
        self.off.reserve(utils.len());
        self.len.reserve(utils.len());
        self.off2.reserve(utils.len());
        for u in utils {
            let mut sink = DemandSink::new(self);
            u.describe_demand(&mut sink);
            sink.finish();
        }
        self.refresh_global();
    }

    /// Recompile element `i` in place. Pool-backed rows (staircase,
    /// PCHIP) append fresh pool data and repoint the row's offsets; the
    /// old region is orphaned, which is harmless for evaluation but
    /// means a table patched without bound grows — callers that patch
    /// repeatedly should [`compile`](Self::compile) from scratch once
    /// [`fragmented`](Self::fragmented) says so. Call
    /// [`refresh_global`](Self::refresh_global) once after a batch of
    /// patches to rebuild the discrete-ladder summary.
    pub fn patch<U: Utility>(&mut self, i: usize, u: &U) {
        assert!(i < self.kinds.len(), "patch index {i} out of bounds");
        let mut sink = DemandSink::new(self);
        u.describe_demand(&mut sink);
        sink.finish_at(i);
    }

    /// Pool entries held: staircase thresholds and levels plus PCHIP
    /// knots, live or orphaned by [`patch`](Self::patch).
    pub fn pool_len(&self) -> usize {
        self.stair_thresholds.len() + self.stair_levels.len() + self.pchip_xs.len()
    }

    /// Whether the pool regions orphaned by [`patch`](Self::patch)
    /// outgrow the live ones. Recompiling then packs the pool again, so
    /// a table patched forever stays within twice its live size.
    pub fn fragmented(&self) -> bool {
        let live: usize = (0..self.kinds.len())
            .map(|i| match self.kinds[i] {
                Kind::Staircase => 2 * self.len[i] + 1,
                Kind::Pchip => self.len[i],
                _ => 0,
            })
            .sum();
        self.pool_len() - live > live
    }

    /// Rebuild the whole-table summary (the `discrete` flag and the
    /// merged step [`ladder`](Self::ladder)) by walking live rows, so
    /// pool regions orphaned by [`patch`](Self::patch) are ignored.
    pub fn refresh_global(&mut self) {
        self.discrete = !self.kinds.is_empty()
            && self.kinds.iter().all(|&k| k == Kind::Staircase)
            && self.pre_div.iter().all(|&d| d == 1.0);
        self.ladder.clear();
        if self.discrete {
            for i in 0..self.kinds.len() {
                let ts = &self.stair_thresholds[self.off[i]..self.off[i] + self.len[i]];
                self.ladder.extend(ts.iter().copied().filter(|&t| t > 0.0));
            }
            self.ladder.sort_unstable_by(f64::total_cmp);
            self.ladder.dedup();
        }
    }

    /// Whether every element compiled to a unit-scale staircase, making
    /// the merged [`ladder`](Self::ladder) exhaustive: total demand is
    /// constant between consecutive ladder prices.
    pub fn all_discrete(&self) -> bool {
        self.discrete
    }

    /// Merged ascending positive step prices; empty unless
    /// [`all_discrete`](Self::all_discrete).
    pub fn ladder(&self) -> &[f64] {
        &self.ladder
    }

    /// Demand of element `i` at price `lambda` — bit-identical to
    /// `utils[i].inverse_derivative(lambda)`. `utils` must be the slice
    /// the table was compiled from (opaque elements dispatch into it).
    #[inline]
    pub fn eval<U: Utility>(&self, utils: &[U], i: usize, lambda: f64) -> f64 {
        let kind = self.kinds[i];
        if kind == Kind::Opaque {
            return utils[i].inverse_derivative(lambda);
        }
        let l = lambda / self.pre_div[i];
        let d = match kind {
            Kind::Power => power_demand(l, self.p0[i], self.p1[i], self.p2[i]),
            Kind::Log => log_demand(l, self.p0[i], self.p1[i], self.p2[i]),
            Kind::Staircase => {
                let (o, k, o2) = (self.off[i], self.len[i], self.off2[i]);
                staircase_demand(
                    l,
                    &self.stair_thresholds[o..o + k],
                    &self.stair_levels[o2..o2 + k + 1],
                )
            }
            Kind::Pchip => {
                let (o, k) = (self.off[i], self.len[i]);
                pchip_inverse_derivative(
                    l,
                    &self.pchip_xs[o..o + k],
                    &self.pchip_ys[o..o + k],
                    &self.pchip_ds[o..o + k],
                )
            }
            Kind::Opaque => unreachable!(),
        };
        if self.has_post[i] {
            d.min(self.post_cap[i])
        } else {
            d
        }
    }

    /// The value row `i` answers at **every** price in `[lo, hi]`, when
    /// its kernel decides that whole interval by a comparison branch
    /// with one constant result; `None` when it cannot show that (opaque
    /// rows, a closed-form branch, a threshold inside the interval).
    ///
    /// This is the pin interval of the λ-search's live rows: a row
    /// pinned for a bracket answers the same bits at every probe inside
    /// it, so the probe need not evaluate it. The test runs on the
    /// transformed prices `λ' = λ / pre_div`, which are nondecreasing in
    /// λ for a positive divisor (any other divisor never pins), and
    /// takes the kernel's own branches in the kernel's own order:
    ///
    /// * Power: `λ' ≤ 0` → `cap`; β = 1 → `cap` while `λ' ≤ scale`, `0`
    ///   past it; scale 0 → `0`;
    /// * Log: `λ' ≤ 0` → `cap`; rate or scale 0 → `0`;
    /// * Staircase: no threshold in `[lo', hi')`, so every comparison of
    ///   its binary search comes out the same;
    /// * PCHIP: cap ≤ 0 → `0`; `λ' ≤ 0` → `cap`; `λ' > ds[0]` → `0`;
    ///   `λ' ≤ ds[0]` and `λ' ≤ ds[n−1]` → `cap`.
    ///
    /// `post_min` applies to the pinned value as it does in [`eval`](Self::eval).
    // `!(a > b)` on purpose throughout: a NaN never pins.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn pinned(&self, i: usize, lo: f64, hi: f64) -> Option<f64> {
        let w = self.pre_div[i];
        if !(w > 0.0) || self.kinds[i] == Kind::Opaque {
            return None;
        }
        let (l, h) = (lo / w, hi / w);
        let d = match self.kinds[i] {
            Kind::Power | Kind::Log if h <= 0.0 => self.p2[i],
            Kind::Power | Kind::Log if !(l > 0.0) => return None,
            Kind::Power => {
                let (scale, beta) = (self.p0[i], self.p1[i]);
                if beta == 1.0 {
                    if h <= scale {
                        self.p2[i]
                    } else if l > scale {
                        0.0
                    } else {
                        return None;
                    }
                } else if scale == 0.0 {
                    0.0
                } else {
                    return None;
                }
            }
            Kind::Log => {
                if self.p1[i] == 0.0 || self.p0[i] == 0.0 {
                    0.0
                } else {
                    return None;
                }
            }
            Kind::Staircase => {
                let (o, k, o2) = (self.off[i], self.len[i], self.off2[i]);
                let ts = &self.stair_thresholds[o..o + k];
                if ts.iter().any(|&t| l <= t && t < h) {
                    return None;
                }
                staircase_demand(h, ts, &self.stair_levels[o2..o2 + k + 1])
            }
            Kind::Pchip => {
                let (o, k) = (self.off[i], self.len[i]);
                let cap = self.pchip_xs[o + k - 1];
                let (first, last) = (self.pchip_ds[o], self.pchip_ds[o + k - 1]);
                if !(cap > 0.0) {
                    0.0
                } else if h <= 0.0 {
                    cap
                } else if !(l > 0.0) {
                    return None;
                } else if first < l {
                    0.0
                } else if h <= first && h <= last {
                    cap
                } else {
                    return None;
                }
            }
            Kind::Opaque => return None,
        };
        Some(if self.has_post[i] { d.min(self.post_cap[i]) } else { d })
    }

    /// One batched demand sweep: `out[i] = x_i(λ)` for every element.
    /// `out.len()` must equal [`len`](Self::len).
    pub fn batch_inverse_derivative<U: Utility>(&self, utils: &[U], lambda: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.kinds.len(), "output slice length mismatch");
        self.batch_range(utils, lambda, 0, out);
    }

    /// Demand sweep over the contiguous element range
    /// `start..start + out.len()`: `out[k] = x_{start+k}(λ)`. This is the
    /// chunk-level kernel callers use to fan one sweep out over a thread
    /// pool — each worker takes a disjoint `out` chunk, so the combined
    /// result is bit-identical to one sequential
    /// [`batch_inverse_derivative`](Self::batch_inverse_derivative) pass
    /// regardless of how the range was split.
    pub fn batch_range<U: Utility>(
        &self,
        utils: &[U],
        lambda: f64,
        start: usize,
        out: &mut [f64],
    ) {
        assert!(
            start + out.len() <= self.kinds.len(),
            "range {}..{} exceeds table length {}",
            start,
            start + out.len(),
            self.kinds.len()
        );
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.eval(utils, start + k, lambda);
        }
    }
}

/// Per-element builder handed to [`Utility::describe_demand`].
///
/// An implementation calls exactly one family method ([`power`],
/// [`log`], [`staircase`], [`pchip`]) — or [`opaque`] to decline —
/// optionally composed with [`pre_scale`] (λ divided before the family
/// form; wrapper combinators) and [`post_min`] (result capped after).
/// Conflicting registrations (two families, two pre-scales) poison the
/// element back to opaque, which is always correct, never wrong —
/// opacity costs only the virtual call the element would have paid
/// anyway.
///
/// [`power`]: Self::power
/// [`log`]: Self::log
/// [`staircase`]: Self::staircase
/// [`pchip`]: Self::pchip
/// [`opaque`]: Self::opaque
/// [`pre_scale`]: Self::pre_scale
/// [`post_min`]: Self::post_min
#[derive(Debug)]
pub struct DemandSink<'a> {
    table: &'a mut DemandTable,
    kind: Kind,
    p0: f64,
    p1: f64,
    p2: f64,
    off: usize,
    len: usize,
    off2: usize,
    pre_div: f64,
    scaled: bool,
    post_cap: f64,
    has_post: bool,
    described: bool,
    poisoned: bool,
}

impl<'a> DemandSink<'a> {
    fn new(table: &'a mut DemandTable) -> Self {
        DemandSink {
            table,
            kind: Kind::Opaque,
            p0: 0.0,
            p1: 0.0,
            p2: 0.0,
            off: 0,
            len: 0,
            off2: 0,
            pre_div: 1.0,
            scaled: false,
            post_cap: f64::INFINITY,
            has_post: false,
            described: false,
            poisoned: false,
        }
    }

    /// Decline to describe: this element keeps virtual dispatch.
    pub fn opaque(&mut self) {
        self.poisoned = true;
    }

    /// Claim the family slot, poisoning on double registration.
    fn claim(&mut self) -> bool {
        if self.described || self.poisoned {
            self.poisoned = true;
            false
        } else {
            self.described = true;
            true
        }
    }

    /// Register `power_demand(λ, scale, beta, cap)`.
    pub fn power(&mut self, scale: f64, beta: f64, cap: f64) {
        if self.claim() {
            self.kind = Kind::Power;
            (self.p0, self.p1, self.p2) = (scale, beta, cap);
        }
    }

    /// Register `log_demand(λ, scale, rate, cap)`.
    pub fn log(&mut self, scale: f64, rate: f64, cap: f64) {
        if self.claim() {
            self.kind = Kind::Log;
            (self.p0, self.p1, self.p2) = (scale, rate, cap);
        }
    }

    /// Register `staircase_demand(λ, thresholds, levels)`. `thresholds`
    /// must be nonincreasing with `levels.len() == thresholds.len() + 1`
    /// (violations poison to opaque rather than corrupt the table).
    pub fn staircase(&mut self, thresholds: &[f64], levels: &[f64]) {
        if levels.len() != thresholds.len() + 1 {
            self.poisoned = true;
            return;
        }
        if self.claim() {
            self.kind = Kind::Staircase;
            self.off = self.table.stair_thresholds.len();
            self.len = thresholds.len();
            self.off2 = self.table.stair_levels.len();
            self.table.stair_thresholds.extend_from_slice(thresholds);
            self.table.stair_levels.extend_from_slice(levels);
        }
    }

    /// Register a PCHIP curve by its knots `xs`, values `ys`, and knot
    /// slopes `ds` (all the same length ≥ 2).
    pub fn pchip(&mut self, xs: &[f64], ys: &[f64], ds: &[f64]) {
        if xs.len() < 2 || xs.len() != ys.len() || xs.len() != ds.len() {
            self.poisoned = true;
            return;
        }
        if self.claim() {
            self.kind = Kind::Pchip;
            self.off = self.table.pchip_xs.len();
            self.len = xs.len();
            self.table.pchip_xs.extend_from_slice(xs);
            self.table.pchip_ys.extend_from_slice(ys);
            self.table.pchip_ds.extend_from_slice(ds);
        }
    }

    /// Compose: the family form is evaluated at `λ / weight`
    /// (wrapper-combinator semantics, e.g. [`crate::Scaled`]). A second
    /// pre-scale poisons: `(λ/w₁)/w₂` is not bitwise `λ/(w₁·w₂)`.
    pub fn pre_scale(&mut self, weight: f64) {
        if self.scaled {
            self.poisoned = true;
        } else {
            self.scaled = true;
            self.pre_div = weight;
        }
    }

    /// Compose: the family result is `min`-ed with `cap` afterwards
    /// (capping-wrapper semantics). Multiple caps fold by `min`, which
    /// matches chained `.min(c₁).min(c₂)` bitwise for finite caps.
    pub fn post_min(&mut self, cap: f64) {
        if self.has_post {
            self.post_cap = self.post_cap.min(cap);
        } else {
            self.has_post = true;
            self.post_cap = cap;
        }
    }

    /// Push the staged element into the table.
    fn finish(self) {
        let kind = if self.poisoned || !self.described {
            Kind::Opaque
        } else {
            self.kind
        };
        let t = self.table;
        t.kinds.push(kind);
        t.p0.push(self.p0);
        t.p1.push(self.p1);
        t.p2.push(self.p2);
        t.pre_div.push(self.pre_div);
        t.post_cap.push(self.post_cap);
        t.has_post.push(self.has_post);
        t.off.push(self.off);
        t.len.push(self.len);
        t.off2.push(self.off2);
    }

    /// Overwrite element `i`'s lanes with the staged element
    /// ([`DemandTable::patch`]'s write-back).
    fn finish_at(self, i: usize) {
        let kind = if self.poisoned || !self.described {
            Kind::Opaque
        } else {
            self.kind
        };
        let t = self.table;
        t.kinds[i] = kind;
        t.p0[i] = self.p0;
        t.p1[i] = self.p1;
        t.p2[i] = self.p2;
        t.pre_div[i] = self.pre_div;
        t.post_cap[i] = self.post_cap;
        t.has_post[i] = self.has_post;
        t.off[i] = self.off;
        t.len[i] = self.len;
        t.off2[i] = self.off2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CappedLinear, LogUtility, Pchip, PiecewiseLinear, Power};

    fn sweep_identical<U: Utility>(utils: &[U], lambdas: &[f64]) {
        let mut table = DemandTable::new();
        table.compile(utils);
        let mut out = vec![0.0; utils.len()];
        for &l in lambdas {
            table.batch_inverse_derivative(utils, l, &mut out);
            for (i, u) in utils.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    u.inverse_derivative(l).to_bits(),
                    "element {i} diverged at λ={l}"
                );
            }
        }
    }

    #[test]
    fn mixed_families_compile_and_match_dispatch() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(2.0, 0.5, 10.0)),
            Box::new(LogUtility::new(3.0, 1.5, 8.0)),
            Box::new(CappedLinear::new(2.0, 3.0, 10.0)),
            Box::new(PiecewiseLinear::new(&[(0.0, 0.0), (2.0, 4.0), (6.0, 6.0)]).unwrap()),
            Box::new(Pchip::new(&[(0.0, 0.0), (5.0, 4.0), (10.0, 6.0)]).unwrap()),
        ];
        sweep_identical(
            &utils,
            &[0.0, -1.0, 1e-12, 0.3, 0.5, 1.0, 2.0, 5.0, 1e6, f64::INFINITY],
        );
    }

    #[test]
    fn staircase_only_builds_a_merged_sorted_ladder() {
        let utils = vec![
            CappedLinear::new(2.0, 3.0, 10.0),
            CappedLinear::new(5.0, 1.0, 10.0),
            CappedLinear::new(2.0, 4.0, 6.0), // duplicate price 2.0
        ];
        let mut table = DemandTable::new();
        table.compile(&utils);
        assert!(table.all_discrete());
        assert_eq!(table.ladder(), &[2.0, 5.0]);
    }

    #[test]
    fn mixed_table_has_no_ladder() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(CappedLinear::new(2.0, 3.0, 10.0)),
            Box::new(Power::new(1.0, 0.5, 10.0)),
        ];
        let mut table = DemandTable::new();
        table.compile(&utils);
        assert!(!table.all_discrete());
        assert!(table.ladder().is_empty());
    }

    #[test]
    fn recompile_reuses_buffers_and_replaces_contents() {
        let mut table = DemandTable::new();
        table.compile(&[CappedLinear::new(2.0, 3.0, 10.0)]);
        assert_eq!(table.len(), 1);
        assert!(table.all_discrete());
        let utils = vec![Power::new(1.0, 0.5, 4.0), Power::new(2.0, 0.25, 4.0)];
        table.compile(&utils);
        assert_eq!(table.len(), 2);
        assert!(!table.all_discrete());
        sweep_identical(&utils, &[0.5, 2.0]);
    }

    #[test]
    fn patched_rows_match_a_fresh_compile() {
        // Mixed families, including pool-backed rows on both sides of
        // the patch, so offset bookkeeping is exercised.
        let mut utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Pchip::new(&[(0.0, 0.0), (5.0, 4.0), (10.0, 6.0)]).unwrap()),
            Box::new(Power::new(1.0, 0.5, 10.0)),
            Box::new(CappedLinear::new(2.0, 3.0, 10.0)),
            Box::new(Pchip::new(&[(0.0, 0.0), (4.0, 3.0), (8.0, 4.0)]).unwrap()),
        ];
        let mut patched = DemandTable::new();
        patched.compile(&utils);
        // Replace a pool-backed row and a scalar row.
        utils[0] = Box::new(Pchip::new(&[(0.0, 0.0), (3.0, 5.0), (9.0, 7.0)]).unwrap());
        utils[1] = Box::new(LogUtility::new(2.0, 1.5, 10.0));
        patched.patch(0, &utils[0]);
        patched.patch(1, &utils[1]);
        patched.refresh_global();
        let mut fresh = DemandTable::new();
        fresh.compile(&utils);
        for &l in &[0.0, 0.2, 0.5, 1.0, 2.0, 5.0, f64::INFINITY] {
            for i in 0..utils.len() {
                assert_eq!(
                    patched.eval(&utils, i, l).to_bits(),
                    fresh.eval(&utils, i, l).to_bits(),
                    "element {i} at λ={l}"
                );
            }
        }
        assert_eq!(patched.all_discrete(), fresh.all_discrete());
        assert_eq!(patched.ladder(), fresh.ladder());
    }

    #[test]
    fn patched_staircase_table_rebuilds_ladder_from_live_rows() {
        let mut utils = vec![
            CappedLinear::new(2.0, 3.0, 10.0),
            CappedLinear::new(5.0, 1.0, 10.0),
        ];
        let mut table = DemandTable::new();
        table.compile(&utils);
        assert_eq!(table.ladder(), &[2.0, 5.0]);
        // The orphaned pool region left by the patch must not leak the
        // old step price 5.0 into the rebuilt ladder.
        utils[1] = CappedLinear::new(7.0, 1.0, 10.0);
        table.patch(1, &utils[1]);
        table.refresh_global();
        assert!(table.all_discrete());
        assert_eq!(table.ladder(), &[2.0, 7.0]);
    }

    #[test]
    fn pchip_closed_form_inverts_the_derivative() {
        let p = Pchip::new(&[(0.0, 0.0), (500.0, 80.0), (1000.0, 130.0)]).unwrap();
        // Interior prices (f'(0) = 0.19, f'(cap) = 0.07 for this data):
        // f'(x(λ)) = λ to high accuracy.
        for lambda in [0.08, 0.1, 0.125, 0.15, 0.18] {
            let x = p.inverse_derivative(lambda);
            assert!(x > 0.0 && x < 1000.0, "λ={lambda} → x={x}");
            let d = p.derivative(x);
            assert!(
                (d - lambda).abs() < 1e-9 * lambda.max(1.0),
                "λ={lambda}: f'({x}) = {d}"
            );
        }
        // Boundaries.
        assert_eq!(p.inverse_derivative(0.0), 1000.0);
        assert_eq!(p.inverse_derivative(-3.0), 1000.0);
        assert_eq!(p.inverse_derivative(f64::INFINITY), 0.0);
        assert_eq!(p.inverse_derivative(1e9), 0.0);
    }

    #[test]
    fn pchip_demand_is_nonincreasing_in_price() {
        let p = Pchip::new(&[(0.0, 0.0), (500.0, 80.0), (1000.0, 130.0)]).unwrap();
        let mut prev = f64::INFINITY;
        let mut l = 1e-6;
        while l < 10.0 {
            let x = p.inverse_derivative(l);
            assert!(x <= prev + 1e-12, "demand rose at λ={l}: {x} > {prev}");
            prev = x;
            l *= 1.07;
        }
    }

    #[test]
    fn double_registration_poisons_to_opaque() {
        struct Weird;
        impl std::fmt::Debug for Weird {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Weird")
            }
        }
        impl Utility for Weird {
            fn value(&self, x: f64) -> f64 {
                x.min(1.0)
            }
            fn derivative(&self, x: f64) -> f64 {
                if x < 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
            fn cap(&self) -> f64 {
                1.0
            }
            fn describe_demand(&self, sink: &mut DemandSink<'_>) {
                sink.power(1.0, 0.5, 1.0);
                sink.log(1.0, 1.0, 1.0); // conflict → opaque
            }
        }
        let utils = [Weird];
        let mut table = DemandTable::new();
        table.compile(&utils);
        let mut out = [0.0];
        // Opaque fallback dispatches into the trait default.
        table.batch_inverse_derivative(&utils, 0.5, &mut out);
        assert_eq!(out[0].to_bits(), utils[0].inverse_derivative(0.5).to_bits());
    }
}
