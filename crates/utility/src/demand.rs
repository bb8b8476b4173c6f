//! Demand at a price: the closed forms, and the descriptions that prove
//! pins and ladders.
//!
//! The λ-search in `aa-allocator` evaluates every thread's **demand at
//! price λ** — [`Utility::inverse_derivative`] — once per probe. Every
//! such value comes from the thread's own method; the closed forms the
//! families call live here ([`power_demand`], [`log_demand`],
//! [`staircase_demand`], [`pchip_inverse_derivative`]).
//!
//! Two facts about a thread are not values, and a search asks for them
//! through the thread's demand description
//! ([`Utility::describe_demand`] into a [`DemandSink`]), read at the
//! moment they are needed over the utility's own fields:
//!
//! * [`pinned`] — the one value a thread answers across a whole price
//!   bracket, when a comparison branch of its closed form decides the
//!   bracket. The search's live rows skip pinned threads. A description
//!   must agree with `inverse_derivative` bit for bit, so a pinned value
//!   is the value every probe inside the bracket would compute;
//!   `crates/utility/tests/pin_sound.rs` checks that over random mixes.
//! * [`DemandTable::compile`] — when *every* thread describes a
//!   staircase at unit scale, all step prices merged into one sorted
//!   [`ladder`](DemandTable::ladder): total demand is then a finite
//!   staircase in λ, and the search can collapse to a binary search
//!   over the merged knots instead of 128 float halvings (see
//!   `aa_allocator::bisection`).
//!
//! The ladder buffer is retained across [`DemandTable::compile`] calls,
//! so a warm-path caller recompiling each epoch allocates nothing once
//! it has grown to fit (the zero-allocation steady state is proven by
//! `core/tests/arena_alloc.rs`).

use crate::traits::{clamp_domain, Utility};

/// Demand of a power-family utility at price `lambda`.
///
/// This is the closed form behind [`crate::Power::inverse_derivative`];
/// the method delegates here, and [`pinned`] reads the same branches.
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

/// A slice's length and, when every element describes a unit-scale
/// staircase, its merged ladder of step prices.
///
/// Demand values never come from here: [`batch_inverse_derivative`]
/// is a loop over each element's own [`Utility::inverse_derivative`].
/// The ladder keeps its capacity across [`compile`](Self::compile)
/// calls.
///
/// [`batch_inverse_derivative`]: Self::batch_inverse_derivative
#[derive(Debug, Clone, Default)]
pub struct DemandTable {
    len: usize,
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

    /// Number of elements compiled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Recompile for `utils`, reusing the ladder buffer. Descriptions
    /// are read only up to the first element that is not a unit-scale
    /// staircase: past it the slice has no ladder, so on power, log and
    /// PCHIP slices this reads one description.
    pub fn compile<U: Utility>(&mut self, utils: &[U]) {
        self.len = utils.len();
        self.ladder.clear();
        self.discrete = !utils.is_empty()
            && utils.iter().all(|u| {
                let mut sink = DemandSink::new(Question::Ladder(&mut self.ladder));
                u.describe_demand(&mut sink);
                sink.unit_staircase()
            });
        if self.discrete {
            self.ladder.sort_unstable_by(f64::total_cmp);
            self.ladder.dedup();
        } else {
            self.ladder.clear();
        }
    }

    /// Whether every element describes a unit-scale staircase, making
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

    /// One demand sweep: `out[i] = utils[i].inverse_derivative(lambda)`.
    /// `out.len()` must equal [`len`](Self::len).
    pub fn batch_inverse_derivative<U: Utility>(&self, utils: &[U], lambda: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "output slice length mismatch");
        for (slot, u) in out.iter_mut().zip(utils) {
            *slot = u.inverse_derivative(lambda);
        }
    }
}

/// The value `u` answers at **every** price in `[lo, hi]`, when its
/// demand description decides that whole interval by a comparison
/// branch with one constant result; `None` when it cannot show that (an
/// opaque or poisoned description, a closed-form branch, a threshold
/// inside the interval, a NaN edge).
///
/// This is the pin interval of the λ-search's live rows: a row pinned
/// for a bracket answers the same bits at every probe inside it, so the
/// probe need not evaluate it. The test runs on the transformed prices
/// `λ' = λ / w` of a `pre_scale(w)`, which are nondecreasing in λ for a
/// positive divisor (any other divisor never pins), and takes each
/// closed form's own branches in its own order:
///
/// * Power: `λ' ≤ 0` → `cap`; β = 1 → `cap` while `λ' ≤ scale`, `0`
///   past it; scale 0 → `0`;
/// * Log: `λ' ≤ 0` → `cap`; rate or scale 0 → `0`;
/// * Staircase: no threshold in `[lo', hi')`, so every comparison of
///   its binary search comes out the same;
/// * PCHIP: cap ≤ 0 → `0`; `λ' ≤ 0` → `cap`; `λ' > ds[0]` → `0`;
///   `λ' ≤ ds[0]` and `λ' ≤ ds[n−1]` → `cap`.
///
/// `post_min` caps the pinned value as it caps the demand.
pub fn pinned<U: Utility + ?Sized>(u: &U, lo: f64, hi: f64) -> Option<f64> {
    let mut sink = DemandSink::new(Question::Pin { lo, hi });
    u.describe_demand(&mut sink);
    sink.pin()
}

// `!(a > b)` on purpose in the pin rules: a NaN never pins.

#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn pin_power(l: f64, h: f64, scale: f64, beta: f64, cap: f64) -> Option<f64> {
    if h <= 0.0 {
        Some(cap)
    } else if !(l > 0.0) {
        None
    } else if beta == 1.0 {
        if h <= scale {
            Some(cap)
        } else if l > scale {
            Some(0.0)
        } else {
            None
        }
    } else if scale == 0.0 {
        Some(0.0)
    } else {
        None
    }
}

#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn pin_log(l: f64, h: f64, scale: f64, rate: f64, cap: f64) -> Option<f64> {
    if h <= 0.0 {
        Some(cap)
    } else if !(l > 0.0) {
        None
    } else if rate == 0.0 || scale == 0.0 {
        Some(0.0)
    } else {
        None
    }
}

fn pin_staircase(l: f64, h: f64, thresholds: &[f64], levels: &[f64]) -> Option<f64> {
    let inside = thresholds.iter().any(|&t| l <= t && t < h);
    (!inside).then(|| staircase_demand(h, thresholds, levels))
}

#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn pin_pchip(l: f64, h: f64, xs: &[f64], ds: &[f64]) -> Option<f64> {
    let cap = xs[xs.len() - 1];
    let (first, last) = (ds[0], ds[ds.len() - 1]);
    if !(cap > 0.0) {
        Some(0.0)
    } else if h <= 0.0 {
        Some(cap)
    } else if !(l > 0.0) {
        None
    } else if first < l {
        Some(0.0)
    } else if h <= first && h <= last {
        Some(cap)
    } else {
        None
    }
}

/// What a [`DemandSink`] asks of the description it receives.
#[derive(Debug)]
enum Question<'a> {
    /// The one value the element answers across `[lo, hi]`, if a
    /// comparison branch decides it ([`pinned`]).
    Pin { lo: f64, hi: f64 },
    /// Whether the element is a unit-scale staircase; its positive step
    /// prices are appended here ([`DemandTable::compile`]).
    Ladder(&'a mut Vec<f64>),
}

/// Per-element visitor handed to [`Utility::describe_demand`].
///
/// An implementation calls exactly one family method ([`power`],
/// [`log`], [`staircase`], [`pchip`]) — or [`opaque`] to decline —
/// optionally composed with [`pre_scale`] (λ divided before the family
/// form; wrapper combinators), registered *before* the family, and
/// [`post_min`] (result capped after). The sink answers its question
/// over the slices it is shown, during the call. Conflicting
/// registrations (two families, two pre-scales, a pre-scale after the
/// family) poison the element, which is always correct, never wrong: a
/// poisoned element never pins and has no ladder, so it costs only
/// evaluations the search would have made anyway.
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
    question: Question<'a>,
    /// λ is divided by this before the family form (1.0 = none).
    div: f64,
    scaled: bool,
    /// The `post_min` caps folded by `min`; `None` when none was
    /// registered (an unconditional `NaN.min(∞)` would diverge from
    /// dispatch).
    cap: Option<f64>,
    /// The family's pinned value, before the cap.
    pin: Option<f64>,
    /// A staircase was registered at unit scale.
    unit_staircase: bool,
    described: bool,
    poisoned: bool,
}

impl<'a> DemandSink<'a> {
    fn new(question: Question<'a>) -> Self {
        DemandSink {
            question,
            div: 1.0,
            scaled: false,
            cap: None,
            pin: None,
            unit_staircase: false,
            described: false,
            poisoned: false,
        }
    }

    /// The answer to [`Question::Pin`].
    fn pin(self) -> Option<f64> {
        let d = self.pin.filter(|_| !self.poisoned)?;
        Some(self.cap.map_or(d, |c| d.min(c)))
    }

    /// The answer to [`Question::Ladder`].
    fn unit_staircase(&self) -> bool {
        self.unit_staircase && !self.poisoned
    }

    /// Decline to describe: this element never pins and has no ladder.
    pub fn opaque(&mut self) {
        self.poisoned = true;
    }

    /// Claim the family slot (a second family poisons) and, asked for
    /// a pin, apply the family's `rule` to the bracket it sees,
    /// `[lo / w, hi / w]` — only for a positive divisor and no NaN edge.
    fn register(&mut self, rule: impl FnOnce(f64, f64) -> Option<f64>) {
        if self.described || self.poisoned {
            self.poisoned = true;
            return;
        }
        self.described = true;
        if let Question::Pin { lo, hi } = self.question {
            let (l, h) = (lo / self.div, hi / self.div);
            if self.div > 0.0 && !l.is_nan() && !h.is_nan() {
                self.pin = rule(l, h);
            }
        }
    }

    /// Register `power_demand(λ, scale, beta, cap)`.
    pub fn power(&mut self, scale: f64, beta: f64, cap: f64) {
        self.register(|l, h| pin_power(l, h, scale, beta, cap));
    }

    /// Register `log_demand(λ, scale, rate, cap)`.
    pub fn log(&mut self, scale: f64, rate: f64, cap: f64) {
        self.register(|l, h| pin_log(l, h, scale, rate, cap));
    }

    /// Register `staircase_demand(λ, thresholds, levels)`. `thresholds`
    /// must be nonincreasing with `levels.len() == thresholds.len() + 1`
    /// (a length mismatch poisons).
    pub fn staircase(&mut self, thresholds: &[f64], levels: &[f64]) {
        if levels.len() != thresholds.len() + 1 {
            self.poisoned = true;
            return;
        }
        // Prices a poisoned row appends die with its table's ladder.
        if let Question::Ladder(ladder) = &mut self.question {
            if self.div == 1.0 {
                self.unit_staircase = true;
                ladder.extend(thresholds.iter().copied().filter(|&t| t > 0.0));
            }
        }
        self.register(|l, h| pin_staircase(l, h, thresholds, levels));
    }

    /// Register a PCHIP curve by its knots `xs`, values `ys`, and knot
    /// slopes `ds` (all the same length ≥ 2).
    pub fn pchip(&mut self, xs: &[f64], ys: &[f64], ds: &[f64]) {
        if xs.len() < 2 || xs.len() != ys.len() || xs.len() != ds.len() {
            self.poisoned = true;
            return;
        }
        self.register(|l, h| pin_pchip(l, h, xs, ds));
    }

    /// Compose: the family form is evaluated at `λ / weight`
    /// (wrapper-combinator semantics, e.g. [`crate::Scaled`]). It must
    /// come before the family method, which reads the divisor as it is
    /// called. A second pre-scale poisons too: `(λ/w₁)/w₂` is not
    /// bitwise `λ/(w₁·w₂)`.
    pub fn pre_scale(&mut self, weight: f64) {
        if self.scaled || self.described {
            self.poisoned = true;
        } else {
            self.scaled = true;
            self.div = weight;
        }
    }

    /// Compose: the family result is `min`-ed with `cap` afterwards
    /// (capping-wrapper semantics). Multiple caps fold by `min`, which
    /// matches chained `.min(c₁).min(c₂)` bitwise for finite caps.
    pub fn post_min(&mut self, cap: f64) {
        self.cap = Some(self.cap.map_or(cap, |c| c.min(cap)));
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
        assert_eq!(table.ladder(), &[2.0]);
        let buffer = table.ladder().as_ptr();
        table.compile(&[CappedLinear::new(7.0, 3.0, 10.0)]);
        assert_eq!(table.ladder(), &[7.0]);
        assert_eq!(
            table.ladder().as_ptr(),
            buffer,
            "the ladder keeps its buffer"
        );
        let utils = vec![Power::new(1.0, 0.5, 4.0), Power::new(2.0, 0.25, 4.0)];
        table.compile(&utils);
        assert_eq!(table.len(), 2);
        assert!(!table.all_discrete());
        assert!(table.ladder().is_empty());
        sweep_identical(&utils, &[0.5, 2.0]);
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

    /// A linear utility (`min(x, 1)`) whose description is written by
    /// `describe`, to probe how the sink treats ill-formed descriptions.
    struct Described(fn(&mut DemandSink<'_>));

    impl std::fmt::Debug for Described {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Described")
        }
    }

    impl Utility for Described {
        fn value(&self, x: f64) -> f64 {
            x.clamp(0.0, 1.0)
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
            (self.0)(sink)
        }
    }

    #[test]
    fn double_registration_poisons_to_opaque() {
        // Alone, the power description pins the bracket [-1, 0] at cap.
        let power = Described(|sink| sink.power(1.0, 0.5, 1.0));
        assert_eq!(pinned(&power, -1.0, 0.0), Some(1.0));
        // A second family poisons: no pin, no ladder.
        let weird = Described(|sink| {
            sink.power(1.0, 0.5, 1.0);
            sink.log(1.0, 1.0, 1.0);
        });
        assert_eq!(pinned(&weird, -1.0, 0.0), None);
        let stairs = Described(|sink| {
            sink.staircase(&[1.0], &[0.0, 1.0]);
            sink.staircase(&[2.0], &[0.0, 1.0]);
        });
        let mut table = DemandTable::new();
        table.compile(&[stairs]);
        assert!(!table.all_discrete());
        assert!(table.ladder().is_empty());
        // Values still come from the utility's own dispatch.
        let utils = [weird];
        let mut out = [0.0];
        table.compile(&utils);
        table.batch_inverse_derivative(&utils, 0.5, &mut out);
        assert_eq!(out[0].to_bits(), utils[0].inverse_derivative(0.5).to_bits());
    }

    #[test]
    fn pre_scale_after_the_family_poisons() {
        // Divisor first: the staircase is tested at λ / 2, and [3, 3]
        // (λ' = 1.5) sits below its step price 2, where it demands 1.
        let early = Described(|sink| {
            sink.pre_scale(2.0);
            sink.staircase(&[2.0], &[0.0, 1.0]);
        });
        assert_eq!(pinned(&early, 3.0, 3.0), Some(1.0));
        // Divisor after: the family was read unscaled, so nothing pins.
        let late = Described(|sink| {
            sink.staircase(&[2.0], &[0.0, 1.0]);
            sink.pre_scale(2.0);
        });
        assert_eq!(pinned(&late, 3.0, 3.0), None);
        assert_eq!(pinned(&late, 0.0, 0.0), None);
        let mut table = DemandTable::new();
        table.compile(&[Described(|sink| {
            sink.staircase(&[2.0], &[0.0, 1.0]);
            sink.pre_scale(1.0);
        })]);
        assert!(!table.all_discrete());
        assert!(table.ladder().is_empty());
    }
}
