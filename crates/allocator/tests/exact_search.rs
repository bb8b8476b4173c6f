//! Halving-oracle differential for the cold Exact λ-search.
//!
//! The oracle below is the plain reference search written out on
//! per-element `Utility::inverse_derivative`: bracket growth from
//! `[0, 1]`, up to 128 halvings, then the epilogue (the allocation at the
//! high edge plus the leftover spread across the bracket). Total demand
//! `D(λ)` is nonincreasing, so `D(λ) > budget` flips at one pair of
//! adjacent floats, and every search that collapses its bracket lands on
//! that pair: every cold entry point must reproduce the oracle bit for
//! bit — the amounts and the bracket a warm call would start from — and
//! may not spend more than a few sweeps beyond it on any market.
//!
//! The one exemption is a market whose predicate is *not* monotone at
//! the ulp level (PCHIP's closed-form inverse is not exactly monotone):
//! there two searches may land on different flips. A market is exempt
//! only when both landings are checked to be genuine flips, which
//! proves the predicate flips twice.
//!
//! Markets: random mixes of every demand-kernel family; the paper's four
//! value distributions, as one pooled super-optimal market and as
//! per-server groups; budgets from 1% to 99% of `Σ cap`; and utilities
//! rescaled so the clearing price sits near [`WARM_MIN_PRICE`] or above
//! 10¹².

use std::sync::Arc;

use aa_allocator::bisection::{allocate, allocate_generic, allocate_in, Fan, WARM_MIN_PRICE};
use aa_allocator::{Interrupted, WarmCache};
use aa_utility::check::{check_concave_shape, sample_points};
use aa_utility::{
    CappedLinear, Ceiling, DynUtility, Linearized, LogUtility, Offset, Pchip, PiecewiseLinear,
    Power, Scaled, Sum, Utility,
};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// Sweeps the cold search may spend beyond the oracle on one market.
const SWEEP_SLACK: u32 = 6;

/// The oracle's answer, its final bracket, and its cost in
/// whole-market demand sweeps.
struct Halving {
    amounts: Vec<f64>,
    /// `(lo, hi)` where the halving stopped.
    end: (f64, f64),
    /// The bracket a warm call may start from: `end`, if it collapsed
    /// at or above the warm floor.
    bracket: Option<(f64, f64)>,
    sweeps: u32,
}

/// `out[i] = x_i(λ)` by per-element dispatch, and the index-order sum.
fn demand<U: Utility>(utils: &[U], lambda: f64, out: &mut Vec<f64>) -> f64 {
    out.clear();
    out.extend(utils.iter().map(|u| u.inverse_derivative(lambda)));
    out.iter().sum()
}

/// The reference search: growth from `[0, 1]`, ≤ 128 halvings, epilogue.
fn halving<U: Utility>(utils: &[U], budget: f64) -> Halving {
    let caps: Vec<f64> = utils.iter().map(Utility::cap).collect();
    if budget >= caps.iter().sum::<f64>() {
        return Halving { amounts: caps, end: (0.0, 0.0), bracket: None, sweeps: 0 };
    }
    let mut sweeps = 0;
    let mut d = |lambda: f64, out: &mut Vec<f64>| {
        sweeps += 1;
        demand(utils, lambda, out)
    };
    let mut scratch = Vec::new();
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    while d(hi, &mut scratch) > budget {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..128 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if d(mid, &mut scratch) > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut amounts = Vec::new();
    let mut leftover = budget - d(hi, &mut amounts);
    if leftover > 0.0 {
        let mut at_lo = Vec::new();
        d(lo, &mut at_lo);
        let mut slack = 0.0;
        for (&a, &b) in at_lo.iter().zip(&amounts) {
            slack += (a - b).max(0.0);
        }
        if slack > 0.0 {
            let frac = (leftover / slack).min(1.0);
            for (x, &a) in amounts.iter_mut().zip(&at_lo) {
                *x += frac * (a - *x).max(0.0);
            }
            leftover -= frac * slack;
        }
        for (x, &cap) in amounts.iter_mut().zip(&caps) {
            if leftover <= 0.0 {
                break;
            }
            if cap > *x {
                let add = (cap - *x).min(leftover);
                *x += add;
                leftover -= add;
            }
        }
    }
    let mid = 0.5 * (lo + hi);
    let collapsed = mid <= lo || mid >= hi;
    let bracket = (collapsed && lo >= WARM_MIN_PRICE).then_some((lo, hi));
    Halving { amounts, end: (lo, hi), bracket, sweeps }
}

fn assert_bits(want: &[f64], got: &[f64], what: &str) -> Result<(), String> {
    prop_assert_eq!(want.len(), got.len(), "{}: length", what);
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: amounts[{}] {} vs {}", what, i, b, a);
    }
    Ok(())
}

/// Both brackets are flips of `D(λ) > budget` — true at the low edge,
/// false at the high one — and one lies wholly below the other, so the
/// predicate is false before it is true again: not monotone.
fn assert_non_monotone<U: Utility>(
    utils: &[U],
    budget: f64,
    (a, a_hi): (f64, f64),
    (b, b_hi): (f64, f64),
) -> Result<(), String> {
    let mut out = Vec::new();
    let mut over = |lambda: f64| demand(utils, lambda, &mut out) > budget;
    for (lo, hi) in [(a, a_hi), (b, b_hi)] {
        prop_assert!(over(lo) && !over(hi), "({:e}, {:e}) is not a flip", lo, hi);
    }
    prop_assert!(a_hi <= b || b_hi <= a, "flips ({:e}, {:e}) and ({:e}, {:e}) overlap", a, a_hi, b, b_hi);
    Ok(())
}

/// Every cold entry point against the oracle on one market.
fn check_market<U: Utility + Sync>(utils: &[U], budget: f64) -> Result<(), String> {
    let mut cache = WarmCache::new();
    let mut amounts = Vec::new();
    let unchecked = &mut || Ok::<_, Interrupted>(());
    let stats = allocate_in(utils, budget, &mut cache, &mut amounts, Fan::Seq, unchecked).unwrap();
    assert_bits(&amounts, &allocate(utils, budget).amounts, "allocate")?;
    assert_bits(&amounts, &allocate_generic(utils, budget).amounts, "allocate_generic")?;
    let par = rayon::with_threads(2, || allocate(utils, budget));
    assert_bits(&amounts, &par.amounts, "allocate@2")?;

    let want = halving(utils, budget);
    prop_assert!(
        stats.demand_maps <= want.sweeps + SWEEP_SLACK,
        "cold search took {} sweeps, the halving {}",
        stats.demand_maps,
        want.sweeps
    );
    match cache.bracket() {
        Some(got) if Some(got) != want.bracket => assert_non_monotone(utils, budget, got, want.end),
        got => {
            prop_assert_eq!(got, want.bracket, "pinned bracket");
            assert_bits(&want.amounts, &amounts, "cold search vs the halving")
        }
    }
}

/// Concave piecewise-linear utility from (width, slope) pairs, slopes
/// sorted descending.
fn pwl_from(raw: &[(f64, f64)]) -> PiecewiseLinear {
    let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
    slopes.sort_by(|a, b| b.total_cmp(a));
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for (r, s) in raw.iter().zip(slopes) {
        x += r.0;
        y += s * r.0;
        pts.push((x, y));
    }
    PiecewiseLinear::new(&pts).unwrap()
}

/// Monotone concave samples for a PCHIP utility.
fn pchip_from(steps: &[(f64, f64)]) -> Pchip {
    let mut slope = 10.0;
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for &(w, shrink) in steps {
        x += w;
        y += slope * w;
        pts.push((x, y));
        slope *= shrink;
    }
    Pchip::new(&pts).unwrap()
}

/// One utility from every demand-kernel family: power, log, staircases
/// (capped-linear, piecewise-linear, linearized), PCHIP, the wrappers,
/// and the opaque fallbacks.
fn family() -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (0.1..20.0f64, 0.05..0.95f64, 1.0..50.0f64)
            .prop_map(|(s, b, c)| Arc::new(Power::new(s, b, c)) as DynUtility),
        (0.1..20.0f64, 0.05..5.0f64, 1.0..50.0f64)
            .prop_map(|(s, r, c)| Arc::new(LogUtility::new(s, r, c)) as DynUtility),
        (0.1..20.0f64, 0.5..10.0f64, 0.0..10.0f64).prop_map(|(s, knee, extra)| {
            Arc::new(CappedLinear::new(s, knee, knee + extra)) as DynUtility
        }),
        prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5)
            .prop_map(|raw| Arc::new(pwl_from(&raw)) as DynUtility),
        (0.0..10.0f64, 0.0..20.0f64, 0.1..10.0f64).prop_map(|(c_hat, v_hat, extra)| {
            Arc::new(Linearized::new(c_hat, v_hat, c_hat + extra, 1.0)) as DynUtility
        }),
        prop::collection::vec((0.5..5.0f64, 0.2..0.9f64), 2..6)
            .prop_map(|steps| Arc::new(pchip_from(&steps)) as DynUtility),
        (0.0..4.0f64, 0.1..20.0f64, 0.5..10.0f64).prop_map(|(w, s, knee)| {
            Arc::new(Scaled::new(CappedLinear::new(s, knee, knee + 1.0), w)) as DynUtility
        }),
        (0.1..20.0f64, 0.05..0.95f64, 0.0..5.0f64).prop_map(|(s, b, off)| {
            Arc::new(Offset::new(Box::new(Power::new(s, b, 10.0)), off)) as DynUtility
        }),
        (0.1..10.0f64, 1.0..8.0f64).prop_map(|(s, ceil)| {
            Arc::new(Ceiling::new(LogUtility::new(s, 1.0, 20.0), ceil)) as DynUtility
        }),
        (0.1..10.0f64, 0.1..10.0f64).prop_map(|(s1, s2)| {
            Arc::new(Sum::new(Power::new(s1, 0.5, 10.0), LogUtility::new(s2, 1.0, 10.0)))
                as DynUtility
        }),
    ]
}

/// Scale every utility by `10^exp` (the clearing price moves with it).
fn rescaled(utils: Vec<DynUtility>, exp: i32) -> Vec<DynUtility> {
    if exp == 0 {
        return utils;
    }
    let w = 10f64.powi(exp);
    utils.into_iter().map(|u| Arc::new(Scaled::new(u, w)) as DynUtility).collect()
}

/// Price scales: unscaled, around [`WARM_MIN_PRICE`], and above 10¹².
fn price_scale() -> impl Strategy<Value = i32> {
    prop_oneof![Just(0), -20i32..-15, 12i32..17]
}

/// One draw from the paper's value distributions: uniform(0, 1),
/// Normal(1, 1) truncated to positive, a power law with α = 2 on
/// [1, 1000], and the two-point law ℓ = 1 / h = θ·ℓ with γ = 1/2.
fn paper_value(dist: usize, theta: f64, rng: &mut StdRng) -> f64 {
    match dist {
        0 => loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                return u;
            }
        },
        1 => loop {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let x = 1.0 + (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            if x > 0.0 {
                return x;
            }
        },
        2 => {
            let u: f64 = rng.gen();
            1.0 / (1.0 - u * (1.0 - 1.0 / 1000.0))
        }
        _ => {
            if rng.gen::<f64>() < 0.5 {
                1.0
            } else {
                theta
            }
        }
    }
}

/// A paper utility on `[0, cap]`: monotone PCHIP through `(0, 0)`,
/// `(cap/2, v)`, `(cap, v + w)` with `w ≤ v`, or the piecewise-linear
/// interpolant when the PCHIP fails the concavity check.
fn paper_utility(dist: usize, theta: f64, cap: f64, rng: &mut StdRng) -> DynUtility {
    let (a, b) = (paper_value(dist, theta, rng), paper_value(dist, theta, rng));
    let (v, w) = if a >= b { (a, b) } else { (b, a) };
    let points = [(0.0, 0.0), (cap / 2.0, v), (cap, v + w)];
    let pchip = Pchip::new(&points).unwrap();
    if check_concave_shape(&pchip, &sample_points(cap, 33), 1e-7).is_ok() {
        Arc::new(pchip)
    } else {
        Arc::new(PiecewiseLinear::new(&points).unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random kernel mixes at random budgets and price scales.
    #[test]
    fn cold_search_matches_the_halving_on_kernel_mixes(
        utils in prop::collection::vec(family(), 1..24),
        budget_frac in 0.01..0.99f64,
        exp in price_scale(),
    ) {
        let utils = rescaled(utils, exp);
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        check_market(&utils, budget_frac * total_cap)?;
    }

    /// Small groups, sized like one server's threads under a placement.
    #[test]
    fn cold_search_matches_the_halving_on_server_sized_groups(
        utils in prop::collection::vec(family(), 1..5),
        budget_frac in 0.01..0.99f64,
        exp in price_scale(),
    ) {
        let utils = rescaled(utils, exp);
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        check_market(&utils, budget_frac * total_cap)?;
    }

    /// The paper's instances (8 servers × C = 1000, β threads per
    /// server): the pooled super-optimal market and every server's
    /// group under a random placement.
    #[test]
    fn cold_search_matches_the_halving_on_paper_markets(
        dist in 0usize..4,
        theta in prop_oneof![Just(2.0f64), Just(5.0), Just(10.0)],
        beta in 1usize..16,
        seed in 0u64..u64::MAX,
        exp in price_scale(),
    ) {
        let (servers, cap) = (8, 1000.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let utils: Vec<DynUtility> =
            (0..servers * beta).map(|_| paper_utility(dist, theta, cap, &mut rng)).collect();
        let utils = rescaled(utils, exp);
        check_market(&utils, servers as f64 * cap)?;
        let mut groups: Vec<Vec<DynUtility>> = vec![Vec::new(); servers];
        for u in &utils {
            groups[rng.gen_range(0..servers)].push(Arc::clone(u));
        }
        for group in groups.iter().filter(|g| !g.is_empty()) {
            check_market(group, cap)?;
        }
    }
}
