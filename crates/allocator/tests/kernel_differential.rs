//! Differential proptest for the compiled demand table.
//!
//! `DemandTable::compile` keeps per-slice state (its length, whether
//! every row is a unit-scale staircase, and the merged discrete ladder).
//! Recompiling a table over another slice must leave it exactly as a
//! fresh compile would, over random mixes of all four concrete families
//! (power, log, capped-linear, piecewise-linear) plus PCHIP, linearized,
//! and the combinator wrappers (`Scaled`, `Offset`, `Ceiling`, `Sum`,
//! smart pointers).

use std::sync::Arc;

use aa_utility::{
    CappedLinear, Ceiling, DemandTable, DynUtility, Linearized, LogUtility, Offset, Pchip,
    PiecewiseLinear, Power, Scaled, Sum,
};
use proptest::prelude::*;

/// A generated utility plus the λ values where its demand curve has
/// knots (jumps or kinks) — the adversarial probe prices.
type Gen = (DynUtility, Vec<f64>);

/// Concave piecewise-linear utility from (width, slope) pairs, slopes
/// sorted descending (same construction as `properties.rs`).
fn pwl_from(raw: &[(f64, f64)]) -> (PiecewiseLinear, Vec<f64>) {
    let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
    slopes.sort_by(|a, b| b.total_cmp(a));
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for (i, r) in raw.iter().enumerate() {
        x += r.0;
        y += slopes[i] * r.0;
        pts.push((x, y));
    }
    (PiecewiseLinear::new(&pts).unwrap(), slopes)
}

/// Monotone concave samples for a PCHIP utility: increasing x, concave y.
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

fn family() -> impl Strategy<Value = Gen> {
    prop_oneof![
        // Power: demand jumps to the cap at λ = 0 and has a kink where
        // the unclamped inverse crosses the cap.
        (0.1..20.0f64, 0.05..0.95f64, 1.0..50.0f64).prop_map(|(s, b, c)| {
            let u = Power::new(s, b, c);
            let knots = vec![s * b * c.powf(b - 1.0)];
            (Arc::new(u) as DynUtility, knots)
        }),
        // Log: maximum finite marginal value is s·r at x = 0.
        (0.1..20.0f64, 0.05..5.0f64, 1.0..50.0f64).prop_map(|(s, r, c)| {
            let u = LogUtility::new(s, r, c);
            let knots = vec![s * r, s * r / (1.0 + r * c)];
            (Arc::new(u) as DynUtility, knots)
        }),
        // Capped-linear: a two-step staircase with its jump at λ = slope.
        (0.1..20.0f64, 0.5..10.0f64, 0.0..10.0f64).prop_map(|(s, knee, extra)| {
            let u = CappedLinear::new(s, knee, knee + extra);
            (Arc::new(u) as DynUtility, vec![s])
        }),
        // Piecewise-linear: one staircase jump per distinct slope.
        prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5).prop_map(|raw| {
            let (u, slopes) = pwl_from(&raw);
            (Arc::new(u) as DynUtility, slopes)
        }),
        // Linearized (Equation 1): a single jump at v̂/ĉ; exercises the
        // degenerate ĉ = 0 arm too.
        (0.0..10.0f64, 0.0..20.0f64, 0.1..10.0f64).prop_map(|(c_hat, v_hat, extra)| {
            let cap = c_hat + extra;
            let u = Linearized::new(c_hat, v_hat, cap, 1.0);
            let knots = if c_hat > 0.0 { vec![v_hat / c_hat] } else { vec![] };
            (Arc::new(u) as DynUtility, knots)
        }),
        // PCHIP: closed-form kernel arm; knots at the segment-boundary
        // derivatives are where the quadratic solve switches segments.
        prop::collection::vec((0.5..5.0f64, 0.2..0.9f64), 2..6).prop_map(|steps| {
            let u = pchip_from(&steps);
            (Arc::new(u) as DynUtility, vec![])
        }),
        // Scaled wrapper (pre-division lane), including weight 0.
        (0.0..4.0f64, 0.1..20.0f64, 0.5..10.0f64).prop_map(|(w, s, knee)| {
            let u = Scaled::new(CappedLinear::new(s, knee, knee + 1.0), w);
            (Arc::new(u) as DynUtility, vec![w * s])
        }),
        // Offset wrapper (demand-transparent) over a Box (forwarding).
        (0.1..20.0f64, 0.05..0.95f64, 0.0..5.0f64).prop_map(|(s, b, off)| {
            let u = Offset::new(Box::new(Power::new(s, b, 10.0)), off);
            let knots = vec![s * b * 10.0f64.powf(b - 1.0)];
            (Arc::new(u) as DynUtility, knots)
        }),
        // Ceiling and Sum have no closed form: the table must fall back
        // to opaque virtual dispatch, bit-identically.
        (0.1..10.0f64, 1.0..8.0f64).prop_map(|(s, ceil)| {
            let u = Ceiling::new(LogUtility::new(s, 1.0, 20.0), ceil);
            (Arc::new(u) as DynUtility, vec![])
        }),
        (0.1..10.0f64, 0.1..10.0f64).prop_map(|(s1, s2)| {
            let u = Sum::new(Power::new(s1, 0.5, 10.0), LogUtility::new(s2, 1.0, 10.0));
            (Arc::new(u) as DynUtility, vec![])
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recompiling the same table over a different slice must fully
    /// reset it — no state leaks between instances.
    #[test]
    fn recompiled_table_matches_fresh_table(
        a in prop::collection::vec(family(), 1..8),
        b in prop::collection::vec(family(), 1..8),
        lambda in 0.0..30.0f64,
    ) {
        let ua: Vec<DynUtility> = a.iter().map(|g| Arc::clone(&g.0)).collect();
        let ub: Vec<DynUtility> = b.iter().map(|g| Arc::clone(&g.0)).collect();
        let mut reused = DemandTable::new();
        reused.compile(&ua);
        reused.compile(&ub);
        let mut fresh = DemandTable::new();
        fresh.compile(&ub);

        let mut out_reused = vec![0.0; ub.len()];
        let mut out_fresh = vec![0.0; ub.len()];
        reused.batch_inverse_derivative(&ub, lambda, &mut out_reused);
        fresh.batch_inverse_derivative(&ub, lambda, &mut out_fresh);
        for (x, y) in out_reused.iter().zip(&out_fresh) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(reused.all_discrete(), fresh.all_discrete());
        prop_assert_eq!(reused.ladder(), fresh.ladder());
    }
}
