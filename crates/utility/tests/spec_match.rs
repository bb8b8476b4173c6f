//! `Utility::matches_spec`: a built function matches exactly the spec
//! that built it, bit for bit, in every one of the six spec families.
//!
//! Reuse across requests ([`UtilitySpec::build_reusing`]) is sound only
//! if a match means "a fresh build would make this very function", so
//! the negative side matters as much: one ulp on any field, `-0.0` for
//! `0.0`, another family with the same numbers, or a knot more or less
//! must all miss.

use std::sync::Arc;

use aa_utility::{Utility, UtilitySpec};
use proptest::prelude::*;

/// A nonnegative draw that is exactly `0.0` about one time in six, so
/// the `-0.0` mutation has fields to act on.
fn nonneg(hi: f64) -> BoxedStrategy<f64> {
    prop_oneof![Just(0.0), 0.0..hi, 0.0..hi, 0.0..hi, 0.0..hi, 0.0..hi].boxed()
}

/// `(x, y)` knots from `x = 0` with increasing `x`, nondecreasing `y`
/// and nonincreasing slopes: valid for both `Piecewise` and `Pchip`.
fn concave_points() -> BoxedStrategy<Vec<(f64, f64)>> {
    (
        nonneg(5.0),
        prop::collection::vec((0.1..10.0f64, 0.0..1.0f64), 1..6usize),
        0.0..4.0f64,
    )
        .prop_map(|(y0, steps, slope0)| {
            let mut points = vec![(0.0, y0)];
            let (mut x, mut y, mut slope) = (0.0, y0, slope0);
            for (dx, shrink) in steps {
                slope *= shrink;
                x += dx;
                y += slope * dx;
                points.push((x, y));
            }
            points
        })
        .boxed()
}

/// Any valid spec of the six families.
fn valid_spec() -> BoxedStrategy<UtilitySpec> {
    prop_oneof![
        (nonneg(50.0), prop_oneof![Just(1.0), 0.01..1.0f64], nonneg(1000.0))
            .prop_map(|(scale, beta, cap)| UtilitySpec::Power { scale, beta, cap }),
        (nonneg(50.0), nonneg(10.0), nonneg(1000.0))
            .prop_map(|(scale, rate, cap)| UtilitySpec::Log { scale, rate, cap }),
        (nonneg(20.0), nonneg(1.0), 0.0..1000.0f64).prop_map(|(slope, frac, cap)| {
            UtilitySpec::CappedLinear { slope, knee: frac * cap, cap }
        }),
        concave_points().prop_map(|points| UtilitySpec::Piecewise { points }),
        concave_points().prop_map(|points| UtilitySpec::Pchip { points }),
        (nonneg(1.0), nonneg(40.0), 0.0..1000.0f64, nonneg(5.0)).prop_map(
            |(frac, v_hat, cap, floor)| UtilitySpec::Linearized {
                c_hat: frac * cap,
                v_hat,
                cap,
                floor,
            }
        ),
    ]
    .boxed()
}

/// Every number a spec holds, in field order (knots as `x, y` pairs).
fn fields(spec: &UtilitySpec) -> Vec<f64> {
    match *spec {
        UtilitySpec::Power { scale, beta, cap } => vec![scale, beta, cap],
        UtilitySpec::Log { scale, rate, cap } => vec![scale, rate, cap],
        UtilitySpec::CappedLinear { slope, knee, cap } => vec![slope, knee, cap],
        UtilitySpec::Piecewise { ref points } | UtilitySpec::Pchip { ref points } => {
            points.iter().flat_map(|&(x, y)| [x, y]).collect()
        }
        UtilitySpec::Linearized { c_hat, v_hat, cap, floor } => vec![c_hat, v_hat, cap, floor],
    }
}

/// `spec`'s family with its numbers replaced by `v` (same length).
fn with_fields(spec: &UtilitySpec, v: &[f64]) -> UtilitySpec {
    let points = || v.chunks(2).map(|p| (p[0], p[1])).collect();
    match spec {
        UtilitySpec::Power { .. } => UtilitySpec::Power { scale: v[0], beta: v[1], cap: v[2] },
        UtilitySpec::Log { .. } => UtilitySpec::Log { scale: v[0], rate: v[1], cap: v[2] },
        UtilitySpec::CappedLinear { .. } => {
            UtilitySpec::CappedLinear { slope: v[0], knee: v[1], cap: v[2] }
        }
        UtilitySpec::Piecewise { .. } => UtilitySpec::Piecewise { points: points() },
        UtilitySpec::Pchip { .. } => UtilitySpec::Pchip { points: points() },
        UtilitySpec::Linearized { .. } => {
            UtilitySpec::Linearized { c_hat: v[0], v_hat: v[1], cap: v[2], floor: v[3] }
        }
    }
}

/// The same numbers read as each of the other five families.
fn other_kinds(spec: &UtilitySpec) -> Vec<UtilitySpec> {
    let v = fields(spec);
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
    let points = match spec {
        UtilitySpec::Piecewise { points } | UtilitySpec::Pchip { points } => points.clone(),
        _ => vec![(0.0, at(0)), (at(2), at(1))],
    };
    [
        UtilitySpec::Power { scale: at(0), beta: at(1), cap: at(2) },
        UtilitySpec::Log { scale: at(0), rate: at(1), cap: at(2) },
        UtilitySpec::CappedLinear { slope: at(0), knee: at(1), cap: at(2) },
        UtilitySpec::Piecewise { points: points.clone() },
        UtilitySpec::Pchip { points },
        UtilitySpec::Linearized { c_hat: at(0), v_hat: at(1), cap: at(2), floor: at(3) },
    ]
    .into_iter()
    .filter(|other| std::mem::discriminant(other) != std::mem::discriminant(spec))
    .collect()
}

/// One ulp above and below a nonnegative finite `x` (`f64::next_up` and
/// `next_down` are newer than the workspace's minimum Rust version).
fn one_ulp_either_side(x: f64) -> [f64; 2] {
    let bits = x.to_bits();
    let down = if bits == 0 { -f64::from_bits(1) } else { f64::from_bits(bits - 1) };
    [f64::from_bits(bits + 1), down]
}

/// Every near miss of `spec`: one ulp up and down on each field, `-0.0`
/// for each `0.0`, and for knot families one knot more and one fewer.
fn near_misses(spec: &UtilitySpec) -> Vec<UtilitySpec> {
    let v = fields(spec);
    let mut out = Vec::new();
    for i in 0..v.len() {
        let mut changed = |x: f64| {
            let mut w = v.clone();
            w[i] = x;
            out.push(with_fields(spec, &w));
        };
        for x in one_ulp_either_side(v[i]) {
            changed(x);
        }
        if v[i].to_bits() == 0.0f64.to_bits() {
            changed(-0.0);
        }
    }
    if let UtilitySpec::Piecewise { points } | UtilitySpec::Pchip { points } = spec {
        let last = points[points.len() - 1];
        let mut more = fields(spec);
        more.extend([last.0 + 1.0, last.1]);
        out.push(with_fields(spec, &more));
        let fewer = &v[..v.len() - 2];
        out.push(with_fields(spec, fewer));
    }
    out.extend(other_kinds(spec));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_build_matches_its_own_spec_and_nothing_near_it(spec in valid_spec()) {
        let built = spec.build().map_err(|e| format!("{spec:?} must be valid: {e}"))?;
        prop_assert!(built.matches_spec(&spec), "{:?} does not match its own build", spec);
        prop_assert!(Arc::ptr_eq(&spec.build_reusing(Some(&built)).unwrap(), &built));
        for miss in near_misses(&spec) {
            prop_assert!(!built.matches_spec(&miss), "build of {:?} matches {:?}", spec, miss);
            if let Ok(fresh) = miss.build_reusing(Some(&built)) {
                prop_assert!(!Arc::ptr_eq(&fresh, &built), "{:?} reused {:?}", miss, spec);
            }
        }
    }
}

/// Functions outside the six spec families never match: the default
/// declines, so a wrapper is always rebuilt.
#[test]
fn wrappers_never_match() {
    let spec = UtilitySpec::Power { scale: 2.0, beta: 0.5, cap: 10.0 };
    let inner = spec.build().unwrap();
    let scaled = aa_utility::Scaled::new(inner.clone(), 1.0);
    assert!(inner.matches_spec(&spec));
    assert!(!scaled.matches_spec(&spec));
}
