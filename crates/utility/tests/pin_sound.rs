//! Property test: a pin is sound.
//!
//! [`pinned`] reads a utility's demand description and, when one
//! comparison branch decides a whole price bracket `[lo, hi]`, returns
//! the value that branch answers. The λ-search then skips the row at
//! every probe inside the bracket, so the pinned value must be exactly
//! the bits [`Utility::inverse_derivative`] returns at every price in
//! it. This suite checks that at the edges, one ulp inside each edge,
//! every branch price inside the bracket, and random interior prices,
//! over every family and wrapper: `pre_scale` (and a poisoned double
//! scale), `post_min`, `Offset`, opaque `Sum` and `Ceiling`, a staircase
//! level of `-0.0`, and a PCHIP whose end slope is negative. Brackets
//! are random, degenerate, one ulp wide, on a branch price, or have 0,
//! ±∞ or NaN edges; a NaN edge never pins.

use std::sync::Arc;

use aa_utility::demand::{pchip_inverse_derivative, pinned, staircase_demand};
use aa_utility::{
    CappedLinear, Ceiling, DemandSink, DynUtility, Linearized, LogUtility, Offset, Pchip,
    PiecewiseLinear, Power, Scaled, Sum, Utility,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `inner` with its demand capped by `post_min`, as a capping wrapper
/// describes it.
#[derive(Debug)]
struct Capped {
    inner: DynUtility,
    cap: f64,
}

impl Utility for Capped {
    fn value(&self, x: f64) -> f64 {
        self.inner.value(x.min(self.cap))
    }
    fn derivative(&self, x: f64) -> f64 {
        self.inner.derivative(x.min(self.cap))
    }
    fn cap(&self) -> f64 {
        self.cap
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        self.inner.inverse_derivative(lambda).min(self.cap)
    }
    fn describe_demand(&self, sink: &mut DemandSink<'_>) {
        self.inner.describe_demand(sink);
        sink.post_min(self.cap);
    }
}

/// A bare staircase demand map, levels as given (`-0.0` included).
/// Only the demand map is under test, so value and derivative are
/// placeholders.
#[derive(Debug)]
struct Stairs {
    thresholds: Vec<f64>,
    levels: Vec<f64>,
}

impl Utility for Stairs {
    fn value(&self, x: f64) -> f64 {
        x.clamp(0.0, self.cap())
    }
    fn derivative(&self, _x: f64) -> f64 {
        0.0
    }
    fn cap(&self) -> f64 {
        self.levels[self.levels.len() - 1]
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        staircase_demand(lambda, &self.thresholds, &self.levels)
    }
    fn describe_demand(&self, sink: &mut DemandSink<'_>) {
        sink.staircase(&self.thresholds, &self.levels);
    }
}

/// A PCHIP demand map on raw knots, so the knot slopes can be anything
/// (`Pchip::new` clips a negative end slope to zero).
#[derive(Debug)]
struct RawPchip {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ds: Vec<f64>,
}

impl Utility for RawPchip {
    fn value(&self, x: f64) -> f64 {
        x.clamp(0.0, self.cap())
    }
    fn derivative(&self, _x: f64) -> f64 {
        0.0
    }
    fn cap(&self) -> f64 {
        self.xs[self.xs.len() - 1]
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        pchip_inverse_derivative(lambda, &self.xs, &self.ys, &self.ds)
    }
    fn describe_demand(&self, sink: &mut DemandSink<'_>) {
        sink.pchip(&self.xs, &self.ys, &self.ds);
    }
}

/// One row under test: the utility, the prices where its demand map
/// switches branch, and whether its description must never pin.
#[derive(Debug, Clone)]
struct Row {
    u: DynUtility,
    knots: Vec<f64>,
    never_pins: bool,
}

fn row(u: impl Utility + 'static, knots: Vec<f64>) -> Row {
    Row {
        u: Arc::new(u),
        knots,
        never_pins: false,
    }
}

fn opaque(u: impl Utility + 'static) -> Row {
    Row {
        never_pins: true,
        ..row(u, Vec::new())
    }
}

fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        x
    } else if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// Breakpoints of a concave polyline from (width, slope) pairs.
fn concave_points(raw: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
    slopes.sort_by(|a, b| b.total_cmp(a));
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for (r, s) in raw.iter().zip(&slopes) {
        x += r.0;
        y += s * r.0;
        pts.push((x, y));
    }
    pts
}

/// A utility's right derivative at each of `xs`, and one ulp either
/// side: where a PCHIP or polyline demand map switches branch.
fn slopes_at(u: &dyn Utility, xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    xs.into_iter()
        .map(|x| u.derivative(x))
        .flat_map(|d| [next_down(d), d, next_up(d)])
        .collect()
}

fn family() -> impl Strategy<Value = Row> {
    prop_oneof![
        (0.1..20.0f64, 0.05..0.95f64, 1.0..50.0f64)
            .prop_map(|(s, b, c)| row(Power::new(s, b, c), vec![s * b])),
        (0.1..20.0f64, 1.0..50.0f64).prop_map(|(s, c)| row(Power::new(s, 1.0, c), vec![s])),
        (0.05..1.0f64, 1.0..50.0f64).prop_map(|(b, c)| row(Power::new(0.0, b, c), vec![])),
        (0.1..20.0f64, 0.05..5.0f64, 1.0..50.0f64)
            .prop_map(|(s, r, c)| row(LogUtility::new(s, r, c), vec![s * r])),
        (0.0..20.0f64, 1.0..50.0f64).prop_map(|(s, c)| row(LogUtility::new(s, 0.0, c), vec![])),
        (0.0..5.0f64, 1.0..50.0f64).prop_map(|(r, c)| row(LogUtility::new(0.0, r, c), vec![r])),
        (0.1..20.0f64, 0.5..10.0f64, 0.0..10.0f64).prop_map(|(s, knee, extra)| {
            row(CappedLinear::new(s, knee, knee + extra), vec![s, 0.0])
        }),
        prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5).prop_map(|raw| {
            let pts = concave_points(&raw);
            let u = PiecewiseLinear::new(&pts).expect("concave");
            let knots = slopes_at(&u, pts.iter().map(|p| p.0));
            row(u, knots)
        }),
        (0.0..10.0f64, 0.0..20.0f64, 0.1..10.0f64).prop_map(|(c_hat, v_hat, extra)| {
            let u = Linearized::new(c_hat, v_hat, c_hat + extra, 1.0);
            let knots = if c_hat > 0.0 {
                vec![v_hat / c_hat, 0.0]
            } else {
                vec![0.0]
            };
            row(u, knots)
        }),
        (
            0.5..20.0f64,
            prop::collection::vec((0.5..5.0f64, 0.2..0.9f64), 1..6)
        )
            .prop_map(|(first, steps)| {
                let mut slope = first;
                let mut pts = vec![(0.0, 0.0)];
                let (mut x, mut y) = (0.0, 0.0);
                for &(w, shrink) in &steps {
                    x += w;
                    y += slope * w;
                    pts.push((x, y));
                    slope *= shrink;
                }
                let u = Pchip::new(&pts).expect("concave samples");
                let knots = slopes_at(&u, pts.iter().map(|p| p.0));
                row(u, knots)
            }),
        // Knot slopes falling to a negative end slope.
        (
            prop::collection::vec((0.5..5.0f64, 0.0..3.0f64, 0.0..3.0f64), 1..5),
            0.01..3.0f64
        )
            .prop_map(|(raw, below)| {
                let (mut xs, mut ys, mut ds) = (vec![0.0], vec![0.0], Vec::new());
                let mut d = raw.iter().map(|r| r.2).sum::<f64>() + 0.5;
                for &(w, rise, drop) in &raw {
                    xs.push(xs[xs.len() - 1] + w);
                    ys.push(ys[ys.len() - 1] + rise);
                    ds.push(d);
                    d -= drop;
                }
                ds.push(-below);
                let knots = ds.clone();
                row(RawPchip { xs, ys, ds }, knots)
            }),
        // A step whose low level is the signed zero.
        (0.1..20.0f64, 1.0..10.0f64).prop_map(|(p, c)| {
            row(
                Stairs {
                    thresholds: vec![p],
                    levels: vec![-0.0, c],
                },
                vec![p],
            )
        }),
        prop::collection::vec((0.0..10.0f64, 0.0..5.0f64), 1..5).prop_map(|raw| {
            let mut thresholds: Vec<f64> = raw.iter().map(|r| r.0).collect();
            thresholds.sort_by(|a, b| b.total_cmp(a));
            let mut levels = vec![-0.0];
            for r in &raw {
                levels.push(levels[levels.len() - 1] + r.1);
            }
            let knots = thresholds.clone();
            row(Stairs { thresholds, levels }, knots)
        }),
        (0.1..10.0f64, 0.05..0.95f64, 0.1..5.0f64).prop_map(|(s, b, r)| {
            opaque(Sum::new(
                Power::new(s, b, 20.0),
                LogUtility::new(s, r, 20.0),
            ))
        }),
        (0.1..10.0f64, 1.0..8.0f64)
            .prop_map(|(s, ceil)| opaque(Ceiling::new(LogUtility::new(s, 1.0, 20.0), ceil))),
    ]
}

/// A family row under up to two wrappers, each drawn from: `Scaled`
/// (weight 0 one time in four), `Offset`, a `post_min` cap, or none.
/// `Scaled` of a positively `Scaled` row registers two divisors and
/// must never pin.
fn wrapped() -> impl Strategy<Value = Row> {
    let layer = (0..5u8, 0..4u8, 0.01..10.0f64, 0.0..30.0f64);
    (family(), layer.clone(), layer).prop_map(|(mut r, outer, inner)| {
        let mut scaled = false;
        for (kind, zero, w, cap) in [inner, outer] {
            r = match kind {
                0 => {
                    let w = if zero == 0 { 0.0 } else { w };
                    let knots = if w == 0.0 {
                        vec![0.0]
                    } else {
                        r.knots
                            .iter()
                            .flat_map(|k| [next_down(k * w), k * w, next_up(k * w)])
                            .collect()
                    };
                    // Weight 0 describes its own step and ignores the inner row.
                    let never_pins = w > 0.0 && (r.never_pins || scaled);
                    scaled = w > 0.0;
                    Row {
                        u: Arc::new(Scaled::new(r.u, w)),
                        knots,
                        never_pins,
                    }
                }
                1 => Row {
                    u: Arc::new(Offset::new(r.u, cap)),
                    ..r
                },
                2 => Row {
                    u: Arc::new(Capped { inner: r.u, cap }),
                    ..r
                },
                _ => r,
            };
        }
        r
    })
}

/// The bracket kinds the search and its edge cases produce, drawn over
/// a row's branch prices.
fn bracket(rng: &mut StdRng, knots: &[f64]) -> (f64, f64) {
    const SPECIAL: [f64; 6] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0];
    let price = |rng: &mut StdRng| -> f64 {
        match rng.gen_range(0..4u8) {
            0 if !knots.is_empty() => knots[rng.gen_range(0..knots.len())],
            1 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            _ => 10f64.powf(rng.gen_range(-6.0..3.0)),
        }
    };
    let (a, b) = match rng.gen_range(0..4u8) {
        // Degenerate.
        0 => {
            let x = price(rng);
            (x, x)
        }
        // One ulp wide.
        1 => {
            let x = price(rng);
            (x, next_up(x))
        }
        // Random positive.
        2 => {
            let lo = 10f64.powf(rng.gen_range(-6.0..3.0));
            (lo, lo * (1.0 + 10f64.powf(rng.gen_range(-12.0..1.0))))
        }
        _ => (price(rng), price(rng)),
    };
    if a <= b {
        (a, b)
    } else if b < a {
        (b, a)
    } else {
        (a, b) // a NaN edge: order is moot
    }
}

/// A price in `[lo, hi]` at fraction `t`, infinite edges standing in
/// as the largest finite float.
fn interior(lo: f64, hi: f64, t: f64) -> f64 {
    let (l, h) = (lo.clamp(-f64::MAX, f64::MAX), hi.clamp(-f64::MAX, f64::MAX));
    (l * (1.0 - t) + h * t).clamp(lo, hi)
}

fn check_row(r: &Row, rng: &mut StdRng) -> Result<(), String> {
    for _ in 0..48 {
        let (lo, hi) = bracket(rng, &r.knots);
        let pin = pinned(&r.u, lo, hi);
        if lo.is_nan() || hi.is_nan() {
            prop_assert!(pin.is_none(), "{:?} pinned {pin:?} on [{lo}, {hi}]", r.u);
            continue;
        }
        if r.never_pins {
            prop_assert!(pin.is_none(), "{:?} pinned {pin:?} on [{lo}, {hi}]", r.u);
            continue;
        }
        let Some(v) = pin else { continue };
        let mut prices = vec![lo, hi, next_up(lo), next_down(hi)];
        prices.extend(r.knots.iter().copied());
        prices.extend((0..16).map(|_| interior(lo, hi, rng.gen::<f64>())));
        for x in prices.into_iter().filter(|&x| lo <= x && x <= hi) {
            let d = r.u.inverse_derivative(x);
            prop_assert!(
                d.to_bits() == v.to_bits(),
                "{:?} pinned {v:?} on [{lo:e}, {hi:e}] but answers {d:?} at {x:e}",
                r.u
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_pinned_value_is_the_demand_at_every_price_in_the_bracket(
        rows in prop::collection::vec(wrapped(), 1..6),
        seed in 0..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for r in &rows {
            check_row(r, &mut rng)?;
        }
    }
}

/// The property above holds vacuously if nothing pins; each family must
/// pin where one branch decides the bracket.
#[test]
fn every_family_pins_where_one_branch_decides() {
    let cases: Vec<(DynUtility, (f64, f64), f64)> = vec![
        (Arc::new(Power::new(2.0, 0.5, 10.0)), (-1.0, 0.0), 10.0),
        (Arc::new(Power::new(2.0, 1.0, 10.0)), (0.5, 2.0), 10.0),
        (
            Arc::new(Power::new(2.0, 1.0, 10.0)),
            (3.0, f64::INFINITY),
            0.0,
        ),
        (Arc::new(Power::new(0.0, 0.5, 10.0)), (1.0, 2.0), 0.0),
        (Arc::new(LogUtility::new(0.0, 1.0, 10.0)), (1.0, 2.0), 0.0),
        (Arc::new(CappedLinear::new(2.0, 3.0, 10.0)), (0.5, 2.0), 3.0),
        (Arc::new(CappedLinear::new(2.0, 3.0, 10.0)), (2.5, 9.0), 0.0),
        (
            Arc::new(Pchip::new(&[(0.0, 0.0), (5.0, 4.0), (10.0, 6.0)]).unwrap()),
            (9.0, 9.5),
            0.0,
        ),
        (
            Arc::new(Scaled::new(CappedLinear::new(2.0, 3.0, 10.0), 2.0)),
            (4.5, 5.0),
            0.0,
        ),
        (
            Arc::new(Capped {
                inner: Arc::new(Power::new(1.0, 0.5, 10.0)),
                cap: 4.0,
            }),
            (-2.0, -1.0),
            4.0,
        ),
        (
            Arc::new(Stairs {
                thresholds: vec![1.0],
                levels: vec![-0.0, 3.0],
            }),
            (2.0, 3.0),
            -0.0,
        ),
    ];
    for (u, (lo, hi), want) in cases {
        let got = pinned(&u, lo, hi);
        assert_eq!(
            got.map(f64::to_bits),
            Some(want.to_bits()),
            "{u:?} on [{lo}, {hi}]"
        );
    }
}
