//! Differential proptest for the λ-search's live rows.
//!
//! A probe inside a bracket ([`sweep_inside`]) skips every row whose
//! kernel answers one constant across the bracket, writing that value
//! into all three search buffers once. Its contract is a full
//! [`sweep`]'s, bit for bit: the same value in every slot of every
//! buffer and the same index-order sum — signed zeros included. This
//! suite walks random brackets down over random tables covering every
//! kernel family and transform (power with β = 1 and scale 0, log with a
//! zero rate or scale, staircases, PCHIP, opaque rows, `pre_scale`
//! weights and `post_min` caps, a staircase level of `-0.0`), moving an
//! edge after each probe the way the search does, and compares every
//! buffer and sum with full sweeps at the same prices.

use std::sync::Arc;

use aa_allocator::bisection::{sweep, sweep_inside, Bracket, Demands, Fan, LiveRows, Market};
use aa_utility::demand::DemandSink;
use aa_utility::{
    CappedLinear, Ceiling, DemandTable, DynUtility, Linearized, LogUtility, Pchip, PiecewiseLinear,
    Power, Scaled, Utility,
};
use proptest::prelude::*;

/// `inner` capped at `cap` after the fact: the `post_min` lane (the
/// shape of the core crate's per-thread capped views).
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

/// A two-step staircase whose low level is `-0.0`: a row that pins at a
/// signed zero, which the probe must still add.
#[derive(Debug)]
struct NegativeZeroStep {
    price: f64,
    cap: f64,
}

impl Utility for NegativeZeroStep {
    fn value(&self, x: f64) -> f64 {
        self.price * x.clamp(0.0, self.cap)
    }
    fn derivative(&self, _x: f64) -> f64 {
        self.price
    }
    fn cap(&self) -> f64 {
        self.cap
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        if self.price >= lambda {
            self.cap
        } else {
            -0.0
        }
    }
    fn describe_demand(&self, sink: &mut DemandSink<'_>) {
        sink.staircase(&[self.price], &[-0.0, self.cap]);
    }
}

/// Monotone concave PCHIP samples: increasing x, shrinking slopes.
fn pchip_from(first: f64, steps: &[(f64, f64)]) -> Pchip {
    let mut slope = first;
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for &(w, shrink) in steps {
        x += w;
        y += slope * w;
        pts.push((x, y));
        slope *= shrink;
    }
    Pchip::new(&pts).expect("concave samples")
}

fn family() -> impl Strategy<Value = DynUtility> {
    let base = prop_oneof![
        (0.1..20.0f64, 0.05..0.95f64, 1.0..50.0f64)
            .prop_map(|(s, b, c)| Arc::new(Power::new(s, b, c)) as DynUtility),
        // β = 1: all-or-nothing at the slope.
        (0.1..20.0f64, 1.0..50.0f64)
            .prop_map(|(s, c)| Arc::new(Power::new(s, 1.0, c)) as DynUtility),
        // Scale 0: demand 0 at every positive price.
        (0.05..1.0f64, 1.0..50.0f64)
            .prop_map(|(b, c)| Arc::new(Power::new(0.0, b, c)) as DynUtility),
        (0.1..20.0f64, 0.05..5.0f64, 1.0..50.0f64)
            .prop_map(|(s, r, c)| Arc::new(LogUtility::new(s, r, c)) as DynUtility),
        (0.0..20.0f64, 1.0..50.0f64)
            .prop_map(|(s, c)| Arc::new(LogUtility::new(s, 0.0, c)) as DynUtility),
        (0.0..5.0f64, 1.0..50.0f64)
            .prop_map(|(r, c)| Arc::new(LogUtility::new(0.0, r, c)) as DynUtility),
        (0.1..20.0f64, 0.5..10.0f64, 0.0..10.0f64)
            .prop_map(
                |(s, knee, extra)| Arc::new(CappedLinear::new(s, knee, knee + extra)) as DynUtility
            ),
        prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5).prop_map(|raw| {
            let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
            slopes.sort_by(|a, b| b.total_cmp(a));
            let mut pts = vec![(0.0, 0.0)];
            let (mut x, mut y) = (0.0, 0.0);
            for (r, s) in raw.iter().zip(&slopes) {
                x += r.0;
                y += s * r.0;
                pts.push((x, y));
            }
            Arc::new(PiecewiseLinear::new(&pts).expect("concave")) as DynUtility
        }),
        (0.0..10.0f64, 0.0..20.0f64, 0.1..10.0f64).prop_map(|(c_hat, v_hat, extra)| {
            Arc::new(Linearized::new(c_hat, v_hat, c_hat + extra, 1.0)) as DynUtility
        }),
        (
            0.5..20.0f64,
            prop::collection::vec((0.5..5.0f64, 0.2..0.9f64), 1..6)
        )
            .prop_map(|(first, steps)| Arc::new(pchip_from(first, &steps)) as DynUtility),
        // Opaque: no closed form, never pinned.
        (0.1..10.0f64, 1.0..8.0f64).prop_map(|(s, ceil)| Arc::new(Ceiling::new(
            LogUtility::new(s, 1.0, 20.0),
            ceil
        )) as DynUtility),
        (0.1..20.0f64, 1.0..10.0f64)
            .prop_map(|(p, c)| Arc::new(NegativeZeroStep { price: p, cap: c }) as DynUtility),
    ];
    // Each row optionally (one time in three each) under a `pre_scale`
    // weight, then a `post_min` cap.
    (base, 0..3u8, 0.0..4.0f64, 0..3u8, 0.0..30.0f64).prop_map(|(u, scaled, w, capped, cap)| {
        let u = if scaled == 0 {
            Arc::new(Scaled::new(u, w)) as DynUtility
        } else {
            u
        };
        if capped == 0 {
            Arc::new(Capped { inner: u, cap }) as DynUtility
        } else {
            u
        }
    })
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: row {}: {} vs {}",
            what,
            k,
            a,
            b
        );
    }
    Ok(())
}

/// A search's three buffers and live rows, kept across walks.
struct Search {
    lo: Vec<f64>,
    hi: Vec<f64>,
    probe: Vec<f64>,
    live: LiveRows,
}

impl Search {
    /// Fresh buffers, the probe buffer holding a sweep at `stale`
    /// (outside any bracket walked), as a search's scratch does after
    /// its walk.
    fn new<U: Utility>(m: &Market<'_, U>, stale: f64) -> Self {
        let mut probe = Vec::new();
        sweep(m, stale, &mut probe).expect("no token");
        Search {
            lo: Vec::new(),
            hi: Vec::new(),
            probe,
            live: LiveRows::default(),
        }
    }
}

/// Sweep both edges of `[lo, hi]` into `s`, then walk the bracket down
/// through `steps` probes (each at a fraction of the current bracket,
/// moving the edge `moves` says, as the search swaps its buffers),
/// checking every probe against full sweeps. Returns the final bracket.
fn walk<U: Utility>(
    m: &Market<'_, U>,
    s: &mut Search,
    (lo, hi): (f64, f64),
    steps: &[(f64, bool)],
    rows: &mut u64,
) -> Result<Bracket, String> {
    let (mut want_lo, mut want_hi, mut want_probe) = (Vec::new(), Vec::new(), Vec::new());
    sweep(m, lo, &mut s.lo).expect("no token");
    sweep(m, hi, &mut s.hi).expect("no token");
    sweep(m, lo, &mut want_lo).expect("no token");
    sweep(m, hi, &mut want_hi).expect("no token");
    let mut bracket = Bracket { lo, hi };
    for &(at, moves_lo) in steps {
        let lambda = bracket.lo + at * (bracket.hi - bracket.lo);
        let mut d = Demands {
            lo: &mut s.lo,
            hi: &mut s.hi,
            probe: &mut s.probe,
            live: &mut s.live,
        };
        let got = sweep_inside(m, lambda, bracket, &mut d, rows).expect("no token");
        let want = sweep(m, lambda, &mut want_probe).expect("no token");
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "sum at λ = {}: {} vs {}",
            lambda,
            got,
            want
        );
        assert_bits("probe", &s.probe, &want_probe)?;
        assert_bits("low edge", &s.lo, &want_lo)?;
        assert_bits("high edge", &s.hi, &want_hi)?;
        if moves_lo {
            bracket.lo = lambda;
            std::mem::swap(&mut s.lo, &mut s.probe);
            std::mem::swap(&mut want_lo, &mut want_probe);
        } else {
            bracket.hi = lambda;
            std::mem::swap(&mut s.hi, &mut s.probe);
            std::mem::swap(&mut want_hi, &mut want_probe);
        }
    }
    Ok(bracket)
}

fn market<'a, U>(table: &'a DemandTable, utils: &'a [U], fan: Fan<'a>) -> Market<'a, U> {
    Market {
        table,
        utils,
        rows: None,
        fan,
        supply: 0.0,
        total_cap: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn live_probes_write_and_sum_what_full_sweeps_do(
        utils in prop::collection::vec(family(), 1..24),
        first in (1e-3..30.0f64, 0.0..30.0f64, 0.0..=1.0f64),
        second in (0..2u8, 0.0..=1.0f64, 0.0..=1.0f64, 1e-3..30.0f64, 0.0..30.0f64),
        steps in prop::collection::vec((0.0..=1.0f64, 0..2u8), 1..24),
    ) {
        let steps: Vec<(f64, bool)> = steps.into_iter().map(|(at, edge)| (at, edge == 0)).collect();
        let mut table = DemandTable::new();
        table.compile(&utils);
        let m = market(&table, &utils, Fan::Seq);
        let (lo, width, stale) = first;
        let stale = if stale < 0.5 { lo * stale } else { lo + width + stale * 30.0 };
        let mut s = Search::new(&m, stale);
        let end = walk(&m, &mut s, (lo, lo + width), &steps, &mut 0)?;
        // A second walk through the same buffers and list, as the cold
        // search's halving resumes after a stalled close: from a bracket
        // inside the last one the pins carry over; from any other the
        // list starts over.
        let (inside, a, b, lo, width) = second;
        let next = if inside == 0 {
            let (x, y) = (end.lo + a * (end.hi - end.lo), end.lo + b * (end.hi - end.lo));
            (x.min(y), x.max(y))
        } else {
            (lo, lo + width)
        };
        walk(&m, &mut s, next, &steps, &mut 0)?;
    }
}

/// Every row pinned at `+0.0`: the probe evaluates and adds nothing, yet
/// returns the full sweep's `+0.0`, not the empty sum's `-0.0`.
#[test]
fn an_all_zero_probe_sums_to_positive_zero() {
    let utils: Vec<DynUtility> = vec![
        Arc::new(Power::new(0.0, 0.5, 10.0)),
        Arc::new(CappedLinear::new(1.0, 2.0, 4.0)),
        Arc::new(pchip_from(3.0, &[(1.0, 0.5), (2.0, 0.5)])),
    ];
    let mut table = DemandTable::new();
    table.compile(&utils);
    let m = market(&table, &utils, Fan::Seq);
    let mut s = Search::new(&m, 0.5);
    let mut rows = 0;
    walk(
        &m,
        &mut s,
        (5.0, 9.0),
        &[(0.5, true), (0.5, false)],
        &mut rows,
    )
    .expect("identical to full sweeps");
    assert_eq!(rows, 0, "every row is pinned across [5, 9]");
    let mut d = Demands {
        lo: &mut s.lo,
        hi: &mut s.hi,
        probe: &mut s.probe,
        live: &mut s.live,
    };
    let sum =
        sweep_inside(&m, 6.5, Bracket { lo: 6.0, hi: 7.0 }, &mut d, &mut rows).expect("no token");
    assert_eq!(sum.to_bits(), 0.0_f64.to_bits());
}

/// Over the pool the live list is split at position boundaries; every
/// pool width must give the sequential answer.
#[test]
fn pooled_live_probes_match_at_every_width() {
    let n = aa_allocator::par_threshold() * 2 + 17;
    let utils: Vec<DynUtility> = (0..n)
        .map(|i| {
            let s = 0.5 + (i % 23) as f64 * 0.2;
            match i % 4 {
                0 => Arc::new(pchip_from(s, &[(2.0, 0.6), (3.0, 0.5)])) as DynUtility,
                1 => Arc::new(CappedLinear::new(s, 3.0, 5.0)),
                2 => Arc::new(Power::new(s, 1.0, 4.0)),
                _ => Arc::new(LogUtility::new(s, 0.5, 6.0)),
            }
        })
        .collect();
    let mut table = DemandTable::new();
    table.compile(&utils);
    let steps = [
        (0.3, true),
        (0.6, false),
        (0.5, true),
        (0.2, false),
        (0.7, true),
    ];
    for threads in [1, 2, 4] {
        rayon::with_threads(threads, || {
            let m = market(&table, &utils, Fan::Pool(None));
            let mut s = Search::new(&m, 0.1);
            walk(&m, &mut s, (0.4, 4.0), &steps, &mut 0)
        })
        .expect("identical to full sweeps");
    }
}
