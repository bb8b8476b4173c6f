//! `Utility::value_provably_finite` must never accept a curve that the
//! solvers' finite-utility probes would reject: the screen skips its
//! probe grid on the strength of the proof alone.
//!
//! PCHIP curves are drawn with hostile knots — values up to `f64::MAX`,
//! gaps down to `1e-300`, so slopes and `h·d` products overflow — and
//! whenever the proof accepts one, the screen's 16-point grid over
//! `[0, min(cap, C)]` at several capacities `C`, plus random points, must
//! all evaluate finite.

use aa_utility::{Pchip, Utility};
use proptest::prelude::*;

/// The screen's probe grid: 16 evenly spaced points over `[0, cap]`,
/// endpoints included.
fn probe_grid(cap: f64) -> impl Iterator<Item = f64> {
    let step = cap / 15.0;
    (0..16).map(move |k| if k == 15 { cap } else { step * k as f64 })
}

/// A magnitude spread over the whole exponent range: `10^e · m`.
fn magnitude() -> impl Strategy<Value = f64> {
    (-300..=307i32, 1.0..1.79f64).prop_map(|(e, m)| (m * 10f64.powi(e)).min(f64::MAX))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_proof_never_accepts_what_the_probes_reject(
        gaps in prop::collection::vec(magnitude(), 1..5),
        rises in prop::collection::vec((magnitude(), 0..4u8), 1..5),
        capacities in prop::collection::vec(0.0..=1.0f64, 3),
        points in prop::collection::vec(0.0..=1.0f64, 32),
    ) {
        let mut pts = vec![(0.0, 0.0)];
        let (mut x, mut y) = (0.0_f64, 0.0_f64);
        for (gap, (rise, flat)) in gaps.iter().zip(&rises) {
            x += gap;
            // A quarter of the segments are flat; the rest rise by a
            // hostile amount, saturating at f64::MAX.
            y = if *flat == 0 { y } else { (y + rise).min(f64::MAX) };
            pts.push((x, y));
        }
        let Ok(p) = Pchip::new(&pts) else { return Ok(()) };
        if !p.value_provably_finite() {
            return Ok(());
        }
        let cap = p.cap();
        prop_assert!(cap.is_finite());
        for c in capacities.iter().map(|f| f * cap).chain([cap, cap * 2.0]) {
            for probe in probe_grid(cap.min(c)) {
                let v = p.value(probe.clamp(0.0, c));
                prop_assert!(v.is_finite(), "proved finite, yet f({}) = {} (C = {})", probe, v, c);
            }
        }
        for f in &points {
            let v = p.value(f * cap);
            prop_assert!(v.is_finite(), "proved finite, yet f({}) = {}", f * cap, v);
        }
    }
}

/// The proof accepts the paper's curves and rejects an overflowing one.
#[test]
fn paper_curves_are_proved_and_overflowing_ones_are_not() {
    let paper = Pchip::new(&[(0.0, 0.0), (500.0, 80.0), (1000.0, 130.0)]).expect("valid");
    assert!(paper.value_provably_finite());
    let steep = Pchip::new(&[(0.0, 0.0), (1e-300, 1e300), (1.0, 1.5e300)]).expect("valid");
    assert!(!steep.value_provably_finite(), "its slope overflows");
    let huge = Pchip::new(&[(0.0, 0.0), (1.0, f64::MAX)]).expect("valid");
    assert!(!huge.value_provably_finite(), "its value exceeds the bound");
}
