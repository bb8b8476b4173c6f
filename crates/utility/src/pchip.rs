//! Monotone piecewise-cubic Hermite interpolation (PCHIP).
//!
//! The paper's workload generator (Section VII) builds each random utility
//! by interpolating three control points with Matlab's `pchip`. This module
//! is a from-scratch implementation of the same method — the
//! Fritsch–Carlson shape-preserving slope selection Matlab documents —
//! so the reproduction does not depend on Matlab.
//!
//! Shape guarantees: PCHIP through nondecreasing data is *monotone* by
//! construction. It is not automatically concave for arbitrary data; the
//! workload generator draws control points whose polygon is concave
//! (`w ≤ v` conditioning) and verifies the interpolant with
//! [`check`](crate::check), falling back to the piecewise-linear
//! interpolant on the rare numerically-degenerate draw.

use serde::{Deserialize, Serialize};

use crate::spec::{same_points, UtilitySpec};
use crate::traits::{clamp_domain, Utility};

/// Error raised for data PCHIP cannot interpolate as a utility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PchipError {
    /// Fewer than two points.
    TooFewPoints,
    /// x-coordinates not strictly increasing.
    NonIncreasingX,
    /// First x is not 0 (utility domain starts at zero).
    DomainMustStartAtZero,
    /// y decreases somewhere (utilities are nondecreasing).
    Decreasing,
    /// A negative y-value.
    NegativeValue,
    /// NaN/∞ in the data.
    NonFinite,
}

impl std::fmt::Display for PchipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PchipError::TooFewPoints => "need at least two points",
            PchipError::NonIncreasingX => "x-coordinates must strictly increase",
            PchipError::DomainMustStartAtZero => "domain must start at x = 0",
            PchipError::Decreasing => "data must be nondecreasing",
            PchipError::NegativeValue => "data must be nonnegative",
            PchipError::NonFinite => "data must be finite",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for PchipError {}

/// A monotone cubic Hermite interpolant through `(x_i, y_i)` control
/// points, with Fritsch–Carlson derivative selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pchip {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Endpoint derivatives selected per Fritsch–Carlson; len = xs.len().
    ds: Vec<f64>,
}

impl Pchip {
    /// Interpolate the given control points (strictly increasing `x`
    /// starting at 0, nonnegative nondecreasing `y`).
    pub fn new(points: &[(f64, f64)]) -> Result<Self, PchipError> {
        if points.len() < 2 {
            return Err(PchipError::TooFewPoints);
        }
        if points.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(PchipError::NonFinite);
        }
        if points[0].0 != 0.0 {
            return Err(PchipError::DomainMustStartAtZero);
        }
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        if ys.iter().any(|&y| y < 0.0) {
            return Err(PchipError::NegativeValue);
        }
        for w in xs.windows(2) {
            if w[1] <= w[0] {
                return Err(PchipError::NonIncreasingX);
            }
        }
        for w in ys.windows(2) {
            if w[1] < w[0] {
                return Err(PchipError::Decreasing);
            }
        }
        let ds = fritsch_carlson_slopes(&xs, &ys);
        Ok(Pchip { xs, ys, ds })
    }

    /// Control-point x-coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Control-point y-values.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    fn segment_of(&self, x: f64) -> usize {
        let idx = self.xs.partition_point(|&bx| bx <= x);
        idx.saturating_sub(1).min(self.xs.len() - 2)
    }
}

/// Matlab-compatible PCHIP slope selection (Fritsch–Carlson with the
/// three-point endpoint formula).
fn fritsch_carlson_slopes(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    let n = xs.len();
    // Interval widths and secants, computed where they are used.
    let h = |i: usize| xs[i + 1] - xs[i];
    let delta = |i: usize| (ys[i + 1] - ys[i]) / h(i);
    if n == 2 {
        return vec![delta(0), delta(0)];
    }
    let mut d = vec![0.0; n];
    // Interior points: weighted harmonic mean where both secants are
    // positive; zero where either vanishes (flat spot) — this is what
    // preserves monotonicity. The left interval's width and secant
    // carry over from the previous point.
    let (mut h0, mut d0) = (h(0), delta(0));
    for (i, slope) in (1..).zip(&mut d[1..n - 1]) {
        let (h1, d1) = (h(i), delta(i));
        if d0 <= 0.0 || d1 <= 0.0 {
            *slope = 0.0;
        } else {
            let w1 = 2.0 * h1 + h0;
            let w2 = h1 + 2.0 * h0;
            *slope = (w1 + w2) / (w1 / d0 + w2 / d1);
        }
        (h0, d0) = (h1, d1);
    }
    d[0] = endpoint_slope(h(0), h(1), delta(0), delta(1));
    // n ≥ 3 here (n == 2 returned above), so n − 3 is a valid secant index.
    d[n - 1] = endpoint_slope(h(n - 2), h(n - 3), delta(n - 2), delta(n - 3));
    d
}

/// The shape-preserving three-point endpoint derivative Matlab's `pchip`
/// uses: a non-centered difference, clipped so monotonicity is kept.
fn endpoint_slope(h0: f64, h1: f64, delta0: f64, delta1: f64) -> f64 {
    let mut d = ((2.0 * h0 + h1) * delta0 - h0 * delta1) / (h0 + h1);
    if d * delta0 <= 0.0 {
        d = 0.0;
    } else if delta0 * delta1 <= 0.0 && d.abs() > 3.0 * delta0.abs() {
        d = 3.0 * delta0;
    }
    d
}

impl Utility for Pchip {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap());
        let s = self.segment_of(x);
        let h = self.xs[s + 1] - self.xs[s];
        let t = (x - self.xs[s]) / h;
        let (t2, t3) = (t * t, t * t * t);
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        self.ys[s] * h00 + h * self.ds[s] * h10 + self.ys[s + 1] * h01 + h * self.ds[s + 1] * h11
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap());
        let s = self.segment_of(x);
        let h = self.xs[s + 1] - self.xs[s];
        let t = (x - self.xs[s]) / h;
        let t2 = t * t;
        let dh00 = 6.0 * t2 - 6.0 * t;
        let dh10 = 3.0 * t2 - 4.0 * t + 1.0;
        let dh01 = -6.0 * t2 + 6.0 * t;
        let dh11 = 3.0 * t2 - 2.0 * t;
        (self.ys[s] * dh00 + h * self.ds[s] * dh10 + self.ys[s + 1] * dh01
            + h * self.ds[s + 1] * dh11)
            / h
    }

    fn cap(&self) -> f64 {
        *self.xs.last().expect("validated: at least 2 points")
    }

    fn max_value(&self) -> f64 {
        // PCHIP through nondecreasing data is monotone, so the maximum is
        // at the right endpoint.
        *self.ys.last().expect("validated: at least 2 points")
    }

    // The derivative of a cubic segment is a quadratic in the local
    // coordinate, so the demand query inverts it in closed form instead of
    // bisecting `derivative` ~40 times. The scalar body lives in
    // `crate::demand`, beside the pin rules that read the same branches.
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        crate::demand::pchip_inverse_derivative(lambda, &self.xs, &self.ys, &self.ds)
    }

    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.pchip(&self.xs, &self.ys, &self.ds);
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(spec, UtilitySpec::Pchip { points } if same_points(&self.xs, &self.ys, points))
    }

    // `value` clamps x into [0, cap] and finds the segment with
    // xs[s] ≤ x ≤ xs[s+1], so t = (x − xs[s])/h lies in [0, 1] (rounding
    // is monotone) and each computed basis value lies within ±3. Its
    // four terms are y·basis and (h·d)·basis, so when every |y| and
    // every |h·d| — computed as `value` computes them — is at most
    // f64::MAX/16, the sum stays within 3/4 of f64::MAX: finite. The
    // knots must start at 0 and strictly increase with finite gaps,
    // which `new` checks but a deserialized curve need not satisfy.
    fn value_provably_finite(&self) -> bool {
        const BOUND: f64 = f64::MAX / 16.0;
        let n = self.xs.len();
        n >= 2
            && self.ys.len() == n
            && self.ds.len() == n
            && self.xs[0] == 0.0
            && self.ys.iter().all(|y| y.abs() <= BOUND)
            && (0..n - 1).all(|s| {
                let h = self.xs[s + 1] - self.xs[s];
                h > 0.0
                    && h.is_finite()
                    && (h * self.ds[s]).abs() <= BOUND
                    && (h * self.ds[s + 1]).abs() <= BOUND
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_concave_shape, sample_points};

    /// The slope selection as first written, with the widths and
    /// secants collected into vectors: the oracle for the inline one.
    fn slopes_from_vectors(xs: &[f64], ys: &[f64]) -> Vec<f64> {
        let n = xs.len();
        let h: Vec<f64> = (0..n - 1).map(|i| xs[i + 1] - xs[i]).collect();
        let delta: Vec<f64> = (0..n - 1).map(|i| (ys[i + 1] - ys[i]) / h[i]).collect();
        if n == 2 {
            return vec![delta[0], delta[0]];
        }
        let mut d = vec![0.0; n];
        for i in 1..n - 1 {
            let (d0, d1) = (delta[i - 1], delta[i]);
            if d0 <= 0.0 || d1 <= 0.0 {
                d[i] = 0.0;
            } else {
                let w1 = 2.0 * h[i] + h[i - 1];
                let w2 = h[i] + 2.0 * h[i - 1];
                d[i] = (w1 + w2) / (w1 / d0 + w2 / d1);
            }
        }
        d[0] = endpoint_slope(h[0], h[1], delta[0], delta[1]);
        d[n - 1] = endpoint_slope(h[n - 2], h[n - 3], delta[n - 2], delta[n - 3]);
        d
    }

    #[test]
    fn inline_slopes_equal_the_vector_formula_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5107e5);
        for &n in &[2usize, 3, 5, 8] {
            for _ in 0..2000 {
                let mut xs = vec![0.0];
                let mut ys = vec![rng.gen_range(0.0..2.0)];
                for _ in 1..n {
                    // Widths over several binades; a third of the rises
                    // are zero (flat spots, zero secants).
                    let width = rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-3..4));
                    xs.push(xs[xs.len() - 1] + width.max(1e-9));
                    let flat = rng.gen_range(0..3u32) == 0;
                    let rise = if flat { 0.0 } else { rng.gen_range(0.0..5.0) };
                    ys.push(ys[ys.len() - 1] + rise);
                }
                let (got, want) = (fritsch_carlson_slopes(&xs, &ys), slopes_from_vectors(&xs, &ys));
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "xs {xs:?}, ys {ys:?}");
            }
        }
    }

    /// The paper's generation shape: (0,0), (C/2, v), (C, v+w) with w ≤ v.
    fn paper_points(c: f64, v: f64, w: f64) -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (c / 2.0, v), (c, v + w)]
    }

    #[test]
    fn interpolates_control_points_exactly() {
        let p = Pchip::new(&paper_points(1000.0, 3.0, 1.5)).unwrap();
        assert!((p.value(0.0) - 0.0).abs() < 1e-12);
        assert!((p.value(500.0) - 3.0).abs() < 1e-12);
        assert!((p.value(1000.0) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn monotone_on_paper_shaped_data() {
        let p = Pchip::new(&paper_points(1000.0, 5.0, 0.5)).unwrap();
        let pts = sample_points(1000.0, 501);
        let mut prev = -1.0;
        for &x in &pts {
            let v = p.value(x);
            assert!(v >= prev - 1e-9, "not monotone at x = {x}");
            prev = v;
        }
    }

    #[test]
    fn concave_on_paper_shaped_data() {
        // w ≤ v makes the control polygon concave; PCHIP follows it.
        for (v, w) in [(1.0, 1.0), (5.0, 0.1), (2.0, 1.9), (10.0, 5.0)] {
            let p = Pchip::new(&paper_points(1000.0, v, w)).unwrap();
            let res = check_concave_shape(&p, &sample_points(1000.0, 401), 1e-6);
            assert!(res.is_ok(), "(v={v}, w={w}): {:?}", res.unwrap_err());
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let p = Pchip::new(&paper_points(1000.0, 4.0, 2.0)).unwrap();
        let h = 1e-5;
        for x in [10.0, 250.0, 499.0, 501.0, 750.0, 990.0] {
            let fd = (p.value(x + h) - p.value(x - h)) / (2.0 * h);
            let an = p.derivative(x);
            assert!((fd - an).abs() < 1e-5, "x = {x}: fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn derivative_nonnegative_everywhere() {
        let p = Pchip::new(&paper_points(1000.0, 4.0, 4.0)).unwrap();
        for &x in &sample_points(1000.0, 501) {
            assert!(p.derivative(x) >= -1e-9, "negative slope at {x}");
        }
    }

    #[test]
    fn two_points_reduce_to_linear() {
        let p = Pchip::new(&[(0.0, 0.0), (10.0, 5.0)]).unwrap();
        assert!((p.value(4.0) - 2.0).abs() < 1e-12);
        assert!((p.derivative(7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flat_spot_keeps_monotonicity() {
        // A flat middle segment must not overshoot (classic cubic failure
        // mode PCHIP exists to avoid).
        let p = Pchip::new(&[(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0)]).unwrap();
        for &x in &sample_points(3.0, 301) {
            let v = p.value(x);
            assert!((0.0..=2.0 + 1e-12).contains(&v), "overshoot at {x}: {v}");
        }
        // Flat segment stays flat.
        assert!((p.value(1.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_data() {
        assert_eq!(Pchip::new(&[(0.0, 0.0)]).unwrap_err(), PchipError::TooFewPoints);
        assert_eq!(
            Pchip::new(&[(1.0, 0.0), (2.0, 1.0)]).unwrap_err(),
            PchipError::DomainMustStartAtZero
        );
        assert_eq!(
            Pchip::new(&[(0.0, 1.0), (1.0, 0.5)]).unwrap_err(),
            PchipError::Decreasing
        );
        assert_eq!(
            Pchip::new(&[(0.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            PchipError::NonIncreasingX
        );
        assert_eq!(
            Pchip::new(&[(0.0, -1.0), (1.0, 1.0)]).unwrap_err(),
            PchipError::NegativeValue
        );
        assert_eq!(
            Pchip::new(&[(0.0, 0.0), (f64::NAN, 1.0)]).unwrap_err(),
            PchipError::NonFinite
        );
    }

    #[test]
    fn inverse_derivative_agrees_with_default_bisection() {
        // The closed-form quadratic inversion must match what the trait's
        // generic derivative-bisection would compute.
        #[derive(Debug)]
        struct Generic(Pchip);
        impl Utility for Generic {
            fn value(&self, x: f64) -> f64 {
                self.0.value(x)
            }
            fn derivative(&self, x: f64) -> f64 {
                self.0.derivative(x)
            }
            fn cap(&self) -> f64 {
                self.0.cap()
            }
            // no override: use default bisection
        }
        for (v, w) in [(5.0, 0.5), (4.0, 2.0), (3.0, 3.0)] {
            let p = Pchip::new(&paper_points(1000.0, v, w)).unwrap();
            let g = Generic(p.clone());
            for lambda in [1e-4, 1e-3, 2e-3, 5e-3, 8e-3, 1.2e-2] {
                let a = p.inverse_derivative(lambda);
                let b = g.inverse_derivative(lambda);
                assert!(
                    (a - b).abs() < 1e-5,
                    "(v={v}, w={w}) λ = {lambda}: closed {a} vs bisected {b}"
                );
            }
        }
    }

    #[test]
    fn max_value_is_last_y() {
        let p = Pchip::new(&paper_points(1000.0, 4.0, 2.0)).unwrap();
        assert_eq!(p.max_value(), 6.0);
    }
}
