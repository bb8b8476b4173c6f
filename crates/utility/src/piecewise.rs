//! Concave piecewise-linear utility functions.
//!
//! These are the workhorse representation: the linearization step of the AA
//! algorithms produces two-segment functions, measured miss-ratio curves
//! from `aa-sim` arrive as point sets run through
//! [`concave_envelope`](crate::envelope::concave_envelope), and the exact
//! single-pool optimizer in `aa-allocator` exploits the segment structure
//! directly.

use serde::{Deserialize, Serialize};

use crate::num::approx_ge;
use crate::spec::{same_points, UtilitySpec};
use crate::traits::{clamp_domain, Utility};
use crate::EPS;

/// Error raised when a breakpoint list does not describe a nonnegative,
/// nondecreasing, concave piecewise-linear function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiecewiseError {
    /// Fewer than two breakpoints were supplied.
    TooFewPoints,
    /// Breakpoint x-coordinates are not strictly increasing.
    NonIncreasingX,
    /// The first x-coordinate is not 0.
    DomainMustStartAtZero,
    /// A y-value is negative.
    NegativeValue,
    /// y-values decrease somewhere (function must be nondecreasing).
    Decreasing,
    /// Segment slopes increase somewhere (function must be concave).
    NotConcave,
    /// A coordinate is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for PiecewiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PiecewiseError::TooFewPoints => "need at least two breakpoints",
            PiecewiseError::NonIncreasingX => "x-coordinates must strictly increase",
            PiecewiseError::DomainMustStartAtZero => "domain must start at x = 0",
            PiecewiseError::NegativeValue => "utility values must be nonnegative",
            PiecewiseError::Decreasing => "utility must be nondecreasing",
            PiecewiseError::NotConcave => "segment slopes must be nonincreasing (concavity)",
            PiecewiseError::NonFinite => "coordinates must be finite",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for PiecewiseError {}

/// A concave, nondecreasing, piecewise-linear function given by breakpoints
/// `(x_0 = 0, y_0), …, (x_k, y_k)` with strictly increasing `x`,
/// nondecreasing `y`, and nonincreasing segment slopes.
///
/// Evaluation, derivative and inverse-derivative queries are all
/// `O(log k)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseLinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Slope of segment `i` = (ys[i+1]-ys[i])/(xs[i+1]-xs[i]); len = k.
    slopes: Vec<f64>,
}

impl PiecewiseLinear {
    /// Build from `(x, y)` breakpoints, validating shape. Slopes are allowed
    /// to be equal up to [`EPS`] (so numerically-flat segments pass).
    pub fn new(points: &[(f64, f64)]) -> Result<Self, PiecewiseError> {
        if points.len() < 2 {
            return Err(PiecewiseError::TooFewPoints);
        }
        if points.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(PiecewiseError::NonFinite);
        }
        if points[0].0 != 0.0 {
            return Err(PiecewiseError::DomainMustStartAtZero);
        }
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        for &(x, y) in points {
            if y < 0.0 {
                return Err(PiecewiseError::NegativeValue);
            }
            xs.push(x);
            ys.push(y);
        }
        let mut slopes = Vec::with_capacity(points.len() - 1);
        for i in 0..points.len() - 1 {
            let dx = xs[i + 1] - xs[i];
            if dx <= 0.0 {
                return Err(PiecewiseError::NonIncreasingX);
            }
            let dy = ys[i + 1] - ys[i];
            if dy < -EPS * ys[i].abs().max(1.0) {
                return Err(PiecewiseError::Decreasing);
            }
            slopes.push((dy.max(0.0)) / dx);
        }
        for w in slopes.windows(2) {
            if !approx_ge(w[0], w[1], EPS) {
                return Err(PiecewiseError::NotConcave);
            }
        }
        Ok(PiecewiseLinear { xs, ys, slopes })
    }

    /// Breakpoint x-coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Breakpoint y-values.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Segment slopes (nonincreasing).
    pub fn slopes(&self) -> &[f64] {
        &self.slopes
    }

    /// The segments as `(width, slope)` pairs in decreasing-slope order
    /// (i.e. left to right). Used by the exact segment-greedy allocator.
    pub fn segments(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.slopes.len()).map(move |i| (self.xs[i + 1] - self.xs[i], self.slopes[i]))
    }

    /// Index of the segment containing `x` (clamped).
    fn segment_of(&self, x: f64) -> usize {
        // partition_point returns the first index with xs[i] > x; the
        // containing segment is the one before it.
        let idx = self.xs.partition_point(|&bx| bx <= x);
        idx.saturating_sub(1).min(self.slopes.len() - 1)
    }
}

impl Utility for PiecewiseLinear {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap());
        let s = self.segment_of(x);
        self.ys[s] + self.slopes[s] * (x - self.xs[s])
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap());
        self.slopes[self.segment_of(x)]
    }

    fn cap(&self) -> f64 {
        *self.xs.last().expect("validated: at least 2 points")
    }

    fn inverse_derivative(&self, lambda: f64) -> f64 {
        // Slopes are nonincreasing: binary search for the first segment
        // whose slope drops below λ; demand extends through all earlier
        // segments.
        let k = self
            .slopes
            .partition_point(|&s| s >= lambda);
        self.xs[k]
    }

    fn max_value(&self) -> f64 {
        *self.ys.last().expect("validated: at least 2 points")
    }

    // The demand staircase is exactly (slopes, xs): demand at price λ is
    // the breakpoint after the last segment whose slope stays ≥ λ.
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.staircase(&self.slopes, &self.xs);
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(spec, UtilitySpec::Piecewise { points } if same_points(&self.xs, &self.ys, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};

    fn example() -> PiecewiseLinear {
        PiecewiseLinear::new(&[(0.0, 0.0), (2.0, 4.0), (5.0, 7.0), (10.0, 8.0)]).unwrap()
    }

    #[test]
    fn rejects_too_few_points() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, 0.0)]).unwrap_err(),
            PiecewiseError::TooFewPoints
        );
    }

    #[test]
    fn rejects_domain_not_starting_at_zero() {
        assert_eq!(
            PiecewiseLinear::new(&[(1.0, 0.0), (2.0, 1.0)]).unwrap_err(),
            PiecewiseError::DomainMustStartAtZero
        );
    }

    #[test]
    fn rejects_decreasing_values() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, 1.0), (1.0, 0.5)]).unwrap_err(),
            PiecewiseError::Decreasing
        );
    }

    #[test]
    fn rejects_convex_shapes() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]).unwrap_err(),
            PiecewiseError::NotConcave
        );
    }

    #[test]
    fn rejects_negative_values() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, -1.0), (1.0, 0.0)]).unwrap_err(),
            PiecewiseError::NegativeValue
        );
    }

    #[test]
    fn rejects_nonfinite() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, 0.0), (f64::NAN, 1.0)]).unwrap_err(),
            PiecewiseError::NonFinite
        );
    }

    #[test]
    fn rejects_duplicate_x() {
        assert_eq!(
            PiecewiseLinear::new(&[(0.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            PiecewiseError::NonIncreasingX
        );
    }

    #[test]
    fn evaluates_breakpoints_exactly() {
        let f = example();
        assert_eq!(f.value(0.0), 0.0);
        assert_eq!(f.value(2.0), 4.0);
        assert_eq!(f.value(5.0), 7.0);
        assert_eq!(f.value(10.0), 8.0);
    }

    #[test]
    fn evaluates_interior_points() {
        let f = example();
        assert!((f.value(1.0) - 2.0).abs() < 1e-12);
        assert!((f.value(3.5) - 5.5).abs() < 1e-12);
        assert!((f.value(7.5) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_is_segment_slope() {
        let f = example();
        assert_eq!(f.derivative(0.0), 2.0);
        assert_eq!(f.derivative(1.9), 2.0);
        assert_eq!(f.derivative(2.0), 1.0); // right derivative at a kink
        assert_eq!(f.derivative(6.0), 0.2);
        assert_eq!(f.derivative(10.0), 0.2);
    }

    #[test]
    fn inverse_derivative_returns_breakpoints() {
        let f = example();
        assert_eq!(f.inverse_derivative(3.0), 0.0); // too expensive
        assert_eq!(f.inverse_derivative(2.0), 2.0); // first segment exactly
        assert_eq!(f.inverse_derivative(1.5), 2.0);
        assert_eq!(f.inverse_derivative(1.0), 5.0);
        assert_eq!(f.inverse_derivative(0.2), 10.0);
        assert_eq!(f.inverse_derivative(0.0), 10.0);
    }

    #[test]
    fn shape_invariants_hold() {
        let f = example();
        assert_concave_shape(&f, &sample_points(f.cap(), 257), 1e-9);
    }

    #[test]
    fn positive_intercept_allowed() {
        // f(0) > 0 is legal: utilities are merely nonnegative.
        let f = PiecewiseLinear::new(&[(0.0, 3.0), (4.0, 5.0)]).unwrap();
        assert_eq!(f.value(0.0), 3.0);
        assert_eq!(f.max_value(), 5.0);
    }

    #[test]
    fn flat_function_allowed() {
        let f = PiecewiseLinear::new(&[(0.0, 2.0), (4.0, 2.0)]).unwrap();
        assert_eq!(f.derivative(1.0), 0.0);
        assert_eq!(f.inverse_derivative(0.1), 0.0);
        assert_eq!(f.inverse_derivative(0.0), 4.0);
    }

    #[test]
    fn segments_iterator_round_trips() {
        let f = example();
        let segs: Vec<(f64, f64)> = f.segments().collect();
        assert_eq!(segs, vec![(2.0, 2.0), (3.0, 1.0), (5.0, 0.2)]);
        let total_width: f64 = segs.iter().map(|s| s.0).sum();
        assert_eq!(total_width, f.cap());
    }

    #[test]
    fn clone_preserves_equality() {
        let f = example();
        assert_eq!(f.clone(), f);
    }
}
