//! Capped-linear utilities: `f(x) = s·min(x, c)`.
//!
//! This is the family used in the paper's NP-hardness proof (Theorem IV.1,
//! with `s = 1` and `c = c_i` from the PARTITION instance) and in the
//! tightness example of Theorem V.17. The function rises linearly with
//! slope `s` until the knee `c` and is flat afterwards, up to the domain
//! cap `C ≥ c`.

use serde::{Deserialize, Serialize};

use crate::spec::{same_bits, UtilitySpec};
use crate::traits::{clamp_domain, Utility};

/// `f(x) = s · min(x, knee)` on `[0, cap]`, with `0 ≤ knee ≤ cap`, `s ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CappedLinear {
    slope: f64,
    knee: f64,
    cap: f64,
}

impl CappedLinear {
    /// Build a capped-linear utility.
    ///
    /// # Panics
    /// If `slope < 0`, `knee < 0`, `knee > cap`, or any argument is not
    /// finite. These are programmer errors, not data errors: the knee and
    /// slope come from problem construction, not measurement.
    pub fn new(slope: f64, knee: f64, cap: f64) -> Self {
        assert!(
            slope.is_finite() && knee.is_finite() && cap.is_finite(),
            "capped-linear parameters must be finite"
        );
        assert!(slope >= 0.0, "slope must be nonnegative, got {slope}");
        assert!(
            (0.0..=cap).contains(&knee),
            "knee must lie in [0, cap]: knee = {knee}, cap = {cap}"
        );
        CappedLinear { slope, knee, cap }
    }

    /// The knee position `c` where the function flattens.
    pub fn knee(&self) -> f64 {
        self.knee
    }

    /// The initial slope `s`.
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

impl Utility for CappedLinear {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        self.slope * x.min(self.knee)
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        if x < self.knee {
            self.slope
        } else {
            0.0
        }
    }

    fn cap(&self) -> f64 {
        self.cap
    }

    fn inverse_derivative(&self, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            self.cap
        } else if lambda <= self.slope {
            self.knee
        } else {
            0.0
        }
    }

    fn max_value(&self) -> f64 {
        self.slope * self.knee
    }

    // Demand is a two-step staircase: knee for 0 < λ ≤ slope, cap at λ ≤ 0.
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.staircase(&[self.slope, 0.0], &[0.0, self.knee, self.cap]);
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(*spec, UtilitySpec::CappedLinear { slope, knee, cap }
            if same_bits(&[self.slope, self.knee, self.cap], &[slope, knee, cap]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};

    #[test]
    fn value_rises_then_flattens() {
        let f = CappedLinear::new(2.0, 3.0, 10.0);
        assert_eq!(f.value(0.0), 0.0);
        assert_eq!(f.value(1.5), 3.0);
        assert_eq!(f.value(3.0), 6.0);
        assert_eq!(f.value(9.0), 6.0);
        assert_eq!(f.max_value(), 6.0);
    }

    #[test]
    fn derivative_is_step() {
        let f = CappedLinear::new(2.0, 3.0, 10.0);
        assert_eq!(f.derivative(0.0), 2.0);
        assert_eq!(f.derivative(2.999), 2.0);
        assert_eq!(f.derivative(3.0), 0.0);
        assert_eq!(f.derivative(10.0), 0.0);
    }

    #[test]
    fn inverse_derivative_cases() {
        let f = CappedLinear::new(2.0, 3.0, 10.0);
        assert_eq!(f.inverse_derivative(0.0), 10.0); // free resource: take all
        assert_eq!(f.inverse_derivative(1.0), 3.0); // cheap: take up to knee
        assert_eq!(f.inverse_derivative(2.0), 3.0); // boundary price
        assert_eq!(f.inverse_derivative(2.5), 0.0); // too expensive
    }

    #[test]
    fn shape_invariants_hold() {
        let f = CappedLinear::new(2.0, 3.0, 10.0);
        assert_concave_shape(&f, &sample_points(f.cap(), 257), 1e-9);
    }

    #[test]
    fn zero_knee_is_constant_zero() {
        let f = CappedLinear::new(5.0, 0.0, 10.0);
        assert_eq!(f.value(7.0), 0.0);
        assert_eq!(f.max_value(), 0.0);
        assert_eq!(f.derivative(0.0), 0.0);
    }

    #[test]
    fn knee_at_cap_is_pure_linear() {
        let f = CappedLinear::new(1.5, 10.0, 10.0);
        assert_eq!(f.value(4.0), 6.0);
        assert_eq!(f.derivative(9.999), 1.5);
        assert_eq!(f.inverse_derivative(1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "knee must lie in [0, cap]")]
    fn rejects_knee_beyond_cap() {
        CappedLinear::new(1.0, 11.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "slope must be nonnegative")]
    fn rejects_negative_slope() {
        CappedLinear::new(-1.0, 1.0, 10.0);
    }
}
