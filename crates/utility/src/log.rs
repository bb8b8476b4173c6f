//! Logarithmic utilities `f(x) = a·ln(1 + b·x)`.
//!
//! A standard diminishing-returns model (proportional-fair bandwidth
//! sharing, cache hit-rate curves). Strictly concave with a finite
//! derivative at zero, which makes it a good counterpart to [`Power`]
//! (whose derivative diverges at 0) in tests of the allocator substrate.
//!
//! [`Power`]: crate::power::Power

use serde::{Deserialize, Serialize};

use crate::spec::{same_bits, UtilitySpec};
use crate::traits::{clamp_domain, Utility};

/// `f(x) = scale · ln(1 + rate·x)` on `[0, cap]`, `scale, rate ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogUtility {
    scale: f64,
    rate: f64,
    cap: f64,
}

impl LogUtility {
    /// Build a logarithmic utility.
    ///
    /// # Panics
    /// If `scale < 0`, `rate < 0`, `cap < 0`, or any argument is not finite.
    pub fn new(scale: f64, rate: f64, cap: f64) -> Self {
        assert!(
            scale.is_finite() && rate.is_finite() && cap.is_finite(),
            "log-utility parameters must be finite"
        );
        assert!(scale >= 0.0, "scale must be nonnegative, got {scale}");
        assert!(rate >= 0.0, "rate must be nonnegative, got {rate}");
        assert!(cap >= 0.0, "cap must be nonnegative, got {cap}");
        LogUtility { scale, rate, cap }
    }

    /// The multiplier `a`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The curvature parameter `b`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Utility for LogUtility {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        self.scale * (1.0 + self.rate * x).ln()
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        self.scale * self.rate / (1.0 + self.rate * x)
    }

    fn cap(&self) -> f64 {
        self.cap
    }

    // ab/(1+bx) = λ  ⇒  x = (ab/λ − 1)/b; the scalar body lives in
    // `crate::demand`, beside the pin rules that read the same branches.
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        crate::demand::log_demand(lambda, self.scale, self.rate, self.cap)
    }

    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.log(self.scale, self.rate, self.cap);
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(*spec, UtilitySpec::Log { scale, rate, cap }
            if same_bits(&[self.scale, self.rate, self.cap], &[scale, rate, cap]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};

    #[test]
    fn values_match_closed_form() {
        let f = LogUtility::new(2.0, 1.0, 10.0);
        assert_eq!(f.value(0.0), 0.0);
        assert!((f.value(std::f64::consts::E - 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_finite_at_zero() {
        let f = LogUtility::new(2.0, 3.0, 10.0);
        assert_eq!(f.derivative(0.0), 6.0);
        assert!(f.derivative(10.0) > 0.0);
    }

    #[test]
    fn inverse_derivative_closed_form() {
        let f = LogUtility::new(2.0, 1.0, 10.0);
        // f'(x) = 2/(1+x) = λ  ⇒  x = 2/λ − 1.
        for lambda in [0.25_f64, 0.5, 1.0] {
            let expect = (2.0 / lambda - 1.0).clamp(0.0, 10.0);
            assert!((f.inverse_derivative(lambda) - expect).abs() < 1e-12);
        }
        assert_eq!(f.inverse_derivative(3.0), 0.0); // price above f'(0) = 2
        assert_eq!(f.inverse_derivative(0.0), 10.0);
    }

    #[test]
    fn degenerate_zero_rate_is_constant() {
        let f = LogUtility::new(2.0, 0.0, 10.0);
        assert_eq!(f.value(7.0), 0.0);
        assert_eq!(f.derivative(7.0), 0.0);
        assert_eq!(f.inverse_derivative(0.5), 0.0);
    }

    #[test]
    fn shape_invariants_hold() {
        let f = LogUtility::new(2.0, 0.7, 25.0);
        assert_concave_shape(&f, &sample_points(25.0, 257), 1e-9);
    }
}
