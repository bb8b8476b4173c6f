//! Power-law utilities `f(x) = a·x^β` with `β ∈ (0, 1]`.
//!
//! The paper's introduction uses this family (`x^β`) to show that ignoring
//! allocation can cost an unbounded factor; it is also the classic
//! diminishing-returns model for cache and bandwidth utility.

use serde::{Deserialize, Serialize};

use crate::spec::{same_bits, UtilitySpec};
use crate::traits::{clamp_domain, Utility};

/// `f(x) = scale · x^beta` on `[0, cap]`, `beta ∈ (0, 1]`, `scale ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Power {
    scale: f64,
    beta: f64,
    cap: f64,
}

impl Power {
    /// Build a power-law utility.
    ///
    /// # Panics
    /// If `beta ∉ (0, 1]` (that range is what makes the function concave
    /// and nondecreasing), `scale < 0`, `cap < 0`, or any argument is not
    /// finite.
    pub fn new(scale: f64, beta: f64, cap: f64) -> Self {
        assert!(
            scale.is_finite() && beta.is_finite() && cap.is_finite(),
            "power-law parameters must be finite"
        );
        assert!(
            beta > 0.0 && beta <= 1.0,
            "beta must be in (0, 1] for concavity, got {beta}"
        );
        assert!(scale >= 0.0, "scale must be nonnegative, got {scale}");
        assert!(cap >= 0.0, "cap must be nonnegative, got {cap}");
        Power { scale, beta, cap }
    }

    /// The exponent `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The multiplier `a`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Utility for Power {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        self.scale * x.powf(self.beta)
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        if self.beta == 1.0 {
            return self.scale;
        }
        if x == 0.0 {
            // x^(β−1) → ∞ as x → 0 for β < 1.
            return if self.scale == 0.0 { 0.0 } else { f64::INFINITY };
        }
        self.scale * self.beta * x.powf(self.beta - 1.0)
    }

    fn cap(&self) -> f64 {
        self.cap
    }

    // aβ·x^(β−1) = λ  ⇒  x = (aβ/λ)^(1/(1−β)); the scalar body lives in
    // `crate::demand`, beside the pin rules that read the same branches.
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        crate::demand::power_demand(lambda, self.scale, self.beta, self.cap)
    }

    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.power(self.scale, self.beta, self.cap);
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(*spec, UtilitySpec::Power { scale, beta, cap }
            if same_bits(&[self.scale, self.beta, self.cap], &[scale, beta, cap]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};

    #[test]
    fn sqrt_values() {
        let f = Power::new(2.0, 0.5, 16.0);
        assert_eq!(f.value(0.0), 0.0);
        assert_eq!(f.value(4.0), 4.0);
        assert_eq!(f.value(16.0), 8.0);
        assert_eq!(f.max_value(), 8.0);
    }

    #[test]
    fn derivative_matches_calculus() {
        let f = Power::new(2.0, 0.5, 16.0);
        // f'(x) = 2·0.5·x^(−0.5) = 1/√x.
        assert!((f.derivative(4.0) - 0.5).abs() < 1e-12);
        assert!((f.derivative(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(f.derivative(0.0), f64::INFINITY);
    }

    #[test]
    fn linear_case_beta_one() {
        let f = Power::new(3.0, 1.0, 10.0);
        assert_eq!(f.value(2.0), 6.0);
        assert_eq!(f.derivative(0.0), 3.0);
        assert_eq!(f.derivative(10.0), 3.0);
        assert_eq!(f.inverse_derivative(3.0), 10.0);
        assert_eq!(f.inverse_derivative(3.1), 0.0);
    }

    #[test]
    fn inverse_derivative_closed_form() {
        let f = Power::new(2.0, 0.5, 16.0);
        // f'(x) = 1/√x = λ  ⇒  x = 1/λ².
        for lambda in [0.3_f64, 0.5, 1.0, 2.0] {
            let expect = (1.0 / (lambda * lambda)).min(16.0);
            assert!(
                (f.inverse_derivative(lambda) - expect).abs() < 1e-9,
                "λ = {lambda}"
            );
        }
        // Very low price: demand saturates at cap.
        assert_eq!(f.inverse_derivative(1e-9), 16.0);
    }

    #[test]
    fn inverse_derivative_agrees_with_default_bisection() {
        // The closed form must match what the trait's generic bisection
        // would compute.
        #[derive(Debug)]
        struct Generic(Power);
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
        let f = Power::new(1.7, 0.6, 12.0);
        let g = Generic(f);
        for lambda in [0.05, 0.2, 0.7, 1.4] {
            let a = f.inverse_derivative(lambda);
            let b = g.inverse_derivative(lambda);
            assert!((a - b).abs() < 1e-6, "λ = {lambda}: {a} vs {b}");
        }
    }

    #[test]
    fn zero_scale_is_constant_zero() {
        let f = Power::new(0.0, 0.5, 16.0);
        assert_eq!(f.value(4.0), 0.0);
        assert_eq!(f.derivative(0.0), 0.0);
        assert_eq!(f.inverse_derivative(0.5), 0.0);
    }

    #[test]
    fn shape_invariants_hold() {
        for beta in [0.25, 0.5, 0.9, 1.0] {
            let f = Power::new(2.0, beta, 16.0);
            assert_concave_shape(&f, &sample_points(16.0, 257), 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "beta must be in (0, 1]")]
    fn rejects_convex_exponent() {
        Power::new(1.0, 1.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "beta must be in (0, 1]")]
    fn rejects_zero_exponent() {
        Power::new(1.0, 0.0, 10.0);
    }
}
