//! Combinators: build new concave utilities from existing ones.
//!
//! Concavity is preserved by nonnegative scaling, addition of a
//! nonnegative constant, pointwise sums, and pointwise minima — the
//! closures deployments actually need (weighting threads by priority,
//! adding a baseline service level, combining independent benefit
//! channels, capping by an SLA ceiling). Each combinator forwards
//! `derivative`/`inverse_derivative` analytically where the math allows
//! and falls back to the trait's generic bisection otherwise.

use crate::traits::Utility;

/// `w · f(x)` for a weight `w ≥ 0`: priority-weighted utility.
#[derive(Debug, Clone)]
pub struct Scaled<U> {
    inner: U,
    weight: f64,
}

impl<U: Utility> Scaled<U> {
    /// Scale `inner` by `weight ≥ 0`.
    ///
    /// # Panics
    /// If `weight` is negative or not finite.
    pub fn new(inner: U, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and nonnegative, got {weight}"
        );
        Scaled { inner, weight }
    }

    /// The weight `w`.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl<U: Utility> Utility for Scaled<U> {
    fn value(&self, x: f64) -> f64 {
        self.weight * self.inner.value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        self.weight * self.inner.derivative(x)
    }
    fn cap(&self) -> f64 {
        self.inner.cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        if self.weight == 0.0 {
            // Constant zero: only λ ≤ 0 is satisfied anywhere.
            return if lambda <= 0.0 { self.cap() } else { 0.0 };
        }
        self.inner.inverse_derivative(lambda / self.weight)
    }
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        if self.weight == 0.0 {
            sink.staircase(&[0.0], &[0.0, self.inner.cap()]);
        } else {
            // Registering the divisor first means the sink tests
            // inner(λ / w) with exactly the division dispatch performs.
            sink.pre_scale(self.weight);
            self.inner.describe_demand(sink);
        }
    }
}

/// `f(x) + c` for `c ≥ 0`: a guaranteed baseline benefit.
#[derive(Debug, Clone)]
pub struct Offset<U> {
    inner: U,
    offset: f64,
}

impl<U: Utility> Offset<U> {
    /// Add `offset ≥ 0` to `inner`.
    ///
    /// # Panics
    /// If `offset` is negative or not finite.
    pub fn new(inner: U, offset: f64) -> Self {
        assert!(
            offset.is_finite() && offset >= 0.0,
            "offset must be finite and nonnegative, got {offset}"
        );
        Offset { inner, offset }
    }
}

impl<U: Utility> Utility for Offset<U> {
    fn value(&self, x: f64) -> f64 {
        self.inner.value(x) + self.offset
    }
    fn derivative(&self, x: f64) -> f64 {
        self.inner.derivative(x)
    }
    fn cap(&self) -> f64 {
        self.inner.cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        self.inner.inverse_derivative(lambda)
    }
    // A constant offset leaves the demand map untouched.
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        self.inner.describe_demand(sink)
    }
}

/// `f(x) + g(x)`: two independent benefit channels for the same resource.
/// The domain is the smaller of the two caps.
#[derive(Debug, Clone)]
pub struct Sum<U, V> {
    a: U,
    b: V,
}

impl<U: Utility, V: Utility> Sum<U, V> {
    /// Combine two utilities additively.
    pub fn new(a: U, b: V) -> Self {
        Sum { a, b }
    }
}

impl<U: Utility, V: Utility> Utility for Sum<U, V> {
    fn value(&self, x: f64) -> f64 {
        self.a.value(x) + self.b.value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        self.a.derivative(x) + self.b.derivative(x)
    }
    fn cap(&self) -> f64 {
        self.a.cap().min(self.b.cap())
    }
    // inverse_derivative: the sum's derivative is nonincreasing, so the
    // trait's generic bisection applies; no closed form in general.
}

/// `min(f(x), ceiling)`: an SLA ceiling above which extra performance is
/// not paid for. Concave as the min of a concave function and a constant.
#[derive(Debug, Clone)]
pub struct Ceiling<U> {
    inner: U,
    ceiling: f64,
}

impl<U: Utility> Ceiling<U> {
    /// Cap `inner`'s value at `ceiling ≥ 0`.
    ///
    /// # Panics
    /// If `ceiling` is negative or not finite.
    pub fn new(inner: U, ceiling: f64) -> Self {
        assert!(
            ceiling.is_finite() && ceiling >= 0.0,
            "ceiling must be finite and nonnegative, got {ceiling}"
        );
        Ceiling { inner, ceiling }
    }
}

impl<U: Utility> Utility for Ceiling<U> {
    fn value(&self, x: f64) -> f64 {
        self.inner.value(x).min(self.ceiling)
    }
    fn derivative(&self, x: f64) -> f64 {
        if self.inner.value(x) >= self.ceiling {
            0.0
        } else {
            self.inner.derivative(x)
        }
    }
    fn cap(&self) -> f64 {
        self.inner.cap()
    }
    fn max_value(&self) -> f64 {
        self.inner.max_value().min(self.ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};
    use crate::log::LogUtility;
    use crate::power::Power;

    #[test]
    fn scaled_values_and_derivatives() {
        let f = Scaled::new(Power::new(1.0, 0.5, 16.0), 3.0);
        assert_eq!(f.value(4.0), 6.0);
        assert!((f.derivative(4.0) - 3.0 * 0.25).abs() < 1e-12);
        assert_eq!(f.cap(), 16.0);
    }

    #[test]
    fn scaled_inverse_derivative_matches_generic() {
        let base = Power::new(2.0, 0.5, 16.0);
        let f = Scaled::new(base, 3.0);
        // x(λ) of 3·f equals x(λ/3) of f.
        for lambda in [0.3_f64, 0.9, 2.0] {
            assert!(
                (f.inverse_derivative(lambda) - base.inverse_derivative(lambda / 3.0)).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn zero_weight_is_constant_zero() {
        let f = Scaled::new(Power::new(2.0, 0.5, 16.0), 0.0);
        assert_eq!(f.value(8.0), 0.0);
        assert_eq!(f.inverse_derivative(0.5), 0.0);
        assert_eq!(f.inverse_derivative(0.0), 16.0);
    }

    #[test]
    fn offset_shifts_values_only() {
        let base = LogUtility::new(2.0, 1.0, 10.0);
        let f = Offset::new(base, 5.0);
        assert_eq!(f.value(0.0), 5.0);
        assert_eq!(f.derivative(3.0), base.derivative(3.0));
        assert_eq!(f.inverse_derivative(0.5), base.inverse_derivative(0.5));
    }

    #[test]
    fn sum_adds_pointwise() {
        let f = Sum::new(Power::new(1.0, 0.5, 10.0), LogUtility::new(2.0, 1.0, 10.0));
        let x = 4.0;
        assert!(
            (f.value(x) - (2.0 + 2.0 * 5.0_f64.ln())).abs() < 1e-12
        );
        assert_eq!(f.cap(), 10.0);
    }

    #[test]
    fn sum_inverse_derivative_via_generic_bisection() {
        let f = Sum::new(LogUtility::new(2.0, 1.0, 10.0), LogUtility::new(1.0, 2.0, 10.0));
        let lambda = 0.7;
        let x = f.inverse_derivative(lambda);
        // The generic bisection must bracket the price correctly.
        assert!(f.derivative((x - 1e-6).max(0.0)) >= lambda - 1e-6);
        if x < 10.0 - 1e-6 {
            assert!(f.derivative(x + 1e-6) <= lambda + 1e-6);
        }
    }

    #[test]
    fn ceiling_caps_value() {
        let f = Ceiling::new(Power::new(1.0, 1.0, 10.0), 4.0);
        assert_eq!(f.value(3.0), 3.0);
        assert_eq!(f.value(7.0), 4.0);
        assert_eq!(f.max_value(), 4.0);
        assert_eq!(f.derivative(2.0), 1.0);
        assert_eq!(f.derivative(6.0), 0.0);
    }

    #[test]
    fn all_combinators_stay_concave() {
        let pts = sample_points(10.0, 129);
        assert_concave_shape(&Scaled::new(Power::new(1.0, 0.5, 10.0), 2.5), &pts, 1e-9);
        assert_concave_shape(&Offset::new(Power::new(1.0, 0.5, 10.0), 3.0), &pts, 1e-9);
        assert_concave_shape(
            &Sum::new(Power::new(1.0, 0.5, 10.0), LogUtility::new(2.0, 1.0, 10.0)),
            &pts,
            1e-9,
        );
        assert_concave_shape(&Ceiling::new(Power::new(1.0, 1.0, 10.0), 4.0), &pts, 1e-9);
    }

    #[test]
    fn combinators_compose() {
        // weight · (f + g) with a ceiling, still a valid Utility.
        let f = Ceiling::new(
            Scaled::new(
                Sum::new(Power::new(1.0, 0.5, 10.0), LogUtility::new(1.0, 1.0, 10.0)),
                2.0,
            ),
            7.0,
        );
        assert!(f.value(10.0) <= 7.0);
        assert_concave_shape(&f, &sample_points(10.0, 129), 1e-9);
    }

    #[test]
    #[should_panic(expected = "weight must be finite and nonnegative")]
    fn rejects_negative_weight() {
        Scaled::new(Power::new(1.0, 0.5, 1.0), -1.0);
    }

    #[test]
    #[should_panic(expected = "ceiling must be finite and nonnegative")]
    fn rejects_negative_ceiling() {
        Ceiling::new(Power::new(1.0, 0.5, 1.0), f64::NAN);
    }
}
