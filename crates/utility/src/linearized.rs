//! The paper's Equation 1: the two-segment linearization `g_i` of a concave
//! utility `f_i` through its super-optimal allocation `ĉ_i`.
//!
//! Given `ĉ_i` and `v̂_i = f_i(ĉ_i)`:
//!
//! ```text
//! g_i(x) = (x / ĉ_i) · v̂_i   for x ≤ ĉ_i
//! g_i(x) = v̂_i               for x > ĉ_i
//! ```
//!
//! Lemma V.4 of the paper shows `f_i(x) ≥ g_i(x)` on `[0, C]`, which is what
//! lets the approximation guarantee for the linearized problem transfer to
//! the concave one (Theorem V.16). The degenerate case `ĉ_i = 0` (a thread
//! the super-optimal allocation starves) makes `g_i` identically
//! `f_i(0)`, matching the limit of the formula.

use serde::{Deserialize, Serialize};

use crate::spec::{same_bits, UtilitySpec};
use crate::traits::{clamp_domain, Utility};

/// The linearized utility `g` determined by `(ĉ, v̂ = f(ĉ))` on `[0, cap]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Linearized {
    c_hat: f64,
    v_hat: f64,
    cap: f64,
    /// `f(0)` as given. Read only when `ĉ = 0`, where `g ≡ max(f(0), v̂)`;
    /// kept as given otherwise so [`Utility::matches_spec`] can compare it.
    floor: f64,
}

impl Linearized {
    /// Linearize through the point `(c_hat, v_hat)` with domain `[0, cap]`.
    ///
    /// `floor_value` is `f(0)`, used only in the degenerate `c_hat = 0`
    /// case where `g ≡ f(0)`.
    ///
    /// # Panics
    /// If `c_hat ∉ [0, cap]`, `v_hat < 0`, `floor_value < 0`, or arguments
    /// are not finite.
    pub fn new(c_hat: f64, v_hat: f64, cap: f64, floor_value: f64) -> Self {
        assert!(
            c_hat.is_finite() && v_hat.is_finite() && cap.is_finite() && floor_value.is_finite(),
            "linearization parameters must be finite"
        );
        assert!(
            (0.0..=cap).contains(&c_hat),
            "super-optimal allocation must lie in [0, cap]: ĉ = {c_hat}, cap = {cap}"
        );
        assert!(v_hat >= 0.0, "utility at ĉ must be nonnegative, got {v_hat}");
        assert!(floor_value >= 0.0, "f(0) must be nonnegative, got {floor_value}");
        Linearized {
            c_hat,
            v_hat,
            cap,
            floor: floor_value,
        }
    }

    /// Build the linearization of `f` through its super-optimal allocation
    /// `c_hat`, evaluating `f` at `c_hat` and `0`.
    pub fn of<U: Utility + ?Sized>(f: &U, c_hat: f64) -> Self {
        Linearized::new(c_hat, f.value(c_hat), f.cap(), f.value(0.0))
    }

    /// The super-optimal allocation `ĉ` this function was built from.
    pub fn c_hat(&self) -> f64 {
        self.c_hat
    }

    /// `v̂ = f(ĉ)`: the utility at the super-optimal allocation. This is
    /// also `g`'s maximum (when `ĉ > 0`).
    pub fn v_hat(&self) -> f64 {
        self.v_hat
    }

    /// The slope of the rising segment, `v̂ / ĉ` — the "density" Algorithm 2
    /// sorts the tail threads by. Returns `+∞` when `ĉ = 0` and `v̂ > 0`
    /// (a zero-cost thread is infinitely dense) and `0` when both are zero.
    pub fn density(&self) -> f64 {
        if self.c_hat > 0.0 {
            self.v_hat / self.c_hat
        } else if self.v_hat > 0.0 || self.floor > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

impl Utility for Linearized {
    fn value(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        if self.c_hat == 0.0 {
            self.floor.max(self.v_hat)
        } else if x >= self.c_hat {
            self.v_hat
        } else {
            self.v_hat * x / self.c_hat
        }
    }

    fn derivative(&self, x: f64) -> f64 {
        let x = clamp_domain(x, self.cap);
        if self.c_hat > 0.0 && x < self.c_hat {
            self.v_hat / self.c_hat
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
        } else if self.c_hat > 0.0 && lambda <= self.v_hat / self.c_hat {
            self.c_hat
        } else {
            0.0
        }
    }

    fn max_value(&self) -> f64 {
        self.value(self.cap)
    }

    // Same two-step staircase as CappedLinear, with the boundary price
    // computed exactly the way `inverse_derivative` compares it (v̂/ĉ).
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        if self.c_hat > 0.0 {
            sink.staircase(&[self.v_hat / self.c_hat, 0.0], &[0.0, self.c_hat, self.cap]);
        } else {
            sink.staircase(&[0.0], &[0.0, self.cap]);
        }
    }

    fn matches_spec(&self, spec: &UtilitySpec) -> bool {
        matches!(*spec, UtilitySpec::Linearized { c_hat, v_hat, cap, floor }
            if same_bits(
                &[self.c_hat, self.v_hat, self.cap, self.floor],
                &[c_hat, v_hat, cap, floor],
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_concave_shape, sample_points};
    use crate::power::Power;

    #[test]
    fn matches_equation_1() {
        let g = Linearized::new(4.0, 8.0, 10.0, 0.0);
        assert_eq!(g.value(0.0), 0.0);
        assert_eq!(g.value(2.0), 4.0);
        assert_eq!(g.value(4.0), 8.0);
        assert_eq!(g.value(7.0), 8.0);
        assert_eq!(g.value(10.0), 8.0);
    }

    #[test]
    fn lower_bounds_the_concave_function() {
        // Lemma V.4: f(x) ≥ g(x) for every x in [0, C].
        let f = Power::new(3.0, 0.5, 9.0);
        for c_hat in [0.0, 1.0, 4.0, 9.0] {
            let g = Linearized::of(&f, c_hat);
            for &x in &sample_points(9.0, 101) {
                assert!(
                    f.value(x) >= g.value(x) - 1e-9,
                    "f({x}) = {} < g({x}) = {} for ĉ = {c_hat}",
                    f.value(x),
                    g.value(x)
                );
            }
        }
    }

    #[test]
    fn agrees_with_f_at_c_hat() {
        let f = Power::new(3.0, 0.5, 9.0);
        for c_hat in [0.5, 2.0, 9.0] {
            let g = Linearized::of(&f, c_hat);
            assert!((g.value(c_hat) - f.value(c_hat)).abs() < 1e-12);
        }
    }

    #[test]
    fn density_is_segment_slope() {
        let g = Linearized::new(4.0, 8.0, 10.0, 0.0);
        assert_eq!(g.density(), 2.0);
        assert_eq!(g.derivative(1.0), 2.0);
        assert_eq!(g.derivative(4.0), 0.0);
    }

    #[test]
    fn degenerate_zero_allocation_is_constant() {
        let g = Linearized::new(0.0, 0.0, 10.0, 3.0);
        assert_eq!(g.value(0.0), 3.0);
        assert_eq!(g.value(10.0), 3.0);
        assert_eq!(g.derivative(5.0), 0.0);
        assert_eq!(g.density(), f64::INFINITY);
    }

    #[test]
    fn degenerate_zero_everything_has_zero_density() {
        let g = Linearized::new(0.0, 0.0, 10.0, 0.0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.max_value(), 0.0);
    }

    #[test]
    fn inverse_derivative_cases() {
        let g = Linearized::new(4.0, 8.0, 10.0, 0.0);
        assert_eq!(g.inverse_derivative(0.0), 10.0);
        assert_eq!(g.inverse_derivative(1.0), 4.0);
        assert_eq!(g.inverse_derivative(2.0), 4.0);
        assert_eq!(g.inverse_derivative(2.5), 0.0);
    }

    #[test]
    fn shape_invariants_hold() {
        let g = Linearized::new(4.0, 8.0, 10.0, 0.0);
        assert_concave_shape(&g, &sample_points(10.0, 257), 1e-9);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, cap]")]
    fn rejects_c_hat_beyond_cap() {
        Linearized::new(11.0, 1.0, 10.0, 0.0);
    }
}
