//! The [`Utility`] trait: the contract every thread model satisfies.

use std::sync::Arc;

use crate::num::clamp;

/// A shared, dynamically-typed utility function.
///
/// The core solvers store one of these per thread. `Arc` keeps cloning a
/// problem cheap (the experiment harness clones instances across trial
/// threads) and `Send + Sync` lets `rayon` fan trials out.
pub type DynUtility = Arc<dyn Utility>;

/// A nonnegative, nondecreasing, concave utility function on `[0, cap]`.
///
/// Implementations must uphold, up to floating-point tolerance:
///
/// * `value(0) ≥ 0`;
/// * `value` nondecreasing on `[0, cap]`;
/// * `value` concave on `[0, cap]` (equivalently [`Utility::derivative`]
///   nonincreasing);
/// * `derivative(x) ≥ 0` everywhere.
///
/// `value` and `derivative` clamp their argument into `[0, cap]`, so
/// queries perturbed by floating-point drift never panic. The
/// [`check`](crate::check) module provides samplers that verify these
/// invariants for any implementation; the crate's property tests run them
/// against every family shipped here.
pub trait Utility: std::fmt::Debug + Send + Sync {
    /// `f(x)` for `x ∈ [0, cap]` (argument clamped into the domain).
    fn value(&self, x: f64) -> f64;

    /// The right derivative `f′(x⁺)` (argument clamped into `[0, cap)`;
    /// at `cap` the left derivative is returned).
    ///
    /// For concave `f` this is nonincreasing in `x`. Implementations may
    /// return `f64::INFINITY` at `x = 0` (e.g. `x^β` with `β < 1`).
    fn derivative(&self, x: f64) -> f64;

    /// The domain cap `C`: the most resource this thread can use. Values
    /// beyond the cap evaluate to `value(cap)`.
    fn cap(&self) -> f64;

    /// Inverse-derivative query: the largest `x ∈ [0, cap]` with
    /// `derivative(x) ≥ λ`, or `0` if even `derivative(0) < λ`.
    ///
    /// This is the demand of the thread at "price" `λ`: the Galil-style
    /// allocator bisects on `λ` so that total demand meets the budget. The
    /// default implementation bisects [`Utility::derivative`] to within
    /// `cap * 1e-12`; families with closed forms override it.
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        let cap = self.cap();
        if cap <= 0.0 {
            return 0.0;
        }
        if self.derivative(0.0) < lambda {
            return 0.0;
        }
        if self.derivative(cap) >= lambda {
            return cap;
        }
        // Invariant: derivative(lo) >= lambda > derivative(hi).
        let (mut lo, mut hi) = (0.0_f64, cap);
        let tol = cap * 1e-12;
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if self.derivative(mid) >= lambda {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `value(cap)`: the maximum utility this thread can ever obtain.
    fn max_value(&self) -> f64 {
        self.value(self.cap())
    }

    /// Describe this utility's demand map to a [`DemandSink`].
    ///
    /// Demand values always come from
    /// [`inverse_derivative`](Utility::inverse_derivative); a
    /// description is read only for what a value cannot say: the one
    /// value the utility answers across a price bracket
    /// ([`pinned`](crate::demand::pinned), which lets the λ-search skip
    /// it) and whether it is a unit-scale staircase with step prices for
    /// the discrete ladder ([`DemandTable`](crate::demand::DemandTable)).
    ///
    /// The default declines ([`DemandSink::opaque`]): the utility never
    /// pins and has no ladder, which is always correct. A registered
    /// closed form MUST be bit-identical to this utility's own
    /// `inverse_derivative` at every λ — the shared scalar bodies in
    /// [`crate::demand`] make that hold by construction, and
    /// `crates/utility/tests/pin_sound.rs` checks every pin against
    /// dispatch over random mixes. A wrapper that divides λ registers
    /// its divisor ([`DemandSink::pre_scale`]) *before* its inner
    /// family: the sink reads the divisor when the family is
    /// registered, so a divisor that comes after poisons the
    /// description.
    ///
    /// [`DemandSink`]: crate::demand::DemandSink
    /// [`DemandSink::opaque`]: crate::demand::DemandSink::opaque
    /// [`DemandSink::pre_scale`]: crate::demand::DemandSink::pre_scale
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        sink.opaque();
    }

    /// Whether `spec.build()` would make exactly this function: the
    /// spec's family is this one and every parameter this object stores
    /// equals the spec's bit for bit (so `-0.0` does not match `0.0`).
    /// A caller holding the previous build of a spec can then reuse that
    /// object, and with it every per-object cache keyed on its
    /// [`Arc`] identity, instead of building a fresh one.
    ///
    /// The default declines: a family that does not implement it is
    /// simply always rebuilt.
    fn matches_spec(&self, _spec: &crate::spec::UtilitySpec) -> bool {
        false
    }

    /// Whether [`value`](Utility::value) is provably finite at every
    /// finite argument, from the stored parameters alone. The solvers'
    /// finite-utility screen skips its probe grid for a utility that
    /// proves it, so a proof must never accept a curve the probes would
    /// reject. The default proves nothing, and the probes run.
    fn value_provably_finite(&self) -> bool {
        false
    }
}

impl<U: Utility + ?Sized> Utility for Arc<U> {
    fn value(&self, x: f64) -> f64 {
        (**self).value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        (**self).derivative(x)
    }
    fn cap(&self) -> f64 {
        (**self).cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        (**self).inverse_derivative(lambda)
    }
    fn max_value(&self) -> f64 {
        (**self).max_value()
    }
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        (**self).describe_demand(sink)
    }
    fn matches_spec(&self, spec: &crate::spec::UtilitySpec) -> bool {
        (**self).matches_spec(spec)
    }
    fn value_provably_finite(&self) -> bool {
        (**self).value_provably_finite()
    }
}

impl<U: Utility + ?Sized> Utility for Box<U> {
    fn value(&self, x: f64) -> f64 {
        (**self).value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        (**self).derivative(x)
    }
    fn cap(&self) -> f64 {
        (**self).cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        (**self).inverse_derivative(lambda)
    }
    fn max_value(&self) -> f64 {
        (**self).max_value()
    }
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        (**self).describe_demand(sink)
    }
    fn matches_spec(&self, spec: &crate::spec::UtilitySpec) -> bool {
        (**self).matches_spec(spec)
    }
    fn value_provably_finite(&self) -> bool {
        (**self).value_provably_finite()
    }
}

impl<U: Utility + ?Sized> Utility for &U {
    fn value(&self, x: f64) -> f64 {
        (**self).value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        (**self).derivative(x)
    }
    fn cap(&self) -> f64 {
        (**self).cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        (**self).inverse_derivative(lambda)
    }
    fn max_value(&self) -> f64 {
        (**self).max_value()
    }
    fn describe_demand(&self, sink: &mut crate::demand::DemandSink<'_>) {
        (**self).describe_demand(sink)
    }
    fn matches_spec(&self, spec: &crate::spec::UtilitySpec) -> bool {
        (**self).matches_spec(spec)
    }
    fn value_provably_finite(&self) -> bool {
        (**self).value_provably_finite()
    }
}

/// Clamp a query point into a function's domain. Shared by implementations.
pub(crate) fn clamp_domain(x: f64, cap: f64) -> f64 {
    clamp(x, 0.0, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-rolled quadratic `f(x) = x(2c - x)/c²·v` on `[0, c]` used to
    /// exercise the *default* inverse_derivative bisection.
    #[derive(Debug)]
    struct Quad {
        c: f64,
        v: f64,
    }

    impl Utility for Quad {
        fn value(&self, x: f64) -> f64 {
            let x = clamp_domain(x, self.c);
            self.v * x * (2.0 * self.c - x) / (self.c * self.c)
        }
        fn derivative(&self, x: f64) -> f64 {
            let x = clamp_domain(x, self.c);
            self.v * 2.0 * (self.c - x) / (self.c * self.c)
        }
        fn cap(&self) -> f64 {
            self.c
        }
    }

    #[test]
    fn default_inverse_derivative_matches_closed_form() {
        let q = Quad { c: 10.0, v: 5.0 };
        // f'(x) = v·2(c−x)/c² = λ  ⇒  x = c − λc²/(2v).
        for lambda in [0.05, 0.1, 0.3, 0.5, 0.9] {
            let expect = q.c - lambda * q.c * q.c / (2.0 * q.v);
            let got = q.inverse_derivative(lambda);
            assert!(
                (got - expect).abs() < 1e-6,
                "λ={lambda}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn inverse_derivative_saturates_at_cap_and_zero() {
        let q = Quad { c: 10.0, v: 5.0 };
        assert_eq!(q.inverse_derivative(0.0), 10.0); // f' ≥ 0 everywhere
        assert_eq!(q.inverse_derivative(100.0), 0.0); // f'(0) = 1 < 100
    }

    #[test]
    fn max_value_is_value_at_cap() {
        let q = Quad { c: 10.0, v: 5.0 };
        assert_eq!(q.max_value(), q.value(10.0));
    }

    #[test]
    fn value_clamps_out_of_domain_queries() {
        let q = Quad { c: 10.0, v: 5.0 };
        assert_eq!(q.value(-3.0), q.value(0.0));
        assert_eq!(q.value(42.0), q.value(10.0));
    }

    #[test]
    fn arc_and_ref_forwarding() {
        let q: DynUtility = Arc::new(Quad { c: 10.0, v: 5.0 });
        assert_eq!(q.cap(), 10.0);
        assert_eq!(q.value(5.0), q.value(5.0));
        assert!(q.max_value() > 0.0);
    }

    #[test]
    fn zero_cap_inverse_derivative_is_zero() {
        let q = Quad { c: 0.0, v: 5.0 };
        assert_eq!(q.inverse_derivative(0.5), 0.0);
    }
}
