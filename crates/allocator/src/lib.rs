#![warn(missing_docs)]

//! # aa-allocator — single-pool concave resource allocation
//!
//! The AA algorithms (IPDPS 2016) lean on a classical subroutine: given
//! `n` threads with concave utilities and a *single* pool of `B` resources,
//! find the allocation maximizing total utility. The paper invokes Galil's
//! `O(n (log B)²)` algorithm \[16\] to compute the **super-optimal
//! allocation** (budget `B = mC`, per-thread cap `C`); this crate builds
//! that subroutine — and the independent reference implementations used to
//! validate it — from scratch:
//!
//! * [`bisection`] — the production allocator: search on the common
//!   marginal value λ, querying each utility's
//!   [`inverse_derivative`](aa_utility::Utility::inverse_derivative)
//!   (a thread's "demand at price λ"). Matches Galil's asymptotics. Its
//!   λ-search also clears the markets of `aa-core`'s price backend.
//! * [`greedy`] — Fox's marginal-gain greedy over discrete resource units
//!   (`O(k log n)` for `k` units), optimal for concave utilities at the
//!   chosen granularity.
//! * [`segment`] — exact optimum for piecewise-linear concave utilities by
//!   sorting all linear segments by slope and filling greedily.
//! * [`exact_dp`] — brute-force dynamic program over integer units, the
//!   ground truth the others are tested against on small instances.
//!
//! All allocators consume any `[U: Utility]` slice and return an
//! [`Allocation`]; tests assert the four agree wherever their domains
//! overlap.

pub mod bisection;
pub mod exact_dp;
pub mod greedy;
pub mod segment;
pub mod tuning;

use aa_utility::Utility;

pub use bisection::{
    discrete_ladder_bracket, Interrupted, WarmCache, WarmMode, WarmStats,
};
pub use tuning::par_threshold;

/// Result of a single-pool allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Resource given to each thread, same order as the input slice.
    pub amounts: Vec<f64>,
    /// Total utility `Σ f_i(amounts[i])` under the utilities provided.
    pub utility: f64,
}

impl Allocation {
    /// Recompute utility from `amounts` (used by tests to confirm the
    /// reported utility is honest).
    pub fn recompute_utility<U: Utility>(&self, utils: &[U]) -> f64 {
        self.amounts
            .iter()
            .zip(utils)
            .map(|(&x, f)| f.value(x))
            .sum()
    }

    /// Sum of all allocated amounts.
    pub fn total_allocated(&self) -> f64 {
        self.amounts.iter().sum()
    }
}

/// Compute `Σ f_i(x_i)` for an amounts vector.
pub fn total_utility<U: Utility>(utils: &[U], amounts: &[f64]) -> f64 {
    utils
        .iter()
        .zip(amounts)
        .map(|(f, &x)| f.value(x))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_utility::Power;

    #[test]
    fn allocation_helpers() {
        let utils = vec![Power::new(1.0, 0.5, 4.0), Power::new(2.0, 0.5, 4.0)];
        let alloc = Allocation {
            amounts: vec![1.0, 4.0],
            utility: 5.0,
        };
        assert_eq!(alloc.total_allocated(), 5.0);
        assert!((alloc.recompute_utility(&utils) - 5.0).abs() < 1e-12);
        assert!((total_utility(&utils, &alloc.amounts) - 5.0).abs() < 1e-12);
    }
}
