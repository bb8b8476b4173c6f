//! The super-optimal allocation and bound (paper Definition V.1).
//!
//! Pool all `m·C` resources as if they sat on one giant server, cap each
//! thread at `C` (its per-server reach), and allocate optimally. The
//! resulting total utility `F̂` dominates every feasible assignment's
//! utility (Lemma V.2) — it ignores the bin-packing constraint — so it is
//! the upper bound the approximation guarantee and all experiments are
//! measured against. The allocation `ĉ` itself seeds the linearization
//! (Equation 1) and both approximation algorithms.

use aa_allocator::bisection::{self, Fan};
use aa_utility::Utility;

use crate::budget::Budget;
use crate::problem::Problem;
use crate::solver::SolveError;

/// The super-optimal allocation `ĉ` and its utility `F̂`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperOptimal {
    /// `ĉ_i` per thread; `Σ ĉ_i = min(mC, Σ min(cap_i, C))` (Lemma V.3).
    pub amounts: Vec<f64>,
    /// `F̂ = Σ f_i(ĉ_i) ≥ F*` (Lemma V.2).
    pub utility: f64,
}

/// Compute the super-optimal allocation by running the allocator's cold
/// λ-search with budget `mC` and per-thread cap `min(cap_i, C)`: halvings
/// from `[0, 1]` down to the water level's binade, then a bounded
/// false-position close — about 15–30 demand sweeps of `O(n)` each on
/// the paper's instances, never more than a few beyond plain bisection.
/// [`super_optimal_budgeted`] under [`Budget::unlimited`].
///
/// # Example
///
/// ```
/// use aa_core::{superopt, Problem};
/// use aa_utility::Power;
/// use std::sync::Arc;
///
/// // 2 servers × 6 units, four identical threads: the pooled optimum
/// // gives each thread 3 units (Lemma V.3: the full 12 units are used).
/// let p = Problem::builder(2, 6.0)
///     .threads((0..4).map(|_| Arc::new(Power::new(1.0, 0.5, 6.0)) as _))
///     .build()
///     .unwrap();
/// let so = superopt::super_optimal(&p);
/// assert!((so.amounts.iter().sum::<f64>() - 12.0).abs() < 1e-6);
/// assert!(so.amounts.iter().all(|&c| (c - 3.0).abs() < 1e-6));
/// ```
pub fn super_optimal(problem: &Problem) -> SuperOptimal {
    super_optimal_budgeted(problem, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// [`super_optimal`] under a solve [`Budget`]: the λ-search checks the
/// budget at iteration granularity, and its demand sweeps fan out over
/// the pool past the allocator's parallel threshold, watching the
/// budget's cancel token and abandoning unclaimed chunks the moment it
/// fires. While the budget holds, the result is **bit-identical** at
/// every pool width.
pub fn super_optimal_budgeted(
    problem: &Problem,
    budget: &Budget,
) -> Result<SuperOptimal, SolveError> {
    let _span = aa_obs::span!("superopt");
    let views = problem.capped_threads();
    let pool = problem.servers() as f64 * problem.capacity();
    let mut amounts = Vec::new();
    let fan = Fan::Pool(Some(budget.cancel_token()));
    let mut cache = bisection::WarmCache::new();
    bisection::allocate_in(&views, pool, &mut cache, &mut amounts, fan, &mut || budget.check())?;
    // Index-order sum of f_i(ĉ_i), as `bisection::allocate` sums it.
    let utility = views.iter().zip(&amounts).map(|(f, &x)| f.value(x)).sum();
    Ok(SuperOptimal { amounts, utility })
}

/// The delta path of [`super_optimal`]: re-run the λ-search through a
/// persistent [`bisection::WarmCache`], writing `ĉ` into the caller's
/// `amounts` buffer. When the cached bracket from the previous solve
/// still pins the water level (slow drift), this costs two demand maps;
/// otherwise the probe loop walks geometrically out from the carried
/// bracket and closes the new one, and falls back to the cold search
/// whenever identity cannot be proven. Its sweeps run on the calling
/// thread, and `views` is scratch the caller retains across solves, so
/// the steady state allocates nothing at any `n`.
///
/// A `solve_budget` is checked at λ-search iteration granularity.
/// Expiry invalidates the cache (the bracket may be half-updated) and
/// surfaces as the budget's typed error. While the budget holds (or
/// with none), the amounts are **bit-identical** to [`super_optimal`]'s
/// in every mode (up to the allocator's monotone-demand contract).
///
/// The utility sum `F̂` is *not* computed — the assignment phase only
/// consumes `ĉ` — which is part of the warm path's speedup. Use
/// [`super_optimal`] when the bound itself is needed.
pub fn super_optimal_warm_into(
    problem: &Problem,
    solve_budget: Option<&Budget>,
    cache: &mut bisection::WarmCache,
    views: &mut Vec<crate::problem::CappedView>,
    amounts: &mut Vec<f64>,
) -> Result<bisection::WarmStats, SolveError> {
    let _span = aa_obs::span!("warm_bisection");
    views.clear();
    views.extend((0..problem.len()).map(|i| problem.capped_thread(i)));
    let pool = problem.servers() as f64 * problem.capacity();
    bisection::allocate_in(views, pool, cache, amounts, Fan::Seq, &mut || {
        solve_budget.map_or(Ok(()), Budget::check)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power};

    fn arc<U: aa_utility::Utility + 'static>(u: U) -> aa_utility::DynUtility {
        Arc::new(u)
    }

    #[test]
    fn single_server_equals_plain_allocation() {
        let p = Problem::builder(1, 10.0)
            .thread(arc(Power::new(1.0, 0.5, 10.0)))
            .thread(arc(LogUtility::new(2.0, 1.0, 10.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert!((so.amounts.iter().sum::<f64>() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn budget_is_m_times_c() {
        let p = Problem::builder(4, 5.0)
            .threads((0..8).map(|_| arc(Power::new(1.0, 0.5, 5.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        // 8 identical threads, budget 20, per-thread cap 5 ⇒ 2.5 each.
        assert!((so.amounts.iter().sum::<f64>() - 20.0).abs() < 1e-6);
        for &c in &so.amounts {
            assert!((c - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn per_thread_cap_is_server_capacity() {
        // One extremely valuable thread cannot hog more than C even though
        // the pooled budget is mC.
        let p = Problem::builder(3, 4.0)
            .thread(arc(Power::new(1000.0, 0.99, 100.0)))
            .thread(arc(Power::new(0.001, 0.5, 4.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert!(so.amounts[0] <= 4.0 + 1e-9, "ĉ_0 = {} > C", so.amounts[0]);
    }

    #[test]
    fn dominates_any_feasible_assignment() {
        // Lemma V.2 on a concrete instance: try several feasible
        // assignments by hand; none beats F̂.
        let p = Problem::builder(2, 6.0)
            .thread(arc(CappedLinear::new(2.0, 3.0, 6.0)))
            .thread(arc(CappedLinear::new(1.0, 4.0, 6.0)))
            .thread(arc(Power::new(1.0, 0.5, 6.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        use crate::problem::Assignment;
        let candidates = [
            Assignment { server: vec![0, 1, 1], amount: vec![3.0, 4.0, 2.0] },
            Assignment { server: vec![0, 0, 1], amount: vec![3.0, 3.0, 6.0] },
            Assignment { server: vec![0, 1, 0], amount: vec![6.0, 6.0, 0.0] },
        ];
        for a in &candidates {
            a.validate(&p).unwrap();
            assert!(a.total_utility(&p) <= so.utility + 1e-9);
        }
    }

    #[test]
    fn par_path_is_bit_identical() {
        let p = Problem::builder(3, 7.0)
            .threads((0..64).map(|i| arc(Power::new(1.0 + (i % 9) as f64, 0.6, 7.0))))
            .build()
            .unwrap();
        let seq = rayon::with_threads(1, || super_optimal(&p));
        for threads in [1, 2, 8] {
            let par = rayon::with_threads(threads, || super_optimal(&p));
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn budgeted_with_room_is_bit_identical_and_expiry_is_typed() {
        let p = Problem::builder(3, 7.0)
            .threads((0..40).map(|i| arc(Power::new(1.0 + (i % 9) as f64, 0.6, 7.0))))
            .build()
            .unwrap();
        let plain = super_optimal(&p);
        let roomy = super_optimal_budgeted(&p, &crate::Budget::unlimited()).unwrap();
        assert_eq!(plain, roomy);
        let starved = super_optimal_budgeted(&p, &crate::Budget::with_fuel(2));
        assert_eq!(starved, Err(crate::SolveError::DeadlineExceeded));
    }

    #[test]
    fn saturated_when_caps_bind() {
        // Σ min(cap_i, C) < mC: every thread saturates instead.
        let p = Problem::builder(2, 10.0)
            .thread(arc(Power::new(1.0, 0.5, 3.0)))
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert_eq!(so.amounts, vec![3.0, 4.0]);
    }
}
