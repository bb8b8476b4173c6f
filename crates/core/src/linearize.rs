//! Linearization of concave utilities (paper §V-A, Equation 1).
//!
//! Given the super-optimal allocation `ĉ`, each concave `f_i` is replaced
//! by the two-segment function `g_i` rising linearly from `(0, 0)` to
//! `(ĉ_i, f_i(ĉ_i))` and flat afterwards. Three facts make this sound:
//!
//! * `g_i ≤ f_i` pointwise (Lemma V.4), so any utility achieved under `g`
//!   is also achieved under `f`;
//! * `g_i(ĉ_i) = f_i(ĉ_i)`, so the super-optimal utility is unchanged:
//!   `F̂ = Σ g_i(ĉ_i)`;
//! * two-segment functions admit the simple greedy arguments behind the
//!   `α = 2(√2 − 1)` guarantee.

use aa_utility::{Linearized, Utility};
use rayon::prelude::*;

use crate::problem::Problem;
use crate::superopt::SuperOptimal;

/// Thread-count threshold past which [`linearize_par`] fans the
/// per-thread `g_i` construction out over the pool. Each element costs a
/// single `f.value(ĉ_i)` evaluation, so small instances are cheaper
/// sequentially. This is the shared workspace crossover
/// ([`aa_allocator::tuning`]) — the bisection's demand sweeps gate on the
/// same value, so the two stages can no longer silently diverge.
pub use aa_allocator::tuning::par_threshold;

/// Linearize thread `i` through `c_hat`: the shared per-thread kernel of
/// [`linearize`], [`linearize_par`] and the warm engine
/// ([`crate::incremental`]), so all three agree bit for bit. Evaluates
/// the *raw* utility (not the capped view) at `c_hat` and `0`, with
/// domain `[0, C]` — exactly what the batch builders do.
pub fn linearize_one(problem: &Problem, i: usize, c_hat: f64) -> Linearized {
    let f = &problem.threads()[i];
    Linearized::new(c_hat, f.value(c_hat), problem.capacity(), f.value(0.0))
}

/// Build the linearized utilities `g_1 … g_n` from a super-optimal
/// allocation. `g_i` has domain `[0, C]`.
pub fn linearize(problem: &Problem, so: &SuperOptimal) -> Vec<Linearized> {
    let mut gs = Vec::with_capacity(problem.len());
    linearize_into(problem, &so.amounts, &mut gs);
    gs
}

/// [`linearize`] through `amounts` into `gs` (cleared first), so a
/// caller that keeps `gs` across solves allocates nothing.
pub(crate) fn linearize_into(problem: &Problem, amounts: &[f64], gs: &mut Vec<Linearized>) {
    let _span = aa_obs::span!("linearize");
    assert_eq!(
        amounts.len(),
        problem.len(),
        "super-optimal allocation must cover every thread"
    );
    gs.clear();
    gs.extend(amounts.iter().enumerate().map(|(i, &c_hat)| linearize_one(problem, i, c_hat)));
}

/// [`linearize`] with the per-thread `g_i` construction fanned out over
/// the thread pool once the instance has at least [`par_threshold`]
/// threads. **Bit-identical** to [`linearize`] for every thread count:
/// each `g_i` depends only on `(f_i, ĉ_i, C)` and the pool's `collect`
/// writes results into their input positions.
pub fn linearize_par(problem: &Problem, so: &SuperOptimal) -> Vec<Linearized> {
    assert_eq!(
        so.amounts.len(),
        problem.len(),
        "super-optimal allocation must cover every thread"
    );
    if problem.len() < par_threshold() {
        return linearize(problem, so);
    }
    let _span = aa_obs::span!("linearize");
    problem
        .threads()
        .par_iter()
        .zip(&so.amounts)
        .map(|(f, &c_hat)| {
            Linearized::new(
                c_hat,
                f.value(c_hat),
                problem.capacity(),
                f.value(0.0),
            )
        })
        .collect()
}

/// `Σ g_i(ĉ_i)`: the super-optimal utility expressed through the
/// linearized functions — equal to `F̂` by construction (used as a
/// consistency check in tests and by the experiments crate).
pub fn linearized_superopt_utility(gs: &[Linearized]) -> f64 {
    gs.iter().map(|g| g.value(g.c_hat())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{LogUtility, Power};

    use crate::superopt::super_optimal;

    fn problem() -> Problem {
        Problem::builder(2, 8.0)
            .thread(Arc::new(Power::new(2.0, 0.5, 8.0)))
            .thread(Arc::new(LogUtility::new(3.0, 1.0, 8.0)))
            .thread(Arc::new(Power::new(1.0, 0.9, 8.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn g_agrees_with_f_at_c_hat() {
        let p = problem();
        let so = super_optimal(&p);
        let gs = linearize(&p, &so);
        for (i, g) in gs.iter().enumerate() {
            let f_at = p.threads()[i].value(so.amounts[i]);
            assert!((g.value(so.amounts[i]) - f_at).abs() < 1e-9);
        }
    }

    #[test]
    fn g_lower_bounds_f_everywhere() {
        let p = problem();
        let so = super_optimal(&p);
        let gs = linearize(&p, &so);
        for (f, g) in p.threads().iter().zip(&gs) {
            for k in 0..=64 {
                let x = p.capacity() * k as f64 / 64.0;
                assert!(
                    f.value(x) >= g.value(x) - 1e-9,
                    "f({x}) < g({x})"
                );
            }
        }
    }

    #[test]
    fn superopt_utility_is_preserved() {
        let p = problem();
        let so = super_optimal(&p);
        let gs = linearize(&p, &so);
        assert!(
            (linearized_superopt_utility(&gs) - so.utility).abs()
                < 1e-9 * so.utility.max(1.0)
        );
    }

    #[test]
    fn par_path_is_bit_identical() {
        // Above the threshold so the parallel branch actually runs.
        let n = super::par_threshold() + 13;
        let p = Problem::builder(4, 8.0)
            .threads((0..n).map(|i| {
                Arc::new(Power::new(1.0 + (i % 7) as f64, 0.5, 8.0)) as _
            }))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let seq = linearize(&p, &so);
        for threads in [1, 2, 8] {
            let par = rayon::with_threads(threads, || linearize_par(&p, &so));
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "must cover every thread")]
    fn rejects_mismatched_lengths() {
        let p = problem();
        let so = SuperOptimal {
            amounts: vec![1.0],
            utility: 1.0,
        };
        linearize(&p, &so);
    }
}
