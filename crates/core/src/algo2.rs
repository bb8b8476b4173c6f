//! Algorithm 2 (paper §VI): the fast `O(n (log mC)²)` approximation.
//!
//! Instead of rescanning all (thread, server) pairs each round, Algorithm 2
//! fixes the processing order up front:
//!
//! 1. sort all threads by `g_i(ĉ_i)` nonincreasing;
//! 2. re-sort threads `m+1 … n` of that order by the *density*
//!    `g_i(ĉ_i)/ĉ_i` nonincreasing;
//! 3. walk the order, always assigning to the server with the most
//!    remaining resource (a max-heap), allocating
//!    `c_i = min(ĉ_i, remaining)`.
//!
//! Step 1 guarantees the first `m` threads are the highest-utility ones
//! (Lemma V.8); step 2 makes denser threads grab leftovers earlier
//! (Lemma V.10); the max-heap choice preserves Lemmas V.5–V.7. Same
//! `α = 2(√2 − 1)` approximation as Algorithm 1 (Theorem VI.1); the
//! running time is dominated by the super-optimal allocation
//! (Theorem VI.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aa_utility::num::OrdF64;
use aa_utility::{Linearized, Utility};

use crate::budget::Budget;
use crate::linearize::{linearize, linearize_par};
use crate::problem::{Assignment, Problem};
use crate::solver::SolveError;
use crate::superopt::{super_optimal, super_optimal_budgeted, super_optimal_par, SuperOptimal};

/// Run the complete Algorithm 2 pipeline: super-optimal allocation →
/// linearization → sorted heap assignment.
///
/// # Example
///
/// ```
/// use aa_core::{algo2, superopt, Problem, ALPHA};
/// use aa_utility::Power;
/// use std::sync::Arc;
///
/// let problem = Problem::builder(2, 10.0)
///     .thread(Arc::new(Power::new(4.0, 0.5, 10.0)))
///     .thread(Arc::new(Power::new(1.0, 0.9, 10.0)))
///     .thread(Arc::new(Power::new(2.0, 0.7, 10.0)))
///     .build()
///     .unwrap();
///
/// let assignment = algo2::solve(&problem);
/// assignment.validate(&problem).unwrap();
///
/// // Theorem VI.1: within α = 2(√2 − 1) of optimal, here checked
/// // against the super-optimal upper bound.
/// let bound = superopt::super_optimal(&problem).utility;
/// assert!(assignment.total_utility(&problem) >= ALPHA * bound - 1e-9);
/// ```
pub fn solve(problem: &Problem) -> Assignment {
    let _span = aa_obs::span!("algo2");
    if aa_obs::record_enabled() {
        solve_counter().inc();
    }
    let so = super_optimal(problem);
    let gs = linearize(problem, &so);
    assign_with(problem, &so, &gs)
}

/// Cached handle for the `aa_solve_total{solver="algo2"}` counter.
fn solve_counter() -> &'static aa_obs::Counter {
    static HANDLE: std::sync::OnceLock<aa_obs::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| aa_obs::global().counter_labeled("aa_solve_total", "solver", "algo2"))
}

/// [`solve`] with the super-optimal allocation and linearization fanned
/// out over the thread pool — the assignment phase itself is
/// `O(n log n)` and stays sequential. Intended for very large instances
/// (`n` beyond ~10⁴). **Bit-identical** to [`solve`] for every thread
/// count: the vendored pool materializes per-thread values in index
/// order and reduces sequentially, so `AA_NUM_THREADS` (or a scoped
/// `rayon::with_threads`) may change timing, never output. The
/// differential test suite asserts exact equality.
///
/// Below the allocator's parallel threshold this is [`solve`] verbatim:
/// small instances skip the pool plumbing entirely instead of paying
/// fan-out overhead for maps that finish in microseconds (the benchmark
/// suite asserts no small-instance slowdown).
pub fn solve_par(problem: &Problem) -> Assignment {
    if problem.len() < aa_allocator::par_threshold() {
        return solve(problem);
    }
    let _span = aa_obs::span!("algo2");
    if aa_obs::record_enabled() {
        solve_counter().inc();
    }
    let so = super_optimal_par(problem);
    let gs = linearize_par(problem, &so);
    assign_with(problem, &so, &gs)
}

/// Incremental Algorithm 2: **bit-identical** to [`solve`], but
/// successive calls through the same [`WarmState`](crate::incremental::WarmState)
/// pay only for what changed since the previous solve — warm-started
/// bisection, delta re-linearization, sort repair, and zero steady-state
/// allocation. See [`crate::incremental`] for the mechanism, the
/// crossover heuristic, and the budgeted/buffer-reusing variants.
pub fn solve_incremental(
    problem: &Problem,
    state: &mut crate::incremental::WarmState,
) -> Assignment {
    crate::incremental::solve_incremental(problem, state)
}

/// [`solve_par`] under a solve [`Budget`]: the super-optimal bisection
/// checks the budget per iteration (its pool fan-outs watch the budget's
/// cancel token and abandon unclaimed chunks when it fires), and the
/// placement loop checks it once per heap pop. While the budget holds
/// the result is **bit-identical** to [`solve_par`] (and hence
/// [`solve`]); expiry surfaces as [`SolveError::DeadlineExceeded`],
/// external cancellation as [`SolveError::Cancelled`] — never a
/// half-built assignment.
pub fn solve_budgeted(problem: &Problem, budget: &Budget) -> Result<Assignment, SolveError> {
    let _span = aa_obs::span!("algo2");
    if aa_obs::record_enabled() {
        solve_counter().inc();
    }
    let so = super_optimal_budgeted(problem, budget)?;
    budget.check()?;
    let gs = linearize_par(problem, &so);
    assign_with_budgeted(problem, &so, &gs, budget)
}

/// The assignment phase of Algorithm 2, given precomputed `ĉ` and `g`.
///
/// Deterministic: both sorts are stable (ties keep index order) and the
/// heap breaks capacity ties toward the lowest server index.
pub fn assign_with(problem: &Problem, so: &SuperOptimal, gs: &[Linearized]) -> Assignment {
    match assign_impl(problem, so, gs, None) {
        Ok(a) => a,
        Err(_) => unreachable!("unbudgeted assignment cannot fail"),
    }
}

/// [`assign_with`] with a per-placement budget check. Bit-identical to
/// [`assign_with`] while the budget holds — the check does not touch the
/// sorts, the heap order, or the allocated amounts.
pub fn assign_with_budgeted(
    problem: &Problem,
    so: &SuperOptimal,
    gs: &[Linearized],
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    assign_impl(problem, so, gs, Some(budget))
}

/// Shared assignment core; `budget: None` never fails.
fn assign_impl(
    problem: &Problem,
    so: &SuperOptimal,
    gs: &[Linearized],
    budget: Option<&Budget>,
) -> Result<Assignment, SolveError> {
    let _span = aa_obs::span!("assign");
    let n = problem.len();
    let m = problem.servers();
    assert_eq!(so.amounts.len(), n, "ĉ must cover every thread");
    assert_eq!(gs.len(), n, "g must cover every thread");

    // Line 1: threads by super-optimal utility, nonincreasing. Keys are
    // computed once per thread, not per comparison; the stable sort and
    // its comparator are unchanged, so the order is too.
    let keys: Vec<f64> = gs.iter().map(|g| g.value(g.c_hat())).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]));
    // Line 2: the tail (threads m+1 … n) by density, nonincreasing.
    if n > m {
        let density: Vec<f64> = gs.iter().map(Linearized::density).collect();
        order[m..].sort_by(|&a, &b| density[b].total_cmp(&density[a]));
    }

    // Lines 3–4: all servers start with C, kept in a max-heap.
    // Reverse(j) makes capacity ties prefer the lowest server index.
    let mut heap: BinaryHeap<(OrdF64, Reverse<usize>)> = (0..m)
        .map(|j| (OrdF64(problem.capacity()), Reverse(j)))
        .collect();

    // Lines 5–10: place each thread on the fullest server.
    let mut server = vec![0_usize; n];
    let mut amount = vec![0.0_f64; n];
    for &i in &order {
        if let Some(b) = budget {
            b.check()?;
        }
        // Total even for an (unrepresentable) empty server set: threads
        // that cannot be placed keep server 0 / amount 0 from the init.
        let Some((OrdF64(cj), Reverse(j))) = heap.pop() else { break };
        let c = so.amounts[i].min(cj);
        server[i] = j;
        amount[i] = c;
        heap.push((OrdF64(cj - c), Reverse(j)));
    }

    Ok(Assignment { server, amount })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power};

    use crate::ALPHA;

    fn arc<U: Utility + 'static>(u: U) -> aa_utility::DynUtility {
        Arc::new(u)
    }

    #[test]
    fn single_thread_gets_everything() {
        let p = Problem::builder(2, 10.0)
            .thread(arc(Power::new(1.0, 0.5, 10.0)))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert_eq!(a.amount[0], 10.0);
    }

    #[test]
    fn beta_one_spreads_across_servers() {
        let p = Problem::builder(4, 10.0)
            .threads((0..4).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 10.0))))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        let mut servers = a.server.clone();
        servers.sort_unstable();
        assert_eq!(servers, vec![0, 1, 2, 3]);
        for &c in &a.amount {
            assert!((c - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn reproduces_theorem_v17_tight_instance() {
        // 2 servers × 1 unit; two capped-linear threads (slope 2 up to ½)
        // and one linear thread. Adversarial tie-breaking gives exactly
        // 2.5 = (5/6)·3.
        let p = Problem::builder(2, 1.0)
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(Power::new(1.0, 1.0, 1.0)))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        let total = a.total_utility(&p);
        assert!(
            (total - 2.5).abs() < 1e-9,
            "expected the paper's 5/6 outcome, got {total}"
        );
        // And the optimum really is 3 (threads 1,2 together; thread 3 alone).
        let opt = crate::exact::solve(&p).total_utility(&p);
        assert!((opt - 3.0).abs() < 1e-6);
        assert!(total / opt > ALPHA); // 5/6 > α, consistent with Thm V.17
    }

    #[test]
    fn meets_alpha_on_mixed_instances() {
        let p = Problem::builder(3, 4.0)
            .thread(arc(CappedLinear::new(3.0, 2.0, 4.0)))
            .thread(arc(CappedLinear::new(3.0, 2.0, 4.0)))
            .thread(arc(LogUtility::new(2.0, 1.0, 4.0)))
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .thread(arc(Power::new(2.0, 0.7, 4.0)))
            .thread(arc(LogUtility::new(1.0, 3.0, 4.0)))
            .thread(arc(CappedLinear::new(0.5, 4.0, 4.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert!(a.total_utility(&p) >= ALPHA * so.utility - 1e-9);
    }

    #[test]
    fn first_m_threads_are_full() {
        // Lemma V.8 for Algorithm 2.
        let p = Problem::builder(3, 9.0)
            .threads((0..10).map(|i| arc(LogUtility::new(1.0 + (i % 4) as f64, 0.8, 9.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        // Count full threads: must be ≥ m.
        let full = (0..p.len())
            .filter(|&i| (a.amount[i] - so.amounts[i]).abs() < 1e-9)
            .count();
        assert!(full >= 3, "only {full} full threads");
    }

    #[test]
    fn at_most_one_unfull_thread_per_server() {
        // Lemma V.5 for Algorithm 2.
        let p = Problem::builder(4, 5.0)
            .threads((0..17).map(|i| arc(Power::new(1.0 + (i % 6) as f64, 0.6, 5.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        let mut unfull = vec![0_usize; 4];
        for i in 0..p.len() {
            if a.amount[i] < so.amounts[i] - 1e-9 {
                unfull[a.server[i]] += 1;
            }
        }
        assert!(unfull.iter().all(|&k| k <= 1), "{unfull:?}");
    }

    #[test]
    fn agrees_with_algo1_on_easy_instances() {
        // Both are α-approximations; on β = 1 instances both are optimal
        // and must produce the same utility.
        let p = Problem::builder(3, 10.0)
            .threads((0..3).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 10.0))))
            .build()
            .unwrap();
        let u1 = crate::algo1::solve(&p).total_utility(&p);
        let u2 = solve(&p).total_utility(&p);
        assert!((u1 - u2).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let p = Problem::builder(2, 7.0)
            .threads((0..9).map(|i| arc(Power::new(1.0 + (i % 3) as f64, 0.5, 7.0))))
            .build()
            .unwrap();
        assert_eq!(solve(&p), solve(&p));
    }

    #[test]
    fn budgeted_solve_matches_plain_and_types_expiry() {
        let p = Problem::builder(3, 4.0)
            .threads((0..12).map(|i| arc(Power::new(1.0 + (i % 5) as f64, 0.6, 4.0))))
            .build()
            .unwrap();
        let plain = solve(&p);
        let roomy = solve_budgeted(&p, &crate::Budget::unlimited()).unwrap();
        assert_eq!(plain, roomy);
        for fuel in [0, 1, 4, 60, 131, 138] {
            match solve_budgeted(&p, &crate::Budget::with_fuel(fuel)) {
                Ok(a) => assert_eq!(a, plain, "fuel {fuel}"),
                Err(e) => assert_eq!(e, SolveError::DeadlineExceeded, "fuel {fuel}"),
            }
        }
    }

    #[test]
    fn budgeted_cancel_token_reports_cancelled() {
        let p = Problem::builder(2, 4.0)
            .threads((0..6).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 4.0))))
            .build()
            .unwrap();
        let budget = crate::Budget::unlimited();
        budget.cancel_token().cancel();
        assert_eq!(
            solve_budgeted(&p, &budget),
            Err(SolveError::Cancelled)
        );
    }

    #[test]
    fn handles_more_servers_than_threads() {
        let p = Problem::builder(5, 3.0)
            .thread(arc(Power::new(1.0, 0.5, 3.0)))
            .thread(arc(Power::new(2.0, 0.5, 3.0)))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert_eq!(a.amount, vec![3.0, 3.0]);
        assert_ne!(a.server[0], a.server[1]);
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{LogUtility, Power};

    #[test]
    fn solve_par_is_bit_identical_on_large_instance() {
        // Above the allocator's parallel threshold, so the pool path
        // actually runs. The determinism contract is exact equality —
        // not closeness — at every thread count.
        let n = aa_allocator::par_threshold() + 904;
        let p = Problem::builder(16, 100.0)
            .threads((0..n).map(|i| {
                let s = 0.5 + i as f64 * 1e-3;
                if i % 2 == 0 {
                    Arc::new(Power::new(s, 0.6, 100.0)) as aa_utility::DynUtility
                } else {
                    Arc::new(LogUtility::new(s, 0.3, 100.0)) as aa_utility::DynUtility
                }
            }))
            .build()
            .unwrap();
        let seq = solve(&p);
        for threads in [1, 2, 8] {
            let par = rayon::with_threads(threads, || solve_par(&p));
            par.validate(&p).unwrap();
            assert_eq!(seq, par, "{threads} threads diverged from sequential");
        }
        let bound = super_optimal(&p).utility;
        assert!(seq.total_utility(&p) >= crate::ALPHA * bound - 1e-6 * bound);
    }

    #[test]
    fn budgeted_is_bit_identical_on_large_instance() {
        // Above the allocator's parallel threshold the budgeted path runs
        // the cancellable pool fan-out; with a roomy budget it must still
        // match the plain solve bit for bit.
        let n = aa_allocator::par_threshold() + 117;
        let p = Problem::builder(8, 50.0)
            .threads((0..n).map(|i| {
                Arc::new(Power::new(0.5 + (i % 13) as f64 * 0.2, 0.6, 50.0))
                    as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        let seq = solve(&p);
        for threads in [1, 4] {
            let got = rayon::with_threads(threads, || {
                solve_budgeted(&p, &crate::Budget::unlimited())
            })
            .unwrap();
            assert_eq!(seq, got, "{threads} threads");
        }
    }

    #[test]
    fn solve_par_small_instances_identical() {
        let p = Problem::builder(2, 10.0)
            .threads((0..5).map(|i| {
                Arc::new(Power::new(1.0 + i as f64, 0.5, 10.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        assert_eq!(solve(&p), solve_par(&p));
    }
}
