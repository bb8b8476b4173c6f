//! Branch-and-bound exact solver: the enumerator of [`exact`] with an
//! admissible pruning bound, pushing exact solving from ~10 threads to
//! the high teens.
//!
//! Search space: restricted growth strings as in [`exact`] (server
//! symmetry removed). Threads are branched in nonincreasing order of
//! maximum utility so the bound tightens early. At every node the
//! optimistic completion value is
//!
//! ```text
//! bound = Σ_j opt(S_j, C)  +  Σ_{i unassigned} f_i(min(cap_i, C))
//! ```
//!
//! — assigned threads allocated optimally *per server as if no one else
//! will arrive*, unassigned threads each granted a private server. Both
//! relaxations only increase utility, so the bound is admissible; it
//! strictly tightens as commitments force sharing, which is where the
//! pruning power comes from. Per-node cost is one single-pool bisection
//! on the server that changed.
//!
//! [`exact`]: crate::exact

use aa_allocator::bisection;
use aa_utility::Utility;

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::SolveError;

/// Practical thread limit: beyond this even pruned search can take
/// seconds-to-minutes depending on instance structure.
pub const MAX_THREADS: usize = 18;

/// Exact optimum by branch-and-bound: [`solve_budgeted`] at an
/// unlimited budget. Produces the same utility as
/// [`exact::solve`](crate::exact::solve), typically orders of magnitude
/// faster on instances past ~8 threads.
///
/// # Panics
/// If `problem.len() > MAX_THREADS`.
pub fn solve(problem: &Problem) -> Assignment {
    match solve_budgeted(problem, &Budget::unlimited()) {
        Ok(b) => b.assignment,
        Err(e) => panic!("branch-and-bound is still exponential: {e}"),
    }
}

/// Exact optimal utility via branch-and-bound.
pub fn optimal_utility(problem: &Problem) -> f64 {
    solve(problem).total_utility(problem)
}

/// Result of the anytime budgeted branch-and-bound
/// ([`solve_budgeted`]): the best incumbent found, with a flag saying
/// whether the search ran to completion (proving optimality) or was cut
/// short by the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedSolve {
    /// Best feasible assignment found (always at least the
    /// `solve_refined` seed).
    pub assignment: Assignment,
    /// True iff the search space was exhausted — the assignment is the
    /// exact optimum, not merely the incumbent at expiry.
    pub optimal: bool,
}

/// **Anytime** branch-and-bound under a solve [`Budget`], checked once
/// per DFS node.
///
/// Unlike the strict [`exact::solve_budgeted`](crate::exact), expiry is
/// not an error here: the search carries an incumbent from the first
/// node (seeded by the budgeted `solve_refined`), so running out of
/// budget mid-search returns the best assignment found with
/// `optimal: false`. Errors are reserved for cases with no answer at
/// all: the instance is oversized ([`SolveError::TooLarge`]), the *seed*
/// itself did not finish ([`SolveError::DeadlineExceeded`]), or the
/// budget's token was cancelled externally ([`SolveError::Cancelled`]).
pub fn solve_budgeted(problem: &Problem, budget: &Budget) -> Result<BudgetedSolve, SolveError> {
    let _span = aa_obs::span!("exact_bb");
    let n = problem.len();
    if n > MAX_THREADS {
        return Err(SolveError::TooLarge { threads: n, limit: MAX_THREADS });
    }
    let m = problem.servers();
    let views: Vec<CappedView> = problem.capped_threads();

    // Branch on the biggest threads first: they change the bound most.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        views[b]
            .max_value()
            .total_cmp(&views[a].max_value())
            .then_with(|| a.cmp(&b))
    });
    // Suffix sums of the optimistic "private server" values in branch
    // order: unassigned_bound[k] = Σ_{t ≥ k} max_value(order[t]).
    let mut unassigned_bound = vec![0.0_f64; n + 1];
    for k in (0..n).rev() {
        unassigned_bound[k] = unassigned_bound[k + 1] + views[order[k]].max_value();
    }

    // The seed is the incumbent that makes the search anytime; without
    // it there is nothing to return on expiry, so seed failure is fatal.
    let seed = crate::refine::solve_refined_budgeted(problem, budget)?;
    let seed_utility = seed.total_utility(problem);

    struct Search<'a> {
        problem: &'a Problem,
        views: &'a [CappedView],
        order: &'a [usize],
        unassigned_bound: &'a [f64],
        budget: &'a Budget,
        m: usize,
        /// Threads currently on each server (branch-order indices resolved
        /// to thread ids).
        groups: Vec<Vec<usize>>,
        /// Optimal utility of each server's current group (budget C).
        group_opt: Vec<f64>,
        server_of: Vec<usize>,
        best_utility: f64,
        best_server: Vec<usize>,
    }

    impl Search<'_> {
        fn dfs(&mut self, k: usize, used: usize) -> Result<(), SolveError> {
            self.budget.check()?;
            if k == self.order.len() {
                let total: f64 = self.group_opt.iter().sum();
                if total > self.best_utility + 1e-12 {
                    self.best_utility = total;
                    self.best_server.clone_from(&self.server_of);
                }
                return Ok(());
            }
            let assigned_now: f64 = self.group_opt.iter().sum();
            if assigned_now + self.unassigned_bound[k] <= self.best_utility + 1e-12 {
                return Ok(()); // even the optimistic completion can't win
            }
            let t = self.order[k];
            let limit = (used + 1).min(self.m);
            for j in 0..limit {
                let saved_opt = self.group_opt[j];
                self.groups[j].push(t);
                let group: Vec<&CappedView> =
                    self.groups[j].iter().map(|&i| &self.views[i]).collect();
                self.group_opt[j] =
                    bisection::allocate(&group, self.problem.capacity()).utility;
                self.server_of[t] = j;
                let result = self.dfs(k + 1, used.max(j + 1));
                self.groups[j].pop();
                self.group_opt[j] = saved_opt;
                result?;
            }
            Ok(())
        }
    }

    let mut search = Search {
        problem,
        views: &views,
        order: &order,
        unassigned_bound: &unassigned_bound,
        budget,
        m,
        groups: vec![Vec::new(); m],
        group_opt: vec![0.0; m],
        server_of: vec![0; n],
        best_utility: seed_utility,
        best_server: seed.server.clone(),
    };
    let optimal = match search.dfs(0, 0) {
        Ok(()) => true,
        // Anytime: expiry keeps the incumbent. External cancellation
        // means nobody wants the answer — propagate it.
        Err(SolveError::DeadlineExceeded) => false,
        Err(e) => return Err(e),
    };
    let best_server = search.best_server;

    // The incumbent's placement is feasible by construction; rebuild its
    // allocation with the *unbudgeted* allocator so an expired budget
    // cannot block materializing the answer we already hold.
    let amount = crate::exact::allocate_groups(problem, &views, &best_server);
    Ok(BudgetedSolve {
        assignment: Assignment { server: best_server, amount },
        optimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, DynUtility, LogUtility, Power};

    use crate::{algo2, exact, ALPHA};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    fn random_problem(seed: u64, m: usize, n: usize) -> Problem {
        Problem::builder(m, 10.0)
            .threads((0..n).map(|i| {
                let s = 1.0 + ((i as u64 * 13 + seed * 7) % 11) as f64;
                match i % 3 {
                    0 => arc(Power::new(s, 0.5, 10.0)),
                    1 => arc(LogUtility::new(s, 0.7, 10.0)),
                    _ => arc(CappedLinear::new(s / 2.0, 3.0, 10.0)),
                }
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn matches_plain_enumeration() {
        for seed in 0..6 {
            let p = random_problem(seed, 2 + (seed as usize % 2), 6);
            let bb = optimal_utility(&p);
            let brute = exact::optimal_utility(&p);
            assert!(
                (bb - brute).abs() < 1e-6 * brute.max(1.0),
                "seed {seed}: bb {bb} vs brute {brute}"
            );
        }
    }

    #[test]
    fn solves_the_tightness_instance() {
        let p = crate::tightness::instance();
        let a = solve(&p);
        assert!((a.total_utility(&p) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn handles_larger_instances_than_brute_force_comfortably() {
        // 14 threads × 3 servers: Bell-ish space ≈ 10^7 leaves unpruned;
        // B&B with the algo2 incumbent cuts it to a fraction.
        let p = random_problem(3, 3, 14);
        let start = std::time::Instant::now();
        let a = solve(&p);
        let took = start.elapsed();
        a.validate(&p).unwrap();
        let approx = algo2::solve(&p).total_utility(&p);
        let opt = a.total_utility(&p);
        assert!(opt >= approx - 1e-9, "exact below the approximation");
        assert!(approx >= ALPHA * opt - 1e-9);
        assert!(took.as_secs() < 30, "took {took:?}");
    }

    #[test]
    fn incumbent_seeding_never_misleads() {
        // The B&B must return ≥ its Algorithm 2 seed even when the seed is
        // already optimal (no strictly-better leaf exists).
        let p = Problem::builder(3, 9.0)
            .threads((0..3).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 9.0))))
            .build()
            .unwrap();
        let a = solve(&p);
        let seeded = crate::refine::solve_refined(&p).total_utility(&p);
        assert!(a.total_utility(&p) >= seeded - 1e-9);
    }

    #[test]
    fn feasible_output() {
        let p = random_problem(9, 3, 8);
        solve(&p).validate(&p).unwrap();
    }

    #[test]
    #[should_panic(expected = "still exponential")]
    fn refuses_oversized_instances() {
        let p = Problem::builder(2, 1.0)
            .threads((0..MAX_THREADS + 1).map(|_| arc(Power::new(1.0, 0.5, 1.0))))
            .build()
            .unwrap();
        solve(&p);
    }

    #[test]
    fn budgeted_with_room_matches_plain_and_proves_optimality() {
        for seed in 0..3 {
            let p = random_problem(seed, 2, 6);
            let plain = solve(&p);
            let roomy = solve_budgeted(&p, &Budget::unlimited()).unwrap();
            assert!(roomy.optimal, "seed {seed}");
            assert_eq!(roomy.assignment, plain, "seed {seed}");
        }
    }

    #[test]
    fn budgeted_is_anytime_across_all_fuel_levels() {
        // Every fuel level must yield either a typed expiry (seed did not
        // finish) or a feasible incumbent at least as good as the seed;
        // the sweep must witness all three regimes: seed expiry, partial
        // search, and proven optimality.
        let p = random_problem(1, 2, 6);
        let seed_utility = crate::refine::solve_refined(&p).total_utility(&p);
        let optimal = solve(&p).total_utility(&p);
        let (mut saw_err, mut saw_partial, mut saw_optimal) = (false, false, false);
        for fuel in (0..3000).step_by(3) {
            match solve_budgeted(&p, &Budget::with_fuel(fuel)) {
                Err(e) => {
                    assert_eq!(e, SolveError::DeadlineExceeded, "fuel {fuel}");
                    saw_err = true;
                }
                Ok(b) => {
                    b.assignment.validate(&p).unwrap();
                    let u = b.assignment.total_utility(&p);
                    assert!(u >= seed_utility - 1e-9, "fuel {fuel}: below seed");
                    if b.optimal {
                        assert!((u - optimal).abs() < 1e-9, "fuel {fuel}");
                        saw_optimal = true;
                    } else {
                        saw_partial = true;
                    }
                }
            }
        }
        assert!(saw_err && saw_partial && saw_optimal);
    }

    #[test]
    fn budgeted_rejects_oversized_instances_without_panicking() {
        let p = Problem::builder(2, 1.0)
            .threads((0..MAX_THREADS + 1).map(|_| arc(Power::new(1.0, 0.5, 1.0))))
            .build()
            .unwrap();
        match solve_budgeted(&p, &Budget::unlimited()) {
            Err(SolveError::TooLarge { threads, limit }) => {
                assert_eq!(threads, MAX_THREADS + 1);
                assert_eq!(limit, MAX_THREADS);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
