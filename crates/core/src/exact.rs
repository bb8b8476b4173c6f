//! Exact solver by exhaustive search — ground truth for small instances.
//!
//! The AA problem is NP-hard (Theorem IV.1), so this solver enumerates.
//! Because servers are homogeneous, assignments that differ only by a
//! permutation of servers are equivalent; we enumerate *restricted growth
//! strings* (thread `i` may open at most one new server beyond those
//! already used), cutting the space from `mⁿ` to at most the Bell number
//! `B(n)`. For every grouping, each server's resource is split optimally
//! among its threads by the per-server re-split ([`Resplit::group`], a
//! cold λ-search per group) — optimal for concave utilities — so the
//! only discrete choice enumerated is the placement, exactly the hard
//! part. The winner's amounts come from [`Resplit::placement`].
//!
//! Used by the tests and experiments to certify approximation ratios
//! ("Algorithm 2 ≥ 99% of optimal"); not intended for `n` beyond ~12.

use aa_allocator::Interrupted;

use crate::budget::Budget;
use crate::problem::{Assignment, Problem};
use crate::refine::Resplit;
use crate::solver::SolveError;

/// Hard limit: enumeration beyond this many threads would take minutes.
pub const MAX_THREADS: usize = 14;

/// Find an optimal assignment by exhaustive search over placements with
/// per-server optimal allocations: [`solve_budgeted`] at an unlimited
/// budget.
///
/// # Panics
/// If `problem.len() > MAX_THREADS` — use the approximation algorithms.
pub fn solve(problem: &Problem) -> Assignment {
    solve_budgeted(problem, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("exact solver is exponential: {e}"))
}

/// The optimal total utility (convenience wrapper).
pub fn optimal_utility(problem: &Problem) -> f64 {
    let a = solve(problem);
    a.total_utility(problem)
}

/// [`solve`] under a solve [`Budget`], checked once per DFS node.
///
/// **Strict**: exhaustive search has no meaningful partial answer (an
/// unexplored subtree may hold the optimum), so expiry returns
/// [`SolveError::DeadlineExceeded`] rather than a possibly-suboptimal
/// assignment — use [`exact_bb::solve_budgeted`](crate::exact_bb) for an
/// anytime incumbent. Oversized instances return
/// [`SolveError::TooLarge`] instead of panicking.
pub fn solve_budgeted(problem: &Problem, budget: &Budget) -> Result<Assignment, SolveError> {
    let n = problem.len();
    if n > MAX_THREADS {
        return Err(SolveError::TooLarge { threads: n, limit: MAX_THREADS });
    }
    budget.check()?;
    let m = problem.servers();
    let mut server = vec![0_usize; n];

    struct Search<'a> {
        problem: &'a Problem,
        budget: &'a Budget,
        n: usize,
        m: usize,
        resplit: Resplit,
        members: Vec<usize>,
        best_utility: f64,
        best_server: Vec<usize>,
    }

    impl Search<'_> {
        fn dfs(&mut self, i: usize, used: usize, server: &mut Vec<usize>) -> Result<(), SolveError> {
            self.budget.check()?;
            if i == self.n {
                // Each used server's group, in index order, split cold.
                let mut utility = 0.0;
                for j in 0..used {
                    self.members.clear();
                    self.members.extend((0..self.n).filter(|&t| server[t] == j));
                    utility += self.resplit.group(self.problem, &self.members);
                }
                if utility > self.best_utility {
                    self.best_utility = utility;
                    self.best_server.clone_from(server);
                }
                return Ok(());
            }
            let limit = (used + 1).min(self.m);
            for j in 0..limit {
                server[i] = j;
                self.dfs(i + 1, used.max(j + 1), server)?;
            }
            Ok(())
        }
    }

    let mut search = Search {
        problem,
        budget,
        n,
        m,
        resplit: Resplit::new(),
        members: Vec::with_capacity(n),
        best_utility: f64::NEG_INFINITY,
        best_server: vec![0_usize; n],
    };
    search.dfs(0, 0, &mut server)?;
    let unchecked = &mut || Ok::<_, Interrupted>(());
    let amount = search
        .resplit
        .placement(problem, &search.best_server, unchecked)
        .expect("an unchecked sequential search never interrupts");
    Ok(Assignment { server: search.best_server, amount })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_allocator::bisection;
    use aa_utility::{CappedLinear, LogUtility, Power, Utility};

    use crate::problem::CappedView;
    use crate::{algo2, ALPHA};

    /// [`Resplit::placement`] with no budget.
    fn placement(p: &Problem, server: &[usize]) -> Vec<f64> {
        Resplit::new().placement(p, server, &mut || Ok::<_, Interrupted>(())).unwrap()
    }

    fn arc<U: Utility + 'static>(u: U) -> aa_utility::DynUtility {
        Arc::new(u)
    }

    #[test]
    fn single_server_reduces_to_allocation() {
        let p = Problem::builder(1, 6.0)
            .thread(arc(Power::new(1.0, 0.5, 6.0)))
            .thread(arc(Power::new(2.0, 0.5, 6.0)))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        let direct = aa_allocator::bisection::allocate(&p.capped_threads(), 6.0);
        assert!((a.total_utility(&p) - direct.utility).abs() < 1e-6);
    }

    #[test]
    fn finds_the_partition_style_optimum() {
        // Thm V.17 instance: optimum is 3 (both capped threads share a
        // server; the linear thread gets its own).
        let p = Problem::builder(2, 1.0)
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(Power::new(1.0, 1.0, 1.0)))
            .build()
            .unwrap();
        let a = solve(&p);
        assert!((a.total_utility(&p) - 3.0).abs() < 1e-6);
        // The two capped threads share a server.
        assert_eq!(a.server[0], a.server[1]);
        assert_ne!(a.server[0], a.server[2]);
    }

    #[test]
    fn never_below_superopt_ratio_alpha_for_algo2() {
        // Certify Theorem VI.1 against the true optimum on several small
        // mixed instances.
        for seed in 0..5_u64 {
            let p = Problem::builder(2, 5.0)
                .threads((0..6).map(|i| {
                    let s = 1.0 + ((i as u64 * 7 + seed * 13) % 9) as f64;
                    if i % 2 == 0 {
                        arc(Power::new(s, 0.5, 5.0))
                    } else {
                        arc(LogUtility::new(s, 1.0, 5.0))
                    }
                }))
                .build()
                .unwrap();
            let opt = optimal_utility(&p);
            let approx = algo2::solve(&p).total_utility(&p);
            assert!(
                approx >= ALPHA * opt - 1e-6,
                "seed {seed}: {approx} < α·{opt}"
            );
            assert!(approx <= opt + 1e-6, "approx beat the optimum?!");
        }
    }

    #[test]
    fn symmetry_pruning_preserves_optimality() {
        // Compare against a full mⁿ enumeration on a tiny instance.
        let p = Problem::builder(3, 4.0)
            .thread(arc(Power::new(3.0, 0.5, 4.0)))
            .thread(arc(Power::new(1.0, 0.9, 4.0)))
            .thread(arc(LogUtility::new(2.0, 1.0, 4.0)))
            .thread(arc(CappedLinear::new(1.5, 2.0, 4.0)))
            .build()
            .unwrap();
        let fast = optimal_utility(&p);

        // Brute force over all 3^4 placements.
        let mut best = f64::NEG_INFINITY;
        for code in 0..81_usize {
            let server: Vec<usize> = (0..4).map(|i| (code / 3_usize.pow(i as u32)) % 3).collect();
            let amount = placement(&p, &server);
            let a = Assignment { server, amount };
            best = best.max(a.total_utility(&p));
        }
        assert!((fast - best).abs() < 1e-6, "pruned {fast} vs full {best}");
    }

    #[test]
    fn budgeted_matches_plain_and_is_strict_about_expiry() {
        let p = Problem::builder(2, 5.0)
            .threads((0..6).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 5.0))))
            .build()
            .unwrap();
        let plain = solve(&p);
        let roomy = solve_budgeted(&p, &crate::Budget::unlimited()).unwrap();
        assert!((roomy.total_utility(&p) - plain.total_utility(&p)).abs() < 1e-9);
        // Strict: expiry mid-enumeration is an error, never a
        // possibly-suboptimal "best so far".
        assert_eq!(
            solve_budgeted(&p, &crate::Budget::with_fuel(10)),
            Err(SolveError::DeadlineExceeded)
        );
    }

    /// The reference the chained re-split must reproduce: one cold
    /// allocation per server.
    fn per_server_cold(p: &Problem, views: &[CappedView], server: &[usize]) -> Vec<f64> {
        let mut amount = vec![0.0; server.len()];
        for j in 0..p.servers() {
            let idx: Vec<usize> = (0..server.len()).filter(|&i| server[i] == j).collect();
            let group: Vec<&CappedView> = idx.iter().map(|&i| &views[i]).collect();
            let alloc = bisection::allocate(&group, p.capacity());
            for (&i, &c) in idx.iter().zip(&alloc.amounts) {
                amount[i] = c;
            }
        }
        amount
    }

    fn assert_bits_eq(want: &[f64], got: &[f64], ctx: &str) {
        assert_eq!(want.len(), got.len(), "{ctx}");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: thread {i}: {b} vs {a}");
        }
    }

    #[test]
    fn chained_regroup_matches_per_server_cold_splits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Families whose demand is exactly monotone in λ (the contract
        // the chain's bit identity rests on). A 1e-21-scaled thread
        // prices its server under WARM_MIN_PRICE; lone threads and
        // low-cap pairs saturate theirs and pin no bracket; servers left
        // empty are skipped without touching the chain.
        let capacity = 10.0;
        let mut rng = StdRng::seed_from_u64(19);
        let mut resplit = Resplit::new();
        for case in 0..300 {
            let servers = rng.gen_range(1..7_usize);
            let n = rng.gen_range(1..16_usize);
            let p = Problem::builder(servers, capacity)
                .threads((0..n).map(|_| {
                    let s = rng.gen_range(0.2..5.0);
                    match rng.gen_range(0..5_u32) {
                        0 => arc(Power::new(s, rng.gen_range(0.2..0.9), rng.gen_range(1.0..12.0))),
                        1 => arc(LogUtility::new(s, rng.gen_range(0.1..3.0), rng.gen_range(1.0..12.0))),
                        2 => arc(CappedLinear::new(s, rng.gen_range(0.5..6.0), 12.0)),
                        3 => arc(Power::new(s, 0.5, rng.gen_range(0.5..3.0))),
                        _ => arc(Power::new(s * 1e-21, 0.5, 12.0)),
                    }
                }))
                .build()
                .unwrap();
            let views = p.capped_threads();
            let server: Vec<usize> = (0..n).map(|_| rng.gen_range(0..servers)).collect();
            let want = per_server_cold(&p, &views, &server);
            assert_bits_eq(&want, &placement(&p, &server), &format!("case {case}"));

            // One cold `Resplit::group` per server, through one kept
            // `Resplit`, lands on the same amounts.
            let mut grouped = vec![0.0; n];
            for j in 0..servers {
                let idx: Vec<usize> = (0..n).filter(|&i| server[i] == j).collect();
                resplit.group(&p, &idx);
                for (&i, &c) in idx.iter().zip(resplit.amounts()) {
                    grouped[i] = c;
                }
            }
            assert_bits_eq(&want, &grouped, &format!("case {case}, per group"));

            // A budget that expires mid-loop is an error, never a
            // half-split answer; the next clean call is unaffected.
            let fuel = rng.gen_range(0..40_u64);
            let budget = Budget::with_fuel(fuel);
            match resplit.placement(&p, &server, &mut || budget.check()) {
                Ok(got) => assert_bits_eq(&want, &got, &format!("case {case}, fuel {fuel}")),
                Err(e) => assert_eq!(e, SolveError::DeadlineExceeded, "case {case}"),
            }
            let unlimited = &mut || Budget::unlimited().check();
            let again = resplit.placement(&p, &server, unlimited).unwrap();
            assert_bits_eq(&want, &again, &format!("case {case}, after expiry"));
        }
    }

    #[test]
    fn budgeted_rejects_oversized_instances_without_panicking() {
        let p = Problem::builder(2, 1.0)
            .threads((0..MAX_THREADS + 1).map(|_| arc(Power::new(1.0, 0.5, 1.0))))
            .build()
            .unwrap();
        assert!(matches!(
            solve_budgeted(&p, &crate::Budget::unlimited()),
            Err(SolveError::TooLarge { limit: MAX_THREADS, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "exact solver is exponential")]
    fn refuses_large_instances() {
        let p = Problem::builder(2, 1.0)
            .threads((0..MAX_THREADS + 1).map(|_| arc(Power::new(1.0, 0.5, 1.0))))
            .build()
            .unwrap();
        solve(&p);
    }
}
