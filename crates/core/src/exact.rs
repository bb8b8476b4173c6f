//! Exact solver by exhaustive search — ground truth for small instances.
//!
//! The AA problem is NP-hard (Theorem IV.1), so this solver enumerates.
//! Because servers are homogeneous, assignments that differ only by a
//! permutation of servers are equivalent; we enumerate *restricted growth
//! strings* (thread `i` may open at most one new server beyond those
//! already used), cutting the space from `mⁿ` to at most the Bell number
//! `B(n)`. For every grouping, each server's resource is split optimally
//! among its threads by the continuous bisection allocator — optimal for
//! concave utilities — so the only discrete choice enumerated is the
//! placement, exactly the hard part.
//!
//! Used by the tests and experiments to certify approximation ratios
//! ("Algorithm 2 ≥ 99% of optimal"); not intended for `n` beyond ~12.

use aa_allocator::bisection;

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
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
    let views: Vec<CappedView> = problem.capped_threads();
    let mut server = vec![0_usize; n];

    struct Search<'a> {
        problem: &'a Problem,
        views: &'a [CappedView],
        budget: &'a Budget,
        n: usize,
        m: usize,
        best_utility: f64,
        best_server: Vec<usize>,
    }

    impl Search<'_> {
        fn dfs(&mut self, i: usize, used: usize, server: &mut Vec<usize>) -> Result<(), SolveError> {
            self.budget.check()?;
            if i == self.n {
                let utility = grouped_utility(self.problem, self.views, server, used);
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
        views: &views,
        budget,
        n,
        m,
        best_utility: f64::NEG_INFINITY,
        best_server: vec![0_usize; n],
    };
    search.dfs(0, 0, &mut server)?;
    let best_server = search.best_server;
    let amount = allocate_groups(problem, &views, &best_server);
    Ok(Assignment { server: best_server, amount })
}

/// Total utility of a placement with per-server optimal allocations.
fn grouped_utility(
    problem: &Problem,
    views: &[CappedView],
    server: &[usize],
    used: usize,
) -> f64 {
    let mut total = 0.0;
    for j in 0..used {
        let group: Vec<&CappedView> = server
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == j)
            .map(|(i, _)| &views[i])
            .collect();
        if group.is_empty() {
            continue;
        }
        total += bisection::allocate(&group, problem.capacity()).utility;
    }
    total
}

/// Optimal per-server allocation amounts for a given placement:
/// [`allocate_groups_budgeted`] at an unlimited budget.
pub fn allocate_groups(problem: &Problem, views: &[CappedView], server: &[usize]) -> Vec<f64> {
    allocate_groups_budgeted(problem, views, server, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// [`allocate_groups`] under a solve [`Budget`], checked once per server
/// and at sweep granularity inside each per-server allocation. While the
/// budget holds the amounts are **bit-identical** to [`allocate_groups`]
/// — the budgeted search shares the unbudgeted one's code path exactly.
///
/// Every server is split through one [`bisection::WarmCache`] and one
/// amounts buffer, so server `j`'s λ-search starts from server `j − 1`'s
/// collapsed bracket; by the allocator's unique-boundary-pair contract
/// each split is bit-identical to a cold [`bisection::allocate`] of that
/// server's threads.
pub fn allocate_groups_budgeted(
    problem: &Problem,
    views: &[CappedView],
    server: &[usize],
    budget: &Budget,
) -> Result<Vec<f64>, SolveError> {
    let m = problem.servers();
    let mut amount = vec![0.0_f64; server.len()];
    // Bucket the threads by server in one pass (a counting sort, so each
    // server's threads stay in index order): `members[start[j]..start[j + 1]]`.
    let mut start = vec![0_usize; m + 1];
    for &j in server.iter().filter(|&&j| j < m) {
        start[j + 1] += 1;
    }
    for j in 0..m {
        start[j + 1] += start[j];
    }
    let mut members = vec![0_usize; start[m]];
    let mut fill = start.clone();
    for (i, &j) in server.iter().enumerate().filter(|&(_, &j)| j < m) {
        members[fill[j]] = i;
        fill[j] += 1;
    }
    let mut cache = bisection::WarmCache::new();
    let mut split = Vec::new();
    let mut group: Vec<&CappedView> = Vec::new();
    for j in 0..m {
        budget.check()?;
        let idx = &members[start[j]..start[j + 1]];
        if idx.is_empty() {
            continue;
        }
        group.clear();
        group.extend(idx.iter().map(|&i| &views[i]));
        let (fan, check) = (bisection::Fan::Seq, &mut || budget.check());
        bisection::allocate_in(&group, problem.capacity(), &mut cache, &mut split, fan, check)?;
        for (&i, &c) in idx.iter().zip(&split) {
            amount[i] = c;
        }
    }
    Ok(amount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power, Utility};

    use crate::{algo2, ALPHA};

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
        let views = p.capped_threads();
        let mut best = f64::NEG_INFINITY;
        for code in 0..81_usize {
            let server: Vec<usize> = (0..4).map(|i| (code / 3_usize.pow(i as u32)) % 3).collect();
            let amount = allocate_groups(&p, &views, &server);
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
            assert_bits_eq(&want, &allocate_groups(&p, &views, &server), &format!("case {case}"));

            // A budget that expires mid-loop is an error, never a
            // half-split answer; the next clean call is unaffected.
            let fuel = rng.gen_range(0..40_u64);
            match allocate_groups_budgeted(&p, &views, &server, &Budget::with_fuel(fuel)) {
                Ok(got) => assert_bits_eq(&want, &got, &format!("case {case}, fuel {fuel}")),
                Err(e) => assert_eq!(e, SolveError::DeadlineExceeded, "case {case}"),
            }
            let again = allocate_groups_budgeted(&p, &views, &server, &Budget::unlimited()).unwrap();
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
