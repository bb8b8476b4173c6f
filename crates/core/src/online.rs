//! Extension (paper §VIII future work): drifting utilities and local
//! repair.
//!
//! In practice a thread's utility curve changes as its phase behavior
//! changes. Rerunning Algorithm 2 from scratch is cheap (`O(n (log mC)²)`)
//! but moves threads arbitrarily; migrations are the expensive part in
//! real systems (cache warm-up, VM live-migration). This module offers a
//! middle ground:
//!
//! * [`refine_allocation`] — keep every thread where it is, re-split
//!   each server's resource optimally for the *new* utilities. Zero
//!   migrations, never decreases utility relative to keeping the stale
//!   allocation.
//! * [`improve_with_migrations`] — after in-place reallocation, greedily
//!   migrate up to `k` threads: each step moves the thread with the
//!   largest gain between its current marginal utility and what it could
//!   earn on the most underused server, then re-splits both servers
//!   ([`Resplit::group`]; every other server keeps its amounts).
//!   Utility is re-evaluated after every step; a step that does not
//!   improve is rolled back and the loop stops, so the result is
//!   monotonically at least as good as [`refine_allocation`].

use crate::problem::{Assignment, Problem};
use crate::refine::{refine_allocation, Resplit};

/// In-place reallocation plus up to `max_migrations` greedy migrations.
///
/// Each migration moves one thread to the server with the most unused
/// *utility headroom* for it and re-splits the two affected servers. Stops
/// early when no migration improves total utility.
pub fn improve_with_migrations(
    problem: &Problem,
    current: &Assignment,
    max_migrations: usize,
) -> Assignment {
    let mut best = refine_allocation(problem, current);
    let mut best_utility = best.total_utility(problem);
    let mut resplit = Resplit::new();
    let mut members = Vec::new();

    for _ in 0..max_migrations {
        // Candidate move: for each thread, consider only the move to the
        // currently lightest-loaded server (one destination instead of
        // m−1 keeps each round at n re-split evaluations).
        let loads = best.server_loads(problem);
        let Some((dest, _)) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(&b.0)))
        else {
            // Unreachable for a built problem (m ≥ 1), but total anyway:
            // nowhere to migrate means nothing left to improve.
            break;
        };

        let mut improved: Option<(Assignment, f64)> = None;
        for i in 0..problem.len() {
            let source = best.server[i];
            if source == dest {
                continue;
            }
            let mut trial = best.clone();
            trial.server[i] = dest;
            for j in [source, dest] {
                members.clear();
                members.extend((0..problem.len()).filter(|&t| trial.server[t] == j));
                resplit.group(problem, &members);
                for (&t, &c) in members.iter().zip(resplit.amounts()) {
                    trial.amount[t] = c;
                }
            }
            let u = trial.total_utility(problem);
            if u > best_utility + 1e-12
                && improved.as_ref().is_none_or(|&(_, bu)| u > bu)
            {
                improved = Some((trial, u));
            }
        }

        match improved {
            Some((assignment, utility)) => {
                best = assignment;
                best_utility = utility;
            }
            None => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{DynUtility, LogUtility, Power, Utility};

    use crate::{algo2, superopt};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    /// A problem, and a "drifted" version with different utilities but the
    /// same shape.
    fn drifted_pair() -> (Problem, Problem) {
        let before = Problem::builder(3, 9.0)
            .threads((0..9).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 9.0))))
            .build()
            .unwrap();
        let after = Problem::builder(3, 9.0)
            .threads((0..9).map(|i| {
                // Reverse the importance ranking: previously-cheap threads
                // become valuable.
                arc(LogUtility::new(9.0 - i as f64, 1.0, 9.0))
            }))
            .build()
            .unwrap();
        (before, after)
    }

    #[test]
    fn in_place_never_decreases_utility() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let kept = stale.total_utility(&after);
        let fixed = refine_allocation(&after, &stale);
        fixed.validate(&after).unwrap();
        assert!(fixed.total_utility(&after) >= kept - 1e-9);
    }

    #[test]
    fn in_place_keeps_placement() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let fixed = refine_allocation(&after, &stale);
        assert_eq!(fixed.server, stale.server);
    }

    #[test]
    fn migrations_monotonically_improve() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let u0 = refine_allocation(&after, &stale).total_utility(&after);
        let mut prev = u0;
        for k in [1, 2, 4, 8] {
            let a = improve_with_migrations(&after, &stale, k);
            a.validate(&after).unwrap();
            let u = a.total_utility(&after);
            assert!(u >= prev - 1e-9, "k = {k}: {u} < {prev}");
            prev = u;
        }
    }

    #[test]
    fn repaired_solution_respects_bound() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let repaired = improve_with_migrations(&after, &stale, 8);
        let bound = superopt::super_optimal(&after).utility;
        assert!(repaired.total_utility(&after) <= bound + 1e-9);
    }

    #[test]
    fn zero_migrations_is_in_place() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let a = improve_with_migrations(&after, &stale, 0);
        let b = refine_allocation(&after, &stale);
        assert_eq!(a, b);
    }

    /// The migrations pass re-splitting every server of each trial
    /// placement ([`Resplit::placement`]) instead of the two it changed.
    fn migrations_by_full_resplit(problem: &Problem, current: &Assignment, k: usize) -> Assignment {
        let full = |server: &[usize]| {
            let unchecked = &mut || Ok::<_, aa_allocator::Interrupted>(());
            Resplit::new().placement(problem, server, unchecked).unwrap()
        };
        let mut best = Assignment { server: current.server.clone(), amount: full(&current.server) };
        let mut best_utility = best.total_utility(problem);
        for _ in 0..k {
            let loads = best.server_loads(problem);
            let dest = (0..loads.len())
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then_with(|| a.cmp(&b)))
                .unwrap();
            let mut improved: Option<(Assignment, f64)> = None;
            for i in (0..problem.len()).filter(|&i| best.server[i] != dest) {
                let mut server = best.server.clone();
                server[i] = dest;
                let trial = Assignment { amount: full(&server), server };
                let u = trial.total_utility(problem);
                if u > best_utility + 1e-12 && improved.as_ref().is_none_or(|&(_, bu)| u > bu) {
                    improved = Some((trial, u));
                }
            }
            match improved {
                Some((a, u)) => (best, best_utility) = (a, u),
                None => break,
            }
        }
        best
    }

    #[test]
    fn two_server_resplit_matches_full_resplit_on_monotone_families() {
        // Where demand is monotone in λ each server's split does not
        // depend on where its search starts, so re-splitting only the
        // source and the destination of a move and carrying every other
        // server's amounts lands on the full re-split's answer, bit for
        // bit.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use crate::refine::tests::random_thread;

        let capacity = 10.0;
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..120 {
            let servers = rng.gen_range(1..6_usize);
            let n = rng.gen_range(1..12_usize);
            let p = Problem::builder(servers, capacity)
                .threads((0..n).map(|_| random_thread(&mut rng, capacity, false)))
                .build()
                .unwrap();
            let current = Assignment {
                server: (0..n).map(|_| rng.gen_range(0..servers)).collect(),
                amount: vec![0.0; n],
            };
            for k in [1, 4] {
                let want = migrations_by_full_resplit(&p, &current, k);
                let got = improve_with_migrations(&p, &current, k);
                assert_eq!(want.server, got.server, "case {case}, k {k}");
                let bits = |a: Assignment| a.amount.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(want), bits(got), "case {case}, k {k}");
            }
        }
    }

    #[test]
    fn full_resolve_at_least_as_good_as_repair_on_this_family() {
        // Not a theorem, but expected on smooth instances: from-scratch
        // Algorithm 2 should be no worse than limited local repair.
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let repaired = improve_with_migrations(&after, &stale, 3).total_utility(&after);
        let fresh = algo2::solve(&after).total_utility(&after);
        assert!(fresh >= repaired * 0.95, "fresh {fresh} vs repaired {repaired}");
    }
}
