//! Algorithm 1 (paper §V-B): greedy assignment on linearized utilities.
//!
//! Each iteration considers the set `U` of (thread, server) pairs where
//! the server still has room for the thread's full super-optimal
//! allocation `ĉ_i`. If `U` is nonempty, the unassigned thread with the
//! greatest linearized utility `g_i(ĉ_i)` is placed with its full `ĉ_i`
//! ("full" threads, set `D` in the analysis). Otherwise the thread that
//! gets the most utility from any server's leftovers is placed with all of
//! that server's remaining resource ("unfull" threads, set `E`).
//!
//! Guarantees `F ≥ α·F*` with `α = 2(√2 − 1)` (Theorem V.16) in
//! `O(mn² + n(log mC)²)` time (Theorem V.18) — the `n(log mC)²` term is
//! the super-optimal allocation computed by `aa-allocator`.

use aa_utility::{Linearized, Utility};

use crate::budget::Budget;
use crate::linearize::linearize;
use crate::problem::{Assignment, Problem};
use crate::solver::SolveError;
use crate::superopt::{super_optimal_budgeted, SuperOptimal};

/// Run the complete Algorithm 1 pipeline: super-optimal allocation →
/// linearization → greedy assignment. [`solve_budgeted`] under
/// [`Budget::unlimited`].
pub fn solve(problem: &Problem) -> Assignment {
    solve_budgeted(problem, &Budget::unlimited()).expect("an unlimited budget never expires")
}

/// [`solve`] under a solve [`Budget`]: the super-optimal λ-search
/// checks the budget per iteration (and its pool fan-outs watch the
/// budget's cancel token), and the greedy assignment checks it once per
/// round. The λ-search and the linearization fan out over the pool past
/// the allocator's parallel threshold; the `O(mn²)`-flavor greedy is
/// inherently order-dependent and stays sequential. While the budget
/// holds the result is **bit-identical** at every pool width; expiry
/// surfaces as [`SolveError::DeadlineExceeded`], external cancellation
/// as [`SolveError::Cancelled`] — never a half-built assignment.
pub fn solve_budgeted(problem: &Problem, budget: &Budget) -> Result<Assignment, SolveError> {
    let _span = aa_obs::span!("algo1");
    let so = super_optimal_budgeted(problem, budget)?;
    budget.check()?;
    let gs = linearize(problem, &so);
    assign_with_budgeted(problem, &so, &gs, budget)
}

/// The greedy assignment phase, given precomputed `ĉ` and `g`.
///
/// Tie-breaking (the paper allows any): among equal-utility threads the
/// lowest index wins; among equally-attractive servers the one with the
/// most remaining resource wins, then the lowest index. Deterministic.
pub fn assign_with(problem: &Problem, so: &SuperOptimal, gs: &[Linearized]) -> Assignment {
    match assign_impl(problem, so, gs, None) {
        Ok(a) => a,
        Err(_) => unreachable!("unbudgeted assignment cannot fail"),
    }
}

/// [`assign_with`] with a per-round budget check. Bit-identical to
/// [`assign_with`] while the budget holds — the check does not touch the
/// greedy's numerics or tie-breaking.
pub fn assign_with_budgeted(
    problem: &Problem,
    so: &SuperOptimal,
    gs: &[Linearized],
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    assign_impl(problem, so, gs, Some(budget))
}

/// Shared greedy core; `budget: None` never fails.
fn assign_impl(
    problem: &Problem,
    so: &SuperOptimal,
    gs: &[Linearized],
    budget: Option<&Budget>,
) -> Result<Assignment, SolveError> {
    let n = problem.len();
    let m = problem.servers();
    assert_eq!(so.amounts.len(), n, "ĉ must cover every thread");
    assert_eq!(gs.len(), n, "g must cover every thread");

    let mut remaining: Vec<f64> = vec![problem.capacity(); m];
    let mut unassigned: Vec<bool> = vec![true; n];
    let mut server = vec![0_usize; n];
    let mut amount = vec![0.0_f64; n];

    for _round in 0..n {
        if let Some(b) = budget {
            b.check()?;
        }
        // The server with the most remaining resource (ties: lowest index).
        let (j_max, &c_max) = remaining
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(&a.0)))
            .expect("at least one server");

        // Line 4–7: full candidates — threads whose ĉ fits somewhere.
        // Fitting anywhere is equivalent to fitting on the fullest-capacity
        // server, so one scan suffices (this is what makes the loop body
        // O(n + m) instead of O(nm); the paper's statement of O(mn²)
        // bounds the naive pair enumeration).
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if !unassigned[i] || so.amounts[i] > c_max {
                continue;
            }
            let u = gs[i].value(so.amounts[i]);
            if best.is_none_or(|(bu, bi)| u > bu || (u == bu && i < bi)) {
                best = Some((u, i));
            }
        }

        if let Some((_, i)) = best {
            // Full assignment: give thread i its ĉ_i on a server that has
            // room; we use the max-remaining server (any choice with
            // C_j ≥ ĉ_i yields the same utility g_i(ĉ_i)).
            unassigned[i] = false;
            server[i] = j_max;
            amount[i] = so.amounts[i];
            remaining[j_max] -= so.amounts[i];
            continue;
        }

        // Line 8–10: no thread fits fully anywhere. Pick the (thread,
        // server) pair maximizing g_i(C_j); since every g_i is
        // nondecreasing the best server for any thread is the fullest one.
        let mut best_unfull: Option<(f64, usize)> = None;
        for i in 0..n {
            if !unassigned[i] {
                continue;
            }
            let u = gs[i].value(c_max);
            if best_unfull.is_none_or(|(bu, bi)| u > bu || (u == bu && i < bi)) {
                best_unfull = Some((u, i));
            }
        }
        let (_, i) = best_unfull.expect("loop runs once per unassigned thread");
        unassigned[i] = false;
        server[i] = j_max;
        amount[i] = c_max;
        remaining[j_max] = 0.0;
    }

    Ok(Assignment { server, amount })
}

/// A literal transcription of the paper's Algorithm 1 pseudocode —
/// `U = {(i, j) : C_j ≥ ĉ_i}` materialized every round, `O(mn)` per
/// iteration, `O(mn²)` total — kept as an executable specification.
///
/// [`assign_with`] is the optimized equivalent (it exploits that a
/// thread fits *somewhere* iff it fits on the max-remaining server). The
/// two must produce identical assignments under the same tie-breaking;
/// tests and the bench suite compare them.
pub fn assign_with_reference(
    problem: &Problem,
    so: &SuperOptimal,
    gs: &[Linearized],
) -> Assignment {
    let n = problem.len();
    let m = problem.servers();
    assert_eq!(so.amounts.len(), n, "ĉ must cover every thread");
    assert_eq!(gs.len(), n, "g must cover every thread");

    let mut remaining: Vec<f64> = vec![problem.capacity(); m];
    let mut unassigned: Vec<bool> = vec![true; n];
    let mut server = vec![0_usize; n];
    let mut amount = vec![0.0_f64; n];

    for _round in 0..n {
        // Line 4: U ← {(i, j) | i unassigned, C_j ≥ ĉ_i}.
        let mut u_pairs: Vec<(usize, usize)> = Vec::new();
        for (i, &open) in unassigned.iter().enumerate() {
            if !open {
                continue;
            }
            for (j, &room) in remaining.iter().enumerate() {
                if room >= so.amounts[i] {
                    u_pairs.push((i, j));
                }
            }
        }

        let (i, j, c) = if !u_pairs.is_empty() {
            // Line 6: thread in U with the greatest utility at its
            // super-optimal allocation (ties: lowest thread index), on
            // the feasible server with most remaining resource (ties:
            // lowest index) — matching `assign_with`'s tie-break.
            let &(i, _) = u_pairs
                .iter()
                .max_by(|a, b| {
                    let ua = gs[a.0].value(so.amounts[a.0]);
                    let ub = gs[b.0].value(so.amounts[b.0]);
                    ua.total_cmp(&ub).then_with(|| b.0.cmp(&a.0))
                })
                .expect("nonempty");
            let j = (0..m)
                .filter(|&j| remaining[j] >= so.amounts[i])
                .max_by(|&a, &b| {
                    remaining[a].total_cmp(&remaining[b]).then_with(|| b.cmp(&a))
                })
                .expect("some server fits i by membership in U");
            (i, j, so.amounts[i])
        } else {
            // Line 9: pair (i, j) maximizing g_i(C_j).
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..n {
                if !unassigned[i] {
                    continue;
                }
                for j in 0..m {
                    let u = gs[i].value(remaining[j]);
                    let better = match best {
                        None => true,
                        Some((bu, bi, bj)) => {
                            u > bu
                                || (u == bu
                                    && (i < bi
                                        || (i == bi
                                            && remaining[j]
                                                .total_cmp(&remaining[bj])
                                                .then_with(|| bj.cmp(&j))
                                                .is_gt())))
                        }
                    };
                    if better {
                        best = Some((u, i, j));
                    }
                }
            }
            let (_, i, j) = best.expect("loop runs once per unassigned thread");
            (i, j, remaining[j])
        };

        unassigned[i] = false;
        server[i] = j;
        amount[i] = c;
        remaining[j] -= c;
    }

    Assignment { server, amount }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power};

    use crate::superopt::super_optimal;
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
    fn one_thread_per_server_when_counts_match() {
        // β = 1: each thread lands alone and saturates its server.
        let p = Problem::builder(3, 10.0)
            .threads((0..3).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 10.0))))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
        let mut servers: Vec<usize> = a.server.clone();
        servers.sort_unstable();
        assert_eq!(servers, vec![0, 1, 2]);
        for &c in &a.amount {
            assert!((c - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn respects_capacity() {
        let p = Problem::builder(2, 5.0)
            .threads((0..7).map(|i| arc(LogUtility::new(1.0 + i as f64, 0.5, 5.0))))
            .build()
            .unwrap();
        let a = solve(&p);
        a.validate(&p).unwrap();
    }

    #[test]
    fn meets_alpha_against_superopt_on_adversarial_instances() {
        // Capped-linear utilities exercise the unfull-thread path hard.
        let p = Problem::builder(2, 1.0)
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(CappedLinear::new(2.0, 0.5, 1.0)))
            .thread(arc(Power::new(1.0, 1.0, 1.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert!(
            a.total_utility(&p) >= ALPHA * so.utility - 1e-9,
            "utility {} below α·F̂ = {}",
            a.total_utility(&p),
            ALPHA * so.utility
        );
    }

    #[test]
    fn full_threads_get_their_superoptimal_share() {
        // Lemma V.8: the first m assigned threads are full. With β = 1
        // every thread is full, so all allocations equal ĉ.
        let p = Problem::builder(4, 10.0)
            .threads((0..4).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 10.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        for (c, c_hat) in a.amount.iter().zip(&so.amounts) {
            assert!((c - c_hat).abs() < 1e-6);
        }
    }

    #[test]
    fn at_most_one_unfull_thread_per_server() {
        // Lemma V.5 on a crowded instance.
        let p = Problem::builder(3, 6.0)
            .threads((0..12).map(|i| arc(LogUtility::new(1.0 + (i % 5) as f64, 1.0, 6.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        let a = solve(&p);
        a.validate(&p).unwrap();
        let mut unfull_per_server = [0_usize; 3];
        for i in 0..p.len() {
            if a.amount[i] < so.amounts[i] - 1e-9 {
                unfull_per_server[a.server[i]] += 1;
            }
        }
        for (j, &k) in unfull_per_server.iter().enumerate() {
            assert!(k <= 1, "server {j} has {k} unfull threads");
        }
    }

    #[test]
    fn deterministic() {
        let p = Problem::builder(2, 7.0)
            .threads((0..9).map(|i| arc(Power::new(1.0 + (i % 3) as f64, 0.5, 7.0))))
            .build()
            .unwrap();
        let a = solve(&p);
        let b = solve(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn solve_par_is_bit_identical() {
        let p = Problem::builder(3, 6.0)
            .threads((0..40).map(|i| arc(Power::new(1.0 + (i % 5) as f64, 0.6, 6.0))))
            .build()
            .unwrap();
        let seq = rayon::with_threads(1, || solve(&p));
        for threads in [1, 2, 8] {
            let par = rayon::with_threads(threads, || solve(&p));
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn budgeted_solve_matches_plain_and_types_expiry() {
        let p = Problem::builder(2, 7.0)
            .threads((0..9).map(|i| arc(Power::new(1.0 + (i % 3) as f64, 0.5, 7.0))))
            .build()
            .unwrap();
        let plain = solve(&p);
        let roomy = solve_budgeted(&p, &crate::Budget::unlimited()).unwrap();
        assert_eq!(plain, roomy);
        // Enough fuel to finish the super-optimal bisection but not the
        // greedy: expiry mid-assignment is typed, never a partial result.
        for fuel in [0, 1, 3, 50, 130, 135] {
            match solve_budgeted(&p, &crate::Budget::with_fuel(fuel)) {
                Ok(a) => assert_eq!(a, plain, "fuel {fuel}"),
                Err(e) => assert_eq!(e, SolveError::DeadlineExceeded, "fuel {fuel}"),
            }
        }
    }

    #[test]
    fn optimized_matches_literal_pseudocode() {
        // The O(n+m)-per-round implementation must agree, assignment for
        // assignment, with the paper's O(mn)-per-round transcription on a
        // spread of instance shapes (smooth, kinked, crowded, sparse).
        let shapes: Vec<Problem> = vec![
            Problem::builder(2, 7.0)
                .threads((0..9).map(|i| arc(Power::new(1.0 + (i % 3) as f64, 0.5, 7.0))))
                .build()
                .unwrap(),
            Problem::builder(3, 4.0)
                .threads((0..11).map(|i| {
                    arc(CappedLinear::new(1.0 + (i % 4) as f64, 1.5, 4.0))
                }))
                .build()
                .unwrap(),
            Problem::builder(4, 10.0)
                .threads((0..3).map(|i| arc(LogUtility::new(2.0 + i as f64, 1.0, 10.0))))
                .build()
                .unwrap(),
            crate::tightness::instance(),
        ];
        for (k, p) in shapes.iter().enumerate() {
            let so = super_optimal(p);
            let gs = linearize(p, &so);
            let fast = assign_with(p, &so, &gs);
            let slow = assign_with_reference(p, &so, &gs);
            assert_eq!(fast, slow, "instance {k} diverged");
        }
    }
}
