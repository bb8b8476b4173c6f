//! Ablations of Algorithm 2's design choices (ours, not the paper's).
//!
//! Two ingredients of Algorithm 2 look arbitrary until removed:
//!
//! * **the two-phase sort** — first by super-optimal utility, then the
//!   tail by density. [`algo2_single_sort`] keeps only the utility sort;
//!   Lemma V.10 no longer holds, so the α guarantee is void. On any given
//!   instance either order may come out ahead (both are greedy heuristics
//!   above the same guarantee floor); the benches compare them across
//!   workload families.
//! * **the super-optimal demands** — `ĉ` comes from the pooled `mC`
//!   allocation. [`algo2_fair_share`] substitutes the naive fair share
//!   `min(cap_i, mC/n)`, mimicking "ask for an equal slice" request-based
//!   systems the paper's introduction criticizes.
//!
//! Both remain *feasible* (they only change the processing order and the
//! target demands), so they can run on any instance for side-by-side
//! comparison (`aa-experiments ablation`).

use aa_utility::{Linearized, Utility};

use crate::algo2::Placement;
use crate::linearize::linearize;
use crate::problem::{Assignment, Problem};
use crate::superopt::super_optimal;

/// Algorithm 2 with the tail density re-sort removed (sort once by
/// `g_i(ĉ_i)` only).
pub fn algo2_single_sort(problem: &Problem) -> Assignment {
    let so = super_optimal(problem);
    let gs = linearize(problem, &so);
    let mut placement = Placement::default();
    placement.sort_by_value(&gs);
    walk(problem, &mut placement, &so.amounts)
}

/// Algorithm 2 with fair-share demands `min(cap_i, mC/n)` instead of the
/// super-optimal allocation (the linearization is built from the same
/// demands for consistency of the sort keys).
pub fn algo2_fair_share(problem: &Problem) -> Assignment {
    let n = problem.len();
    let m = problem.servers();
    let fair = m as f64 * problem.capacity() / n as f64;
    let demands: Vec<f64> = (0..n)
        .map(|i| problem.effective_cap(i).min(fair))
        .collect();
    let gs: Vec<Linearized> = problem
        .threads()
        .iter()
        .zip(&demands)
        .map(|(f, &c)| Linearized::new(c, f.value(c), problem.capacity(), f.value(0.0)))
        .collect();

    let mut placement = Placement::default();
    placement.sort_by_value(&gs);
    placement.sort_tail_by_density(&gs, m);
    walk(problem, &mut placement, &demands)
}

/// Algorithm 2's walk over the ablation's order: each thread takes
/// `min(demand, remaining)` on the fullest server.
fn walk(problem: &Problem, placement: &mut Placement, demands: &[f64]) -> Assignment {
    let caps = std::iter::repeat_n(problem.capacity(), problem.servers());
    let mut out = Assignment { server: Vec::new(), amount: Vec::new() };
    placement
        .walk(caps, None, |i, cj| demands[i].min(cj), &mut out.server, &mut out.amount)
        .expect("an unbudgeted walk never fails");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, Power};

    use crate::algo2;

    fn arc<U: Utility + 'static>(u: U) -> aa_utility::DynUtility {
        Arc::new(u)
    }

    fn skewed_problem() -> Problem {
        // A few high-value steep threads among many shallow ones: the
        // regime where ordering matters.
        let mut b = Problem::builder(4, 10.0);
        for i in 0..3 {
            b = b.thread(arc(CappedLinear::new(8.0 + i as f64, 2.0, 10.0)));
        }
        for i in 0..13 {
            b = b.thread(arc(Power::new(0.3 + 0.05 * i as f64, 0.5, 10.0)));
        }
        b.build().unwrap()
    }

    #[test]
    fn ablations_are_feasible() {
        let p = skewed_problem();
        algo2_single_sort(&p).validate(&p).unwrap();
        algo2_fair_share(&p).validate(&p).unwrap();
    }

    #[test]
    fn full_algorithm_keeps_guarantee_single_sort_stays_bounded() {
        // The full algorithm is guaranteed ≥ α·F̂ (Theorem VI.1); the
        // single-sort ablation loses the proof but must still stay below
        // the bound and lands in the same ballpark on this instance.
        let p = skewed_problem();
        let bound = crate::superopt::super_optimal(&p).utility;
        let full = algo2::solve(&p).total_utility(&p);
        let ablated = algo2_single_sort(&p).total_utility(&p);
        assert!(full >= crate::ALPHA * bound - 1e-9);
        assert!(ablated <= bound + 1e-9);
        assert!(ablated > 0.5 * bound, "ablation collapsed: {ablated} vs {bound}");
    }

    #[test]
    fn fair_share_hurts_on_heterogeneous_demands() {
        // Threads with wildly different useful demands: fair-share
        // misallocates, the super-optimal demands don't.
        let p = Problem::builder(2, 10.0)
            .thread(arc(CappedLinear::new(10.0, 9.0, 10.0))) // wants 9
            .thread(arc(CappedLinear::new(10.0, 9.0, 10.0))) // wants 9
            .thread(arc(CappedLinear::new(0.1, 1.0, 10.0))) // wants 1
            .thread(arc(CappedLinear::new(0.1, 1.0, 10.0))) // wants 1
            .build()
            .unwrap();
        let full = algo2::solve(&p).total_utility(&p);
        let fair = algo2_fair_share(&p).total_utility(&p);
        assert!(full > fair + 1.0, "full {full} vs fair-share {fair}");
    }

    #[test]
    fn ablations_deterministic() {
        let p = skewed_problem();
        assert_eq!(algo2_single_sort(&p), algo2_single_sort(&p));
        assert_eq!(algo2_fair_share(&p), algo2_fair_share(&p));
    }
}
