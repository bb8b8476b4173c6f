//! Property-based verification of the budget/cancellation safety
//! contract.
//!
//! For random small problems and random fuel levels (fuel is the
//! deterministic stand-in for a wall-clock deadline — same sticky
//! expiry, same checkpoints, reproducible from the proptest seed):
//!
//! * every budgeted solve path either completes **bit-identical** to
//!   its unbudgeted twin or fails with a typed budget error — never a
//!   panic, never an infeasible or half-finished assignment;
//! * the tiered solver never errors on expiry (the uu floor absorbs
//!   it) and always returns a feasible assignment at least as good as
//!   uu;
//! * cancelling the token at a random point yields `Cancelled`, not a
//!   corrupt result;
//! * with unlimited budget, the approximate tiered ladder is
//!   bit-identical to the `Algo2Refined` solver.

use std::sync::Arc;

use aa_core::solver::{Algo2Refined, Algorithm, SolveError, Solver, DEFAULT_SEED};
use aa_core::{
    ablation, algo1, algo2, exact, exact_bb, heuristics, price, refine, Assignment, Budget,
    Problem, Tier, TieredSolver,
};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Power};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random concave utility of a random family.
fn any_utility(cap: f64) -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (0.1..10.0f64, 0.2..1.0f64)
            .prop_map(move |(s, b)| Arc::new(Power::new(s, b, cap)) as DynUtility),
        (0.1..10.0f64, 0.1..4.0f64)
            .prop_map(move |(s, r)| Arc::new(LogUtility::new(s, r, cap)) as DynUtility),
        (0.1..10.0f64, 0.05..1.0f64)
            .prop_map(move |(s, k)| Arc::new(CappedLinear::new(s, k * cap, cap)) as DynUtility),
    ]
}

/// The module function each registry row stands for, randomized rows
/// under the `Solver` default seed.
fn plain(a: Algorithm, p: &Problem) -> Assignment {
    let rng = &mut StdRng::seed_from_u64(DEFAULT_SEED);
    match a {
        Algorithm::Algo2 => algo2::solve(p),
        Algorithm::Algo2Refined => refine::solve_refined(p),
        Algorithm::Price => price::solve(p),
        Algorithm::Algo1 => algo1::solve(p),
        Algorithm::Uu => heuristics::uu(p),
        Algorithm::Ur => heuristics::ur(p, rng),
        Algorithm::Ru => heuristics::ru(p, rng),
        Algorithm::Rr => heuristics::rr(p, rng),
        Algorithm::BruteForce => exact::solve(p),
        Algorithm::BranchAndBound => exact_bb::solve(p),
        Algorithm::Algo2SingleSort => ablation::algo2_single_sort(p),
        Algorithm::Algo2FairShare => ablation::algo2_fair_share(p),
    }
}

/// Strategy: a small random AA problem.
fn small_problem() -> impl Strategy<Value = Problem> {
    (2usize..5, 2usize..9, 1.0..20.0f64).prop_flat_map(|(m, n, cap)| {
        prop::collection::vec(any_utility(cap), n)
            .prop_map(move |threads| Problem::new(m, cap, threads).unwrap())
    })
}

proptest! {
    /// Budgeted Algorithm 2 at a random fuel level: either the exact
    /// unbudgeted answer or a typed expiry. Nothing in between.
    #[test]
    fn algo2_budgeted_is_all_or_typed_nothing(p in small_problem(), fuel in 0u64..600) {
        let plain = algo2::solve(&p);
        match algo2::solve_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(a) => prop_assert_eq!(a, plain),
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// Budgeted Algorithm 1: the exact unbudgeted answer or a typed
    /// expiry.
    #[test]
    fn algo1_budgeted_is_all_or_typed_nothing(p in small_problem(), fuel in 0u64..600) {
        let plain = algo1::solve(&p);
        match algo1::solve_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(a) => prop_assert_eq!(a, plain),
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// Budgeted exhaustive search is strict: the exact unbudgeted
    /// answer or a typed expiry, never the best-so-far.
    #[test]
    fn exact_budgeted_is_all_or_typed_nothing(p in small_problem(), fuel in 0u64..5000) {
        let plain = exact::solve(&p);
        match exact::solve_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(a) => prop_assert_eq!(a, plain),
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// Budgeted price discovery: the exact unbudgeted answer or a typed
    /// expiry.
    #[test]
    fn price_budgeted_is_all_or_typed_nothing(p in small_problem(), fuel in 0u64..300) {
        let plain = price::solve(&p);
        match price::solve_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(a) => prop_assert_eq!(a, plain),
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// Same contract one level up: budgeted Algorithm 2 + re-split.
    #[test]
    fn refined_budgeted_is_all_or_typed_nothing(p in small_problem(), fuel in 0u64..900) {
        let plain = refine::solve_refined(&p);
        match refine::solve_refined_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(a) => prop_assert_eq!(a, plain),
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// Anytime branch-and-bound: any fuel level yields a feasible
    /// incumbent at least as good as its seed, or a typed expiry of the
    /// seed itself. Proven-optimal answers match the unbudgeted search.
    #[test]
    fn branch_and_bound_budgeted_is_anytime_safe(p in small_problem(), fuel in 0u64..3000) {
        let seed_utility = refine::solve_refined(&p).total_utility(&p);
        match exact_bb::solve_budgeted(&p, &Budget::with_fuel(fuel)) {
            Ok(b) => {
                b.assignment.validate(&p).unwrap();
                let u = b.assignment.total_utility(&p);
                prop_assert!(u >= seed_utility - 1e-9);
                if b.optimal {
                    let opt = exact_bb::solve(&p).total_utility(&p);
                    prop_assert!((u - opt).abs() < 1e-9);
                }
            }
            Err(e) => prop_assert_eq!(e, SolveError::DeadlineExceeded),
        }
    }

    /// The tiered solver never errors on expiry: any fuel level returns
    /// a feasible assignment at least as good as the uu floor.
    #[test]
    fn tiered_never_fails_under_any_fuel_level(p in small_problem(), fuel in 0u64..2000) {
        let solver = TieredSolver::new();
        let solved = solver.solve_within(&p, &Budget::with_fuel(fuel)).unwrap();
        solved.assignment.validate(&p).unwrap();
        let floor = heuristics::uu(&p).total_utility(&p);
        prop_assert!(solved.utility >= floor - 1e-9);
        // The report names the tier that actually answered.
        let last = solved.degradation.outcomes.last().unwrap();
        prop_assert_eq!(last.tier, solved.degradation.tier);
        prop_assert_eq!(last.utility, Some(solved.utility));
    }

    /// Cancelling the token "at a random point" — modelled as expiring
    /// fuel rewired to an external cancel — must surface as `Cancelled`,
    /// never a panic or a wrong answer. We emulate the race by
    /// cancelling before the solve at a random request position in a
    /// sequence of successful solves.
    #[test]
    fn random_point_cancellation_is_typed(p in small_problem(), cancel_at in 0usize..4) {
        let solver = TieredSolver::new();
        for round in 0..4 {
            let budget = Budget::unlimited();
            if round == cancel_at {
                budget.cancel_token().cancel();
                prop_assert_eq!(
                    solver.solve_within(&p, &budget).unwrap_err(),
                    SolveError::Cancelled
                );
            } else {
                let solved = solver.solve_within(&p, &budget).unwrap();
                solved.assignment.validate(&p).unwrap();
            }
        }
    }

    /// With unlimited budget the approximate ladder is bit-identical to
    /// the plain `Algo2Refined` solver: the budget plumbing shares the
    /// unbudgeted code paths exactly.
    #[test]
    fn unlimited_tiered_approximate_matches_algo2_refined(p in small_problem()) {
        let solver = TieredSolver::approximate();
        let tiered = solver.solve_within(&p, &Budget::unlimited()).unwrap();
        prop_assert_eq!(tiered.assignment, Algo2Refined.solve(&p));
        prop_assert_eq!(tiered.degradation.tier, Tier::Algo2Refined);
        prop_assert!(!tiered.degradation.degraded);
    }

    /// The registry serves the `Solver` facade and the ladder from one
    /// dispatch: for every algorithm, `try_solve`, the module function
    /// and a one-rung ladder at an unlimited budget are bit-identical.
    #[test]
    fn every_registry_row_answers_alike_on_every_path(p in small_problem()) {
        for a in Algorithm::ALL {
            let expected = plain(a, &p);
            prop_assert_eq!(a.try_solve(&p).unwrap(), expected, "{}", a.name());
            let rung = TieredSolver::with_ladder(vec![a]).solve_within(&p, &Budget::unlimited());
            prop_assert_eq!(rung.unwrap().assignment, expected, "{}", a.name());
        }
    }
}
