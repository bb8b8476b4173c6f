//! A uniform [`Solver`] interface over every assignment algorithm, and
//! the one registry ([`Algorithm`]) that names them.
//!
//! The experiment harness and benchmarks treat Algorithm 1, Algorithm 2,
//! the four baseline heuristics and the exact solvers interchangeably
//! through this trait; randomized solvers draw from the caller's RNG so
//! trials are reproducible from a seed. The CLI's `--solver` and
//! `--ladder` names and the ladder's rungs all come from [`Algorithm`].

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use serde::Serialize;

use crate::budget::Budget;
use crate::incremental::{self, WarmState};
use crate::problem::{Assignment, AssignmentError, Problem};
use crate::{ablation, algo1, algo2, exact, exact_bb, heuristics, price, refine};

/// Typed failure from the panic-free solve path ([`Solver::try_solve`]).
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm,
/// and future variants stop being a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The instance exceeds an exact solver's enumeration limit.
    TooLarge {
        /// Threads in the instance.
        threads: usize,
        /// The solver's hard limit.
        limit: usize,
    },
    /// A thread's utility curve evaluates to NaN/∞ on its domain (e.g. a
    /// profiled curve built from corrupt measurements).
    NonFiniteUtility {
        /// Offending thread index.
        thread: usize,
    },
    /// The solver produced an infeasible assignment (solver bug or
    /// numerically hostile input); the offending check is attached.
    Infeasible(AssignmentError),
    /// The solve's [`Budget`] ran out (wall-clock
    /// deadline or fuel) before the solver finished. Degradable: the
    /// tiered solver falls back to a cheaper tier on this error.
    DeadlineExceeded,
    /// The solve's cancel token was fired externally. Not degradable:
    /// the caller no longer wants any answer.
    Cancelled,
    /// The solve panicked and the panic was contained by a
    /// `catch_unwind` boundary (e.g.
    /// [`TieredSolver::try_solve_within_caught`](crate::tiered::TieredSolver::try_solve_within_caught)).
    /// Carries the panic payload's message when it was a string. Any
    /// warm state threaded through the panicking solve must be treated
    /// as corrupt and discarded.
    Panicked(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::TooLarge { threads, limit } => {
                write!(f, "instance has {threads} threads, exact limit is {limit}")
            }
            SolveError::NonFiniteUtility { thread } => {
                write!(f, "thread {thread}'s utility curve is non-finite on its domain")
            }
            SolveError::Infeasible(e) => write!(f, "solver produced infeasible output: {e}"),
            SolveError::DeadlineExceeded => write!(f, "solve budget exhausted before completion"),
            SolveError::Cancelled => write!(f, "solve cancelled by caller"),
            SolveError::Panicked(msg) => write!(f, "solve panicked: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Number of evenly spaced probe points used by
/// [`check_finite_utilities`], endpoints included.
const FINITE_PROBES: usize = 16;

/// Reject curves that return NaN/∞ utility anywhere a solver is likely
/// to evaluate them. The [`aa_utility::Utility`] trait exposes no knot
/// enumeration, so the probe is a fixed [`FINITE_PROBES`]-point evenly
/// spaced grid over `[0, effective_cap]` — endpoints included. A curve
/// that is non-finite only on an interior sliver (a corrupt PCHIP knot,
/// say) is caught as long as the sliver spans ≥ 1/15 of the domain;
/// the old `{0, cap/2, cap}` probe missed anything off those three
/// points and let NaN poison the solve downstream.
///
/// Thread `i` is skipped when `passed[i]` is its very object (same
/// [`Arc`](std::sync::Arc)), which the caller vouches already passed
/// this screen at this problem's capacity ([`incremental::screened`]).
/// A curve whose parameters prove every value finite
/// ([`Utility::value_provably_finite`](aa_utility::Utility::value_provably_finite))
/// needs only its cap checked: the proof covers every probe.
pub(crate) fn check_finite_utilities(
    problem: &Problem,
    passed: &[aa_utility::DynUtility],
) -> Result<(), SolveError> {
    let _span = aa_obs::span!("screen");
    for (i, u) in problem.threads().iter().enumerate() {
        if passed.get(i).is_some_and(|p| std::sync::Arc::ptr_eq(p, u)) {
            continue;
        }
        let cap = problem.effective_cap(i);
        if !cap.is_finite() {
            return Err(SolveError::NonFiniteUtility { thread: i });
        }
        if u.value_provably_finite() {
            continue;
        }
        let step = cap / (FINITE_PROBES - 1) as f64;
        for k in 0..FINITE_PROBES {
            let x = if k == FINITE_PROBES - 1 { cap } else { step * k as f64 };
            if !problem.utility_of(i, x).is_finite() {
                return Err(SolveError::NonFiniteUtility { thread: i });
            }
        }
    }
    Ok(())
}

/// An AA solver: produces a feasible assignment for any problem.
pub trait Solver {
    /// Short stable identifier ("algo2", "uu", …) used in experiment
    /// output.
    fn name(&self) -> &'static str;

    /// Solve, drawing any randomness from `rng`. Deterministic solvers
    /// ignore it.
    fn solve_with(&self, problem: &Problem, rng: &mut dyn RngCore) -> Assignment;

    /// Solve with a fixed default seed (deterministic convenience).
    fn solve(&self, problem: &Problem) -> Assignment {
        let mut rng = StdRng::seed_from_u64(DEFAULT_SEED);
        self.solve_with(problem, &mut rng)
    }

    /// Panic-free solve: screens hostile input (non-finite utility
    /// curves), applies solver-specific limits (the exact solvers'
    /// thread limits), and checks the output's feasibility, returning a
    /// typed [`SolveError`] instead of aborting. Controllers driving
    /// live clusters should prefer this entry point.
    fn try_solve_with(
        &self,
        problem: &Problem,
        rng: &mut dyn RngCore,
    ) -> Result<Assignment, SolveError> {
        check_finite_utilities(problem, &[])?;
        let a = self.solve_with(problem, rng);
        a.validate(problem).map_err(SolveError::Infeasible)?;
        Ok(a)
    }

    /// [`Solver::try_solve_with`] under the fixed default seed.
    fn try_solve(&self, problem: &Problem) -> Result<Assignment, SolveError> {
        let mut rng = StdRng::seed_from_u64(DEFAULT_SEED);
        self.try_solve_with(problem, &mut rng)
    }

    /// Panic-free solve through a persistent
    /// [`WarmState`]: solvers with an incremental path ([`Algo2`],
    /// [`Price`]) reuse the state's warm bracket, linearizations and
    /// arena across calls, returning output bit-identical to
    /// [`Solver::try_solve`]. The default simply ignores the state, so
    /// epoch controllers can thread one through any solver.
    fn try_solve_warm(
        &self,
        problem: &Problem,
        _state: &mut WarmState,
    ) -> Result<Assignment, SolveError> {
        self.try_solve(problem)
    }
}

/// The RNG seed for instance `index` of a batch solved under `seed`:
/// a SplitMix64 step keyed by the index, so every instance draws from an
/// independent, *position-determined* stream. Scheduling cannot perturb
/// any instance's randomness, which is what makes batched results
/// bit-identical to a sequential loop at every thread count.
pub fn batch_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Solve a batch of independent instances with one solver, fanned out
/// over the thread pool. Instance `k` is solved with a fresh
/// `StdRng::seed_from_u64(batch_seed(seed, k))`, so the output is
/// **bit-identical** to the equivalent sequential loop for every thread
/// count — randomized solvers included. This is the fan-out entry point
/// the simulator and experiment harness build on.
pub fn solve_batch<S: Solver + Sync + ?Sized>(
    solver: &S,
    problems: &[Problem],
    seed: u64,
) -> Vec<Assignment> {
    problems
        .par_iter()
        .zip(0..problems.len())
        .map(|(p, k)| {
            let mut rng = StdRng::seed_from_u64(batch_seed(seed, k));
            solver.solve_with(p, &mut rng)
        })
        .collect()
}

/// [`solve_batch`] through the panic-free [`Solver::try_solve_with`]
/// path: each instance yields `Ok(assignment)` or its own typed
/// [`SolveError`] — one hostile instance cannot take down the batch.
pub fn try_solve_batch<S: Solver + Sync + ?Sized>(
    solver: &S,
    problems: &[Problem],
    seed: u64,
) -> Vec<Result<Assignment, SolveError>> {
    problems
        .par_iter()
        .zip(0..problems.len())
        .map(|(p, k)| {
            let mut rng = StdRng::seed_from_u64(batch_seed(seed, k));
            solver.try_solve_with(p, &mut rng)
        })
        .collect()
}

/// The seed of [`Solver::solve`] and [`Solver::try_solve`], and of the
/// randomized baselines when they answer on a ladder rung.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The solver registry: every algorithm the experiments, the CLI and the
/// degradation ladder can name.
///
/// Each variant is also re-exported from this module under its own name
/// (`Algo2`, `Uu`, …), so `Algo2.solve(&p)` and `&Algo2 as &dyn Solver`
/// read as before. [`Algorithm::run`] is the one dispatch behind every
/// [`Solver`] method and every [`TieredSolver`](crate::tiered::TieredSolver)
/// rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 2 (paper §VI): `O(n(log mC)²)`, α-approximation; warm
    /// through [`incremental`] when given a state.
    Algo2,
    /// Algorithm 2 plus the exact per-server re-split post-pass: same
    /// guarantee, never worse, asymptotically free.
    Algo2Refined,
    /// Price discovery ([`crate::price`]): tolerance-converged, cheaper
    /// per solve at very large `n`; warm through the state's price
    /// compartment when given one.
    Price,
    /// Algorithm 1 (paper §V): `O(mn² + n(log mC)²)`, α-approximation.
    Algo1,
    /// Uniform-uniform baseline: round-robin placement, equal split. The
    /// `O(n)` floor of the default ladders.
    Uu,
    /// Uniform-random baseline: round-robin placement, random allocation.
    Ur,
    /// Random-uniform baseline: random placement, equal allocation.
    Ru,
    /// Random-random baseline: random placement, random allocation.
    Rr,
    /// Exhaustive exact solver (at most [`exact::MAX_THREADS`] threads).
    BruteForce,
    /// Anytime branch-and-bound exact solver (at most
    /// [`exact_bb::MAX_THREADS`] threads).
    BranchAndBound,
    /// Ablation: Algorithm 2 without the density re-sort of the tail.
    Algo2SingleSort,
    /// Ablation: Algorithm 2 with fair-share demands instead of the
    /// super-optimal allocation.
    Algo2FairShare,
}

pub use Algorithm::{
    Algo1, Algo2, Algo2FairShare, Algo2Refined, Algo2SingleSort, BranchAndBound, BruteForce,
    Price, Rr, Ru, Ur, Uu,
};

impl Algorithm {
    /// Every algorithm with its registry name (also its ladder rung name
    /// and metric label) and its ladder span name, in registry order.
    /// Rows sit at their variant's index, so `self as usize` finds one.
    const TABLE: [(Algorithm, &'static str, &'static str); 12] = [
        (Algo2, "algo2", "tier_algo2"),
        (Algo2Refined, "algo2-refined", "tier_algo2_refined"),
        (Price, "price", "tier_price"),
        (Algo1, "algo1", "tier_algo1"),
        (Uu, "uu", "tier_uu"),
        (Ur, "ur", "tier_ur"),
        (Ru, "ru", "tier_ru"),
        (Rr, "rr", "tier_rr"),
        (BruteForce, "exact", "tier_exact"),
        (BranchAndBound, "exact-bb", "tier_exact_bb"),
        (Algo2SingleSort, "algo2-single-sort", "tier_algo2_single_sort"),
        (Algo2FairShare, "algo2-fair-share", "tier_algo2_fair_share"),
    ];

    /// Every algorithm, in registry order.
    pub const ALL: [Algorithm; Self::TABLE.len()] = {
        let mut all = [Algo2; Self::TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = Self::TABLE[i].0;
            i += 1;
        }
        all
    };

    /// The registry name ("algo2", "exact-bb", …).
    pub const fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The span a ladder rung records (`tier_algo2`, …). Spans carry
    /// `&'static str` names, so these live in the table rather than
    /// being formatted at run time.
    pub(crate) const fn span_name(self) -> &'static str {
        Self::TABLE[self as usize].2
    }

    /// The algorithm registered as `name` (the inverse of [`Self::name`]).
    pub fn parse(name: &str) -> Option<Algorithm> {
        Self::TABLE.iter().find(|row| row.1 == name).map(|row| row.0)
    }

    /// The one dispatch: solve `problem` under `budget`.
    ///
    /// Returns the answer and whether it is *partial* — an anytime
    /// incumbent cut short by the budget (only branch-and-bound has one).
    /// `warm` is the caller's per-stream state; rows with a warm path
    /// ([`Algo2`], [`Price`]) solve through it, bit-identically to the
    /// cold solve, and the rest ignore it. `rng` feeds the randomized
    /// baselines; `None` seeds them with [`DEFAULT_SEED`], and the other
    /// rows build no RNG.
    ///
    /// Rows without a budgeted path (the baselines and the ablations)
    /// ignore expiry, so an exhausted budget still gets an answer from
    /// them, but honour an external cancel. The rest return
    /// [`SolveError::DeadlineExceeded`] on expiry and the exact solvers
    /// [`SolveError::TooLarge`] past their limit.
    pub fn run(
        self,
        problem: &Problem,
        budget: &Budget,
        warm: Option<&mut WarmState>,
        rng: Option<&mut dyn RngCore>,
    ) -> Result<(Assignment, bool), SolveError> {
        let assignment = match (self, warm) {
            (Algo2, Some(state)) => {
                incremental::solve_incremental_budgeted(problem, state, budget)?
            }
            (Algo2, None) => algo2::solve_budgeted(problem, budget)?,
            (Price, Some(state)) => price::solve_warm_budgeted(problem, state.price_mut(), budget)?,
            (Price, None) => price::solve_budgeted(problem, budget)?,
            (Algo2Refined, _) => refine::solve_refined_budgeted(problem, budget)?,
            (Algo1, _) => algo1::solve_budgeted(problem, budget)?,
            (BruteForce, _) => exact::solve_budgeted(problem, budget)?,
            (BranchAndBound, _) => {
                let b = exact_bb::solve_budgeted(problem, budget)?;
                return Ok((b.assignment, !b.optimal));
            }
            _ if budget.check() == Err(SolveError::Cancelled) => return Err(SolveError::Cancelled),
            (Uu, _) => heuristics::uu(problem),
            (Ur, _) => with_rng(rng, |r| heuristics::ur(problem, r)),
            (Ru, _) => with_rng(rng, |r| heuristics::ru(problem, r)),
            (Rr, _) => with_rng(rng, |r| heuristics::rr(problem, r)),
            (Algo2SingleSort, _) => ablation::algo2_single_sort(problem),
            (Algo2FairShare, _) => ablation::algo2_fair_share(problem),
        };
        Ok((assignment, false))
    }

    /// The panic-free solve behind [`Solver::try_solve_with`] and
    /// [`Solver::try_solve_warm`]: size limit, input screening, an
    /// unlimited [`Self::run`], then the feasibility check.
    fn screened(
        self,
        problem: &Problem,
        warm: Option<&mut WarmState>,
        rng: Option<&mut dyn RngCore>,
    ) -> Result<Assignment, SolveError> {
        let limit = match self {
            BruteForce => exact::MAX_THREADS,
            BranchAndBound => exact_bb::MAX_THREADS,
            _ => usize::MAX,
        };
        if problem.len() > limit {
            return Err(SolveError::TooLarge { threads: problem.len(), limit });
        }
        let (a, _) = incremental::screened(problem, warm, |warm| {
            self.run(problem, &Budget::unlimited(), warm, rng)
        })?;
        a.validate(problem).map_err(SolveError::Infeasible)?;
        Ok(a)
    }
}

/// Run `solve` on the caller's RNG, or on one seeded with
/// [`DEFAULT_SEED`] when there is none.
fn with_rng<T>(rng: Option<&mut dyn RngCore>, solve: impl FnOnce(&mut dyn RngCore) -> T) -> T {
    match rng {
        Some(r) => solve(r),
        None => solve(&mut StdRng::seed_from_u64(DEFAULT_SEED)),
    }
}

impl Solver for Algorithm {
    fn name(&self) -> &'static str {
        Algorithm::name(*self)
    }

    /// # Panics
    /// If an exact solver gets an instance past its limit.
    fn solve_with(&self, problem: &Problem, rng: &mut dyn RngCore) -> Assignment {
        match self.run(problem, &Budget::unlimited(), None, Some(rng)) {
            Ok((a, _)) => a,
            Err(e) => panic!("{}: {e}", self.name()),
        }
    }

    fn try_solve_with(
        &self,
        problem: &Problem,
        rng: &mut dyn RngCore,
    ) -> Result<Assignment, SolveError> {
        self.screened(problem, None, Some(rng))
    }

    fn try_solve_warm(
        &self,
        problem: &Problem,
        state: &mut WarmState,
    ) -> Result<Assignment, SolveError> {
        self.screened(problem, Some(state), None)
    }
}

impl Serialize for Algorithm {
    /// The registry name, the one spelling answers, spans, metric labels
    /// and `--ladder` use.
    fn to_value(&self) -> serde::Value {
        self.name().to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::Power;

    fn problem() -> Problem {
        Problem::builder(2, 8.0)
            .threads((0..5).map(|i| {
                Arc::new(Power::new(1.0 + i as f64, 0.5, 8.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn every_solver_is_feasible() {
        let p = problem();
        for s in Algorithm::ALL {
            let a = s.solve(&p);
            a.validate(&p)
                .unwrap_or_else(|e| panic!("{} produced infeasible assignment: {e}", s.name()));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn default_seed_is_reproducible() {
        let p = problem();
        assert_eq!(Rr.solve(&p), Rr.solve(&p));
    }

    #[test]
    fn try_solve_matches_solve_on_good_input() {
        let p = problem();
        for s in [&Algo1 as &dyn Solver, &Algo2, &Uu, &BruteForce, &BranchAndBound] {
            assert_eq!(s.try_solve(&p).unwrap(), s.solve(&p), "{}", s.name());
        }
    }

    #[test]
    fn try_solve_rejects_oversized_exact_instances_without_panicking() {
        let p = Problem::builder(2, 1.0)
            .threads((0..exact::MAX_THREADS + 1).map(|_| {
                Arc::new(Power::new(1.0, 0.5, 1.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        assert!(matches!(
            BruteForce.try_solve(&p).unwrap_err(),
            SolveError::TooLarge { limit, .. } if limit == exact::MAX_THREADS
        ));
        let p = Problem::builder(2, 1.0)
            .threads((0..exact_bb::MAX_THREADS + 1).map(|_| {
                Arc::new(Power::new(1.0, 0.5, 1.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        assert!(matches!(
            BranchAndBound.try_solve(&p).unwrap_err(),
            SolveError::TooLarge { limit, .. } if limit == exact_bb::MAX_THREADS
        ));
        // Approximation algorithms take the same instance in stride.
        assert!(Algo2.try_solve(&p).is_ok());
    }

    #[test]
    fn try_solve_rejects_nan_curves() {
        #[derive(Debug)]
        struct Corrupt;
        impl aa_utility::Utility for Corrupt {
            fn value(&self, _x: f64) -> f64 {
                f64::NAN
            }
            fn derivative(&self, _x: f64) -> f64 {
                f64::NAN
            }
            fn cap(&self) -> f64 {
                4.0
            }
        }
        let p = Problem::builder(2, 8.0)
            .thread(Arc::new(Power::new(1.0, 0.5, 8.0)))
            .thread(Arc::new(Corrupt))
            .build()
            .unwrap();
        assert_eq!(
            Algo2.try_solve(&p).unwrap_err(),
            SolveError::NonFiniteUtility { thread: 1 }
        );
    }

    #[test]
    fn try_solve_rejects_interior_nan_curves() {
        // Regression: NaN only on an interior window of the domain. The
        // old {0, cap/2, cap} probe sails past it — validation passed,
        // then the bisection's demand sums went NaN and poisoned the
        // whole solve. The 16-point grid lands inside the window.
        #[derive(Debug)]
        struct InteriorNan;
        impl aa_utility::Utility for InteriorNan {
            fn value(&self, x: f64) -> f64 {
                // Corrupt only on [0.2·cap, 0.4·cap] = [1.0, 2.0]:
                // misses 0, cap/2 = 2.5, and cap = 5.
                if (1.0..=2.0).contains(&x) {
                    f64::NAN
                } else {
                    x.sqrt()
                }
            }
            fn derivative(&self, x: f64) -> f64 {
                if (1.0..=2.0).contains(&x) {
                    f64::NAN
                } else {
                    0.5 / x.sqrt().max(1e-12)
                }
            }
            fn cap(&self) -> f64 {
                5.0
            }
        }
        // The old probe set misses the window entirely…
        for x in [0.0, 2.5, 5.0] {
            assert!(aa_utility::Utility::value(&InteriorNan, x).is_finite());
        }
        // …but validation must still reject the curve.
        let p = Problem::builder(2, 8.0)
            .thread(Arc::new(Power::new(1.0, 0.5, 8.0)))
            .thread(Arc::new(InteriorNan))
            .build()
            .unwrap();
        assert_eq!(
            Algo2.try_solve(&p).unwrap_err(),
            SolveError::NonFiniteUtility { thread: 1 }
        );
    }

    #[test]
    fn try_solve_handles_all_zero_utilities() {
        // Degenerate but well-formed input: every curve is identically
        // zero. Must return a feasible assignment, not abort.
        let p = Problem::builder(2, 8.0)
            .threads((0..4).map(|_| {
                Arc::new(Power::new(0.0, 0.5, 8.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        for s in [&Algo1 as &dyn Solver, &Algo2, &Uu, &Rr, &Algo2Refined] {
            let a = s.try_solve(&p).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            a.validate(&p).unwrap();
            assert_eq!(a.total_utility(&p), 0.0);
        }
    }

    fn batch(n: usize) -> Vec<Problem> {
        (0..n)
            .map(|k| {
                Problem::builder(2 + k % 3, 4.0 + k as f64)
                    .threads((0..3 + k % 5).map(|i| {
                        Arc::new(Power::new(1.0 + (i + k) as f64, 0.5, 4.0 + k as f64))
                            as aa_utility::DynUtility
                    }))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn solve_batch_matches_sequential_loop_exactly() {
        // Including a randomized solver: position-determined seeding makes
        // the batch path bit-identical to the obvious sequential loop.
        let problems = batch(9);
        for s in [&Algo2 as &(dyn Solver + Sync), &Rr] {
            let expected: Vec<Assignment> = problems
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    let mut rng = StdRng::seed_from_u64(batch_seed(7, k));
                    s.solve_with(p, &mut rng)
                })
                .collect();
            for threads in [1, 2, 8] {
                let got = rayon::with_threads(threads, || solve_batch(s, &problems, 7));
                assert_eq!(expected, got, "{} at {threads} threads", s.name());
            }
        }
    }

    #[test]
    fn batch_seeds_differ_per_instance() {
        // Identical problems, randomized solver: instances must not share
        // a random stream (they'd collapse to n copies of one draw).
        let p = problem();
        let problems: Vec<Problem> = (0..6).map(|_| p.clone()).collect();
        let got = solve_batch(&Rr, &problems, 42);
        assert!(
            got.windows(2).any(|w| w[0] != w[1]),
            "all six instances drew identical randomness"
        );
    }

    #[test]
    fn try_solve_batch_isolates_failures() {
        // One oversized instance among good ones: only it errors.
        let mut problems = batch(3);
        problems.insert(
            1,
            Problem::builder(2, 1.0)
                .threads((0..exact::MAX_THREADS + 1).map(|_| {
                    Arc::new(Power::new(1.0, 0.5, 1.0)) as aa_utility::DynUtility
                }))
                .build()
                .unwrap(),
        );
        let got = try_solve_batch(&BruteForce, &problems, 0);
        assert_eq!(got.len(), 4);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(SolveError::TooLarge { .. })));
        assert!(got[2].is_ok());
        assert!(got[3].is_ok());
    }

    #[test]
    fn algorithms_dominate_heuristics_on_skewed_instance() {
        // One very valuable thread: the heuristics water it down, the
        // approximation algorithms protect it.
        let p = Problem::builder(2, 8.0)
            .thread(Arc::new(Power::new(100.0, 0.5, 8.0)))
            .threads((0..7).map(|_| {
                Arc::new(Power::new(0.1, 0.5, 8.0)) as aa_utility::DynUtility
            }))
            .build()
            .unwrap();
        let good = Algo2.solve(&p).total_utility(&p);
        let mut rng = StdRng::seed_from_u64(1);
        for s in [&Ur as &dyn Solver, &Rr as &dyn Solver] {
            let h = s.solve_with(&p, &mut rng).total_utility(&p);
            assert!(good > h, "{}: {h} ≥ {good}", s.name());
        }
    }
}
