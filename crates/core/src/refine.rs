//! Allocation refinement: a cheap post-pass that Algorithm 1/2's
//! guarantee leaves on the table (ours, not the paper's), and the home
//! of the one per-server re-split every placement-fixed caller uses.
//!
//! Both algorithms allocate each thread `min(ĉ_i, remaining)` — driven by
//! the *linearized* utilities and the super-optimal demands. Once the
//! placement is fixed, however, the per-server allocation subproblem is
//! just single-pool concave allocation again, solvable *exactly* with the
//! λ-bisection allocator against the original concave `f_i`. Re-splitting
//! every server:
//!
//! * never decreases total utility (the greedy allocation is one feasible
//!   point of each server's subproblem);
//! * preserves the α guarantee (utility only goes up);
//! * costs one `O(k (log C)²)` allocation per server — asymptotically
//!   free next to the super-optimal allocation already computed.
//!
//! [`Resplit`] is that per-server split, with its buffers kept between
//! calls. Its start rule is written once: **every call starts cold, and
//! the servers inside one [`Resplit::placement`] call chain** (server
//! `j`'s λ-search starts from server `j − 1`'s collapsed bracket). The
//! refine pass, the online migrations, the exact solvers and churn
//! repair all split through it.
//!
//! The experiments' ablation output quantifies the (typically small but
//! nonzero) gain; the tightness instance is a case where it provably
//! cannot help, which the tests pin down.

use aa_allocator::bisection::{self, Fan, Interrupted};
use aa_utility::Utility;

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::SolveError;

/// The per-server re-split with its buffers kept between calls: a
/// [`bisection::WarmCache`], the group's capped views and the split
/// amounts. Once the buffers have grown to the largest group, a
/// [`Resplit::group`] call allocates nothing.
///
/// Every call starts cold ([`bisection::WarmCache::invalidate`]), so no
/// call inherits a bracket from an earlier one: a reused `Resplit`
/// answers bit-identically to a fresh one on every utility family. Only
/// the servers inside one [`Resplit::placement`] call chain, each from
/// the previous server's bracket; where demand is monotone in λ each
/// chained split is bit-identical to a cold one (the allocator's
/// unique-boundary-pair contract).
#[derive(Debug, Clone, Default)]
pub struct Resplit {
    cache: bisection::WarmCache,
    group: Vec<CappedView>,
    amounts: Vec<f64>,
}

impl Resplit {
    /// Empty buffers; they grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimal split of one group of `problem`'s threads, given as
    /// member indices, on one server's capacity: a cold λ-search,
    /// unchecked. Returns the group's utility, summed in member order as
    /// [`bisection::allocate`] sums it; the amounts, in member order,
    /// are [`Resplit::amounts`]. An empty group is worth 0.
    pub fn group(&mut self, problem: &Problem, members: &[usize]) -> f64 {
        if members.is_empty() {
            return 0.0;
        }
        self.cache.invalidate();
        let unchecked = &mut || Ok::<_, Interrupted>(());
        self.split(problem, members, unchecked)
            .expect("an unchecked sequential search never interrupts");
        self.group.iter().zip(&self.amounts).map(|(f, &x)| f.value(x)).sum()
    }

    /// The amounts of the last [`Resplit::group`] call, in member order.
    pub fn amounts(&self) -> &[f64] {
        &self.amounts
    }

    /// Optimal amounts for a whole placement: each server's threads,
    /// in index order, split on its capacity, servers in index order
    /// (threads whose server is `≥ m` get 0). `check` runs once per
    /// server and at sweep granularity inside each split; its first
    /// `Err` aborts the call, never returning a half-split answer.
    pub fn placement<E: From<Interrupted>>(
        &mut self,
        problem: &Problem,
        server: &[usize],
        check: &mut dyn FnMut() -> Result<(), E>,
    ) -> Result<Vec<f64>, E> {
        let m = problem.servers();
        let mut amount = vec![0.0_f64; server.len()];
        // Bucket the threads by server in one pass (a counting sort, so
        // each server's threads stay in index order):
        // `members[start[j]..start[j + 1]]`.
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
        self.cache.invalidate();
        for j in 0..m {
            check()?;
            let idx = &members[start[j]..start[j + 1]];
            if idx.is_empty() {
                continue;
            }
            self.split(problem, idx, check)?;
            for (&i, &c) in idx.iter().zip(&self.amounts) {
                amount[i] = c;
            }
        }
        Ok(amount)
    }

    /// The one body: split `members` (nonempty) through
    /// [`bisection::allocate_in`] from whatever bracket the cache holds.
    fn split<E: From<Interrupted>>(
        &mut self,
        problem: &Problem,
        members: &[usize],
        check: &mut dyn FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        self.group.clear();
        self.group.extend(members.iter().map(|&i| problem.capped_thread(i)));
        let (cache, amounts) = (&mut self.cache, &mut self.amounts);
        bisection::allocate_in(&self.group, problem.capacity(), cache, amounts, Fan::Seq, check)?;
        Ok(())
    }
}

/// Exactly re-split every server's resource among its assigned threads
/// using the original concave utilities ([`Resplit::placement`]).
/// Placement is untouched: this is also the zero-migration drift repair
/// of [`online`](crate::online).
pub fn refine_allocation(problem: &Problem, assignment: &Assignment) -> Assignment {
    let _span = aa_obs::span!("refine");
    let unchecked = &mut || Ok::<_, Interrupted>(());
    let amount = Resplit::new()
        .placement(problem, &assignment.server, unchecked)
        .expect("an unchecked sequential search never interrupts");
    Assignment {
        server: assignment.server.clone(),
        amount,
    }
}

/// [`refine_allocation`] under a solve [`Budget`], checked per server
/// and per bisection iteration inside each re-split. Bit-identical to
/// [`refine_allocation`] while the budget holds; expiry is typed, never
/// a half-refined allocation.
pub fn refine_allocation_budgeted(
    problem: &Problem,
    assignment: &Assignment,
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    let _span = aa_obs::span!("refine");
    let amount = Resplit::new().placement(problem, &assignment.server, &mut || budget.check())?;
    Ok(Assignment {
        server: assignment.server.clone(),
        amount,
    })
}

/// Algorithm 2 followed by exact per-server re-splitting.
pub fn solve_refined(problem: &Problem) -> Assignment {
    let a = crate::algo2::solve(problem);
    refine_allocation(problem, &a)
}

/// [`solve_refined`] under a solve [`Budget`]: budgeted Algorithm 2
/// followed by the budgeted re-split. While the budget holds the result
/// is **bit-identical** to [`solve_refined`] — both stages share their
/// unbudgeted counterparts' code paths exactly.
pub fn solve_refined_budgeted(
    problem: &Problem,
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    let a = crate::algo2::solve_budgeted(problem, budget)?;
    refine_allocation_budgeted(problem, &a, budget)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, DynUtility, LogUtility, Pchip, PiecewiseLinear, Power};
    use proptest::{prop_assert_eq, proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::{algo2, superopt, tightness, ALPHA};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    /// A random thread on servers of `capacity`. The first five
    /// families have demand exactly monotone in λ (power, log,
    /// capped-linear, a low-cap power that saturates its server, and a
    /// 1e-21-scaled power that prices its server under
    /// `WARM_MIN_PRICE`); with `knots` set the draw also takes the
    /// paper's PCHIP through `(0, 0), (C/2, v), (C, v + w)` and the
    /// piecewise-linear curve through the same knots (staircase demand).
    pub(crate) fn random_thread(rng: &mut StdRng, capacity: f64, knots: bool) -> DynUtility {
        let s = rng.gen_range(0.2..5.0);
        match rng.gen_range(0..if knots { 7 } else { 5 }) {
            0 => arc(Power::new(s, rng.gen_range(0.2..0.9), rng.gen_range(1.0..12.0))),
            1 => arc(LogUtility::new(s, rng.gen_range(0.1..3.0), rng.gen_range(1.0..12.0))),
            2 => arc(CappedLinear::new(s, rng.gen_range(0.5..6.0), 12.0)),
            3 => arc(Power::new(s, 0.5, rng.gen_range(0.5..3.0))),
            4 => arc(Power::new(s * 1e-21, 0.5, 12.0)),
            family => {
                let v = s * rng.gen_range(0.5..5.0);
                let w = v * rng.gen_range(0.05..0.95);
                let points = [(0.0, 0.0), (capacity / 2.0, v), (capacity, v + w)];
                if family == 5 {
                    arc(Pchip::new(&points).unwrap())
                } else {
                    arc(PiecewiseLinear::new(&points).unwrap())
                }
            }
        }
    }

    /// The split's observable output, bit for bit: the group utility
    /// (or placement amounts) and the last search's telemetry.
    fn bits(values: &[f64], resplit: &Resplit) -> (Vec<u64>, bisection::WarmStats) {
        (values.iter().map(|x| x.to_bits()).collect(), resplit.cache.last_stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn a_reused_resplit_answers_as_a_fresh_one(seed in 0..u64::MAX) {
            // One `Resplit` kept across calls, as `RepairArena` and the
            // exact searches keep it, must answer every call exactly as
            // a fresh one does: same amounts, same utility, same search
            // (a call that inherited a bracket would report a warm mode,
            // and on PCHIP could land on another flip). Groups come in
            // any member order, placements with any server vector.
            let capacity = 10.0;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut kept = Resplit::new();
            let unchecked = &mut || Ok::<_, Interrupted>(());
            for problem in 0..2 {
                let servers = rng.gen_range(1..6_usize);
                let n = rng.gen_range(1..14_usize);
                let p = Problem::builder(servers, capacity)
                    .threads((0..n).map(|_| random_thread(&mut rng, capacity, true)))
                    .build()
                    .unwrap();
                for call in 0..4 {
                    let ctx = format!("problem {problem}, call {call}");
                    let mut fresh = Resplit::new();
                    if rng.gen_bool(0.5) {
                        let mut members: Vec<usize> =
                            (0..n).filter(|_| rng.gen_bool(0.6)).collect();
                        if members.is_empty() {
                            members.push(rng.gen_range(0..n));
                        }
                        if rng.gen_bool(0.3) {
                            members.reverse();
                        }
                        let want = fresh.group(&p, &members);
                        let got = kept.group(&p, &members);
                        let (want, got) = (bits(&[want], &fresh), bits(&[got], &kept));
                        prop_assert_eq!(want, got, "{}", ctx);
                        let amounts = bits(kept.amounts(), &kept);
                        prop_assert_eq!(bits(fresh.amounts(), &fresh), amounts, "{}", ctx);
                    } else {
                        let server: Vec<usize> =
                            (0..n).map(|_| rng.gen_range(0..servers)).collect();
                        let want = fresh.placement(&p, &server, unchecked).unwrap();
                        let got = kept.placement(&p, &server, unchecked).unwrap();
                        prop_assert_eq!(bits(&want, &fresh), bits(&got, &kept), "{}", ctx);
                    }
                }
            }
        }
    }

    fn mixed_problem(seed: u64) -> Problem {
        Problem::builder(3, 12.0)
            .threads((0..11).map(|i| {
                let s = 1.0 + ((i as u64 * 5 + seed * 3) % 7) as f64;
                match i % 3 {
                    0 => arc(Power::new(s, 0.5, 12.0)),
                    1 => arc(LogUtility::new(s, 0.8, 12.0)),
                    _ => arc(CappedLinear::new(s, 4.0, 12.0)),
                }
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn refinement_never_decreases_utility() {
        for seed in 0..8 {
            let p = mixed_problem(seed);
            let raw = algo2::solve(&p);
            let refined = refine_allocation(&p, &raw);
            refined.validate(&p).unwrap();
            assert!(
                refined.total_utility(&p) >= raw.total_utility(&p) - 1e-9,
                "seed {seed}"
            );
            assert_eq!(refined.server, raw.server, "placement must not change");
        }
    }

    #[test]
    fn refinement_preserves_guarantee_and_bound() {
        for seed in 0..4 {
            let p = mixed_problem(seed);
            let refined = solve_refined(&p);
            let bound = superopt::super_optimal(&p).utility;
            let u = refined.total_utility(&p);
            assert!(u >= ALPHA * bound - 1e-9);
            assert!(u <= bound + 1e-9);
        }
    }

    #[test]
    fn refinement_strictly_helps_sometimes() {
        // A thread with allocation above its useful knee on the same
        // server as a starved thread: re-splitting shifts the excess.
        let p = Problem::builder(1, 10.0)
            .thread(arc(CappedLinear::new(2.0, 3.0, 10.0)))
            .thread(arc(Power::new(1.0, 0.5, 10.0)))
            .build()
            .unwrap();
        // Hand-build a feasible but sloppy assignment.
        let sloppy = Assignment {
            server: vec![0, 0],
            amount: vec![8.0, 2.0],
        };
        let refined = refine_allocation(&p, &sloppy);
        assert!(refined.total_utility(&p) > sloppy.total_utility(&p) + 0.1);
        // The capped thread needs only its knee.
        assert!((refined.amount[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn cannot_fix_the_tightness_instance() {
        // Theorem V.17's gap is a *placement* mistake; per-server
        // re-splitting cannot recover it.
        let p = tightness::instance();
        let refined = solve_refined(&p);
        assert!(
            (refined.total_utility(&p) - tightness::GREEDY_UTILITY).abs() < 1e-9,
            "refinement should not change the tight instance's outcome"
        );
    }

    #[test]
    fn budgeted_refined_solve_is_bit_identical_with_room() {
        for seed in 0..4 {
            let p = mixed_problem(seed);
            let plain = solve_refined(&p);
            let roomy = solve_refined_budgeted(&p, &crate::Budget::unlimited()).unwrap();
            assert_eq!(plain, roomy, "seed {seed}");
        }
    }

    #[test]
    fn budgeted_refined_solve_types_expiry_at_every_fuel_level() {
        let p = mixed_problem(2);
        let plain = solve_refined(&p);
        for fuel in (0..400).step_by(23) {
            match solve_refined_budgeted(&p, &crate::Budget::with_fuel(fuel)) {
                Ok(a) => assert_eq!(a, plain, "fuel {fuel}"),
                Err(e) => {
                    assert_eq!(e, crate::SolveError::DeadlineExceeded, "fuel {fuel}");
                }
            }
        }
    }

    #[test]
    fn idempotent() {
        let p = mixed_problem(1);
        let once = solve_refined(&p);
        let twice = refine_allocation(&p, &once);
        assert!((once.total_utility(&p) - twice.total_utility(&p)).abs() < 1e-9);
    }
}
