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
//!
//! Steps 1–3 live here once, as `Placement` (the two sorts, on buffers
//! a caller may keep) and `walk` (the fullest-server walk from any list
//! of server capacities). Every caller places through them: the cold and
//! budgeted paths below, the warm engine ([`crate::incremental`]), the
//! ablations ([`crate::ablation`]), the heterogeneous extension
//! ([`crate::hetero`]), and — the walk alone, in its own order — the
//! price backend ([`crate::price`]).

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
/// Deterministic: both sorts are strict total orders (ties keep index
/// order) and the walk breaks capacity ties toward the lowest server
/// index.
pub fn assign_with(problem: &Problem, so: &SuperOptimal, gs: &[Linearized]) -> Assignment {
    assign_impl(problem, so, gs, None).expect("an unbudgeted walk never fails")
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
    let mut out = Assignment { server: Vec::new(), amount: Vec::new() };
    Placement::default().assign(problem, &so.amounts, gs, budget, &mut out.server, &mut out.amount)?;
    Ok(out)
}

/// One server's place in the fullest-server walk: remaining capacity,
/// then the index reversed, so the max-heap breaks capacity ties toward
/// the lowest server index.
type Slot = (OrdF64, Reverse<usize>);

/// Algorithm 2's placement (lines 1–10) on buffers reused across
/// solves: the sort records of the two sorts, the processing order, and
/// the walk's heap. Every Algorithm 2 variant places through this one
/// ordering and the one [`walk`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Placement {
    ranked: Vec<(i64, usize)>,
    order: Vec<usize>,
    heap: Vec<Slot>,
}

impl Placement {
    /// Line 1: every thread by `g_i(ĉ_i)`, nonincreasing. Ties go to
    /// the lower index, so this strict total order equals a stable sort
    /// by the key alone.
    pub(crate) fn sort_by_value(&mut self, gs: &[Linearized]) {
        self.ranked.clear();
        self.ranked.extend(gs.iter().enumerate().map(|(i, g)| (!rank(g.value(g.c_hat())), i)));
        self.ranked.sort_unstable();
        self.order.clear();
        self.order.extend(self.ranked.iter().map(|&(_, i)| i));
    }

    /// Line 2: positions `m..` of line 1's order by density,
    /// nonincreasing, ties in line 1's order — a stable density re-sort
    /// of the tail. Call after [`Self::sort_by_value`].
    pub(crate) fn sort_tail_by_density(&mut self, gs: &[Linearized], m: usize) {
        let n = self.order.len();
        if n <= m {
            return;
        }
        // Records carry the position in line 1's order, which breaks
        // density ties; the positions then map back to threads.
        let order = &mut self.order;
        self.ranked.clear();
        self.ranked.extend((m..n).map(|p| (!rank(gs[order[p]].density()), p)));
        self.ranked.sort_unstable();
        for record in &mut self.ranked {
            record.1 = order[record.1];
        }
        for (slot, &(_, i)) in order[m..].iter_mut().zip(&self.ranked) {
            *slot = i;
        }
    }

    /// Lines 3–10 over the current order: [`walk`] from `capacities`,
    /// each thread taking `take(i, remaining)`.
    pub(crate) fn walk(
        &mut self,
        capacities: impl IntoIterator<Item = f64>,
        budget: Option<&Budget>,
        take: impl FnMut(usize, f64) -> f64,
        server: &mut Vec<usize>,
        amount: &mut Vec<f64>,
    ) -> Result<(), SolveError> {
        walk(&mut self.heap, capacities, &self.order, budget, take, server, amount)
    }

    /// The whole assignment phase on `m` servers of capacity `C`: both
    /// sorts, then the walk giving thread `i` `min(ĉ_i, remaining)`. The
    /// cold [`assign_with`] and the warm engine both place through here.
    pub(crate) fn assign(
        &mut self,
        problem: &Problem,
        c_hat: &[f64],
        gs: &[Linearized],
        budget: Option<&Budget>,
        server: &mut Vec<usize>,
        amount: &mut Vec<f64>,
    ) -> Result<(), SolveError> {
        let _span = aa_obs::span!("assign");
        let m = problem.servers();
        assert_eq!(c_hat.len(), problem.len(), "ĉ must cover every thread");
        assert_eq!(gs.len(), problem.len(), "g must cover every thread");
        self.sort_by_value(gs);
        self.sort_tail_by_density(gs, m);
        let caps = std::iter::repeat_n(problem.capacity(), m);
        self.walk(caps, budget, |i, cj| c_hat[i].min(cj), server, amount)
    }
}

/// `x`'s rank in [`f64::total_cmp`] order: the integer that method
/// compares, so `rank(a).cmp(&rank(b)) == a.total_cmp(&b)`. Sorting
/// `(!rank, index)` records ascending puts the largest value first and
/// breaks ties toward the lower index, with integer comparisons only.
fn rank(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The fullest-server walk: servers start at `capacities` (server `j`
/// at the `j`-th), and each thread `i` of `order` — a permutation of
/// `0..n` — goes to the server with the most remaining capacity (ties to
/// the lowest index), which gives up `take(i, remaining)`. `server` and
/// `amount` are refilled to length `n`. `budget` is checked once per
/// placement. `heap` is the walk's storage, kept by the caller so a
/// reused one allocates nothing.
pub(crate) fn walk(
    heap: &mut Vec<Slot>,
    capacities: impl IntoIterator<Item = f64>,
    order: &[usize],
    budget: Option<&Budget>,
    mut take: impl FnMut(usize, f64) -> f64,
    server: &mut Vec<usize>,
    amount: &mut Vec<f64>,
) -> Result<(), SolveError> {
    let n = order.len();
    server.clear();
    server.resize(n, 0);
    amount.clear();
    amount.resize(n, 0.0);
    let mut slots = std::mem::take(heap);
    slots.clear();
    slots.extend(capacities.into_iter().enumerate().map(|(j, c)| (OrdF64(c), Reverse(j))));
    let mut fullest = BinaryHeap::from(slots);
    let placed = order.iter().try_for_each(|&i| {
        if let Some(b) = budget {
            b.check()?;
        }
        // Total even for an (unrepresentable) empty server set: threads
        // that cannot be placed keep server 0 / amount 0 from the init.
        if let Some(mut top) = fullest.peek_mut() {
            let (OrdF64(cj), Reverse(j)) = *top;
            let c = take(i, cj);
            server[i] = j;
            amount[i] = c;
            // One sift down when `top` drops: the root is the unique
            // maximum of a strict total order, so this matches a pop and
            // a push exactly.
            top.0 = OrdF64(cj - c);
        }
        Ok(())
    });
    *heap = fullest.into_vec();
    placed
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
    fn placement_order_equals_the_stable_sorts() {
        // Tie-heavy linearizations: equal keys and densities, zero
        // values (density 0), ĉ = 0 over a positive floor (density ∞),
        // and equal slopes at different ĉ.
        let gs: Vec<Linearized> = [
            (2.0, 4.0, 0.0),
            (0.0, 0.0, 0.0),
            (2.0, 4.0, 0.0),
            (0.0, 1.5, 1.5),
            (3.0, 6.0, 0.0),
            (1.0, 2.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 1.5, 1.5),
            (4.0, 4.0, 0.0),
            (2.0, 4.0, 0.0),
        ]
        .iter()
        .map(|&(c, v, floor)| Linearized::new(c, v, 8.0, floor))
        .collect();
        let n = gs.len();
        let keys: Vec<f64> = gs.iter().map(|g| g.value(g.c_hat())).collect();
        let density: Vec<f64> = gs.iter().map(Linearized::density).collect();
        for m in 0..=n + 1 {
            let mut oracle: Vec<usize> = (0..n).collect();
            oracle.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]));
            if n > m {
                oracle[m..].sort_by(|&a, &b| density[b].total_cmp(&density[a]));
            }
            let mut placement = Placement::default();
            placement.sort_by_value(&gs);
            placement.sort_tail_by_density(&gs, m);
            assert_eq!(placement.order, oracle, "m = {m}");
        }
        let hostile = [
            f64::NAN, -f64::NAN, f64::INFINITY, -f64::INFINITY, 0.0, -0.0, 1.0, -1.0,
            f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, -5e-324, f64::MAX, f64::MIN,
        ];
        for a in hostile {
            for b in hostile {
                assert_eq!(rank(a).cmp(&rank(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
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
