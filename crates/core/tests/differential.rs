//! Differential tests of the parallel solve path.
//!
//! The determinism contract: parallelism may change timing, never
//! output. For random instances, every parallel entry point —
//! Algorithm 1, Algorithm 2, the batched solver fan-out — must produce
//! assignments, allocations, and total utilities **exactly equal**
//! (`assert_eq!`, not within-tolerance) to the sequential oracle at
//! 1, 2, and 8 pool threads. The vendored rayon earns this by
//! materializing per-index results in input order and reducing
//! sequentially on the calling thread.

use std::sync::Arc;

use aa_core::solver::{solve_batch, Algo2, Rr, Solver};
use aa_core::hetero::{self, HeteroProblem};
use aa_core::{algo1, algo2, batch_seed, superopt, Problem};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Offset, Power};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts every differential property is checked at. 1 exercises
/// the inline path, 2 the minimal fan-out, 8 oversubscribes this
/// container's cores so chunk interleaving is adversarial.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn any_utility(cap: f64) -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (0.1..10.0f64, 0.2..1.0f64)
            .prop_map(move |(s, b)| Arc::new(Power::new(s, b, cap)) as DynUtility),
        (0.1..10.0f64, 0.1..4.0f64)
            .prop_map(move |(s, r)| Arc::new(LogUtility::new(s, r, cap)) as DynUtility),
        (0.1..10.0f64, 0.05..1.0f64)
            .prop_map(move |(s, k)| Arc::new(CappedLinear::new(s, k * cap, cap)) as DynUtility),
        tied_utility(cap),
    ]
}

/// Strategy: curves that tie in Algorithm 2's sorts — `Arc`-distinct
/// copies of one curve (equal keys and densities), zero-value threads
/// (density 0), constant-value threads that demand nothing (`ĉ = 0`
/// over a positive floor: density ∞), and equal-slope capped-linear
/// threads (equal densities below their knees).
fn tied_utility(cap: f64) -> impl Strategy<Value = DynUtility> {
    (0usize..4, 0.05..1.0f64).prop_map(move |(kind, k)| match kind {
        0 => Arc::new(Power::new(2.0, 0.5, cap)) as DynUtility,
        1 => Arc::new(Power::new(0.0, 0.5, cap)) as DynUtility,
        2 => Arc::new(Offset::new(Power::new(0.0, 0.5, cap), 1.5)) as DynUtility,
        _ => Arc::new(CappedLinear::new(2.0, k * cap, cap)) as DynUtility,
    })
}

fn any_problem() -> impl Strategy<Value = Problem> {
    (2usize..9, 1usize..40, 1.0..100.0f64).prop_flat_map(|(m, n, cap)| {
        prop::collection::vec(any_utility(cap), n)
            .prop_map(move |threads| Problem::new(m, cap, threads).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn algo1_parallel_equals_sequential(p in any_problem()) {
        let seq = rayon::with_threads(1, || algo1::solve(&p));
        for threads in THREAD_COUNTS {
            let par = rayon::with_threads(threads, || algo1::solve(&p));
            prop_assert_eq!(&seq, &par, "algo1 diverged at {} threads", threads);
        }
    }

    #[test]
    fn algo2_parallel_equals_sequential(p in any_problem()) {
        let seq = rayon::with_threads(1, || algo2::solve(&p));
        for threads in THREAD_COUNTS {
            let par = rayon::with_threads(threads, || algo2::solve(&p));
            prop_assert_eq!(&seq, &par, "algo2 diverged at {} threads", threads);
        }
        // Total utility, the headline number, is bit-identical too.
        let u = seq.total_utility(&p);
        let up = rayon::with_threads(8, || algo2::solve(&p).total_utility(&p));
        prop_assert_eq!(u.to_bits(), up.to_bits());
    }

    /// The heterogeneous extension at equal capacities is Algorithm 2,
    /// bit for bit on every draw: the same `ĉ` (budget `m·C`, the same
    /// capped views) and the same placement.
    #[test]
    fn hetero_at_equal_capacities_equals_algo2(p in any_problem()) {
        let hp = HeteroProblem::new(vec![p.capacity(); p.servers()], p.threads().to_vec()).unwrap();
        let h = hetero::solve(&hp);
        h.validate(&hp).map_err(|e| format!("hetero infeasible: {e}"))?;
        let a = algo2::solve(&p);
        let so = superopt::super_optimal(&p);
        prop_assert_eq!(hetero::super_optimal(&hp), (so.amounts, so.utility));
        prop_assert_eq!(&h.server, &a.server);
        prop_assert_eq!(&h.amount, &a.amount);
    }

    #[test]
    fn superopt_parallel_equals_sequential(p in any_problem()) {
        let seq = rayon::with_threads(1, || superopt::super_optimal(&p));
        for threads in THREAD_COUNTS {
            let par = rayon::with_threads(threads, || superopt::super_optimal(&p));
            prop_assert_eq!(&seq, &par, "ĉ diverged at {} threads", threads);
        }
    }

    #[test]
    fn batched_solves_equal_the_sequential_loop(
        problems in prop::collection::vec(any_problem(), 1..6),
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic and randomized solvers alike: batch fan-out must
        // reproduce the obvious sequential loop exactly, because each
        // instance's RNG stream is position-determined.
        let expect_algo2: Vec<_> = problems
            .iter()
            .map(|p| Algo2.solve_with(p, &mut StdRng::seed_from_u64(0)))
            .collect();
        let expect_rr: Vec<_> = problems
            .iter()
            .enumerate()
            .map(|(k, p)| {
                Rr.solve_with(p, &mut StdRng::seed_from_u64(batch_seed(seed, k)))
            })
            .collect();
        for threads in THREAD_COUNTS {
            let (got_algo2, got_rr) = rayon::with_threads(threads, || {
                (
                    solve_batch(&Algo2, &problems, seed),
                    solve_batch(&Rr, &problems, seed),
                )
            });
            prop_assert_eq!(&expect_algo2, &got_algo2, "algo2 batch at {} threads", threads);
            prop_assert_eq!(&expect_rr, &got_rr, "rr batch at {} threads", threads);
        }
    }
}

/// One deterministic instance above the allocator's parallel threshold,
/// so the pool path is guaranteed to run (the proptest instances above
/// are small and mostly exercise the delegation branch).
#[test]
fn large_instance_is_bit_identical_across_thread_counts() {
    let n = aa_allocator::par_threshold() + 321;
    let p = Problem::builder(16, 50.0)
        .threads((0..n).map(|i| {
            let s = 0.25 + (i % 101) as f64 * 0.07;
            if i % 3 == 0 {
                Arc::new(LogUtility::new(s, 0.4, 50.0)) as DynUtility
            } else {
                Arc::new(Power::new(s, 0.5 + (i % 4) as f64 * 0.1, 50.0)) as DynUtility
            }
        }))
        .build()
        .unwrap();
    let seq = rayon::with_threads(1, || algo2::solve(&p));
    for threads in THREAD_COUNTS {
        let par = rayon::with_threads(threads, || algo2::solve(&p));
        assert_eq!(seq, par, "{threads} threads");
    }
}
