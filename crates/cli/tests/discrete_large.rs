//! Regression pin for the benchmark matrix's `discrete`/`large` cell —
//! the 16×8192 instance that was the v3 baseline's 181 ms outlier.
//!
//! The workload generator's "discrete" distribution draws *utility
//! parameters* from a discrete set but emits smooth (PCHIP-envelope)
//! curves, so the allocator's all-discrete integer ladder must
//! **disengage** on this instance — and the default, generic, and
//! parallel paths must still agree down to the last bit. This is the
//! exact seeded instance from the committed `BENCH_solver.json`
//! (base seed 2016, entry index 7).

use aa_allocator::bisection::{allocate, allocate_generic, discrete_ladder_bracket};
use aa_core::algo2;
use aa_workloads::{Distribution, InstanceSpec};
use rand::{rngs::StdRng, SeedableRng};

/// Derived entry seed of the discrete/large cell in the committed
/// baseline (pinned there as `entries[7].seed`).
const DISCRETE_LARGE_SEED: u64 = 16894640282273722000;

#[test]
fn discrete_large_bench_instance_is_bit_stable() {
    let spec = InstanceSpec {
        servers: 16,
        beta: 512,
        capacity: 1000.0,
        dist: Distribution::Discrete { gamma: 0.85, theta: 5.0 },
    };
    let mut rng = StdRng::seed_from_u64(DISCRETE_LARGE_SEED);
    let problem = spec.generate(&mut rng).expect("seeded instance builds");
    assert_eq!(problem.len(), 8192);

    // Allocator level: the single-pool super-optimal subproblem over the
    // capped per-thread views at budget B = m·C.
    let utils = problem.capped_threads();
    let budget = 16.0 * 1000.0;
    assert_eq!(
        discrete_ladder_bracket(&utils, budget),
        None,
        "generated curves are smooth; the integer ladder must disengage"
    );
    let fast = allocate(&utils, budget);
    let generic = allocate_generic(&utils, budget);
    for (i, (a, b)) in fast.amounts.iter().zip(&generic.amounts).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "amounts[{i}] diverged");
    }
    assert_eq!(fast.utility.to_bits(), generic.utility.to_bits());

    // Solver level: sequential and parallel Algorithm 2 stay identical
    // on the full instance (the bench matrix's `identical` contract).
    let seq = rayon::with_threads(1, || algo2::solve(&problem));
    for &threads in &[2usize, 8] {
        let par = rayon::with_threads(threads, || algo2::solve(&problem));
        assert_eq!(seq, par, "seq vs par@{threads} diverged");
    }
}
