//! Differential suite for the price-discovery backend against Algo2,
//! across all four paper distributions (§VII).
//!
//! The contract under test, per instance:
//!
//! * **Feasibility is exact** — every price assignment passes
//!   [`Assignment::validate`], no tolerance.
//! * **Utility within documented tolerance** — price total utility is
//!   within 5% relative of Algo2's (in practice refinement lands it
//!   *above* Algo2 on these workloads; the bound is one-sided because
//!   only a shortfall is a defect).
//! * **Determinism** — bit-identical assignments at 1, 2, and 8 pool
//!   threads (the par-sweep chunking contract).
//! * **Warm re-solve** — a drifted warm solve stays feasible, within
//!   the same tolerance, and spends no more price iterations than the
//!   cold solve of the same instance.

use aa_core::{algo2, price, Problem};
use aa_workloads::genutil::generate_many;
use aa_workloads::{Distribution, InstanceSpec};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Documented relative utility tolerance of the price backend vs Algo2
/// (see DESIGN.md §15 and the `aa_core::price` module docs).
const PRICE_UTILITY_RTOL: f64 = 0.05;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn paper_distributions() -> [(&'static str, Distribution); 4] {
    [
        ("uniform", Distribution::Uniform),
        ("normal", Distribution::Normal { mean: 1.0, std: 1.0 }),
        ("powerlaw", Distribution::PowerLaw { alpha: 2.0 }),
        ("discrete", Distribution::Discrete { gamma: 0.85, theta: 5.0 }),
    ]
}

fn instance(dist: Distribution, beta: usize, seed: u64) -> Problem {
    let spec = InstanceSpec::paper(dist, beta);
    spec.generate(&mut StdRng::seed_from_u64(seed)).unwrap()
}

#[test]
fn price_matches_algo2_within_tolerance_on_all_distributions() {
    for (name, dist) in paper_distributions() {
        for (beta, seed) in [(5usize, 11u64), (15, 12), (64, 13)] {
            let p = instance(dist, beta, seed);
            let a2 = algo2::solve(&p);
            let pr = price::solve(&p);
            pr.validate(&p)
                .unwrap_or_else(|e| panic!("{name} β={beta}: infeasible: {e:?}"));
            let (u2, up) = (a2.total_utility(&p), pr.total_utility(&p));
            assert!(
                up >= u2 * (1.0 - PRICE_UTILITY_RTOL),
                "{name} β={beta}: price utility {up} more than {PRICE_UTILITY_RTOL} \
                 below algo2 {u2}"
            );
        }
    }
}

#[test]
fn price_is_bit_identical_across_pool_widths() {
    for (name, dist) in paper_distributions() {
        let p = instance(dist, 40, 21);
        let base = rayon::with_threads(1, || price::solve(&p));
        for threads in THREAD_COUNTS {
            let got = rayon::with_threads(threads, || price::solve(&p));
            assert_eq!(base, got, "{name}: diverged at {threads} pool threads");
        }
    }
}

#[test]
fn warm_drifted_resolve_stays_within_tolerance_and_iterations() {
    for (name, dist) in paper_distributions() {
        let spec = InstanceSpec::paper(dist, 24);
        let mut rng = StdRng::seed_from_u64(31);
        let p = spec.generate(&mut rng).unwrap();
        let mut state = price::PriceWarmState::new();
        let _ = price::solve_warm(&p, &mut state).unwrap();

        // Churn ~2% of the threads, keeping the rest shared `Arc`s so
        // the warm table cache patches rather than recompiles.
        let mut threads = p.threads().to_vec();
        let n = threads.len();
        let churn = (n / 50).max(1);
        for g in generate_many(&spec.dist, spec.capacity, churn, &mut rng) {
            let at = (rng.next_u64() % n as u64) as usize;
            threads[at] = g.utility;
        }
        let drifted = Problem::new(spec.servers, spec.capacity, threads).unwrap();

        let cold = price::solve(&drifted);
        cold.validate(&drifted).unwrap();
        let cold_iters = {
            let mut fresh = price::PriceWarmState::new();
            let _ = price::solve_warm(&drifted, &mut fresh).unwrap();
            fresh.last_stats().iterations
        };

        let warm = price::solve_warm(&drifted, &mut state).unwrap();
        warm.validate(&drifted)
            .unwrap_or_else(|e| panic!("{name}: warm drifted infeasible: {e:?}"));
        let stats = state.last_stats();
        assert!(stats.warm, "{name}: drifted re-solve did not report warm");
        assert!(
            stats.iterations <= cold_iters,
            "{name}: warm used {} global iterations, cold needed {cold_iters}",
            stats.iterations
        );
        let (cu, wu) = (cold.total_utility(&drifted), warm.total_utility(&drifted));
        assert!(
            wu >= cu * (1.0 - PRICE_UTILITY_RTOL),
            "{name}: warm utility {wu} more than {PRICE_UTILITY_RTOL} below cold {cu}"
        );
    }
}

#[test]
fn warm_is_bit_identical_across_pool_widths() {
    for (name, dist) in paper_distributions() {
        let spec = InstanceSpec::paper(dist, 32);
        let mut rng = StdRng::seed_from_u64(41);
        let p = spec.generate(&mut rng).unwrap();
        let mut base_state = price::PriceWarmState::new();
        let _ = price::solve_warm(&p, &mut base_state).unwrap();
        let mut threads = p.threads().to_vec();
        for g in generate_many(&spec.dist, spec.capacity, 4, &mut rng) {
            let at = (rng.next_u64() % threads.len() as u64) as usize;
            threads[at] = g.utility;
        }
        let drifted = Problem::new(spec.servers, spec.capacity, threads).unwrap();
        let base = rayon::with_threads(1, || {
            price::solve_warm(&drifted, &mut base_state.clone()).unwrap()
        });
        for threads_n in THREAD_COUNTS {
            let got = rayon::with_threads(threads_n, || {
                price::solve_warm(&drifted, &mut base_state.clone()).unwrap()
            });
            assert_eq!(base, got, "{name}: warm diverged at {threads_n} pool threads");
        }
    }
}

/// `|D(λ) − mC| / mC` at the carried global price, from one demand
/// sweep over the problem's capped views.
fn clearing_gap(p: &Problem, lambda: f64) -> f64 {
    let utils = p.capped_threads();
    let mut table = aa_utility::DemandTable::new();
    table.compile(&utils);
    let mut out = vec![0.0; utils.len()];
    table.batch_inverse_derivative(&utils, lambda, &mut out);
    let supply = p.servers() as f64 * p.capacity();
    (out.iter().sum::<f64>() - supply).abs() / supply
}

#[test]
fn converged_global_price_clears_within_tolerance_cold_and_warm() {
    for (name, dist) in paper_distributions() {
        let spec = InstanceSpec::paper(dist, 24);
        let mut rng = StdRng::seed_from_u64(51);
        let p = spec.generate(&mut rng).unwrap();
        let mut state = price::PriceWarmState::new();
        let _ = price::solve_warm(&p, &mut state).unwrap();

        let mut threads = p.threads().to_vec();
        for g in generate_many(&spec.dist, spec.capacity, 8, &mut rng) {
            let at = (rng.next_u64() % threads.len() as u64) as usize;
            threads[at] = g.utility;
        }
        let drifted = Problem::new(spec.servers, spec.capacity, threads).unwrap();

        let mut checked = 0;
        for (phase, problem) in [("cold", &p), ("warm", &drifted)] {
            if phase == "warm" {
                let _ = price::solve_warm(problem, &mut state).unwrap();
            }
            assert_eq!(state.last_stats().warm, phase == "warm", "{name} {phase}");
            if !state.last_stats().converged {
                continue;
            }
            let lambda = state.lambda().expect("a solved state carries its price");
            let gap = clearing_gap(problem, lambda);
            assert!(
                gap <= price::TOL,
                "{name} {phase}: D({lambda}) misses supply by {gap:.2e} > {}",
                price::TOL
            );
            checked += 1;
        }
        assert!(checked > 0, "{name}: neither solve converged");
    }
}
