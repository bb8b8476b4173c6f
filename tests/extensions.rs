//! Cross-crate integration of the extension modules through the facade:
//! refinement, discrete rounding, heterogeneous capacities, statistics
//! — composed the way a deployment would.

use std::sync::Arc;

use aa::core::solver::{Algo2, Algo2Refined, Solver};
use aa::core::{discrete, exact_bb, hetero, refine, stats, superopt, Problem, ALPHA};
use aa::utility::{CappedLinear, DynUtility, LogUtility, Power, Scaled, Utility};

fn mixed_problem() -> Problem {
    Problem::builder(3, 16.0)
        .thread(Arc::new(Power::new(5.0, 0.5, 16.0)))
        .thread(Arc::new(LogUtility::new(4.0, 0.4, 16.0)))
        .thread(Arc::new(CappedLinear::new(2.0, 6.0, 16.0)))
        .thread(Arc::new(Power::new(1.5, 0.8, 16.0)))
        .thread(Arc::new(LogUtility::new(2.5, 1.2, 16.0)))
        .thread(Arc::new(CappedLinear::new(3.0, 4.0, 16.0)))
        .thread(Arc::new(Power::new(0.8, 0.6, 16.0)))
        .build()
        .unwrap()
}

#[test]
fn refined_solver_dominates_plain_algo2_everywhere_it_should() {
    let p = mixed_problem();
    let plain = Algo2.solve(&p).total_utility(&p);
    let refined = Algo2Refined.solve(&p).total_utility(&p);
    let bound = superopt::super_optimal(&p).utility;
    assert!(refined >= plain - 1e-9);
    assert!(refined >= ALPHA * bound - 1e-9);
    assert!(refined <= bound + 1e-9);
}

#[test]
fn full_pipeline_continuous_to_discrete_to_stats() {
    // Solve → refine → round to whole units → diagnose. The way an
    // operator would actually consume the library.
    let p = mixed_problem();
    let continuous = refine::solve_refined(&p);
    let integral = discrete::round_assignment(&p, &continuous, 1.0);
    integral.validate(&p).unwrap();

    let s = stats::stats(&p, &integral);
    assert!(s.total_utility > 0.0);
    assert!(s.capacity_utilization <= 1.0 + 1e-9);
    assert!((0.0..=1.0 + 1e-9).contains(&s.utility_fairness));
    assert_eq!(s.starved_threads + (p.len() - s.starved_threads), p.len());

    // Discretization at unit granularity costs almost nothing here.
    assert!(
        integral.total_utility(&p) >= 0.95 * continuous.total_utility(&p),
        "integral {} vs continuous {}",
        integral.total_utility(&p),
        continuous.total_utility(&p)
    );
}

#[test]
fn branch_and_bound_certifies_the_heuristic_stack() {
    let p = mixed_problem();
    let opt = exact_bb::optimal_utility(&p);
    for (name, u) in [
        ("algo2", Algo2.solve(&p).total_utility(&p)),
        ("algo2-refined", Algo2Refined.solve(&p).total_utility(&p)),
    ] {
        assert!(u <= opt + 1e-6 * opt, "{name} beat the optimum");
        assert!(u >= ALPHA * opt - 1e-6 * opt, "{name} below guarantee");
    }
}

#[test]
fn hetero_with_priority_weights() {
    // Compose: priority-weighted utilities (combinators) on a
    // heterogeneous fleet (extension).
    let threads: Vec<DynUtility> = (0..8)
        .map(|i| {
            let base = Power::new(1.0, 0.5, 12.0);
            let weight = if i < 2 { 10.0 } else { 1.0 }; // two VIP threads
            Arc::new(Scaled::new(base, weight)) as DynUtility
        })
        .collect();
    let hp = hetero::HeteroProblem::new(vec![12.0, 6.0, 3.0], threads).unwrap();
    let a = hetero::solve(&hp);
    a.validate(&hp).unwrap();
    // The VIP threads land on the largest servers with the most resource.
    let vip_alloc = a.amount[0].min(a.amount[1]);
    let best_other = a.amount[2..].iter().cloned().fold(0.0_f64, f64::max);
    assert!(
        vip_alloc >= best_other - 1e-9,
        "VIPs got {vip_alloc}, someone else got {best_other}"
    );
}

#[test]
fn online_weight_bump_shifts_resources() {
    // Operator doubles a thread's priority at runtime; in-place repair
    // reallocates toward it without migrations.
    let before = mixed_problem();
    let a0 = Algo2.solve(&before);

    let mut threads: Vec<DynUtility> = before.threads().to_vec();
    threads[6] = Arc::new(Scaled::new(Power::new(0.8, 0.6, 16.0), 20.0));
    let after = Problem::new(3, 16.0, threads).unwrap();

    let repaired = aa::core::refine::refine_allocation(&after, &a0);
    repaired.validate(&after).unwrap();
    assert_eq!(repaired.server, a0.server, "no migrations");
    assert!(
        repaired.amount[6] >= a0.amount[6] - 1e-9,
        "boosted thread lost resources: {} -> {}",
        a0.amount[6],
        repaired.amount[6]
    );
    assert!(repaired.total_utility(&after) >= a0.total_utility(&after) - 1e-9);
}

#[test]
fn utility_trait_is_object_safe_across_the_facade() {
    // A deployment can mix every family behind one Vec<DynUtility>.
    let zoo: Vec<DynUtility> = vec![
        Arc::new(Power::new(1.0, 0.5, 8.0)),
        Arc::new(LogUtility::new(2.0, 1.0, 8.0)),
        Arc::new(CappedLinear::new(1.0, 3.0, 8.0)),
        Arc::new(aa::utility::Pchip::new(&[(0.0, 0.0), (4.0, 3.0), (8.0, 4.0)]).unwrap()),
        Arc::new(
            aa::utility::PiecewiseLinear::new(&[(0.0, 0.0), (4.0, 4.0), (8.0, 6.0)]).unwrap(),
        ),
        Arc::new(Scaled::new(Power::new(1.0, 0.5, 8.0), 2.0)),
    ];
    let p = Problem::new(2, 8.0, zoo).unwrap();
    let a = Algo2.solve(&p);
    a.validate(&p).unwrap();
    assert!(a.total_utility(&p) > 0.0);
    for f in p.threads() {
        assert!(f.cap() <= 8.0 + 1e-9);
    }
}
