//! Online repair under utility drift — the paper's §VIII future-work
//! scenario, implemented as the `aa_core::online` extension.
//!
//! Threads' utility curves change (phase changes, input shifts). Instead
//! of re-solving and migrating everything, the operator can (a) re-split
//! each server's resource in place — zero migrations — or (b) allow a
//! budget of `k` migrations. This example quantifies the recovered
//! utility at each repair level.
//!
//! ```text
//! cargo run --example online_drift
//! ```

use std::sync::Arc;

use aa::core::online::improve_with_migrations;
use aa::core::refine::refine_allocation;
use aa::core::solver::{Algo2, Solver};
use aa::core::{superopt, Problem};
use aa::utility::{DynUtility, LogUtility, Power};

fn main() {
    let m = 4;
    let c = 32.0;

    // Phase 1: compute-bound warm-up — thread importance grows with id.
    let before = Problem::builder(m, c)
        .threads((0..16).map(|i| {
            Arc::new(Power::new(1.0 + i as f64 * 0.5, 0.5, c)) as DynUtility
        }))
        .build()
        .unwrap();

    // Phase 2: the workload shifts — importance order reverses and curve
    // shapes change.
    let after = Problem::builder(m, c)
        .threads((0..16).map(|i| {
            Arc::new(LogUtility::new(9.0 - i as f64 * 0.5, 0.6, c)) as DynUtility
        }))
        .build()
        .unwrap();

    let assignment = Algo2.solve(&before);
    println!("phase 1 utility (before drift): {:.3}", assignment.total_utility(&before));

    let stale = assignment.total_utility(&after);
    let bound = superopt::super_optimal(&after).utility;
    println!("\nafter drift, same assignment:   {stale:.3}");
    println!("super-optimal bound (phase 2):  {bound:.3}\n");

    println!("{:<36} {:>9} {:>9}", "repair strategy", "utility", "% bound");
    let inplace = refine_allocation(&after, &assignment);
    let u0 = inplace.total_utility(&after);
    println!("{:<36} {:>9.3} {:>8.1}%", "re-split in place (0 migrations)", u0, 100.0 * u0 / bound);

    for k in [1, 2, 4, 8] {
        let repaired = improve_with_migrations(&after, &assignment, k);
        let u = repaired.total_utility(&after);
        println!(
            "{:<36} {:>9.3} {:>8.1}%",
            format!("≤ {k} migrations"),
            u,
            100.0 * u / bound
        );
    }

    let fresh = Algo2.solve(&after).total_utility(&after);
    println!(
        "{:<36} {:>9.3} {:>8.1}%",
        "full re-solve (unbounded moves)",
        fresh,
        100.0 * fresh / bound
    );
}
