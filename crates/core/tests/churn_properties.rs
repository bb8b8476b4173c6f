//! Property-based verification of the churn-repair guarantees.
//!
//! For a random small problem driven through a random event sequence:
//!
//! * every repaired assignment validates against the post-event problem;
//! * per-server load never exceeds the live capacity;
//! * [`churn::repair_after`] never does worse than the naive
//!   lightest-server evacuation baseline;
//! * the degraded-mode optimizers ([`refine::refine_allocation`],
//!   [`online::improve_with_migrations`]) never decrease utility when a
//!   thread's curve collapses to a degenerate (all-zero or capped-at-0)
//!   one.

use std::sync::Arc;

use aa_core::churn::{self, ClusterEvent, MigrationBudget};
use aa_core::solver::{Algo2, Solver};
use aa_core::{online, refine, Problem};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Power};
use proptest::prelude::*;

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

/// Strategy: a small random AA problem.
fn small_problem() -> impl Strategy<Value = Problem> {
    (2usize..5, 2usize..8, 1.0..20.0f64).prop_flat_map(|(m, n, cap)| {
        prop::collection::vec(any_utility(cap), n)
            .prop_map(move |threads| Problem::new(m, cap, threads).unwrap())
    })
}

/// Abstract event tokens, materialized against the *evolving* problem so
/// indices are always in range regardless of what earlier events did.
#[derive(Debug, Clone)]
enum Token {
    Down(usize),
    Up,
    Flap(f64),
    Arrive(f64, f64),
    Depart(usize),
}

fn any_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        (0usize..64).prop_map(Token::Down),
        Just(Token::Up),
        (0.3..2.0f64).prop_map(Token::Flap),
        (0.1..8.0f64, 0.2..1.0f64).prop_map(|(s, b)| Token::Arrive(s, b)),
        (0usize..64).prop_map(Token::Depart),
    ]
}

/// Turn a token into a valid event for the current problem. A crash of
/// the last server becomes a recovery; a departure of the last thread
/// becomes an arrival — so every script step is applicable.
fn materialize(problem: &Problem, token: &Token) -> ClusterEvent {
    let m = problem.servers();
    let n = problem.len();
    match token {
        Token::Down(s) if m > 1 => ClusterEvent::ServerDown { server: s % m },
        Token::Down(_) | Token::Up => ClusterEvent::ServerUp,
        Token::Flap(f) => ClusterEvent::CapacityChanged { capacity: problem.capacity() * f },
        Token::Arrive(s, b) => ClusterEvent::ThreadArrived {
            utility: Arc::new(Power::new(*s, *b, problem.capacity())),
        },
        Token::Depart(t) if n > 1 => ClusterEvent::ThreadDeparted { thread: t % n },
        Token::Depart(_) => ClusterEvent::ThreadArrived {
            utility: Arc::new(Power::new(1.0, 0.5, problem.capacity())),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Driving a plan through any random fault script keeps every
    /// intermediate assignment feasible and never loses to the naive
    /// evacuation baseline.
    #[test]
    fn random_fault_scripts_repair_feasibly_and_beat_naive(
        p in small_problem(),
        tokens in prop::collection::vec(any_token(), 1..10),
        budget in 0usize..4,
    ) {
        let mut problem = p;
        let mut plan = Algo2.solve(&problem);
        for token in &tokens {
            let event = materialize(&problem, token);
            let repair =
                churn::repair_after(&problem, &plan, &event, MigrationBudget::new(budget))
                    .expect("materialized events are always applicable");

            // Feasible against the post-event problem.
            repair.assignment.validate(&repair.problem).unwrap();

            // Per-server load within the live capacity.
            let cap = repair.problem.capacity();
            for (j, load) in repair.assignment.server_loads(&repair.problem)
                .into_iter()
                .enumerate()
            {
                prop_assert!(
                    load <= cap + 1e-6 * cap.max(1.0),
                    "server {j} overloaded: {load} > {cap} after {event:?}"
                );
            }

            // Monotone versus the naive baseline.
            let tol = 1e-9 * repair.report.naive_utility.abs().max(1.0);
            prop_assert!(
                repair.report.utility >= repair.report.naive_utility - tol,
                "repair {} lost to naive {} after {event:?}",
                repair.report.utility,
                repair.report.naive_utility
            );

            // The reported utility is the returned assignment's utility.
            let actual = repair.assignment.total_utility(&repair.problem);
            prop_assert!((actual - repair.report.utility).abs() <= 1e-9 * actual.abs().max(1.0));

            problem = repair.problem;
            plan = repair.assignment;
        }
    }

    /// When one thread's curve collapses to a degenerate one (identically
    /// zero, or capped at 0 resource), the in-place re-split and the
    /// budgeted migration pass still never decrease utility relative to
    /// keeping the stale allocation.
    #[test]
    fn degenerate_curve_never_decreases_utility(
        p in small_problem(),
        victim_seed in 0usize..64,
        zero_kind in 0usize..2,
        budget in 0usize..4,
    ) {
        let plan = Algo2.solve(&p);
        let victim = victim_seed % p.len();
        let cap = p.capacity();
        let degenerate: DynUtility = if zero_kind == 0 {
            // Identically zero everywhere.
            Arc::new(CappedLinear::new(0.0, 0.0, cap))
        } else {
            // Positive slope but capped at 0 resource: still worth 0.
            Arc::new(CappedLinear::new(1.0, 0.0, 0.0))
        };
        let mut threads = p.threads().to_vec();
        threads[victim] = degenerate;
        let drifted = Problem::new(p.servers(), cap, threads).unwrap();

        let stale = plan.total_utility(&drifted);
        let tol = 1e-9 * stale.abs().max(1.0);

        let in_place = refine::refine_allocation(&drifted, &plan);
        in_place.validate(&drifted).unwrap();
        let u_in_place = in_place.total_utility(&drifted);
        prop_assert!(
            u_in_place >= stale - tol,
            "in-place re-split lost utility: {u_in_place} < {stale}"
        );

        let migrated = online::improve_with_migrations(&drifted, &plan, budget);
        migrated.validate(&drifted).unwrap();
        let u_migrated = migrated.total_utility(&drifted);
        prop_assert!(
            u_migrated >= u_in_place - tol,
            "migration pass lost utility: {u_migrated} < {u_in_place}"
        );
    }
}
