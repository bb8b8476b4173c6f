//! Differential test for carried builds: a problem built against the
//! stream's previous threads (`build_problem_from`, as a fleet worker
//! builds every request) solves bit-identically to a fresh build
//! (`build_problem`) of the same file.
//!
//! Each random drift script starts from one problem file and walks a
//! stream through edits, exact repeats, threads arriving and leaving,
//! server-count and capacity changes, caught panics and expired
//! budgets. Every step is solved twice through the same ladder, each
//! side on its own [`WarmState`]: once on the carried build, once on a
//! fresh one. Answers (or errors) must agree bit for bit.

use std::sync::Arc;

use aa_cli::{build_problem, build_problem_from, ProblemFile};
use aa_core::{Budget, Problem, SolveError, Tier, TieredSolve, TieredSolver, WarmState};
use aa_utility::{DynUtility, Power, Utility, UtilitySpec};
use proptest::prelude::*;

const CAP: f64 = 40.0;

fn any_spec() -> impl Strategy<Value = UtilitySpec> {
    prop_oneof![
        (0.01..20.0f64, 0.05..1.0f64)
            .prop_map(|(scale, beta)| UtilitySpec::Power { scale, beta, cap: CAP }),
        (0.01..20.0f64, 0.01..5.0f64)
            .prop_map(|(scale, rate)| UtilitySpec::Log { scale, rate, cap: CAP }),
        (0.01..20.0f64, 0.05..=1.0f64).prop_map(|(slope, frac)| UtilitySpec::CappedLinear {
            slope,
            knee: frac * CAP,
            cap: CAP,
        }),
        (0.001..50.0f64, 0.0..=1.0f64).prop_map(|(v, w)| UtilitySpec::Pchip {
            points: vec![(0.0, 0.0), (CAP / 2.0, v), (CAP, v + w * v)],
        }),
        (0.001..50.0f64, 0.0..=1.0f64).prop_map(|(v, w)| UtilitySpec::Piecewise {
            points: vec![(0.0, 0.0), (CAP / 2.0, v), (CAP, v + w * v)],
        }),
    ]
}

/// One step of a drift script; indices wrap modulo the thread count.
#[derive(Debug, Clone)]
enum Step {
    /// Send the same file again.
    Repeat,
    /// Replace thread `i`'s spec.
    Edit(usize, UtilitySpec),
    /// Scale thread `i`'s curve by `f` where the family allows it.
    Nudge(usize, f64),
    /// A thread arrives at the end.
    Grow(UtilitySpec),
    /// The last thread leaves (kept when it is the only one).
    Shrink,
    /// The server count changes.
    Servers(usize),
    /// The capacity changes.
    Capacity(f64),
    /// A curve whose demand query panics joins the solve (not the
    /// file) on both sides; the panic, if the solve reaches that query,
    /// is caught.
    Panic,
    /// The budget has expired before the solve starts.
    Expire,
}

fn any_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Repeat),
        Just(Step::Repeat),
        (0usize..64, any_spec()).prop_map(|(i, s)| Step::Edit(i, s)),
        (0usize..64, 0.9..1.1f64).prop_map(|(i, f)| Step::Nudge(i, f)),
        (0usize..64, 0.9..1.1f64).prop_map(|(i, f)| Step::Nudge(i, f)),
        any_spec().prop_map(Step::Grow),
        Just(Step::Shrink),
        (1usize..5).prop_map(Step::Servers),
        prop_oneof![Just(20.0), Just(30.0), 10.0..60.0f64].prop_map(Step::Capacity),
        Just(Step::Panic),
        Just(Step::Expire),
    ]
}

fn ladders() -> impl Strategy<Value = Vec<Tier>> {
    prop_oneof![
        Just(vec![Tier::Algo2, Tier::Uu]),
        Just(vec![Tier::Price, Tier::Uu]),
        Just(vec![Tier::Price, Tier::Algo2, Tier::Uu]),
        Just(vec![Tier::Algo2Refined, Tier::Algo2, Tier::Uu]),
    ]
}

fn apply(file: &mut ProblemFile, step: &Step) {
    let n = file.threads.len();
    match step {
        Step::Edit(i, spec) => file.threads[i % n] = spec.clone(),
        Step::Nudge(i, f) => match &mut file.threads[i % n] {
            UtilitySpec::Pchip { points } | UtilitySpec::Piecewise { points } => {
                points.iter_mut().for_each(|p| p.1 *= f)
            }
            UtilitySpec::Power { scale, .. } | UtilitySpec::Log { scale, .. } => *scale *= f,
            UtilitySpec::CappedLinear { slope, .. } => *slope *= f,
            UtilitySpec::Linearized { v_hat, .. } => *v_hat *= f,
        },
        Step::Grow(spec) => file.threads.push(spec.clone()),
        Step::Shrink if n > 1 => {
            file.threads.pop();
        }
        Step::Servers(m) => file.servers = *m,
        Step::Capacity(c) => file.capacity = *c,
        Step::Repeat | Step::Shrink | Step::Panic | Step::Expire => {}
    }
}

/// A curve outside the spec families whose demand query panics: added
/// to a problem, it makes the solve panic inside the caught region.
#[derive(Debug)]
struct Panics;

impl Utility for Panics {
    fn value(&self, x: f64) -> f64 {
        x.clamp(0.0, CAP).sqrt()
    }
    fn derivative(&self, x: f64) -> f64 {
        Power::new(1.0, 0.5, CAP).derivative(x)
    }
    fn cap(&self) -> f64 {
        CAP
    }
    fn inverse_derivative(&self, _lambda: f64) -> f64 {
        panic!("demand query on a panicking curve")
    }
}

/// One side's solve of `problem` at this step.
fn solve(
    solver: &TieredSolver,
    problem: &Problem,
    step: &Step,
    warm: &mut WarmState,
) -> Result<TieredSolve, SolveError> {
    match step {
        Step::Panic => {
            let mut threads = problem.threads().to_vec();
            threads.push(Arc::new(Panics) as DynUtility);
            let p = Problem::new(problem.servers(), problem.capacity(), threads).unwrap();
            solver.try_solve_within_caught(&p, &Budget::unlimited(), Some(warm))
        }
        Step::Expire => solver.try_solve_within_caught(problem, &Budget::with_fuel(0), Some(warm)),
        _ => solver.try_solve_within_caught(problem, &Budget::unlimited(), Some(warm)),
    }
}

/// A comparable fingerprint of one answer: tier, utility and every
/// server and amount, as bits.
fn bits(r: &Result<TieredSolve, SolveError>) -> Result<(Tier, u64, Vec<usize>, Vec<u64>), String> {
    match r {
        Ok(s) => Ok((
            s.degradation.tier,
            s.utility.to_bits(),
            s.assignment.server.clone(),
            s.assignment.amount.iter().map(|a| a.to_bits()).collect(),
        )),
        Err(SolveError::Panicked(_)) => Err("panicked".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn carried_builds_solve_bit_identically_to_fresh_builds(
        start in (1usize..5, prop::collection::vec(any_spec(), 1..20)),
        steps in prop::collection::vec(any_step(), 1..10),
        ladder in ladders(),
    ) {
        let (servers, threads) = start;
        let mut file = ProblemFile { servers, capacity: 30.0, threads };
        // One solver per side: the tier breakers count per solver.
        let carried_solver = TieredSolver::with_ladder(ladder.clone());
        let fresh_solver = TieredSolver::with_ladder(ladder);
        let (mut carried_warm, mut fresh_warm) = (WarmState::new(), WarmState::new());
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut outcome = Ok(());
        let mut warm_answer = false;
        for (k, step) in std::iter::once(&Step::Repeat).chain(&steps).enumerate() {
            apply(&mut file, step);
            let previous = carried_warm.previous_threads().to_vec();
            let carried = build_problem_from(&file, &previous).unwrap();
            let fresh = build_problem(&file).unwrap();
            if matches!(step, Step::Repeat) && warm_answer {
                // An exact repeat after a warm rung answered carries
                // every curve.
                let all = previous.len() == carried.len()
                    && carried.threads().iter().zip(&previous).all(|(a, b)| Arc::ptr_eq(a, b));
                if !all {
                    outcome = Err(format!("step {k}: a repeat rebuilt a curve"));
                    break;
                }
            }
            let a = solve(&carried_solver, &carried, step, &mut carried_warm);
            let b = solve(&fresh_solver, &fresh, step, &mut fresh_warm);
            if bits(&a) != bits(&b) {
                outcome = Err(format!("step {k} ({step:?}): carried {a:?} vs fresh {b:?}"));
                break;
            }
            // A panic step solves a problem with one more curve.
            warm_answer = !matches!(step, Step::Panic)
                && a.as_ref().is_ok_and(|s| matches!(s.degradation.tier, Tier::Algo2 | Tier::Price));
        }
        std::panic::set_hook(quiet);
        outcome?;
    }
}
