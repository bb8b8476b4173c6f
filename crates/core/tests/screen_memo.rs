//! The memoized finite-utility screen.
//!
//! A screened solve through a [`WarmState`] (`TieredSolver::
//! try_solve_within_warm`, `Solver::try_solve_warm`) skips the probe
//! grid for a thread only when that very object passed the screen in an
//! earlier screened solve through the same state, at the same capacity.
//! These tests pin both halves: a carried object is skipped (a curve
//! that turns non-finite after passing goes unnoticed, which is how the
//! tests see the memo at work), and anything that breaks the chain of
//! screened solves — a new object, an unscreened commit, `invalidate`,
//! a caught panic — is screened again.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use aa_core::incremental::solve_incremental;
use aa_core::{Algorithm, Budget, Problem, SolveError, Solver, Tier, TieredSolver, WarmState};
use aa_utility::{DynUtility, Power, Utility};

const CAP: f64 = 30.0;
const CLEAN: u8 = 0;
const NON_FINITE: u8 = 1;
const PANICS: u8 = 2;

/// A power-law curve whose behaviour the test can switch after it was
/// built: `NON_FINITE` makes its value NaN on `[0.3, 0.4]·cap` (the
/// screen's grid probes `cap/3`); `PANICS` makes its demand query panic.
#[derive(Debug)]
struct Switch {
    base: Power,
    mode: AtomicU8,
}

impl Switch {
    fn new(mode: u8) -> Arc<Switch> {
        Arc::new(Switch { base: Power::new(2.0, 0.5, CAP), mode: AtomicU8::new(mode) })
    }

    fn set(&self, mode: u8) {
        self.mode.store(mode, Ordering::Relaxed);
    }
}

impl Utility for Switch {
    fn value(&self, x: f64) -> f64 {
        let poisoned = self.mode.load(Ordering::Relaxed) == NON_FINITE;
        if poisoned && (0.3 * CAP..=0.4 * CAP).contains(&x) {
            f64::NAN
        } else {
            self.base.value(x)
        }
    }
    fn derivative(&self, x: f64) -> f64 {
        self.base.derivative(x)
    }
    fn cap(&self) -> f64 {
        self.base.cap()
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        assert!(self.mode.load(Ordering::Relaxed) != PANICS, "demand query on a panicking curve");
        self.base.inverse_derivative(lambda)
    }
}

/// `n` power-law threads with `switch` at index 3.
fn threads(n: usize, switch: &Arc<Switch>) -> Vec<DynUtility> {
    (0..n)
        .map(|i| match i {
            3 => switch.clone() as DynUtility,
            _ => Arc::new(Power::new(1.0 + i as f64 * 0.3, 0.6, CAP)) as DynUtility,
        })
        .collect()
}

fn problem(threads: &[DynUtility]) -> Problem {
    Problem::new(3, 20.0, threads.to_vec()).unwrap()
}

/// `threads` with thread `i` replaced by `u`.
fn replaced(threads: &[DynUtility], i: usize, u: DynUtility) -> Vec<DynUtility> {
    let mut t = threads.to_vec();
    t[i] = u;
    t
}

fn fresh(scale: f64) -> DynUtility {
    Arc::new(Power::new(scale, 0.5, CAP))
}

fn ladder() -> TieredSolver {
    TieredSolver::with_ladder(vec![Tier::Algo2, Tier::Uu])
}

/// One screened solve, through the tiered ladder or the registry.
fn screened(via_ladder: bool, p: &Problem, warm: &mut WarmState) -> Result<(), SolveError> {
    if via_ladder {
        ladder().try_solve_within_warm(p, &Budget::unlimited(), warm).map(|_| ())
    } else {
        Algorithm::Algo2.try_solve_warm(p, warm).map(|_| ())
    }
}

#[test]
fn a_drifting_streams_new_non_finite_curve_is_refused() {
    for via_ladder in [true, false] {
        let switch = Switch::new(CLEAN);
        let base = threads(12, &switch);
        let mut warm = WarmState::new();
        screened(via_ladder, &problem(&base), &mut warm).unwrap();
        let drifted = replaced(&base, 5, fresh(4.0));
        screened(via_ladder, &problem(&drifted), &mut warm).unwrap();
        // The carried switch now fails the screen, but it is carried:
        // the screen skips it and refuses only the new curve at 7.
        switch.set(NON_FINITE);
        let bad = Switch::new(NON_FINITE);
        let next = replaced(&drifted, 7, bad);
        assert_eq!(
            screened(via_ladder, &problem(&next), &mut warm),
            Err(SolveError::NonFiniteUtility { thread: 7 }),
            "via_ladder={via_ladder}"
        );
        // A new object at a new index is screened too.
        let moved = replaced(&drifted, 3, Switch::new(NON_FINITE));
        assert_eq!(
            screened(via_ladder, &problem(&moved), &mut warm),
            Err(SolveError::NonFiniteUtility { thread: 3 }),
            "via_ladder={via_ladder}"
        );
    }
}

#[test]
fn the_memo_holds_only_at_the_capacity_it_was_screened_at() {
    let switch = Switch::new(CLEAN);
    let base = threads(10, &switch);
    let mut warm = WarmState::new();
    screened(true, &problem(&base), &mut warm).unwrap();
    switch.set(NON_FINITE);
    let resized = Problem::new(3, 24.0, base.clone()).unwrap();
    assert_eq!(
        screened(true, &resized, &mut warm),
        Err(SolveError::NonFiniteUtility { thread: 3 })
    );
}

#[test]
fn an_unscreened_commit_forces_a_full_screen() {
    for via_ladder in [true, false] {
        let switch = Switch::new(CLEAN);
        let base = threads(12, &switch);
        let drifted = replaced(&base, 5, fresh(4.0));

        // Control: screened all the way, the carried switch is skipped.
        let mut warm = WarmState::new();
        screened(via_ladder, &problem(&base), &mut warm).unwrap();
        screened(via_ladder, &problem(&drifted), &mut warm).unwrap();
        switch.set(NON_FINITE);
        assert_eq!(screened(via_ladder, &problem(&drifted), &mut warm), Ok(()));
        switch.set(CLEAN);

        // The same steps with the middle solve unscreened.
        let mut warm = WarmState::new();
        screened(via_ladder, &problem(&base), &mut warm).unwrap();
        solve_incremental(&problem(&drifted), &mut warm);
        switch.set(NON_FINITE);
        assert_eq!(
            screened(via_ladder, &problem(&drifted), &mut warm),
            Err(SolveError::NonFiniteUtility { thread: 3 }),
            "via_ladder={via_ladder}"
        );
    }
}

#[test]
fn invalidate_forces_a_full_screen() {
    let switch = Switch::new(CLEAN);
    let base = threads(12, &switch);
    let mut warm = WarmState::new();
    screened(true, &problem(&base), &mut warm).unwrap();
    warm.invalidate();
    switch.set(NON_FINITE);
    assert_eq!(
        screened(true, &problem(&base), &mut warm),
        Err(SolveError::NonFiniteUtility { thread: 3 })
    );
}

#[test]
fn a_caught_panic_forces_a_full_screen() {
    let switch = Switch::new(CLEAN);
    let base = threads(12, &switch);
    let mut warm = WarmState::new();
    let solver = ladder();
    solver.try_solve_within_caught(&problem(&base), &Budget::unlimited(), Some(&mut warm)).unwrap();
    // A new curve that passes the screen but panics in the solve.
    let panicking = replaced(&base, 5, Switch::new(PANICS));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = solver.try_solve_within_caught(
        &problem(&panicking),
        &Budget::unlimited(),
        Some(&mut warm),
    );
    std::panic::set_hook(hook);
    assert!(matches!(caught, Err(SolveError::Panicked(_))), "{caught:?}");
    switch.set(NON_FINITE);
    assert_eq!(
        solver
            .try_solve_within_caught(&problem(&base), &Budget::unlimited(), Some(&mut warm))
            .map(|_| ()),
        Err(SolveError::NonFiniteUtility { thread: 3 })
    );
}
