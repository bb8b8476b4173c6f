//! Differential property tests for the incremental solve engine.
//!
//! The contract under test (see `aa_core::incremental`): for *any*
//! edit script — adding, removing, and mutating threads, resizing the
//! cluster, rescaling capacity or every utility — `solve_incremental`
//! driven through one persistent [`WarmState`] returns an assignment
//! **bit-identical** to a cold `algo2::solve` of the same instance, at
//! every step, at every rayon pool size. And an expired [`Budget`] mid-script is
//! cancellation-safe: the typed error invalidates the warm state, and
//! the next solve recovers to the exact cold answer.

use std::sync::Arc;

use aa_core::incremental::{solve_incremental, solve_incremental_budgeted, WarmState};
use aa_core::{algo2, Budget, Problem, SolveError};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Offset, Power, Scaled};
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

/// One step of a random edit script. Indices are taken modulo the live
/// thread count when applied, so every step is always applicable.
#[derive(Debug, Clone)]
enum Edit {
    /// Append a fresh thread.
    Add(f64, f64),
    /// Remove thread `i % n` (skipped when only one thread remains).
    Remove(usize),
    /// Replace thread `i % n`'s utility with a fresh curve.
    Mutate(usize, f64, f64),
    /// Resize the cluster to this many servers.
    Servers(usize),
    /// Rescale the per-server capacity (forces a structural rebuild).
    Capacity(f64),
    /// Multiply every utility by `10^k`. The clearing price moves by the
    /// same factor, so the warm search walks far in either direction —
    /// past the trusted price floor on the way down.
    Rescale(i32),
}

fn any_edit() -> impl Strategy<Value = Edit> {
    let mutate = (0usize..64, 0.1..8.0f64, 0.2..1.0f64)
        .prop_map(|(i, s, b)| Edit::Mutate(i, s, b))
        .boxed();
    // The stub's `prop_oneof!` draws uniformly; listing the mutate
    // strategy three times biases scripts toward the warm path's
    // bread-and-butter case without needing weights.
    prop_oneof![
        (0.1..8.0f64, 0.2..1.0f64).prop_map(|(s, b)| Edit::Add(s, b)),
        (0usize..64).prop_map(Edit::Remove),
        mutate.clone(),
        mutate.clone(),
        mutate,
        (1usize..7).prop_map(Edit::Servers),
        (0.5..2.0f64).prop_map(Edit::Capacity),
        (-6i32..=6).prop_map(Edit::Rescale),
    ]
}

/// Mutable script state: the pieces a [`Problem`] is built from.
struct Instance {
    servers: usize,
    capacity: f64,
    threads: Vec<DynUtility>,
}

impl Instance {
    fn apply(&mut self, edit: &Edit) {
        let n = self.threads.len();
        match edit {
            Edit::Add(s, b) => {
                self.threads.push(Arc::new(Power::new(*s, *b, self.capacity)));
            }
            Edit::Remove(i) if n > 1 => {
                self.threads.remove(i % n);
            }
            Edit::Remove(_) => {}
            Edit::Mutate(i, s, b) => {
                self.threads[i % n] = Arc::new(Power::new(*s, *b, self.capacity));
            }
            Edit::Servers(m) => self.servers = *m,
            Edit::Capacity(f) => self.capacity *= f,
            Edit::Rescale(k) => {
                let weight = 10f64.powi(*k);
                for t in &mut self.threads {
                    *t = Arc::new(Scaled::new(t.clone(), weight));
                }
            }
        }
    }

    fn problem(&self) -> Problem {
        // Unchanged entries keep their `Arc` identity across steps —
        // exactly what the engine's delta detection keys on.
        Problem::new(self.servers, self.capacity, self.threads.clone()).unwrap()
    }
}

/// Drive one edit script, checking warm-vs-cold bitwise equality at
/// every step. Factored out so the same script runs under several
/// rayon pool sizes.
fn check_script(
    servers: usize,
    capacity: f64,
    threads: &[DynUtility],
    script: &[Edit],
) -> Result<(), String> {
    let mut inst = Instance { servers, capacity, threads: threads.to_vec() };
    let mut state = WarmState::new();
    for (step, edit) in std::iter::once(None)
        .chain(script.iter().map(Some))
        .enumerate()
    {
        if let Some(edit) = edit {
            inst.apply(edit);
        }
        let problem = inst.problem();
        let cold = algo2::solve(&problem);
        let warm = solve_incremental(&problem, &mut state);
        prop_assert_eq!(&cold.server, &warm.server, "step {}: placement diverged", step);
        for (i, (c, w)) in cold.amount.iter().zip(&warm.amount).enumerate() {
            prop_assert_eq!(
                c.to_bits(),
                w.to_bits(),
                "step {}: thread {} allocation diverged ({} vs {})",
                step,
                i,
                c,
                w
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random edit scripts: warm output is bit-identical to a cold
    /// solve at every step, under 1-, 2-, and 8-thread rayon pools.
    #[test]
    fn random_edit_scripts_are_bit_identical_to_cold(
        shape in (2usize..5, 4.0..40.0f64),
        threads in prop::collection::vec(any_utility(20.0), 2..12),
        script in prop::collection::vec(any_edit(), 1..12),
    ) {
        let (m, cap) = shape;
        for pool in [1usize, 2, 8] {
            rayon::with_threads(pool, || check_script(m, cap, &threads, &script))?;
        }
    }

    /// Cancellation safety: an expired budget mid-script surfaces as a
    /// typed error, poisons nothing, and the very next solve recovers
    /// to the exact cold answer.
    #[test]
    fn expired_budget_recovers_to_the_exact_cold_answer(
        shape in (2usize..5, 4.0..40.0f64),
        threads in prop::collection::vec(any_utility(20.0), 2..10),
        warmups in 0usize..3,
    ) {
        let (m, cap) = shape;
        let inst = Instance { servers: m, capacity: cap, threads };
        let problem = inst.problem();
        let mut state = WarmState::new();
        for _ in 0..warmups {
            solve_incremental(&problem, &mut state);
        }
        let err = solve_incremental_budgeted(&problem, &mut state, &Budget::with_fuel(0))
            .unwrap_err();
        prop_assert_eq!(err, SolveError::DeadlineExceeded);
        // Recovery: the expired solve invalidated the warm state, so
        // the next call is a cold build — and must equal algo2 exactly.
        let recovered = solve_incremental(&problem, &mut state);
        let cold = algo2::solve(&problem);
        prop_assert_eq!(&recovered.server, &cold.server);
        for (r, c) in recovered.amount.iter().zip(&cold.amount) {
            prop_assert_eq!(r.to_bits(), c.to_bits());
        }
    }
}
