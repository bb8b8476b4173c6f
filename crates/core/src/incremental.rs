//! Incremental Algorithm 2: a warm-started, allocation-free solve for
//! callers that solve almost the same instance over and over.
//!
//! The cold pipeline ([`crate::algo2::solve`]) recomputes everything from
//! nothing on every call: the super-optimal bisection re-brackets the
//! water level from `[0, ∞)`, and the linearizations, both sorts, the
//! heap and the result vectors are allocated afresh. Online callers
//! (`aa serve`, the epoch controller, churn repair) solve *almost the
//! same instance* over and over; through a [`WarmState`] they pay less:
//!
//! * **Identical problems** — same thread objects (by [`Arc::ptr_eq`]),
//!   same `m` and `C`: the stored answer is returned without a solve.
//! * **Warm bisection** — the water-level bracket from the previous solve
//!   is revalidated with two demand maps, or the probe loop walks
//!   geometrically out from it and closes the new bracket
//!   ([`aa_allocator::bisection`]'s [`WarmCache`]); the iteration count
//!   drops from `O(log mC)` to near-constant under slow drift.
//! * **Arena reuse** — the linearizations (one `linearize_one` per
//!   thread), the two sorts and the fullest-server walk run Algorithm 2's
//!   one placement (`algo2::Placement`) on buffers kept in the state:
//!   once grown to the working size, a steady-state solve performs
//!   **zero heap allocations** (verified by the allocation counting test
//!   in `tests/arena_alloc.rs`).
//!
//! # Identity across requests
//!
//! The identical-problem check and the finite-utility screen's memo are
//! keyed on each thread's [`Arc`], so a caller gets them only by handing
//! back the *same objects* for the threads that did not change. A serving front-end that decodes each
//! request afresh would make every thread new; instead it builds against
//! [`WarmState::previous_threads`], reusing each object whose spec still
//! matches ([`aa_utility::UtilitySpec::build_reusing`]).
//!
//! The same identity memoizes the finite-utility screen of the `try_*`
//! entry points: a screened solve through a state skips thread `i` only
//! if the very object at `i` passed the screen in an earlier screened
//! solve through that state, at the same capacity. An unscreened commit
//! ([`solve_incremental`] called directly), [`WarmState::invalidate`], an
//! expired budget or a caught panic forgets that, and the next screened
//! solve probes every thread.
//!
//! # Bit-identity contract
//!
//! Every mode returns an assignment **bit-identical** to
//! [`crate::algo2::solve`] on the same problem. The warm bisection proves
//! its bracket by re-evaluating the demand sum (never trusting cached
//! per-thread data); everything after it is the cold path's own code —
//! the same linearize kernel, the same two sorts and the same walk — run
//! on kept buffers. The differential proptests in
//! `tests/incremental_properties.rs` pin this for random edit scripts.

use std::sync::Arc;

use aa_allocator::bisection::{WarmCache, WarmStats};
use aa_utility::{DynUtility, Linearized};

use crate::algo2::Placement;
use crate::budget::Budget;
use crate::linearize::linearize_into;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::{check_finite_utilities, SolveError};
use crate::superopt;

/// Which path a [`solve_incremental`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// First solve through the state, or the capacity changed: no
    /// baseline at this `C`. The solve runs as a [`SolveMode::Warm`] one
    /// does; the warm search proves or drops whatever bracket it holds.
    #[default]
    Cold,
    /// The problem is identical to the previous solve (same thread
    /// [`Arc`]s, `m`, `C`): the previous assignment was returned as-is.
    Identical,
    /// A solve from the previous baseline: warm bisection, then the
    /// linearization and placement on the kept buffers.
    Warm,
}

/// Counters from the last [`solve_incremental`] call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncrementalStats {
    /// Path taken.
    pub mode: SolveMode,
    /// The warm bisection's own statistics (demand maps, refinement
    /// iterations, bracket mode). Zeroed on the [`SolveMode::Identical`]
    /// fast path, which never reaches the bisection.
    pub warm: WarmStats,
}

/// Preallocated buffers for the whole pipeline: capped views, bisection
/// scratch, `ĉ`, linearizations, Algorithm 2's placement buffers, and
/// the output columns. Owned by [`WarmState`]; every buffer is reused
/// across solves, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverArena {
    views: Vec<CappedView>,
    cache: WarmCache,
    amounts: Vec<f64>,
    gs: Vec<Linearized>,
    placement: Placement,
    server: Vec<usize>,
    out_amount: Vec<f64>,
}

/// Everything [`solve_incremental`] persists between solves: the arena,
/// plus the previous instance's identity (thread [`Arc`]s, `m`, `C`) —
/// the baseline an identical next problem is recognized by.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    arena: SolverArena,
    prev_threads: Vec<DynUtility>,
    prev_servers: usize,
    prev_capacity: f64,
    has_prev: bool,
    /// Every object in `prev_threads` passed the finite-utility screen
    /// at `prev_capacity`: set by a commit whose solve was screened
    /// (`screen_pending`), cleared by any other commit.
    prev_screened: bool,
    /// The problem being solved passed the screen: raised by
    /// [`screened`] around the solve.
    screen_pending: bool,
    /// The price backend ran after the incremental engine's last commit.
    price_newer: bool,
    stats: IncrementalStats,
    price: crate::price::PriceWarmState,
}

impl WarmState {
    /// Fresh state: the first solve through it is a cold build.
    pub fn new() -> Self {
        WarmState::default()
    }

    /// Counters from the most recent solve through this state.
    pub fn last_stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The price backend's converged-price state, riding in the same
    /// warm container so serve-layer per-stream maps carry it for free.
    pub fn price(&self) -> &crate::price::PriceWarmState {
        &self.price
    }

    /// Mutable access for the price backend's warm solve path. The
    /// price state's rows become the newer baseline for
    /// [`Self::previous_threads`] until the incremental engine commits.
    pub fn price_mut(&mut self) -> &mut crate::price::PriceWarmState {
        self.price_newer = true;
        &mut self.price
    }

    /// Drop everything cached: the next solve is a cold build. Called
    /// automatically when a budgeted solve aborts mid-flight (the arena
    /// may be half-updated). Cascades to the carried price state, and
    /// the next screened solve screens every thread.
    pub fn invalidate(&mut self) {
        self.has_prev = false;
        self.prev_screened = false;
        self.screen_pending = false;
        self.prev_threads.clear();
        self.arena.cache.invalidate();
        self.price.invalidate();
    }

    /// The thread objects the last warm solve through this state was
    /// given, by index: the incremental engine's baseline or the price
    /// backend's table rows, whichever was solved through last. Empty
    /// when the state is cold. A caller building the next problem of
    /// the same stream can reuse each object whose spec is unchanged
    /// ([`aa_utility::UtilitySpec::build_reusing`]), and every cache
    /// keyed on that object's [`Arc`] identity then skips it.
    pub fn previous_threads(&self) -> &[DynUtility] {
        if self.has_prev && !(self.price_newer && self.price.is_warm()) {
            &self.prev_threads
        } else {
            self.price.previous_threads()
        }
    }
}

/// The finite-utility screen ([`check_finite_utilities`]) of `problem`,
/// then `solve`: the input screening of every `try_*` entry point. With
/// a warm state the screen skips each thread whose object passed an
/// earlier screened solve through that state at the same capacity, and
/// if `solve` commits the incremental baseline, that baseline counts as
/// screened. Any other commit (an unscreened [`solve_incremental`]),
/// [`WarmState::invalidate`], an expired budget or a caught panic drops
/// the memo.
pub(crate) fn screened<T>(
    problem: &Problem,
    warm: Option<&mut WarmState>,
    solve: impl FnOnce(Option<&mut WarmState>) -> Result<T, SolveError>,
) -> Result<T, SolveError> {
    let Some(state) = warm else {
        check_finite_utilities(problem, &[])?;
        return solve(None);
    };
    let memo = state.has_prev
        && state.prev_screened
        && state.prev_capacity.to_bits() == problem.capacity().to_bits();
    check_finite_utilities(problem, if memo { &state.prev_threads } else { &[] })?;
    state.screen_pending = true;
    let solved = solve(Some(&mut *state));
    state.screen_pending = false;
    solved
}

/// Registry handles for the per-mode solve counters
/// (`aa_incremental_{cold,identical,warm}_total`), cached so the record
/// path touches only atomics — the arena's zero-allocation contract
/// holds with a live collector.
fn mode_counters() -> &'static [aa_obs::Counter; 3] {
    static HANDLES: std::sync::OnceLock<[aa_obs::Counter; 3]> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        [
            r.counter("aa_incremental_cold_total"),
            r.counter("aa_incremental_identical_total"),
            r.counter("aa_incremental_warm_total"),
        ]
    })
}

fn record_mode(mode: SolveMode) {
    if aa_obs::record_enabled() {
        let idx = match mode {
            SolveMode::Cold => 0,
            SolveMode::Identical => 1,
            SolveMode::Warm => 2,
        };
        mode_counters()[idx].inc();
    }
}

/// The shared solve core. On success the assignment is in
/// `state.arena.server` / `state.arena.out_amount` and the previous
/// instance snapshot has been advanced; on error the caller must
/// invalidate the state (buffers may be half-updated).
fn solve_impl(
    problem: &Problem,
    state: &mut WarmState,
    budget: Option<&Budget>,
) -> Result<(), SolveError> {
    let _span = aa_obs::span!("incremental");
    let n = problem.len();
    let m = problem.servers();
    let cap = problem.capacity();
    if let Some(b) = budget {
        b.check()?;
    }

    // Identical-problem fast path: same thread objects, same machine
    // shape — a deterministic solver would reproduce the stored output.
    if state.has_prev
        && state.prev_servers == m
        && state.prev_capacity.to_bits() == cap.to_bits()
        && state.prev_threads.len() == n
        && problem
            .threads()
            .iter()
            .zip(&state.prev_threads)
            .all(|(a, b)| Arc::ptr_eq(a, b))
    {
        // Same objects at the same capacity: a screen this problem
        // passed covers the baseline too.
        state.prev_screened |= state.screen_pending;
        state.stats = IncrementalStats {
            mode: SolveMode::Identical,
            ..IncrementalStats::default()
        };
        record_mode(SolveMode::Identical);
        return Ok(());
    }

    // Stage 1: super-optimal ĉ through the warm bracket.
    let a = &mut state.arena;
    let warm = superopt::super_optimal_warm_into(
        problem,
        budget,
        &mut a.cache,
        &mut a.views,
        &mut a.amounts,
    )?;

    // Stages 2–4: the cold path's linearization and placement, on the
    // arena's buffers.
    linearize_into(problem, &a.amounts, &mut a.gs);
    if let Some(b) = budget {
        b.check()?;
    }
    a.placement
        .assign(problem, &a.amounts, &a.gs, budget, &mut a.server, &mut a.out_amount)?;

    // Commit: this solve becomes the next solve's baseline. Only the
    // objects that changed are cloned in: an `Arc` clone or drop is an
    // atomic read-modify-write, a pointer comparison is not.
    let cold = !state.has_prev || state.prev_capacity.to_bits() != cap.to_bits();
    let threads = problem.threads();
    state.prev_threads.truncate(n);
    for (prev, t) in state.prev_threads.iter_mut().zip(threads) {
        if !Arc::ptr_eq(prev, t) {
            *prev = Arc::clone(t);
        }
    }
    let kept = state.prev_threads.len();
    state.prev_threads.extend_from_slice(&threads[kept..]);
    state.prev_servers = m;
    state.prev_capacity = cap;
    state.has_prev = true;
    state.prev_screened = state.screen_pending;
    state.price_newer = false;
    state.stats = IncrementalStats {
        mode: if cold { SolveMode::Cold } else { SolveMode::Warm },
        warm,
    };
    record_mode(state.stats.mode);
    Ok(())
}

/// Incremental Algorithm 2: **bit-identical** to [`crate::algo2::solve`]
/// on every call, but successive solves through the same [`WarmState`]
/// start from the previous one. See the module docs for the mechanism.
pub fn solve_incremental(problem: &Problem, state: &mut WarmState) -> Assignment {
    match solve_impl(problem, state, None) {
        Ok(()) => Assignment {
            server: state.arena.server.clone(),
            amount: state.arena.out_amount.clone(),
        },
        Err(_) => unreachable!("unbudgeted incremental solve cannot fail"),
    }
}

/// [`solve_incremental`] writing into a caller-owned [`Assignment`]
/// (cleared and refilled): together with the arena this makes the
/// steady-state hot path completely allocation-free once all buffers
/// have grown to the working size.
pub fn solve_incremental_into(problem: &Problem, state: &mut WarmState, out: &mut Assignment) {
    match solve_impl(problem, state, None) {
        Ok(()) => {
            out.server.clear();
            out.server.extend_from_slice(&state.arena.server);
            out.amount.clear();
            out.amount.extend_from_slice(&state.arena.out_amount);
        }
        Err(_) => unreachable!("unbudgeted incremental solve cannot fail"),
    }
}

/// [`solve_incremental`] under a solve [`Budget`], checked before the
/// solve, at bisection-iteration granularity, after linearization, and
/// per placement. While the budget holds the result is bit-identical to
/// the unbudgeted solve; on expiry or cancellation the state is
/// invalidated (buffers may be half-updated) and the next solve through
/// it is a cold build.
pub fn solve_incremental_budgeted(
    problem: &Problem,
    state: &mut WarmState,
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    match solve_impl(problem, state, Some(budget)) {
        Ok(()) => Ok(Assignment {
            server: state.arena.server.clone(),
            amount: state.arena.out_amount.clone(),
        }),
        Err(e) => {
            state.invalidate();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power};

    use crate::algo2;

    fn pool(n: usize, shift: f64) -> Vec<DynUtility> {
        (0..n)
            .map(|i| {
                let s = 0.5 + (i % 13) as f64 * 0.4 + shift;
                match i % 3 {
                    0 => Arc::new(Power::new(s, 0.55, 80.0)) as DynUtility,
                    1 => Arc::new(LogUtility::new(s, 0.3, 80.0)) as DynUtility,
                    _ => Arc::new(CappedLinear::new(s, 30.0 + (i % 5) as f64, 80.0)) as DynUtility,
                }
            })
            .collect()
    }

    fn problem(threads: Vec<DynUtility>, m: usize, cap: f64) -> Problem {
        Problem::new(m, cap, threads).unwrap()
    }

    #[test]
    fn first_solve_is_cold_and_bit_identical() {
        let p = problem(pool(40, 0.0), 4, 100.0);
        let mut st = WarmState::new();
        let inc = solve_incremental(&p, &mut st);
        assert_eq!(inc, algo2::solve(&p));
        assert_eq!(st.last_stats().mode, SolveMode::Cold);
    }

    #[test]
    fn repeat_solve_takes_the_identical_fast_path() {
        let p = problem(pool(24, 0.0), 3, 60.0);
        let mut st = WarmState::new();
        let first = solve_incremental(&p, &mut st);
        let second = solve_incremental(&p, &mut st);
        assert_eq!(first, second);
        assert_eq!(st.last_stats().mode, SolveMode::Identical);
        assert_eq!(st.last_stats().warm.demand_maps, 0);
    }

    #[test]
    fn drifting_instance_stays_bit_identical_with_small_dirty_sets() {
        // Mutate 3 of 60 threads per epoch: every solve after the first
        // starts from the previous baseline.
        let mut threads = pool(60, 0.0);
        let mut st = WarmState::new();
        for epoch in 0..12 {
            for k in 0..3 {
                let slot = (epoch * 7 + k * 19) % threads.len();
                let s = 0.4 + (epoch + k) as f64 * 0.13;
                threads[slot] = Arc::new(Power::new(s, 0.6, 80.0));
            }
            let p = problem(threads.clone(), 6, 90.0);
            let inc = solve_incremental(&p, &mut st);
            assert_eq!(inc, algo2::solve(&p), "epoch {epoch}");
            if epoch > 0 {
                let stats = st.last_stats();
                assert_eq!(stats.mode, SolveMode::Warm, "epoch {epoch}");
            }
        }
    }

    #[test]
    fn thread_count_and_server_count_changes_stay_identical() {
        let mut st = WarmState::new();
        let base = pool(48, 0.0);
        for (n, m) in [(48, 4), (44, 4), (51, 4), (51, 7), (20, 2)] {
            let mut threads = base.clone();
            threads.truncate(n.min(threads.len()));
            while threads.len() < n {
                let extra = threads.len();
                threads.push(Arc::new(Power::new(0.3 + extra as f64 * 0.01, 0.5, 80.0)));
            }
            let p = problem(threads, m, 90.0);
            assert_eq!(solve_incremental(&p, &mut st), algo2::solve(&p), "n={n} m={m}");
        }
    }

    #[test]
    fn capacity_change_forces_a_cold_build_and_stays_identical() {
        let mut st = WarmState::new();
        let threads = pool(32, 0.0);
        let p1 = problem(threads.clone(), 4, 90.0);
        solve_incremental(&p1, &mut st);
        let p2 = problem(threads, 4, 55.0);
        let inc = solve_incremental(&p2, &mut st);
        assert_eq!(inc, algo2::solve(&p2));
        assert_eq!(st.last_stats().mode, SolveMode::Cold);
    }

    #[test]
    fn budgeted_expiry_invalidates_and_recovers() {
        let p = problem(pool(36, 0.0), 4, 80.0);
        let mut st = WarmState::new();
        assert_eq!(
            solve_incremental_budgeted(&p, &mut st, &Budget::with_fuel(1)),
            Err(SolveError::DeadlineExceeded)
        );
        // Recovery: cold build, still bit-identical.
        let inc = solve_incremental_budgeted(&p, &mut st, &Budget::unlimited()).unwrap();
        assert_eq!(inc, algo2::solve(&p));
        assert_eq!(st.last_stats().mode, SolveMode::Cold);
    }

    #[test]
    fn budgeted_roomy_matches_unbudgeted_bitwise() {
        let p = problem(pool(28, 0.0), 3, 75.0);
        let mut warm_a = WarmState::new();
        let mut warm_b = WarmState::new();
        let plain = solve_incremental(&p, &mut warm_a);
        let roomy = solve_incremental_budgeted(&p, &mut warm_b, &Budget::unlimited()).unwrap();
        assert_eq!(plain, roomy);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffers() {
        let mut st = WarmState::new();
        let mut out = Assignment { server: Vec::new(), amount: Vec::new() };
        for shift in [0.0, 0.01, 0.02] {
            let p = problem(pool(26, shift), 3, 70.0);
            solve_incremental_into(&p, &mut st, &mut out);
            assert_eq!(out, algo2::solve(&p), "shift {shift}");
        }
    }

    #[test]
    fn invalidate_forces_cold_rebuild() {
        let p = problem(pool(20, 0.0), 2, 50.0);
        let mut st = WarmState::new();
        solve_incremental(&p, &mut st);
        st.invalidate();
        let inc = solve_incremental(&p, &mut st);
        assert_eq!(inc, algo2::solve(&p));
        assert_eq!(st.last_stats().mode, SolveMode::Cold);
    }
}
