//! Incremental Algorithm 2: warm-started, delta-re-linearized, and
//! allocation-free on the steady-state path.
//!
//! The cold pipeline ([`crate::algo2::solve`]) recomputes everything from
//! nothing on every call: the super-optimal bisection re-brackets the
//! water level from `[0, ∞)`, every thread is re-linearized, both sorts
//! rebuild their permutations, and a fresh heap plus four result vectors
//! are heap-allocated. Online callers (`aa serve`, the epoch controller,
//! churn repair) solve *almost the same instance* over and over; this
//! module makes successive solves pay only for what changed:
//!
//! * **Warm bisection** — the water-level bracket from the previous solve
//!   is revalidated with two demand maps and re-refined from the previous
//!   level ± a delta-derived margin ([`aa_allocator::bisection`]'s
//!   [`WarmCache`]); the iteration count drops from `O(log mC)` to
//!   near-constant under slow drift.
//! * **Delta linearization** — thread `i` is re-linearized only when its
//!   utility object changed (by [`Arc::ptr_eq`] identity), its `ĉ_i`
//!   moved (bitwise), or the global capacity `C` changed; an unchanged
//!   thread reuses `g_i`, its sort key and its density verbatim.
//! * **Sort repair** — the key-sorted permutation is *repaired*, not
//!   rebuilt: clean indices are retained in place (they are still
//!   sorted), dirty indices are sorted separately and merged back in
//!   `O(n + k log k)`. The density re-sort of the tail `[m..]` is
//!   comparison-only and allocation-free.
//! * **Arena reuse** — every buffer ([`SolverArena`]) persists across
//!   solves: once grown to the working size, a steady-state solve
//!   performs **zero heap allocations** (verified by the allocation
//!   counting test in `tests/arena_alloc.rs`).
//!
//! # Identity across requests
//!
//! Every per-thread cache is keyed on the thread's [`Arc`], so a
//! caller gets the delta path only by handing back the *same objects*
//! for the threads that did not change. A serving front-end that
//! decodes each request afresh would make every thread new; instead it
//! builds against [`WarmState::previous_threads`], reusing each object
//! whose spec still matches ([`aa_utility::UtilitySpec::build_reusing`]).
//!
//! The same identity memoizes the finite-utility screen of the `try_*`
//! entry points: a screened solve through a state skips thread `i` only
//! if the very object at `i` passed the screen in an earlier screened
//! solve through that state, at the same capacity. An unscreened commit
//! ([`solve_incremental`] called directly), [`WarmState::invalidate`], an
//! expired budget or a caught panic forgets that, and the next screened
//! solve probes every thread.
//!
//! # Crossover heuristic (when to fall back cold)
//!
//! The repair path wins only while the dirty set is small. The crossover
//! rule, measured on the drift benchmark (`aa bench --mode incremental`):
//!
//! * no previous solve, or the capacity `C` changed → **cold build**
//!   (every per-thread quantity is stale);
//! * more than half the threads dirty → **full re-sort** (one
//!   `O(n log n)` comparison sort beats retain + sort + merge once the
//!   merged run no longer dominates); the warm bisection bracket is kept
//!   — it is instance-keyed only through the demand maps and survives
//!   arbitrary thread churn;
//! * otherwise → **merge repair**.
//!
//! # Bit-identity contract
//!
//! Every mode returns an assignment **bit-identical** to
//! [`crate::algo2::solve`] on the same problem. The warm bisection proves
//! its bracket by re-evaluating the demand sum (never trusting cached
//! per-thread data), the delta linearizer reuses `g_i` only when its
//! inputs are identical, and the repaired permutations are equal — not
//! just equivalent — to the cold sorts because both orders are the same
//! strict total order (key descending, index ascending; the tail by
//! density, then key, then index). The differential proptests in
//! `tests/incremental_properties.rs` pin this for random edit scripts.

use std::cmp::Ordering;
use std::sync::Arc;

use aa_allocator::bisection::{WarmCache, WarmStats};
use aa_utility::{DynUtility, Linearized, Utility};

use crate::budget::Budget;
use crate::linearize::linearize_one;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::{check_finite_utilities, SolveError};
use crate::superopt;

/// Which path a [`solve_incremental`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Full cold build through the arena (first solve, or the capacity
    /// changed): every thread linearized, both sorts rebuilt.
    #[default]
    Cold,
    /// The problem is identical to the previous solve (same thread
    /// [`Arc`]s, `m`, `C`): the previous assignment was returned as-is.
    Identical,
    /// The delta path ran: warm bisection, delta linearization, and sort
    /// repair (or a full re-sort if the crossover fired — see
    /// [`IncrementalStats::sort_rebuilt`]).
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
    /// Threads whose `g_i` was recomputed this solve.
    pub relinearized: usize,
    /// Threads whose sort key or density actually changed (the dirty
    /// set driving the sort repair).
    pub dirty: usize,
    /// The crossover heuristic chose a full re-sort over merge repair.
    pub sort_rebuilt: bool,
}

/// Preallocated SoA buffers for the whole pipeline: capped views,
/// bisection scratch, `ĉ`, linearizations, sort keys/densities, the
/// persisted permutation plus merge scratch, heap storage, and the
/// output columns. Owned by [`WarmState`]; every buffer is reused across
/// solves, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SolverArena {
    views: Vec<CappedView>,
    cache: WarmCache,
    amounts: Vec<f64>,
    gs: Vec<Linearized>,
    keys: Vec<f64>,
    dens: Vec<f64>,
    dirty: Vec<bool>,
    key_order: Vec<usize>,
    order: Vec<usize>,
    scratch: Vec<usize>,
    merged: Vec<usize>,
    heap: Vec<(f64, usize)>,
    server: Vec<usize>,
    out_amount: Vec<f64>,
}

/// Everything [`solve_incremental`] persists between solves: the arena,
/// plus the previous instance's identity (thread [`Arc`]s, `m`, `C`) and
/// its super-optimal amounts — the baseline the next solve's deltas are
/// measured against.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    arena: SolverArena,
    prev_threads: Vec<DynUtility>,
    prev_amounts: Vec<f64>,
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

/// Sort-key order: `g(ĉ)` descending, index ascending. This strict total
/// order equals the cold path's *stable* sort by key alone, which is
/// what lets `sort_unstable_by` (allocation-free) and the merge repair
/// reproduce it exactly.
fn cmp_key(keys: &[f64], x: usize, y: usize) -> Ordering {
    keys[y].total_cmp(&keys[x]).then_with(|| x.cmp(&y))
}

/// Tail order: density descending, then the key order. Equals the cold
/// path's stable density re-sort of an already key-sorted slice.
fn cmp_tail(keys: &[f64], dens: &[f64], x: usize, y: usize) -> Ordering {
    dens[y].total_cmp(&dens[x]).then_with(|| cmp_key(keys, x, y))
}

/// Merge two lists sorted by [`cmp_key`] into `out` (cleared first).
fn merge_by_key(a: &[usize], b: &[usize], keys: &[f64], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp_key(keys, a[i], b[j]) == Ordering::Greater {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// `(remaining, server)` max-heap order, identical to the cold path's
/// `BinaryHeap<(OrdF64, Reverse<usize>)>`: larger remaining wins,
/// capacity ties prefer the lower server index. Strict total order, so
/// every pop is the unique maximum and the pop sequence matches the
/// standard-library heap's.
fn heap_greater(x: (f64, usize), y: (f64, usize)) -> bool {
    match x.0.total_cmp(&y.0) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => x.1 < y.1,
    }
}

fn heap_push(h: &mut Vec<(f64, usize)>, item: (f64, usize)) {
    h.push(item);
    let mut i = h.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if heap_greater(h[i], h[p]) {
            h.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

fn heap_pop(h: &mut Vec<(f64, usize)>) -> Option<(f64, usize)> {
    if h.is_empty() {
        return None;
    }
    let last = h.len() - 1;
    h.swap(0, last);
    let top = h.pop();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= h.len() {
            break;
        }
        let r = l + 1;
        let c = if r < h.len() && heap_greater(h[r], h[l]) { r } else { l };
        if heap_greater(h[c], h[i]) {
            h.swap(i, c);
            i = c;
        } else {
            break;
        }
    }
    top
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
    let warm = match budget {
        None => superopt::super_optimal_warm_into(problem, &mut a.cache, &mut a.views, &mut a.amounts),
        Some(b) => superopt::super_optimal_warm_budgeted_into(
            problem,
            b,
            &mut a.cache,
            &mut a.views,
            &mut a.amounts,
        )?,
    };

    // Stage 2: delta linearization. `structural` means every per-thread
    // quantity is stale (no baseline, or the capacity changed — C is an
    // input to every g_i and every capped view).
    let lin_span = aa_obs::span!("linearize_delta");
    let structural = !state.has_prev || state.prev_capacity.to_bits() != cap.to_bits();
    let prev_n = state.prev_threads.len();
    a.gs.resize(n, Linearized::new(0.0, 0.0, cap, 0.0));
    a.keys.resize(n, 0.0);
    a.dens.resize(n, 0.0);
    a.dirty.resize(n, false);

    let mut relinearized = 0usize;
    let mut dirty_count = 0usize;
    for i in 0..n {
        let clean = !structural
            && i < prev_n
            && Arc::ptr_eq(&problem.threads()[i], &state.prev_threads[i])
            && a.amounts[i].to_bits() == state.prev_amounts[i].to_bits();
        if clean {
            // Same f, same ĉ bits, same C ⇒ linearize_one would return
            // the identical g; keys/dens are already current.
            a.dirty[i] = false;
            continue;
        }
        let g = linearize_one(problem, i, a.amounts[i]);
        let key = g.value(g.c_hat());
        let den = g.density();
        relinearized += 1;
        let changed = structural
            || i >= prev_n
            || key.to_bits() != a.keys[i].to_bits()
            || den.to_bits() != a.dens[i].to_bits();
        a.gs[i] = g;
        a.keys[i] = key;
        a.dens[i] = den;
        a.dirty[i] = changed;
        if changed {
            dirty_count += 1;
        }
    }
    drop(lin_span);
    if let Some(b) = budget {
        b.check()?;
    }

    // Stage 3: repair (or rebuild) the key-sorted permutation, then the
    // density re-sort of the tail. See the module docs for the crossover
    // rule.
    let sort_span = aa_obs::span!("sort_repair");
    let SolverArena {
        keys,
        dens,
        dirty,
        key_order,
        order,
        scratch,
        merged,
        ..
    } = &mut *a;
    let rebuild = structural || dirty_count * 2 > n;
    if rebuild {
        key_order.clear();
        key_order.extend(0..n);
        key_order.sort_unstable_by(|&x, &y| cmp_key(keys, x, y));
    } else if dirty_count > 0 || prev_n != n {
        // Clean indices stay sorted (their keys are unchanged); dirty
        // ones are sorted on the side and merged back in.
        key_order.retain(|&i| i < n && !dirty[i]);
        scratch.clear();
        scratch.extend((0..n).filter(|&i| dirty[i]));
        scratch.sort_unstable_by(|&x, &y| cmp_key(keys, x, y));
        merge_by_key(key_order, scratch, keys, merged);
        std::mem::swap(key_order, merged);
    }
    order.clear();
    order.extend_from_slice(key_order);
    if n > m {
        order[m..].sort_unstable_by(|&x, &y| cmp_tail(keys, dens, x, y));
    }
    drop(sort_span);

    // Stage 4: heap placement. All servers start at C — equal keys form
    // a valid max-heap with no sifting — and the arena's heap buffer is
    // reset in place instead of collecting a fresh BinaryHeap.
    a.heap.clear();
    a.heap.extend((0..m).map(|j| (cap, j)));
    a.server.clear();
    a.server.resize(n, 0);
    a.out_amount.clear();
    a.out_amount.resize(n, 0.0);
    for &i in &a.order {
        if let Some(b) = budget {
            b.check()?;
        }
        let Some((cj, j)) = heap_pop(&mut a.heap) else { break };
        let c = a.amounts[i].min(cj);
        a.server[i] = j;
        a.out_amount[i] = c;
        heap_push(&mut a.heap, (cj - c, j));
    }

    // Commit: this solve becomes the next solve's baseline.
    state.prev_threads.clear();
    state.prev_threads.extend(problem.threads().iter().cloned());
    std::mem::swap(&mut state.prev_amounts, &mut a.amounts);
    state.prev_servers = m;
    state.prev_capacity = cap;
    state.has_prev = true;
    state.prev_screened = state.screen_pending;
    state.price_newer = false;
    state.stats = IncrementalStats {
        mode: if structural { SolveMode::Cold } else { SolveMode::Warm },
        warm,
        relinearized,
        dirty: dirty_count,
        sort_rebuilt: rebuild,
    };
    record_mode(state.stats.mode);
    Ok(())
}

/// Incremental Algorithm 2: **bit-identical** to [`crate::algo2::solve`]
/// on every call, but successive solves through the same [`WarmState`]
/// pay only for what changed since the previous one. See the module docs
/// for the mechanism and the crossover heuristic.
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
/// per heap pop. While the budget holds the result is bit-identical to
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
        assert!(st.last_stats().sort_rebuilt);
        assert_eq!(st.last_stats().relinearized, 40);
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
        // Mutate 3 of 60 threads per epoch: the delta path should
        // re-linearize only the replacements (plus any ĉ knock-on) and
        // repair, not rebuild, the order.
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
    fn crossover_rebuilds_when_most_threads_change() {
        let mut st = WarmState::new();
        let p1 = problem(pool(30, 0.0), 3, 70.0);
        solve_incremental(&p1, &mut st);
        // Replace every thread: dirty fraction 1 > 1/2 → full re-sort.
        let p2 = problem(pool(30, 0.5), 3, 70.0);
        let inc = solve_incremental(&p2, &mut st);
        assert_eq!(inc, algo2::solve(&p2));
        assert_eq!(st.last_stats().mode, SolveMode::Warm);
        assert!(st.last_stats().sort_rebuilt);
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
