//! Price-discovery solver backend (Agrawal–Boyd style tâtonnement).
//!
//! Algo2's λ-search re-walks the full superopt → linearize → assign
//! pipeline every solve; it tops out around the paper's 16×8192
//! matrix. This module trades the exact search for **price discovery**:
//! set a price, let every thread respond with its demand-at-price, and
//! move the price toward market clearing. Each probe is one
//! cache-friendly, pool-parallel sweep over all `n` threads through the
//! batched SoA demand kernel ([`aa_utility::demand::DemandTable`]) — the
//! parallelism lands on the *probe*, not the outer loop, which is what
//! opens the `n = 10⁶` regime.
//!
//! # Protocol (three phases)
//!
//! 1. **Global discovery** — clear the pooled market (supply `m·C`,
//!    demand `D(λ) = Σ xᵢ(λ)` over capped views) with the allocator's
//!    λ-search ([`aa_allocator::bisection::search`], the same probe loop
//!    Algo2's warm path runs) under the relative stop rule: walk from a
//!    start price to a bracket, close it by Illinois false position, and
//!    accept the first probe with `|D(λ) − mC| ≤ tol·mC`.
//! 2. **Placement** — threads are placed on the server with the most
//!    remaining capacity (deterministic argmax), clipping `cᵢ` to what
//!    remains; feasibility is exact by construction.
//! 3. **Per-server refinement** — each server independently re-clears
//!    its own market over its residents (supply `C`, same search,
//!    started from the global price, whose resident demands phase 1
//!    already swept), then spreads any leftover. The
//!    refined allocation is kept only when it does not lose utility
//!    versus the clipped placement, so phase 3 can only help. Servers
//!    refine in parallel.
//!
//! The global market carries the bracket its search ended on
//! ([`Bracket`]: the accepted price as a point, or the pair around a
//! demand jump it could not resolve) and the demands there in a
//! [`PriceWarmState`], so a drifted re-solve starts where the last
//! solve converged, with its first probe already swept.
//!
//! # Determinism
//!
//! Demand sweeps write `out[i]` by index (disjoint chunks of one
//! buffer) and total demand is summed *sequentially* over the filled
//! buffer, so results are bit-identical at any pool width — same
//! contract as the vendored pool's `collect`.
//!
//! # Tolerance
//!
//! The convergence tolerance is [`TOL`] = `1e-3`, applied
//! **two-sided**: a price is accepted when demand is within `tol·supply`
//! of supply on *either* side. Undershoot leaves at most `tol·mC` of the
//! pooled supply unsold (recovered by leftover spreading); overshoot is
//! clipped by placement and proportionally rescaled during per-server
//! refinement, so feasibility is always exact. The resulting total
//! utility lands within a few percent of Algo2's on the paper
//! distributions (the differential suite pins 5% relative); the gap
//! versus the superopt *bound* is recorded per-instance by
//! `aa bench --mode scale`.

use rayon::prelude::*;

use std::sync::Arc;

use aa_allocator::bisection::{
    search, sweep, Bracket, Demands, Fan, Landing, Market, Stop, WARM_MIN_PRICE,
};
use aa_utility::demand::DemandTable;
use aa_utility::{DynUtility, Utility};

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::SolveError;

pub use aa_allocator::tuning::par_threshold;

/// Relative clearing tolerance: a market clears at price λ once
/// `|D(λ) − supply| ≤ TOL·supply` (two-sided; overshoot is clipped at
/// placement and rescaled during refinement).
pub const TOL: f64 = 1e-3;

/// Observability snapshot of one price-discovery solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PriceStats {
    /// Global price probes (phase 1 demand sweeps).
    pub iterations: u64,
    /// Per-server refinement probes summed over servers (phase 3).
    pub refine_iterations: u64,
    /// Total demand sweeps (global full-width sweeps plus per-server
    /// resident sweeps).
    pub sweeps: u64,
    /// Whether the global market cleared within tolerance.
    pub converged: bool,
    /// Whether the solve started from a carried [`PriceWarmState`].
    pub warm: bool,
}

/// The bracket and demand table carried between solves: the warm state
/// of the price backend. Embedded in [`crate::incremental::WarmState`] so the serve
/// layer's per-stream warm maps carry prices with no extra plumbing.
#[derive(Debug, Clone, Default)]
pub struct PriceWarmState {
    valid: bool,
    /// Where the global market's last search ended.
    global: Bracket,
    /// Each thread's demand at `global.hi`, the last solve's price:
    /// patched with the table, it makes the next warm search's first
    /// probe cost no sweep.
    demand: Vec<f64>,
    prev_servers: usize,
    prev_capacity: f64,
    /// Compiled demand table carried between solves, so a drifted
    /// re-solve recompiles only the rows whose utility changed instead
    /// of the whole instance (the single largest fixed cost at scale).
    table: DemandTable,
    /// The utility object behind each cached table row. Holding the
    /// `Arc`s keeps those allocations alive, which is what makes the
    /// pointer-identity row check sound: a live address cannot be
    /// reused by a new utility. Costs one `Arc` (16 bytes + a refcount)
    /// per thread while the state is warm.
    cached: Vec<DynUtility>,
    stats: PriceStats,
}

impl PriceWarmState {
    /// Fresh, invalid state: the next solve runs cold.
    pub fn new() -> Self {
        PriceWarmState::default()
    }

    /// Drop the carried prices; the next solve runs cold.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.table = DemandTable::new();
        self.cached.clear();
        self.demand.clear();
    }

    /// Whether the state currently carries usable prices.
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Stats of the most recent solve through this state.
    pub fn last_stats(&self) -> PriceStats {
        self.stats
    }

    /// The carried global clearing price, if warm.
    pub fn lambda(&self) -> Option<f64> {
        self.valid.then_some(self.global.hi)
    }

    /// The utility object behind each carried table row; empty when
    /// cold.
    pub(crate) fn previous_threads(&self) -> &[DynUtility] {
        if self.valid {
            &self.cached
        } else {
            &[]
        }
    }

    fn usable_for(&self, problem: &Problem) -> bool {
        self.valid
            && self.prev_servers == problem.servers()
            && self.prev_capacity == problem.capacity()
    }
}

/// Registry handles for the price counters, cached so the hot loop
/// touches only atomics (same idiom as the incremental mode counters).
fn price_counters() -> &'static [aa_obs::Counter; 2] {
    static HANDLES: std::sync::OnceLock<[aa_obs::Counter; 2]> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        [
            r.counter("aa_price_iterations_total"),
            r.counter("aa_price_sweeps_total"),
        ]
    })
}

fn record_stats(stats: &PriceStats) {
    if aa_obs::record_enabled() {
        let c = price_counters();
        c[0].add(stats.iterations + stats.refine_iterations);
        c[1].add(stats.sweeps);
    }
}

/// Clear one market from `start` under the relative stop rule, checking
/// `budget` before each sweep. `swept = Some(s)` says `bufs[1]` already
/// holds the demand at `start.hi`, summing to `s`. A market whose caps
/// fit its supply clears at λ = 0 in one sweep. On return `bufs[1]`
/// holds the demand at the landing price; the second value is the sweep
/// count.
fn clear<U: Utility>(
    m: &Market<'_, U>,
    start: Bracket,
    swept: Option<f64>,
    bufs: &mut [Vec<f64>; 3],
    budget: Option<&Budget>,
) -> Result<(Landing, u64), SolveError> {
    let [lo, hi, probe] = bufs;
    if m.total_cap <= m.supply {
        let demand = sweep(m, 0.0, hi).expect("untokened sweeps complete");
        let landing = Landing {
            bracket: Bracket::at(0.0),
            price: 0.0,
            demand,
            converged: true,
            iterations: 0,
        };
        return Ok((landing, 1));
    }
    // Searches start at a trusted price: the carried bracket, else its
    // high edge, else 1. An edge under `WARM_MIN_PRICE` is ignored: a
    // walk up from a subnormal price doubles its step from ~5e-324 and
    // spends every probe below ~1e-304.
    let (start, swept) = if start.lo >= WARM_MIN_PRICE {
        (start, swept)
    } else if start.hi >= WARM_MIN_PRICE {
        (Bracket::at(start.hi), swept)
    } else {
        (Bracket::at(1.0), None)
    };
    let mut probes = 0_u32;
    let mut d = Demands { lo, hi, probe };
    let landing = search(m, start, swept, Stop::Relative(TOL), &mut d, &mut probes, &mut || {
        budget.map_or(Ok(()), Budget::check)
    })?
    .expect("a relative search always lands");
    Ok((landing, u64::from(probes)))
}

/// Deterministic max-remaining placement: thread `i` (in `order`) goes
/// to the server with the most remaining capacity (ties to the lowest
/// server index), clipped to fit. A hand-rolled binary max-heap on
/// `(remaining, index)` makes each pick O(log m) instead of O(m) — the
/// sequential scan dominated placement once `n·m` reached 10⁵·16.
fn place(
    problem: &Problem,
    amounts: &[f64],
    order: &[usize],
) -> (Vec<usize>, Vec<f64>) {
    let _span = aa_obs::span!("price_place");
    let m = problem.servers();
    let mut server = vec![0usize; problem.len()];
    let mut out = vec![0.0f64; problem.len()];
    // Heap of (remaining, server) ordered by remaining desc, then
    // server asc — the root is always the argmax the linear scan found.
    let ahead = |a: (f64, usize), b: (f64, usize)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
    let mut heap: Vec<(f64, usize)> =
        (0..m).map(|j| (problem.capacity(), j)).collect();
    // All entries start equal, so the identity layout is already a
    // valid heap (parent ties child ⇒ parent index < child index).
    for &i in order {
        let (rem, best) = heap[0];
        let c = amounts[i].min(rem).max(0.0);
        server[i] = best;
        out[i] = c;
        // Sift the shrunken root back down.
        let mut k = 0usize;
        heap[0].0 = rem - c;
        loop {
            let l = 2 * k + 1;
            if l >= m {
                break;
            }
            let r = l + 1;
            let child = if r < m && ahead(heap[r], heap[l]) { r } else { l };
            if ahead(heap[child], heap[k]) {
                heap.swap(child, k);
                k = child;
            } else {
                break;
            }
        }
    }
    (server, out)
}

/// Per-server refinement: re-clear one server's market `m` (its
/// residents, supply `C`) from the global price — whose resident demands
/// `global_demand` already holds, so the first probe costs no sweep —
/// spread leftovers, and keep the refined allocation only if it does not
/// lose utility against the clipped placement. Returns the refined
/// per-resident amounts and the market's sweep count.
fn refine_server(
    m: &Market<'_, CappedView>,
    residents: &[usize],
    clipped: &[f64],
    global_lambda: f64,
    global_demand: &[f64],
    budget: Option<&Budget>,
) -> Result<(Vec<f64>, u64), SolveError> {
    let capacity = m.supply;
    let mut bufs: [Vec<f64>; 3] = Default::default();
    bufs[1] = residents.iter().map(|&i| global_demand[i]).collect();
    let swept = bufs[1].iter().sum();
    let start = Bracket::at(global_lambda);
    let (landing, sweeps) = clear(m, start, Some(swept), &mut bufs, budget)?;
    let [_, mut refined, _] = bufs;
    let mut used = landing.demand;
    let mut rescaled = false;
    if used > capacity {
        // The two-sided accept lets demand overshoot supply by up to
        // tol·C; scale proportionally back onto the budget. The
        // better-of comparison below still protects quality.
        let f = capacity / used;
        for v in &mut refined {
            *v *= f;
        }
        used = capacity;
        rescaled = true;
    }
    // Spread leftover supply to residents below their cap, in index
    // order — utilities are non-decreasing on [0, cap], so this never
    // hurts.
    let mut leftover = capacity - used;
    for (k, &i) in residents.iter().enumerate() {
        if leftover <= 0.0 {
            break;
        }
        let room = (m.utils[i].cap() - refined[k]).max(0.0);
        let give = room.min(leftover);
        refined[k] += give;
        leftover -= give;
    }
    used = refined.iter().sum();
    debug_assert!(used <= capacity * (1.0 + 1e-9));
    // When the server cleared at or below the global price with no
    // overshoot rescale, `refined` dominates `clipped` pointwise:
    // demand is non-increasing in λ, placement clipping only reduces,
    // and leftover spreading only adds — with `value` nondecreasing
    // (trait contract) the refined allocation provably scores at least
    // as high, so the two value sweeps below are skipped.
    if rescaled || landing.price > global_lambda {
        // Keep whichever allocation scores higher on this server, so
        // refinement can only help.
        let score = |amounts: &[f64]| -> f64 {
            residents.iter().zip(amounts).map(|(&i, &c)| m.utils[i].value(c)).sum()
        };
        if score(&refined) < score(clipped) {
            refined = clipped.to_vec();
        }
    }
    Ok((refined, sweeps))
}

/// Full price-discovery solve with an optional budget and optional warm
/// state. Returns the assignment and the solve's [`PriceStats`].
pub fn solve_with(
    problem: &Problem,
    budget: Option<&Budget>,
    warm: Option<&mut PriceWarmState>,
) -> Result<(Assignment, PriceStats), SolveError> {
    let _span = aa_obs::span!("price");
    let n = problem.len();
    let m = problem.servers();
    let capacity = problem.capacity();
    let supply = m as f64 * capacity;

    let utils = problem.capped_threads();
    let threads = problem.threads();
    let mut stats = PriceStats::default();
    let mut warm = warm;
    let warm_usable = warm.as_ref().is_some_and(|w| w.usable_for(problem));
    stats.warm = warm_usable;

    // Table acquisition: a warm state carries the previous solve's
    // compiled table plus the `Arc` behind each row, so only rows whose
    // utility object changed are recompiled — at 1% drift that turns
    // the largest O(n) fixed cost into an O(n) pointer scan. The demands
    // at the carried price are patched on the same rows.
    let mut bufs: [Vec<f64>; 3] = Default::default();
    let mut cache_used = false;
    let table = match warm.as_deref_mut().filter(|w| {
        warm_usable && w.cached.len() == n && w.table.len() == n && w.demand.len() == n
    }) {
        Some(w) => {
            cache_used = true;
            let mut t = std::mem::take(&mut w.table);
            bufs[1] = std::mem::take(&mut w.demand);
            let mut patched = false;
            for i in 0..n {
                if !Arc::ptr_eq(&w.cached[i], &threads[i]) {
                    t.patch(i, &utils[i]);
                    bufs[1][i] = t.eval(&utils, i, w.global.hi);
                    w.cached[i] = threads[i].clone();
                    patched = true;
                }
            }
            if patched {
                // Each patch orphans its row's old pool region; repack
                // before the orphans outgrow the live rows.
                if t.fragmented() {
                    t.compile(&utils);
                } else {
                    t.refresh_global();
                }
            }
            t
        }
        None => {
            let mut t = DemandTable::new();
            t.compile(&utils);
            t
        }
    };
    let start = match warm.as_deref() {
        Some(w) if warm_usable => w.global,
        _ => Bracket::at(1.0),
    };

    // Phase 1: global price discovery — one parallel sweep per probe,
    // total summed sequentially for determinism. `bufs[1]` ends up
    // holding the demand at the accepted price.
    let market = Market {
        table: &table,
        utils: &utils,
        rows: None,
        fan: Fan::Pool(None),
        supply,
        total_cap: utils.iter().map(|u| u.cap()).sum(),
    };
    let swept = cache_used.then(|| bufs[1].iter().sum());
    let (global, sweeps) = {
        let _d = aa_obs::span!("price_discovery");
        clear(&market, start, swept, &mut bufs, budget)?
    };
    let lambda = global.price;
    stats.iterations = sweeps;
    stats.converged = global.converged;
    let buf = &bufs[1];

    // Phase 2: placement. Sorting by demand improves first-fit quality
    // but costs O(n log n); past the parallel crossover the per-server
    // refinement recovers the quality instead.
    let order: Vec<usize> = if n <= par_threshold() {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            buf[b].partial_cmp(&buf[a]).unwrap().then(a.cmp(&b))
        });
        idx
    } else {
        (0..n).collect()
    };
    let (server, clipped) = place(problem, buf, &order);

    // Phase 3: per-server refinement, parallel over servers. A server's
    // market starts from the global price rather than from where its own
    // last search ended: placement reshuffles the residents between
    // solves, so that price is stale.
    let groups = {
        let mut g: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &j) in server.iter().enumerate() {
            g[j].push(i);
        }
        g
    };
    let refine_span = aa_obs::span!("price_refine");
    let refined: Vec<Result<(Vec<f64>, u64), SolveError>> = groups
        .par_iter()
        .map(|residents| {
            if residents.is_empty() {
                return Ok((Vec::new(), 0));
            }
            let server = Market {
                rows: Some(residents),
                fan: Fan::Seq,
                supply: capacity,
                total_cap: residents.iter().map(|&i| utils[i].cap()).sum(),
                ..market
            };
            let local: Vec<f64> = residents.iter().map(|&i| clipped[i]).collect();
            refine_server(&server, residents, &local, lambda, buf, budget)
        })
        .collect();
    drop(refine_span);

    let mut amount = clipped;
    for (j, res) in refined.into_iter().enumerate() {
        let (vals, sweeps) = res?;
        stats.refine_iterations += sweeps;
        for (k, &i) in groups[j].iter().enumerate() {
            amount[i] = vals[k];
        }
    }
    stats.sweeps = stats.iterations + stats.refine_iterations;
    record_stats(&stats);

    if let Some(w) = warm {
        w.valid = true;
        w.global = global.bracket;
        w.demand = std::mem::take(&mut bufs[1]);
        w.prev_servers = m;
        w.prev_capacity = capacity;
        w.table = table;
        if !cache_used {
            w.cached = threads.to_vec();
        }
        w.stats = stats;
    }

    Ok((Assignment { server, amount }, stats))
}

/// Cold price-discovery solve; never fails.
pub fn solve(problem: &Problem) -> Assignment {
    match solve_with(problem, None, None) {
        Ok((a, _)) => a,
        Err(_) => unreachable!("unbudgeted price solve cannot fail"),
    }
}

/// Cold budgeted solve: cooperative budget checks before every demand
/// sweep, global and per-server alike.
pub fn solve_budgeted(problem: &Problem, budget: &Budget) -> Result<Assignment, SolveError> {
    solve_with(problem, Some(budget), None).map(|(a, _)| a)
}

/// Warm solve through a carried [`PriceWarmState`]: the global search
/// starts where the previous solve's ended, and the state is updated
/// with this solve's bracket on success.
pub fn solve_warm(
    problem: &Problem,
    state: &mut PriceWarmState,
) -> Result<Assignment, SolveError> {
    solve_with(problem, None, Some(state)).map(|(a, _)| a)
}

/// [`solve_warm`] with a cooperative budget.
pub fn solve_warm_budgeted(
    problem: &Problem,
    state: &mut PriceWarmState,
    budget: &Budget,
) -> Result<Assignment, SolveError> {
    solve_with(problem, Some(budget), Some(state)).map(|(a, _)| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{LogUtility, Pchip, Power, Scaled};

    fn mixed_problem(n: usize, m: usize, capacity: f64) -> Problem {
        Problem::builder(m, capacity)
            .threads((0..n).map(|i| match i % 3 {
                0 => Arc::new(Power::new(1.0 + (i % 7) as f64, 0.5, capacity * 2.0)) as _,
                1 => Arc::new(LogUtility::new(1.0 + (i % 5) as f64, 1.0, capacity * 2.0)) as _,
                _ => Arc::new(Power::new(0.5 + (i % 4) as f64, 0.8, capacity)) as _,
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn solve_is_feasible_and_positive() {
        let p = mixed_problem(40, 4, 10.0);
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert!(a.total_utility(&p) > 0.0);
    }

    #[test]
    fn unsaturated_instance_gets_caps() {
        // 3 threads capped at 2.0 against 4×10 supply: price 0.
        let p = Problem::builder(4, 10.0)
            .threads((0..3).map(|_| Arc::new(Power::new(1.0, 0.5, 2.0)) as _))
            .build()
            .unwrap();
        let (a, stats) = solve_with(&p, None, None).unwrap();
        assert!(stats.converged);
        for &c in &a.amount {
            assert!((c - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn near_algo2_utility() {
        let p = mixed_problem(120, 4, 10.0);
        let price = solve(&p).total_utility(&p);
        let algo2 = crate::algo2::solve(&p).total_utility(&p);
        assert!(
            price >= algo2 * 0.95,
            "price {price} too far below algo2 {algo2}"
        );
    }

    #[test]
    fn warm_resolve_matches_and_reports_warm() {
        let p = mixed_problem(60, 4, 10.0);
        let mut state = PriceWarmState::new();
        let cold = solve_warm(&p, &mut state).unwrap();
        assert!(state.is_warm());
        assert!(!state.last_stats().warm);
        let warm = solve_warm(&p, &mut state).unwrap();
        assert!(state.last_stats().warm);
        assert!(
            state.last_stats().iterations
                <= aa_allocator::bisection::MAX_RELATIVE_PROBES as u64
        );
        warm.validate(&p).unwrap();
        // Same problem, warm prices: utilities agree tightly.
        let (cu, wu) = (cold.total_utility(&p), warm.total_utility(&p));
        assert!((cu - wu).abs() <= 1e-6 * cu.max(1.0));
    }

    #[test]
    fn warm_after_drift_patches_cache_and_stays_close() {
        let p = mixed_problem(96, 6, 10.0);
        let mut state = PriceWarmState::new();
        let _ = solve_warm(&p, &mut state).unwrap();
        // Replace a few threads; the warm solve must patch its cached
        // table rows for exactly these and stay correct.
        let mut threads: Vec<DynUtility> = p.threads().to_vec();
        threads[3] = Arc::new(Power::new(9.0, 0.5, 20.0));
        threads[40] = Arc::new(LogUtility::new(4.0, 2.0, 20.0));
        let drifted = Problem::new(6, 10.0, threads).unwrap();
        let warm = solve_warm(&drifted, &mut state).unwrap();
        warm.validate(&drifted).unwrap();
        assert!(state.last_stats().warm);
        let cold = solve(&drifted);
        cold.validate(&drifted).unwrap();
        let (wu, cu) = (warm.total_utility(&drifted), cold.total_utility(&drifted));
        assert!(wu >= 0.95 * cu, "warm utility {wu} too far below cold {cu}");
    }

    #[test]
    fn warm_search_starts_on_carried_demands_patched_by_row() {
        let p = mixed_problem(96, 6, 10.0);
        let mut state = PriceWarmState::new();
        let cold = solve_warm(&p, &mut state).unwrap();
        // Unchanged problem: the carried demands answer the first probe,
        // so the global search sweeps nothing and lands where cold did.
        let again = solve_warm(&p, &mut state).unwrap();
        assert_eq!(state.last_stats().iterations, 0);
        assert_eq!(again, cold);
        // A new object with a nudged scale: its row must be re-evaluated
        // (demand moves far less than tol, so the first probe accepts and
        // the carried vector is what the state keeps).
        let mut threads: Vec<DynUtility> = p.threads().to_vec();
        threads[3] = Arc::new(Power::new(4.0 + 1e-3, 0.5, 20.0));
        let drifted = Problem::new(6, 10.0, threads).unwrap();
        solve_warm(&drifted, &mut state).unwrap();
        assert_eq!(state.last_stats().iterations, 0);
        let utils = drifted.capped_threads();
        let mut table = DemandTable::new();
        table.compile(&utils);
        let mut fresh = vec![0.0; utils.len()];
        table.batch_inverse_derivative(&utils, state.global.hi, &mut fresh);
        assert_eq!(state.demand, fresh);
    }

    #[test]
    fn fully_churned_warm_solves_keep_the_table_bounded() {
        // Every solve brings new PCHIP objects, so every row is patched
        // and orphans its old knots: without a repack the pool would grow
        // by n·3 knots per solve.
        let pchip = |i: usize, k: usize| -> DynUtility {
            let v = 1.0 + ((i * 7 + k * 3) % 11) as f64;
            Arc::new(Pchip::new(&[(0.0, 0.0), (5.0, v), (10.0, 1.5 * v)]).unwrap())
        };
        let (n, m) = (64, 4);
        let mut state = PriceWarmState::new();
        let mut live = 0;
        for k in 0..12 {
            let p = Problem::new(m, 10.0, (0..n).map(|i| pchip(i, k)).collect()).unwrap();
            solve_warm(&p, &mut state).unwrap().validate(&p).unwrap();
            let utils = p.capped_threads();
            let mut fresh = DemandTable::new();
            fresh.compile(&utils);
            live = fresh.pool_len();
            assert!(
                state.table.pool_len() <= 2 * live,
                "solve {k}: pool {} for {live} live entries",
                state.table.pool_len()
            );
            for lambda in [0.0, 0.1, 0.5, 1.0, 4.0] {
                for i in 0..n {
                    assert_eq!(
                        state.table.eval(&utils, i, lambda).to_bits(),
                        fresh.eval(&utils, i, lambda).to_bits(),
                        "solve {k}, row {i}, λ={lambda}"
                    );
                }
            }
        }
        assert!(live > 0, "PCHIP rows must be pool-backed");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = mixed_problem(5000, 8, 50.0);
        let base = rayon::with_threads(1, || solve(&p));
        for threads in [2, 8] {
            let other = rayon::with_threads(threads, || solve(&p));
            assert_eq!(base.server, other.server, "{threads} threads");
            assert_eq!(base.amount, other.amount, "{threads} threads");
        }
    }

    #[test]
    fn budget_expiry_surfaces() {
        let p = mixed_problem(40, 4, 10.0);
        let budget = Budget::with_fuel(1);
        match solve_budgeted(&p, &budget) {
            Err(SolveError::DeadlineExceeded) => {}
            other => panic!("expected deadline expiry, got {other:?}"),
        }
    }

    #[test]
    fn a_bracket_carried_under_the_trusted_floor_restarts_cold() {
        // Scaled by 1e-310, the market clears far under the trusted
        // floor and the state carries a subnormal bracket. A walk up
        // from it to the next market's price near 1 would spend every
        // probe under ~1e-304.
        let base = mixed_problem(48, 4, 10.0);
        let tiny = base.threads().iter().map(|f| Arc::new(Scaled::new(f.clone(), 1e-310)) as _);
        let tiny = Problem::new(4, 10.0, tiny.collect()).unwrap();
        let mut state = PriceWarmState::new();
        solve_warm(&tiny, &mut state).unwrap();
        assert!(state.global.lo < WARM_MIN_PRICE, "{:?}", state.global);
        let warm = solve_warm(&base, &mut state).unwrap();
        let stats = state.last_stats();
        assert!(stats.warm && stats.converged, "{stats:?}");
        warm.validate(&base).unwrap();
        let (wu, cu) = (warm.total_utility(&base), solve(&base).total_utility(&base));
        assert!(wu >= 0.95 * cu, "warm utility {wu} too far below cold {cu}");
    }

    #[test]
    fn invalidate_forces_cold() {
        let p = mixed_problem(30, 2, 8.0);
        let mut state = PriceWarmState::new();
        solve_warm(&p, &mut state).unwrap();
        state.invalidate();
        assert!(!state.is_warm());
        solve_warm(&p, &mut state).unwrap();
        assert!(!state.last_stats().warm);
    }
}
