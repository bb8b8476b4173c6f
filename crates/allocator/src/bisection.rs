//! The λ-search: the one root-finder for `D(λ) = supply` in the workspace.
//!
//! For concave utilities, the optimal single-pool allocation equalizes
//! marginal utilities: there is a "price" `λ*` such that every thread takes
//! `x_i(λ*) = sup { x ≤ cap_i : f_i′(x) ≥ λ* }` and the demands sum to the
//! budget. Total demand `D(λ) = Σ x_i(λ)` is nonincreasing in λ, so `λ*`
//! is found by search over λ — the `O(n (log B)²)`-flavor algorithm the
//! paper cites as \[16\] (Galil). Algorithm 2's super-optimal step and
//! the price-discovery backend (`aa_core::price`) both solve this
//! equation over each thread's own [`Utility::inverse_derivative`],
//! through the three pieces below:
//!
//! * **one sweep** — [`sweep`] evaluates `x_i(λ)` for every thread of a
//!   [`Market`] into a caller buffer and sums it in index order, on the
//!   calling thread or in contiguous chunks over the pool ([`Fan`]);
//!   [`sweep_inside`] is the same sweep strictly inside a bracket, where
//!   it visits only the [`LiveRows`];
//! * **one probe loop** — [`search`] walks from a start bracket
//!   ([`Bracket`]) to a fresh one, geometrically in either direction,
//!   then closes it by Illinois false position. The stop rule ([`Stop`])
//!   is the only per-caller input: `Exact` collapses to adjacent floats,
//!   with every closing probe projected so the close never costs more
//!   than a few probes beyond halving; `Relative(tol)` accepts the first
//!   probe within `tol·supply` (the price backend);
//! * **one reference, the halving** — bracket growth from `[0, 1]`, then
//!   up to 128 halvings. The cold Exact search (behind [`allocate`], and
//!   every [`allocate_in`] call without a provable bracket) runs it
//!   only until its bracket is trusted, then hands the bracket to the
//!   probe loop's bounded close; it runs to its end only under
//!   [`WARM_MIN_PRICE`]. All-discrete tables skip it for the ladder flip.
//!
//! The Exact answer is the bracket `[λ_lo, λ_hi]` with
//! `D(λ_lo) > B ≥ D(λ_hi)` collapsed to floating-point resolution; the
//! leftover `B − D(λ_hi)` is then spread over the threads that are
//! *marginal* at the final price (their demand jumps across the bracket —
//! piecewise-linear utilities hit this case at every kink). Where `D` is
//! monotone to the last bit that pair is unique, so every Exact path
//! lands on the halving's pair (see the notes above [`WARM_MIN_PRICE`]).
//!
//! Sequential and pooled sweeps write the same per-index values and sum
//! them in the same order, so [`allocate`] and [`allocate_in`], cold or
//! warm, are **bit-identical** for every thread count. Each search
//! fans out by size alone ([`crate::tuning::fans_out`]); a caller picks
//! only its buffers, its [`Fan`] and its check.
//!
//! **The live-row invariant.** Once a search holds a bracket `[lo, hi]`
//! with `lo > 0` whose edges it swept itself, most rows answer the whole
//! bracket by a comparison branch with one constant value
//! ([`pinned`], read from the row's demand description). Such a row
//! leaves the bracket's [`LiveRows`] with its value written into all
//! three [`Demands`] buffers, and every later probe inside the bracket
//! (the close, and the cold halving once its low edge is positive)
//! evaluates only the rows still live, adds the rows pinned at nonzero
//! values in place, and skips those pinned at `+0.0`. The list is in
//! index order, so each probe's buffers and sum are a full sweep's, bit
//! for bit, whether or not demand is monotone.

use aa_utility::demand::pinned;
use aa_utility::{DemandTable, Utility};
use rayon::prelude::*;
use rayon::CancelToken;

use crate::Allocation;

/// Cached handles into the global metrics registry, created on the first
/// *recorded* call so the zero-allocation steady state never sees the
/// registry lock (the arena test's warmup epochs create them).
fn obs_counters() -> &'static [aa_obs::Counter; 4] {
    static HANDLES: std::sync::OnceLock<[aa_obs::Counter; 4]> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        [
            r.counter("aa_bisection_cold_total"),
            r.counter("aa_bisection_warm_total"),
            r.counter("aa_bisection_demand_maps_total"),
            r.counter("aa_bisection_rows_total"),
        ]
    })
}

/// Count one allocation's sweeps and demand evaluations.
fn record_work(stats: &WarmStats) {
    if aa_obs::record_enabled() {
        let c = obs_counters();
        c[2].add(u64::from(stats.demand_maps));
        c[3].add(stats.rows);
    }
}

/// Number of halvings of the reference search. 128 halvings shrink any
/// initial bracket below f64 resolution; the budget-repair step mops up
/// whatever remains. Also the Exact probe loop's refinement cap: past it
/// the loop has stalled and the halving answers.
const MAX_ITERS: u32 = 128;

/// Probe cap of one `Relative` search; past it the search settles for
/// the best feasible price seen.
pub const MAX_RELATIVE_PROBES: u32 = 64;

/// Ceiling of the probe loop's upward walk. A `Relative` search that
/// finds no finite price with `D(λ) ≤ supply` below it (staircase floors
/// whose demand never drops under supply) answers `LAMBDA_MAX`,
/// unconverged; an `Exact` walk hands over to the cold search.
pub const LAMBDA_MAX: f64 = 1e18;

/// Thread-count threshold past which a pooled [`sweep`] fans out over the
/// thread pool. Below it the sequential path is faster (the fork-join
/// overhead exceeds the work); results are identical either way.
///
/// This is the shared workspace crossover from [`crate::tuning`]; the
/// linearizer gates on the same value.
pub use crate::tuning::par_threshold;

/// Marker error: an interruptible allocation was abandoned because its
/// cancel token fired *between* two check-closure calls (the pool
/// observed the token mid-sweep). Callers with richer error enums convert
/// it via their `From<Interrupted>` impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("allocation interrupted by its cancel token")
    }
}

impl std::error::Error for Interrupted {}

/// Where a [`sweep`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Fan<'t> {
    /// On the calling thread.
    Seq,
    /// Over the pool once [`fans_out`](crate::tuning::fans_out) says the
    /// sweep is large enough, abandoning unclaimed chunks when the
    /// optional token fires.
    Pool(Option<&'t CancelToken>),
}

/// One demand sweep of a market: `out[k] = x(λ)` of its `k`-th thread
/// by its own `inverse_derivative`, resized to the market, and the
/// index-order sum. The pooled path fills contiguous chunks of `out` on
/// the pool; every slot gets the same value either way and the sum is
/// the same additions in the same order, so the result is bit-identical
/// at any pool width. `None` means the token fired mid-sweep. The
/// sequential path allocates nothing once `out` has grown to the market.
pub fn sweep<U: Utility>(m: &Market<'_, U>, lambda: f64, out: &mut Vec<f64>) -> Option<f64> {
    sweep_rows(m, lambda, out, None, &mut 0)
}

/// Tag of a [`LiveRows`] entry whose row is pinned at a nonzero value:
/// the probe adds it in place instead of evaluating it.
const PINNED: u32 = 1 << 31;

/// The rows a probe strictly inside a bracket still has to look at.
///
/// Once a search holds a bracket `[lo, hi]` with `lo > 0` whose edges it
/// swept itself, most rows answer by a comparison branch with one
/// constant value across it ([`pinned`]): a PCHIP price
/// past its steepest knot slope, a staircase with no step inside, a
/// linear row on one side of its slope. Such a row leaves the list, its
/// pinned value written once into all three [`Demands`] buffers, and
/// later probes inside the bracket skip its evaluation. Rows pinned at a
/// nonzero value stay in the list (tagged) so the probe still adds them
/// in index order; rows pinned at `+0.0` are dropped, because a `+0.0`
/// addend never changes a nonnegative index-order sum except the sign
/// of an all-zero one, which `zeros` restores. The list is kept in index
/// order, so every probe's sum is the full sweep's, bit for bit, and
/// nothing here assumes demand is monotone.
///
/// Pins hold for every sub-bracket, so the list carries over while the
/// bracket shrinks and is rebuilt when a probe's bracket is not inside
/// the one it was pinned for. The pinned values live only in the
/// buffers they were written into: a list belongs to one [`Demands`],
/// whose buffers may be swapped and re-swept at edges inside the
/// bracket between probes, but not replaced. A search starts it afresh
/// ([`search`], and the cold search inside the allocate entry points);
/// the buffers retain their capacity, so a warm cache's steady state
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LiveRows {
    /// Market positions in index order; [`PINNED`]-tagged entries are
    /// added, the rest evaluated.
    list: Vec<u32>,
    /// The bracket every pin holds on; `None` before the first probe
    /// inside one.
    bracket: Option<Bracket>,
    /// A row pinned at `+0.0` has left the list.
    zeros: bool,
}

impl LiveRows {
    /// Forget the list: the next probe inside a bracket rebuilds it.
    fn reset(&mut self) {
        self.bracket = None;
    }

    /// Make the list valid for a probe inside `bracket` over `n` rows:
    /// keep it while `bracket` lies inside the one it was pinned for,
    /// else start over with every row live.
    fn enter(&mut self, n: usize, bracket: Bracket) {
        let holds = self
            .bracket
            .is_some_and(|b| b.lo <= bracket.lo && bracket.hi <= b.hi);
        if !holds {
            self.list.clear();
            self.list.extend(0..n as u32);
            self.zeros = false;
        }
        self.bracket = Some(bracket);
    }
}

/// A probe strictly inside `bracket`: the search's live rows, and the
/// edge buffers its pins are written into.
struct Inside<'s> {
    bracket: Bracket,
    live: &'s mut LiveRows,
    lo: &'s mut Vec<f64>,
    hi: &'s mut Vec<f64>,
}

/// One contiguous piece of a sweep: the buffers' windows from market
/// position `base`, and — inside a bracket — the live entries that fall
/// in that window.
struct Chunk<'s> {
    base: usize,
    out: &'s mut [f64],
    live: Option<(&'s mut [u32], &'s mut [f64], &'s mut [f64])>,
}

/// What one [`Chunk`] did: live entries it kept (compacted to the front
/// of its slice), whether it dropped a row pinned at `+0.0`, and the
/// demand evaluations it made.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    kept: usize,
    zeros: bool,
    rows: u64,
}

/// Fill one chunk at `lambda`. Without live entries every position of
/// the window is evaluated into `out`; with them each unpinned entry is
/// first tested against `pins` and either pinned (its value written into
/// all three windows, dropped at `+0.0`) or evaluated.
fn fill<U: Utility>(m: &Market<'_, U>, lambda: f64, pins: Bracket, c: Chunk<'_>) -> Tally {
    let Chunk { base, out, live } = c;
    let row = |k: usize| m.rows.map_or(k, |rows| rows[k]);
    let Some((list, lo, hi)) = live else {
        match m.rows {
            None => {
                for (slot, u) in out.iter_mut().zip(&m.utils[base..]) {
                    *slot = u.inverse_derivative(lambda);
                }
            }
            Some(rows) => {
                for (slot, &i) in out.iter_mut().zip(&rows[base..]) {
                    *slot = m.utils[i].inverse_derivative(lambda);
                }
            }
        }
        return Tally { rows: out.len() as u64, ..Tally::default() };
    };
    let mut t = Tally::default();
    for r in 0..list.len() {
        let e = list[r];
        if e & PINNED == 0 {
            let k = e as usize;
            let (i, p) = (row(k), k - base);
            if let Some(v) = pinned(&m.utils[i], pins.lo, pins.hi) {
                (out[p], lo[p], hi[p]) = (v, v, v);
                if v.to_bits() == 0 {
                    t.zeros = true;
                    continue;
                }
                list[t.kept] = e | PINNED;
                t.kept += 1;
                continue;
            }
            out[p] = m.utils[i].inverse_derivative(lambda);
            t.rows += 1;
        }
        list[t.kept] = e;
        t.kept += 1;
    }
    t
}

/// The one sweep behind every probe. Outside a bracket (`inside: None`)
/// every row is live: `out[k] = x(λ)` for each market position. Inside
/// one, only the [`LiveRows`] are visited and the sum adds the kept
/// entries in index order. Either way the buffers and the sum are what
/// a full sweep makes, bit for bit, at any pool width: the pool splits
/// the visited entries into contiguous runs at position boundaries,
/// and the sum is always one sequential pass. Adds the demand
/// evaluations to `rows`; `None` means the token fired mid-sweep.
fn sweep_rows<U: Utility>(
    m: &Market<'_, U>,
    lambda: f64,
    out: &mut Vec<f64>,
    inside: Option<Inside<'_>>,
    rows: &mut u64,
) -> Option<f64> {
    let n = m.rows.map_or(m.utils.len(), <[usize]>::len);
    out.resize(n, 0.0);
    // Positions are stored in 31 bits; a larger market sweeps in full.
    let mut inside = inside.filter(|_| n < PINNED as usize);
    let pins = match &mut inside {
        Some(s) => {
            s.lo.resize(n, 0.0);
            s.hi.resize(n, 0.0);
            s.live.enter(n, s.bracket);
            s.bracket
        }
        None => Bracket::default(),
    };
    let visits = inside.as_ref().map_or(n, |s| s.live.list.len());
    let tally = match m.fan {
        Fan::Pool(token) if crate::tuning::fans_out(visits) => {
            let parts = rayon::current_num_threads().max(1) * 4;
            let step = visits.div_ceil(parts).max(1);
            let chunks = split(out, inside.as_mut(), step);
            let run = |c: Chunk<'_>| fill(m, lambda, pins, c);
            let tallies: Vec<Tally> = match token {
                Some(t) => match chunks.into_par_iter().map(run).collect_cancellable(t) {
                    Ok(tallies) => tallies,
                    Err(_) => {
                        // Some chunks compacted their entries, some did not.
                        if let Some(s) = &mut inside {
                            s.live.reset();
                        }
                        return None;
                    }
                },
                None => chunks.into_par_iter().map(run).collect(),
            };
            let mut total = Tally::default();
            for (c, t) in tallies.iter().enumerate() {
                if let Some(s) = &mut inside {
                    s.live.list.copy_within(c * step..c * step + t.kept, total.kept);
                }
                total.kept += t.kept;
                total.zeros |= t.zeros;
                total.rows += t.rows;
            }
            total
        }
        _ => {
            let live = inside.as_mut().map(|s| (&mut s.live.list[..], &mut s.lo[..], &mut s.hi[..]));
            fill(m, lambda, pins, Chunk { base: 0, out, live })
        }
    };
    *rows += tally.rows;
    let Some(s) = inside else {
        return Some(out.iter().sum());
    };
    s.live.list.truncate(tally.kept);
    s.live.zeros |= tally.zeros;
    // `Iterator::sum` folds from -0.0; so does this, over the kept rows.
    let sum = s.live.list.iter().fold(-0.0, |acc, &e| acc + out[(e & !PINNED) as usize]);
    Some(if s.live.zeros && sum == 0.0 { 0.0 } else { sum })
}

/// Cut a sweep into chunks of `step` visited entries: position windows
/// of `out` (and, inside a bracket, of the live list and both edge
/// buffers) that are disjoint and cover the market in order.
fn split<'s>(out: &'s mut [f64], inside: Option<&'s mut Inside<'_>>, step: usize) -> Vec<Chunk<'s>> {
    let Some(s) = inside else {
        return out
            .chunks_mut(step)
            .enumerate()
            .map(|(c, out)| Chunk { base: c * step, out, live: None })
            .collect();
    };
    let mut chunks = Vec::new();
    let (mut out, mut lo, mut hi) = (out, &mut s.lo[..], &mut s.hi[..]);
    let mut base = 0;
    let mut entries = s.live.list.chunks_mut(step).peekable();
    while let Some(list) = entries.next() {
        // The window runs to the next chunk's first position, or the end.
        let end = entries.peek().map_or(base + out.len(), |next| (next[0] & !PINNED) as usize);
        let (o, o_rest) = std::mem::take(&mut out).split_at_mut(end - base);
        let (l, l_rest) = std::mem::take(&mut lo).split_at_mut(end - base);
        let (h, h_rest) = std::mem::take(&mut hi).split_at_mut(end - base);
        chunks.push(Chunk { base, out: o, live: Some((list, l, h)) });
        (out, lo, hi, base) = (o_rest, l_rest, h_rest, end);
    }
    chunks
}

/// How a [`search`] stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Collapse the bracket to the unique adjacent-float pair around the
    /// flip of `D(λ) > supply`: the halving's answer, bit for bit.
    Exact,
    /// Accept the first probe with `|D(λ) − supply| ≤ tol·supply`.
    Relative(f64),
}

/// The search state a market carries between solves: the prices the
/// next search starts from. An Exact market carries its collapsed
/// adjacent-float pair; a `Relative` market its accepted price as a
/// point (`lo == hi`), or the pair around a demand jump it could not
/// resolve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bracket {
    /// Low edge: `D(lo) > supply` when the bracket was found.
    pub lo: f64,
    /// High edge: `D(hi) ≤ supply` when the bracket was found.
    pub hi: f64,
}

impl Bracket {
    /// The degenerate bracket at one price.
    pub fn at(lambda: f64) -> Self {
        Bracket { lo: lambda, hi: lambda }
    }
}

/// One market: its threads, their discrete ladder, where its sweeps
/// run, and its supply. `total_cap = Σ cap_i = D(0)` must exceed `supply`
/// for a [`search`] (callers answer the saturated market without one);
/// it is the λ = 0 low edge a `Relative` walk falls back to without a
/// sweep.
#[derive(Debug)]
pub struct Market<'a, U> {
    /// `utils` compiled for the ladder flip. Only the cold Exact search
    /// reads it (through [`DemandTable::all_discrete`] and
    /// [`DemandTable::ladder`]); a market that never runs one may carry
    /// an empty table.
    pub table: &'a DemandTable,
    /// The utilities, which answer every demand value.
    pub utils: &'a [U],
    /// The market's threads as indices into `utils`, in order; `None`
    /// for all of them.
    pub rows: Option<&'a [usize]>,
    /// Where its sweeps run.
    pub fan: Fan<'a>,
    /// The supply `D(λ)` must meet.
    pub supply: f64,
    /// `Σ cap_i`, the demand at λ = 0.
    pub total_cap: f64,
}

/// The three sweep buffers of a search: demand at the low edge, at the
/// high edge, and at the current probe (swapped into an edge as the
/// bracket moves) — plus the rows its probes inside a bracket still
/// evaluate.
#[derive(Debug)]
pub struct Demands<'b> {
    /// `D` per thread at the bracket's low edge.
    pub lo: &'b mut Vec<f64>,
    /// `D` per thread at the high edge — and at the answer, on return.
    pub hi: &'b mut Vec<f64>,
    /// Scratch for the probe in flight.
    pub probe: &'b mut Vec<f64>,
    /// The live rows of the current bracket.
    pub live: &'b mut LiveRows,
}

/// The work of a search: sweeps made, and demand evaluations inside
/// them (a full sweep evaluates every row; a probe inside a bracket
/// only its live ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Demand sweeps.
    pub sweeps: u32,
    /// Demand evaluations.
    pub rows: u64,
}

/// Where a [`search`] ended. `Demands::hi` holds `x_i(price)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landing {
    /// The final bracket. Exact: the collapsed adjacent-float pair.
    pub bracket: Bracket,
    /// The answer: the bracket's high edge (Exact), the accepted probe,
    /// or — unconverged — the best feasible price seen or [`LAMBDA_MAX`].
    pub price: f64,
    /// `D(price)`, the sum of `Demands::hi`.
    pub demand: f64,
    /// The stop rule accepted `price`.
    pub converged: bool,
    /// False-position / midpoint steps after the walk.
    pub iterations: u32,
}

/// Converts a sweep-level `None` into the caller's error: prefer the
/// check's own diagnosis (it knows *why* the token fired), fall back to
/// the bare marker.
fn interrupted<E: From<Interrupted>>(check: &mut dyn FnMut() -> Result<(), E>) -> E {
    match check() {
        Err(e) => e,
        Ok(()) => Interrupted.into(),
    }
}

/// `check`, then one counted full sweep of `m` at `lambda` into `out`.
fn probe<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    lambda: f64,
    out: &mut Vec<f64>,
    work: &mut Work,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    check()?;
    full(m, lambda, out, work, check)
}

/// A sweep at `lambda` inside a search's bracket: [`sweep`]'s buffer
/// and sum, bit for bit, written into `d.probe` — but when `bracket.lo >
/// 0` and `lambda` lies in the bracket, made over the bracket's
/// [`LiveRows`]: a row pinned across the bracket has its value written
/// once into all three buffers of `d` and is not evaluated again while
/// later brackets stay inside this one. Otherwise every row is swept.
/// Adds the demand evaluations to `rows`; `None` means the token fired.
pub fn sweep_inside<U: Utility>(
    m: &Market<'_, U>,
    lambda: f64,
    bracket: Bracket,
    d: &mut Demands<'_>,
    rows: &mut u64,
) -> Option<f64> {
    let pinnable = bracket.lo > 0.0 && bracket.lo <= lambda && lambda <= bracket.hi;
    let inside = pinnable.then_some(Inside {
        bracket,
        live: &mut *d.live,
        lo: &mut *d.lo,
        hi: &mut *d.hi,
    });
    sweep_rows(m, lambda, d.probe, inside, rows)
}

/// `check`, then one counted [`sweep_inside`] at `lambda`, strictly
/// inside `bracket` (the edges a search sweeps itself).
fn probe_inside<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    lambda: f64,
    bracket: Bracket,
    d: &mut Demands<'_>,
    work: &mut Work,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    check()?;
    work.sweeps += 1;
    sweep_inside(m, lambda, bracket, d, &mut work.rows).ok_or_else(|| interrupted(check))
}

/// One full sweep, counted in `work`; a fired token becomes the check's
/// error.
fn full<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    lambda: f64,
    out: &mut Vec<f64>,
    work: &mut Work,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    work.sweeps += 1;
    sweep_rows(m, lambda, out, None, &mut work.rows).ok_or_else(|| interrupted(check))
}

/// `D(lo) > supply ≥ D(hi)`: a bracket with its demand sums, whose
/// per-thread demands sit in `Demands::lo` and `Demands::hi`.
#[derive(Debug, Clone, Copy)]
struct Edges {
    lo: f64,
    hi: f64,
    s_lo: f64,
    s_hi: f64,
}

impl Stop {
    /// The stop rule takes a probe whose demand sums to `s`.
    fn accepts(self, s: f64, supply: f64) -> bool {
        matches!(self, Stop::Relative(tol) if (s - supply).abs() <= tol * supply)
    }

    /// Out of probes: `used` sweeps since the search began, `iters`
    /// refinement steps.
    fn spent(self, used: u32, iters: u32) -> bool {
        match self {
            Stop::Exact => iters >= MAX_ITERS,
            Stop::Relative(_) => used >= MAX_RELATIVE_PROBES,
        }
    }

    /// Out of probes or out of bracket: Exact hands over to the
    /// reference search; Relative settles for the best feasible price,
    /// `hi`.
    fn give_up(self, lo: f64, hi: f64, demand: f64, iterations: u32) -> Option<Landing> {
        match self {
            Stop::Exact => None,
            Stop::Relative(_) => Some(Landing {
                bracket: Bracket { lo, hi },
                price: hi,
                demand,
                converged: false,
                iterations,
            }),
        }
    }
}

/// The landing on a probe the stop rule accepted.
fn accepted(price: f64, demand: f64, iterations: u32) -> Option<Landing> {
    Some(Landing {
        bracket: Bracket::at(price),
        price,
        demand,
        converged: true,
        iterations,
    })
}

/// `s`, the demand sum of a price swept into `d.probe`: return from the
/// enclosing search with it when the stop rule accepts, else evaluate
/// to it.
macro_rules! accept {
    ($m:expr, $stop:expr, $d:expr, $s:expr, $lambda:expr, $iters:expr) => {{
        let s = $s;
        if $stop.accepts(s, $m.supply) {
            std::mem::swap($d.hi, $d.probe);
            return Ok(accepted($lambda, s, $iters));
        }
        s
    }};
}

/// The probe loop: from `start`, find `D(lo) > supply ≥ D(hi)` and close
/// it under `stop`. Every sweep is counted in `work`; `check` runs
/// before each. `swept = Some(s)` says `d.hi` already holds
/// `D(start.hi)`, summing to `s`, so the first sweep is skipped.
///
/// 1. Sweep `start.hi`, then — if it fits the supply and the bracket is
///    not a point — `start.lo`. An Exact pair that still separates the
///    demand curve is already the answer (two sweeps).
/// 2. Otherwise walk: up from `start.hi` by a step sized by how far over
///    supply it landed, doubling; or down from `start.lo` by a shrink
///    factor sized by how far under supply it landed, doubling until the
///    walk halves the price per probe. λ = 0 is a known low edge
///    (`D(0) = total_cap`) a `Relative` walk falls back to without a
///    sweep.
/// 3. Close the bracket (`close`).
///
/// `Relative(tol)` returns at the first probe within `tol·supply`; with
/// none, the best feasible price seen (the high edge) or [`LAMBDA_MAX`],
/// unconverged, after [`MAX_RELATIVE_PROBES`] or a collapsed bracket.
/// `Exact` returns the collapsed pair, or `None` when only the
/// reference search can prove the answer: the walk dives under
/// [`WARM_MIN_PRICE`] or climbs past [`LAMBDA_MAX`], the refinement
/// stalls at 128 steps, or the pair lands under [`WARM_MIN_PRICE`].
pub fn search<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    start: Bracket,
    swept: Option<f64>,
    stop: Stop,
    d: &mut Demands<'_>,
    work: &mut Work,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Option<Landing>, E> {
    let supply = m.supply;
    let first = work.sweeps;
    d.live.reset();
    let mut s_hi = match swept {
        Some(s) => s,
        None => probe(m, start.hi, d.hi, work, check)?,
    };
    if stop.accepts(s_hi, supply) {
        return Ok(accepted(start.hi, s_hi, 0));
    }
    // D(lo) ≥ D(hi), so the low edge needs a sweep only if the high one
    // fits.
    let pair = start.lo < start.hi && s_hi <= supply;
    let mut s_lo = s_hi;
    if pair {
        s_lo = accept!(m, stop, d, probe(m, start.lo, d.probe, work, check)?, start.lo, 0);
        std::mem::swap(d.lo, d.probe);
    }
    let mut lo = start.lo;
    let mut hi = start.hi;

    if s_hi > supply {
        // Demand over supply: the price rises. Walk up from the start
        // with a step sized by the overshoot, doubling geometrically.
        lo = start.hi;
        s_lo = s_hi;
        std::mem::swap(d.lo, d.hi);
        let rel = ((s_lo - supply) / supply.max(f64::MIN_POSITIVE)).clamp(1e-6, 1.0);
        // From a zero or subnormal start the relative step underflows to
        // zero and could never move; the least positive step can.
        let mut step = (start.hi * rel).max(f64::from_bits(1));
        loop {
            let mut cand = lo + step;
            while cand <= lo {
                step *= 2.0;
                cand = lo + step;
            }
            if cand > LAMBDA_MAX {
                if stop == Stop::Exact {
                    return Ok(None);
                }
                cand = LAMBDA_MAX;
            }
            if lo >= LAMBDA_MAX || stop.spent(work.sweeps - first, 0) {
                // No feasible price seen: settle for the ceiling.
                let demand = probe(m, LAMBDA_MAX, d.hi, work, check)?;
                return Ok(stop.give_up(LAMBDA_MAX, LAMBDA_MAX, demand, 0));
            }
            let s = accept!(m, stop, d, probe(m, cand, d.probe, work, check)?, cand, 0);
            if s > supply {
                lo = cand;
                s_lo = s;
                std::mem::swap(d.lo, d.probe);
                step *= 2.0;
            } else {
                hi = cand;
                s_hi = s;
                std::mem::swap(d.hi, d.probe);
                break;
            }
        }
    } else if s_lo <= supply {
        // Demand under supply: the price falls. Walk down from the start
        // with a shrink factor sized by the undershoot, widening
        // geometrically. Under the trusted floor, Exact hands over to
        // the reference search and Relative keeps the λ = 0 edge.
        hi = start.lo;
        s_hi = s_lo;
        if pair {
            std::mem::swap(d.hi, d.lo);
        }
        lo = 0.0;
        s_lo = m.total_cap;
        let mut shrink = ((supply - s_hi) / supply.max(f64::MIN_POSITIVE)).clamp(1e-6, 0.5);
        loop {
            let mut cand = hi * (1.0 - shrink);
            while cand >= hi && cand > 0.0 {
                shrink *= 2.0;
                cand = hi * (1.0 - shrink);
            }
            if shrink >= 1.0 {
                cand = 0.5 * hi; // past the widening: halve per probe
            }
            if cand.is_nan() || cand < WARM_MIN_PRICE {
                if stop == Stop::Exact {
                    return Ok(None);
                }
                break;
            }
            if stop.spent(work.sweeps - first, 0) {
                return Ok(stop.give_up(lo, hi, s_hi, 0));
            }
            let s = accept!(m, stop, d, probe(m, cand, d.probe, work, check)?, cand, 0);
            if s > supply {
                lo = cand;
                s_lo = s;
                std::mem::swap(d.lo, d.probe);
                break;
            }
            hi = cand;
            s_hi = s;
            std::mem::swap(d.hi, d.probe);
            shrink *= 2.0;
        }
    }
    close(m, Edges { lo, hi, s_lo, s_hi }, stop, d, work, first, check)
}

/// Slack of the bounded close, in halvings: after its `k`-th probe an
/// Exact close's bracket is at most `2^(PROJECTION_SLACK − k)` times as
/// wide as when it began, so it never takes more than this many probes
/// beyond plain halving.
const PROJECTION_SLACK: i32 = 4;

/// Close a bracket by Illinois false position — a damped secant
/// (finite-difference Newton on the demand curve): when one endpoint
/// stagnates its interpolation weight is halved, so the probe
/// accelerates across demand kinks and jumps instead of inching at them.
/// Every fourth probe is a plain midpoint.
///
/// Under `Exact` two more rules shape each candidate:
///
/// * a secant that rounds onto an edge probes the float next to that
///   edge instead of the midpoint — the flip sits within one ulp of it,
///   and one probe proves it;
/// * the candidate is projected toward the midpoint (the projection step
///   of the ITP method, Oliveira & Takahashi 2021), so after the `k`-th
///   probe the bracket is at most `2^(PROJECTION_SLACK − k)` times its
///   starting width, whatever the demand curve's shape: the close costs
///   at most [`PROJECTION_SLACK`] probes more than halving.
///
/// `Relative` keeps the plain sequence. `first` is the sweep count when
/// the search began (the `Relative` probe cap counts from it). Every
/// probe lies strictly inside the bracket, so once its low edge is
/// positive it visits only the [`LiveRows`].
fn close<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    edges: Edges,
    stop: Stop,
    d: &mut Demands<'_>,
    work: &mut Work,
    first: u32,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Option<Landing>, E> {
    let supply = m.supply;
    let Edges { mut lo, mut hi, s_lo, mut s_hi } = edges;
    // Invariant throughout: D(lo) > supply ≥ D(hi).
    let mut iters: u32 = 0;
    let mut g_lo = s_lo - supply; // > 0, may be damped below
    let mut g_hi = s_hi - supply; // ≤ 0, may be damped below
    let mut last_side: i8 = 0;
    // Halved before each probe: the widest bracket that probe may leave.
    let mut reach = (hi - lo) * 2f64.powi(PROJECTION_SLACK);
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // collapsed to the unique adjacent pair
        }
        if stop.spent(work.sweeps - first, iters) {
            return Ok(stop.give_up(lo, hi, s_hi, iters));
        }
        let denom = g_lo - g_hi;
        let mut cand = if iters % 4 == 3 || denom.is_nan() || denom <= 0.0 {
            mid
        } else {
            (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        };
        if stop == Stop::Exact {
            // Floats lie strictly between lo and hi (mid does), and lo > 0.
            if cand >= hi {
                cand = next_down(hi);
            } else if cand <= lo {
                cand = next_up(lo);
            }
            reach *= 0.5;
            let (near_hi, near_lo) = (hi - reach, lo + reach);
            cand = if near_hi <= near_lo {
                cand.clamp(near_hi, near_lo)
            } else {
                mid
            };
        }
        if !(cand > lo && cand < hi) {
            cand = mid;
        }
        let s = probe_inside(m, cand, Bracket { lo, hi }, d, work, check)?;
        let s = accept!(m, stop, d, s, cand, iters + 1);
        iters += 1;
        if s > supply {
            lo = cand;
            g_lo = s - supply;
            std::mem::swap(d.lo, d.probe);
            if last_side == -1 {
                g_hi *= 0.5; // hi stagnated twice: damp its weight
            }
            last_side = -1;
        } else {
            hi = cand;
            s_hi = s;
            g_hi = s - supply;
            std::mem::swap(d.hi, d.probe);
            if last_side == 1 {
                g_lo *= 0.5; // lo stagnated twice: damp its weight
            }
            last_side = 1;
        }
    }
    if stop == Stop::Exact && lo >= WARM_MIN_PRICE {
        return Ok(Some(Landing {
            bracket: Bracket { lo, hi },
            price: hi,
            demand: s_hi,
            converged: true,
            iterations: iters,
        }));
    }
    // Exact: the reference search may not have collapsed down here, so
    // only it knows its answer. Relative: the demand jumps across the
    // tolerance band at this price.
    Ok(stop.give_up(lo, hi, s_hi, iters))
}

/// The next float above a positive finite `x`.
#[inline]
fn next_up(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    f64::from_bits(x.to_bits() + 1)
}

/// The next float below a positive finite `x`.
#[inline]
fn next_down(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    f64::from_bits(x.to_bits() - 1)
}

/// All-discrete fast path: when every element describes a unit-scale
/// staircase, total demand `D(λ)` is a finite staircase whose knots all
/// sit on the table's merged [`ladder`](DemandTable::ladder), and the
/// predicate `D(λ) > budget` is *exactly* `λ ≤ t` for the largest knot
/// `t` with `D(t) > budget` (per-element staircase demands are exactly
/// nonincreasing in λ and rounded float addition is monotone in each
/// operand, so the index-order sum inherits exact monotonicity). The
/// halving's collapsed bracket is therefore the adjacent-float pair
/// `(t, nextafter(t))` — this routine finds it by binary search over
/// the ladder, `O(log k)` sweeps instead of the generic search's growth
/// and close (~15–60 on staircases).
///
/// Returns `None` whenever it cannot *prove* the halving would collapse
/// onto that pair — no positive knot over budget (the halving then
/// exits at [`MAX_ITERS`] with a sub-resolution bracket), `t` below
/// [`WARM_MIN_PRICE`], or the float gap at `t` too small for 128
/// halvings from the halving's starting bracket. Callers fall back to
/// the generic search, never emulate it.
fn discrete_flip<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    out: &mut Vec<f64>,
    work: &mut Work,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Option<(f64, f64)>, E> {
    let ladder = m.table.ladder();
    if ladder.is_empty() {
        return Ok(None);
    }
    let budget = m.supply;
    // D is maximal over positive prices at the smallest knot; if even
    // that fits the budget, no positive knot flips the predicate.
    if probe(m, ladder[0], out, work, check)? <= budget {
        return Ok(None);
    }
    // Largest index with D(ladder[i]) > budget: ladder[0] is known true,
    // indices past the flip are false (D nonincreasing).
    let mut lo_i = 0_usize;
    let mut hi_i = ladder.len();
    while hi_i - lo_i > 1 {
        let mid = lo_i + (hi_i - lo_i) / 2;
        if probe(m, ladder[mid], out, work, check)? > budget {
            lo_i = mid;
        } else {
            hi_i = mid;
        }
    }
    let t = ladder[lo_i];
    if t < WARM_MIN_PRICE {
        // The generic search may not collapse this low (see
        // WARM_MIN_PRICE); only it knows its own answer.
        return Ok(None);
    }
    let hi = next_up(t);
    // The generic bracket starts at width ≤ hi_grown (the first power of
    // two above t, or 1); 128 halvings must reach the float gap at t.
    let mut hi_grown = 1.0_f64;
    while hi_grown <= t {
        hi_grown *= 2.0;
    }
    if hi_grown * 2.0_f64.powi(-126) >= hi - t {
        return Ok(None);
    }
    // Verification sweep: the flip really is at (t, nextafter(t)). The
    // encodings guarantee it (demand past the top knot is the zero
    // level), but one sweep buys insurance against a wrong description.
    if probe(m, hi, out, work, check)? > budget {
        return Ok(None);
    }
    Ok(Some((t, hi)))
}

/// The cold Exact search: the ladder flip for all-discrete tables (with
/// `ladder`), else the reference halving — bracket growth from `[0, 1]`,
/// then up to [`MAX_ITERS`] halvings — whose bracket is handed to the
/// bounded [`close`] as soon as its low edge reaches [`WARM_MIN_PRICE`].
/// From there the halving would collapse onto the unique adjacent pair,
/// so the close lands on the same pair in fewer sweeps, with both edges'
/// demands already in `d`. Below the floor (or should the close stall)
/// the halving runs to its end and the epilogue re-sweeps its bracket.
/// Once the halving's low edge is positive its probes, like the
/// close's, visit only the [`LiveRows`].
/// `check` runs before each sweep and once before the epilogue. Returns
/// the bracket the next warm call may start from, and the halvings plus
/// close steps it took.
fn cold<U: Utility, E: From<Interrupted>>(
    m: &Market<'_, U>,
    ladder: bool,
    d: &mut Demands<'_>,
    caps: &[f64],
    work: &mut Work,
    amounts: &mut Vec<f64>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<(Option<Bracket>, u32), E> {
    let budget = m.supply;
    let mut iterations = 0;
    d.live.reset();
    let flip = if ladder && m.table.all_discrete() {
        discrete_flip(m, d.probe, work, check)?
    } else {
        None
    };
    let (lo, hi) = match flip {
        // The ladder bracket IS the halving's collapsed pair.
        Some(pair) => pair,
        None => {
            // Bracket the price. At λ = 0 demand is Σ caps > budget.
            // Grow λ_hi geometrically until demand fits under the
            // budget; derivatives may be +∞ at x = 0 but are finite for
            // x > 0, so demand eventually drops below any positive
            // budget — no concave function has an infinite derivative on
            // a set of positive measure.
            let first = work.sweeps;
            let mut e = Edges { lo: 0.0, hi: 1.0, s_lo: m.total_cap, s_hi: 0.0 };
            e.s_hi = probe(m, e.hi, d.hi, work, check)?;
            let mut grow = 0;
            while e.s_hi > budget {
                (e.lo, e.s_lo) = (e.hi, e.s_hi);
                std::mem::swap(d.lo, d.hi);
                e.hi *= 2.0;
                grow += 1;
                assert!(
                    grow < 1100,
                    "could not bracket the marginal price; utility derivatives do not decay"
                );
                e.s_hi = probe(m, e.hi, d.hi, work, check)?;
            }
            // Invariant: demand(lo) > budget ≥ demand(hi).
            let mut handover = true;
            for _ in 0..MAX_ITERS {
                if handover && e.lo >= WARM_MIN_PRICE {
                    if let Some(l) = close(m, e, Stop::Exact, d, work, first, check)? {
                        check()?;
                        finish(amounts, d, l.demand, caps, budget);
                        return Ok((Some(l.bracket), iterations + l.iterations));
                    }
                    handover = false; // stalled: halve on, re-sweep at the end
                }
                let mid = 0.5 * (e.lo + e.hi);
                if mid <= e.lo || mid >= e.hi {
                    break; // bracket collapsed to adjacent floats
                }
                iterations += 1;
                let s = probe_inside(m, mid, Bracket { lo: e.lo, hi: e.hi }, d, work, check)?;
                if s > budget {
                    (e.lo, e.s_lo) = (mid, s);
                    std::mem::swap(d.lo, d.probe);
                } else {
                    (e.hi, e.s_hi) = (mid, s);
                    std::mem::swap(d.hi, d.probe);
                }
            }
            (e.lo, e.hi)
        }
    };

    // The halving's own end: base allocation at the high price (fits in
    // the budget), then the leftover spread over the threads elastic
    // across the bracket.
    check()?;
    let spent = full(m, hi, d.hi, work, check)?;
    if budget - spent > 0.0 {
        full(m, lo, d.lo, work, check)?;
    }
    finish(amounts, d, spent, caps, budget);
    let mid = 0.5 * (lo + hi);
    let collapsed = mid <= lo || mid >= hi;
    Ok(((collapsed && lo >= WARM_MIN_PRICE).then_some(Bracket { lo, hi }), iterations))
}

/// The epilogue on a final bracket: the base allocation `x(λ_hi)` from
/// `d.hi` (summing to `spent`), plus the leftover spread across the
/// bracket using `d.lo`.
fn finish(amounts: &mut Vec<f64>, d: &Demands<'_>, spent: f64, caps: &[f64], budget: f64) {
    amounts.clear();
    amounts.extend_from_slice(d.hi);
    let leftover = budget - spent;
    if leftover > 0.0 {
        spread_leftover(amounts, d.lo, caps, leftover);
    }
}

/// Spread `leftover` over the threads whose demand is elastic across the
/// final bracket (proportionally to their slack), then pour numerical
/// crumbs into any remaining cap in index order. `x + (y − x)` can round
/// one ulp past `y`, so each sum is held to the demand or cap it fills
/// toward: an amount never exceeds its thread's cap.
fn spread_leftover(amounts: &mut [f64], lo_amounts: &[f64], caps: &[f64], mut leftover: f64) {
    let mut total_slack = 0.0;
    for (&a, &b) in lo_amounts.iter().zip(amounts.iter()) {
        total_slack += (a - b).max(0.0);
    }
    if total_slack > 0.0 {
        let frac = (leftover / total_slack).min(1.0);
        for (amt, &a) in amounts.iter_mut().zip(lo_amounts) {
            let s = (a - *amt).max(0.0);
            *amt += frac * s;
            if s > 0.0 && *amt > a {
                *amt = a;
            }
        }
        leftover -= frac * total_slack;
    }
    if leftover > 0.0 {
        for (amt, &cap) in amounts.iter_mut().zip(caps) {
            let room = cap - *amt;
            if room > 0.0 {
                let add = room.min(leftover);
                *amt = (*amt + add).min(cap);
                leftover -= add;
                if leftover <= 0.0 {
                    break;
                }
            }
        }
    }
}

/// Every Exact solve: fresh caps (everyone saturates when the budget
/// covers them), the ladder compiled for this slice, then the probe loop
/// from the cache's bracket — or the cold search when there is none or
/// the loop cannot prove its answer. The bracket is taken out of the
/// cache up front, so an aborted call leaves none behind.
fn exact<U: Utility, E: From<Interrupted>>(
    utils: &[U],
    budget: f64,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
    ladder: bool,
    fan: Fan<'_>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<WarmStats, E> {
    assert!(budget >= 0.0 && budget.is_finite(), "budget must be finite and ≥ 0");
    let carried = cache.bracket.take();
    cache.stats = WarmStats::default();
    check()?;
    // Fresh caps on every call: `cap()` is a cheap accessor for every
    // utility in the workspace, and stale caps would poison the crumb
    // pour.
    cache.caps.clear();
    let mut total_cap = 0.0;
    for f in utils {
        let c = f.cap();
        cache.caps.push(c);
        total_cap += c;
    }
    if budget >= total_cap {
        amounts.clear();
        amounts.extend_from_slice(&cache.caps);
        cache.stats.mode = WarmMode::Saturated; // a saturated solve pins no bracket
        return Ok(cache.stats);
    }

    // The ladder retains its capacity across calls, so steady-state
    // recompiles allocate nothing; off an all-staircase slice they read
    // one description.
    cache.table.compile(utils);
    let m = Market {
        table: &cache.table,
        utils,
        rows: None,
        fan,
        supply: budget,
        total_cap,
    };
    let mut d = Demands {
        lo: &mut cache.d_lo,
        hi: &mut cache.d_hi,
        probe: &mut cache.d_probe,
        live: &mut cache.live,
    };
    let stats = &mut cache.stats;
    let mut work = Work::default();
    if let Some(start) = carried {
        let found = search(&m, start, None, Stop::Exact, &mut d, &mut work, check)?;
        if let Some(l) = found {
            // The cold epilogue on the same unique boundary pair.
            check()?;
            finish(amounts, &d, l.demand, &cache.caps, budget);
            stats.mode = if l.bracket == start {
                WarmMode::Revalidated
            } else {
                WarmMode::Refined
            };
            stats.iterations = l.iterations;
            (stats.demand_maps, stats.rows) = (work.sweeps, work.rows);
            cache.bracket = Some(l.bracket);
            return Ok(*stats);
        }
    }
    let (bracket, iterations) = cold(&m, ladder, &mut d, &cache.caps, &mut work, amounts, check)?;
    cache.bracket = bracket;
    stats.mode = WarmMode::Cold;
    stats.iterations = iterations;
    (stats.demand_maps, stats.rows) = (work.sweeps, work.rows);
    Ok(*stats)
}

/// [`exact`] in its span and counters. The span and counter say what
/// ran: a search that starts from the cache's bracket records
/// `bisection_warm`, one that starts with none records `bisection`.
fn run<U: Utility, E: From<Interrupted>>(
    utils: &[U],
    budget: f64,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
    ladder: bool,
    fan: Fan<'_>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<WarmStats, E> {
    let warm = cache.bracket.is_some();
    let _span = aa_obs::span!(if warm { "bisection_warm" } else { "bisection" });
    if aa_obs::record_enabled() {
        obs_counters()[usize::from(warm)].inc();
    }
    let stats = exact(utils, budget, cache, amounts, ladder, fan, check)?;
    record_work(&stats);
    Ok(stats)
}

/// [`run`] cold over fresh buffers, on the pool past [`par_threshold`],
/// plus the index-order utility sum.
fn allocate_fresh<U: Utility>(utils: &[U], budget: f64, ladder: bool) -> Allocation {
    let mut amounts = Vec::new();
    let mut cache = WarmCache::new();
    let fan = Fan::Pool(None);
    expect_complete(run(utils, budget, &mut cache, &mut amounts, ladder, fan, &mut || Ok(())));
    let utility = utils.iter().zip(&amounts).map(|(f, &x)| f.value(x)).sum();
    Allocation { amounts, utility }
}

/// Unwrap an allocation whose check is infallible and token absent.
fn expect_complete<T>(result: Result<T, Interrupted>) -> T {
    match result {
        Ok(a) => a,
        Err(Interrupted) => unreachable!("infallible check cannot interrupt"),
    }
}

/// Allocate `budget` among `utils` maximizing total utility, each thread
/// additionally capped at its own [`Utility::cap`]. Returns the allocation
/// and the achieved utility.
///
/// Guarantees (up to floating point):
///
/// * feasibility: `amounts[i] ∈ [0, utils[i].cap()]` and
///   `Σ amounts ≤ budget`;
/// * exhaustion (the paper's Lemma V.3): if `budget ≤ Σ caps`, then
///   `Σ amounts = budget` — nondecreasing utilities never benefit from
///   leaving resource on the table;
/// * optimality: utilities' marginal values are equalized at the returned
///   price; validated against [`segment`](crate::segment) (exact for
///   piecewise-linear) and [`exact_dp`](crate::exact_dp) in tests.
///
/// # Example
///
/// ```
/// use aa_allocator::bisection::allocate;
/// use aa_utility::Power;
///
/// // Two identical √x threads share 8 units: the optimum is the even split.
/// let threads = vec![Power::new(1.0, 0.5, 10.0), Power::new(1.0, 0.5, 10.0)];
/// let alloc = allocate(&threads, 8.0);
/// assert!((alloc.amounts[0] - 4.0).abs() < 1e-6);
/// assert!((alloc.amounts[1] - 4.0).abs() < 1e-6);
/// ```
pub fn allocate<U: Utility>(utils: &[U], budget: f64) -> Allocation {
    allocate_fresh(utils, budget, true)
}

/// [`allocate`] with the all-discrete ladder fast path disabled: always
/// runs the generic search (bracket growth, then the bounded close).
/// **Bit-identical** to [`allocate`] on every input (the ladder only ever
/// lands on the bracket the generic search would collapse to); exists as
/// the reference arm for differential tests and benchmarks of the
/// discrete path.
pub fn allocate_generic<U: Utility>(utils: &[U], budget: f64) -> Allocation {
    allocate_fresh(utils, budget, false)
}

/// Diagnostic: the adjacent-float bracket the all-discrete ladder fast
/// path would hand the epilogue for this instance, or `None` when the
/// ladder disengages (mixed/non-staircase utilities, saturating budget,
/// no positive knot over budget, or an unprovable collapse). `Some` means
/// [`allocate`] answered — or would answer — this instance with
/// `O(log k)` demand sweeps instead of the generic search.
pub fn discrete_ladder_bracket<U: Utility>(utils: &[U], budget: f64) -> Option<(f64, f64)> {
    if !(budget >= 0.0 && budget.is_finite()) {
        return None;
    }
    let mut table = DemandTable::new();
    table.compile(utils);
    if !table.all_discrete() {
        return None;
    }
    let total_cap: f64 = utils.iter().map(|f| f.cap()).sum();
    if budget >= total_cap {
        return None; // saturation answers before any bracket search
    }
    let m = Market {
        table: &table,
        utils,
        rows: None,
        fan: Fan::Seq,
        supply: budget,
        total_cap,
    };
    let mut out = Vec::with_capacity(utils.len());
    expect_complete(discrete_flip(&m, &mut out, &mut Work::default(), &mut || Ok(())))
}

// ---- warm-started allocation ----
//
// The online settings (serve loops, epoch controllers, churn repair)
// re-solve instances that drift slowly: a handful of threads arrive or
// depart, utilities shift a little, the budget stays put. The marginal
// price λ* then barely moves, so re-running the cold search — growth
// or halvings from `[0, 1]` down to λ*'s binade, then a close of a
// dozen to fifty probes, each a whole-slice demand sweep — wastes most
// of its work rediscovering a bracket we already hold.
// [`allocate_in`] keeps the previous collapsed
// bracket in a [`WarmCache`] and answers the next call through the
// probe loop ([`search`] under [`Stop::Exact`]): revalidate the old
// adjacent-float pair (2 sweeps), or walk from it and collapse by
// Illinois false position.
//
// **Bit-identity contract.** Total demand `D(λ)` is nonincreasing in λ —
// each thread's `inverse_derivative` is nonincreasing and the sum is
// taken in fixed index order, so the floating-point sums inherit the
// monotonicity (an assumption about the utility implementations,
// validated by the differential tests). The predicate `D(λ) > budget`
// therefore flips at one unique pair of adjacent floats `(lo*, hi*)`,
// and *any* bracket refinement that fully collapses lands on that pair:
// the reference halving, the cold search's bounded close and the warm
// probe loop produce the same final bracket, the same `x(hi*)` base
// allocation, and the same leftover spread — bit-identical results.
// Only a collapsed price of at least [`WARM_MIN_PRICE`] is trusted;
// below it the halving may run out of iterations before collapsing (its
// bracket starts at `[0, 1]` and the low edge stays 0 until a midpoint
// demand exceeds the budget), so the halving itself answers there.
//
// The assumption fails at the last bit for PCHIP: λ enters its
// closed-form inverse (`pchip_inverse_derivative`) twice — in `C − λ`
// and under the square root — and the two roundings need not agree; on
// a sampled five-knot PCHIP, 0.6% of adjacent-float steps move its
// demand *up*. When such a
// wiggle straddles the flip, the predicate flips more than once and two
// searches may land on different, equally valid pairs: amounts that
// differ in the last bits (`tests/exact_search.rs` checks that every
// such disagreement is a genuine double flip).

/// Smallest collapsed price the Exact paths trust. Below ~1e-18 (≈ 2⁻⁶⁰)
/// the reference halving starting from `[0, 1]` may exhaust its 128
/// iterations before its bracket collapses to adjacent floats, so no
/// other search can prove it matches the halving's output, and the
/// halving runs. At or above it, the halving needs at most ~61
/// iterations to make the low edge positive plus ~53 to collapse —
/// comfortably inside the budget — so a collapsed bracket is *the*
/// halving's answer.
pub const WARM_MIN_PRICE: f64 = 1e-18;

/// How a warm allocation was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// The cold search, inside the cache's buffers — the halving until
    /// its bracket is trusted, then the bounded close: no usable bracket
    /// (first call, previous solve saturated or interrupted, or its
    /// bracket never collapsed or sat below [`WARM_MIN_PRICE`]), or the
    /// probe loop could not prove its answer.
    #[default]
    Cold,
    /// `budget ≥ Σ caps`: everyone saturates, no search at all.
    Saturated,
    /// The previous adjacent-float bracket still separates the demand
    /// curve of the new instance: answered with two demand sweeps.
    Revalidated,
    /// Walked from the previous bracket and collapsed by false position.
    Refined,
}

/// Telemetry for one allocation through a cache, kept in the cache and
/// returned by [`allocate_in`]. The benchmark's cold-vs-warm comparison
/// reports `demand_maps` — the demand sweeps of the search — and `rows`,
/// the demand evaluations inside them, which dominate the allocator's
/// running time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Which path answered the call.
    pub mode: WarmMode,
    /// Demand sweeps made, including those of a probe loop that handed
    /// over to the cold search. A sweep outside a bracket evaluates
    /// every row; one inside it only the [`LiveRows`].
    pub demand_maps: u32,
    /// Demand evaluations inside those sweeps.
    pub rows: u64,
    /// Bracket-refinement iterations: false-position or midpoint steps
    /// of the close, plus — for the cold search — the halvings before
    /// it.
    pub iterations: u32,
}

/// Warm-start state for [`allocate_in`]: the previous collapsed
/// bracket plus every scratch buffer the search needs, so a steady-state
/// call performs no heap allocation at all (buffers are cleared and
/// refilled within their retained capacity).
#[derive(Debug, Clone, Default)]
pub struct WarmCache {
    /// The bracket the next call starts from: set by a completed solve
    /// whose bracket collapsed at or above [`WARM_MIN_PRICE`].
    bracket: Option<Bracket>,
    caps: Vec<f64>,
    d_lo: Vec<f64>,
    d_hi: Vec<f64>,
    d_probe: Vec<f64>,
    live: LiveRows,
    /// The slice's discrete ladder, recompiled per call (utilities drift
    /// between epochs); its buffer retains capacity, so steady-state
    /// recompiles allocate nothing.
    table: DemandTable,
    stats: WarmStats,
}

impl WarmCache {
    /// An empty cache: the first allocation through it runs the cold
    /// search (and records its bracket for the calls after).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the bracket: the next call runs the cold search. An
    /// allocation that aborts mid-search leaves the cache in this state.
    pub fn invalidate(&mut self) {
        self.bracket = None;
    }

    /// Telemetry of the most recent call through this cache.
    pub fn last_stats(&self) -> WarmStats {
        self.stats
    }

    /// The held bracket `(lo, hi)`, if a completed solve pinned one.
    pub fn bracket(&self) -> Option<(f64, f64)> {
        self.bracket.map(|b| (b.lo, b.hi))
    }
}

/// [`allocate`] into caller-owned buffers, warm-started from `cache`:
/// the amounts land in `amounts`, the search scratch lives in `cache`,
/// and the call's telemetry is returned. It runs the probe loop from the
/// cache's bracket when it holds one, and the cold search after
/// [`WarmCache::invalidate`] (or on a fresh cache). Either way the
/// amounts are **bit-identical** to [`allocate`]'s on the same slice and
/// budget (see the module notes on the unique boundary pair); slow drift
/// between calls costs near-constant demand sweeps, and once the buffers
/// have grown to the instance a [`Fan::Seq`] call allocates nothing.
/// The utility sum is *not* computed.
///
/// `check` runs at iteration granularity: up front, before each demand
/// sweep, and before the leftover spread. Its first `Err` aborts the
/// allocation and is returned verbatim. A pooled `fan`'s token is
/// watched between those calls, and abandons unclaimed chunks when it
/// fires (reported as `check`'s diagnosis, or [`Interrupted`] if `check`
/// still says `Ok`). An abort leaves the cache without a bracket, so
/// the next call through it runs the cold search.
pub fn allocate_in<U, E>(
    utils: &[U],
    budget: f64,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
    fan: Fan<'_>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<WarmStats, E>
where
    U: Utility,
    E: From<Interrupted>,
{
    run(utils, budget, cache, amounts, true, fan, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_utility::{CappedLinear, LogUtility, PiecewiseLinear, Power, Utility};

    #[test]
    fn leftover_never_rounds_past_a_cap() {
        // `x + (c − x)` rounds one ulp above `c` for this pair; both the
        // proportional pass and the crumb pass must stop at `c`.
        let (x, c) = (8.217269452136533, 26.940290987191208);
        assert!(x + (c - x) > c);
        let mut amounts = [x];
        spread_leftover(&mut amounts, &[c], &[c], 1e3);
        assert_eq!(amounts[0].to_bits(), c.to_bits());
        let mut amounts = [x];
        spread_leftover(&mut amounts, &[x], &[c], 1e3);
        assert_eq!(amounts[0].to_bits(), c.to_bits());
    }

    #[test]
    fn empty_input() {
        let utils: Vec<Power> = vec![];
        let a = allocate(&utils, 5.0);
        assert!(a.amounts.is_empty());
        assert_eq!(a.utility, 0.0);
    }

    #[test]
    fn ample_budget_saturates_all_caps() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 4.0)),
            Box::new(LogUtility::new(2.0, 1.0, 6.0)),
        ];
        let a = allocate(&utils, 100.0);
        assert_eq!(a.amounts, vec![4.0, 6.0]);
    }

    #[test]
    fn identical_threads_split_evenly() {
        // Strictly concave identical utilities ⇒ optimal is the even split.
        let utils: Vec<Power> = (0..4).map(|_| Power::new(1.0, 0.5, 10.0)).collect();
        let a = allocate(&utils, 8.0);
        for &x in &a.amounts {
            assert!((x - 2.0).abs() < 1e-6, "expected even split, got {:?}", a.amounts);
        }
        assert!((a.total_allocated() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn budget_fully_used() {
        // Lemma V.3: nondecreasing utilities use the entire budget.
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 10.0)),
            Box::new(LogUtility::new(2.0, 1.0, 10.0)),
            Box::new(Power::new(3.0, 0.25, 10.0)),
        ];
        for budget in [0.5, 3.0, 12.0, 29.9] {
            let a = allocate(&utils, budget);
            assert!(
                (a.total_allocated() - budget).abs() < 1e-6,
                "budget {budget}: allocated {}",
                a.total_allocated()
            );
        }
    }

    #[test]
    fn respects_individual_caps() {
        let utils = vec![Power::new(100.0, 0.5, 1.0), Power::new(0.1, 0.5, 10.0)];
        let a = allocate(&utils, 5.0);
        assert!(a.amounts[0] <= 1.0 + 1e-9);
        // First thread is far more valuable: it saturates its cap.
        assert!((a.amounts[0] - 1.0).abs() < 1e-6);
        assert!((a.amounts[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equalizes_marginals_on_smooth_utilities() {
        let utils = vec![
            LogUtility::new(2.0, 1.0, 100.0),
            LogUtility::new(3.0, 0.5, 100.0),
            LogUtility::new(1.0, 2.0, 100.0),
        ];
        let a = allocate(&utils, 30.0);
        // Interior optimum: derivatives equal across threads with x > 0.
        let d: Vec<f64> = utils
            .iter()
            .zip(&a.amounts)
            .map(|(f, &x)| f.derivative(x))
            .collect();
        for w in d.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-4, "marginals not equal: {d:?}");
        }
    }

    #[test]
    fn linear_tie_goes_somewhere_valid() {
        // Two identical linear threads: any split of the budget is
        // optimal; the allocator must use all of it and stay in caps.
        let utils = vec![
            CappedLinear::new(1.0, 5.0, 5.0),
            CappedLinear::new(1.0, 5.0, 5.0),
        ];
        let a = allocate(&utils, 6.0);
        assert!((a.total_allocated() - 6.0).abs() < 1e-9);
        assert!(a.amounts.iter().all(|&x| (0.0..=5.0 + 1e-9).contains(&x)));
        assert!((a.utility - 6.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_steeper_capped_linear() {
        // NP-hardness-style instance: capped linear with different knees.
        let utils = vec![
            CappedLinear::new(2.0, 3.0, 10.0),
            CappedLinear::new(1.0, 4.0, 10.0),
            CappedLinear::new(0.5, 6.0, 10.0),
        ];
        let a = allocate(&utils, 7.0);
        // Optimal: fill thread 0 to 3 (slope 2), thread 1 to 4 (slope 1).
        assert!((a.amounts[0] - 3.0).abs() < 1e-6);
        assert!((a.amounts[1] - 4.0).abs() < 1e-6);
        assert!(a.amounts[2] < 1e-6);
        assert!((a.utility - 10.0).abs() < 1e-6);
    }

    #[test]
    fn piecewise_linear_matches_exact_segment_greedy() {
        let utils = vec![
            PiecewiseLinear::new(&[(0.0, 0.0), (2.0, 6.0), (5.0, 9.0), (10.0, 10.0)]).unwrap(),
            PiecewiseLinear::new(&[(0.0, 0.0), (1.0, 4.0), (4.0, 7.0), (10.0, 8.5)]).unwrap(),
            PiecewiseLinear::new(&[(0.0, 0.0), (3.0, 3.0), (10.0, 4.0)]).unwrap(),
        ];
        for budget in [1.0, 4.5, 9.0, 15.0, 25.0] {
            let a = allocate(&utils, budget);
            let exact = crate::segment::allocate_piecewise(&utils, budget);
            assert!(
                (a.utility - exact.utility).abs() < 1e-6 * exact.utility.max(1.0),
                "budget {budget}: bisection {} vs exact {}",
                a.utility,
                exact.utility
            );
        }
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let utils = vec![Power::new(1.0, 0.5, 10.0)];
        let a = allocate(&utils, 0.0);
        assert_eq!(a.amounts, vec![0.0]);
        assert_eq!(a.utility, 0.0);
    }

    #[test]
    fn infinite_derivative_at_zero_is_handled() {
        // Power with β < 1 has f'(0) = ∞; every thread must still get a
        // positive share for positive budget (optimal for such utilities).
        let utils: Vec<Power> = (0..5).map(|i| Power::new(1.0 + i as f64, 0.5, 10.0)).collect();
        let a = allocate(&utils, 10.0);
        assert!(a.amounts.iter().all(|&x| x > 0.0), "{:?}", a.amounts);
        assert!((a.total_allocated() - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "budget must be finite")]
    fn rejects_negative_budget() {
        allocate(&[Power::new(1.0, 0.5, 1.0)], -1.0);
    }

    /// [`allocate_in`] cold over fresh buffers, pooled with `token`,
    /// plus the index-order utility sum.
    pub(super) fn allocate_checked<U: Utility, E: From<Interrupted>>(
        utils: &[U],
        budget: f64,
        token: &CancelToken,
        check: &mut dyn FnMut() -> Result<(), E>,
    ) -> Result<Allocation, E> {
        let mut amounts = Vec::new();
        let fan = Fan::Pool(Some(token));
        allocate_in(utils, budget, &mut WarmCache::new(), &mut amounts, fan, check)?;
        let utility = utils.iter().zip(&amounts).map(|(f, &x)| f.value(x)).sum();
        Ok(Allocation { amounts, utility })
    }

    #[test]
    fn interruptible_with_quiet_check_is_bit_identical_to_allocate() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 10.0)),
            Box::new(LogUtility::new(2.0, 1.0, 10.0)),
            Box::new(Power::new(3.0, 0.25, 10.0)),
        ];
        for budget in [0.0, 0.5, 3.0, 12.0, 29.9, 100.0] {
            let plain = allocate(&utils, budget);
            let interruptible =
                allocate_checked(&utils, budget, &CancelToken::new(), &mut || {
                    Ok::<(), Interrupted>(())
                })
                .expect("quiet check never aborts");
            assert_eq!(plain.utility.to_bits(), interruptible.utility.to_bits());
            for (a, b) in plain.amounts.iter().zip(&interruptible.amounts) {
                assert_eq!(a.to_bits(), b.to_bits(), "budget {budget}");
            }
        }
    }

    #[test]
    fn counting_check_aborts_mid_bisection_with_the_callers_error() {
        #[derive(Debug, PartialEq)]
        enum E {
            Deadline,
            Marker,
        }
        impl From<Interrupted> for E {
            fn from(_: Interrupted) -> Self {
                E::Marker
            }
        }
        let utils: Vec<Power> = (0..16).map(|i| Power::new(1.0 + i as f64, 0.5, 10.0)).collect();
        // Exhaust "fuel" after a handful of checks: the search runs a
        // dozen or more sweeps, so this fires mid-search.
        let mut fuel = 5_u32;
        let result = allocate_checked(&utils, 40.0, &CancelToken::new(), &mut || {
            if fuel == 0 {
                Err(E::Deadline)
            } else {
                fuel -= 1;
                Ok(())
            }
        });
        assert_eq!(result, Err(E::Deadline));
    }

    #[test]
    fn immediately_failing_check_aborts_before_any_work() {
        let utils = vec![Power::new(1.0, 0.5, 10.0)];
        let result =
            allocate_checked(&utils, 5.0, &CancelToken::new(), &mut || Err(Interrupted));
        assert_eq!(result, Err(Interrupted));
    }
}

#[cfg(test)]
mod par_tests {
    use super::tests::allocate_checked;
    use super::*;
    use aa_utility::{LogUtility, Power, Utility};

    fn mixed_pool(n: usize) -> Vec<Box<dyn Utility + Send + Sync>> {
        (0..n)
            .map(|i| {
                let s = 0.5 + (i % 17) as f64 * 0.3;
                if i % 2 == 0 {
                    Box::new(Power::new(s, 0.6, 100.0)) as Box<dyn Utility + Send + Sync>
                } else {
                    Box::new(LogUtility::new(s, 0.4, 100.0))
                }
            })
            .collect()
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let utils = vec![Power::new(1.0, 0.5, 10.0), Power::new(2.0, 0.5, 10.0)];
        let a = rayon::with_threads(1, || allocate(&utils, 10.0));
        let b = allocate(&utils, 10.0);
        assert_eq!(a, b); // bit-identical: same code path
    }

    #[test]
    fn parallel_is_bit_identical_above_threshold() {
        // Above the threshold the parallel strategy actually runs; the
        // determinism contract promises *exact* equality, not closeness.
        let utils = mixed_pool(par_threshold() + 100);
        let budget = 0.3 * 100.0 * utils.len() as f64;
        let seq = rayon::with_threads(1, || allocate(&utils, budget));
        let par = allocate(&utils, budget);
        assert_eq!(seq.utility.to_bits(), par.utility.to_bits());
        assert_eq!(seq.amounts.len(), par.amounts.len());
        for (a, b) in seq.amounts.iter().zip(&par.amounts) {
            assert_eq!(a.to_bits(), b.to_bits(), "amounts diverged: {a} vs {b}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let utils = mixed_pool(par_threshold() + 37);
        let budget = 0.2 * 100.0 * utils.len() as f64;
        let reference = rayon::with_threads(1, || allocate(&utils, budget));
        for threads in [2, 4, 8] {
            let got = rayon::with_threads(threads, || allocate(&utils, budget));
            assert_eq!(reference, got, "{threads} threads");
        }
    }

    #[test]
    fn parallel_exhausts_budget() {
        let utils: Vec<Power> = (0..par_threshold() + 1)
            .map(|i| Power::new(1.0 + (i % 5) as f64, 0.5, 50.0))
            .collect();
        let budget = 10_000.0;
        let a = allocate(&utils, budget);
        assert!((a.total_allocated() - budget).abs() < 1e-3);
    }

    #[test]
    fn parallel_saturation_fast_path_matches() {
        // budget ≥ Σ caps takes the early-return branch in both paths.
        let utils = mixed_pool(par_threshold() + 3);
        let budget = 101.0 * utils.len() as f64;
        let seq = rayon::with_threads(1, || allocate(&utils, budget));
        let par = allocate(&utils, budget);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_interruptible_with_clear_token_is_bit_identical() {
        let utils = mixed_pool(par_threshold() + 51);
        let budget = 0.25 * 100.0 * utils.len() as f64;
        let plain = rayon::with_threads(1, || allocate(&utils, budget));
        let token = rayon::CancelToken::new();
        for threads in [1, 4] {
            let got = rayon::with_threads(threads, || {
                allocate_checked(&utils, budget, &token, &mut || {
                    Ok::<(), Interrupted>(())
                })
            })
            .expect("clear token never aborts");
            assert_eq!(plain.utility.to_bits(), got.utility.to_bits(), "{threads} threads");
            for (a, b) in plain.amounts.iter().zip(&got.amounts) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn par_interruptible_pre_cancelled_token_reports_interrupted() {
        // A token fired externally (no check of our own erring) surfaces
        // as the Interrupted marker, not a panic or a bogus allocation.
        let utils = mixed_pool(par_threshold() + 8);
        let token = rayon::CancelToken::new();
        token.cancel();
        let result = rayon::with_threads(4, || {
            allocate_checked(&utils, 500.0, &token, &mut || {
                Ok::<(), Interrupted>(())
            })
        });
        assert_eq!(result, Err(Interrupted));
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use aa_utility::{CappedLinear, LogUtility, Power, Utility};

    /// [`allocate_in`] on the calling thread, unchecked.
    fn warm<U: Utility>(
        utils: &[U],
        budget: f64,
        cache: &mut WarmCache,
        amounts: &mut Vec<f64>,
    ) -> WarmStats {
        expect_complete(allocate_in(utils, budget, cache, amounts, Fan::Seq, &mut || Ok(())))
    }

    fn pool(n: usize, scale_shift: f64) -> Vec<Box<dyn Utility>> {
        (0..n)
            .map(|i| {
                let s = 0.5 + (i % 13) as f64 * 0.4 + scale_shift;
                match i % 3 {
                    0 => Box::new(Power::new(s, 0.55, 80.0)) as Box<dyn Utility>,
                    1 => Box::new(LogUtility::new(s, 0.3, 80.0)),
                    _ => Box::new(CappedLinear::new(s, 30.0 + (i % 5) as f64, 80.0)),
                }
            })
            .collect()
    }

    /// Sweeps of the reference halving on a market — growth from
    /// `[0, 1]`, halvings until the bracket collapses, then one or two
    /// epilogue maps: what a cold search cost before its close was
    /// bounded, and the yardstick the warm path is held to.
    fn halving_maps<U: Utility>(utils: &[U], budget: f64) -> u32 {
        let mut table = DemandTable::new();
        table.compile(utils);
        let m = Market {
            table: &table,
            utils,
            rows: None,
            fan: Fan::Seq,
            supply: budget,
            total_cap: utils.iter().map(|u| u.cap()).sum(),
        };
        let mut out = Vec::new();
        let mut maps = 0;
        let mut demand = |lambda: f64| {
            maps += 1;
            sweep(&m, lambda, &mut out).expect("no token")
        };
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while demand(hi) > budget {
            lo = hi;
            hi *= 2.0;
        }
        for _ in 0..MAX_ITERS {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if demand(mid) > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if budget - demand(hi) > 0.0 {
            demand(lo);
        }
        maps
    }

    fn assert_bits_eq(cold: &Allocation, warm: &[f64], ctx: &str) {
        assert_eq!(cold.amounts.len(), warm.len(), "{ctx}");
        for (i, (a, b)) in cold.amounts.iter().zip(warm).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: thread {i}: {a} vs {b}");
        }
    }

    #[test]
    fn first_call_replays_cold_bit_identically() {
        let utils = pool(40, 0.0);
        for budget in [0.0, 1.0, 37.5, 400.0, 1999.0] {
            let mut cache = WarmCache::new();
            let mut amounts = Vec::new();
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_eq!(stats.mode, WarmMode::Cold, "budget {budget}");
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
        }
    }

    #[test]
    fn ample_budget_saturates_without_searching() {
        let utils = pool(12, 0.0);
        let total_cap = 12.0 * 80.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        let stats = warm(&utils, total_cap + 1.0, &mut cache, &mut amounts);
        assert_eq!(stats.mode, WarmMode::Saturated);
        assert_eq!(stats.demand_maps, 0);
        assert_bits_eq(&allocate(&utils, total_cap + 1.0), &amounts, "saturated");
        assert!(cache.bracket().is_none(), "saturation must not pin a bracket");
    }

    #[test]
    fn repeat_solve_revalidates_with_two_maps() {
        let utils = pool(64, 0.0);
        let budget = 900.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, budget, &mut cache, &mut amounts);
        let stats = warm(&utils, budget, &mut cache, &mut amounts);
        assert_eq!(stats.mode, WarmMode::Revalidated);
        assert_eq!(stats.demand_maps, 2);
        assert_eq!(stats.iterations, 0);
        assert_bits_eq(&allocate(&utils, budget), &amounts, "revalidated");
    }

    #[test]
    fn drifting_utilities_refine_cheaply_and_match_cold() {
        // Kink-heavy pool (1/3 CappedLinear): the demand curve is a
        // staircase near the boundary, the adversarial case for the
        // secant. Warm must still beat the reference halving per epoch
        // and by ≥ 2× cumulatively — and stay bit-identical throughout.
        let budget = 700.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        let halving = {
            let utils = pool(48, 0.0);
            warm(&utils, budget, &mut cache, &mut amounts);
            halving_maps(&utils, budget)
        };
        let mut warm_total = 0;
        let epochs = 11;
        for epoch in 1..=epochs {
            // Small multiplicative drift in the utility scales each epoch.
            let utils = pool(48, 0.003 * epoch as f64);
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("epoch {epoch}"));
            assert_ne!(stats.mode, WarmMode::Cold, "epoch {epoch}: fell back to cold");
            assert!(
                stats.demand_maps < halving,
                "epoch {epoch}: warm used {} maps vs {} halving",
                stats.demand_maps,
                halving
            );
            warm_total += stats.demand_maps;
        }
        assert!(
            warm_total * 2 < halving * epochs,
            "warm total {warm_total} vs halving {halving}/epoch over {epochs} epochs"
        );
    }

    #[test]
    fn smooth_drift_is_near_constant_cost() {
        // Strictly concave smooth utilities: the damped secant closes in
        // on the boundary in a handful of probes; the residual cost is
        // bisecting the window where the demand *sum* is flat to fp
        // (per-thread drifts are sub-ulp of the sum), which is bounded
        // by the sum's ulp structure, not by the cold bracket — the
        // iteration count stays flat as the instance drifts.
        let smooth = |shift: f64| -> Vec<Box<dyn Utility>> {
            (0..48)
                .map(|i| {
                    let s = 0.5 + (i % 13) as f64 * 0.4 + shift;
                    if i % 2 == 0 {
                        Box::new(Power::new(s, 0.55, 80.0)) as Box<dyn Utility>
                    } else {
                        Box::new(LogUtility::new(s, 0.3, 80.0))
                    }
                })
                .collect()
        };
        let budget = 700.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&smooth(0.0), budget, &mut cache, &mut amounts);
        let halving = halving_maps(&smooth(0.0), budget);
        assert!(halving > 50, "the halving should be expensive ({halving} maps)");
        for epoch in 1..12 {
            let utils = smooth(0.003 * epoch as f64);
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("epoch {epoch}"));
            assert!(
                stats.demand_maps <= 36 && stats.demand_maps * 3 <= halving * 2,
                "epoch {epoch}: {} maps vs {halving} halving is not near-constant",
                stats.demand_maps
            );
        }
    }

    #[test]
    fn budget_drift_in_both_directions_matches_cold() {
        let utils = pool(32, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, 500.0, &mut cache, &mut amounts);
        for budget in [520.0, 480.0, 600.0, 300.0, 550.0] {
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
            assert_ne!(stats.mode, WarmMode::Cold, "budget {budget}");
        }
    }

    #[test]
    fn rescaling_across_the_price_floor_matches_cold() {
        // Scaling every utility by 10^k moves λ* by the same factor: long
        // walks both ways, and prices under WARM_MIN_PRICE, where the
        // cold search may stop short of collapsing and so answers itself.
        let budget = 300.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        for k in [0, 6, -6, -30, -40, 0, 12, -12, 0] {
            let utils: Vec<aa_utility::Scaled<Box<dyn Utility>>> = pool(24, 0.0)
                .into_iter()
                .map(|u| aa_utility::Scaled::new(u, 10f64.powi(k)))
                .collect();
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("scale 1e{k}"));
        }
    }

    #[test]
    fn thread_churn_keeps_identity() {
        // Add/remove threads between solves: the bracket survives because
        // revalidation maps the *new* slice, never cached per-thread data.
        let budget = 420.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&pool(40, 0.0), budget, &mut cache, &mut amounts);
        for n in [41, 39, 44, 36, 40] {
            let utils = pool(n, 0.001);
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("n {n}"));
        }
    }

    #[test]
    fn interruption_invalidates_and_next_call_recovers() {
        let utils = pool(24, 0.0);
        let budget = 300.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, budget, &mut cache, &mut amounts);
        assert!(cache.bracket().is_some());

        let mut fuel = 1_u32;
        let result = allocate_in(&utils, budget, &mut cache, &mut amounts, Fan::Seq, &mut || {
            if fuel == 0 {
                Err(Interrupted)
            } else {
                fuel -= 1;
                Ok(())
            }
        });
        assert_eq!(result, Err(Interrupted));
        assert!(cache.bracket().is_none(), "abort must invalidate the bracket");

        // Recovery: a quiet call replays cold and is still exact.
        let stats = warm(&utils, budget, &mut cache, &mut amounts);
        assert_eq!(stats.mode, WarmMode::Cold);
        assert_bits_eq(&allocate(&utils, budget), &amounts, "recovery");
    }

    #[test]
    fn saturated_epoch_between_tight_epochs_stays_exact() {
        let utils = pool(16, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        for budget in [200.0, 16.0 * 80.0 + 5.0, 210.0, 205.0] {
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
        }
    }

    #[test]
    fn steady_state_is_allocation_free_in_buffer_growth() {
        // Capacity proxy for the zero-allocation contract (the real
        // counting hook lives in the core arena test): after one warm-up
        // call, buffer capacities never change again.
        let utils = pool(50, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, 444.0, &mut cache, &mut amounts);
        let caps_before = (
            amounts.capacity(),
            cache.caps.capacity(),
            cache.d_lo.capacity(),
            cache.d_hi.capacity(),
            cache.d_probe.capacity(),
        );
        for budget in [444.0, 450.0, 440.0, 444.0] {
            warm(&utils, budget, &mut cache, &mut amounts);
        }
        let caps_after = (
            amounts.capacity(),
            cache.caps.capacity(),
            cache.d_lo.capacity(),
            cache.d_hi.capacity(),
            cache.d_probe.capacity(),
        );
        assert_eq!(caps_before, caps_after);
    }
}

#[cfg(test)]
mod relative_tests {
    use super::*;
    use aa_utility::{CappedLinear, Power};

    /// Run one `Relative(1e-3)` search from a point start; returns the
    /// landing and the sum of the buffer that holds `D` at its price.
    fn run<U: Utility>(utils: &[U], supply: f64, start: f64) -> (Landing, f64) {
        let mut table = DemandTable::new();
        table.compile(utils);
        let m = Market {
            table: &table,
            utils,
            rows: None,
            fan: Fan::Seq,
            supply,
            total_cap: utils.iter().map(|u| u.cap()).sum(),
        };
        let (mut lo, mut hi, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        let mut live = LiveRows::default();
        let mut d = Demands { lo: &mut lo, hi: &mut hi, probe: &mut probe, live: &mut live };
        let start = Bracket::at(start);
        let mut work = Work::default();
        let found = search(&m, start, None, Stop::Relative(1e-3), &mut d, &mut work, &mut || Ok(()));
        let landing = expect_complete(found).expect("relative searches always land");
        (landing, hi.iter().sum())
    }

    /// A start so low that `start · rel` underflows to zero (a carried
    /// price that converged onto the least subnormal) still walks up
    /// and lands instead of spinning on a zero step.
    #[test]
    fn an_upward_walk_from_an_underflowing_start_terminates() {
        let utils: Vec<Power> = (0..16).map(|i| Power::new(1.0 + 0.1 * i as f64, 0.5, 50.0)).collect();
        for start in [0.0, f64::from_bits(1), 1e-310] {
            let (l, held) = run(&utils, 400.0, start);
            assert_eq!(held, l.demand, "start {start}: buffer is not D(price)");
        }
    }

    #[test]
    fn relative_search_accepts_within_tolerance_from_either_side() {
        let utils: Vec<Power> = (0..32).map(|i| Power::new(1.0 + 0.1 * i as f64, 0.5, 50.0)).collect();
        let supply = 400.0;
        for start in [1e-4, 1.0, 1e4] {
            let (l, held) = run(&utils, supply, start);
            assert!(l.converged, "start {start}");
            assert!((l.demand - supply).abs() <= 1e-3 * supply, "start {start}: {}", l.demand);
            assert_eq!(held, l.demand, "start {start}: buffer is not D(price)");
            assert_eq!(l.bracket, Bracket::at(l.price));
        }
    }

    #[test]
    fn a_known_start_demand_within_tolerance_costs_no_sweep() {
        let utils: Vec<Power> = (0..8).map(|i| Power::new(1.0 + i as f64, 0.5, 50.0)).collect();
        let mut table = DemandTable::new();
        table.compile(&utils);
        let mut m = Market {
            table: &table,
            utils: &utils,
            rows: None,
            fan: Fan::Seq,
            supply: 0.0,
            total_cap: 400.0,
        };
        let mut hi = Vec::new();
        let at = sweep(&m, 0.2, &mut hi).expect("no token");
        m.supply = at * (1.0 + 5e-4);
        let (mut lo, mut probe, mut live) = (Vec::new(), Vec::new(), LiveRows::default());
        let mut d = Demands { lo: &mut lo, hi: &mut hi, probe: &mut probe, live: &mut live };
        let start = Bracket::at(0.2);
        let mut work = Work::default();
        let found = search(&m, start, Some(at), Stop::Relative(1e-3), &mut d, &mut work, &mut || {
            Ok::<(), Interrupted>(())
        });
        let l = found.unwrap().expect("relative searches always land");
        assert!(l.converged && l.price == 0.2 && l.demand == at, "{l:?}");
        assert_eq!(work, Work::default());
    }

    #[test]
    fn relative_search_over_a_demand_jump_settles_for_the_best_feasible_price() {
        // Demand is 10 up to λ = 1 and 0 past it: no price lands within
        // tolerance of 6.
        let utils = vec![CappedLinear::new(1.0, 5.0, 5.0), CappedLinear::new(1.0, 5.0, 5.0)];
        let (l, held) = run(&utils, 6.0, 0.3);
        assert!(!l.converged);
        assert!(l.price > 1.0 && l.bracket.lo <= 1.0, "{l:?}");
        assert_eq!(l.price, l.bracket.hi);
        assert_eq!((l.demand, held), (0.0, 0.0));
    }
}
