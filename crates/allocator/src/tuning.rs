//! Workspace-wide performance tunables.
//!
//! Every stage that fans per-element work out over the pool (bisection
//! demand sweeps, linearization, the price-discovery demand sweeps)
//! gates on the one crossover, [`par_threshold`], so the stages cannot
//! silently diverge.
//!
//! The threshold only gates *scheduling* (whether a sweep fans out);
//! the vendored pool's determinism contract keeps results bit-identical
//! on both sides of the crossover, so it can never change an answer —
//! only wall-clock time.

/// Element-count threshold past which per-element sweeps fan out over
/// the thread pool. Below it the sequential path is faster (fork-join
/// overhead exceeds the work).
///
/// Re-audited once closed-form inverses cut per-element cost — most
/// sharply for PCHIP, whose closed form replaced an inner per-element
/// bisection — which *raises* the relative weight of fork-join overhead
/// and pushes the true crossover up, not down. 4096 therefore remains a
/// safe floor; the bench field `kernel_sweep_micros` (one sequential
/// λ-search sweep) exists to re-measure it on real multi-core hosts.
pub fn par_threshold() -> usize {
    4096
}
