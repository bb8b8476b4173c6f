//! `aa-obs` — the workspace's observability substrate: structured
//! spans, a metrics registry, exporters and a leveled logger, all
//! dependency-free (`std` only) so every other crate can instrument
//! itself without dragging anything into the build.
//!
//! # Design contract
//!
//! The solver pipeline carries hard performance guarantees that this
//! crate must not erode:
//!
//! * **Bit-identity** — recording never touches solver arithmetic, so
//!   enabling a collector cannot change any output (pinned by the
//!   differential proptest in `aa-core/tests/obs_differential.rs`).
//! * **Zero allocation** — every record path (span push, counter inc,
//!   histogram observe) is allocation-free once its handle exists; the
//!   span buffer is preallocated at [`Collector::install`] time. The
//!   counting-allocator test in `aa-core/tests/arena_alloc.rs` measures
//!   a steady-state solve **with a live collector** and still asserts
//!   zero.
//! * **Overhead budget < 3 %** on the 64-server × 512-thread drift
//!   workload (gated by `aa-core/tests/obs_overhead.rs` in CI).
//!
//! # Three layers
//!
//! 1. [`trace`] — `span!("superopt")` RAII spans with enter/exit
//!    timestamps, parent links and thread ids, buffered by a global
//!    [`Collector`] that compiles down to a single atomic-load check
//!    when absent or disabled. Export with
//!    [`export::chrome_trace_json`] (`aa solve --trace out.json`).
//! 2. [`metrics`] — named [`Counter`]s / [`Gauge`]s / log-linear
//!    [`Histogram`]s in a [`Registry`]; the process-wide instance is
//!    [`global()`]. Export with [`export::prometheus_text`] /
//!    [`export::json_snapshot`] (`aa serve --metrics-addr/--metrics-dump`).
//! 3. [`log`] — `obs_info!`-family macros behind one leveled,
//!    format-switchable (`pretty`/`json`) stderr logger.
//!
//! Metric names follow `aa_<subsystem>_<name>[_<unit>]` with
//! `_total` for counters and `_micros` for µs-domain histograms; span
//! names are the pipeline stage names (DESIGN.md §9 has the full
//! taxonomy).

pub mod export;
pub mod log;
pub mod metrics;
pub mod trace;

pub use log::{init_logger, log_enabled, LogFormat, LogLevel};
pub use metrics::{
    Counter, FederatedHistogram, FederatedSnapshot, Gauge, Histogram, Metric, Registry, SloTracker,
};
pub use trace::{Collector, SpanArgs, SpanEvent, SpanGuard};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide metrics registry. Always available — recording
/// into it is independent of whether a [`Collector`] is installed;
/// instrumentation sites that should be free when observability is off
/// gate themselves on [`record_enabled`] instead.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// `true` iff a [`Collector`] is installed and enabled — the one-load
/// fast-path gate for solver-side instrumentation.
#[must_use]
pub fn record_enabled() -> bool {
    trace::recording()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("aa_obs_selftest_total").inc();
        assert!(global().counter("aa_obs_selftest_total").get() >= 1);
    }
}
