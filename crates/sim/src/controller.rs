//! An epoch-driven partition controller: the paper's §VIII "integrate
//! online performance measurements" sketch, made executable.
//!
//! Time is divided into epochs. At the end of each epoch the controller
//! re-profiles what the threads *actually did* (Mattson pass over the
//! epoch's accesses), rebuilds the utility model, and — depending on its
//! [`RepairPolicy`] — repairs the partition for the next epoch:
//!
//! * `Never` — profile once, keep the initial partition forever;
//! * `InPlace` — re-split each cache among its current threads (zero
//!   migrations, the `aa_core::online` guarantee applies to the model);
//! * `Migrations(k)` — additionally move up to `k` threads per epoch;
//! * `Resolve` — full Algorithm 2 from scratch each epoch (migration
//!   count unbounded).
//!
//! Every epoch is *measured* by simulating the partitioned caches on the
//! epoch's real accesses, so the report shows causal, end-to-end
//! throughput — the controller only ever sees the past.

use aa_core::online::improve_with_migrations;
use aa_core::refine::refine_allocation;
use aa_core::solver::Solver;
use aa_core::Assignment;
use serde::{Deserialize, Serialize};

use crate::multicore::Multicore;
use crate::trace::Trace;

/// What the controller does between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// Keep the initial partition forever.
    Never,
    /// Re-split allocations in place each epoch (no migrations).
    InPlace,
    /// In-place re-split plus up to this many migrations per epoch.
    Migrations(usize),
    /// Re-solve from scratch each epoch.
    Resolve,
}

/// Per-epoch outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Measured utility (weighted hits) of this epoch under the partition
    /// in force.
    pub measured: f64,
    /// Threads whose core changed entering this epoch.
    pub migrations: usize,
    /// The solve that was supposed to produce this epoch's plan failed;
    /// the epoch ran on the fallback (epoch 0) or the previous plan.
    pub solve_error: Option<String>,
}

/// The controller: machine + policy.
#[derive(Debug, Clone, Copy)]
pub struct Controller {
    /// The machine being managed.
    pub machine: Multicore,
    /// Repair policy between epochs.
    pub policy: RepairPolicy,
}

impl Controller {
    /// Run `epochs` epochs over the traces (each trace is cut into
    /// `epochs` equal windows; window `e` is what its thread does during
    /// epoch `e`). Returns one report per epoch.
    ///
    /// The initial partition is solved from epoch 0's profile with
    /// `solver`; subsequent repairs always use the *previous* epoch's
    /// profile (the controller cannot see the future).
    ///
    /// A failing solve never aborts the run: the typed [`SolveError`]
    /// lands in that epoch's [`EpochReport::solve_error`] and the epoch
    /// runs on the best plan available — the zero-allocation fallback if
    /// the initial solve failed, otherwise the previous epoch's plan.
    ///
    /// [`SolveError`]: aa_core::SolveError
    pub fn run<S: Solver + ?Sized>(
        &self,
        traces: &[Trace],
        epochs: usize,
        solver: &S,
    ) -> Vec<EpochReport> {
        let _span = aa_obs::span!("controller_run");
        assert!(epochs >= 1, "need at least one epoch");
        assert!(!traces.is_empty(), "need at least one thread");
        let windows: Vec<Vec<Trace>> = (0..epochs)
            .map(|e| traces.iter().map(|t| window(t, e, epochs)).collect())
            .collect();

        // Initial plan from epoch 0's profile. The warm state persists
        // across epochs so warm-capable solvers (`Algo2` routes through
        // the incremental engine) reuse their solver arena; answers are
        // bit-identical to the cold path by the engine's contract, and
        // solvers without a warm path fall back to `try_solve`.
        let mut warm = aa_core::WarmState::new();
        let mut problem = self.machine.build_problem(&windows[0]);
        let (mut plan, mut pending_error) = match solver.try_solve_warm(&problem, &mut warm) {
            Ok(p) => (p, None),
            Err(e) => (Assignment::trivial(traces.len()), Some(e.to_string())),
        };

        let mut reports = Vec::with_capacity(epochs);
        let mut prev_cores = plan.server.clone();
        for (e, epoch_traces) in windows.iter().enumerate() {
            // Measure this epoch under the current plan.
            let ways = self.machine.round_ways(&problem, &plan);
            let measured = self.machine.measure(epoch_traces, &plan.server, &ways);
            let migrations = plan
                .server
                .iter()
                .zip(&prev_cores)
                .filter(|(a, b)| a != b)
                .count();
            if aa_obs::record_enabled() {
                let (epochs_c, migrations_c, errors_c) = controller_counters();
                epochs_c.inc();
                migrations_c.add(migrations as u64);
                if pending_error.is_some() {
                    errors_c.inc();
                }
            }
            reports.push(EpochReport {
                epoch: e,
                measured,
                migrations,
                solve_error: pending_error.take(),
            });
            prev_cores = plan.server.clone();

            // Repair for the next epoch using *this* epoch's profile.
            if e + 1 < epochs {
                problem = self.machine.build_problem(epoch_traces);
                plan = match self.policy {
                    RepairPolicy::Never => plan,
                    RepairPolicy::InPlace => refine_allocation(&problem, &plan),
                    RepairPolicy::Migrations(k) => {
                        improve_with_migrations(&problem, &plan, k)
                    }
                    // A failed re-solve keeps the previous plan: the
                    // machine shape is fixed, so it stays feasible.
                    RepairPolicy::Resolve => match solver.try_solve_warm(&problem, &mut warm) {
                        Ok(p) => p,
                        Err(err) => {
                            pending_error = Some(err.to_string());
                            plan
                        }
                    },
                };
                plan.validate(&problem).expect("repair keeps feasibility");
            }
        }
        reports
    }
}

/// Registry handles for the controller counters
/// (`aa_sim_controller_{epochs,migrations,solve_errors}_total`).
fn controller_counters() -> &'static (aa_obs::Counter, aa_obs::Counter, aa_obs::Counter) {
    static HANDLES: std::sync::OnceLock<(aa_obs::Counter, aa_obs::Counter, aa_obs::Counter)> =
        std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        (
            r.counter("aa_sim_controller_epochs_total"),
            r.counter("aa_sim_controller_migrations_total"),
            r.counter("aa_sim_controller_solve_errors_total"),
        )
    })
}

/// Window `e` of `epochs` equal slices of a trace.
fn window(trace: &Trace, e: usize, epochs: usize) -> Trace {
    let len = trace.len();
    let start = len * e / epochs;
    let end = len * (e + 1) / epochs;
    Trace {
        accesses: trace.accesses[start..end].to_vec(),
    }
}

/// Total measured utility over a run.
pub fn total_measured(reports: &[EpochReport]) -> f64 {
    reports.iter().map(|r| r.measured).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::solver::Algo2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::trace::TraceSpec;

    fn machine() -> Multicore {
        Multicore { cores: 2, ways_per_cache: 8, lines_per_way: 8 }
    }

    /// Smooth (Zipf) threads whose hot sets swap halfway through: a clear
    /// phase change without envelope cliffs.
    fn drifting_traces(seed: u64) -> Vec<Trace> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = Vec::new();
        for i in 0..4 {
            let small = TraceSpec::Zipf { lines: 16, s: 1.2 }.generate(4000, &mut rng);
            let big = TraceSpec::Zipf { lines: 160 + 20 * i, s: 1.2 }.generate(4000, &mut rng);
            // Half small-hot-set, half big (shifted ids → new working set).
            let mut acc = small.accesses;
            acc.extend(big.accesses.iter().map(|&l| l + 1000));
            ts.push(Trace { accesses: acc });
        }
        ts
    }

    #[test]
    fn reports_cover_every_epoch() {
        let c = Controller { machine: machine(), policy: RepairPolicy::InPlace };
        let reports = c.run(&drifting_traces(1), 4, &Algo2);
        assert_eq!(reports.len(), 4);
        for (e, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, e);
            assert!(r.measured >= 0.0);
        }
    }

    #[test]
    fn never_and_in_place_policies_do_not_migrate() {
        for policy in [RepairPolicy::Never, RepairPolicy::InPlace] {
            let c = Controller { machine: machine(), policy };
            let reports = c.run(&drifting_traces(2), 4, &Algo2);
            assert!(reports.iter().all(|r| r.migrations == 0), "{policy:?}");
        }
    }

    #[test]
    fn migration_budget_is_respected() {
        let c = Controller { machine: machine(), policy: RepairPolicy::Migrations(2) };
        let reports = c.run(&drifting_traces(3), 5, &Algo2);
        for r in &reports {
            assert!(r.migrations <= 2, "epoch {} moved {}", r.epoch, r.migrations);
        }
    }

    #[test]
    fn repair_recovers_utility_after_the_phase_change() {
        // The working sets change at epoch 2 of 4; a controller that
        // repairs should beat one that never does, measured end to end.
        let traces = drifting_traces(4);
        let stale = Controller { machine: machine(), policy: RepairPolicy::Never }
            .run(&traces, 4, &Algo2);
        let repair = Controller { machine: machine(), policy: RepairPolicy::InPlace }
            .run(&traces, 4, &Algo2);
        assert!(
            total_measured(&repair) >= total_measured(&stale) - 1e-9,
            "repair {} vs stale {}",
            total_measured(&repair),
            total_measured(&stale)
        );
    }

    #[test]
    fn resolve_is_deterministic() {
        let traces = drifting_traces(5);
        let c = Controller { machine: machine(), policy: RepairPolicy::Resolve };
        let a = c.run(&traces, 3, &Algo2);
        let b = c.run(&traces, 3, &Algo2);
        assert_eq!(a, b);
    }

    #[test]
    fn single_epoch_is_just_the_solver() {
        let traces = drifting_traces(6);
        let c = Controller { machine: machine(), policy: RepairPolicy::Resolve };
        let reports = c.run(&traces, 1, &Algo2);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].migrations, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one epoch")]
    fn rejects_zero_epochs() {
        let c = Controller { machine: machine(), policy: RepairPolicy::Never };
        c.run(&drifting_traces(7), 0, &Algo2);
    }

    /// A solver that fails on every `try_solve` call.
    struct AlwaysFails;

    impl Solver for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }
        fn solve_with(
            &self,
            _problem: &aa_core::Problem,
            _rng: &mut dyn rand::RngCore,
        ) -> Assignment {
            unreachable!("the controller must use the panic-free path")
        }
        fn try_solve_with(
            &self,
            problem: &aa_core::Problem,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<Assignment, aa_core::SolveError> {
            Err(aa_core::SolveError::TooLarge { threads: problem.len(), limit: 0 })
        }
    }

    #[test]
    fn failed_initial_solve_is_surfaced_not_fatal() {
        let c = Controller { machine: machine(), policy: RepairPolicy::Never };
        let reports = c.run(&drifting_traces(8), 3, &AlwaysFails);
        assert_eq!(reports.len(), 3);
        assert!(reports[0].solve_error.is_some(), "epoch 0 must carry the error");
        // `Never` does not re-solve, so later epochs are error-free.
        assert!(reports[1..].iter().all(|r| r.solve_error.is_none()));
        // The zero-allocation fallback measures zero utility but runs.
        assert!(reports.iter().all(|r| r.measured >= 0.0 && r.migrations == 0));
    }

    #[test]
    fn failed_resolve_keeps_previous_plan_and_records_the_error() {
        let c = Controller { machine: machine(), policy: RepairPolicy::Resolve };
        let reports = c.run(&drifting_traces(9), 3, &AlwaysFails);
        // Every epoch's plan came from a failed solve: epoch 0 from the
        // failed initial solve, later epochs from failed re-solves that
        // kept the (fallback) plan in force.
        assert!(reports.iter().all(|r| r.solve_error.is_some()), "{reports:?}");
        assert!(reports.iter().all(|r| r.migrations == 0));
    }

    #[test]
    fn healthy_solver_reports_no_epoch_errors() {
        let c = Controller { machine: machine(), policy: RepairPolicy::Resolve };
        let reports = c.run(&drifting_traces(10), 3, &Algo2);
        assert!(reports.iter().all(|r| r.solve_error.is_none()));
    }
}
