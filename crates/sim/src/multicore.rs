//! End-to-end multicore cache-partitioning pipeline.
//!
//! The full loop a real deployment would run:
//!
//! 1. **Profile** every thread once (Mattson stack distances → hit-ratio
//!    curve at all sizes);
//! 2. **Model** each thread's utility as weighted hits-per-access as a
//!    function of allocated ways, concavified with the upper concave
//!    envelope (the AA model requires concave utilities; measured curves
//!    are close but not exact — e.g. looping traces have cliffs);
//! 3. **Solve** the AA instance (any [`Solver`]);
//! 4. **Round** the continuous allocation to integer ways (floor +
//!    largest-remainder within each cache);
//! 5. **Measure** by actually simulating the partitioned caches.
//!
//! The gap between predicted (model) and measured (simulated) utility is
//! reported; integration tests bound it.

use aa_core::solver::Solver;
use aa_core::{Assignment, Problem};
use aa_utility::{concave_envelope, DynUtility};
use std::sync::Arc;

use crate::cache::simulate_partitioned;
use crate::mrc::stack_distances;
use crate::trace::Trace;

/// A machine with `cores` cores, each owning a shared cache of
/// `ways_per_cache` ways × `lines_per_way` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Multicore {
    /// Number of cores (the AA servers).
    pub cores: usize,
    /// Ways per per-core shared cache (the AA capacity `C`).
    pub ways_per_cache: usize,
    /// Cache lines per way.
    pub lines_per_way: usize,
}

/// Result of running the pipeline with one solver.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// Core each thread was placed on.
    pub core: Vec<usize>,
    /// Integer ways each thread received.
    pub ways: Vec<usize>,
    /// Utility the model predicted for the rounded partition.
    pub predicted: f64,
    /// Utility measured by simulating the partitioned caches.
    pub measured: f64,
}

impl Multicore {
    /// Profile the traces and build the AA problem: one concave
    /// hits-per-access utility per thread, domain `[0, ways_per_cache]`.
    ///
    /// Thread `i`'s utility is scaled by its access count (hits per 1000
    /// total accesses), so memory-hungry threads weigh more — the model a
    /// throughput-maximizing partitioner wants.
    pub fn build_problem(&self, traces: &[Trace]) -> Problem {
        assert!(!traces.is_empty(), "need at least one thread");
        let utilities: Vec<DynUtility> = traces
            .iter()
            .map(|t| {
                let mrc = stack_distances(t);
                let weight = t.len() as f64 / 1000.0;
                let pts: Vec<(f64, f64)> = (0..=self.ways_per_cache)
                    .map(|w| {
                        (
                            w as f64,
                            weight * mrc.hit_ratio(w * self.lines_per_way) * 1000.0,
                        )
                    })
                    .collect();
                Arc::new(
                    concave_envelope(&pts).expect("hit curves are valid envelope input"),
                ) as DynUtility
            })
            .collect();
        Problem::new(self.cores, self.ways_per_cache as f64, utilities)
            .expect("machine parameters are positive")
    }

    /// Round a continuous assignment to integer ways, per core: floor
    /// every allocation, then hand the ways freed by flooring to the
    /// largest fractional remainders (never exceeding the cache).
    pub fn round_ways(&self, problem: &Problem, assignment: &Assignment) -> Vec<usize> {
        let mut ways: Vec<usize> = assignment.amount.iter().map(|&c| c.floor() as usize).collect();
        for core in 0..self.cores {
            let members: Vec<usize> = (0..problem.len())
                .filter(|&i| assignment.server[i] == core)
                .collect();
            let used: usize = members.iter().map(|&i| ways[i]).sum();
            let mut spare = self.ways_per_cache.saturating_sub(used);
            // Largest fractional remainder first; ties toward lower index.
            let mut by_frac: Vec<usize> = members.clone();
            by_frac.sort_by(|&a, &b| {
                let fa = assignment.amount[a].fract();
                let fb = assignment.amount[b].fract();
                fb.total_cmp(&fa).then_with(|| a.cmp(&b))
            });
            for &i in &by_frac {
                if spare == 0 {
                    break;
                }
                if assignment.amount[i].fract() > 0.0 {
                    ways[i] += 1;
                    spare -= 1;
                }
            }
        }
        ways
    }

    /// Simulate the partitioned caches and report measured utility with
    /// the same weighting as the model (hits per 1000 total accesses).
    pub fn measure(&self, traces: &[Trace], core: &[usize], ways: &[usize]) -> f64 {
        let mut total = 0.0;
        for c in 0..self.cores {
            let members: Vec<usize> = (0..traces.len()).filter(|&i| core[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let group: Vec<&Trace> = members.iter().map(|&i| &traces[i]).collect();
            let group_ways: Vec<usize> = members.iter().map(|&i| ways[i]).collect();
            let sims = simulate_partitioned(&group, &group_ways, self.lines_per_way);
            for (sim, &i) in sims.iter().zip(&members) {
                let weight = traces[i].len() as f64 / 1000.0;
                total += weight * sim.hit_ratio() * 1000.0;
            }
        }
        total
    }

    /// Full pipeline with a given solver.
    pub fn evaluate<S: Solver + ?Sized>(&self, traces: &[Trace], solver: &S) -> PartitionOutcome {
        let problem = self.build_problem(traces);
        let assignment = solver.solve(&problem);
        assignment
            .validate(&problem)
            .expect("solver produced infeasible assignment");
        let ways = self.round_ways(&problem, &assignment);
        let rounded = Assignment {
            server: assignment.server.clone(),
            amount: ways.iter().map(|&w| w as f64).collect(),
        };
        rounded
            .validate(&problem)
            .expect("rounding stays within capacity");
        PartitionOutcome {
            core: assignment.server.clone(),
            predicted: rounded.total_utility(&problem),
            measured: self.measure(traces, &assignment.server, &ways),
            ways,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::solver::{Algo2, Rr, Solver};
    use aa_utility::Utility;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::trace::TraceSpec;

    fn machine() -> Multicore {
        Multicore {
            cores: 2,
            ways_per_cache: 8,
            lines_per_way: 8,
        }
    }

    fn mixed_traces(seed: u64) -> Vec<Trace> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            TraceSpec::Zipf { lines: 48, s: 1.1 }.generate(4000, &mut rng),
            TraceSpec::Zipf { lines: 24, s: 0.9 }.generate(4000, &mut rng),
            TraceSpec::Looping { lines: 20 }.generate(4000, &mut rng),
            TraceSpec::Streaming.generate(4000, &mut rng),
            TraceSpec::Zipf { lines: 96, s: 1.3 }.generate(4000, &mut rng),
        ]
    }

    #[test]
    fn problem_shape_matches_machine() {
        let m = machine();
        let traces = mixed_traces(1);
        let p = m.build_problem(&traces);
        assert_eq!(p.servers(), 2);
        assert_eq!(p.capacity(), 8.0);
        assert_eq!(p.len(), 5);
        // Utilities live on [0, ways] and are nondecreasing.
        for f in p.threads() {
            assert_eq!(f.cap(), 8.0);
            assert!(f.value(8.0) >= f.value(2.0) - 1e-9);
        }
    }

    #[test]
    fn streaming_thread_has_zero_utility() {
        let m = machine();
        let traces = mixed_traces(2);
        let p = m.build_problem(&traces);
        // Thread 3 streams: caching buys nothing.
        assert!(p.threads()[3].value(8.0) < 1e-9);
    }

    #[test]
    fn rounding_respects_cache_size() {
        let m = machine();
        let traces = mixed_traces(3);
        let out = m.evaluate(&traces, &Algo2);
        let mut per_core = vec![0usize; m.cores];
        for (c, w) in out.core.iter().zip(&out.ways) {
            per_core[*c] += w;
        }
        for (c, &w) in per_core.iter().enumerate() {
            assert!(w <= m.ways_per_cache, "core {c} got {w} ways");
        }
    }

    #[test]
    fn prediction_matches_measurement_closely() {
        // The model is built from exact LRU profiles; at integer ways the
        // only slack is the concave envelope bridging, so predicted and
        // measured utilities agree within a small relative margin.
        let m = machine();
        let traces = mixed_traces(4);
        let out = m.evaluate(&traces, &Algo2);
        assert!(out.measured <= out.predicted + 1e-9, "envelope is an upper bound");
        assert!(
            out.measured >= 0.8 * out.predicted,
            "measured {} far below predicted {}",
            out.measured,
            out.predicted
        );
    }

    #[test]
    fn algo2_beats_random_heuristic_on_measured_throughput() {
        let m = machine();
        let traces = mixed_traces(5);
        let smart = m.evaluate(&traces, &Algo2);
        let dumb = m.evaluate(&traces, &Rr);
        assert!(
            smart.measured >= dumb.measured,
            "algo2 measured {} < rr measured {}",
            smart.measured,
            dumb.measured
        );
    }

    #[test]
    fn outcome_is_deterministic_for_deterministic_solver() {
        let m = machine();
        let traces = mixed_traces(6);
        let a = m.evaluate(&traces, &Algo2);
        let b = m.evaluate(&traces, &Algo2);
        assert_eq!(a, b);
    }

    #[test]
    fn solver_trait_object_works() {
        let m = machine();
        let traces = mixed_traces(7);
        let s: Box<dyn Solver> = Box::new(Algo2);
        let out = m.evaluate(&traces, s.as_ref());
        assert!(out.measured > 0.0);
    }
}
