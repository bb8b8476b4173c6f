#![warn(missing_docs)]

//! # aa-core — the assign-and-allocate (AA) problem
//!
//! This crate implements the primary contribution of *"Utility Maximizing
//! Thread Assignment and Resource Allocation"* (Lai, Fan, Zhang, Liu —
//! IPDPS 2016): simultaneously assigning `n` threads to `m` homogeneous
//! servers (each holding `C` units of one resource) and allocating each
//! server's resource among its threads, to maximize total utility.
//!
//! Contents, mapped to the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`problem`] | §III — model, assignments, feasibility |
//! | [`superopt`] | Definition V.1 — the super-optimal allocation/bound |
//! | [`linearize`] | §V-A, Equation 1 — two-segment linearization |
//! | [`algo1`] | §V-B, Algorithm 1 — `O(mn² + n(log mC)²)` greedy |
//! | [`algo2`] | §VI, Algorithm 2 — `O(n(log mC)²)` sort + heap |
//! | [`heuristics`] | §VII — the UU / UR / RU / RR baselines |
//! | [`exact`] | used to certify the "99% of optimal" claims (§VII) |
//! | [`exact_bb`] | branch-and-bound exact solver (larger instances) |
//! | [`reduction`] | Theorem IV.1 — PARTITION → AA NP-hardness reduction |
//! | [`tightness`] | Theorem V.17 — the 5/6-ratio tight instance |
//! | [`solver`] | uniform [`Solver`] interface over all of the above, and the [`Algorithm`] registry |
//! | [`ablation`] | design-choice ablations (not in the paper) |
//! | [`refine`] | exact per-server re-split post-pass (not in the paper) |
//! | [`discrete`] | integer-unit allocations with optimal per-server rounding (not in the paper) |
//! | [`stats`] | fairness / balance diagnostics for assignments |
//! | [`hetero`] | §VIII future work: heterogeneous capacities |
//! | [`online`] | §VIII future work: drifting utilities, local repair |
//! | [`churn`] | cluster events (server loss/recovery, thread churn) and budgeted repair (not in the paper) |
//! | [`incremental`] | warm-started incremental Algorithm 2 for the online hot path (not in the paper) |
//!
//! Both approximation algorithms guarantee total utility at least
//! [`ALPHA`]` = 2(√2 − 1) ≈ 0.828` times the optimum (Theorems V.16 and
//! VI.1); in the paper's experiments — reproduced in `aa-experiments` —
//! they land above 97.5% of the super-optimal *upper bound* everywhere.

pub mod ablation;
pub mod algo1;
pub mod algo2;
pub mod budget;
pub mod churn;
pub mod discrete;
pub mod exact;
pub mod exact_bb;
pub mod fleet;
pub mod hetero;
pub mod heuristics;
pub mod incremental;
pub mod linearize;
pub mod online;
pub mod price;
pub mod problem;
pub mod reduction;
pub mod refine;
pub mod ring;
pub mod shard;
pub mod solver;
pub mod stats;
pub mod superopt;
pub mod tiered;
pub mod tightness;

pub use budget::Budget;
pub use churn::{ClusterEvent, MigrationBudget, Repair, RepairArena, RepairError, RepairReport};
pub use incremental::{IncrementalStats, SolveMode, WarmState};
pub use fleet::{
    Backoff, FleetRouter, FrameError, PendingEntry, PendingMap, RouteDecision,
};
pub use price::{PriceStats, PriceWarmState};
pub use problem::{Assignment, AssignmentError, Problem, ProblemBuilder, ProblemError};
pub use ring::Ring;
pub use shard::{
    BuildFn, Built, CompletionFn, ExitFn, Previous, ShardCompletion, ShardConfig, ShardError,
    ShardJob, ShardPool, StreamSolver, SubmitError, ThreadText,
};
pub use solver::{batch_seed, solve_batch, try_solve_batch, Algorithm, SolveError, Solver};
pub use tiered::{Degradation, Tier, TierOutcome, TierStatus, TieredSolve, TieredSolver};

/// The approximation ratio `α = 2(√2 − 1) ≈ 0.8284` guaranteed by
/// Algorithms 1 and 2 (Theorems V.16 and VI.1).
pub const ALPHA: f64 = 2.0 * (std::f64::consts::SQRT_2 - 1.0);

/// Workspace-wide absolute/relative tolerance for resource comparisons.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_matches_paper_value() {
        let alpha = std::hint::black_box(ALPHA);
        assert!(alpha > 0.828 && alpha < 0.829);
    }
}
