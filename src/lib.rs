#![warn(missing_docs)]

//! # aa — utility-maximizing thread assignment and resource allocation
//!
//! Facade crate for the workspace reproducing *"Utility Maximizing Thread
//! Assignment and Resource Allocation"* (Lai, Fan, Zhang, Liu — IPDPS
//! 2016). Re-exports the public API of every member crate under one roof:
//!
//! * [`utility`] — concave utility-function substrate;
//! * [`allocator`] — single-pool resource allocation (Fox greedy, Galil
//!   bisection);
//! * [`core`] — the AA problem, Algorithms 1 & 2, heuristics, exact
//!   solvers;
//! * [`workloads`] — the paper's Section VII synthetic workload generator;
//! * [`sim`] — trace-driven multicore-cache and cloud-hosting simulators;
//! * [`obs`] — observability substrate: spans, metrics registry,
//!   Prometheus/JSON/Chrome-trace exporters, leveled logging.
//!
//! ## Quickstart
//!
//! ```
//! use aa::core::{Problem, solver::{Solver, Algo2}};
//! use aa::utility::{Power, LogUtility};
//! use std::sync::Arc;
//!
//! // Two servers with 10 units of resource each, four threads.
//! let problem = Problem::builder(2, 10.0)
//!     .thread(Arc::new(Power::new(4.0, 0.5, 10.0)))
//!     .thread(Arc::new(Power::new(1.0, 0.9, 10.0)))
//!     .thread(Arc::new(LogUtility::new(3.0, 1.0, 10.0)))
//!     .thread(Arc::new(LogUtility::new(0.5, 2.0, 10.0)))
//!     .build()
//!     .unwrap();
//!
//! // Algorithm 2: 0.828-approximation in O(n (log mC)^2).
//! let solution = Algo2.solve(&problem);
//! let total = solution.total_utility(&problem);
//! assert!(total > 0.0);
//!
//! // Never worse than 82.8% of the super-optimal upper bound.
//! let bound = aa::core::superopt::super_optimal(&problem).utility;
//! assert!(total >= 0.828 * bound - 1e-9);
//! ```

pub use aa_allocator as allocator;
pub use aa_core as core;
pub use aa_obs as obs;
pub use aa_sim as sim;
pub use aa_utility as utility;
pub use aa_workloads as workloads;
