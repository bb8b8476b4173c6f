#![warn(missing_docs)]

//! # aa-sim — application substrates for end-to-end AA evaluation
//!
//! The paper motivates AA with three deployment domains: shared-cache
//! multicores, web hosting centers, and cloud VM placement. This crate
//! builds executable versions of the first and last so the solver can be
//! exercised end-to-end — from raw measurements to utility models to an
//! assignment whose quality is then *measured*, not just predicted:
//!
//! * [`trace`] — synthetic memory reference traces (Zipf, looping,
//!   streaming) standing in for the proprietary workload traces a
//!   production system would profile;
//! * [`mrc`] — Mattson's stack algorithm: one pass over a trace yields the
//!   LRU miss ratio at *every* cache size simultaneously;
//! * [`cache`] — a way-partitioned shared LRU cache: simulate the actual
//!   misses each thread suffers under a concrete partition;
//! * [`multicore`] — the full pipeline: profile threads → build concave
//!   utilities (hits/access through the concave envelope) → solve AA →
//!   round to integer ways → run the partitioned simulation and report
//!   measured throughput;
//! * [`hosting`] — a revenue model for hosting centers / cloud providers:
//!   services with diminishing-returns revenue curves, hosts with fixed
//!   capacity, revenue accounting for an assignment;
//! * [`controller`] — an epoch-driven online repartitioning controller
//!   (the §VIII "online measurements" sketch, executable);
//! * [`chaos`] — seeded kill/stall/panic storms against the shard pool,
//!   asserting liveness, exactly-once completion, and post-restart
//!   warm-latency recovery.
//!
//! Everything here is built from scratch; no external simulator is
//! required (see DESIGN.md's substitution table).

pub mod cache;
pub mod chaos;
pub mod controller;
pub mod faults;
pub mod hosting;
pub mod mrc;
pub mod multicore;
pub mod trace;

pub use chaos::{
    analyze_fleet, balanced_keys, run_chaos, ChaosConfig, ChaosReport, FleetChaosConfig,
    FleetChaosReport, FleetObservation, FleetObservations, ProcessChaosPlan, ProcessFault,
};
pub use controller::{Controller, EpochReport, RepairPolicy};
pub use multicore::{Multicore, PartitionOutcome};
pub use trace::{Trace, TraceSpec};
