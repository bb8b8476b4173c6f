#![warn(missing_docs)]

//! # aa-utility — concave utility function substrate
//!
//! The AA problem ("Utility Maximizing Thread Assignment and Resource
//! Allocation", IPDPS 2016) models every thread by a *nonnegative,
//! nondecreasing, concave* utility function `f : [0, C] → ℝ≥0` mapping an
//! amount of allocated resource to the thread's performance. This crate is
//! the substrate every other crate in the workspace builds on:
//!
//! * the [`Utility`] trait — value, (right) derivative, domain cap, and the
//!   inverse-derivative query `x(λ) = sup { x : f′(x) ≥ λ }` used by the
//!   Galil-style bisection allocator in `aa-allocator`;
//! * concrete families: [`PiecewiseLinear`], [`Power`], [`LogUtility`],
//!   [`CappedLinear`], [`Linearized`] (the paper's Equation 1 two-segment
//!   function), and the monotone-cubic [`Pchip`] interpolant the workload
//!   generator uses in place of Matlab's `pchip`;
//! * the demand closed forms and the demand descriptions
//!   ([`DemandSink`]) the allocator's λ-search reads for live-row pins
//!   ([`demand::pinned`]) and the all-staircase ladder ([`DemandTable`]);
//! * shape validators ([`check`]) and the upper concave envelope
//!   ([`concave_envelope`]) used to concavify measured curves (e.g. cache
//!   miss-ratio curves from `aa-sim`);
//! * total-order float helpers ([`num`]) shared across the workspace.
//!
//! All functions are evaluated with plain `f64`; callers compare against
//! explicit tolerances. Functions clamp their argument to `[0, cap]`, so a
//! slightly-out-of-range query caused by floating point drift is safe.

pub mod capped;
pub mod check;
pub mod combinators;
pub mod demand;
pub mod envelope;
pub mod linearized;
pub mod log;
pub mod num;
pub mod pchip;
pub mod piecewise;
pub mod power;
pub mod spec;
pub mod traits;

pub use capped::CappedLinear;
pub use combinators::{Ceiling, Offset, Scaled, Sum};
pub use demand::{DemandSink, DemandTable};
pub use envelope::concave_envelope;
pub use linearized::Linearized;
pub use log::LogUtility;
pub use pchip::Pchip;
pub use piecewise::PiecewiseLinear;
pub use power::Power;
pub use spec::{SpecError, UtilitySpec};
pub use traits::{DynUtility, Utility};

/// Default absolute tolerance used by shape checks and allocation
/// comparisons throughout the workspace.
pub const EPS: f64 = 1e-9;
