//! Serializable utility descriptions.
//!
//! [`UtilitySpec`] is the on-disk / on-wire form of a utility function:
//! a tagged enum covering every family this crate ships, convertible into
//! a live [`DynUtility`] with [`UtilitySpec::build`]. It is what the
//! `aa-cli` tool reads from problem files and what deployments would
//! store in config. Validation happens at build time and returns the
//! underlying family's error rather than panicking, so untrusted files
//! fail gracefully.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::capped::CappedLinear;
use crate::linearized::Linearized;
use crate::log::LogUtility;
use crate::pchip::{Pchip, PchipError};
use crate::piecewise::{PiecewiseError, PiecewiseLinear};
use crate::power::Power;
use crate::traits::{DynUtility, Utility};

/// A serializable description of a concave utility function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum UtilitySpec {
    /// `scale · x^beta`, `beta ∈ (0, 1]`.
    Power {
        /// Multiplier `a ≥ 0`.
        scale: f64,
        /// Exponent `β ∈ (0, 1]`.
        beta: f64,
        /// Domain cap `C`.
        cap: f64,
    },
    /// `scale · ln(1 + rate·x)`.
    Log {
        /// Multiplier `a ≥ 0`.
        scale: f64,
        /// Curvature `b ≥ 0`.
        rate: f64,
        /// Domain cap `C`.
        cap: f64,
    },
    /// `slope · min(x, knee)`.
    CappedLinear {
        /// Initial slope `s ≥ 0`.
        slope: f64,
        /// Knee position in `[0, cap]`.
        knee: f64,
        /// Domain cap `C`.
        cap: f64,
    },
    /// Concave piecewise-linear breakpoints (validated on build).
    Piecewise {
        /// `(x, y)` breakpoints, `x` strictly increasing from 0.
        points: Vec<(f64, f64)>,
    },
    /// Monotone PCHIP through control points (validated on build).
    Pchip {
        /// `(x, y)` control points, `x` strictly increasing from 0.
        points: Vec<(f64, f64)>,
    },
    /// The Equation-1 two-segment linearization.
    Linearized {
        /// Linearization point `ĉ`.
        c_hat: f64,
        /// Value `f(ĉ)`.
        v_hat: f64,
        /// Domain cap `C`.
        cap: f64,
        /// `f(0)` (only relevant when `ĉ = 0`).
        floor: f64,
    },
}

/// Error from [`UtilitySpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A scalar parameter failed its family's contract.
    BadParameter(String),
    /// Piecewise breakpoints invalid.
    Piecewise(PiecewiseError),
    /// PCHIP control points invalid.
    Pchip(PchipError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            SpecError::Piecewise(e) => write!(f, "piecewise: {e}"),
            SpecError::Pchip(e) => write!(f, "pchip: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl UtilitySpec {
    /// Validate and build the live utility function.
    ///
    /// The scalar families' constructors panic on contract violations
    /// (programmer errors); file-driven callers get `Result`s instead, so
    /// the same checks are performed here up front.
    pub fn build(&self) -> Result<DynUtility, SpecError> {
        fn require(ok: bool, msg: &str) -> Result<(), SpecError> {
            if ok {
                Ok(())
            } else {
                Err(SpecError::BadParameter(msg.to_string()))
            }
        }
        fn finite(values: &[f64]) -> Result<(), SpecError> {
            require(
                values.iter().all(|v| v.is_finite()),
                "parameters must be finite",
            )
        }

        match self {
            UtilitySpec::Power { scale, beta, cap } => {
                finite(&[*scale, *beta, *cap])?;
                require(*beta > 0.0 && *beta <= 1.0, "beta must be in (0, 1]")?;
                require(*scale >= 0.0, "scale must be nonnegative")?;
                require(*cap >= 0.0, "cap must be nonnegative")?;
                Ok(Arc::new(Power::new(*scale, *beta, *cap)))
            }
            UtilitySpec::Log { scale, rate, cap } => {
                finite(&[*scale, *rate, *cap])?;
                require(*scale >= 0.0, "scale must be nonnegative")?;
                require(*rate >= 0.0, "rate must be nonnegative")?;
                require(*cap >= 0.0, "cap must be nonnegative")?;
                Ok(Arc::new(LogUtility::new(*scale, *rate, *cap)))
            }
            UtilitySpec::CappedLinear { slope, knee, cap } => {
                finite(&[*slope, *knee, *cap])?;
                require(*slope >= 0.0, "slope must be nonnegative")?;
                require(
                    (0.0..=*cap).contains(knee),
                    "knee must lie in [0, cap]",
                )?;
                Ok(Arc::new(CappedLinear::new(*slope, *knee, *cap)))
            }
            UtilitySpec::Piecewise { points } => PiecewiseLinear::new(points)
                .map(|f| Arc::new(f) as DynUtility)
                .map_err(SpecError::Piecewise),
            UtilitySpec::Pchip { points } => Pchip::new(points)
                .map(|f| Arc::new(f) as DynUtility)
                .map_err(SpecError::Pchip),
            UtilitySpec::Linearized { c_hat, v_hat, cap, floor } => {
                finite(&[*c_hat, *v_hat, *cap, *floor])?;
                require(
                    (0.0..=*cap).contains(c_hat),
                    "c_hat must lie in [0, cap]",
                )?;
                require(*v_hat >= 0.0, "v_hat must be nonnegative")?;
                require(*floor >= 0.0, "floor must be nonnegative")?;
                Ok(Arc::new(Linearized::new(*c_hat, *v_hat, *cap, *floor)))
            }
        }
    }

    /// [`build`](Self::build), but reuse `previous` when it is exactly
    /// what this spec builds ([`Utility::matches_spec`]). The reused
    /// object is the same [`Arc`], so caches keyed on its identity (the
    /// incremental solver's, the price backend's demand rows) stay hot.
    pub fn build_reusing(&self, previous: Option<&DynUtility>) -> Result<DynUtility, SpecError> {
        match previous {
            Some(prev) if prev.matches_spec(self) => Ok(Arc::clone(prev)),
            _ => self.build(),
        }
    }
}

/// Bitwise equality of two parameter lists: the comparison behind every
/// [`Utility::matches_spec`](crate::Utility::matches_spec) (`-0.0` is
/// not `0.0`; a NaN matches only its own bit pattern).
pub(crate) fn same_bits(stored: &[f64], spec: &[f64]) -> bool {
    stored.len() == spec.len() && stored.iter().zip(spec).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Whether knot columns `xs`, `ys` hold exactly `points`, bit for bit.
pub(crate) fn same_points(xs: &[f64], ys: &[f64], points: &[(f64, f64)]) -> bool {
    xs.len() == points.len()
        && xs.iter().zip(ys).zip(points).all(|((x, y), (px, py))| {
            x.to_bits() == px.to_bits() && y.to_bits() == py.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_builds() {
        let specs = vec![
            UtilitySpec::Power { scale: 2.0, beta: 0.5, cap: 10.0 },
            UtilitySpec::Log { scale: 1.0, rate: 2.0, cap: 10.0 },
            UtilitySpec::CappedLinear { slope: 1.5, knee: 4.0, cap: 10.0 },
            UtilitySpec::Piecewise {
                points: vec![(0.0, 0.0), (5.0, 5.0), (10.0, 7.0)],
            },
            UtilitySpec::Pchip {
                points: vec![(0.0, 0.0), (5.0, 3.0), (10.0, 4.0)],
            },
            UtilitySpec::Linearized { c_hat: 4.0, v_hat: 8.0, cap: 10.0, floor: 0.0 },
        ];
        for spec in specs {
            let f = spec.build().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(f.cap(), 10.0);
            assert!(f.value(10.0) >= 0.0);
        }
    }

    #[test]
    fn bad_parameters_are_errors_not_panics() {
        let bad = vec![
            UtilitySpec::Power { scale: 1.0, beta: 2.0, cap: 10.0 }, // convex
            UtilitySpec::CappedLinear { slope: 1.0, knee: 20.0, cap: 10.0 },
            UtilitySpec::Piecewise { points: vec![(0.0, 0.0)] },
            UtilitySpec::Pchip { points: vec![(1.0, 0.0), (2.0, 1.0)] },
            UtilitySpec::Linearized { c_hat: -1.0, v_hat: 1.0, cap: 10.0, floor: 0.0 },
        ];
        for spec in bad {
            assert!(spec.build().is_err(), "{spec:?} should fail");
        }
    }

    #[test]
    fn built_functions_match_direct_construction() {
        let spec = UtilitySpec::Power { scale: 2.0, beta: 0.5, cap: 16.0 };
        let f = spec.build().unwrap();
        let direct = Power::new(2.0, 0.5, 16.0);
        for x in [0.0, 1.0, 4.0, 16.0] {
            assert_eq!(f.value(x), direct.value(x));
        }
    }
}
