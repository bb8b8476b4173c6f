//! Extension (paper §VIII future work): heterogeneous server capacities.
//!
//! The paper's model assumes identical servers; real clusters rarely
//! oblige. This module generalizes Algorithm 2 to per-server capacities
//! `C_1 … C_m`:
//!
//! * the super-optimal budget becomes `Σ_j C_j` with per-thread cap
//!   `max_j C_j` (a thread can never exceed the largest server);
//! * Algorithm 2's fullest-server walk starts from the individual
//!   capacities; everything else is unchanged.
//!
//! No approximation ratio is claimed — the paper's Lemma V.7 counting
//! argument uses homogeneity — but the solution is always feasible,
//! reduces exactly to Algorithm 2 when all capacities are equal (the
//! same `ĉ` and the same placement, bit for bit: the budget is then
//! computed as `m·C`), and the benches show it stays close to the
//! (generalized) super-optimal bound empirically.

use std::sync::Arc;

use aa_allocator::bisection;
use aa_utility::num::approx_le;
use aa_utility::{DynUtility, Linearized, Utility};

use crate::algo2::Placement;
use crate::problem::CappedView;
use crate::EPS;

/// An AA instance with per-server capacities.
#[derive(Debug, Clone)]
pub struct HeteroProblem {
    capacities: Vec<f64>,
    threads: Vec<DynUtility>,
}

/// Error constructing a [`HeteroProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeteroError {
    /// No servers given.
    NoServers,
    /// A capacity is not positive and finite.
    BadCapacity,
    /// No threads given.
    NoThreads,
}

impl std::fmt::Display for HeteroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HeteroError::NoServers => "need at least one server",
            HeteroError::BadCapacity => "every capacity must be positive and finite",
            HeteroError::NoThreads => "need at least one thread",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HeteroError {}

impl HeteroProblem {
    /// Build from per-server capacities and thread utilities.
    pub fn new(capacities: Vec<f64>, threads: Vec<DynUtility>) -> Result<Self, HeteroError> {
        if capacities.is_empty() {
            return Err(HeteroError::NoServers);
        }
        if capacities.iter().any(|&c| !(c.is_finite() && c > 0.0)) {
            return Err(HeteroError::BadCapacity);
        }
        if threads.is_empty() {
            return Err(HeteroError::NoThreads);
        }
        Ok(HeteroProblem { capacities, threads })
    }

    /// Per-server capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Thread utilities.
    pub fn threads(&self) -> &[DynUtility] {
        &self.threads
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.capacities.len()
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// `true` when there are no threads (never for a built problem).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// The largest single-server capacity: the most any one thread can use.
    pub fn max_capacity(&self) -> f64 {
        self.capacities.iter().cloned().fold(f64::MIN, f64::max)
    }
}

/// A heterogeneous assignment (same layout as the homogeneous one).
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroAssignment {
    /// Server index per thread.
    pub server: Vec<usize>,
    /// Allocation per thread.
    pub amount: Vec<f64>,
}

impl HeteroAssignment {
    /// Total utility under the problem's thread models.
    pub fn total_utility(&self, problem: &HeteroProblem) -> f64 {
        self.amount
            .iter()
            .zip(problem.threads())
            .map(|(&c, f)| f.value(c))
            .sum()
    }

    /// Feasibility: indices valid, amounts nonnegative, per-server loads
    /// within the server's own capacity.
    pub fn validate(&self, problem: &HeteroProblem) -> Result<(), String> {
        if self.server.len() != problem.len() || self.amount.len() != problem.len() {
            return Err("length mismatch".into());
        }
        let mut loads = vec![0.0_f64; problem.servers()];
        for (i, (&j, &c)) in self.server.iter().zip(&self.amount).enumerate() {
            if j >= problem.servers() {
                return Err(format!("thread {i} on bad server {j}"));
            }
            if !(c.is_finite() && c >= 0.0) {
                return Err(format!("thread {i} has bad amount {c}"));
            }
            loads[j] += c;
        }
        for (j, (&l, &cap)) in loads.iter().zip(problem.capacities()).enumerate() {
            if !approx_le(l, cap, EPS) {
                return Err(format!("server {j} overloaded: {l} > {cap}"));
            }
        }
        Ok(())
    }
}

/// The generalized super-optimal bound: pooled budget `Σ C_j`, per-thread
/// cap `min(f.cap, max_j C_j)`. Still an upper bound on any feasible
/// assignment's utility, by the same argument as Lemma V.2. At equal
/// capacities the budget is `m·C`, as [`crate::superopt`] rounds it (a
/// sum of `m` copies of `C` can differ from `m·C` in the last bits), so
/// `ĉ` is Algorithm 2's bit for bit.
pub fn super_optimal(problem: &HeteroProblem) -> (Vec<f64>, f64) {
    let max_cap = problem.max_capacity();
    let views: Vec<CappedView> = problem
        .threads()
        .iter()
        .map(|f| CappedView::new(Arc::clone(f), f.cap().min(max_cap)))
        .collect();
    let caps = problem.capacities();
    let budget: f64 = if caps.iter().all(|&c| c == max_cap) {
        caps.len() as f64 * max_cap
    } else {
        caps.iter().sum()
    };
    let alloc = bisection::allocate(&views, budget);
    (alloc.amounts, alloc.utility)
}

/// Algorithm 2 generalized to heterogeneous capacities.
///
/// # Example
///
/// ```
/// use aa_core::hetero::{HeteroProblem, solve};
/// use aa_utility::Power;
/// use std::sync::Arc;
///
/// // One big box and one small one; the hungrier thread should land on
/// // the big box.
/// let hp = HeteroProblem::new(
///     vec![12.0, 3.0],
///     vec![
///         Arc::new(Power::new(5.0, 0.5, 12.0)),
///         Arc::new(Power::new(1.0, 0.5, 12.0)),
///     ],
/// )
/// .unwrap();
/// let a = solve(&hp);
/// a.validate(&hp).unwrap();
/// assert_eq!(a.server[0], 0); // valuable thread on the 12-unit server
/// ```
pub fn solve(problem: &HeteroProblem) -> HeteroAssignment {
    let (c_hat, _) = super_optimal(problem);
    let max_cap = problem.max_capacity();
    let gs: Vec<Linearized> = problem
        .threads()
        .iter()
        .zip(&c_hat)
        .map(|(f, &c)| Linearized::new(c, f.value(c), max_cap, f.value(0.0)))
        .collect();

    let mut placement = Placement::default();
    placement.sort_by_value(&gs);
    placement.sort_tail_by_density(&gs, problem.servers());
    let mut out = HeteroAssignment { server: Vec::new(), amount: Vec::new() };
    let caps = problem.capacities().iter().copied();
    placement
        .walk(caps, None, |i, cj| c_hat[i].min(cj), &mut out.server, &mut out.amount)
        .expect("an unbudgeted walk never fails");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use aa_utility::{CappedLinear, LogUtility, Power};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    #[test]
    fn equal_capacities_reduce_to_algo2() {
        let threads: Vec<DynUtility> = (0..7)
            .map(|i| arc(Power::new(1.0 + i as f64, 0.5, 6.0)))
            .collect();
        let hp = HeteroProblem::new(vec![6.0; 3], threads.clone()).unwrap();
        let ha = solve(&hp);
        ha.validate(&hp).unwrap();

        let p = crate::Problem::new(3, 6.0, threads).unwrap();
        let a = crate::algo2::solve(&p);
        assert!(
            (ha.total_utility(&hp) - a.total_utility(&p)).abs() < 1e-9,
            "hetero {} vs homo {}",
            ha.total_utility(&hp),
            a.total_utility(&p)
        );
    }

    #[test]
    fn respects_small_servers() {
        let hp = HeteroProblem::new(
            vec![1.0, 10.0],
            vec![arc(Power::new(5.0, 0.5, 10.0)), arc(Power::new(1.0, 0.5, 10.0))],
        )
        .unwrap();
        let a = solve(&hp);
        a.validate(&hp).unwrap();
        // The valuable thread takes the big server.
        assert_eq!(a.server[0], 1);
    }

    #[test]
    fn stays_near_generalized_bound() {
        let threads: Vec<DynUtility> = (0..10)
            .map(|i| match i % 3 {
                0 => arc(Power::new(1.0 + i as f64, 0.5, 8.0)),
                1 => arc(LogUtility::new(2.0 + i as f64, 1.0, 8.0)),
                _ => arc(CappedLinear::new(1.0 + i as f64 / 2.0, 3.0, 8.0)),
            })
            .collect();
        let hp = HeteroProblem::new(vec![8.0, 4.0, 2.0, 6.0], threads).unwrap();
        let (_, bound) = super_optimal(&hp);
        let got = solve(&hp).total_utility(&hp);
        assert!(got <= bound + 1e-9);
        // Empirically comfortably above α — but we only assert a softer
        // floor since no ratio is proven for the heterogeneous case.
        assert!(got >= 0.7 * bound, "got {got}, bound {bound}");
    }

    #[test]
    fn construction_validation() {
        assert_eq!(
            HeteroProblem::new(vec![], vec![arc(Power::new(1.0, 0.5, 1.0))]).unwrap_err(),
            HeteroError::NoServers
        );
        assert_eq!(
            HeteroProblem::new(vec![0.0], vec![arc(Power::new(1.0, 0.5, 1.0))]).unwrap_err(),
            HeteroError::BadCapacity
        );
        assert_eq!(
            HeteroProblem::new(vec![1.0], vec![]).unwrap_err(),
            HeteroError::NoThreads
        );
    }

    #[test]
    fn validate_catches_overload() {
        let hp = HeteroProblem::new(
            vec![2.0, 3.0],
            vec![arc(Power::new(1.0, 0.5, 3.0)), arc(Power::new(1.0, 0.5, 3.0))],
        )
        .unwrap();
        let bad = HeteroAssignment {
            server: vec![0, 0],
            amount: vec![1.5, 1.0],
        };
        assert!(bad.validate(&hp).is_err());
    }
}
