//! The AA problem model (paper §III) and assignments.
//!
//! An instance consists of `m` homogeneous servers with `C` resources each
//! and `n` threads, each modeled by a concave utility function. A solution
//! — called an *assignment*, covering both placement and allocation, as in
//! the paper — maps every thread to a server and gives it a resource
//! amount, such that no server's total exceeds `C`.

use std::sync::Arc;

use aa_utility::num::{approx_le, clamp};
use aa_utility::{DynUtility, Utility};

use crate::EPS;

/// Error constructing a [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// `m = 0` servers.
    NoServers,
    /// Capacity is not a positive finite number.
    BadCapacity,
    /// No threads were added.
    NoThreads,
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ProblemError::NoServers => "problem needs at least one server",
            ProblemError::BadCapacity => "server capacity must be positive and finite",
            ProblemError::NoThreads => "problem needs at least one thread",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ProblemError {}

/// An AA instance: `m` servers with capacity `C` each, and one concave
/// utility function per thread.
#[derive(Debug, Clone)]
pub struct Problem {
    servers: usize,
    capacity: f64,
    threads: Vec<DynUtility>,
}

impl Problem {
    /// Start building a problem with `servers` servers of `capacity`
    /// resources each.
    pub fn builder(servers: usize, capacity: f64) -> ProblemBuilder {
        ProblemBuilder {
            servers,
            capacity,
            threads: Vec::new(),
        }
    }

    /// Build directly from a thread list.
    pub fn new(
        servers: usize,
        capacity: f64,
        threads: Vec<DynUtility>,
    ) -> Result<Self, ProblemError> {
        let mut b = Problem::builder(servers, capacity);
        b.threads = threads;
        b.build()
    }

    /// Number of servers `m`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Per-server resource capacity `C`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of threads `n`.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// `true` when there are no threads (never, for a built problem).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// The thread utility functions.
    pub fn threads(&self) -> &[DynUtility] {
        &self.threads
    }

    /// Utility of thread `i` at allocation `x` — clamped to the server
    /// capacity: a thread can never consume more than `C` even if its own
    /// function is defined further out.
    pub fn utility_of(&self, i: usize, x: f64) -> f64 {
        self.threads[i].value(clamp(x, 0.0, self.capacity))
    }

    /// The *effective cap* of thread `i`: `min(f_i.cap(), C)`.
    pub fn effective_cap(&self, i: usize) -> f64 {
        self.threads[i].cap().min(self.capacity)
    }

    /// A [`Utility`] view of thread `i` restricted to `[0, C]`; used by
    /// allocation subroutines so per-thread demands never exceed what a
    /// single server can provide.
    pub fn capped_thread(&self, i: usize) -> CappedView {
        CappedView::new(Arc::clone(&self.threads[i]), self.effective_cap(i))
    }

    /// All threads as capped views (order preserved).
    pub fn capped_threads(&self) -> Vec<CappedView> {
        (0..self.len()).map(|i| self.capped_thread(i)).collect()
    }

    /// Average threads per server, the paper's sweep parameter
    /// `β = n / m`.
    pub fn beta(&self) -> f64 {
        self.len() as f64 / self.servers as f64
    }
}

/// Builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    servers: usize,
    capacity: f64,
    threads: Vec<DynUtility>,
}

impl ProblemBuilder {
    /// Add one thread.
    pub fn thread(mut self, utility: DynUtility) -> Self {
        self.threads.push(utility);
        self
    }

    /// Add many threads.
    pub fn threads<I: IntoIterator<Item = DynUtility>>(mut self, utilities: I) -> Self {
        self.threads.extend(utilities);
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Problem, ProblemError> {
        if self.servers == 0 {
            return Err(ProblemError::NoServers);
        }
        if !(self.capacity.is_finite() && self.capacity > 0.0) {
            return Err(ProblemError::BadCapacity);
        }
        if self.threads.is_empty() {
            return Err(ProblemError::NoThreads);
        }
        Ok(Problem {
            servers: self.servers,
            capacity: self.capacity,
            threads: self.threads,
        })
    }
}

/// A thread utility restricted to the server capacity: behaves exactly like
/// the wrapped function but with `cap = min(f.cap(), C)`.
#[derive(Debug, Clone)]
pub struct CappedView {
    inner: DynUtility,
    cap: f64,
}

impl CappedView {
    /// `inner` restricted to `[0, cap]`.
    pub(crate) fn new(inner: DynUtility, cap: f64) -> CappedView {
        CappedView { inner, cap }
    }
}

impl Utility for CappedView {
    fn value(&self, x: f64) -> f64 {
        self.inner.value(clamp(x, 0.0, self.cap))
    }
    fn derivative(&self, x: f64) -> f64 {
        self.inner.derivative(clamp(x, 0.0, self.cap))
    }
    fn cap(&self) -> f64 {
        self.cap
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        self.inner.inverse_derivative(lambda).min(self.cap)
    }
    fn describe_demand(&self, sink: &mut aa_utility::DemandSink<'_>) {
        // Same `min(·, C)` post-step the dispatch path applies above.
        self.inner.describe_demand(sink);
        sink.post_min(self.cap);
    }
}

/// Error from [`Assignment::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentError {
    /// Vectors' lengths don't match the thread count.
    WrongLength {
        /// Thread count of the problem.
        expected: usize,
        /// Length found in the assignment.
        got: usize,
    },
    /// A thread names a server index ≥ m.
    BadServer {
        /// Offending thread.
        thread: usize,
        /// Out-of-range server index.
        server: usize,
    },
    /// A negative (or non-finite) allocation.
    BadAmount {
        /// Offending thread.
        thread: usize,
        /// The invalid amount.
        amount: f64,
    },
    /// Some server's allocations sum past its capacity.
    Overcommitted {
        /// Overloaded server.
        server: usize,
        /// Its total load.
        load: f64,
        /// Its capacity.
        capacity: f64,
    },
}

impl std::fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignmentError::WrongLength { expected, got } => {
                write!(f, "assignment covers {got} threads, problem has {expected}")
            }
            AssignmentError::BadServer { thread, server } => {
                write!(f, "thread {thread} assigned to nonexistent server {server}")
            }
            AssignmentError::BadAmount { thread, amount } => {
                write!(f, "thread {thread} has invalid allocation {amount}")
            }
            AssignmentError::Overcommitted { server, load, capacity } => {
                write!(f, "server {server} loaded to {load} > capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for AssignmentError {}

/// A solution to an AA instance: `server[i]` is the server thread `i`
/// runs on, `amount[i]` the resource it is allocated there.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Server index `r_i` per thread.
    pub server: Vec<usize>,
    /// Resource allocation `c_i` per thread.
    pub amount: Vec<f64>,
}

impl Assignment {
    /// An assignment placing every thread on server 0 with zero resources
    /// (the trivial feasible solution).
    pub fn trivial(n: usize) -> Self {
        Assignment {
            server: vec![0; n],
            amount: vec![0.0; n],
        }
    }

    /// Total utility `Σ f_i(c_i)` under `problem`'s utilities.
    pub fn total_utility(&self, problem: &Problem) -> f64 {
        self.amount
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.utility_of(i, c))
            .sum()
    }

    /// Per-server resource loads (length `m`).
    pub fn server_loads(&self, problem: &Problem) -> Vec<f64> {
        let mut loads = vec![0.0; problem.servers()];
        for (&j, &c) in self.server.iter().zip(&self.amount) {
            loads[j] += c;
        }
        loads
    }

    /// Thread indices assigned to each server (length `m`).
    pub fn server_groups(&self, problem: &Problem) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); problem.servers()];
        for (i, &j) in self.server.iter().enumerate() {
            groups[j].push(i);
        }
        groups
    }

    /// Check feasibility against `problem` (lengths, server indices,
    /// nonnegative finite amounts, capacity respected up to [`EPS`]).
    pub fn validate(&self, problem: &Problem) -> Result<(), AssignmentError> {
        let n = problem.len();
        if self.server.len() != n || self.amount.len() != n {
            return Err(AssignmentError::WrongLength {
                expected: n,
                got: self.server.len().min(self.amount.len()),
            });
        }
        for (i, (&j, &c)) in self.server.iter().zip(&self.amount).enumerate() {
            if j >= problem.servers() {
                return Err(AssignmentError::BadServer { thread: i, server: j });
            }
            if !(c.is_finite() && c >= 0.0) {
                return Err(AssignmentError::BadAmount { thread: i, amount: c });
            }
        }
        for (j, &load) in self.server_loads(problem).iter().enumerate() {
            if !approx_le(load, problem.capacity(), EPS) {
                return Err(AssignmentError::Overcommitted {
                    server: j,
                    load,
                    capacity: problem.capacity(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_utility::Power;

    fn p() -> Problem {
        Problem::builder(2, 10.0)
            .thread(Arc::new(Power::new(1.0, 0.5, 10.0)))
            .thread(Arc::new(Power::new(2.0, 0.5, 10.0)))
            .thread(Arc::new(Power::new(3.0, 0.5, 10.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            Problem::builder(0, 10.0)
                .thread(Arc::new(Power::new(1.0, 0.5, 10.0)))
                .build()
                .unwrap_err(),
            ProblemError::NoServers
        );
        assert_eq!(
            Problem::builder(1, 0.0)
                .thread(Arc::new(Power::new(1.0, 0.5, 10.0)))
                .build()
                .unwrap_err(),
            ProblemError::BadCapacity
        );
        assert_eq!(
            Problem::builder(1, f64::INFINITY)
                .thread(Arc::new(Power::new(1.0, 0.5, 10.0)))
                .build()
                .unwrap_err(),
            ProblemError::BadCapacity
        );
        assert_eq!(
            Problem::builder(1, 10.0).build().unwrap_err(),
            ProblemError::NoThreads
        );
    }

    #[test]
    fn accessors() {
        let p = p();
        assert_eq!(p.servers(), 2);
        assert_eq!(p.capacity(), 10.0);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!((p.beta() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn utility_of_clamps_to_capacity() {
        // Thread's own cap is 10 = C here; utility_of(_, 15) = f(10).
        let p = p();
        assert_eq!(p.utility_of(0, 15.0), p.utility_of(0, 10.0));
        assert_eq!(p.utility_of(0, -1.0), 0.0);
    }

    #[test]
    fn capped_view_restricts_domain() {
        let p = Problem::builder(2, 4.0)
            .thread(Arc::new(Power::new(1.0, 0.5, 100.0))) // cap >> C
            .build()
            .unwrap();
        let v = p.capped_thread(0);
        assert_eq!(v.cap(), 4.0);
        assert_eq!(v.value(100.0), v.value(4.0));
        // Demand at tiny price would be huge for the raw function; the
        // view clamps it to C.
        assert_eq!(v.inverse_derivative(1e-6), 4.0);
    }

    #[test]
    fn total_utility_sums_per_thread() {
        let p = p();
        let a = Assignment {
            server: vec![0, 0, 1],
            amount: vec![4.0, 6.0, 9.0],
        };
        let expect = 1.0 * 2.0 + 2.0 * 6.0_f64.sqrt() + 3.0 * 3.0;
        assert!((a.total_utility(&p) - expect).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_feasible() {
        let p = p();
        let a = Assignment {
            server: vec![0, 0, 1],
            amount: vec![4.0, 6.0, 10.0],
        };
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn validate_rejects_overcommit() {
        let p = p();
        let a = Assignment {
            server: vec![0, 0, 1],
            amount: vec![4.0, 6.1, 10.0],
        };
        assert!(matches!(
            a.validate(&p).unwrap_err(),
            AssignmentError::Overcommitted { server: 0, .. }
        ));
    }

    #[test]
    fn validate_rejects_bad_server_amount_length() {
        let p = p();
        let a = Assignment {
            server: vec![0, 0, 2],
            amount: vec![1.0, 1.0, 1.0],
        };
        assert!(matches!(a.validate(&p).unwrap_err(), AssignmentError::BadServer { .. }));
        let a = Assignment {
            server: vec![0, 0, 1],
            amount: vec![1.0, -0.5, 1.0],
        };
        assert!(matches!(a.validate(&p).unwrap_err(), AssignmentError::BadAmount { .. }));
        let a = Assignment {
            server: vec![0],
            amount: vec![1.0],
        };
        assert!(matches!(a.validate(&p).unwrap_err(), AssignmentError::WrongLength { .. }));
    }

    #[test]
    fn groups_and_loads_agree() {
        let p = p();
        let a = Assignment {
            server: vec![1, 0, 1],
            amount: vec![2.0, 3.0, 4.0],
        };
        assert_eq!(a.server_loads(&p), vec![3.0, 6.0]);
        assert_eq!(a.server_groups(&p), vec![vec![1], vec![0, 2]]);
    }

    #[test]
    fn trivial_is_feasible() {
        let p = p();
        assert!(Assignment::trivial(p.len()).validate(&p).is_ok());
        assert_eq!(Assignment::trivial(p.len()).total_utility(&p), 0.0);
    }
}
