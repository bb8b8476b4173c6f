//! Solve budgets: wall-clock deadlines, cooperative cancellation, and a
//! deterministic fuel meter for tests.
//!
//! A [`Budget`] is the one object threaded through every budgeted solve
//! path. It bundles three cooperating limits:
//!
//! * an optional **wall-clock deadline** (checked against
//!   [`Instant::now`] at iteration granularity — greedy rounds, heap
//!   placements, bisection iterations, DFS nodes);
//! * a **cancel token** ([`rayon::CancelToken`]) shared with the thread
//!   pool, so fanned-out demand maps abandon unclaimed chunks the
//!   moment the budget expires or the caller cancels externally;
//! * an optional **fuel meter**: a countdown of `check()` calls that
//!   reports [`SolveError::DeadlineExceeded`] when it hits zero. Fuel
//!   makes expiry *deterministic* — proptests use it to cancel at an
//!   exact, reproducible point mid-solve, something a wall clock can
//!   never do.
//!
//! Expiry is **sticky**: once the deadline (or fuel) trips, every later
//! `check()` fails instantly without consulting the clock. The tiered
//! solver leans on this — after a deadline fires, the remaining budgeted
//! tiers fall through in microseconds down to the unbudgeted `Uu` floor.
//!
//! The distinction between the two failure modes matters to callers:
//! [`SolveError::DeadlineExceeded`] means *this budget* ran out (degrade
//! and keep serving); [`SolveError::Cancelled`] means someone outside
//! cancelled the token (abandon the request entirely).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::CancelToken;

use crate::solver::SolveError;

/// A solve budget: wall-clock deadline + cancel token + optional fuel.
///
/// Cheap to clone (all state is shared through `Arc`s); clones observe
/// the same expiry and cancellation. See the [module docs](self) for
/// semantics.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Absolute wall-clock cutoff, if any.
    deadline: Option<Instant>,
    /// Remaining `check()` calls before deterministic expiry, if fueled.
    fuel: Option<Arc<AtomicU64>>,
    /// Pool-level cancellation flag shared with fanned-out maps.
    token: CancelToken,
    /// Set once the deadline or fuel has tripped: later checks fail
    /// without consulting the clock, and token cancellation is
    /// attributed to expiry rather than an external cancel.
    expired: Arc<AtomicBool>,
}

impl Budget {
    /// A budget that never expires on its own. Its token can still be
    /// cancelled externally via [`Budget::cancel_token`].
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            fuel: None,
            token: CancelToken::new(),
            expired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expiring `limit` from now (wall clock).
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            ..Budget::unlimited()
        }
    }

    /// A budget expiring after exactly `checks` calls to
    /// [`Budget::check`] — deterministic, wall-clock-free expiry for
    /// tests. The first `checks` calls succeed; the next one fails.
    pub fn with_fuel(checks: u64) -> Self {
        Budget {
            fuel: Some(Arc::new(AtomicU64::new(checks))),
            ..Budget::unlimited()
        }
    }

    /// The pool-level cancel token. Hand clones of this to
    /// `collect_cancellable` fan-outs, or call
    /// [`CancelToken::cancel`](rayon::CancelToken::cancel) on it to
    /// abort the solve externally (surfaces as
    /// [`SolveError::Cancelled`]).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.token
    }

    /// True once [`Budget::check`] has failed with `DeadlineExceeded`
    /// (wall clock or fuel). External cancellation does *not* set this.
    pub fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Acquire)
    }

    /// The cooperative checkpoint, called at iteration granularity by
    /// every budgeted loop.
    ///
    /// Failure order: sticky expiry → external cancellation → fuel →
    /// wall clock. On first expiry the token is cancelled too, so
    /// in-flight pool fan-outs abandon their unclaimed chunks.
    pub fn check(&self) -> Result<(), SolveError> {
        if self.expired.load(Ordering::Acquire) {
            return Err(SolveError::DeadlineExceeded);
        }
        if self.token.is_cancelled() {
            // Expiry cancels the token too: a check racing another pool
            // thread's `expire` can miss the flag above yet see the
            // token, and must still report the expiry, not a cancel.
            return Err(if self.expired.load(Ordering::Acquire) {
                SolveError::DeadlineExceeded
            } else {
                SolveError::Cancelled
            });
        }
        if let Some(fuel) = &self.fuel {
            // Saturating countdown: 0 means "this very call expires".
            let left = fuel
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |f| Some(f.saturating_sub(1)))
                .unwrap_or(0);
            if left == 0 {
                return Err(self.expire());
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.expire());
            }
        }
        Ok(())
    }

    /// Mark the budget expired and cancel the shared token.
    fn expire(&self) -> SolveError {
        self.expired.store(true, Ordering::Release);
        self.token.cancel();
        SolveError::DeadlineExceeded
    }
}

impl From<aa_allocator::Interrupted> for SolveError {
    /// A pool-level interruption with no richer diagnosis from the
    /// budget's own check: attribute it to whichever cause the budget
    /// would report — callers route through [`Budget::check`] first, so
    /// reaching this conversion means an external token fired between
    /// checks.
    fn from(_: aa_allocator::Interrupted) -> Self {
        SolveError::Cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.check().expect("unlimited budget");
        }
        assert!(!b.is_expired());
    }

    #[test]
    fn fuel_expires_exactly_on_schedule_and_stays_expired() {
        let b = Budget::with_fuel(3);
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
        // Sticky: no fuel refill, no flapping.
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
        assert!(b.is_expired());
        // Expiry cancelled the shared token so pool fan-outs stop too.
        assert!(b.cancel_token().is_cancelled());
    }

    #[test]
    fn zero_fuel_fails_the_first_check() {
        let b = Budget::with_fuel(0);
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
    }

    #[test]
    fn elapsed_deadline_fails_and_sticks() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
        assert!(b.is_expired());
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(), Ok(()));
        assert!(!b.is_expired());
    }

    #[test]
    fn external_cancel_is_distinguished_from_expiry() {
        let b = Budget::unlimited();
        b.cancel_token().cancel();
        assert_eq!(b.check(), Err(SolveError::Cancelled));
        // External cancellation is not an expiry.
        assert!(!b.is_expired());
    }

    #[test]
    fn clones_share_fuel_and_expiry() {
        let a = Budget::with_fuel(2);
        let b = a.clone();
        assert_eq!(a.check(), Ok(()));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(a.check(), Err(SolveError::DeadlineExceeded));
        assert!(b.is_expired());
        assert_eq!(b.check(), Err(SolveError::DeadlineExceeded));
    }
}
