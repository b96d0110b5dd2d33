//! Cooperative cancellation shared by the solver, the decision-diagram
//! compiler, the engine and the daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative stop: raised once any of its shared flags is set or its
/// deadline has passed. The work it stops polls [`Stop::is_raised`] at its
/// own safe points (the solver between propagations, the compiler every
/// few node allocations), so raising it needs no thread of its own.
///
/// The default stop is never raised.
#[derive(Clone, Debug, Default)]
pub struct Stop {
    flags: Vec<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Stop {
    /// A stop raised by any of `flags`, or once `deadline` has passed.
    pub fn new(flags: Vec<Arc<AtomicBool>>, deadline: Option<Instant>) -> Stop {
        Stop { flags, deadline }
    }

    /// A stop raised when either `self` or `other` is: the union of their
    /// flags, under the earlier deadline.
    pub fn or(mut self, other: &Stop) -> Stop {
        self.flags.extend(other.flags.iter().cloned());
        self.deadline = self.deadline.into_iter().chain(other.deadline).min();
        self
    }

    /// True once a flag is set or the deadline has passed. Reads the clock
    /// only when there is a deadline.
    pub fn is_raised(&self) -> bool {
        self.flags.iter().any(|f| f.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn raised_by_any_flag_or_a_passed_deadline() {
        assert!(!Stop::default().is_raised());
        let (a, b) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let stop = Stop::new(vec![Arc::clone(&a)], None).or(&Stop::new(vec![Arc::clone(&b)], None));
        assert!(!stop.is_raised());
        b.store(true, Ordering::Relaxed);
        assert!(stop.is_raised());
        b.store(false, Ordering::Relaxed);
        let later = Instant::now() + Duration::from_secs(3600);
        let combined = stop.or(&Stop::new(vec![], Some(later)));
        assert!(!combined.is_raised());
        let passed = combined.or(&Stop::new(vec![], Some(Instant::now())));
        assert!(passed.is_raised(), "the earlier deadline wins");
    }
}
