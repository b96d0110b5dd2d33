//! The warm-session pool.
//!
//! The PR 3 incremental machinery ([`DetectionSession`],
//! [`FaultToleranceSweep`]) pays its encoding cost once and answers every
//! subsequent query by assumptions — but the batch drivers throw sessions
//! away after each run. The daemon keeps a bounded pool of them keyed by
//! code + scenario + solver budget, so a repeat query against the same
//! code skips straight to the assumption query (the smoke test pins this
//! via the responses' cumulative `queries`, which only a reused session
//! carries over from earlier requests).
//!
//! Sessions are *checked out* (removed) while in use — two concurrent
//! requests for the same code simply build a second session rather than
//! block — and checked back in afterwards. Past `cap` sessions the
//! least-recently-returned one is dropped.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use veriqec::engine::{DetectionSession, FaultToleranceSweep};

/// A pooled incremental session.
#[derive(Debug)]
pub enum WarmSession {
    /// Serves detection *and* distance requests (a distance sweep is a
    /// sequence of detection queries on the same encoding).
    Detection(Box<DetectionSession>),
    /// Serves fault-tolerance frontier requests.
    Frontier(Box<FaultToleranceSweep>),
}

struct Slot {
    seq: u64,
    session: WarmSession,
}

/// A bounded pool of [`WarmSession`]s keyed by code + scenario + budget.
#[derive(Default)]
pub struct SessionPool {
    slots: Mutex<Slots>,
    cap: usize,
}

#[derive(Default)]
struct Slots {
    map: HashMap<String, Slot>,
    next_seq: u64,
}

impl SessionPool {
    /// An empty pool holding at most `cap` idle sessions.
    pub fn new(cap: usize) -> Self {
        SessionPool {
            slots: Mutex::new(Slots::default()),
            cap: cap.max(1),
        }
    }

    /// Removes and returns the idle session under `key`, if any.
    pub fn checkout(&self, key: &str) -> Option<WarmSession> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.map.remove(key).map(|s| s.session)
    }

    /// Returns a session to the pool; evicts the least-recently-returned
    /// session when full.
    pub fn checkin(&self, key: String, session: WarmSession) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.next_seq += 1;
        let seq = slots.next_seq;
        slots.map.insert(key, Slot { seq, session });
        while slots.map.len() > self.cap {
            let Some(oldest) = slots
                .map
                .iter()
                .min_by_key(|(_, s)| s.seq)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            slots.map.remove(&oldest);
        }
    }

    /// Number of idle sessions currently pooled.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// True when no session is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_codes::steane;
    use veriqec_sat::SolverConfig;

    fn session() -> WarmSession {
        WarmSession::Detection(Box::new(DetectionSession::new(
            &steane(),
            SolverConfig::default(),
        )))
    }

    #[test]
    fn checkout_removes_and_checkin_restores() {
        let pool = SessionPool::new(4);
        assert!(pool.checkout("det|steane").is_none());
        pool.checkin("det|steane".into(), session());
        assert_eq!(pool.len(), 1);
        let s = pool.checkout("det|steane").expect("pooled session");
        assert!(pool.is_empty());
        // While checked out, a second request for the same key misses.
        assert!(pool.checkout("det|steane").is_none());
        pool.checkin("det|steane".into(), s);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn eviction_drops_the_least_recently_returned() {
        let pool = SessionPool::new(2);
        pool.checkin("a".into(), session());
        pool.checkin("b".into(), session());
        pool.checkin("c".into(), session());
        assert_eq!(pool.len(), 2);
        assert!(pool.checkout("a").is_none(), "oldest should be evicted");
        assert!(pool.checkout("b").is_some());
        assert!(pool.checkout("c").is_some());
    }

    #[test]
    fn a_reused_detection_session_does_not_re_encode() {
        let pool = SessionPool::new(2);
        pool.checkin("det|steane".into(), session());
        let Some(WarmSession::Detection(mut s)) = pool.checkout("det|steane") else {
            panic!("expected a detection session");
        };
        s.find_distance(4);
        let queries = s.query_count();
        assert!(queries > 0);
        pool.checkin("det|steane".into(), WarmSession::Detection(s));
        let Some(WarmSession::Detection(mut s)) = pool.checkout("det|steane") else {
            panic!("expected the same session back");
        };
        s.find_distance(4);
        assert!(s.query_count() > queries);
    }
}
