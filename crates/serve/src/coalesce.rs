//! Request coalescing: one in-flight execution per spec.
//!
//! While a job for some spec is queued or running, a second submission of
//! the same spec should not enqueue a duplicate execution — it attaches to
//! the in-flight job and polls the same job id. The [`InflightMap`] is the
//! spec → job-id index that makes that attachment, keyed by the spec's
//! canonical preimage ([`crate::cache::cache_preimage`]), so only an
//! identical spec ever attaches. It is **not** internally locked because
//! the engine mutates it only under its own state lock, where the
//! claim/release transitions are atomic with the job-table updates they
//! describe.

use std::collections::HashMap;

/// Spec preimage → in-flight job id. Owned by the engine's state mutex.
#[derive(Debug, Default)]
pub struct InflightMap {
    inner: HashMap<String, u64>,
}

impl InflightMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The in-flight job id for `key`, if one is queued or running.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.inner.get(key).copied()
    }

    /// Claims `key` for job `id` if unclaimed. A `fresh=1` re-execution
    /// can find the key already claimed by an earlier in-flight job —
    /// the earlier claim wins, so coalescing always attaches to the oldest
    /// in-flight execution. Returns whether this call made the claim.
    pub fn claim(&mut self, key: &str, id: u64) -> bool {
        if self.inner.contains_key(key) {
            return false;
        }
        self.inner.insert(key.to_string(), id);
        true
    }

    /// Releases `key` when job `id` reaches a terminal state. A no-op
    /// if another job holds the claim (a `fresh` re-execution finishing
    /// after the claim-holder must not free someone else's claim).
    pub fn release(&mut self, key: &str, id: u64) {
        if self.inner.get(key) == Some(&id) {
            self.inner.remove(key);
        }
    }

    /// Number of in-flight specs.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins_and_release_is_owner_checked() {
        let mut m = InflightMap::new();
        assert!(m.claim("k", 1));
        assert!(!m.claim("k", 2), "second claim attaches, not replaces");
        assert_eq!(m.get("k"), Some(1));
        // A non-owner release is a no-op.
        m.release("k", 2);
        assert_eq!(m.get("k"), Some(1));
        m.release("k", 1);
        assert_eq!(m.get("k"), None);
        assert!(m.is_empty());
    }
}
