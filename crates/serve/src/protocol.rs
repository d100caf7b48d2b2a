//! Pure decision logic of the cluster protocol.
//!
//! Every judgment call the coordinator makes — which worker a job lands
//! on, what happens to a dead worker's orphans, when a silent worker is
//! declared dead, how many failures exhaust a retry budget — lives here
//! as a pure function of explicit inputs, called by the sans-IO
//! [`Coordinator`](crate::jobs::Coordinator) core that both
//! [`crate::cluster`]'s threads and the `sdvbs-sim` discrete-event
//! harness drive — the simulator runs the production core, not a mirror
//! — so a bug found under simulation is by construction production's.
//!
//! ## Attempt accounting (unified with the runner)
//!
//! `attempts` counts **executions begun**: a dispatch that actually
//! reached a worker's engine. A [`Busy`](sdvbs_wire::Message::Busy)
//! bounce is *not* an attempt — the job never executed, so it must not
//! consume retry budget (the coordinator previously counted these, which
//! made its accounting diverge from the runner's, where only real
//! executions increment [`RunRecord::attempts`]). A [`RetryPolicy`] with
//! `budget = B` therefore allows `B + 1` total executions everywhere:
//! the runner's `max_retries = B` quarantines after `B + 1` failed runs,
//! and the coordinator quarantines an orphan after `B + 1` failed
//! dispatches.
//!
//! [`RunRecord::attempts`]: sdvbs_runner::RunRecord::attempts

use std::time::Duration;

/// How many times a job may fail before it is quarantined: the initial
/// execution plus `budget` retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed *beyond the first attempt*. 0 disables retries.
    pub budget: u32,
}

impl RetryPolicy {
    /// Total executions this policy permits: `budget + 1`.
    pub fn max_attempts(self) -> u32 {
        self.budget.saturating_add(1)
    }

    /// Whether `failed_attempts` executions having all failed exhausts
    /// the policy (i.e. the job must be quarantined, not retried).
    pub fn exhausted(self, failed_attempts: u32) -> bool {
        failed_attempts >= self.max_attempts()
    }
}

/// What becomes of a job orphaned by its worker's death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrphanDisposition {
    /// Requeue at the front of the pending queue for redispatch.
    Requeue,
    /// The retry budget is spent: terminal, honest failure.
    Quarantine,
    /// A drain is in progress; only already-running work may finish, so
    /// the orphan is rejected like any other queued job.
    RejectDraining,
}

/// Decides an orphan's fate from its failed-execution count, the retry
/// policy, and whether a drain has started. Quarantine wins over the
/// drain rejection so an exhausted job is reported as what it is.
pub fn orphan_disposition(
    failed_attempts: u32,
    policy: RetryPolicy,
    draining: bool,
) -> OrphanDisposition {
    if policy.exhausted(failed_attempts) {
        OrphanDisposition::Quarantine
    } else if draining {
        OrphanDisposition::RejectDraining
    } else {
        OrphanDisposition::Requeue
    }
}

/// Picks the worker a job is dispatched to.
///
/// The home shard is `digest % n`; identical specs always hash home to
/// the same worker so engine-level state stays warm. The home worker
/// wins when it is alive and under the in-flight `cap`; otherwise the
/// least-loaded live worker with headroom takes the job (work stealing),
/// ties broken by lowest index so the choice is deterministic. `None`
/// when no live worker has headroom (the dispatcher waits) or `alive`
/// and `inflight` are empty.
pub fn pick_target(digest: u64, alive: &[bool], inflight: &[usize], cap: usize) -> Option<usize> {
    let n = alive.len().min(inflight.len());
    if n == 0 {
        return None;
    }
    let home = (digest % n as u64) as usize;
    if alive[home] && inflight[home] < cap {
        return Some(home);
    }
    (0..n)
        .filter(|&i| alive[i] && inflight[i] < cap)
        .min_by_key(|&i| inflight[i])
}

/// Whether a worker whose last heartbeat reply is `age` old should be
/// declared dead. Never during a drain: a draining worker legitimately
/// goes quiet while it finishes its queue (its link breaking still kills
/// it through the I/O path).
pub fn is_stale(age: Duration, liveness: Duration, draining: bool) -> bool {
    !draining && age > liveness
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_allows_budget_plus_one_executions() {
        let policy = RetryPolicy { budget: 2 };
        assert_eq!(policy.max_attempts(), 3);
        assert!(!policy.exhausted(0));
        assert!(!policy.exhausted(1));
        assert!(!policy.exhausted(2));
        assert!(policy.exhausted(3));
        // budget 0: one execution, no retries.
        let none = RetryPolicy { budget: 0 };
        assert!(!none.exhausted(0));
        assert!(none.exhausted(1));
    }

    #[test]
    fn orphans_requeue_until_exhausted_then_quarantine() {
        let policy = RetryPolicy { budget: 1 };
        assert_eq!(
            orphan_disposition(1, policy, false),
            OrphanDisposition::Requeue
        );
        assert_eq!(
            orphan_disposition(2, policy, false),
            OrphanDisposition::Quarantine
        );
        // Draining rejects a retryable orphan but never masks exhaustion.
        assert_eq!(
            orphan_disposition(1, policy, true),
            OrphanDisposition::RejectDraining
        );
        assert_eq!(
            orphan_disposition(2, policy, true),
            OrphanDisposition::Quarantine
        );
    }

    #[test]
    fn pick_target_prefers_home_then_least_loaded() {
        // Home (digest 5 % 3 = 2) alive and under cap: home wins even
        // when another worker is idler.
        assert_eq!(pick_target(5, &[true, true, true], &[0, 0, 3], 4), Some(2));
        // Home at cap: least-loaded live worker, lowest index on ties.
        assert_eq!(pick_target(5, &[true, true, true], &[1, 1, 4], 4), Some(0));
        // Home dead: steal.
        assert_eq!(pick_target(5, &[true, true, false], &[2, 1, 0], 4), Some(1));
        // Everyone at cap: wait.
        assert_eq!(pick_target(5, &[true, true, true], &[4, 4, 4], 4), None);
        // Nobody alive: wait (the dispatcher's all-dead path quarantines).
        assert_eq!(pick_target(5, &[false, false], &[0, 0], 4), None);
        assert_eq!(pick_target(5, &[], &[], 4), None);
    }

    #[test]
    fn staleness_requires_age_past_liveness_and_no_drain() {
        let liveness = Duration::from_secs(3);
        assert!(!is_stale(Duration::from_secs(3), liveness, false));
        assert!(is_stale(Duration::from_millis(3001), liveness, false));
        assert!(!is_stale(Duration::from_secs(60), liveness, true));
    }
}
