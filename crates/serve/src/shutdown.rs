//! Graceful-shutdown coordination between the HTTP front end and the
//! engine.
//!
//! A shutdown (from `POST /v1/shutdown` or [`crate::server::Server`]'s
//! own API) runs in two phases. First the **drain**: the engine stops
//! admitting work, the job currently on a worker finishes, and queued
//! jobs are rejected — during this phase the listener stays up so clients
//! can poll in-flight jobs and new submissions get an honest `503`.
//! Then the **stop**: once every job is terminal, the accept loop and
//! connection threads are told to exit and are joined, so shutdown never
//! leaks a thread. The [`ShutdownController`] is the tiny state machine
//! both phases rendezvous on.

use std::sync::{Condvar, Mutex, PoisonError};

/// What a drain left behind.
///
/// For the single-process [`crate::engine::Engine`] the counts are
/// **drain-scoped**: only jobs that were queued or running when the
/// drain began are counted, so an operator reading the report sees what
/// the shutdown itself did, not the process's lifetime history. The
/// cluster coordinator keeps **lifetime** totals instead — its report
/// doubles as the final accounting for jobs retried across worker
/// deaths, kept by the [`crate::jobs::JobTable`] at each terminal
/// transition so the totals survive the retirement of the jobs counted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that executed to a record during the drain (engine) or over
    /// the process lifetime (cluster).
    pub completed: usize,
    /// Jobs rejected without executing (queued at drain time, or invalid).
    pub rejected: usize,
    /// Jobs abandoned after exhausting their retry budget across worker
    /// deaths (cluster mode; always 0 for a single-process engine).
    pub quarantined: usize,
    /// Names of workers that died before or during the drain (cluster
    /// mode; always empty for a single-process engine).
    pub dead_workers: Vec<String>,
}

#[derive(Default)]
struct ShutdownState {
    requested: bool,
    report: Option<DrainReport>,
}

/// The shutdown rendezvous: request-once semantics for starting a drain,
/// and a waitable slot for its finished report.
#[derive(Default)]
pub struct ShutdownController {
    state: Mutex<ShutdownState>,
    done: Condvar,
}

impl ShutdownController {
    /// A controller with no shutdown requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks shutdown as requested. Returns `true` exactly once — the
    /// caller that gets `true` owns starting the drain thread, so
    /// concurrent `POST /v1/shutdown` requests cannot double-drain.
    pub fn request(&self) -> bool {
        let mut st = self.lock();
        if st.requested {
            false
        } else {
            st.requested = true;
            true
        }
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.lock().requested
    }

    /// Publishes the finished drain's report and wakes every waiter.
    pub fn finish(&self, report: DrainReport) {
        let mut st = self.lock();
        st.report = Some(report);
        self.done.notify_all();
    }

    /// Blocks until the drain finishes and returns its report.
    pub fn wait(&self) -> DrainReport {
        let mut st = self.lock();
        loop {
            if let Some(report) = &st.report {
                return report.clone();
            }
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The report, if the drain already finished.
    pub fn report(&self) -> Option<DrainReport> {
        self.lock().report.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShutdownState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn request_returns_true_exactly_once() {
        let c = ShutdownController::new();
        assert!(!c.requested());
        assert!(c.request());
        assert!(!c.request(), "second requester must not double-drain");
        assert!(c.requested());
    }

    #[test]
    fn waiters_block_until_finish_publishes_the_report() {
        let c = Arc::new(ShutdownController::new());
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(c.report().is_none());
        let report = DrainReport {
            completed: 3,
            rejected: 1,
            ..DrainReport::default()
        };
        c.finish(report.clone());
        assert_eq!(waiter.join().unwrap(), report);
        // A late waiter returns immediately.
        assert_eq!(c.wait(), report);
    }
}
