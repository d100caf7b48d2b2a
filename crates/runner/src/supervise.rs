//! Per-job supervision: panic isolation plus an optional watchdog
//! deadline.
//!
//! A job with a deadline runs on its own thread while the caller stands
//! watchdog: if the deadline passes, the caller records
//! [`Completion::TimedOut`], abandons the runaway job thread, and moves
//! on — a stuck job costs its own thread, never its caller. A panicking
//! job is caught ([`std::panic::catch_unwind`]) and reported as
//! [`Completion::Panicked`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How a job ended.
#[derive(Debug)]
pub enum Completion<T> {
    /// The job ran to completion and produced a value.
    Done(T),
    /// The watchdog deadline passed; the job thread was abandoned and the
    /// caller moved on.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
    /// The job panicked; the payload message is preserved.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
}

/// Runs `work` under per-job supervision — panic isolation plus an
/// optional watchdog deadline. This is the runner's single-job execution
/// primitive: every attempt of a sweep runs through it, and so does
/// [`execute_job`](crate::run::execute_job), which the serve daemon's
/// engine workers call one job at a time.
///
/// With no deadline the work runs on the calling thread (one thread
/// fewer); with a deadline it runs on a dedicated thread while the caller
/// stands watchdog, and a timed-out job is abandoned to its own thread.
/// The work is `'static` for that reason: it may outlive the call.
pub fn supervise<T: Send + 'static>(
    work: Box<dyn FnOnce() -> T + Send + 'static>,
    timeout: Option<Duration>,
) -> Completion<T> {
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(work)) {
            Ok(value) => Completion::Done(value),
            Err(payload) => Completion::Panicked {
                message: panic_message(payload.as_ref()),
            },
        },
        Some(limit) => watchdog(work, limit),
    }
}

/// Runs `work` on a dedicated thread while the calling worker stands
/// watchdog over the `limit` deadline.
fn watchdog<T: Send + 'static>(
    work: Box<dyn FnOnce() -> T + Send + 'static>,
    limit: Duration,
) -> Completion<T> {
    let (tx, rx) = mpsc::channel();
    let deadline = Instant::now() + limit;
    let handle = thread::Builder::new()
        .name("sdvbs-runner-job".into())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(work));
            // The watchdog may have given up on us; a dead receiver is fine.
            let _ = tx.send((result, Instant::now()));
        })
        .expect("spawning a job thread");
    match rx.recv_timeout(limit) {
        // The job finished past its deadline, but the watchdog thread was
        // descheduled and only looked afterwards: still an overrun.
        Ok((_, finished)) if finished > deadline => {
            let _ = handle.join();
            Completion::TimedOut { limit }
        }
        Ok((Ok(value), _)) => {
            let _ = handle.join(); // finished: reap promptly
            Completion::Done(value)
        }
        Ok((Err(payload), _)) => {
            let message = panic_message(payload.as_ref());
            let _ = handle.join();
            Completion::Panicked { message }
        }
        // Deadline passed: abandon the job thread (it parks its result into
        // a disconnected channel whenever it finishes) and free the worker.
        Err(mpsc::RecvTimeoutError::Timeout) => Completion::TimedOut { limit },
        Err(mpsc::RecvTimeoutError::Disconnected) => Completion::Panicked {
            message: "job thread exited without reporting a result".into(),
        },
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic under an armed watchdog is reported as `Panicked` with its
    /// message, not swallowed as a timeout; the same watchdog does time
    /// out a job that overruns it.
    #[test]
    fn panic_under_armed_watchdog_is_panicked_not_timed_out() {
        let limit = Duration::from_secs(10);
        match supervise::<()>(Box::new(|| panic!("boom")), Some(limit)) {
            Completion::Panicked { message } => assert_eq!(message, "boom"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        let limit = Duration::from_millis(20);
        let stall = Box::new(|| thread::sleep(Duration::from_millis(300)));
        match supervise(stall, Some(limit)) {
            Completion::TimedOut { limit: l } => assert_eq!(l, limit),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }
}
