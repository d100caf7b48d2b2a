//! A worker pool over the bounded queue, with per-job watchdog timeouts
//! and panic isolation.
//!
//! Workers are spawned under [`std::thread::scope`] and pull jobs from a
//! [`BoundedQueue`]; the submitting thread feeds the queue with
//! backpressure and then closes it, so shutdown is a graceful drain. Each
//! job with a timeout runs on its own thread while the worker acts as its
//! watchdog: if the deadline passes, the worker records
//! [`Completion::TimedOut`], abandons the runaway job thread, and moves on
//! to the next job — a stuck job costs its own thread, never the pool. A
//! panicking job is caught ([`std::panic::catch_unwind`]) and reported as
//! [`Completion::Panicked`] without poisoning the worker.

use crate::queue::{BoundedQueue, QueueError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Pool sizing and default deadline.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    ///
    /// Timing harnesses should keep the default of 1 so concurrent jobs do
    /// not contend for cores inside each other's measured region;
    /// throughput-oriented callers can raise it.
    pub workers: usize,
    /// Capacity of the job queue; submission blocks (backpressure) once
    /// this many jobs are waiting. Must be at least 1.
    pub queue_capacity: usize,
    /// Wall-clock deadline applied to every job that does not carry its
    /// own; `None` means jobs may run indefinitely.
    pub timeout: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 1,
            queue_capacity: 64,
            timeout: None,
        }
    }
}

/// One unit of work for the pool.
pub struct PoolJob<T> {
    /// Caller-assigned identifier; results are returned sorted by it.
    pub id: u64,
    /// Human-readable label for logs and failure reports.
    pub label: String,
    /// Per-job deadline overriding [`PoolConfig::timeout`] when set.
    pub timeout: Option<Duration>,
    /// The work itself. `'static` because a timed-out job keeps running on
    /// its abandoned thread after the pool has moved on.
    pub work: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> PoolJob<T> {
    /// Convenience constructor for a job with no individual timeout.
    pub fn new(
        id: u64,
        label: impl Into<String>,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> Self {
        PoolJob {
            id,
            label: label.into(),
            timeout: None,
            work: Box::new(work),
        }
    }
}

/// How a job ended.
#[derive(Debug)]
pub enum Completion<T> {
    /// The job ran to completion and produced a value.
    Done(T),
    /// The watchdog deadline passed; the job thread was abandoned and the
    /// worker moved on.
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

/// A finished (or failed) job, as reported by the pool.
#[derive(Debug)]
pub struct PoolOutcome<T> {
    /// The submitting caller's job id.
    pub id: u64,
    /// The job's label, echoed back.
    pub label: String,
    /// Index of the pool worker that ran the job (`0..workers`); trace
    /// assembly maps this to a per-worker track.
    pub worker: usize,
    /// Time the job sat in the queue between submission and a worker
    /// picking it up.
    pub queue_wait: Duration,
    /// Microseconds since the process trace epoch when the worker started
    /// the job ([`sdvbs_trace::now_us`]), for placing the job span on a
    /// shared trace timeline.
    pub start_us: u64,
    /// Wall-clock time the worker spent on the job (for a timeout this is
    /// ~the deadline, not the runaway job's eventual runtime).
    pub wall: Duration,
    /// How the job ended.
    pub completion: Completion<T>,
}

/// Runs `jobs` to completion on a worker pool and returns their outcomes
/// **sorted by job id**, so results are deterministic regardless of how
/// workers interleaved.
///
/// # Errors
///
/// Returns [`QueueError::ZeroCapacity`] if `cfg.queue_capacity` is zero.
pub fn run_pool<T: Send + 'static>(
    jobs: Vec<PoolJob<T>>,
    cfg: &PoolConfig,
) -> Result<Vec<PoolOutcome<T>>, QueueError> {
    // Jobs ride the queue with their submission instant so the popping
    // worker can report how long they waited.
    let queue: BoundedQueue<(Instant, PoolJob<T>)> = BoundedQueue::new(cfg.queue_capacity)?;
    let results: Mutex<Vec<PoolOutcome<T>>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let workers = cfg.workers.max(1);
    thread::scope(|s| {
        let queue = &queue;
        let results = &results;
        let default_timeout = cfg.timeout;
        for worker in 0..workers {
            s.spawn(move || {
                while let Some((enqueued, job)) = queue.pop() {
                    let queue_wait = enqueued.elapsed();
                    let outcome = execute(job, worker, queue_wait, default_timeout);
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(outcome);
                }
            });
        }
        // Feed with backpressure; close once everything is queued so the
        // workers drain the backlog and exit (graceful shutdown).
        for job in jobs {
            if queue.push((Instant::now(), job)).is_err() {
                break; // closed concurrently: stop feeding, keep draining
            }
        }
        queue.close();
    });
    let mut out = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    out.sort_by_key(|o| o.id);
    Ok(out)
}

/// Runs one job, isolating panics and honoring its deadline.
fn execute<T: Send + 'static>(
    job: PoolJob<T>,
    worker: usize,
    queue_wait: Duration,
    default_timeout: Option<Duration>,
) -> PoolOutcome<T> {
    let timeout = job.timeout.or(default_timeout);
    let start_us = sdvbs_trace::now_us();
    let start = Instant::now();
    let completion = supervise(job.work, timeout);
    PoolOutcome {
        id: job.id,
        label: job.label,
        worker,
        queue_wait,
        start_us,
        wall: start.elapsed(),
        completion,
    }
}

/// Runs `work` under the pool's per-job supervision — panic isolation
/// plus an optional watchdog deadline — without needing a pool. This is
/// the single-job execution primitive embedders use: the serve daemon's
/// long-lived engine workers run one supervised job at a time through it.
///
/// With no deadline the work runs on the calling thread (one thread
/// fewer); with a deadline it runs on a dedicated thread while the caller
/// stands watchdog, and a timed-out job is abandoned to its own thread.
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

    fn quick_jobs(n: u64) -> Vec<PoolJob<u64>> {
        (0..n)
            .map(|i| PoolJob::new(i, format!("job-{i}"), move || i * 2))
            .collect()
    }

    #[test]
    fn results_are_sorted_by_id() {
        let cfg = PoolConfig {
            workers: 4,
            queue_capacity: 2,
            timeout: None,
        };
        let outcomes = run_pool(quick_jobs(32), &cfg).unwrap();
        let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
        for o in &outcomes {
            match o.completion {
                Completion::Done(v) => assert_eq!(v, o.id * 2),
                ref other => panic!("job {} failed: {other:?}", o.id),
            }
        }
    }

    #[test]
    fn zero_capacity_pool_is_rejected() {
        let cfg = PoolConfig {
            workers: 2,
            queue_capacity: 0,
            timeout: None,
        };
        assert_eq!(
            run_pool(quick_jobs(1), &cfg).err(),
            Some(QueueError::ZeroCapacity)
        );
    }

    #[test]
    fn single_worker_executes_in_submission_order() {
        let cfg = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            timeout: None,
        };
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<PoolJob<()>> = (0..8)
            .map(|i| {
                let order = std::sync::Arc::clone(&order);
                PoolJob::new(i, format!("job-{i}"), move || {
                    order.lock().unwrap().push(i);
                })
            })
            .collect();
        run_pool(jobs, &cfg).unwrap();
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }
}
