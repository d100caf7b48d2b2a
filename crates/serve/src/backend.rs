//! The serving backend abstraction: one HTTP front end, two engines.
//!
//! The router and the TCP front end never execute jobs themselves — they
//! speak to a [`Backend`], and two implementations exist:
//!
//! * the single-process [`Engine`](crate::engine::Engine), which runs
//!   jobs on its own worker-thread pool, and
//! * the [`ClusterEngine`](crate::cluster::ClusterEngine), which shards
//!   jobs over TCP to `sdvbs-serve worker` processes.
//!
//! Both keep the same serving mechanics at the front: the result cache,
//! request coalescing, and admission control all live *above* the
//! backend's execution substrate, so a cached or coalesced answer never
//! crosses a process boundary in either mode.

use crate::jobs::{JobSnapshot, Submission};
use crate::sched::JobClass;
use crate::shutdown::DrainReport;
use crate::stream::{FrameTicket, StreamRefused, StreamStatus};
use sdvbs_runner::Job;
use sdvbs_stream::StreamSpec;
use sdvbs_trace::{MetricsRegistry, TraceEvent};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// What the HTTP layer needs from an execution substrate. Object-safe so
/// the server holds an `Arc<dyn Backend>`.
pub trait Backend: Send + Sync {
    /// Submits a spec; `fresh` bypasses cache and coalescing, `class`
    /// picks the QoS lane the job is scheduled in.
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission;
    /// A snapshot of job `id`, or `None` for an unknown id.
    fn get(&self, id: u64) -> Option<JobSnapshot>;
    /// Long-poll: blocks until job `id` is terminal or `wait` elapses.
    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot>;
    /// Starts the drain without waiting for it.
    fn begin_drain(&self);
    /// Starts and completes a graceful drain; blocks until every job is
    /// terminal and the execution substrate has shut down.
    fn drain(&self) -> DrainReport;
    /// Whether a drain has started.
    fn is_draining(&self) -> bool;
    /// Prometheus text exposition of the backend's lifetime metrics.
    fn metrics_text(&self) -> String;
    /// Folds an external registry (e.g. a connection thread's request
    /// stats) into the backend's lifetime registry.
    fn merge_metrics(&self, other: &MetricsRegistry);
    /// Current value of a lifetime counter (tests and smoke gates).
    fn counter(&self, name: &str) -> u64;
    /// Execution-side trace events (job spans on worker tracks; in
    /// cluster mode, the merged multi-process timeline).
    fn trace_events(&self) -> Vec<TraceEvent>;
    /// Extra `key:value` JSON fields for `/healthz` (cluster mode reports
    /// worker liveness); `None` keeps the plain single-process body.
    fn health_extra(&self) -> Option<String> {
        None
    }
    /// Opens a video stream. Backends without a streaming tier (the
    /// cluster coordinator) refuse with [`StreamRefused::Unsupported`].
    ///
    /// # Errors
    ///
    /// See [`StreamRefused`].
    fn open_stream(&self, _spec: StreamSpec) -> Result<u64, StreamRefused> {
        Err(StreamRefused::Unsupported)
    }
    /// Submits the next frame of an open stream.
    ///
    /// # Errors
    ///
    /// See [`StreamRefused`].
    fn submit_frame(&self, _stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        Err(StreamRefused::Unsupported)
    }
    /// A point-in-time status of a stream, or `None` if unknown.
    fn stream_status(&self, _id: u64) -> Option<StreamStatus> {
        None
    }
    /// Closes a stream (idempotent); `None` for an unknown id.
    fn close_stream(&self, _id: u64) -> Option<StreamStatus> {
        None
    }
}

/// The long poll both backends serve [`Backend::wait_terminal`] with:
/// blocks on `changed` until `snapshot` of the guarded state is terminal
/// or `wait` elapses, and returns the last snapshot (`None` for an
/// unknown or retired id).
pub(crate) fn wait_terminal<S>(
    state: &Mutex<S>,
    changed: &Condvar,
    wait: Duration,
    snapshot: impl Fn(&S) -> Option<JobSnapshot>,
) -> Option<JobSnapshot> {
    let st = state.lock().unwrap_or_else(PoisonError::into_inner);
    let open = |st: &mut S| snapshot(st).is_some_and(|snap| !snap.is_terminal());
    let (st, _) = changed
        .wait_timeout_while(st, wait, open)
        .unwrap_or_else(PoisonError::into_inner);
    snapshot(&st)
}
