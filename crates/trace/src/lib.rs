//! `sdvbs-trace` — the span-based tracing and metrics layer of the SD-VBS
//! reproduction.
//!
//! The paper's hot-spot decomposition (Figure 3) and critical-path
//! parallelism analysis (Table IV) presume per-kernel *event streams*, not
//! just end-of-run totals. This crate supplies that substrate:
//!
//! * [`event`] — [`TraceEvent`]s and the per-thread [`Recorder`]: one
//!   recorder per worker thread, plain `Vec` pushes on the hot path (the
//!   only shared state is the trace epoch and an atomic track-id
//!   allocator), merged in worker order via [`Recorder::absorb`];
//! * [`chrome`] — [`Trace`] assembly and validation (sorted timestamps,
//!   balanced begin/end per track) with one lossless export format,
//!   Chrome-trace-format JSON (`chrome://tracing` / Perfetto);
//! * [`metrics`] — a [`MetricsRegistry`] of counters and exact-sample
//!   histograms reporting nearest-rank percentiles;
//! * [`jsonl`] — the workspace's hand-rolled JSON value type and parser
//!   (previously `sdvbs_runner::jsonl`, now shared by the store, the
//!   trace exporters, and the metrics registry).
//!
//! `sdvbs-profile` threads a [`Recorder`] through `Profiler` as a side
//! channel of its scope timers; `sdvbs-runner` adds per-worker job tracks
//! and operational counters and exposes it all behind `run --trace` and
//! the `trace` subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod merge;
pub mod metrics;

pub use chrome::{event_from_chrome, event_to_chrome, Trace, TraceError, TraceStats};
pub use event::{
    alloc_track, now_us, trace_epoch, Phase, Recorder, TraceEvent, TrackId, DYNAMIC_TRACK_BASE,
};
pub use merge::{merge_process_traces, ProcessTrace};
pub use metrics::{nearest_rank, Histogram, MetricsRegistry};
