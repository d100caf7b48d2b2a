//! `sdvbs-serve` — a networked benchmark-serving layer over the SD-VBS
//! runner.
//!
//! The daemon accepts job specs (benchmark × input size × execution
//! policy × seed) over a hand-rolled HTTP/1.1 interface on
//! `std::net::TcpListener` — no external dependencies — and executes them
//! through the runner's single-job executor on the engine's own worker
//! threads, fed by a bounded scheduling queue ([`sched`]). Three serving
//! mechanisms sit between the socket and the workers:
//!
//! - **Result caching** ([`cache`]): a completed record is stored under
//!   its spec's canonical key; an identical later submission is answered
//!   immediately (`?fresh=1` opts out).
//! - **Request coalescing** ([`coalesce`]): a submission identical to a
//!   queued or running job attaches to that job instead of duplicating
//!   the execution.
//! - **Admission control** ([`engine`]): the queue bound is the admission
//!   bound — a full queue refuses with `429 Too Many Requests` rather
//!   than buffering unbounded work, and a draining server answers `503`.
//!
//! [`server`] owns the sockets and graceful shutdown, [`router`] maps
//! endpoints to backend calls, and [`loadgen`] is a closed-loop client
//! that measures end-to-end latency split by cache-hit vs cache-miss.
//!
//! The HTTP front speaks to a [`backend::Backend`], and two exist: the
//! single-process [`engine::Engine`], and — the distributed tier — the
//! [`cluster::ClusterEngine`] coordinator, which shards admitted jobs
//! over the [`sdvbs_wire`] protocol to `sdvbs-serve worker` processes
//! ([`worker`]), with heartbeat-based failure detection, work stealing,
//! retry-then-quarantine on worker death, and cluster-wide drain.
//!
//! The streaming tier ([`stream`], over the `sdvbs-stream` crate) serves
//! multi-frame video pipelines with per-stream frame-rate SLAs: frames
//! ride the scheduler as interactive-class jobs grouped per stream, a
//! per-stream gate keeps stateful pipelines executing in submission
//! order, and a declared backpressure policy sheds load when the SLA
//! budget is missed — `drop` skips frames (counted exactly), `degrade`
//! processes them at a smaller input size until latency recovers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod cluster;
pub mod coalesce;
pub mod engine;
pub mod http;
pub mod jobs;
pub mod loadgen;
pub mod protocol;
pub mod router;
pub mod sched;
pub mod server;
pub mod shutdown;
pub mod stream;
pub mod worker;

pub use backend::Backend;
pub use cache::{fnv1a, spec_digest, ResultCache, ServedRecord};
pub use cluster::{ClusterConfig, ClusterEngine, CLUSTER_TRACK_BASE};
pub use coalesce::InflightMap;
pub use engine::{Engine, EngineConfig};
pub use http::{parse_request, parse_response, Framing, HttpError, Request, Response, ResponseMsg};
pub use jobs::{Coordinator, JobSnapshot, Submission};
pub use loadgen::{
    run_loadgen, run_stream_loadgen, spec_body, stream_spec_body, Client, LoadgenConfig,
    LoadgenReport, StreamLoadConfig, StreamLoadReport, StreamRun, TargetStats,
};
pub use protocol::{orphan_disposition, pick_target, OrphanDisposition, RetryPolicy};
pub use sched::{starvation_bound, JobClass, SchedConfig};
pub use server::{Server, ServerConfig};
pub use shutdown::{DrainReport, ShutdownController, Tally};
pub use stream::{parse_stream_spec, FrameSummary, FrameTicket, StreamRefused, StreamStatus};
pub use worker::{run_worker, WorkerConfig};
