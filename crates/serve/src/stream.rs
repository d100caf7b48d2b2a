//! Per-stream serving state: SLA tracking, the backpressure state
//! machine, in-order execution gating, and the wire representations of
//! stream specs and statuses.
//!
//! A stream is a declared contract ([`sdvbs_stream::StreamSpec`]): a
//! pipeline, an input size, a frame rate whose inverse is the per-frame
//! SLA, and a policy for what happens when the SLA budget is missed —
//! `drop` skips frames (counted, never processed), `degrade` processes
//! them at a smaller input size until latency recovers. Frames ride the
//! scheduler as interactive-class jobs grouped per stream, so DRR keeps
//! streams from starving batch work and vice versa; a per-stream
//! sequence gate serializes execution (pipelines are stateful — frame
//! order is correctness, not politeness).

use crate::jobs::RetireQueue;
use sdvbs_core::InputSize;
use sdvbs_runner::size_label;
use sdvbs_stream::{
    build_pipeline, DegradePolicy, FrameResult, PipelineKind, StreamPipeline, StreamSpec,
    DIGEST_SEED,
};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::Histogram;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Most concurrently open streams the engine accepts.
pub(crate) const MAX_STREAMS: usize = 64;
/// Per-frame summaries retained in a stream's status window.
const RESULT_WINDOW: usize = 32;
/// Latency samples retained per stream, for the status percentiles and
/// the engine's per-stream latency histogram alike.
pub(crate) const LATENCY_WINDOW: usize = 1024;
/// Consecutive healthy frames required before degrade disengages —
/// hysteresis so the mode doesn't oscillate every other frame.
const HEALTHY_RUN: u64 = 6;
/// A frame is "healthy" when its latency is below this fraction of the
/// SLA (and nothing else is in flight).
const HEALTHY_FRAC: f64 = 0.7;
/// Smoothing for the per-stream execution-time estimate.
const EWMA_ALPHA: f64 = 0.3;

/// Why the engine refused a stream operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamRefused {
    /// This backend does not serve streams (e.g. the cluster coordinator).
    Unsupported,
    /// The engine is draining; no new streams or frames.
    Draining,
    /// Too many open streams.
    LimitReached,
    /// Unknown stream id.
    NoSuchStream,
    /// The stream was closed by the client.
    Closed,
    /// The spec failed validation.
    BadSpec(String),
}

/// How the engine answered a frame submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTicket {
    /// The job-table id the frame runs under, when accepted.
    pub job_id: Option<u64>,
    /// The frame index within the stream's video.
    pub frame: u64,
    /// The frame was dropped by backpressure (counted, never processed).
    pub dropped: bool,
    /// The frame will process at the degraded input size.
    pub degraded: bool,
}

/// A frame job riding the scheduler queue (the engine's job table holds
/// one per accepted frame).
#[derive(Debug, Clone)]
pub(crate) struct FrameTask {
    /// Owning stream id.
    pub stream: u64,
    /// Frame index within the stream's video (dropped frames leave gaps;
    /// the scene is a pure function of the index, so the camera keeps
    /// moving through a drop).
    pub frame: u64,
    /// Execution-order sequence number (contiguous over *accepted*
    /// frames; the stream's gate admits them strictly in this order).
    pub seq: u64,
    /// Process at the degraded input size.
    pub degraded: bool,
    /// When the frame was accepted — frame latency is measured from here.
    pub submitted: Instant,
}

/// One frame's outcome in the status window.
#[derive(Debug, Clone)]
pub struct FrameSummary {
    /// Frame index.
    pub frame: u64,
    /// Processed at the degraded size.
    pub degraded: bool,
    /// The pipeline's per-frame digest.
    pub digest: u64,
    /// The pipeline's quality score in `0..=1`.
    pub quality: f64,
    /// Submit-to-completion latency.
    pub latency_ms: f64,
    /// The pipeline's one-line summary.
    pub detail: String,
}

/// Mutable per-stream accounting. One invariant matters above all:
/// `completed + failed + dropped + rejected == submitted` once
/// `in_flight == 0` — every submitted frame is accounted for exactly
/// once, including under drain.
#[derive(Debug, Default)]
pub(crate) struct StreamStats {
    pub submitted: u64,
    pub completed: u64,
    pub completed_degraded: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub failed: u64,
    pub in_flight: u64,
    /// Next execution-order sequence number to assign.
    pub next_seq: u64,
    pub sla_violations: u64,
    /// Whether the degrade policy is currently engaged.
    pub degraded_mode: bool,
    /// Times the mode flipped (either direction).
    pub degrade_transitions: u64,
    /// Consecutive healthy completions while degraded (the hysteresis
    /// counter).
    healthy_run: u64,
    pub last_latency_ms: f64,
    /// EWMA of pipeline execution time, the backpressure estimator.
    pub ewma_exec_ms: f64,
    /// FNV-1a fold of completed frames' digests in execution order.
    pub rolling_digest: u64,
    /// The most recent [`LATENCY_WINDOW`] latencies, for the percentile
    /// report.
    latencies: Histogram,
    /// Ring of recent frame summaries.
    recent: Vec<FrameSummary>,
    pub closed: bool,
}

/// What [`StreamStats::admit`] decided for a submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameDecision {
    /// Enqueue the frame, degraded or not.
    Process {
        /// Run at the degraded input size.
        degraded: bool,
    },
    /// Skip the frame (drop policy under pressure).
    Drop,
}

impl StreamStats {
    fn new() -> StreamStats {
        StreamStats {
            rolling_digest: DIGEST_SEED,
            latencies: Histogram::windowed(LATENCY_WINDOW),
            ..StreamStats::default()
        }
    }

    /// Whether the stream is currently over its SLA budget: the last
    /// frame missed it, or the backlog's projected completion time
    /// (in-flight frames plus this one, at the EWMA execution rate)
    /// exceeds it.
    fn pressured(&self, sla_ms: f64) -> bool {
        self.last_latency_ms > sla_ms || (self.in_flight + 1) as f64 * self.ewma_exec_ms > sla_ms
    }

    /// The backpressure state machine's submission step.
    pub(crate) fn admit(&mut self, policy: DegradePolicy, sla_ms: f64) -> FrameDecision {
        let pressured = self.pressured(sla_ms);
        match policy {
            DegradePolicy::Drop => {
                if pressured {
                    FrameDecision::Drop
                } else {
                    FrameDecision::Process { degraded: false }
                }
            }
            DegradePolicy::Degrade => {
                if pressured && !self.degraded_mode {
                    self.degraded_mode = true;
                    self.degrade_transitions += 1;
                    self.healthy_run = 0;
                }
                FrameDecision::Process {
                    degraded: self.degraded_mode,
                }
            }
        }
    }

    /// The backpressure state machine's completion step: latency
    /// bookkeeping plus the hysteresis that disengages degrade only
    /// after [`HEALTHY_RUN`] consecutive healthy, backlog-free frames.
    pub(crate) fn note_latency(&mut self, latency_ms: f64, sla_ms: f64) -> bool {
        self.last_latency_ms = latency_ms;
        self.latencies.observe(latency_ms);
        let violated = latency_ms > sla_ms;
        if violated {
            self.sla_violations += 1;
        }
        if self.degraded_mode {
            if latency_ms < HEALTHY_FRAC * sla_ms && self.in_flight == 0 {
                self.healthy_run += 1;
                if self.healthy_run >= HEALTHY_RUN {
                    self.degraded_mode = false;
                    self.degrade_transitions += 1;
                    self.healthy_run = 0;
                }
            } else {
                self.healthy_run = 0;
            }
        }
        violated
    }

    /// Accounts one frame leaving flight. Returns whether that leaves a
    /// closed stream idle — the moment its retirement is queued.
    pub(crate) fn leave_flight(&mut self) -> bool {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.closed && self.in_flight == 0
    }

    pub(crate) fn note_exec(&mut self, exec_ms: f64) {
        self.ewma_exec_ms = if self.ewma_exec_ms == 0.0 {
            exec_ms
        } else {
            EWMA_ALPHA * exec_ms + (1.0 - EWMA_ALPHA) * self.ewma_exec_ms
        };
    }

    pub(crate) fn push_recent(&mut self, summary: FrameSummary) {
        if self.recent.len() >= RESULT_WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(summary);
    }
}

/// One open (or recently closed) stream.
pub(crate) struct StreamEntry {
    pub id: u64,
    pub spec: StreamSpec,
    pub sla_ms: f64,
    /// The trace track this stream's frame spans land on.
    pub track: u32,
    /// The stateful pipeline — exactly one frame holds this at a time
    /// (the gate serializes callers).
    pub pipeline: Mutex<Box<dyn StreamPipeline>>,
    /// Execution-order gate: the sequence number allowed to run next.
    gate: Mutex<u64>,
    gate_cv: Condvar,
    pub stats: Mutex<StreamStats>,
}

impl StreamEntry {
    pub(crate) fn new(
        id: u64,
        spec: StreamSpec,
        track: u32,
        pipeline: Box<dyn StreamPipeline>,
    ) -> StreamEntry {
        StreamEntry {
            id,
            spec,
            sla_ms: spec.sla_ms(),
            track,
            pipeline: Mutex::new(pipeline),
            gate: Mutex::new(0),
            gate_cv: Condvar::new(),
            stats: Mutex::new(StreamStats::new()),
        }
    }

    pub(crate) fn lock_stats(&self) -> MutexGuard<'_, StreamStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until sequence number `seq` is allowed to run. Deadlock-
    /// free: the scheduler's group queue is FIFO, so every predecessor
    /// sequence number is already on (or through) a worker.
    pub(crate) fn wait_turn(&self, seq: u64) {
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        while *g < seq {
            g = self.gate_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Releases the gate past `seq`.
    pub(crate) fn advance_turn(&self, seq: u64) {
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        *g = (*g).max(seq + 1);
        self.gate_cv.notify_all();
    }

    /// A point-in-time status snapshot.
    pub(crate) fn status(&self) -> StreamStatus {
        let stats = self.lock_stats();
        let percentile = |p: f64| stats.latencies.percentile(p).unwrap_or(0.0);
        StreamStatus {
            id: self.id,
            pipeline: self.spec.pipeline.label(),
            size: size_label(self.spec.size),
            fps: self.spec.fps,
            sla_ms: self.sla_ms,
            policy: self.spec.policy.label(),
            state: if stats.closed { "closed" } else { "open" },
            submitted: stats.submitted,
            completed: stats.completed,
            completed_degraded: stats.completed_degraded,
            dropped: stats.dropped,
            rejected: stats.rejected,
            failed: stats.failed,
            in_flight: stats.in_flight,
            sla_violations: stats.sla_violations,
            degraded_mode: stats.degraded_mode,
            degrade_transitions: stats.degrade_transitions,
            rolling_digest: stats.rolling_digest,
            last_latency_ms: stats.last_latency_ms,
            p50_ms: percentile(50.0),
            p95_ms: percentile(95.0),
            p99_ms: percentile(99.0),
            recent: stats.recent.clone(),
        }
    }
}

/// The engine's stream table.
pub(crate) struct StreamTable {
    pub streams: HashMap<u64, std::sync::Arc<StreamEntry>>,
    pub next_id: u64,
    /// Streams not yet closed.
    pub open: usize,
    /// Closed streams with no frame in flight, in deadline order.
    pub retiring: RetireQueue,
}

impl StreamTable {
    /// An empty table retiring idle closed streams after `ttl`.
    pub(crate) fn new(ttl: Duration) -> StreamTable {
        StreamTable {
            streams: HashMap::new(),
            next_id: 0,
            open: 0,
            retiring: RetireQueue::new(ttl),
        }
    }
}

/// A point-in-time copy of one stream's externally visible state.
#[derive(Debug, Clone)]
pub struct StreamStatus {
    /// Stream id.
    pub id: u64,
    /// Pipeline label (`tracking` / `disparity` / `stitch`).
    pub pipeline: &'static str,
    /// Input-size label.
    pub size: String,
    /// Declared frame rate.
    pub fps: f64,
    /// The per-frame SLA in milliseconds.
    pub sla_ms: f64,
    /// Backpressure policy label.
    pub policy: &'static str,
    /// `"open"` or `"closed"`.
    pub state: &'static str,
    /// Frames the client submitted (including dropped ones).
    pub submitted: u64,
    /// Frames that ran to completion (degraded ones included).
    pub completed: u64,
    /// Of the completed frames, how many ran degraded.
    pub completed_degraded: u64,
    /// Frames skipped by backpressure or queue overflow.
    pub dropped: u64,
    /// Frames refused by the drain after acceptance.
    pub rejected: u64,
    /// Frames whose pipeline errored.
    pub failed: u64,
    /// Frames accepted but not yet terminal.
    pub in_flight: u64,
    /// Completed frames whose latency exceeded the SLA.
    pub sla_violations: u64,
    /// Whether degrade is currently engaged.
    pub degraded_mode: bool,
    /// Mode flips, either direction.
    pub degrade_transitions: u64,
    /// FNV-1a fold of completed frames' digests, in order.
    pub rolling_digest: u64,
    /// The last completed frame's latency.
    pub last_latency_ms: f64,
    /// Frame-latency percentiles over the retained window.
    pub p50_ms: f64,
    /// See [`StreamStatus::p50_ms`].
    pub p95_ms: f64,
    /// See [`StreamStatus::p50_ms`].
    pub p99_ms: f64,
    /// The most recent frames' outcomes.
    pub recent: Vec<FrameSummary>,
}

impl StreamStatus {
    /// Renders the status as JSON. Digests are hex strings — they use
    /// all 64 bits, beyond JSON's exact-integer range.
    pub fn to_json(&self) -> String {
        let recent: Vec<String> = self
            .recent
            .iter()
            .map(|f| {
                format!(
                    "{{\"frame\":{},\"degraded\":{},\"digest\":\"{:#018x}\",\
                     \"quality\":{:.4},\"latency_ms\":{:.3},\"detail\":{}}}",
                    f.frame,
                    f.degraded,
                    f.digest,
                    f.quality,
                    f.latency_ms,
                    Value::Str(f.detail.clone())
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"pipeline\":\"{}\",\"size\":\"{}\",\"fps\":{},\
             \"sla_ms\":{:.3},\"policy\":\"{}\",\"state\":\"{}\",\
             \"submitted\":{},\"completed\":{},\"completed_degraded\":{},\
             \"dropped\":{},\"rejected\":{},\"failed\":{},\"in_flight\":{},\
             \"sla_violations\":{},\"degraded_mode\":{},\
             \"degrade_transitions\":{},\"rolling_digest\":\"{:#018x}\",\
             \"last_latency_ms\":{:.3},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\
             \"p99_ms\":{:.3},\"recent\":[{}]}}",
            self.id,
            self.pipeline,
            self.size,
            self.fps,
            self.sla_ms,
            self.policy,
            self.state,
            self.submitted,
            self.completed,
            self.completed_degraded,
            self.dropped,
            self.rejected,
            self.failed,
            self.in_flight,
            self.sla_violations,
            self.degraded_mode,
            self.degrade_transitions,
            self.rolling_digest,
            self.last_latency_ms,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            recent.join(",")
        )
    }
}

/// Builds a [`FrameSummary`] from a pipeline result.
pub(crate) fn summarize(result: &FrameResult, latency_ms: f64) -> FrameSummary {
    FrameSummary {
        frame: result.frame,
        degraded: result.degraded,
        digest: result.digest,
        quality: result.quality,
        latency_ms,
        detail: result.detail.clone(),
    }
}

/// Parses a stream spec from a JSON request body:
/// `{"pipeline":"tracking","size":"qcif","seed":1,"fps":20,
///   "policy":"degrade"}` — only `pipeline` is required; the defaults
/// are `qcif`, seed 1, 10 fps, `degrade`.
///
/// # Errors
///
/// Describes the offending field.
pub fn parse_stream_spec(body: &[u8]) -> Result<StreamSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; expected a JSON stream spec".into());
    }
    let v = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let pipeline = v
        .get("pipeline")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing required field \"pipeline\"".to_string())
        .and_then(PipelineKind::parse)?;
    let size = match v.get("size") {
        Some(s) => s
            .as_str()
            .ok_or_else(|| "\"size\" must be a string".to_string())?
            .parse()?,
        None => InputSize::Qcif,
    };
    let seed = match v.get("seed") {
        Some(s) => s
            .as_u64()
            .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?,
        None => 1,
    };
    let fps = match v.get("fps") {
        Some(f) => f
            .as_f64()
            .ok_or_else(|| "\"fps\" must be a number".to_string())?,
        None => 10.0,
    };
    let policy = match v.get("policy") {
        Some(p) => DegradePolicy::parse(
            p.as_str()
                .ok_or_else(|| "\"policy\" must be a string".to_string())?,
        )?,
        None => DegradePolicy::Degrade,
    };
    let spec = StreamSpec {
        pipeline,
        size,
        seed,
        fps,
        policy,
    };
    spec.validate()?;
    Ok(spec)
}

/// Builds a stream's pipeline, mapping build failures to
/// [`StreamRefused::BadSpec`].
pub(crate) fn build_for(spec: &StreamSpec) -> Result<Box<dyn StreamPipeline>, StreamRefused> {
    build_pipeline(spec).map_err(|e| StreamRefused::BadSpec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_specs_parse_with_defaults_and_reject_garbage() {
        let spec = parse_stream_spec(b"{\"pipeline\":\"tracking\"}").unwrap();
        assert_eq!(spec.pipeline, PipelineKind::Tracking);
        assert_eq!(size_label(spec.size), "qcif");
        assert_eq!(spec.seed, 1);
        assert!((spec.fps - 10.0).abs() < 1e-12);
        assert_eq!(spec.policy, DegradePolicy::Degrade);

        let spec = parse_stream_spec(
            b"{\"pipeline\":\"stitch\",\"size\":\"sqcif\",\"seed\":7,\
              \"fps\":25,\"policy\":\"drop\"}",
        )
        .unwrap();
        assert_eq!(spec.pipeline, PipelineKind::Stitch);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.policy, DegradePolicy::Drop);

        assert!(parse_stream_spec(b"").is_err());
        assert!(parse_stream_spec(b"{}").is_err());
        assert!(parse_stream_spec(b"{\"pipeline\":\"sift\"}").is_err());
        assert!(parse_stream_spec(b"{\"pipeline\":\"tracking\",\"fps\":0}").is_err());
        assert!(parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"48x36\"}").is_err());
    }

    #[test]
    fn drop_policy_sheds_under_pressure_and_recovers() {
        let mut stats = StreamStats::new();
        let sla = 100.0;
        assert_eq!(
            stats.admit(DegradePolicy::Drop, sla),
            FrameDecision::Process { degraded: false }
        );
        stats.note_latency(250.0, sla);
        assert_eq!(stats.sla_violations, 1);
        assert_eq!(stats.admit(DegradePolicy::Drop, sla), FrameDecision::Drop);
        stats.note_latency(20.0, sla);
        assert_eq!(
            stats.admit(DegradePolicy::Drop, sla),
            FrameDecision::Process { degraded: false }
        );
    }

    #[test]
    fn degrade_engages_under_pressure_and_disengages_with_hysteresis() {
        let mut stats = StreamStats::new();
        let sla = 100.0;
        stats.note_latency(250.0, sla);
        assert_eq!(
            stats.admit(DegradePolicy::Degrade, sla),
            FrameDecision::Process { degraded: true }
        );
        assert_eq!(stats.degrade_transitions, 1);
        // One healthy frame is not enough — hysteresis holds the mode.
        stats.note_latency(10.0, sla);
        assert_eq!(
            stats.admit(DegradePolicy::Degrade, sla),
            FrameDecision::Process { degraded: true }
        );
        for _ in 0..HEALTHY_RUN {
            stats.note_latency(10.0, sla);
        }
        assert!(!stats.degraded_mode, "healthy run should disengage degrade");
        assert_eq!(stats.degrade_transitions, 2);
        assert_eq!(
            stats.admit(DegradePolicy::Degrade, sla),
            FrameDecision::Process { degraded: false }
        );
    }

    #[test]
    fn backlog_pressure_projects_from_the_ewma() {
        let mut stats = StreamStats::new();
        let sla = 100.0;
        stats.note_exec(60.0);
        // One in-flight frame at ~60 ms each projects 120 ms > SLA.
        stats.in_flight = 1;
        assert_eq!(stats.admit(DegradePolicy::Drop, sla), FrameDecision::Drop);
        stats.in_flight = 0;
        assert_eq!(
            stats.admit(DegradePolicy::Drop, sla),
            FrameDecision::Process { degraded: false }
        );
    }

    #[test]
    fn status_json_parses_and_carries_the_accounting_fields() {
        let entry = StreamEntry::new(
            3,
            parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap(),
            2048,
            build_for(
                &parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap(),
            )
            .unwrap(),
        );
        {
            let mut stats = entry.lock_stats();
            stats.submitted = 5;
            stats.completed = 3;
            stats.dropped = 1;
            stats.failed = 1;
            stats.note_latency(12.5, entry.sla_ms);
        }
        let body = entry.status().to_json();
        let v = Value::parse(&body).expect("status JSON parses");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("submitted").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("completed").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("state").and_then(Value::as_str), Some("open"));
        let digest = v.get("rolling_digest").and_then(Value::as_str).unwrap();
        assert!(digest.starts_with("0x") && digest.len() == 18, "{digest}");
    }

    #[test]
    fn status_percentiles_cover_the_last_window_of_latencies() {
        let spec = parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap();
        let entry = StreamEntry::new(0, spec, 2050, build_for(&spec).unwrap());
        // 1500 distinct latencies: the window wraps, dropping the oldest.
        let latencies: Vec<f64> = (0..1500u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 1e3)
            .collect();
        for &ms in &latencies {
            entry.lock_stats().note_latency(ms, entry.sla_ms);
        }
        let mut last = latencies[latencies.len() - LATENCY_WINDOW..].to_vec();
        last.sort_by(f64::total_cmp);
        let rank = |q: f64| last[(q * last.len() as f64).ceil() as usize - 1];
        let status = entry.status();
        assert_eq!(status.p50_ms.to_bits(), rank(0.50).to_bits());
        assert_eq!(status.p95_ms.to_bits(), rank(0.95).to_bits());
        assert_eq!(status.p99_ms.to_bits(), rank(0.99).to_bits());
    }

    #[test]
    fn gate_admits_sequence_numbers_in_order() {
        let spec = parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap();
        let entry = std::sync::Arc::new(StreamEntry::new(0, spec, 2049, build_for(&spec).unwrap()));
        let e2 = std::sync::Arc::clone(&entry);
        let t = std::thread::spawn(move || {
            e2.wait_turn(2);
        });
        entry.wait_turn(0);
        entry.advance_turn(0);
        entry.advance_turn(1);
        entry.advance_turn(2);
        t.join().expect("waiter finishes once the gate opens");
    }
}
