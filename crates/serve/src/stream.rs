//! The streaming tier's sans-IO core and wire bodies: per-stream SLA
//! tracking, the backpressure state machine, turn-ordered execution, and
//! the JSON representations of stream specs and statuses.
//!
//! A stream is a declared contract ([`sdvbs_stream::StreamSpec`]): a
//! pipeline, an input size, a frame rate whose inverse is the per-frame
//! SLA, and a policy for what happens when the SLA budget is missed —
//! `drop` skips frames (counted, never processed), `degrade` processes
//! them at a smaller input size until latency recovers. Frames ride the
//! scheduler as interactive-class jobs grouped per stream, so DRR keeps
//! streams from starving batch work and vice versa.
//!
//! The engine's stream table holds no lock, starts no thread and reads no
//! clock; callers pass `now`. It owns each stream's spec, trace track,
//! accounting and the sequence number allowed to run next, plus the
//! stateful pipeline whenever none of the stream's frames is running. The
//! engine keeps it under its one state mutex: a frame's worker waits
//! there until the table hands it the pipeline — strictly in submission
//! order, because pipelines are stateful and frame order is correctness,
//! not politeness — runs the pipeline with no lock held, and gives it
//! back in the critical section that accounts the frame and passes the
//! turn on.

use crate::jobs::{RetireQueue, Submission};
use sdvbs_runner::size_label;
use sdvbs_stream::{
    build_pipeline, fold_digest, DegradePolicy, FrameResult, PipelineKind, StreamError,
    StreamPipeline, StreamSpec, DIGEST_SEED,
};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::Histogram;
use std::collections::HashMap;
use std::time::Duration;

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
/// A stream's stateful pipeline.
type Pipeline = Box<dyn StreamPipeline>;
/// Why a frame's stream is still in the table.
const IN_FLIGHT: &str = "a stream with a frame in flight is never retired";

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
    /// The stream's contract.
    pub spec: StreamSpec,
    /// The trace track the stream's frame spans land on.
    pub track: u32,
    /// Frame index within the stream's video (dropped frames leave gaps;
    /// the scene is a pure function of the index, so the camera keeps
    /// moving through a drop).
    pub frame: u64,
    /// Execution-order sequence number (contiguous over *accepted*
    /// frames; the stream's turn passes through them strictly in order).
    pub seq: u64,
    /// Process at the degraded input size.
    pub degraded: bool,
    /// When the frame was accepted, as the caller's `now` — frame latency
    /// is measured from here.
    pub submitted: Duration,
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

/// What [`Stream::admit`] decided for a submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameDecision {
    /// Enqueue the frame, degraded or not.
    Process {
        /// Run at the degraded input size.
        degraded: bool,
    },
    /// Skip the frame (drop policy under pressure).
    Drop,
}

/// One open (or recently closed) stream. One invariant matters above
/// all: `completed + failed + dropped + rejected == submitted` once
/// `in_flight == 0` — every submitted frame is accounted for exactly
/// once, including under drain.
struct Stream {
    spec: StreamSpec,
    /// The trace track this stream's frame spans land on.
    track: u32,
    /// The accounting clients see; [`Stream::snapshot`] adds the latency
    /// percentiles.
    status: StreamStatus,
    /// Next execution-order sequence number to assign.
    next_seq: u64,
    /// The sequence number allowed to run next.
    turn: u64,
    /// The stateful pipeline; `None` while a frame runs it.
    pipeline: Option<Pipeline>,
    /// Consecutive healthy completions while degraded (the hysteresis
    /// counter).
    healthy_run: u64,
    /// EWMA of pipeline execution time, the backpressure estimator.
    ewma_exec_ms: f64,
    /// The most recent [`LATENCY_WINDOW`] latencies, for the percentile
    /// report.
    latencies: Histogram,
}

impl Stream {
    fn new(id: u64, spec: StreamSpec, track: u32, pipeline: Pipeline) -> Stream {
        Stream {
            spec,
            track,
            status: StreamStatus {
                id,
                pipeline: spec.pipeline.label(),
                size: size_label(spec.size),
                fps: spec.fps,
                sla_ms: spec.sla_ms(),
                policy: spec.policy.label(),
                state: "open",
                rolling_digest: DIGEST_SEED,
                ..StreamStatus::default()
            },
            next_seq: 0,
            turn: 0,
            pipeline: Some(pipeline),
            healthy_run: 0,
            ewma_exec_ms: 0.0,
            latencies: Histogram::windowed(LATENCY_WINDOW),
        }
    }

    fn is_closed(&self) -> bool {
        self.status.state == "closed"
    }

    /// Whether the stream is currently over its SLA budget: the last
    /// frame missed it, or the backlog's projected completion time
    /// (in-flight frames plus this one, at the EWMA execution rate)
    /// exceeds it.
    fn pressured(&self) -> bool {
        let s = &self.status;
        s.last_latency_ms > s.sla_ms || (s.in_flight + 1) as f64 * self.ewma_exec_ms > s.sla_ms
    }

    /// The backpressure state machine's submission step.
    fn admit(&mut self) -> FrameDecision {
        let pressured = self.pressured();
        let s = &mut self.status;
        match self.spec.policy {
            DegradePolicy::Drop if pressured => FrameDecision::Drop,
            DegradePolicy::Drop => FrameDecision::Process { degraded: false },
            DegradePolicy::Degrade => {
                if pressured && !s.degraded_mode {
                    s.degraded_mode = true;
                    s.degrade_transitions += 1;
                    self.healthy_run = 0;
                }
                FrameDecision::Process {
                    degraded: s.degraded_mode,
                }
            }
        }
    }

    /// The backpressure state machine's completion step: latency
    /// bookkeeping plus the hysteresis that disengages degrade only
    /// after [`HEALTHY_RUN`] consecutive healthy, backlog-free frames.
    /// Returns whether the frame missed the SLA.
    fn note_latency(&mut self, latency_ms: f64) -> bool {
        let s = &mut self.status;
        s.last_latency_ms = latency_ms;
        self.latencies.observe(latency_ms);
        let violated = latency_ms > s.sla_ms;
        if violated {
            s.sla_violations += 1;
        }
        if s.degraded_mode {
            if latency_ms < HEALTHY_FRAC * s.sla_ms && s.in_flight == 0 {
                self.healthy_run += 1;
                if self.healthy_run >= HEALTHY_RUN {
                    s.degraded_mode = false;
                    s.degrade_transitions += 1;
                    self.healthy_run = 0;
                }
            } else {
                self.healthy_run = 0;
            }
        }
        violated
    }

    fn note_exec(&mut self, exec_ms: f64) {
        self.ewma_exec_ms = if self.ewma_exec_ms == 0.0 {
            exec_ms
        } else {
            EWMA_ALPHA * exec_ms + (1.0 - EWMA_ALPHA) * self.ewma_exec_ms
        };
    }

    /// A point-in-time status snapshot.
    fn snapshot(&self) -> StreamStatus {
        let percentile = |p: f64| self.latencies.percentile(p).unwrap_or(0.0);
        StreamStatus {
            p50_ms: percentile(50.0),
            p95_ms: percentile(95.0),
            p99_ms: percentile(99.0),
            ..self.status.clone()
        }
    }
}

/// The engine's stream table: every stream's contract, accounting, turn
/// and idle pipeline, and the retirement of closed idle streams.
pub(crate) struct StreamTable {
    streams: HashMap<u64, Stream>,
    next_id: u64,
    /// Streams not yet closed.
    open: usize,
    /// Closed streams with no frame in flight, in deadline order.
    retiring: RetireQueue,
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

    /// Retires the closed streams idle for one TTL by `now`; returns
    /// their ids.
    pub(crate) fn sweep(&mut self, now: Duration) -> Vec<u64> {
        self.retiring.sweep(now, &mut self.streams)
    }

    /// Whether [`MAX_STREAMS`] streams are open.
    pub(crate) fn is_full(&self) -> bool {
        self.open >= MAX_STREAMS
    }

    /// Opens a stream running `pipeline`, its frame spans on `track`;
    /// returns the new id.
    pub(crate) fn open(&mut self, spec: StreamSpec, track: u32, pipeline: Pipeline) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open += 1;
        self.streams
            .insert(id, Stream::new(id, spec, track, pipeline));
        id
    }

    /// Submits stream `id`'s next frame at `now`. The backpressure policy
    /// decides its fate: a frame to process goes to `enqueue` (the
    /// engine's admission into its job table and queue), while a policy
    /// drop or a `QueueFull` answer sheds it — counted, never run. A frame
    /// refused as draining is not counted.
    pub(crate) fn submit(
        &mut self,
        id: u64,
        now: Duration,
        enqueue: impl FnOnce(FrameTask) -> Submission,
    ) -> Result<FrameTicket, StreamRefused> {
        let stream = self
            .streams
            .get_mut(&id)
            .ok_or(StreamRefused::NoSuchStream)?;
        if stream.is_closed() {
            return Err(StreamRefused::Closed);
        }
        let frame = stream.status.submitted;
        let decision = stream.admit();
        let degraded = decision == FrameDecision::Process { degraded: true };
        let answer = match decision {
            FrameDecision::Drop => Submission::QueueFull,
            FrameDecision::Process { .. } => enqueue(FrameTask {
                stream: id,
                spec: stream.spec,
                track: stream.track,
                frame,
                seq: stream.next_seq,
                degraded,
                submitted: now,
            }),
        };
        let job_id = match answer {
            Submission::Queued(job) => Some(job),
            Submission::QueueFull => None,
            _ => return Err(StreamRefused::Draining),
        };
        stream.status.submitted += 1;
        if job_id.is_some() {
            stream.next_seq += 1;
            stream.status.in_flight += 1;
        } else {
            stream.status.dropped += 1;
        }
        Ok(FrameTicket {
            job_id,
            frame,
            dropped: job_id.is_none(),
            degraded: degraded && job_id.is_some(),
        })
    }

    /// Hands frame `task` its stream's pipeline once its turn has come —
    /// every earlier accepted frame has given the pipeline back — and
    /// `None` before.
    pub(crate) fn take_turn(&mut self, task: &FrameTask) -> Option<Pipeline> {
        let stream = self.streams.get_mut(&task.stream).expect(IN_FLIGHT);
        if stream.turn == task.seq {
            stream.pipeline.take()
        } else {
            None
        }
    }

    /// Takes back the pipeline of frame `task`, which a drain rejected
    /// without running it, and accounts the frame.
    pub(crate) fn reject(&mut self, task: &FrameTask, pipeline: Pipeline, now: Duration) {
        self.end_turn(task, pipeline, now).status.rejected += 1;
    }

    /// Takes back the pipeline of frame `task`, which ran for `exec_ms`
    /// and produced `result`, and accounts the frame as ended at `now`.
    /// Returns its latency and whether it missed the SLA.
    pub(crate) fn complete(
        &mut self,
        task: &FrameTask,
        pipeline: Pipeline,
        exec_ms: f64,
        result: &Result<FrameResult, StreamError>,
        now: Duration,
    ) -> (f64, bool) {
        let latency_ms = now.saturating_sub(task.submitted).as_secs_f64() * 1e3;
        let stream = self.end_turn(task, pipeline, now);
        stream.note_exec(exec_ms);
        let violated = stream.note_latency(latency_ms);
        let s = &mut stream.status;
        match result {
            Ok(r) => {
                s.completed += 1;
                if task.degraded {
                    s.completed_degraded += 1;
                }
                s.rolling_digest = fold_digest(s.rolling_digest, r.digest);
                if s.recent.len() >= RESULT_WINDOW {
                    s.recent.remove(0);
                }
                s.recent.push(FrameSummary {
                    frame: r.frame,
                    degraded: r.degraded,
                    digest: r.digest,
                    quality: r.quality,
                    latency_ms,
                    detail: r.detail.clone(),
                });
            }
            Err(_) => s.failed += 1,
        }
        (latency_ms, violated)
    }

    /// Puts `task`'s pipeline back and passes the turn to the next frame;
    /// a closed stream whose last frame in flight this was is scheduled
    /// to retire.
    fn end_turn(&mut self, task: &FrameTask, pipeline: Pipeline, now: Duration) -> &mut Stream {
        let stream = self.streams.get_mut(&task.stream).expect(IN_FLIGHT);
        stream.pipeline = Some(pipeline);
        stream.turn = task.seq + 1;
        stream.status.in_flight -= 1;
        if stream.is_closed() && stream.status.in_flight == 0 {
            self.retiring.schedule(now, task.stream);
        }
        stream
    }

    /// Stream `id`'s status, `None` when unknown or retired.
    pub(crate) fn status(&self, id: u64) -> Option<StreamStatus> {
        Some(self.streams.get(&id)?.snapshot())
    }

    /// Closes stream `id` at `now`: no further frames are accepted, and
    /// frames in flight finish normally (the last one schedules the
    /// retirement an idle stream gets here). Returns whether this call
    /// closed the stream, and its status; `None` when unknown.
    pub(crate) fn close(&mut self, id: u64, now: Duration) -> Option<(bool, StreamStatus)> {
        let stream = self.streams.get_mut(&id)?;
        let first = !stream.is_closed();
        if first {
            stream.status.state = "closed";
            self.open -= 1;
            if stream.status.in_flight == 0 {
                self.retiring.schedule(now, id);
            }
        }
        Some((first, stream.snapshot()))
    }
}

/// A point-in-time copy of one stream's externally visible state.
#[derive(Debug, Clone, Default)]
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
    /// Whether every submitted frame ended in exactly one bucket — the
    /// identity a stream keeps whenever nothing is in flight.
    pub fn accounted(&self) -> bool {
        self.completed + self.dropped + self.rejected + self.failed == self.submitted
    }

    /// The status as a JSON object, the body of `GET /v1/streams/<id>`.
    /// Digests are `0x`-prefixed 16-digit hex strings: they use all 64
    /// bits, beyond JSON's exact-integer range.
    pub fn to_value(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        let recent = self
            .recent
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("frame".into(), num(f.frame)),
                    ("degraded".into(), Value::Bool(f.degraded)),
                    ("digest".into(), hex(f.digest)),
                    ("quality".into(), Value::Num(f.quality)),
                    ("latency_ms".into(), Value::Num(f.latency_ms)),
                    ("detail".into(), Value::Str(f.detail.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("id".into(), num(self.id)),
            ("pipeline".into(), Value::Str(self.pipeline.into())),
            ("size".into(), Value::Str(self.size.clone())),
            ("fps".into(), Value::Num(self.fps)),
            ("sla_ms".into(), Value::Num(self.sla_ms)),
            ("policy".into(), Value::Str(self.policy.into())),
            ("state".into(), Value::Str(self.state.into())),
            ("submitted".into(), num(self.submitted)),
            ("completed".into(), num(self.completed)),
            ("completed_degraded".into(), num(self.completed_degraded)),
            ("dropped".into(), num(self.dropped)),
            ("rejected".into(), num(self.rejected)),
            ("failed".into(), num(self.failed)),
            ("in_flight".into(), num(self.in_flight)),
            ("sla_violations".into(), num(self.sla_violations)),
            ("degraded_mode".into(), Value::Bool(self.degraded_mode)),
            ("degrade_transitions".into(), num(self.degrade_transitions)),
            ("rolling_digest".into(), hex(self.rolling_digest)),
            ("last_latency_ms".into(), Value::Num(self.last_latency_ms)),
            ("p50_ms".into(), Value::Num(self.p50_ms)),
            ("p95_ms".into(), Value::Num(self.p95_ms)),
            ("p99_ms".into(), Value::Num(self.p99_ms)),
            ("recent".into(), Value::Arr(recent)),
        ])
    }

    /// Reads a [`StreamStatus::to_value`]-shaped object.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<StreamStatus, String> {
        let recent = field(v, "recent", Value::as_array)?
            .iter()
            .map(|f| {
                Ok(FrameSummary {
                    frame: field(f, "frame", Value::as_u64)?,
                    degraded: field(f, "degraded", Value::as_bool)?,
                    digest: field(f, "digest", from_hex)?,
                    quality: field(f, "quality", Value::as_f64)?,
                    latency_ms: field(f, "latency_ms", Value::as_f64)?,
                    detail: field(f, "detail", Value::as_str)?.to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(StreamStatus {
            id: field(v, "id", Value::as_u64)?,
            pipeline: PipelineKind::parse(field(v, "pipeline", Value::as_str)?)?.label(),
            size: field(v, "size", Value::as_str)?.to_string(),
            fps: field(v, "fps", Value::as_f64)?,
            sla_ms: field(v, "sla_ms", Value::as_f64)?,
            policy: DegradePolicy::parse(field(v, "policy", Value::as_str)?)?.label(),
            state: match field(v, "state", Value::as_str)? {
                "open" => "open",
                "closed" => "closed",
                other => return Err(format!("unknown stream state {other:?}")),
            },
            submitted: field(v, "submitted", Value::as_u64)?,
            completed: field(v, "completed", Value::as_u64)?,
            completed_degraded: field(v, "completed_degraded", Value::as_u64)?,
            dropped: field(v, "dropped", Value::as_u64)?,
            rejected: field(v, "rejected", Value::as_u64)?,
            failed: field(v, "failed", Value::as_u64)?,
            in_flight: field(v, "in_flight", Value::as_u64)?,
            sla_violations: field(v, "sla_violations", Value::as_u64)?,
            degraded_mode: field(v, "degraded_mode", Value::as_bool)?,
            degrade_transitions: field(v, "degrade_transitions", Value::as_u64)?,
            rolling_digest: field(v, "rolling_digest", from_hex)?,
            last_latency_ms: field(v, "last_latency_ms", Value::as_f64)?,
            p50_ms: field(v, "p50_ms", Value::as_f64)?,
            p95_ms: field(v, "p95_ms", Value::as_f64)?,
            p99_ms: field(v, "p99_ms", Value::as_f64)?,
            recent,
        })
    }
}

/// Field `name` of object `v`, read with `read`.
fn field<'a, T>(
    v: &'a Value,
    name: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    v.get(name)
        .and_then(read)
        .ok_or_else(|| format!("missing or mistyped field {name:?}"))
}

/// A digest as a `0x`-prefixed 16-digit hex string.
fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:#018x}"))
}

/// [`hex`]'s inverse.
fn from_hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

/// The JSON stream-spec body for `POST /v1/streams`, the body
/// [`parse_stream_spec`] reads.
pub fn stream_spec_body(spec: &StreamSpec) -> String {
    Value::Obj(vec![
        ("pipeline".into(), Value::Str(spec.pipeline.label().into())),
        ("size".into(), Value::Str(size_label(spec.size))),
        ("seed".into(), Value::Num(spec.seed as f64)),
        ("fps".into(), Value::Num(spec.fps)),
        ("policy".into(), Value::Str(spec.policy.label().into())),
    ])
    .to_string()
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
        .ok_or("missing required field \"pipeline\"")?;
    let policy = optional(&v, "policy", "a string", "degrade", Value::as_str)?;
    let spec = StreamSpec {
        pipeline: PipelineKind::parse(pipeline)?,
        size: optional(&v, "size", "a string", "qcif", Value::as_str)?.parse()?,
        seed: optional(&v, "seed", "a non-negative integer", 1, Value::as_u64)?,
        fps: optional(&v, "fps", "a number", 10.0, Value::as_f64)?,
        policy: DegradePolicy::parse(policy)?,
    };
    spec.validate()?;
    Ok(spec)
}

/// Optional field `name` of object `v`, read with `read`: `default` when
/// absent, an error saying it must be `what` when mistyped.
fn optional<'a, T>(
    v: &'a Value,
    name: &str,
    what: &str,
    default: T,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    match v.get(name) {
        None => Ok(default),
        Some(f) => read(f).ok_or_else(|| format!("{name:?} must be {what}")),
    }
}

/// Builds a stream's pipeline, mapping build failures to
/// [`StreamRefused::BadSpec`].
pub(crate) fn build_for(spec: &StreamSpec) -> Result<Pipeline, StreamRefused> {
    build_pipeline(spec).map_err(|e| StreamRefused::BadSpec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::InputSize;
    use sdvbs_stream::run_one_shot;

    const MS: Duration = Duration::from_millis(1);

    fn sqcif(policy: DegradePolicy, fps: f64) -> StreamSpec {
        StreamSpec {
            pipeline: PipelineKind::Tracking,
            size: InputSize::Sqcif,
            seed: 1,
            fps,
            policy,
        }
    }

    /// A lone stream with a 100 ms SLA under `policy`.
    fn stream(policy: DegradePolicy) -> Stream {
        let spec = sqcif(policy, 10.0);
        Stream::new(0, spec, 2048, build_for(&spec).unwrap())
    }

    /// A table with one open stream of `spec`, retiring with no grace.
    fn table_with(spec: StreamSpec) -> (StreamTable, u64) {
        let mut table = StreamTable::new(Duration::ZERO);
        let id = table.open(spec, 2048, build_for(&spec).unwrap());
        (table, id)
    }

    /// Submits one frame of stream `id` at `now`, the engine's queue
    /// answering `answer`; returns the ticket and the task it was offered.
    fn submit(
        table: &mut StreamTable,
        id: u64,
        now: Duration,
        answer: Submission,
    ) -> (FrameTicket, FrameTask) {
        let mut offered = None;
        let ticket = table
            .submit(id, now, |task| {
                offered = Some(task);
                answer
            })
            .expect("frame submitted");
        (ticket, offered.expect("frame offered to the queue"))
    }

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
    fn stream_spec_bodies_round_trip_through_the_parser() {
        let spec = StreamSpec {
            pipeline: PipelineKind::Stitch,
            size: InputSize::Qcif,
            seed: 11,
            fps: 24.0,
            policy: DegradePolicy::Drop,
        };
        let parsed =
            parse_stream_spec(stream_spec_body(&spec).as_bytes()).expect("generated body parses");
        assert_eq!(parsed.pipeline, spec.pipeline);
        assert_eq!(size_label(parsed.size), "qcif");
        assert_eq!(parsed.seed, 11);
        assert!((parsed.fps - 24.0).abs() < 1e-9);
        assert_eq!(parsed.policy, spec.policy);
    }

    #[test]
    fn drop_policy_sheds_under_pressure_and_recovers() {
        let mut s = stream(DegradePolicy::Drop);
        assert_eq!(s.admit(), FrameDecision::Process { degraded: false });
        s.note_latency(250.0);
        assert_eq!(s.status.sla_violations, 1);
        assert_eq!(s.admit(), FrameDecision::Drop);
        s.note_latency(20.0);
        assert_eq!(s.admit(), FrameDecision::Process { degraded: false });
    }

    #[test]
    fn degrade_engages_under_pressure_and_disengages_with_hysteresis() {
        let mut s = stream(DegradePolicy::Degrade);
        s.note_latency(250.0);
        assert_eq!(s.admit(), FrameDecision::Process { degraded: true });
        assert_eq!(s.status.degrade_transitions, 1);
        // One healthy frame is not enough — hysteresis holds the mode.
        s.note_latency(10.0);
        assert_eq!(s.admit(), FrameDecision::Process { degraded: true });
        for _ in 0..HEALTHY_RUN {
            s.note_latency(10.0);
        }
        assert!(
            !s.status.degraded_mode,
            "healthy run should disengage degrade"
        );
        assert_eq!(s.status.degrade_transitions, 2);
        assert_eq!(s.admit(), FrameDecision::Process { degraded: false });
    }

    #[test]
    fn backlog_pressure_projects_from_the_ewma() {
        let mut s = stream(DegradePolicy::Drop);
        s.note_exec(60.0);
        // One in-flight frame at ~60 ms each projects 120 ms > SLA.
        s.status.in_flight = 1;
        assert_eq!(s.admit(), FrameDecision::Drop);
        s.status.in_flight = 0;
        assert_eq!(s.admit(), FrameDecision::Process { degraded: false });
    }

    #[test]
    fn status_json_parses_and_carries_the_accounting_fields() {
        let spec = parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap();
        let mut s = Stream::new(3, spec, 2048, build_for(&spec).unwrap());
        s.status.submitted = 5;
        s.status.completed = 3;
        s.status.dropped = 1;
        s.status.failed = 1;
        s.note_latency(12.5);
        let body = s.snapshot().to_value().to_string();
        let v = Value::parse(&body).expect("status JSON parses");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("submitted").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("completed").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("state").and_then(Value::as_str), Some("open"));
        let digest = v.get("rolling_digest").and_then(Value::as_str).unwrap();
        assert!(digest.starts_with("0x") && digest.len() == 18, "{digest}");
        // The reader takes back exactly what the writer wrote.
        let back = StreamStatus::from_value(&v).expect("status reads back");
        assert_eq!(back.to_value(), v);
    }

    #[test]
    fn stream_statuses_read_from_status_bodies_and_check_accounting() {
        let body = "{\"id\":4,\"pipeline\":\"tracking\",\"size\":\"qcif\",\"fps\":20,\
                    \"sla_ms\":50.0,\"policy\":\"degrade\",\"state\":\"closed\",\
                    \"submitted\":10,\"completed\":7,\"completed_degraded\":2,\
                    \"dropped\":2,\"rejected\":1,\"failed\":0,\"in_flight\":0,\
                    \"sla_violations\":3,\"degraded_mode\":false,\
                    \"degrade_transitions\":2,\"rolling_digest\":\"0x0123456789abcdef\",\
                    \"last_latency_ms\":12.0,\"p50_ms\":10.0,\"p95_ms\":40.0,\
                    \"p99_ms\":48.0,\"recent\":[]}";
        let status = StreamStatus::from_value(&Value::parse(body).unwrap()).expect("status parses");
        assert_eq!(status.id, 4);
        assert_eq!(status.submitted, 10);
        assert_eq!(status.completed_degraded, 2);
        assert!(status.accounted(), "7 + 2 + 1 + 0 == 10");
        assert_eq!(status.rolling_digest, 0x0123_4567_89ab_cdef);
        let short = StreamStatus::from_value(&Value::parse("{\"id\":4}").unwrap());
        assert!(short.is_err(), "missing fields must be named: {short:?}");
    }

    #[test]
    fn status_percentiles_cover_the_last_window_of_latencies() {
        let spec = parse_stream_spec(b"{\"pipeline\":\"tracking\",\"size\":\"sqcif\"}").unwrap();
        let mut s = Stream::new(0, spec, 2050, build_for(&spec).unwrap());
        // 1500 distinct latencies: the window wraps, dropping the oldest.
        let latencies: Vec<f64> = (0..1500u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 1e3)
            .collect();
        for &ms in &latencies {
            s.note_latency(ms);
        }
        let mut last = latencies[latencies.len() - LATENCY_WINDOW..].to_vec();
        last.sort_by(f64::total_cmp);
        let rank = |q: f64| last[(q * last.len() as f64).ceil() as usize - 1];
        let status = s.snapshot();
        assert_eq!(status.p50_ms.to_bits(), rank(0.50).to_bits());
        assert_eq!(status.p95_ms.to_bits(), rank(0.95).to_bits());
        assert_eq!(status.p99_ms.to_bits(), rank(0.99).to_bits());
    }

    #[test]
    fn a_later_frame_gets_no_pipeline_until_the_earlier_frame_returns_it() {
        // A 1000 ms budget: never pressured, so every frame runs full size.
        let spec = sqcif(DegradePolicy::Degrade, 1.0);
        let (mut table, id) = table_with(spec);
        let tasks: Vec<FrameTask> = (0..3)
            .map(|job| submit(&mut table, id, job as u32 * MS, Submission::Queued(job)).1)
            .collect();
        // Frame 1 waiting first does not overtake frame 0.
        assert!(table.take_turn(&tasks[1]).is_none());
        for (i, task) in tasks.iter().enumerate() {
            let mut pipeline = table.take_turn(task).expect("the frame's turn");
            // While it runs, no other frame gets the pipeline.
            for other in &tasks {
                assert!(table.take_turn(other).is_none(), "frame {i} holds it");
            }
            let result = pipeline.process(task.frame, task.degraded);
            table.complete(task, pipeline, 5.0, &result, (10 + i as u32) * MS);
            // Back home, the pipeline goes to no frame already run.
            for done in &tasks[..=i] {
                assert!(table.take_turn(done).is_none());
            }
        }
        let status = table.status(id).unwrap();
        assert_eq!((status.completed, status.in_flight), (3, 0));
        let one_shot = run_one_shot(&spec, 3).unwrap();
        let expected = one_shot
            .iter()
            .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest));
        assert_eq!(status.rolling_digest, expected);
        // Latency runs from the caller's submission `now` to its end `now`.
        for (i, frame) in status.recent.iter().enumerate() {
            assert_eq!(frame.frame, i as u64);
            assert!(
                (frame.latency_ms - 10.0).abs() < 1e-9,
                "{}",
                frame.latency_ms
            );
        }
    }

    #[test]
    fn a_drain_rejects_frames_in_turn_order_and_keeps_the_accounting() {
        let (mut table, id) = table_with(sqcif(DegradePolicy::Drop, 1.0));
        let tasks: Vec<FrameTask> = (0..3)
            .map(|job| submit(&mut table, id, MS, Submission::Queued(job)).1)
            .collect();
        // A full queue sheds a frame, counted; a draining one refuses it,
        // uncounted.
        let (ticket, _) = submit(&mut table, id, MS, Submission::QueueFull);
        assert!(ticket.dropped && ticket.job_id.is_none());
        let refused = table.submit(id, MS, |_| Submission::Draining);
        assert_eq!(refused, Err(StreamRefused::Draining));
        let balanced = |table: &StreamTable| {
            let s = table.status(id).unwrap();
            s.completed + s.dropped + s.rejected + s.failed + s.in_flight == s.submitted
        };
        assert!(balanced(&table));
        for (i, task) in tasks.iter().enumerate() {
            for later in &tasks[i + 1..] {
                assert!(table.take_turn(later).is_none(), "rejected out of turn");
            }
            let pipeline = table.take_turn(task).expect("the frame's turn");
            table.reject(task, pipeline, 2 * MS);
            assert!(balanced(&table));
        }
        let status = table.status(id).unwrap();
        assert_eq!(
            (status.submitted, status.dropped, status.rejected),
            (4, 1, 3)
        );
        assert_eq!(status.in_flight, 0);
        assert!(status.accounted());
        assert_eq!(status.rolling_digest, DIGEST_SEED, "no rejected frame ran");
    }

    #[test]
    fn a_closed_stream_is_scheduled_to_retire_only_when_its_last_frame_ends() {
        let spec = sqcif(DegradePolicy::Degrade, 1.0);
        let (mut table, id) = table_with(spec);
        let (_, first) = submit(&mut table, id, MS, Submission::Queued(0));
        let (_, second) = submit(&mut table, id, MS, Submission::Queued(1));
        let (closing, status) = table.close(id, MS).unwrap();
        assert!(closing && status.state == "closed" && status.in_flight == 2);
        let refused = table.submit(id, MS, |_| unreachable!("a closed stream offers nothing"));
        assert_eq!(refused, Err(StreamRefused::Closed));
        assert!(table.sweep(2 * MS).is_empty(), "two frames in flight");
        let pipeline = table.take_turn(&first).unwrap();
        let failed = Err(StreamError::new("injected"));
        table.complete(&first, pipeline, 1.0, &failed, 2 * MS);
        assert!(table.sweep(3 * MS).is_empty(), "one frame in flight");
        assert_eq!(table.status(id).unwrap().failed, 1);
        let pipeline = table.take_turn(&second).unwrap();
        table.reject(&second, pipeline, 3 * MS);
        assert_eq!(table.sweep(3 * MS), vec![id]);
        assert!(table.status(id).is_none());
        // An idle stream is scheduled when it closes; closing twice is
        // idempotent.
        let idle = table.open(spec, 2049, build_for(&spec).unwrap());
        assert!(table.close(idle, 4 * MS).unwrap().0);
        assert!(!table.close(idle, 4 * MS).unwrap().0);
        assert_eq!(table.sweep(4 * MS), vec![idle]);
    }
}
