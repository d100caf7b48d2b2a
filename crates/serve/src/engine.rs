//! The serving engine: a job table over the scheduling tier with
//! long-lived worker threads.
//!
//! Submission is admission-controlled: the job queue is the scheduler's
//! [`SchedQueue`], and a submission that finds it full is refused
//! immediately (the router turns that into `429 Too Many Requests`) —
//! the server never buffers unbounded work. Before a spec reaches the
//! queue it passes the result cache (serve a completed record without
//! re-executing) and the in-flight map (attach to an identical queued or
//! running job instead of duplicating it).
//!
//! Workers dequeue [`Batch`]es, not single jobs: the scheduler groups
//! pending jobs by benchmark×size (deficit-round-robin across QoS
//! classes), and a worker executes a batch back to back with warm-start
//! amortization — the first job pays benchmark warmup, the followers skip
//! it. `ExecPolicy::Auto` jobs are resolved through the per-group scaling
//! model ([`sched::pick_threads`]) instead of a static core count.
//!
//! Terminal jobs are **retired** from the job table after
//! [`EngineConfig::retire_ttl`] (a poll-grace window): ids stay stable —
//! the table is a map, never reindexed — but a long-lived daemon's memory
//! no longer grows with every job it has ever run. Polling a retired id
//! answers `404`, same as an id that never existed.
//!
//! Draining ([`Engine::drain`]) closes the queue: jobs currently on
//! workers run to completion, everything still queued is dequeued and
//! rejected (`503` when polled), and the workers exit once the queue is
//! empty. The [`DrainReport`] counts **only the work that was open
//! (queued or running) when the drain began** — not lifetime totals. One
//! state mutex covers the job table and the in-flight map, so
//! cache/coalesce/admission decisions are atomic with respect to worker
//! completions.

use crate::cache::{
    cache_preimage, spec_digest, CacheLookup, ResultCache, ServedRecord, DEFAULT_CACHE_CAPACITY,
};
use crate::coalesce::InflightMap;
use crate::sched::{self, Batch, JobClass, SchedConfig, SchedPushError, SchedQueue};
use crate::shutdown::DrainReport;
use crate::stream::{
    self, FrameDecision, FrameTask, FrameTicket, StreamEntry, StreamRefused, StreamStatus,
    StreamTable, MAX_STREAMS,
};
use sdvbs_core::ExecPolicy;
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{execute_job_warm, size_label, HostMeta, Job, RunStatus};
use sdvbs_stream::{fold_digest, StreamSpec};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{alloc_track, now_us, MetricsRegistry, Phase, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Retained samples per benchmark×size×threads execution histogram — the
/// scaling model's observation window.
const EXEC_HISTORY_WINDOW: usize = 64;

/// Retained samples per stream's frame-latency histogram.
const FRAME_LATENCY_WINDOW: usize = 1024;

/// Engine sizing and test instrumentation.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Queue capacity — the admission-control bound. Submissions that
    /// find the queue full are refused with [`Submission::QueueFull`].
    pub queue_capacity: usize,
    /// Per-job watchdog deadline (see [`sdvbs_runner::supervise`]).
    pub timeout: Option<Duration>,
    /// Deterministic test instrument: each worker sleeps this long after
    /// picking a job up, *before* executing it. Tests use the hold window
    /// to observe a job in the `running` state, fill the queue behind it,
    /// and drive admission-control and drain paths without racing the
    /// benchmark's actual runtime. `None` (the default) in production.
    pub hold: Option<Duration>,
    /// Scheduler knobs: batch window and DRR quanta.
    pub sched: SchedConfig,
    /// Result-cache bound (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Poll-grace window: how long a terminal job stays pollable before
    /// its table entry is retired.
    pub retire_ttl: Duration,
    /// The clock retirement ages against — virtual under `sdvbs-sim`.
    pub clock: ClockHandle,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            queue_capacity: 16,
            timeout: None,
            hold: None,
            sched: SchedConfig::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            retire_ttl: Duration::from_secs(300),
            clock: ClockHandle::system(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Execution finished; the record is the result (which may itself
    /// report a failed status — that is still a terminal, pollable state).
    Done(Arc<ServedRecord>),
    /// A stream frame finished; the string is the pipeline's one-line
    /// summary (frames have no [`sdvbs_runner::RunRecord`] — their results
    /// live in the stream's status window).
    FrameDone(String),
    /// The engine refused to run it (drain started before a worker picked
    /// it up, or the spec failed validation inside the engine).
    Rejected(String),
}

/// What a job-table entry executes: a one-shot benchmark spec, or one
/// frame of an open stream.
enum Payload {
    Bench(Job),
    Frame(FrameTask),
}

struct JobEntry {
    payload: Payload,
    /// Spec digest for cache/coalescing. Frames never cache or coalesce
    /// (each is a unique stateful step) and carry 0 here.
    digest: u64,
    /// The canonical cache preimage, verified on every cache hit.
    key: String,
    state: JobState,
}

struct EngineState {
    /// Job table keyed by id — a map, not a vec, so retiring old entries
    /// never moves or reuses a live id.
    jobs: HashMap<u64, JobEntry>,
    /// Terminal jobs with the clock time after which each may be retired,
    /// oldest first. The TTL is uniform and deadlines are taken under the
    /// state lock from a monotone clock, so the queue is in deadline
    /// order and a sweep stops at the first entry not yet due.
    retiring: VecDeque<(Duration, u64)>,
    next_id: u64,
    inflight: InflightMap,
    draining: bool,
    /// `Some(n)` once a drain has begun: jobs that were queued/running at
    /// that moment and are not yet terminal. The drain completes at 0.
    drain_open: Option<usize>,
    /// Of the drain-open jobs, how many completed / were rejected.
    drain_completed: usize,
    drain_rejected: usize,
}

/// How the engine answered a submission.
#[derive(Debug, Clone)]
pub enum Submission {
    /// Served from the result cache without executing anything.
    Cached(Arc<ServedRecord>),
    /// Accepted as a new job with this id.
    Queued(u64),
    /// Attached to an identical in-flight job with this id.
    Coalesced(u64),
    /// The queue is at capacity; retry later (`429`).
    QueueFull,
    /// The engine is draining; no new work is accepted (`503`).
    Draining,
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// `"queued"`, `"running"`, `"done"`, or `"rejected"`.
    pub state: &'static str,
    /// The run record and its JSON line, once done.
    pub record: Option<Arc<ServedRecord>>,
    /// The rejection reason, when rejected.
    pub detail: String,
}

impl JobSnapshot {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, "done" | "rejected")
    }
}

/// The scheduler group key a spec batches under: `benchmark|size`.
pub fn group_key(spec: &Job) -> String {
    format!("{}|{}", spec.benchmark, size_label(spec.size))
}

/// The benchmark-serving engine. Construct with [`Engine::start`]; always
/// wrapped in an [`Arc`] because the worker threads hold a reference.
pub struct Engine {
    state: Mutex<EngineState>,
    changed: Condvar,
    queue: SchedQueue,
    cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    trace: Mutex<Vec<TraceEvent>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    streams: Mutex<StreamTable>,
    cfg: EngineConfig,
    auto_threads: usize,
    host: HostMeta,
}

impl Engine {
    /// Builds the engine and spawns its worker threads.
    pub fn start(cfg: EngineConfig) -> Arc<Engine> {
        let queue = SchedQueue::new(cfg.queue_capacity.max(1), cfg.sched.clone());
        let engine = Arc::new(Engine {
            state: Mutex::new(EngineState {
                jobs: HashMap::new(),
                retiring: VecDeque::new(),
                next_id: 0,
                inflight: InflightMap::new(),
                draining: false,
                drain_open: None,
                drain_completed: 0,
                drain_rejected: 0,
            }),
            changed: Condvar::new(),
            queue,
            cache: ResultCache::with_capacity(cfg.cache_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            trace: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            streams: Mutex::new(StreamTable::default()),
            auto_threads: ExecPolicy::Auto.worker_count(),
            host: HostMeta::collect(),
            cfg,
        });
        let mut handles = Vec::new();
        for w in 0..engine.cfg.workers.max(1) {
            let engine = Arc::clone(&engine);
            handles.push(
                thread::Builder::new()
                    .name(format!("sdvbs-serve-worker-{w}"))
                    .spawn(move || engine.worker_loop(w))
                    .expect("spawning an engine worker"),
            );
        }
        *engine
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handles;
        engine
    }

    /// Submits a spec. `fresh` bypasses both the cache lookup and
    /// coalescing — the client explicitly wants a re-execution. `class`
    /// picks the QoS lane the job is scheduled in.
    pub fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let digest = spec_digest(&spec);
        let key = cache_preimage(&spec);
        let mut st = self.lock_state();
        self.sweep_retired(&mut st);
        if st.draining {
            self.incr("rejected_draining");
            return Submission::Draining;
        }
        if !fresh {
            match self.cache.get(digest, &key) {
                CacheLookup::Hit(record) => {
                    self.incr("cache_hits");
                    return Submission::Cached(record);
                }
                CacheLookup::Collision => {
                    // A 64-bit digest collision: treat as a miss so the
                    // right spec executes, and surface it.
                    self.incr("cache_key_collisions");
                }
                CacheLookup::Miss => {}
            }
            if let Some(id) = st.inflight.get(digest) {
                self.incr("coalesced");
                return Submission::Coalesced(id);
            }
        }
        let id = st.next_id;
        let group = group_key(&spec);
        st.jobs.insert(
            id,
            JobEntry {
                payload: Payload::Bench(spec),
                digest,
                key,
                state: JobState::Queued,
            },
        );
        st.inflight.claim(digest, id);
        // try_push under the state lock keeps the entry/queue transition
        // atomic; workers take the queue lock only with the state lock
        // released, so the ordering is acyclic.
        match self.queue.try_push(id, &group, class) {
            Ok(()) => {
                st.next_id += 1;
                self.incr("jobs_submitted");
                self.incr(&format!("submitted_{}", class.label()));
                Submission::Queued(id)
            }
            Err(refusal) => {
                st.jobs.remove(&id);
                st.inflight.release(digest, id);
                match refusal {
                    SchedPushError::Full => {
                        self.incr("rejected_queue_full");
                        Submission::QueueFull
                    }
                    SchedPushError::Closed => {
                        self.incr("rejected_draining");
                        Submission::Draining
                    }
                }
            }
        }
    }

    /// A snapshot of job `id`, or `None` for an unknown (or retired) id.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        let st = self.lock_state();
        st.jobs.get(&id).map(|entry| snapshot(id, entry))
    }

    /// Long-poll: blocks until job `id` reaches a terminal state or
    /// `wait` elapses, then returns its (possibly still non-terminal)
    /// snapshot. `None` for an unknown or retired id.
    pub fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + wait;
        let mut st = self.lock_state();
        loop {
            let snap = st.jobs.get(&id).map(|entry| snapshot(id, entry))?;
            if snap.is_terminal() {
                return Some(snap);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(snap);
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Current number of entries in the job table (tests pin the
    /// retirement bound with this).
    pub fn jobs_table_len(&self) -> usize {
        self.lock_state().jobs.len()
    }

    /// Lifetime LRU evictions from the result cache.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Starts and completes a graceful drain: refuses new submissions,
    /// lets running jobs finish, rejects everything still queued, then
    /// joins the worker threads. Blocks until every job that was open
    /// when the drain began is terminal. Idempotent — a second call just
    /// waits for the first drain's state.
    ///
    /// The report counts **only the work resolved by this drain**: jobs
    /// queued or running at the moment the drain began. Jobs that were
    /// already terminal are history, not drain work.
    pub fn drain(&self) -> DrainReport {
        self.begin_drain();
        let mut st = self.lock_state();
        while st.drain_open.is_some_and(|open| open > 0) {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let report = DrainReport {
            completed: st.drain_completed,
            rejected: st.drain_rejected,
            ..DrainReport::default()
        };
        drop(st);
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        report
    }

    /// Starts the drain without waiting for it: refuses new submissions
    /// and closes the queue. The shutdown endpoint calls this inline
    /// before responding, so a submission that arrives after the shutdown
    /// response is deterministically answered `503`, never `429`. The
    /// first call snapshots the set of open jobs the eventual
    /// [`DrainReport`] accounts for.
    pub fn begin_drain(&self) {
        {
            let mut st = self.lock_state();
            if st.drain_open.is_none() {
                let open = st
                    .jobs
                    .values()
                    .filter(|e| matches!(e.state, JobState::Queued | JobState::Running))
                    .count();
                st.drain_open = Some(open);
                st.draining = true;
            }
        }
        self.queue.close();
    }

    /// Whether a drain has started.
    pub fn is_draining(&self) -> bool {
        self.lock_state().draining
    }

    /// Opens a stream: validates the spec, builds its stateful pipeline,
    /// and allocates it a trace track. Refused while draining or at the
    /// [`MAX_STREAMS`] open-stream cap.
    ///
    /// # Errors
    ///
    /// [`StreamRefused::Draining`], [`StreamRefused::LimitReached`], or
    /// [`StreamRefused::BadSpec`].
    pub fn open_stream(&self, spec: StreamSpec) -> Result<u64, StreamRefused> {
        if self.lock_state().draining {
            return Err(StreamRefused::Draining);
        }
        let pipeline = stream::build_for(&spec)?;
        let mut tbl = self.lock_streams();
        self.sweep_streams(&mut tbl);
        if tbl.open_count() >= MAX_STREAMS {
            self.incr("streams_refused_limit");
            return Err(StreamRefused::LimitReached);
        }
        let id = tbl.next_id;
        tbl.next_id += 1;
        let track = alloc_track();
        self.push_trace(TraceEvent::new(
            format!("stream {id} ({})", spec.pipeline.label()),
            "meta",
            Phase::Meta,
            0,
            track,
        ));
        tbl.streams
            .insert(id, Arc::new(StreamEntry::new(id, spec, track, pipeline)));
        self.incr("streams_opened");
        Ok(id)
    }

    /// Submits the next frame of stream `stream_id`. The backpressure
    /// policy decides its fate at admission: process at full size,
    /// process degraded, or drop (counted, never enqueued). A dropped
    /// frame is a *successful* submission — the ticket says so — because
    /// shedding is the declared contract, not a failure.
    ///
    /// # Errors
    ///
    /// [`StreamRefused::NoSuchStream`], [`StreamRefused::Closed`], or
    /// [`StreamRefused::Draining`] (the frame is then uncounted — the
    /// client knows it never entered the stream).
    pub fn submit_frame(&self, stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        let entry = self
            .stream_entry(stream_id)
            .ok_or(StreamRefused::NoSuchStream)?;
        // Lock order: stream stats, then engine state. Workers take them
        // one at a time, never nested in the other direction.
        let mut stats = entry.lock_stats();
        if stats.closed {
            return Err(StreamRefused::Closed);
        }
        let frame = stats.submitted;
        let decision = stats.admit(entry.spec.policy, entry.sla_ms);
        if decision == FrameDecision::Drop {
            stats.submitted += 1;
            stats.dropped += 1;
            drop(stats);
            self.incr("stream_frames_submitted");
            self.incr("stream_frames_dropped");
            self.incr(&format!("stream_{stream_id}_frames_dropped"));
            return Ok(FrameTicket {
                job_id: None,
                frame,
                dropped: true,
                degraded: false,
            });
        }
        let degraded = matches!(decision, FrameDecision::Process { degraded: true });
        let mut st = self.lock_state();
        self.sweep_retired(&mut st);
        if st.draining {
            return Err(StreamRefused::Draining);
        }
        let id = st.next_id;
        let seq = stats.next_seq;
        st.jobs.insert(
            id,
            JobEntry {
                payload: Payload::Frame(FrameTask {
                    stream: stream_id,
                    frame,
                    seq,
                    degraded,
                    submitted: Instant::now(),
                }),
                digest: 0,
                key: String::new(),
                state: JobState::Queued,
            },
        );
        match self
            .queue
            .try_push(id, &format!("stream:{stream_id}"), JobClass::Interactive)
        {
            Ok(()) => {
                st.next_id += 1;
                stats.submitted += 1;
                stats.next_seq += 1;
                stats.in_flight += 1;
                drop(st);
                drop(stats);
                self.incr("stream_frames_submitted");
                if degraded {
                    self.incr("stream_frames_degraded");
                    self.incr(&format!("stream_{stream_id}_frames_degraded"));
                }
                Ok(FrameTicket {
                    job_id: Some(id),
                    frame,
                    dropped: false,
                    degraded,
                })
            }
            Err(SchedPushError::Full) => {
                // Queue pressure sheds the frame under either policy —
                // counted, like a policy drop, so accounting stays exact.
                st.jobs.remove(&id);
                stats.submitted += 1;
                stats.dropped += 1;
                drop(st);
                drop(stats);
                self.incr("stream_frames_submitted");
                self.incr("stream_frames_dropped");
                self.incr(&format!("stream_{stream_id}_frames_dropped"));
                Ok(FrameTicket {
                    job_id: None,
                    frame,
                    dropped: true,
                    degraded: false,
                })
            }
            Err(SchedPushError::Closed) => {
                st.jobs.remove(&id);
                Err(StreamRefused::Draining)
            }
        }
    }

    /// A point-in-time status of stream `id`, or `None` if unknown.
    pub fn stream_status(&self, id: u64) -> Option<StreamStatus> {
        Some(self.stream_entry(id)?.status())
    }

    /// Closes stream `id`: no further frames are accepted; in-flight
    /// frames finish normally. Returns the status at close, or `None`
    /// for an unknown id. Idempotent.
    pub fn close_stream(&self, id: u64) -> Option<StreamStatus> {
        let entry = self.stream_entry(id)?;
        {
            let mut stats = entry.lock_stats();
            if !stats.closed {
                stats.closed = true;
                stats.closed_at = Some(self.cfg.clock.now());
            } else {
                return Some(entry.status());
            }
        }
        self.incr("streams_closed");
        Some(entry.status())
    }

    fn stream_entry(&self, id: u64) -> Option<Arc<StreamEntry>> {
        self.lock_streams().streams.get(&id).cloned()
    }

    fn lock_streams(&self) -> std::sync::MutexGuard<'_, StreamTable> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Retires closed streams with no in-flight frames once their close
    /// is older than the poll-grace TTL — same contract as job-table
    /// retirement: a long-lived daemon's memory does not grow with every
    /// stream it has ever served.
    fn sweep_streams(&self, tbl: &mut StreamTable) {
        let now = self.cfg.clock.now();
        let ttl = self.cfg.retire_ttl;
        let before = tbl.streams.len();
        tbl.streams.retain(|_, entry| {
            let stats = entry.lock_stats();
            !(stats.closed
                && stats.in_flight == 0
                && stats.closed_at.is_some_and(|at| at + ttl <= now))
        });
        let retired = before - tbl.streams.len();
        if retired > 0 {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .incr("streams_retired", retired as u64);
        }
    }

    /// Renders the engine's process-lifetime metrics in the Prometheus
    /// text format under the `sdvbs_serve` prefix.
    pub fn metrics_text(&self) -> String {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_prometheus("sdvbs_serve")
    }

    /// Folds an external registry (e.g. a connection thread's request
    /// stats) into the engine's lifetime registry.
    pub fn merge_metrics(&self, other: &MetricsRegistry) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(other);
    }

    /// Current value of a lifetime counter (for tests and the smoke gate).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counter(name)
    }

    /// Execution-side trace events: one track per engine worker carrying
    /// a span per batch, with the jobs' spans nested inside.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A standalone copy of the lifetime registry, for shipping over the
    /// wire to a coordinator.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        out.merge(&self.metrics.lock().unwrap_or_else(PoisonError::into_inner));
        out
    }

    fn push_trace(&self, event: TraceEvent) {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Retires terminal entries whose poll-grace TTL has elapsed, in
    /// deadline order, so a sweep costs the jobs it retires rather than
    /// the table size. Called with the state lock held, from the
    /// submission path only — a job that just went terminal always
    /// survives until the next submission, so a client never loses the
    /// poll race to its own job's retirement.
    fn sweep_retired(&self, st: &mut EngineState) {
        let now = self.cfg.clock.now();
        let mut retired = 0;
        while let Some(&(at, id)) = st.retiring.front() {
            if at > now {
                break;
            }
            st.retiring.pop_front();
            if st.jobs.remove(&id).is_some() {
                retired += 1;
            }
        }
        if retired > 0 {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .incr("jobs_retired", retired);
        }
    }

    /// Queues terminal job `id` for retirement once the poll-grace TTL has
    /// passed. Caller holds the state lock, which keeps the retirement
    /// queue in deadline order.
    fn schedule_retirement(&self, st: &mut EngineState, id: u64) {
        st.retiring
            .push_back((self.cfg.clock.now() + self.cfg.retire_ttl, id));
    }

    fn worker_loop(&self, worker: usize) {
        // Engine workers record on low track ids (one per worker);
        // connection tracks come from `alloc_track()` which starts at
        // `DYNAMIC_TRACK_BASE`, so the two ranges never collide.
        let track = worker as u32;
        self.push_trace(TraceEvent::new(
            format!("exec {worker}"),
            "meta",
            Phase::Meta,
            0,
            track,
        ));
        while let Some(batch) = self.queue.pop_batch() {
            self.observe("batch_size", batch.ids.len() as f64);
            let mut begin = TraceEvent::new(
                format!("batch {}", batch.group),
                "batch",
                Phase::Begin,
                now_us(),
                track,
            );
            begin.args = vec![
                ("size".to_string(), Value::Num(batch.ids.len() as f64)),
                (
                    "class".to_string(),
                    Value::Str(batch.class.label().to_string()),
                ),
            ];
            self.push_trace(begin);
            // The first job in the batch pays warmup; followers start warm
            // — same benchmark×size just ran on this thread. Stream-frame
            // batches dispatch through the frame path instead.
            let frames = batch.group.starts_with("stream:");
            let mut warm = false;
            let n = batch.ids.len();
            for (i, &id) in batch.ids.iter().enumerate() {
                if frames {
                    self.run_frame(&batch, id, track, i + 1 == n);
                } else if self.run_one(&batch, id, warm, track, i + 1 == n) {
                    warm = true;
                }
            }
        }
    }

    /// Closes the dispatch-window span. Called by [`Engine::run_one`] for
    /// the batch's last job *before* that job's terminal state becomes
    /// externally visible — a trace fetched after every submitted job
    /// polls done therefore never catches the window still open.
    fn push_batch_end(&self, batch: &Batch, track: u32) {
        self.push_trace(TraceEvent::new(
            format!("batch {}", batch.group),
            "batch",
            Phase::End,
            now_us(),
            track,
        ));
    }

    /// Executes (or drain-rejects) one job of a batch. Returns whether the
    /// benchmark actually ran (and the batch is therefore warm).
    fn run_one(&self, batch: &Batch, id: u64, warm: bool, track: u32, last: bool) -> bool {
        let spec = {
            let mut st = self.lock_state();
            if st.draining {
                // Dequeued after the drain began: reject without executing.
                // The window span closes while the state lock is still
                // held, so the rejection is never visible before it.
                if last {
                    self.push_batch_end(batch, track);
                }
                if let Some(entry) = st.jobs.get_mut(&id) {
                    entry.state =
                        JobState::Rejected("server shutting down before execution".into());
                    let digest = entry.digest;
                    st.inflight.release(digest, id);
                    self.schedule_retirement(&mut st, id);
                    note_terminal(&mut st, false);
                    self.incr("rejected_draining");
                    self.changed.notify_all();
                }
                return false;
            }
            let entry = st
                .jobs
                .get_mut(&id)
                .expect("a queued job stays in the table until terminal + TTL");
            entry.state = JobState::Running;
            self.changed.notify_all();
            match &entry.payload {
                Payload::Bench(spec) => spec.clone(),
                Payload::Frame(_) => unreachable!("frame jobs dispatch through run_frame"),
            }
        };
        if let Some(hold) = self.cfg.hold {
            thread::sleep(hold);
        }
        // Auto policies go through the scaling model; everything else is
        // exactly what the client asked for.
        let tuned = matches!(spec.policy, ExecPolicy::Auto).then(|| {
            let reg = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            sched::pick_threads(&reg, &batch.group, &spec.benchmark, self.auto_threads)
        });
        let auto_threads = tuned.unwrap_or(self.auto_threads);
        self.push_trace(TraceEvent::new(
            spec.benchmark.clone(),
            "job",
            Phase::Begin,
            now_us(),
            track,
        ));
        let started = Instant::now();
        let result = execute_job_warm(&spec, id, auto_threads, &self.host, self.cfg.timeout, warm);
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        // Serialize once, outside the state lock: every later hit and poll
        // writes these bytes.
        let result = result.map(ServedRecord::new);
        self.push_trace(TraceEvent::new(
            spec.benchmark.clone(),
            "job",
            Phase::End,
            now_us(),
            track,
        ));
        if last {
            self.push_batch_end(batch, track);
        }
        let mut st = self.lock_state();
        let entry = st
            .jobs
            .get_mut(&id)
            .expect("a running job stays in the table until terminal + TTL");
        let digest = entry.digest;
        let executed = match result {
            Ok(served) => {
                let outcome = self.cache.put(digest, &entry.key, &served);
                if outcome.evicted {
                    self.incr("cache_evictions");
                }
                if outcome.collided {
                    self.incr("cache_key_collisions");
                }
                // Feed the scaling model: the best pipeline time at this
                // thread width, windowed so a long-lived daemon tracks
                // recent behavior in bounded memory.
                let record = served.record();
                if record.status == RunStatus::Completed && record.min_ms > 0.0 {
                    self.metrics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .observe_windowed(
                            &sched::exec_hist_name(&batch.group, record.threads),
                            record.min_ms,
                            EXEC_HISTORY_WINDOW,
                        );
                }
                if tuned.is_some() {
                    self.incr("sched_tuned_jobs");
                }
                entry.state = JobState::Done(served);
                self.schedule_retirement(&mut st, id);
                note_terminal(&mut st, true);
                self.incr("jobs_executed");
                self.observe("job_exec_ms", exec_ms);
                true
            }
            Err(e) => {
                entry.state = JobState::Rejected(e.to_string());
                self.schedule_retirement(&mut st, id);
                note_terminal(&mut st, false);
                self.incr("jobs_invalid");
                false
            }
        };
        st.inflight.release(digest, id);
        self.changed.notify_all();
        executed
    }

    /// Executes (or drain-rejects) one stream frame. Frames never touch
    /// the result cache or the in-flight map — each is a unique stateful
    /// step of its pipeline. The stream's sequence gate serializes
    /// execution: even when frames of one stream land on several
    /// workers, they process strictly in submission order (pipeline
    /// state makes order a correctness property).
    fn run_frame(&self, batch: &Batch, id: u64, track: u32, last: bool) {
        let (task, draining) = {
            let mut st = self.lock_state();
            let draining = st.draining;
            let entry = st
                .jobs
                .get_mut(&id)
                .expect("a queued frame stays in the table until terminal + TTL");
            let Payload::Frame(task) = &entry.payload else {
                unreachable!("stream-group jobs always carry frame payloads")
            };
            let task = task.clone();
            if !draining {
                entry.state = JobState::Running;
                self.changed.notify_all();
            }
            (task, draining)
        };
        let Some(stream) = self.stream_entry(task.stream) else {
            // Unreachable in practice: a stream is only swept once it has
            // no in-flight frames. Account the frame as failed anyway
            // rather than wedging the drain.
            let mut st = self.lock_state();
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.state = JobState::Rejected("stream no longer exists".into());
                self.schedule_retirement(&mut st, id);
                note_terminal(&mut st, false);
                self.changed.notify_all();
            }
            if last {
                self.push_batch_end(batch, track);
            }
            return;
        };
        if draining {
            // Honest drain accounting: wait for this frame's turn (so the
            // stream's execution order never inverts), reject it, then
            // open the gate for the next frame. The gate is taken with no
            // other lock held.
            if last {
                self.push_batch_end(batch, track);
            }
            stream.wait_turn(task.seq);
            {
                let mut st = self.lock_state();
                if let Some(entry) = st.jobs.get_mut(&id) {
                    entry.state =
                        JobState::Rejected("server shutting down before execution".into());
                    self.schedule_retirement(&mut st, id);
                    note_terminal(&mut st, false);
                    self.incr("rejected_draining");
                    self.changed.notify_all();
                }
            }
            stream.advance_turn(task.seq);
            let mut stats = stream.lock_stats();
            stats.in_flight = stats.in_flight.saturating_sub(1);
            stats.rejected += 1;
            drop(stats);
            self.incr("stream_frames_rejected");
            return;
        }
        stream.wait_turn(task.seq);
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::Begin,
            now_us(),
            stream.track,
        ));
        let started = Instant::now();
        // Unlike the bench path, the hold window counts as frame
        // execution: it stands in for per-frame processing cost, and the
        // backpressure estimator must see that cost for held tests to
        // exercise the backlog projection. Since it models compute over
        // the frame's pixels, a degraded frame pays only the degraded
        // size's share of it — otherwise degrading could never shed a
        // held stream's load.
        if let Some(hold) = self.cfg.hold {
            let hold = if task.degraded {
                let (fw, fh) = stream.spec.full_dims();
                let (dw, dh) = stream.spec.degraded_dims();
                hold.mul_f64((dw * dh) as f64 / (fw * fh) as f64)
            } else {
                hold
            };
            thread::sleep(hold);
        }
        let result = {
            let mut pipeline = stream
                .pipeline
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            pipeline.process(task.frame, task.degraded)
        };
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::End,
            now_us(),
            stream.track,
        ));
        if last {
            self.push_batch_end(batch, track);
        }
        stream.advance_turn(task.seq);
        let latency_ms = task.submitted.elapsed().as_secs_f64() * 1e3;
        let completed = result.is_ok();
        let state = {
            let mut stats = stream.lock_stats();
            stats.in_flight = stats.in_flight.saturating_sub(1);
            stats.note_exec(exec_ms);
            let violated = stats.note_latency(latency_ms, stream.sla_ms);
            if violated {
                self.incr("stream_sla_violations");
                self.incr(&format!("stream_{}_sla_violations", stream.id));
            }
            match result {
                Ok(r) => {
                    stats.completed += 1;
                    if task.degraded {
                        stats.completed_degraded += 1;
                    }
                    stats.rolling_digest = fold_digest(stats.rolling_digest, r.digest);
                    let detail = r.detail.clone();
                    stats.push_recent(stream::summarize(&r, latency_ms));
                    JobState::FrameDone(detail)
                }
                Err(e) => {
                    stats.failed += 1;
                    JobState::Rejected(e.to_string())
                }
            }
        };
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe_windowed(
                &format!("stream_{}_frame_latency_ms", stream.id),
                latency_ms,
                FRAME_LATENCY_WINDOW,
            );
        self.observe("stream_frame_exec_ms", exec_ms);
        if completed {
            self.incr("stream_frames_completed");
        } else {
            self.incr("stream_frames_failed");
        }
        let mut st = self.lock_state();
        if let Some(entry) = st.jobs.get_mut(&id) {
            entry.state = state;
            self.schedule_retirement(&mut st, id);
            note_terminal(&mut st, completed);
            self.changed.notify_all();
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn incr(&self, name: &str) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .incr(name, 1);
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(name, value);
    }
}

/// Accounts a terminal transition against an in-progress drain (a no-op
/// before `begin_drain`; afterwards no new jobs are admitted, so every
/// transition belongs to the drain-open set).
fn note_terminal(st: &mut EngineState, completed: bool) {
    if let Some(open) = st.drain_open {
        if completed {
            st.drain_completed += 1;
        } else {
            st.drain_rejected += 1;
        }
        st.drain_open = Some(open.saturating_sub(1));
    }
}

fn snapshot(id: u64, entry: &JobEntry) -> JobSnapshot {
    match &entry.state {
        JobState::Queued => JobSnapshot {
            id,
            state: "queued",
            record: None,
            detail: String::new(),
        },
        JobState::Running => JobSnapshot {
            id,
            state: "running",
            record: None,
            detail: String::new(),
        },
        JobState::Done(record) => JobSnapshot {
            id,
            state: "done",
            record: Some(Arc::clone(record)),
            detail: String::new(),
        },
        JobState::FrameDone(detail) => JobSnapshot {
            id,
            state: "done",
            record: None,
            detail: detail.clone(),
        },
        JobState::Rejected(why) => JobSnapshot {
            id,
            state: "rejected",
            record: None,
            detail: why.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::InputSize;
    use sdvbs_stream::{run_one_shot, DegradePolicy, PipelineKind, DIGEST_SEED};

    fn spec(seed: u64) -> Job {
        Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Serial,
            seed,
            1,
        )
    }

    fn submit(engine: &Engine, spec: Job, fresh: bool) -> Submission {
        engine.submit(spec, fresh, JobClass::Interactive)
    }

    fn wait_done(engine: &Engine, id: u64) -> JobSnapshot {
        let snap = engine
            .wait_terminal(id, Duration::from_secs(60))
            .expect("job exists");
        assert!(snap.is_terminal(), "job {id} still {:?}", snap.state);
        snap
    }

    #[test]
    fn execute_then_serve_identical_spec_from_cache() {
        let engine = Engine::start(EngineConfig::default());
        let id = match submit(&engine, spec(1), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        let first = wait_done(&engine, id);
        assert_eq!(first.state, "done");
        // Second submission: served from cache, no new job id allocated.
        match submit(&engine, spec(1), false) {
            Submission::Cached(rec) => assert_eq!(rec.record().seed, 1),
            other => panic!("expected Cached, got {other:?}"),
        }
        assert_eq!(engine.counter("jobs_executed"), 1);
        assert_eq!(engine.counter("cache_hits"), 1);
        // fresh=1 bypasses the cache and re-executes.
        let id2 = match submit(&engine, spec(1), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        wait_done(&engine, id2);
        assert_eq!(engine.counter("jobs_executed"), 2);
        engine.drain();
    }

    #[test]
    fn identical_inflight_specs_coalesce() {
        // Hold each job 200 ms so the first is reliably in flight when
        // the duplicate arrives.
        let engine = Engine::start(EngineConfig {
            hold: Some(Duration::from_millis(200)),
            ..EngineConfig::default()
        });
        let id = match submit(&engine, spec(2), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        match submit(&engine, spec(2), false) {
            Submission::Coalesced(other) => assert_eq!(other, id),
            other => panic!("expected Coalesced, got {other:?}"),
        }
        let snap = wait_done(&engine, id);
        assert_eq!(snap.state, "done");
        assert_eq!(engine.counter("jobs_executed"), 1);
        assert_eq!(engine.counter("coalesced"), 1);
        engine.drain();
    }

    #[test]
    fn full_queue_refuses_admission() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        });
        let first = match submit(&engine, spec(10), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        // Wait until the worker picks it up (frees the queue slot).
        while engine.get(first).unwrap().state == "queued" {
            thread::sleep(Duration::from_millis(2));
        }
        // Fill the single slot, then overflow it.
        assert!(matches!(
            submit(&engine, spec(11), false),
            Submission::Queued(_)
        ));
        assert!(matches!(
            submit(&engine, spec(12), false),
            Submission::QueueFull
        ));
        assert_eq!(engine.counter("rejected_queue_full"), 1);
        engine.drain();
    }

    #[test]
    fn drain_finishes_running_work_and_rejects_queued_work() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        });
        let running = match submit(&engine, spec(20), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        while engine.get(running).unwrap().state == "queued" {
            thread::sleep(Duration::from_millis(2));
        }
        let queued = match submit(&engine, spec(21), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        let report = engine.drain();
        assert_eq!(engine.get(running).unwrap().state, "done");
        assert_eq!(engine.get(queued).unwrap().state, "rejected");
        assert_eq!(
            report,
            DrainReport {
                completed: 1,
                rejected: 1,
                ..DrainReport::default()
            }
        );
        // Post-drain submissions are refused.
        assert!(matches!(
            submit(&engine, spec(22), false),
            Submission::Draining
        ));
    }

    #[test]
    fn drain_report_excludes_jobs_already_terminal_when_drain_began() {
        // Regression: DrainReport.completed used to count lifetime
        // completions. A job finished *before* the drain begins must not
        // appear in the report; only drain-open work counts.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            ..EngineConfig::default()
        });
        let done_before = match submit(&engine, spec(30), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        assert_eq!(wait_done(&engine, done_before).state, "done");
        let report = engine.drain();
        assert_eq!(
            report,
            DrainReport::default(),
            "a pre-drain completion is history, not drain work"
        );
        // The job itself is still pollable (within its TTL) as done.
        assert_eq!(engine.get(done_before).unwrap().state, "done");
    }

    #[test]
    fn terminal_jobs_retire_after_the_poll_grace_ttl() {
        // retire_ttl = 0: a terminal entry is swept by the next state
        // transition or submission. Ids never come back — a retired id
        // answers None like any unknown id.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            retire_ttl: Duration::ZERO,
            ..EngineConfig::default()
        });
        let id = match submit(&engine, spec(40), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        wait_done(&engine, id);
        // The next submission sweeps the table.
        let id2 = match submit(&engine, spec(41), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        assert!(engine.get(id).is_none(), "terminal job should be retired");
        assert!(id2 > id, "ids stay monotone; slots are never reused");
        wait_done(&engine, id2);
        engine.drain();
        assert!(engine.counter("jobs_retired") >= 1);
    }

    fn stream_spec(seed: u64, fps: f64) -> StreamSpec {
        StreamSpec {
            pipeline: PipelineKind::Tracking,
            size: InputSize::Sqcif,
            seed,
            fps,
            policy: DegradePolicy::Degrade,
        }
    }

    fn one_shot_digest(spec: &StreamSpec, frames: u64) -> u64 {
        run_one_shot(spec, frames)
            .expect("one-shot reference run")
            .iter()
            .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest))
    }

    #[test]
    fn unloaded_stream_is_bit_identical_to_the_one_shot_run() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            ..EngineConfig::default()
        });
        // 1 fps → a 1000 ms per-frame budget: never pressured, so every
        // frame runs at full resolution and the digests must match the
        // one-shot reference exactly.
        let spec = stream_spec(3, 1.0);
        let id = engine.open_stream(spec).expect("open stream");
        let frames = 6u64;
        for _ in 0..frames {
            let ticket = engine.submit_frame(id).expect("submit frame");
            assert!(!ticket.dropped && !ticket.degraded);
            let snap = engine
                .wait_terminal(ticket.job_id.unwrap(), Duration::from_secs(60))
                .expect("frame job exists");
            assert_eq!(snap.state, "done");
        }
        let status = engine.stream_status(id).expect("stream status");
        assert_eq!(status.submitted, frames);
        assert_eq!(status.completed, frames);
        assert_eq!(status.dropped + status.rejected + status.failed, 0);
        assert_eq!(status.sla_violations, 0);
        assert_eq!(status.rolling_digest, one_shot_digest(&spec, frames));
        let closed = engine.close_stream(id).expect("close stream");
        assert_eq!(closed.state, "closed");
        assert!(matches!(
            engine.submit_frame(id),
            Err(StreamRefused::Closed)
        ));
        engine.drain();
    }

    #[test]
    fn burst_submission_across_workers_preserves_frame_order() {
        // Submit every frame up front with several workers: the sequence
        // gate must still execute them in order, which the rolling digest
        // proves (fold_digest is order-sensitive).
        let engine = Engine::start(EngineConfig {
            workers: 3,
            queue_capacity: 64,
            ..EngineConfig::default()
        });
        let spec = stream_spec(8, 1.0);
        let id = engine.open_stream(spec).expect("open stream");
        let frames = 10u64;
        let mut last_job = None;
        for _ in 0..frames {
            let ticket = engine.submit_frame(id).expect("submit frame");
            assert!(
                !ticket.dropped,
                "an unloaded burst within the SLA budget never drops"
            );
            last_job = ticket.job_id;
        }
        let snap = engine
            .wait_terminal(last_job.unwrap(), Duration::from_secs(60))
            .expect("last frame exists");
        assert_eq!(snap.state, "done");
        let status = engine.stream_status(id).expect("stream status");
        assert_eq!(status.completed, frames);
        assert_eq!(status.in_flight, 0);
        assert_eq!(status.rolling_digest, one_shot_digest(&spec, frames));
        engine.drain();
    }

    #[test]
    fn stream_limit_and_unknown_ids_are_refused() {
        let engine = Engine::start(EngineConfig::default());
        assert!(engine.stream_status(99).is_none());
        assert!(engine.close_stream(99).is_none());
        assert!(matches!(
            engine.submit_frame(99),
            Err(StreamRefused::NoSuchStream)
        ));
        for _ in 0..MAX_STREAMS {
            engine.open_stream(stream_spec(1, 1.0)).expect("open");
        }
        assert!(matches!(
            engine.open_stream(stream_spec(1, 1.0)),
            Err(StreamRefused::LimitReached)
        ));
        engine.drain();
        assert!(matches!(
            engine.open_stream(stream_spec(1, 1.0)),
            Err(StreamRefused::Draining)
        ));
    }

    #[test]
    fn batched_group_executes_every_job() {
        // Four same-group jobs through one worker: all must complete, and
        // the batch_size histogram must have seen a multi-job batch.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 16,
            hold: Some(Duration::from_millis(50)),
            ..EngineConfig::default()
        });
        let ids: Vec<u64> = (0..4)
            .map(|seed| match submit(&engine, spec(100 + seed), true) {
                Submission::Queued(id) => id,
                other => panic!("expected Queued, got {other:?}"),
            })
            .collect();
        for id in ids {
            assert_eq!(wait_done(&engine, id).state, "done");
        }
        assert_eq!(engine.counter("jobs_executed"), 4);
        let text = engine.metrics_text();
        assert!(
            text.contains("sdvbs_serve_batch_size"),
            "batch_size histogram missing from metrics:\n{text}"
        );
        engine.drain();
    }
}
