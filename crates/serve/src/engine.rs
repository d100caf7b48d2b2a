//! The serving engine: a job table over the scheduling tier with
//! long-lived worker threads.
//!
//! Submission is admission-controlled: the pending queue is the
//! scheduler's [`Drr`], bounded at [`EngineConfig::queue_capacity`]
//! pending jobs, and a submission that finds it full is refused
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
//! The bookkeeping — ids, lifecycle, cache front, retirement, drain
//! accounting — is the shared sans-IO [`JobTable`], held with the pending
//! queue and the sans-IO stream table ([`crate::stream`]) under one state
//! mutex, so cache, coalesce, admission and dequeue decisions are atomic
//! with respect to worker completions, and a stream frame takes its
//! stream's pipeline, and gives it back, under that mutex too. Idle
//! workers wait on its `ready` condvar; pollers, the drain and frames
//! waiting for their turn wait on its `changed` condvar. No lock is taken
//! before it (metrics and trace come after), and none is held across a
//! socket write.
//!
//! Terminal jobs are **retired** after
//! [`EngineConfig::retire_ttl`] (a poll-grace window): ids stay stable,
//! but a long-lived daemon's memory no longer grows with every job it
//! has ever run. Polling a retired id answers `404`, same as an id that
//! never existed.
//!
//! Draining ([`Engine::drain`]) stops admission: jobs currently on
//! workers run to completion, everything still queued is dequeued and
//! rejected (`503` when polled), and the workers exit once the queue is
//! empty. The [`DrainReport`]'s `drained` tally counts **only the work
//! that was open (queued or running) when the drain began**; its
//! `lifetime` tally counts every job the engine resolved.

use crate::backend::{self, Backend};
use crate::cache::{cache_preimage, ServedRecord, DEFAULT_CACHE_CAPACITY};
use crate::jobs::{count_put, Admission, JobState, JobTable, DEFAULT_RETIRE_TTL, SHUTTING_DOWN};
pub use crate::jobs::{JobSnapshot, Submission};
pub use crate::sched::group_key;
use crate::sched::{self, Batch, Drr, JobClass, SchedConfig};
use crate::shutdown::DrainReport;
use crate::stream::{
    self, FrameTask, FrameTicket, StreamRefused, StreamStatus, StreamTable, LATENCY_WINDOW,
};
use sdvbs_core::ExecPolicy;
use sdvbs_runner::{execute_job, honors_exec_policy, HostMeta, Job, RunStatus};
use sdvbs_stream::StreamSpec;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{alloc_track, now_us, trace_epoch, MetricsRegistry, Phase, TraceEvent};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Retained samples per benchmark×size×threads execution histogram — the
/// scaling model's observation window.
const EXEC_HISTORY_WINDOW: usize = 64;

/// Engine sizing and test instrumentation.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Pending-queue capacity — the admission-control bound. Submissions
    /// that find this many jobs pending are refused with
    /// [`Submission::QueueFull`].
    pub queue_capacity: usize,
    /// Per-job watchdog deadline (see [`sdvbs_runner::supervise()`]).
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
            retire_ttl: DEFAULT_RETIRE_TTL,
        }
    }
}

/// What a job-table entry executes: a one-shot benchmark spec, or one
/// frame of an open stream.
#[derive(Clone)]
enum Payload {
    Bench(Job),
    Frame(FrameTask),
}

impl Payload {
    /// The scheduler group the job batches under.
    fn group(&self) -> String {
        match self {
            Payload::Bench(spec) => group_key(spec),
            Payload::Frame(task) => format!("stream:{}", task.stream),
        }
    }
}

/// Everything the engine's state mutex guards.
struct State {
    table: JobTable<Payload>,
    /// Admitted jobs not yet taken by a worker.
    pending: Drr,
    streams: StreamTable,
}

/// The benchmark-serving engine. Construct with [`Engine::start`]; always
/// wrapped in an [`Arc`] because the worker threads hold a reference.
pub struct Engine {
    state: Mutex<State>,
    /// Job state changed: pollers and the drain wait on it.
    changed: Condvar,
    /// A job was queued or the drain began: idle workers wait on it.
    ready: Condvar,
    metrics: Mutex<MetricsRegistry>,
    trace: Mutex<Vec<TraceEvent>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    cfg: EngineConfig,
    auto_threads: usize,
    host: HostMeta,
}

impl Engine {
    /// Builds the engine and spawns its worker threads.
    pub fn start(cfg: EngineConfig) -> Arc<Engine> {
        let engine = Arc::new(Engine {
            state: Mutex::new(State {
                table: JobTable::new(cfg.cache_capacity, cfg.retire_ttl),
                pending: Drr::new(cfg.sched.clone()),
                streams: StreamTable::new(cfg.retire_ttl),
            }),
            changed: Condvar::new(),
            ready: Condvar::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            trace: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
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

    /// Current number of entries in the job table (tests pin the
    /// retirement bound with this).
    pub fn jobs_table_len(&self) -> usize {
        self.lock_state().table.len()
    }

    /// Lifetime LRU evictions from the result cache.
    pub fn cache_evictions(&self) -> u64 {
        self.lock_state().table.cache_evictions()
    }

    /// A standalone copy of the lifetime registry, for shipping over the
    /// wire to a coordinator.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        out.merge(&self.metrics());
        out
    }

    fn push_trace(&self, event: TraceEvent) {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
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
        while let Some(batch) = self.next_batch() {
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
            // — same benchmark×size just ran on this thread.
            let mut warm = false;
            let n = batch.ids.len();
            for (i, &id) in batch.ids.iter().enumerate() {
                let last = i + 1 == n;
                // A job dequeued after the drain began is rejected without
                // executing, so it never starts.
                let mut st = self.lock_state();
                let draining = st.table.is_draining();
                let payload = if draining {
                    st.table.get(id).map(|e| &e.payload)
                } else {
                    st.table.start(id, worker)
                };
                let payload = payload
                    .expect("a queued job stays in the table until terminal + TTL")
                    .clone();
                if !draining {
                    self.changed.notify_all();
                }
                match payload {
                    Payload::Frame(task) => {
                        drop(st);
                        self.run_frame(&batch, id, &task, draining, worker, last);
                    }
                    Payload::Bench(_) if draining => {
                        // The window span closes while the state lock is
                        // still held, so the rejection is never visible
                        // before it.
                        if last {
                            self.push_batch_end(&batch, track);
                        }
                        self.reject_draining(&mut st.table, id);
                    }
                    Payload::Bench(spec) => {
                        drop(st);
                        if self.run_one(&batch, id, spec, warm, worker, last) {
                            warm = true;
                        }
                    }
                }
            }
        }
    }

    /// Admits a job through the table's front into the pending queue,
    /// unless [`EngineConfig::queue_capacity`] jobs already wait there,
    /// and wakes an idle worker for it.
    fn admit(
        &self,
        table: &mut JobTable<Payload>,
        pending: &mut Drr,
        payload: Payload,
        key: Option<String>,
        fresh: bool,
        class: JobClass,
    ) -> Admission {
        let capacity = self.cfg.queue_capacity.max(1);
        let admission = table.submit(payload, key, fresh, trace_epoch().elapsed(), |id, job| {
            if pending.len() >= capacity {
                return Err(Submission::QueueFull);
            }
            pending.push_back(id, &job.group(), class);
            Ok(())
        });
        if matches!(admission.answer, Submission::Queued(_)) {
            self.ready.notify_one();
        }
        admission
    }

    /// Blocks until a batch is pending and takes it; once the drain began
    /// and nothing is pending, `None` — the worker-exit signal.
    fn next_batch(&self) -> Option<Batch> {
        let mut st = self.lock_state();
        loop {
            if let Some(batch) = st.pending.pop_batch() {
                return Some(batch);
            }
            if st.table.is_draining() {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the dispatch-window span. Called for the batch's last job
    /// *before* that job's terminal state becomes externally visible — a
    /// trace fetched after every submitted job polls done therefore never
    /// catches the window still open.
    fn push_batch_end(&self, batch: &Batch, track: u32) {
        self.push_trace(TraceEvent::new(
            format!("batch {}", batch.group),
            "batch",
            Phase::End,
            now_us(),
            track,
        ));
    }

    /// Moves job `id` to a terminal state and wakes the pollers. `false`
    /// when the job was already terminal.
    fn finish(&self, st: &mut JobTable<Payload>, id: u64, state: JobState) -> bool {
        let put = st.finish(id, state, trace_epoch().elapsed());
        if let Some(put) = put {
            count_put(&mut self.metrics(), put);
            self.changed.notify_all();
        }
        put.is_some()
    }

    /// Rejects a job dequeued after the drain began.
    fn reject_draining(&self, st: &mut JobTable<Payload>, id: u64) {
        if self.finish(st, id, JobState::Rejected(SHUTTING_DOWN.into())) {
            self.incr("rejected_draining");
        }
    }

    /// Executes one started benchmark job of a batch. Returns whether the
    /// benchmark actually ran (and the batch is therefore warm).
    fn run_one(
        &self,
        batch: &Batch,
        id: u64,
        spec: Job,
        warm: bool,
        worker: usize,
        last: bool,
    ) -> bool {
        let track = worker as u32;
        if let Some(hold) = self.cfg.hold {
            thread::sleep(hold);
        }
        // An auto policy goes through the scaling model when the
        // benchmark's kernels honor it; everything else is exactly what
        // the client asked for (a benchmark that ignores its policy runs
        // serially).
        let tunable = spec.policy == ExecPolicy::Auto && honors_exec_policy(&spec) == Ok(true);
        let tuned = tunable.then(|| {
            sched::pick_threads(
                &self.metrics(),
                &batch.group,
                &spec.benchmark,
                self.auto_threads,
            )
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
        let result = execute_job(&spec, id, auto_threads, &self.host, self.cfg.timeout, warm);
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
        // Counters move under the state lock, before the terminal state is
        // visible: a client that polls `done` reads them already counted.
        let mut st = self.lock_state();
        match result {
            Ok(served) => {
                // Feed the scaling model: the best pipeline time at this
                // thread width, windowed so a long-lived daemon tracks
                // recent behavior in bounded memory.
                let record = served.record();
                let mut metrics = self.metrics();
                if record.status == RunStatus::Completed && record.min_ms > 0.0 {
                    metrics.observe_windowed(
                        &sched::exec_hist_name(&batch.group, record.threads),
                        record.min_ms,
                        EXEC_HISTORY_WINDOW,
                    );
                }
                if tuned.is_some() {
                    metrics.incr("sched_tuned_jobs", 1);
                }
                metrics.incr("jobs_executed", 1);
                metrics.observe("job_exec_ms", exec_ms);
                drop(metrics);
                self.finish(&mut st.table, id, JobState::Done(served));
                true
            }
            Err(e) => {
                self.incr("jobs_invalid");
                self.finish(&mut st.table, id, JobState::Rejected(e.to_string()));
                false
            }
        }
    }

    /// Executes (or drain-rejects) one stream frame. Frames never touch
    /// the result cache or the in-flight map — each is a unique stateful
    /// step of its pipeline. The frame waits for its turn: even when
    /// frames of one stream land on several workers, they take the
    /// pipeline strictly in submission order (pipeline state makes order a
    /// correctness property). The wait cannot deadlock: the scheduler's
    /// group queue is FIFO, so every earlier frame is already on or
    /// through a worker.
    fn run_frame(
        &self,
        batch: &Batch,
        id: u64,
        task: &FrameTask,
        draining: bool,
        worker: usize,
        last: bool,
    ) {
        let track = worker as u32;
        let mut st = self.lock_state();
        let mut pipeline = loop {
            if let Some(pipeline) = st.streams.take_turn(task) {
                break pipeline;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        };
        if draining {
            // Honest drain accounting: rejected in turn order, never run.
            if last {
                self.push_batch_end(batch, track);
            }
            st.streams.reject(task, pipeline, trace_epoch().elapsed());
            self.reject_draining(&mut st.table, id);
            self.incr("stream_frames_rejected");
            return;
        }
        drop(st);
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::Begin,
            now_us(),
            task.track,
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
                let (fw, fh) = task.spec.full_dims();
                let (dw, dh) = task.spec.degraded_dims();
                hold.mul_f64((dw * dh) as f64 / (fw * fh) as f64)
            } else {
                hold
            };
            thread::sleep(hold);
        }
        let result = pipeline.process(task.frame, task.degraded);
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::End,
            now_us(),
            task.track,
        ));
        if last {
            self.push_batch_end(batch, track);
        }
        // The frame's accounting, its stream's own series and the job's
        // terminal state move together, so a closed stream cannot retire
        // (and drop its series) before they land.
        let mut st = self.lock_state();
        let now = trace_epoch().elapsed();
        let (latency_ms, violated) = st.streams.complete(task, pipeline, exec_ms, &result, now);
        let mut metrics = self.metrics();
        metrics.observe_windowed(
            &format!("stream_{}_frame_latency_ms", task.stream),
            latency_ms,
            LATENCY_WINDOW,
        );
        if violated {
            metrics.incr("stream_sla_violations", 1);
            metrics.incr(&format!("stream_{}_sla_violations", task.stream), 1);
        }
        metrics.observe("stream_frame_exec_ms", exec_ms);
        let (outcome, state) = match result {
            Ok(r) => ("completed", JobState::FrameDone(r.detail)),
            Err(e) => ("failed", JobState::Rejected(e.to_string())),
        };
        metrics.incr(&format!("stream_frames_{outcome}"), 1);
        drop(metrics);
        self.finish(&mut st.table, id, state);
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn incr(&self, name: &str) {
        self.metrics().incr(name, 1);
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics().observe(name, value);
    }
}

impl Backend for Engine {
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let key = cache_preimage(&spec);
        let st = &mut *self.lock_state();
        let payload = Payload::Bench(spec);
        let admission = self.admit(
            &mut st.table,
            &mut st.pending,
            payload,
            Some(key),
            fresh,
            class,
        );
        admission.count(&mut self.metrics(), class);
        admission.answer
    }

    fn get(&self, id: u64) -> Option<JobSnapshot> {
        self.lock_state().table.snapshot(id)
    }

    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        backend::wait_terminal(&self.state, &self.changed, wait, |st| st.table.snapshot(id))
    }

    /// Lets running jobs finish, rejects everything still queued, then
    /// joins the worker threads. Idempotent. The report's `drained` tally
    /// counts **only the work resolved by this drain**: jobs already
    /// terminal when it began are history, counted in `lifetime`.
    fn drain(&self) -> DrainReport {
        self.begin_drain();
        let report = self
            .changed
            .wait_while(self.lock_state(), |st| st.table.outstanding() > 0)
            .unwrap_or_else(PoisonError::into_inner)
            .table
            .drain_report(&[]);
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

    /// Refuses new submissions and wakes the idle workers, which reject
    /// what is still pending and exit. The shutdown endpoint calls this
    /// inline before responding, so a submission that arrives after the
    /// shutdown response is answered `503`, never `429`.
    fn begin_drain(&self) {
        self.lock_state().table.begin_drain();
        self.ready.notify_all();
    }

    fn is_draining(&self) -> bool {
        self.lock_state().table.is_draining()
    }

    /// Validates the spec, builds its stateful pipeline, and allocates it
    /// a trace track. Refused while draining — judged under the lock that
    /// inserts the stream — or at the `MAX_STREAMS` open-stream cap.
    fn open_stream(&self, spec: StreamSpec) -> Result<u64, StreamRefused> {
        let mut st = self.lock_state();
        if st.table.is_draining() {
            return Err(StreamRefused::Draining);
        }
        let pipeline = stream::build_for(&spec)?;
        // Same contract as job retirement: a long-lived daemon's memory
        // does not grow with every stream it has ever served.
        let retired = st.streams.sweep(trace_epoch().elapsed());
        if !retired.is_empty() {
            // A retired stream's own series go with it; the lifetime
            // totals across streams stay.
            let mut metrics = self.metrics();
            metrics.incr("streams_retired", retired.len() as u64);
            for id in retired {
                metrics.remove_prefixed(&format!("stream_{id}_"));
            }
        }
        if st.streams.is_full() {
            self.incr("streams_refused_limit");
            return Err(StreamRefused::LimitReached);
        }
        let track = alloc_track();
        let id = st.streams.open(spec, track, pipeline);
        self.push_trace(TraceEvent::new(
            format!("stream {id} ({})", spec.pipeline.label()),
            "meta",
            Phase::Meta,
            0,
            track,
        ));
        self.incr("streams_opened");
        Ok(id)
    }

    /// The backpressure policy decides the frame's fate at admission:
    /// process at full size, process degraded, or drop. A dropped frame is
    /// a *successful* submission — shedding is the declared contract — but
    /// a frame refused as draining is uncounted.
    fn submit_frame(&self, stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        let st = &mut *self.lock_state();
        let mut retired = 0;
        let ticket = st
            .streams
            .submit(stream_id, trace_epoch().elapsed(), |task| {
                let payload = Payload::Frame(task);
                let class = JobClass::Interactive;
                let admission =
                    self.admit(&mut st.table, &mut st.pending, payload, None, true, class);
                retired = admission.retired;
                admission.answer
            })?;
        // Under the state lock, like the frame path's series: a stream
        // cannot retire before its own series land.
        let mut metrics = self.metrics();
        if retired > 0 {
            metrics.incr("jobs_retired", retired);
        }
        metrics.incr("stream_frames_submitted", 1);
        if ticket.dropped || ticket.degraded {
            let outcome = if ticket.dropped {
                "dropped"
            } else {
                "degraded"
            };
            metrics.incr(&format!("stream_frames_{outcome}"), 1);
            metrics.incr(&format!("stream_{stream_id}_frames_{outcome}"), 1);
        }
        Ok(ticket)
    }

    fn stream_status(&self, id: u64) -> Option<StreamStatus> {
        self.lock_state().streams.status(id)
    }

    /// No further frames are accepted; in-flight frames finish normally.
    fn close_stream(&self, id: u64) -> Option<StreamStatus> {
        let (first, status) = self
            .lock_state()
            .streams
            .close(id, trace_epoch().elapsed())?;
        if first {
            self.incr("streams_closed");
        }
        Some(status)
    }

    fn metrics_text(&self) -> String {
        self.metrics().to_prometheus("sdvbs_serve")
    }

    fn merge_metrics(&self, other: &MetricsRegistry) {
        self.metrics().merge(other);
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics().counter(name)
    }

    /// One track per engine worker carrying a span per batch, with the
    /// jobs' spans nested inside.
    fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shutdown::Tally;
    use crate::stream::MAX_STREAMS;
    use sdvbs_core::InputSize;
    use sdvbs_stream::{fold_digest, run_one_shot, DegradePolicy, PipelineKind, DIGEST_SEED};

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
            report.drained,
            Tally {
                completed: 1,
                rejected: 1,
                ..Tally::default()
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
        // Regression: the drain report used to count lifetime
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
            report.drained,
            Tally::default(),
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
        // Submit every frame up front with several workers: the frames
        // must still take their turns in order, which the rolling digest
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
    fn a_closed_stream_retires_only_after_its_last_frame_finishes() {
        let engine = Engine::start(EngineConfig {
            retire_ttl: Duration::ZERO,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        });
        let id = engine
            .open_stream(stream_spec(2, 1.0))
            .expect("open stream");
        let ticket = engine.submit_frame(id).expect("submit frame");
        engine.close_stream(id).expect("close stream");
        // A sweep past the TTL while the frame is held in flight keeps it.
        engine
            .open_stream(stream_spec(3, 1.0))
            .expect("open stream");
        assert_eq!(engine.counter("streams_retired"), 0);
        assert_eq!(engine.stream_status(id).expect("still known").in_flight, 1);
        let job = ticket.job_id.expect("frame accepted");
        assert_eq!(wait_done(&engine, job).state, "done");
        // The first sweep after the frame finished retires the stream.
        engine
            .open_stream(stream_spec(4, 1.0))
            .expect("open stream");
        assert_eq!(engine.counter("streams_retired"), 1);
        assert!(engine.stream_status(id).is_none());
        // Closing twice is idempotent.
        let other = engine
            .open_stream(stream_spec(5, 1.0))
            .expect("open stream");
        engine.close_stream(other).expect("close");
        assert_eq!(engine.close_stream(other).expect("known").state, "closed");
        engine.drain();
    }

    #[test]
    fn a_retired_streams_own_series_leave_the_metrics() {
        // A 30 ms hold against a 60 fps (16.7 ms) SLA: each stream's first
        // frame misses it and its policy sheds the second, so the two
        // streams own all four per-stream series between them.
        let engine = Engine::start(EngineConfig {
            retire_ttl: Duration::ZERO,
            hold: Some(Duration::from_millis(30)),
            ..EngineConfig::default()
        });
        let ids: Vec<u64> = [DegradePolicy::Drop, DegradePolicy::Degrade]
            .into_iter()
            .map(|policy| {
                let spec = StreamSpec {
                    fps: 60.0,
                    policy,
                    ..stream_spec(6, 1.0)
                };
                engine.open_stream(spec).expect("open stream")
            })
            .collect();
        for &id in &ids {
            for _ in 0..2 {
                if let Some(job) = engine.submit_frame(id).expect("submit frame").job_id {
                    assert_eq!(wait_done(&engine, job).state, "done");
                }
            }
            engine.close_stream(id).expect("close stream");
        }
        let text = engine.metrics_text();
        for series in [
            "frame_latency_ms",
            "sla_violations",
            "frames_dropped",
            "frames_degraded",
        ] {
            assert!(
                ids.iter()
                    .any(|id| text.contains(&format!("_stream_{id}_{series}"))),
                "no stream recorded {series}:\n{text}"
            );
        }
        // The next open sweeps both closed, idle streams and their series.
        engine
            .open_stream(stream_spec(7, 1.0))
            .expect("open stream");
        assert_eq!(engine.counter("streams_retired"), 2);
        let text = engine.metrics_text();
        for id in ids {
            let prefix = format!("sdvbs_serve_stream_{id}_");
            assert!(
                !text.lines().any(|line| line.starts_with(&prefix)),
                "stream {id}'s series outlived it:\n{text}"
            );
        }
        assert!(text.contains("sdvbs_serve_stream_sla_violations"));
        engine.drain();
    }

    #[test]
    fn only_policy_honoring_benchmarks_consult_the_scaling_model() {
        let engine = Engine::start(EngineConfig::default());
        let run_auto = |benchmark: &str| {
            let job = Job::new(benchmark, InputSize::Sqcif, ExecPolicy::Auto, 1, 1);
            let id = match submit(&engine, job, true) {
                Submission::Queued(id) => id,
                other => panic!("expected Queued, got {other:?}"),
            };
            let snap = wait_done(&engine, id);
            snap.record.expect("a completed record").record().threads
        };
        // Feature Tracking ignores its policy: no pick, one thread.
        let threads = run_auto("Feature Tracking");
        assert_eq!(engine.counter("sched_tuned_jobs"), 0);
        assert_eq!(threads, 1);
        run_auto("Disparity Map");
        assert_eq!(engine.counter("sched_tuned_jobs"), 1);
        engine.drain();
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
