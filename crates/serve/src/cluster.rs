//! The cluster coordinator: a [`Backend`] that shards jobs over TCP to
//! `sdvbs-serve worker` processes.
//!
//! The coordinator keeps the whole serving front local — the result
//! cache, request coalescing, and admission control are exactly the
//! single-process mechanisms, sitting above a dispatch layer instead of a
//! thread pool. An admitted job is **sharded** to its home worker
//! (`digest % workers`, so identical specs always land on the same
//! process and its engine-level state stays warm) and **stolen** to the
//! least-loaded live worker when the home shard is backed up or dead.
//!
//! Worker death is detected two ways: an I/O error or torn frame on the
//! link (immediate), or heartbeat staleness past the liveness window
//! (for a hung-but-connected process). A dead worker's in-flight jobs are
//! requeued onto survivors; a job that keeps landing on dying workers is
//! **quarantined** after its retry budget — the same terminal-but-honest
//! semantics the runner's fault layer uses — and the drain report names
//! every dead worker. Heartbeat staleness is ignored once a drain starts:
//! a worker blocked finishing its queue legitimately stops answering.
//!
//! Metrics and traces aggregate on demand: `/metrics` renders the
//! coordinator's own registry plus each worker's, both folded into the
//! cluster totals and re-exported under a `w<N>_` prefix; `/v1/trace`
//! fetches per-worker event streams and merges them with
//! [`merge_process_traces`] onto worker-labelled tracks, aligning each
//! worker's trace epoch by the clock offset estimated at handshake.

use crate::backend::Backend;
use crate::cache::{
    cache_preimage, spec_digest, CacheLookup, ResultCache, ServedRecord, DEFAULT_CACHE_CAPACITY,
};
use crate::coalesce::InflightMap;
use crate::engine::{group_key, JobSnapshot, Submission};
use crate::protocol::{self, OrphanDisposition, RetryPolicy};
use crate::sched::{Drr, JobClass, SchedConfig};
use crate::shutdown::DrainReport;
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{Job, RunRecord};
use sdvbs_trace::{
    merge_process_traces, now_us, MetricsRegistry, ProcessTrace, TraceEvent, TrackId,
};
use sdvbs_wire::{tcp_pair, FrameRx, FrameTx, Message, WireError, PROTO_VERSION};
use std::collections::{HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Merged worker tracks start here — far above both the engine's
/// per-worker tracks (0..N) and the connection tracks allocated from
/// [`sdvbs_trace::DYNAMIC_TRACK_BASE`], so a merged cluster trace never
/// collides with the coordinator's own spans.
pub const CLUSTER_TRACK_BASE: TrackId = 1 << 20;

/// How long a metrics/trace/drain request waits for its worker's reply.
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Cluster sizing and liveness tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), connected at startup. Order is
    /// identity: worker `i` is named `w<i>` in traces, metrics, and
    /// drain reports.
    pub workers: Vec<String>,
    /// Admission bound: outstanding (admitted, non-terminal) jobs beyond
    /// this are refused with [`Submission::QueueFull`].
    pub queue_capacity: usize,
    /// Most jobs dispatched-and-unfinished on one worker before the
    /// dispatcher steals to another shard.
    pub per_worker_inflight: usize,
    /// Heartbeat send interval.
    pub heartbeat: Duration,
    /// A worker whose last heartbeat reply is older than this is declared
    /// dead (ignored while draining — see the module docs).
    pub liveness: Duration,
    /// Retries a job gets beyond its first execution before it is
    /// quarantined (same accounting as the runner's `max_retries`; see
    /// [`crate::protocol::RetryPolicy`]). One worker death costs one
    /// attempt; a `Busy` bounce costs none.
    pub retry_budget: u32,
    /// Time source for heartbeat pacing and staleness measurement. The
    /// default system clock is production; tests substitute a virtual
    /// one.
    pub clock: ClockHandle,
    /// Coordinator-side result-cache bound (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Scheduler knobs for the pending queue's deficit round robin.
    pub sched: SchedConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: Vec::new(),
            queue_capacity: 32,
            per_worker_inflight: 8,
            heartbeat: Duration::from_millis(300),
            liveness: Duration::from_secs(3),
            retry_budget: 2,
            clock: ClockHandle::system(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            sched: SchedConfig::default(),
        }
    }
}

/// Where a cluster job is in its lifecycle.
enum CJobState {
    /// Admitted, waiting for the dispatcher.
    Pending,
    /// Dispatched to worker `i`, awaiting its result.
    Dispatched(usize),
    /// Finished with a record.
    Done(Arc<ServedRecord>),
    /// Refused without a result (drain, or a worker-side validation
    /// error).
    Rejected(String),
    /// Abandoned after exhausting the retry budget across worker deaths.
    Quarantined(String),
}

struct CJob {
    spec: Job,
    digest: u64,
    /// The canonical cache preimage, verified on every cache hit.
    key: String,
    /// The benchmark×size scheduling group.
    group: String,
    class: JobClass,
    state: CJobState,
    attempts: u32,
}

struct ClusterState {
    jobs: Vec<CJob>,
    inflight: InflightMap,
    /// Admitted-not-dispatched jobs, scheduled by deficit round robin
    /// across QoS classes with benchmark×size batching.
    pending: Drr,
    /// The batch the dispatcher is currently working through (popped from
    /// `pending`; drain rejects these too).
    current: VecDeque<u64>,
    outstanding: usize,
    draining: bool,
    dead: Vec<String>,
}

/// One connected worker process.
struct WorkerLink {
    index: usize,
    name: String,
    /// The sending half of the link; internally serialized, shared by
    /// the dispatcher, heartbeat, and rpc paths.
    tx: Box<dyn FrameTx>,
    alive: AtomicBool,
    /// [`ClockHandle::now`] of the last heartbeat reply.
    last_beat: Mutex<Duration>,
    /// `coordinator_now_us - worker_now_us`, refreshed on every heartbeat
    /// reply; aligns the worker's trace epoch onto ours.
    offset_us: AtomicI64,
    /// Jobs dispatched to this worker and not yet resolved.
    dispatched: Mutex<HashSet<u64>>,
    /// Serializes metrics/trace/drain request-reply exchanges.
    rpc: Mutex<()>,
    replies: Mutex<mpsc::Receiver<Message>>,
    reply_tx: mpsc::Sender<Message>,
}

impl WorkerLink {
    fn inflight_len(&self) -> usize {
        self.dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// The coordinator backend. Construct with [`ClusterEngine::start`];
/// always behind an [`Arc`] because its service threads hold references.
pub struct ClusterEngine {
    state: Mutex<ClusterState>,
    changed: Condvar,
    cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    links: Vec<Arc<WorkerLink>>,
    cfg: ClusterConfig,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Raised when the drain starts tearing links down, so link closure
    /// is no longer treated as a death.
    stopping: AtomicBool,
}

impl ClusterEngine {
    /// Connects to every worker, completes the version handshake, and
    /// spawns the dispatcher, per-link readers, and the heartbeat
    /// monitor.
    ///
    /// # Errors
    ///
    /// A connect failure, handshake I/O error, or protocol-version
    /// mismatch on any worker aborts startup — a cluster that begins life
    /// degraded is a misconfiguration, not a fault to tolerate.
    pub fn start(cfg: ClusterConfig) -> Result<Arc<ClusterEngine>, String> {
        if cfg.workers.is_empty() {
            return Err("cluster mode needs at least one worker address".into());
        }
        let mut links = Vec::new();
        let mut readers = Vec::new();
        for (index, addr) in cfg.workers.iter().enumerate() {
            let (link, rx) = connect_worker(index, addr, &cfg.clock)?;
            links.push(Arc::new(link));
            readers.push(rx);
        }
        let engine = Arc::new(ClusterEngine {
            state: Mutex::new(ClusterState {
                jobs: Vec::new(),
                inflight: InflightMap::new(),
                pending: Drr::new(cfg.sched.clone()),
                current: VecDeque::new(),
                outstanding: 0,
                draining: false,
                dead: Vec::new(),
            }),
            changed: Condvar::new(),
            cache: ResultCache::with_capacity(cfg.cache_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            links,
            cfg,
            threads: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        let mut handles = Vec::new();
        for (link, mut rx) in engine.links.iter().zip(readers) {
            let engine2 = Arc::clone(&engine);
            let link2 = Arc::clone(link);
            handles.push(
                thread::Builder::new()
                    .name(format!("sdvbs-coord-read-{}", link.name))
                    .spawn(move || engine2.reader_loop(&link2, rx.as_mut()))
                    .expect("spawning a link reader"),
            );
        }
        {
            let engine2 = Arc::clone(&engine);
            handles.push(
                thread::Builder::new()
                    .name("sdvbs-coord-dispatch".to_string())
                    .spawn(move || engine2.dispatch_loop())
                    .expect("spawning the dispatcher"),
            );
        }
        {
            let engine2 = Arc::clone(&engine);
            handles.push(
                thread::Builder::new()
                    .name("sdvbs-coord-heartbeat".to_string())
                    .spawn(move || engine2.heartbeat_loop())
                    .expect("spawning the heartbeat monitor"),
            );
        }
        *engine
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handles;
        Ok(engine)
    }

    /// Worker names still answering, in index order.
    pub fn alive_workers(&self) -> Vec<String> {
        self.links
            .iter()
            .filter(|l| l.alive.load(Ordering::SeqCst))
            .map(|l| l.name.clone())
            .collect()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ClusterState> {
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

    /// Picks the target worker for a job via the shared protocol policy
    /// ([`protocol::pick_target`]): home shard when alive with headroom,
    /// else least-loaded live worker. `None` when no live worker has
    /// headroom.
    fn pick_worker(&self, digest: u64) -> Option<usize> {
        let alive: Vec<bool> = self
            .links
            .iter()
            .map(|l| l.alive.load(Ordering::SeqCst))
            .collect();
        let inflight: Vec<usize> = self.links.iter().map(|l| l.inflight_len()).collect();
        protocol::pick_target(digest, &alive, &inflight, self.cfg.per_worker_inflight)
    }

    fn dispatch_loop(&self) {
        loop {
            // Take the next pending job, or learn that we are done.
            let (id, spec, w) = {
                let mut st = self.lock_state();
                loop {
                    // Refill the dispatch window from the scheduler: one
                    // DRR batch at a time, dispatched id by id below.
                    if st.current.is_empty() {
                        if let Some(batch) = st.pending.pop_batch() {
                            self.observe("batch_size", batch.ids.len() as f64);
                            st.current.extend(batch.ids);
                        }
                    }
                    if let Some(&id) = st.current.front() {
                        if self.links.iter().all(|l| !l.alive.load(Ordering::SeqCst)) {
                            // Nothing left to run on: every admitted job
                            // fails loudly rather than waiting forever.
                            st.current.pop_front();
                            self.fail_job(
                                &mut st,
                                id,
                                CJobState::Quarantined("no live workers".into()),
                            );
                            self.incr("jobs_quarantined");
                            continue;
                        }
                        if let Some(w) = self.pick_worker(st.jobs[id as usize].digest) {
                            st.current.pop_front();
                            let job = &mut st.jobs[id as usize];
                            job.state = CJobState::Dispatched(w);
                            job.attempts += 1;
                            let home = (job.digest % self.links.len() as u64) as usize;
                            if w != home {
                                self.incr("jobs_stolen");
                            }
                            self.links[w]
                                .dispatched
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(id);
                            break (id, job.spec.clone(), w);
                        }
                        // All live workers are at their in-flight cap: a
                        // completion or death frees a slot and notifies.
                        let (guard, _) = self
                            .changed
                            .wait_timeout(st, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner);
                        st = guard;
                        continue;
                    }
                    if self.stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    st = self
                        .changed
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let link = &self.links[w];
            if link.tx.send(&Message::Dispatch { id, spec }).is_err() {
                self.mark_dead(w, "dispatch write failed");
            }
        }
    }

    /// One link's read loop: results, heartbeat replies, and rpc replies.
    fn reader_loop(&self, link: &Arc<WorkerLink>, rx: &mut dyn FrameRx) {
        loop {
            match rx.recv() {
                Ok(Message::Done { id, record }) => self.job_done(link, id, *record),
                Ok(Message::Rejected { id, detail }) => self.job_rejected(link, id, &detail),
                Ok(Message::Busy { id }) => self.job_busy(link, id),
                Ok(Message::HeartbeatOk { now_us: theirs, .. }) => {
                    *link
                        .last_beat
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = self.cfg.clock.now();
                    link.offset_us
                        .store(now_us() as i64 - theirs as i64, Ordering::SeqCst);
                }
                Ok(
                    msg @ (Message::MetricsOk { .. }
                    | Message::TraceOk { .. }
                    | Message::DrainOk { .. }),
                ) => {
                    let _ = link.reply_tx.send(msg);
                }
                Ok(Message::Error { message }) => {
                    eprintln!("worker {}: {message}", link.name);
                }
                Ok(_) => {} // Not a worker-to-coordinator message; ignore.
                Err(WireError::Closed) if self.stopping.load(Ordering::SeqCst) => return,
                Err(e) => {
                    self.mark_dead(link.index, &e.to_string());
                    return;
                }
            }
        }
    }

    /// Declares worker `w` dead and requeues (or quarantines) everything
    /// it had in flight. Idempotent; a no-op during shutdown teardown.
    fn mark_dead(&self, w: usize, why: &str) {
        let link = &self.links[w];
        if !link.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        if self.stopping.load(Ordering::SeqCst) {
            return;
        }
        eprintln!("worker {} declared dead: {why}", link.name);
        self.incr("workers_died");
        let orphans: Vec<u64> = link
            .dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .collect();
        let mut st = self.lock_state();
        st.dead.push(link.name.clone());
        let policy = RetryPolicy {
            budget: self.cfg.retry_budget,
        };
        for id in orphans {
            let Some(job) = st.jobs.get(id as usize) else {
                continue;
            };
            if !matches!(job.state, CJobState::Dispatched(d) if d == w) {
                continue;
            }
            // Every execution of this job so far has failed (the last one
            // just died with its worker), so `attempts` *is* the
            // failed-execution count the shared policy judges.
            let attempts = job.attempts;
            match protocol::orphan_disposition(attempts, policy, st.draining) {
                OrphanDisposition::Quarantine => {
                    let detail = format!(
                        "quarantined after {attempts} attempts; worker {} died mid-run",
                        link.name
                    );
                    self.fail_job(&mut st, id, CJobState::Quarantined(detail));
                    self.incr("jobs_quarantined");
                }
                OrphanDisposition::RejectDraining => {
                    // The drain contract only finishes work that is
                    // actually running; an orphan re-entering the queue
                    // mid-drain is rejected like any other queued job.
                    let detail = format!("worker {} died during drain", link.name);
                    self.fail_job(&mut st, id, CJobState::Rejected(detail));
                    self.incr("rejected_draining");
                }
                OrphanDisposition::Requeue => {
                    // An orphan must not lose its place to later arrivals:
                    // it goes to the front of the current dispatch window.
                    st.jobs[id as usize].state = CJobState::Pending;
                    st.current.push_front(id);
                    self.incr("jobs_requeued");
                }
            }
        }
        self.changed.notify_all();
    }

    /// Moves job `id` to a terminal failure state and releases its
    /// coalescing claim. Caller holds the state lock.
    fn fail_job(&self, st: &mut ClusterState, id: u64, terminal: CJobState) {
        let job = &mut st.jobs[id as usize];
        job.state = terminal;
        let digest = job.digest;
        st.inflight.release(digest, id);
        st.outstanding = st.outstanding.saturating_sub(1);
        self.changed.notify_all();
    }

    fn job_done(&self, link: &Arc<WorkerLink>, id: u64, record: RunRecord) {
        link.dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        // Serialize once, outside the state lock: every later hit and poll
        // writes these bytes.
        let served = ServedRecord::new(record);
        let mut st = self.lock_state();
        let Some(job) = st.jobs.get_mut(id as usize) else {
            return;
        };
        if !matches!(job.state, CJobState::Dispatched(_)) {
            return;
        }
        let outcome = self.cache.put(job.digest, &job.key, &served);
        if outcome.evicted {
            self.incr("cache_evictions");
        }
        if outcome.collided {
            self.incr("cache_key_collisions");
        }
        self.observe("job_exec_ms", served.record().wall_ms);
        job.state = CJobState::Done(served);
        let digest = job.digest;
        st.inflight.release(digest, id);
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.incr("jobs_executed");
        self.changed.notify_all();
    }

    fn job_rejected(&self, link: &Arc<WorkerLink>, id: u64, detail: &str) {
        link.dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        let mut st = self.lock_state();
        if !matches!(
            st.jobs.get(id as usize).map(|j| &j.state),
            Some(CJobState::Dispatched(_))
        ) {
            return;
        }
        self.fail_job(&mut st, id, CJobState::Rejected(detail.to_string()));
        drop(st);
        self.incr("jobs_invalid");
    }

    /// The worker's queue was full: put the job back for the dispatcher,
    /// which will steal it to a less loaded shard. The bounced dispatch
    /// never executed, so it gives back the attempt it charged — `Busy`
    /// must not consume retry budget (attempts counts executions begun,
    /// the unified accounting in [`crate::protocol`]).
    fn job_busy(&self, link: &Arc<WorkerLink>, id: u64) {
        link.dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        let mut st = self.lock_state();
        if !matches!(
            st.jobs.get(id as usize).map(|j| &j.state),
            Some(CJobState::Dispatched(_))
        ) {
            return;
        }
        let job = &mut st.jobs[id as usize];
        job.state = CJobState::Pending;
        job.attempts = job.attempts.saturating_sub(1);
        let (group, class) = (job.group.clone(), job.class);
        st.pending.push_back(id, &group, class);
        drop(st);
        self.incr("busy_redispatched");
        self.changed.notify_all();
    }

    fn heartbeat_loop(&self) {
        let mut seq = 0u64;
        while !self.stopping.load(Ordering::SeqCst) {
            seq += 1;
            let draining = self.lock_state().draining;
            for (w, link) in self.links.iter().enumerate() {
                if !link.alive.load(Ordering::SeqCst) {
                    continue;
                }
                if link.tx.send(&Message::Heartbeat { seq }).is_err() {
                    self.mark_dead(w, "heartbeat write failed");
                    continue;
                }
                // Staleness is judged by the shared protocol policy: a
                // draining worker is allowed to go quiet (its read loop
                // is blocked finishing the queue); I/O errors still kill.
                let age = {
                    let beat = *link
                        .last_beat
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    self.cfg.clock.since(beat)
                };
                if protocol::is_stale(age, self.cfg.liveness, draining) {
                    self.mark_dead(w, "missed heartbeats");
                }
            }
            self.cfg.clock.sleep(self.cfg.heartbeat);
        }
    }

    /// One request-reply exchange with a worker. Replies are matched by
    /// message kind; stale replies from a timed-out earlier exchange are
    /// discarded first.
    fn rpc(&self, link: &Arc<WorkerLink>, req: Message, want: &str) -> Option<Message> {
        let _serial = link.rpc.lock().unwrap_or_else(PoisonError::into_inner);
        let replies = link.replies.lock().unwrap_or_else(PoisonError::into_inner);
        while replies.try_recv().is_ok() {}
        if link.tx.send(&req).is_err() {
            return None;
        }
        let deadline = Instant::now() + RPC_TIMEOUT;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match replies.recv_timeout(left) {
                Ok(msg) if msg.kind() == want => return Some(msg),
                Ok(_) => {} // A stale reply of another kind; keep waiting.
                Err(_) => return None,
            }
        }
    }
}

impl Backend for ClusterEngine {
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let digest = spec_digest(&spec);
        let key = cache_preimage(&spec);
        let mut st = self.lock_state();
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
                    self.incr("cache_key_collisions");
                }
                CacheLookup::Miss => {}
            }
            if let Some(id) = st.inflight.get(digest) {
                self.incr("coalesced");
                return Submission::Coalesced(id);
            }
        }
        if st.outstanding >= self.cfg.queue_capacity.max(1) {
            self.incr("rejected_queue_full");
            return Submission::QueueFull;
        }
        let id = st.jobs.len() as u64;
        let group = group_key(&spec);
        st.jobs.push(CJob {
            spec,
            digest,
            key,
            group: group.clone(),
            class,
            state: CJobState::Pending,
            attempts: 0,
        });
        st.inflight.claim(digest, id);
        st.pending.push_back(id, &group, class);
        st.outstanding += 1;
        drop(st);
        self.incr("jobs_submitted");
        self.incr(&format!("submitted_{}", class.label()));
        self.changed.notify_all();
        Submission::Queued(id)
    }

    fn get(&self, id: u64) -> Option<JobSnapshot> {
        let st = self.lock_state();
        st.jobs.get(id as usize).map(|job| snapshot(id, job))
    }

    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + wait;
        let mut st = self.lock_state();
        loop {
            let snap = st.jobs.get(id as usize).map(|job| snapshot(id, job))?;
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

    fn begin_drain(&self) {
        let mut st = self.lock_state();
        st.draining = true;
        // Reject everything admitted but not yet dispatched — the cluster
        // analog of the engine popping and rejecting its queue. The
        // current dispatch window counts as undispatched too.
        let mut pending: Vec<u64> = st.current.drain(..).collect();
        pending.extend(st.pending.drain_all());
        for id in pending {
            self.fail_job(
                &mut st,
                id,
                CJobState::Rejected("server shutting down before execution".into()),
            );
            self.incr("rejected_draining");
        }
        self.changed.notify_all();
    }

    fn drain(&self) -> DrainReport {
        self.begin_drain();
        // Wait for every dispatched job to resolve (a worker death mid-
        // drain resolves its orphans via `mark_dead`).
        let mut st = self.lock_state();
        while st
            .jobs
            .iter()
            .any(|j| matches!(j.state, CJobState::Pending | CJobState::Dispatched(_)))
        {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let report = DrainReport {
            completed: st
                .jobs
                .iter()
                .filter(|j| matches!(j.state, CJobState::Done(_)))
                .count(),
            rejected: st
                .jobs
                .iter()
                .filter(|j| matches!(j.state, CJobState::Rejected(_)))
                .count(),
            quarantined: st
                .jobs
                .iter()
                .filter(|j| matches!(j.state, CJobState::Quarantined(_)))
                .count(),
            dead_workers: st.dead.clone(),
        };
        drop(st);
        // Tear the cluster down: tell each surviving worker to drain and
        // exit. From here on link closure is shutdown, not death.
        self.stopping.store(true, Ordering::SeqCst);
        for link in &self.links {
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            let _ = self.rpc(link, Message::Drain, "drain_ok");
            link.alive.store(false, Ordering::SeqCst);
        }
        self.changed.notify_all();
        let handles: Vec<_> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        report
    }

    fn is_draining(&self) -> bool {
        self.lock_state().draining
    }

    fn metrics_text(&self) -> String {
        let mut agg = MetricsRegistry::new();
        agg.merge(&self.metrics.lock().unwrap_or_else(PoisonError::into_inner));
        for link in &self.links {
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            let Some(Message::MetricsOk { registry }) =
                self.rpc(link, Message::MetricsReq, "metrics_ok")
            else {
                continue;
            };
            // Fold into the cluster totals, and re-export per worker.
            agg.merge(&registry);
            for (name, v) in registry.counters() {
                agg.incr(&format!("{}_{name}", link.name), v);
            }
            for (name, h) in registry.histograms() {
                let labelled = format!("{}_{name}", link.name);
                for &s in h.samples() {
                    agg.observe(&labelled, s);
                }
            }
        }
        agg.to_prometheus("sdvbs_serve")
    }

    fn merge_metrics(&self, other: &MetricsRegistry) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(other);
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counter(name)
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        let mut parts = Vec::new();
        for link in &self.links {
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            let Some(Message::TraceOk {
                events,
                now_us: theirs,
            }) = self.rpc(link, Message::TraceReq, "trace_ok")
            else {
                continue;
            };
            // Refresh the epoch-skew estimate with this reply, then use
            // it to land the worker's events on our timeline.
            link.offset_us
                .store(now_us() as i64 - theirs as i64, Ordering::SeqCst);
            parts.push(ProcessTrace {
                name: link.name.clone(),
                offset_us: link.offset_us.load(Ordering::SeqCst),
                events,
            });
        }
        merge_process_traces(CLUSTER_TRACK_BASE, &parts)
            .events()
            .to_vec()
    }

    fn health_extra(&self) -> Option<String> {
        let alive = self.alive_workers();
        let dead = self.lock_state().dead.clone();
        let names = |list: &[String]| {
            list.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        Some(format!(
            "\"workers_alive\":{},\"workers_total\":{},\"workers\":[{}],\"dead_workers\":[{}]",
            alive.len(),
            self.links.len(),
            names(&alive),
            names(&dead),
        ))
    }
}

fn snapshot(id: u64, job: &CJob) -> JobSnapshot {
    match &job.state {
        CJobState::Pending => JobSnapshot {
            id,
            state: "queued",
            record: None,
            detail: String::new(),
        },
        CJobState::Dispatched(_) => JobSnapshot {
            id,
            state: "running",
            record: None,
            detail: String::new(),
        },
        CJobState::Done(record) => JobSnapshot {
            id,
            state: "done",
            record: Some(Arc::clone(record)),
            detail: String::new(),
        },
        CJobState::Rejected(why) | CJobState::Quarantined(why) => JobSnapshot {
            id,
            state: "rejected",
            record: None,
            detail: why.clone(),
        },
    }
}

/// Connects and handshakes one worker link, returning its send half
/// (inside the [`WorkerLink`]) and receive half (for the reader thread).
fn connect_worker(
    index: usize,
    addr: &str,
    clock: &ClockHandle,
) -> Result<(WorkerLink, Box<dyn FrameRx>), String> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| format!("connecting worker {index} at {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("worker {index}: {e}"))?;
    let (tx, mut rx) = tcp_pair(stream).map_err(|e| format!("worker {index}: {e}"))?;
    tx.send(&Message::Hello {
        version: PROTO_VERSION,
        role: "coordinator".to_string(),
        name: "coordinator".to_string(),
    })
    .map_err(|e| format!("worker {index} handshake: {e}"))?;
    let offset = match rx.recv() {
        Ok(Message::HelloOk {
            version,
            now_us: theirs,
            ..
        }) => {
            if version != PROTO_VERSION {
                return Err(WireError::BadVersion {
                    ours: PROTO_VERSION,
                    theirs: version,
                }
                .to_string());
            }
            now_us() as i64 - theirs as i64
        }
        Ok(other) => {
            return Err(format!(
                "worker {index} handshake: expected hello_ok, got {}",
                other.kind()
            ))
        }
        Err(e) => return Err(format!("worker {index} handshake: {e}")),
    };
    let (reply_tx, replies) = mpsc::channel();
    let link = WorkerLink {
        index,
        name: format!("w{index}"),
        tx: Box::new(tx),
        alive: AtomicBool::new(true),
        last_beat: Mutex::new(clock.now()),
        offset_us: AtomicI64::new(offset),
        dispatched: Mutex::new(HashSet::new()),
        rpc: Mutex::new(()),
        replies: Mutex::new(replies),
        reply_tx,
    };
    Ok((link, Box::new(rx)))
}
