//! The job lifecycle both backends share, as sans-IO state machines: no
//! lock, no thread, no clock read — callers pass `now`.
//!
//! [`JobTable`] owns ids, the lifecycle, attempts, the cache and
//! coalescing front, TTL retirement, the outstanding count and the drain
//! tallies; the [`Engine`](crate::engine::Engine) keeps one under its
//! state lock. [`Coordinator`] adds the cluster's DRR pending queue,
//! dispatch window, per-worker in-flight sets and worker liveness (alive
//! flags, last heartbeats, the stop after a drain); the
//! [`ClusterEngine`](crate::cluster::ClusterEngine) and `sdvbs-sim` both
//! drive it, so the simulator's invariants check production bookkeeping.
//!
//! Retirement runs on submission only: a job that just went terminal
//! survives at least until the next submission, so a client never loses
//! the poll race to its own job.

use crate::cache::{cache_preimage, spec_digest, PutOutcome, ResultCache, ServedRecord};
use crate::cluster::ClusterConfig;
use crate::coalesce::InflightMap;
use crate::protocol::{self, OrphanDisposition, RetryPolicy};
use crate::sched::{group_key, Drr, JobClass};
use crate::shutdown::{DrainReport, Tally};
use sdvbs_runner::Job;
use sdvbs_trace::MetricsRegistry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// How long a terminal job (or a closed, idle stream) stays pollable
/// before it is retired, unless configured otherwise.
pub const DEFAULT_RETIRE_TTL: Duration = Duration::from_secs(300);

/// Why a job admitted but not started before a drain was rejected.
pub(crate) const SHUTTING_DOWN: &str = "server shutting down before execution";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// Executing on worker `w`: an engine worker thread, or the cluster
    /// worker process it was dispatched to.
    Running(usize),
    /// Finished with a record (which may itself report a failed status —
    /// that is still a terminal, pollable state).
    Done(Arc<ServedRecord>),
    /// A stream frame finished; the string is the pipeline's one-line
    /// summary (frame results live in the stream's status window).
    FrameDone(String),
    /// Refused without a result: drain, or a validation error.
    Rejected(String),
    /// Abandoned after exhausting the retry budget across worker deaths.
    Quarantined(String),
}

impl JobState {
    /// Whether the job can never change state again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running(_))
    }
}

/// How a backend answered a submission.
#[derive(Debug, Clone)]
pub enum Submission {
    /// Served from the result cache without executing anything.
    Cached(Arc<ServedRecord>),
    /// Accepted as a new job with this id.
    Queued(u64),
    /// Attached to an identical in-flight job with this id.
    Coalesced(u64),
    /// The admission bound is reached; retry later (`429`).
    QueueFull,
    /// The backend is draining; no new work is accepted (`503`).
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

/// Counts one terminal transition into a tally.
fn tally(tally: &mut Tally, state: &JobState) {
    match state {
        JobState::Done(_) | JobState::FrameDone(_) => tally.completed += 1,
        JobState::Rejected(_) => tally.rejected += 1,
        JobState::Quarantined(_) => tally.quarantined += 1,
        JobState::Queued | JobState::Running(_) => {}
    }
}

/// Ids due for retirement, in deadline order. The TTL is uniform and
/// callers schedule with a monotone `now`, so the queue stays sorted and
/// a sweep stops at the first entry not yet due: a sweep costs what it
/// retires, not the table size. Jobs and streams both retire through it.
#[derive(Debug)]
pub(crate) struct RetireQueue {
    due: VecDeque<(Duration, u64)>,
    ttl: Duration,
}

impl RetireQueue {
    /// An empty queue retiring ids `ttl` after they are scheduled.
    pub(crate) fn new(ttl: Duration) -> RetireQueue {
        RetireQueue {
            due: VecDeque::new(),
            ttl,
        }
    }

    /// Schedules `id` for retirement one TTL after `now`.
    pub(crate) fn schedule(&mut self, now: Duration, id: u64) {
        self.due.push_back((now + self.ttl, id));
    }

    /// Removes from `table` every id due by `now`; returns the ids it
    /// removed.
    pub(crate) fn sweep<V>(&mut self, now: Duration, table: &mut HashMap<u64, V>) -> Vec<u64> {
        let mut retired = Vec::new();
        while let Some(&(at, id)) = self.due.front() {
            if at > now {
                break;
            }
            self.due.pop_front();
            if table.remove(&id).is_some() {
                retired.push(id);
            }
        }
        retired
    }
}

/// One job-table entry.
#[derive(Debug)]
pub struct Entry<P> {
    /// What the job executes.
    pub payload: P,
    /// Cache and coalescing identity ([`cache_preimage`]); `None` for
    /// jobs that never cache or coalesce (stream frames).
    key: Option<String>,
    /// Lifecycle state.
    pub state: JobState,
    /// Executions begun (see [`crate::protocol`]'s attempt accounting).
    pub attempts: u32,
}

/// What `JobTable::submit` did.
#[derive(Debug, Clone)]
pub struct Admission {
    /// The answer for the client.
    pub answer: Submission,
    /// Terminal jobs the submission's sweep retired.
    pub retired: u64,
}

impl Admission {
    /// Adds this admission to the lifetime counters both backends export.
    pub(crate) fn count(&self, metrics: &mut MetricsRegistry, class: JobClass) {
        if self.retired > 0 {
            metrics.incr("jobs_retired", self.retired);
        }
        let name = match &self.answer {
            Submission::Cached(_) => "cache_hits",
            Submission::Coalesced(_) => "coalesced",
            Submission::QueueFull => "rejected_queue_full",
            Submission::Draining => "rejected_draining",
            Submission::Queued(_) => "jobs_submitted",
        };
        metrics.incr(name, 1);
        if matches!(self.answer, Submission::Queued(_)) {
            metrics.incr(&format!("submitted_{}", class.label()), 1);
        }
    }
}

/// Adds a completion's cache put to the lifetime counters.
pub(crate) fn count_put(metrics: &mut MetricsRegistry, put: PutOutcome) {
    if put.evicted {
        metrics.incr("cache_evictions", 1);
    }
}

/// The job table: ids, lifecycle, cache front, retirement and drain
/// accounting, over payloads of type `P`.
#[derive(Debug)]
pub struct JobTable<P> {
    /// Keyed by id — a map, so retiring entries never moves or reuses a
    /// live id.
    jobs: HashMap<u64, Entry<P>>,
    retiring: RetireQueue,
    next_id: u64,
    cache: ResultCache,
    inflight: InflightMap,
    /// Admitted jobs not yet terminal.
    outstanding: usize,
    draining: bool,
    /// Every terminal transition; survives retirement.
    lifetime: Tally,
    /// Terminal transitions since the drain began.
    drain: Option<Tally>,
}

impl<P> JobTable<P> {
    /// An empty table with a result cache of `cache_capacity` records,
    /// retiring terminal jobs `ttl` after they finish.
    pub(crate) fn new(cache_capacity: usize, ttl: Duration) -> JobTable<P> {
        JobTable {
            jobs: HashMap::new(),
            retiring: RetireQueue::new(ttl),
            next_id: 0,
            cache: ResultCache::with_capacity(cache_capacity),
            inflight: InflightMap::new(),
            outstanding: 0,
            draining: false,
            lifetime: Tally::default(),
            drain: None,
        }
    }

    /// Admits a submission. In order: retires the terminal jobs due by
    /// `now`; refuses while draining; unless `fresh` (or unkeyed),
    /// answers from the cache or attaches to an identical in-flight job;
    /// otherwise hands the new id to `enqueue` — the backend's admission
    /// bound and queue — and enters the job as queued if it accepts.
    pub(crate) fn submit(
        &mut self,
        payload: P,
        key: Option<String>,
        fresh: bool,
        now: Duration,
        enqueue: impl FnOnce(u64, &P) -> Result<(), Submission>,
    ) -> Admission {
        let mut admission = Admission {
            answer: Submission::Draining,
            retired: self.retiring.sweep(now, &mut self.jobs).len() as u64,
        };
        if self.draining {
            return admission;
        }
        if let (false, Some(key)) = (fresh, &key) {
            if let Some(record) = self.cache.get(key) {
                admission.answer = Submission::Cached(record);
                return admission;
            }
            if let Some(id) = self.inflight.get(key) {
                admission.answer = Submission::Coalesced(id);
                return admission;
            }
        }
        let id = self.next_id;
        admission.answer = match enqueue(id, &payload) {
            Err(refusal) => refusal,
            Ok(()) => {
                self.next_id += 1;
                if let Some(key) = &key {
                    self.inflight.claim(key, id);
                }
                self.jobs.insert(
                    id,
                    Entry {
                        payload,
                        key,
                        state: JobState::Queued,
                        attempts: 0,
                    },
                );
                self.outstanding += 1;
                Submission::Queued(id)
            }
        };
        admission
    }

    /// Job `id`'s entry, `None` when unknown or retired.
    pub fn get(&self, id: u64) -> Option<&Entry<P>> {
        self.jobs.get(&id)
    }

    /// Marks job `id` running on worker `worker`, charging an attempt,
    /// and returns its payload.
    pub(crate) fn start(&mut self, id: u64, worker: usize) -> Option<&P> {
        let entry = self.jobs.get_mut(&id)?;
        debug_assert!(matches!(entry.state, JobState::Queued), "start of {id}");
        entry.state = JobState::Running(worker);
        entry.attempts += 1;
        Some(&entry.payload)
    }

    /// Moves job `id` into terminal `state` — the one terminal transition.
    /// It releases the job's coalescing claim, puts a `Done` record into
    /// the cache, tallies the outcome and schedules the entry's
    /// retirement one TTL after `now`. Returns the cache put, or `None`
    /// (changing nothing) when the job is unknown or already terminal.
    pub(crate) fn finish(&mut self, id: u64, state: JobState, now: Duration) -> Option<PutOutcome> {
        debug_assert!(state.is_terminal(), "finish({state:?})");
        let entry = self.jobs.get_mut(&id).filter(|e| !e.state.is_terminal())?;
        let mut put = PutOutcome::default();
        if let Some(key) = &entry.key {
            self.inflight.release(key, id);
            if let JobState::Done(record) = &state {
                put = self.cache.put(key, record);
            }
        }
        tally(&mut self.lifetime, &state);
        if let Some(drain) = &mut self.drain {
            tally(drain, &state);
        }
        entry.state = state;
        self.outstanding -= 1;
        self.retiring.schedule(now, id);
        Some(put)
    }

    /// A snapshot of job `id`, `None` when unknown or retired.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let entry = self.jobs.get(&id)?;
        let (state, record, detail) = match &entry.state {
            JobState::Queued => ("queued", None, ""),
            JobState::Running(_) => ("running", None, ""),
            JobState::Done(record) => ("done", Some(Arc::clone(record)), ""),
            JobState::FrameDone(detail) => ("done", None, detail.as_str()),
            JobState::Rejected(why) | JobState::Quarantined(why) => {
                ("rejected", None, why.as_str())
            }
        };
        Some(JobSnapshot {
            id,
            state,
            record,
            detail: detail.to_string(),
        })
    }

    /// Stops admission and starts the drain-scoped tally (idempotent).
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
        self.drain.get_or_insert_with(Tally::default);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Admitted jobs not yet terminal. Once draining, the drain is
    /// complete when this reaches 0.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Every terminal transition so far, retired jobs included.
    pub fn lifetime(&self) -> &Tally {
        &self.lifetime
    }

    /// The drain report of either backend: the transitions since the
    /// drain began (zero before it), the lifetime tally, and the workers
    /// declared dead.
    pub fn drain_report(&self, dead_workers: &[String]) -> DrainReport {
        DrainReport {
            drained: self.drain.unwrap_or_default(),
            lifetime: self.lifetime,
            dead_workers: dead_workers.to_vec(),
        }
    }

    /// Entries in the table (retired jobs excluded).
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Ids issued so far: every admitted job has an id below this.
    pub fn issued(&self) -> u64 {
        self.next_id
    }

    /// Lifetime LRU evictions from the result cache.
    pub(crate) fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }
}

/// A coordinator job: the spec to send and the lane it queues in.
#[derive(Debug, Clone)]
pub struct ClusterJob {
    /// The spec dispatched to a worker.
    pub spec: Job,
    /// Its QoS lane.
    pub class: JobClass,
}

/// A job to send to a worker.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The job id.
    pub id: u64,
    /// The worker index.
    pub worker: usize,
    /// The spec to send.
    pub spec: Job,
    /// The job's attempt count, this dispatch included.
    pub attempt: u32,
    /// The worker is not the job's home shard.
    pub stolen: bool,
}

/// What to do with the dispatch window's front job.
#[derive(Debug, Clone)]
pub enum Step {
    /// Send it.
    Send(Dispatch),
    /// No worker is alive: the job was quarantined.
    Quarantined(u64),
    /// Every live worker is at its in-flight cap.
    Blocked,
    /// Nothing is pending.
    Idle,
}

/// What [`Coordinator::next_dispatch`] decided.
#[derive(Debug, Clone)]
pub struct Next {
    /// The size of the DRR batch it popped into the window, if any.
    pub batch: Option<usize>,
    /// What to do next.
    pub step: Step,
}

/// The cluster coordinator's sans-IO core: a [`JobTable`] plus the
/// dispatch state and worker liveness.
#[derive(Debug)]
pub struct Coordinator {
    table: JobTable<ClusterJob>,
    /// Admitted-not-dispatched jobs, scheduled by deficit round robin
    /// across QoS classes with benchmark×size batching.
    pending: Drr,
    /// The batch being dispatched (popped from `pending`; drain rejects
    /// these too).
    window: VecDeque<u64>,
    /// Per worker: jobs dispatched to it and not yet answered.
    inflight: Vec<BTreeSet<u64>>,
    /// Per worker: still answering (not declared dead, not stopped).
    alive: Vec<bool>,
    /// Per worker: when its last heartbeat reply arrived.
    last_beat: Vec<Duration>,
    /// Names of the workers declared dead, in order.
    dead: Vec<String>,
    /// Raised once a drain completed: the links are being torn down, so
    /// a lost link is no longer a death.
    stopping: bool,
    capacity: usize,
    per_worker: usize,
    liveness: Duration,
    retry: RetryPolicy,
}

impl Coordinator {
    /// A core for `workers` workers, sized, scheduled and judged by `cfg`
    /// (its worker addresses and heartbeat interval are the caller's
    /// business); every worker starts alive, last heard from at `now`.
    /// Terminal jobs retire after [`DEFAULT_RETIRE_TTL`], as on the engine.
    pub fn new(workers: usize, cfg: &ClusterConfig, now: Duration) -> Coordinator {
        Coordinator {
            table: JobTable::new(cfg.cache_capacity, DEFAULT_RETIRE_TTL),
            pending: Drr::new(cfg.sched.clone()),
            window: VecDeque::new(),
            inflight: vec![BTreeSet::new(); workers],
            alive: vec![true; workers],
            last_beat: vec![now; workers],
            dead: Vec::new(),
            stopping: false,
            capacity: cfg.queue_capacity.max(1),
            per_worker: cfg.per_worker_inflight,
            liveness: cfg.liveness,
            retry: RetryPolicy {
                budget: cfg.retry_budget,
            },
        }
    }

    /// The job table.
    pub fn table(&self) -> &JobTable<ClusterJob> {
        &self.table
    }

    /// Admits a submission; the admission bound counts outstanding jobs.
    pub fn submit(&mut self, spec: Job, fresh: bool, class: JobClass, now: Duration) -> Admission {
        let key = cache_preimage(&spec);
        let full = self.table.outstanding() >= self.capacity;
        let pending = &mut self.pending;
        self.table.submit(
            ClusterJob { spec, class },
            Some(key),
            fresh,
            now,
            |id, job| {
                if full {
                    return Err(Submission::QueueFull);
                }
                pending.push_back(id, &group_key(&job.spec), job.class);
                Ok(())
            },
        )
    }

    /// Takes the next step for the dispatch window, refilling it from the
    /// scheduler one DRR batch at a time. Only a live worker is picked; a
    /// job sent is charged an attempt and counted in its worker's
    /// in-flight set.
    pub fn next_dispatch(&mut self, now: Duration) -> Next {
        let mut batch = None;
        if self.window.is_empty() {
            if let Some(popped) = self.pending.pop_batch() {
                batch = Some(popped.ids.len());
                self.window.extend(popped.ids);
            }
        }
        let step = match self.window.front().copied() {
            None => Step::Idle,
            Some(id) if !self.alive.contains(&true) => {
                // Nothing left to run on: fail loudly rather than wait
                // forever.
                self.window.pop_front();
                let why = JobState::Quarantined("no live workers".into());
                self.table.finish(id, why, now);
                Step::Quarantined(id)
            }
            Some(id) => {
                let digest = spec_digest(&self.table.jobs[&id].payload.spec);
                let loads: Vec<usize> = self.inflight.iter().map(BTreeSet::len).collect();
                match protocol::pick_target(digest, &self.alive, &loads, self.per_worker) {
                    None => Step::Blocked,
                    Some(worker) => {
                        self.window.pop_front();
                        self.inflight[worker].insert(id);
                        let job = self
                            .table
                            .start(id, worker)
                            .expect("a windowed job is queued");
                        let spec = job.spec.clone();
                        Step::Send(Dispatch {
                            id,
                            worker,
                            spec,
                            attempt: self.table.jobs[&id].attempts,
                            stolen: worker != (digest % self.alive.len() as u64) as usize,
                        })
                    }
                }
            }
        };
        Next { batch, step }
    }

    /// Takes job `id` off `worker`'s in-flight set; `true` when the job is
    /// dispatched (to any worker — a stale worker's late answer for a
    /// redispatched job still counts).
    fn answered(&mut self, worker: usize, id: u64) -> bool {
        self.inflight[worker].remove(&id);
        matches!(
            self.table.get(id).map(|e| &e.state),
            Some(JobState::Running(_))
        )
    }

    /// Worker `worker` finished job `id`. Returns the cache put, or `None`
    /// for a late answer (the job was requeued, already terminal, or
    /// retired), which changes nothing.
    pub fn done(
        &mut self,
        worker: usize,
        id: u64,
        record: Arc<ServedRecord>,
        now: Duration,
    ) -> Option<PutOutcome> {
        if !self.answered(worker, id) {
            return None;
        }
        self.table.finish(id, JobState::Done(record), now)
    }

    /// Worker `worker` refused job `id` (a validation error). `false` for
    /// a late answer.
    pub fn rejected(&mut self, worker: usize, id: u64, detail: String, now: Duration) -> bool {
        self.answered(worker, id)
            && self
                .table
                .finish(id, JobState::Rejected(detail), now)
                .is_some()
    }

    /// Worker `worker`'s queue was full: the job goes back to the
    /// scheduler, and the bounced dispatch gives back the attempt it
    /// charged — it never executed, so it must not consume retry budget.
    /// `false` for a late answer.
    pub fn busy(&mut self, worker: usize, id: u64) -> bool {
        if !self.answered(worker, id) {
            return false;
        }
        let entry = self.table.jobs.get_mut(&id).expect("answered jobs exist");
        entry.state = JobState::Queued;
        entry.attempts = entry.attempts.saturating_sub(1);
        let group = group_key(&entry.payload.spec);
        self.pending.push_back(id, &group, entry.payload.class);
        true
    }

    /// A heartbeat reply from `worker` arrived at `now`. A late reply
    /// from a worker already declared dead never revives it.
    pub fn beat(&mut self, worker: usize, now: Duration) {
        self.last_beat[worker] = now;
    }

    /// Whether `worker` is alive but silent past the liveness window at
    /// `now`, judged by [`protocol::is_stale`]: never while draining,
    /// when a worker blocked finishing its queue legitimately goes quiet.
    pub fn is_stale(&self, worker: usize, now: Duration) -> bool {
        let age = now.saturating_sub(self.last_beat[worker]);
        self.alive[worker] && protocol::is_stale(age, self.liveness, self.table.is_draining())
    }

    /// Worker `worker` is lost (its link broke or it went stale): marks
    /// it dead, judges each job it had in flight by
    /// [`protocol::orphan_disposition`] — every execution so far has
    /// failed, so `attempts` is the failed-execution count — and returns
    /// each orphan's fate in id order. Requeued orphans go to the front of
    /// the dispatch window, oldest first: they must not lose their place
    /// to later arrivals. `None` when the worker was already dead or
    /// stopped, or the cluster is stopping (a lost link is then
    /// teardown, not a death).
    pub fn worker_dead(
        &mut self,
        worker: usize,
        now: Duration,
    ) -> Option<Vec<(u64, OrphanDisposition)>> {
        if !std::mem::replace(&mut self.alive[worker], false) || self.stopping {
            return None;
        }
        self.dead.push(format!("w{worker}"));
        let draining = self.table.is_draining();
        let mut fates = Vec::new();
        for id in std::mem::take(&mut self.inflight[worker]) {
            let entry = match self.table.jobs.get_mut(&id) {
                Some(entry) if matches!(entry.state, JobState::Running(w) if w == worker) => entry,
                _ => continue,
            };
            let attempts = entry.attempts;
            let fate = protocol::orphan_disposition(attempts, self.retry, draining);
            let terminal = match fate {
                OrphanDisposition::Requeue => {
                    entry.state = JobState::Queued;
                    None
                }
                OrphanDisposition::Quarantine => Some(JobState::Quarantined(format!(
                    "quarantined after {attempts} attempts; worker w{worker} died mid-run"
                ))),
                // The drain contract only finishes work that is actually
                // running; an orphan re-entering the queue mid-drain is
                // rejected like any other queued job.
                OrphanDisposition::RejectDraining => Some(JobState::Rejected(format!(
                    "worker w{worker} died during drain"
                ))),
            };
            if let Some(state) = terminal {
                self.table.finish(id, state, now);
            }
            fates.push((id, fate));
        }
        for &(id, fate) in fates.iter().rev() {
            if fate == OrphanDisposition::Requeue {
                self.window.push_front(id);
            }
        }
        Some(fates)
    }

    /// Starts the drain: stops admission and rejects everything admitted
    /// but not dispatched, returning those ids. Dispatched jobs finish
    /// (or are judged as orphans).
    pub fn begin_drain(&mut self, now: Duration) -> Vec<u64> {
        self.table.begin_drain();
        let mut ids: Vec<u64> = self.window.drain(..).collect();
        ids.extend(self.pending.drain_all());
        for &id in &ids {
            self.table
                .finish(id, JobState::Rejected(SHUTTING_DOWN.into()), now);
        }
        ids
    }

    /// Ends a completed drain: once every job is terminal, raises the
    /// stop (once) and returns the live workers, in index order, to tell
    /// to drain and exit. `None` before then, and after the first stop.
    pub fn stop_if_drained(&mut self) -> Option<Vec<usize>> {
        if !self.table.is_draining() || self.table.outstanding() > 0 || self.stopping {
            return None;
        }
        self.stopping = true;
        Some((0..self.alive.len()).filter(|&w| self.alive[w]).collect())
    }

    /// Worker `worker` left the cluster at the stop (it answered its
    /// drain); it is no longer alive, but it did not die.
    pub fn stopped(&mut self, worker: usize) {
        self.alive[worker] = false;
    }

    /// Per worker: whether it is still alive.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether the stop after a drain was raised.
    pub fn is_stopping(&self) -> bool {
        self.stopping
    }

    /// Names of the workers declared dead, in order.
    pub fn dead_workers(&self) -> &[String] {
        &self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::{ExecPolicy, InputSize};
    use sdvbs_runner::{HostMeta, RunRecord, RunStatus};

    const TTL: Duration = Duration::from_secs(10);

    fn spec(seed: u64) -> Job {
        Job::new(
            "Disparity Map",
            InputSize::Sqcif,
            ExecPolicy::Serial,
            seed,
            1,
        )
    }

    fn served(seed: u64) -> Arc<ServedRecord> {
        ServedRecord::new(RunRecord {
            job_id: 0,
            benchmark: "Disparity Map".into(),
            size: "sqcif".into(),
            policy: "serial".into(),
            threads: 1,
            seed,
            iterations: 1,
            status: RunStatus::Completed,
            times_ms: vec![1.0],
            min_ms: 1.0,
            p50_ms: 1.0,
            mean_ms: 1.0,
            max_ms: 1.0,
            wall_ms: 1.0,
            quality: None,
            detail: String::new(),
            kernels: Vec::new(),
            non_kernel_percent: 0.0,
            occupancy_mode: "wall-clock".into(),
            host: HostMeta {
                os: "t".into(),
                cpu: "t".into(),
                logical_cpus: 1,
                simd: "sse2".into(),
            },
            attempts: 1,
            injected: Vec::new(),
            quarantined: false,
        })
    }

    fn at(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    /// A table whose queue accepts everything; returns the new id.
    fn admit(table: &mut JobTable<u64>, seed: u64, fresh: bool, now: Duration) -> Submission {
        let key = cache_preimage(&spec(seed));
        table
            .submit(seed, Some(key), fresh, now, |_, _| Ok(()))
            .answer
    }

    fn queued(answer: Submission) -> u64 {
        match answer {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        }
    }

    #[test]
    fn terminal_jobs_retire_in_deadline_order_and_the_table_stays_bounded() {
        let mut table = JobTable::new(16, TTL);
        // 5000 jobs, one per second, each finished the second it arrives:
        // only the last TTL's worth may still be in the table.
        for t in 0..5000 {
            let id = queued(admit(&mut table, t, true, at(t)));
            table.start(id, 0);
            table.finish(id, JobState::Rejected("x".into()), at(t));
            assert!(table.len() <= 11, "{} entries at t={t}", table.len());
        }
        assert_eq!(table.issued(), 5000);
        // Retirement follows deadlines, not ids: a job finished late
        // outlives younger jobs finished early.
        let mut table = JobTable::new(16, TTL);
        let old = queued(admit(&mut table, 1, true, at(0)));
        let young = queued(admit(&mut table, 2, true, at(0)));
        table.finish(young, JobState::Rejected("x".into()), at(1));
        table.finish(old, JobState::Rejected("x".into()), at(5));
        let sweep = table.submit(3, None, true, at(11), |_, _| Ok(()));
        assert_eq!(sweep.retired, 1);
        assert!(table.get(young).is_none() && table.get(old).is_some());
        // Due exactly at its deadline.
        assert_eq!(
            table.submit(4, None, true, at(15), |_, _| Ok(())).retired,
            1
        );
        assert!(
            table.snapshot(old).is_none(),
            "a retired id polls like an unknown one"
        );
    }

    #[test]
    fn lifetime_tallies_survive_retirement() {
        let mut table = JobTable::new(16, TTL);
        let done = queued(admit(&mut table, 1, false, at(0)));
        let rejected = queued(admit(&mut table, 2, false, at(0)));
        let quarantined = queued(admit(&mut table, 3, false, at(0)));
        table.start(done, 0);
        table.finish(done, JobState::Done(served(1)), at(0));
        table.finish(rejected, JobState::Rejected("bad".into()), at(0));
        table.finish(quarantined, JobState::Quarantined("dead".into()), at(0));
        let later = table.submit(9, None, true, at(60), |_, _| Ok(()));
        assert_eq!(later.retired, 3);
        let expect = Tally {
            completed: 1,
            rejected: 1,
            quarantined: 1,
        };
        assert_eq!(table.lifetime(), &expect);
        assert_eq!(table.outstanding(), 1);
    }

    #[test]
    fn drain_tallies_count_only_work_open_when_the_drain_began() {
        let mut table = JobTable::new(16, TTL);
        let before = queued(admit(&mut table, 1, false, at(0)));
        table.finish(before, JobState::Done(served(1)), at(0));
        let running = queued(admit(&mut table, 2, false, at(0)));
        let waiting = queued(admit(&mut table, 3, false, at(0)));
        table.start(running, 0);
        table.begin_drain();
        assert_eq!(table.drain_report(&[]).drained, Tally::default());
        assert!(matches!(
            admit(&mut table, 4, false, at(1)),
            Submission::Draining
        ));
        table.finish(running, JobState::Done(served(2)), at(1));
        table.finish(waiting, JobState::Rejected("drain".into()), at(1));
        assert_eq!(table.outstanding(), 0);
        assert_eq!(
            table.drain_report(&[]).drained,
            Tally {
                completed: 1,
                rejected: 1,
                ..Tally::default()
            }
        );
        assert_eq!(table.lifetime().completed, 2);
        table.begin_drain();
        assert_eq!(
            table.drain_report(&[]).drained.completed,
            1,
            "a second begin keeps the tally"
        );
    }

    #[test]
    fn the_front_serves_hits_coalesces_and_releases_claims_at_terminal() {
        let mut table = JobTable::new(16, TTL);
        let first = queued(admit(&mut table, 1, false, at(0)));
        match admit(&mut table, 1, false, at(0)) {
            Submission::Coalesced(id) => assert_eq!(id, first),
            other => panic!("expected Coalesced, got {other:?}"),
        }
        // A failed run is never cached, and its claim is released: the
        // resubmission runs anew instead of attaching to a terminal job.
        table.finish(first, JobState::Rejected("bad".into()), at(0));
        let second = queued(admit(&mut table, 1, false, at(0)));
        assert_ne!(second, first);
        let put = table.finish(second, JobState::Done(served(1)), at(0));
        assert!(put.expect("second finishes").stored);
        match admit(&mut table, 1, false, at(0)) {
            Submission::Cached(record) => assert_eq!(record.record().seed, 1),
            other => panic!("expected Cached, got {other:?}"),
        }
        // The queue's refusal is the answer, and no job is entered.
        let key = cache_preimage(&spec(7));
        let refused = table.submit(7, Some(key), false, at(0), |_, _| {
            Err(Submission::QueueFull)
        });
        assert!(matches!(refused.answer, Submission::QueueFull));
        assert_eq!(table.issued(), 2);
        assert!(matches!(
            admit(&mut table, 7, false, at(0)),
            Submission::Queued(2)
        ));
    }

    fn coordinator(workers: usize, budget: u32) -> Coordinator {
        Coordinator::new(
            workers,
            &ClusterConfig {
                retry_budget: budget,
                ..ClusterConfig::default()
            },
            at(0),
        )
    }

    fn submit(core: &mut Coordinator, seed: u64) -> u64 {
        queued(
            core.submit(spec(seed), false, JobClass::Interactive, at(0))
                .answer,
        )
    }

    fn send(core: &mut Coordinator) -> Dispatch {
        match core.next_dispatch(at(0)).step {
            Step::Send(dispatch) => dispatch,
            other => panic!("expected a dispatch, got {other:?}"),
        }
    }

    fn state(core: &Coordinator, id: u64) -> &JobState {
        &core.table().get(id).expect("job exists").state
    }

    #[test]
    fn a_late_done_is_ignored_and_reported() {
        let mut core = coordinator(1, 2);
        let id = submit(&mut core, 1);
        let d = send(&mut core);
        assert_eq!((d.id, d.worker, d.attempt), (id, 0, 1));
        assert!(core.done(0, id, served(1), at(1)).is_some());
        assert_eq!(
            core.inflight[0].len(),
            0,
            "an answer frees the worker's slot"
        );
        // A duplicate answer for the finished job changes nothing.
        assert!(core.done(0, id, served(99), at(2)).is_none());
        assert!(!core.rejected(0, id, "late".into(), at(2)));
        assert!(!core.busy(0, id));
        match state(&core, id) {
            JobState::Done(record) => assert_eq!(record.record().seed, 1),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(core.table().lifetime().completed, 1);
        assert_eq!(core.table().outstanding(), 0);
    }

    #[test]
    fn a_dead_workers_late_done_for_a_requeued_orphan_is_ignored() {
        let mut core = coordinator(2, 2);
        let id = submit(&mut core, 1);
        let d = send(&mut core);
        let fates = core.worker_dead(d.worker, at(1));
        assert_eq!(fates, Some(vec![(id, OrphanDisposition::Requeue)]));
        assert!(matches!(state(&core, id), JobState::Queued));
        // The stalled worker wakes and answers: the job is not its any
        // more.
        assert!(core.done(d.worker, id, served(1), at(2)).is_none());
        assert!(matches!(state(&core, id), JobState::Queued));
        let again = send(&mut core);
        assert_ne!(again.worker, d.worker, "a dead worker is never picked");
        assert_eq!((again.id, again.attempt), (id, 2));
        assert!(core.done(again.worker, id, served(1), at(3)).is_some());
        assert_eq!(core.table().lifetime().completed, 1);
    }

    #[test]
    fn busy_refunds_the_attempt_and_requeues() {
        let mut core = coordinator(1, 0);
        let id = submit(&mut core, 1);
        for _ in 0..3 {
            let d = send(&mut core);
            assert_eq!(d.attempt, 1, "a bounce never consumes retry budget");
            assert!(core.busy(0, id));
            assert_eq!(core.inflight[0].len(), 0);
            assert!(matches!(state(&core, id), JobState::Queued));
            assert_eq!(core.table().get(id).unwrap().attempts, 0);
        }
        // Budget 0: the one real execution dies with its worker, and the
        // orphan is quarantined at exactly one attempt.
        send(&mut core);
        let fates = core.worker_dead(0, at(1));
        assert_eq!(fates, Some(vec![(id, OrphanDisposition::Quarantine)]));
    }

    #[test]
    fn orphans_requeue_oldest_first_then_quarantine_or_reject() {
        let mut core = coordinator(2, 1);
        let ids: Vec<u64> = (0..4).map(|seed| submit(&mut core, seed)).collect();
        // Everything onto worker 0 (worker 1 not yet alive).
        core.alive[1] = false;
        for _ in &ids {
            assert_eq!(send(&mut core).worker, 0);
        }
        core.alive[1] = true;
        let fates = core.worker_dead(0, at(1));
        assert_eq!(
            fates,
            Some(
                ids.iter()
                    .map(|&id| (id, OrphanDisposition::Requeue))
                    .collect::<Vec<_>>()
            )
        );
        // Requeued orphans go first, in id order, to the survivor.
        let sent: Vec<Dispatch> = (0..4).map(|_| send(&mut core)).collect();
        assert!(sent.iter().all(|d| d.worker == 1));
        assert_eq!(sent.iter().map(|d| d.id).collect::<Vec<_>>(), ids);
        // Second death: budget 1 allows two executions, so all four are
        // exhausted; one is re-dispatched to prove exhaustion beats drain.
        let fates = core.worker_dead(1, at(2)).expect("worker 1 was alive");
        assert!(fates
            .iter()
            .all(|&(_, fate)| fate == OrphanDisposition::Quarantine));
        match state(&core, ids[0]) {
            JobState::Quarantined(why) => {
                assert!(why.starts_with("quarantined after 2 attempts"), "{why}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // A retryable orphan of a drain is rejected, not requeued.
        let mut core = coordinator(1, 2);
        let id = submit(&mut core, 9);
        let waiting = submit(&mut core, 10);
        send(&mut core);
        assert_eq!(core.begin_drain(at(1)), vec![waiting]);
        let fates = core.worker_dead(0, at(2));
        assert_eq!(fates, Some(vec![(id, OrphanDisposition::RejectDraining)]));
        assert!(matches!(state(&core, id), JobState::Rejected(_)));
        assert_eq!(core.table().outstanding(), 0);
        let report = core.table().drain_report(core.dead_workers());
        assert_eq!(
            (report.lifetime.completed, report.lifetime.rejected),
            (0, 2)
        );
        assert_eq!(report.dead_workers, vec!["w0".to_string()]);
    }

    #[test]
    fn no_live_worker_quarantines_and_full_workers_block() {
        let mut core = Coordinator::new(
            1,
            &ClusterConfig {
                per_worker_inflight: 1,
                ..ClusterConfig::default()
            },
            at(0),
        );
        let first = submit(&mut core, 1);
        let second = submit(&mut core, 2);
        let next = core.next_dispatch(at(0));
        assert_eq!(next.batch, Some(2), "one DRR batch fills the window");
        assert!(matches!(next.step, Step::Send(Dispatch { id, .. }) if id == first));
        assert!(matches!(core.next_dispatch(at(0)).step, Step::Blocked));
        // The only worker dies: its orphan goes back to the window's
        // front, and with no one left both jobs are quarantined.
        let fates = core.worker_dead(0, at(1));
        assert_eq!(fates, Some(vec![(first, OrphanDisposition::Requeue)]));
        assert!(matches!(
            core.next_dispatch(at(1)).step,
            Step::Quarantined(id) if id == first
        ));
        assert!(matches!(
            core.next_dispatch(at(1)).step,
            Step::Quarantined(id) if id == second
        ));
        assert!(matches!(core.next_dispatch(at(1)).step, Step::Idle));
    }

    #[test]
    fn the_cluster_bound_counts_outstanding_jobs() {
        let mut core = Coordinator::new(
            1,
            &ClusterConfig {
                queue_capacity: 1,
                ..ClusterConfig::default()
            },
            at(0),
        );
        let id = submit(&mut core, 1);
        send(&mut core);
        // Dispatched but unfinished still counts against the bound.
        let full = core.submit(spec(2), false, JobClass::Interactive, at(0));
        assert!(matches!(full.answer, Submission::QueueFull));
        // An identical spec still coalesces: the front answers first.
        let attached = core.submit(spec(1), false, JobClass::Interactive, at(0));
        assert!(matches!(attached.answer, Submission::Coalesced(other) if other == id));
        core.done(0, id, served(1), at(1));
        submit(&mut core, 2);
    }

    #[test]
    fn liveness_is_judged_by_the_core_at_the_callers_now() {
        let window = Duration::from_secs(3);
        let us = Duration::from_micros;
        let mut core = Coordinator::new(
            2,
            &ClusterConfig {
                liveness: window,
                ..ClusterConfig::default()
            },
            at(0),
        );
        // Fresh from the start; stale one microsecond past the window.
        assert!(!core.is_stale(0, window));
        assert!(core.is_stale(0, window + us(1)));
        // A beat keeps a worker fresh for one more window from the beat.
        core.beat(0, at(2));
        assert!(!core.is_stale(0, at(2) + window));
        assert!(core.is_stale(0, at(2) + window + us(1)));
        // Worker 1 goes silent and dies; its job moves to worker 0.
        let id = submit(&mut core, 1);
        core.alive[0] = false;
        assert_eq!(send(&mut core).worker, 1);
        core.alive[0] = true;
        assert!(core.is_stale(1, at(4)));
        let fates = core.worker_dead(1, at(4));
        assert_eq!(fates, Some(vec![(id, OrphanDisposition::Requeue)]));
        // A second verdict judges nothing and names no one twice.
        assert_eq!(core.worker_dead(1, at(5)), None);
        assert_eq!(core.dead_workers(), ["w1".to_string()]);
        // A late beat does not revive the dead, and the dead are never
        // stale again.
        core.beat(1, at(5));
        assert_eq!(core.alive(), [true, false]);
        assert!(!core.is_stale(1, at(60)));
        // The dead worker is never picked.
        for seed in 2..6 {
            submit(&mut core, seed);
        }
        for _ in 0..5 {
            assert_eq!(send(&mut core).worker, 0);
        }
        // While draining, silence is never staleness.
        core.begin_drain(at(6));
        assert!(!core.is_stale(0, at(600)));
        // The stop waits for the last job, then names the survivors once.
        assert_eq!(core.stop_if_drained(), None);
        for id in 0..core.table().issued() {
            core.done(0, id, served(id), at(7));
        }
        assert_eq!(core.stop_if_drained(), Some(vec![0]));
        assert!(core.is_stopping());
        assert_eq!(core.stop_if_drained(), None);
        // After the stop a lost link is teardown: no death, no orphan.
        assert_eq!(core.worker_dead(0, at(8)), None);
        assert_eq!(core.dead_workers(), ["w1".to_string()]);
        core.stopped(0);
        assert_eq!(core.alive(), [false, false]);
    }
}
