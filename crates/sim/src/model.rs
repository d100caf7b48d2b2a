//! The deterministic model of the coordinator/worker cluster.
//!
//! The coordinator here *is* production's: the model drives the same
//! sans-IO [`Coordinator`] that [`sdvbs_serve::cluster`] holds under its
//! lock — job table, cache front, DRR pending queue, dispatch window,
//! per-worker in-flight sets, attempts, orphan judgement, drain, and
//! worker liveness (alive flags, last heartbeats, staleness, the stop
//! after a drain) — from a single-threaded discrete-event loop, calling
//! the core's methods where `ClusterEngine`'s threads call them, so the
//! invariants check the production bookkeeping, not a copy of it. Beside
//! the core, two things are shared with production outright:
//!
//! * **every message** is a real [`sdvbs_wire::Message`], round-tripped
//!   through [`encode_frame`]/[`decode_frame`] on each hop, so the sim
//!   exercises the production codec on every delivery;
//! * **time** is the event loop's virtual microsecond, passed to the
//!   core as its `now` where production passes its monotonic clock.
//!
//! What the model replaces is the *mechanics*: threads become events,
//! TCP becomes [`SimNet`] (which keeps TCP's FIFO-per-link, no-silent-
//! loss contract), and worker engines become queued virtual executions.
//! Faults — crashes, stalls, partitions — come from a seed-planned
//! [`FaultSchedule`], so any run reproduces from its seed alone.

use crate::faults::FaultSchedule;
use crate::net::{Dir, NetConfig, SimNet};
use crate::rng::SimRng;
use crate::sched::EventQueue;
use sdvbs_runner::{policy_label, size_label, HostMeta, Job, RunRecord, RunStatus};
use sdvbs_serve::jobs::{self, Step};
use sdvbs_serve::protocol::OrphanDisposition;
use sdvbs_serve::{spec_digest, ClusterConfig, Coordinator, JobClass, ServedRecord, Submission};
use sdvbs_wire::{decode_frame, encode_frame, Message};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Cluster sizing and timing knobs; durations run in virtual time.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Worker process count.
    pub workers: usize,
    /// The coordinator's production config: admission bound, per-worker
    /// in-flight cap, heartbeat interval, liveness window and retry
    /// budget (its worker addresses go unused).
    pub cluster: ClusterConfig,
    /// Worker-side admission bound (queued + running) before `Busy`.
    pub worker_queue: usize,
    /// Concurrent executions per worker.
    pub worker_slots: usize,
    /// Execution-duration window per job.
    pub exec_min_us: u64,
    /// Upper bound of the execution window.
    pub exec_max_us: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            workers: 3,
            cluster: ClusterConfig {
                queue_capacity: 1024,
                ..ClusterConfig::default()
            },
            // Smaller than per_worker_inflight on purpose: the
            // coordinator can legally overrun a worker's queue, so the
            // Busy-bounce path gets exercised under bursty load.
            worker_queue: 5,
            worker_slots: 2,
            exec_min_us: 50_000,
            exec_max_us: 800_000,
        }
    }
}

impl ModelConfig {
    /// The liveness window in virtual microseconds.
    pub fn liveness_us(&self) -> u64 {
        self.cluster.liveness.as_micros() as u64
    }
}

/// A production lifecycle state ([`jobs::JobState`]) as the invariant
/// checks read it.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, awaiting dispatch.
    Pending,
    /// Dispatched to worker `i`.
    Dispatched(usize),
    /// Completed with a record.
    Done,
    /// Refused without a result.
    Rejected(String),
    /// Retry budget exhausted (or no live workers).
    Quarantined(String),
}

impl JobState {
    fn of(state: &jobs::JobState) -> JobState {
        match state {
            jobs::JobState::Queued => JobState::Pending,
            jobs::JobState::Running(w) => JobState::Dispatched(*w),
            jobs::JobState::Done(_) | jobs::JobState::FrameDone(_) => JobState::Done,
            jobs::JobState::Rejected(why) => JobState::Rejected(why.clone()),
            jobs::JobState::Quarantined(why) => JobState::Quarantined(why.clone()),
        }
    }
}

/// One job in the coordinator's table, beside what the audit saw happen
/// to it.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Lifecycle state, read from the production table.
    pub state: JobState,
    /// Executions begun, read from the production table (the unified
    /// accounting of [`sdvbs_serve::protocol`]).
    pub attempts: u32,
    /// Highest attempt the job was ever dispatched with (a Busy refund
    /// lowers `attempts`, never this).
    pub attempts_high: u32,
    /// Terminal transitions the core reported for the job. The
    /// no-lost/no-double invariant demands exactly 1.
    pub terminal_transitions: u32,
    /// The completed record, when `Done`.
    pub record: Option<Arc<ServedRecord>>,
}

/// A recorded worker death.
#[derive(Debug, Clone)]
pub struct Death {
    /// Worker index.
    pub worker: usize,
    /// Virtual time of the declaration.
    pub at_us: u64,
    /// The reason string passed to `mark_dead`.
    pub why: String,
    /// True when declared by heartbeat staleness (vs. a broken link).
    pub stale: bool,
}

/// Everything a simulated run leaves behind for invariant checking.
#[derive(Debug, Clone, Default)]
pub struct RunAudit {
    /// Worker deaths in declaration order.
    pub deaths: Vec<Death>,
    /// Virtual time the drain began, if it did.
    pub drain_started_us: Option<u64>,
    /// Virtual time the coordinator finished draining (all jobs
    /// terminal, Drain sent to survivors).
    pub drain_stopped_us: Option<u64>,
    /// Workers that answered `DrainOk`.
    pub drain_ok: Vec<usize>,
    /// Submissions refused at admission (drain or queue-full): these
    /// never became jobs.
    pub refused_admission: u64,
    /// `Busy` bounces redispatched.
    pub busy_bounces: u64,
    /// Orphans requeued across worker deaths.
    pub requeues: u64,
    /// Jobs stolen off their home shard.
    pub stolen: u64,
    /// The highest attempt each job was dispatched with.
    pub attempts_high: BTreeMap<u64, u32>,
    /// Terminal transitions the core reported, per job.
    pub terminal_transitions: BTreeMap<u64, u32>,
}

struct SimWorker {
    crashed: bool,
    stalled_until: u64,
    draining: bool,
    drain_ok_pending: bool,
    /// Queued-but-not-running `(job id, exec_us)`.
    queue: VecDeque<(u64, u64)>,
    /// Running job id → scheduled finish time.
    running: BTreeMap<u64, u64>,
    completed: u64,
    rejected: u64,
}

impl SimWorker {
    fn new() -> Self {
        SimWorker {
            crashed: false,
            stalled_until: 0,
            draining: false,
            drain_ok_pending: false,
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            completed: 0,
            rejected: 0,
        }
    }

    fn outstanding(&self) -> usize {
        self.queue.len() + self.running.len()
    }
}

enum Ev {
    /// The load plan submits `planned[i]`.
    Submit(usize),
    /// A frame arrives at worker `w`.
    ToWorker { w: usize, frame: Vec<u8> },
    /// A frame arrives at the coordinator from worker `w`.
    ToCoord { w: usize, frame: Vec<u8> },
    /// Worker `w`'s link tears (the coordinator's reader sees EOF).
    LinkBroken { w: usize },
    /// The heartbeat loop's next sweep.
    HeartbeatTick,
    /// Worker `w` finishes executing job `id`.
    Finish { w: usize, id: u64 },
    /// Fault: worker `w` dies.
    Crash { w: usize },
    /// Fault: worker `w` stops responding until `until_us`.
    StallStart { w: usize, until_us: u64 },
    /// The operator starts a cluster drain.
    BeginDrain,
}

/// The whole simulated cluster: coordinator, workers, network, events.
pub struct SimModel {
    cfg: ModelConfig,
    rng: SimRng,
    net: SimNet,
    queue: EventQueue<Ev>,

    /// The production coordinator core.
    core: Coordinator,
    hb_seq: u64,

    workers: Vec<SimWorker>,
    planned: Vec<Job>,

    /// Deterministic event log; its hash is the run's digest.
    pub log: Vec<String>,
    /// Invariant-relevant observations.
    pub audit: RunAudit,
}

/// A virtual microsecond as the `now` the production core takes.
fn at(now_us: u64) -> Duration {
    Duration::from_micros(now_us)
}

impl SimModel {
    /// Builds a cluster over a planned load and fault schedule. `load` is
    /// `(arrival_us, spec)` pairs; `drain_at_us` starts the drain.
    pub fn new(
        cfg: ModelConfig,
        rng: SimRng,
        net_cfg: NetConfig,
        schedule: &FaultSchedule,
        load: Vec<(u64, Job)>,
        drain_at_us: u64,
    ) -> Self {
        let n = cfg.workers.max(1);
        let net = SimNet::new(net_cfg, n, schedule.partitions.clone());
        let mut queue = EventQueue::new();
        let mut planned = Vec::with_capacity(load.len());
        for (i, (at, spec)) in load.into_iter().enumerate() {
            queue.push(at, Ev::Submit(i));
            planned.push(spec);
        }
        for &(at, w) in &schedule.crashes {
            queue.push(at, Ev::Crash { w });
        }
        for &(w, from, until) in &schedule.stalls {
            queue.push(from, Ev::StallStart { w, until_us: until });
        }
        queue.push(0, Ev::HeartbeatTick);
        queue.push(drain_at_us, Ev::BeginDrain);
        let core = Coordinator::new(n, &cfg.cluster, at(0));
        SimModel {
            cfg,
            rng,
            net,
            queue,
            core,
            hb_seq: 0,
            workers: (0..n).map(|_| SimWorker::new()).collect(),
            planned,
            log: Vec::new(),
            audit: RunAudit::default(),
        }
    }

    /// Runs the event loop to quiescence and returns the final virtual
    /// time in microseconds. `horizon_us` is a hard stop against a
    /// non-terminating schedule — reaching it is itself an invariant
    /// failure the checker reports.
    pub fn run(&mut self, horizon_us: u64) -> u64 {
        while let Some((now, ev)) = self.queue.pop() {
            if now > horizon_us {
                self.note(now, "HORIZON exceeded; aborting event loop".to_string());
                return now;
            }
            self.handle(now, ev);
        }
        self.queue.now_us()
    }

    /// The jobs in the coordinator's table, in id order, for invariant
    /// checks and reporting: each one's production state and attempts
    /// beside the transitions the audit observed.
    pub fn jobs(&self) -> Vec<SimJob> {
        let table = self.core.table();
        let seen = |audit: &BTreeMap<u64, u32>, id| audit.get(&id).copied().unwrap_or(0);
        (0..table.issued())
            .filter_map(|id| {
                let entry = table.get(id)?;
                let record = match &entry.state {
                    jobs::JobState::Done(record) => Some(Arc::clone(record)),
                    _ => None,
                };
                Some(SimJob {
                    state: JobState::of(&entry.state),
                    attempts: entry.attempts,
                    attempts_high: seen(&self.audit.attempts_high, id),
                    terminal_transitions: seen(&self.audit.terminal_transitions, id),
                    record,
                })
            })
            .collect()
    }

    /// The production coordinator core the model drives.
    pub fn core(&self) -> &Coordinator {
        &self.core
    }

    /// The configuration the model runs.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Events still scheduled (nonzero only when the horizon tripped).
    pub fn events_left(&self) -> usize {
        self.queue.len()
    }

    /// Whether the coordinator finished its drain.
    pub fn drain_complete(&self) -> bool {
        self.core.is_stopping()
    }

    /// The latency ceiling the staleness invariant is judged against.
    pub fn latency_max_us(&self) -> u64 {
        self.net.latency_max_us()
    }

    fn note(&mut self, now: u64, line: String) {
        self.log.push(format!("{now:>12} {line}"));
    }

    // ---- transport ----------------------------------------------------

    fn send_to_worker(&mut self, now: u64, w: usize, msg: &Message) {
        let frame = encode_frame(msg);
        let at = self.net.delivery(&mut self.rng, now, Dir::ToWorker(w));
        self.queue.push(at, Ev::ToWorker { w, frame });
    }

    fn send_to_coord(&mut self, now: u64, w: usize, msg: &Message) {
        let frame = encode_frame(msg);
        let at = self.net.delivery(&mut self.rng, now, Dir::ToCoord(w));
        self.queue.push(at, Ev::ToCoord { w, frame });
    }

    fn decode(frame: &[u8]) -> Message {
        match decode_frame(frame) {
            Ok(Some((msg, consumed))) if consumed == frame.len() => msg,
            other => unreachable!("sim delivered a torn frame: {other:?}"),
        }
    }

    // ---- event dispatch ------------------------------------------------

    fn handle(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::Submit(i) => self.submit(now, i),
            Ev::ToWorker { w, frame } => {
                // A stalled worker processes nothing until it wakes; a
                // crashed worker processes nothing ever (the kernel acked
                // the bytes, the process is gone).
                if self.workers[w].crashed {
                    return;
                }
                let wake = self.workers[w].stalled_until;
                if now < wake {
                    self.queue.push(wake, Ev::ToWorker { w, frame });
                    return;
                }
                let msg = Self::decode(&frame);
                self.worker_message(now, w, msg);
            }
            Ev::ToCoord { w, frame } => {
                let msg = Self::decode(&frame);
                self.coord_message(now, w, msg);
            }
            // The reader's `Err` arm: after the stop the core judges the
            // closure teardown, not a death.
            Ev::LinkBroken { w } => self.mark_dead(now, w, "link closed", false),
            Ev::HeartbeatTick => self.heartbeat_tick(now),
            Ev::Finish { w, id } => self.worker_finish(now, w, id),
            Ev::Crash { w } => self.crash(now, w),
            Ev::StallStart { w, until_us } => {
                if !self.workers[w].crashed {
                    self.workers[w].stalled_until = until_us;
                    self.note(now, format!("fault: w{w} stalls until {until_us}"));
                }
            }
            Ev::BeginDrain => self.begin_drain(now),
        }
    }

    // ---- coordinator ---------------------------------------------------

    /// Submits `planned[i]` as `ClusterEngine::submit` does. The load's
    /// specs are distinct, so
    /// the cache and coalescing front answer misses — exactly what
    /// production would answer.
    fn submit(&mut self, now: u64, i: usize) {
        let spec = self.planned[i].clone();
        let digest = spec_digest(&spec);
        let refused = match self
            .core
            .submit(spec, false, JobClass::Interactive, at(now))
            .answer
        {
            Submission::Queued(id) => {
                self.note(now, format!("submit id={id} digest={digest:#018x}"));
                self.dispatch(now);
                return;
            }
            Submission::Draining => "draining",
            Submission::QueueFull => "queue full",
            Submission::Cached(_) | Submission::Coalesced(_) => "answered without a job",
        };
        self.audit.refused_admission += 1;
        self.note(now, format!("submit refused ({refused}): load[{i}]"));
    }

    /// The dispatcher thread's step: sends as far as the core allows.
    fn dispatch(&mut self, now: u64) {
        loop {
            match self.core.next_dispatch(at(now)).step {
                Step::Send(d) => {
                    let high = self.audit.attempts_high.entry(d.id).or_insert(0);
                    *high = (*high).max(d.attempt);
                    if d.stolen {
                        self.audit.stolen += 1;
                    }
                    let (id, w) = (d.id, d.worker);
                    self.note(
                        now,
                        format!("dispatch id={id} -> w{w} attempt={}", d.attempt),
                    );
                    self.send_to_worker(now, w, &Message::Dispatch { id, spec: d.spec });
                }
                Step::Quarantined(id) => self.observe_terminal(now, id),
                Step::Blocked | Step::Idle => return,
            }
        }
    }

    /// A frame from worker `w`, handled as `reader_loop` handles it.
    fn coord_message(&mut self, now: u64, w: usize, msg: Message) {
        match msg {
            Message::Done { id, record } => {
                if self
                    .core
                    .done(w, id, ServedRecord::new(*record), at(now))
                    .is_some()
                {
                    self.observe_terminal(now, id);
                } else {
                    self.note(now, format!("late done id={id} from w{w} ignored"));
                }
                self.dispatch(now);
            }
            Message::Rejected { id, detail } => {
                if self.core.rejected(w, id, detail, at(now)) {
                    self.observe_terminal(now, id);
                }
                self.dispatch(now);
            }
            Message::Busy { id } => {
                if self.core.busy(w, id) {
                    self.audit.busy_bounces += 1;
                    self.note(now, format!("busy id={id} from w{w}; requeued"));
                }
                self.dispatch(now);
            }
            Message::HeartbeatOk { .. } => self.core.beat(w, at(now)),
            Message::DrainOk {
                completed,
                rejected,
            } => {
                self.audit.drain_ok.push(w);
                self.core.stopped(w);
                self.note(
                    now,
                    format!("drain_ok from w{w}: completed={completed} rejected={rejected}"),
                );
            }
            Message::Error { message } => {
                self.note(now, format!("worker w{w} error: {message}"));
            }
            _ => {}
        }
    }

    /// A lost worker, as in `ClusterEngine::mark_dead`: the core judges
    /// the death (once, and never after the stop) and its orphans.
    fn mark_dead(&mut self, now: u64, w: usize, why: &str, stale: bool) {
        let Some(fates) = self.core.worker_dead(w, at(now)) else {
            return;
        };
        self.audit.deaths.push(Death {
            worker: w,
            at_us: now,
            why: why.to_string(),
            stale,
        });
        self.note(now, format!("worker w{w} declared dead: {why}"));
        for (id, fate) in fates {
            if fate == OrphanDisposition::Requeue {
                self.audit.requeues += 1;
                self.note(now, format!("requeue id={id} (orphan of w{w})"));
            } else {
                self.observe_terminal(now, id);
            }
        }
        self.dispatch(now);
        self.drain_wait(now);
    }

    /// Records a terminal transition the core reported — the audit's one
    /// chokepoint, so the no-double-terminal invariant is counted exactly.
    fn observe_terminal(&mut self, now: u64, id: u64) {
        *self.audit.terminal_transitions.entry(id).or_insert(0) += 1;
        let line = match self.core.table().get(id).map(|e| &e.state) {
            Some(jobs::JobState::Rejected(why)) => format!("rejected id={id}: {why}"),
            Some(jobs::JobState::Quarantined(why)) => format!("quarantined id={id}: {why}"),
            _ => format!("done id={id}"),
        };
        self.note(now, line);
        self.drain_wait(now);
    }

    /// One sweep of `heartbeat_loop`: send to the living, then ask the
    /// core whether each is stale (a drain suppresses it).
    fn heartbeat_tick(&mut self, now: u64) {
        if self.core.is_stopping() {
            return;
        }
        self.hb_seq += 1;
        let seq = self.hb_seq;
        for w in 0..self.workers.len() {
            if !self.core.alive()[w] {
                continue;
            }
            self.send_to_worker(now, w, &Message::Heartbeat { seq });
            if self.core.is_stale(w, at(now)) {
                self.mark_dead(now, w, "missed heartbeats", true);
            }
        }
        let next = now + self.cfg.cluster.heartbeat.as_micros() as u64;
        self.queue.push(next, Ev::HeartbeatTick);
    }

    /// The operator's drain, as in `begin_drain`: stop admission, reject
    /// the undispatched.
    fn begin_drain(&mut self, now: u64) {
        if self.core.table().is_draining() {
            return;
        }
        self.audit.drain_started_us = Some(now);
        self.note(now, "drain begins".to_string());
        for id in self.core.begin_drain(at(now)) {
            self.observe_terminal(now, id);
        }
        self.drain_wait(now);
    }

    /// The wait in `drain`: once the core has nothing outstanding, it
    /// raises the stop, and each survivor is told to drain and exit.
    fn drain_wait(&mut self, now: u64) {
        let Some(survivors) = self.core.stop_if_drained() else {
            return;
        };
        self.audit.drain_stopped_us = Some(now);
        self.note(now, "drain complete; stopping cluster".to_string());
        for w in survivors {
            self.send_to_worker(now, w, &Message::Drain);
        }
    }

    // ---- workers -------------------------------------------------------

    /// Mirrors `serve_coordinator`'s message handling.
    fn worker_message(&mut self, now: u64, w: usize, msg: Message) {
        match msg {
            Message::Dispatch { id, spec } => {
                let full = self.workers[w].outstanding() >= self.cfg.worker_queue.max(1);
                if self.workers[w].draining || full {
                    self.send_to_coord(now, w, &Message::Busy { id });
                    return;
                }
                let exec = self
                    .rng
                    .range(self.cfg.exec_min_us, self.cfg.exec_max_us + 1);
                let worker = &mut self.workers[w];
                if worker.running.len() < self.cfg.worker_slots.max(1) {
                    worker.running.insert(id, now + exec);
                    self.queue.push(now + exec, Ev::Finish { w, id });
                } else {
                    worker.queue.push_back((id, exec));
                }
                // The spec round-tripped the codec; sanity-pin it so a
                // codec regression surfaces as a loud sim failure.
                assert_eq!(
                    Some(&spec),
                    self.core.table().get(id).map(|e| &e.payload.spec),
                    "spec mutated in transit"
                );
            }
            Message::Heartbeat { seq } => {
                let reply = Message::HeartbeatOk { seq, now_us: now };
                self.send_to_coord(now, w, &reply);
            }
            Message::Drain => {
                let worker = &mut self.workers[w];
                worker.draining = true;
                let queued: Vec<u64> = worker.queue.drain(..).map(|(id, _)| id).collect();
                worker.rejected += queued.len() as u64;
                for id in queued {
                    self.send_to_coord(
                        now,
                        w,
                        &Message::Rejected {
                            id,
                            detail: "worker draining".into(),
                        },
                    );
                }
                if self.workers[w].running.is_empty() {
                    self.send_drain_ok(now, w);
                } else {
                    self.workers[w].drain_ok_pending = true;
                }
            }
            _ => {}
        }
    }

    fn send_drain_ok(&mut self, now: u64, w: usize) {
        let (completed, rejected) = {
            let worker = &self.workers[w];
            (worker.completed, worker.rejected)
        };
        self.send_to_coord(
            now,
            w,
            &Message::DrainOk {
                completed,
                rejected,
            },
        );
    }

    fn worker_finish(&mut self, now: u64, w: usize, id: u64) {
        if self.workers[w].crashed {
            return;
        }
        let wake = self.workers[w].stalled_until;
        if now < wake {
            // The stalled process finishes (and reports) only after it
            // wakes.
            self.queue.push(wake, Ev::Finish { w, id });
            return;
        }
        if self.workers[w].running.remove(&id).is_none() {
            return;
        }
        self.workers[w].completed += 1;
        let record = self.synthesize_record(id);
        self.send_to_coord(
            now,
            w,
            &Message::Done {
                id,
                record: Box::new(record),
            },
        );
        // Promote the next queued job into the freed slot.
        if let Some((next_id, exec)) = self.workers[w].queue.pop_front() {
            self.workers[w].running.insert(next_id, now + exec);
            self.queue.push(now + exec, Ev::Finish { w, id: next_id });
        }
        if self.workers[w].drain_ok_pending && self.workers[w].running.is_empty() {
            self.workers[w].drain_ok_pending = false;
            self.send_drain_ok(now, w);
        }
    }

    fn crash(&mut self, now: u64, w: usize) {
        let worker = &mut self.workers[w];
        if worker.crashed {
            return;
        }
        worker.crashed = true;
        worker.queue.clear();
        worker.running.clear();
        self.note(now, format!("fault: w{w} crashes"));
        // The peer's OS tears the connection down; the coordinator's
        // reader observes it one propagation delay later.
        let at = self.net.delivery(&mut self.rng, now, Dir::ToCoord(w));
        self.queue.push(at, Ev::LinkBroken { w });
    }

    /// A `Done` record a real worker would produce: the sim executes
    /// nothing, but every field the wire schema and store care about is
    /// populated and survives the codec round trip.
    fn synthesize_record(&self, id: u64) -> RunRecord {
        let job = self
            .core
            .table()
            .get(id)
            .expect("a job outlives its run: retirement waits a TTL past any planned fault");
        let spec = &job.payload.spec;
        let exec_ms = self.cfg.exec_min_us as f64 / 1e3;
        RunRecord {
            job_id: id,
            benchmark: spec.benchmark.clone(),
            size: size_label(spec.size),
            policy: policy_label(spec.policy),
            threads: 1,
            seed: spec.seed,
            iterations: spec.iterations,
            status: RunStatus::Completed,
            times_ms: vec![exec_ms],
            min_ms: exec_ms,
            p50_ms: exec_ms,
            mean_ms: exec_ms,
            max_ms: exec_ms,
            wall_ms: exec_ms,
            quality: None,
            detail: "simulated execution".into(),
            kernels: Vec::new(),
            non_kernel_percent: 0.0,
            occupancy_mode: "wall-clock".into(),
            host: HostMeta {
                os: "sdvbs-sim".into(),
                cpu: "virtual".into(),
                logical_cpus: 1,
            },
            attempts: job.attempts.max(1),
            injected: Vec::new(),
            quarantined: false,
        }
    }
}
