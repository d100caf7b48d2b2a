//! The run engine: turns [`Job`]s into [`RunRecord`]s on a round of
//! worker threads, with retries, fault injection, and quarantine.
//!
//! Each job looks up its benchmark in the registry, runs a warmup call
//! plus one untimed iteration, then the requested timed iterations,
//! recording per-iteration pipeline times and the kernel breakdown of the
//! fastest one. `ExecPolicy::Auto` is resolved against
//! `available_parallelism()` **once per run**, so every record of a sweep
//! reports the same thread count even if CPU affinity changes mid-run.
//!
//! Failure handling: a job that panics, times out, or returns a typed
//! benchmark error is retried up to [`RunnerConfig::max_retries`] times
//! with decorrelated exponential backoff between rounds. A cell that still
//! fails after its last retry is **quarantined** — its record keeps the
//! final failure status, sets [`RunRecord::quarantined`], and is listed in
//! the [`RunReport`] so the comparison gate can report it as
//! `missing: quarantined` instead of a spurious regression. An armed
//! [`FaultPlan`] injects deterministic worker panics, watchdog-deadline
//! stalls, and NaN-poisoned inputs for chaos testing the whole path.

use crate::backoff::Backoff;
use crate::fault::{FaultKind, FaultPlan};
use crate::job::{size_label, HostMeta, Job, KernelStatRecord, RunRecord, RunStatus};
use crate::supervise::{supervise, Completion};
use sdvbs_core::{all_benchmarks, clear_poison, set_poison, ExecPolicy, PoisonSpec};
use sdvbs_profile::Profiler;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{nearest_rank, MetricsRegistry, Phase, Trace, TraceEvent, TrackId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for one run of the engine.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads each retry round starts (at least 1); each claims
    /// the round's next pending job until none is left. Keep at 1 (the
    /// default) for timing fidelity — concurrent jobs would contend inside
    /// each other's measured region.
    pub workers: usize,
    /// Per-job wall-clock deadline; `None` disables the watchdog, except
    /// that a [`fault_plan`](Self::fault_plan) injecting stalls arms a
    /// 2 s deadline, since a stall surfaces as a timeout only under one.
    pub timeout: Option<Duration>,
    /// How many times a failed cell (panic, timeout, or typed benchmark
    /// error) is re-run before quarantine. 0 disables retries.
    pub max_retries: u32,
    /// Deterministic fault injection; `None` runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// Record a span trace of the run: per-worker job spans plus every
    /// kernel scope the profilers time, assembled into
    /// [`RunReport::trace`]. Off by default — tracing costs two `Vec`
    /// pushes per scope, well under the <5% overhead budget, but a clean
    /// timing run should not pay even that.
    pub trace: bool,
    /// The clock retry backoff sleeps on. The default system clock parks
    /// the thread for real; a [`sdvbs_exec::VirtualClock`] (via
    /// [`ClockHandle::simulated`](sdvbs_exec::ClockHandle::simulated))
    /// advances simulated time instead, so a chaos run's backoff schedule
    /// replays deterministically without wall-clock waits.
    pub clock: sdvbs_exec::ClockHandle,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 1,
            timeout: None,
            max_retries: 2,
            fault_plan: None,
            trace: false,
            clock: sdvbs_exec::ClockHandle::system(),
        }
    }
}

/// Why a run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// A job names a benchmark that is not in the registry.
    UnknownBenchmark {
        /// The unrecognized name.
        name: String,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::UnknownBenchmark { name } => {
                write!(f, "unknown benchmark {name:?} (see `sdvbs-runner list`)")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

/// The structured result of a run: records plus the failure bookkeeping a
/// chaos run needs for its end-of-run report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One record per job, in submission order, reflecting each cell's
    /// final attempt.
    pub records: Vec<RunRecord>,
    /// Keys ([`RunRecord::key`]) of cells that failed every attempt and
    /// were quarantined.
    pub quarantined: Vec<String>,
    /// Total faults the [`FaultPlan`] injected across all attempts.
    pub injected_faults: usize,
    /// Cells that failed at least once but completed on a retry.
    pub recovered: usize,
    /// Operational metrics for the whole run: queue wait (from a retry
    /// round's start to a worker's claim), job wall time, watchdog
    /// margin, and attempt histograms plus outcome counters. The
    /// store can serialize this alongside the records
    /// ([`crate::store::append_metrics`]).
    pub metrics: MetricsRegistry,
    /// The assembled span trace, when [`RunnerConfig::trace`] was set:
    /// one track per pool worker carrying its job spans (absorbed in
    /// worker order), with each job's kernel spans remapped onto its
    /// worker's track and parallel-kernel worker spans on their own
    /// dynamic tracks.
    pub trace: Option<Trace>,
}

/// What a job's worker thread hands back on success.
struct JobMeasurement {
    times_ms: Vec<f64>,
    kernels: Vec<KernelStatRecord>,
    non_kernel_percent: f64,
    /// [`sdvbs_profile::DenominatorMode::label`] of the kernel breakdown.
    occupancy_mode: &'static str,
    quality: Option<f64>,
    detail: String,
    /// Trace events from the timed iterations (empty when not tracing).
    trace_events: Vec<TraceEvent>,
    /// The track the job's own (non-parallel) scopes were recorded on;
    /// trace assembly remaps these onto the pool worker's track.
    main_track: Option<TrackId>,
}

/// One attempt of one job in a retry round, as its worker saw it.
struct Outcome {
    /// The job's index in the submitted list.
    idx: usize,
    /// The fault the plan injected into this attempt, if any.
    fault: Option<FaultKind>,
    /// The round worker (`0..workers`) that claimed the job; trace
    /// assembly maps it to a per-worker track.
    worker: usize,
    /// Time from the round's start to the worker's claim.
    queue_wait: Duration,
    /// Microseconds since the process trace epoch when the worker started
    /// the job ([`sdvbs_trace::now_us`]).
    start_us: u64,
    /// Wall-clock time the worker spent on the job (for a timeout this is
    /// about the deadline, not the runaway job's eventual runtime).
    wall: Duration,
    /// How the attempt ended.
    completion: Completion<Result<JobMeasurement, String>>,
}

/// Base delay for the decorrelated-exponential retry backoff.
const RETRY_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling; keeps worst-case chaos runs bounded.
const RETRY_CAP: Duration = Duration::from_millis(250);
/// Deadline a run arms when its fault plan injects stalls and
/// [`RunnerConfig::timeout`] sets none.
const STALL_DEADLINE: Duration = Duration::from_secs(2);
/// How far past the deadline an injected stall sleeps.
const STALL_OVERRUN: Duration = Duration::from_millis(50);

/// Runs every job and returns one record per job, ordered by submission.
///
/// Convenience wrapper over [`run_jobs_report`] for callers that only need
/// the records (e.g. the `sdvbs-bench` figure regenerators).
///
/// # Errors
///
/// See [`run_jobs_report`].
pub fn run_jobs(jobs: &[Job], cfg: &RunnerConfig) -> Result<Vec<RunRecord>, RunnerError> {
    Ok(run_jobs_report(jobs, cfg)?.records)
}

/// Runs every job with retry/quarantine handling and returns the full
/// [`RunReport`].
///
/// Jobs that time out, panic, or return a typed benchmark error still
/// yield a record (with [`RunStatus::TimedOut`] / [`RunStatus::Panicked`]
/// / [`RunStatus::Failed`] and empty timings) — a failed cell must appear
/// in the result file so the comparison gate can see it. Failed cells are
/// retried up to [`RunnerConfig::max_retries`] times; persistent failures
/// are quarantined, never a process abort.
///
/// # Errors
///
/// Returns [`RunnerError::UnknownBenchmark`] if any job names a benchmark
/// not in the registry (checked upfront, before anything runs).
pub fn run_jobs_report(jobs: &[Job], cfg: &RunnerConfig) -> Result<RunReport, RunnerError> {
    let honors_policy: Vec<bool> = jobs
        .iter()
        .map(honors_exec_policy)
        .collect::<Result<_, _>>()?;
    // Resolve Auto once for the whole run (satellite f): every job sees the
    // same concrete width and every record reports the same thread count.
    let auto_threads = ExecPolicy::Auto.worker_count();
    let host = HostMeta::collect();
    let plan = cfg.fault_plan;
    let tracing = cfg.trace;
    let workers = cfg.workers.max(1);
    // An injected stall surfaces as a timeout only under a watchdog.
    let timeout = match (cfg.timeout, plan) {
        (None, Some(p)) if p.timeout_rate > 0.0 => Some(STALL_DEADLINE),
        (explicit, _) => explicit,
    };

    let mut metrics = MetricsRegistry::new();
    let mut trace_events: Option<Vec<TraceEvent>> = tracing.then(|| {
        // Label the pool-worker tracks up front (tracks 0..workers are
        // reserved below DYNAMIC_TRACK_BASE for exactly this).
        (0..workers)
            .map(|w| {
                TraceEvent::new(
                    format!("pool worker {w}"),
                    "meta",
                    Phase::Meta,
                    0,
                    w as TrackId,
                )
            })
            .collect()
    });

    // Per-worker "trace clock": the end timestamp of the last job span
    // emitted on each worker track. Successive job spans are clamped to
    // start at or after it, so microsecond truncation can never make
    // spans on one track overlap (which would fail validation).
    let mut worker_clock: Vec<u64> = vec![0; workers];

    let mut records: Vec<Option<RunRecord>> = vec![None; jobs.len()];
    let mut injected: Vec<Vec<String>> = vec![Vec::new(); jobs.len()];
    let mut injected_faults = 0usize;
    let mut recovered = 0usize;
    // Indices of jobs still needing a (re)run.
    let mut pending: Vec<usize> = (0..jobs.len()).collect();
    // Seed the backoff jitter from the fault plan so a `--fault-seed`
    // chaos run's delays replay bit-identically; a clean run uses the
    // default stream. Sleeps go through the configured clock, so under a
    // virtual clock the whole retry schedule is simulated time.
    let mut backoff = Backoff::new(RETRY_BASE, RETRY_CAP, plan.map_or(0, |p| p.seed));

    for attempt in 0..=cfg.max_retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            // Decorrelated exponential backoff: one sleep per retry
            // round — failed cells re-run together.
            cfg.clock.sleep(backoff.next_delay());
        }
        let outcomes = run_round(jobs, &pending, attempt, cfg, timeout, auto_threads);
        let mut still_failing = Vec::new();
        for outcome in outcomes {
            let idx = outcome.idx;
            let job = &jobs[idx];
            if let Some(f) = outcome.fault {
                injected[idx].push(f.as_str().to_string());
                injected_faults += 1;
            }
            let threads = resolved_threads(
                honors_policy[idx],
                job.policy.resolve_with(auto_threads),
                auto_threads,
            );
            metrics.observe("queue_wait_ms", outcome.queue_wait.as_secs_f64() * 1e3);
            metrics.observe("job_wall_ms", outcome.wall.as_secs_f64() * 1e3);
            let mut rec = base_record(job, idx as u64, threads, &host);
            rec.wall_ms = outcome.wall.as_secs_f64() * 1e3;
            rec.attempts = attempt + 1;
            rec.injected = injected[idx].clone();
            // The job span on this worker's track: begins when the worker
            // picked the job up, ends `wall` later. Kernel events recorded
            // inside arrive via the measurement and slot in between. The
            // +2 µs covers timestamp truncation so every inner event fits
            // strictly inside [start_us, end_us]; outcomes are processed
            // in id order, which per worker is execution order, so the
            // worker-clock clamp keeps job spans on one track disjoint.
            let worker_track = outcome.worker as TrackId;
            let start_us = outcome.start_us.max(worker_clock[outcome.worker]);
            let end_us = start_us + outcome.wall.as_micros() as u64 + 2;
            worker_clock[outcome.worker] = end_us;
            if let Some(events) = trace_events.as_mut() {
                let mut begin =
                    TraceEvent::new(rec_label(job), "job", Phase::Begin, start_us, worker_track);
                begin.args = vec![
                    ("attempt".to_string(), Value::Num(f64::from(attempt + 1))),
                    ("seed".to_string(), Value::Num(job.seed as f64)),
                    (
                        "queue_wait_ms".to_string(),
                        Value::Num(outcome.queue_wait.as_secs_f64() * 1e3),
                    ),
                ];
                events.push(begin);
                if let Some(f) = outcome.fault {
                    let mut ev = TraceEvent::new(
                        format!("inject:{}", f.as_str()),
                        "fault",
                        Phase::Instant,
                        start_us,
                        worker_track,
                    );
                    ev.args = vec![("attempt".to_string(), Value::Num(f64::from(attempt + 1)))];
                    events.push(ev);
                }
            }
            let trace_payload = apply_completion(&mut rec, outcome.completion);
            if rec.status == RunStatus::Completed {
                if let Some(limit) = timeout {
                    metrics.observe(
                        "watchdog_margin_ms",
                        (limit.saturating_sub(outcome.wall)).as_secs_f64() * 1e3,
                    );
                }
                if attempt > 0 {
                    recovered += 1;
                }
            }
            if let (Some(events), Some((job_events, main_track))) =
                (trace_events.as_mut(), trace_payload)
            {
                // The job profiler's own scopes move onto this worker's
                // track, clamped inside the job span so truncation jitter
                // cannot break its nesting; parallel-kernel worker spans
                // keep their dynamic tracks so concurrent spans never
                // interleave on one timeline.
                for mut ev in job_events {
                    if Some(ev.track) == main_track {
                        ev.track = worker_track;
                        ev.ts_us = ev.ts_us.clamp(start_us, end_us);
                    }
                    events.push(ev);
                }
            }
            if let Some(events) = trace_events.as_mut() {
                if rec.status != RunStatus::Completed {
                    let mut ev = TraceEvent::new(
                        rec.status.as_str(),
                        "failure",
                        Phase::Instant,
                        end_us,
                        worker_track,
                    );
                    ev.args = vec![("detail".to_string(), Value::Str(rec.detail.clone()))];
                    events.push(ev);
                }
                events.push(TraceEvent::new(
                    rec_label(job),
                    "end",
                    Phase::End,
                    end_us,
                    worker_track,
                ));
            }
            if rec.status != RunStatus::Completed {
                still_failing.push(idx);
            }
            records[idx] = Some(rec);
        }
        pending = still_failing;
    }

    // Whatever is still failing after the last round is quarantined.
    let mut quarantined = Vec::new();
    for &idx in &pending {
        let rec = records[idx]
            .as_mut()
            .expect("every attempted job has a record");
        rec.quarantined = true;
        quarantined.push(rec.key());
    }
    let records: Vec<RunRecord> = records
        .into_iter()
        .map(|r| r.expect("every job ran at least once"))
        .collect();
    for rec in &records {
        metrics.observe("attempts", f64::from(rec.attempts));
        if rec.status == RunStatus::Completed {
            metrics.incr("jobs_completed", 1);
        } else {
            metrics.incr("jobs_failed", 1);
        }
        if rec.attempts > 1 {
            metrics.incr("retries", u64::from(rec.attempts - 1));
        }
    }
    metrics.incr("faults_injected", injected_faults as u64);
    metrics.incr("jobs_recovered", recovered as u64);
    metrics.incr("jobs_quarantined", quarantined.len() as u64);
    Ok(RunReport {
        records,
        quarantined,
        injected_faults,
        recovered,
        metrics,
        trace: trace_events.map(Trace::new),
    })
}

/// Executes one job synchronously under per-job supervision (panic
/// isolation plus an optional watchdog deadline) and returns its record —
/// the single-job entry point the serve daemon's engine workers embed,
/// and the supervised path every attempt of a sweep takes. No retries and
/// no fault injection: serving retries is the caller's policy, not the
/// measurement's.
///
/// `auto_threads` is the once-per-process resolution of
/// [`ExecPolicy::Auto`] (see [`ExecPolicy::worker_count`]) and `host` the
/// once-per-process [`HostMeta::collect`], both hoisted so a long-lived
/// server stamps every record consistently.
///
/// `warm = true` skips the benchmark's `warmup()` call and the untimed
/// warmup iteration. The serve engine's scheduler sets it for every job
/// after the first in a batch sharing one benchmark×size: the previous
/// job just ran the same pipeline on this thread, so the LUTs, lazy
/// allocations, and instruction cache are already hot and re-warming
/// would only burn the throughput the batch exists to win. Results are
/// unaffected — warmup only pre-touches state; each job still
/// synthesizes its own seeded input and runs its own timed iterations.
///
/// # Errors
///
/// Returns [`RunnerError::UnknownBenchmark`] if the job names a benchmark
/// not in the registry.
pub fn execute_job(
    job: &Job,
    job_id: u64,
    auto_threads: usize,
    host: &HostMeta,
    timeout: Option<Duration>,
    warm: bool,
) -> Result<RunRecord, RunnerError> {
    let honors_policy = honors_exec_policy(job)?;
    let resolved = job.policy.resolve_with(auto_threads);
    let threads = resolved_threads(honors_policy, resolved, auto_threads);
    let start = Instant::now();
    let completion = supervised_attempt(job, job_id, resolved, None, timeout, false, warm);
    let mut rec = base_record(job, job_id, threads, host);
    rec.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    apply_completion(&mut rec, completion);
    Ok(rec)
}

/// Runs one retry round: `cfg.workers` scoped threads each claim the next
/// pending job until none is left, and run it through
/// [`supervised_attempt`] with the fault the plan draws for this
/// `attempt`. Outcomes come back sorted by job index; a worker claims
/// indices in increasing order, so per worker that is execution order.
fn run_round(
    jobs: &[Job],
    pending: &[usize],
    attempt: u32,
    cfg: &RunnerConfig,
    timeout: Option<Duration>,
    auto_threads: usize,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let round_start = Instant::now();
    let mut outcomes: Vec<Outcome> = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers.max(1))
            .map(|worker| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    // Relaxed: the counter only hands out indices into
                    // `pending`, which no thread writes during the round.
                    while let Some(&idx) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let queue_wait = round_start.elapsed();
                        let job = &jobs[idx];
                        let fault = cfg.fault_plan.and_then(|p| p.decide(idx as u64, attempt));
                        let resolved = job.policy.resolve_with(auto_threads);
                        let start_us = sdvbs_trace::now_us();
                        let start = Instant::now();
                        let completion = supervised_attempt(
                            job, idx as u64, resolved, fault, timeout, cfg.trace, false,
                        );
                        done.push(Outcome {
                            idx,
                            fault,
                            worker,
                            queue_wait,
                            start_us,
                            wall: start.elapsed(),
                            completion,
                        });
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a round worker runs every job supervised"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.idx);
    outcomes
}

/// Runs one attempt of `job` under [`supervise`]: applies the injected
/// `fault`, if any, then measures. The one supervised path of both a
/// sweep and [`execute_job`], which injects nothing.
fn supervised_attempt(
    job: &Job,
    job_id: u64,
    resolved: ExecPolicy,
    fault: Option<FaultKind>,
    timeout: Option<Duration>,
    tracing: bool,
    warm: bool,
) -> Completion<Result<JobMeasurement, String>> {
    let job = job.clone();
    let work = move || {
        match fault {
            Some(FaultKind::Panic) => panic!("injected fault: panic"),
            Some(FaultKind::Timeout) => {
                let limit = timeout.expect("a run that injects stalls arms a watchdog");
                thread::sleep(limit.saturating_add(STALL_OVERRUN));
            }
            Some(FaultKind::Nan) => set_poison(PoisonSpec {
                stride: 1 << 10,
                seed: job.seed ^ job_id,
            }),
            Some(FaultKind::Truncate) | None => {}
        }
        let result = try_measure(&job, resolved, tracing, warm);
        clear_poison();
        result
    };
    supervise(Box::new(work), timeout)
}

/// Whether the benchmark `job` names plumbs its policy into its kernels
/// ([`sdvbs_core::BenchmarkInfo::honors_exec_policy`]).
///
/// # Errors
///
/// Returns [`RunnerError::UnknownBenchmark`] if the job names a benchmark
/// not in the registry.
fn honors_exec_policy(job: &Job) -> Result<bool, RunnerError> {
    all_benchmarks()
        .iter()
        .find(|b| b.info().name == job.benchmark)
        .map(|b| b.info().honors_exec_policy)
        .ok_or_else(|| RunnerError::UnknownBenchmark {
            name: job.benchmark.clone(),
        })
}

/// Worker count a record reports: the resolved policy's width for a
/// benchmark that honors its policy, and one for any other benchmark,
/// which runs serially whatever the policy.
fn resolved_threads(honors_policy: bool, resolved: ExecPolicy, auto_threads: usize) -> usize {
    match resolved {
        ExecPolicy::Threads(n) if honors_policy => n.max(1),
        ExecPolicy::Auto if honors_policy => auto_threads,
        _ => 1,
    }
}

/// A record with the job's identity filled in and everything measured
/// still at its zero value: status `Completed`, one clean attempt, no
/// timings. [`apply_completion`] fills in the rest.
fn base_record(job: &Job, job_id: u64, threads: usize, host: &HostMeta) -> RunRecord {
    RunRecord {
        job_id,
        benchmark: job.benchmark.clone(),
        size: size_label(job.size),
        policy: crate::job::policy_label(job.policy),
        threads,
        seed: job.seed,
        iterations: job.iterations.max(1),
        status: RunStatus::Completed,
        times_ms: Vec::new(),
        min_ms: 0.0,
        p50_ms: 0.0,
        mean_ms: 0.0,
        max_ms: 0.0,
        wall_ms: 0.0,
        quality: None,
        detail: String::new(),
        kernels: Vec::new(),
        non_kernel_percent: 0.0,
        occupancy_mode: "wall-clock".to_string(),
        host: host.clone(),
        attempts: 1,
        injected: Vec::new(),
        quarantined: false,
    }
}

/// Applies a supervised completion to a base record: timings and kernel
/// breakdown for a finished measurement, failure status + detail
/// otherwise. Returns the measurement's trace payload (events and the
/// main track they were recorded on) for a completed, traced job.
fn apply_completion(
    rec: &mut RunRecord,
    completion: Completion<Result<JobMeasurement, String>>,
) -> Option<(Vec<TraceEvent>, Option<TrackId>)> {
    match completion {
        Completion::Done(Ok(m)) => {
            let (min, p50, mean, max) = percentiles(&m.times_ms);
            rec.times_ms = m.times_ms;
            rec.min_ms = min;
            rec.p50_ms = p50;
            rec.mean_ms = mean;
            rec.max_ms = max;
            // JSON has no NaN/Inf and the checked emitter rejects them; a
            // benchmark reporting a non-finite quality is recorded as "no
            // quality metric".
            rec.quality = m.quality.filter(|q| q.is_finite());
            rec.detail = m.detail;
            rec.kernels = m.kernels;
            rec.non_kernel_percent = m.non_kernel_percent;
            rec.occupancy_mode = m.occupancy_mode.to_string();
            Some((m.trace_events, m.main_track))
        }
        Completion::Done(Err(message)) => {
            rec.status = RunStatus::Failed;
            rec.detail = message;
            None
        }
        Completion::TimedOut { limit } => {
            rec.status = RunStatus::TimedOut;
            rec.detail = format!("exceeded {:.0} ms deadline", limit.as_secs_f64() * 1e3);
            None
        }
        Completion::Panicked { message } => {
            rec.status = RunStatus::Panicked;
            rec.detail = message;
            None
        }
    }
}

/// The label of a job's trace span: `"<benchmark> <size> <policy>"`.
fn rec_label(job: &Job) -> String {
    format!(
        "{} {} {}",
        job.benchmark,
        size_label(job.size),
        crate::job::policy_label(job.policy)
    )
}

/// Executes one job's iterations on the current thread. Runs on a round or
/// engine worker (or a watchdog-supervised job thread), so it re-resolves
/// the benchmark from the registry instead of capturing a trait object.
///
/// A typed benchmark error (from [`sdvbs_core::Benchmark::try_run_with`])
/// short-circuits the iterations and surfaces as an `Err` whose message
/// becomes the [`RunStatus::Failed`] record's detail — never a panic.
fn try_measure(
    job: &Job,
    resolved: ExecPolicy,
    tracing: bool,
    warm_start: bool,
) -> Result<JobMeasurement, String> {
    let suite = all_benchmarks();
    let bench = suite
        .iter()
        .find(|b| b.info().name == job.benchmark)
        .expect("benchmark validated before submission");
    if !warm_start {
        bench.warmup();
        // Untimed warmup iteration: page faults, lazy allocations, LUTs.
        // Never traced — warmup spans would double-count every kernel.
        // Skipped on a warm start (batch follower): the previous job in
        // the batch just ran this pipeline on this thread.
        let mut warm = Profiler::new();
        bench
            .try_run_with(job.size, job.seed, resolved, &mut warm)
            .map_err(|e| e.to_string())?;
    }

    let iterations = job.iterations.max(1);
    let mut times_ms = Vec::with_capacity(iterations);
    let mut best: Option<(f64, sdvbs_profile::Report)> = None;
    let mut last_outcome = None;
    // All timed iterations trace onto ONE job track so the job's scopes
    // form a single timeline; each iteration still gets a fresh profiler
    // so its report stays per-iteration.
    let mut trace_events: Vec<TraceEvent> = Vec::new();
    let mut main_track: Option<TrackId> = None;
    for _ in 0..iterations {
        let mut prof = match (tracing, main_track) {
            (false, _) => Profiler::new(),
            (true, Some(track)) => Profiler::with_tracing_on(track),
            (true, None) => {
                let p = Profiler::with_tracing();
                main_track = p.trace_track();
                p
            }
        };
        let outcome = bench
            .try_run_with(job.size, job.seed, resolved, &mut prof)
            .map_err(|e| e.to_string())?;
        let total_ms = prof.total().as_secs_f64() * 1e3;
        times_ms.push(total_ms);
        if let Some(rec) = prof.take_trace() {
            trace_events.extend(rec.into_events());
        }
        if best.as_ref().is_none_or(|(t, _)| total_ms < *t) {
            best = Some((total_ms, prof.report()));
        }
        last_outcome = Some(outcome);
    }
    let (_, report) = best.expect("at least one iteration");
    let total = report.total().as_secs_f64().max(f64::MIN_POSITIVE);
    let kernels = report
        .kernels()
        .iter()
        .map(|k| KernelStatRecord {
            name: k.name.clone(),
            self_ms: k.self_time.as_secs_f64() * 1e3,
            calls: k.calls,
            percent: 100.0 * k.self_time.as_secs_f64() / total,
        })
        .collect();
    let outcome = last_outcome.expect("at least one iteration");
    Ok(JobMeasurement {
        times_ms,
        kernels,
        non_kernel_percent: report.non_kernel_percent(),
        occupancy_mode: report.mode().label(),
        quality: outcome.quality,
        detail: outcome.detail,
        trace_events,
        main_track,
    })
}

/// (min, p50, mean, max) of a non-empty sample, in input units.
///
/// The median uses the **nearest-rank** convention shared with the metrics
/// registry: rank `ceil(p/100 · n)`, 1-based — so every reported
/// percentile is an observed timing, never an interpolated value. The
/// small-n cases this pins down: `n = 1` reports the sole sample, `n = 2`
/// reports the *lower* sample (rank `ceil(1.0) = 1`; the old midpoint
/// average reported a timing that never happened). `total_cmp` keeps the
/// sort panic-free even if a timing were NaN.
fn percentiles(times: &[f64]) -> (f64, f64, f64, f64) {
    if times.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let p50 = nearest_rank(&sorted, 50.0).expect("sample checked non-empty");
    (min, p50, mean, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::InputSize;

    #[test]
    fn unknown_benchmark_is_rejected_before_running() {
        let jobs = vec![Job::new(
            "Not A Benchmark",
            InputSize::Sqcif,
            ExecPolicy::Serial,
            1,
            1,
        )];
        assert_eq!(
            run_jobs(&jobs, &RunnerConfig::default()).err(),
            Some(RunnerError::UnknownBenchmark {
                name: "Not A Benchmark".into()
            })
        );
    }

    #[test]
    fn percentiles_use_nearest_rank_for_tiny_samples() {
        assert_eq!(percentiles(&[]), (0.0, 0.0, 0.0, 0.0));
        // n = 1: min = p50 = mean = max = the sole sample.
        assert_eq!(percentiles(&[5.0]), (5.0, 5.0, 5.0, 5.0));
        // n = 2: nearest-rank p50 is the LOWER sample (rank ceil(1.0) = 1)
        // — the old midpoint average reported a timing that never
        // happened, and for n = 1 vs n = 2 the reported median jumped
        // discontinuously.
        let (min, p50, mean, max) = percentiles(&[9.0, 1.0]);
        assert_eq!((min, p50, max), (1.0, 1.0, 9.0));
        assert!((mean - 5.0).abs() < 1e-12);
        // n = 3: the middle sample.
        assert_eq!(percentiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 2.0, 3.0));
        // n = 4: the 2nd sample (rank ceil(2.0) = 2), not the 2.5 average.
        let (min, p50, mean, max) = percentiles(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((min, p50, max), (1.0, 2.0, 4.0));
        assert!((mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_100_samples_hit_the_exact_rank() {
        let times: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (min, p50, mean, max) = percentiles(&times);
        assert_eq!((min, max), (1.0, 100.0));
        // Rank ceil(0.5 * 100) = 50 → the 50th smallest sample.
        assert_eq!(p50, 50.0);
        assert!((mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn a_small_job_produces_a_complete_record() {
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 3, 2)];
        let recs = run_jobs(&jobs, &RunnerConfig::default()).unwrap();
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.status, RunStatus::Completed);
        assert_eq!(rec.times_ms.len(), 2);
        assert!(rec.min_ms > 0.0 && rec.min_ms <= rec.max_ms);
        assert!(!rec.kernels.is_empty());
        assert_eq!(rec.size, "64x48");
        assert_eq!(rec.policy, "serial");
        assert_eq!(rec.threads, 1);
        assert_eq!(rec.attempts, 1);
        assert!(rec.injected.is_empty());
        assert!(!rec.quarantined);
    }

    #[test]
    fn execute_job_produces_a_complete_record() {
        // The serve engine's single-job path: same record shape as a pool
        // run, supervised (panic-isolated, watchdog-capable), no retries.
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        let job = Job::new("Disparity Map", size, ExecPolicy::Serial, 3, 2);
        let host = HostMeta::collect();
        let rec = crate::run::execute_job(&job, 17, 4, &host, None, false).unwrap();
        assert_eq!(rec.job_id, 17);
        assert_eq!(rec.status, RunStatus::Completed);
        assert_eq!(rec.times_ms.len(), 2);
        assert!(rec.min_ms > 0.0 && rec.min_ms <= rec.max_ms);
        assert!(!rec.kernels.is_empty());
        assert!(rec.wall_ms > 0.0);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.key(), job.cache_key(None));

        let missing = Job::new("Not A Benchmark", size, ExecPolicy::Serial, 1, 1);
        assert_eq!(
            crate::run::execute_job(&missing, 0, 1, &host, None, false).err(),
            Some(RunnerError::UnknownBenchmark {
                name: "Not A Benchmark".into()
            })
        );
    }

    #[test]
    fn warm_execution_changes_timing_only_not_results() {
        // A warm start skips warmup but must produce the same terminal
        // fields — status, quality, detail, kernel set — as a cold run of
        // the identical spec.
        let size = InputSize::Custom {
            width: 48,
            height: 36,
        };
        let job = Job::new("Disparity Map", size, ExecPolicy::Serial, 5, 1);
        let host = HostMeta::collect();
        let cold = crate::run::execute_job(&job, 0, 1, &host, None, false).unwrap();
        let warm = crate::run::execute_job(&job, 1, 1, &host, None, true).unwrap();
        assert_eq!(cold.status, RunStatus::Completed);
        assert_eq!(warm.status, RunStatus::Completed);
        assert_eq!(cold.quality, warm.quality);
        assert_eq!(cold.detail, warm.detail);
        assert_eq!(cold.times_ms.len(), warm.times_ms.len());
        assert_eq!(
            cold.kernels.iter().map(|k| &k.name).collect::<Vec<_>>(),
            warm.kernels.iter().map(|k| &k.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn auto_policy_records_a_concrete_thread_count() {
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Auto, 1, 1)];
        let recs = run_jobs(&jobs, &RunnerConfig::default()).unwrap();
        assert_eq!(recs[0].policy, "auto");
        assert!(recs[0].threads >= 1);
    }

    #[test]
    fn records_count_only_the_threads_a_benchmark_uses() {
        // Tracking ignores its policy, so it runs (and records) one
        // thread under any policy; disparity records the resolved width.
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        let host = HostMeta::collect();
        for policy in [ExecPolicy::Auto, ExecPolicy::Threads(4)] {
            let job = Job::new("Feature Tracking", size, policy, 1, 1);
            let rec = crate::run::execute_job(&job, 0, 4, &host, None, false).unwrap();
            assert_eq!(rec.threads, 1, "{policy:?}");
        }
        let job = Job::new("Disparity Map", size, ExecPolicy::Auto, 1, 1);
        let rec = crate::run::execute_job(&job, 0, 4, &host, None, false).unwrap();
        assert_eq!(rec.threads, 4);
        // The pool path records the same.
        let jobs = vec![Job::new(
            "Feature Tracking",
            size,
            ExecPolicy::Threads(4),
            1,
            1,
        )];
        let recs = run_jobs(&jobs, &RunnerConfig::default()).unwrap();
        assert_eq!(recs[0].threads, 1);
    }

    #[test]
    fn injected_panics_retry_to_success() {
        // A plan that always panics on the first attempt and never on
        // later ones: every cell must recover via retry.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        // Find a seed whose draw faults job 0 attempt 0 but not attempt 1.
        let seed = (0..5000u64)
            .find(|&s| {
                let p = FaultPlan::parse("panic:0.5", s).unwrap();
                p.decide(0, 0).is_some() && p.decide(0, 1).is_none()
            })
            .expect("such a seed exists");
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("panic:0.5", seed).unwrap()),
            max_retries: 1,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).unwrap();
        let rec = &report.records[0];
        assert_eq!(rec.status, RunStatus::Completed);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.injected, vec!["panic".to_string()]);
        assert!(!rec.quarantined);
        assert_eq!(report.recovered, 1);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.injected_faults, 1);
    }

    #[test]
    fn persistent_failures_are_quarantined_not_aborted() {
        // Panic on every attempt: the cell must end quarantined with a
        // Panicked record, and run_jobs_report must still return Ok.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("panic:1.0", 3).unwrap()),
            max_retries: 2,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).unwrap();
        let rec = &report.records[0];
        assert_eq!(rec.status, RunStatus::Panicked);
        assert!(rec.quarantined);
        assert_eq!(rec.attempts, 3);
        assert_eq!(report.quarantined, vec![rec.key()]);
    }

    #[test]
    fn traced_run_yields_a_valid_trace_with_kernel_spans() {
        // The acceptance check in miniature: a traced multi-job run under
        // multiple workers must emit a structurally valid trace (balanced
        // B/E per track, sorted timestamps) in which every job span
        // encloses at least one kernel span, and the trace must survive a
        // Chrome-JSON round trip.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![
            Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 2),
            Job::new("Image Stitch", size, ExecPolicy::Serial, 1, 1),
        ];
        let cfg = RunnerConfig {
            workers: 2,
            trace: true,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).unwrap();
        let trace = report.trace.expect("trace requested");
        let stats = trace.validate().expect("trace is structurally valid");
        assert!(stats.spans >= 2, "one span per job at least: {stats:?}");
        let per_job = trace.kernel_spans_per_job();
        assert_eq!(per_job.len(), 2, "one job entry per cell: {per_job:?}");
        for (job, kernels) in &per_job {
            assert!(*kernels >= 1, "{job} traced no kernel spans");
        }
        let round_trip = Trace::from_chrome_json(&trace.to_chrome_json()).unwrap();
        assert_eq!(round_trip.events().len(), trace.events().len());
        // The run also populated the metrics registry.
        assert_eq!(report.metrics.counter("jobs_completed"), 2);
        assert!(report.metrics.histogram("job_wall_ms").is_some());
        assert!(report.metrics.histogram("queue_wait_ms").is_some());
    }

    #[test]
    fn untraced_run_returns_no_trace() {
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        let report = run_jobs_report(&jobs, &RunnerConfig::default()).unwrap();
        assert!(report.trace.is_none());
        // Metrics are always on — they cost a few histogram pushes.
        assert_eq!(report.metrics.counter("jobs_completed"), 1);
    }

    #[test]
    fn traced_faulty_run_marks_injections_and_failures() {
        // Persistent panics under tracing: the job span still closes (the
        // trace stays balanced), and the fault + failure instants appear.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("panic:1.0", 3).unwrap()),
            max_retries: 1,
            trace: true,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).unwrap();
        let trace = report.trace.expect("trace requested");
        trace.validate().expect("trace is balanced despite panics");
        let faults = trace
            .events()
            .iter()
            .filter(|ev| ev.phase == Phase::Instant && ev.cat == "fault")
            .count();
        assert_eq!(faults, 2, "one instant per injected attempt");
        let failures = trace
            .events()
            .iter()
            .filter(|ev| ev.phase == Phase::Instant && ev.cat == "failure")
            .count();
        assert_eq!(failures, 2, "one instant per failed attempt");
        assert_eq!(report.metrics.counter("faults_injected"), 2);
        assert_eq!(report.metrics.counter("jobs_quarantined"), 1);
        assert_eq!(report.metrics.counter("retries"), 1);
    }

    #[test]
    fn injected_stall_times_out_without_a_configured_deadline() {
        // A stall surfaces only under a watchdog, so a run that injects
        // stalls arms one when the caller set none.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("timeout:1.0", 1).unwrap()),
            max_retries: 0,
            ..RunnerConfig::default()
        };
        let rec = &run_jobs_report(&jobs, &cfg).unwrap().records[0];
        assert_eq!(rec.status, RunStatus::TimedOut, "detail: {}", rec.detail);
        assert_eq!(rec.detail, "exceeded 2000 ms deadline");
    }

    #[test]
    fn nan_injection_surfaces_as_typed_failure() {
        // NaN poisoning on every attempt: the benchmark's finiteness
        // validation rejects the input, so the record is Failed (typed
        // error), never Panicked.
        let size = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let jobs = vec![Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1)];
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("nan:1.0", 11).unwrap()),
            max_retries: 0,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).unwrap();
        let rec = &report.records[0];
        assert_eq!(rec.status, RunStatus::Failed, "detail: {}", rec.detail);
        assert!(rec.quarantined);
        assert!(
            rec.detail.contains("non-finite"),
            "detail should name the typed error: {}",
            rec.detail
        );
    }
}
