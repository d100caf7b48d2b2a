//! Regression tests for the serving layer's production bugs: unbounded
//! cache growth, digest-collision cache poisoning, unbounded job-table
//! growth, lifetime-counting drain reports, and a stream-retirement
//! counter that counted sweeps. Each test pins the fixed behavior at the
//! engine's public surface.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::engine::{Engine, EngineConfig, Submission};
use sdvbs_serve::{fnv1a, Backend, DrainReport, JobClass, ResultCache, ServedRecord};
use sdvbs_stream::{DegradePolicy, PipelineKind, StreamSpec};
use std::time::{Duration, Instant};

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

fn queue(engine: &Engine, spec: Job) -> u64 {
    match engine.submit(spec, true, JobClass::Interactive) {
        Submission::Queued(id) => id,
        other => panic!("expected Queued, got {other:?}"),
    }
}

fn wait(engine: &Engine, id: u64) {
    let snap = engine
        .wait_terminal(id, Duration::from_secs(120))
        .expect("job exists");
    assert!(snap.is_terminal(), "job {id} stuck in {:?}", snap.state);
}

/// Bug 1: the result cache was an unbounded `HashMap` — every distinct
/// spec a long-lived daemon ever served stayed resident forever. It is
/// now capacity-bounded with LRU eviction, and filling past capacity
/// evicts instead of growing.
#[test]
fn result_cache_fill_past_capacity_evicts_instead_of_growing() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 32,
        cache_capacity: 4,
        ..EngineConfig::default()
    });
    // 10 distinct completed specs through a capacity-4 cache.
    for seed in 0..10u64 {
        let id = queue(&engine, spec(seed));
        wait(&engine, id);
    }
    assert_eq!(engine.counter("jobs_executed"), 10);
    assert_eq!(
        engine.cache_evictions(),
        6,
        "10 inserts into a capacity-4 cache must evict exactly 6"
    );
    assert_eq!(engine.counter("cache_evictions"), 6);
    engine.drain();
}

/// Bug 2: cache hits trusted the 64-bit FNV-1a digest alone, so a digest
/// collision served one spec's record for a different spec. The canonical
/// preimage is now stored beside each record and verified on every hit:
/// a collision is a miss, never a wrong answer.
#[test]
fn digest_collisions_are_detected_not_served() {
    use sdvbs_serve::cache::CacheLookup;
    // Two hand-constructed colliding keys: distinct canonical preimages
    // behind one digest value (the situation a real 2^32-work FNV-1a
    // collision produces), injected at the digest layer the cache trusts.
    let mut cache = ResultCache::with_capacity(8);
    let key_a = "Disparity Map|sqcif|serial|seed1|iters:1";
    let key_b = "SVM|cif|serial|seed2|iters:3";
    assert_ne!(key_a, key_b);
    let digest = fnv1a(b"whatever both specs hash to");
    // Store A's record under the shared digest, then look B up: the old
    // code returned A's record; the fix answers a collision-miss.
    assert!(
        cache
            .put(digest, key_a, &ServedRecord::new(test_record()))
            .stored
    );
    match cache.get(digest, key_b) {
        CacheLookup::Collision => {}
        other => panic!("colliding key must not hit: {other:?}"),
    }
    match cache.get(digest, key_a) {
        CacheLookup::Hit(r) => assert_eq!(r.record().seed, 1),
        other => panic!("own key must still hit: {other:?}"),
    }
}

/// A minimal completed run record — enough for the cache to store.
fn test_record() -> sdvbs_runner::RunRecord {
    sdvbs_runner::RunRecord {
        job_id: 0,
        benchmark: "Disparity Map".into(),
        size: "sqcif".into(),
        policy: "serial".into(),
        threads: 1,
        seed: 1,
        iterations: 1,
        status: sdvbs_runner::RunStatus::Completed,
        times_ms: vec![1.0],
        min_ms: 1.0,
        p50_ms: 1.0,
        mean_ms: 1.0,
        max_ms: 1.0,
        wall_ms: 2.0,
        quality: None,
        detail: String::new(),
        kernels: Vec::new(),
        non_kernel_percent: 0.0,
        occupancy_mode: "wall-clock".into(),
        host: sdvbs_runner::HostMeta {
            os: "t".into(),
            cpu: "t".into(),
            logical_cpus: 1,
        },
        attempts: 1,
        injected: Vec::new(),
        quarantined: false,
    }
}

/// Bug 3: `EngineState.jobs` was a `Vec` that retained every terminal
/// job forever — the job table grew monotonically for the life of the
/// daemon. Terminal entries now retire after a poll-grace TTL, ids stay
/// stable, and a few thousand jobs leave the table bounded. The
/// `jobs_retired` counter counts retired jobs, not sweeps.
#[test]
fn job_table_stays_bounded_over_thousands_of_jobs() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 64,
        retire_ttl: Duration::ZERO,
        ..EngineConfig::default()
    });
    // An unknown benchmark is rejected by the executor immediately, so
    // thousands of jobs cycle through the table in seconds.
    let total = 3000u64;
    let mut submitted = 0u64;
    let mut last_id = 0u64;
    while submitted < total {
        let job = Job::new(
            "No Such Benchmark",
            InputSize::Sqcif,
            ExecPolicy::Serial,
            submitted,
            1,
        );
        match engine.submit(job, true, JobClass::Batch) {
            Submission::Queued(id) => {
                last_id = id;
                submitted += 1;
            }
            Submission::QueueFull => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected submission outcome: {other:?}"),
        }
        // The table may hold the queue, the running jobs, and the
        // terminal entries not yet swept by a submission — but never
        // anything close to the full submission history.
        let len = engine.jobs_table_len();
        assert!(
            len <= 256,
            "job table grew to {len} entries after {submitted} submissions"
        );
    }
    wait(&engine, last_id);
    // With two workers the last job can finish before an earlier one
    // still in the other worker's batch.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.counter("jobs_invalid") < total {
        assert!(Instant::now() < deadline, "jobs never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.counter("jobs_invalid"), total);
    // Only submissions sweep, and the last one is done: every job not
    // left in the table was retired, and counted once.
    let removed = total - engine.jobs_table_len() as u64;
    assert!(removed > 0);
    assert_eq!(engine.counter("jobs_retired"), removed);
    // Ids never restarted: the last id is the last submission's ordinal.
    assert_eq!(last_id, total - 1);
    engine.drain();
    assert!(engine.jobs_table_len() <= 256);
}

/// Bug 4: `DrainReport.completed` counted lifetime completions, so a
/// drain that resolved one running job after a thousand served requests
/// reported `completed: 1001`. The report now covers only the jobs that
/// were queued or running when the drain began.
#[test]
fn drain_report_counts_drain_work_not_lifetime_history() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 8,
        ..EngineConfig::default()
    });
    // Build up pre-drain history: three completions, fully terminal.
    for seed in 100..103u64 {
        let id = queue(&engine, spec(seed));
        wait(&engine, id);
    }
    assert_eq!(engine.counter("jobs_executed"), 3);
    let report = engine.drain();
    assert_eq!(
        report,
        DrainReport::default(),
        "nothing was open when the drain began, so the report must be empty"
    );
}

/// Bug 5: `streams_retired` grew by one per retirement sweep, however many
/// closed streams the sweep removed. It now counts retired streams, as
/// `jobs_retired` counts jobs.
#[test]
fn streams_retired_counts_streams_not_sweeps() {
    let engine = Engine::start(EngineConfig {
        retire_ttl: Duration::ZERO,
        ..EngineConfig::default()
    });
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 1,
        fps: 1.0,
        policy: DegradePolicy::Degrade,
    };
    let n = 5;
    let ids: Vec<u64> = (0..n)
        .map(|_| engine.open_stream(spec).expect("open stream"))
        .collect();
    for id in ids {
        engine.close_stream(id).expect("known stream");
    }
    assert_eq!(engine.counter("streams_retired"), 0);
    // Opening one more sweeps the table: all five closed streams go at once.
    engine.open_stream(spec).expect("open stream");
    assert_eq!(engine.counter("streams_retired"), n);
    engine.drain();
}
