//! The serving tiers' CI gates, end to end over real loopback sockets.
//! CI runs each test as its own step:
//!
//! - `serve_smoke`: a cache hit costs under 1% of a held miss; a
//!   50-request loadgen burst completes error-free with both latency
//!   classes populated; `/metrics` and `/v1/trace` pass their structural
//!   checks.
//! - `sched_smoke`: batching is at least 1.2x faster than unbatched
//!   dispatch on a homogeneous burst; an interactive probe under a batch
//!   backlog dispatches within the documented DRR starvation bound; `auto`
//!   jobs route through the scaling model.
//! - `cluster_smoke`: 2 worker processes finish a cache-miss burst at
//!   least 1.3x faster than 1; the nine-benchmark sweep through the
//!   coordinator equals single-process execution; the coordinator serves
//!   cache hits and passes the same exposition checks.
//! - `stream_smoke`: degrade engages under an overload burst and
//!   disengages after a healthy run, within the SLA; the drop policy sheds
//!   exactly the frames it cannot serve; per-stream metrics and trace
//!   tracks are present.
//!
//! What these tiers share with the rest of the suite is checked once,
//! elsewhere: the cache, `fresh=1`, coalescing and `429` in
//! `serve_integration.rs`, the drain in `drain.rs`, batched-vs-unbatched
//! record identity in `sched_props.rs`, worker death in `cluster_kill.rs`,
//! and unloaded-stream identity in `stream_integration.rs`.
//!
//! The gates measure wall-clock ratios, so they take turns on `GATE`: no
//! two measure at once.

use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::{Job, RunRecord};
use sdvbs_serve::{
    run_loadgen, spec_body, starvation_bound, stream_spec_body, Backend, Client, ClusterConfig,
    ClusterEngine, Engine, EngineConfig, JobClass, LoadgenConfig, LoadgenReport, SchedConfig,
    Server, ServerConfig, Submission,
};
use sdvbs_stream::{DegradePolicy, PipelineKind, StreamSpec};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::Trace;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

/// A one-iteration Disparity Map job at `width`x`height`.
fn disparity(width: usize, height: usize, policy: ExecPolicy, seed: u64) -> Job {
    Job::new(
        "Disparity Map",
        InputSize::Custom { width, height },
        policy,
        seed,
        1,
    )
}

fn start_server(engine: EngineConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
    })
    .expect("bind loopback")
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).expect("connect")
}

fn json(body: &str) -> Value {
    Value::parse(body).unwrap_or_else(|e| panic!("unparsable body {body:?}: {e}"))
}

fn field_u64(v: &Value, field: &str) -> u64 {
    v.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field {field:?} in {v}"))
}

fn field_bool(v: &Value, field: &str) -> bool {
    v.get(field)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("missing bool field {field:?} in {v}"))
}

/// `POST /v1/jobs` of `job`; returns the status and the parsed body.
fn post_job(client: &mut Client, job: &Job) -> (u16, Value) {
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec_body(job, job.seed)))
        .expect("POST /v1/jobs");
    (resp.status, json(&resp.body_text()))
}

/// Long-polls job `id` to a terminal state, which must be `done`;
/// returns the final body.
fn poll_done(client: &mut Client, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{id}?wait_ms=500"), None)
            .expect("poll");
        let body = json(&resp.body_text());
        match body.get("state").and_then(Value::as_str) {
            Some("done") => return body,
            Some("queued" | "running") => {
                assert!(Instant::now() < deadline, "job {id} never finished");
            }
            _ => panic!("job {id} did not complete: {body}"),
        }
    }
}

/// The engine's answer to a submission that must be queued.
fn queued(submission: Submission) -> u64 {
    match submission {
        Submission::Queued(id) => id,
        other => panic!("expected Queued, got {other:?}"),
    }
}

/// Structural gate on the `/metrics` exposition: every line is
/// `name value` or `name{stat="..."} value`, every name carries the
/// `sdvbs_serve_` prefix, every value parses as a float, and the counters
/// and histograms a dashboard needs are present. Connection-local request
/// stats merge when their connection closes, so this retries briefly
/// until they appear. Returns the exposition.
fn check_metrics(addr: &str) -> String {
    let mut client = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    let text = loop {
        let resp = client.request("GET", "/metrics", None).expect("metrics");
        assert_eq!(resp.status, 200, "GET /metrics");
        let text = resp.body_text();
        if text.contains("sdvbs_serve_http_requests ") || Instant::now() >= deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let mut names = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("metrics line without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "metrics value not a number: {line:?}"
        );
        let name = name_part.split('{').next().unwrap_or_default();
        assert!(
            name.starts_with("sdvbs_serve_"),
            "metrics name missing prefix: {line:?}"
        );
        let labels = &name_part[name.len()..];
        assert!(
            labels.is_empty() || (labels.starts_with("{stat=\"") && labels.ends_with("\"}")),
            "bad metrics labels: {line:?}"
        );
        names.push(name_part);
    }
    for required in [
        "sdvbs_serve_jobs_executed",
        "sdvbs_serve_cache_hits",
        "sdvbs_serve_http_requests",
        "sdvbs_serve_job_exec_ms{stat=\"count\"}",
        "sdvbs_serve_request_ms{stat=\"p99\"}",
    ] {
        assert!(
            names.contains(&required),
            "missing required metric {required:?}"
        );
    }
    println!("  metrics: {} exposition lines, structure ok", names.len());
    text
}

/// The `/v1/trace` endpoint must serve a loadable, structurally valid
/// Chrome trace of the spans recorded so far. Retries briefly until the
/// connection spans are absorbed; returns the trace.
fn check_trace(addr: &str) -> Trace {
    let mut client = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client.request("GET", "/v1/trace", None).expect("trace");
        assert_eq!(resp.status, 200, "GET /v1/trace");
        let trace = Trace::from_chrome_json(&resp.body_text())
            .unwrap_or_else(|e| panic!("trace does not parse: {e}"));
        if !trace.is_empty() {
            let stats = trace
                .validate()
                .unwrap_or_else(|e| panic!("trace does not validate: {e}"));
            println!(
                "  trace: {} events across {} tracks, spans balanced",
                trace.events().len(),
                stats.tracks
            );
            return trace;
        }
        assert!(
            Instant::now() < deadline,
            "trace stayed empty (no connection spans absorbed)"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn serve_smoke() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());

    // A held miss against its cache hit: one worker, and a 400 ms hold
    // that every execution pays and no cache hit may.
    let server = start_server(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        hold: Some(Duration::from_millis(400)),
        ..EngineConfig::default()
    });
    let mut client = connect(&server.addr().to_string());
    let job = disparity(32, 24, ExecPolicy::Serial, 7);
    let started = Instant::now();
    let (status, ticket) = post_job(&mut client, &job);
    assert_eq!(status, 202, "first submission: {ticket}");
    poll_done(&mut client, field_u64(&ticket, "id"));
    let miss_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let (status, hit) = post_job(&mut client, &job);
    let hit_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "resubmission was not a cache hit: {hit}");
    println!("  cache: miss {miss_ms:.1} ms, hit {hit_ms:.3} ms");
    assert!(
        hit_ms < miss_ms * 0.01,
        "cache hit not cheap enough: hit {hit_ms:.3} ms vs miss {miss_ms:.3} ms (gate: <1%)"
    );
    drop(client);
    server.shutdown();

    // Real concurrency: a loadgen burst, then the exposition gates.
    let server = start_server(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        ..EngineConfig::default()
    });
    let addr = server.addr().to_string();
    let lg = run_loadgen(&LoadgenConfig {
        addrs: vec![addr.clone()],
        conns: 4,
        requests: 50,
        spec: disparity(32, 24, ExecPolicy::Serial, 100),
        unique: 4,
        poll_ms: 1000,
    })
    .expect("loadgen");
    print!("{lg}");
    assert!(
        lg.errors == 0 && lg.sent == 50,
        "loadgen burst: {} ok, {} errors",
        lg.sent,
        lg.errors
    );
    assert!(
        lg.hits.count() > 0 && lg.misses.count() > 0,
        "expected both latency classes populated: {} hits, {} misses",
        lg.hits.count(),
        lg.misses.count()
    );
    check_metrics(&addr);
    check_trace(&addr);
    server.shutdown();
}

/// One homogeneous burst through an in-process engine with the given
/// batch window; returns the wall time and the metrics exposition.
fn sched_burst(jobs: &[Job], max_batch: usize) -> (Duration, String) {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: jobs.len() * 2,
        sched: SchedConfig {
            max_batch,
            ..SchedConfig::default()
        },
        ..EngineConfig::default()
    });
    let started = Instant::now();
    // fresh: the gate measures execution, not the cache.
    let ids: Vec<u64> = jobs
        .iter()
        .map(|job| queued(engine.submit(job.clone(), true, JobClass::Interactive)))
        .collect();
    for id in ids {
        let snap = engine
            .wait_terminal(id, Duration::from_secs(300))
            .expect("burst job exists");
        assert_eq!(snap.state, "done", "burst job {id}: {}", snap.detail);
    }
    let wall = started.elapsed();
    let metrics = engine.metrics_text();
    engine.drain();
    (wall, metrics)
}

#[test]
fn sched_smoke() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());

    // Batching: a homogeneous 50-job burst, batched against unbatched.
    let burst: Vec<Job> = (0..50)
        .map(|s| disparity(64, 48, ExecPolicy::Serial, 9000 + s))
        .collect();
    let (unbatched, _) = sched_burst(&burst, 1);
    let (batched, metrics) = sched_burst(&burst, 16);
    let speedup = unbatched.as_secs_f64() / batched.as_secs_f64().max(1e-9);
    println!(
        "  batching: unbatched {:.2} s, batched {:.2} s ({speedup:.2}x)",
        unbatched.as_secs_f64(),
        batched.as_secs_f64()
    );
    assert!(
        speedup >= 1.2,
        "batching only {speedup:.2}x faster on a homogeneous burst (gate: >= 1.2x)"
    );
    assert!(
        metrics.contains("sdvbs_serve_batch_size"),
        "batched engine exposes no batch_size histogram"
    );

    // QoS: DRR keeps interactive probes inside the documented bound
    // under a deep batch-class backlog.
    let scfg = SchedConfig::default();
    let hold = Duration::from_millis(15);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 128,
        hold: Some(hold),
        sched: scfg.clone(),
        ..EngineConfig::default()
    });
    for s in 0..60u64 {
        queued(engine.submit(
            disparity(32, 24, ExecPolicy::Serial, 10_000 + s),
            true,
            JobClass::Batch,
        ));
    }
    // Let the backlog reach steady state before probing.
    while engine.counter("jobs_executed") < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The documented bound (batch jobs dispatched ahead of a lone probe)
    // plus the batch already past the scheduler: one dispatch window of
    // at most quantum_batch jobs, and one job mid-execution.
    let bound = starvation_bound(&scfg, 0);
    let allowed = bound + scfg.quantum_batch as usize + 1;
    let mut worst_batch_ran = 0u64;
    let mut p95 = 0.0f64;
    for p in 0..5u64 {
        let before = engine.counter("jobs_executed");
        let started = Instant::now();
        let id = queued(engine.submit(
            disparity(32, 24, ExecPolicy::Serial, 20_000 + p),
            true,
            JobClass::Interactive,
        ));
        let snap = engine
            .wait_terminal(id, Duration::from_secs(120))
            .expect("probe exists");
        assert_eq!(snap.state, "done", "probe {p}: {}", snap.detail);
        // Nearest-rank p95 of five waits is the largest.
        p95 = p95.max(started.elapsed().as_secs_f64() * 1e3);
        let batch_ran = (engine.counter("jobs_executed") - before).saturating_sub(1);
        worst_batch_ran = worst_batch_ran.max(batch_ran);
        assert!(
            batch_ran <= allowed as u64,
            "probe {p} waited behind {batch_ran} batch jobs \
             (documented bound {bound} dispatched + {} in flight)",
            allowed - bound
        );
    }
    println!(
        "  qos: worst probe saw {worst_batch_ran} batch jobs (allowed {allowed}), \
         interactive p95 {p95:.0} ms over a 60-job backlog"
    );
    // A generous wall-clock ceiling derived from the same bound: each
    // batch job costs about hold + execution; 4x covers scheduling noise.
    let ceiling = ((allowed + 1) as f64 * hold.as_secs_f64() * 1e3 * 4.0).max(500.0);
    assert!(
        p95 <= ceiling,
        "interactive p95 {p95:.0} ms exceeds the derived ceiling {ceiling:.0} ms"
    );
    engine.drain();

    // Auto-tuning: `auto` jobs route through the scaling model.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 16,
        ..EngineConfig::default()
    });
    for s in 0..3u64 {
        let id = queued(engine.submit(
            disparity(64, 48, ExecPolicy::Auto, 30_000 + s),
            true,
            JobClass::Interactive,
        ));
        let snap = engine
            .wait_terminal(id, Duration::from_secs(120))
            .expect("auto job exists");
        assert_eq!(snap.state, "done", "auto job {s}: {}", snap.detail);
    }
    let tuned = engine.counter("sched_tuned_jobs");
    engine.drain();
    assert!(
        tuned >= 3,
        "expected 3 tuned auto jobs, counter says {tuned}"
    );
    println!("  tuning: {tuned} auto jobs routed through the scaling model");
}

/// The hold window the cluster gate's workers run with: long enough to
/// dominate scheduling noise, short enough to keep the gate fast. Each
/// job then occupies about this much wall time, so a cluster that
/// overlaps work across workers finishes a burst proportionally faster
/// on any machine, single-CPU runners included.
const WORKER_HOLD_MS: u64 = 100;

/// A `sdvbs-serve worker` process; the stdout handle stays open so the
/// worker's post-drain prints never hit a closed pipe.
struct Worker {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Spawns a worker on an ephemeral port and reads the bound address
    /// from its banner line.
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sdvbs-serve"))
            .args(["worker", "--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--queue", "16", "--hold-ms", &WORKER_HOLD_MS.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn a worker process");
        let mut stdout = BufReader::new(child.stdout.take().expect("worker stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("worker banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .unwrap_or_else(|| panic!("unexpected worker banner: {banner:?}"))
            .trim()
            .to_string();
        Worker {
            child,
            addr,
            _stdout: stdout,
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `n` workers and a coordinator server over them on an ephemeral port.
fn start_cluster(n: usize) -> (Vec<Worker>, Server) {
    let workers: Vec<Worker> = (0..n).map(|_| Worker::spawn()).collect();
    let backend = ClusterEngine::start(ClusterConfig {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        ..ClusterConfig::default()
    })
    .expect("cluster startup");
    let server = Server::start_with_backend("127.0.0.1:0", backend).expect("coordinator bind");
    (workers, server)
}

/// Drains the coordinator, which drains each worker, then waits for the
/// worker processes to exit on their own.
fn stop_cluster(server: Server, workers: Vec<Worker>) {
    server.shutdown();
    for mut w in workers {
        let _ = w.child.wait();
    }
}

/// A 16-job all-miss closed-loop burst against one coordinator.
fn cluster_burst(addr: &str) -> LoadgenReport {
    let lg = run_loadgen(&LoadgenConfig {
        addrs: vec![addr.to_string()],
        conns: 8,
        requests: 16,
        spec: disparity(32, 24, ExecPolicy::Serial, 1000),
        unique: 16,
        poll_ms: 1000,
    })
    .expect("cluster loadgen");
    assert_eq!(lg.errors, 0, "cluster burst had errors");
    lg
}

/// The deterministic identity of a run record: everything that must be
/// bit-identical between cluster and single-process execution. Timing
/// and host or worker metadata legitimately differ.
fn fingerprint(r: &RunRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{:?}|{:?}|{}",
        r.benchmark, r.size, r.policy, r.seed, r.iterations, r.status, r.quality, r.detail
    )
}

/// Every benchmark at SQCIF, serial, seed 1: the preset of
/// `sdvbs-runner run --smoke`.
fn sweep_jobs() -> Vec<Job> {
    all_benchmarks()
        .iter()
        .map(|b| Job::new(b.info().name, InputSize::Sqcif, ExecPolicy::Serial, 1, 1))
        .collect()
}

#[test]
fn cluster_smoke() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());

    // Cache-miss throughput must scale with workers.
    let (workers, server) = start_cluster(1);
    let one = cluster_burst(&server.addr().to_string());
    stop_cluster(server, workers);
    let (workers, server) = start_cluster(2);
    let addr = server.addr().to_string();
    let two = cluster_burst(&addr);
    let speedup = one.wall.as_secs_f64() / two.wall.as_secs_f64().max(1e-9);
    println!(
        "  scaling: 1 worker {:.2} s, 2 workers {:.2} s ({speedup:.2}x)",
        one.wall.as_secs_f64(),
        two.wall.as_secs_f64()
    );
    assert!(
        speedup >= 1.3,
        "2 workers only {speedup:.2}x faster than 1 (gate: >= 1.3x)"
    );

    // The sweep through the cluster must match single-process execution
    // on every deterministic field.
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        ..EngineConfig::default()
    });
    let ids: Vec<u64> = sweep_jobs()
        .into_iter()
        .map(|job| queued(engine.submit(job, false, JobClass::Interactive)))
        .collect();
    let local: Vec<String> = ids
        .into_iter()
        .map(|id| {
            let snap = engine
                .wait_terminal(id, Duration::from_secs(300))
                .expect("baseline job exists");
            let record = snap
                .record
                .unwrap_or_else(|| panic!("baseline job {id} ended {}", snap.state));
            fingerprint(record.record())
        })
        .collect();
    engine.drain();
    let mut client = connect(&addr);
    let clustered: Vec<String> = sweep_jobs()
        .iter()
        .map(|job| {
            let (status, ticket) = post_job(&mut client, job);
            assert_eq!(status, 202, "sweep submission {}: {ticket}", job.benchmark);
            let done = poll_done(&mut client, field_u64(&ticket, "id"));
            let record = done.get("record").expect("done poll carries a record");
            let record = RunRecord::from_json_line(&record.to_string())
                .unwrap_or_else(|e| panic!("sweep record does not parse: {e}"));
            fingerprint(&record)
        })
        .collect();
    assert_eq!(
        clustered, local,
        "cluster results diverged from single-process execution"
    );
    println!(
        "  fidelity: {} benchmarks identical to single-process execution",
        clustered.len()
    );

    // A burst spec again is a coordinator-side cache hit, answered
    // without a wire round trip; it also feeds the `cache_hits` counter
    // the metrics gate requires.
    let (status, hit) = post_job(&mut client, &disparity(32, 24, ExecPolicy::Serial, 1000));
    assert_eq!(status, 200, "cached resubmission: {hit}");
    drop(client);
    check_metrics(&addr);
    check_trace(&addr);
    stop_cluster(server, workers);
}

/// The per-frame cost floor the stream gate's server runs with: a hold
/// makes frame cost deterministic, so the SLA arithmetic below is
/// machine-independent. Full-size frames pay the whole window; degraded
/// frames pay their pixel share of it (a quarter, at SQCIF's
/// half-resolution).
const STREAM_HOLD_MS: u64 = 25;
/// Warm-up and burst sizes for the degrade phase.
const STREAM_WARMUP: usize = 8;
const STREAM_BURST: usize = 8;
/// Closed-loop frames after the burst. Only the burst can violate the
/// SLA (at most `STREAM_BURST` frames), and `8 / 160 = 5%`, so the p95
/// gate holds with margin.
const STREAM_RECOVERY: usize = 144;

/// `POST /v1/streams`; returns the new stream's id.
fn open_stream(client: &mut Client, spec: &StreamSpec) -> u64 {
    let resp = client
        .request("POST", "/v1/streams", Some(&stream_spec_body(spec)))
        .expect("open stream");
    assert_eq!(resp.status, 201, "stream open: {}", resp.body_text());
    field_u64(&json(&resp.body_text()), "id")
}

/// `POST /v1/streams/<id>/frames`; returns the frame ticket.
fn submit_frame(client: &mut Client, id: u64) -> Value {
    let resp = client
        .request("POST", &format!("/v1/streams/{id}/frames"), None)
        .expect("submit frame");
    assert_eq!(resp.status, 202, "frame submit: {}", resp.body_text());
    json(&resp.body_text())
}

/// Submits one frame and waits for it; returns whether it ran degraded.
fn frame_closed_loop(client: &mut Client, id: u64) -> bool {
    let ticket = submit_frame(client, id);
    assert!(
        !field_bool(&ticket, "dropped"),
        "stream {id}: unexpected dropped frame"
    );
    poll_done(client, field_u64(&ticket, "job_id"));
    field_bool(&ticket, "degraded")
}

/// `GET /v1/streams/<id>`.
fn stream_status(client: &mut Client, id: u64) -> Value {
    let resp = client
        .request("GET", &format!("/v1/streams/{id}"), None)
        .expect("stream status");
    assert_eq!(resp.status, 200, "stream status: {}", resp.body_text());
    json(&resp.body_text())
}

/// The accounting identity every idle stream must satisfy:
/// `completed + dropped + rejected + failed == submitted`, nothing in
/// flight.
fn assert_accounted(status: &Value, what: &str) {
    let field = |name| field_u64(status, name);
    assert_eq!(field("in_flight"), 0, "{what}: frames still in flight");
    assert_eq!(
        field("completed") + field("dropped") + field("rejected") + field("failed"),
        field("submitted"),
        "{what}: accounting broken: {status}"
    );
}

#[test]
fn stream_smoke() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(EngineConfig {
        workers: 2,
        queue_capacity: 64,
        hold: Some(Duration::from_millis(STREAM_HOLD_MS)),
        ..EngineConfig::default()
    });
    let addr = server.addr().to_string();
    let mut client = connect(&addr);

    // Degrade: 10 fps over a ~27 ms frame cost leaves slack unloaded, but
    // a back-to-back burst projects past the budget and must flip the
    // stream into degrade; a healthy run must flip it back.
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 2,
        fps: 10.0,
        policy: DegradePolicy::Degrade,
    };
    let sla_ms = spec.sla_ms();
    let degrade_id = open_stream(&mut client, &spec);
    for _ in 0..STREAM_WARMUP {
        frame_closed_loop(&mut client, degrade_id);
    }
    let status = stream_status(&mut client, degrade_id);
    assert!(
        !field_bool(&status, "degraded_mode"),
        "degrade engaged during the unloaded warm-up: {status}"
    );
    let mut last_job = None;
    for _ in 0..STREAM_BURST {
        let ticket = submit_frame(&mut client, degrade_id);
        assert!(
            !field_bool(&ticket, "dropped"),
            "burst frame dropped under the degrade policy"
        );
        last_job = Some(field_u64(&ticket, "job_id"));
    }
    poll_done(&mut client, last_job.expect("a burst frame"));
    let status = stream_status(&mut client, degrade_id);
    assert!(
        field_bool(&status, "degraded_mode"),
        "overload burst did not engage degrade: {status}"
    );
    assert!(
        field_u64(&status, "completed_degraded") > 0,
        "degrade engaged but no frame ran at the degraded size"
    );
    let degraded: Vec<bool> = (0..STREAM_RECOVERY)
        .map(|_| frame_closed_loop(&mut client, degrade_id))
        .collect();
    let recovered_after = degraded
        .iter()
        .position(|&d| !d)
        .expect("degrade never disengaged over the recovery run");
    let status = stream_status(&mut client, degrade_id);
    assert_accounted(&status, "degrade stream");
    assert!(
        !field_bool(&status, "degraded_mode"),
        "degrade still engaged after the recovery run"
    );
    let transitions = field_u64(&status, "degrade_transitions");
    assert!(
        transitions >= 2,
        "{transitions} degrade transitions, expected an engage and a disengage"
    );
    let violations = field_u64(&status, "sla_violations");
    assert!(
        violations <= STREAM_BURST as u64,
        "{violations} SLA violations, more than the {STREAM_BURST}-frame burst can explain"
    );
    let p95 = status
        .get("p95_ms")
        .and_then(Value::as_f64)
        .expect("status carries p95_ms");
    assert!(
        p95 <= sla_ms,
        "p95 {p95:.1} ms exceeds the {sla_ms:.1} ms SLA despite degrade"
    );
    println!(
        "  degrade: engaged on an {STREAM_BURST}-frame burst, {} degraded frames, \
         disengaged after {recovered_after} healthy frames; p95 {p95:.1} ms within the \
         {sla_ms:.0} ms SLA, {violations} violations (all burst)",
        field_u64(&status, "completed_degraded"),
    );

    // Drop: 240 fps demands ~4 ms frames against a ~27 ms cost floor, so
    // the drop policy must shed every frame after the first, all counted.
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 3,
        fps: 240.0,
        policy: DegradePolicy::Drop,
    };
    let drop_id = open_stream(&mut client, &spec);
    frame_closed_loop(&mut client, drop_id);
    const DROP_FRAMES: u64 = 19;
    for _ in 0..DROP_FRAMES {
        assert!(
            field_bool(&submit_frame(&mut client, drop_id), "dropped"),
            "drop policy accepted a frame it cannot serve in time"
        );
    }
    let status = stream_status(&mut client, drop_id);
    assert_accounted(&status, "drop stream");
    for (field, want) in [
        ("submitted", 1 + DROP_FRAMES),
        ("completed", 1),
        ("dropped", DROP_FRAMES),
    ] {
        assert_eq!(field_u64(&status, field), want, "drop stream: {field}");
    }
    println!(
        "  drop: 1 completed + {DROP_FRAMES} shed = {} submitted, counted exactly",
        1 + DROP_FRAMES
    );

    // Exposition: streams share the server with the job path, so one
    // bench job and its cache hit run first, and the metrics gate covers
    // both tiers.
    let job = disparity(32, 24, ExecPolicy::Serial, 77);
    let (status, ticket) = post_job(&mut client, &job);
    assert_eq!(status, 202, "bench-alongside-streams submission: {ticket}");
    poll_done(&mut client, field_u64(&ticket, "id"));
    let (status, hit) = post_job(&mut client, &job);
    assert_eq!(status, 200, "cached resubmission: {hit}");
    for id in [degrade_id, drop_id] {
        let resp = client
            .request("POST", &format!("/v1/streams/{id}/close"), None)
            .expect("close stream");
        assert_eq!(resp.status, 200, "stream close: {}", resp.body_text());
    }
    // Closing the connection merges its request stats into the lifetime
    // registry the exposition gates read.
    drop(client);
    let metrics = check_metrics(&addr);
    let per_stream = format!("sdvbs_serve_stream_{degrade_id}_frame_latency_ms{{stat=\"p95\"}}");
    for required in [
        "sdvbs_serve_stream_frames_submitted",
        "sdvbs_serve_stream_frames_completed",
        "sdvbs_serve_stream_frames_degraded",
        "sdvbs_serve_stream_frames_dropped",
        "sdvbs_serve_stream_sla_violations",
        per_stream.as_str(),
    ] {
        assert!(
            metrics.lines().any(|l| l.starts_with(required)),
            "missing required stream metric {required:?}"
        );
    }
    let trace = check_trace(&addr);
    let label = format!("stream {degrade_id} ");
    assert!(
        trace.events().iter().any(|e| e.name.starts_with(&label)),
        "trace has no track labelled for stream {degrade_id}"
    );
    let frames = trace.events().iter().filter(|e| e.cat == "frame").count();
    assert!(frames > 0, "trace has no frame spans");
    println!("  streams: counters, per-stream histogram and track present, {frames} frame spans");
    server.shutdown();
}
