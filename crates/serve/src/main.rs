//! `sdvbs-serve` — CLI for the benchmark-serving daemon.
//!
//! ```text
//! sdvbs-serve serve       [--addr HOST:PORT] [--workers N] [--queue N]
//!                         [--timeout-ms N] [--hold-ms N]
//! sdvbs-serve worker      [--addr HOST:PORT] [--name S] [--workers N]
//!                         [--queue N] [--timeout-ms N] [--hold-ms N]
//! sdvbs-serve coordinator --workers ADDR,ADDR,... [--addr HOST:PORT]
//!                         [--queue N] [--heartbeat-ms N] [--liveness-ms N]
//!                         [--retries N]
//! sdvbs-serve loadgen     --addr HOST:PORT[,HOST:PORT...] [--conns N]
//!                         [--requests N] [--bench NAME] [--size S]
//!                         [--policy P] [--seed N] [--iterations N]
//!                         [--unique N] [--poll-ms N]
//! sdvbs-serve loadgen     --addr HOST:PORT --stream PIPE[:POLICY][@FPS][,...]
//!                         [--frames N] [--fps F] [--size S] [--seed N]
//! sdvbs-serve smoke
//! sdvbs-serve sched-smoke
//! sdvbs-serve cluster-smoke
//! sdvbs-serve stream-smoke
//! ```
//!
//! `serve` runs until a client posts `/v1/shutdown`, then drains
//! gracefully and exits. `worker` and `coordinator` are the cluster
//! mode: workers execute jobs shipped over the wire protocol, the
//! coordinator keeps the HTTP front (cache, coalescing, admission) and
//! shards admitted jobs across them. `loadgen` drives running servers
//! closed-loop and prints hit/miss latency percentiles (per target and
//! aggregate); with `--stream` it instead opens one video stream per
//! spec, feeds frames at the declared rate, and reports the server's
//! per-frame latency percentiles, SLA violations, and degraded/dropped
//! frame counts. `smoke` is the single-process CI gate; `sched-smoke`
//! gates the scheduling tier (batching throughput, QoS starvation bound,
//! auto-tuning); `cluster-smoke` boots real worker subprocesses and
//! gates scaling, result fidelity, and worker-death handling;
//! `stream-smoke` gates the streaming tier (one-shot bit-identity,
//! degrade engage/disengage under an overload burst, drop-policy
//! shedding, exact frame accounting, per-stream metrics and trace).
//!
//! Exit codes: 0 success, 1 a smoke/loadgen gate failed, 2 usage or
//! runtime error.

use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::{parse_policy, parse_size, Job, RunRecord};
use sdvbs_serve::{
    run_loadgen, run_stream_loadgen, run_worker, spec_body, starvation_bound, stream_spec_body,
    Client, ClusterConfig, ClusterEngine, Engine, EngineConfig, JobClass, LoadgenConfig,
    LoadgenReport, SchedConfig, Server, ServerConfig, StreamLoadConfig, StreamRun, Submission,
    WorkerConfig,
};
use sdvbs_stream::{
    fold_digest, run_one_shot, DegradePolicy, PipelineKind, StreamSpec, DIGEST_SEED,
};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::Trace;
use std::io::BufRead;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "coordinator" => cmd_coordinator(rest),
        "loadgen" => cmd_loadgen(rest),
        "smoke" => cmd_smoke(rest),
        "sched-smoke" => cmd_sched_smoke(rest),
        "cluster-smoke" => cmd_cluster_smoke(rest),
        "stream-smoke" => cmd_stream_smoke(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  sdvbs-serve serve       [--addr HOST:PORT] [--workers N] [--queue N]
                          [--timeout-ms N] [--hold-ms N]
                          [--cache-capacity N] [--max-batch N]
  sdvbs-serve worker      [--addr HOST:PORT] [--name S] [--workers N]
                          [--queue N] [--timeout-ms N] [--hold-ms N]
                          [--cache-capacity N] [--max-batch N]
  sdvbs-serve coordinator --workers ADDR,ADDR,... [--addr HOST:PORT]
                          [--queue N] [--heartbeat-ms N] [--liveness-ms N]
                          [--retries N] [--cache-capacity N] [--max-batch N]
  sdvbs-serve loadgen     --addr HOST:PORT[,HOST:PORT...] [--conns N]
                          [--requests N] [--bench NAME] [--size S]
                          [--policy P] [--seed N] [--iterations N]
                          [--unique N] [--poll-ms N]
  sdvbs-serve loadgen     --addr HOST:PORT --stream PIPE[:POLICY][@FPS][,...]
                          [--frames N] [--fps F] [--size S] [--seed N]
  sdvbs-serve smoke
  sdvbs-serve sched-smoke
  sdvbs-serve cluster-smoke
  sdvbs-serve stream-smoke

serve and coordinator run until a client POSTs /v1/shutdown, then drain
and exit; a worker exits after its coordinator drains it (or vanishes).
--max-batch 1 disables dispatch batching; --cache-capacity bounds the
result cache (LRU eviction past it). --stream opens one video stream
per item and paces frames at --fps (an @FPS suffix overrides it for
that one stream); streams get seeds seed, seed+1, ...
sizes: sqcif | qcif | cif | WxH     policies: serial | threads:N | auto
stream pipelines: tracking | disparity | stitch
stream policies:  drop | degrade (default)";

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:8099".to_string(),
        engine: EngineConfig::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => cfg.engine.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => {
                cfg.engine.queue_capacity = parse_num(&value("--queue")?, "--queue")?;
            }
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                cfg.engine.timeout = Some(Duration::from_millis(ms));
            }
            "--hold-ms" => {
                let ms: u64 = parse_num(&value("--hold-ms")?, "--hold-ms")?;
                cfg.engine.hold = Some(Duration::from_millis(ms));
            }
            "--cache-capacity" => {
                cfg.engine.cache_capacity =
                    parse_num(&value("--cache-capacity")?, "--cache-capacity")?;
            }
            "--max-batch" => {
                cfg.engine.sched.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let (workers, queue) = (cfg.engine.workers.max(1), cfg.engine.queue_capacity.max(1));
    let server = Server::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "sdvbs-serve listening on {} ({workers} workers, queue {queue})",
        server.addr(),
    );
    let report = server.wait();
    println!(
        "drained: {} completed, {} rejected",
        report.completed, report.rejected
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_worker(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = WorkerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--name" => cfg.name = value("--name")?,
            "--workers" => cfg.engine.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => {
                cfg.engine.queue_capacity = parse_num(&value("--queue")?, "--queue")?;
            }
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                cfg.engine.timeout = Some(Duration::from_millis(ms));
            }
            "--hold-ms" => {
                let ms: u64 = parse_num(&value("--hold-ms")?, "--hold-ms")?;
                cfg.engine.hold = Some(Duration::from_millis(ms));
            }
            "--cache-capacity" => {
                cfg.engine.cache_capacity =
                    parse_num(&value("--cache-capacity")?, "--cache-capacity")?;
            }
            "--max-batch" => {
                cfg.engine.sched.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    run_worker(cfg)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_coordinator(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:8099".to_string();
    let mut cfg = ClusterConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--queue" => cfg.queue_capacity = parse_num(&value("--queue")?, "--queue")?,
            "--heartbeat-ms" => {
                let ms: u64 = parse_num(&value("--heartbeat-ms")?, "--heartbeat-ms")?;
                cfg.heartbeat = Duration::from_millis(ms.max(1));
            }
            "--liveness-ms" => {
                let ms: u64 = parse_num(&value("--liveness-ms")?, "--liveness-ms")?;
                cfg.liveness = Duration::from_millis(ms.max(1));
            }
            "--retries" => cfg.retry_budget = parse_num(&value("--retries")?, "--retries")?,
            "--cache-capacity" => {
                cfg.cache_capacity = parse_num(&value("--cache-capacity")?, "--cache-capacity")?;
            }
            "--max-batch" => {
                cfg.sched.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if cfg.workers.is_empty() {
        return Err("coordinator requires --workers ADDR,ADDR,...".into());
    }
    let worker_count = cfg.workers.len();
    let backend = ClusterEngine::start(cfg)?;
    let server = Server::start_with_backend(&addr, backend).map_err(|e| format!("bind: {e}"))?;
    println!(
        "sdvbs-serve coordinator listening on {} ({worker_count} workers)",
        server.addr(),
    );
    let report = server.wait();
    println!(
        "drained: {} completed, {} rejected, {} quarantined{}",
        report.completed,
        report.rejected,
        report.quarantined,
        if report.dead_workers.is_empty() {
            String::new()
        } else {
            format!("; dead workers: {}", report.dead_workers.join(", "))
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_loadgen(args: &[String]) -> Result<ExitCode, String> {
    let mut addrs: Vec<String> = Vec::new();
    let mut conns = 4usize;
    let mut requests = 50usize;
    let mut bench = "Disparity Map".to_string();
    let mut size = InputSize::Sqcif;
    let mut policy = ExecPolicy::Serial;
    let mut seed = 1u64;
    let mut iterations = 1usize;
    let mut unique = 4u64;
    let mut poll_ms = 1000u64;
    let mut streams: Vec<String> = Vec::new();
    let mut frames = 50usize;
    let mut fps = 10.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            // Repeatable and/or comma-separated: every named address
            // becomes a loadgen target with its own report section.
            "--addr" => addrs.extend(
                value("--addr")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            ),
            "--conns" => conns = parse_num(&value("--conns")?, "--conns")?,
            "--requests" => requests = parse_num(&value("--requests")?, "--requests")?,
            "--bench" => bench = value("--bench")?,
            "--size" => size = parse_size(&value("--size")?)?,
            "--policy" => policy = parse_policy(&value("--policy")?)?,
            "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
            "--iterations" => iterations = parse_num(&value("--iterations")?, "--iterations")?,
            "--unique" => unique = parse_num(&value("--unique")?, "--unique")?,
            "--poll-ms" => poll_ms = parse_num(&value("--poll-ms")?, "--poll-ms")?,
            "--stream" => streams.extend(
                value("--stream")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            ),
            "--frames" => frames = parse_num(&value("--frames")?, "--frames")?,
            "--fps" => fps = parse_num(&value("--fps")?, "--fps")?,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if addrs.is_empty() {
        return Err("loadgen requires --addr HOST:PORT".into());
    }
    if !streams.is_empty() {
        let specs = streams
            .iter()
            .enumerate()
            .map(|(i, item)| {
                // PIPE[:POLICY][@FPS] — the @FPS suffix overrides the
                // global --fps for this one stream, which is how a demo
                // pushes a single stream past its SLA budget.
                let (item, fps) = match item.rsplit_once('@') {
                    Some((rest, f)) => (rest, parse_num(f, "--stream @fps")?),
                    None => (item.as_str(), fps),
                };
                let (pipeline, policy) = match item.split_once(':') {
                    Some((p, pol)) => (p, DegradePolicy::parse(pol)?),
                    None => (item, DegradePolicy::Degrade),
                };
                let spec = StreamSpec {
                    pipeline: PipelineKind::parse(pipeline)?,
                    size,
                    seed: seed + i as u64,
                    fps,
                    policy,
                };
                spec.validate()?;
                Ok(spec)
            })
            .collect::<Result<Vec<StreamSpec>, String>>()?;
        let cfg = StreamLoadConfig {
            addr: addrs[0].clone(),
            specs,
            frames,
            drain_limit: Duration::from_secs(300),
        };
        let report = run_stream_loadgen(&cfg).map_err(|e| format!("stream loadgen failed: {e}"))?;
        print!("{report}");
        let ok = report.errors == 0
            && report.streams.len() == streams.len()
            && report.streams.iter().all(StreamRun::accounted);
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    if !all_benchmarks().iter().any(|b| b.info().name == bench) {
        return Err(format!("unknown benchmark {bench:?}"));
    }
    let cfg = LoadgenConfig {
        addrs,
        conns,
        requests,
        spec: Job::new(bench, size, policy, seed, iterations),
        unique,
        poll_ms,
    };
    let report = run_loadgen(&cfg).map_err(|e| format!("loadgen failed: {e}"))?;
    print!("{report}");
    Ok(if report.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The CI smoke gate. Everything runs in-process on loopback.
fn cmd_smoke(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(format!("smoke takes no flags\n{USAGE}"));
    }
    match smoke() {
        Ok(()) => {
            println!("serve smoke: PASS");
            Ok(ExitCode::SUCCESS)
        }
        Err(why) => {
            eprintln!("serve smoke: FAIL: {why}");
            Ok(ExitCode::from(1))
        }
    }
}

fn smoke() -> Result<(), String> {
    let threads_before = thread_count();

    // --- Server A: single worker, single queue slot, held execution, so
    // cache / coalescing / 429 / drain transitions are deterministic. ---
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 1,
            hold: Some(Duration::from_millis(400)),
            ..EngineConfig::default()
        },
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let spec = Job::new(
        "Disparity Map",
        InputSize::Custom {
            width: 32,
            height: 24,
        },
        ExecPolicy::Serial,
        7,
        1,
    );

    // 1. Miss: submit, long-poll to done; the sample includes the hold.
    let started = Instant::now();
    let resp = post_jobs(&mut client, &spec_body(&spec, 7), "")?;
    expect_status("first submission", resp.0, 202)?;
    let id = field_u64(&resp.1, "id")?;
    poll_until(&mut client, id, "done", Duration::from_secs(60))?;
    let miss_ms = started.elapsed().as_secs_f64() * 1e3;

    // 2. Hit: identical spec is answered from cache, fast.
    let started = Instant::now();
    let resp = post_jobs(&mut client, &spec_body(&spec, 7), "")?;
    let hit_ms = started.elapsed().as_secs_f64() * 1e3;
    expect_status("cached submission", resp.0, 200)?;
    if !field_bool(&resp.1, "cached")? {
        return Err(format!("expected \"cached\":true, got {}", resp.1));
    }
    if hit_ms >= miss_ms * 0.01 {
        return Err(format!(
            "cache hit not cheap enough: hit {hit_ms:.3} ms vs miss {miss_ms:.3} ms (gate: <1%)"
        ));
    }
    println!("  cache: miss {miss_ms:.1} ms, hit {hit_ms:.3} ms");

    // 3. fresh=1 bypasses the cache and re-executes.
    let resp = post_jobs(&mut client, &spec_body(&spec, 7), "?fresh=1")?;
    expect_status("fresh submission", resp.0, 202)?;
    let fresh_id = field_u64(&resp.1, "id")?;
    poll_until(&mut client, fresh_id, "running", Duration::from_secs(10))?;

    // 4. Fill the single queue slot with an uncached spec...
    let resp = post_jobs(&mut client, &spec_body(&spec, 8), "")?;
    expect_status("queue-filling submission", resp.0, 202)?;
    let queued_id = field_u64(&resp.1, "id")?;

    // 5. ...then coalesce onto it: the identical spec attaches to the
    // in-flight job instead of consuming another queue slot.
    let resp = post_jobs(&mut client, &spec_body(&spec, 8), "")?;
    expect_status("coalesced submission", resp.0, 202)?;
    if !field_bool(&resp.1, "coalesced")? {
        return Err(format!("expected \"coalesced\":true, got {}", resp.1));
    }
    if field_u64(&resp.1, "id")? != queued_id {
        return Err("coalesced submission did not attach to the in-flight job".into());
    }

    // 6. Admission control: the queue slot is taken, so a third distinct
    // spec is refused.
    let resp = post_jobs(&mut client, &spec_body(&spec, 9), "")?;
    expect_status("overflow submission", resp.0, 429)?;
    if resp.2.as_deref() != Some("1") {
        return Err(format!("429 without retry-after: {:?}", resp.2));
    }
    println!("  admission: 429 with retry-after on a full queue");

    // 7. Graceful drain: running work finishes, queued work is rejected,
    // new work is refused, every thread is joined.
    let resp = client
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("shutdown request: {e}"))?;
    expect_status("shutdown", resp.status, 200)?;
    let resp = post_jobs(&mut client, &spec_body(&spec, 10), "")?;
    expect_status("post-shutdown submission", resp.0, 503)?;
    poll_until(&mut client, fresh_id, "done", Duration::from_secs(60))?;
    poll_until(&mut client, queued_id, "rejected", Duration::from_secs(60))?;
    drop(client);
    let report = server.wait();
    // Drain-scoped accounting: only the fresh job (running at drain
    // begin) and the queued job count; the pre-drain completions do not.
    if report.completed < 1 || report.rejected < 1 || report.completed > 2 {
        return Err(format!("unexpected drain report: {report:?}"));
    }
    println!(
        "  drain: {} completed, {} rejected, listener closed",
        report.completed, report.rejected
    );
    if let (Some(before), Some(_)) = (threads_before, thread_count()) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let now = thread_count().unwrap_or(before);
            if now <= before {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!("thread leak after drain: {before} -> {now}"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // --- Server B: real concurrency, a loadgen burst, and the metrics /
    // trace exposition gates. ---
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 32,
            ..EngineConfig::default()
        },
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let cfg = LoadgenConfig {
        addrs: vec![addr.clone()],
        conns: 4,
        requests: 50,
        spec: Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Serial,
            100,
            1,
        ),
        unique: 4,
        poll_ms: 1000,
    };
    let lg = run_loadgen(&cfg).map_err(|e| format!("loadgen: {e}"))?;
    print!("{lg}");
    if lg.errors != 0 || lg.sent != 50 {
        return Err(format!(
            "loadgen burst: {} ok, {} errors",
            lg.sent, lg.errors
        ));
    }
    if lg.hits.count() == 0 || lg.misses.count() == 0 {
        return Err(format!(
            "expected both latency classes populated: {} hits, {} misses",
            lg.hits.count(),
            lg.misses.count()
        ));
    }

    check_metrics(&addr)?;
    check_trace(&addr)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("shutdown request: {e}"))?;
    expect_status("shutdown", resp.status, 200)?;
    drop(client);
    server.wait();
    Ok(())
}

fn cmd_sched_smoke(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(format!("sched-smoke takes no flags\n{USAGE}"));
    }
    match sched_smoke() {
        Ok(()) => {
            println!("sched smoke: PASS");
            Ok(ExitCode::SUCCESS)
        }
        Err(why) => {
            eprintln!("sched smoke: FAIL: {why}");
            Ok(ExitCode::from(1))
        }
    }
}

/// One homogeneous burst through an in-process engine with the given
/// batch window; returns the wall time, the record fingerprints in
/// submission order, and the engine's metrics exposition.
fn sched_burst(jobs: &[Job], max_batch: usize) -> Result<(Duration, Vec<String>, String), String> {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: jobs.len().max(1) * 2,
        sched: SchedConfig {
            max_batch,
            ..SchedConfig::default()
        },
        ..EngineConfig::default()
    });
    let started = Instant::now();
    let mut ids = Vec::new();
    for job in jobs {
        // fresh: the gate measures execution, not the cache.
        match engine.submit(job.clone(), true, JobClass::Interactive) {
            Submission::Queued(id) => ids.push(id),
            other => return Err(format!("burst submit: unexpected {other:?}")),
        }
    }
    let mut fingerprints = Vec::new();
    for id in ids {
        let snap = engine
            .wait_terminal(id, Duration::from_secs(300))
            .ok_or("burst job vanished")?;
        let record = snap
            .record
            .ok_or_else(|| format!("burst job {id} ended {}: {}", snap.state, snap.detail))?;
        fingerprints.push(record_fingerprint(record.record()));
    }
    let wall = started.elapsed();
    let metrics = engine.metrics_text();
    engine.drain();
    Ok((wall, fingerprints, metrics))
}

/// The scheduling CI gate, all in-process:
///
/// 1. **Batching** — a homogeneous 50-job burst must run >= 1.2x faster
///    with the default batch window than with batching disabled
///    (`max_batch = 1`), and every record must be bit-identical between
///    the two runs on the deterministic fields.
/// 2. **QoS** — under a deep batch-class backlog, an interactive probe
///    must be dispatched within the documented DRR starvation bound.
/// 3. **Auto-tuning** — `policy: auto` jobs must route through the
///    scaling model (`sched_tuned_jobs`) and complete.
fn sched_smoke() -> Result<(), String> {
    // --- Phase 1: batching throughput + bit-identity. ---
    let burst: Vec<Job> = (0..50)
        .map(|s| {
            Job::new(
                "Disparity Map",
                InputSize::Custom {
                    width: 64,
                    height: 48,
                },
                ExecPolicy::Serial,
                9000 + s,
                1,
            )
        })
        .collect();
    let (unbatched_wall, unbatched_fp, _) = sched_burst(&burst, 1)?;
    let (batched_wall, batched_fp, batched_metrics) = sched_burst(&burst, 16)?;
    for (i, (u, b)) in unbatched_fp.iter().zip(&batched_fp).enumerate() {
        if u != b {
            return Err(format!(
                "batched result diverged from unbatched at job {i}:\n  unbatched: {u}\n  batched:   {b}"
            ));
        }
    }
    let speedup = unbatched_wall.as_secs_f64() / batched_wall.as_secs_f64().max(1e-9);
    println!(
        "  batching: unbatched {:.2} s, batched {:.2} s ({speedup:.2}x), {} records identical",
        unbatched_wall.as_secs_f64(),
        batched_wall.as_secs_f64(),
        batched_fp.len()
    );
    if speedup < 1.2 {
        return Err(format!(
            "batching only {speedup:.2}x faster on a homogeneous burst (gate: >= 1.2x)"
        ));
    }
    if !batched_metrics.contains("sdvbs_serve_batch_size") {
        return Err("batched engine exposes no batch_size histogram".into());
    }

    // --- Phase 2: DRR keeps interactive jobs inside the documented
    // bound under a deep batch-class backlog. ---
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
        match engine.submit(backlog_spec(10_000 + s), true, JobClass::Batch) {
            Submission::Queued(_) => {}
            other => return Err(format!("backlog submit: unexpected {other:?}")),
        }
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
    let mut waits_ms = Vec::new();
    for p in 0..5u64 {
        let before = engine.counter("jobs_executed");
        let started = Instant::now();
        let id = match engine.submit(backlog_spec(20_000 + p), true, JobClass::Interactive) {
            Submission::Queued(id) => id,
            other => return Err(format!("probe submit: unexpected {other:?}")),
        };
        let snap = engine
            .wait_terminal(id, Duration::from_secs(120))
            .ok_or("probe vanished")?;
        if snap.state != "done" {
            return Err(format!("probe ended {}: {}", snap.state, snap.detail));
        }
        waits_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let batch_ran = (engine.counter("jobs_executed") - before).saturating_sub(1);
        worst_batch_ran = worst_batch_ran.max(batch_ran);
        if batch_ran > allowed as u64 {
            return Err(format!(
                "probe {p} waited behind {batch_ran} batch jobs \
                 (documented bound {bound} dispatched + {} in flight)",
                allowed - bound
            ));
        }
    }
    waits_ms.sort_by(|a, b| a.total_cmp(b));
    let p95 = waits_ms[waits_ms.len() - 1];
    println!(
        "  qos: worst probe saw {worst_batch_ran} batch jobs (allowed {allowed}), \
         interactive p95 {p95:.0} ms over a 60-job backlog"
    );
    // Generous wall-clock ceiling derived from the same bound: each
    // batch job costs ~hold + execution; 4x covers scheduling noise.
    let ceiling = (allowed + 1) as f64 * hold.as_secs_f64() * 1e3 * 4.0;
    if p95 > ceiling.max(500.0) {
        return Err(format!(
            "interactive p95 {p95:.0} ms exceeds the derived ceiling {ceiling:.0} ms"
        ));
    }
    engine.drain();

    // --- Phase 3: auto policies route through the scaling model. ---
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 16,
        ..EngineConfig::default()
    });
    for s in 0..3u64 {
        let spec = Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 64,
                height: 48,
            },
            ExecPolicy::Auto,
            30_000 + s,
            1,
        );
        let id = match engine.submit(spec, true, JobClass::Interactive) {
            Submission::Queued(id) => id,
            other => return Err(format!("auto submit: unexpected {other:?}")),
        };
        let snap = engine
            .wait_terminal(id, Duration::from_secs(120))
            .ok_or("auto job vanished")?;
        if snap.state != "done" {
            return Err(format!("auto job ended {}: {}", snap.state, snap.detail));
        }
    }
    let tuned = engine.counter("sched_tuned_jobs");
    engine.drain();
    if tuned < 3 {
        return Err(format!("expected 3 tuned auto jobs, counter says {tuned}"));
    }
    println!("  tuning: {tuned} auto jobs routed through the scaling model");
    Ok(())
}

/// The phase-2 backlog/probe spec: tiny, serial, distinct per seed.
fn backlog_spec(seed: u64) -> Job {
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

fn cmd_cluster_smoke(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(format!("cluster-smoke takes no flags\n{USAGE}"));
    }
    match cluster_smoke() {
        Ok(()) => {
            println!("cluster smoke: PASS");
            Ok(ExitCode::SUCCESS)
        }
        Err(why) => {
            eprintln!("cluster smoke: FAIL: {why}");
            Ok(ExitCode::from(1))
        }
    }
}

/// A spawned `sdvbs-serve worker` subprocess with its discovered address.
struct WorkerProc {
    child: Child,
    addr: String,
    /// Held open so the worker's final prints never hit a closed pipe.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl WorkerProc {
    /// Spawns a worker on an ephemeral port and parses the bound address
    /// from its banner line. `hold_ms > 0` adds a sleep to every job so
    /// wall-clock concurrency is observable even on a single CPU.
    fn spawn(hold_ms: u64) -> Result<WorkerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args([
            "worker",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue",
            "16",
        ]);
        if hold_ms > 0 {
            cmd.args(["--hold-ms", &hold_ms.to_string()]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning a worker: {e}"))?;
        let mut stdout =
            std::io::BufReader::new(child.stdout.take().ok_or("worker has no stdout")?);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the worker banner: {e}"))?;
        let addr = line
            .split("listening on ")
            .nth(1)
            .ok_or_else(|| format!("unexpected worker banner: {line:?}"))?
            .trim()
            .to_string();
        Ok(WorkerProc {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// SIGKILL — the abrupt death the fault-tolerance path must absorb.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Reaps a worker that is expected to exit on its own post-drain.
    fn reap(&mut self) {
        let _ = self.child.wait();
    }
}

/// Spawns `n` workers and a coordinator server over them on an ephemeral
/// front port.
fn start_cluster(
    n: usize,
    hold_ms: u64,
    cfg: ClusterConfig,
) -> Result<(Vec<WorkerProc>, Server), String> {
    let mut procs = Vec::new();
    for _ in 0..n {
        procs.push(WorkerProc::spawn(hold_ms)?);
    }
    let cfg = ClusterConfig {
        workers: procs.iter().map(|p| p.addr.clone()).collect(),
        ..cfg
    };
    let backend = ClusterEngine::start(cfg)?;
    let server = Server::start_with_backend("127.0.0.1:0", backend)
        .map_err(|e| format!("coordinator bind: {e}"))?;
    Ok((procs, server))
}

/// Graceful cluster shutdown: `POST /v1/shutdown`, wait out the drain,
/// reap the worker processes.
fn shutdown_cluster(
    server: Server,
    mut procs: Vec<WorkerProc>,
) -> Result<sdvbs_serve::DrainReport, String> {
    let mut client =
        Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("shutdown request: {e}"))?;
    expect_status("cluster shutdown", resp.status, 200)?;
    drop(client);
    let report = server.wait();
    for p in &mut procs {
        p.reap();
    }
    Ok(report)
}

/// An all-cache-miss closed-loop burst against one coordinator. The
/// workers run with a hold window (see [`WorkerProc::spawn`]) so each
/// job occupies ~`hold` of wall time; a cluster that actually overlaps
/// work across workers finishes the burst proportionally faster — on
/// any machine, including single-CPU CI runners.
fn cluster_burst(addr: &str, requests: usize, seed_base: u64) -> Result<LoadgenReport, String> {
    let cfg = LoadgenConfig {
        addrs: vec![addr.to_string()],
        conns: 8,
        requests,
        spec: Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Serial,
            seed_base,
            1,
        ),
        unique: requests as u64,
        poll_ms: 1000,
    };
    run_loadgen(&cfg).map_err(|e| format!("cluster loadgen: {e}"))
}

/// The hold window the smoke workers run with: long enough to dominate
/// scheduling noise, short enough to keep the gate fast.
const SMOKE_HOLD_MS: u64 = 100;

/// The smoke sweep spec: every benchmark, smallest paper size, serial,
/// seed 1 — the same preset as `sdvbs-runner run --smoke`.
fn sweep_jobs() -> Vec<Job> {
    all_benchmarks()
        .iter()
        .map(|b| {
            Job::new(
                b.info().name.to_string(),
                InputSize::Sqcif,
                ExecPolicy::Serial,
                1,
                1,
            )
        })
        .collect()
}

/// The deterministic identity of a run record: everything that must be
/// bit-identical between cluster and single-process execution. Timing
/// and host/worker metadata legitimately differ.
fn record_fingerprint(r: &RunRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{:?}|{:?}|{}",
        r.benchmark, r.size, r.policy, r.seed, r.iterations, r.status, r.quality, r.detail
    )
}

/// Runs the sweep on an in-process single-worker engine — the fidelity
/// baseline the cluster's records must match.
fn single_process_sweep() -> Result<Vec<RunRecord>, String> {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        ..EngineConfig::default()
    });
    let mut ids = Vec::new();
    for job in sweep_jobs() {
        match engine.submit(job, false, JobClass::Interactive) {
            Submission::Queued(id) => ids.push(id),
            other => return Err(format!("baseline submit: unexpected {other:?}")),
        }
    }
    let mut records = Vec::new();
    for id in ids {
        let snap = engine
            .wait_terminal(id, Duration::from_secs(300))
            .ok_or("baseline job vanished")?;
        let record = snap
            .record
            .ok_or_else(|| format!("baseline job {id} ended {}: {}", snap.state, snap.detail))?;
        records.push(record.record().clone());
    }
    engine.drain();
    Ok(records)
}

/// Polls job `id` to a terminal state; returns `(state, body)`.
fn poll_terminal(
    client: &mut Client,
    id: u64,
    limit: Duration,
) -> Result<(String, String), String> {
    let deadline = Instant::now() + limit;
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{id}?wait_ms=500"), None)
            .map_err(|e| format!("GET /v1/jobs/{id}: {e}"))?;
        let body = resp.body_text();
        let state = Value::parse(&body)
            .ok()
            .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
            .ok_or_else(|| format!("job {id}: unparsable poll body {body}"))?;
        if state == "done" || state == "rejected" {
            return Ok((state, body));
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} stuck in state {state:?}"));
        }
    }
}

/// The cluster CI gate: real worker subprocesses over real sockets.
/// Gates throughput scaling, result fidelity against single-process
/// execution, metrics/trace aggregation, and kill-a-worker fault
/// handling with a clean cluster-wide drain.
fn cluster_smoke() -> Result<(), String> {
    // --- Phase 1+2: cache-miss throughput must scale with workers. ---
    let (procs, server) = start_cluster(1, SMOKE_HOLD_MS, ClusterConfig::default())?;
    let lg1 = cluster_burst(&server.addr().to_string(), 16, 1000)?;
    if lg1.errors != 0 {
        return Err(format!("1-worker burst had {} errors", lg1.errors));
    }
    shutdown_cluster(server, procs)?;

    let (procs, server) = start_cluster(2, SMOKE_HOLD_MS, ClusterConfig::default())?;
    let addr = server.addr().to_string();
    let lg2 = cluster_burst(&addr, 16, 1000)?;
    if lg2.errors != 0 {
        return Err(format!("2-worker burst had {} errors", lg2.errors));
    }
    let speedup = lg1.wall.as_secs_f64() / lg2.wall.as_secs_f64().max(1e-9);
    println!(
        "  scaling: 1 worker {:.2} s, 2 workers {:.2} s ({speedup:.2}x)",
        lg1.wall.as_secs_f64(),
        lg2.wall.as_secs_f64()
    );
    if speedup < 1.3 {
        return Err(format!(
            "2 workers only {speedup:.2}x faster than 1 (gate: >= 1.3x)"
        ));
    }

    // --- Phase 3: the full smoke sweep through the cluster must match
    // single-process execution on every deterministic field. ---
    let baseline = single_process_sweep()?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut cluster_records = Vec::new();
    for job in sweep_jobs() {
        let resp = post_jobs(&mut client, &spec_body(&job, job.seed), "")?;
        expect_status("sweep submission", resp.0, 202)?;
        let id = field_u64(&resp.1, "id")?;
        let (state, body) = poll_terminal(&mut client, id, Duration::from_secs(300))?;
        if state != "done" {
            return Err(format!(
                "sweep job {}: ended {state}: {body}",
                job.benchmark
            ));
        }
        let record_json = Value::parse(&body)
            .map_err(|e| format!("sweep poll body: {e}"))?
            .get("record")
            .ok_or("done poll body without a record")?
            .to_string();
        cluster_records.push(
            RunRecord::from_json_line(&record_json)
                .map_err(|e| format!("sweep record does not parse: {e}"))?,
        );
    }
    for (base, clustered) in baseline.iter().zip(&cluster_records) {
        let (b, c) = (record_fingerprint(base), record_fingerprint(clustered));
        if b != c {
            return Err(format!(
                "cluster result diverged from single-process:\n  local:   {b}\n  cluster: {c}"
            ));
        }
    }
    println!(
        "  fidelity: {} benchmarks identical to single-process execution",
        cluster_records.len()
    );
    // Resubmitting a burst spec is a coordinator-side cache hit: answered
    // locally, no wire round trip, and it feeds the cache_hits counter
    // the metrics gate requires.
    let cached_spec = Job::new(
        "Disparity Map",
        InputSize::Custom {
            width: 32,
            height: 24,
        },
        ExecPolicy::Serial,
        1000,
        1,
    );
    let resp = post_jobs(&mut client, &spec_body(&cached_spec, 1000), "")?;
    expect_status("cached resubmission", resp.0, 200)?;
    check_metrics(&addr)?;
    check_trace(&addr)?;
    drop(client);
    shutdown_cluster(server, procs)?;

    // --- Phase 4: kill -9 one worker mid-burst; nothing may be lost
    // silently and the drain must name the dead worker. ---
    let cfg = ClusterConfig {
        heartbeat: Duration::from_millis(200),
        liveness: Duration::from_millis(1500),
        ..ClusterConfig::default()
    };
    let (mut procs, server) = start_cluster(2, SMOKE_HOLD_MS, cfg)?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let spec = Job::new(
        "Disparity Map",
        InputSize::Custom {
            width: 32,
            height: 24,
        },
        ExecPolicy::Serial,
        5000,
        1,
    );
    let mut ids = Vec::new();
    for s in 0..12u64 {
        let resp = post_jobs(&mut client, &spec_body(&spec, 5000 + s), "")?;
        expect_status("kill-phase submission", resp.0, 202)?;
        ids.push(field_u64(&resp.1, "id")?);
    }
    std::thread::sleep(Duration::from_millis(150));
    procs[1].kill();
    let mut done = 0usize;
    let mut rejected = 0usize;
    for id in ids {
        match poll_terminal(&mut client, id, Duration::from_secs(120))?
            .0
            .as_str()
        {
            "done" => done += 1,
            _ => rejected += 1,
        }
    }
    println!("  worker kill: {done} completed elsewhere, {rejected} rejected/quarantined");
    // The coordinator must stay healthy and report the death.
    let resp = client
        .request("GET", "/healthz", None)
        .map_err(|e| format!("GET /healthz: {e}"))?;
    expect_status("/healthz", resp.status, 200)?;
    let health = resp.body_text();
    if !health.contains("\"workers_alive\":1") || !health.contains("\"w1\"") {
        return Err(format!("healthz does not report the dead worker: {health}"));
    }
    drop(client);
    let report = shutdown_cluster(server, procs)?;
    if !report.dead_workers.iter().any(|w| w == "w1") {
        return Err(format!(
            "drain report does not name the dead worker: {report:?}"
        ));
    }
    if report.completed + report.rejected + report.quarantined != 12 {
        return Err(format!(
            "jobs lost silently: {report:?} (expected 12 accounted)"
        ));
    }
    println!(
        "  drain: {} completed, {} rejected, {} quarantined; dead: {}",
        report.completed,
        report.rejected,
        report.quarantined,
        report.dead_workers.join(", ")
    );
    Ok(())
}

fn cmd_stream_smoke(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(format!("stream-smoke takes no flags\n{USAGE}"));
    }
    match stream_smoke() {
        Ok(()) => {
            println!("stream smoke: PASS");
            Ok(ExitCode::SUCCESS)
        }
        Err(why) => {
            eprintln!("stream smoke: FAIL: {why}");
            Ok(ExitCode::from(1))
        }
    }
}

/// `POST /v1/streams`; returns the new stream's id.
fn open_stream_http(client: &mut Client, spec: &StreamSpec) -> Result<u64, String> {
    let resp = client
        .request("POST", "/v1/streams", Some(&stream_spec_body(spec)))
        .map_err(|e| format!("POST /v1/streams: {e}"))?;
    expect_status("stream open", resp.status, 201)?;
    field_u64(&resp.body_text(), "id")
}

/// `POST /v1/streams/<id>/frames`; returns the frame ticket as
/// `(job_id, dropped, degraded)`.
fn submit_frame_http(client: &mut Client, id: u64) -> Result<(Option<u64>, bool, bool), String> {
    let resp = client
        .request("POST", &format!("/v1/streams/{id}/frames"), None)
        .map_err(|e| format!("frame submit: {e}"))?;
    expect_status("frame submit", resp.status, 202)?;
    let body = resp.body_text();
    let job = Value::parse(&body)
        .ok()
        .and_then(|v| v.get("job_id").and_then(Value::as_u64));
    Ok((
        job,
        field_bool(&body, "dropped")?,
        field_bool(&body, "degraded")?,
    ))
}

/// `GET /v1/streams/<id>`; returns the parsed status body.
fn stream_status_http(client: &mut Client, id: u64) -> Result<Value, String> {
    let resp = client
        .request("GET", &format!("/v1/streams/{id}"), None)
        .map_err(|e| format!("stream status: {e}"))?;
    expect_status("stream status", resp.status, 200)?;
    Value::parse(&resp.body_text()).map_err(|e| format!("status body: {e}"))
}

/// Submits one frame and blocks until it completes; returns the ticket's
/// degraded flag. Errors if the frame was dropped.
fn frame_closed_loop(client: &mut Client, id: u64) -> Result<bool, String> {
    let (job, dropped, degraded) = submit_frame_http(client, id)?;
    if dropped {
        return Err(format!("stream {id}: unexpected dropped frame"));
    }
    let job = job.ok_or("accepted frame without a job id")?;
    poll_until(client, job, "done", Duration::from_secs(120))?;
    Ok(degraded)
}

/// A status field that must be a number.
fn status_u64(status: &Value, field: &str) -> Result<u64, String> {
    status
        .get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("status body missing {field:?}"))
}

/// The accounting identity every idle stream must satisfy:
/// `completed + dropped + rejected + failed == submitted` with nothing
/// in flight.
fn check_accounting(status: &Value, what: &str) -> Result<(), String> {
    let [submitted, completed, dropped, rejected, failed, in_flight] = [
        status_u64(status, "submitted")?,
        status_u64(status, "completed")?,
        status_u64(status, "dropped")?,
        status_u64(status, "rejected")?,
        status_u64(status, "failed")?,
        status_u64(status, "in_flight")?,
    ];
    if in_flight != 0 {
        return Err(format!("{what}: {in_flight} frames still in flight"));
    }
    if completed + dropped + rejected + failed != submitted {
        return Err(format!(
            "{what}: accounting broken: {completed} completed + {dropped} dropped \
             + {rejected} rejected + {failed} failed != {submitted} submitted"
        ));
    }
    Ok(())
}

/// The per-frame cost floor the phase-2/3 server runs with: a hold makes
/// frame cost deterministic, so the SLA arithmetic below is machine-
/// independent. Full-size frames pay the whole window; degraded frames
/// pay their pixel share of it (a quarter, at SQCIF's half-resolution).
const STREAM_HOLD_MS: u64 = 25;
/// Warmup and burst sizes for the degrade phase.
const STREAM_WARMUP: usize = 8;
const STREAM_BURST: usize = 8;
/// Closed-loop frames after the burst. Sized so the burst's SLA misses
/// sit below the 5% mark: only the burst can violate (at most
/// `STREAM_BURST` frames), and `8 / 160 = 5%`, so the p95 gate holds
/// with margin.
const STREAM_RECOVERY: usize = 144;

/// The streaming CI gate, over real loopback sockets:
///
/// 1. **Bit-identity** — an unloaded stream's rolling digest must equal
///    the one-shot in-process run of the same spec, frame for frame.
/// 2. **Degrade** — a burst of back-to-back frames on a held server
///    must engage degrade, shed latency at the smaller size, and
///    disengage after a healthy run; the final p95 must sit within the
///    SLA and every frame must be accounted for exactly.
/// 3. **Drop** — a stream whose SLA is below the per-frame cost floor
///    must shed every frame after the first, all counted.
/// 4. **Exposition** — per-stream metrics and frame trace spans must be
///    present and structurally valid.
fn stream_smoke() -> Result<(), String> {
    // --- Phase 1: unloaded bit-identity through the HTTP front. ---
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            ..EngineConfig::default()
        },
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 5,
        fps: 1.0, // a 1000 ms budget: never pressured while unloaded
        policy: DegradePolicy::Degrade,
    };
    let id = open_stream_http(&mut client, &spec)?;
    const IDENTITY_FRAMES: u64 = 6;
    for _ in 0..IDENTITY_FRAMES {
        if frame_closed_loop(&mut client, id)? {
            return Err("unloaded stream degraded a frame".into());
        }
    }
    let status = stream_status_http(&mut client, id)?;
    check_accounting(&status, "unloaded stream")?;
    for (field, want) in [
        ("submitted", IDENTITY_FRAMES),
        ("completed", IDENTITY_FRAMES),
        ("completed_degraded", 0),
        ("dropped", 0),
        ("sla_violations", 0),
    ] {
        let got = status_u64(&status, field)?;
        if got != want {
            return Err(format!("unloaded stream: {field} = {got}, want {want}"));
        }
    }
    let expected = run_one_shot(&spec, IDENTITY_FRAMES)
        .map_err(|e| format!("one-shot run: {e}"))?
        .iter()
        .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest));
    let expected = format!("{expected:#018x}");
    let digest = status
        .get("rolling_digest")
        .and_then(Value::as_str)
        .ok_or("status without rolling_digest")?;
    if digest != expected {
        return Err(format!(
            "stream digest {digest} != one-shot digest {expected}"
        ));
    }
    println!(
        "  identity: {IDENTITY_FRAMES} streamed frames fold to {expected}, one-shot identical"
    );
    let resp = client
        .request("POST", &format!("/v1/streams/{id}/close"), None)
        .map_err(|e| format!("close: {e}"))?;
    expect_status("stream close", resp.status, 200)?;
    let resp = client
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("shutdown: {e}"))?;
    expect_status("shutdown", resp.status, 200)?;
    drop(client);
    server.wait();

    // --- Phases 2-4: a held server, so frame cost (and therefore the
    // SLA arithmetic) is deterministic across machines. ---
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            hold: Some(Duration::from_millis(STREAM_HOLD_MS)),
            ..EngineConfig::default()
        },
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;

    // Phase 2: 10 fps over a ~27 ms frame cost leaves slack unloaded,
    // but a back-to-back burst projects past the budget and must flip
    // the stream into degrade.
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 2,
        fps: 10.0,
        policy: DegradePolicy::Degrade,
    };
    let sla_ms = spec.sla_ms();
    let degrade_id = open_stream_http(&mut client, &spec)?;
    for _ in 0..STREAM_WARMUP {
        frame_closed_loop(&mut client, degrade_id)?;
    }
    let status = stream_status_http(&mut client, degrade_id)?;
    if status.get("degraded_mode") != Some(&Value::Bool(false)) {
        return Err("degrade engaged during the unloaded warmup".into());
    }
    let mut last_job = None;
    for _ in 0..STREAM_BURST {
        let (job, dropped, _) = submit_frame_http(&mut client, degrade_id)?;
        if dropped {
            return Err("burst frame dropped under the degrade policy".into());
        }
        last_job = job;
    }
    let last_job = last_job.ok_or("burst frame without a job id")?;
    poll_until(&mut client, last_job, "done", Duration::from_secs(120))?;
    let status = stream_status_http(&mut client, degrade_id)?;
    if status.get("degraded_mode") != Some(&Value::Bool(true)) {
        return Err("overload burst did not engage degrade".into());
    }
    if status_u64(&status, "completed_degraded")? == 0 {
        return Err("degrade engaged but no frame ran at the degraded size".into());
    }
    let mut recovered_after = None;
    for i in 0..STREAM_RECOVERY {
        let degraded = frame_closed_loop(&mut client, degrade_id)?;
        if !degraded && recovered_after.is_none() {
            recovered_after = Some(i);
        }
    }
    let recovered_after =
        recovered_after.ok_or("degrade never disengaged over the recovery run")?;
    let status = stream_status_http(&mut client, degrade_id)?;
    check_accounting(&status, "degrade stream")?;
    if status.get("degraded_mode") != Some(&Value::Bool(false)) {
        return Err("degrade still engaged after the recovery run".into());
    }
    if status_u64(&status, "degrade_transitions")? < 2 {
        return Err("expected at least one engage + disengage transition".into());
    }
    let violations = status_u64(&status, "sla_violations")?;
    if violations > STREAM_BURST as u64 {
        return Err(format!(
            "{violations} SLA violations — more than the {STREAM_BURST}-frame burst can explain"
        ));
    }
    let p95 = status
        .get("p95_ms")
        .and_then(Value::as_f64)
        .ok_or("status without p95_ms")?;
    if p95 > sla_ms {
        return Err(format!(
            "p95 {p95:.1} ms exceeds the {sla_ms:.1} ms SLA despite degrade"
        ));
    }
    println!(
        "  degrade: engaged on an {STREAM_BURST}-frame burst, {} degraded frames, \
         disengaged after {} healthy frames; p95 {p95:.1} ms within the {sla_ms:.0} ms SLA, \
         {violations} violations (all burst)",
        status_u64(&status, "completed_degraded")?,
        recovered_after,
    );

    // Phase 3: 240 fps demands ~4 ms frames against a ~27 ms cost floor
    // — impossible, so the drop policy must shed every frame after the
    // first, all counted.
    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 3,
        fps: 240.0,
        policy: DegradePolicy::Drop,
    };
    let drop_id = open_stream_http(&mut client, &spec)?;
    frame_closed_loop(&mut client, drop_id)?;
    const DROP_FRAMES: usize = 19;
    for _ in 0..DROP_FRAMES {
        let (_, dropped, _) = submit_frame_http(&mut client, drop_id)?;
        if !dropped {
            return Err("drop policy accepted a frame it cannot serve in time".into());
        }
    }
    let status = stream_status_http(&mut client, drop_id)?;
    check_accounting(&status, "drop stream")?;
    for (field, want) in [
        ("submitted", 1 + DROP_FRAMES as u64),
        ("completed", 1),
        ("dropped", DROP_FRAMES as u64),
    ] {
        let got = status_u64(&status, field)?;
        if got != want {
            return Err(format!("drop stream: {field} = {got}, want {want}"));
        }
    }
    println!(
        "  drop: 1 completed + {DROP_FRAMES} shed = {} submitted, counted exactly",
        1 + DROP_FRAMES
    );

    // Phase 4: per-stream metrics and frame trace spans. Streams share
    // the server with the ordinary job path, so run one bench job plus a
    // cache hit first — the baseline exposition gate covers both tiers.
    let job = Job::new(
        "Disparity Map",
        InputSize::Custom {
            width: 32,
            height: 24,
        },
        ExecPolicy::Serial,
        77,
        1,
    );
    let resp = post_jobs(&mut client, &spec_body(&job, 77), "")?;
    expect_status("bench-alongside-streams submission", resp.0, 202)?;
    poll_until(
        &mut client,
        field_u64(&resp.1, "id")?,
        "done",
        Duration::from_secs(60),
    )?;
    let resp = post_jobs(&mut client, &spec_body(&job, 77), "")?;
    expect_status("cached resubmission", resp.0, 200)?;
    for id in [degrade_id, drop_id] {
        let resp = client
            .request("POST", &format!("/v1/streams/{id}/close"), None)
            .map_err(|e| format!("close: {e}"))?;
        expect_status("stream close", resp.status, 200)?;
    }
    // Closing the connection merges its request stats into the lifetime
    // registry the exposition gates read.
    drop(client);
    check_stream_metrics(&addr, degrade_id)?;
    check_stream_trace(&addr, degrade_id)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("shutdown: {e}"))?;
    expect_status("shutdown", resp.status, 200)?;
    drop(client);
    server.wait();
    Ok(())
}

/// The `/metrics` exposition must carry the streaming tier's aggregate
/// counters and the per-stream latency histogram of stream `id`.
fn check_stream_metrics(addr: &str, id: u64) -> Result<(), String> {
    check_metrics(addr)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request("GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics: {e}"))?;
    expect_status("/metrics", resp.status, 200)?;
    let text = resp.body_text();
    let per_stream = format!("sdvbs_serve_stream_{id}_frame_latency_ms{{stat=\"p95\"}}");
    for required in [
        "sdvbs_serve_stream_frames_submitted",
        "sdvbs_serve_stream_frames_completed",
        "sdvbs_serve_stream_frames_degraded",
        "sdvbs_serve_stream_frames_dropped",
        "sdvbs_serve_stream_sla_violations",
        per_stream.as_str(),
    ] {
        if !text.lines().any(|l| l.starts_with(required)) {
            return Err(format!("missing required stream metric {required:?}"));
        }
    }
    println!("  metrics: stream counters and per-stream latency histogram present");
    Ok(())
}

/// The `/v1/trace` timeline must validate and carry the stream's own
/// track (its meta label) plus per-frame spans.
fn check_stream_trace(addr: &str, id: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request("GET", "/v1/trace", None)
        .map_err(|e| format!("GET /v1/trace: {e}"))?;
    expect_status("/v1/trace", resp.status, 200)?;
    let trace = Trace::from_chrome_json(&resp.body_text())
        .map_err(|e| format!("trace does not parse: {e}"))?;
    trace
        .validate()
        .map_err(|e| format!("trace does not validate: {e}"))?;
    let label = format!("stream {id} ");
    if !trace.events().iter().any(|e| e.name.starts_with(&label)) {
        return Err(format!("trace has no track labelled for stream {id}"));
    }
    let frames = trace.events().iter().filter(|e| e.cat == "frame").count();
    if frames == 0 {
        return Err("trace has no frame spans".into());
    }
    println!("  trace: stream track labelled, {frames} frame span events");
    Ok(())
}

/// Structural gate on the `/metrics` exposition: every line is
/// `name value` or `name{stat="..."} value`, every name carries the
/// `sdvbs_serve_` prefix, every value parses as a float, and the
/// counters/histograms the dashboardable story depends on are present.
/// Connection-local request stats merge when their connection closes, so
/// this retries briefly until they appear.
fn check_metrics(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let text = loop {
        let resp = client
            .request("GET", "/metrics", None)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        expect_status("/metrics", resp.status, 200)?;
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
            .ok_or_else(|| format!("metrics line without value: {line:?}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("metrics value not a number: {line:?}"))?;
        let name = name_part.split('{').next().unwrap_or_default();
        if !name.starts_with("sdvbs_serve_") {
            return Err(format!("metrics name missing prefix: {line:?}"));
        }
        if let Some(rest) = name_part.strip_prefix(name) {
            let labels_ok =
                rest.is_empty() || (rest.starts_with("{stat=\"") && rest.ends_with("\"}"));
            if !labels_ok {
                return Err(format!("bad metrics labels: {line:?}"));
            }
        }
        names.push(name_part.to_string());
    }
    for required in [
        "sdvbs_serve_jobs_executed",
        "sdvbs_serve_cache_hits",
        "sdvbs_serve_http_requests",
        "sdvbs_serve_job_exec_ms{stat=\"count\"}",
        "sdvbs_serve_request_ms{stat=\"p99\"}",
    ] {
        if !names.iter().any(|n| n == required) {
            return Err(format!("missing required metric {required:?}"));
        }
    }
    println!("  metrics: {} exposition lines, structure ok", names.len());
    Ok(())
}

/// The `/v1/trace` endpoint must serve a loadable, structurally valid
/// Chrome trace of the request spans recorded so far.
fn check_trace(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client
            .request("GET", "/v1/trace", None)
            .map_err(|e| format!("GET /v1/trace: {e}"))?;
        expect_status("/v1/trace", resp.status, 200)?;
        let trace = Trace::from_chrome_json(&resp.body_text())
            .map_err(|e| format!("trace does not parse: {e}"))?;
        if !trace.is_empty() {
            let stats = trace
                .validate()
                .map_err(|e| format!("trace does not validate: {e}"))?;
            println!(
                "  trace: {} events across {} tracks, spans balanced",
                trace.events().len(),
                stats.tracks
            );
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("trace stayed empty (no connection spans absorbed)".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// POSTs a job spec; returns (status, body, retry-after header).
fn post_jobs(
    client: &mut Client,
    body: &str,
    query: &str,
) -> Result<(u16, String, Option<String>), String> {
    let resp = client
        .request("POST", &format!("/v1/jobs{query}"), Some(body))
        .map_err(|e| format!("POST /v1/jobs: {e}"))?;
    let retry_after = resp.header("retry-after").map(str::to_string);
    Ok((resp.status, resp.body_text(), retry_after))
}

/// Polls `GET /v1/jobs/<id>` until its state equals `want`.
fn poll_until(client: &mut Client, id: u64, want: &str, limit: Duration) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{id}?wait_ms=200"), None)
            .map_err(|e| format!("GET /v1/jobs/{id}: {e}"))?;
        let state = Value::parse(&resp.body_text())
            .ok()
            .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
            .ok_or_else(|| format!("job {id}: unparsable poll body"))?;
        if state == want {
            return Ok(());
        }
        if matches!(state.as_str(), "done" | "rejected") || Instant::now() >= deadline {
            return Err(format!("job {id}: wanted state {want:?}, got {state:?}"));
        }
    }
}

fn expect_status(what: &str, got: u16, want: u16) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: expected HTTP {want}, got {got}"))
    }
}

fn field_u64(body: &str, field: &str) -> Result<u64, String> {
    Value::parse(body)
        .ok()
        .and_then(|v| v.get(field).and_then(Value::as_u64))
        .ok_or_else(|| format!("missing numeric field {field:?} in {body}"))
}

fn field_bool(body: &str, field: &str) -> Result<bool, String> {
    let v = Value::parse(body).map_err(|e| format!("unparsable body {body}: {e}"))?;
    match v.get(field) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field {field:?} in {body}")),
    }
}

/// Current thread count from `/proc/self/status` (Linux only).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text:?}"))
}
