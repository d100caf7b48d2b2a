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
//! frame counts. The CI gates that drive these tiers end to end are the
//! integration tests in `tests/smoke.rs`.
//!
//! Exit codes: 0 success, 1 a loadgen run saw errors (or a stream frame
//! went unaccounted), 2 usage or runtime error.

use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::{parse_policy, Job};
use sdvbs_serve::{
    run_loadgen, run_stream_loadgen, run_worker, ClusterConfig, ClusterEngine, DrainReport,
    EngineConfig, LoadgenConfig, Server, ServerConfig, StreamLoadConfig, StreamRun, Tally,
    WorkerConfig,
};
use sdvbs_stream::{DegradePolicy, PipelineKind, StreamSpec};
use std::process::ExitCode;
use std::time::Duration;

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
            other => engine_flag(other, value, &mut cfg.engine)?,
        }
    }
    let (workers, queue) = (cfg.engine.workers.max(1), cfg.engine.queue_capacity.max(1));
    let server = Server::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "sdvbs-serve listening on {} ({workers} workers, queue {queue})",
        server.addr(),
    );
    print_report(&server.wait());
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
            other => engine_flag(other, value, &mut cfg.engine)?,
        }
    }
    run_worker(cfg)?;
    Ok(ExitCode::SUCCESS)
}

/// Applies one of the engine flags `serve` and `worker` share;
/// `value` yields the flag's argument. Any other flag is a usage error.
fn engine_flag(
    flag: &str,
    mut value: impl FnMut(&str) -> Result<String, String>,
    engine: &mut EngineConfig,
) -> Result<(), String> {
    let ms = |text: String| parse_num(&text, flag).map(Duration::from_millis);
    match flag {
        "--workers" => engine.workers = parse_num(&value(flag)?, flag)?,
        "--queue" => engine.queue_capacity = parse_num(&value(flag)?, flag)?,
        "--timeout-ms" => engine.timeout = Some(ms(value(flag)?)?),
        "--hold-ms" => engine.hold = Some(ms(value(flag)?)?),
        "--cache-capacity" => engine.cache_capacity = parse_num(&value(flag)?, flag)?,
        "--max-batch" => engine.sched.max_batch = parse_num(&value(flag)?, flag)?,
        other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
    }
    Ok(())
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
    print_report(&server.wait());
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
            "--size" => size = value("--size")?.parse()?,
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

/// The exit line of `serve` and `coordinator`: what the drain resolved,
/// the lifetime totals, and any workers that died.
fn print_report(report: &DrainReport) {
    let tally = |t: &Tally| {
        format!(
            "{} completed, {} rejected, {} quarantined",
            t.completed, t.rejected, t.quarantined
        )
    };
    let mut line = format!(
        "drained: {}; lifetime: {}",
        tally(&report.drained),
        tally(&report.lifetime)
    );
    if !report.dead_workers.is_empty() {
        line += &format!("; dead workers: {}", report.dead_workers.join(", "));
    }
    println!("{line}");
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text:?}"))
}
