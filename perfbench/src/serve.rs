//! `serve-mixed` and `cluster-mixed`: a closed loop of SQCIF jobs over
//! two keep-alive connections, against an in-process `Server` over an
//! `Engine` (one worker) or over a `ClusterEngine` coordinating two
//! loopback worker processes (one engine worker each).
//!
//! The schedule repeats a three-round cycle. In a *fresh* round each
//! connection submits a spec never seen before (two misses, one queued
//! behind the other); in a *duplicate* round both submit the same new
//! spec at once (one queued, one coalesced onto it); in a *hit* round
//! each connection resubmits specs completed earlier (cache hits). A
//! barrier starts every round on both connections together, which is
//! what makes the duplicates reliably in flight at the same time.

use crate::host::mix;
use crate::stats::{class_latency, median, Metric, Tally};
use crate::suite::{median_checks, sample_ok, score, warm, BENCHES};
use crate::traced::{
    call_within, calls_of_conn, median_band_parts, ms, overhead_notes, reconcile, thread_conns,
    Call, SpanLog, TracedBackend, HANDSHAKE_BASE,
};
use crate::{announce, Opts, Report, SetupParts};
use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::{
    run_worker, spec_body, Backend, Client, ClusterConfig, ClusterEngine, Engine, EngineConfig,
    Server, WorkerConfig,
};
use sdvbs_trace::jsonl::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Cache hits each connection sends in a hit round.
const HITS_PER_ROUND: usize = 4;
/// Schedule cycles (fresh, duplicate, hit) per `--seconds`: fixed
/// counts, so both sides of a comparison do the same work.
const CYCLES_PER_SECOND: u64 = 7;
/// Cycles of a probe (a short traced pass in another workload's traced
/// run).
const PROBE_CYCLES: usize = 10;
/// Loopback workers behind the coordinator.
const CLUSTER_WORKERS: usize = 2;
/// Long-poll window for job polls: readiness comes from the server.
const POLL_WAIT_MS: u64 = 30_000;

/// The eight benchmarks the serving workloads submit: a served CIF
/// segmentation job takes seconds and would dominate run and tail.
fn served() -> Vec<usize> {
    (0..BENCHES.len())
        .filter(|&b| BENCHES[b].short != "segmentation")
        .collect()
}

fn job(bench: usize, seed: u64) -> Job {
    Job::new(
        BENCHES[bench].name,
        InputSize::Sqcif,
        ExecPolicy::Serial,
        seed,
        1,
    )
}

/// What each connection sends in one round: `(benchmark, seed)` specs.
type Round = [Vec<(usize, u64)>; 2];

/// The fixed request schedule: `cycles` × (fresh, duplicate, hit).
fn schedule(seed: u64, cycles: usize) -> Vec<Round> {
    let served = served();
    let mut next = 0usize;
    let fresh_spec = |next: &mut usize| {
        let b = served[*next % served.len()];
        *next += 1;
        (b, mix(seed, 0x5eed_0000 + *next as u64))
    };
    let mut done: Vec<(usize, u64)> = Vec::new();
    let mut rounds = Vec::with_capacity(3 * cycles);
    for cycle in 0..cycles {
        let a = fresh_spec(&mut next);
        let b = fresh_spec(&mut next);
        rounds.push([vec![a], vec![b]]);
        let d = fresh_spec(&mut next);
        rounds.push([vec![d], vec![d]]);
        done.extend([a, b, d]);
        let pick = |conn: u64| -> Vec<(usize, u64)> {
            (0..HITS_PER_ROUND as u64)
                .map(|k| {
                    let r = mix(seed, (cycle as u64) << 8 | conn << 4 | k);
                    done[(r % done.len() as u64) as usize]
                })
                .collect()
        };
        rounds.push([pick(0), pick(1)]);
    }
    rounds
}

/// One request as the client saw it.
struct Req {
    conn: usize,
    spec: (usize, u64),
    /// `Some(true)` served from cache, `Some(false)` answered by
    /// execution (queued or coalesced), `None` failed.
    hit: Option<bool>,
    post: (Instant, Instant),
    polls: Vec<(Instant, Instant)>,
    done: Instant,
    record: Option<Value>,
}

impl Req {
    fn latency_ms(&self) -> f64 {
        (self.done - self.post.0).as_secs_f64() * 1e3
    }
}

fn record_of(body: &str) -> Option<Value> {
    Value::parse(body).ok()?.get("record").cloned()
}

/// Submit, then long-poll to `done`. Any other ending is a failure.
fn one_request(client: &mut Client, conn: usize, spec: (usize, u64)) -> Req {
    let body = spec_body(&job(spec.0, spec.1), spec.1);
    let t0 = Instant::now();
    let submitted = client.request("POST", "/v1/jobs", Some(&body));
    let t1 = Instant::now();
    let mut req = Req {
        conn,
        spec,
        hit: None,
        post: (t0, t1),
        polls: Vec::new(),
        done: t1,
        record: None,
    };
    let Ok(resp) = submitted else {
        return req;
    };
    let text = resp.body_text();
    match resp.status {
        200 => {
            req.record = record_of(&text);
            req.hit = Some(true);
        }
        202 => {
            let id = Value::parse(&text)
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64));
            let Some(id) = id else { return req };
            let target = format!("/v1/jobs/{id}?wait_ms={POLL_WAIT_MS}");
            loop {
                let p0 = Instant::now();
                let polled = client.request("GET", &target, None);
                let p1 = Instant::now();
                req.polls.push((p0, p1));
                req.done = p1;
                let Ok(resp) = polled else { return req };
                if resp.status != 200 {
                    return req;
                }
                let text = resp.body_text();
                let Ok(v) = Value::parse(&text) else {
                    return req;
                };
                match v.get("state").and_then(Value::as_str) {
                    Some("done") => {
                        req.record = v.get("record").cloned();
                        req.hit = Some(false);
                        return req;
                    }
                    Some("queued" | "running") => {}
                    _ => return req,
                }
            }
        }
        _ => {}
    }
    req
}

/// One connection's share of the schedule. Never returns early: the
/// other connection meets it at every round's barrier.
fn client_loop(
    addr: &str,
    conn: usize,
    rounds: &[Round],
    barrier: &Barrier,
    handshake: bool,
) -> Vec<Req> {
    let mut client = Client::connect(addr).ok();
    if handshake {
        if let Some(c) = client.as_mut() {
            let _ = c.request(
                "GET",
                &format!("/v1/jobs/{}", HANDSHAKE_BASE + conn as u64),
                None,
            );
        }
    }
    let mut out = Vec::new();
    for round in rounds {
        barrier.wait();
        for &spec in &round[conn] {
            if client.is_none() {
                client = Client::connect(addr).ok();
            }
            let req = match client.as_mut() {
                Some(c) => one_request(c, conn, spec),
                None => {
                    let now = Instant::now();
                    Req {
                        conn,
                        spec,
                        hit: None,
                        post: (now, now),
                        polls: Vec::new(),
                        done: now,
                        record: None,
                    }
                }
            };
            if req.hit.is_none() {
                // A transport error leaves the connection unusable.
                client = None;
            }
            out.push(req);
        }
    }
    out
}

/// Runs the schedule over two connections and returns every request.
fn run_pass(addr: &str, rounds: &[Round], handshake: bool) -> Vec<Req> {
    let barrier = Barrier::new(2);
    let mut all = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let barrier = &barrier;
                s.spawn(move || client_loop(addr, conn, rounds, barrier, handshake))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect::<Vec<Req>>()
    });
    all.sort_by_key(|r| r.post.0);
    all
}

/// Output checks, after the timed region: every miss completed, for
/// its own spec, and passing its benchmark's sample check, each
/// benchmark's misses passing its median check, every hit returning
/// exactly the record its miss did, and nothing failing in transport or
/// admission.
fn check(reqs: &[Req]) -> Tally {
    let mut tally = Tally::default();
    let mut reference: Vec<((usize, u64), String)> = Vec::new();
    for r in reqs.iter().filter(|r| r.hit == Some(false)) {
        if let Some(rec) = &r.record {
            if !reference.iter().any(|(s, _)| *s == r.spec) {
                reference.push((r.spec, rec.to_string()));
            }
        }
    }
    let mut scores: Vec<(usize, f64)> = Vec::new();
    for r in reqs {
        let ok = match (r.hit, &r.record) {
            (Some(false), Some(rec)) => {
                let b = r.spec.0;
                let status = rec.get("status").and_then(Value::as_str);
                let same_spec = rec.get("seed").and_then(Value::as_u64) == Some(r.spec.1)
                    && rec.get("benchmark").and_then(Value::as_str) == Some(BENCHES[b].name);
                let got = score(
                    b,
                    rec.get("quality").and_then(Value::as_f64),
                    rec.get("detail").and_then(Value::as_str).unwrap_or(""),
                );
                scores.extend(got.map(|v| (b, v)));
                status == Some("completed") && same_spec && sample_ok(b, got)
            }
            (Some(true), Some(rec)) => reference
                .iter()
                .any(|(s, want)| *s == r.spec && *want == rec.to_string()),
            _ => false,
        };
        if !ok {
            eprintln!(
                "request {} seed {} failed its check (hit {:?})",
                BENCHES[r.spec.0].name, r.spec.1, r.hit
            );
        }
        tally.record(ok);
    }
    median_checks(&scores, &mut tally);
    tally
}

/// The latencies of misses and of hits.
fn latencies(reqs: &[Req]) -> [Vec<f64>; 2] {
    [Some(false), Some(true)].map(|kind| {
        reqs.iter()
            .filter(|r| r.hit == kind)
            .map(Req::latency_ms)
            .collect()
    })
}

/// `miss_p50_ms`, `miss_tail_ms` and `hit_p50_ms`.
fn details(reqs: &[Req]) -> Vec<Metric> {
    let [miss, hit] = latencies(reqs);
    [
        Metric::median_of("miss_p50_ms", &miss, "ms"),
        Metric::tail_of("miss_tail_ms", &miss, "ms"),
        Metric::median_of("hit_p50_ms", &hit, "ms"),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// A loopback worker process: this binary's `worker` subcommand.
struct WorkerProc {
    child: Child,
    addr: String,
    cascade_s: f64,
    _stdout: BufReader<ChildStdout>,
}

impl WorkerProc {
    /// Spawns `n` workers, then reads each one's banner lines: the
    /// blocking read is the readiness signal, and the workers train
    /// their cascades side by side meanwhile.
    fn spawn_all(n: usize) -> Result<Vec<WorkerProc>, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut children = Vec::new();
        for _ in 0..n {
            match Command::new(&exe)
                .arg("worker")
                .stdout(Stdio::piped())
                .spawn()
            {
                Ok(child) => children.push(child),
                Err(e) => {
                    reap(children);
                    return Err(format!("spawning a worker: {e}"));
                }
            }
        }
        let mut out = Vec::new();
        let mut failure = None;
        for mut child in children {
            let banner = match child.stdout.take() {
                Some(stdout) => read_banner(BufReader::new(stdout)),
                None => Err("worker has no stdout".into()),
            };
            match banner {
                Ok((addr, cascade_s, stdout)) => out.push(WorkerProc {
                    child,
                    addr,
                    cascade_s,
                    _stdout: stdout,
                }),
                Err(e) => {
                    failure.get_or_insert(e);
                    reap(vec![child]);
                }
            }
        }
        match failure {
            None => Ok(out),
            Some(e) => {
                reap(out.into_iter().map(|w| w.child).collect());
                Err(e)
            }
        }
    }
}

/// Kills and waits for child processes on an error path.
fn reap(children: Vec<Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Reads a worker's banner: its cascade time, then its address.
fn read_banner(
    mut stdout: BufReader<ChildStdout>,
) -> Result<(String, f64, BufReader<ChildStdout>), String> {
    let mut cascade_s = None;
    let mut line = String::new();
    loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => return Err("worker exited before announcing its address".into()),
            Ok(_) => {}
        }
        if let Some(v) = line.trim().strip_prefix("perfbench worker cascade_s=") {
            cascade_s = v.parse().ok();
        } else if let Some(a) = line.split("listening on ").nth(1) {
            let cascade_s = cascade_s.ok_or("worker did not report its cascade time")?;
            return Ok((a.trim().to_string(), cascade_s, stdout));
        }
    }
}

/// The `worker` subcommand: warm every benchmark (the cascade), say how
/// long that took, then serve one coordinator until it drains.
pub fn worker_main() -> Result<(), String> {
    let cascade_s = warm().cascade_s.unwrap_or(0.0);
    println!("perfbench worker cascade_s={cascade_s}");
    let _ = std::io::stdout().flush();
    run_worker(WorkerConfig {
        addr: "127.0.0.1:0".into(),
        name: "perfbench".into(),
        engine: EngineConfig::default(),
    })
}

/// A running serving stack: the HTTP server, its worker processes in
/// cluster mode, and the tracing decorator in a traced pass.
struct Stack {
    server: Server,
    addr: String,
    workers: Vec<WorkerProc>,
    traced: Option<Arc<TracedBackend>>,
}

impl Stack {
    /// Drains the server (and through it the cluster) and reaps the
    /// worker processes, which exit once drained.
    fn stop(self) {
        self.server.shutdown();
        for mut w in self.workers {
            let _ = w.child.wait();
        }
    }
}

/// Starts a stack and warm-fills it, timing the parts. Engine mode
/// warms every benchmark first (`Benchmark::warmup`); in cluster mode
/// each worker process does, and the slower one's time is the cascade
/// part.
fn start_stack(cluster: bool, traced: bool, seed: u64) -> Result<(Stack, SetupParts), String> {
    let began = Instant::now();
    let mut workers = Vec::new();
    let (backend, cascade_s): (Arc<dyn Backend>, f64) = if cluster {
        workers = WorkerProc::spawn_all(CLUSTER_WORKERS)?;
        let cfg = ClusterConfig {
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            ..ClusterConfig::default()
        };
        let cascade_s = workers.iter().map(|w| w.cascade_s).fold(0.0, f64::max);
        match ClusterEngine::start(cfg) {
            Ok(engine) => (engine, cascade_s),
            Err(e) => {
                reap(workers.into_iter().map(|w| w.child).collect());
                return Err(e);
            }
        }
    } else {
        let cascade_s = warm().cascade_s.unwrap_or(0.0);
        let engine: Arc<dyn Backend> = Engine::start(EngineConfig::default());
        (engine, cascade_s)
    };
    let traced = traced.then(|| TracedBackend::new(Arc::clone(&backend)));
    let front: Arc<dyn Backend> = match &traced {
        Some(t) => Arc::clone(t) as Arc<dyn Backend>,
        None => backend,
    };
    let server = match Server::start_with_backend("127.0.0.1:0", front) {
        Ok(server) => server,
        Err(e) => {
            reap(workers.into_iter().map(|w| w.child).collect());
            return Err(format!("binding the server: {e}"));
        }
    };
    let addr = server.addr().to_string();
    let ready = began.elapsed().as_secs_f64();
    let stack = Stack {
        server,
        addr,
        workers,
        traced,
    };
    let fill_started = Instant::now();
    if let Err(e) = warm_fill(&stack.addr, seed, cluster) {
        stack.stop();
        return Err(e);
    }
    let parts = SetupParts {
        server_s: Some(ready - cascade_s),
        cascade_s: Some(cascade_s),
        warm_fill_s: Some(fill_started.elapsed().as_secs_f64()),
    };
    Ok((stack, parts))
}

/// The `setup` subcommand for serve-mixed and cluster-mixed.
pub fn setup_child(cluster: bool, seed: u64) -> Result<(), String> {
    let (stack, parts) = start_stack(cluster, false, seed)?;
    announce(&parts);
    stack.stop();
    Ok(())
}

/// Warm fill: each served benchmark once per worker, with seeds the
/// schedule never uses, so lazy state is built before timing.
fn warm_fill(addr: &str, seed: u64, cluster: bool) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let per_bench = if cluster { CLUSTER_WORKERS } else { 1 };
    for (i, b) in served().into_iter().enumerate() {
        for k in 0..per_bench {
            let spec = (b, mix(seed, 0xf111_0000 + (i * per_bench + k) as u64));
            let req = one_request(&mut client, 0, spec);
            if req.hit.is_none() {
                return Err(format!("warm-fill job {} failed", BENCHES[b].name));
            }
        }
    }
    Ok(())
}

/// Reads `GET /metrics` and returns `(count, sum)` of the batch-size
/// histograms of the engines that execute jobs.
fn batch_stats(addr: &str, cluster: bool) -> Result<(f64, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let text = client
        .request("GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics: {e}"))?
        .body_text();
    let (mut count, mut sum) = (0.0, 0.0);
    for line in text.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Some((name, stat)) = key.split_once('{') else {
            continue;
        };
        // Executions batch inside the engine that runs them: the
        // workers' `w<i>_` histograms in cluster mode.
        let engine_batches = if cluster {
            name.starts_with("sdvbs_serve_w") && name.ends_with("_batch_size")
        } else {
            name == "sdvbs_serve_batch_size"
        };
        if !engine_batches {
            continue;
        }
        let v: f64 = value.parse().unwrap_or(0.0);
        match stat {
            "stat=\"count\"}" => count += v,
            "stat=\"sum\"}" => sum += v,
            _ => {}
        }
    }
    Ok((count, sum))
}

fn cycles(opts: &Opts) -> usize {
    // At least 10 cycles (40 misses), so the tail rule has a percentile.
    (opts.seconds * CYCLES_PER_SECOND).max(10) as usize
}

/// The untraced run: the schedule once over two connections.
/// `latency_ms` has two classes, misses and hits.
pub fn measure(opts: &Opts, cluster: bool) -> Result<Report, String> {
    let (stack, _) = start_stack(cluster, false, opts.seed)?;
    let reqs = run_pass(&stack.addr, &schedule(opts.seed, cycles(opts)), false);
    stack.stop();
    Ok(Report {
        tally: check(&reqs),
        metrics: class_latency(&latencies(&reqs)).into_iter().collect(),
        details: details(&reqs),
        notes: Vec::new(),
    })
}

/// The traced pass. The full pass runs half the schedule untraced, then
/// the same half on a fresh stack behind the tracing decorator, so the
/// overhead compares like with like; a probe runs [`PROBE_CYCLES`]
/// cycles traced only.
pub fn traced(
    opts: &Opts,
    cluster: bool,
    probe: bool,
    log: &mut SpanLog,
) -> Result<Report, String> {
    let label = if cluster {
        "cluster-mixed"
    } else {
        "serve-mixed"
    };
    let mut report = Report::default();
    let rounds = schedule(
        opts.seed,
        if probe {
            PROBE_CYCLES
        } else {
            cycles(opts).div_ceil(2)
        },
    );
    let mut untraced = Vec::new();
    if !probe {
        let (stack, _) = start_stack(cluster, false, opts.seed)?;
        untraced = run_pass(&stack.addr, &rounds, false);
        stack.stop();
        report.tally = check(&untraced);
    }
    let (stack, parts) = start_stack(cluster, true, opts.seed)?;
    let counters = ["jobs_stolen", "jobs_requeued", "busy_redispatched"];
    let backend = Arc::clone(stack.server.backend());
    let before: Vec<u64> = counters.iter().map(|c| backend.counter(c)).collect();
    let batches_before = batch_stats(&stack.addr, cluster);
    let reqs = run_pass(&stack.addr, &rounds, true);
    let batches_after = batch_stats(&stack.addr, cluster);
    let after: Vec<u64> = counters.iter().map(|c| backend.counter(c)).collect();
    drop(backend);
    let calls = stack.traced.as_ref().map(|t| t.calls()).unwrap_or_default();
    stack.stop();
    report.tally.absorb(check(&reqs));
    let (b0, b1) = (batches_before?, batches_after?);
    let (batch_count, batch_sum) = (b1.0 - b0.0, b1.1 - b0.1);

    let label = if probe {
        format!("{label} probe")
    } else {
        label.to_string()
    };
    let mut notes = Vec::new();
    report.metrics = analyse(&reqs, &calls, cluster, &label, log, &mut notes);
    if !probe {
        report.notes = notes;
    }
    report.metrics.push(Metric::ratio(
        "runner.warm_share",
        (batch_sum - batch_count).max(0.0) as u64,
        batch_sum.max(0.0) as u64,
    ));
    report.metrics.push(Metric::new(
        "sched.batch_size",
        if batch_count > 0.0 {
            batch_sum / batch_count
        } else {
            0.0
        },
        "jobs",
        batch_count as usize,
    ));
    if cluster {
        for ((name, b), a) in counters.iter().zip(&before).zip(&after) {
            report.metrics.push(Metric::count(
                format!("cluster.{name}"),
                a.saturating_sub(*b),
            ));
        }
    }
    report.metrics.extend(parts.layer_metrics());
    if !probe {
        let with_latency = |reqs: &[Req]| -> Vec<Metric> {
            let mut v: Vec<Metric> = class_latency(&latencies(reqs)).into_iter().collect();
            v.extend(details(reqs));
            v
        };
        report.notes.extend(overhead_notes(
            &with_latency(&untraced),
            &with_latency(&reqs),
        ));
        report.details = details(&reqs);
    }
    Ok(report)
}

/// Splits every traced request into the blocking-path parts the
/// backend calls and the records account for, records their spans, and
/// returns the per-layer metrics.
fn analyse(
    reqs: &[Req],
    calls: &[Call],
    cluster: bool,
    label: &str,
    log: &mut SpanLog,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let map = thread_conns(calls);
    let conn_calls: Vec<Vec<&Call>> = (0..2).map(|c| calls_of_conn(calls, &map, c)).collect();
    let client_tracks = [0, 1].map(|c| log.track(&format!("{label}: client conn {c}")));
    let server_tracks = [0, 1].map(|c| log.track(&format!("{label}: server conn {c}")));
    let submit_name = if cluster {
        "cluster.submit_ms"
    } else {
        "engine.submit_ms"
    };
    let queue_name = if cluster {
        "cluster.dispatch_ms"
    } else {
        "sched.queue_wait_ms"
    };
    // Per miss: (latency, front, submit, queue, overhead, pipeline).
    let mut miss_parts: Vec<[f64; 6]> = Vec::new();
    let mut queued_waits = Vec::new();
    let mut hit_parts: Vec<[f64; 3]> = Vec::new();
    let mut submits = Vec::new();
    let (mut outcomes_hit, mut outcomes_coal, mut outcomes_full, mut n_submits) = (0, 0, 0, 0);
    let mut executed: Vec<(f64, f64)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let req_id = Some(i as u64);
        log.span(
            client_tracks[r.conn],
            "POST /v1/jobs",
            "client",
            r.post.0,
            r.post.1,
            req_id,
            vec![("seed".into(), r.spec.1 as f64)],
        );
        for &(p0, p1) in &r.polls {
            log.span(
                client_tracks[r.conn],
                "GET /v1/jobs",
                "client",
                p0,
                p1,
                req_id,
                Vec::new(),
            );
        }
        let cc = &conn_calls[r.conn];
        let submit = call_within(cc, r.post.0, r.post.1);
        let waits: Vec<&Call> = r
            .polls
            .iter()
            .filter_map(|&(p0, p1)| call_within(cc, p0, p1))
            .collect();
        for c in submit.iter().chain(&waits) {
            log.span(
                server_tracks[r.conn],
                c.op,
                "backend",
                c.start,
                c.end,
                req_id,
                Vec::new(),
            );
        }
        let Some(submit) = submit else { continue };
        n_submits += 1;
        let s_ms = ms(submit.start, submit.end);
        submits.push(s_ms);
        match submit.outcome {
            "cached" => outcomes_hit += 1,
            "coalesced" => outcomes_coal += 1,
            "full" => outcomes_full += 1,
            _ => {}
        }
        let latency = r.latency_ms();
        match (r.hit, &r.record) {
            (Some(true), _) => {
                hit_parts.push([latency, ms(r.post.0, r.post.1) - s_ms, s_ms]);
            }
            (Some(false), Some(rec)) => {
                let Some(term) = waits.iter().find(|c| c.outcome == "terminal") else {
                    continue;
                };
                let wall = rec.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
                let pipeline: f64 = rec
                    .get("times_ms")
                    .and_then(Value::as_array)
                    .map(|a| a.iter().filter_map(Value::as_f64).sum())
                    .unwrap_or(0.0);
                let backend = ms(submit.end, term.end);
                miss_parts.push([
                    latency,
                    latency - s_ms - backend,
                    s_ms,
                    backend - wall,
                    wall - pipeline,
                    pipeline,
                ]);
                if submit.outcome == "queued" {
                    executed.push((wall, pipeline));
                    queued_waits.push(backend - wall);
                }
            }
            _ => {}
        }
    }
    let col = |k: usize| -> Vec<f64> { miss_parts.iter().map(|r| r[k]).collect() };
    notes.push(reconcile(
        "miss_p50_ms",
        median(&col(0)).unwrap_or(0.0),
        &median_band_parts(
            &miss_parts,
            &[
                "http.front_ms",
                submit_name,
                queue_name,
                "runner.overhead_ms",
                "runner.pipeline_ms",
            ],
        ),
    ));
    let hcol = |k: usize| -> Vec<f64> { hit_parts.iter().map(|r| r[k]).collect() };
    notes.push(reconcile(
        "hit_p50_ms",
        median(&hcol(0)).unwrap_or(0.0),
        &median_band_parts(&hit_parts, &["http.front_ms", submit_name]),
    ));

    let walls: Vec<f64> = executed.iter().map(|e| e.0).collect();
    let pipes: Vec<f64> = executed.iter().map(|e| e.1).collect();
    let overheads: Vec<f64> = executed.iter().map(|e| e.0 - e.1).collect();
    [
        Metric::median_of("runner.wall_ms", &walls, "ms"),
        Metric::median_of("runner.pipeline_ms", &pipes, "ms"),
        Metric::median_of("runner.overhead_ms", &overheads, "ms"),
        Metric::median_of("http.front_ms", &hcol(1), "ms"),
        Metric::median_of(submit_name, &submits, "ms"),
        Metric::median_of(queue_name, &queued_waits, "ms"),
        Some(Metric::ratio("engine.hit_ratio", outcomes_hit, n_submits)),
        Some(Metric::ratio(
            "engine.coalesced_ratio",
            outcomes_coal,
            n_submits,
        )),
        Some(Metric::count("engine.refused_429", outcomes_full)),
    ]
    .into_iter()
    .flatten()
    .collect()
}
