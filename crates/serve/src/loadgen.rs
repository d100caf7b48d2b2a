//! A closed-loop load generator for the serving daemon.
//!
//! `conns` connections each drive a request loop: submit a job spec,
//! then — if the submission was queued or coalesced rather than answered
//! from cache — long-poll the job until it is terminal. Every request is
//! therefore closed-loop end-to-end: the latency sample covers submission
//! through result, which is what a client of the daemon actually
//! experiences. Samples are split into **cache-hit** (answered on the
//! spot from the result cache) and **cache-miss** (executed, possibly
//! coalesced) classes, because their latencies differ by orders of
//! magnitude and a single histogram would hide both.
//!
//! Seeds cycle through `unique` values, so a run exercises the cache
//! (repeat seeds hit after their first execution) as well as execution.
//! A `429` admission refusal is retried after a short pause and counted,
//! not treated as an error — that is the admission-control contract.

use crate::http::{parse_response, HttpError, ResponseMsg};
use crate::stream::{stream_spec_body, StreamStatus};
use sdvbs_runner::Job;
use sdvbs_stream::StreamSpec;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::Histogram;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// How long to pause before retrying an admission-refused (`429`)
/// submission.
const RETRY_PAUSE: Duration = Duration::from_millis(50);
/// Give up on one request after this many admission retries.
const MAX_RETRIES: usize = 600;

/// A blocking keep-alive HTTP client over one connection. Public so
/// integration tests can speak to the server without their own socket
/// plumbing.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:8099`).
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response latency matters more than segment coalescing.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response. `body` implies a
    /// `content-length` frame; `None` sends no body.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket, or `InvalidData` if the server's bytes
    /// do not parse as an HTTP/1.1 response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<ResponseMsg> {
        let body = body.unwrap_or_default();
        // One write per request: splitting head and body across segments
        // trips Nagle + delayed-ACK into ~40 ms stalls on loopback.
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nhost: sdvbs-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        message.push_str(body);
        self.stream.write_all(message.as_bytes())?;
        let mut scratch = [0u8; 8192];
        loop {
            match parse_response(&self.buf) {
                Ok((msg, consumed)) => {
                    self.buf.drain(..consumed);
                    return Ok(msg);
                }
                Err(HttpError::Incomplete) => {}
                Err(HttpError::Malformed(why)) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, why));
                }
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target addresses (`host:port`), at least one. Connections are
    /// dealt across targets round-robin, and the report carries both
    /// per-target and aggregate percentiles — pointing one loadgen at a
    /// coordinator and its workers (or at several coordinators) shows
    /// who is slow.
    pub addrs: Vec<String>,
    /// Concurrent connections (clamped to at least 1).
    pub conns: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// The job spec template; its seed is the base of the seed cycle.
    pub spec: Job,
    /// Distinct seeds to cycle through (clamped to at least 1). One
    /// unique seed makes every request after the first a cache hit; more
    /// seeds force more executions.
    pub unique: u64,
    /// `wait_ms` used when long-polling a queued job.
    pub poll_ms: u64,
}

/// One target's share of a load-generator run.
#[derive(Debug, Clone)]
pub struct TargetStats {
    /// The target address.
    pub addr: String,
    /// Requests that completed against this target.
    pub sent: usize,
    /// Requests that failed against this target.
    pub errors: usize,
    /// Cache-hit latency (ms) against this target.
    pub hits: Histogram,
    /// Cache-miss latency (ms) against this target.
    pub misses: Histogram,
}

/// What a load-generator run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests that completed (hit or miss).
    pub sent: usize,
    /// Requests that failed (transport error, unexpected status, or a
    /// rejected job).
    pub errors: usize,
    /// Total `429` admission retries absorbed.
    pub retried: usize,
    /// End-to-end latency (ms) of cache-hit requests.
    pub hits: Histogram,
    /// End-to-end latency (ms) of cache-miss (executed) requests.
    pub misses: Histogram,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-target breakdown, in the order the targets were given.
    pub targets: Vec<TargetStats>,
}

impl LoadgenReport {
    /// Completed requests per second over the run's wall clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sent as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loadgen: {} ok, {} errors in {:.2} s ({:.1} req/s), {} admission retries",
            self.sent,
            self.errors,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.retried,
        )?;
        for (label, h) in [("cache-hit", &self.hits), ("cache-miss", &self.misses)] {
            writeln!(
                f,
                "  {label:<10} n={:<4} p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms  max {:>9.3} ms",
                h.count(),
                h.percentile(50.0).unwrap_or(0.0),
                h.percentile(95.0).unwrap_or(0.0),
                h.percentile(99.0).unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            )?;
        }
        // A single target adds nothing over the aggregate lines above.
        if self.targets.len() > 1 {
            for t in &self.targets {
                writeln!(
                    f,
                    "  target {} ({} ok, {} errors)",
                    t.addr, t.sent, t.errors
                )?;
                for (label, h) in [("cache-hit", &t.hits), ("cache-miss", &t.misses)] {
                    writeln!(
                        f,
                        "    {label:<10} n={:<4} p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms",
                        h.count(),
                        h.percentile(50.0).unwrap_or(0.0),
                        h.percentile(95.0).unwrap_or(0.0),
                        h.percentile(99.0).unwrap_or(0.0),
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// The JSON job-spec body ([`Job::to_value`]) for `spec` with `seed`
/// substituted.
pub fn spec_body(spec: &Job, seed: u64) -> String {
    Job {
        seed,
        ..spec.clone()
    }
    .to_value()
    .to_string()
}

/// What one request turned into.
enum Outcome {
    Hit(f64),
    Miss(f64),
    Error,
}

struct ConnTally {
    /// Index into `cfg.addrs` this connection drove.
    target: usize,
    hits: Histogram,
    misses: Histogram,
    errors: usize,
    retried: usize,
}

/// Runs the closed loop and collects the report. Requests are dealt to
/// connections round-robin; each connection issues its share serially.
///
/// # Errors
///
/// Only setup failures (the first connection refusing) are errors;
/// per-request failures are counted in the report instead.
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    if cfg.addrs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "loadgen needs at least one target address",
        ));
    }
    // Fail fast (and loudly) if any target is not there at all.
    for addr in &cfg.addrs {
        drop(Client::connect(addr)?);
    }
    let started = Instant::now();
    let conns = cfg.conns.max(1);
    let mut workers = Vec::new();
    for c in 0..conns {
        let cfg = cfg.clone();
        workers.push(thread::spawn(move || conn_worker(&cfg, c, conns)));
    }
    let mut report = LoadgenReport {
        sent: 0,
        errors: 0,
        retried: 0,
        hits: Histogram::new(),
        misses: Histogram::new(),
        wall: Duration::ZERO,
        targets: cfg
            .addrs
            .iter()
            .map(|addr| TargetStats {
                addr: addr.clone(),
                sent: 0,
                errors: 0,
                hits: Histogram::new(),
                misses: Histogram::new(),
            })
            .collect(),
    };
    for worker in workers {
        let Ok(tally) = worker.join() else {
            report.errors += 1;
            continue;
        };
        let target = &mut report.targets[tally.target];
        for &s in tally.hits.samples() {
            report.hits.observe(s);
            target.hits.observe(s);
        }
        for &s in tally.misses.samples() {
            report.misses.observe(s);
            target.misses.observe(s);
        }
        target.sent += tally.hits.count() + tally.misses.count();
        target.errors += tally.errors;
        report.errors += tally.errors;
        report.retried += tally.retried;
    }
    report.sent = report.hits.count() + report.misses.count();
    report.wall = started.elapsed();
    Ok(report)
}

/// One connection's share of the request stream, against one target.
fn conn_worker(cfg: &LoadgenConfig, conn_index: usize, conns: usize) -> ConnTally {
    let target = conn_index % cfg.addrs.len();
    let mut tally = ConnTally {
        target,
        hits: Histogram::new(),
        misses: Histogram::new(),
        errors: 0,
        retried: 0,
    };
    let Ok(mut client) = Client::connect(&cfg.addrs[target]) else {
        // Count every request this connection would have sent as failed.
        tally.errors = (conn_index..cfg.requests).step_by(conns.max(1)).count();
        return tally;
    };
    for id in (conn_index..cfg.requests).step_by(conns.max(1)) {
        let seed = cfg.spec.seed + (id as u64 % cfg.unique.max(1));
        match one_request(&mut client, cfg, seed, &mut tally.retried) {
            Outcome::Hit(ms) => tally.hits.observe(ms),
            Outcome::Miss(ms) => tally.misses.observe(ms),
            Outcome::Error => tally.errors += 1,
        }
    }
    tally
}

/// Submit → (retry admission refusals) → poll to terminal.
fn one_request(
    client: &mut Client,
    cfg: &LoadgenConfig,
    seed: u64,
    retried: &mut usize,
) -> Outcome {
    let body = spec_body(&cfg.spec, seed);
    let started = Instant::now();
    let submitted = loop {
        let Ok(resp) = client.request("POST", "/v1/jobs", Some(&body)) else {
            return Outcome::Error;
        };
        if resp.status != 429 {
            break resp;
        }
        *retried += 1;
        if *retried > MAX_RETRIES {
            return Outcome::Error;
        }
        thread::sleep(RETRY_PAUSE);
    };
    match submitted.status {
        200 => Outcome::Hit(started.elapsed().as_secs_f64() * 1e3),
        202 => {
            let Some(id) = Value::parse(&submitted.body_text())
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64))
            else {
                return Outcome::Error;
            };
            let target = format!("/v1/jobs/{id}?wait_ms={}", cfg.poll_ms.max(1));
            loop {
                let Ok(resp) = client.request("GET", &target, None) else {
                    return Outcome::Error;
                };
                if resp.status != 200 {
                    // 503: the job was rejected (drain); anything else is
                    // protocol breakage. Either way this request failed.
                    return Outcome::Error;
                }
                let state = Value::parse(&resp.body_text())
                    .ok()
                    .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from));
                match state.as_deref() {
                    Some("done") => return Outcome::Miss(started.elapsed().as_secs_f64() * 1e3),
                    Some("queued" | "running") => {}
                    _ => return Outcome::Error,
                }
            }
        }
        _ => Outcome::Error,
    }
}

/// Parameters for the paced streaming mode (`loadgen --stream`).
#[derive(Debug, Clone)]
pub struct StreamLoadConfig {
    /// Target address (`host:port`). Streams are a single-engine feature,
    /// so unlike the job mode there is exactly one target.
    pub addr: String,
    /// One stream per spec; each gets its own connection and pacing
    /// thread.
    pub specs: Vec<StreamSpec>,
    /// Frames submitted per stream.
    pub frames: usize,
    /// Ceiling on waiting for the in-flight tail after the last
    /// submission.
    pub drain_limit: Duration,
}

/// What a streaming load-generator run measured.
#[derive(Debug)]
pub struct StreamLoadReport {
    /// Each stream's final status as the server reported it on close, in
    /// id order. Streams whose setup failed outright are missing here and
    /// counted in `errors`.
    pub streams: Vec<StreamStatus>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Client-side failures across all streams, including streams that
    /// never got off the ground.
    pub errors: usize,
}

impl fmt::Display for StreamLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stream loadgen: {} streams in {:.2} s, {} client errors",
            self.streams.len(),
            self.wall.as_secs_f64(),
            self.errors,
        )?;
        for s in &self.streams {
            writeln!(
                f,
                "  stream {} {} {} @{:.0}fps sla {:.1} ms policy {}",
                s.id, s.pipeline, s.size, s.fps, s.sla_ms, s.policy
            )?;
            writeln!(
                f,
                "    frames: {} submitted = {} completed ({} degraded) + {} dropped \
                 + {} rejected + {} failed",
                s.submitted, s.completed, s.completed_degraded, s.dropped, s.rejected, s.failed
            )?;
            writeln!(
                f,
                "    latency: p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms; \
                 {} SLA violations, {} degrade transitions, digest {:#018x}",
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
                s.sla_violations,
                s.degrade_transitions,
                s.rolling_digest
            )?;
        }
        Ok(())
    }
}

/// Runs one paced submission loop per stream and collects the report.
///
/// # Errors
///
/// Only setup failures (the target refusing the probe connection) are
/// errors; per-stream failures are counted in the report instead.
pub fn run_stream_loadgen(cfg: &StreamLoadConfig) -> std::io::Result<StreamLoadReport> {
    if cfg.specs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "stream loadgen needs at least one stream spec",
        ));
    }
    drop(Client::connect(&cfg.addr)?);
    let started = Instant::now();
    let mut workers = Vec::new();
    for spec in cfg.specs.clone() {
        let addr = cfg.addr.clone();
        let (frames, drain_limit) = (cfg.frames, cfg.drain_limit);
        workers.push(thread::spawn(move || {
            stream_worker(&addr, &spec, frames, drain_limit)
        }));
    }
    let mut report = StreamLoadReport {
        streams: Vec::new(),
        wall: Duration::ZERO,
        errors: 0,
    };
    for worker in workers {
        match worker.join() {
            Ok(Ok((status, errors))) => {
                report.errors += errors;
                report.streams.push(status);
            }
            Ok(Err(why)) => {
                eprintln!("stream worker failed: {why}");
                report.errors += 1;
            }
            Err(_) => report.errors += 1,
        }
    }
    report.streams.sort_by_key(|s| s.id);
    report.wall = started.elapsed();
    Ok(report)
}

/// Opens one stream, feeds it `frames` frames at the spec's frame rate
/// (absolute-deadline pacing, so a slow round trip does not skew the
/// rest of the schedule), waits out the in-flight tail, closes it, and
/// reads the server's final accounting back, with the client-side
/// failures (transport errors, unexpected statuses) counted beside it.
fn stream_worker(
    addr: &str,
    spec: &StreamSpec,
    frames: usize,
    drain_limit: Duration,
) -> Result<(StreamStatus, usize), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let resp = client
        .request("POST", "/v1/streams", Some(&stream_spec_body(spec)))
        .map_err(|e| format!("open: {e}"))?;
    if resp.status != 201 {
        return Err(format!(
            "open refused: HTTP {} {}",
            resp.status,
            resp.body_text()
        ));
    }
    let id = Value::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .ok_or("open response without an id")?;
    let interval = Duration::from_secs_f64(1.0 / spec.fps.max(1e-3));
    let mut errors = 0usize;
    let frames_target = format!("/v1/streams/{id}/frames");
    let paced_from = Instant::now();
    for i in 0..frames {
        let due = paced_from + interval.mul_f64(i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        match client.request("POST", &frames_target, None) {
            Ok(resp) if resp.status == 202 => {}
            Ok(_) | Err(_) => errors += 1,
        }
    }
    // Wait out the in-flight tail so the close-time accounting is final.
    let deadline = Instant::now() + drain_limit;
    loop {
        let in_flight = stream_status(&mut client, "GET", &format!("/v1/streams/{id}"))?.in_flight;
        if in_flight == 0 {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "stream {id}: {in_flight} frames still in flight after {drain_limit:?}"
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
    let closed = stream_status(&mut client, "POST", &format!("/v1/streams/{id}/close"))?;
    Ok((closed, errors))
}

/// Requests a stream-status body from `target` and reads it.
fn stream_status(client: &mut Client, method: &str, target: &str) -> Result<StreamStatus, String> {
    let body = client
        .request(method, target, None)
        .map_err(|e| format!("{method} {target}: {e}"))?
        .body_text();
    // An error answer (404, 503) has no status fields, so it fails to read.
    Value::parse(&body)
        .map_err(|e| e.to_string())
        .and_then(|v| StreamStatus::from_value(&v))
        .map_err(|e| format!("{method} {target}: unparsable stream status ({e}): {body}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::{ExecPolicy, InputSize};

    #[test]
    fn spec_bodies_are_valid_json_specs() {
        let spec = Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Threads(2),
            5,
            3,
        );
        let body = spec_body(&spec, 9);
        let v = Value::parse(&body).unwrap();
        assert_eq!(
            v.get("benchmark").and_then(Value::as_str),
            Some("Disparity Map")
        );
        assert_eq!(v.get("size").and_then(Value::as_str), Some("32x24"));
        assert_eq!(v.get("policy").and_then(Value::as_str), Some("threads:2"));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(9));
        assert_eq!(v.get("iterations").and_then(Value::as_u64), Some(3));
        assert_eq!(
            body,
            r#"{"benchmark":"Disparity Map","size":"32x24","policy":"threads:2","seed":9,"iterations":3}"#
        );
    }
}
