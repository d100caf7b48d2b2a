//! `stream-sla`: three streams (tracking, disparity, stitch) at QCIF
//! under the `degrade` policy on an in-process `Server`, paced
//! open-loop by one client thread over one connection. Each frame is
//! timed from the moment it was due, so a stall also charges the frames
//! queued behind it.

use crate::host::mix;
use crate::stats::{class_latency, median, meets_sla, Metric, Tally};
use crate::traced::{
    call_within, calls_of_conn, median_band_parts, ms, overhead_notes, reconcile, thread_conns,
    Call, SpanLog, TracedBackend, HANDSHAKE_BASE,
};
use crate::{announce, Opts, Report, SetupParts};
use sdvbs_core::InputSize;
use sdvbs_serve::{stream_spec_body, Backend, Client, Engine, EngineConfig, Server};
use sdvbs_stream::{
    build_pipeline, fold_digest, DegradePolicy, PipelineKind, StreamSpec, DIGEST_SEED,
};
use sdvbs_synth::{motion_frame, moving_stereo_pair};
use sdvbs_trace::jsonl::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per second per stream. Three QCIF frames cost about 72 ms on
/// one engine worker (20 + 34 + 18), so 3 × 6 fps loads it to about
/// 45%: the SLA (1/fps = 167 ms) is met with room, and a slowdown shows
/// in `frame_p50_ms` well before frames start to miss.
const FPS: f64 = 6.0;
/// Untimed frames per stream in each set-up (about 1.4 s for the three
/// streams): enough that the set-up time rests on many frames' synthesis
/// and pipeline, not on the first few.
const WARM_FRAMES: u64 = 20;
/// Paced frames per stream in a probe (a short traced pass in another
/// workload's traced run): two seconds.
const PROBE_FRAMES: u64 = 12;
const PIPES: [PipelineKind; 3] = [
    PipelineKind::Tracking,
    PipelineKind::Disparity,
    PipelineKind::Stitch,
];
/// Long-poll window once every frame has been sent.
const DRAIN_WAIT_MS: u64 = 30_000;

fn specs(seed: u64) -> [StreamSpec; 3] {
    PIPES.map(|pipeline| StreamSpec {
        pipeline,
        size: InputSize::Qcif,
        seed: mix(seed, 0x57_0000 + pipeline as u64),
        fps: FPS,
        policy: DegradePolicy::Degrade,
    })
}

struct StreamStack {
    server: Server,
    addr: String,
    ids: [u64; 3],
    traced: Option<Arc<TracedBackend>>,
}

/// One paced frame as the client saw it.
struct Frame {
    stream: usize,
    /// The server's frame index (from the ticket).
    index: u64,
    due: Instant,
    sent: (Instant, Instant),
    job: Option<u64>,
    dropped: bool,
    degraded: bool,
    /// When the client saw the frame done.
    done: Option<Instant>,
    /// Transport error, refusal, or a rejected/failed frame.
    failed: bool,
    polls: Vec<(Instant, Instant)>,
}

impl Frame {
    fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    fn on_time(&self) -> bool {
        meets_sla(
            !self.failed && !self.dropped,
            !self.degraded,
            self.latency_ms(),
            1000.0 / FPS,
        )
    }
}

fn open_streams(client: &mut Client, seed: u64) -> Result<[u64; 3], String> {
    let mut ids = [0u64; 3];
    for (slot, spec) in ids.iter_mut().zip(specs(seed)) {
        let resp = client
            .request("POST", "/v1/streams", Some(&stream_spec_body(&spec)))
            .map_err(|e| format!("opening a stream: {e}"))?;
        *slot = Value::parse(&resp.body_text())
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_u64))
            .filter(|_| resp.status == 201)
            .ok_or_else(|| format!("stream refused: {}", resp.status))?;
    }
    Ok(ids)
}

/// Sends frame `frame` of stream `slot` and returns the client record.
fn send(client: &mut Client, ids: &[u64; 3], slot: usize, due: Instant) -> Frame {
    let t0 = Instant::now();
    let resp = client.request("POST", &format!("/v1/streams/{}/frames", ids[slot]), None);
    let t1 = Instant::now();
    let mut f = Frame {
        stream: slot,
        index: 0,
        due,
        sent: (t0, t1),
        job: None,
        dropped: false,
        degraded: false,
        done: None,
        failed: true,
        polls: Vec::new(),
    };
    let Ok(resp) = resp else { return f };
    let Ok(v) = Value::parse(&resp.body_text()) else {
        return f;
    };
    if resp.status != 202 {
        return f;
    }
    f.index = v.get("frame").and_then(Value::as_u64).unwrap_or(0);
    f.dropped = v.get("dropped").and_then(Value::as_bool).unwrap_or(false);
    f.degraded = v.get("degraded").and_then(Value::as_bool).unwrap_or(false);
    f.job = v.get("job_id").and_then(Value::as_u64);
    f.failed = !f.dropped && f.job.is_none();
    f
}

/// Long-polls frame `f`'s job for up to `wait_ms`; returns whether it
/// reached a terminal state (done or failed).
fn poll(client: &mut Client, f: &mut Frame, wait_ms: u64) -> bool {
    let Some(job) = f.job else { return true };
    let p0 = Instant::now();
    let resp = client.request("GET", &format!("/v1/jobs/{job}?wait_ms={wait_ms}"), None);
    let p1 = Instant::now();
    f.polls.push((p0, p1));
    let state = resp.ok().and_then(|r| {
        let v = Value::parse(&r.body_text()).ok()?;
        Some((r.status, v.get("state")?.as_str()?.to_string()))
    });
    match state {
        Some((200, s)) if s == "done" => {
            f.done = Some(p1);
            true
        }
        Some((200, s)) if s == "queued" || s == "running" => false,
        _ => {
            f.failed = true;
            true
        }
    }
}

/// The paced phase: `n` frames per stream, stream `j` offset by a third
/// of a period from stream `j-1`. Between sends the client long-polls
/// the oldest outstanding frame until the next one is due; the only
/// plain wait is the schedule itself when nothing is outstanding.
fn paced_pass(stack: &StreamStack, n: u64, handshake: bool) -> Result<Vec<Frame>, String> {
    let mut client = Client::connect(&stack.addr).map_err(|e| format!("connecting: {e}"))?;
    if handshake {
        let _ = client.request("GET", &format!("/v1/jobs/{HANDSHAKE_BASE}"), None);
    }
    let period = Duration::from_secs_f64(1.0 / FPS);
    let t0 = Instant::now() + period / 3;
    let mut frames: Vec<Frame> = Vec::with_capacity(3 * n as usize);
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    for k in 0..n {
        for slot in 0..3 {
            let due = t0 + period.mul_f64(k as f64 + slot as f64 / 3.0);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let wait_ms = (due - now).as_millis() as u64;
                match outstanding.front() {
                    Some(&i) if wait_ms > 0 => {
                        if poll(&mut client, &mut frames[i], wait_ms) {
                            outstanding.pop_front();
                        }
                    }
                    _ => {
                        std::thread::sleep(due - now);
                        break;
                    }
                }
            }
            let f = send(&mut client, &stack.ids, slot, due);
            if !f.failed && !f.dropped {
                outstanding.push_back(frames.len());
            }
            frames.push(f);
        }
    }
    while let Some(&i) = outstanding.front() {
        if poll(&mut client, &mut frames[i], DRAIN_WAIT_MS) {
            outstanding.pop_front();
        }
    }
    Ok(frames)
}

/// Starts a server, opens the three streams and sends each its warm
/// frames, one at a time, timing the parts.
fn start_stack(traced: bool, seed: u64) -> Result<(StreamStack, SetupParts), String> {
    let began = Instant::now();
    let engine: Arc<dyn Backend> = Engine::start(EngineConfig::default());
    let traced = traced.then(|| TracedBackend::new(Arc::clone(&engine)));
    let front: Arc<dyn Backend> = match &traced {
        Some(t) => Arc::clone(t) as Arc<dyn Backend>,
        None => engine,
    };
    let server = Server::start_with_backend("127.0.0.1:0", front)
        .map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.addr().to_string();
    let ready = began.elapsed().as_secs_f64();
    let fill_started = Instant::now();
    let filled = (|| {
        let mut client = Client::connect(&addr).map_err(|e| format!("connecting: {e}"))?;
        let ids = open_streams(&mut client, seed)?;
        for _ in 0..WARM_FRAMES {
            for slot in 0..3 {
                let mut f = send(&mut client, &ids, slot, Instant::now());
                if f.failed || f.dropped {
                    return Err("a warm-fill frame was refused".to_string());
                }
                while !poll(&mut client, &mut f, DRAIN_WAIT_MS) {}
                if f.failed {
                    return Err("a warm-fill frame failed".to_string());
                }
            }
        }
        Ok(ids)
    })();
    let ids = match filled {
        Ok(ids) => ids,
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };
    let parts = SetupParts {
        server_s: Some(ready),
        cascade_s: None,
        warm_fill_s: Some(fill_started.elapsed().as_secs_f64()),
    };
    let stack = StreamStack {
        server,
        addr,
        ids,
        traced,
    };
    Ok((stack, parts))
}

/// The `setup` subcommand for stream-sla.
pub fn setup_child(seed: u64) -> Result<(), String> {
    let (stack, parts) = start_stack(false, seed)?;
    announce(&parts);
    close(stack).map(drop)
}

/// A stream's final status, as far as the checks need it.
struct Closed {
    rolling: u64,
    /// `(frame, degraded, digest)` of the most recent frames.
    recent: Vec<(u64, bool, u64)>,
}

fn hex(v: Option<&Value>) -> Option<u64> {
    let s = v?.as_str()?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// Closes the streams and shuts the stack down.
fn close(stack: StreamStack) -> Result<Vec<Closed>, String> {
    let closed = (|| {
        let mut client = Client::connect(&stack.addr).map_err(|e| format!("connecting: {e}"))?;
        let mut out = Vec::new();
        for id in stack.ids {
            let resp = client
                .request("POST", &format!("/v1/streams/{id}/close"), None)
                .map_err(|e| format!("closing stream {id}: {e}"))?;
            let v = Value::parse(&resp.body_text()).map_err(|e| format!("stream status: {e}"))?;
            let recent = v
                .get("recent")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|r| {
                    Some((
                        r.get("frame")?.as_u64()?,
                        r.get("degraded")?.as_bool()?,
                        hex(r.get("digest"))?,
                    ))
                })
                .collect();
            out.push(Closed {
                rolling: hex(v.get("rolling_digest")).ok_or("no rolling digest")?,
                recent,
            });
        }
        Ok(out)
    })();
    stack.server.shutdown();
    closed
}

/// One frame of the reference replay.
struct RefFrame {
    index: u64,
    digest: u64,
    exec_ms: f64,
}

/// The reference for one stream: a fresh pipeline over the frames the
/// server executed, in order, with the same degraded flags — with no
/// degraded frame this is exactly `run_one_shot`.
fn replay_stream(
    spec: &StreamSpec,
    slot: usize,
    frames: &[Frame],
) -> Result<Vec<RefFrame>, String> {
    let mut pipeline = build_pipeline(spec).map_err(|e| e.to_string())?;
    let mut executed: Vec<(u64, bool)> = (0..WARM_FRAMES).map(|i| (i, false)).collect();
    executed.extend(
        frames
            .iter()
            .filter(|f| f.stream == slot && f.done.is_some())
            .map(|f| (f.index, f.degraded)),
    );
    executed.sort_by_key(|e| e.0);
    let mut per = Vec::with_capacity(executed.len());
    for (index, degraded) in executed {
        let started = Instant::now();
        let r = pipeline
            .process(index, degraded)
            .map_err(|e| format!("reference frame {index}: {e}"))?;
        per.push(RefFrame {
            index,
            digest: r.digest,
            exec_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }
    Ok(per)
}

/// The reference of every stream, one list per stream. A traced pass
/// replays the streams one after another, because its `exec_ms` times
/// are per-layer metrics; an untraced one replays them side by side,
/// since only the digests are used.
fn replay(seed: u64, frames: &[Frame], timed: bool) -> Result<Vec<Vec<RefFrame>>, String> {
    let specs = specs(seed);
    if timed {
        return (0..PIPES.len())
            .map(|slot| replay_stream(&specs[slot], slot, frames))
            .collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(slot, spec)| s.spawn(move || replay_stream(spec, slot, frames)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a replay thread panicked".into()))
            })
            .collect()
    })
}

/// Output checks: every paced frame was accepted and (unless dropped)
/// executed, and full-size frames match the reference digests — frame
/// by frame over the status window, and through the rolling digest over
/// the whole stream.
fn check(frames: &[Frame], closed: &[Closed], reference: &[Vec<RefFrame>]) -> Tally {
    let mut bad: Vec<(usize, u64)> = Vec::new();
    for (slot, (c, want)) in closed.iter().zip(reference).enumerate() {
        let rolling = want
            .iter()
            .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest));
        let mut window_mismatch = false;
        for &(index, degraded, digest) in &c.recent {
            let expected = want.iter().find(|r| r.index == index).map(|r| r.digest);
            if !degraded && expected != Some(digest) {
                bad.push((slot, index));
                window_mismatch = true;
            }
        }
        if rolling != c.rolling && !window_mismatch {
            // The difference lies before the window: every full-size
            // frame of the stream is suspect.
            bad.extend(
                frames
                    .iter()
                    .filter(|f| f.stream == slot && !f.degraded)
                    .map(|f| (slot, f.index)),
            );
        }
    }
    let mut tally = Tally::default();
    for f in frames {
        let ok =
            !f.failed && (f.dropped || f.done.is_some()) && !bad.contains(&(f.stream, f.index));
        if !ok {
            eprintln!("frame {} of stream {} failed its check", f.index, f.stream);
        }
        tally.record(ok);
    }
    tally
}

/// `latency_ms`: one class per stream, the latency of its frames.
fn latency(frames: &[Frame]) -> Option<Metric> {
    let classes: Vec<Vec<f64>> = (0..PIPES.len())
        .map(|slot| {
            frames
                .iter()
                .filter(|f| f.stream == slot)
                .filter_map(Frame::latency_ms)
                .collect()
        })
        .collect();
    class_latency(&classes)
}

/// `frame_p50_ms` over all three streams, and `frames_on_time`.
fn details(frames: &[Frame]) -> Vec<Metric> {
    let lat: Vec<f64> = frames.iter().filter_map(Frame::latency_ms).collect();
    let on_time = frames.iter().filter(|f| f.on_time()).count() as u64;
    Metric::median_of("frame_p50_ms", &lat, "ms")
        .into_iter()
        .chain([Metric::ratio(
            "frames_on_time",
            on_time,
            frames.len() as u64,
        )])
        .collect()
}

fn lateness_note(frames: &[Frame]) -> String {
    let late: Vec<f64> = frames
        .iter()
        .map(|f| f.sent.0.saturating_duration_since(f.due).as_secs_f64() * 1e3)
        .collect();
    format!(
        "generator lateness_ms p50 {:.3} max {:.3} n={}",
        median(&late).unwrap_or(0.0),
        late.iter().copied().fold(0.0, f64::max),
        late.len()
    )
}

/// What one checked pass leaves for the report.
struct Pass {
    frames: Vec<Frame>,
    tally: Tally,
    reference: Vec<Vec<RefFrame>>,
    /// The decorator's backend calls (traced pass only).
    calls: Vec<Call>,
}

/// Runs one pass on `stack`, shuts the stack down, and checks the pass.
/// `traced`: the stack carries the decorator, so the client handshakes
/// first and the replay is timed.
fn pass_and_check(stack: StreamStack, seed: u64, n: u64, traced: bool) -> Result<Pass, String> {
    let frames = match paced_pass(&stack, n, traced) {
        Ok(f) => f,
        Err(e) => {
            stack.server.shutdown();
            return Err(e);
        }
    };
    let calls = stack.traced.as_ref().map(|t| t.calls()).unwrap_or_default();
    let closed = close(stack)?;
    let reference = replay(seed, &frames, traced)?;
    let tally = check(&frames, &closed, &reference);
    Ok(Pass {
        frames,
        tally,
        reference,
        calls,
    })
}

fn frames_per_stream(opts: &Opts) -> u64 {
    (opts.seconds as f64 * FPS).round() as u64
}

/// The untraced run: the paced phase once. `latency_ms` has one class
/// per stream.
pub fn measure(opts: &Opts) -> Result<Report, String> {
    let (stack, _) = start_stack(false, opts.seed)?;
    let pass = pass_and_check(stack, opts.seed, frames_per_stream(opts), false)?;
    Ok(Report {
        tally: pass.tally,
        metrics: latency(&pass.frames).into_iter().collect(),
        details: details(&pass.frames),
        notes: vec![lateness_note(&pass.frames)],
    })
}

/// The traced pass. The full pass paces half the frames untraced, then
/// the same on a fresh stack behind the tracing decorator; a probe paces
/// [`PROBE_FRAMES`] per stream traced only. Afterwards the frames are
/// replayed through `StreamPipeline::process` and the `sdvbs-synth`
/// generators.
pub fn traced(opts: &Opts, probe: bool, log: &mut SpanLog) -> Result<Report, String> {
    let mut report = Report::default();
    let n = if probe {
        PROBE_FRAMES
    } else {
        frames_per_stream(opts).div_ceil(2)
    };
    let mut untraced = None;
    if !probe {
        let (stack, _) = start_stack(false, opts.seed)?;
        let pass = pass_and_check(stack, opts.seed, n, false)?;
        report.tally = pass.tally;
        untraced = Some(pass);
    }
    let (stack, parts) = start_stack(true, opts.seed)?;
    let Pass {
        frames,
        tally,
        reference,
        calls,
    } = pass_and_check(stack, opts.seed, n, true)?;
    report.tally.absorb(tally);

    let label = if probe {
        "stream-sla probe"
    } else {
        "stream-sla"
    };
    let mut notes = Vec::new();
    report.metrics = analyse(&frames, &reference, &calls, label, log, &mut notes);
    report.metrics.extend(synth_metrics(opts.seed, &frames));
    let n_frames = frames.len() as u64;
    report.metrics.push(Metric::ratio(
        "stream.dropped_ratio",
        frames.iter().filter(|f| f.dropped).count() as u64,
        n_frames,
    ));
    report.metrics.push(Metric::ratio(
        "stream.degraded_ratio",
        frames.iter().filter(|f| f.degraded).count() as u64,
        n_frames,
    ));
    report.metrics.extend(parts.layer_metrics());
    if let Some(untraced) = untraced {
        report.notes = notes;
        report.notes.push(lateness_note(&frames));
        let with_latency = |frames: &[Frame]| -> Vec<Metric> {
            let mut v: Vec<Metric> = latency(frames).into_iter().collect();
            v.extend(details(frames));
            v
        };
        report.notes.extend(overhead_notes(
            &with_latency(&untraced.frames),
            &with_latency(&frames),
        ));
        report.details = details(&frames);
    }
    Ok(report)
}

/// `synth.<pipe>_frame_ms`: the `sdvbs-synth` generator each pipeline
/// calls per frame, replayed on the pass's frames at full size.
fn synth_metrics(seed: u64, frames: &[Frame]) -> Vec<Metric> {
    specs(seed)
        .iter()
        .enumerate()
        .filter_map(|(slot, spec)| {
            let (w, h) = spec.full_dims();
            let motion = spec.pipeline.motion();
            let times: Vec<f64> = frames
                .iter()
                .filter(|f| f.stream == slot && f.done.is_some())
                .map(|f| {
                    let started = Instant::now();
                    if spec.pipeline == PipelineKind::Disparity {
                        std::hint::black_box(moving_stereo_pair(w, h, spec.seed, motion, f.index));
                    } else {
                        std::hint::black_box(motion_frame(w, h, spec.seed, motion, f.index));
                    }
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            Metric::median_of(
                format!("synth.{}_frame_ms", spec.pipeline.label()),
                &times,
                "ms",
            )
        })
        .collect()
}

fn analyse(
    frames: &[Frame],
    reference: &[Vec<RefFrame>],
    calls: &[Call],
    label: &str,
    log: &mut SpanLog,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let map = thread_conns(calls);
    let cc = calls_of_conn(calls, &map, 0);
    let client_track = log.track(&format!("{label}: client"));
    let server_track = log.track(&format!("{label}: server conn 0"));
    // Per completed frame: (latency, late, front, submit, queue, exec).
    let mut rows: Vec<[f64; 6]> = Vec::new();
    let mut submits = Vec::new();
    let mut fronts = Vec::new();
    let mut exec_by_pipe: [Vec<f64>; 3] = Default::default();
    for (i, f) in frames.iter().enumerate() {
        let req = Some(i as u64);
        log.span(
            client_track,
            "POST frames",
            "client",
            f.sent.0,
            f.sent.1,
            req,
            vec![
                ("frame".into(), f.index as f64),
                ("stream".into(), f.stream as f64),
            ],
        );
        for &(p0, p1) in &f.polls {
            log.span(
                client_track,
                "GET /v1/jobs",
                "client",
                p0,
                p1,
                req,
                Vec::new(),
            );
        }
        let submit = call_within(&cc, f.sent.0, f.sent.1);
        let term = f
            .polls
            .iter()
            .filter_map(|&(p0, p1)| call_within(&cc, p0, p1))
            .find(|c| c.outcome == "terminal");
        for c in submit.iter().chain(term.iter()) {
            log.span(
                server_track,
                c.op,
                "backend",
                c.start,
                c.end,
                req,
                Vec::new(),
            );
        }
        let Some(submit) = submit else { continue };
        let s_ms = ms(submit.start, submit.end);
        submits.push(s_ms);
        fronts.push(ms(f.sent.0, f.sent.1) - s_ms);
        let exec = reference[f.stream]
            .iter()
            .find(|r| r.index == f.index)
            .map(|r| r.exec_ms);
        if let Some(e) = exec {
            exec_by_pipe[f.stream].push(e);
        }
        let (Some(latency), Some(term), Some(exec)) = (f.latency_ms(), term, exec) else {
            continue;
        };
        let late = ms(f.due, f.sent.0);
        let backend = ms(submit.end, term.end);
        rows.push([
            latency,
            late,
            latency - late - s_ms - backend,
            s_ms,
            backend - exec,
            exec,
        ]);
    }
    let col = |k: usize| -> Vec<f64> { rows.iter().map(|r| r[k]).collect() };
    notes.push(reconcile(
        "frame_p50_ms",
        median(&col(0)).unwrap_or(0.0),
        &median_band_parts(
            &rows,
            &[
                "generator.late_ms",
                "http.front_ms",
                "stream.submit_ms",
                "stream.queue_wait_ms",
                "stream.exec_ms",
            ],
        ),
    ));
    let mut out: Vec<Metric> = PIPES
        .iter()
        .zip(&exec_by_pipe)
        .filter_map(|(p, v)| Metric::median_of(format!("stream.{}.exec_ms", p.label()), v, "ms"))
        .collect();
    out.extend(Metric::median_of("stream.queue_wait_ms", &col(4), "ms"));
    out.extend(Metric::median_of("stream.submit_ms", &submits, "ms"));
    out.extend(Metric::median_of("http.front_ms", &fronts, "ms"));
    out
}
