//! The traced run's instruments, all outside the program: an in-memory
//! span log written once at the end through `sdvbs-trace`, a `Backend`
//! decorator that times the calls the HTTP front makes into the serving
//! backend, and the reconciliation and overhead lines.

use crate::stats::Metric;
use crate::Opts;
use sdvbs_runner::Job;
use sdvbs_serve::{
    Backend, DrainReport, FrameTicket, JobClass, JobSnapshot, StreamRefused, StreamStatus,
    Submission,
};
use sdvbs_stream::StreamSpec;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{trace_epoch, MetricsRegistry, Phase, Trace, TraceEvent};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Job ids at or above this are never issued by a backend in one run;
/// a client polls `HANDSHAKE_BASE + connection` once before timing so
/// the decorator learns which server thread serves which connection.
pub const HANDSHAKE_BASE: u64 = 1 << 50;

struct Span {
    track: u32,
    name: String,
    cat: &'static str,
    start: Instant,
    end: Instant,
    req: Option<u64>,
    args: Vec<(String, f64)>,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    tracks: Vec<String>,
}

impl SpanLog {
    /// A named track (timeline) for spans.
    pub fn track(&mut self, label: &str) -> u32 {
        self.tracks.push(label.to_string());
        (self.tracks.len() - 1) as u32
    }

    /// Records one span. `req` ties together every span one request
    /// caused.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        track: u32,
        name: &str,
        cat: &'static str,
        start: Instant,
        end: Instant,
        req: Option<u64>,
        args: Vec<(String, f64)>,
    ) {
        self.spans.push(Span {
            track,
            name: name.to_string(),
            cat,
            start,
            end,
            req,
            args,
        });
    }
}

/// Milliseconds from `a` to `b` (zero if `b` is earlier).
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn us(t: Instant) -> u64 {
    t.saturating_duration_since(trace_epoch()).as_micros() as u64
}

/// Writes the span log as Chrome-trace JSON under `perfbench/out/` and
/// returns the line that says where.
pub fn write_trace(opts: &Opts, log: SpanLog) -> Result<String, String> {
    let SpanLog { spans, tracks } = log;
    let mut events = Vec::with_capacity(2 * spans.len() + tracks.len());
    for (i, label) in tracks.iter().enumerate() {
        events.push(TraceEvent::new(
            label.clone(),
            "meta",
            Phase::Meta,
            0,
            i as u32,
        ));
    }
    for s in &spans {
        let mut begin = TraceEvent::new(s.name.clone(), s.cat, Phase::Begin, us(s.start), s.track);
        begin.args = s
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        if let Some(req) = s.req {
            begin.args.push(("req".into(), Value::Num(req as f64)));
        }
        events.push(begin);
        events.push(TraceEvent::new(
            s.name.clone(),
            s.cat,
            Phase::End,
            us(s.end.max(s.start)),
            s.track,
        ));
    }
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, Trace::new(events).to_chrome_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "trace {} spans written to {}",
        spans.len(),
        path.display()
    ))
}

/// `reconcile <metric> e2e=.. <part>=.. ... unattributed=..`: the
/// blocking-path parts of an end-to-end median and the residual that
/// makes them add up to it.
pub fn reconcile(name: &str, e2e: f64, parts: &[Metric]) -> String {
    let sum: f64 = parts.iter().map(|m| m.value).sum();
    let listed: Vec<String> = parts
        .iter()
        .map(|m| format!("{}={:.4}", m.name, m.value))
        .collect();
    format!(
        "reconcile {name} e2e={e2e:.4} {} unattributed={:.4}",
        listed.join(" "),
        e2e - sum
    )
}

/// The blocking-path parts of the requests around the median: rows are
/// `[latency, part...]` per request; the rows ranked in the middle fifth
/// by latency are averaged part by part, so the parts describe where a
/// median request's time went and add up to about its latency.
pub fn median_band_parts<R: AsRef<[f64]>>(rows: &[R], names: &[&str]) -> Vec<Metric> {
    let mut sorted: Vec<&[f64]> = rows.iter().map(AsRef::as_ref).collect();
    sorted.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let n = sorted.len();
    let band = &sorted[(2 * n / 5)..(3 * n / 5).max((2 * n / 5) + 1).min(n)];
    if band.is_empty() {
        return Vec::new();
    }
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mean = band.iter().map(|r| r[i + 1]).sum::<f64>() / band.len() as f64;
            Metric::new(*name, mean, "ms", band.len())
        })
        .collect()
}

/// `overhead <metric> traced-untraced=..` for every end-to-end metric
/// both passes produced.
pub fn overhead_notes(untraced: &[Metric], traced: &[Metric]) -> Vec<String> {
    traced
        .iter()
        .filter_map(|t| {
            let u = untraced.iter().find(|u| u.name == t.name)?;
            Some(format!(
                "overhead {} traced-untraced={:.4} {} (untraced {:.4} n={}, traced {:.4} n={})",
                t.name,
                t.value - u.value,
                t.unit,
                u.value,
                u.n,
                t.value,
                t.n
            ))
        })
        .collect()
}

/// One timed call into the backend.
#[derive(Debug, Clone)]
pub struct Call {
    pub thread: ThreadId,
    pub op: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// The job id the call was about or returned.
    pub id: Option<u64>,
    /// `cached`, `queued`, `coalesced`, `full`, `draining`, `terminal`,
    /// `pending`, `dropped`, `accepted`, `refused` or `none`.
    pub outcome: &'static str,
}

/// A `Backend` decorator timing `submit`, `get`, `wait_terminal`,
/// `open_stream` and `submit_frame`; every other call passes through.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    calls: Mutex<Vec<Call>>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn Backend>) -> Arc<TracedBackend> {
        Arc::new(TracedBackend {
            inner,
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Every call recorded so far, in completion order.
    pub fn calls(&self) -> Vec<Call> {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn note(&self, op: &'static str, start: Instant, id: Option<u64>, outcome: &'static str) {
        let call = Call {
            thread: std::thread::current().id(),
            op,
            start,
            end: Instant::now(),
            id,
            outcome,
        };
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(call);
    }
}

fn snap_outcome(snap: &Option<JobSnapshot>) -> &'static str {
    match snap {
        Some(s) if s.is_terminal() => "terminal",
        Some(_) => "pending",
        None => "none",
    }
}

impl Backend for TracedBackend {
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let start = Instant::now();
        let sub = self.inner.submit(spec, fresh, class);
        let (id, outcome) = match &sub {
            Submission::Cached(_) => (None, "cached"),
            Submission::Queued(id) => (Some(*id), "queued"),
            Submission::Coalesced(id) => (Some(*id), "coalesced"),
            Submission::QueueFull => (None, "full"),
            Submission::Draining => (None, "draining"),
        };
        self.note("submit", start, id, outcome);
        sub
    }
    fn get(&self, id: u64) -> Option<JobSnapshot> {
        let start = Instant::now();
        let snap = self.inner.get(id);
        self.note("get", start, Some(id), snap_outcome(&snap));
        snap
    }
    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        let start = Instant::now();
        let snap = self.inner.wait_terminal(id, wait);
        self.note("wait_terminal", start, Some(id), snap_outcome(&snap));
        snap
    }
    fn begin_drain(&self) {
        self.inner.begin_drain();
    }
    fn drain(&self) -> DrainReport {
        self.inner.drain()
    }
    fn is_draining(&self) -> bool {
        self.inner.is_draining()
    }
    fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }
    fn merge_metrics(&self, other: &MetricsRegistry) {
        self.inner.merge_metrics(other);
    }
    fn counter(&self, name: &str) -> u64 {
        self.inner.counter(name)
    }
    fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.trace_events()
    }
    fn health_extra(&self) -> Option<String> {
        self.inner.health_extra()
    }
    fn open_stream(&self, spec: StreamSpec) -> Result<u64, StreamRefused> {
        let start = Instant::now();
        let r = self.inner.open_stream(spec);
        let outcome = if r.is_ok() { "accepted" } else { "refused" };
        self.note("open_stream", start, r.as_ref().ok().copied(), outcome);
        r
    }
    fn submit_frame(&self, stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        let start = Instant::now();
        let r = self.inner.submit_frame(stream_id);
        let (id, outcome) = match &r {
            Ok(t) if t.dropped => (None, "dropped"),
            Ok(t) => (t.job_id, "accepted"),
            Err(_) => (None, "refused"),
        };
        self.note("submit_frame", start, id, outcome);
        r
    }
    fn stream_status(&self, id: u64) -> Option<StreamStatus> {
        self.inner.stream_status(id)
    }
    fn close_stream(&self, id: u64) -> Option<StreamStatus> {
        self.inner.close_stream(id)
    }
}

/// Which client connection each server thread served, learned from the
/// handshake polls (`get(HANDSHAKE_BASE + conn)`).
pub fn thread_conns(calls: &[Call]) -> Vec<(ThreadId, usize)> {
    calls
        .iter()
        .filter(|c| c.op == "get" && c.id.is_some_and(|id| id >= HANDSHAKE_BASE))
        .map(|c| {
            (
                c.thread,
                (c.id.unwrap_or(HANDSHAKE_BASE) - HANDSHAKE_BASE) as usize,
            )
        })
        .collect()
}

/// The backend calls made while serving connection `conn`, in order.
pub fn calls_of_conn<'a>(
    calls: &'a [Call],
    map: &[(ThreadId, usize)],
    conn: usize,
) -> Vec<&'a Call> {
    let threads: Vec<ThreadId> = map
        .iter()
        .filter(|(_, c)| *c == conn)
        .map(|(t, _)| *t)
        .collect();
    let mut out: Vec<&Call> = calls
        .iter()
        .filter(|c| threads.contains(&c.thread))
        .collect();
    out.sort_by_key(|c| c.start);
    out
}

/// The backend call inside a client request window `[start, end]`.
pub fn call_within<'a>(calls: &[&'a Call], start: Instant, end: Instant) -> Option<&'a Call> {
    calls
        .iter()
        .find(|c| c.start >= start && c.end <= end)
        .copied()
}
