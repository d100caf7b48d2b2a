//! Trace assembly, validation, and the export format.
//!
//! A [`Trace`] is the merged, timestamp-sorted event stream of a run. It
//! exports as Chrome-trace-format JSON (loadable in `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev)), which parses back losslessly
//! through the crate's own [`crate::jsonl`] parser.

use crate::event::{Phase, TraceEvent, TrackId};
use crate::jsonl::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A structural defect found while validating or parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input was not a valid Chrome-trace JSON document.
    Parse(String),
    /// An `E` event arrived on a track with no open span, or a trace ended
    /// with spans still open.
    Unbalanced {
        /// The offending track.
        track: TrackId,
        /// What was wrong.
        what: String,
    },
    /// Event timestamps were not sorted non-decreasingly.
    UnsortedTimestamps {
        /// Index of the first out-of-order event.
        at: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse(m) => write!(f, "trace parse error: {m}"),
            TraceError::Unbalanced { track, what } => {
                write!(f, "unbalanced spans on track {track}: {what}")
            }
            TraceError::UnsortedTimestamps { at } => {
                write!(
                    f,
                    "event timestamps not sorted (first violation at index {at})"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Summary statistics from a validated trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Distinct tracks carrying at least one event.
    pub tracks: usize,
    /// Completed spans (matched begin/end pairs).
    pub spans: usize,
    /// Completed spans in the `"kernel"` category.
    pub kernel_spans: usize,
    /// Instant markers.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Deepest span nesting observed on any track.
    pub max_depth: usize,
}

/// The merged, sorted event stream of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Assembles a trace from raw events, stably sorting by timestamp so
    /// per-track recording order (which is already time-ordered) is
    /// preserved while tracks interleave correctly.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.ts_us);
        Trace { events }
    }

    /// The events, sorted by timestamp.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the structural invariants a viewer relies on — timestamps
    /// sorted, every `E` matching the innermost open `B` of its track,
    /// nothing left open — and returns summary statistics.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found.
    pub fn validate(&self) -> Result<TraceStats, TraceError> {
        let mut stats = TraceStats::default();
        let mut open: BTreeMap<TrackId, Vec<&str>> = BTreeMap::new();
        let mut tracks: BTreeMap<TrackId, ()> = BTreeMap::new();
        let mut last_ts = 0u64;
        for (idx, ev) in self.events.iter().enumerate() {
            if ev.ts_us < last_ts {
                return Err(TraceError::UnsortedTimestamps { at: idx });
            }
            last_ts = ev.ts_us;
            tracks.entry(ev.track).or_default();
            match ev.phase {
                Phase::Begin => {
                    let stack = open.entry(ev.track).or_default();
                    stack.push(&ev.name);
                    stats.max_depth = stats.max_depth.max(stack.len());
                }
                Phase::End => {
                    let stack = open.entry(ev.track).or_default();
                    match stack.pop() {
                        None => {
                            return Err(TraceError::Unbalanced {
                                track: ev.track,
                                what: format!("end {:?} with no open span", ev.name),
                            })
                        }
                        Some(opened) => {
                            // End events echo the begun name; a mismatch
                            // means interleaved (not nested) spans on one
                            // track.
                            if opened != ev.name {
                                return Err(TraceError::Unbalanced {
                                    track: ev.track,
                                    what: format!(
                                        "end {:?} does not match innermost begin {opened:?}",
                                        ev.name
                                    ),
                                });
                            }
                            stats.spans += 1;
                            if ev.cat == "kernel"
                                || self.begin_cat(idx, ev.track, &ev.name) == Some("kernel")
                            {
                                stats.kernel_spans += 1;
                            }
                        }
                    }
                }
                Phase::Instant => stats.instants += 1,
                Phase::Counter => stats.counters += 1,
                Phase::Meta => {}
            }
        }
        if let Some((track, stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
            return Err(TraceError::Unbalanced {
                track: *track,
                what: format!("{} span(s) still open at end of trace", stack.len()),
            });
        }
        stats.tracks = tracks.len();
        Ok(stats)
    }

    /// Category of the begin event matching the end at `end_idx` (searched
    /// backwards on the same track). End events carry cat `"end"`, so span
    /// categorization needs the opening side.
    fn begin_cat(&self, end_idx: usize, track: TrackId, name: &str) -> Option<&str> {
        let mut depth = 0usize;
        for ev in self.events[..end_idx].iter().rev() {
            if ev.track != track {
                continue;
            }
            match ev.phase {
                Phase::End => depth += 1,
                Phase::Begin => {
                    if depth == 0 {
                        if ev.name == name {
                            return Some(&ev.cat);
                        }
                        return None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        None
    }

    /// Per-benchmark kernel-span counts: walks each track's job spans
    /// (category `"job"`) and counts the kernel spans that begin while the
    /// job is open. Attribution is track-first — a worker runs its jobs
    /// sequentially, so a kernel span on a worker track belongs to the job
    /// open on *that* track even when jobs on other workers overlap it in
    /// time. Kernel spans on dynamic chunk tracks carry no job span of
    /// their own and fall back to the most recently begun still-open job.
    pub fn kernel_spans_per_job(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut open_by_track: BTreeMap<TrackId, Vec<&str>> = BTreeMap::new();
        // Begin-ordered across tracks: the chunk-track fallback.
        let mut open_global: Vec<&str> = Vec::new();
        for ev in &self.events {
            match ev.phase {
                Phase::Begin if ev.cat == "job" => {
                    counts.entry(ev.name.clone()).or_insert(0);
                    open_by_track.entry(ev.track).or_default().push(&ev.name);
                    open_global.push(&ev.name);
                }
                Phase::End => {
                    let stack = open_by_track.entry(ev.track).or_default();
                    if stack.last() == Some(&ev.name.as_str()) {
                        stack.pop();
                        if let Some(at) = open_global.iter().rposition(|j| *j == ev.name) {
                            open_global.remove(at);
                        }
                    }
                }
                Phase::Begin if ev.cat == "kernel" => {
                    let job = open_by_track
                        .get(&ev.track)
                        .and_then(|stack| stack.last())
                        .or(open_global.last());
                    if let Some(job) = job {
                        *counts.entry((*job).to_string()).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
        counts
    }

    /// Serializes to Chrome trace format: a JSON object with a
    /// `traceEvents` array, loadable in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self.events.iter().map(event_to_chrome).collect();
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .to_string()
    }

    /// Parses a [`Trace::to_chrome_json`]-format document.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] for malformed JSON or events.
    pub fn from_chrome_json(text: &str) -> Result<Self, TraceError> {
        let doc = Value::parse(text).map_err(|e| TraceError::Parse(e.to_string()))?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or_else(|| TraceError::Parse("missing traceEvents array".into()))?;
        let events = events
            .iter()
            .map(event_from_chrome)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace::new(events))
    }
}

/// One event as a Chrome-trace JSON object. [`Phase::Meta`] events become
/// `thread_name` metadata so Perfetto labels the track. Public so
/// transports (the cluster wire protocol) can ship individual events
/// without re-encoding a whole document.
pub fn event_to_chrome(ev: &TraceEvent) -> Value {
    let (name, args) = match ev.phase {
        Phase::Meta => (
            "thread_name".to_string(),
            vec![("name".to_string(), Value::Str(ev.name.clone()))],
        ),
        _ => (ev.name.clone(), ev.args.clone()),
    };
    let mut pairs = vec![
        ("name".into(), Value::Str(name)),
        ("cat".into(), Value::Str(ev.cat.clone())),
        ("ph".into(), Value::Str(ev.phase.as_str().into())),
        ("ts".into(), Value::Num(ev.ts_us as f64)),
        ("pid".into(), Value::Num(1.0)),
        ("tid".into(), Value::Num(f64::from(ev.track))),
    ];
    if ev.phase == Phase::Instant {
        // Thread-scoped instant marker.
        pairs.push(("s".into(), Value::Str("t".into())));
    }
    if !args.is_empty() {
        pairs.push(("args".into(), Value::Obj(args)));
    }
    Value::Obj(pairs)
}

/// Parses one [`event_to_chrome`]-shaped object back into a
/// [`TraceEvent`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for a malformed event object.
pub fn event_from_chrome(v: &Value) -> Result<TraceEvent, TraceError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| TraceError::Parse(format!("event missing {name:?}")))
    };
    let phase = Phase::parse(
        field("ph")?
            .as_str()
            .ok_or_else(|| TraceError::Parse("ph must be a string".into()))?,
    )
    .map_err(TraceError::Parse)?;
    let raw_name = field("name")?
        .as_str()
        .ok_or_else(|| TraceError::Parse("name must be a string".into()))?
        .to_string();
    let args: Vec<(String, Value)> = match v.get("args") {
        Some(Value::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    // Reverse the thread_name metadata encoding.
    let (name, args) = if phase == Phase::Meta {
        let label = args
            .iter()
            .find(|(k, _)| k == "name")
            .and_then(|(_, v)| v.as_str())
            .unwrap_or(&raw_name)
            .to_string();
        (label, Vec::new())
    } else {
        let args = args.into_iter().filter(|(k, _)| k != "s").collect();
        (raw_name, args)
    };
    Ok(TraceEvent {
        name,
        cat: v
            .get("cat")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        phase,
        ts_us: field("ts")?
            .as_u64()
            .ok_or_else(|| TraceError::Parse("ts must be a non-negative integer".into()))?,
        track: field("tid")?
            .as_u64()
            .ok_or_else(|| TraceError::Parse("tid must be a non-negative integer".into()))?
            as TrackId,
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, cat: &str, track: TrackId, b: u64, e: u64) -> [TraceEvent; 2] {
        [
            TraceEvent::new(name, cat, Phase::Begin, b, track),
            TraceEvent::new(name, "end", Phase::End, e, track),
        ]
    }

    #[test]
    fn validate_counts_spans_and_tracks() {
        let mut events = Vec::new();
        events.extend(span("job", "job", 0, 0, 100));
        events.extend(span("SSD", "kernel", 1, 10, 40));
        events.extend(span("Sort", "kernel", 1, 50, 90));
        let stats = Trace::new(events).validate().unwrap();
        assert_eq!(stats.tracks, 2);
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.kernel_spans, 2);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn validate_rejects_unbalanced_and_interleaved() {
        let open_only = vec![TraceEvent::new("a", "kernel", Phase::Begin, 0, 0)];
        assert!(matches!(
            Trace::new(open_only).validate(),
            Err(TraceError::Unbalanced { .. })
        ));
        // a-begin, b-begin, a-end: interleaved, not nested.
        let interleaved = vec![
            TraceEvent::new("a", "kernel", Phase::Begin, 0, 0),
            TraceEvent::new("b", "kernel", Phase::Begin, 1, 0),
            TraceEvent::new("a", "end", Phase::End, 2, 0),
        ];
        assert!(matches!(
            Trace::new(interleaved).validate(),
            Err(TraceError::Unbalanced { .. })
        ));
    }

    #[test]
    fn chrome_json_roundtrips_through_jsonl_parser() {
        let mut events = Vec::new();
        events.push(TraceEvent::new("worker 0", "meta", Phase::Meta, 0, 0));
        events.extend(span("job", "job", 0, 5, 200));
        let mut inst = TraceEvent::new("inject:panic", "fault", Phase::Instant, 20, 0);
        inst.args = vec![("attempt".into(), Value::Num(1.0))];
        events.push(inst);
        let mut ctr = TraceEvent::new("queue_wait_ms", "counter", Phase::Counter, 5, 0);
        ctr.args = vec![("value".into(), Value::Num(0.25))];
        events.push(ctr);
        let trace = Trace::new(events);
        let json = trace.to_chrome_json();
        // The export is plain JSON our own parser accepts...
        assert!(Value::parse(&json).is_ok());
        // ...and reconstructs the identical trace.
        assert_eq!(Trace::from_chrome_json(&json).unwrap(), trace);
    }

    #[test]
    fn kernel_spans_attribute_to_open_jobs() {
        let mut events = Vec::new();
        events.extend(span("Disparity Map", "job", 0, 0, 100));
        events.extend(span("SSD", "kernel", 0, 10, 20));
        events.extend(span("Sort", "kernel", 0, 30, 40));
        events.extend(span("SVM", "job", 0, 200, 300));
        events.extend(span("SMO", "kernel", 0, 210, 220));
        let counts = Trace::new(events).kernel_spans_per_job();
        assert_eq!(counts["Disparity Map"], 2);
        assert_eq!(counts["SVM"], 1);
    }

    #[test]
    fn attribution_is_track_first_when_worker_jobs_overlap() {
        // Two workers, jobs overlapping in time: track 0's kernels must
        // stay with track 0's job even though track 1's job began more
        // recently; the global fallback only catches dynamic chunk tracks.
        let mut events = Vec::new();
        events.extend(span("Disparity Map", "job", 0, 0, 100));
        events.extend(span("SVM", "job", 1, 5, 80));
        events.extend(span("SSD", "kernel", 0, 10, 20)); // inside SVM's window
        events.extend(span("SMO", "kernel", 1, 15, 25));
        // A chunk track carries no job span: latest open job wins.
        events.extend(span("Sort", "kernel", 1024, 30, 40));
        let counts = Trace::new(events).kernel_spans_per_job();
        assert_eq!(counts["Disparity Map"], 1, "{counts:?}");
        assert_eq!(counts["SVM"], 2, "{counts:?}");
    }
}
