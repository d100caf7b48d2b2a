//! Trace events and the per-thread span recorder.
//!
//! A [`Recorder`] is owned by exactly one thread at a time, so recording a
//! span is a plain `Vec` push — no locks on the hot path. The only shared
//! state is the process-wide trace epoch and the track-id allocator, both
//! touched once per recorder, not once per event. Worker recorders are
//! merged into a coordinator recorder with [`Recorder::absorb`], keeping
//! their distinct track ids so concurrent spans never interleave on one
//! track.

use crate::jsonl::Value;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identifies one timeline (a thread/worker) within a trace. Rendered as
/// the `tid` of Chrome-trace events.
pub type TrackId = u32;

/// Track ids below this are reserved for explicitly numbered tracks (the
/// runner's pool workers); [`alloc_track`] hands out ids from here up.
pub const DYNAMIC_TRACK_BASE: TrackId = 1024;

static NEXT_TRACK: AtomicU32 = AtomicU32::new(DYNAMIC_TRACK_BASE);

/// Allocates a process-unique track id (at or above
/// [`DYNAMIC_TRACK_BASE`]). Each [`Recorder::new`] calls this once, so
/// recorders created on different worker threads land on distinct tracks.
pub fn alloc_track() -> TrackId {
    NEXT_TRACK.fetch_add(1, Ordering::Relaxed)
}

fn epoch_cell() -> &'static OnceLock<Instant> {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    &EPOCH
}

/// The process-wide trace epoch: all event timestamps are microseconds
/// since this instant, so spans recorded on different threads line up on
/// one timeline. Initialized on first use.
pub fn trace_epoch() -> Instant {
    *epoch_cell().get_or_init(Instant::now)
}

/// Microseconds elapsed since the trace epoch.
pub fn now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// The Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`); matches the innermost open begin on its track.
    End,
    /// A point-in-time marker (`"i"`), e.g. an injected fault.
    Instant,
    /// A sampled counter value (`"C"`), e.g. queue wait.
    Counter,
    /// Track metadata (`"M"`), used to label tracks by name.
    Meta,
}

impl Phase {
    /// The Chrome-trace `ph` letter.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::Meta => "M",
        }
    }

    /// Parses the [`Phase::as_str`] form.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown phase letters.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "B" => Ok(Phase::Begin),
            "E" => Ok(Phase::End),
            "i" | "I" => Ok(Phase::Instant),
            "C" => Ok(Phase::Counter),
            "M" => Ok(Phase::Meta),
            other => Err(format!("unknown trace phase {other:?}")),
        }
    }
}

/// One event in a trace: a span boundary, an instant marker, a counter
/// sample, or track metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (kernel name, job label, counter name; for
    /// [`Phase::Meta`] the track label itself).
    pub name: String,
    /// Category: `"kernel"`, `"job"`, `"run"`, `"worker"`, `"fault"`,
    /// `"counter"`, `"meta"`, … — the Chrome-trace `cat` field, used to
    /// filter in Perfetto.
    pub cat: String,
    /// When in the event's lifecycle this is.
    pub phase: Phase,
    /// Microseconds since [`trace_epoch`].
    pub ts_us: u64,
    /// The timeline this event belongs to.
    pub track: TrackId,
    /// Free-form metadata (attempt number, seed, counter value, …).
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    /// Convenience constructor with no args.
    pub fn new(
        name: impl Into<String>,
        cat: impl Into<String>,
        phase: Phase,
        ts_us: u64,
        track: TrackId,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            phase,
            ts_us,
            track,
            args: Vec::new(),
        }
    }
}

/// A per-thread span recorder: begin/end events for nested spans, instant
/// markers, and counter samples, all on one track.
///
/// Ends are implicit — [`Recorder::end`] closes the innermost open span,
/// so an unwinding caller (via a drop guard) can always close what it
/// opened and every `E` event matches the innermost `B` by construction.
#[derive(Debug, Clone)]
pub struct Recorder {
    track: TrackId,
    events: Vec<TraceEvent>,
    /// Names of currently open spans, innermost last.
    open: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder on a freshly allocated track.
    pub fn new() -> Self {
        Self::on_track(alloc_track())
    }

    /// A recorder on an explicit track (the runner uses worker indices
    /// below [`DYNAMIC_TRACK_BASE`]).
    pub fn on_track(track: TrackId) -> Self {
        Recorder {
            track,
            events: Vec::new(),
            open: Vec::new(),
        }
    }

    /// This recorder's track id.
    pub fn track(&self) -> TrackId {
        self.track
    }

    /// Labels this recorder's track (rendered as the thread name in
    /// Perfetto).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.events
            .push(TraceEvent::new(label, "meta", Phase::Meta, 0, self.track));
    }

    /// Opens a span; `args` ride on its begin event.
    pub fn begin(&mut self, name: &str, cat: &str, args: Vec<(String, Value)>) {
        self.open.push(name.to_string());
        let mut ev = TraceEvent::new(name, cat, Phase::Begin, now_us(), self.track);
        ev.args = args;
        self.events.push(ev);
    }

    /// Closes the innermost open span. A no-op if nothing is open (so a
    /// defensive drop guard can call it unconditionally).
    pub fn end(&mut self) {
        if let Some(name) = self.open.pop() {
            self.events.push(TraceEvent::new(
                name,
                "end",
                Phase::End,
                now_us(),
                self.track,
            ));
        }
    }

    /// Records a point-in-time marker.
    pub fn instant(&mut self, name: &str, cat: &str, args: Vec<(String, Value)>) {
        let mut ev = TraceEvent::new(name, cat, Phase::Instant, now_us(), self.track);
        ev.args = args;
        self.events.push(ev);
    }

    /// Records a counter sample.
    pub fn counter(&mut self, name: &str, value: f64) {
        let mut ev = TraceEvent::new(name, "counter", Phase::Counter, now_us(), self.track);
        ev.args = vec![("value".to_string(), Value::Num(value))];
        self.events.push(ev);
    }

    /// Number of currently open spans.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Whether any events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Merges a worker recorder's events into this one. The worker's
    /// events keep their own track id, so concurrent worker spans stay on
    /// disjoint timelines and per-track nesting remains balanced. A
    /// recorder that ran on this one's track while it waited (the
    /// runner's job profilers) adds its closed spans inside whatever
    /// span this one has open.
    pub fn absorb(&mut self, other: Recorder) {
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_are_unique_and_dynamic() {
        let a = Recorder::new();
        let b = Recorder::new();
        assert_ne!(a.track(), b.track());
        assert!(a.track() >= DYNAMIC_TRACK_BASE);
    }

    #[test]
    fn end_closes_innermost_begin() {
        let mut r = Recorder::on_track(0);
        r.begin("outer", "kernel", Vec::new());
        r.begin("inner", "kernel", Vec::new());
        assert_eq!(r.open_depth(), 2);
        r.end();
        assert_eq!(r.open_depth(), 1);
        assert_eq!(r.events()[2].name, "inner");
        assert_eq!(r.events()[2].phase, Phase::End);
        r.end();
        assert_eq!(r.open_depth(), 0);
        // A spurious extra end is a no-op, not a panic or a stray event.
        r.end();
        assert_eq!(r.events().len(), 4);
    }

    #[test]
    fn timestamps_are_monotonic_within_a_recorder() {
        let mut r = Recorder::new();
        r.begin("a", "kernel", Vec::new());
        r.end();
        r.begin("b", "kernel", Vec::new());
        r.end();
        let ts: Vec<u64> = r.events().iter().map(|e| e.ts_us).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn absorb_keeps_worker_tracks_distinct() {
        let mut main = Recorder::new();
        main.begin("job", "job", Vec::new());
        let mut w = Recorder::new();
        w.begin("SSD", "kernel", Vec::new());
        w.end();
        let w_track = w.track();
        main.absorb(w);
        main.end();
        assert!(main.events().iter().any(|e| e.track == w_track));
        assert!(main.events().iter().any(|e| e.track == main.track()));
        assert_ne!(w_track, main.track());
    }
}
