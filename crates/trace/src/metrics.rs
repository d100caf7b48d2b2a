//! A percentile-histogram metrics registry.
//!
//! The runner records per-job operational counters here — queue wait,
//! attempts, watchdog margin, store write latency — and the result store
//! serializes the registry alongside the run records (a `"kind":"metrics"`
//! JSONL line). Sample sets are per-run (at most a few thousand values),
//! so histograms keep exact samples and report **nearest-rank**
//! percentiles: `P(p)` of `n` sorted samples is the element at rank
//! `ceil(p/100 · n)` (1-based), the convention the whole workspace uses
//! for timing statistics.

use crate::jsonl::Value;
use std::fmt;

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// Returns `None` on an empty sample. For `p <= 0` this is the minimum;
/// for `p >= 100` the maximum; there is no interpolation, so the result
/// is always an observed value. The edge cases the convention pins down:
/// with `n = 1` every percentile is the sole sample; with `n = 2` the
/// median (`p = 50`) is the **lower** sample (rank `ceil(1) = 1`).
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// An exact-sample histogram with nearest-rank percentiles.
///
/// By default every sample is retained (per-run registries stay small).
/// A **windowed** histogram ([`Histogram::windowed`]) retains only the
/// most recent `cap` samples in a ring — the shape a long-lived daemon
/// needs for metrics that feed online decisions (the serve scheduler's
/// per-benchmark×size scaling model reads these): percentiles track
/// recent behavior and memory stays bounded, while [`Histogram::count`]
/// still reports the lifetime observation total.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Kept sorted lazily: samples are appended and sorted on read. For a
    /// windowed histogram this is a ring over the most recent `window`
    /// samples.
    samples: Vec<f64>,
    /// Sum of the *retained* samples (the whole history when unbounded).
    sum: f64,
    /// Retention cap; `None` keeps everything.
    window: Option<usize>,
    /// Ring write index (windowed histograms at capacity only).
    next: usize,
    /// Lifetime observation count, including samples the window dropped.
    total: u64,
}

impl Histogram {
    /// An empty histogram retaining every sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram retaining only the most recent `cap` samples
    /// (clamped ≥ 1).
    pub fn windowed(cap: usize) -> Self {
        Histogram {
            window: Some(cap.max(1)),
            ..Histogram::default()
        }
    }

    /// Records one sample (non-finite samples are dropped — JSON cannot
    /// carry them and a NaN would poison every percentile). A windowed
    /// histogram at capacity overwrites its oldest sample.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.total += 1;
        match self.window {
            Some(cap) if self.samples.len() >= cap => {
                self.sum += value - self.samples[self.next];
                self.samples[self.next] = value;
                self.next = (self.next + 1) % cap;
            }
            _ => {
                self.samples.push(value);
                self.sum += value;
            }
        }
    }

    /// Lifetime number of samples observed (for a windowed histogram this
    /// can exceed the retained sample count).
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// The retention cap, when windowed.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Sum of the retained samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Nearest-rank percentile `p` (0–100), `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        nearest_rank(&sorted, p)
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().min_by(f64::total_cmp)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().max_by(f64::total_cmp)
    }

    /// The raw samples, in observation order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Named counters and histograms, in first-registration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name`, registering it on first use.
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name.to_string(), by)),
        }
    }

    /// Records a histogram sample under `name`, registering it on first
    /// use.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.histograms.push((name.to_string(), h));
            }
        }
    }

    /// Records a sample under `name`, registering the histogram as
    /// **windowed** at `cap` retained samples on first use (an existing
    /// histogram keeps whatever retention it was created with).
    pub fn observe_windowed(&mut self, name: &str, value: f64, cap: usize) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::windowed(cap);
                h.observe(value);
                self.histograms.push((name.to_string(), h));
            }
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Drops every counter and histogram whose name starts with
    /// `prefix` — how a series scoped to something that ended (a retired
    /// stream) leaves a long-lived registry.
    pub fn remove_prefixed(&mut self, prefix: &str) {
        self.counters.retain(|(n, _)| !n.starts_with(prefix));
        self.histograms.retain(|(n, _)| !n.starts_with(prefix));
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// All counters in first-registration order. The cluster wire
    /// protocol serializes a worker's registry losslessly from these.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in first-registration order, with their raw
    /// samples reachable via [`Histogram::samples`].
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Folds another registry into this one: counters add, histograms
    /// concatenate their samples. The serve daemon merges each finished
    /// run's per-run registry into its process-lifetime registry before
    /// exposing it on `/metrics`.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.incr(name, *v);
        }
        for (name, h) in &other.histograms {
            // First sight of a windowed histogram registers it windowed
            // here too, so merging never unbounds a bounded metric.
            if self.histogram(name).is_none() {
                let fresh = match h.window() {
                    Some(cap) => Histogram::windowed(cap),
                    None => Histogram::new(),
                };
                self.histograms.push((name.clone(), fresh));
            }
            let target = self
                .histograms
                .iter_mut()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t)
                .expect("registered above");
            for &s in h.samples() {
                target.observe(s);
            }
        }
    }

    /// Renders the registry in a Prometheus-style text exposition format:
    /// one `prefix_name value` line per counter, and for each histogram a
    /// `prefix_name{stat="..."}` line per summary statistic
    /// (count/sum/min/mean/p50/p90/p95/p99/max). Metric names are
    /// sanitized to `[a-z0-9_]` so scrape parsers never see an invalid
    /// identifier. Lines end with `\n`; an empty registry renders as the
    /// empty string.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{prefix}_{} {v}\n", metric_name(name)));
        }
        for (name, h) in &self.histograms {
            let name = metric_name(name);
            let stats: [(&str, f64); 9] = [
                ("count", h.count() as f64),
                ("sum", h.sum()),
                ("min", h.min().unwrap_or(0.0)),
                ("mean", h.mean()),
                ("p50", h.percentile(50.0).unwrap_or(0.0)),
                ("p90", h.percentile(90.0).unwrap_or(0.0)),
                ("p95", h.percentile(95.0).unwrap_or(0.0)),
                ("p99", h.percentile(99.0).unwrap_or(0.0)),
                ("max", h.max().unwrap_or(0.0)),
            ];
            for (stat, value) in stats {
                out.push_str(&format!("{prefix}_{name}{{stat=\"{stat}\"}} {value}\n"));
            }
        }
        out
    }

    /// Serializes the registry as a `"kind":"metrics"` JSON object (one
    /// store line): counters verbatim, histograms as their summary
    /// statistics (count/sum/min/mean/p50/p90/p99/max).
    pub fn to_value(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Value::Num(*v as f64)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Value::Obj(vec![
                            ("count".into(), Value::Num(h.count() as f64)),
                            ("sum".into(), Value::Num(h.sum())),
                            ("min".into(), Value::Num(h.min().unwrap_or(0.0))),
                            ("mean".into(), Value::Num(h.mean())),
                            ("p50".into(), Value::Num(h.percentile(50.0).unwrap_or(0.0))),
                            ("p90".into(), Value::Num(h.percentile(90.0).unwrap_or(0.0))),
                            ("p99".into(), Value::Num(h.percentile(99.0).unwrap_or(0.0))),
                            ("max".into(), Value::Num(h.max().unwrap_or(0.0))),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Obj(vec![
            ("kind".into(), Value::Str("metrics".into())),
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }
}

/// Lowercases a metric name and maps every character outside `[a-z0-9_]`
/// to `_`, the exposition format's identifier alphabet.
fn metric_name(name: &str) -> String {
    name.chars()
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => c,
            _ => '_',
        })
        .collect()
}

impl fmt::Display for MetricsRegistry {
    /// A human-readable multi-line summary for run footers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<24} {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<24} n={:<4} p50 {:>9.3}  p90 {:>9.3}  p99 {:>9.3}  max {:>9.3}",
                h.count(),
                h.percentile(50.0).unwrap_or(0.0),
                h.percentile(90.0).unwrap_or(0.0),
                h.percentile(99.0).unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_convention_for_tiny_samples() {
        // n = 1: every percentile is the sole sample.
        assert_eq!(nearest_rank(&[7.0], 0.0), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 100.0), Some(7.0));
        // n = 2: p50 is the LOWER sample (rank ceil(1.0) = 1), p51+ the upper.
        assert_eq!(nearest_rank(&[1.0, 9.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&[1.0, 9.0], 51.0), Some(9.0));
        assert_eq!(nearest_rank(&[1.0, 9.0], 100.0), Some(9.0));
        // n = 3: p50 is the middle sample.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        // Empty: no percentile exists.
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_on_100_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&sorted, 95.0), Some(95.0));
        assert_eq!(nearest_rank(&sorted, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&sorted, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.percentile(50.0), Some(2.0)); // ceil(2.0) = rank 2
    }

    #[test]
    fn windowed_histograms_bound_memory_but_count_lifetime() {
        let mut h = Histogram::windowed(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.observe(v);
        }
        // Only the 3 most recent samples are retained...
        assert_eq!(h.samples().len(), 3);
        assert_eq!(h.min(), Some(3.0));
        assert_eq!(h.max(), Some(5.0));
        assert!((h.sum() - 12.0).abs() < 1e-9);
        assert!((h.mean() - 4.0).abs() < 1e-9);
        // ...but the lifetime count keeps climbing.
        assert_eq!(h.count(), 5);
        assert_eq!(h.window(), Some(3));

        let mut reg = MetricsRegistry::new();
        for v in 0..100 {
            reg.observe_windowed("w", f64::from(v), 8);
        }
        let h = reg.histogram("w").unwrap();
        assert_eq!(h.samples().len(), 8);
        assert_eq!(h.count(), 100);
        // Merging preserves the window on first registration.
        let mut other = MetricsRegistry::new();
        other.merge(&reg);
        assert_eq!(other.histogram("w").unwrap().window(), Some(8));
        assert_eq!(other.histogram("w").unwrap().samples().len(), 8);
    }

    #[test]
    fn merge_adds_counters_and_concatenates_samples() {
        let mut a = MetricsRegistry::new();
        a.incr("jobs_completed", 2);
        a.observe("wait_ms", 1.0);
        let mut b = MetricsRegistry::new();
        b.incr("jobs_completed", 3);
        b.incr("jobs_failed", 1);
        b.observe("wait_ms", 3.0);
        b.observe("wall_ms", 5.0);
        a.merge(&b);
        assert_eq!(a.counter("jobs_completed"), 5);
        assert_eq!(a.counter("jobs_failed"), 1);
        assert_eq!(a.histogram("wait_ms").unwrap().samples(), &[1.0, 3.0]);
        assert_eq!(a.histogram("wall_ms").unwrap().count(), 1);
        // Merging an empty registry is the identity.
        let before = a.clone();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a, before);
    }

    #[test]
    fn remove_prefixed_drops_only_the_matching_series() {
        let mut m = MetricsRegistry::new();
        m.incr("stream_1_sla_violations", 1);
        m.incr("stream_10_sla_violations", 1);
        m.incr("stream_sla_violations", 2);
        m.observe("stream_1_frame_latency_ms", 4.0);
        m.observe("stream_frame_exec_ms", 3.0);
        m.remove_prefixed("stream_1_");
        let counters: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        let histograms: Vec<&str> = m.histograms().map(|(n, _)| n).collect();
        assert_eq!(
            counters,
            ["stream_10_sla_violations", "stream_sla_violations"]
        );
        assert_eq!(histograms, ["stream_frame_exec_ms"]);
    }

    #[test]
    fn prometheus_rendering_is_line_per_stat_with_sanitized_names() {
        let mut m = MetricsRegistry::new();
        m.incr("jobs completed!", 4);
        m.observe("Queue Wait-ms", 0.5);
        m.observe("Queue Wait-ms", 1.5);
        let text = m.to_prometheus("sdvbs");
        assert!(text.lines().all(|l| !l.is_empty()));
        assert!(text.contains("sdvbs_jobs_completed_ 4\n"));
        assert!(text.contains("sdvbs_queue_wait_ms{stat=\"count\"} 2\n"));
        assert!(text.contains("sdvbs_queue_wait_ms{stat=\"sum\"} 2\n"));
        assert!(text.contains("sdvbs_queue_wait_ms{stat=\"p50\"} 0.5\n"));
        assert!(text.contains("sdvbs_queue_wait_ms{stat=\"p99\"} 1.5\n"));
        // One counter line + nine stat lines for the single histogram.
        assert_eq!(text.lines().count(), 10);
        assert!(MetricsRegistry::new().to_prometheus("x").is_empty());
    }

    #[test]
    fn registry_roundtrips_to_a_store_line() {
        let mut m = MetricsRegistry::new();
        m.incr("jobs_completed", 3);
        m.incr("jobs_completed", 1);
        m.observe("queue_wait_ms", 0.5);
        m.observe("queue_wait_ms", 1.5);
        assert_eq!(m.counter("jobs_completed"), 4);
        let line = m.to_value().to_string_checked().unwrap();
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("metrics"));
        let h = v
            .get("histograms")
            .and_then(|h| h.get("queue_wait_ms"))
            .unwrap();
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(h.get("p50").and_then(Value::as_f64), Some(0.5));
    }
}
