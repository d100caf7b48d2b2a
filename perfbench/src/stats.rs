//! The benchmark's own arithmetic: nearest-rank medians, the tail rule,
//! the class-balanced latency, ratios with their base, failure
//! accounting, and the printed metric lines (with a parser, so tests can
//! read back what a run printed).

use sdvbs_trace::nearest_rank;

/// Percentiles a tail may be reported at, ascending.
const TAIL_GRID: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.5, 99.9];

/// A tail percentile needs at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median: always an observed sample (the lower one of
/// two). `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 50.0)
}

/// The tail rule: the highest grid percentile that still has at least
/// [`TAIL_BEYOND`] samples above its nearest rank, with its value.
/// `None` when even the lowest grid percentile has too few beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_GRID
        .iter()
        .rev()
        .find(|&&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank && n - rank >= TAIL_BEYOND
        })
        .and_then(|&p| nearest_rank(&v, p).map(|value| (p, value)))
}

/// Geometric mean; `None` for no values or a value that is not
/// positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|&v| v > 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// `latency_ms`, the one latency every workload reports: the geometric
/// mean, over the workload's classes of operation, of each class's
/// nearest-rank median. Each class weighs the same whatever its cost or
/// sample count, so a class that sits between two others in cost cannot
/// decide the value, as it can for the median of a mixed sample. `None`
/// when a class has no samples.
pub fn class_latency(classes: &[Vec<f64>]) -> Option<Metric> {
    let medians: Option<Vec<f64>> = classes.iter().map(|c| median(c)).collect();
    let n = classes.iter().map(Vec::len).sum();
    geomean(&medians?).map(|v| Metric::new("latency_ms", v, "ms", n))
}

/// Operations attempted and failed in one run. A failed operation is
/// also an operation that missed any latency limit: callers count SLA
/// hits only among operations that succeeded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Whether one operation met its latency limit: it must have succeeded,
/// at full size, and been seen done within `limit_ms`. A refused or
/// failed operation misses any limit, whatever its latency.
pub fn meets_sla(ok: bool, full_size: bool, latency_ms: Option<f64>, limit_ms: f64) -> bool {
    ok && full_size && latency_ms.is_some_and(|l| l <= limit_ms)
}

/// One printed metric: a name, a value, a unit, and what the value rests
/// on — the sample count, the percentile for a tail, or the base of a
/// ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value was computed from.
    pub n: usize,
    /// The percentile, for a tail.
    pub pct: Option<f64>,
    /// `(numerator, denominator)`, for a ratio.
    pub base: Option<(u64, u64)>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            n,
            pct: None,
            base: None,
        }
    }

    /// The median of `samples`, or `None` when there are none.
    pub fn median_of(name: impl Into<String>, samples: &[f64], unit: &str) -> Option<Metric> {
        median(samples).map(|v| Metric::new(name, v, unit, samples.len()))
    }

    /// The tail of `samples` by [`tail`], or `None` when too few.
    pub fn tail_of(name: impl Into<String>, samples: &[f64], unit: &str) -> Option<Metric> {
        tail(samples).map(|(p, v)| Metric {
            pct: Some(p),
            ..Metric::new(name, v, unit, samples.len())
        })
    }

    /// `num / den` as a share, printed with its base. A zero base gives
    /// 0 rather than NaN.
    pub fn ratio(name: impl Into<String>, num: u64, den: u64) -> Metric {
        let value = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        Metric {
            base: Some((num, den)),
            ..Metric::new(name, value, "share", den as usize)
        }
    }

    /// A count: the value is the number itself.
    pub fn count(name: impl Into<String>, value: u64) -> Metric {
        Metric::new(name, value as f64, "count", 1)
    }

    /// `metric <name> <value> <unit> n=<n> [p=<pct>] [base=<num>/<den>]`.
    pub fn line(&self) -> String {
        let mut s = format!(
            "metric {} {} {} n={}",
            self.name, self.value, self.unit, self.n
        );
        if let Some(p) = self.pct {
            s.push_str(&format!(" p={p}"));
        }
        if let Some((num, den)) = self.base {
            s.push_str(&format!(" base={num}/{den}"));
        }
        s
    }

    /// Parses a line printed by [`Metric::line`].
    pub fn parse_line(line: &str) -> Result<Metric, String> {
        let mut it = line.split_whitespace();
        if it.next() != Some("metric") {
            return Err(format!("not a metric line: {line:?}"));
        }
        let name = it.next().ok_or("missing name")?;
        let value: f64 = it
            .next()
            .ok_or("missing value")?
            .parse()
            .map_err(|e| format!("bad value: {e}"))?;
        let unit = it.next().ok_or("missing unit")?;
        let mut metric = Metric::new(name, value, unit, 0);
        let mut saw_n = false;
        for field in it {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field {field:?}"))?;
            match key {
                "n" => {
                    metric.n = val.parse().map_err(|e| format!("bad n: {e}"))?;
                    saw_n = true;
                }
                "p" => metric.pct = Some(val.parse().map_err(|e| format!("bad p: {e}"))?),
                "base" => {
                    let (num, den) = val.split_once('/').ok_or("base needs num/den")?;
                    metric.base = Some((
                        num.parse().map_err(|e| format!("bad base: {e}"))?,
                        den.parse().map_err(|e| format!("bad base: {e}"))?,
                    ));
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        if !saw_n {
            return Err("missing n".into());
        }
        Ok(metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        // n = 2: the lower sample, never an unobserved midpoint.
        assert_eq!(median(&[3.0, 1.0]), Some(1.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99.5 leaves 5, p99 leaves exactly 10.
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 beyond; p95 only 5.
        assert_eq!(tail(&samples), Some((90.0, 90.0)));
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        // p75: rank ceil(29.25) = 30 leaves 9 — too few; nothing qualifies.
        assert_eq!(tail(&samples), None);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((75.0, 30.0)));
        let m = Metric::tail_of("miss_tail_ms", &samples, "ms").unwrap();
        assert_eq!(m.line(), "metric miss_tail_ms 30 ms n=40 p=75");
    }

    #[test]
    fn latency_is_the_geomean_of_class_medians() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        // Class medians 2 (nearest rank of 1,2,3,4) and 50: the sample
        // counts do not weigh, the classes do.
        let m = class_latency(&[vec![4.0, 1.0, 3.0, 2.0], vec![50.0]]).unwrap();
        assert!((m.value - 10.0).abs() < 1e-12);
        assert_eq!((m.name.as_str(), m.n), ("latency_ms", 5));
        assert_eq!(class_latency(&[vec![1.0], vec![]]), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let m = Metric::ratio("engine.hit_ratio", 3, 12);
        assert_eq!(m.value, 0.25);
        assert_eq!(
            m.line(),
            "metric engine.hit_ratio 0.25 share n=12 base=3/12"
        );
        let zero = Metric::ratio("stream.dropped_ratio", 0, 0);
        assert_eq!(zero.value, 0.0);
        assert_eq!(zero.base, Some((0, 0)));
    }

    #[test]
    fn failures_count_against_attempts_and_miss_the_sla() {
        // (ok, full size, latency): on time, late, degraded, refused,
        // and failed after a fast answer.
        let outcomes = [
            (true, true, Some(10.0)),
            (true, true, Some(120.0)),
            (true, false, Some(10.0)),
            (false, true, None),
            (false, true, Some(5.0)),
        ];
        let mut tally = Tally::default();
        let mut on_time = 0;
        for (ok, full, latency) in outcomes {
            tally.record(ok);
            on_time += u64::from(meets_sla(ok, full, latency, 100.0));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        let share = Metric::ratio("frames_on_time", on_time, tally.attempted);
        assert_eq!(share.base, Some((1, 5)));
        assert_eq!(share.value, 0.2);
        let mut total = Tally::default();
        total.absorb(tally);
        total.absorb(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(
            total,
            Tally {
                attempted: 7,
                failed: 2
            }
        );
    }

    #[test]
    fn printed_lines_parse_back() {
        for m in [
            Metric::new("disparity_ms", 6.617_25, "ms", 20),
            Metric::tail_of(
                "miss_tail_ms",
                &(0..50).map(f64::from).collect::<Vec<_>>(),
                "ms",
            )
            .unwrap(),
            Metric::ratio("engine.coalesced_ratio", 41, 1640),
            Metric::count("cluster.jobs_stolen", 12),
        ] {
            assert_eq!(Metric::parse_line(&m.line()).unwrap(), m);
        }
        assert!(Metric::parse_line("metric x 1 ms").is_err());
        assert!(Metric::parse_line("metric x one ms n=1").is_err());
        assert!(Metric::parse_line("reconcile x").is_err());
        assert!(Metric::parse_line("metric x 1 ms n=1 q=2").is_err());
    }
}
