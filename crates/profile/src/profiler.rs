//! Scoped, nesting-aware kernel timers with an optional trace side
//! channel.

use sdvbs_trace::Recorder;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Accumulated timing for one named kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name as passed to [`Profiler::kernel`].
    pub name: String,
    /// Total *self* time: time inside this kernel excluding nested kernels.
    pub self_time: Duration,
    /// Number of times the kernel scope was entered.
    pub calls: u64,
}

/// A profiling operation that cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// [`Profiler::absorb`] was handed a profiler with kernel scopes still
    /// open — its self-time attribution is incomplete, so merging it would
    /// corrupt the totals.
    OpenScopes {
        /// How many scopes were still open.
        open: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::OpenScopes { open } => {
                write!(
                    f,
                    "cannot absorb a profiler with {open} open kernel scope(s)"
                )
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// How to read a [`Report`]'s occupancy percentages.
///
/// Under a parallel `ExecPolicy`, worker profilers measure *CPU* time on
/// their own threads and [`Profiler::absorb`] sums them, while the
/// [`Profiler::run`] total stays wall-clock — so kernel occupancies become
/// average core-utilization figures and may legitimately exceed 100%.
/// Nothing is clamped; this label says which way to read the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenominatorMode {
    /// Kernel self-times and the total are the same single thread's
    /// wall-clock; occupancies are wall-clock fractions summing to ~100%.
    WallClock,
    /// Kernel self-times are CPU time summed across absorbed worker
    /// profilers over a wall-clock total; occupancies read as per-kernel
    /// core utilization and may exceed 100%.
    SummedCpu,
}

impl DenominatorMode {
    /// Stable label used in reports, CSV comments, and run records.
    pub fn label(self) -> &'static str {
        match self {
            DenominatorMode::WallClock => "wall-clock",
            DenominatorMode::SummedCpu => "summed-cpu",
        }
    }
}

/// A scoped profiler attributing wall-clock time to named kernels.
///
/// Nested kernel scopes are handled the way a profile reader expects: a
/// kernel's reported time is its *self* time, with nested kernel time
/// attributed to the inner kernel only. The remainder of the run not spent
/// in any kernel is reported as "non-kernel work", matching the
/// `NonKernelWork` series in the paper's Figure 3.
///
/// The profiler is deliberately cheap (one `Instant::now` pair per scope) so
/// enabling it does not distort the occupancy percentages it measures. With
/// tracing enabled ([`Profiler::with_tracing`]) each scope additionally
/// emits a begin/end event pair into a per-thread [`Recorder`] — two `Vec`
/// pushes — so traced runs stay within a few percent of untraced ones.
///
/// Scopes are closed by a drop guard, so a kernel closure that panics
/// (e.g. under the runner's `catch_unwind` isolation) still closes its
/// scope on unwind: the profiler never leaks an open scope, and
/// [`Profiler::absorb`] after a caught panic succeeds.
#[derive(Debug, Clone)]
pub struct Profiler {
    totals: HashMap<String, (Duration, u64)>,
    /// First-seen order, so reports are stable and mirror pipeline order.
    order: Vec<String>,
    /// Stack of open scopes: (name, start, accumulated child time).
    stack: Vec<(String, Instant, Duration)>,
    /// Total duration of the outermost `run` calls.
    total: Duration,
    /// Worker profilers merged via [`Profiler::absorb`] (including
    /// transitively); non-zero means self-times are summed CPU.
    absorbed: u64,
    /// The trace side channel, when enabled.
    trace: Option<Recorder>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates an empty profiler (tracing disabled).
    pub fn new() -> Self {
        Profiler {
            totals: HashMap::new(),
            order: Vec::new(),
            stack: Vec::new(),
            total: Duration::ZERO,
            absorbed: 0,
            trace: None,
        }
    }

    /// Creates an empty profiler that also records every scope as a
    /// begin/end span pair on a fresh trace track.
    pub fn with_tracing() -> Self {
        let mut p = Self::new();
        p.trace = Some(Recorder::new());
        p
    }

    /// Like [`Profiler::with_tracing`], but recording onto an existing
    /// track — used by drivers that keep one logical timeline across
    /// several profiler instances (e.g. the runner's timed iterations).
    pub fn with_tracing_on(track: sdvbs_trace::TrackId) -> Self {
        let mut p = Self::new();
        p.trace = Some(Recorder::on_track(track));
        p
    }

    /// Whether this profiler records trace events.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// A fresh, empty profiler for a worker thread: it inherits this
    /// profiler's tracing mode (on its own track, so concurrent worker
    /// spans never interleave on one timeline) and is meant to be merged
    /// back with [`Profiler::absorb`] in worker order.
    pub fn worker(&self) -> Profiler {
        if self.is_tracing() {
            Profiler::with_tracing()
        } else {
            Profiler::new()
        }
    }

    /// The trace track this profiler records onto, if tracing.
    pub fn trace_track(&self) -> Option<sdvbs_trace::TrackId> {
        self.trace.as_ref().map(Recorder::track)
    }

    /// Takes the accumulated trace events, leaving an empty recorder on
    /// the same track (so the profiler can keep tracing).
    pub fn take_trace(&mut self) -> Option<Recorder> {
        let track = self.trace.as_ref()?.track();
        self.trace.replace(Recorder::on_track(track))
    }

    /// Times `f` as the whole benchmark run; the elapsed time becomes the
    /// denominator for occupancy percentages.
    ///
    /// May be called multiple times; totals accumulate (useful for averaging
    /// over repetitions). If `f` unwinds, the elapsed time is still added
    /// and the trace span still closes.
    pub fn run<T>(&mut self, f: impl FnOnce(&mut Profiler) -> T) -> T {
        if let Some(t) = &mut self.trace {
            t.begin("run", "run");
        }
        let start = Instant::now();
        // Closes the run (total + trace span) even if `f` unwinds.
        struct RunGuard<'a> {
            prof: &'a mut Profiler,
            start: Instant,
        }
        impl Drop for RunGuard<'_> {
            fn drop(&mut self) {
                self.prof.total += self.start.elapsed();
                if let Some(t) = &mut self.prof.trace {
                    t.end();
                }
            }
        }
        let guard = RunGuard { prof: self, start };
        // Deliberately borrow through the guard so it outlives the call.
        f(guard.prof)
    }

    /// Times `f` under the kernel name `name`.
    ///
    /// Nested invocations are allowed; the parent kernel's self time
    /// excludes the child's elapsed time. The scope is closed by a drop
    /// guard, so it is accounted (and its trace span ended) even when `f`
    /// unwinds — a panicking kernel inside `catch_unwind` leaves the
    /// profiler consistent and absorbable.
    pub fn kernel<T>(&mut self, name: &str, f: impl FnOnce(&mut Profiler) -> T) -> T {
        self.open_scope(name);
        let depth = self.stack.len();
        struct ScopeGuard<'a> {
            prof: &'a mut Profiler,
            depth: usize,
        }
        impl Drop for ScopeGuard<'_> {
            fn drop(&mut self) {
                // On the normal path this closes exactly our scope; on an
                // unwind it also closes any deeper scopes whose own guards
                // ran first (they already popped), so the loop usually
                // runs once.
                while self.prof.stack.len() >= self.depth {
                    self.prof.close_scope();
                }
            }
        }
        let guard = ScopeGuard { prof: self, depth };
        f(guard.prof)
    }

    /// Pushes a scope and emits its trace begin.
    fn open_scope(&mut self, name: &str) {
        if let Some(t) = &mut self.trace {
            t.begin(name, "kernel");
        }
        self.stack
            .push((name.to_string(), Instant::now(), Duration::ZERO));
    }

    /// Pops the innermost scope, attributing self time to its kernel and
    /// elapsed time to the parent's child accumulator. Must only be called
    /// with a non-empty stack; [`Profiler::kernel`]'s guard guarantees it.
    fn close_scope(&mut self) {
        let Some((name, start, child)) = self.stack.pop() else {
            return;
        };
        let elapsed = start.elapsed();
        let self_time = elapsed.saturating_sub(child);
        if let Some((_, _, parent_child)) = self.stack.last_mut() {
            *parent_child += elapsed;
        }
        let entry = self.totals.entry(name.clone()).or_insert_with(|| {
            self.order.push(name);
            (Duration::ZERO, 0)
        });
        entry.0 += self_time;
        entry.1 += 1;
        if let Some(t) = &mut self.trace {
            t.end();
        }
    }

    /// Adds an externally measured duration to kernel `name` (used by
    /// drivers that time work out-of-line).
    pub fn add_kernel_time(&mut self, name: &str, d: Duration) {
        let entry = self.totals.entry(name.to_string()).or_insert_with(|| {
            self.order.push(name.to_string());
            (Duration::ZERO, 0)
        });
        entry.0 += d;
        entry.1 += 1;
    }

    /// Total time accumulated by [`Profiler::run`].
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Merges another profiler's measurements into this one.
    ///
    /// This is the thread-safe profiling path for data-parallel kernels:
    /// each worker times its share of the work into a private `Profiler`
    /// (see [`Profiler::worker`]), and the coordinator absorbs them in
    /// worker order, so per-kernel attribution (the paper's Figure 3
    /// occupancy decomposition) survives parallel execution. Under a
    /// parallel `ExecPolicy` the absorbed self-times are *CPU* time summed
    /// across workers, so they may exceed the wall-clock `run` window —
    /// the resulting [`Report`] labels itself
    /// [`DenominatorMode::SummedCpu`] and occupancies then read as average
    /// core-utilization per kernel rather than wall-clock fractions.
    ///
    /// Kernels first seen in `other` keep their first-seen order after the
    /// kernels already known to `self`. Trace events are merged too,
    /// keeping the worker's own track.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::OpenScopes`] — and leaves `self` untouched —
    /// if `other` still has open kernel scopes, i.e. it was captured
    /// mid-measurement. (With the drop-guard scope closing this cannot
    /// happen to a profiler that merely observed a panicking kernel; it
    /// guards against absorbing a profiler actively in use.)
    pub fn absorb(&mut self, other: Profiler) -> Result<(), ProfileError> {
        if !other.stack.is_empty() {
            return Err(ProfileError::OpenScopes {
                open: other.stack.len(),
            });
        }
        for name in other.order {
            let (self_time, calls) = other.totals[&name];
            let entry = self.totals.entry(name.clone()).or_insert_with(|| {
                self.order.push(name);
                (Duration::ZERO, 0)
            });
            entry.0 += self_time;
            entry.1 += calls;
        }
        self.total += other.total;
        self.absorbed += 1 + other.absorbed;
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            // A traced worker absorbed into an untraced coordinator keeps
            // its events (the coordinator adopts the recorder).
            (mine @ None, Some(theirs)) if !theirs.is_empty() => *mine = Some(theirs),
            _ => {}
        }
        Ok(())
    }

    /// Produces an occupancy report.
    ///
    /// If [`Profiler::run`] was never used, the denominator falls back to
    /// the sum of kernel self times (so occupancies still total 100%).
    pub fn report(&self) -> Report {
        let kernels: Vec<KernelStat> = self
            .order
            .iter()
            .map(|name| {
                let (self_time, calls) = self.totals[name];
                KernelStat {
                    name: name.clone(),
                    self_time,
                    calls,
                }
            })
            .collect();
        let kernel_sum: Duration = kernels.iter().map(|k| k.self_time).sum();
        let total = if self.total > Duration::ZERO {
            self.total
        } else {
            kernel_sum
        };
        Report {
            kernels,
            total,
            kernel_sum,
            mode: if self.absorbed > 0 {
                DenominatorMode::SummedCpu
            } else {
                DenominatorMode::WallClock
            },
        }
    }

    /// Clears all accumulated measurements (tracing mode and track are
    /// kept, with a fresh, empty recorder).
    pub fn reset(&mut self) {
        self.totals.clear();
        self.order.clear();
        self.stack.clear();
        self.total = Duration::ZERO;
        self.absorbed = 0;
        self.take_trace();
    }
}

/// An occupancy report: per-kernel self time, percentage of the total run,
/// and the non-kernel remainder — the quantities plotted in the paper's
/// Figure 3.
#[derive(Debug, Clone)]
pub struct Report {
    kernels: Vec<KernelStat>,
    total: Duration,
    kernel_sum: Duration,
    mode: DenominatorMode,
}

impl Report {
    /// Per-kernel statistics in first-seen order.
    pub fn kernels(&self) -> &[KernelStat] {
        &self.kernels
    }

    /// Total run duration (the occupancy denominator).
    pub fn total(&self) -> Duration {
        self.total
    }

    /// How to read the occupancy percentages: wall-clock fractions, or
    /// summed worker CPU over a wall-clock total (which may exceed 100%).
    pub fn mode(&self) -> DenominatorMode {
        self.mode
    }

    /// Occupancy percentage for kernel `name`, or `None` if it never ran.
    pub fn occupancy(&self, name: &str) -> Option<f64> {
        let k = self.kernels.iter().find(|k| k.name == name)?;
        Some(percentage(k.self_time, self.total))
    }

    /// Time not attributed to any kernel ("NonKernelWork" in Figure 3).
    ///
    /// Saturates at zero under [`DenominatorMode::SummedCpu`], where the
    /// kernel sum can exceed the wall-clock total.
    pub fn non_kernel(&self) -> Duration {
        self.total.saturating_sub(self.kernel_sum)
    }

    /// Non-kernel occupancy percentage.
    pub fn non_kernel_percent(&self) -> f64 {
        percentage(self.non_kernel(), self.total)
    }

    /// Serializes the report as CSV (`kernel,self_ms,calls,percent`)
    /// with a trailing `NonKernelWork` row — machine-readable output for
    /// external plotting of the Figure 3 data. The first line is a `#`
    /// comment naming the denominator mode, so a consumer can tell
    /// wall-clock fractions from summed-CPU utilization (the latter may
    /// exceed 100% and is deliberately not clamped).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# denominator: {}\n", self.mode.label());
        out.push_str("kernel,self_ms,calls,percent\n");
        for k in &self.kernels {
            out.push_str(&format!(
                "{},{:.6},{},{:.4}\n",
                k.name,
                k.self_time.as_secs_f64() * 1e3,
                k.calls,
                percentage(k.self_time, self.total)
            ));
        }
        out.push_str(&format!(
            "NonKernelWork,{:.6},0,{:.4}\n",
            self.non_kernel().as_secs_f64() * 1e3,
            self.non_kernel_percent()
        ));
        out
    }

    /// All `(name, percent)` pairs plus the non-kernel remainder, in
    /// first-seen order — one column of the paper's Figure 3.
    pub fn occupancy_table(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .kernels
            .iter()
            .map(|k| (k.name.clone(), percentage(k.self_time, self.total)))
            .collect();
        rows.push(("NonKernelWork".to_string(), self.non_kernel_percent()));
        rows
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total {:>12.3} ms  [{} denominator{}]",
            self.total.as_secs_f64() * 1e3,
            self.mode.label(),
            if self.mode == DenominatorMode::SummedCpu {
                "; occupancy is per-kernel core utilization and may exceed 100%"
            } else {
                ""
            }
        )?;
        for (name, pct) in self.occupancy_table() {
            let time = if name == "NonKernelWork" {
                self.non_kernel()
            } else {
                self.kernels
                    .iter()
                    .find(|k| k.name == name)
                    .map(|k| k.self_time)
                    .unwrap_or_default()
            };
            writeln!(
                f,
                "  {name:<24} {:>10.3} ms {pct:>6.2}%",
                time.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

fn percentage(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / whole.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::sleep;

    #[test]
    fn kernel_times_accumulate() {
        let mut p = Profiler::new();
        p.run(|p| {
            p.kernel("A", |_| sleep(Duration::from_millis(5)));
            p.kernel("A", |_| sleep(Duration::from_millis(5)));
            p.kernel("B", |_| sleep(Duration::from_millis(2)));
        });
        let r = p.report();
        let a = &r.kernels()[0];
        assert_eq!(a.name, "A");
        assert_eq!(a.calls, 2);
        assert!(a.self_time >= Duration::from_millis(9));
        assert!(r.total() >= Duration::from_millis(11));
    }

    #[test]
    fn nested_kernels_attribute_self_time() {
        let mut p = Profiler::new();
        p.run(|p| {
            p.kernel("outer", |p| {
                sleep(Duration::from_millis(4));
                p.kernel("inner", |_| sleep(Duration::from_millis(8)));
            });
        });
        let r = p.report();
        let outer = r.kernels().iter().find(|k| k.name == "outer").unwrap();
        let inner = r.kernels().iter().find(|k| k.name == "inner").unwrap();
        assert!(inner.self_time >= Duration::from_millis(7));
        // Outer self time must exclude the inner 8 ms.
        assert!(outer.self_time < Duration::from_millis(8));
    }

    #[test]
    fn occupancies_sum_to_about_100() {
        let mut p = Profiler::new();
        p.run(|p| {
            p.kernel("k1", |_| sleep(Duration::from_millis(3)));
            p.kernel("k2", |_| sleep(Duration::from_millis(3)));
        });
        let r = p.report();
        let sum: f64 = r.occupancy_table().iter().map(|(_, pct)| pct).sum();
        assert!((sum - 100.0).abs() < 1.0, "sum was {sum}");
    }

    #[test]
    fn non_kernel_work_is_remainder() {
        let mut p = Profiler::new();
        p.run(|p| {
            sleep(Duration::from_millis(6));
            p.kernel("k", |_| sleep(Duration::from_millis(2)));
        });
        let r = p.report();
        // Exactly the run total minus the kernels' self time, whatever
        // the sleeps actually took.
        let kernel_sum: Duration = r.kernels().iter().map(|k| k.self_time).sum();
        assert_eq!(r.non_kernel(), r.total() - kernel_sum);
        assert_eq!(
            r.non_kernel_percent(),
            100.0 * r.non_kernel().as_secs_f64() / r.total().as_secs_f64()
        );
        assert!(r.non_kernel() >= Duration::from_millis(5));
    }

    #[test]
    fn report_without_run_uses_kernel_sum() {
        let mut p = Profiler::new();
        p.kernel("only", |_| sleep(Duration::from_millis(2)));
        let r = p.report();
        assert!(r.occupancy("only").unwrap() > 99.0);
        assert_eq!(r.non_kernel(), Duration::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Profiler::new();
        p.run(|p| p.kernel("k", |_| ()));
        p.reset();
        let r = p.report();
        assert!(r.kernels().is_empty());
        assert_eq!(r.total(), Duration::ZERO);
        assert_eq!(r.mode(), DenominatorMode::WallClock);
    }

    #[test]
    fn kernel_returns_closure_value() {
        let mut p = Profiler::new();
        let v = p.kernel("compute", |_| 40 + 2);
        assert_eq!(v, 42);
    }

    #[test]
    fn panicking_kernel_closes_its_scope() {
        // The regression this pins down: a kernel closure that unwinds
        // (caught by the runner pool's catch_unwind) used to leak an open
        // scope, after which absorbing the profiler aborted the
        // coordinator via an assert. The drop guard must close the scope
        // on unwind, attribute the time, and leave the profiler
        // absorbable.
        let mut p = Profiler::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run(|p| {
                p.kernel("outer", |p| {
                    p.kernel("inner", |_| {
                        sleep(Duration::from_millis(2));
                        panic!("injected kernel panic");
                    })
                })
            })
        }));
        assert!(result.is_err(), "the panic must propagate");
        // Both scopes were closed by their guards...
        let r = p.report();
        assert_eq!(r.kernels().len(), 2);
        let inner = r.kernels().iter().find(|k| k.name == "inner").unwrap();
        assert_eq!(inner.calls, 1);
        assert!(inner.self_time >= Duration::from_millis(1));
        // ...the run window still accumulated...
        assert!(p.total() >= Duration::from_millis(1));
        // ...and absorbing the profiler succeeds instead of aborting.
        let mut main = Profiler::new();
        assert_eq!(main.absorb(p), Ok(()));
        assert_eq!(main.report().kernels().len(), 2);
    }

    #[test]
    fn absorb_merges_totals_calls_and_order() {
        let mut main = Profiler::new();
        main.add_kernel_time("A", Duration::from_millis(4));
        let mut worker = Profiler::new();
        worker.add_kernel_time("A", Duration::from_millis(6));
        worker.add_kernel_time("B", Duration::from_millis(3));
        main.absorb(worker).unwrap();
        let r = main.report();
        let names: Vec<&str> = r.kernels().iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
        assert_eq!(r.kernels()[0].self_time, Duration::from_millis(10));
        assert_eq!(r.kernels()[0].calls, 2);
        assert_eq!(r.kernels()[1].self_time, Duration::from_millis(3));
    }

    #[test]
    fn absorb_from_scoped_threads_matches_serial_attribution() {
        // The pattern every parallel kernel uses: per-worker profilers,
        // absorbed in worker order.
        let mut main = Profiler::new();
        let workers: Vec<Profiler> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut p = Profiler::new();
                        p.kernel("SSD", |_| sleep(Duration::from_millis(2)));
                        p
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in workers {
            main.absorb(w).unwrap();
        }
        let r = main.report();
        assert_eq!(r.kernels()[0].calls, 4);
        assert!(r.kernels()[0].self_time >= Duration::from_millis(8));
    }

    #[test]
    fn absorb_rejects_open_scopes_recoverably() {
        let mut open = Profiler::new();
        open.stack
            .push(("open".into(), Instant::now(), Duration::ZERO));
        let mut main = Profiler::new();
        main.add_kernel_time("kept", Duration::from_millis(1));
        // A typed error, not a panic — and the target is left untouched.
        assert_eq!(main.absorb(open), Err(ProfileError::OpenScopes { open: 1 }));
        let r = main.report();
        assert_eq!(r.kernels().len(), 1);
        assert_eq!(r.mode(), DenominatorMode::WallClock);
    }

    #[test]
    fn summed_cpu_occupancy_may_exceed_100_percent_unclamped() {
        // Under ExecPolicy::Threads(n) the absorbed worker self-times are
        // CPU time, so a 2 ms wall-clock run can carry ~4 workers × 5 ms
        // of kernel time. The report must say so (SummedCpu) and must NOT
        // clamp the >100% occupancy.
        let mut main = Profiler::new();
        main.run(|_| sleep(Duration::from_millis(2)));
        for _ in 0..4 {
            let mut w = Profiler::new();
            w.add_kernel_time("SSD", Duration::from_millis(5));
            main.absorb(w).unwrap();
        }
        let r = main.report();
        assert_eq!(r.mode(), DenominatorMode::SummedCpu);
        let occ = r.occupancy("SSD").unwrap();
        assert!(occ > 100.0, "occupancy should exceed 100%, got {occ}");
        // The rendered forms carry the label.
        assert!(r.to_string().contains("summed-cpu"));
        assert!(r.to_csv().starts_with("# denominator: summed-cpu\n"));
        // A serial report stays wall-clock.
        let mut serial = Profiler::new();
        serial.run(|p| p.kernel("k", |_| ()));
        assert_eq!(serial.report().mode(), DenominatorMode::WallClock);
        assert!(serial
            .report()
            .to_csv()
            .starts_with("# denominator: wall-clock\n"));
    }

    #[test]
    fn add_kernel_time_merges() {
        let mut p = Profiler::new();
        p.add_kernel_time("ext", Duration::from_millis(10));
        p.add_kernel_time("ext", Duration::from_millis(5));
        let r = p.report();
        assert_eq!(r.kernels()[0].self_time, Duration::from_millis(15));
        assert_eq!(r.kernels()[0].calls, 2);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let mut p = Profiler::new();
        p.run(|p| {
            p.kernel("A", |_| sleep(Duration::from_millis(2)));
            p.kernel("B", |_| ());
        });
        let csv = p.report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# denominator: wall-clock");
        assert_eq!(lines[1], "kernel,self_ms,calls,percent");
        assert_eq!(lines.len(), 5); // comment + header + A + B + NonKernelWork
        assert!(lines[2].starts_with("A,"));
        assert!(lines[4].starts_with("NonKernelWork,"));
        // Percent column parses as f64.
        let pct: f64 = lines[2].split(',').nth(3).unwrap().parse().unwrap();
        assert!(pct > 0.0);
    }

    #[test]
    fn display_contains_kernel_names() {
        let mut p = Profiler::new();
        p.run(|p| p.kernel("MyKernel", |_| ()));
        let s = p.report().to_string();
        assert!(s.contains("MyKernel"));
        assert!(s.contains("NonKernelWork"));
        assert!(s.contains("wall-clock"));
    }

    #[test]
    fn tracing_emits_balanced_spans_as_a_side_channel() {
        let mut p = Profiler::with_tracing();
        p.run(|p| {
            p.kernel("A", |p| {
                p.kernel("B", |_| ());
            });
        });
        let rec = p.take_trace().unwrap();
        let trace = sdvbs_trace::Trace::new(rec.into_events());
        let stats = trace.validate().unwrap();
        assert_eq!(stats.spans, 3); // run + A + B
        assert_eq!(stats.kernel_spans, 2);
        assert_eq!(stats.max_depth, 3);
        // The timing totals are unaffected by tracing.
        assert_eq!(p.report().kernels().len(), 2);
    }

    #[test]
    fn tracing_survives_a_panicking_kernel() {
        let mut p = Profiler::with_tracing();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            p.run(|p| p.kernel("boom", |_| panic!("x")))
        }));
        let rec = p.take_trace().unwrap();
        // Guards closed both the kernel span and the run span on unwind.
        assert_eq!(rec.open_depth(), 0);
        let trace = sdvbs_trace::Trace::new(rec.into_events());
        assert_eq!(trace.validate().unwrap().spans, 2);
    }

    #[test]
    fn worker_profilers_inherit_tracing_on_distinct_tracks() {
        let traced = Profiler::with_tracing();
        let w = traced.worker();
        assert!(w.is_tracing());
        assert_ne!(w.trace_track(), traced.trace_track());
        let untraced = Profiler::new();
        assert!(!untraced.worker().is_tracing());
    }

    #[test]
    fn absorb_merges_trace_events_keeping_tracks() {
        let mut main = Profiler::with_tracing();
        let mut w = main.worker();
        w.kernel("SSD", |_| ());
        let w_track = w.trace_track().unwrap();
        main.absorb(w).unwrap();
        let rec = main.take_trace().unwrap();
        assert!(rec.events().iter().any(|e| e.track == w_track));
    }
}
