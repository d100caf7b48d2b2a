//! Execution policies for SD-VBS's data-parallel kernels.
//!
//! The paper's Table IV measures 10²–10⁵ of intrinsic parallelism in the
//! suite's kernels; this crate is the layer that lets the reproduction
//! cash some of it in on a multicore host. An [`ExecPolicy`] selects how
//! many worker threads a kernel may use, and the chunking helpers split an
//! index space into contiguous per-worker ranges executed under
//! [`std::thread::scope`] — no dependencies, no unsafe, no thread pool to
//! manage.
//!
//! Every parallel kernel in the workspace is written so that
//! `ExecPolicy::Serial` and `ExecPolicy::Threads(n)` produce **bit-identical
//! results**: work is partitioned over disjoint output ranges (or merged
//! with an order-preserving reduction), never racing on shared accumulators.
//! Property tests in each kernel crate assert this equivalence.
//!
//! ```
//! use sdvbs_exec::{map_chunks, ExecPolicy};
//!
//! // Sum of squares over four worker chunks, merged in chunk order.
//! let partials = map_chunks(ExecPolicy::Threads(4), 1000, |range| {
//!     range.map(|i| i as u64 * i as u64).sum::<u64>()
//! });
//! let serial: u64 = (0..1000u64).map(|i| i * i).sum();
//! assert_eq!(partials.iter().sum::<u64>(), serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// How a data-parallel kernel should execute.
///
/// The default is [`ExecPolicy::Serial`], so existing callers and all
/// deterministic-by-seed experiments are unaffected unless they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// Single-threaded, in the calling thread (the reference semantics).
    #[default]
    Serial,
    /// Exactly this many worker threads (clamped to at least 1 and to the
    /// number of work items).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl ExecPolicy {
    /// Number of workers this policy yields for `items` units of work.
    ///
    /// Always at least 1; never more than `items` (an idle worker is pure
    /// overhead).
    pub fn threads_for(self, items: usize) -> usize {
        let requested = match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        };
        requested.min(items.max(1))
    }

    /// Whether this policy resolves to more than one worker for `items`.
    pub fn is_parallel(self, items: usize) -> bool {
        self.threads_for(items) > 1
    }

    /// Resolves [`ExecPolicy::Auto`] to a concrete [`ExecPolicy::Threads`]
    /// given the host's thread count; `Serial` and `Threads` pass through.
    ///
    /// `Auto` queries [`std::thread::available_parallelism`] at every call
    /// site, so a long sweep could observe different values (the OS may
    /// change a process's CPU affinity mid-run). Resolving once per
    /// pool/run and threading the concrete policy through keeps every
    /// record of that run consistent.
    pub fn resolve_with(self, auto_threads: usize) -> ExecPolicy {
        match self {
            ExecPolicy::Auto => ExecPolicy::Threads(auto_threads.max(1)),
            other => other,
        }
    }

    /// Resolves [`ExecPolicy::Auto`] by querying
    /// [`std::thread::available_parallelism`] once, now.
    pub fn resolve(self) -> ExecPolicy {
        self.resolve_with(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// The concrete worker count of a resolved policy (`Serial` = 1).
    ///
    /// Unlike [`ExecPolicy::threads_for`] this does not clamp to a work-item
    /// count; it reports what the policy *would* use given ample work, which
    /// is what a run record should store. `Auto` is resolved on the spot.
    pub fn worker_count(self) -> usize {
        match self.resolve() {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => unreachable!("resolve() never returns Auto"),
        }
    }
}

/// Splits `0..items` into `workers` contiguous ranges whose lengths differ
/// by at most one, in ascending order. Empty ranges are omitted.
pub fn split_ranges(items: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, items.max(1));
    let base = items / workers;
    let extra = items % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` once per contiguous chunk of `0..items`, in parallel per
/// `policy`. The first chunk runs on the calling thread.
///
/// A panic in any chunk propagates to the caller once all workers have
/// joined (the [`std::thread::scope`] contract).
pub fn for_each_chunk(policy: ExecPolicy, items: usize, f: impl Fn(Range<usize>) + Sync) {
    if items == 0 {
        return;
    }
    let workers = policy.threads_for(items);
    if workers <= 1 {
        f(0..items);
        return;
    }
    let ranges = split_ranges(items, workers);
    thread::scope(|s| {
        let f = &f;
        for r in ranges.iter().skip(1).cloned() {
            s.spawn(move || f(r));
        }
        f(ranges[0].clone());
    });
}

/// Maps each contiguous chunk of `0..items` through `f` and returns the
/// results **in chunk order** (ascending index ranges), so callers can
/// perform order-sensitive reductions and match serial semantics exactly.
pub fn map_chunks<T: Send>(
    policy: ExecPolicy,
    items: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    if items == 0 {
        return Vec::new();
    }
    let workers = policy.threads_for(items);
    if workers <= 1 {
        return vec![f(0..items)];
    }
    let ranges = split_ranges(items, workers);
    thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .skip(1)
            .cloned()
            .map(|r| s.spawn(move || f(r)))
            .collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(f(ranges[0].clone()));
        for h in handles {
            out.push(h.join().expect("worker panics propagate via scope"));
        }
        out
    })
}

/// Fills `out` in place, handing each worker a disjoint run of
/// `chunk`-aligned elements: `f(start, slice)` receives the element index
/// of `slice[0]`. `out.len()` must be a multiple of `chunk`.
///
/// This is the row-parallel image-fill primitive: with `chunk` = image
/// width, each worker owns whole rows, and writes never alias.
///
/// # Panics
///
/// Panics if `chunk` is zero or does not divide `out.len()`.
pub fn fill_chunks<T: Send>(
    policy: ExecPolicy,
    out: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "chunk length must be positive");
    assert_eq!(
        out.len() % chunk,
        0,
        "buffer length must be a multiple of the chunk length"
    );
    let rows = out.len() / chunk;
    if rows == 0 {
        return;
    }
    let workers = policy.threads_for(rows);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let ranges = split_ranges(rows, workers);
    thread::scope(|s| {
        let f = &f;
        let mut rest = out;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut((r.end - r.start) * chunk);
            rest = tail;
            let start = r.start * chunk;
            s.spawn(move || f(start, head));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_policy_is_one_worker() {
        assert_eq!(ExecPolicy::Serial.threads_for(1000), 1);
        assert!(!ExecPolicy::Serial.is_parallel(1000));
    }

    #[test]
    fn threads_policy_clamps_to_items_and_one() {
        assert_eq!(ExecPolicy::Threads(4).threads_for(1000), 4);
        assert_eq!(ExecPolicy::Threads(4).threads_for(3), 3);
        assert_eq!(ExecPolicy::Threads(0).threads_for(10), 1);
        assert_eq!(ExecPolicy::Threads(4).threads_for(0), 1);
    }

    #[test]
    fn auto_policy_is_at_least_one() {
        assert!(ExecPolicy::Auto.threads_for(64) >= 1);
    }

    #[test]
    fn resolve_pins_auto_and_passes_others_through() {
        assert_eq!(ExecPolicy::Auto.resolve_with(6), ExecPolicy::Threads(6));
        assert_eq!(ExecPolicy::Auto.resolve_with(0), ExecPolicy::Threads(1));
        assert_eq!(ExecPolicy::Serial.resolve_with(6), ExecPolicy::Serial);
        assert_eq!(
            ExecPolicy::Threads(3).resolve_with(6),
            ExecPolicy::Threads(3)
        );
        // resolve() agrees with the host query and never yields Auto.
        assert_ne!(ExecPolicy::Auto.resolve(), ExecPolicy::Auto);
    }

    #[test]
    fn worker_count_reports_unclamped_width() {
        assert_eq!(ExecPolicy::Serial.worker_count(), 1);
        assert_eq!(ExecPolicy::Threads(8).worker_count(), 8);
        assert_eq!(ExecPolicy::Threads(0).worker_count(), 1);
        assert!(ExecPolicy::Auto.worker_count() >= 1);
    }

    #[test]
    fn split_ranges_cover_exactly_once() {
        for items in [0usize, 1, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 4, 7, 16] {
                let ranges = split_ranges(items, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap before {r:?}");
                    assert!(r.end > r.start, "empty range emitted");
                    next = r.end;
                }
                assert_eq!(next, items, "{items} items over {workers} workers");
                if items > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                    let min = lens.iter().min().unwrap();
                    let max = lens.iter().max().unwrap();
                    assert!(max - min <= 1, "unbalanced split {lens:?}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        for threads in 1..=4 {
            let parts = map_chunks(ExecPolicy::Threads(threads), 100, |r| (r.start, r.end));
            let mut next = 0;
            for (s, e) in parts {
                assert_eq!(s, next);
                next = e;
            }
            assert_eq!(next, 100);
        }
    }

    #[test]
    fn for_each_chunk_visits_every_index_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        for_each_chunk(ExecPolicy::Threads(4), hits.len(), |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn fill_chunks_matches_serial_fill() {
        let width = 13;
        let rows = 37;
        let f = |i: usize| (i * 7 % 101) as f32;
        let mut serial = vec![0.0f32; width * rows];
        fill_chunks(ExecPolicy::Serial, &mut serial, width, |start, s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = f(start + off);
            }
        });
        for threads in [2usize, 3, 4, 8] {
            let mut par = vec![0.0f32; width * rows];
            fill_chunks(ExecPolicy::Threads(threads), &mut par, width, |start, s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = f(start + off);
                }
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_empty_items_is_empty() {
        let parts = map_chunks(ExecPolicy::Auto, 0, |_| 1u32);
        assert!(parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of the chunk")]
    fn fill_chunks_rejects_ragged_buffers() {
        let mut buf = vec![0u8; 10];
        fill_chunks(ExecPolicy::Serial, &mut buf, 3, |_, _| {});
    }
}
