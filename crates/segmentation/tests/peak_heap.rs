//! Peak heap of one `segment` call and one `segment_recursive` call at
//! QCIF, counted by a global allocator.
//!
//! The count is of bytes requested, not pages touched, so it repeats
//! exactly from run to run. A bound on it catches an allocation that grows
//! with the affinity graph's entry count — a triplet list, a CSR copy —
//! as soon as one returns. This file is its own test binary, and its tests
//! take turns on [`COUNTING`], so no other test allocates while one counts.

use sdvbs_profile::Profiler;
use sdvbs_segmentation::{segment, segment_recursive, SegmentationConfig};
use sdvbs_synth::segmentable_scene;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live and peak bytes requested through [`System`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` came from `System` through this
        // allocator; the caller guarantees `new_size` is valid for them.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by a test while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

/// Peak heap bytes requested above the live count while `f` runs.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// The bound: 32 MB. The pipeline peaks at 19.73 MB at QCIF, most of it
/// the 60-vector Lanczos basis (12.2 MB) and the 25-plane affinity stencil
/// (5.1 MB); with the triplet-built CSR affinity it replaced, the same
/// count read 101.17 MB.
const BOUND_BYTES: usize = 32_000_000;

#[test]
fn segment_at_qcif_peaks_under_32_mb() {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let scene = segmentable_scene(176, 144, 5, 4);
    let cfg = SegmentationConfig::default();
    let mut prof = Profiler::new();
    let (seg, peak) = peak_of(|| segment(&scene.image, &cfg, &mut prof));
    let seg = seg.expect("QCIF segmentation");
    assert_eq!(seg.labels().len(), 176 * 144);
    println!("segment at QCIF: peak heap {peak} bytes");
    assert!(
        peak < BOUND_BYTES,
        "segment at QCIF peaked at {peak} bytes of heap, bound {BOUND_BYTES}"
    );
}

/// The bound: 45 MB. The recursive pipeline peaks at 38.75 MB at QCIF,
/// most of it the region's CSR submatrix, the Lanczos basis and the
/// stencil; while `principal_submatrix` grew its arrays by doubling, the
/// same count read 53.08 MB.
const RECURSIVE_BOUND_BYTES: usize = 45_000_000;

#[test]
fn segment_recursive_at_qcif_peaks_under_its_bound() {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let scene = segmentable_scene(176, 144, 5, 4);
    let cfg = SegmentationConfig::default();
    let mut prof = Profiler::new();
    let (seg, peak) = peak_of(|| segment_recursive(&scene.image, &cfg, &mut prof));
    let seg = seg.expect("QCIF recursive segmentation");
    assert_eq!(seg.labels().len(), 176 * 144);
    println!("segment_recursive at QCIF: peak heap {peak} bytes");
    assert!(
        peak < RECURSIVE_BOUND_BYTES,
        "segment_recursive at QCIF peaked at {peak} bytes of heap, bound {RECURSIVE_BOUND_BYTES}"
    );
}
