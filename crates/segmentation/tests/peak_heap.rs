//! Peak heap of one `segment` call at QCIF, counted by a global allocator.
//!
//! The count is of bytes requested, not pages touched, so it repeats
//! exactly from run to run. A bound on it catches an allocation that grows
//! with the affinity graph's entry count — a triplet list, a CSR copy —
//! as soon as one returns. This file is its own test binary with a single
//! test, so no other test allocates while it counts.

use sdvbs_profile::Profiler;
use sdvbs_segmentation::{segment, SegmentationConfig};
use sdvbs_synth::segmentable_scene;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The bound: 32 MB. The pipeline peaks at 19.73 MB at QCIF, most of it
/// the 60-vector Lanczos basis (12.2 MB) and the 25-plane affinity stencil
/// (5.1 MB); with the triplet-built CSR affinity it replaced, the same
/// count read 101.17 MB.
const BOUND_BYTES: usize = 32_000_000;

#[test]
fn segment_at_qcif_peaks_under_32_mb() {
    let scene = segmentable_scene(176, 144, 5, 4);
    let cfg = SegmentationConfig::default();
    let mut prof = Profiler::new();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let seg = segment(&scene.image, &cfg, &mut prof).expect("QCIF segmentation");
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(seg.labels().len(), 176 * 144);
    println!("segment at QCIF: peak heap {peak} bytes");
    assert!(
        peak < BOUND_BYTES,
        "segment at QCIF peaked at {peak} bytes of heap, bound {BOUND_BYTES}"
    );
}
