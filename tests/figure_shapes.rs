//! Regression tests over the paper's evaluation *shapes*: the qualitative
//! claims of Figures 2 and 3 that the regenerator harnesses print. These
//! pin the claims in CI, not just in EXPERIMENTS.md prose.
//!
//! Every test here times benchmarks, so they take turns on `GATE`: no two
//! measure at once.

use sdvbs::core::{all_benchmarks, Benchmark, ExecPolicy, InputSize};
use sdvbs::profile::{Profiler, Report};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// Runs per measurement: each report is the fastest of this many.
const REPS: usize = 5;

/// Profiles `bench` at two sizes: after one warm-up run of each, the
/// fastest of [`REPS`] runs per size. The sizes alternate run by run, so
/// a burst of host load lands on both sides of a comparison between
/// them.
fn reports_at(bench: &(dyn Benchmark + Send + Sync), sizes: [InputSize; 2]) -> [Report; 2] {
    bench.warmup();
    let run = |size| {
        let mut prof = Profiler::new();
        bench
            .try_run_with(size, 1, ExecPolicy::Serial, &mut prof)
            .expect("timed run");
        prof
    };
    for size in sizes {
        run(size);
    }
    let mut best: [Option<Profiler>; 2] = [None, None];
    for _ in 0..REPS {
        for (slot, size) in best.iter_mut().zip(sizes) {
            let prof = run(size);
            if slot.as_ref().is_none_or(|b| prof.total() < b.total()) {
                *slot = Some(prof);
            }
        }
    }
    best.map(|prof| prof.expect("REPS > 0").report())
}

fn by_name(name: &str) -> Box<dyn Benchmark + Send + Sync> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info().name == name)
        .unwrap_or_else(|| panic!("benchmark {name} registered"))
}

/// Figure 3, disparity panel. Before the vectorized fast paths,
/// Correlation + SSD dominated (the paper's original shape); the
/// branch-free slice rewrites collapsed both, shifting the hot spot onto
/// the integral-image build — an inherently serial `f64` prefix sum that
/// autovectorization cannot touch. The regenerated figure pins the
/// *post-optimization* shape: the four shift-loop kernels still take
/// nearly all the time, with IntegralImage the largest single kernel.
#[test]
fn disparity_hot_spot_shifted_to_integral_image() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let bench = by_name("Disparity Map");
    let sizes = [InputSize::Sqcif, InputSize::Qcif];
    for (size, r) in sizes.into_iter().zip(reports_at(bench.as_ref(), sizes)) {
        let share: f64 = ["SSD", "IntegralImage", "Correlation", "Sort"]
            .iter()
            .map(|k| r.occupancy(k).unwrap_or(0.0))
            .sum();
        assert!(share > 70.0, "{size}: shift-loop kernels = {share:.1}%");
        let ii = r.occupancy("IntegralImage").unwrap_or(0.0);
        let ssd = r.occupancy("SSD").unwrap_or(0.0);
        assert!(
            ii > ssd,
            "{size}: IntegralImage {ii:.1}% should now outweigh SSD {ssd:.1}%"
        );
        assert!(
            r.non_kernel_percent() < 20.0,
            "{size}: non-kernel {:.1}%",
            r.non_kernel_percent()
        );
    }
}

/// Figure 3, tracking panel: preprocessing share *grows* with input size
/// while the feature-granularity tracking share shrinks (the paper's
/// pixel- vs feature-granularity split).
#[test]
fn tracking_preprocessing_grows_with_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let bench = by_name("Feature Tracking");
    let pre = |r: &Report| {
        ["GaussianFilter", "Gradient", "IntegralImage", "AreaSum"]
            .iter()
            .map(|k| r.occupancy(k).unwrap_or(0.0))
            .sum::<f64>()
    };
    let [small, large] = reports_at(bench.as_ref(), [InputSize::Sqcif, InputSize::Cif]);
    assert!(
        pre(&large) > pre(&small) + 10.0,
        "preprocessing share {:.1}% -> {:.1}%",
        pre(&small),
        pre(&large)
    );
    let track_small = small.occupancy("MatrixInversion").unwrap_or(0.0);
    let track_large = large.occupancy("MatrixInversion").unwrap_or(0.0);
    assert!(
        track_large < track_small,
        "tracking share {track_small:.1}% -> {track_large:.1}%"
    );
}

/// Figure 3, SIFT panel: the SIFT kernel's occupancy is large and flat
/// across sizes.
#[test]
fn sift_occupancy_is_flat_and_dominant() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let bench = by_name("SIFT");
    let [small, large] = reports_at(bench.as_ref(), [InputSize::Sqcif, InputSize::Qcif]);
    let a = small.occupancy("SIFT").unwrap_or(0.0);
    let b = large.occupancy("SIFT").unwrap_or(0.0);
    assert!(a > 80.0 && b > 80.0, "SIFT occupancy {a:.1}% / {b:.1}%");
    assert!(
        (a - b).abs() < 10.0,
        "occupancy not flat: {a:.1}% vs {b:.1}%"
    );
}

/// Figure 2: localization's total runtime is insensitive to the input-size
/// class (flattest line), while disparity's scales superlinearly in the
/// size label.
#[test]
fn figure2_extremes_hold() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ratio = |name: &str| {
        let bench = by_name(name);
        let [small, large] = reports_at(bench.as_ref(), [InputSize::Sqcif, InputSize::Cif]);
        large.total().as_secs_f64() / small.total().as_secs_f64()
    };
    let loc_ratio = ratio("Robot Localization");
    assert!(
        (0.5..=1.6).contains(&loc_ratio),
        "localization should be flat, ratio {loc_ratio:.2}"
    );
    let disp_ratio = ratio("Disparity Map");
    assert!(
        disp_ratio > 4.0,
        "disparity should scale with pixels, ratio {disp_ratio:.2}"
    );
    assert!(
        disp_ratio > 3.0 * loc_ratio,
        "ordering: disparity {disp_ratio:.2} vs localization {loc_ratio:.2}"
    );
}

/// Figure 3, texture panel: Sampling dominates and the total is flat
/// across sizes (fixed iteration structure).
#[test]
fn texture_sampling_dominates_and_total_is_flat() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let bench = by_name("Texture Synthesis");
    let [small, large] = reports_at(bench.as_ref(), [InputSize::Sqcif, InputSize::Cif]);
    assert!(small.occupancy("Sampling").unwrap_or(0.0) > 60.0);
    let ratio = large.total().as_secs_f64() / small.total().as_secs_f64();
    assert!(
        (0.5..=2.5).contains(&ratio),
        "texture total ratio {ratio:.2}"
    );
}
