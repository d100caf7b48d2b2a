//! `kernelbench` — isolated timings of the Figure-3 hot-spot kernels.
//!
//! The figure regenerators time whole benchmarks; this binary times the
//! individual hot kernels (convolution/Gaussian, SSD disparity search,
//! integral image, area sum, gradient, and the three loops that dominate
//! segmentation, face detection and texture synthesis: the deflated
//! Lanczos eigensolve, the cascade scan and the sampling search) in
//! isolation at the paper's three input sizes, which is the measurement
//! the EXPERIMENTS.md "Kernel fast paths" before/after table is built
//! from.
//!
//! Usage: `cargo run --release -p sdvbs-bench --bin kernelbench
//! [-- --reps N] [--size sqcif|qcif|cif]`
//!
//! Each cell reports the nearest-rank median and quartiles of `reps`
//! timed runs (after one warmup), computed with
//! [`sdvbs_trace::nearest_rank`] — the statistic perfbench and the serve
//! load generator use — so a cell shows its spread beside its level and a
//! change smaller than the quartile band reads as noise, not a gain.
//! Mpixel/s comes from the median.

use sdvbs_disparity::{try_compute_disparity, DisparityConfig};
use sdvbs_exec::ExecPolicy;
use sdvbs_facedetect::{try_detect_faces, Cascade, DetectorConfig};
use sdvbs_image::Image;
use sdvbs_kernels::conv::{convolve_2d, gaussian_blur};
use sdvbs_kernels::gradient::{gradient_x, gradient_y};
use sdvbs_kernels::integral::{area_sum, IntegralImage};
use sdvbs_matrix::lanczos_deflated;
use sdvbs_profile::Profiler;
use sdvbs_segmentation::{adjacency_matrix_with, filter_bank_features};
use sdvbs_synth::{face_scene, segmentable_scene, texture_swatch, TextureKind};
use sdvbs_texture::{synthesize, TextureConfig};
use sdvbs_trace::nearest_rank;
use std::time::Instant;

/// The paper's named sizes.
const SIZES: [(&str, usize, usize); 3] =
    [("sqcif", 128, 96), ("qcif", 176, 144), ("cif", 352, 288)];

/// Deterministic pseudo-random test image (SplitMix-style pixel hash).
fn test_image(w: usize, h: usize, seed: u64) -> Image {
    Image::from_fn(w, h, |x, y| {
        let mut v = seed
            ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        v ^= v >> 33;
        v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
        v ^= v >> 33;
        (v & 0xff) as f32
    })
}

/// The 25th, 50th and 75th nearest-rank percentiles of `reps` wall times
/// of `f` in microseconds (one untimed warmup).
fn time_us(reps: usize, mut f: impl FnMut()) -> [f64; 3] {
    f();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    [25.0, 50.0, 75.0].map(|p| nearest_rank(&times, p).expect("at least one rep"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 9usize;
    let mut only_size: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--size" => only_size = it.next().cloned(),
            other => panic!("unknown flag {other:?}"),
        }
    }
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "kernel", "size", "p25 (us)", "median (us)", "p75 (us)", "Mpixel/s"
    );
    for &(name, w, h) in &SIZES {
        if only_size.as_deref().is_some_and(|s| s != name) {
            continue;
        }
        let img = test_image(w, h, 7);
        let pixels = (w * h) as f64;
        let row = |kernel: &str, [p25, median, p75]: [f64; 3]| {
            println!(
                "{kernel:<22} {name:>8} {p25:>12.1} {median:>12.1} {p75:>12.1} {:>14.1}",
                pixels / median.max(1e-9)
            );
        };
        row(
            "GaussianBlur s=1.4",
            time_us(reps, || {
                std::hint::black_box(gaussian_blur(std::hint::black_box(&img), 1.4));
            }),
        );
        row(
            "GaussianBlur s=4.0",
            time_us(reps, || {
                std::hint::black_box(gaussian_blur(std::hint::black_box(&img), 4.0));
            }),
        );
        let k5 = [0.05f32; 25];
        row(
            "Convolve2D 5x5",
            time_us(reps, || {
                std::hint::black_box(convolve_2d(std::hint::black_box(&img), &k5, 5, 5));
            }),
        );
        row(
            "Gradient (x+y)",
            time_us(reps, || {
                std::hint::black_box(gradient_x(std::hint::black_box(&img)));
                std::hint::black_box(gradient_y(std::hint::black_box(&img)));
            }),
        );
        row(
            "IntegralImage",
            time_us(reps, || {
                std::hint::black_box(IntegralImage::new(std::hint::black_box(&img)));
            }),
        );
        row(
            "AreaSum r=4",
            time_us(reps, || {
                std::hint::black_box(area_sum(std::hint::black_box(&img), 4));
            }),
        );
        // The full dense SSD disparity search (SSD + IntegralImage +
        // Correlation + Sort over 17 shifts) — the paper's default config.
        let right = Image::from_fn(w, h, |x, y| img.get_clamped(x as isize + 5, y as isize));
        let cfg = DisparityConfig::default();
        row(
            "DisparitySearch d=16",
            time_us(reps, || {
                let mut prof = Profiler::new();
                std::hint::black_box(
                    try_compute_disparity(
                        std::hint::black_box(&img),
                        std::hint::black_box(&right),
                        &cfg,
                        &mut prof,
                    )
                    .expect("valid stereo pair"),
                );
            }),
        );
        // Segmentation's Eigensolve: four deflated Lanczos runs of 60 steps
        // on a 4-region scene's normalized affinity stencil, as `segment`
        // builds it at its default radius and bandwidths.
        let scene = segmentable_scene(w, h, 7, 4);
        let mut stencil = adjacency_matrix_with(
            &filter_bank_features(&scene.image),
            3,
            25.0,
            6.0,
            ExecPolicy::Serial,
        );
        let dinv_sqrt: Vec<f64> = stencil
            .row_sums()
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 })
            .collect();
        stencil.scale_sym(&dinv_sqrt);
        let start: Vec<f64> = (0..w * h).map(|i| 0.1 + (i % 97) as f64 / 97.0).collect();
        row(
            "Lanczos k=4 60 steps",
            time_us(reps, || {
                std::hint::black_box(
                    lanczos_deflated(&stencil, 4, std::hint::black_box(&start), 60)
                        .expect("nonzero start"),
                );
            }),
        );
        // Face detection's ExtractFaces: the whole detector on a face scene
        // (the cascade scan is over 99% of it).
        let faces = face_scene(w, h, 7, 2 + (w * h / (128 * 96)).min(4));
        row(
            "DetectFaces cascade",
            time_us(reps, || {
                let mut prof = Profiler::new();
                std::hint::black_box(
                    try_detect_faces(
                        std::hint::black_box(&faces.image),
                        Cascade::pretrained(),
                        &DetectorConfig::default(),
                        &mut prof,
                    )
                    .expect("valid image"),
                );
            }),
        );
        // Texture synthesis's Sampling: a 40x40 output from the swatch the
        // suite cuts for this size.
        let swatch = texture_swatch(
            (w / 2).clamp(24, 64),
            (h / 2).clamp(24, 64),
            7,
            TextureKind::Stochastic,
        );
        row(
            "Synthesize 40x40",
            time_us(reps, || {
                let mut prof = Profiler::new();
                std::hint::black_box(
                    synthesize(
                        std::hint::black_box(&swatch),
                        40,
                        40,
                        &TextureConfig::default(),
                        &mut prof,
                    )
                    .expect("valid swatch"),
                );
            }),
        );
    }
}
