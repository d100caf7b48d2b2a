//! `kernelbench` — isolated timings of the Figure-3 hot-spot kernels.
//!
//! The figure regenerators time whole benchmarks; this binary times the
//! individual hot kernels (convolution/Gaussian, SSD disparity search,
//! integral image, area sum, gradient, the Harris response, the three
//! loops that dominate segmentation, face detection and texture
//! synthesis: the deflated Lanczos eigensolve, the cascade scan and the
//! sampling search, the dense matrix work under them: a 60×60 Jacobi
//! eigensolve of a `lanczos`-shaped tridiagonal and texture's PCA (the
//! neighborhood covariance and its eigendecomposition), and SIFT's and
//! tracking's stages: the 2× bilinear
//! upscale, the scale-space build, the whole SIFT pipeline and the
//! two-frame tracker) in isolation at the paper's three input sizes,
//! which is the measurement the EXPERIMENTS.md "Kernel fast paths"
//! before/after table is built from.
//!
//! Usage: `cargo run --release -p sdvbs-bench --bin kernelbench
//! [-- --reps N] [--size sqcif|qcif|cif]`
//!
//! Each cell reports the nearest-rank median and quartiles of `reps`
//! timed runs (after one warmup), computed with
//! [`sdvbs_trace::nearest_rank`] — the statistic perfbench and the serve
//! load generator use — so a cell shows its spread beside its level and a
//! change smaller than the quartile band reads as noise, not a gain.
//! Mpixel/s comes from the median. The first line names the vector ISA
//! the binary was compiled for ([`SystemInfo::simd`]).

use sdvbs_disparity::{try_compute_disparity, DisparityConfig};
use sdvbs_exec::ExecPolicy;
use sdvbs_facedetect::{try_detect_faces, Cascade, DetectorConfig};
use sdvbs_image::Image;
use sdvbs_kernels::conv::{convolve_2d, gaussian_blur};
use sdvbs_kernels::features::harris_response;
use sdvbs_kernels::gradient::{gradient_x, gradient_y};
use sdvbs_kernels::integral::{area_sum, IntegralImage};
use sdvbs_matrix::{lanczos_deflated, Matrix};
use sdvbs_profile::{Profiler, SystemInfo};
use sdvbs_segmentation::{adjacency_matrix_with, filter_bank_features};
use sdvbs_sift::{try_detect_and_describe, ScaleSpace, SiftConfig};
use sdvbs_synth::{
    face_scene, frame_pair, segmentable_scene, texture_swatch, textured_image, TextureKind,
};
use sdvbs_texture::{synthesize, TextureConfig};
use sdvbs_trace::nearest_rank;
use sdvbs_tracking::{try_track_pair, TrackingConfig};
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
    // The same code runs at different speeds when built for a wider
    // vector ISA, so a table names the one it was compiled for.
    println!("vector ISA: {} (compiled for)", SystemInfo::collect().simd);
    println!(
        "{:<30} {:>8} {:>12} {:>12} {:>12} {:>14}",
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
                "{kernel:<30} {name:>8} {p25:>12.1} {median:>12.1} {p75:>12.1} {:>14.1}",
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
        row(
            "HarrisResponse r=2",
            time_us(reps, || {
                std::hint::black_box(harris_response(std::hint::black_box(&img), 2));
            }),
        );
        // SIFT's stages on the suite's textured input, normalized to 0..1
        // as the pipeline does: the Interpolation kernel's 2x bilinear
        // upscale, the scale space built on the upscaled base (default
        // intervals, sigma and octaves), and the whole pipeline.
        let textured = textured_image(w, h, 7);
        let unit = textured.map(|v| v / 255.0);
        row(
            "Resize 2x bilinear",
            time_us(reps, || {
                std::hint::black_box(std::hint::black_box(&unit).resize_bilinear(2 * w, 2 * h));
            }),
        );
        let sift = SiftConfig::default();
        let base = unit.resize_bilinear(2 * w, 2 * h);
        row(
            "ScaleSpace build",
            time_us(reps, || {
                std::hint::black_box(ScaleSpace::build(
                    std::hint::black_box(&base),
                    sift.intervals,
                    sift.sigma0,
                    sift.max_octaves,
                ));
            }),
        );
        row(
            "SIFT detect+describe",
            time_us(reps, || {
                let mut prof = Profiler::new();
                std::hint::black_box(
                    try_detect_and_describe(std::hint::black_box(&textured), &sift, &mut prof)
                        .expect("valid image"),
                );
            }),
        );
        // The two-frame tracker (extraction plus pyramidal Lucas-Kanade)
        // on a frame pair moved by the suite's motion.
        let (frame_a, frame_b) = frame_pair(w, h, 7, 1.8, 1.2);
        row(
            "TrackPair KLT",
            time_us(reps, || {
                let mut prof = Profiler::new();
                std::hint::black_box(
                    try_track_pair(
                        std::hint::black_box(&frame_a),
                        std::hint::black_box(&frame_b),
                        &TrackingConfig::default(),
                        &mut prof,
                    )
                    .expect("valid frame pair"),
                );
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
        // The dense eigensolve each Lanczos run ends with: Jacobi on a
        // 60-step tridiagonal whose Ritz values cluster near 1, as a
        // normalized affinity's do.
        let tridiagonal = Matrix::from_fn(60, 60, |i, j| match i.abs_diff(j) {
            0 => 0.9 + 0.1 * ((i * 37) % 60) as f64 / 60.0,
            1 => 0.3 / (1.0 + i.min(j) as f64).sqrt(),
            _ => 0.0,
        });
        row(
            "SymEigen 60x60",
            time_us(reps, || {
                std::hint::black_box(
                    std::hint::black_box(&tridiagonal)
                        .sym_eigen()
                        .expect("square"),
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
        // Texture synthesis's PCA: the covariance and eigendecomposition of
        // the swatch's centered causal 9x9 neighborhoods (3,360x40 at CIF).
        let neighborhoods = causal_neighborhoods(&swatch, 4);
        row(
            "Texture PCA (gram + SymEigen)",
            time_us(reps, || {
                std::hint::black_box(
                    std::hint::black_box(&neighborhoods)
                        .gram()
                        .sym_eigen()
                        .expect("square"),
                );
            }),
        );
    }
}

/// The centered causal neighborhoods of `swatch` that texture synthesis
/// harvests at stride 1: `half` full rows above each pixel and the `half`
/// pixels to its left, one row per position whose window fits.
fn causal_neighborhoods(swatch: &Image, half: isize) -> Matrix {
    let offsets: Vec<(isize, isize)> = (-half..0)
        .flat_map(|dy| (-half..=half).map(move |dx| (dx, dy)))
        .chain((-half..0).map(|dx| (dx, 0)))
        .collect();
    let (w, h) = (swatch.width() as isize, swatch.height() as isize);
    let positions: Vec<(isize, isize)> = (half..h)
        .flat_map(|y| (half..w - half).map(move |x| (x, y)))
        .collect();
    let mut m = Matrix::from_fn(positions.len(), offsets.len(), |i, j| {
        let ((x, y), (dx, dy)) = (positions[i], offsets[j]);
        swatch.get((x + dx) as usize, (y + dy) as usize) as f64
    });
    let n = positions.len() as f64;
    for j in 0..offsets.len() {
        let mean = (0..positions.len()).map(|i| m[(i, j)]).sum::<f64>() / n;
        for i in 0..positions.len() {
            m[(i, j)] -= mean;
        }
    }
    m
}
