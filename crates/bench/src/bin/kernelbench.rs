//! `kernelbench` — isolated timings of the Figure-3 hot-spot kernels.
//!
//! The figure regenerators time whole benchmarks; this binary times the
//! individual hot kernels (convolution/Gaussian, SSD disparity search,
//! integral image, area sum, gradient) in isolation at the paper's three
//! input sizes, which is the measurement the EXPERIMENTS.md
//! "Kernel fast paths" before/after table is built from.
//!
//! Usage: `cargo run --release -p sdvbs-bench --bin kernelbench
//! [-- --reps N] [--size sqcif|qcif|cif]`
//!
//! Each cell reports the best of `reps` timed runs (after one warmup),
//! the min being the standard noise-robust statistic the runner's
//! `compare` gate uses too.

use sdvbs_disparity::{try_compute_disparity, DisparityConfig};
use sdvbs_image::Image;
use sdvbs_kernels::conv::{convolve_2d, gaussian_blur};
use sdvbs_kernels::gradient::{gradient_x, gradient_y};
use sdvbs_kernels::integral::{area_sum, IntegralImage};
use sdvbs_profile::Profiler;
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

/// Best-of-`reps` wall time of `f` in microseconds (one untimed warmup).
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
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
        "{:<22} {:>8} {:>12} {:>14}",
        "kernel", "size", "best (us)", "Mpixel/s"
    );
    for &(name, w, h) in &SIZES {
        if only_size.as_deref().is_some_and(|s| s != name) {
            continue;
        }
        let img = test_image(w, h, 7);
        let pixels = (w * h) as f64;
        let row = |kernel: &str, us: f64| {
            println!(
                "{kernel:<22} {name:>8} {us:>12.1} {:>14.1}",
                pixels / us.max(1e-9)
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
    }
}
