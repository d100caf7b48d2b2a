//! Ablation studies for the design choices DESIGN.md calls out, plus the
//! paper's parameter-sensitivity observations that don't fit Figure 2/3:
//!
//! 1. Segmentation time vs segment count (paper §III: "as we increase the
//!    number of segments per image size, the execution time varies
//!    linearly ... segmentation is constrained by the number of segments
//!    and not by the image size").
//! 2. SVM: interior-point (paper's solver) vs SMO baseline.
//! 3. SIFT: with vs without the 2x upsampling `Interpolation` stage.
//! 4. Texture synthesis: PCA dimensionality vs runtime and fidelity.
//! 5. Disparity: aggregation window sweep (accuracy/runtime trade-off).

use sdvbs_bench::{fmt_ms, header};
use sdvbs_profile::Profiler;
use std::time::Duration;

fn best_of<F: FnMut() -> Duration>(reps: usize, mut f: F) -> Duration {
    (0..reps).map(|_| f()).min().expect("reps >= 1")
}

fn main() {
    header("Ablation studies");

    // 1. Segmentation: time vs segment count at fixed size.
    println!("1. Segmentation time vs segment count (fixed 128x96 input)");
    println!(
        "   {:>10} {:>12} {:>12}",
        "segments", "time (ms)", "rand index"
    );
    let scene = sdvbs_synth::segmentable_scene(128, 96, 5, 6);
    for segments in [2usize, 4, 6, 8, 12] {
        use sdvbs_segmentation::{rand_index, segment, SegmentationConfig};
        let cfg = SegmentationConfig {
            segments,
            ..SegmentationConfig::default()
        };
        let mut ri = 0.0;
        let t = best_of(3, || {
            let mut prof = Profiler::new();
            let seg = prof
                .run(|p| segment(&scene.image, &cfg, p))
                .expect("segmentation runs");
            ri = rand_index(seg.labels(), &scene.labels);
            prof.total()
        });
        println!("   {:>10} {:>12} {:>12.3}", segments, fmt_ms(t), ri);
    }
    println!();

    // 1b. Segmentation: k-way embedding vs recursive two-way cuts.
    println!("1b. Segmentation algorithm: k-way embedding vs recursive two-way cuts");
    println!(
        "    {:>12} {:>12} {:>12}",
        "algorithm", "time (ms)", "rand index"
    );
    {
        use sdvbs_segmentation::{rand_index, segment, segment_recursive, SegmentationConfig};
        let scene = sdvbs_synth::segmentable_scene(96, 72, 5, 4);
        let cfg = SegmentationConfig {
            segments: 4,
            ..SegmentationConfig::default()
        };
        let mut ri = 0.0;
        let t_kway = best_of(2, || {
            let mut prof = Profiler::new();
            let seg = prof
                .run(|p| segment(&scene.image, &cfg, p))
                .expect("k-way runs");
            ri = rand_index(seg.labels(), &scene.labels);
            prof.total()
        });
        println!("    {:>12} {:>12} {:>12.3}", "k-way", fmt_ms(t_kway), ri);
        let t_rec = best_of(2, || {
            let mut prof = Profiler::new();
            let seg = prof
                .run(|p| segment_recursive(&scene.image, &cfg, p))
                .expect("recursive runs");
            ri = rand_index(seg.labels(), &scene.labels);
            prof.total()
        });
        println!("    {:>12} {:>12} {:>12.3}", "recursive", fmt_ms(t_rec), ri);
    }
    println!();

    // 2. SVM: interior point vs SMO.
    println!("2. SVM trainer comparison (500x64 working set, the paper's shape)");
    println!(
        "   {:>16} {:>12} {:>10} {:>8}",
        "trainer", "time (ms)", "accuracy", "SVs"
    );
    {
        use sdvbs_svm::{gaussian_clusters, train_interior_point, train_smo, SvmConfig};
        let data = gaussian_clusters(500, 64, 6.0, 9);
        let cfg = SvmConfig {
            tolerance: 1e-4,
            max_iterations: 60,
            ..SvmConfig::default()
        };
        let mut acc = 0.0;
        let mut svs = 0;
        let t_ip = best_of(2, || {
            let mut prof = Profiler::new();
            let model = prof
                .run(|p| train_interior_point(&data.train_x, &data.train_y, &cfg, p))
                .expect("interior point converges");
            acc = model.accuracy(&data.test_x, &data.test_y);
            svs = model.support_vectors();
            prof.total()
        });
        println!(
            "   {:>16} {:>12} {:>10.3} {:>8}",
            "interior-point",
            fmt_ms(t_ip),
            acc,
            svs
        );
        let smo_cfg = SvmConfig::default();
        let t_smo = best_of(2, || {
            let mut prof = Profiler::new();
            let model = prof
                .run(|p| train_smo(&data.train_x, &data.train_y, &smo_cfg, p))
                .expect("smo converges");
            acc = model.accuracy(&data.test_x, &data.test_y);
            svs = model.support_vectors();
            prof.total()
        });
        println!(
            "   {:>16} {:>12} {:>10.3} {:>8}",
            "smo",
            fmt_ms(t_smo),
            acc,
            svs
        );
    }
    println!();

    // 3. SIFT: the Interpolation (2x upsampling) stage on/off.
    println!("3. SIFT with and without the 2x upsampling (Interpolation kernel)");
    println!(
        "   {:>12} {:>12} {:>10}",
        "double_size", "time (ms)", "keypoints"
    );
    {
        use sdvbs_sift::{try_detect_and_describe, SiftConfig};
        let img = sdvbs_synth::textured_image(176, 144, 4);
        for double in [true, false] {
            let cfg = SiftConfig {
                double_size: double,
                ..SiftConfig::default()
            };
            let mut feats = 0usize;
            let t = best_of(3, || {
                let mut prof = Profiler::new();
                feats = prof
                    .run(|p| try_detect_and_describe(&img, &cfg, p).expect("valid image"))
                    .len();
                prof.total()
            });
            println!("   {:>12} {:>12} {:>10}", double, fmt_ms(t), feats);
        }
    }
    println!();

    // 4. Texture synthesis: PCA dimensionality.
    println!("4. Texture synthesis PCA dimensionality (40-dim causal neighborhoods)");
    println!(
        "   {:>10} {:>12} {:>14}",
        "pca_dims", "time (ms)", "std ratio"
    );
    {
        use sdvbs_synth::{texture_swatch, TextureKind};
        use sdvbs_texture::{synthesize, TextureConfig};
        let swatch = texture_swatch(48, 48, 7, TextureKind::Stochastic);
        let std = |im: &sdvbs_image::Image| {
            let m = im.mean();
            (im.as_slice()
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>()
                / im.len() as f32)
                .sqrt()
        };
        let ss = std(&swatch);
        for dims in [2usize, 6, 12, 24, 40] {
            let cfg = TextureConfig {
                pca_dims: dims,
                ..TextureConfig::default()
            };
            let mut ratio = 0.0f32;
            let t = best_of(2, || {
                let mut prof = Profiler::new();
                let out = prof
                    .run(|p| synthesize(&swatch, 40, 40, &cfg, p))
                    .expect("synthesis runs");
                ratio = std(&out) / ss;
                prof.total()
            });
            println!("   {:>10} {:>12} {:>14.3}", dims, fmt_ms(t), ratio);
        }
    }
    println!();

    // 5b. Face detection: cascade depth vs accuracy and scan speed.
    println!("5b. Viola-Jones cascade depth (detection vs false positives on 150 patches)");
    println!(
        "   {:>8} {:>12} {:>12} {:>12}",
        "stages", "train (ms)", "det. rate", "fp rate"
    );
    {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sdvbs_facedetect::{Cascade, CascadeConfig};
        use sdvbs_synth::{render_face_patch, render_non_face_patch};
        for stage_rounds in [vec![4], vec![4, 8], vec![4, 8, 15]] {
            let cfg = CascadeConfig {
                stage_rounds: stage_rounds.clone(),
                ..CascadeConfig::default()
            };
            let mut prof = Profiler::new();
            let start = std::time::Instant::now();
            let cascade = Cascade::train(&cfg, &mut prof).expect("training succeeds");
            let train_time = start.elapsed();
            let mut rng = StdRng::seed_from_u64(31337);
            let n = 150;
            let mut det = 0;
            let mut fp = 0;
            for _ in 0..n {
                if cascade.accepts_patch(&render_face_patch(24, &mut rng)) {
                    det += 1;
                }
                if cascade.accepts_patch(&render_non_face_patch(24, &mut rng)) {
                    fp += 1;
                }
            }
            println!(
                "   {:>8} {:>12} {:>12.3} {:>12.3}",
                stage_rounds.len(),
                fmt_ms(train_time),
                det as f64 / n as f64,
                fp as f64 / n as f64
            );
        }
    }
    println!();

    // 5. Disparity aggregation window.
    println!("5. Disparity aggregation window (176x144 stereo pair)");
    println!("   {:>8} {:>12} {:>10}", "window", "time (ms)", "accuracy");
    {
        use sdvbs_disparity::{disparity_accuracy, try_compute_disparity, DisparityConfig};
        let scene = sdvbs_synth::stereo_pair(176, 144, 3);
        for window in [3usize, 5, 9, 13, 17] {
            let cfg = DisparityConfig::new(scene.max_disparity, window).expect("odd window");
            let mut acc = 0.0;
            let t = best_of(3, || {
                let mut prof = Profiler::new();
                let disp = prof.run(|p| {
                    try_compute_disparity(&scene.left, &scene.right, &cfg, p)
                        .expect("valid stereo pair")
                });
                acc = disparity_accuracy(&disp, &scene.truth, 1.0);
                prof.total()
            });
            println!("   {:>8} {:>12} {:>10.3}", window, fmt_ms(t), acc);
        }
    }
}
