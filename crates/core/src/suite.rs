//! The uniform benchmark runner.

use crate::error::SdvbsResult;
use crate::input::InputSize;
use crate::meta::{BenchmarkInfo, Characteristic, ConcentrationArea};
use crate::poison::{poison_image, poison_slice};
use sdvbs_exec::ExecPolicy;
use sdvbs_image::Image;
use sdvbs_profile::Profiler;

/// Result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// A benchmark-specific quality score in `0.0..=1.0` when the
    /// synthetic input provides ground truth (`None` where no scalar
    /// metric applies).
    pub quality: Option<f64>,
    /// Human-readable summary of what was computed.
    pub detail: String,
}

/// A runnable SD-VBS benchmark.
///
/// Implementations generate their own deterministic synthetic input for
/// the requested size and seed, run the full pipeline with kernel scopes
/// reported to `prof`, and summarize the outcome.
pub trait Benchmark {
    /// Static metadata (Tables I/II rows and the kernel list).
    fn info(&self) -> &BenchmarkInfo;

    /// Runs the benchmark at `size` with the input-generation seed `seed`,
    /// its data-parallel kernels under `policy`.
    ///
    /// Implementations call [`Profiler::run`] around the *pipeline only*:
    /// synthetic input generation is excluded from the measured region,
    /// just as SD-VBS reads its input files before timing. Callers read
    /// the measured time from `prof.total()` — do not wrap this call in
    /// another `prof.run`.
    ///
    /// Only the benchmarks whose [`BenchmarkInfo::honors_exec_policy`] is
    /// set plumb `policy` into their kernels (disparity's shift search,
    /// segmentation's affinity build, face detection's cascade scan); every
    /// other benchmark runs serially under any policy. All policies produce
    /// bit-identical outcomes, so `policy` only affects timing. Callers
    /// that record the policy should resolve [`ExecPolicy::Auto`] once per
    /// run (see [`ExecPolicy::resolve`]) so records stay consistent.
    ///
    /// # Errors
    ///
    /// Degenerate or corrupted inputs (for example NaN pixels armed via
    /// [`crate::set_poison`]) fail with the benchmark crate's own typed
    /// error instead of a panic, carried by [`crate::SdvbsError`] (its
    /// message is the crate error's, its `source()` the crate error), so a
    /// harness can record a failed cell as an outcome rather than aborting
    /// the process.
    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome>;

    /// One-time preparation excluded from timed runs (e.g. face detection
    /// parses its shipped cascade model once — SD-VBS ships that model
    /// pre-trained, so loading it is not part of the benchmark).
    fn warmup(&self) {}
}

/// All nine benchmarks, in the paper's Table I order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark + Send + Sync>> {
    vec![
        Box::new(DisparityBench),
        Box::new(TrackingBench),
        Box::new(SegmentationBench),
        Box::new(SiftBench),
        Box::new(LocalizationBench),
        Box::new(SvmBench),
        Box::new(FaceDetectBench),
        Box::new(StitchBench),
        Box::new(TextureBench),
    ]
}

// ---------------------------------------------------------------- disparity

struct DisparityBench;

static DISPARITY_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Disparity Map",
    description: "Compute depth information using dense stereo",
    area: ConcentrationArea::MotionTrackingStereo,
    characteristic: Characteristic::DataIntensive,
    domain: "Robot vision for Adaptive Cruise Control, Stereo Vision",
    kernels: &["SSD", "IntegralImage", "Correlation", "Sort"],
    honors_exec_policy: true,
};

/// Disparity's input: a stereo pair with ground-truth disparity.
pub(crate) fn disparity_input(size: InputSize, seed: u64) -> sdvbs_synth::StereoPair {
    let (w, h) = size.dims();
    sdvbs_synth::stereo_pair(w.max(48), h.max(36), seed)
}

impl Benchmark for DisparityBench {
    fn info(&self) -> &BenchmarkInfo {
        &DISPARITY_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_disparity::{disparity_accuracy, try_compute_disparity, DisparityConfig};
        let (w, h) = size.dims();
        let mut scene = disparity_input(size, seed);
        poison_image(&mut scene.left);
        let cfg = DisparityConfig::new(scene.max_disparity, 9)
            .expect("valid config")
            .with_exec(policy);
        // Input generation is untimed (SD-VBS reads its inputs before the
        // measured region); only the pipeline runs under the profiler.
        let disp = prof.run(|p| try_compute_disparity(&scene.left, &scene.right, &cfg, p))?;
        let acc = disparity_accuracy(&disp, &scene.truth, 1.0);
        Ok(RunOutcome {
            quality: Some(acc),
            detail: format!("dense disparity {}x{}, accuracy {:.3}", w, h, acc),
        })
    }
}

// ----------------------------------------------------------------- tracking

struct TrackingBench;

static TRACKING_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Feature Tracking",
    description: "Extract motion from a sequence of images",
    area: ConcentrationArea::MotionTrackingStereo,
    characteristic: Characteristic::DataIntensive,
    domain: "Robot vision for Tracking",
    kernels: &[
        "GaussianFilter",
        "Gradient",
        "IntegralImage",
        "AreaSum",
        "MatrixInversion",
    ],
    honors_exec_policy: false,
};

/// The true motion of tracking's second frame, in pixels.
const TRACKING_MOTION: (f32, f32) = (1.8, 1.2);

/// Tracking's input: two frames, the second moved by [`TRACKING_MOTION`].
pub(crate) fn tracking_input(size: InputSize, seed: u64) -> (Image, Image) {
    let (w, h) = size.dims();
    let (dx, dy) = TRACKING_MOTION;
    sdvbs_synth::frame_pair(w.max(64), h.max(48), seed, dx, dy)
}

impl Benchmark for TrackingBench {
    fn info(&self) -> &BenchmarkInfo {
        &TRACKING_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_tracking::{try_track_pair, TrackingConfig};
        let (dx, dy) = TRACKING_MOTION;
        let (mut a, b) = tracking_input(size, seed);
        poison_image(&mut a);
        let cfg = TrackingConfig::default();
        let tracks = prof.run(|p| try_track_pair(&a, &b, &cfg, p))?;
        let good = tracks
            .iter()
            .filter(|t| {
                let (mx, my) = t.motion();
                (mx - dx).abs() < 0.5 && (my - dy).abs() < 0.5
            })
            .count();
        let quality = if tracks.is_empty() {
            0.0
        } else {
            good as f64 / tracks.len() as f64
        };
        Ok(RunOutcome {
            quality: Some(quality),
            detail: format!(
                "{} features tracked, {:.0}% within 0.5 px",
                tracks.len(),
                quality * 100.0
            ),
        })
    }
}

// ------------------------------------------------------------- segmentation

struct SegmentationBench;

static SEGMENTATION_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Image Segmentation",
    description: "Dividing an image into conceptual regions",
    area: ConcentrationArea::ImageAnalysis,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Medical imaging, computational photography",
    kernels: &[
        "Filterbanks",
        "Adjacencymatrix",
        "Eigensolve",
        "QRfactorizations",
    ],
    honors_exec_policy: true,
};

/// How many regions segmentation's scene holds and the pipeline cuts.
pub(crate) const SEGMENTS: usize = 4;

/// Segmentation's input: a scene of [`SEGMENTS`] regions and its label map.
pub(crate) fn segmentation_input(size: InputSize, seed: u64) -> sdvbs_synth::SegmentScene {
    let (w, h) = size.dims();
    sdvbs_synth::segmentable_scene(w.max(24), h.max(24), seed, SEGMENTS)
}

impl Benchmark for SegmentationBench {
    fn info(&self) -> &BenchmarkInfo {
        &SEGMENTATION_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_segmentation::{rand_index, segment, SegmentationConfig};
        let mut scene = segmentation_input(size, seed);
        poison_image(&mut scene.image);
        let cfg = SegmentationConfig {
            segments: SEGMENTS,
            exec: policy,
            ..SegmentationConfig::default()
        };
        let seg = prof.run(|p| segment(&scene.image, &cfg, p))?;
        let ri = rand_index(seg.labels(), &scene.labels);
        Ok(RunOutcome {
            quality: Some(ri),
            detail: format!("{SEGMENTS} segments, rand index {ri:.3}"),
        })
    }
}

// --------------------------------------------------------------------- sift

struct SiftBench;

static SIFT_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "SIFT",
    description: "Extract invariant features from distorted images",
    area: ConcentrationArea::ImageAnalysis,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Object recognition",
    kernels: &["IntegralImage", "Interpolation", "SIFT"],
    honors_exec_policy: false,
};

/// SIFT's input: one textured image.
pub(crate) fn sift_input(size: InputSize, seed: u64) -> Image {
    let (w, h) = size.dims();
    sdvbs_synth::textured_image(w.max(32), h.max(32), seed)
}

impl Benchmark for SiftBench {
    fn info(&self) -> &BenchmarkInfo {
        &SIFT_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_sift::{try_detect_and_describe, SiftConfig};
        let mut img = sift_input(size, seed);
        poison_image(&mut img);
        let feats = prof.run(|p| try_detect_and_describe(&img, &SiftConfig::default(), p))?;
        Ok(RunOutcome {
            quality: None,
            detail: format!("{} keypoints with 128-d descriptors", feats.len()),
        })
    }
}

// ------------------------------------------------------------- localization

struct LocalizationBench;

static LOCALIZATION_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Robot Localization",
    description: "Detect location based on environment",
    area: ConcentrationArea::ImageUnderstanding,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Robotics",
    kernels: &["ParticleFilter", "Sampling"],
    honors_exec_policy: false,
};

/// Localization's input: a landmark world and a 40-step trajectory
/// through it.
///
/// The paper observes that localization runtime is governed by the data
/// (particles, trajectory), not the input-size class; the workload is
/// therefore constant across sizes, with only the seed (the "distinct
/// inputs") varying.
pub(crate) fn localization_input(
    seed: u64,
) -> (sdvbs_localization::World, sdvbs_localization::Trajectory) {
    use sdvbs_localization::{World, WorldConfig};
    let world = World::generate(&WorldConfig {
        seed: seed ^ 0x77_6f72_6c64,
        ..WorldConfig::default()
    });
    let traj = world.simulate(40, seed);
    (world, traj)
}

impl Benchmark for LocalizationBench {
    fn info(&self) -> &BenchmarkInfo {
        &LOCALIZATION_INFO
    }

    fn try_run_with(
        &self,
        _size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_localization::{MclConfig, MonteCarloLocalizer};
        let (world, mut traj) = localization_input(seed);
        // Fault injection corrupts the range readings (the localization
        // benchmark's "pixels").
        let mut ranges: Vec<f64> = traj
            .steps
            .iter()
            .flat_map(|s| s.measurements.iter().map(|m| m.range))
            .collect();
        poison_slice(&mut ranges);
        let mut it = ranges.into_iter();
        for step in &mut traj.steps {
            for m in &mut step.measurements {
                m.range = it.next().expect("one poisoned range per measurement");
            }
        }
        let cfg = MclConfig {
            seed,
            ..MclConfig::default()
        };
        let mut mcl = MonteCarloLocalizer::new(&world, &cfg);
        prof.run(|p| mcl.try_run_trajectory(&traj, &world, p))?;
        let est = mcl.estimate();
        let truth = traj.steps.last().expect("non-empty trajectory").true_pose;
        let err = est.distance(&truth);
        Ok(RunOutcome {
            quality: Some((1.0 - err / 2.0).clamp(0.0, 1.0)),
            detail: format!(
                "{} particles, {} steps, position error {err:.2} m",
                cfg.particles,
                traj.steps.len()
            ),
        })
    }
}

// ---------------------------------------------------------------------- svm

struct SvmBench;

static SVM_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "SVM",
    description: "Supervised learning method for classification",
    area: ConcentrationArea::ImageUnderstanding,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Machine learning",
    kernels: &["MatrixOps", "Learning", "ConjugateMatrix"],
    honors_exec_policy: false,
};

/// SVM's input: two Gaussian clusters in 64 dimensions, split 3:1 into
/// training and test samples.
///
/// The paper's working set is 500x64; the size classes scale the sample
/// count (125/250/500) at fixed 64 dimensions.
pub(crate) fn svm_input(size: InputSize, seed: u64) -> sdvbs_svm::Dataset {
    let n = ((60.0 * size.relative_pixels()).round() as usize).clamp(80, 500);
    sdvbs_svm::gaussian_clusters(n, 64, 6.0, seed)
}

impl Benchmark for SvmBench {
    fn info(&self) -> &BenchmarkInfo {
        &SVM_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_svm::{train_interior_point, SvmConfig};
        let mut data = svm_input(size, seed);
        let (n, dims) = (
            data.train_x.rows() + data.test_x.rows(),
            data.train_x.cols(),
        );
        poison_slice(data.train_x.as_mut_slice());
        let cfg = SvmConfig {
            tolerance: 1e-4,
            max_iterations: 60,
            ..SvmConfig::default()
        };
        let model = prof.run(|p| train_interior_point(&data.train_x, &data.train_y, &cfg, p))?;
        // The paper's second phase: classification over the held-out
        // set (polynomial/kernel evaluations = matrix operations).
        let acc =
            prof.run(|p| p.kernel("MatrixOps", |_| model.accuracy(&data.test_x, &data.test_y)));
        Ok(RunOutcome {
            quality: Some(acc),
            detail: format!(
                "{n}x{dims} interior-point training, {} SVs, test accuracy {acc:.3}",
                model.support_vectors()
            ),
        })
    }
}

// ------------------------------------------------------------- facedetect

struct FaceDetectBench;

static FACEDETECT_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Face Detection",
    description: "Identify Faces in an Image",
    area: ConcentrationArea::ImageUnderstanding,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Video Surveillance, Image Database Management",
    kernels: &["IntegralImage", "ExtractFaces", "StabilizeWindows"],
    honors_exec_policy: true,
};

/// Face detection's input: a scene with ground-truth faces, two plus one
/// per SQCIF area of the frame (at most six).
pub(crate) fn facedetect_input(size: InputSize, seed: u64) -> sdvbs_synth::FaceScene {
    let (w, h) = size.dims();
    let n_faces = 2 + (size.pixels() / InputSize::Sqcif.pixels()).min(4);
    sdvbs_synth::face_scene(w.max(64), h.max(64), seed, n_faces)
}

impl Benchmark for FaceDetectBench {
    fn info(&self) -> &BenchmarkInfo {
        &FACEDETECT_INFO
    }

    /// The cascade is a model, not per-run work: SD-VBS ships its model
    /// pre-trained, and so does `sdvbs-facedetect`. Warming parses it.
    fn warmup(&self) {
        let _ = sdvbs_facedetect::Cascade::pretrained();
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_facedetect::{try_detect_faces, Detection, DetectorConfig};
        let mut scene = facedetect_input(size, seed);
        poison_image(&mut scene.image);
        let cascade = sdvbs_facedetect::Cascade::pretrained();
        let cfg = DetectorConfig {
            exec: policy,
            ..DetectorConfig::default()
        };
        let found = prof.run(|p| try_detect_faces(&scene.image, cascade, &cfg, p))?;
        let hits = scene
            .faces
            .iter()
            .filter(|t| {
                let tb = Detection {
                    x: t.x,
                    y: t.y,
                    size: t.size,
                    support: 1,
                };
                found.iter().any(|d| d.iou(&tb) > 0.3)
            })
            .count();
        let quality = if scene.faces.is_empty() {
            1.0
        } else {
            hits as f64 / scene.faces.len() as f64
        };
        Ok(RunOutcome {
            quality: Some(quality),
            detail: format!(
                "{hits}/{} faces found, {} detections",
                scene.faces.len(),
                found.len()
            ),
        })
    }
}

// ------------------------------------------------------------------- stitch

struct StitchBench;

static STITCH_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Image Stitch",
    description: "Stitch overlapping images using feature based alignment and matching",
    area: ConcentrationArea::ImageProcessingFormation,
    characteristic: Characteristic::DataAndComputeIntensive,
    domain: "Computational photography",
    kernels: &[
        "Convolution",
        "ANMS",
        "FeatureMatch",
        "LSSolver",
        "SVD",
        "Blend",
    ],
    honors_exec_policy: false,
};

/// Stitch's input: two overlapping views and the true transform between
/// them.
pub(crate) fn stitch_input(size: InputSize, seed: u64) -> sdvbs_synth::OverlapPair {
    let (w, h) = size.dims();
    sdvbs_synth::overlapping_pair(w.max(64), h.max(48), seed, 0.03, w as f32 * 0.1, 4.0)
}

impl Benchmark for StitchBench {
    fn info(&self) -> &BenchmarkInfo {
        &STITCH_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_stitch::{stitch, Affine, StitchConfig};
        let mut pair = stitch_input(size, seed);
        poison_image(&mut pair.a);
        let result = prof.run(|p| stitch(&pair.a, &pair.b, &StitchConfig::default(), p))?;
        let truth = Affine::from_coeffs(pair.b_to_a);
        let diff = result.b_to_a.max_coeff_diff(&truth);
        Ok(RunOutcome {
            quality: Some((1.0 - diff).clamp(0.0, 1.0)),
            detail: format!(
                "{} matches, {} inliers, transform error {diff:.3}",
                result.matches, result.inliers
            ),
        })
    }
}

// ------------------------------------------------------------------ texture

struct TextureBench;

static TEXTURE_INFO: BenchmarkInfo = BenchmarkInfo {
    name: "Texture Synthesis",
    description:
        "Construct a large digital image from a smaller portion by utilizing features of its structural content",
    area: ConcentrationArea::ImageProcessingFormation,
    characteristic: Characteristic::ComputeIntensive,
    domain: "Computational photography and movie making",
    kernels: &["Analysis", "PCA", "Sampling", "Kurtosis"],
    honors_exec_policy: false,
};

/// Texture synthesis's input: one swatch, stochastic for even seeds and
/// structural for odd ones.
///
/// The swatch is capped so runtime stays flat across size classes (the
/// paper: "execution time for all the image types is almost similar due
/// to the fixed number of iterations").
pub(crate) fn texture_input(size: InputSize, seed: u64) -> (Image, sdvbs_synth::TextureKind) {
    let (w, h) = size.dims();
    let kind = if seed.is_multiple_of(2) {
        sdvbs_synth::TextureKind::Stochastic
    } else {
        sdvbs_synth::TextureKind::Structural
    };
    let swatch =
        sdvbs_synth::texture_swatch((w / 2).clamp(24, 64), (h / 2).clamp(24, 64), seed, kind);
    (swatch, kind)
}

impl Benchmark for TextureBench {
    fn info(&self) -> &BenchmarkInfo {
        &TEXTURE_INFO
    }

    fn try_run_with(
        &self,
        size: InputSize,
        seed: u64,
        _policy: ExecPolicy,
        prof: &mut Profiler,
    ) -> SdvbsResult<RunOutcome> {
        use sdvbs_texture::{synthesize, TextureConfig};
        let (mut swatch, kind) = texture_input(size, seed);
        let (sw, sh) = (swatch.width(), swatch.height());
        poison_image(&mut swatch);
        let cfg = TextureConfig {
            seed,
            ..TextureConfig::default()
        };
        let out = prof.run(|p| synthesize(&swatch, 40, 40, &cfg, p))?;
        // Statistical validation is part of the measured pipeline:
        // the paper lists "texture analysis, kurtosis and texture
        // synthesis" among the hot spots, and Portilla-Simoncelli
        // quality is defined by moment matching.
        let distance = prof.run(|p| {
            p.kernel("Kurtosis", |_| {
                use sdvbs_texture::TextureStatistics;
                let s_in = TextureStatistics::compute(&swatch, 3);
                let s_out = TextureStatistics::compute(&out, 3);
                s_in.distance(&s_out)
            })
        });
        let quality = (1.0 - distance).clamp(0.0, 1.0);
        Ok(RunOutcome {
            quality: Some(quality),
            detail: format!(
                "40x40 synthesized from {sw}x{sh} swatch ({kind:?}), stats distance {distance:.3}"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nine_benchmarks_in_table_order() {
        let suite = all_benchmarks();
        let names: Vec<&str> = suite.iter().map(|b| b.info().name).collect();
        assert_eq!(
            names,
            vec![
                "Disparity Map",
                "Feature Tracking",
                "Image Segmentation",
                "SIFT",
                "Robot Localization",
                "SVM",
                "Face Detection",
                "Image Stitch",
                "Texture Synthesis",
            ]
        );
    }

    #[test]
    fn every_benchmark_declares_kernels_and_domain() {
        for b in all_benchmarks() {
            let info = b.info();
            assert!(!info.kernels.is_empty(), "{} has no kernels", info.name);
            assert!(!info.domain.is_empty());
            assert!(!info.description.is_empty());
        }
    }

    #[test]
    fn concentration_areas_cover_all_four() {
        use std::collections::HashSet;
        let areas: HashSet<String> = all_benchmarks()
            .iter()
            .map(|b| b.info().area.to_string())
            .collect();
        assert_eq!(areas.len(), 4);
    }

    #[test]
    fn small_runs_produce_reasonable_quality() {
        let size = InputSize::Custom {
            width: 72,
            height: 56,
        };
        for b in all_benchmarks() {
            let info_name = b.info().name;
            let mut prof = Profiler::new();
            let outcome = b
                .try_run_with(size, 3, ExecPolicy::Serial, &mut prof)
                .unwrap_or_else(|e| panic!("{info_name} failed: {e}"));
            if let Some(q) = outcome.quality {
                assert!(q > 0.3, "{info_name} quality {q}: {}", outcome.detail);
            }
            // Every declared kernel actually reported time.
            let rep = prof.report();
            for k in b.info().kernels {
                assert!(
                    rep.occupancy(k).is_some(),
                    "{info_name}: declared kernel {k} never ran"
                );
            }
        }
    }

    #[test]
    fn run_with_parallel_policy_matches_serial_outcome() {
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        // Benchmarks that plumb the policy through promise bit-identical
        // outputs from their parallel kernels, and the others ignore it, so
        // no outcome (quality and detail) may change with the policy.
        for bench in all_benchmarks() {
            let name = bench.info().name;
            let mut ps = Profiler::new();
            let mut pt = Profiler::new();
            let serial = bench.try_run_with(size, 5, ExecPolicy::Serial, &mut ps);
            let threaded = bench.try_run_with(size, 5, ExecPolicy::Threads(3), &mut pt);
            assert_eq!(serial, threaded, "{name} outcome changed under Threads(3)");
            assert!(serial.is_ok(), "{name} failed: {serial:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        let suite = all_benchmarks();
        let disparity = &suite[0];
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        let a = disparity.try_run_with(size, 9, ExecPolicy::Serial, &mut p1);
        let b = disparity.try_run_with(size, 9, ExecPolicy::Serial, &mut p2);
        assert_eq!(a, b);
        assert!(a.is_ok());
    }
}
