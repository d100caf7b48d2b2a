//! The attentional cascade: stage-wise training with hard-negative
//! mining, multi-scale sliding-window detection, and window
//! stabilization (non-maximum suppression).

use crate::boost::{train_adaboost, StrongClassifier};
use crate::haar::{generate_features, HaarFeature, NormalizedWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdvbs_image::Image;
use sdvbs_kernels::integral::IntegralImage;
use sdvbs_profile::Profiler;
use sdvbs_synth::{render_face_patch, render_non_face_patch};
use std::error::Error;
use std::fmt;

/// Cascade training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// Canonical window side (pixels).
    pub window: usize,
    /// AdaBoost rounds per stage (stage count = vector length).
    pub stage_rounds: Vec<usize>,
    /// Training positives (rendered faces).
    pub positives: usize,
    /// Training negatives per stage (clutter patches, hard-mined).
    pub negatives: usize,
    /// Per-stage detection rate target on held-in positives.
    pub stage_detection_rate: f64,
    /// Position/size stride of the Haar feature pool.
    pub feature_step: usize,
    /// RNG seed for sample rendering.
    pub seed: u64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            window: 24,
            stage_rounds: vec![4, 8, 15],
            positives: 250,
            negatives: 250,
            stage_detection_rate: 0.99,
            feature_step: 3,
            seed: 99,
        }
    }
}

/// Errors from cascade training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CascadeError {
    /// The configuration is unusable (empty stages, tiny window, ...).
    InvalidConfig(String),
    /// Negative mining could not find enough hard negatives (the cascade
    /// already rejects everything the generator produces).
    NegativesExhausted {
        /// Stage that ran dry.
        stage: usize,
    },
}

impl fmt::Display for CascadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadeError::InvalidConfig(m) => write!(f, "invalid cascade config: {m}"),
            CascadeError::NegativesExhausted { stage } => {
                write!(f, "negative mining exhausted at stage {stage}")
            }
        }
    }
}

impl Error for CascadeError {}

/// A trained attentional cascade.
#[derive(Debug, Clone)]
pub struct Cascade {
    stages: Vec<StrongClassifier>,
    window: usize,
}

impl Cascade {
    /// Canonical window side.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Internal view of the stages (model serialization).
    pub(crate) fn stage_slice(&self) -> &[StrongClassifier] {
        &self.stages
    }

    /// Reassembles a cascade from deserialized parts (model loading).
    pub(crate) fn from_parts(stages: Vec<StrongClassifier>, window: usize) -> Cascade {
        Cascade { stages, window }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Evaluates the cascade on a normalized window; `true` means every
    /// stage accepted (a face).
    ///
    /// Stump `i` of a stage always references stage feature `i`, so the
    /// committee score is accumulated stump-by-stump with no per-window
    /// feature-value buffer — the same additions in the same order as
    /// [`StrongClassifier::classify`] on a collected value vector, minus
    /// the allocation the old scan paid for every window.
    pub fn accepts(&self, ii: &IntegralImage, win: &NormalizedWindow) -> bool {
        self.stages.iter().all(|stage| {
            let score: f64 = stage
                .stumps
                .iter()
                .map(|st| st.alpha * st.vote(stage.features[st.feature].eval(ii, win)))
                .sum();
            score >= stage.threshold
        })
    }

    /// Classifies a standalone `window × window` patch.
    ///
    /// # Panics
    ///
    /// Panics if the patch is not exactly the canonical window size.
    pub fn accepts_patch(&self, patch: &Image) -> bool {
        assert_eq!(
            (patch.width(), patch.height()),
            (self.window, self.window),
            "patch must match the canonical window"
        );
        let ii = IntegralImage::new(patch);
        let ii2 = IntegralImage::squared(patch);
        let win = NormalizedWindow::new(&ii, &ii2, 0, 0, self.window, self.window);
        self.accepts(&ii, &win)
    }

    /// Trains a cascade on synthetically rendered faces and hard-mined
    /// clutter (the `Adaboost` kernel).
    ///
    /// # Errors
    ///
    /// * [`CascadeError::InvalidConfig`] for unusable parameters.
    /// * [`CascadeError::NegativesExhausted`] if hard-negative mining runs
    ///   dry before the last stage.
    pub fn train(cfg: &CascadeConfig, prof: &mut Profiler) -> Result<Cascade, CascadeError> {
        if cfg.window < 16 {
            return Err(CascadeError::InvalidConfig(
                "window must be at least 16".into(),
            ));
        }
        if cfg.stage_rounds.is_empty() || cfg.stage_rounds.contains(&0) {
            return Err(CascadeError::InvalidConfig(
                "stages must be non-empty".into(),
            ));
        }
        if cfg.positives < 10 || cfg.negatives < 10 {
            return Err(CascadeError::InvalidConfig(
                "need at least 10 samples per class".into(),
            ));
        }
        if !(0.5..=1.0).contains(&cfg.stage_detection_rate) {
            return Err(CascadeError::InvalidConfig(
                "stage_detection_rate must be in 0.5..=1".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let features = generate_features(cfg.window, cfg.feature_step);
        // Render the positive set once. Faces are rendered slightly larger
        // and cropped with random offset/scale jitter so the detector
        // tolerates the misalignment of a strided sliding-window scan.
        let positives: Vec<Image> = (0..cfg.positives)
            .map(|_| {
                let slack = 4usize;
                let big = render_face_patch(cfg.window + slack, &mut rng);
                let ox = rng.gen_range(0..=slack);
                let oy = rng.gen_range(0..=slack);
                big.crop(ox, oy, cfg.window, cfg.window)
            })
            .collect();
        let mut negatives: Vec<Image> = (0..cfg.negatives)
            .map(|_| render_non_face_patch(cfg.window, &mut rng))
            .collect();
        let mut stages: Vec<StrongClassifier> = Vec::new();
        for (stage_idx, &rounds) in cfg.stage_rounds.iter().enumerate() {
            // Feature-value matrix for this stage's sample set.
            let samples: Vec<&Image> = positives.iter().chain(negatives.iter()).collect();
            let labels: Vec<bool> = (0..samples.len()).map(|i| i < positives.len()).collect();
            let values: Vec<Vec<f64>> = prof.kernel("IntegralImage", |_| {
                // Per-sample integral images, then per-feature rows.
                let wins: Vec<(IntegralImage, NormalizedWindow)> = samples
                    .iter()
                    .map(|img| {
                        let ii = IntegralImage::new(img);
                        let ii2 = IntegralImage::squared(img);
                        let win = NormalizedWindow::new(&ii, &ii2, 0, 0, cfg.window, cfg.window);
                        (ii, win)
                    })
                    .collect();
                features
                    .iter()
                    .map(|f| wins.iter().map(|(ii, win)| f.eval(ii, win)).collect())
                    .collect()
            });
            let mut stage = prof.kernel("Adaboost", |_| {
                train_adaboost(&features, &values, &labels, rounds)
            });
            // Lower the stage threshold until the detection-rate target is
            // met on the positives.
            let pos_scores: Vec<f64> = (0..positives.len())
                .map(|s| {
                    let vals: Vec<f64> = stage
                        .stumps
                        .iter()
                        .map(|st| values[feature_index(&features, &stage.features[st.feature])][s])
                        .collect();
                    stage.score(&vals)
                })
                .collect();
            let mut sorted = pos_scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
            let drop = ((1.0 - cfg.stage_detection_rate) * sorted.len() as f64) as usize;
            stage.threshold = sorted[drop.min(sorted.len() - 1)] - 1e-9;
            stages.push(stage);
            // Hard-negative mining for the next stage: keep negatives that
            // still pass, replace the rest with fresh clutter that fools
            // the cascade so far.
            if stage_idx + 1 < cfg.stage_rounds.len() {
                let cascade_so_far = Cascade {
                    stages: stages.clone(),
                    window: cfg.window,
                };
                negatives.retain(|n| cascade_so_far.accepts_patch(n));
                let mut attempts = 0usize;
                while negatives.len() < cfg.negatives && attempts < 40_000 {
                    attempts += 1;
                    let cand = render_non_face_patch(cfg.window, &mut rng);
                    if cascade_so_far.accepts_patch(&cand) {
                        negatives.push(cand);
                    }
                }
                if negatives.is_empty() {
                    return Err(CascadeError::NegativesExhausted { stage: stage_idx });
                }
                if negatives.len() < 10 {
                    // The cascade already rejects essentially all clutter
                    // the generator can produce — further stages would
                    // train on noise. Stop early with the stages built.
                    break;
                }
            }
        }
        Ok(Cascade {
            stages,
            window: cfg.window,
        })
    }
}

fn feature_index(pool: &[HaarFeature], f: &HaarFeature) -> usize {
    pool.iter()
        .position(|p| p == f)
        .expect("stump features come from the pool")
}

/// A detected face window with its last-stage score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Window side length.
    pub size: usize,
    /// Number of raw windows merged into this detection (confidence
    /// proxy).
    pub support: usize,
}

impl Detection {
    /// Intersection-over-union with another detection.
    pub fn iou(&self, other: &Detection) -> f64 {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = (self.x + self.size).min(other.x + other.size);
        let y1 = (self.y + self.size).min(other.y + other.size);
        if x1 <= x0 || y1 <= y0 {
            return 0.0;
        }
        let inter = ((x1 - x0) * (y1 - y0)) as f64;
        let uni = (self.size * self.size + other.size * other.size) as f64 - inter;
        inter / uni
    }
}

/// Sliding-window detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Scale multiplier between window sizes.
    pub scale_factor: f64,
    /// Stride as a fraction of the current window size.
    pub stride_frac: f64,
    /// Minimum merged-window support to report a detection.
    pub min_support: usize,
    /// IoU above which raw windows are merged.
    pub merge_iou: f64,
    /// Execution policy for the cascade scan ("ExtractFaces"). Any policy
    /// yields bit-identical detections.
    pub exec: sdvbs_exec::ExecPolicy,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            scale_factor: 1.12,
            stride_frac: 0.05,
            min_support: 6,
            merge_iou: 0.3,
            exec: sdvbs_exec::ExecPolicy::Serial,
        }
    }
}

/// Errors from the fallible detector entry [`try_detect_faces`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectError {
    /// The image cannot host a single detector window.
    ImageTooSmall {
        /// The cascade's base window side.
        window: usize,
        /// The smaller offending image side.
        side: usize,
    },
    /// The image contains NaN or infinite pixels.
    NonFinitePixels,
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::ImageTooSmall { window, side } => {
                write!(f, "image side {side} below the {window}-pixel window")
            }
            DetectError::NonFinitePixels => write!(f, "image contains non-finite pixels"),
        }
    }
}

impl Error for DetectError {}

/// Runs the multi-scale sliding-window detector, rejecting degenerate
/// inputs with a typed error.
///
/// Kernel attribution: `IntegralImage` (plain + squared tables),
/// `ExtractFaces` (the cascade scan), `StabilizeWindows` (merging /
/// non-maximum suppression) — the paper's three face-detection
/// components.
///
/// # Errors
///
/// * [`DetectError::ImageTooSmall`] if the image cannot host one window;
/// * [`DetectError::NonFinitePixels`] for NaN/Inf pixels.
pub fn try_detect_faces(
    img: &Image,
    cascade: &Cascade,
    cfg: &DetectorConfig,
    prof: &mut Profiler,
) -> Result<Vec<Detection>, DetectError> {
    let side = img.width().min(img.height());
    if side < cascade.window() {
        return Err(DetectError::ImageTooSmall {
            window: cascade.window(),
            side,
        });
    }
    if !img.all_finite() {
        return Err(DetectError::NonFinitePixels);
    }
    Ok(detect_pipeline(img, cascade, cfg, prof))
}

/// The validated multi-scale scan.
fn detect_pipeline(
    img: &Image,
    cascade: &Cascade,
    cfg: &DetectorConfig,
    prof: &mut Profiler,
) -> Vec<Detection> {
    let (ii, ii2) = prof.kernel("IntegralImage", |_| {
        (IntegralImage::new(img), IntegralImage::squared(img))
    });
    // Enumerate the scan rows of every scale in serial scan order
    // (size-major, then y); each row is an independent unit of work.
    let mut rows: Vec<(usize, usize, usize)> = Vec::new(); // (size, stride, y)
    let mut size = cascade.window();
    let max_size = img.width().min(img.height());
    while size <= max_size {
        let stride = ((size as f64 * cfg.stride_frac).round() as usize).max(1);
        let mut y = 0;
        while y + size <= img.height() {
            rows.push((size, stride, y));
            y += stride;
        }
        size = ((size as f64) * cfg.scale_factor).round() as usize;
    }
    let scan = |rows: &[(usize, usize, usize)]| {
        let mut out = Vec::new();
        for &(size, stride, y) in rows {
            // All windows of this scan row share the same two table-row
            // bands of each integral image; borrowing them once turns the
            // per-window normalization sums into four fixed-offset slice
            // reads in the exact `d − b − c + a` order of
            // `IntegralImage::sum` (bit-identical, no per-window asserts).
            let top = ii.table_row(y);
            let bot = ii.table_row(y + size);
            let top2 = ii2.table_row(y);
            let bot2 = ii2.table_row(y + size);
            let mut x = 0;
            while x + size <= img.width() {
                let x1 = x + size;
                let sum = bot[x1] - top[x1] - bot[x] + top[x];
                let sum2 = bot2[x1] - top2[x1] - bot2[x] + top2[x];
                let win =
                    NormalizedWindow::from_window_sums(sum, sum2, x, y, size, cascade.window());
                if cascade.accepts(&ii, &win) {
                    out.push(Detection {
                        x,
                        y,
                        size,
                        support: 1,
                    });
                }
                x += stride;
            }
        }
        out
    };
    let raw: Vec<Detection> = if !cfg.exec.is_parallel(rows.len()) {
        prof.kernel("ExtractFaces", |_| scan(&rows))
    } else {
        // Each worker scans a contiguous run of rows with a private
        // Profiler; concatenating results in chunk order reproduces the
        // serial scan order (and therefore identical merged detections).
        let coordinator: &Profiler = prof;
        let parts = sdvbs_exec::map_chunks(cfg.exec, rows.len(), |r| {
            // Inherits the coordinator's tracing mode on a private track.
            let mut local = coordinator.worker();
            let dets = local.kernel("ExtractFaces", |_| scan(&rows[r]));
            (local, dets)
        });
        let mut raw = Vec::new();
        for (local, dets) in parts {
            // Worker scopes are structurally closed (the closure returned),
            // so the only absorb error — open scopes — is unreachable.
            prof.absorb(local)
                .expect("worker profiler has no open scopes");
            raw.extend(dets);
        }
        raw
    };
    prof.kernel("StabilizeWindows", |_| {
        merge_detections(&raw, cfg.merge_iou, cfg.min_support)
    })
}

/// Greedy connected-component merging of overlapping raw windows; groups
/// with fewer than `min_support` members are discarded.
fn merge_detections(raw: &[Detection], merge_iou: f64, min_support: usize) -> Vec<Detection> {
    let mut groups: Vec<Vec<Detection>> = Vec::new();
    for d in raw {
        let mut placed = false;
        for g in &mut groups {
            if g.iter().any(|m| m.iou(d) >= merge_iou) {
                g.push(*d);
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push(vec![*d]);
        }
    }
    groups
        .into_iter()
        .filter(|g| g.len() >= min_support)
        .map(|g| {
            let n = g.len();
            Detection {
                x: g.iter().map(|d| d.x).sum::<usize>() / n,
                y: g.iter().map(|d| d.y).sum::<usize>() / n,
                size: g.iter().map(|d| d.size).sum::<usize>() / n,
                support: n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::{face_scene, FaceBox};

    /// The shipped default cascade (a unit test in `model_io` pins it to
    /// the default training output).
    fn cascade() -> &'static Cascade {
        Cascade::pretrained()
    }

    #[test]
    fn cascade_separates_faces_from_clutter() {
        let c = cascade();
        let mut rng = StdRng::seed_from_u64(12345);
        let mut face_hits = 0;
        let mut clutter_hits = 0;
        let n = 150;
        for _ in 0..n {
            if c.accepts_patch(&render_face_patch(24, &mut rng)) {
                face_hits += 1;
            }
            if c.accepts_patch(&render_non_face_patch(24, &mut rng)) {
                clutter_hits += 1;
            }
        }
        assert!(face_hits * 10 >= n * 9, "detection rate {face_hits}/{n}");
        assert!(
            clutter_hits * 10 <= n * 3,
            "false positive rate {clutter_hits}/{n}"
        );
    }

    #[test]
    fn finds_planted_faces_in_scene() {
        let c = cascade();
        let scene = face_scene(200, 150, 31, 3);
        let mut prof = Profiler::new();
        let found = try_detect_faces(&scene.image, c, &DetectorConfig::default(), &mut prof)
            .expect("valid image");
        let mut hits = 0;
        for truth in &scene.faces {
            let tb = Detection {
                x: truth.x,
                y: truth.y,
                size: truth.size,
                support: 1,
            };
            if found.iter().any(|d| d.iou(&tb) > 0.35) {
                hits += 1;
            }
        }
        assert!(hits >= 2, "found {hits}/3 planted faces ({found:?})");
        // Not drowning in false positives.
        assert!(
            found.len() <= 3 + 4,
            "{} detections for 3 faces",
            found.len()
        );
    }

    #[test]
    fn empty_texture_scene_has_few_detections() {
        let c = cascade();
        let img = sdvbs_synth::textured_image(160, 120, 77);
        let mut prof = Profiler::new();
        let found =
            try_detect_faces(&img, c, &DetectorConfig::default(), &mut prof).expect("valid image");
        assert!(
            found.len() <= 2,
            "{} false detections on texture",
            found.len()
        );
    }

    #[test]
    fn merge_requires_support() {
        let d = Detection {
            x: 10,
            y: 10,
            size: 24,
            support: 1,
        };
        let merged = merge_detections(&[d], 0.3, 2);
        assert!(merged.is_empty());
        let merged = merge_detections(&[d, d, d], 0.3, 2);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].support, 3);
    }

    #[test]
    fn merge_keeps_distant_groups_separate() {
        let a = Detection {
            x: 0,
            y: 0,
            size: 24,
            support: 1,
        };
        let b = Detection {
            x: 100,
            y: 100,
            size: 24,
            support: 1,
        };
        let merged = merge_detections(&[a, a, b, b], 0.3, 2);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut prof = Profiler::new();
        for cfg in [
            CascadeConfig {
                window: 8,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                stage_rounds: vec![],
                ..CascadeConfig::default()
            },
            CascadeConfig {
                stage_rounds: vec![0],
                ..CascadeConfig::default()
            },
            CascadeConfig {
                positives: 2,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                stage_detection_rate: 0.2,
                ..CascadeConfig::default()
            },
        ] {
            assert!(Cascade::train(&cfg, &mut prof).is_err());
        }
    }

    #[test]
    fn kernel_attribution() {
        let c = cascade();
        let scene = face_scene(120, 100, 5, 1);
        let mut prof = Profiler::new();
        prof.run(|p| {
            try_detect_faces(&scene.image, c, &DetectorConfig::default(), p).expect("valid image")
        });
        let rep = prof.report();
        for k in ["IntegralImage", "ExtractFaces", "StabilizeWindows"] {
            assert!(rep.occupancy(k).is_some(), "kernel {k} missing");
        }
        // The scan dominates.
        assert!(rep.occupancy("ExtractFaces").unwrap() > 50.0);
    }

    #[test]
    fn iou_uses_box_geometry() {
        let a = Detection {
            x: 0,
            y: 0,
            size: 10,
            support: 1,
        };
        let b = Detection {
            x: 5,
            y: 0,
            size: 10,
            support: 1,
        };
        assert!((a.iou(&b) - 50.0 / 150.0).abs() < 1e-12);
        let _ = FaceBox {
            x: 0,
            y: 0,
            size: 4,
        }; // synth API smoke-link
    }
}
