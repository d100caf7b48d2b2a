//! SD-VBS benchmark 4: **SIFT** — the Scale Invariant Feature Transform.
//!
//! SIFT detects keypoints that are stable under scaling, rotation and
//! noise, and attaches a 128-dimensional descriptor to each. The paper
//! splits the benchmark into a data-intensive preprocessing phase
//! (anti-aliased upsampling — the `Interpolation` kernel — and integral-
//! image based normalization) and a compute-intensive core (`SIFT` kernel:
//! difference-of-Gaussian pyramid construction, keypoint detection with
//! subpixel refinement and edge pruning, orientation assignment, and
//! descriptor histogram binning).
//!
//! The implementation follows Lowe's 2004 formulation:
//!
//! 1. (optional) 2× bilinear upsampling of the input (`Interpolation`).
//! 2. Gaussian scale space with `intervals` scales per octave; each octave
//!    is the previous one decimated by 2.
//! 3. DoG extrema over 3×3×3 neighborhoods, quadratic subpixel refinement,
//!    contrast and edge-ratio rejection.
//! 4. Gradient-orientation histogram (36 bins) → dominant orientation(s).
//! 5. 4×4×8 gradient histogram descriptor, trilinearly binned,
//!    normalized, clipped at 0.2, renormalized.
//!
//! # Examples
//!
//! ```
//! use sdvbs_profile::Profiler;
//! use sdvbs_sift::{try_detect_and_describe, SiftConfig};
//! use sdvbs_synth::textured_image;
//!
//! let img = textured_image(96, 96, 3);
//! let mut prof = Profiler::new();
//! let feats = try_detect_and_describe(&img, &SiftConfig::default(), &mut prof)?;
//! assert!(!feats.is_empty());
//! assert_eq!(feats[0].descriptor.len(), 128);
//! # Ok::<(), sdvbs_sift::SiftError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod descriptor;
mod detect;
mod error;
mod matching;
mod mser;
mod scalespace;

pub use descriptor::SiftFeature;
pub use detect::Keypoint;
pub use error::SiftError;
pub use matching::{match_descriptors, DescriptorMatch};
pub use mser::{detect_mser, MserConfig, MserPolarity, MserRegion};
pub use scalespace::ScaleSpace;

use sdvbs_image::Image;
use sdvbs_kernels::integral::IntegralImage;
use sdvbs_profile::Profiler;

/// Configuration of the SIFT pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftConfig {
    /// Scales per octave at which extrema are sought (Lowe's `S`; the
    /// scale space holds `S + 3` blur levels per octave).
    pub intervals: usize,
    /// Base smoothing of the first scale-space level.
    pub sigma0: f32,
    /// Minimum |DoG| response, relative to a 0..1 intensity range.
    pub contrast_threshold: f32,
    /// Maximum principal-curvature ratio (Lowe's `r`; 10 rejects edges).
    pub edge_threshold: f32,
    /// Whether to double the input resolution first (the `Interpolation`
    /// kernel; improves keypoint yield at the cost of 4× the work).
    pub double_size: bool,
    /// Upper bound on octaves (further limited by image size).
    pub max_octaves: usize,
}

impl Default for SiftConfig {
    fn default() -> Self {
        SiftConfig {
            intervals: 3,
            sigma0: 1.6,
            contrast_threshold: 0.025,
            edge_threshold: 10.0,
            double_size: true,
            max_octaves: 5,
        }
    }
}

impl SiftConfig {
    /// Validates the configuration, panicking with a descriptive message
    /// if a field is out of range (configs are typically literals, so a
    /// panic at construction is the ergonomic choice here).
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0`, `sigma0 <= 0`, thresholds are negative,
    /// or `max_octaves == 0`.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Checks the configuration without panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] naming the out-of-range field.
    pub fn validate(&self) -> Result<(), SiftError> {
        if self.intervals == 0 {
            return Err(SiftError::InvalidConfig(
                "intervals must be positive".into(),
            ));
        }
        if self.sigma0.is_nan() || self.sigma0 <= 0.0 {
            return Err(SiftError::InvalidConfig("sigma0 must be positive".into()));
        }
        if self.contrast_threshold.is_nan() || self.contrast_threshold < 0.0 {
            return Err(SiftError::InvalidConfig(
                "contrast_threshold must be non-negative".into(),
            ));
        }
        if self.edge_threshold.is_nan() || self.edge_threshold < 1.0 {
            return Err(SiftError::InvalidConfig(
                "edge_threshold must be at least 1".into(),
            ));
        }
        if self.max_octaves == 0 {
            return Err(SiftError::InvalidConfig(
                "max_octaves must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Runs the full SIFT pipeline, keypoint detection plus descriptor
/// computation, rejecting degenerate inputs with a typed error instead of
/// panicking.
///
/// Kernel attribution follows the paper's Figure 3 grouping:
/// `Interpolation` (upsampling), `IntegralImage` (intensity
/// normalization), and `SIFT` (scale space, detection, orientation and
/// descriptors).
///
/// # Errors
///
/// * [`SiftError::InvalidConfig`] for an out-of-range configuration;
/// * [`SiftError::ImageTooSmall`] below the 32×32 structural minimum;
/// * [`SiftError::NonFinitePixels`] for NaN/Inf pixels.
pub fn try_detect_and_describe(
    img: &Image,
    cfg: &SiftConfig,
    prof: &mut Profiler,
) -> Result<Vec<SiftFeature>, SiftError> {
    cfg.validate()?;
    let side = img.width().min(img.height());
    if side < 32 {
        return Err(SiftError::ImageTooSmall { min: 32, side });
    }
    if !img.all_finite() {
        return Err(SiftError::NonFinitePixels);
    }
    Ok(sift_pipeline(img, cfg, prof))
}

/// The validated SIFT hot path.
fn sift_pipeline(img: &Image, cfg: &SiftConfig, prof: &mut Profiler) -> Vec<SiftFeature> {
    // Intensity normalization to 0..1 using integral-image statistics
    // (mean/range): the "IntegralImage" preprocessing share.
    let normalized = prof.kernel("IntegralImage", |_| {
        let ii = IntegralImage::new(img);
        let mean = ii.mean(0, 0, img.width(), img.height()) as f32;
        let lo = img.min();
        let hi = img.max();
        let range = (hi - lo).max(1e-6);
        // Center on the mean, scale by the range.
        img.map(|v| (v - mean) / range + 0.5)
    });
    // Anti-aliased upsampling ("Interpolation" kernel).
    let (base, base_scale) = prof.kernel("Interpolation", |_| {
        if cfg.double_size {
            (
                normalized.resize_bilinear(normalized.width() * 2, normalized.height() * 2),
                0.5f32,
            )
        } else {
            (normalized.clone(), 1.0f32)
        }
    });
    // Everything else is the paper's "SIFT" kernel.
    prof.kernel("SIFT", |_| {
        let ss = ScaleSpace::build(&base, cfg.intervals, cfg.sigma0, cfg.max_octaves);
        let keypoints = detect::detect_keypoints(&ss, cfg);
        let mut feats = descriptor::describe(&ss, &keypoints);
        // Report keypoints in input-image coordinates.
        for f in &mut feats {
            f.keypoint.x *= base_scale;
            f.keypoint.y *= base_scale;
            f.keypoint.sigma *= base_scale;
        }
        feats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::textured_image;

    #[test]
    fn finds_features_on_texture() {
        let img = textured_image(96, 96, 1);
        let mut prof = Profiler::new();
        let feats =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        assert!(feats.len() >= 10, "only {} features", feats.len());
    }

    #[test]
    fn descriptors_are_normalized() {
        let img = textured_image(96, 96, 2);
        let mut prof = Profiler::new();
        let feats =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        for f in &feats {
            let norm: f32 = f.descriptor.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "descriptor norm {norm}");
            assert!(f.descriptor.iter().all(|&v| (0.0..=0.45).contains(&v)));
        }
    }

    #[test]
    fn keypoints_lie_inside_the_image() {
        let img = textured_image(80, 64, 3);
        let mut prof = Profiler::new();
        let feats =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        for f in &feats {
            assert!(f.keypoint.x >= 0.0 && f.keypoint.x < 80.0);
            assert!(f.keypoint.y >= 0.0 && f.keypoint.y < 64.0);
            assert!(f.keypoint.sigma > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let img = textured_image(64, 64, 4);
        let mut prof = Profiler::new();
        let a =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        let b =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.keypoint.x, y.keypoint.x);
            assert_eq!(x.descriptor, y.descriptor);
        }
    }

    #[test]
    fn flat_image_has_no_features() {
        let img = Image::filled(64, 64, 128.0);
        let mut prof = Profiler::new();
        let feats =
            try_detect_and_describe(&img, &SiftConfig::default(), &mut prof).expect("valid image");
        assert!(feats.is_empty());
    }

    #[test]
    fn kernel_attribution_present() {
        let img = textured_image(64, 64, 5);
        let mut prof = Profiler::new();
        prof.run(|p| {
            try_detect_and_describe(&img, &SiftConfig::default(), p).expect("valid image")
        });
        let rep = prof.report();
        for k in ["Interpolation", "IntegralImage", "SIFT"] {
            assert!(rep.occupancy(k).is_some(), "kernel {k} missing");
        }
        // The SIFT core dominates the interpolation preprocess.
        assert!(rep.occupancy("SIFT").unwrap() > rep.occupancy("IntegralImage").unwrap());
    }

    #[test]
    fn shift_invariance_via_matching() {
        use sdvbs_synth::frame_pair;
        let (a, b) = frame_pair(96, 96, 6, 5.0, 3.0);
        let mut prof = Profiler::new();
        let fa =
            try_detect_and_describe(&a, &SiftConfig::default(), &mut prof).expect("valid image");
        let fb =
            try_detect_and_describe(&b, &SiftConfig::default(), &mut prof).expect("valid image");
        let matches = match_descriptors(&fa, &fb, 0.8);
        assert!(matches.len() >= 5, "only {} matches", matches.len());
        // Matched keypoints should be displaced by ~(5, 3).
        let mut dxs: Vec<f32> = matches
            .iter()
            .map(|m| fb[m.b].keypoint.x - fa[m.a].keypoint.x)
            .collect();
        dxs.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let median_dx = dxs[dxs.len() / 2];
        assert!((median_dx - 5.0).abs() < 1.0, "median dx {median_dx}");
    }
}
