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
use sdvbs_kernels::conv::gaussian_radius;
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
    /// Checks the configuration.
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
        if !(self.sigma0.is_finite() && self.sigma0 > 0.0) {
            return Err(SiftError::InvalidConfig(
                "sigma0 must be positive and finite".into(),
            ));
        }
        // Every blur the scale space applies must itself be a finite,
        // positive sigma: a large `sigma0` overflows the squared level
        // sigmas the increments are taken from.
        let blur_ok = |s: f32| s.is_finite() && s > 0.0;
        if !(blur_ok(scalespace::initial_blur(self.sigma0))
            && scalespace::level_increments(self.intervals, self.sigma0).all(blur_ok))
        {
            return Err(SiftError::InvalidConfig(format!(
                "sigma0 {} overflows the scale-space level sigmas",
                self.sigma0
            )));
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
/// * [`SiftError::InvalidConfig`] for an out-of-range configuration, or
///   a scale-space blur whose radius `ceil(3σ)` exceeds the larger side
///   of the base image (the input, doubled if `double_size`);
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
    // Every blur's kernel must fit the base image it blurs, before any
    // kernel allocates its `2·radius + 1` taps.
    let base_side = img.width().max(img.height()) * if cfg.double_size { 2 } else { 1 };
    let mut blurs = std::iter::once(scalespace::initial_blur(cfg.sigma0))
        .chain(scalespace::level_increments(cfg.intervals, cfg.sigma0));
    if let Some(sigma) = blurs.find(|&s| gaussian_radius(s) > base_side) {
        return Err(SiftError::InvalidConfig(format!(
            "sigma0 {} needs a blur of sigma {sigma}, whose radius exceeds the \
             {base_side}-pixel base image",
            cfg.sigma0
        )));
    }
    if !img.all_finite() {
        return Err(SiftError::NonFinitePixels);
    }
    Ok(sift_pipeline(img, cfg, prof))
}

/// Centers `img` on its mean (from an integral image) and scales it by
/// its range.
fn normalize(img: &Image) -> Image {
    let ii = IntegralImage::new(img);
    let mean = ii.mean(0, 0, img.width(), img.height()) as f32;
    let lo = img.min();
    let hi = img.max();
    let range = (hi - lo).max(1e-6);
    img.map(|v| (v - mean) / range + 0.5)
}

/// The validated SIFT hot path.
fn sift_pipeline(img: &Image, cfg: &SiftConfig, prof: &mut Profiler) -> Vec<SiftFeature> {
    // Intensity normalization to 0..1 using integral-image statistics
    // (mean/range): the "IntegralImage" preprocessing share.
    let normalized = prof.kernel("IntegralImage", |_| normalize(img));
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

    /// The pipeline as written before the row-slice loops: a per-pixel
    /// bilinear upscale, the per-pixel scale space
    /// ([`scalespace::reference`]) and extremum scan
    /// ([`detect::reference`]).
    fn reference_pipeline(img: &Image, cfg: &SiftConfig) -> Vec<SiftFeature> {
        let normalized = normalize(img);
        let (w, h) = (2 * img.width(), 2 * img.height());
        let (sx, sy) = (
            img.width() as f32 / w as f32,
            img.height() as f32 / h as f32,
        );
        let base = Image::from_fn(w, h, |x, y| {
            normalized.sample_bilinear((x as f32 + 0.5) * sx - 0.5, (y as f32 + 0.5) * sy - 0.5)
        });
        let ss = scalespace::reference::build(&base, cfg.intervals, cfg.sigma0, cfg.max_octaves);
        let keypoints = detect::reference::detect_keypoints(&ss, cfg);
        let mut feats = descriptor::describe(&ss, &keypoints);
        for f in &mut feats {
            f.keypoint.x *= 0.5;
            f.keypoint.y *= 0.5;
            f.keypoint.sigma *= 0.5;
        }
        feats
    }

    /// Every field of a feature as raw bits.
    fn feature_bits(f: &SiftFeature) -> (Vec<u32>, usize, Vec<u32>) {
        let k = &f.keypoint;
        let key = [k.x, k.y, k.sigma, k.level, k.orientation, k.response].map(f32::to_bits);
        let desc = f.descriptor.iter().map(|v| v.to_bits()).collect();
        (key.to_vec(), k.octave, desc)
    }

    #[test]
    fn pipeline_matches_the_per_pixel_oracle_bit_for_bit() {
        let cfg = SiftConfig::default();
        for (w, h) in [(128, 96), (176, 144), (352, 288), (97, 61)] {
            for seed in 1..=3 {
                let img = textured_image(w, h, seed);
                let mut prof = Profiler::new();
                let got = try_detect_and_describe(&img, &cfg, &mut prof).expect("valid image");
                let want = reference_pipeline(&img, &cfg);
                assert!(!want.is_empty(), "{w}x{h} seed {seed} found no features");
                assert_eq!(got.len(), want.len(), "{w}x{h} seed {seed}");
                for (i, (g, r)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        feature_bits(g) == feature_bits(r),
                        "{w}x{h} seed {seed} feature {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sigmas_that_overflow_the_scale_space_are_config_errors() {
        let img = textured_image(64, 64, 1);
        // 1e19 squares to a finite 1e38, but the level sigmas above it
        // overflow by the third increment.
        for sigma0 in [f32::INFINITY, 1e30, 3e19, 1e19, f32::NAN, 0.0, -1.0] {
            let cfg = SiftConfig {
                sigma0,
                ..SiftConfig::default()
            };
            let mut prof = Profiler::new();
            assert!(
                matches!(
                    try_detect_and_describe(&img, &cfg, &mut prof),
                    Err(SiftError::InvalidConfig(_))
                ),
                "sigma0 {sigma0}"
            );
        }
        // A large sigma0 whose level sigmas stay finite is still valid.
        let cfg = SiftConfig {
            sigma0: 1e18,
            ..SiftConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    /// A finite sigma0 whose blurs are wider than the base image is a
    /// config error before any kernel allocates: at sigma0 1e15 the
    /// initial blur alone would ask for 6e15 taps.
    #[test]
    fn blurs_wider_than_the_base_image_are_config_errors() {
        let img = textured_image(32, 32, 1);
        for (sigma0, double_size) in [(1e15, true), (1e15, false), (30.0, true), (15.0, false)] {
            let cfg = SiftConfig {
                sigma0,
                double_size,
                ..SiftConfig::default()
            };
            let mut prof = Profiler::new();
            assert!(
                matches!(
                    try_detect_and_describe(&img, &cfg, &mut prof),
                    Err(SiftError::InvalidConfig(_))
                ),
                "sigma0 {sigma0} double_size {double_size}"
            );
        }
        let mut prof = Profiler::new();
        try_detect_and_describe(&img, &SiftConfig::default(), &mut prof)
            .expect("the default config runs at 32x32");
    }

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
