//! The end-to-end stitching pipeline.

use crate::descriptor::{descriptor_distance, extract_patch_features};
use crate::ransac::{ransac_refit, ransac_sample, RansacEstimate};
use crate::transform::Affine;
use sdvbs_image::Image;
use sdvbs_kernels::conv::{gaussian_blur, gaussian_radius};
use sdvbs_kernels::features::harris_response;
use sdvbs_profile::Profiler;
use std::error::Error;
use std::fmt;

/// Stitching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchConfig {
    /// Features kept per image after ANMS.
    pub features: usize,
    /// Lowe-style ratio-test threshold for descriptor matches.
    pub match_ratio: f32,
    /// RANSAC iteration budget.
    pub ransac_iterations: usize,
    /// Inlier tolerance in pixels.
    pub inlier_tolerance: f64,
    /// Minimum inliers for a trusted alignment.
    pub min_inliers: usize,
    /// Calibration blur sigma.
    pub sigma: f32,
    /// RANSAC seed.
    pub seed: u64,
}

impl Default for StitchConfig {
    fn default() -> Self {
        StitchConfig {
            features: 150,
            match_ratio: 0.8,
            ransac_iterations: 600,
            inlier_tolerance: 2.0,
            min_inliers: 8,
            sigma: 1.5,
            seed: 7,
        }
    }
}

/// Errors from the stitching pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StitchError {
    /// One of the images produced too few features to attempt matching.
    TooFewFeatures {
        /// Features found in the weaker image.
        found: usize,
    },
    /// Matching produced too few correspondences.
    TooFewMatches {
        /// Correspondences after the ratio test.
        found: usize,
    },
    /// RANSAC failed to find a consistent alignment.
    NoAlignment,
    /// An input image is below the structural minimum side length.
    DimensionTooSmall {
        /// Minimum side the pipeline requires.
        min: usize,
        /// The smaller offending side.
        side: usize,
    },
    /// An input image contains NaN or infinite pixels.
    NonFinitePixels,
    /// The stitch configuration is out of range.
    InvalidConfig(String),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::TooFewFeatures { found } => {
                write!(f, "too few features to stitch ({found})")
            }
            StitchError::TooFewMatches { found } => {
                write!(f, "too few descriptor matches ({found})")
            }
            StitchError::NoAlignment => write!(f, "ransac found no consistent alignment"),
            StitchError::DimensionTooSmall { min, side } => {
                write!(f, "image side {side} below the {min}-pixel minimum")
            }
            StitchError::NonFinitePixels => write!(f, "images contain non-finite pixels"),
            StitchError::InvalidConfig(msg) => write!(f, "invalid stitch configuration: {msg}"),
        }
    }
}

impl Error for StitchError {}

/// The stitched output.
#[derive(Debug, Clone)]
pub struct StitchResult {
    /// Transform mapping image-`b` coordinates into image-`a` coordinates.
    pub b_to_a: Affine,
    /// The blended panorama (in an enlarged canvas whose origin is offset
    /// by [`StitchResult::canvas_offset`] relative to image `a`).
    pub panorama: Image,
    /// Offset of the canvas origin in `a` coordinates `(x, y)`.
    pub canvas_offset: (f64, f64),
    /// Ratio-test matches fed to RANSAC.
    pub matches: usize,
    /// RANSAC inliers supporting the final transform.
    pub inliers: usize,
}

/// Stitches image `b` onto image `a`.
///
/// Kernel attribution: `Convolution` (calibration filtering + Harris),
/// `ANMS` (feature selection + descriptors), `FeatureMatch`
/// (nearest-neighbor + ratio test), `LSSolver` (RANSAC model fitting),
/// `SVD` (inlier refit), `Blend` (warp + feathered blend).
///
/// # Errors
///
/// * [`StitchError::InvalidConfig`] for a `sigma` that is not positive and
///   finite, or whose blur radius `ceil(3σ)` exceeds the larger side of
///   either image;
/// * [`StitchError::TooFewFeatures`] / [`StitchError::TooFewMatches`] when
///   the images lack texture or overlap.
/// * [`StitchError::NoAlignment`] when RANSAC cannot find a consistent
///   transform.
/// * [`StitchError::DimensionTooSmall`] / [`StitchError::NonFinitePixels`]
///   for degenerate inputs (below 16 pixels on a side, or NaN-poisoned).
pub fn stitch(
    a: &Image,
    b: &Image,
    cfg: &StitchConfig,
    prof: &mut Profiler,
) -> Result<StitchResult, StitchError> {
    if !(cfg.sigma.is_finite() && cfg.sigma > 0.0) {
        return Err(StitchError::InvalidConfig(format!(
            "sigma must be positive and finite, got {}",
            cfg.sigma
        )));
    }
    let side = a.width().min(a.height()).min(b.width()).min(b.height());
    if side < 16 {
        return Err(StitchError::DimensionTooSmall { min: 16, side });
    }
    let larger = a.width().max(a.height()).min(b.width().max(b.height()));
    if gaussian_radius(cfg.sigma) > larger {
        return Err(StitchError::InvalidConfig(format!(
            "sigma {} blurs wider than the {larger}-pixel image",
            cfg.sigma
        )));
    }
    if !a.all_finite() || !b.all_finite() {
        return Err(StitchError::NonFinitePixels);
    }
    // Calibration filtering + corner responses.
    let (smooth_a, resp_a, smooth_b, resp_b) = prof.kernel("Convolution", |_| {
        let sa = gaussian_blur(a, cfg.sigma);
        let ra = harris_response(&sa, 2);
        let sb = gaussian_blur(b, cfg.sigma);
        let rb = harris_response(&sb, 2);
        (sa, ra, sb, rb)
    });
    // Feature selection + descriptors.
    let (fa, fb) = prof.kernel("ANMS", |_| {
        (
            extract_patch_features(&smooth_a, &resp_a, cfg.features, 1.1),
            extract_patch_features(&smooth_b, &resp_b, cfg.features, 1.1),
        )
    });
    let weakest = fa.len().min(fb.len());
    if weakest < 8 {
        return Err(StitchError::TooFewFeatures { found: weakest });
    }
    // Descriptor matching with ratio test (b -> a).
    let matches: Vec<(usize, usize)> = prof.kernel("FeatureMatch", |_| {
        let mut out = Vec::new();
        for (ib, pb) in fb.iter().enumerate() {
            let mut best = f32::INFINITY;
            let mut second = f32::INFINITY;
            let mut best_ia = usize::MAX;
            for (ia, pa) in fa.iter().enumerate() {
                let d = descriptor_distance(&pb.descriptor, &pa.descriptor);
                if d < best {
                    second = best;
                    best = d;
                    best_ia = ia;
                } else if d < second {
                    second = d;
                }
            }
            if best_ia != usize::MAX && best < cfg.match_ratio * cfg.match_ratio * second {
                out.push((ib, best_ia));
            }
        }
        out
    });
    if matches.len() < cfg.min_inliers.max(3) {
        return Err(StitchError::TooFewMatches {
            found: matches.len(),
        });
    }
    // RANSAC alignment (exact fits = LS Solver; refit = SVD, timed inside).
    let src: Vec<(f64, f64)> = matches
        .iter()
        .map(|&(ib, _)| (fb[ib].feature.x as f64, fb[ib].feature.y as f64))
        .collect();
    let dst: Vec<(f64, f64)> = matches
        .iter()
        .map(|&(_, ia)| (fa[ia].feature.x as f64, fa[ia].feature.y as f64))
        .collect();
    let consensus = prof.kernel("LSSolver", |_| {
        ransac_sample(
            &src,
            &dst,
            cfg.ransac_iterations,
            cfg.inlier_tolerance,
            cfg.seed,
        )
    });
    let estimate: Option<RansacEstimate> = match consensus {
        Some((inliers, iters)) if inliers.len() >= cfg.min_inliers.max(3) => prof
            .kernel("SVD", |_| {
                ransac_refit(&src, &dst, &inliers, cfg.inlier_tolerance, iters)
            }),
        _ => None,
    };
    let Some(estimate) = estimate else {
        return Err(StitchError::NoAlignment);
    };
    // Warp + feathered blend.
    let (panorama, canvas_offset) = prof.kernel("Blend", |_| blend(a, b, &estimate.transform));
    Ok(StitchResult {
        b_to_a: estimate.transform,
        panorama,
        canvas_offset,
        matches: matches.len(),
        inliers: estimate.inliers.len(),
    })
}

/// Computes the panorama canvas, inverse-warps `b`, and feather-blends.
fn blend(a: &Image, b: &Image, b_to_a: &Affine) -> (Image, (f64, f64)) {
    // Canvas bounds: image a plus transformed corners of b.
    let mut min_x = 0.0f64;
    let mut min_y = 0.0f64;
    let mut max_x = a.width() as f64;
    let mut max_y = a.height() as f64;
    for &(cx, cy) in &[
        (0.0, 0.0),
        (b.width() as f64, 0.0),
        (0.0, b.height() as f64),
        (b.width() as f64, b.height() as f64),
    ] {
        let (x, y) = b_to_a.apply(cx, cy);
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    let w = (max_x - min_x).ceil() as usize + 1;
    let h = (max_y - min_y).ceil() as usize + 1;
    let a_to_b = b_to_a.inverse().unwrap_or_else(Affine::identity);
    let feather = |x: f64, y: f64, w: f64, h: f64| -> f64 {
        // Distance to the nearest border, normalized (0 at edge).
        let d = x.min(w - x).min(y).min(h - y).max(0.0);
        (d / 16.0).min(1.0)
    };
    let img = Image::from_fn(w, h, |px, py| {
        let ax = px as f64 + min_x;
        let ay = py as f64 + min_y;
        // Weight from image a.
        let in_a = ax >= 0.0 && ay >= 0.0 && ax < a.width() as f64 && ay < a.height() as f64;
        let wa = if in_a {
            feather(ax, ay, a.width() as f64, a.height() as f64)
        } else {
            0.0
        };
        // Weight from image b.
        let (bx, by) = a_to_b.apply(ax, ay);
        let in_b = bx >= 0.0 && by >= 0.0 && bx < b.width() as f64 && by < b.height() as f64;
        let wb = if in_b {
            feather(bx, by, b.width() as f64, b.height() as f64)
        } else {
            0.0
        };
        if wa + wb <= 0.0 {
            // Outside both images (or exactly on a border): fall back to
            // hard membership.
            if in_a {
                return a.sample_bilinear(ax as f32, ay as f32);
            }
            if in_b {
                return b.sample_bilinear(bx as f32, by as f32);
            }
            return 0.0;
        }
        let va = if in_a {
            a.sample_bilinear(ax as f32, ay as f32)
        } else {
            0.0
        };
        let vb = if in_b {
            b.sample_bilinear(bx as f32, by as f32)
        } else {
            0.0
        };
        ((wa * va as f64 + wb * vb as f64) / (wa + wb)) as f32
    });
    (img, (min_x, min_y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::overlapping_pair;

    #[test]
    fn recovers_known_transform() {
        let pair = overlapping_pair(128, 96, 11, 0.04, 12.0, 5.0);
        let mut prof = Profiler::new();
        let result = stitch(&pair.a, &pair.b, &StitchConfig::default(), &mut prof).unwrap();
        let truth = Affine::from_coeffs(pair.b_to_a);
        let diff = result.b_to_a.max_coeff_diff(&truth);
        assert!(
            diff < 1.0,
            "transform error {diff}: got {} want {truth}",
            result.b_to_a
        );
        assert!(result.inliers >= 10, "{} inliers", result.inliers);
    }

    #[test]
    fn pure_translation_panorama_has_expected_size() {
        let pair = overlapping_pair(100, 80, 3, 0.0, 30.0, 0.0);
        let mut prof = Profiler::new();
        let result = stitch(&pair.a, &pair.b, &StitchConfig::default(), &mut prof).unwrap();
        // b maps 30 px to the right of a: canvas ~130 wide.
        assert!(
            (result.panorama.width() as i64 - 131).unsigned_abs() <= 3,
            "panorama width {}",
            result.panorama.width()
        );
        assert!(result.panorama.height() >= 80);
    }

    #[test]
    fn panorama_matches_a_in_overlap_interior() {
        let pair = overlapping_pair(100, 80, 5, 0.0, 20.0, 8.0);
        let mut prof = Profiler::new();
        let result = stitch(&pair.a, &pair.b, &StitchConfig::default(), &mut prof).unwrap();
        let (ox, oy) = result.canvas_offset;
        // Sample interior points of a and compare against the panorama.
        let mut err = 0.0f32;
        let mut n = 0;
        for y in (30..50).step_by(4) {
            for x in (30..70).step_by(4) {
                let px = (x as f64 - ox) as usize;
                let py = (y as f64 - oy) as usize;
                err += (result.panorama.get(px, py) - pair.a.get(x, y)).abs();
                n += 1;
            }
        }
        assert!(
            err / (n as f32) < 12.0,
            "mean blend error {}",
            err / n as f32
        );
    }

    /// A sigma the blur cannot take is a config error before any kernel
    /// runs: sigma 0, a negative or NaN sigma panicked in
    /// `gaussian_kernel`, and sigma 1e15 would ask for 6e15 taps.
    #[test]
    fn unusable_sigmas_are_config_errors() {
        let pair = overlapping_pair(64, 48, 11, 0.04, 6.0, 3.0);
        for sigma in [0.0, -1.0, f32::NAN, f32::INFINITY, 1e15] {
            let cfg = StitchConfig {
                sigma,
                ..StitchConfig::default()
            };
            let mut prof = Profiler::new();
            assert!(
                matches!(
                    stitch(&pair.a, &pair.b, &cfg, &mut prof),
                    Err(StitchError::InvalidConfig(_))
                ),
                "sigma {sigma}"
            );
            assert!(prof.report().kernels().is_empty(), "sigma {sigma}");
        }
        let mut prof = Profiler::new();
        stitch(&pair.a, &pair.b, &StitchConfig::default(), &mut prof)
            .expect("the default config stitches at 64x48");
    }

    #[test]
    fn featureless_images_error() {
        let flat = Image::filled(100, 80, 7.0);
        let mut prof = Profiler::new();
        assert!(matches!(
            stitch(&flat, &flat, &StitchConfig::default(), &mut prof),
            Err(StitchError::TooFewFeatures { .. })
        ));
    }

    #[test]
    fn unrelated_images_fail_to_align() {
        use sdvbs_synth::textured_image;
        let a = textured_image(96, 72, 1);
        let b = textured_image(96, 72, 999);
        let mut prof = Profiler::new();
        let out = stitch(&a, &b, &StitchConfig::default(), &mut prof);
        assert!(out.is_err(), "unrelated images should not stitch");
    }

    #[test]
    fn kernel_attribution() {
        let pair = overlapping_pair(96, 72, 13, 0.02, 8.0, 2.0);
        let mut prof = Profiler::new();
        prof.run(|p| stitch(&pair.a, &pair.b, &StitchConfig::default(), p).unwrap());
        let rep = prof.report();
        for k in [
            "Convolution",
            "ANMS",
            "FeatureMatch",
            "LSSolver",
            "SVD",
            "Blend",
        ] {
            assert!(rep.occupancy(k).is_some(), "kernel {k} missing");
        }
    }
}
