//! Feature extraction: Shi–Tomasi "good features to track".

use crate::config::TrackingConfig;
use crate::error::TrackingError;
use sdvbs_image::Image;
use sdvbs_kernels::conv::gaussian_blur;
use sdvbs_kernels::features::{local_maxima, spatial_suppression, Feature};
use sdvbs_kernels::gradient::{gradient_x, gradient_y};
use sdvbs_kernels::integral::IntegralImage;
use sdvbs_profile::Profiler;

/// Extracts up to `cfg.num_features` trackable features from `img`,
/// rejecting degenerate inputs with a typed error.
///
/// The pipeline is the SD-VBS decomposition: Gaussian smoothing →
/// gradients → integral images of the gradient products → windowed sums
/// (area sum) → min-eigenvalue score → local maxima + spatial suppression.
///
/// Kernel attribution: `GaussianFilter`, `Gradient`, `IntegralImage`,
/// `AreaSum`.
///
/// # Errors
///
/// * [`TrackingError::InvalidConfig`] for an out-of-range configuration;
/// * [`TrackingError::Empty`] / [`TrackingError::ImageTooSmall`] for
///   images the window cannot fit in;
/// * [`TrackingError::NonFinitePixels`] for NaN/Inf pixels.
pub fn try_extract_features(
    img: &Image,
    cfg: &TrackingConfig,
    prof: &mut Profiler,
) -> Result<Vec<Feature>, TrackingError> {
    cfg.validate()
        .map_err(|e| TrackingError::InvalidConfig(e.to_string()))?;
    if img.is_empty() {
        return Err(TrackingError::Empty);
    }
    let r = cfg.window_radius;
    let min = 4 * r + 5;
    let side = img.width().min(img.height());
    if side < min {
        return Err(TrackingError::ImageTooSmall { min, side });
    }
    if !img.all_finite() {
        return Err(TrackingError::NonFinitePixels);
    }
    Ok(extract_pipeline(img, cfg, prof))
}

/// The validated Shi–Tomasi pipeline.
fn extract_pipeline(img: &Image, cfg: &TrackingConfig, prof: &mut Profiler) -> Vec<Feature> {
    let r = cfg.window_radius;
    let smooth = prof.kernel("GaussianFilter", |_| gaussian_blur(img, cfg.sigma));
    let (gx, gy) = prof.kernel("Gradient", |_| (gradient_x(&smooth), gradient_y(&smooth)));
    let w = img.width();
    let h = img.height();
    let (ii_xx, ii_xy, ii_yy) = prof.kernel("IntegralImage", |_| {
        let ixx = Image::from_fn(w, h, |x, y| gx.get(x, y) * gx.get(x, y));
        let ixy = Image::from_fn(w, h, |x, y| gx.get(x, y) * gy.get(x, y));
        let iyy = Image::from_fn(w, h, |x, y| gy.get(x, y) * gy.get(x, y));
        (
            IntegralImage::new(&ixx),
            IntegralImage::new(&ixy),
            IntegralImage::new(&iyy),
        )
    });
    let response = prof.kernel("AreaSum", |_| {
        Image::from_fn(w, h, |x, y| {
            let x0 = x.saturating_sub(r);
            let y0 = y.saturating_sub(r);
            let x1 = (x + r + 1).min(w);
            let y1 = (y + r + 1).min(h);
            let (ww, wh) = (x1 - x0, y1 - y0);
            let a = ii_xx.sum(x0, y0, ww, wh) as f32;
            let b = ii_xy.sum(x0, y0, ww, wh) as f32;
            let c = ii_yy.sum(x0, y0, ww, wh) as f32;
            let half_trace = 0.5 * (a + c);
            let disc = (half_trace * half_trace - (a * c - b * b)).max(0.0).sqrt();
            half_trace - disc
        })
    });
    let threshold = response.max() * cfg.quality_level;
    let candidates = local_maxima(&response, threshold, r);
    spatial_suppression(&candidates, cfg.min_distance, cfg.num_features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::textured_image;

    #[test]
    fn finds_features_on_texture() {
        let img = textured_image(96, 72, 3);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let feats = try_extract_features(&img, &cfg, &mut prof).expect("valid frame");
        assert!(feats.len() >= 20, "only {} features", feats.len());
        assert!(feats.len() <= cfg.num_features);
    }

    #[test]
    fn features_respect_min_distance() {
        let img = textured_image(96, 72, 4);
        let cfg = TrackingConfig {
            min_distance: 10.0,
            ..TrackingConfig::default()
        };
        let mut prof = Profiler::new();
        let feats = try_extract_features(&img, &cfg, &mut prof).expect("valid frame");
        for i in 0..feats.len() {
            for j in 0..i {
                let d2 = (feats[i].x - feats[j].x).powi(2) + (feats[i].y - feats[j].y).powi(2);
                assert!(d2 >= 100.0 - 1e-3, "features {i},{j} too close");
            }
        }
    }

    #[test]
    fn flat_image_yields_no_features() {
        let img = Image::filled(64, 64, 100.0);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let feats = try_extract_features(&img, &cfg, &mut prof).expect("valid frame");
        assert!(
            feats.is_empty(),
            "found {} features on flat image",
            feats.len()
        );
    }

    #[test]
    fn corner_of_square_is_a_feature() {
        let img = Image::from_fn(64, 64, |x, y| {
            if (20..44).contains(&x) && (20..44).contains(&y) {
                220.0
            } else {
                30.0
            }
        });
        let cfg = TrackingConfig {
            quality_level: 0.2,
            ..TrackingConfig::default()
        };
        let mut prof = Profiler::new();
        let feats = try_extract_features(&img, &cfg, &mut prof).expect("valid frame");
        assert!(!feats.is_empty());
        for &(cx, cy) in &[(20.0f32, 20.0f32), (43.0, 43.0)] {
            assert!(
                feats
                    .iter()
                    .any(|f| (f.x - cx).abs() < 4.0 && (f.y - cy).abs() < 4.0),
                "no feature near ({cx},{cy}): {feats:?}"
            );
        }
    }

    #[test]
    fn kernel_attribution_is_complete() {
        let img = textured_image(64, 48, 5);
        let mut prof = Profiler::new();
        prof.run(|p| {
            try_extract_features(&img, &TrackingConfig::default(), p).expect("valid frame")
        });
        let report = prof.report();
        for k in ["GaussianFilter", "Gradient", "IntegralImage", "AreaSum"] {
            assert!(report.occupancy(k).is_some(), "kernel {k} missing");
        }
    }
}
