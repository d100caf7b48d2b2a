//! Pyramidal Lucas–Kanade feature tracking.

use crate::config::TrackingConfig;
use crate::error::TrackingError;
use sdvbs_image::Image;
use sdvbs_kernels::features::Feature;
use sdvbs_kernels::gradient::{central_diff_x, central_diff_y};
use sdvbs_kernels::pyramid::Pyramid;
use sdvbs_profile::Profiler;

/// The result of tracking one feature from the first frame into the
/// second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFeature {
    /// Feature position in the first frame.
    pub from: Feature,
    /// Estimated position in the second frame.
    pub to_x: f32,
    /// Estimated row in the second frame.
    pub to_y: f32,
    /// Whether the Newton iteration converged at the finest level.
    pub converged: bool,
}

impl TrackedFeature {
    /// Displacement `(dx, dy)` from the first frame to the second.
    pub fn motion(&self) -> (f32, f32) {
        (self.to_x - self.from.x, self.to_y - self.from.y)
    }
}

/// Tracks `features` from frame `a` into frame `b` with pyramidal
/// Lucas–Kanade, rejecting degenerate inputs with a typed error instead
/// of panicking.
///
/// Kernel attribution: `GaussianFilter` (pyramid construction), `Gradient`
/// (per-level derivative images), `MatrixInversion` (the per-feature 2×2
/// normal-equation solves).
///
/// An empty `features` slice is *not* an error: tracking zero features is
/// a valid (empty) result, and the caller decides whether that is a
/// quality failure.
///
/// # Errors
///
/// * [`TrackingError::InvalidConfig`] for an out-of-range configuration,
///   or a `sigma` whose blur radius `ceil(3σ)` exceeds the frames' larger
///   side;
/// * [`TrackingError::DimensionMismatch`] if the frames differ in size;
/// * [`TrackingError::Empty`] for zero-pixel frames;
/// * [`TrackingError::NonFinitePixels`] for NaN/Inf pixels.
pub fn try_track_features(
    a: &Image,
    b: &Image,
    features: &[Feature],
    cfg: &TrackingConfig,
    prof: &mut Profiler,
) -> Result<Vec<TrackedFeature>, TrackingError> {
    cfg.validate()?;
    if (a.width(), a.height()) != (b.width(), b.height()) {
        return Err(TrackingError::DimensionMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    if a.is_empty() {
        return Err(TrackingError::Empty);
    }
    cfg.validate_blur(a.width().max(a.height()))?;
    if !a.all_finite() || !b.all_finite() {
        return Err(TrackingError::NonFinitePixels);
    }
    Ok(track_pipeline(a, b, features, cfg, prof))
}

/// The validated pyramidal Lucas–Kanade hot path.
fn track_pipeline(
    a: &Image,
    b: &Image,
    features: &[Feature],
    cfg: &TrackingConfig,
    prof: &mut Profiler,
) -> Vec<TrackedFeature> {
    track_pipeline_with(a, b, features, cfg, prof, lk_newton)
}

/// A per-feature, per-level Newton solve with the signature of
/// [`lk_newton`].
type NewtonSolve = fn(
    &Image,
    &Image,
    (&Image, &Image),
    (f32, f32),
    (f32, f32),
    &TrackingConfig,
    &mut Vec<[f32; 5]>,
) -> (f32, f32, bool);

/// [`track_pipeline`] with `newton` as its per-feature solve.
fn track_pipeline_with(
    a: &Image,
    b: &Image,
    features: &[Feature],
    cfg: &TrackingConfig,
    prof: &mut Profiler,
    newton: NewtonSolve,
) -> Vec<TrackedFeature> {
    // Pyramid construction is Gaussian filtering + decimation.
    let (pyr_a, pyr_b) = prof.kernel("GaussianFilter", |_| {
        (
            Pyramid::new(a, cfg.pyramid_levels, cfg.sigma),
            Pyramid::new(b, cfg.pyramid_levels, cfg.sigma),
        )
    });
    let levels = pyr_a.levels().min(pyr_b.levels());
    // Gradients of the *first* frame per level (classic KLT linearizes
    // around frame a).
    let grads: Vec<(Image, Image)> = prof.kernel("Gradient", |_| {
        (0..levels)
            .map(|l| {
                (
                    central_diff_x(pyr_a.level(l)),
                    central_diff_y(pyr_a.level(l)),
                )
            })
            .collect()
    });
    // The window samples of one solve, reused by every feature and level.
    let mut window = Vec::new();
    features
        .iter()
        .map(|f| {
            // Start at the coarsest level with zero displacement.
            let mut dx = 0.0f32;
            let mut dy = 0.0f32;
            let mut converged = false;
            for level in (0..levels).rev() {
                let scale = 1.0 / (1 << level) as f32;
                let (gx, gy) = &grads[level];
                let at = (f.x * scale, f.y * scale);
                // The per-feature Newton iterations — normal-equation
                // assembly plus the closed-form 2x2 solve — are the
                // paper's "Matrix Inversion" kernel (it operates at
                // feature granularity, one small system per feature per
                // level).
                let (ndx, ndy, nconv) = prof.kernel("MatrixInversion", |_| {
                    newton(
                        pyr_a.level(level),
                        pyr_b.level(level),
                        (gx, gy),
                        at,
                        (dx, dy),
                        cfg,
                        &mut window,
                    )
                });
                dx = ndx;
                dy = ndy;
                converged = nconv;
                if level > 0 {
                    dx *= 2.0;
                    dy *= 2.0;
                }
            }
            TrackedFeature {
                from: *f,
                to_x: f.x + dx,
                to_y: f.y + dy,
                converged,
            }
        })
        .collect()
}

/// The Lucas–Kanade Newton iterations of the feature at `(fx, fy)` on one
/// pyramid level, from displacement `(dx, dy)`: returns the refined
/// displacement and whether an update's norm fell below `cfg.epsilon`.
///
/// Frame `a`'s intensity and gradients do not depend on the displacement,
/// so they are sampled at each window position once (into `window`, as
/// `[ax, ay, ia, gx, gy]`) and the 2×2 structure tensor is summed once, in
/// window order; each iteration then samples only frame `b` and sums the
/// mismatch vector.
fn lk_newton(
    img_a: &Image,
    img_b: &Image,
    (gx, gy): (&Image, &Image),
    (fx, fy): (f32, f32),
    (mut dx, mut dy): (f32, f32),
    cfg: &TrackingConfig,
    window: &mut Vec<[f32; 5]>,
) -> (f32, f32, bool) {
    let r = cfg.window_radius as isize;
    window.clear();
    let mut gxx = 0.0f32;
    let mut gxy = 0.0f32;
    let mut gyy = 0.0f32;
    for wy in -r..=r {
        for wx in -r..=r {
            let ax = fx + wx as f32;
            let ay = fy + wy as f32;
            let gxv = gx.sample_bilinear(ax, ay);
            let gyv = gy.sample_bilinear(ax, ay);
            gxx += gxv * gxv;
            gxy += gxv * gyv;
            gyy += gyv * gyv;
            window.push([ax, ay, img_a.sample_bilinear(ax, ay), gxv, gyv]);
        }
    }
    let det = gxx * gyy - gxy * gxy;
    if det.abs() < 1e-6 {
        return (dx, dy, false);
    }
    let inv_det = 1.0 / det;
    for _ in 0..cfg.max_iterations {
        let mut ex = 0.0f32;
        let mut ey = 0.0f32;
        for &[ax, ay, ia, gxv, gyv] in window.iter() {
            let diff = ia - img_b.sample_bilinear(ax + dx, ay + dy);
            ex += diff * gxv;
            ey += diff * gyv;
        }
        let ux = inv_det * (gyy * ex - gxy * ey);
        let uy = inv_det * (gxx * ey - gxy * ex);
        dx += ux;
        dy += uy;
        if (ux * ux + uy * uy).sqrt() < cfg.epsilon {
            return (dx, dy, true);
        }
    }
    (dx, dy, false)
}

/// The fallible two-frame pipeline: extracts features in `a` and tracks
/// them into `b` (the full two-frame SD-VBS tracking pipeline).
///
/// # Errors
///
/// Same conditions as [`try_extract_features`](crate::try_extract_features)
/// and [`try_track_features`].
pub fn try_track_pair(
    a: &Image,
    b: &Image,
    cfg: &TrackingConfig,
    prof: &mut Profiler,
) -> Result<Vec<TrackedFeature>, TrackingError> {
    let feats = crate::extract::try_extract_features(a, cfg, prof)?;
    try_track_features(a, b, &feats, cfg, prof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::frame_pair;

    /// The Newton loop [`lk_newton`] replaced: every iteration samples both
    /// frames and both gradients at every window position and re-sums the
    /// structure tensor.
    fn reference_lk_newton(
        img_a: &Image,
        img_b: &Image,
        (gx, gy): (&Image, &Image),
        (fx, fy): (f32, f32),
        (mut dx, mut dy): (f32, f32),
        cfg: &TrackingConfig,
        _window: &mut Vec<[f32; 5]>,
    ) -> (f32, f32, bool) {
        let r = cfg.window_radius as isize;
        let mut converged = false;
        for _ in 0..cfg.max_iterations {
            let mut gxx = 0.0f32;
            let mut gxy = 0.0f32;
            let mut gyy = 0.0f32;
            let mut ex = 0.0f32;
            let mut ey = 0.0f32;
            for wy in -r..=r {
                for wx in -r..=r {
                    let ax = fx + wx as f32;
                    let ay = fy + wy as f32;
                    let ia = img_a.sample_bilinear(ax, ay);
                    let ib = img_b.sample_bilinear(ax + dx, ay + dy);
                    let gxv = gx.sample_bilinear(ax, ay);
                    let gyv = gy.sample_bilinear(ax, ay);
                    let diff = ia - ib;
                    gxx += gxv * gxv;
                    gxy += gxv * gyv;
                    gyy += gyv * gyv;
                    ex += diff * gxv;
                    ey += diff * gyv;
                }
            }
            let det = gxx * gyy - gxy * gxy;
            if det.abs() < 1e-6 {
                break;
            }
            let inv_det = 1.0 / det;
            let ux = inv_det * (gyy * ex - gxy * ey);
            let uy = inv_det * (gxx * ey - gxy * ex);
            dx += ux;
            dy += uy;
            if (ux * ux + uy * uy).sqrt() < cfg.epsilon {
                converged = true;
                break;
            }
        }
        (dx, dy, converged)
    }

    fn track_bits(t: &TrackedFeature) -> [u32; 6] {
        [
            t.from.x.to_bits(),
            t.from.y.to_bits(),
            t.from.score.to_bits(),
            t.to_x.to_bits(),
            t.to_y.to_bits(),
            t.converged as u32,
        ]
    }

    #[test]
    fn tracks_match_the_replaced_newton_loop_bit_for_bit() {
        // SQCIF and CIF frame pairs with sub-pixel and multi-pixel motion,
        // plus features on a flat patch (degenerate tensor) and at the
        // border, and one iteration only (never converged).
        for ((w, h), (mx, my)) in [((128, 96), (1.5, -0.75)), ((352, 288), (3.0, 2.0))] {
            for seed in 1..=3 {
                let (a, b) = frame_pair(w, h, seed, mx, my);
                let mut prof = Profiler::new();
                let mut cfg = TrackingConfig::default();
                let mut feats =
                    crate::extract::try_extract_features(&a, &cfg, &mut prof).expect("valid frame");
                feats.extend(
                    [(0.0, 0.0), (w as f32 - 1.0, 5.5), (3.25, h as f32 - 2.0)]
                        .map(|(x, y)| Feature { x, y, score: 1.0 }),
                );
                for max_iterations in [10, 1] {
                    cfg.max_iterations = max_iterations;
                    let got = track_pipeline(&a, &b, &feats, &cfg, &mut prof);
                    let want =
                        track_pipeline_with(&a, &b, &feats, &cfg, &mut prof, reference_lk_newton);
                    assert_eq!(got.len(), want.len());
                    for (i, (g, r)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            track_bits(g),
                            track_bits(r),
                            "{w}x{h} seed {seed} iterations {max_iterations} feature {i}"
                        );
                    }
                }
            }
        }
        // A flat frame: every tensor is degenerate.
        let flat = Image::filled(64, 48, 9.0);
        let feats = [Feature {
            x: 20.0,
            y: 20.0,
            score: 1.0,
        }];
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let got = track_pipeline(&flat, &flat, &feats, &cfg, &mut prof);
        let want = track_pipeline_with(&flat, &flat, &feats, &cfg, &mut prof, reference_lk_newton);
        assert_eq!(track_bits(&got[0]), track_bits(&want[0]));
    }

    fn median(mut v: Vec<f32>) -> f32 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    #[test]
    fn recovers_integer_translation() {
        let (a, b) = frame_pair(96, 72, 11, 3.0, 2.0);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let tracks = try_track_pair(&a, &b, &cfg, &mut prof).expect("valid frame pair");
        assert!(tracks.len() >= 10, "too few tracks: {}", tracks.len());
        let dx = median(tracks.iter().map(|t| t.motion().0).collect());
        let dy = median(tracks.iter().map(|t| t.motion().1).collect());
        assert!((dx - 3.0).abs() < 0.3, "dx {dx}");
        assert!((dy - 2.0).abs() < 0.3, "dy {dy}");
    }

    #[test]
    fn recovers_subpixel_translation() {
        let (a, b) = frame_pair(96, 72, 13, 1.5, -0.75);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let tracks = try_track_pair(&a, &b, &cfg, &mut prof).expect("valid frame pair");
        let dx = median(tracks.iter().map(|t| t.motion().0).collect());
        let dy = median(tracks.iter().map(|t| t.motion().1).collect());
        assert!((dx - 1.5).abs() < 0.3, "dx {dx}");
        assert!((dy + 0.75).abs() < 0.3, "dy {dy}");
    }

    #[test]
    fn identical_frames_give_zero_motion() {
        let (a, _) = frame_pair(80, 60, 17, 0.0, 0.0);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let tracks = try_track_pair(&a, &a, &cfg, &mut prof).expect("valid frame pair");
        for t in &tracks {
            let (dx, dy) = t.motion();
            assert!(
                dx.abs() < 0.05 && dy.abs() < 0.05,
                "nonzero motion {dx},{dy}"
            );
        }
    }

    #[test]
    fn larger_motion_needs_pyramid() {
        // 8-pixel motion exceeds the 4-pixel window: only the pyramid makes
        // this trackable.
        let (a, b) = frame_pair(128, 96, 19, 8.0, 0.0);
        let cfg = TrackingConfig {
            pyramid_levels: 4,
            ..TrackingConfig::default()
        };
        let mut prof = Profiler::new();
        let tracks = try_track_pair(&a, &b, &cfg, &mut prof).expect("valid frame pair");
        let dx = median(tracks.iter().map(|t| t.motion().0).collect());
        assert!((dx - 8.0).abs() < 0.8, "dx {dx}");
    }

    #[test]
    fn most_tracks_converge() {
        let (a, b) = frame_pair(96, 72, 23, 1.0, 1.0);
        let cfg = TrackingConfig::default();
        let mut prof = Profiler::new();
        let tracks = try_track_pair(&a, &b, &cfg, &mut prof).expect("valid frame pair");
        let conv = tracks.iter().filter(|t| t.converged).count();
        assert!(conv * 10 >= tracks.len() * 7, "{conv}/{}", tracks.len());
    }

    #[test]
    fn kernel_attribution_includes_matrix_inversion() {
        let (a, b) = frame_pair(64, 48, 29, 1.0, 0.0);
        let mut prof = Profiler::new();
        prof.run(|p| {
            try_track_pair(&a, &b, &TrackingConfig::default(), p).expect("valid frame pair")
        });
        let report = prof.report();
        assert!(report.occupancy("MatrixInversion").is_some());
        assert!(report.occupancy("GaussianFilter").is_some());
    }

    #[test]
    fn non_finite_sigma_is_a_config_error() {
        let (a, b) = frame_pair(64, 48, 3, 1.0, 0.0);
        for sigma in [f32::INFINITY, f32::NAN] {
            let cfg = TrackingConfig {
                sigma,
                ..TrackingConfig::default()
            };
            let mut prof = Profiler::new();
            assert!(
                matches!(
                    try_track_pair(&a, &b, &cfg, &mut prof),
                    Err(TrackingError::InvalidConfig(_))
                ),
                "sigma {sigma}"
            );
            let feats = [Feature {
                x: 20.0,
                y: 20.0,
                score: 1.0,
            }];
            assert!(matches!(
                try_track_features(&a, &b, &feats, &cfg, &mut prof),
                Err(TrackingError::InvalidConfig(_))
            ));
        }
    }

    /// A config error names its kind once: `TrackingError`'s `Display`
    /// is the only place that adds the prefix.
    #[test]
    fn config_errors_print_their_prefix_once() {
        let (a, b) = frame_pair(64, 48, 3, 1.0, 0.0);
        for sigma in [f32::NAN, 1e15] {
            let cfg = TrackingConfig {
                sigma,
                ..TrackingConfig::default()
            };
            let err = try_track_pair(&a, &b, &cfg, &mut Profiler::new()).unwrap_err();
            let message = err.to_string();
            assert_eq!(
                message.matches("invalid tracking configuration").count(),
                1,
                "{message}"
            );
        }
    }

    /// A finite sigma whose blur is wider than the frame is a config
    /// error before any kernel allocates: sigma 1e15 would ask for 6e15
    /// taps.
    #[test]
    fn blurs_wider_than_the_frame_are_config_errors() {
        let (a, b) = frame_pair(32, 32, 3, 1.0, 0.0);
        let feats = [Feature {
            x: 16.0,
            y: 16.0,
            score: 1.0,
        }];
        for sigma in [1e15, 11.0] {
            let cfg = TrackingConfig {
                sigma,
                ..TrackingConfig::default()
            };
            let mut prof = Profiler::new();
            assert!(
                matches!(
                    try_track_pair(&a, &b, &cfg, &mut prof),
                    Err(TrackingError::InvalidConfig(_))
                ),
                "sigma {sigma}"
            );
            assert!(matches!(
                try_track_features(&a, &b, &feats, &cfg, &mut prof),
                Err(TrackingError::InvalidConfig(_))
            ));
        }
        let mut prof = Profiler::new();
        try_track_pair(&a, &b, &TrackingConfig::default(), &mut prof)
            .expect("the default config runs at 32x32");
    }

    #[test]
    fn motion_accessor() {
        let t = TrackedFeature {
            from: Feature {
                x: 10.0,
                y: 20.0,
                score: 1.0,
            },
            to_x: 12.5,
            to_y: 19.0,
            converged: true,
        };
        assert_eq!(t.motion(), (2.5, -1.0));
    }
}
