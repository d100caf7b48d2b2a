//! SD-VBS benchmark 1: **Disparity Map** — dense stereo depth extraction.
//!
//! Given a stereo image pair taken from slightly different positions, the
//! disparity algorithm computes, for *every* pixel (dense disparity), how
//! far the pixel's scene point moved between the two views; nearer objects
//! move more. The paper classifies this benchmark as *data intensive*:
//! regular, prefetch-friendly accesses over fine-grained pixel data, with
//! performance "limited only by the ability to pull the data into the
//! chip".
//!
//! The implementation mirrors the SD-VBS `getDisparity` pipeline
//! (Stereopsis, Marr & Poggio): for each candidate shift the right image is
//! displaced, per-pixel squared differences are computed (**SSD** kernel),
//! summed over a window via integral images (**Integral Image** +
//! **Correlation** kernels), and the per-pixel argmin across shifts is
//! retained (**Sort** kernel, in SD-VBS terms a running min-selection).
//!
//! # Examples
//!
//! ```
//! use sdvbs_disparity::{try_compute_disparity, DisparityConfig};
//! use sdvbs_image::Image;
//! use sdvbs_profile::Profiler;
//!
//! // A trivial pair: right image is the left shifted by 2 pixels.
//! let left = Image::from_fn(64, 32, |x, y| ((x * 7 + y * 13) % 97) as f32);
//! let right = Image::from_fn(64, 32, |x, y| left.get_clamped(x as isize + 2, y as isize));
//! let cfg = DisparityConfig::new(8, 5).unwrap();
//! let mut prof = Profiler::new();
//! let disp = try_compute_disparity(&left, &right, &cfg, &mut prof)?;
//! assert_eq!(disp.get(32, 16), 2.0);
//! # Ok::<(), sdvbs_disparity::DisparityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdvbs_exec::{map_chunks, ExecPolicy};
use sdvbs_image::Image;
use sdvbs_kernels::integral::IntegralImage;
use sdvbs_profile::Profiler;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Configuration for the dense-stereo search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisparityConfig {
    max_disparity: usize,
    window: usize,
    exec: ExecPolicy,
}

/// Error returned for invalid [`DisparityConfig`] parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(String);

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid disparity configuration: {}", self.0)
    }
}

impl Error for InvalidConfig {}

/// Errors from the fallible [`try_compute_disparity`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DisparityError {
    /// The stereo pair's images differ in size.
    DimensionMismatch {
        /// Left image dimensions.
        left: (usize, usize),
        /// Right image dimensions.
        right: (usize, usize),
    },
    /// An image side is smaller than the aggregation window.
    ImageTooSmall {
        /// The configured window side.
        window: usize,
        /// The smaller offending image side.
        side: usize,
    },
    /// A pixel in either image is NaN or infinite.
    NonFinitePixels,
    /// The images have zero pixels.
    Empty,
}

impl fmt::Display for DisparityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisparityError::DimensionMismatch { left, right } => write!(
                f,
                "stereo images differ in size: left {}x{}, right {}x{}",
                left.0, left.1, right.0, right.1
            ),
            DisparityError::ImageTooSmall { window, side } => write!(
                f,
                "image side {side} smaller than the {window}-pixel aggregation window"
            ),
            DisparityError::NonFinitePixels => {
                write!(f, "stereo images contain non-finite pixels")
            }
            DisparityError::Empty => write!(f, "stereo images have zero pixels"),
        }
    }
}

impl Error for DisparityError {}

impl DisparityConfig {
    /// Creates a configuration searching shifts `0..=max_disparity` with an
    /// odd `window × window` aggregation window.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `max_disparity == 0` or `window` is even
    /// or zero.
    pub fn new(max_disparity: usize, window: usize) -> Result<Self, InvalidConfig> {
        if max_disparity == 0 {
            return Err(InvalidConfig("max_disparity must be at least 1".into()));
        }
        if window == 0 || window.is_multiple_of(2) {
            return Err(InvalidConfig(format!(
                "window must be odd and positive, got {window}"
            )));
        }
        Ok(DisparityConfig {
            max_disparity,
            window,
            exec: ExecPolicy::Serial,
        })
    }

    /// Returns the configuration with the shift search executed under
    /// `exec` (the per-shift SSD/Correlation loop is distributed over
    /// worker threads). The result is bit-identical for every policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Largest shift searched.
    pub fn max_disparity(&self) -> usize {
        self.max_disparity
    }

    /// Aggregation window side length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Execution policy for the shift search.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }
}

impl Default for DisparityConfig {
    /// The SD-VBS defaults: disparities up to 16, 9×9 window, serial.
    fn default() -> Self {
        DisparityConfig {
            max_disparity: 16,
            window: 9,
            exec: ExecPolicy::Serial,
        }
    }
}

/// Computes the dense disparity map for a stereo pair, rejecting
/// degenerate inputs with a typed error instead of panicking.
///
/// Convention: a scene point at `(x, y)` in `left` appears at `(x − d, y)`
/// in `right`; the returned image holds `d` per left pixel.
///
/// The search scans shifts `0..=min(max_disparity, width − 1)`: shifts at
/// or beyond the image width all alias the fully-clamped shift `width − 1`
/// and can never beat it under the strict-`<` argmin, so the clamp changes
/// no output pixel (it only skips unwinnable work on narrow images).
///
/// Kernel attribution (visible through `prof`): `SSD`, `IntegralImage`,
/// `Correlation`, `Sort` — the decomposition of Figure 1/Figure 3 in the
/// paper.
///
/// # Errors
///
/// * [`DisparityError::DimensionMismatch`] if the pair differs in size;
/// * [`DisparityError::Empty`] for zero-pixel images;
/// * [`DisparityError::ImageTooSmall`] if either side is smaller than the
///   aggregation window;
/// * [`DisparityError::NonFinitePixels`] if any pixel is NaN or infinite.
pub fn try_compute_disparity(
    left: &Image,
    right: &Image,
    cfg: &DisparityConfig,
    prof: &mut Profiler,
) -> Result<Image, DisparityError> {
    if (left.width(), left.height()) != (right.width(), right.height()) {
        return Err(DisparityError::DimensionMismatch {
            left: (left.width(), left.height()),
            right: (right.width(), right.height()),
        });
    }
    if left.is_empty() {
        return Err(DisparityError::Empty);
    }
    let min_side = left.width().min(left.height());
    if min_side < cfg.window {
        return Err(DisparityError::ImageTooSmall {
            window: cfg.window,
            side: min_side,
        });
    }
    if !left.all_finite() || !right.all_finite() {
        return Err(DisparityError::NonFinitePixels);
    }
    Ok(disparity_pipeline(left, right, cfg, prof))
}

/// The validated hot path: dense SSD search over the shift range.
fn disparity_pipeline(
    left: &Image,
    right: &Image,
    cfg: &DisparityConfig,
    prof: &mut Profiler,
) -> Image {
    let w = left.width();
    let h = left.height();
    let radius = cfg.window / 2;
    // Shift-range clamp rule: displacing the right image by any
    // `shift >= w - 1` clamps *every* sampled column to column 0, so all
    // such shifts produce the same SSD surface and the same windowed
    // costs. The strict-`<` running argmin keeps the earliest of a tied
    // run, so searching `0..=min(max_disparity, w - 1)` returns a map
    // bit-identical to searching the full `0..=max_disparity` — without
    // burning time on shifts that cannot win. (`w >= window >= 1` here:
    // empty/too-small images were rejected by the fallible entry.)
    let shifts = cfg.max_disparity.min(w - 1) + 1;
    // Scans an ascending shift range, keeping the per-pixel running
    // argmin (strict `<`, so the earliest shift wins ties — the serial
    // tie-break the equivalence tests pin down).
    let search = |range: Range<usize>, prof: &mut Profiler| -> (Image, Image) {
        let mut best_cost = Image::filled(w, h, f32::INFINITY);
        let mut best_disp = Image::new(w, h);
        let mut ssd = Image::new(w, h);
        let mut cost = Image::new(w, h);
        for shift in range {
            // SSD kernel: pixel-wise squared difference between the left
            // image and the right image displaced by `shift`. Columns
            // `x < shift` all sample the replicated right column 0; the
            // rest pair `left[x]` with `right[x - shift]`. Both segments
            // are contiguous zips with no per-pixel clamping, and compute
            // the same `(l - r)²` per pixel as the clamped scalar loop.
            prof.kernel("SSD", |_| {
                let split = shift.min(w);
                for y in 0..h {
                    let l = left.row(y);
                    let r = right.row(y);
                    let out = ssd.row_mut(y);
                    let r0 = r[0];
                    for (o, &lv) in out[..split].iter_mut().zip(&l[..split]) {
                        let d = lv - r0;
                        *o = d * d;
                    }
                    for ((o, &lv), &rv) in out[split..]
                        .iter_mut()
                        .zip(&l[split..])
                        .zip(&r[..w - split])
                    {
                        let d = lv - rv;
                        *o = d * d;
                    }
                }
            });
            // Integral image over the SSD surface.
            let ii = prof.kernel("IntegralImage", |_| IntegralImage::new(&ssd));
            // Correlation kernel: windowed aggregation of the SSD surface
            // (SD-VBS `correlateSAD_2D` / `finalSAD`), one vectorized
            // window-sum row at a time.
            prof.kernel("Correlation", |_| {
                for y in 0..h {
                    ii.clipped_window_sums_into(radius, y, cost.row_mut(y));
                }
            });
            // Sort kernel: running min-selection across the shift axis.
            prof.kernel("Sort", |_| {
                let s = shift as f32;
                for ((&c, bc), bd) in cost
                    .as_slice()
                    .iter()
                    .zip(best_cost.as_mut_slice())
                    .zip(best_disp.as_mut_slice())
                {
                    if c < *bc {
                        *bc = c;
                        *bd = s;
                    }
                }
            });
        }
        (best_cost, best_disp)
    };
    if !cfg.exec.is_parallel(shifts) {
        return search(0..shifts, prof).1;
    }
    // Parallel path: each worker owns a contiguous shift range and a
    // private Profiler; results come back in ascending-range order, so the
    // cross-worker strict-`<` merge reproduces the serial tie-break
    // exactly, and absorbed profiles keep Figure 3 kernel attribution.
    let coordinator: &Profiler = prof;
    let parts = map_chunks(cfg.exec, shifts, |range| {
        // Each chunk's profiler inherits tracing from the coordinator on
        // its own trace track, so concurrent spans never share a timeline.
        let mut local = coordinator.worker();
        let images = search(range, &mut local);
        (local, images)
    });
    let mut best_cost = Image::filled(w, h, f32::INFINITY);
    let mut best_disp = Image::new(w, h);
    for (local, (cost, disp)) in parts {
        // Worker scopes are structurally closed (the closure returned), so
        // the only absorb error — open scopes — is unreachable here.
        prof.absorb(local)
            .expect("worker profiler has no open scopes");
        prof.kernel("Sort", |_| {
            for (((&c, &d), bc), bd) in cost
                .as_slice()
                .iter()
                .zip(disp.as_slice())
                .zip(best_cost.as_mut_slice())
                .zip(best_disp.as_mut_slice())
            {
                if c < *bc {
                    *bc = c;
                    *bd = d;
                }
            }
        });
    }
    best_disp
}

/// Validity mask from a left-right consistency cross-check.
///
/// A disparity estimate is trusted only if matching in the opposite
/// direction lands back on (nearly) the same pixel — the standard stereo
/// technique for flagging occlusions and mismatches, which is exactly
/// where the synthetic scenes' ground truth is undefined too.
#[derive(Debug, Clone)]
pub struct ConsistencyMask {
    valid: Vec<bool>,
    width: usize,
    height: usize,
}

impl ConsistencyMask {
    /// Whether the disparity at `(x, y)` passed the cross-check.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn is_valid(&self, x: usize, y: usize) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.valid[y * self.width + x]
    }

    /// Fraction of pixels flagged valid.
    pub fn valid_fraction(&self) -> f64 {
        if self.valid.is_empty() {
            return 1.0;
        }
        self.valid.iter().filter(|&&v| v).count() as f64 / self.valid.len() as f64
    }
}

/// Computes a left-right consistency mask: runs the disparity search in
/// the right-to-left direction and flags left-image pixels whose
/// left-disparity and (shifted) right-disparity disagree by more than
/// `tol` pixels.
///
/// # Panics
///
/// Panics if `left_disp` does not match `left` in size, or if
/// [`try_compute_disparity`] rejects the pair.
pub fn left_right_consistency(
    left: &Image,
    right: &Image,
    left_disp: &Image,
    cfg: &DisparityConfig,
    tol: f32,
    prof: &mut Profiler,
) -> ConsistencyMask {
    assert_eq!(
        (left.width(), left.height()),
        (left_disp.width(), left_disp.height()),
        "disparity map must match the left image"
    );
    // Right-to-left search: a scene point at (x, y) in the right image
    // appears at (x + d, y) in the left image, so the same SSD machinery
    // applies with the roles swapped and the shift negated — implemented
    // by mirroring both images horizontally.
    let left_m = left.flip_horizontal();
    let right_m = right.flip_horizontal();
    let right_disp_m = try_compute_disparity(&right_m, &left_m, cfg, prof)
        .unwrap_or_else(|e| panic!("left_right_consistency: {e}"));
    let w = left.width();
    let h = left.height();
    let mut valid = vec![false; w * h];
    for y in 0..h {
        for x in 0..w {
            let d = left_disp.get(x, y);
            let xr = x as isize - d as isize;
            if xr < 0 {
                continue; // matched point falls outside the right image
            }
            // Mirrored right-image column for xr.
            let xm = w - 1 - xr as usize;
            let d_right = right_disp_m.get(xm, y);
            if (d - d_right).abs() <= tol {
                valid[y * w + x] = true;
            }
        }
    }
    ConsistencyMask {
        valid,
        width: w,
        height: h,
    }
}

/// A disparity estimate at a single feature location (the sparse variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseDisparity {
    /// Feature column in the left image.
    pub x: usize,
    /// Feature row in the left image.
    pub y: usize,
    /// Estimated disparity in pixels.
    pub disparity: f32,
    /// Matching cost of the winning shift (lower is more confident).
    pub cost: f32,
}

/// Computes disparity only at the given feature locations — the *sparse*
/// variant the paper contrasts with the dense benchmark ("unlike sparse
/// disparity where depth information is computed on features of
/// interest"). Features too close to the border for a full window are
/// skipped.
///
/// Unlike [`try_compute_disparity`], which amortizes window sums over the
/// whole frame with integral images, the sparse variant evaluates each
/// window directly: it is the right tool when features are few and the
/// frame is large.
///
/// # Panics
///
/// Panics if the two images differ in size.
pub fn compute_sparse_disparity(
    left: &Image,
    right: &Image,
    features: &[(usize, usize)],
    cfg: &DisparityConfig,
    prof: &mut Profiler,
) -> Vec<SparseDisparity> {
    assert_eq!(
        (left.width(), left.height()),
        (right.width(), right.height()),
        "stereo images must have identical dimensions"
    );
    let w = left.width();
    let h = left.height();
    let radius = cfg.window / 2;
    prof.kernel("SSD", |_| {
        features
            .iter()
            .filter(|&&(x, y)| x >= radius && y >= radius && x + radius < w && y + radius < h)
            .map(|&(x, y)| {
                let mut best_cost = f32::INFINITY;
                let mut best_shift = 0usize;
                for shift in 0..=cfg.max_disparity {
                    let mut cost = 0.0f32;
                    for dy in 0..cfg.window {
                        for dx in 0..cfg.window {
                            let lx = x + dx - radius;
                            let ly = y + dy - radius;
                            let rv = right.get_clamped(lx as isize - shift as isize, ly as isize);
                            let d = left.get(lx, ly) - rv;
                            cost += d * d;
                        }
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_shift = shift;
                    }
                }
                SparseDisparity {
                    x,
                    y,
                    disparity: best_shift as f32,
                    cost: best_cost,
                }
            })
            .collect()
    })
}

/// Fraction of pixels whose computed disparity is within `tol` of the
/// ground truth — the accuracy metric used by this reproduction's tests
/// and experiment harness.
///
/// # Panics
///
/// Panics if image dimensions differ.
pub fn disparity_accuracy(computed: &Image, truth: &Image, tol: f32) -> f64 {
    assert_eq!(
        (computed.width(), computed.height()),
        (truth.width(), truth.height()),
        "disparity maps must match in size"
    );
    let total = computed.len();
    if total == 0 {
        return 1.0;
    }
    let good = computed
        .as_slice()
        .iter()
        .zip(truth.as_slice())
        .filter(|(c, t)| (**c - **t).abs() <= tol)
        .count();
    good as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::stereo_pair;

    #[test]
    fn config_validation() {
        assert!(DisparityConfig::new(0, 5).is_err());
        assert!(DisparityConfig::new(8, 4).is_err());
        assert!(DisparityConfig::new(8, 0).is_err());
        let c = DisparityConfig::new(8, 5).unwrap();
        assert_eq!(c.max_disparity(), 8);
        assert_eq!(c.window(), 5);
    }

    #[test]
    fn uniform_shift_is_recovered_exactly() {
        let left = Image::from_fn(80, 40, |x, y| ((x * 31 + y * 17) % 251) as f32);
        let shift = 5usize;
        let right = Image::from_fn(80, 40, |x, y| {
            left.get_clamped(x as isize + shift as isize, y as isize)
        });
        let cfg = DisparityConfig::new(10, 7).unwrap();
        let mut prof = Profiler::new();
        let disp =
            try_compute_disparity(&left, &right, &cfg, &mut prof).expect("valid stereo pair");
        // Interior pixels (excluding border effects and clamped columns).
        let mut correct = 0;
        let mut total = 0;
        for y in 5..35 {
            for x in 10..70 {
                total += 1;
                if disp.get(x, y) == shift as f32 {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 > 0.98 * total as f64, "{correct}/{total}");
    }

    #[test]
    fn synthetic_scene_disparity_is_accurate() {
        let s = stereo_pair(96, 72, 21);
        let cfg = DisparityConfig::new(s.max_disparity, 9).unwrap();
        let mut prof = Profiler::new();
        let disp = prof
            .run(|p| try_compute_disparity(&s.left, &s.right, &cfg, p).expect("valid stereo pair"));
        let acc = disparity_accuracy(&disp, &s.truth, 1.0);
        assert!(acc > 0.80, "accuracy {acc} too low");
    }

    #[test]
    fn profiler_sees_all_four_kernels() {
        let s = stereo_pair(48, 36, 2);
        let cfg = DisparityConfig::new(4, 5).unwrap();
        let mut prof = Profiler::new();
        prof.run(|p| try_compute_disparity(&s.left, &s.right, &cfg, p).expect("valid stereo pair"));
        let report = prof.report();
        for k in ["SSD", "IntegralImage", "Correlation", "Sort"] {
            assert!(report.occupancy(k).is_some(), "kernel {k} missing");
        }
        // Five shifts (0..=4) -> five calls per kernel.
        assert_eq!(report.kernels()[0].calls, 5);
    }

    #[test]
    fn zero_disparity_for_identical_images() {
        let img = Image::from_fn(40, 30, |x, y| ((x * 3 + y * 7) % 50) as f32);
        let cfg = DisparityConfig::new(6, 5).unwrap();
        let mut prof = Profiler::new();
        let disp = try_compute_disparity(&img, &img, &cfg, &mut prof).expect("valid stereo pair");
        assert!(disp.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accuracy_metric_bounds() {
        let a = Image::filled(4, 4, 2.0);
        let b = Image::filled(4, 4, 2.5);
        assert_eq!(disparity_accuracy(&a, &b, 1.0), 1.0);
        assert_eq!(disparity_accuracy(&a, &b, 0.1), 0.0);
    }

    #[test]
    fn consistency_mask_keeps_good_pixels_and_flags_occlusions() {
        let s = stereo_pair(96, 72, 4);
        let cfg = DisparityConfig::new(s.max_disparity, 9).unwrap();
        let mut prof = Profiler::new();
        let disp =
            try_compute_disparity(&s.left, &s.right, &cfg, &mut prof).expect("valid stereo pair");
        let mask = left_right_consistency(&s.left, &s.right, &disp, &cfg, 1.0, &mut prof);
        // Most pixels are consistent.
        assert!(
            mask.valid_fraction() > 0.6,
            "valid fraction {}",
            mask.valid_fraction()
        );
        // Valid pixels are substantially more accurate than the full map.
        let mut good_valid = 0usize;
        let mut total_valid = 0usize;
        for y in 0..72 {
            for x in 0..96 {
                if mask.is_valid(x, y) {
                    total_valid += 1;
                    if (disp.get(x, y) - s.truth.get(x, y)).abs() <= 1.0 {
                        good_valid += 1;
                    }
                }
            }
        }
        let acc_valid = good_valid as f64 / total_valid as f64;
        let acc_all = disparity_accuracy(&disp, &s.truth, 1.0);
        assert!(
            acc_valid >= acc_all,
            "masked accuracy {acc_valid} not above overall {acc_all}"
        );
        assert!(acc_valid > 0.9, "masked accuracy {acc_valid}");
    }

    #[test]
    fn sparse_matches_dense_at_feature_points() {
        let s = stereo_pair(96, 72, 8);
        let cfg = DisparityConfig::new(s.max_disparity, 9).unwrap();
        let mut prof = Profiler::new();
        let dense =
            try_compute_disparity(&s.left, &s.right, &cfg, &mut prof).expect("valid stereo pair");
        let features: Vec<(usize, usize)> = (0..12)
            .map(|i| (12 + (i * 61) % 72, 10 + (i * 37) % 52))
            .collect();
        let sparse = compute_sparse_disparity(&s.left, &s.right, &features, &cfg, &mut prof);
        assert_eq!(sparse.len(), features.len());
        let mut agree = 0;
        for sp in &sparse {
            if (sp.disparity - dense.get(sp.x, sp.y)).abs() <= 1.0 {
                agree += 1;
            }
        }
        assert!(
            agree >= 10,
            "{agree}/{} sparse-dense agreement",
            sparse.len()
        );
    }

    #[test]
    fn sparse_skips_border_features() {
        let s = stereo_pair(64, 48, 9);
        let cfg = DisparityConfig::new(4, 9).unwrap();
        let mut prof = Profiler::new();
        let out = compute_sparse_disparity(
            &s.left,
            &s.right,
            &[(0, 0), (63, 47), (32, 24)],
            &cfg,
            &mut prof,
        );
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].x, out[0].y), (32, 24));
    }

    /// The pre-fast-path dense search, kept as the bit-identity oracle:
    /// per-pixel clamped SSD taps, per-pixel asserted `ii.sum` windows,
    /// and an *unclamped* `0..=max_disparity` shift scan.
    fn naive_disparity(left: &Image, right: &Image, max_d: usize, window: usize) -> Image {
        let w = left.width();
        let h = left.height();
        let radius = window / 2;
        let mut best_cost = Image::filled(w, h, f32::INFINITY);
        let mut best_disp = Image::new(w, h);
        for shift in 0..=max_d {
            let ssd = Image::from_fn(w, h, |x, y| {
                let r = right.get_clamped(x as isize - shift as isize, y as isize);
                let d = left.get(x, y) - r;
                d * d
            });
            let ii = IntegralImage::new(&ssd);
            let cost = Image::from_fn(w, h, |x, y| {
                let x0 = x.saturating_sub(radius);
                let y0 = y.saturating_sub(radius);
                let x1 = (x + radius + 1).min(w);
                let y1 = (y + radius + 1).min(h);
                ii.sum(x0, y0, x1 - x0, y1 - y0) as f32
            });
            for i in 0..w * h {
                let c = cost.as_slice()[i];
                if c < best_cost.as_slice()[i] {
                    best_cost.as_mut_slice()[i] = c;
                    best_disp.as_mut_slice()[i] = shift as f32;
                }
            }
        }
        best_disp
    }

    #[test]
    fn shift_clamp_is_bit_identical_at_narrow_widths() {
        // Regression for the shift-range clamp: at image widths straddling
        // `max_disparity` (max_disparity − 1, max_disparity, + 1) the
        // clamped search must reproduce the unclamped naive scan exactly,
        // because every shift ≥ w − 1 samples only the replicated right
        // column 0 and loses strict-`<` ties to the earliest such shift.
        let max_d = 8usize;
        for w in [max_d - 1, max_d, max_d + 1] {
            let h = 12;
            let left = Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 97) as f32);
            let right = Image::from_fn(w, h, |x, y| ((x * 13 + y * 7) % 89) as f32);
            let cfg = DisparityConfig::new(max_d, 5).unwrap();
            let mut prof = Profiler::new();
            let disp =
                try_compute_disparity(&left, &right, &cfg, &mut prof).expect("valid stereo pair");
            assert_eq!(disp, naive_disparity(&left, &right, max_d, 5), "width {w}");
        }
    }

    #[test]
    fn dense_search_bit_identical_to_naive_for_every_policy() {
        let s = stereo_pair(64, 48, 33);
        let naive = naive_disparity(&s.left, &s.right, s.max_disparity, 9);
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Threads(1),
            ExecPolicy::Threads(3),
            ExecPolicy::Threads(64),
            ExecPolicy::Auto,
        ] {
            let cfg = DisparityConfig::new(s.max_disparity, 9)
                .unwrap()
                .with_exec(policy);
            let mut prof = Profiler::new();
            let disp = try_compute_disparity(&s.left, &s.right, &cfg, &mut prof)
                .expect("valid stereo pair");
            assert_eq!(disp, naive, "{policy:?}");
        }
    }

    #[test]
    fn mismatched_images_are_rejected() {
        let mut prof = Profiler::new();
        let result = try_compute_disparity(
            &Image::new(10, 10),
            &Image::new(11, 10),
            &DisparityConfig::default(),
            &mut prof,
        );
        assert_eq!(
            result,
            Err(DisparityError::DimensionMismatch {
                left: (10, 10),
                right: (11, 10),
            })
        );
    }
}
