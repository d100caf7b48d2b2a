//! Haar-like rectangle features evaluated on integral images.

use sdvbs_image::Image;
use sdvbs_kernels::integral::IntegralImage;

/// The five classic Viola–Jones feature shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaarKind {
    /// Two horizontal bands (top minus bottom) — fires on the eye band.
    TwoVertical,
    /// Two vertical bands (left minus right).
    TwoHorizontal,
    /// Three vertical bands (outer minus center).
    ThreeHorizontal,
    /// Three horizontal bands (outer minus center).
    ThreeVertical,
    /// Checkerboard quad (diagonal minus anti-diagonal).
    Four,
}

/// A Haar feature: a shape anchored at `(x, y)` with size `w × h`, in
/// coordinates of the canonical detection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HaarFeature {
    /// Shape of the feature.
    pub kind: HaarKind,
    /// Left offset inside the window.
    pub x: usize,
    /// Top offset inside the window.
    pub y: usize,
    /// Feature width (divisible by 2 or 3 as the shape demands).
    pub w: usize,
    /// Feature height (divisible by 2 or 3 as the shape demands).
    pub h: usize,
}

/// A detection window prepared for feature evaluation: position, scale and
/// variance normalization precomputed from the integral images.
#[derive(Debug, Clone, Copy)]
pub struct NormalizedWindow {
    /// Window left edge in image pixels.
    pub x0: usize,
    /// Window top edge in image pixels.
    pub y0: usize,
    /// Scale factor relative to the canonical window.
    pub scale: f64,
    /// `1 / (stddev · area)` normalization factor.
    pub inv_norm: f64,
}

impl NormalizedWindow {
    /// Prepares a window of `size × size` image pixels at `(x0, y0)` for a
    /// canonical window of `base` pixels, computing the lighting
    /// normalization from the plain and squared integral images.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the integral image bounds.
    pub fn new(
        ii: &IntegralImage,
        ii2: &IntegralImage,
        x0: usize,
        y0: usize,
        size: usize,
        base: usize,
    ) -> Self {
        Self::from_window_sums(
            ii.sum(x0, y0, size, size),
            ii2.sum(x0, y0, size, size),
            x0,
            y0,
            size,
            base,
        )
    }

    /// Prepares a window from precomputed plain and squared window sums.
    ///
    /// This is the allocation- and assert-free entry the sliding-window
    /// scan uses: the scan reads `sum`/`sum2` for a whole row of windows
    /// straight off the integral-table rows (same `d − b − c + a` order as
    /// [`IntegralImage::sum`]), so the resulting windows are bit-identical
    /// to [`NormalizedWindow::new`].
    pub fn from_window_sums(
        sum: f64,
        sum2: f64,
        x0: usize,
        y0: usize,
        size: usize,
        base: usize,
    ) -> Self {
        let area = (size * size) as f64;
        let mean = sum / area;
        let var = (sum2 / area - mean * mean).max(1.0);
        let inv_norm = 1.0 / (var.sqrt() * area);
        NormalizedWindow {
            x0,
            y0,
            scale: size as f64 / base as f64,
            inv_norm,
        }
    }
}

impl HaarFeature {
    /// Evaluates the feature on a normalized window: the scaled
    /// black-minus-white rectangle contrast divided by the window's
    /// standard deviation (Viola–Jones lighting correction).
    pub fn eval(&self, ii: &IntegralImage, win: &NormalizedWindow) -> f64 {
        self.scaled(win.scale)
            .eval(ii, win.x0, win.y0, win.inv_norm)
    }

    /// The feature's offsets and sizes in a window `scale` times the
    /// canonical one, before the clamp to the image edge.
    pub(crate) fn scaled(&self, scale: f64) -> ScaledFeature {
        let sx = |v: usize| (v as f64 * scale).round() as usize;
        ScaledFeature {
            kind: self.kind,
            x: sx(self.x),
            y: sx(self.y),
            w: sx(self.w).max(2),
            h: sx(self.h).max(2),
        }
    }

    /// Evaluates the feature on a full `base × base` patch (training
    /// convenience).
    pub fn eval_patch(&self, patch: &Image, base: usize) -> f64 {
        let ii = IntegralImage::new(patch);
        let ii2 = IntegralImage::squared(patch);
        let win = NormalizedWindow::new(&ii, &ii2, 0, 0, base, base);
        self.eval(&ii, &win)
    }
}

/// A [`HaarFeature`] at one window scale: offsets `(v·scale).round()`,
/// sizes the same but at least 2. A sliding-window scan computes it once
/// per window size; [`HaarFeature::eval`] computes it per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaledFeature {
    kind: HaarKind,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
}

impl ScaledFeature {
    /// The feature's normalized response in the window with top-left
    /// corner `(x0, y0)` and normalization factor `inv_norm`.
    pub(crate) fn eval(&self, ii: &IntegralImage, x0: usize, y0: usize, inv_norm: f64) -> f64 {
        let x = x0 + self.x;
        let y = y0 + self.y;
        // Clamp to the integral-image bounds (rounding can push the scaled
        // rectangle one pixel over).
        let w = self.w.min(ii.width().saturating_sub(x));
        let h = self.h.min(ii.height().saturating_sub(y));
        if w < 2 || h < 2 {
            return 0.0;
        }
        let mut raw = [0.0];
        contrasts(self.kind, ii, (x, y), (w, h), 1, &mut raw);
        raw[0] * inv_norm
    }

    /// The unnormalized responses in the windows with top-left corners
    /// `(x0 + i·step, y0)`, one per `out[i]`, for windows in which the
    /// feature needs no clamp (see [`ScaledFeature::room`]).
    pub(crate) fn raw_row(
        &self,
        ii: &IntegralImage,
        (x0, y0): (usize, usize),
        step: usize,
        out: &mut [f64],
    ) {
        contrasts(
            self.kind,
            ii,
            (x0 + self.x, y0 + self.y),
            (self.w, self.h),
            step,
            out,
        );
    }

    /// The largest window corner `(x0, y0)` at which the feature lies
    /// inside a `width × height` image, so needs no clamp; `None` if it
    /// lies outside at every corner.
    pub(crate) fn room(&self, width: usize, height: usize) -> Option<(usize, usize)> {
        Some((
            width.checked_sub(self.x + self.w)?,
            height.checked_sub(self.y + self.h)?,
        ))
    }
}

/// `out[i]` is the black-minus-white contrast of a `kind` feature of size
/// `w × h` with its top-left corner at `(x + i·step, y)`. Each rectangle
/// sum is `IntegralImage::sum`'s `d − b − c + a`, read from the table rows
/// the feature spans, and the sums combine in the same order.
///
/// # Panics
///
/// Panics if a feature leaves the table.
fn contrasts(
    kind: HaarKind,
    ii: &IntegralImage,
    (x, y): (usize, usize),
    (w, h): (usize, usize),
    step: usize,
    out: &mut [f64],
) {
    // The sum over columns `x0 .. x0 + w` between table rows `top` and
    // `bot`.
    fn band(top: &[f64], bot: &[f64], x0: usize, w: usize) -> f64 {
        bot[x0 + w] - top[x0 + w] - bot[x0] + top[x0]
    }
    let row = |dy: usize| ii.table_row(y + dy);
    let cols = out.iter_mut().enumerate().map(|(i, o)| (o, x + i * step));
    match kind {
        HaarKind::TwoVertical => {
            let hh = h / 2;
            let (r0, r1, r2) = (row(0), row(hh), row(2 * hh));
            for (o, x) in cols {
                *o = band(r0, r1, x, w) - band(r1, r2, x, w);
            }
        }
        HaarKind::TwoHorizontal => {
            let hw = w / 2;
            let (r0, r1) = (row(0), row(h));
            for (o, x) in cols {
                *o = band(r0, r1, x, hw) - band(r0, r1, x + hw, hw);
            }
        }
        HaarKind::ThreeHorizontal => {
            // Zero-mean weighting: 2*center - outer pair.
            let tw = w / 3;
            let (r0, r1) = (row(0), row(h));
            for (o, x) in cols {
                *o = 2.0 * band(r0, r1, x + tw, tw)
                    - band(r0, r1, x, tw)
                    - band(r0, r1, x + 2 * tw, tw);
            }
        }
        HaarKind::ThreeVertical => {
            let th = h / 3;
            let (r0, r1, r2, r3) = (row(0), row(th), row(2 * th), row(3 * th));
            for (o, x) in cols {
                *o = 2.0 * band(r1, r2, x, w) - band(r0, r1, x, w) - band(r2, r3, x, w);
            }
        }
        HaarKind::Four => {
            let hw = w / 2;
            let hh = h / 2;
            let (r0, r1, r2) = (row(0), row(hh), row(2 * hh));
            for (o, x) in cols {
                *o = band(r0, r1, x, hw) + band(r1, r2, x + hw, hw)
                    - band(r0, r1, x + hw, hw)
                    - band(r1, r2, x, hw);
            }
        }
    }
}

/// Generates a subsampled pool of Haar features for a `window × window`
/// canonical window. `step` strides both positions and sizes (larger steps
/// mean fewer features; 2–4 gives a pool in the low thousands, plenty for
/// a compact cascade).
///
/// # Panics
///
/// Panics if `window < 12` or `step == 0`.
pub fn generate_features(window: usize, step: usize) -> Vec<HaarFeature> {
    assert!(window >= 12, "window must be at least 12");
    assert!(step > 0, "step must be positive");
    let mut out = Vec::new();
    let kinds = [
        (HaarKind::TwoVertical, 1, 2),
        (HaarKind::TwoHorizontal, 2, 1),
        (HaarKind::ThreeHorizontal, 3, 1),
        (HaarKind::ThreeVertical, 1, 3),
        (HaarKind::Four, 2, 2),
    ];
    for (kind, wq, hq) in kinds {
        let mut w = 2 * wq.max(2);
        // Round the minimum width up to a multiple of the quantum.
        w += (wq - w % wq) % wq;
        while w <= window {
            let mut h = 2 * hq.max(2);
            h += (hq - h % hq) % hq;
            while h <= window {
                let mut y = 0;
                while y + h <= window {
                    let mut x = 0;
                    while x + w <= window {
                        out.push(HaarFeature { kind, x, y, w, h });
                        x += step;
                    }
                    y += step;
                }
                h += step * hq;
            }
            w += step * wq;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_vertical_fires_on_horizontal_edge() {
        // Top half bright, bottom half dark.
        let patch = Image::from_fn(24, 24, |_, y| if y < 12 { 200.0 } else { 50.0 });
        let f = HaarFeature {
            kind: HaarKind::TwoVertical,
            x: 4,
            y: 4,
            w: 16,
            h: 16,
        };
        let v = f.eval_patch(&patch, 24);
        assert!(v > 0.3, "edge response {v}");
        // The flipped image flips the sign.
        let flipped = Image::from_fn(24, 24, |_, y| if y < 12 { 50.0 } else { 200.0 });
        let vf = f.eval_patch(&flipped, 24);
        assert!(vf < -0.3, "flipped response {vf}");
    }

    #[test]
    fn response_is_lighting_invariant() {
        let patch = Image::from_fn(24, 24, |_, y| if y < 12 { 200.0 } else { 50.0 });
        // Same contrast pattern at half the amplitude and brighter base:
        // variance normalization must give a similar response.
        let dim = Image::from_fn(24, 24, |_, y| if y < 12 { 175.0 } else { 100.0 });
        let f = HaarFeature {
            kind: HaarKind::TwoVertical,
            x: 0,
            y: 0,
            w: 24,
            h: 24,
        };
        let v1 = f.eval_patch(&patch, 24);
        let v2 = f.eval_patch(&dim, 24);
        assert!((v1 - v2).abs() < 0.1 * v1.abs(), "{v1} vs {v2}");
    }

    #[test]
    fn flat_patch_gives_zero() {
        let patch = Image::filled(24, 24, 123.0);
        for kind in [
            HaarKind::TwoVertical,
            HaarKind::TwoHorizontal,
            HaarKind::ThreeHorizontal,
            HaarKind::ThreeVertical,
            HaarKind::Four,
        ] {
            let f = HaarFeature {
                kind,
                x: 2,
                y: 2,
                w: 12,
                h: 12,
            };
            assert_eq!(f.eval_patch(&patch, 24), 0.0);
        }
    }

    #[test]
    fn scaled_window_matches_unscaled_pattern() {
        // Evaluate the same geometric pattern at 24 and 48 pixels: the
        // normalized responses should be close.
        let p24 = Image::from_fn(24, 24, |x, _| if x < 12 { 200.0 } else { 50.0 });
        let p48 = Image::from_fn(48, 48, |x, _| if x < 24 { 200.0 } else { 50.0 });
        let f = HaarFeature {
            kind: HaarKind::TwoHorizontal,
            x: 4,
            y: 4,
            w: 16,
            h: 16,
        };
        let v24 = f.eval_patch(&p24, 24);
        let ii = IntegralImage::new(&p48);
        let ii2 = IntegralImage::squared(&p48);
        let win = NormalizedWindow::new(&ii, &ii2, 0, 0, 48, 24);
        let v48 = f.eval(&ii, &win);
        assert!(
            (v24 - v48).abs() < 0.15 * v24.abs().max(0.1),
            "{v24} vs {v48}"
        );
    }

    #[test]
    fn feature_pool_is_reasonable() {
        let feats = generate_features(24, 4);
        assert!(feats.len() > 300, "only {} features", feats.len());
        assert!(feats.len() < 20000, "{} features is excessive", feats.len());
        // All inside the window.
        for f in &feats {
            assert!(f.x + f.w <= 24 && f.y + f.h <= 24, "{f:?}");
        }
        // All five kinds present.
        for kind in [
            HaarKind::TwoVertical,
            HaarKind::TwoHorizontal,
            HaarKind::ThreeHorizontal,
            HaarKind::ThreeVertical,
            HaarKind::Four,
        ] {
            assert!(feats.iter().any(|f| f.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn four_kind_fires_on_checkerboard() {
        let patch = Image::from_fn(24, 24, |x, y| {
            let qx = x < 12;
            let qy = y < 12;
            if qx == qy {
                200.0
            } else {
                50.0
            }
        });
        let f = HaarFeature {
            kind: HaarKind::Four,
            x: 0,
            y: 0,
            w: 24,
            h: 24,
        };
        let v = f.eval_patch(&patch, 24);
        assert!(v > 0.5, "checkerboard response {v}");
    }
}
