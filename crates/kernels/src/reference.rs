//! Naive scalar reference kernels.
//!
//! These are the original per-pixel closure implementations (branchy
//! `get_clamped` on every tap, a bounds-checked `get` per pixel) that the
//! vectorized interior/border fast paths in [`crate::conv`] and
//! [`crate::integral`] and the slice maps in [`crate::features`]
//! replaced. They are
//! retained verbatim as the **source of truth for bit-identical
//! equivalence**: the `simd_equivalence` and `border_equivalence` test
//! suites compare every fast-path kernel against these across random
//! sizes, seeds, and [`sdvbs_exec::ExecPolicy`] variants.
//!
//! Nothing in the production pipelines calls these; they exist so the fast
//! paths always have a slow, obviously-correct implementation to answer to.

use crate::features::Feature;
use crate::gradient::{gradient_x, gradient_y};
use crate::integral::IntegralImage;
use sdvbs_image::Image;

/// Naive row convolution: per-pixel clamped taps, ascending tap order.
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_rows(img: &Image, k: &[f32]) -> Image {
    assert!(
        !k.is_empty() && k.len() % 2 == 1,
        "kernel must have odd length"
    );
    let half = (k.len() / 2) as isize;
    Image::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (i, &kv) in k.iter().enumerate() {
            let sx = x as isize + i as isize - half;
            acc += kv * img.get_clamped(sx, y as isize);
        }
        acc
    })
}

/// Naive column convolution: per-pixel clamped taps, ascending tap order.
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_cols(img: &Image, k: &[f32]) -> Image {
    assert!(
        !k.is_empty() && k.len() % 2 == 1,
        "kernel must have odd length"
    );
    let half = (k.len() / 2) as isize;
    Image::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (i, &kv) in k.iter().enumerate() {
            let sy = y as isize + i as isize - half;
            acc += kv * img.get_clamped(x as isize, sy);
        }
        acc
    })
}

/// Naive dense 2-D convolution: per-pixel clamped taps in `(ky, kx)` order.
///
/// # Panics
///
/// Panics if the kernel dimensions are even, zero, or don't match `k`'s
/// length.
pub fn convolve_2d(img: &Image, k: &[f32], kw: usize, kh: usize) -> Image {
    assert!(
        kw % 2 == 1 && kh % 2 == 1 && kw > 0 && kh > 0,
        "kernel must be odd-sized"
    );
    assert_eq!(k.len(), kw * kh, "kernel buffer must match dimensions");
    let hw = (kw / 2) as isize;
    let hh = (kh / 2) as isize;
    Image::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for ky in 0..kh {
            for kx in 0..kw {
                let sx = x as isize + kx as isize - hw;
                let sy = y as isize + ky as isize - hh;
                acc += k[ky * kw + kx] * img.get_clamped(sx, sy);
            }
        }
        acc
    })
}

/// Naive clipped window sum: one asserted [`IntegralImage::sum`] call per
/// pixel (the original "Area Sum" loop).
pub fn area_sum(img: &Image, radius: usize) -> Image {
    let ii = IntegralImage::new(img);
    let w = img.width();
    let h = img.height();
    Image::from_fn(w, h, |x, y| {
        let x0 = x.saturating_sub(radius);
        let y0 = y.saturating_sub(radius);
        let x1 = (x + radius + 1).min(w);
        let y1 = (y + radius + 1).min(h);
        ii.sum(x0, y0, x1 - x0, y1 - y0) as f32
    })
}

/// Naive integral-image build: per-pixel `get` with explicit index math.
pub fn integral_table(img: &Image) -> Vec<f64> {
    let w = img.width();
    let h = img.height();
    let stride = w + 1;
    let mut table = vec![0.0f64; stride * (h + 1)];
    for y in 0..h {
        let mut row_acc = 0.0f64;
        for x in 0..w {
            row_acc += img.get(x, y) as f64;
            table[(y + 1) * stride + x + 1] = table[y * stride + x + 1] + row_acc;
        }
    }
    table
}

/// Naive structure tensor: the gradient products as one bounds-checked
/// `get` pair per pixel, then [`area_sum`] of each.
pub fn structure_tensor(img: &Image, radius: usize) -> (Image, Image, Image) {
    let gx = gradient_x(img);
    let gy = gradient_y(img);
    let ixx = Image::from_fn(img.width(), img.height(), |x, y| {
        gx.get(x, y) * gx.get(x, y)
    });
    let ixy = Image::from_fn(img.width(), img.height(), |x, y| {
        gx.get(x, y) * gy.get(x, y)
    });
    let iyy = Image::from_fn(img.width(), img.height(), |x, y| {
        gy.get(x, y) * gy.get(x, y)
    });
    (
        area_sum(&ixx, radius),
        area_sum(&ixy, radius),
        area_sum(&iyy, radius),
    )
}

/// Naive KLT min-eigenvalue response: three `get`s per pixel.
pub fn min_eigenvalue_response(img: &Image, radius: usize) -> Image {
    let (sxx, sxy, syy) = structure_tensor(img, radius);
    Image::from_fn(img.width(), img.height(), |x, y| {
        let a = sxx.get(x, y);
        let b = sxy.get(x, y);
        let c = syy.get(x, y);
        let half_trace = 0.5 * (a + c);
        let det_term = (half_trace * half_trace - (a * c - b * b)).max(0.0).sqrt();
        half_trace - det_term
    })
}

/// Naive Harris response (`k = 0.04`): three `get`s per pixel.
pub fn harris_response(img: &Image, radius: usize) -> Image {
    let (sxx, sxy, syy) = structure_tensor(img, radius);
    Image::from_fn(img.width(), img.height(), |x, y| {
        let a = sxx.get(x, y);
        let b = sxy.get(x, y);
        let c = syy.get(x, y);
        let det = a * c - b * b;
        let trace = a + c;
        det - 0.04 * trace * trace
    })
}

/// Naive local maxima: each of the eight neighbours read with its own
/// `get`, in row-major order, stopping at the first that is `>=` the
/// centre.
pub fn local_maxima(response: &Image, threshold: f32, margin: usize) -> Vec<Feature> {
    let w = response.width();
    let h = response.height();
    let mut feats = Vec::new();
    if w <= 2 * margin + 2 || h <= 2 * margin + 2 {
        return feats;
    }
    for y in (margin + 1)..(h - margin - 1) {
        for x in (margin + 1)..(w - margin - 1) {
            let v = response.get(x, y);
            if v <= threshold {
                continue;
            }
            let mut is_max = true;
            'scan: for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let n = response.get((x as isize + dx) as usize, (y as isize + dy) as usize);
                    if n >= v {
                        is_max = false;
                        break 'scan;
                    }
                }
            }
            if is_max {
                feats.push(Feature {
                    x: x as f32,
                    y: y as f32,
                    score: v,
                });
            }
        }
    }
    crate::features::sort_by_score(&mut feats);
    feats
}
