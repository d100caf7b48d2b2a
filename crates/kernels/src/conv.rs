//! Convolution kernels.
//!
//! SD-VBS implements its 2-D filters as pairs of 1-D passes "for better
//! cache locality" (paper §II-B, disparity); we follow the same structure.
//! All borders use replicate padding, matching the C sources' `padarray`
//! convention.
//!
//! # Fast paths
//!
//! Every stencil loop here is split into an **interior path** — contiguous
//! slice arithmetic over whole rows, with no per-tap bounds checks or
//! clamping, in a shape LLVM autovectorizes — and a thin **replicate-border
//! path** that applies the clamped taps pixel by pixel. Both paths
//! accumulate taps per output pixel in the same order as the naive scalar
//! loop (see [`crate::reference`]), so results are **bit-identical** to the
//! scalar reference; the equivalence suites in
//! `tests/{simd,border}_equivalence.rs` pin this down.
//!
//! The interior of both 1-D passes is **register-blocked**: a block of
//! `LANES` adjacent outputs is loaded once into a fixed-size accumulator
//! array, every tap (in ascending order) adds its shifted source block
//! into it, and the block is stored once. Each output's running sum is
//! the same sequence of additions as the naive loop's, but the output no
//! longer makes a round trip through memory per tap. The few outputs left
//! after the last whole block take the same taps, each as one pass over
//! them.
//!
//! [`convolve_separable_with`] — and with it every Gaussian blur and
//! gradient — fuses its two passes: each worker keeps the row-pass results
//! of the last `ky.len()` source rows in a ring and computes each one when
//! the column pass first needs it, so no full-size intermediate image is
//! written and read back.

use sdvbs_exec::ExecPolicy;
use sdvbs_image::Image;

/// Outputs per register block of the interior loops: 16 `f32` lanes are
/// two AVX2 (YMM) registers on the workspace's x86-64-v3 target, so the
/// accumulator stays in registers across all taps. Wider blocks were not
/// measured on that target.
const LANES: usize = 16;

/// Adds `Σ_i k[i] · src(i)[x]` into each `out[x]`, taps in ascending
/// order, where `src(i)` is tap `i`'s source slice (at least `out.len()`
/// long). Whole `LANES`-wide blocks accumulate in registers; the tail
/// (fewer than `LANES` outputs) takes the taps one at a time, each as one
/// pass over the tail.
#[inline]
fn accumulate_taps<'a>(out: &mut [f32], k: &[f32], src: impl Fn(usize) -> &'a [f32]) {
    let mut blocks = out.chunks_exact_mut(LANES);
    let mut x0 = 0;
    for block in &mut blocks {
        let mut acc = [0.0f32; LANES];
        acc.copy_from_slice(block);
        for (i, &kv) in k.iter().enumerate() {
            let s = &src(i)[x0..x0 + LANES];
            for (a, &v) in acc.iter_mut().zip(s) {
                *a += kv * v;
            }
        }
        block.copy_from_slice(&acc);
        x0 += LANES;
    }
    let tail = blocks.into_remainder();
    if tail.is_empty() {
        return;
    }
    for (i, &kv) in k.iter().enumerate() {
        for (o, &v) in tail.iter_mut().zip(&src(i)[x0..]) {
            *o += kv * v;
        }
    }
}

/// Adds the 1-D convolution of `src` with `k` into `out`, replicate border.
///
/// Per-pixel tap accumulation order is identical to the naive scalar loop
/// (ascending taps), so calling this on a zeroed `out` reproduces the
/// scalar reference bit for bit, and repeated calls (the dense 2-D kernel's
/// row accumulation) match the scalar `(ky, kx)`-ordered loop exactly.
fn accumulate_conv_row(src: &[f32], k: &[f32], out: &mut [f32]) {
    let w = src.len();
    debug_assert_eq!(out.len(), w);
    if w == 0 {
        return;
    }
    let half = k.len() / 2;
    let lo = half.min(w);
    let hi = w.saturating_sub(half).max(lo);
    // Replicate-border columns: clamped taps, accumulated one by one.
    for x in (0..lo).chain(hi..w) {
        for (i, &kv) in k.iter().enumerate() {
            let sx = (x + i).saturating_sub(half).min(w - 1);
            out[x] += kv * src[sx];
        }
    }
    // Interior columns: every tap is in range (`hi > lo` implies
    // `lo == half`), so tap `i` for output `x = lo + j` reads `src[i + j]`
    // — a pure shifted-slice multiply-add with no branches.
    accumulate_taps(&mut out[lo..hi], k, |i| &src[i..]);
}

/// Convolves each row with the 1-D kernel `k` (replicate border).
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_rows(img: &Image, k: &[f32]) -> Image {
    convolve_rows_with(img, k, ExecPolicy::Serial)
}

/// [`convolve_rows`] under an execution policy: output rows are distributed
/// over worker threads. Bit-identical to the serial result for any policy.
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_rows_with(img: &Image, k: &[f32], policy: ExecPolicy) -> Image {
    assert!(
        !k.is_empty() && k.len() % 2 == 1,
        "kernel must have odd length"
    );
    Image::from_rows_with(img.width(), img.height(), policy, |y, out| {
        // `out` starts zeroed, so accumulating matches the scalar
        // `acc = 0.0; acc += …` loop bit for bit.
        accumulate_conv_row(img.row(y), k, out);
    })
}

/// Convolves each column with the 1-D kernel `k` (replicate border).
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_cols(img: &Image, k: &[f32]) -> Image {
    convolve_cols_with(img, k, ExecPolicy::Serial)
}

/// [`convolve_cols`] under an execution policy (row-parallel over the
/// output). Bit-identical to the serial result for any policy.
///
/// # Panics
///
/// Panics if `k` is empty or has even length.
pub fn convolve_cols_with(img: &Image, k: &[f32], policy: ExecPolicy) -> Image {
    assert!(
        !k.is_empty() && k.len() % 2 == 1,
        "kernel must have odd length"
    );
    let (w, h) = (img.width(), img.height());
    let half = k.len() / 2;
    let src = img.as_slice();
    let mut data = vec![0.0f32; w * h];
    if w > 0 {
        sdvbs_exec::fill_chunks(policy, &mut data, w, |start, band| {
            // The vertical pass clamps whole *rows*, never individual
            // pixels, so interior and border rows share one unit-stride
            // loop: output row `y` is a tap-ordered linear combination of
            // `k.len()` source rows, register-blocked across the row.
            let mut tap_at = vec![0usize; k.len()];
            for (dy, out) in band.chunks_mut(w).enumerate() {
                let y = start / w + dy;
                for (i, at) in tap_at.iter_mut().enumerate() {
                    *at = (y + i).saturating_sub(half).min(h - 1) * w;
                }
                accumulate_taps(out, k, |i| &src[tap_at[i]..tap_at[i] + w]);
            }
        });
    }
    Image::from_vec(w, h, data).expect("one value per pixel")
}

/// Separable convolution: rows with `kx`, then columns with `ky`.
pub fn convolve_separable(img: &Image, kx: &[f32], ky: &[f32]) -> Image {
    convolve_separable_with(img, kx, ky, ExecPolicy::Serial)
}

/// [`convolve_separable`] under an execution policy: output rows are
/// distributed over worker threads. Bit-identical to the serial result
/// for any policy.
///
/// The passes are fused: each worker keeps the row-pass results of the
/// last `ky.len()` source rows in a ring buffer (source row `sy` in slot
/// `sy % ky.len()`) and computes each one when the column pass first
/// needs it, so no full-size intermediate image is written and read back.
/// Every value is the one [`convolve_cols`]`(`[`convolve_rows`]`)` computes.
///
/// # Panics
///
/// Panics if either kernel is empty or has even length.
pub fn convolve_separable_with(img: &Image, kx: &[f32], ky: &[f32], policy: ExecPolicy) -> Image {
    assert!(
        !kx.is_empty() && kx.len() % 2 == 1 && !ky.is_empty() && ky.len() % 2 == 1,
        "kernel must have odd length"
    );
    let (w, h) = (img.width(), img.height());
    let half = ky.len() / 2;
    let mut data = vec![0.0f32; w * h];
    if w > 0 {
        sdvbs_exec::fill_chunks(policy, &mut data, w, |start, band| {
            let mut ring = vec![0.0f32; ky.len() * w];
            // Where in the ring tap `i` of the current output row reads.
            let mut tap_at = vec![0usize; ky.len()];
            // The next source row whose row pass is not in the ring yet.
            let mut next = (start / w).saturating_sub(half);
            for (dy, out) in band.chunks_mut(w).enumerate() {
                let y = start / w + dy;
                // The rows output `y` reads span at most `ky.len()`
                // consecutive source rows, so the slot computed here held
                // a row no output from `y` on reads again.
                while next <= (y + half).min(h - 1) {
                    let slot = &mut ring[(next % ky.len()) * w..][..w];
                    slot.fill(0.0);
                    accumulate_conv_row(img.row(next), kx, slot);
                    next += 1;
                }
                for (i, at) in tap_at.iter_mut().enumerate() {
                    *at = ((y + i).saturating_sub(half).min(h - 1) % ky.len()) * w;
                }
                accumulate_taps(out, ky, |i| &ring[tap_at[i]..tap_at[i] + w]);
            }
        });
    }
    Image::from_vec(w, h, data).expect("one value per pixel")
}

/// Dense 2-D convolution with an odd-sized `kw × kh` kernel in row-major
/// order (replicate border).
///
/// # Panics
///
/// Panics if the kernel dimensions are even, zero, or don't match `k`'s
/// length.
pub fn convolve_2d(img: &Image, k: &[f32], kw: usize, kh: usize) -> Image {
    convolve_2d_with(img, k, kw, kh, ExecPolicy::Serial)
}

/// [`convolve_2d`] under an execution policy (row-parallel over the
/// output). Bit-identical to the serial result for any policy.
///
/// # Panics
///
/// Panics if the kernel dimensions are even, zero, or don't match `k`'s
/// length.
pub fn convolve_2d_with(img: &Image, k: &[f32], kw: usize, kh: usize, policy: ExecPolicy) -> Image {
    assert!(
        kw % 2 == 1 && kh % 2 == 1 && kw > 0 && kh > 0,
        "kernel must be odd-sized"
    );
    assert_eq!(k.len(), kw * kh, "kernel buffer must match dimensions");
    let hh = kh / 2;
    let h = img.height();
    Image::from_rows_with(img.width(), h, policy, |y, out| {
        // Row-clamp vertically, then run each kernel row as a 1-D
        // interior/border pass — the accumulation visits taps in the same
        // `(ky, kx)` order as the scalar reference, so the dense result
        // stays bit-identical.
        for ky in 0..kh {
            let sy = (y + ky).saturating_sub(hh).min(h - 1);
            accumulate_conv_row(img.row(sy), &k[ky * kw..(ky + 1) * kw], out);
        }
    })
}

/// The radius `ceil(3σ)` (at least 1) of [`gaussian_kernel`]'s taps,
/// which number `2·radius + 1`. It saturates at `usize::MAX`, so callers
/// can bound a sigma by the image it blurs before any kernel allocates.
pub fn gaussian_radius(sigma: f32) -> usize {
    (3.0 * sigma).ceil().max(1.0) as usize
}

/// Builds a normalized 1-D Gaussian kernel for standard deviation `sigma`,
/// truncated at three sigmas (minimum length 3).
///
/// # Panics
///
/// Panics if `sigma` is not finite and positive.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
    let radius = gaussian_radius(sigma);
    let sigma = sigma as f64;
    // Weights and the normalizing mass are computed in f64: an f32 running
    // sum loses enough low-order bits on long (large-sigma) kernels that
    // the normalized taps drift measurably from unit mass, which compounds
    // across the repeated blurs of pyramid/scale-space construction.
    let weights: Vec<f64> = (0..=2 * radius)
        .map(|i| {
            let x = i as f64 - radius as f64;
            (-x * x / (2.0 * sigma * sigma)).exp()
        })
        .collect();
    let sum: f64 = weights.iter().sum();
    weights.into_iter().map(|w| (w / sum) as f32).collect()
}

/// Gaussian-blurs an image with separable passes — the ubiquitous
/// "Gaussian Filter" kernel of Figure 1.
///
/// # Panics
///
/// Panics if `sigma` is not finite and positive.
pub fn gaussian_blur(img: &Image, sigma: f32) -> Image {
    gaussian_blur_with(img, sigma, ExecPolicy::Serial)
}

/// [`gaussian_blur`] under an execution policy. Bit-identical to the serial
/// result for any policy.
///
/// # Panics
///
/// Panics if `sigma` is not finite and positive.
pub fn gaussian_blur_with(img: &Image, sigma: f32, policy: ExecPolicy) -> Image {
    let k = gaussian_kernel(sigma);
    convolve_separable_with(img, &k, &k, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_is_lossless() {
        let img = Image::from_fn(8, 6, |x, y| (x * y) as f32);
        let out = convolve_rows(&img, &[0.0, 1.0, 0.0]);
        assert_eq!(out, img);
        let out = convolve_cols(&img, &[0.0, 1.0, 0.0]);
        assert_eq!(out, img);
    }

    #[test]
    fn row_convolution_shifts() {
        // Kernel [1, 0, 0] picks the pixel to the left.
        let img = Image::from_fn(4, 1, |x, _| x as f32);
        let out = convolve_rows(&img, &[1.0, 0.0, 0.0]);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 1.0, 2.0]); // border replicates
    }

    #[test]
    fn separable_equals_dense_for_outer_product() {
        let img = Image::from_fn(9, 9, |x, y| ((x * 7 + y * 3) % 13) as f32);
        let kx = [0.25f32, 0.5, 0.25];
        let ky = [0.1f32, 0.8, 0.1];
        let sep = convolve_separable(&img, &kx, &ky);
        // Dense kernel = outer product ky ⊗ kx.
        let mut dense = [0.0f32; 9];
        for (j, kyv) in ky.iter().enumerate() {
            for (i, kxv) in kx.iter().enumerate() {
                dense[j * 3 + i] = kyv * kxv;
            }
        }
        let full = convolve_2d(&img, &dense, 3, 3);
        for y in 0..9 {
            for x in 0..9 {
                assert!((sep.get(x, y) - full.get(x, y)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gaussian_kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        assert!(k.len() % 2 == 1);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
        // Peak at the center.
        let mid = k.len() / 2;
        assert!(k.iter().all(|&v| v <= k[mid]));
    }

    #[test]
    fn blur_preserves_constant_image() {
        let img = Image::filled(16, 16, 42.0);
        let out = gaussian_blur(&img, 2.0);
        assert!(out.as_slice().iter().all(|&v| (v - 42.0).abs() < 1e-3));
    }

    #[test]
    fn blur_reduces_variance() {
        let img = Image::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 0.0 } else { 255.0 });
        let out = gaussian_blur(&img, 1.0);
        let var = |im: &Image| {
            let m = im.mean();
            im.as_slice()
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>()
                / im.len() as f32
        };
        assert!(var(&out) < var(&img) / 10.0);
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn even_kernel_panics() {
        convolve_rows(&Image::new(4, 4), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_sigma_panics() {
        gaussian_kernel(0.0);
    }
}
