//! Grayscale `f32` image container.

use crate::error::{ImageError, Result};
use std::fmt;

/// A grayscale image of `f32` pixels in row-major order.
///
/// Coordinates are `(x, y)` with `x` the column (`0..width`) and `y` the row
/// (`0..height`), matching the convention of the SD-VBS C sources. Pixel
/// values are unconstrained `f32`; benchmarks typically work in `0.0..=255.0`
/// (PGM range) or `0.0..=1.0` after normalization.
///
/// # Examples
///
/// ```
/// use sdvbs_image::Image;
///
/// let mut img = Image::new(3, 2);
/// img.set(2, 1, 7.0);
/// assert_eq!(img.get(2, 1), 7.0);
/// assert_eq!(img.as_slice().len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a `width × height` image of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn new(width: usize, height: usize) -> Self {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        Image {
            width,
            height,
            data: vec![0.0; len],
        }
    }

    /// Creates a `width × height` image of zeros, rejecting dimensions
    /// whose pixel count overflows `usize` instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] on overflow.
    pub fn try_new(width: usize, height: usize) -> Result<Self> {
        let len = width
            .checked_mul(height)
            .ok_or(ImageError::InvalidDimensions { width, height })?;
        Ok(Image {
            width,
            height,
            data: vec![0.0; len],
        })
    }

    /// Whether every pixel is finite (no NaN, no infinities).
    ///
    /// The fallible `try_*` pipeline entries use this to reject poisoned
    /// inputs up front, where a NaN would otherwise propagate silently
    /// through convolutions and argmins. Each 64-pixel chunk is tested
    /// without a per-pixel exit, so the test vectorizes; the scan still
    /// stops at the first chunk holding a non-finite pixel.
    pub fn all_finite(&self) -> bool {
        self.data
            .chunks(64)
            .all(|chunk| chunk.iter().fold(true, |ok, v| ok & v.is_finite()))
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        let mut img = Image::new(width, height);
        img.data.fill(value);
        img
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut img = Image::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel, with rows
    /// distributed over worker threads per `policy`.
    ///
    /// For a pure `f` this is bit-identical to [`Image::from_fn`] under
    /// every policy: each worker owns a disjoint band of whole rows and
    /// evaluates pixels in the same row-major order the serial loop does.
    /// This is the row-parallel substrate behind the `_with` kernel
    /// variants in `sdvbs-kernels`.
    pub fn from_fn_with(
        width: usize,
        height: usize,
        policy: sdvbs_exec::ExecPolicy,
        f: impl Fn(usize, usize) -> f32 + Sync,
    ) -> Self {
        if width == 0 || !policy.is_parallel(height) {
            return Image::from_fn(width, height, f);
        }
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        let mut data = vec![0.0f32; len];
        sdvbs_exec::fill_chunks(policy, &mut data, width, |start, band| {
            let y0 = start / width;
            for (dy, row) in band.chunks_mut(width).enumerate() {
                let y = y0 + dy;
                for (x, v) in row.iter_mut().enumerate() {
                    *v = f(x, y);
                }
            }
        });
        Image {
            width,
            height,
            data,
        }
    }

    /// Builds an image by filling whole rows: `f(y, row)` receives each
    /// output row as a contiguous slice, with rows distributed over worker
    /// threads per `policy`.
    ///
    /// This is the substrate of the vectorized kernel fast paths in
    /// `sdvbs-kernels`: handing `f` a whole row lets it run contiguous
    /// slice arithmetic (which LLVM autovectorizes) instead of a per-pixel
    /// closure with per-call bounds checks. For a pure `f` the result is
    /// bit-identical under every policy — each worker owns a disjoint band
    /// of whole rows.
    pub fn from_rows_with(
        width: usize,
        height: usize,
        policy: sdvbs_exec::ExecPolicy,
        f: impl Fn(usize, &mut [f32]) + Sync,
    ) -> Self {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        let mut data = vec![0.0f32; len];
        if width > 0 && height > 0 {
            sdvbs_exec::fill_chunks(policy, &mut data, width, |start, band| {
                let y0 = start / width;
                for (dy, row) in band.chunks_mut(width).enumerate() {
                    f(y0 + dy, row);
                }
            });
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BufferSizeMismatch`] if
    /// `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != width * height {
            return Err(ImageError::BufferSizeMismatch {
                expected: width * height,
                found: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has zero pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = value;
    }

    /// Pixel at `(x, y)`, with coordinates clamped to the image border
    /// (replicate padding — the boundary convention of the SD-VBS filters).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Immutable view of the row-major pixel buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major pixel buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= self.height()`.
    pub fn row(&self, y: usize) -> &[f32] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Borrows row `y` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= self.height()`.
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Applies `f` to every pixel, producing a new image.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Image {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Image {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Applies `f` to every pair of same-position pixels of `self` and
    /// `other`, producing a new image (one pass over both buffers).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn zip_map(&self, other: &Image, mut f: impl FnMut(f32, f32) -> f32) -> Image {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "images must have identical dimensions"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Image {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Minimum pixel value (`0.0` for an empty image).
    pub fn min(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f32::INFINITY, f32::min)
        }
    }

    /// Maximum pixel value (`0.0` for an empty image).
    pub fn max(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        }
    }

    /// Mean pixel value (`0.0` for an empty image).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            (self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64) as f32
        }
    }

    /// Linearly rescales pixel values to `0.0..=255.0`. A constant image
    /// maps to all zeros.
    pub fn normalized_to_255(&self) -> Image {
        let lo = self.min();
        let hi = self.max();
        if hi <= lo {
            return Image::new(self.width, self.height);
        }
        let scale = 255.0 / (hi - lo);
        self.map(|v| (v - lo) * scale)
    }

    /// Extracts the `w × h` sub-image with top-left corner `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Image {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop window out of bounds"
        );
        Image::from_fn(w, h, |x, y| self.get(x0 + x, y0 + y))
    }

    /// Samples the image at a fractional position with bilinear
    /// interpolation, clamping to the border.
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let ix = x0 as isize;
        let iy = y0 as isize;
        let p00 = self.get_clamped(ix, iy);
        let p10 = self.get_clamped(ix + 1, iy);
        let p01 = self.get_clamped(ix, iy + 1);
        let p11 = self.get_clamped(ix + 1, iy + 1);
        let top = p00 + fx * (p10 - p00);
        let bot = p01 + fx * (p11 - p01);
        top + fy * (bot - top)
    }

    /// Resizes to `new_w × new_h` with bilinear interpolation (the paper's
    /// "Interpolation" kernel; SIFT uses it to build its anti-aliased
    /// upsampled base image).
    ///
    /// Every output pixel is [`Image::sample_bilinear`] at its pixel
    /// center, bit for bit. An output column reads the same two clamped
    /// source columns with the same weight on every row, and an output row
    /// the same two source rows, so both are tabulated once and each row
    /// is a pass over two source row slices.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero while the source is
    /// non-empty.
    pub fn resize_bilinear(&self, new_w: usize, new_h: usize) -> Image {
        if self.is_empty() {
            return Image::new(0, 0);
        }
        assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
        let cols = bilinear_taps(new_w, self.width);
        let rows = bilinear_taps(new_h, self.height);
        let mut data = Vec::with_capacity(new_w * new_h);
        for &(y0, y1, fy) in &rows {
            let (r0, r1) = (self.row(y0), self.row(y1));
            data.extend(cols.iter().map(|&(x0, x1, fx)| {
                let top = r0[x0] + fx * (r0[x1] - r0[x0]);
                let bot = r1[x0] + fx * (r1[x1] - r1[x0]);
                top + fy * (bot - top)
            }));
        }
        Image {
            width: new_w,
            height: new_h,
            data,
        }
    }

    /// Halves both dimensions by averaging 2×2 blocks (simple decimation
    /// used by pyramid construction; odd trailing rows/columns are dropped).
    pub fn downsample_2x(&self) -> Image {
        let w = self.width / 2;
        let h = self.height / 2;
        let mut data = Vec::with_capacity(w * h);
        for y in 0..h {
            let (top, bot) = (self.row(2 * y), self.row(2 * y + 1));
            data.extend(
                top.chunks_exact(2)
                    .zip(bot.chunks_exact(2))
                    .map(|(t, b)| (t[0] + t[1] + b[0] + b[1]) * 0.25),
            );
        }
        Image {
            width: w,
            height: h,
            data,
        }
    }

    /// Rotates the image 90° clockwise (lossless; width and height swap).
    pub fn rotate90_cw(&self) -> Image {
        Image::from_fn(self.height, self.width, |x, y| {
            self.get(y, self.height - 1 - x)
        })
    }

    /// Mirrors the image left-right.
    pub fn flip_horizontal(&self) -> Image {
        Image::from_fn(self.width, self.height, |x, y| {
            self.get(self.width - 1 - x, y)
        })
    }

    /// Mirrors the image top-bottom.
    pub fn flip_vertical(&self) -> Image {
        Image::from_fn(self.width, self.height, |x, y| {
            self.get(x, self.height - 1 - y)
        })
    }

    /// Sum of squared pixel-wise differences against `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn sum_squared_diff(&self, other: &Image) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "images must have identical dimensions"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum()
    }
}

/// The sampling taps of `n` resized samples along an axis of `len`
/// source pixels: for output index `i`, the two clamped source indices and
/// the fractional weight [`Image::sample_bilinear`] uses at the pixel
/// center `(i + 0.5)·(len / n) − 0.5`.
fn bilinear_taps(n: usize, len: usize) -> Vec<(usize, usize, f32)> {
    let scale = len as f32 / n as f32;
    let last = len as isize - 1;
    (0..n)
        .map(|i| {
            let s = (i as f32 + 0.5) * scale - 0.5;
            let s0 = s.floor();
            let i0 = s0 as isize;
            (
                i0.clamp(0, last) as usize,
                (i0 + 1).clamp(0, last) as usize,
                s - s0,
            )
        })
        .collect()
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Image {}x{} (min {:.3}, max {:.3}, mean {:.3})",
            self.width,
            self.height,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel [`Image::resize_bilinear`] the tabulated one replaced:
    /// four clamped `get`s per output pixel.
    fn reference_resize_bilinear(img: &Image, new_w: usize, new_h: usize) -> Image {
        if img.is_empty() {
            return Image::new(0, 0);
        }
        let sx = img.width as f32 / new_w as f32;
        let sy = img.height as f32 / new_h as f32;
        Image::from_fn(new_w, new_h, |x, y| {
            let src_x = (x as f32 + 0.5) * sx - 0.5;
            let src_y = (y as f32 + 0.5) * sy - 0.5;
            img.sample_bilinear(src_x, src_y)
        })
    }

    /// The per-pixel [`Image::downsample_2x`] the row-slice one replaced.
    fn reference_downsample_2x(img: &Image) -> Image {
        Image::from_fn(img.width / 2, img.height / 2, |x, y| {
            let a = img.get(2 * x, 2 * y);
            let b = img.get(2 * x + 1, 2 * y);
            let c = img.get(2 * x, 2 * y + 1);
            let d = img.get(2 * x + 1, 2 * y + 1);
            (a + b + c + d) * 0.25
        })
    }

    /// A deterministic image of signed, non-round pixel values.
    fn hashed(w: usize, h: usize, seed: u64) -> Image {
        Image::from_fn(w, h, |x, y| {
            let mut v = seed
                ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
            v ^= v >> 33;
            v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
            v ^= v >> 33;
            (v & 0xffff) as f32 / 97.0 - 300.0
        })
    }

    fn bits(img: &Image) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn resize_matches_the_per_pixel_oracle_bit_for_bit() {
        // SIFT's 2x upscale at the three sizes, the stream tier's
        // downscales (CIF -> QCIF, 704x576 -> 176x144), non-integer ratios
        // both ways, and 1-pixel sides on either end.
        let cases = [
            ((128, 96), (256, 192)),
            ((176, 144), (352, 288)),
            ((352, 288), (704, 576)),
            ((352, 288), (176, 144)),
            ((704, 576), (176, 144)),
            ((97, 61), (41, 113)),
            ((33, 20), (50, 7)),
            ((10, 10), (3, 17)),
            ((1, 1), (5, 4)),
            ((1, 9), (4, 2)),
            ((9, 1), (1, 1)),
            ((6, 5), (1, 7)),
            ((6, 5), (6, 5)),
        ];
        for (i, ((w, h), (nw, nh))) in cases.into_iter().enumerate() {
            let img = hashed(w, h, i as u64 + 3);
            let got = img.resize_bilinear(nw, nh);
            let want = reference_resize_bilinear(&img, nw, nh);
            assert_eq!((got.width(), got.height()), (nw, nh));
            assert!(bits(&got) == bits(&want), "{w}x{h} -> {nw}x{nh}");
        }
        assert_eq!(Image::new(0, 3).resize_bilinear(4, 4), Image::new(0, 0));
    }

    #[test]
    fn downsample_matches_the_per_pixel_oracle_bit_for_bit() {
        for (i, (w, h)) in [
            (704, 576),
            (352, 288),
            (97, 61),
            (2, 2),
            (3, 3),
            (1, 8),
            (8, 1),
            (0, 4),
        ]
        .into_iter()
        .enumerate()
        {
            let img = hashed(w, h, i as u64 + 11);
            let got = img.downsample_2x();
            let want = reference_downsample_2x(&img);
            assert_eq!((got.width(), got.height()), (w / 2, h / 2));
            assert!(bits(&got) == bits(&want), "{w}x{h}");
        }
    }

    #[test]
    fn all_finite_finds_a_non_finite_pixel_anywhere() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let img = Image::from_fn(len, 1, |x, _| x as f32 - 7.5);
            assert!(img.all_finite(), "len {len}");
            for at in [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|&i| i < len)
            {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut poisoned = img.clone();
                    poisoned.set(at, 0, bad);
                    assert!(!poisoned.all_finite(), "len {len} at {at} value {bad}");
                }
            }
        }
        assert!(Image::filled(3, 2, f32::MAX).all_finite());
    }

    #[test]
    fn zip_map_pairs_same_position_pixels() {
        let a = Image::from_fn(3, 2, |x, y| (x + 3 * y) as f32);
        let b = Image::from_fn(3, 2, |x, _| x as f32 * 10.0);
        let d = a.zip_map(&b, |p, q| q - p);
        assert_eq!(d.as_slice(), &[0.0, 9.0, 18.0, -3.0, 6.0, 15.0]);
    }

    #[test]
    fn new_is_zeroed() {
        let img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert!(img.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(5, 5);
        img.set(3, 2, 9.5);
        assert_eq!(img.get(3, 2), 9.5);
        assert_eq!(img.get(2, 3), 0.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Image::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(Image::from_vec(2, 2, vec![0.0; 5]).is_err());
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = Image::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        assert_eq!(img.get_clamped(-5, -5), 0.0);
        assert_eq!(img.get_clamped(10, 10), 8.0);
        assert_eq!(img.get_clamped(-1, 1), 3.0);
    }

    #[test]
    fn stats_are_correct() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.min(), 0.0);
        assert_eq!(img.max(), 3.0);
        assert_eq!(img.mean(), 1.5);
    }

    #[test]
    fn normalization_spans_full_range() {
        let img = Image::from_fn(2, 2, |x, _| 10.0 + x as f32);
        let n = img.normalized_to_255();
        assert_eq!(n.min(), 0.0);
        assert_eq!(n.max(), 255.0);
        // Constant image normalizes to zeros, not NaN.
        let c = Image::filled(2, 2, 5.0);
        assert!(c.normalized_to_255().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn crop_extracts_window() {
        let img = Image::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.get(0, 0), 9.0);
        assert_eq!(c.get(1, 1), 14.0);
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let img = Image::from_fn(2, 2, |x, y| (x + 2 * y) as f32); // 0 1 / 2 3
        assert_eq!(img.sample_bilinear(0.5, 0.0), 0.5);
        assert_eq!(img.sample_bilinear(0.0, 0.5), 1.0);
        assert_eq!(img.sample_bilinear(0.5, 0.5), 1.5);
        // Exact grid points are exact.
        assert_eq!(img.sample_bilinear(1.0, 1.0), 3.0);
    }

    #[test]
    fn resize_preserves_constant_images() {
        let img = Image::filled(5, 7, 3.25);
        let r = img.resize_bilinear(13, 3);
        assert!(r.as_slice().iter().all(|&v| (v - 3.25).abs() < 1e-6));
    }

    #[test]
    fn resize_identity_is_lossless() {
        let img = Image::from_fn(6, 5, |x, y| (x * y) as f32);
        let r = img.resize_bilinear(6, 5);
        for y in 0..5 {
            for x in 0..6 {
                assert!((r.get(x, y) - img.get(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn downsample_averages_blocks() {
        let img = Image::from_fn(4, 2, |x, _| x as f32);
        let d = img.downsample_2x();
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), 0.5);
        assert_eq!(d.get(1, 0), 2.5);
    }

    #[test]
    fn ssd_of_identical_images_is_zero() {
        let img = Image::from_fn(3, 3, |x, y| (x * y) as f32);
        assert_eq!(img.sum_squared_diff(&img), 0.0);
        let other = img.map(|v| v + 1.0);
        assert!((img.sum_squared_diff(&other) - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Image::new(2, 2).get(2, 0);
    }

    #[test]
    fn rotate90_four_times_is_identity() {
        let img = Image::from_fn(5, 3, |x, y| (y * 5 + x) as f32);
        let r = img.rotate90_cw();
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 5);
        // Top-left of the original ends up at top-right.
        assert_eq!(r.get(2, 0), img.get(0, 0));
        let full = img.rotate90_cw().rotate90_cw().rotate90_cw().rotate90_cw();
        assert_eq!(full, img);
    }

    #[test]
    fn flips_are_involutions() {
        let img = Image::from_fn(4, 3, |x, y| (x * 7 + y) as f32);
        assert_eq!(img.flip_horizontal().flip_horizontal(), img);
        assert_eq!(img.flip_vertical().flip_vertical(), img);
        assert_eq!(img.flip_horizontal().get(0, 0), img.get(3, 0));
        assert_eq!(img.flip_vertical().get(0, 0), img.get(0, 2));
    }

    #[test]
    fn debug_mentions_dimensions() {
        let img = Image::new(3, 4);
        assert!(format!("{img:?}").contains("3x4"));
    }

    #[test]
    fn from_rows_with_matches_from_fn_for_every_policy() {
        use sdvbs_exec::ExecPolicy;
        let f = |x: usize, y: usize| (x as f32 * 0.91 - y as f32 * 0.27).cos();
        let serial = Image::from_fn(41, 23, f);
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Threads(1),
            ExecPolicy::Threads(3),
            ExecPolicy::Threads(64),
            ExecPolicy::Auto,
        ] {
            let rows = Image::from_rows_with(41, 23, policy, |y, row| {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = f(x, y);
                }
            });
            assert_eq!(rows, serial, "{policy:?}");
        }
        // Degenerate shapes don't hang or panic.
        assert_eq!(
            Image::from_rows_with(0, 5, ExecPolicy::Threads(4), |_, _| {}),
            Image::new(0, 5)
        );
        assert_eq!(
            Image::from_rows_with(7, 0, ExecPolicy::Threads(4), |_, _| {}),
            Image::new(7, 0)
        );
    }

    #[test]
    fn from_fn_with_matches_from_fn_for_every_policy() {
        use sdvbs_exec::ExecPolicy;
        let f = |x: usize, y: usize| (x as f32 * 0.37 + y as f32 * 1.13).sin();
        let serial = Image::from_fn(53, 29, f);
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Threads(1),
            ExecPolicy::Threads(2),
            ExecPolicy::Threads(4),
            ExecPolicy::Threads(64),
            ExecPolicy::Auto,
        ] {
            let par = Image::from_fn_with(53, 29, policy, f);
            assert_eq!(par, serial, "{policy:?}");
        }
        // Degenerate shapes don't hang or panic.
        assert_eq!(
            Image::from_fn_with(0, 5, ExecPolicy::Threads(4), f),
            Image::new(0, 5)
        );
        assert_eq!(
            Image::from_fn_with(7, 0, ExecPolicy::Threads(4), f),
            Image::new(7, 0)
        );
    }
}
