//! Exhaustive border-handling equivalence for the vectorized kernels.
//!
//! The fast paths split every stencil into an interior slice loop plus a
//! thin replicate-border path; the bug class that split invites is an
//! off-by-one at the seams. This suite pins the fast paths **bit-identical**
//! (`assert_eq!` on raw `f32`/`f64` buffers, no tolerance) against the
//! retained naive scalar implementations in `sdvbs_kernels::reference`,
//! exhaustively over:
//!
//! * every odd kernel length 1..=9 (and all 2-D width × height pairs),
//! * image sizes from 1×1 up through shapes wider/taller than any kernel,
//!   so all four edges, all four corners, *and* images with no interior at
//!   all are exercised.
//!
//! The corner responses and local maxima are checked the same way, on the
//! same shapes plus the suite's three input sizes.

use sdvbs_image::Image;
use sdvbs_kernels::conv::{convolve_2d, convolve_cols, convolve_rows, convolve_separable};
use sdvbs_kernels::features::{
    harris_response, local_maxima, min_eigenvalue_response, structure_tensor,
};
use sdvbs_kernels::integral::{area_sum, IntegralImage};
use sdvbs_kernels::reference;

/// Image shapes: degenerate (1×1, single row/column), all-border sizes
/// smaller than the widest kernel, and sizes with a genuine interior.
const SHAPES: [(usize, usize); 14] = [
    (1, 1),
    (1, 7),
    (7, 1),
    (2, 2),
    (3, 3),
    (4, 5),
    (5, 4),
    (8, 8),
    (9, 2),
    (2, 9),
    (13, 11),
    (16, 3),
    (3, 16),
    (33, 21),
];

const KLENS: [usize; 5] = [1, 3, 5, 7, 9];

/// Deterministic pseudo-random image (SplitMix-style per-pixel hash),
/// signed values so sign-handling bugs can't hide.
fn test_image(w: usize, h: usize, seed: u64) -> Image {
    Image::from_fn(w, h, |x, y| {
        let mut v = seed
            ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        v ^= v >> 33;
        v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
        v ^= v >> 33;
        (v & 0x1ff) as f32 - 255.0
    })
}

/// Deterministic kernel taps in `-1.0..1.0` (not normalized on purpose).
fn test_kernel(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut v = seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
            v ^= v >> 32;
            v = v.wrapping_mul(0xd6e8_feb8_6659_fd93);
            ((v & 0xffff) as f32 / 32768.0) - 1.0
        })
        .collect()
}

#[test]
fn convolve_rows_bit_identical_on_every_shape_and_kernel() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 11);
        for &klen in &KLENS {
            let k = test_kernel(klen, 5 + klen as u64);
            let fast = convolve_rows(&img, &k);
            let naive = reference::convolve_rows(&img, &k);
            assert_eq!(
                fast.as_slice(),
                naive.as_slice(),
                "rows {w}x{h} klen {klen}"
            );
        }
    }
}

#[test]
fn convolve_cols_bit_identical_on_every_shape_and_kernel() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 23);
        for &klen in &KLENS {
            let k = test_kernel(klen, 9 + klen as u64);
            let fast = convolve_cols(&img, &k);
            let naive = reference::convolve_cols(&img, &k);
            assert_eq!(
                fast.as_slice(),
                naive.as_slice(),
                "cols {w}x{h} klen {klen}"
            );
        }
    }
}

#[test]
fn convolve_separable_bit_identical_on_every_shape_and_kernel_pair() {
    // The fused passes against the naive row pass then column pass, with
    // row and column kernels of different lengths.
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 29);
        for &kxl in &KLENS {
            for &kyl in &KLENS {
                let kx = test_kernel(kxl, 3 + kxl as u64);
                let ky = test_kernel(kyl, 7 + kyl as u64);
                let fast = convolve_separable(&img, &kx, &ky);
                let naive = reference::convolve_cols(&reference::convolve_rows(&img, &kx), &ky);
                assert_eq!(
                    fast.as_slice(),
                    naive.as_slice(),
                    "separable {w}x{h} kernels {kxl}x{kyl}"
                );
            }
        }
    }
}

#[test]
fn convolve_2d_bit_identical_on_every_shape_and_kernel() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 37);
        for &kw in &KLENS {
            for &kh in &KLENS {
                let k = test_kernel(kw * kh, (kw * 16 + kh) as u64);
                let fast = convolve_2d(&img, &k, kw, kh);
                let naive = reference::convolve_2d(&img, &k, kw, kh);
                assert_eq!(
                    fast.as_slice(),
                    naive.as_slice(),
                    "2d {w}x{h} kernel {kw}x{kh}"
                );
            }
        }
    }
}

#[test]
fn area_sum_bit_identical_on_every_shape_and_radius() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 53);
        for radius in 0..=4usize {
            let fast = area_sum(&img, radius);
            let naive = reference::area_sum(&img, radius);
            assert_eq!(
                fast.as_slice(),
                naive.as_slice(),
                "area_sum {w}x{h} r {radius}"
            );
        }
    }
}

#[test]
fn integral_table_bit_identical_on_every_shape() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 71);
        let ii = IntegralImage::new(&img);
        let naive = reference::integral_table(&img);
        let stride = w + 1;
        for y in 0..=h {
            assert_eq!(
                ii.table_row(y),
                &naive[y * stride..(y + 1) * stride],
                "table {w}x{h} row {y}"
            );
        }
    }
}

#[test]
fn clipped_window_sums_bit_identical_to_per_pixel_sum() {
    for &(w, h) in &SHAPES {
        let img = test_image(w, h, 89);
        let ii = IntegralImage::new(&img);
        for radius in 0..=4usize {
            let mut row = vec![0.0f32; w];
            for y in 0..h {
                ii.clipped_window_sums_into(radius, y, &mut row);
                for (x, &got) in row.iter().enumerate() {
                    let x0 = x.saturating_sub(radius);
                    let y0 = y.saturating_sub(radius);
                    let x1 = (x + radius + 1).min(w);
                    let y1 = (y + radius + 1).min(h);
                    let expect = ii.sum(x0, y0, x1 - x0, y1 - y0) as f32;
                    assert_eq!(got, expect, "{w}x{h} r {radius} pixel {x},{y}");
                }
            }
        }
    }
}

fn bits(img: &Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The grid shapes plus SQCIF, QCIF and CIF.
fn response_shapes() -> impl Iterator<Item = (usize, usize)> {
    SHAPES
        .into_iter()
        .chain([(128, 96), (176, 144), (352, 288)])
}

#[test]
fn corner_responses_bit_identical_on_every_shape_and_radius() {
    for (w, h) in response_shapes() {
        let img = test_image(w, h, 97);
        for radius in [0usize, 1, 2, 4] {
            let (sxx, sxy, syy) = structure_tensor(&img, radius);
            let (rxx, rxy, ryy) = reference::structure_tensor(&img, radius);
            for (got, want, name) in [(sxx, rxx, "Ixx"), (sxy, rxy, "Ixy"), (syy, ryy, "Iyy")] {
                assert!(bits(&got) == bits(&want), "{name} {w}x{h} r {radius}");
            }
            assert!(
                bits(&harris_response(&img, radius))
                    == bits(&reference::harris_response(&img, radius)),
                "harris {w}x{h} r {radius}"
            );
            assert!(
                bits(&min_eigenvalue_response(&img, radius))
                    == bits(&reference::min_eigenvalue_response(&img, radius)),
                "min eigenvalue {w}x{h} r {radius}"
            );
        }
    }
}

#[test]
fn local_maxima_identical_on_every_shape_margin_and_threshold() {
    for (w, h) in response_shapes() {
        // Coarse values so plateaus (ties, which are not maxima) occur.
        let coarse = test_image(w, h, 101).map(|v| (v / 64.0).round());
        let response = harris_response(&test_image(w, h, 103), 2);
        for img in [&coarse, &response] {
            for margin in [0usize, 1, 2, 4] {
                for threshold in [f32::NEG_INFINITY, 0.0, img.max() * 0.05] {
                    let got = local_maxima(img, threshold, margin);
                    let want = reference::local_maxima(img, threshold, margin);
                    let key = |f: &[sdvbs_kernels::features::Feature]| {
                        f.iter()
                            .map(|p| (p.x.to_bits(), p.y.to_bits(), p.score.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert!(
                        key(&got) == key(&want),
                        "{w}x{h} margin {margin} threshold {threshold}"
                    );
                }
            }
        }
    }
    // A NaN neighbour never dominates, and a NaN centre passes the
    // threshold test, in both implementations.
    let mut nan = test_image(9, 9, 7);
    nan.set(4, 4, f32::NAN);
    nan.set(2, 2, f32::NAN);
    let got = local_maxima(&nan, 0.0, 0);
    let want = reference::local_maxima(&nan, 0.0, 0);
    assert_eq!(got.len(), want.len());
    for (g, r) in got.iter().zip(&want) {
        assert_eq!((g.x, g.y, g.score.to_bits()), (r.x, r.y, r.score.to_bits()));
    }
}
