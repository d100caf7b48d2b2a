//! Multi-octave value noise: the textural backbone of every synthetic
//! scene.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdvbs_image::Image;
use std::ops::Range;

/// Grid index and smoothstep weight of pixel coordinate `p` in an octave
/// of `cell`-pixel cells. Smoothstep gives C1 continuity, so gradients are
/// non-degenerate.
fn grid_coord(p: usize, cell: usize) -> (usize, f32) {
    let f = p as f32 / cell as f32;
    let i = f as usize;
    let t = f - i as f32;
    (i, t * t * (3.0 - 2.0 * t))
}

/// Adds `amplitude` times one octave of value noise to the row-major
/// `w × h` buffer `out`: a coarse grid of random values, bilinearly
/// interpolated.
///
/// The horizontal weights are computed once per column, and the columns
/// are grouped into runs that share a grid cell, so the inner loop over a
/// run sees its four grid values as constants. Every pixel still takes the
/// same sequence of `f32` operations as a per-pixel evaluation.
fn add_octave(out: &mut [f32], w: usize, h: usize, cell: usize, amplitude: f32, rng: &mut StdRng) {
    let gw = w / cell + 2;
    let gh = h / cell + 2;
    let grid: Vec<f32> = (0..gw * gh).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut weights = Vec::with_capacity(w);
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    for x in 0..w {
        let (x0, sx) = grid_coord(x, cell);
        weights.push(sx);
        match runs.last_mut() {
            Some((last, cols)) if *last == x0 => cols.end = x + 1,
            _ => runs.push((x0, x..x + 1)),
        }
    }
    for y in 0..h {
        let (y0, sy) = grid_coord(y, cell);
        let g0 = &grid[y0 * gw..(y0 + 1) * gw];
        let g1 = &grid[(y0 + 1) * gw..(y0 + 2) * gw];
        let row = &mut out[y * w..(y + 1) * w];
        for (x0, cols) in &runs {
            let (a, b) = (g0[*x0], g1[*x0]);
            let (da, db) = (g0[x0 + 1] - a, g1[x0 + 1] - b);
            for (o, &sx) in row[cols.clone()].iter_mut().zip(&weights[cols.clone()]) {
                let top = a + sx * da;
                let bot = b + sx * db;
                *o += amplitude * (top + sy * (bot - top));
            }
        }
    }
}

/// Multi-octave value noise in `0.0..=1.0`, deterministic in `seed`.
///
/// `base_cell` controls the coarsest feature size; each additional octave
/// halves the cell and the amplitude.
///
/// # Panics
///
/// Panics if `octaves` is zero or `base_cell` is smaller than 2.
pub fn value_noise(w: usize, h: usize, seed: u64, base_cell: usize, octaves: usize) -> Image {
    assert!(octaves > 0, "need at least one octave");
    assert!(base_cell >= 2, "base cell must be at least 2 pixels");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Image::new(w, h);
    let mut amplitude = 1.0f32;
    let mut cell = base_cell;
    let mut total = 0.0f32;
    for _ in 0..octaves {
        add_octave(out.as_mut_slice(), w, h, cell, amplitude, &mut rng);
        total += amplitude;
        amplitude *= 0.5;
        cell = (cell / 2).max(2);
    }
    for v in out.as_mut_slice() {
        *v /= total;
    }
    out
}

/// A richly textured grayscale image in `0.0..=255.0` — the generic input
/// for kernels that only need "an image" (dense texture ensures corners and
/// gradients everywhere, which the feature-based benchmarks require).
pub fn textured_image(w: usize, h: usize, seed: u64) -> Image {
    let noise = value_noise(w, h, seed, (w / 8).max(4), 4);
    noise.map(|v| v * 255.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel implementation `value_noise` replaced: one `Image`
    /// per octave built through `Image::from_fn`. The bit-identity oracle
    /// for the row-structured loop.
    fn reference_value_noise(
        w: usize,
        h: usize,
        seed: u64,
        base_cell: usize,
        octaves: usize,
    ) -> Image {
        fn noise_octave(w: usize, h: usize, cell: usize, rng: &mut StdRng) -> Image {
            let gw = w / cell + 2;
            let gh = h / cell + 2;
            let grid: Vec<f32> = (0..gw * gh).map(|_| rng.gen_range(0.0..1.0)).collect();
            Image::from_fn(w, h, |x, y| {
                let fx = x as f32 / cell as f32;
                let fy = y as f32 / cell as f32;
                let x0 = fx as usize;
                let y0 = fy as usize;
                let tx = fx - x0 as f32;
                let ty = fy - y0 as f32;
                let sx = tx * tx * (3.0 - 2.0 * tx);
                let sy = ty * ty * (3.0 - 2.0 * ty);
                let g = |i: usize, j: usize| grid[j * gw + i];
                let top = g(x0, y0) + sx * (g(x0 + 1, y0) - g(x0, y0));
                let bot = g(x0, y0 + 1) + sx * (g(x0 + 1, y0 + 1) - g(x0, y0 + 1));
                top + sy * (bot - top)
            })
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Image::new(w, h);
        let mut amplitude = 1.0f32;
        let mut cell = base_cell;
        let mut total = 0.0f32;
        for _ in 0..octaves {
            let oct = noise_octave(w, h, cell.max(2), &mut rng);
            for (o, v) in out.as_mut_slice().iter_mut().zip(oct.as_slice()) {
                *o += amplitude * v;
            }
            total += amplitude;
            amplitude *= 0.5;
            cell = (cell / 2).max(2);
        }
        out.map(|v| v / total)
    }

    #[test]
    fn bit_identical_to_the_per_pixel_reference() {
        // 1x1 and 7x5 are smaller than most cells; SQCIF and QCIF are the
        // served sizes; 369x288 and 776x712 are odd widths past CIF.
        let sizes = [
            (1, 1),
            (7, 5),
            (48, 36),
            (128, 96),
            (176, 144),
            (369, 288),
            (776, 712),
        ];
        let cells = (2..=16).chain([20, 24, 32, 40, 48, 64, 80, 96]);
        let mut cases = 0;
        for (i, cell) in cells.enumerate() {
            for &(w, h) in &sizes {
                for octaves in 1..=4 {
                    let seed = (i * 31 + w + octaves) as u64;
                    let got = value_noise(w, h, seed, cell, octaves);
                    let want = reference_value_noise(w, h, seed, cell, octaves);
                    let bits = |img: &Image| -> Vec<u32> {
                        img.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{w}x{h} cell {cell} octaves {octaves} seed {seed}"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 23 * 7 * 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = textured_image(64, 48, 42);
        let b = textured_image(64, 48, 42);
        assert_eq!(a, b);
        let c = textured_image(64, 48, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn values_in_range() {
        let img = value_noise(50, 40, 1, 8, 3);
        assert!(img.min() >= 0.0);
        assert!(img.max() <= 1.0);
    }

    #[test]
    fn texture_has_contrast() {
        let img = textured_image(128, 96, 5);
        assert!(img.max() - img.min() > 60.0, "texture too flat: {img:?}");
    }

    #[test]
    fn texture_is_not_banded_rows() {
        // Neighboring rows must differ (2-D structure, not 1-D stripes).
        let img = textured_image(64, 64, 9);
        let mut row_diffs = 0.0f32;
        for y in 0..63 {
            for x in 0..64 {
                row_diffs += (img.get(x, y + 1) - img.get(x, y)).abs();
            }
        }
        assert!(row_diffs > 100.0);
    }

    #[test]
    #[should_panic(expected = "octave")]
    fn zero_octaves_panics() {
        value_noise(8, 8, 0, 4, 0);
    }
}
