//! Gaussian scale space and difference-of-Gaussian pyramid.

use sdvbs_image::Image;
use sdvbs_kernels::conv::gaussian_blur;

/// The blur that brings a base image (assumed to carry 0.5 pixels of
/// native blur) to `sigma0`.
pub(crate) fn initial_blur(sigma0: f32) -> f32 {
    (sigma0 * sigma0 - 0.25).max(0.01).sqrt()
}

/// The blurs between consecutive levels of an octave: level `i` has sigma
/// `sigma0·kⁱ` with `k = 2^(1/intervals)`, and the `intervals + 2` levels
/// above the first are each reached by blurring the one below by
/// `sqrt(σ_next² − σ²)`.
pub(crate) fn level_increments(intervals: usize, sigma0: f32) -> impl Iterator<Item = f32> {
    let k = 2.0f32.powf(1.0 / intervals as f32);
    (1..intervals.saturating_add(3)).scan(sigma0, move |sigma, _| {
        let next_sigma = *sigma * k;
        let inc = (next_sigma * next_sigma - *sigma * *sigma).sqrt();
        *sigma = next_sigma;
        Some(inc)
    })
}

/// The Gaussian scale space and its DoG pyramid.
///
/// Octave `o` holds `intervals + 3` progressively blurred images at half
/// the resolution of octave `o − 1`; the DoG pyramid holds the
/// `intervals + 2` adjacent differences per octave.
#[derive(Debug, Clone)]
pub struct ScaleSpace {
    octaves: Vec<Vec<Image>>,
    dogs: Vec<Vec<Image>>,
    intervals: usize,
    sigma0: f32,
}

impl ScaleSpace {
    /// Builds the scale space from a base image (assumed to already carry
    /// ~0.5 pixels of blur from sampling).
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0`, `sigma0 <= 0`, `max_octaves == 0`, or
    /// the base image is smaller than 16×16.
    pub fn build(base: &Image, intervals: usize, sigma0: f32, max_octaves: usize) -> Self {
        assert!(
            intervals > 0 && sigma0 > 0.0 && max_octaves > 0,
            "invalid scale-space params"
        );
        assert!(
            base.width() >= 16 && base.height() >= 16,
            "base image too small"
        );
        let increments: Vec<f32> = level_increments(intervals, sigma0).collect();
        let mut current = gaussian_blur(base, initial_blur(sigma0));
        let mut octaves = Vec::new();
        let mut dogs = Vec::new();
        for _o in 0..max_octaves {
            if current.width() < 16 || current.height() < 16 {
                break;
            }
            let mut levels = vec![current];
            for &inc in &increments {
                let blurred = gaussian_blur(levels.last().expect("non-empty"), inc);
                levels.push(blurred);
            }
            let dog: Vec<Image> = levels
                .windows(2)
                .map(|pair| pair[1].zip_map(&pair[0], |hi, lo| hi - lo))
                .collect();
            // Next octave starts from the level with 2x the base sigma.
            current = levels[intervals].downsample_2x();
            octaves.push(levels);
            dogs.push(dog);
        }
        ScaleSpace {
            octaves,
            dogs,
            intervals,
            sigma0,
        }
    }

    /// Number of octaves built.
    pub fn octaves(&self) -> usize {
        self.octaves.len()
    }

    /// Scales per octave (`intervals`).
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Blurred image at `(octave, level)`; `level < intervals + 3`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn gaussian(&self, octave: usize, level: usize) -> &Image {
        &self.octaves[octave][level]
    }

    /// DoG image at `(octave, level)`; `level < intervals + 2`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn dog(&self, octave: usize, level: usize) -> &Image {
        &self.dogs[octave][level]
    }

    /// Absolute smoothing sigma of `(octave, level)` in *base image*
    /// pixels.
    pub fn sigma_at(&self, octave: usize, level: f32) -> f32 {
        self.sigma0 * 2.0f32.powf(octave as f32 + level / self.intervals as f32)
    }

    /// Scale factor from octave coordinates back to base coordinates.
    pub fn octave_scale(&self, octave: usize) -> f32 {
        (1 << octave) as f32
    }
}

/// The per-pixel scale-space build the row-slice one replaced, as the
/// oracle of the whole pipeline: naive clamped-tap blurs
/// (`sdvbs_kernels::reference`), a per-pixel `get` difference per DoG
/// level, a cloned base level and a per-pixel 2×2 decimation.
#[cfg(test)]
pub(crate) mod reference {
    use super::ScaleSpace;
    use sdvbs_image::Image;
    use sdvbs_kernels::conv::gaussian_kernel;
    use sdvbs_kernels::reference::{convolve_cols, convolve_rows};

    fn gaussian_blur(img: &Image, sigma: f32) -> Image {
        let k = gaussian_kernel(sigma);
        convolve_cols(&convolve_rows(img, &k), &k)
    }

    /// The per-pixel DoG level `hi − lo`.
    pub(crate) fn dog(hi: &Image, lo: &Image) -> Image {
        Image::from_fn(lo.width(), lo.height(), |x, y| hi.get(x, y) - lo.get(x, y))
    }

    fn downsample_2x(img: &Image) -> Image {
        Image::from_fn(img.width() / 2, img.height() / 2, |x, y| {
            let a = img.get(2 * x, 2 * y);
            let b = img.get(2 * x + 1, 2 * y);
            let c = img.get(2 * x, 2 * y + 1);
            let d = img.get(2 * x + 1, 2 * y + 1);
            (a + b + c + d) * 0.25
        })
    }

    /// [`ScaleSpace::build`] as it was written before the row-slice loops.
    pub(crate) fn build(
        base: &Image,
        intervals: usize,
        sigma0: f32,
        max_octaves: usize,
    ) -> ScaleSpace {
        let s = intervals as f32;
        let k = 2.0f32.powf(1.0 / s);
        let initial = (sigma0 * sigma0 - 0.25).max(0.01).sqrt();
        let mut current = gaussian_blur(base, initial);
        let mut octaves = Vec::new();
        let mut dogs = Vec::new();
        for _o in 0..max_octaves {
            if current.width() < 16 || current.height() < 16 {
                break;
            }
            let mut levels = vec![current.clone()];
            let mut sigma = sigma0;
            for _i in 1..(intervals + 3) {
                let next_sigma = sigma * k;
                let inc = (next_sigma * next_sigma - sigma * sigma).sqrt();
                let blurred = gaussian_blur(levels.last().expect("non-empty"), inc);
                levels.push(blurred);
                sigma = next_sigma;
            }
            let dog: Vec<Image> = levels.windows(2).map(|p| dog(&p[1], &p[0])).collect();
            current = downsample_2x(&levels[intervals]);
            octaves.push(levels);
            dogs.push(dog);
        }
        ScaleSpace {
            octaves,
            dogs,
            intervals,
            sigma0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(img: &Image) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dog_levels_match_the_per_pixel_difference() {
        let ss = ScaleSpace::build(&base(), 3, 1.6, 3);
        for o in 0..ss.octaves() {
            for l in 0..ss.intervals() + 2 {
                let want = reference::dog(ss.gaussian(o, l + 1), ss.gaussian(o, l));
                assert!(bits(ss.dog(o, l)) == bits(&want), "octave {o} level {l}");
            }
        }
    }

    #[test]
    fn build_matches_the_per_pixel_oracle_bit_for_bit() {
        for (w, h) in [(64, 64), (97, 61), (40, 23)] {
            let img = Image::from_fn(w, h, |x, y| ((x * 13 + y * 7) % 61) as f32 / 61.0);
            let got = ScaleSpace::build(&img, 3, 1.6, 4);
            let want = reference::build(&img, 3, 1.6, 4);
            assert_eq!(got.octaves(), want.octaves(), "{w}x{h}");
            for o in 0..got.octaves() {
                for l in 0..got.intervals() + 3 {
                    assert!(bits(got.gaussian(o, l)) == bits(want.gaussian(o, l)));
                }
                for l in 0..got.intervals() + 2 {
                    assert!(bits(got.dog(o, l)) == bits(want.dog(o, l)));
                }
            }
        }
    }

    fn base() -> Image {
        Image::from_fn(64, 64, |x, y| ((x * 13 + y * 7) % 61) as f32 / 61.0)
    }

    #[test]
    fn octave_structure() {
        let ss = ScaleSpace::build(&base(), 3, 1.6, 3);
        assert_eq!(ss.octaves(), 3);
        assert_eq!(ss.gaussian(0, 0).width(), 64);
        assert_eq!(ss.gaussian(1, 0).width(), 32);
        assert_eq!(ss.gaussian(2, 0).width(), 16);
        // intervals + 3 gaussians, intervals + 2 dogs.
        for o in 0..3 {
            assert_eq!(ss.dogs[o].len(), 5);
            assert_eq!(ss.octaves[o].len(), 6);
        }
    }

    #[test]
    fn sigma_doubles_per_octave() {
        let ss = ScaleSpace::build(&base(), 3, 1.6, 3);
        assert!((ss.sigma_at(0, 0.0) - 1.6).abs() < 1e-6);
        assert!((ss.sigma_at(1, 0.0) - 3.2).abs() < 1e-6);
        assert!((ss.sigma_at(0, 3.0) - 3.2).abs() < 1e-6);
    }

    #[test]
    fn dog_of_constant_image_is_zero() {
        let ss = ScaleSpace::build(&Image::filled(32, 32, 0.7), 3, 1.6, 2);
        for o in 0..ss.octaves() {
            for l in 0..5 {
                assert!(ss.dog(o, l).as_slice().iter().all(|v| v.abs() < 1e-4));
            }
        }
    }

    #[test]
    fn blur_monotonically_reduces_detail() {
        let ss = ScaleSpace::build(&base(), 3, 1.6, 1);
        let var = |im: &Image| {
            let m = im.mean();
            im.as_slice()
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>()
                / im.len() as f32
        };
        let mut last = f32::INFINITY;
        for l in 0..6 {
            let v = var(ss.gaussian(0, l));
            assert!(v <= last + 1e-6, "variance increased at level {l}");
            last = v;
        }
    }

    #[test]
    fn stops_when_too_small() {
        let tiny = Image::filled(20, 20, 0.5);
        let ss = ScaleSpace::build(&tiny, 3, 1.6, 8);
        assert!(ss.octaves() <= 2);
    }
}
