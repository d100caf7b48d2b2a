//! Derivative filters — the "Gradient" kernel of feature tracking, SIFT and
//! stitch preprocessing.
//!
//! All gradient operators are separable 3-tap passes routed through the
//! row/column convolutions in [`crate::conv`], so they take the same
//! vectorized interior path + replicate-border split (and stay
//! bit-identical to the scalar reference) without any code of their own.

use crate::conv::{convolve_cols, convolve_rows, convolve_separable_with};
use sdvbs_exec::ExecPolicy;
use sdvbs_image::Image;

/// Horizontal derivative via the central-difference kernel `[-1/2, 0, 1/2]`
/// smoothed vertically with `[1/4, 1/2, 1/4]` (a 3×3 Scharr-lite operator;
/// the same separable structure the SD-VBS tracker uses).
pub fn gradient_x(img: &Image) -> Image {
    gradient_x_with(img, ExecPolicy::Serial)
}

/// [`gradient_x`] under an execution policy. Bit-identical to the serial
/// result for any policy.
pub fn gradient_x_with(img: &Image, policy: ExecPolicy) -> Image {
    convolve_separable_with(img, &[-0.5, 0.0, 0.5], &[0.25, 0.5, 0.25], policy)
}

/// Vertical derivative (transpose of [`gradient_x`]).
pub fn gradient_y(img: &Image) -> Image {
    gradient_y_with(img, ExecPolicy::Serial)
}

/// [`gradient_y`] under an execution policy. Bit-identical to the serial
/// result for any policy.
pub fn gradient_y_with(img: &Image, policy: ExecPolicy) -> Image {
    convolve_separable_with(img, &[0.25, 0.5, 0.25], &[-0.5, 0.0, 0.5], policy)
}

/// Plain central differences without smoothing (used where the caller has
/// already blurred, e.g. inside the Gaussian scale space of SIFT).
pub fn central_diff_x(img: &Image) -> Image {
    convolve_rows(img, &[-0.5, 0.0, 0.5])
}

/// Plain vertical central differences.
pub fn central_diff_y(img: &Image) -> Image {
    convolve_cols(img, &[-0.5, 0.0, 0.5])
}

/// Gradient magnitude `sqrt(gx² + gy²)` from precomputed derivative images.
///
/// # Panics
///
/// Panics if the two images differ in size.
pub fn magnitude(gx: &Image, gy: &Image) -> Image {
    assert_eq!(
        (gx.width(), gx.height()),
        (gy.width(), gy.height()),
        "gradient images must match in size"
    );
    Image::from_fn(gx.width(), gx.height(), |x, y| {
        let a = gx.get(x, y);
        let b = gy.get(x, y);
        (a * a + b * b).sqrt()
    })
}

/// Gradient orientation `atan2(gy, gx)` in radians (`-π..=π`).
///
/// # Panics
///
/// Panics if the two images differ in size.
pub fn orientation(gx: &Image, gy: &Image) -> Image {
    assert_eq!(
        (gx.width(), gx.height()),
        (gy.width(), gy.height()),
        "gradient images must match in size"
    );
    Image::from_fn(gx.width(), gx.height(), |x, y| {
        gy.get(x, y).atan2(gx.get(x, y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_ramp_has_unit_x_gradient() {
        let img = Image::from_fn(10, 10, |x, _| x as f32);
        let gx = gradient_x(&img);
        let gy = gradient_y(&img);
        // Interior pixels: d/dx = 1, d/dy = 0.
        for y in 1..9 {
            for x in 1..9 {
                assert!((gx.get(x, y) - 1.0).abs() < 1e-5);
                assert!(gy.get(x, y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn vertical_ramp_has_unit_y_gradient() {
        let img = Image::from_fn(10, 10, |_, y| 2.0 * y as f32);
        let gy = gradient_y(&img);
        for y in 1..9 {
            for x in 1..9 {
                assert!((gy.get(x, y) - 2.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn magnitude_of_diagonal_ramp() {
        let img = Image::from_fn(12, 12, |x, y| (x + y) as f32);
        let m = magnitude(&gradient_x(&img), &gradient_y(&img));
        let expected = (2.0f32).sqrt();
        for y in 2..10 {
            for x in 2..10 {
                assert!((m.get(x, y) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn orientation_of_axis_ramps() {
        let imgx = Image::from_fn(8, 8, |x, _| x as f32);
        let o = orientation(&gradient_x(&imgx), &gradient_y(&imgx));
        assert!(o.get(4, 4).abs() < 1e-4); // gradient points along +x

        let imgy = Image::from_fn(8, 8, |_, y| y as f32);
        let o = orientation(&gradient_x(&imgy), &gradient_y(&imgy));
        assert!((o.get(4, 4) - std::f32::consts::FRAC_PI_2).abs() < 1e-4);
    }

    #[test]
    fn central_diff_matches_gradient_on_linear_images() {
        let img = Image::from_fn(8, 8, |x, y| (3 * x + 2 * y) as f32);
        let cx = central_diff_x(&img);
        let gx = gradient_x(&img);
        for y in 1..7 {
            for x in 1..7 {
                assert!((cx.get(x, y) - gx.get(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn constant_image_has_zero_gradient() {
        let img = Image::filled(6, 6, 9.0);
        assert!(gradient_x(&img).max_abs_below(1e-6));
        assert!(gradient_y(&img).max_abs_below(1e-6));
    }

    trait MaxAbs {
        fn max_abs_below(&self, tol: f32) -> bool;
    }
    impl MaxAbs for Image {
        fn max_abs_below(&self, tol: f32) -> bool {
            self.as_slice().iter().all(|v| v.abs() < tol)
        }
    }
}
