//! The shared computer-vision kernels of SD-VBS.
//!
//! Figure 1 of the paper decomposes the nine benchmarks into "over 28
//! non-trivial computationally intensive kernels", several of which are
//! shared between applications (integral image appears in disparity,
//! tracking and SIFT; convolution/Gaussian filtering in nearly everything).
//! This crate hosts those shared kernels; benchmark-specific kernels live
//! with their benchmark crate.
//!
//! * [`conv`] — 1-D/2-D convolution, Gaussian kernels and blurring.
//! * [`gradient`] — derivative filters and gradient magnitude.
//! * [`integral`] — integral images (plain and squared) and O(1) window
//!   sums ("Integral Image" / "Area Sum" kernels).
//! * [`features`] — Harris and KLT min-eigenvalue corner responses, local
//!   maxima and top-k selection ("Sort" kernel), ANMS.
//! * [`pyramid`] — Gaussian image pyramids.
//! * [`reference`](mod@reference) — retained naive scalar implementations,
//!   the bit-identity oracle for the vectorized fast paths above.
//!
//! # Examples
//!
//! ```
//! use sdvbs_image::Image;
//! use sdvbs_kernels::conv::gaussian_blur;
//!
//! let img = Image::from_fn(32, 32, |x, y| ((x ^ y) & 1) as f32 * 255.0);
//! let smooth = gaussian_blur(&img, 1.2);
//! assert!(smooth.max() < img.max()); // high-frequency checkerboard is attenuated
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod features;
pub mod gradient;
pub mod integral;
pub mod pyramid;
pub mod reference;
