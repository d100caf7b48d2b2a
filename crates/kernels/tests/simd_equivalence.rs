//! Property-based bit-equivalence of the vectorized fast paths against the
//! retained naive scalar reference (`sdvbs_kernels::reference`).
//!
//! Where `border_equivalence.rs` sweeps a fixed exhaustive grid of shapes
//! and kernel lengths, this suite samples *random* image sizes, seeds and
//! kernel taps, and additionally runs every fast path under every
//! [`ExecPolicy`] variant — pinning the full promise: interior/border
//! split × cache blocking × row-parallel execution, all bit-identical
//! (`assert_eq!`, no tolerance) to the per-pixel clamped scalar loops.

use proptest::prelude::*;
use sdvbs_exec::ExecPolicy;
use sdvbs_image::Image;
use sdvbs_kernels::conv::{
    convolve_2d_with, convolve_cols_with, convolve_rows_with, convolve_separable_with,
};
use sdvbs_kernels::integral::area_sum_with;
use sdvbs_kernels::reference;

const POLICIES: [ExecPolicy; 5] = [
    ExecPolicy::Serial,
    ExecPolicy::Threads(1),
    ExecPolicy::Threads(3),
    ExecPolicy::Threads(64),
    ExecPolicy::Auto,
];

/// Deterministic pseudo-random image (SplitMix-style per-pixel hash) with
/// signed values.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn convolve_rows_matches_reference_under_every_policy(
        w in 1usize..80,
        h in 1usize..40,
        half in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let img = test_image(w, h, seed);
        let k = test_kernel(2 * half + 1, seed ^ 0xabcd);
        let naive = reference::convolve_rows(&img, &k);
        for policy in POLICIES {
            let fast = convolve_rows_with(&img, &k, policy);
            prop_assert_eq!(fast.as_slice(), naive.as_slice(), "{:?}", policy);
        }
    }

    #[test]
    fn convolve_cols_matches_reference_under_every_policy(
        w in 1usize..80,
        h in 1usize..40,
        half in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let img = test_image(w, h, seed);
        let k = test_kernel(2 * half + 1, seed ^ 0x1234);
        let naive = reference::convolve_cols(&img, &k);
        for policy in POLICIES {
            let fast = convolve_cols_with(&img, &k, policy);
            prop_assert_eq!(fast.as_slice(), naive.as_slice(), "{:?}", policy);
        }
    }

    #[test]
    fn convolve_separable_matches_reference_under_every_policy(
        w in 1usize..80,
        h in 1usize..40,
        half_x in 0usize..5,
        half_y in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let img = test_image(w, h, seed);
        let kx = test_kernel(2 * half_x + 1, seed ^ 0x5151);
        let ky = test_kernel(2 * half_y + 1, seed ^ 0x2323);
        let naive = reference::convolve_cols(&reference::convolve_rows(&img, &kx), &ky);
        for policy in POLICIES {
            let fast = convolve_separable_with(&img, &kx, &ky, policy);
            prop_assert_eq!(fast.as_slice(), naive.as_slice(), "{:?}", policy);
        }
    }

    #[test]
    fn convolve_2d_matches_reference_under_every_policy(
        w in 1usize..60,
        h in 1usize..30,
        half_w in 0usize..4,
        half_h in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let img = test_image(w, h, seed);
        let (kw, kh) = (2 * half_w + 1, 2 * half_h + 1);
        let k = test_kernel(kw * kh, seed ^ 0x7777);
        let naive = reference::convolve_2d(&img, &k, kw, kh);
        for policy in POLICIES {
            let fast = convolve_2d_with(&img, &k, kw, kh, policy);
            prop_assert_eq!(fast.as_slice(), naive.as_slice(), "{:?}", policy);
        }
    }

    #[test]
    fn area_sum_matches_reference_under_every_policy(
        w in 1usize..80,
        h in 1usize..40,
        radius in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let img = test_image(w, h, seed);
        let naive = reference::area_sum(&img, radius);
        for policy in POLICIES {
            let fast = area_sum_with(&img, radius, policy);
            prop_assert_eq!(fast.as_slice(), naive.as_slice(), "{:?}", policy);
        }
    }
}
