//! Scene generators with ground truth: stereo pairs, motion sequences,
//! segmentable images, overlapping views and texture swatches.

use crate::noise::{textured_image, value_noise};
use crate::world::{MotionWorld, StereoWorld};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdvbs_image::Image;

/// A synthetic stereo pair with dense ground-truth disparity.
#[derive(Debug, Clone)]
pub struct StereoPair {
    /// Left camera image.
    pub left: Image,
    /// Right camera image (objects shifted left by their disparity).
    pub right: Image,
    /// Ground-truth disparity for each *left* pixel. Values are exact away
    /// from occlusion boundaries.
    pub truth: Image,
    /// Upper bound on the disparities present (search range hint).
    pub max_disparity: usize,
}

/// Generates a stereo pair: a textured background plane at small disparity
/// plus two textured foreground rectangles at larger disparities.
///
/// Convention: a scene point visible at `(x, y)` in the left image appears
/// at `(x − d, y)` in the right image, `d ≥ 0`.
///
/// # Panics
///
/// Panics if the image is smaller than 48×36 (the foreground layout needs
/// room).
pub fn stereo_pair(w: usize, h: usize, seed: u64) -> StereoPair {
    assert!(w >= 48 && h >= 36, "stereo scene requires at least 48x36");
    let d_bg = 2usize;
    let d_near = 10usize;
    let d_mid = 6usize;
    let max_disparity = 16;
    // Textures are generated wider than the view so right-image lookups at
    // x + d stay inside.
    let tw = w + max_disparity + 1;
    let background = textured_image(tw, h, seed);
    let tex_near = textured_image(tw, h, seed ^ 0x9e3779b97f4a7c15);
    let tex_mid = textured_image(tw, h, seed ^ 0x5851f42d4c957f2d);
    // Two foreground rectangles in the left image, scaled with the frame.
    let near_rect = (w / 6, h / 5, w / 4, h / 3); // (x0, y0, width, height)
    let mid_rect = (w / 2, h / 2, w / 3, h / 3);
    let in_rect = |r: (usize, usize, usize, usize), x: usize, y: usize| {
        x >= r.0 && x < r.0 + r.2 && y >= r.1 && y < r.1 + r.3
    };
    let left = Image::from_fn(w, h, |x, y| {
        if in_rect(near_rect, x, y) {
            tex_near.get(x, y)
        } else if in_rect(mid_rect, x, y) {
            tex_mid.get(x, y)
        } else {
            background.get(x, y)
        }
    });
    // The right image samples each layer at x + d_layer: layers closer to
    // the camera shift more.
    let right = Image::from_fn(w, h, |x, y| {
        if in_rect(near_rect, x + d_near, y) {
            tex_near.get(x + d_near, y)
        } else if in_rect(mid_rect, x + d_mid, y) {
            tex_mid.get(x + d_mid, y)
        } else {
            background.get(x + d_bg, y)
        }
    });
    let truth = Image::from_fn(w, h, |x, y| {
        if in_rect(near_rect, x, y) {
            d_near as f32
        } else if in_rect(mid_rect, x, y) {
            d_mid as f32
        } else {
            d_bg as f32
        }
    });
    StereoPair {
        left,
        right,
        truth,
        max_disparity,
    }
}

/// Generates a frame pair under a known global translation: content at
/// `(x, y)` in the first frame appears at `(x + dx, y + dy)` in the second
/// (sub-pixel motion is supported via bilinear sampling).
pub fn frame_pair(w: usize, h: usize, seed: u64, dx: f32, dy: f32) -> (Image, Image) {
    let margin = (dx.abs().max(dy.abs()).ceil() as usize) + 4;
    let big = textured_image(w + 2 * margin, h + 2 * margin, seed);
    let a = Image::from_fn(w, h, |x, y| big.get(x + margin, y + margin));
    let b = Image::from_fn(w, h, |x, y| {
        big.sample_bilinear(x as f32 + margin as f32 - dx, y as f32 + margin as f32 - dy)
    });
    (a, b)
}

/// Generates `n` frames translating with constant velocity `(vx, vy)`
/// pixels per frame (frame `i` content is frame 0 content moved by
/// `(i·vx, i·vy)`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn frame_sequence(w: usize, h: usize, seed: u64, n: usize, vx: f32, vy: f32) -> Vec<Image> {
    assert!(n > 0, "sequence needs at least one frame");
    let span = (n as f32 - 1.0).max(1.0);
    let margin = ((vx.abs().max(vy.abs()) * span).ceil() as usize) + 4;
    let big = textured_image(w + 2 * margin, h + 2 * margin, seed);
    (0..n)
        .map(|i| {
            let ox = margin as f32 - vx * i as f32;
            let oy = margin as f32 - vy * i as f32;
            Image::from_fn(w, h, |x, y| {
                big.sample_bilinear(x as f32 + ox, y as f32 + oy)
            })
        })
        .collect()
}

/// Seeded frame-to-frame camera motion: a constant velocity in pixels
/// per frame. Streaming scenarios pan or translate a camera over a
/// deterministic world; the motion is part of the scene's identity, so
/// the same `(seed, motion, frame)` triple always produces the same
/// pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraMotion {
    /// Horizontal velocity in pixels per frame (positive pans right).
    pub vx: f32,
    /// Vertical velocity in pixels per frame (positive pans down).
    pub vy: f32,
}

impl CameraMotion {
    /// A pure horizontal pan.
    pub fn pan(vx: f32) -> CameraMotion {
        CameraMotion { vx, vy: 0.0 }
    }

    /// A general translation.
    pub fn translate(vx: f32, vy: f32) -> CameraMotion {
        CameraMotion { vx, vy }
    }
}

/// Generates frame `frame` of an endless camera pan over a seeded
/// textured world. Unlike [`frame_sequence`], each frame is a pure
/// function of `(w, h, seed, motion, frame)` — frame `i` can be
/// generated without generating (or even knowing about) any other frame,
/// and regenerating it later is bit-identical. The world is sampled
/// toroidally, so consecutive frames stay photometrically consistent for
/// arbitrarily long sequences: frame `i+1` content at `(x, y)` equals
/// frame `i` content at `(x + vx, y + vy)`.
///
/// This builds the world on every call; a caller generating many frames
/// of one world builds a [`MotionWorld`] once and calls
/// [`MotionWorld::frame`], which returns the same pixels.
pub fn motion_frame(w: usize, h: usize, seed: u64, motion: CameraMotion, frame: u64) -> Image {
    MotionWorld::new(w, h, seed).frame(motion, frame)
}

/// Generates frame `frame` of a stereo camera pair translating over a
/// layered world: the textured background plane plus two foreground
/// rectangles of [`stereo_pair`], except the camera moves by `motion`
/// each frame and the world wraps toroidally. Like [`motion_frame`],
/// frame `i` is a pure function of its arguments — bit-identical on
/// regeneration, no sequence length to declare up front.
///
/// The disparity convention matches [`stereo_pair`]: a scene point at
/// `(x, y)` in the left image appears at `(x − d, y)` in the right.
///
/// This builds the world on every call; a caller generating many frames
/// of one world builds a [`StereoWorld`] once and calls
/// [`StereoWorld::frame`], which returns the same pixels.
///
/// # Panics
///
/// Panics if the image is smaller than 48×36 (the foreground layout
/// needs room).
pub fn moving_stereo_pair(
    w: usize,
    h: usize,
    seed: u64,
    motion: CameraMotion,
    frame: u64,
) -> StereoPair {
    StereoWorld::new(w, h, seed).frame(motion, frame)
}

/// A synthetic segmentation scene with ground-truth region labels.
#[derive(Debug, Clone)]
pub struct SegmentScene {
    /// The grayscale image (piecewise near-constant regions plus noise).
    pub image: Image,
    /// Ground-truth label per pixel, row-major, in `0..regions`.
    pub labels: Vec<usize>,
    /// Number of regions.
    pub regions: usize,
}

/// Generates a Voronoi-cell scene: `regions` seed sites, each cell painted
/// a distinct gray level with mild texture, so normalized cuts has a
/// correct answer to find.
///
/// # Panics
///
/// Panics if `regions` is zero or exceeds 64.
pub fn segmentable_scene(w: usize, h: usize, seed: u64, regions: usize) -> SegmentScene {
    assert!(regions > 0 && regions <= 64, "regions must be in 1..=64");
    let mut rng = StdRng::seed_from_u64(seed);
    let sites: Vec<(f32, f32)> = (0..regions)
        .map(|_| (rng.gen_range(0.0..w as f32), rng.gen_range(0.0..h as f32)))
        .collect();
    // Well-separated gray levels, shuffled deterministically.
    let mut levels: Vec<f32> = (0..regions)
        .map(|i| 30.0 + 200.0 * i as f32 / (regions.max(2) - 1) as f32)
        .collect();
    for i in (1..levels.len()).rev() {
        let j = rng.gen_range(0..=i);
        levels.swap(i, j);
    }
    let noise = value_noise(w, h, seed ^ 0xabcdef, 4, 2);
    let mut labels = vec![0usize; w * h];
    let image = Image::from_fn(w, h, |x, y| {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (i, &(sx, sy)) in sites.iter().enumerate() {
            let d = (sx - x as f32).powi(2) + (sy - y as f32).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        labels[y * w + x] = best;
        levels[best] + 6.0 * (noise.get(x, y) - 0.5)
    });
    SegmentScene {
        image,
        labels,
        regions,
    }
}

/// Two overlapping views related by a known affine transform.
#[derive(Debug, Clone)]
pub struct OverlapPair {
    /// Reference view.
    pub a: Image,
    /// Transformed view.
    pub b: Image,
    /// Ground-truth mapping from `b` coordinates to `a` coordinates:
    /// `x_a = m[0]·x_b + m[1]·y_b + m[2]`, `y_a = m[3]·x_b + m[4]·y_b + m[5]`.
    pub b_to_a: [f64; 6],
}

/// Generates a pair of overlapping views of one textured scene, related by
/// rotation `angle_rad` (about the image center of `b`) plus translation
/// `(tx, ty)` — the input for the stitch benchmark with known alignment.
pub fn overlapping_pair(
    w: usize,
    h: usize,
    seed: u64,
    angle_rad: f32,
    tx: f32,
    ty: f32,
) -> OverlapPair {
    let reach = (w + h) as f32 + tx.abs() + ty.abs();
    let margin = (reach * 0.3).ceil() as usize + 8;
    let big = textured_image(w + 2 * margin, h + 2 * margin, seed);
    let a = Image::from_fn(w, h, |x, y| big.get(x + margin, y + margin));
    let (s, c) = (angle_rad.sin(), angle_rad.cos());
    let cx = w as f32 / 2.0;
    let cy = h as f32 / 2.0;
    // Mapping from b pixel coordinates to a (and hence big-texture)
    // coordinates: rotate about b's center, then translate.
    let map = move |xb: f32, yb: f32| -> (f32, f32) {
        let dx = xb - cx;
        let dy = yb - cy;
        (c * dx - s * dy + cx + tx, s * dx + c * dy + cy + ty)
    };
    let b = Image::from_fn(w, h, |x, y| {
        let (xa, ya) = map(x as f32, y as f32);
        big.sample_bilinear(xa + margin as f32, ya + margin as f32)
    });
    let b_to_a = [
        c as f64,
        -s as f64,
        (-c * cx + s * cy + cx + tx) as f64,
        s as f64,
        c as f64,
        (-s * cx - c * cy + cy + ty) as f64,
    ];
    OverlapPair { a, b, b_to_a }
}

/// The two texture families the paper profiles texture synthesis on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextureKind {
    /// Irregular, noise-like texture ("stochastic" in the paper).
    Stochastic,
    /// Repeating structural pattern ("structural": bricks with jitter).
    Structural,
}

/// Generates a texture swatch of the requested family in `0.0..=255.0`.
pub fn texture_swatch(w: usize, h: usize, seed: u64, kind: TextureKind) -> Image {
    match kind {
        TextureKind::Stochastic => textured_image(w, h, seed),
        TextureKind::Structural => {
            let jitter = value_noise(w, h, seed, 4, 2);
            Image::from_fn(w, h, |x, y| {
                let brick_h = 8;
                let brick_w = 16;
                let row = y / brick_h;
                let xo = if row % 2 == 0 { 0 } else { brick_w / 2 };
                let in_mortar = y % brick_h == 0 || (x + xo) % brick_w == 0;
                let base = if in_mortar { 60.0 } else { 180.0 };
                base + 30.0 * (jitter.get(x, y) - 0.5)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stereo_pair_satisfies_disparity_relation() {
        let s = stereo_pair(96, 72, 3);
        // Away from occlusion boundaries: right(x - d, y) == left(x, y).
        let mut checked = 0;
        let mut exact = 0;
        for y in (0..72).step_by(5) {
            for x in (20..90).step_by(7) {
                let d = s.truth.get(x, y) as usize;
                if x >= d {
                    checked += 1;
                    if (s.right.get(x - d, y) - s.left.get(x, y)).abs() < 1e-4 {
                        exact += 1;
                    }
                }
            }
        }
        assert!(checked > 50);
        // Occlusion boundaries may break the relation for a few samples.
        assert!(exact as f64 > 0.9 * checked as f64, "{exact}/{checked}");
    }

    #[test]
    fn stereo_truth_has_three_levels() {
        let s = stereo_pair(96, 72, 1);
        let mut levels: Vec<i32> = s.truth.as_slice().iter().map(|&v| v as i32).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels, vec![2, 6, 10]);
        assert!(s.max_disparity >= 10);
    }

    #[test]
    fn frame_pair_moves_content_by_requested_offset() {
        let (a, b) = frame_pair(64, 48, 5, 3.0, -2.0);
        // a(x, y) should equal b(x + 3, y - 2).
        let mut err = 0.0f32;
        let mut n = 0;
        for y in 8..40 {
            for x in 8..56 {
                err += (a.get(x, y) - b.get(x + 3, y - 2)).abs();
                n += 1;
            }
        }
        assert!(err / (n as f32) < 0.5, "mean error {}", err / n as f32);
    }

    #[test]
    fn frame_sequence_is_consistent_with_frame_pair_motion() {
        let frames = frame_sequence(64, 48, 5, 4, 1.5, 0.5);
        assert_eq!(frames.len(), 4);
        // Frame 2 content equals frame 0 content moved by (3.0, 1.0).
        let f0 = &frames[0];
        let f2 = &frames[2];
        let mut err = 0.0f32;
        let mut n = 0;
        for y in 6..42 {
            for x in 6..58 {
                err += (f0.get(x, y) - f2.sample_bilinear(x as f32 + 3.0, y as f32 + 1.0)).abs();
                n += 1;
            }
        }
        assert!(err / (n as f32) < 1.0);
    }

    #[test]
    fn segmentable_scene_labels_match_image_levels() {
        let s = segmentable_scene(60, 40, 9, 4);
        assert_eq!(s.labels.len(), 60 * 40);
        assert_eq!(s.regions, 4);
        // All four labels present.
        let mut seen = [false; 4];
        for &l in &s.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&b| b));
        // Within a label, intensities are tight; across labels, means differ.
        let mut sums = [0.0f64; 4];
        let mut counts = [0usize; 4];
        for y in 0..40 {
            for x in 0..60 {
                let l = s.labels[y * 60 + x];
                sums[l] += s.image.get(x, y) as f64;
                counts[l] += 1;
            }
        }
        let means: Vec<f64> = (0..4).map(|i| sums[i] / counts[i] as f64).collect();
        for i in 0..4 {
            for j in 0..i {
                assert!(
                    (means[i] - means[j]).abs() > 20.0,
                    "regions {i},{j} too close"
                );
            }
        }
    }

    #[test]
    fn overlapping_pair_ground_truth_maps_b_onto_a() {
        let p = overlapping_pair(80, 60, 11, 0.05, 8.0, -3.0);
        let m = p.b_to_a;
        let mut err = 0.0f32;
        let mut n = 0;
        for yb in (5..55).step_by(5) {
            for xb in (5..75).step_by(5) {
                let xa = m[0] * xb as f64 + m[1] * yb as f64 + m[2];
                let ya = m[3] * xb as f64 + m[4] * yb as f64 + m[5];
                if xa >= 1.0 && ya >= 1.0 && xa < 79.0 && ya < 59.0 {
                    err += (p.b.get(xb, yb) - p.a.sample_bilinear(xa as f32, ya as f32)).abs();
                    n += 1;
                }
            }
        }
        assert!(n > 20, "overlap too small");
        assert!(
            err / (n as f32) < 2.0,
            "mean mapping error {}",
            err / n as f32
        );
    }

    #[test]
    fn texture_swatches_differ_by_kind() {
        let st = texture_swatch(64, 64, 2, TextureKind::Stochastic);
        let su = texture_swatch(64, 64, 2, TextureKind::Structural);
        assert_ne!(st, su);
        // The structural texture has strong bimodality (bricks vs mortar).
        let dark = su.as_slice().iter().filter(|&&v| v < 100.0).count();
        let light = su.as_slice().iter().filter(|&&v| v > 140.0).count();
        assert!(dark > 200 && light > 2000);
    }

    #[test]
    fn motion_frames_are_bit_identical_per_seed() {
        // Same seed ⇒ bit-identical frame sequence, and frame i is
        // generable in isolation (no dependence on sequence length or on
        // having generated earlier frames).
        let m = CameraMotion::translate(1.5, -0.75);
        let seq_a: Vec<Image> = (0..6).map(|i| motion_frame(64, 48, 11, m, i)).collect();
        let seq_b: Vec<Image> = (0..6).map(|i| motion_frame(64, 48, 11, m, i)).collect();
        assert_eq!(seq_a, seq_b);
        // Out-of-order single-frame regeneration matches the in-order run.
        assert_eq!(motion_frame(64, 48, 11, m, 4), seq_a[4]);
        // A different seed is a different world.
        assert_ne!(motion_frame(64, 48, 12, m, 0), seq_a[0]);
    }

    #[test]
    fn motion_frames_shift_content_by_the_per_frame_velocity() {
        // Integer velocity: frame i+1 at (x, y) equals frame i at
        // (x + vx, y + vy) exactly (no resampling error).
        let m = CameraMotion::translate(3.0, 2.0);
        let f0 = motion_frame(64, 48, 5, m, 0);
        let f1 = motion_frame(64, 48, 5, m, 1);
        let mut err = 0.0f32;
        for y in 0..46 {
            for x in 0..61 {
                err += (f1.get(x, y) - f0.get(x + 3, y + 2)).abs();
            }
        }
        assert!(err < 1e-3, "total shift error {err}");
    }

    #[test]
    fn moving_stereo_pair_is_deterministic_and_keeps_the_disparity_relation() {
        let m = CameraMotion::pan(0.9);
        assert_eq!(
            moving_stereo_pair(96, 72, 3, m, 7).left,
            moving_stereo_pair(96, 72, 3, m, 7).left
        );
        // Frame 0 with zero motion reduces to a plain layered scene whose
        // truth has the three canonical levels.
        for frame in [0u64, 9, 40] {
            let s = moving_stereo_pair(96, 72, 3, m, frame);
            let mut checked = 0;
            let mut exact = 0;
            for y in (0..72).step_by(5) {
                for x in (20..90).step_by(7) {
                    let d = s.truth.get(x, y) as usize;
                    if x >= d {
                        checked += 1;
                        if (s.right.get(x - d, y) - s.left.get(x, y)).abs() < 1e-3 {
                            exact += 1;
                        }
                    }
                }
            }
            assert!(checked > 50);
            assert!(
                exact as f64 > 0.85 * checked as f64,
                "frame {frame}: {exact}/{checked}"
            );
        }
    }

    #[test]
    fn moving_stereo_truth_pans_with_the_camera() {
        // The near rectangle occupies different view pixels as the camera
        // pans: the truth maps of well-separated frames must differ.
        let m = CameraMotion::pan(2.0);
        let a = moving_stereo_pair(96, 72, 3, m, 0);
        let b = moving_stereo_pair(96, 72, 3, m, 10);
        assert_ne!(a.truth, b.truth);
        // But both contain all three depth layers somewhere.
        for s in [&a, &b] {
            let mut levels: Vec<i32> = s.truth.as_slice().iter().map(|&v| v as i32).collect();
            levels.sort_unstable();
            levels.dedup();
            assert_eq!(levels, vec![2, 6, 10]);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(stereo_pair(64, 48, 7).left, stereo_pair(64, 48, 7).left);
        assert_eq!(
            segmentable_scene(40, 30, 7, 3).image,
            segmentable_scene(40, 30, 7, 3).image
        );
        assert_eq!(
            overlapping_pair(40, 30, 7, 0.1, 2.0, 1.0).b,
            overlapping_pair(40, 30, 7, 0.1, 2.0, 1.0).b
        );
    }
}
