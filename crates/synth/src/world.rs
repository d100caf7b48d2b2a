//! Seed-only worlds for the streaming generators: the textures a camera
//! pans over, built once per (view size, seed) and sampled per frame.
//!
//! A frame is a bilinear view into a toroidal world at the camera's
//! offset. The offset is the same for every pixel of a frame, so each
//! view column has one world x, wrap, pair of bilinear weights and
//! rectangle membership, and each view row one of each for y. The frame
//! loops compute those once per column and once per row; every pixel then
//! performs the same `f32` operations the per-pixel sampler did, in the
//! same order, so frames are bit-identical to it.

use crate::noise::textured_image;
use crate::scenes::{CameraMotion, StereoPair};
use sdvbs_image::Image;

/// Disparity of the background plane in a stereo world.
const D_BG: usize = 2;
/// Disparity of the near foreground rectangle.
const D_NEAR: usize = 10;
/// Disparity of the middle foreground rectangle.
const D_MID: usize = 6;
/// The search-range hint every stereo frame reports.
const MAX_DISPARITY: usize = 16;

/// The camera offset of frame `frame` under `motion`, computed in `f64`
/// so large frame indices keep sub-pixel precision, reduced modulo the
/// world size so the sequence is periodic rather than unbounded.
fn camera_offset(motion: CameraMotion, frame: u64, ww: usize, wh: usize) -> (f64, f64) {
    let ox = (motion.vx as f64 * frame as f64).rem_euclid(ww as f64);
    let oy = (motion.vy as f64 * frame as f64).rem_euclid(wh as f64);
    (ox, oy)
}

/// One axis of a bilinear lookup at world coordinate `p`, wrapped onto
/// `0..n`: the two cells it falls between and their weights.
#[derive(Debug, Clone, Copy)]
struct Tap {
    i0: usize,
    i1: usize,
    /// Weight of `i1`.
    t: f32,
    /// Weight of `i0`: `1.0 - t`.
    u: f32,
}

impl Tap {
    fn new(p: f64, n: usize) -> Tap {
        let pm = p.rem_euclid(n as f64);
        // `rem_euclid` can round up to exactly `n`; the `%` wraps it.
        let i0 = pm.floor() as usize % n;
        let t = (pm - pm.floor()) as f32;
        Tap {
            i0,
            i1: (i0 + 1) % n,
            t,
            u: 1.0 - t,
        }
    }

    /// Rows `i0` and `i1` of `img`.
    fn rows(self, img: &Image) -> (&[f32], &[f32]) {
        (img.row(self.i0), img.row(self.i1))
    }
}

/// The bilinear sample between world rows `r0` and `r1` (the rows of the
/// y tap) at x tap `x`.
fn sample((r0, r1): (&[f32], &[f32]), x: Tap, y: Tap) -> f32 {
    let top = r0[x.i0] * x.u + r0[x.i1] * x.t;
    let bot = r1[x.i0] * x.u + r1[x.i1] * x.t;
    top * y.u + bot * y.t
}

/// Whether world coordinate `p` lies in the span `start..start + len` of
/// an axis that wraps at `n`.
fn in_span(p: f64, start: usize, len: usize, n: usize) -> bool {
    (p - start as f64).rem_euclid(n as f64) < len as f64
}

/// The textured world behind [`motion_frame`](crate::motion_frame),
/// built once for a view size and seed.
///
/// The world is twice the view in each axis, so its repeat period is well
/// clear of any feature-matching window. It holds `16 · w · h` bytes.
#[derive(Debug, Clone)]
pub struct MotionWorld {
    w: usize,
    h: usize,
    texture: Image,
}

impl MotionWorld {
    /// Builds the world a `w × h` camera pans over.
    pub fn new(w: usize, h: usize, seed: u64) -> MotionWorld {
        MotionWorld {
            w,
            h,
            texture: textured_image(2 * w.max(1), 2 * h.max(1), seed),
        }
    }

    /// Frame `frame` of the pan under `motion`; see
    /// [`motion_frame`](crate::motion_frame).
    pub fn frame(&self, motion: CameraMotion, frame: u64) -> Image {
        let (ww, wh) = (self.texture.width(), self.texture.height());
        let (ox, oy) = camera_offset(motion, frame, ww, wh);
        let cols: Vec<Tap> = (0..self.w).map(|x| Tap::new(x as f64 + ox, ww)).collect();
        let mut out = Image::new(self.w, self.h);
        for y in 0..self.h {
            let ty = Tap::new(y as f64 + oy, wh);
            let rows = ty.rows(&self.texture);
            for (o, &tx) in out.row_mut(y).iter_mut().zip(&cols) {
                *o = sample(rows, tx, ty);
            }
        }
        out
    }
}

/// Per-column state of a stereo frame: the left camera's x tap and
/// rectangle membership, and the right camera's per-layer taps and
/// membership (each layer shifted by its disparity).
struct StereoColumn {
    left: Tap,
    near: bool,
    mid: bool,
    right_near: Tap,
    right_in_near: bool,
    right_mid: Tap,
    right_in_mid: bool,
    right_bg: Tap,
}

/// The layered world behind
/// [`moving_stereo_pair`](crate::moving_stereo_pair), built once for a
/// view size and seed: a textured background plane and the textures of
/// two foreground rectangles, each twice the view in each axis. It holds
/// `48 · w · h` bytes.
#[derive(Debug, Clone)]
pub struct StereoWorld {
    w: usize,
    h: usize,
    background: Image,
    near: Image,
    mid: Image,
}

impl StereoWorld {
    /// Builds the world a `w × h` stereo camera pair translates over.
    ///
    /// # Panics
    ///
    /// Panics if the view is smaller than 48×36 (the foreground layout
    /// needs room).
    pub fn new(w: usize, h: usize, seed: u64) -> StereoWorld {
        assert!(w >= 48 && h >= 36, "stereo scene requires at least 48x36");
        let (ww, wh) = (2 * w, 2 * h);
        StereoWorld {
            w,
            h,
            background: textured_image(ww, wh, seed),
            near: textured_image(ww, wh, seed ^ 0x9e3779b97f4a7c15),
            mid: textured_image(ww, wh, seed ^ 0x5851f42d4c957f2d),
        }
    }

    /// Frame `frame` of the stereo pair under `motion`; see
    /// [`moving_stereo_pair`](crate::moving_stereo_pair).
    pub fn frame(&self, motion: CameraMotion, frame: u64) -> StereoPair {
        let (w, h) = (self.w, self.h);
        let (ww, wh) = (2 * w, 2 * h);
        // Foreground rectangles live at fixed *world* coordinates; the
        // camera pans past them (and wraps around to meet them again).
        let near_rect = (w / 6, h / 5, w / 4, h / 3); // (x0, y0, width, height)
        let mid_rect = (w / 2, h / 2, w / 3, h / 3);
        let (ox, oy) = camera_offset(motion, frame, ww, wh);
        // The right camera samples each layer at world x + d_layer: layers
        // closer to the camera shift more.
        let cols: Vec<StereoColumn> = (0..w)
            .map(|x| {
                let wx = x as f64 + ox;
                let near_x = wx + D_NEAR as f64;
                let mid_x = wx + D_MID as f64;
                StereoColumn {
                    left: Tap::new(wx, ww),
                    near: in_span(wx, near_rect.0, near_rect.2, ww),
                    mid: in_span(wx, mid_rect.0, mid_rect.2, ww),
                    right_near: Tap::new(near_x, ww),
                    right_in_near: in_span(near_x, near_rect.0, near_rect.2, ww),
                    right_mid: Tap::new(mid_x, ww),
                    right_in_mid: in_span(mid_x, mid_rect.0, mid_rect.2, ww),
                    right_bg: Tap::new(wx + D_BG as f64, ww),
                }
            })
            .collect();
        let mut left = Image::new(w, h);
        let mut right = Image::new(w, h);
        let mut truth = Image::new(w, h);
        for y in 0..h {
            let wy = y as f64 + oy;
            let ty = Tap::new(wy, wh);
            let near_y = in_span(wy, near_rect.1, near_rect.3, wh);
            let mid_y = in_span(wy, mid_rect.1, mid_rect.3, wh);
            let near = ty.rows(&self.near);
            let mid = ty.rows(&self.mid);
            let bg = ty.rows(&self.background);
            let rows = left
                .row_mut(y)
                .iter_mut()
                .zip(right.row_mut(y))
                .zip(truth.row_mut(y));
            for (((l, r), t), c) in rows.zip(&cols) {
                (*l, *t) = if c.near && near_y {
                    (sample(near, c.left, ty), D_NEAR as f32)
                } else if c.mid && mid_y {
                    (sample(mid, c.left, ty), D_MID as f32)
                } else {
                    (sample(bg, c.left, ty), D_BG as f32)
                };
                *r = if c.right_in_near && near_y {
                    sample(near, c.right_near, ty)
                } else if c.right_in_mid && mid_y {
                    sample(mid, c.right_mid, ty)
                } else {
                    sample(bg, c.right_bg, ty)
                };
            }
        }
        StereoPair {
            left,
            right,
            truth,
            max_disparity: MAX_DISPARITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel sampler the worlds replaced.
    fn reference_wrap_sample(img: &Image, x: f64, y: f64) -> f32 {
        let w = img.width();
        let h = img.height();
        let xm = x.rem_euclid(w as f64);
        let ym = y.rem_euclid(h as f64);
        let x0 = xm.floor() as usize % w;
        let y0 = ym.floor() as usize % h;
        let tx = (xm - xm.floor()) as f32;
        let ty = (ym - ym.floor()) as f32;
        let x1 = (x0 + 1) % w;
        let y1 = (y0 + 1) % h;
        let top = img.get(x0, y0) * (1.0 - tx) + img.get(x1, y0) * tx;
        let bot = img.get(x0, y1) * (1.0 - tx) + img.get(x1, y1) * tx;
        top * (1.0 - ty) + bot * ty
    }

    /// The per-pixel `motion_frame` the motion world replaced: it built
    /// the world texture on every call. The bit-identity oracle.
    fn reference_motion_frame(
        w: usize,
        h: usize,
        seed: u64,
        motion: CameraMotion,
        frame: u64,
    ) -> Image {
        let ww = 2 * w.max(1);
        let wh = 2 * h.max(1);
        let world = textured_image(ww, wh, seed);
        let (ox, oy) = camera_offset(motion, frame, ww, wh);
        Image::from_fn(w, h, |x, y| {
            reference_wrap_sample(&world, x as f64 + ox, y as f64 + oy)
        })
    }

    /// The per-pixel `moving_stereo_pair` the stereo world replaced: it
    /// built the three textures on every call. The bit-identity oracle.
    fn reference_moving_stereo_pair(
        w: usize,
        h: usize,
        seed: u64,
        motion: CameraMotion,
        frame: u64,
    ) -> StereoPair {
        assert!(w >= 48 && h >= 36, "stereo scene requires at least 48x36");
        let d_bg = 2usize;
        let d_near = 10usize;
        let d_mid = 6usize;
        let max_disparity = 16;
        let ww = 2 * w;
        let wh = 2 * h;
        let background = textured_image(ww, wh, seed);
        let tex_near = textured_image(ww, wh, seed ^ 0x9e3779b97f4a7c15);
        let tex_mid = textured_image(ww, wh, seed ^ 0x5851f42d4c957f2d);
        let near_rect = (w / 6, h / 5, w / 4, h / 3);
        let mid_rect = (w / 2, h / 2, w / 3, h / 3);
        let in_rect = |r: (usize, usize, usize, usize), wx: f64, wy: f64| {
            let dx = (wx - r.0 as f64).rem_euclid(ww as f64);
            let dy = (wy - r.1 as f64).rem_euclid(wh as f64);
            dx < r.2 as f64 && dy < r.3 as f64
        };
        let (ox, oy) = camera_offset(motion, frame, ww, wh);
        let left = Image::from_fn(w, h, |x, y| {
            let wx = x as f64 + ox;
            let wy = y as f64 + oy;
            if in_rect(near_rect, wx, wy) {
                reference_wrap_sample(&tex_near, wx, wy)
            } else if in_rect(mid_rect, wx, wy) {
                reference_wrap_sample(&tex_mid, wx, wy)
            } else {
                reference_wrap_sample(&background, wx, wy)
            }
        });
        let right = Image::from_fn(w, h, |x, y| {
            let wx = x as f64 + ox;
            let wy = y as f64 + oy;
            if in_rect(near_rect, wx + d_near as f64, wy) {
                reference_wrap_sample(&tex_near, wx + d_near as f64, wy)
            } else if in_rect(mid_rect, wx + d_mid as f64, wy) {
                reference_wrap_sample(&tex_mid, wx + d_mid as f64, wy)
            } else {
                reference_wrap_sample(&background, wx + d_bg as f64, wy)
            }
        });
        let truth = Image::from_fn(w, h, |x, y| {
            let wx = x as f64 + ox;
            let wy = y as f64 + oy;
            if in_rect(near_rect, wx, wy) {
                d_near as f32
            } else if in_rect(mid_rect, wx, wy) {
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

    fn assert_bits_eq(a: &Image, b: &Image, what: &str) {
        assert_eq!((a.width(), a.height()), (b.width(), b.height()), "{what}");
        let first = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .position(|(p, q)| p.to_bits() != q.to_bits());
        assert!(first.is_none(), "{what}: first differing pixel {first:?}");
    }

    /// Positive, negative, fractional, zero and fast velocities.
    const MOTIONS: [(f32, f32); 6] = [
        (1.2, 0.6),
        (0.9, 0.45),
        (6.0, 0.0),
        (-3.7, -2.3),
        (-0.35, 1.9),
        (0.0, 0.0),
    ];

    /// Frames near the start, past a wrap-around of the world, and far
    /// out.
    const FRAMES: &[u64] = &[0, 1, 7, 613, 123_456_789];

    /// A view size, the seeds to build its world from, how many of
    /// [`MOTIONS`] to pan with, and the frames to compare.
    struct Case {
        dims: (usize, usize),
        seeds: &'static [u64],
        motions: usize,
        frames: &'static [u64],
    }

    impl Case {
        /// Every `(seed, motion, frame)` of the case, with a label.
        fn each(&self, mut check: impl FnMut(u64, CameraMotion, u64, &str)) {
            let (w, h) = self.dims;
            for &seed in self.seeds {
                for &(vx, vy) in &MOTIONS[..self.motions] {
                    for &frame in self.frames {
                        let what = format!("{w}x{h} seed {seed} v ({vx}, {vy}) frame {frame}");
                        check(seed, CameraMotion::translate(vx, vy), frame, &what);
                    }
                }
            }
        }
    }

    /// QCIF, CIF (fewer cases: the reference is slow in debug builds) and
    /// odd sizes.
    const SIZES: [Case; 4] = [
        Case {
            dims: (176, 144),
            seeds: &[3, 42, 9001],
            motions: MOTIONS.len(),
            frames: FRAMES,
        },
        Case {
            dims: (352, 288),
            seeds: &[7],
            motions: 2,
            frames: &[0, 613],
        },
        Case {
            dims: (49, 37),
            seeds: &[1, 2],
            motions: MOTIONS.len(),
            frames: FRAMES,
        },
        Case {
            dims: (97, 61),
            seeds: &[5],
            motions: MOTIONS.len(),
            frames: FRAMES,
        },
    ];

    #[test]
    fn motion_frames_match_the_per_pixel_reference() {
        // Motion worlds also serve views too small for a stereo world.
        let tiny = [
            Case {
                dims: (1, 1),
                seeds: &[8],
                motions: MOTIONS.len(),
                frames: FRAMES,
            },
            Case {
                dims: (0, 5),
                seeds: &[8],
                motions: 2,
                frames: FRAMES,
            },
        ];
        for case in SIZES.iter().chain(&tiny) {
            let (w, h) = case.dims;
            let mut worlds = std::collections::HashMap::new();
            case.each(|seed, m, frame, what| {
                let world = worlds
                    .entry(seed)
                    .or_insert_with(|| MotionWorld::new(w, h, seed));
                assert_bits_eq(
                    &world.frame(m, frame),
                    &reference_motion_frame(w, h, seed, m, frame),
                    what,
                );
            });
        }
    }

    #[test]
    fn stereo_frames_match_the_per_pixel_reference() {
        for case in &SIZES {
            let (w, h) = case.dims;
            let mut worlds = std::collections::HashMap::new();
            case.each(|seed, m, frame, what| {
                let world = worlds
                    .entry(seed)
                    .or_insert_with(|| StereoWorld::new(w, h, seed));
                let got = world.frame(m, frame);
                let want = reference_moving_stereo_pair(w, h, seed, m, frame);
                assert_bits_eq(&got.left, &want.left, &format!("{what} left"));
                assert_bits_eq(&got.right, &want.right, &format!("{what} right"));
                assert_bits_eq(&got.truth, &want.truth, &format!("{what} truth"));
                assert_eq!(got.max_disparity, want.max_disparity);
            });
        }
    }
}
