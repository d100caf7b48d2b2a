//! Keypoint detection: DoG extrema, subpixel refinement, contrast and edge
//! rejection, and orientation assignment.

use crate::scalespace::ScaleSpace;
use crate::SiftConfig;
use sdvbs_image::Image;

/// A detected scale-space keypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Column in base-image coordinates.
    pub x: f32,
    /// Row in base-image coordinates.
    pub y: f32,
    /// Absolute smoothing scale (in base-image pixels).
    pub sigma: f32,
    /// Octave index the keypoint was found in.
    pub octave: usize,
    /// Continuous level inside the octave.
    pub level: f32,
    /// Dominant gradient orientation in radians.
    pub orientation: f32,
    /// Interpolated |DoG| response.
    pub response: f32,
}

/// Detects keypoints across the whole scale space.
pub fn detect_keypoints(ss: &ScaleSpace, cfg: &SiftConfig) -> Vec<Keypoint> {
    detect_keypoints_with(ss, cfg, scan_extrema)
}

/// A DoG extremum scan with the signature of [`scan_extrema`].
type ExtremumScan = fn(&Image, &Image, &Image, f32) -> Vec<(usize, usize)>;

/// [`detect_keypoints`] with `scan` as its extremum scan.
fn detect_keypoints_with(ss: &ScaleSpace, cfg: &SiftConfig, scan: ExtremumScan) -> Vec<Keypoint> {
    let mut out = Vec::new();
    for o in 0..ss.octaves() {
        for l in 1..=ss.intervals() {
            detect_in_slice(ss, o, l, cfg, scan, &mut out);
        }
    }
    out
}

/// The interior pixels `(x, y)` of `cur`, in scan order, whose |DoG| is at
/// least `prelim` and which are extrema of their 3×3×3 neighbourhood
/// across `below`, `cur` and `above`. Each image row is read through the
/// nine row slices around it.
fn scan_extrema(below: &Image, cur: &Image, above: &Image, prelim: f32) -> Vec<(usize, usize)> {
    let (w, h) = (cur.width(), cur.height());
    let mut found = Vec::new();
    for y in 1..h - 1 {
        let rows = [below, cur, above].map(|img| [img.row(y - 1), img.row(y), img.row(y + 1)]);
        for x in 1..w - 1 {
            let v = rows[1][1][x];
            if v.abs() < prelim {
                continue;
            }
            if is_extremum(&rows, x, v) {
                found.push((x, y));
            }
        }
    }
    found
}

fn detect_in_slice(
    ss: &ScaleSpace,
    octave: usize,
    level: usize,
    cfg: &SiftConfig,
    scan: ExtremumScan,
    out: &mut Vec<Keypoint>,
) {
    let below = ss.dog(octave, level - 1);
    let cur = ss.dog(octave, level);
    let above = ss.dog(octave, level + 1);
    // A preliminary threshold at half the final contrast cut, per Lowe.
    let prelim = 0.5 * cfg.contrast_threshold / ss.intervals() as f32;
    for (x, y) in scan(below, cur, above, prelim) {
        // Quadratic subpixel refinement in (x, y, level).
        let Some((dx, dy, dl, refined)) = refine(below, cur, above, x, y) else {
            continue;
        };
        if dx.abs() > 0.6 || dy.abs() > 0.6 || dl.abs() > 0.6 {
            // Drifted to a different sample; SD-VBS-style single-step
            // refinement just rejects these.
            continue;
        }
        if refined.abs() < cfg.contrast_threshold {
            continue;
        }
        if is_edge_like(cur, x, y, cfg.edge_threshold) {
            continue;
        }
        let scale = ss.octave_scale(octave);
        let lf = level as f32 + dl;
        let base_x = (x as f32 + dx) * scale;
        let base_y = (y as f32 + dy) * scale;
        let sigma = ss.sigma_at(octave, lf);
        // Orientation assignment: one keypoint per dominant peak.
        for orientation in orientations(ss, octave, level, x, y) {
            out.push(Keypoint {
                x: base_x,
                y: base_y,
                sigma,
                octave,
                level: lf,
                orientation,
                response: refined.abs(),
            });
        }
    }
}

/// Whether `v`, the centre of the 3×3×3 neighbourhood at column `x` of
/// `rows` (`rows[scale][row]`, the middle scale's middle row holding `v`),
/// is strictly above every neighbour (for `v > 0`) or strictly below every
/// neighbour (otherwise). The answer does not depend on the order the
/// neighbours are read in, so the centre's own row goes first: its two
/// neighbours there reject most pixels.
fn is_extremum(rows: &[[&[f32]; 3]; 3], x: usize, v: f32) -> bool {
    if v > 0.0 {
        no_neighbour(rows, x, |n| n >= v)
    } else {
        no_neighbour(rows, x, |n| n <= v)
    }
}

/// Whether no neighbour of the centre at column `x` of `rows` satisfies
/// `beats`.
#[inline]
fn no_neighbour(rows: &[[&[f32]; 3]; 3], x: usize, beats: impl Fn(f32) -> bool) -> bool {
    let centre_row = rows[1][1];
    if beats(centre_row[x - 1]) || beats(centre_row[x + 1]) {
        return false;
    }
    let others = [
        rows[1][0], rows[1][2], rows[0][0], rows[0][1], rows[0][2], rows[2][0], rows[2][1],
        rows[2][2],
    ];
    !others
        .iter()
        .any(|row| row[x - 1..=x + 1].iter().any(|&n| beats(n)))
}

/// One Newton step on the 3-D quadratic fit; returns the offset and the
/// interpolated response, or `None` for a degenerate Hessian.
fn refine(
    below: &Image,
    cur: &Image,
    above: &Image,
    x: usize,
    y: usize,
) -> Option<(f32, f32, f32, f32)> {
    let v = cur.get(x, y);
    // First derivatives.
    let gx = 0.5 * (cur.get(x + 1, y) - cur.get(x - 1, y));
    let gy = 0.5 * (cur.get(x, y + 1) - cur.get(x, y - 1));
    let gl = 0.5 * (above.get(x, y) - below.get(x, y));
    // Second derivatives.
    let hxx = cur.get(x + 1, y) + cur.get(x - 1, y) - 2.0 * v;
    let hyy = cur.get(x, y + 1) + cur.get(x, y - 1) - 2.0 * v;
    let hll = above.get(x, y) + below.get(x, y) - 2.0 * v;
    let hxy = 0.25
        * (cur.get(x + 1, y + 1) - cur.get(x - 1, y + 1) - cur.get(x + 1, y - 1)
            + cur.get(x - 1, y - 1));
    let hxl = 0.25
        * (above.get(x + 1, y) - above.get(x - 1, y) - below.get(x + 1, y) + below.get(x - 1, y));
    let hyl = 0.25
        * (above.get(x, y + 1) - above.get(x, y - 1) - below.get(x, y + 1) + below.get(x, y - 1));
    // Solve H d = -g with the 3x3 adjugate.
    let det = hxx * (hyy * hll - hyl * hyl) - hxy * (hxy * hll - hyl * hxl)
        + hxl * (hxy * hyl - hyy * hxl);
    if det.abs() < 1e-12 {
        return None;
    }
    let inv = 1.0 / det;
    let a00 = (hyy * hll - hyl * hyl) * inv;
    let a01 = (hxl * hyl - hxy * hll) * inv;
    let a02 = (hxy * hyl - hxl * hyy) * inv;
    let a11 = (hxx * hll - hxl * hxl) * inv;
    let a12 = (hxl * hxy - hxx * hyl) * inv;
    let a22 = (hxx * hyy - hxy * hxy) * inv;
    let dx = -(a00 * gx + a01 * gy + a02 * gl);
    let dy = -(a01 * gx + a11 * gy + a12 * gl);
    let dl = -(a02 * gx + a12 * gy + a22 * gl);
    let refined = v + 0.5 * (gx * dx + gy * dy + gl * dl);
    Some((dx, dy, dl, refined))
}

/// Lowe's principal-curvature test on the 2×2 spatial Hessian.
fn is_edge_like(cur: &Image, x: usize, y: usize, r: f32) -> bool {
    let v = cur.get(x, y);
    let hxx = cur.get(x + 1, y) + cur.get(x - 1, y) - 2.0 * v;
    let hyy = cur.get(x, y + 1) + cur.get(x, y - 1) - 2.0 * v;
    let hxy = 0.25
        * (cur.get(x + 1, y + 1) - cur.get(x - 1, y + 1) - cur.get(x + 1, y - 1)
            + cur.get(x - 1, y - 1));
    let trace = hxx + hyy;
    let det = hxx * hyy - hxy * hxy;
    if det <= 0.0 {
        return true;
    }
    trace * trace / det >= (r + 1.0) * (r + 1.0) / r
}

/// Gradient-orientation histogram around `(x, y)` in the Gaussian image at
/// the keypoint's scale; returns the dominant orientation(s) (peaks within
/// 80% of the maximum).
fn orientations(ss: &ScaleSpace, octave: usize, level: usize, x: usize, y: usize) -> Vec<f32> {
    const BINS: usize = 36;
    let img = ss.gaussian(octave, level);
    let w = img.width() as isize;
    let h = img.height() as isize;
    let sigma = 1.5 * ss.sigma_at(0, level as f32); // octave-local scale
    let radius = (3.0 * sigma).round().max(2.0) as isize;
    let mut hist = [0.0f32; BINS];
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = x as isize + dx;
            let py = y as isize + dy;
            if px < 1 || py < 1 || px >= w - 1 || py >= h - 1 {
                continue;
            }
            let (pxu, pyu) = (px as usize, py as usize);
            let gx = img.get(pxu + 1, pyu) - img.get(pxu - 1, pyu);
            let gy = img.get(pxu, pyu + 1) - img.get(pxu, pyu - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            let ang = gy.atan2(gx);
            let weight = (-((dx * dx + dy * dy) as f32) / (2.0 * sigma * sigma)).exp();
            let mut bin = ((ang + std::f32::consts::PI) / (2.0 * std::f32::consts::PI)
                * BINS as f32) as usize;
            if bin >= BINS {
                bin = BINS - 1;
            }
            hist[bin] += weight * mag;
        }
    }
    // Smooth the histogram twice with a small box filter.
    for _ in 0..2 {
        let copy = hist;
        for i in 0..BINS {
            hist[i] =
                0.25 * copy[(i + BINS - 1) % BINS] + 0.5 * copy[i] + 0.25 * copy[(i + 1) % BINS];
        }
    }
    let max = hist.iter().cloned().fold(0.0f32, f32::max);
    if max <= 0.0 {
        return vec![0.0];
    }
    let mut peaks = Vec::new();
    for i in 0..BINS {
        let prev = hist[(i + BINS - 1) % BINS];
        let next = hist[(i + 1) % BINS];
        if hist[i] >= 0.8 * max && hist[i] > prev && hist[i] > next {
            // Parabolic peak interpolation.
            let denom = prev - 2.0 * hist[i] + next;
            let offset = if denom.abs() > 1e-9 {
                0.5 * (prev - next) / denom
            } else {
                0.0
            };
            let ang = (i as f32 + offset + 0.5) / BINS as f32 * 2.0 * std::f32::consts::PI
                - std::f32::consts::PI;
            peaks.push(ang);
        }
    }
    if peaks.is_empty() {
        peaks.push(0.0);
    }
    peaks
}

/// The per-pixel extremum scan [`scan_extrema`] replaced, as the oracle of
/// the scan and of the whole pipeline.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`detect_keypoints`] over the per-pixel scan.
    pub(crate) fn detect_keypoints(ss: &ScaleSpace, cfg: &SiftConfig) -> Vec<Keypoint> {
        detect_keypoints_with(ss, cfg, scan_extrema)
    }

    /// Every pixel and each of its 26 neighbours read with its own `get`.
    pub(crate) fn scan_extrema(
        below: &Image,
        cur: &Image,
        above: &Image,
        prelim: f32,
    ) -> Vec<(usize, usize)> {
        let (w, h) = (cur.width(), cur.height());
        let mut found = Vec::new();
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let v = cur.get(x, y);
                if v.abs() < prelim {
                    continue;
                }
                if is_extremum(below, cur, above, x, y, v) {
                    found.push((x, y));
                }
            }
        }
        found
    }

    fn is_extremum(below: &Image, cur: &Image, above: &Image, x: usize, y: usize, v: f32) -> bool {
        let positive = v > 0.0;
        for img in [below, cur, above] {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let n = img.get((x as isize + dx) as usize, (y as isize + dy) as usize);
                    if std::ptr::eq(img, cur) && dx == 0 && dy == 0 {
                        continue;
                    }
                    if positive && n >= v {
                        return false;
                    }
                    if !positive && n <= v {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremum_scan_matches_the_per_pixel_oracle() {
        // Every DoG slice of textured scale spaces at two sizes, with the
        // default preliminary cut and with none (every pixel is tested,
        // ties included via a quantized copy).
        for (w, h, seed) in [(64usize, 48usize, 1u64), (97, 61, 2)] {
            let img = sdvbs_synth::textured_image(w, h, seed).map(|v| v / 255.0);
            for quantized in [false, true] {
                let base = if quantized {
                    img.map(|v| (v * 16.0).round() / 16.0)
                } else {
                    img.clone()
                };
                let ss = ScaleSpace::build(&base, 3, 1.6, 3);
                for o in 0..ss.octaves() {
                    for l in 1..=ss.intervals() {
                        let (b, c, a) = (ss.dog(o, l - 1), ss.dog(o, l), ss.dog(o, l + 1));
                        for prelim in [0.0, 0.004] {
                            assert_eq!(
                                scan_extrema(b, c, a, prelim),
                                reference::scan_extrema(b, c, a, prelim),
                                "{w}x{h} quantized {quantized} octave {o} level {l}"
                            );
                        }
                    }
                }
            }
        }
        // A NaN centre passes the cut and beats nothing; a NaN neighbour
        // never beats the centre.
        let mut cur = Image::from_fn(5, 5, |x, y| ((x * 7 + y * 3) % 5) as f32);
        cur.set(2, 2, f32::NAN);
        cur.set(1, 3, f32::NAN);
        let flat = Image::new(5, 5);
        assert_eq!(
            scan_extrema(&flat, &cur, &flat, 0.5),
            reference::scan_extrema(&flat, &cur, &flat, 0.5)
        );
    }

    /// A blob image: a Gaussian bump at a known location.
    fn blob_image(w: usize, h: usize, cx: f32, cy: f32, s: f32) -> Image {
        Image::from_fn(w, h, |x, y| {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            (-(dx * dx + dy * dy) / (2.0 * s * s)).exp()
        })
    }

    #[test]
    fn detects_blob_near_its_center() {
        let img = blob_image(64, 64, 32.0, 32.0, 3.0);
        let ss = ScaleSpace::build(&img, 3, 1.6, 3);
        let cfg = SiftConfig {
            double_size: false,
            ..SiftConfig::default()
        };
        let kps = detect_keypoints(&ss, &cfg);
        assert!(!kps.is_empty(), "blob not detected");
        let best = kps
            .iter()
            .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
            .unwrap();
        assert!(
            (best.x - 32.0).abs() < 2.0 && (best.y - 32.0).abs() < 2.0,
            "strongest keypoint at ({}, {})",
            best.x,
            best.y
        );
    }

    #[test]
    fn blob_scale_tracks_blob_size() {
        let small = blob_image(96, 96, 48.0, 48.0, 2.5);
        let large = blob_image(96, 96, 48.0, 48.0, 6.0);
        let cfg = SiftConfig {
            double_size: false,
            ..SiftConfig::default()
        };
        let find_scale = |img: &Image| {
            let ss = ScaleSpace::build(img, 3, 1.6, 4);
            let kps = detect_keypoints(&ss, &cfg);
            kps.iter()
                .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
                .map(|k| k.sigma)
        };
        let s_small = find_scale(&small).expect("small blob detected");
        let s_large = find_scale(&large).expect("large blob detected");
        assert!(s_large > 1.5 * s_small, "scales {s_small} vs {s_large}");
    }

    #[test]
    fn edge_rejection_suppresses_straight_edges() {
        // A step edge produces strong DoG but must be pruned.
        let img = Image::from_fn(64, 64, |x, _| if x < 32 { 0.0 } else { 1.0 });
        let ss = ScaleSpace::build(&img, 3, 1.6, 2);
        let cfg = SiftConfig {
            double_size: false,
            ..SiftConfig::default()
        };
        let kps = detect_keypoints(&ss, &cfg);
        // Any surviving keypoints must not sit on the straight edge interior
        // (corners with the border are allowed).
        for k in &kps {
            let on_edge = (k.x - 32.0).abs() < 2.0 && k.y > 8.0 && k.y < 56.0;
            assert!(!on_edge, "edge keypoint at ({}, {})", k.x, k.y);
        }
    }

    #[test]
    fn dark_blob_is_a_minimum_extremum() {
        let img = blob_image(64, 64, 32.0, 32.0, 3.0).map(|v| 1.0 - v);
        let ss = ScaleSpace::build(&img, 3, 1.6, 3);
        let cfg = SiftConfig {
            double_size: false,
            ..SiftConfig::default()
        };
        let kps = detect_keypoints(&ss, &cfg);
        assert!(
            kps.iter()
                .any(|k| (k.x - 32.0).abs() < 2.0 && (k.y - 32.0).abs() < 2.0),
            "dark blob not detected"
        );
    }

    #[test]
    fn orientation_follows_image_rotation() {
        // A blob with a bright stripe to one side gives a well-defined
        // orientation; rotating the stripe 90 deg rotates the orientation.
        let stripe = |angle: f32| {
            Image::from_fn(64, 64, |x, y| {
                let dx = x as f32 - 32.0;
                let dy = y as f32 - 32.0;
                let r2 = dx * dx + dy * dy;
                let blob = (-(r2) / 50.0).exp();
                let dir = (angle.cos() * dx + angle.sin() * dy) * 0.01;
                blob + dir
            })
        };
        let cfg = SiftConfig {
            double_size: false,
            ..SiftConfig::default()
        };
        let orient = |img: &Image| {
            let ss = ScaleSpace::build(img, 3, 1.6, 2);
            let kps = detect_keypoints(&ss, &cfg);
            kps.iter()
                .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
                .map(|k| k.orientation)
        };
        let o0 = orient(&stripe(0.0)).expect("keypoint at angle 0");
        let o90 = orient(&stripe(std::f32::consts::FRAC_PI_2)).expect("keypoint at 90");
        let mut diff = (o90 - o0).abs();
        if diff > std::f32::consts::PI {
            diff = 2.0 * std::f32::consts::PI - diff;
        }
        assert!(
            (diff - std::f32::consts::FRAC_PI_2).abs() < 0.4,
            "orientation difference {diff} not ~pi/2"
        );
    }
}
