//! Corner responses, local maxima and feature selection.
//!
//! These are the "feature extraction" kernels shared by tracking (KLT
//! min-eigenvalue scores) and stitch (Harris + adaptive non-maximal
//! suppression). Selecting the strongest features is the suite's "Sort"
//! kernel in feature space.

use crate::gradient::{gradient_x, gradient_y};
use crate::integral::area_sum;
use sdvbs_image::Image;

/// A detected feature point with its detector response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feature {
    /// Column coordinate.
    pub x: f32,
    /// Row coordinate.
    pub y: f32,
    /// Detector response (higher is stronger).
    pub score: f32,
}

/// The per-pixel gradient products `(gx², gx·gy, gy²)` the structure
/// tensor sums over a window, each one pass over the gradient buffers.
///
/// # Panics
///
/// Panics if the two images differ in size.
pub fn tensor_products(gx: &Image, gy: &Image) -> (Image, Image, Image) {
    (
        gx.map(|v| v * v),
        gx.zip_map(gy, |a, b| a * b),
        gy.map(|v| v * v),
    )
}

/// Structure-tensor images `(Ixx, Ixy, Iyy)` summed over a window of the
/// given radius.
pub fn structure_tensor(img: &Image, radius: usize) -> (Image, Image, Image) {
    let (ixx, ixy, iyy) = tensor_products(&gradient_x(img), &gradient_y(img));
    (
        area_sum(&ixx, radius),
        area_sum(&ixy, radius),
        area_sum(&iyy, radius),
    )
}

/// The smaller eigenvalue of the symmetric 2×2 tensor `[[a, b], [b, c]]`:
/// the smaller root of `λ² − (a+c)λ + (ac − b²)`.
#[inline]
pub fn min_eigenvalue(a: f32, b: f32, c: f32) -> f32 {
    let half_trace = 0.5 * (a + c);
    let det_term = (half_trace * half_trace - (a * c - b * b)).max(0.0).sqrt();
    half_trace - det_term
}

/// `f` over the same-position pixels of three tensor images, as one pass
/// over their buffers.
fn map_tensor(sxx: &Image, sxy: &Image, syy: &Image, f: impl Fn(f32, f32, f32) -> f32) -> Image {
    let data = sxx
        .as_slice()
        .iter()
        .zip(sxy.as_slice())
        .zip(syy.as_slice())
        .map(|((&a, &b), &c)| f(a, b, c))
        .collect();
    Image::from_vec(sxx.width(), sxx.height(), data).expect("tensor images share one size")
}

/// KLT "good features to track" response: the smaller eigenvalue of the
/// windowed structure tensor at each pixel.
pub fn min_eigenvalue_response(img: &Image, radius: usize) -> Image {
    let (sxx, sxy, syy) = structure_tensor(img, radius);
    map_tensor(&sxx, &sxy, &syy, min_eigenvalue)
}

/// Harris corner response `det(M) − k·trace(M)²` with the conventional
/// `k = 0.04`.
pub fn harris_response(img: &Image, radius: usize) -> Image {
    let (sxx, sxy, syy) = structure_tensor(img, radius);
    map_tensor(&sxx, &sxy, &syy, |a, b, c| {
        let det = a * c - b * b;
        let trace = a + c;
        det - 0.04 * trace * trace
    })
}

/// Finds strict local maxima of a response image above `threshold`,
/// ignoring a border of `margin` pixels, returned strongest-first.
///
/// A pixel is kept when no pixel of its 3×3 neighbourhood is `>=` it,
/// read from the three row slices around it.
pub fn local_maxima(response: &Image, threshold: f32, margin: usize) -> Vec<Feature> {
    let w = response.width();
    let h = response.height();
    let mut feats = Vec::new();
    if w <= 2 * margin + 2 || h <= 2 * margin + 2 {
        return feats;
    }
    for y in (margin + 1)..(h - margin - 1) {
        let (up, row, down) = (response.row(y - 1), response.row(y), response.row(y + 1));
        for x in (margin + 1)..(w - margin - 1) {
            let v = row[x];
            if v <= threshold {
                continue;
            }
            let dominated = up[x - 1..=x + 1]
                .iter()
                .chain(&down[x - 1..=x + 1])
                .chain([&row[x - 1], &row[x + 1]])
                .any(|&n| n >= v);
            if !dominated {
                feats.push(Feature {
                    x: x as f32,
                    y: y as f32,
                    score: v,
                });
            }
        }
    }
    sort_by_score(&mut feats);
    feats
}

/// Sorts features strongest-first (the "Sort" kernel on feature
/// granularity). NaN scores sort last via IEEE total ordering, so a
/// poisoned score can never panic the sort.
pub fn sort_by_score(feats: &mut [Feature]) {
    feats.sort_by(|a, b| b.score.total_cmp(&a.score));
}

/// Greedy spatial suppression: keeps at most `max` features such that no
/// two are within `min_dist` pixels, scanning strongest-first. This is the
/// feature-selection step of the KLT "good features" pipeline.
pub fn spatial_suppression(feats: &[Feature], min_dist: f32, max: usize) -> Vec<Feature> {
    let mut kept: Vec<Feature> = Vec::new();
    let d2 = min_dist * min_dist;
    for f in feats {
        if kept.len() >= max {
            break;
        }
        let clear = kept
            .iter()
            .all(|k| (k.x - f.x).powi(2) + (k.y - f.y).powi(2) >= d2);
        if clear {
            kept.push(*f);
        }
    }
    kept
}

/// Adaptive non-maximal suppression (the stitch benchmark's "ANMS" kernel,
/// Brown et al.): for each feature compute the distance to the nearest
/// sufficiently-stronger feature, then keep the `max` features with the
/// largest suppression radii. Produces spatially well-distributed features.
pub fn anms(feats: &[Feature], max: usize, robustness: f32) -> Vec<Feature> {
    if feats.is_empty() {
        return Vec::new();
    }
    let mut radii: Vec<(f32, Feature)> = feats
        .iter()
        .map(|f| {
            let mut r2 = f32::INFINITY;
            for g in feats {
                if g.score > f.score / robustness.max(1e-6) && g.score > f.score {
                    let d2 = (g.x - f.x).powi(2) + (g.y - f.y).powi(2);
                    if d2 < r2 {
                        r2 = d2;
                    }
                }
            }
            (r2, *f)
        })
        .collect();
    radii.sort_by(|a, b| b.0.total_cmp(&a.0));
    radii.into_iter().take(max).map(|(_, f)| f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A white square on black background: corners at the square's corners.
    fn square_image() -> Image {
        Image::from_fn(40, 40, |x, y| {
            if (10..30).contains(&x) && (10..30).contains(&y) {
                200.0
            } else {
                20.0
            }
        })
    }

    #[test]
    fn min_eigen_fires_on_corners_not_edges() {
        let img = square_image();
        let r = min_eigenvalue_response(&img, 2);
        // Corner region response dwarfs edge-midpoint response.
        let corner = r.get(10, 10);
        let edge = r.get(20, 10);
        let flat = r.get(20, 20);
        assert!(
            corner > 10.0 * edge.max(1e-3),
            "corner {corner} vs edge {edge}"
        );
        assert!(
            corner > 100.0 * flat.max(1e-6),
            "corner {corner} vs flat {flat}"
        );
    }

    #[test]
    fn harris_negative_on_edges_positive_on_corners() {
        let img = square_image();
        let r = harris_response(&img, 2);
        assert!(r.get(10, 10) > 0.0);
        assert!(r.get(20, 10) < r.get(10, 10) / 10.0);
    }

    #[test]
    fn local_maxima_finds_the_four_corners() {
        let img = square_image();
        let r = min_eigenvalue_response(&img, 2);
        let feats = local_maxima(&r, 1.0, 2);
        assert!(feats.len() >= 4, "found {} features", feats.len());
        // Each true corner (9/10-ish, 29/30-ish boundaries) has a feature within 3 px.
        for &(cx, cy) in &[(10.0f32, 10.0f32), (29.0, 10.0), (10.0, 29.0), (29.0, 29.0)] {
            let hit = feats
                .iter()
                .any(|f| (f.x - cx).abs() <= 3.0 && (f.y - cy).abs() <= 3.0);
            assert!(hit, "no feature near corner ({cx},{cy})");
        }
    }

    #[test]
    fn maxima_are_sorted_strongest_first() {
        let img = square_image();
        let r = harris_response(&img, 2);
        let feats = local_maxima(&r, 0.0, 2);
        for w in feats.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn suppression_enforces_min_distance() {
        let feats = vec![
            Feature {
                x: 0.0,
                y: 0.0,
                score: 5.0,
            },
            Feature {
                x: 1.0,
                y: 0.0,
                score: 4.0,
            },
            Feature {
                x: 10.0,
                y: 0.0,
                score: 3.0,
            },
        ];
        let kept = spatial_suppression(&feats, 5.0, 10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].x, 0.0);
        assert_eq!(kept[1].x, 10.0);
    }

    #[test]
    fn suppression_honors_max() {
        let feats: Vec<Feature> = (0..20)
            .map(|i| Feature {
                x: 100.0 * i as f32,
                y: 0.0,
                score: 20.0 - i as f32,
            })
            .collect();
        assert_eq!(spatial_suppression(&feats, 1.0, 7).len(), 7);
    }

    #[test]
    fn anms_prefers_spatially_spread_features() {
        // A tight strong cluster plus one weaker isolated feature: ANMS with
        // max=2 must keep the isolated one.
        let feats = vec![
            Feature {
                x: 0.0,
                y: 0.0,
                score: 10.0,
            },
            Feature {
                x: 1.0,
                y: 0.0,
                score: 9.0,
            },
            Feature {
                x: 0.0,
                y: 1.0,
                score: 8.5,
            },
            Feature {
                x: 50.0,
                y: 50.0,
                score: 5.0,
            },
        ];
        let kept = anms(&feats, 2, 1.0);
        assert_eq!(kept.len(), 2);
        assert!(
            kept.iter().any(|f| f.x == 50.0),
            "isolated feature dropped: {kept:?}"
        );
        assert!(
            kept.iter().any(|f| f.score == 10.0),
            "global max dropped: {kept:?}"
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(anms(&[], 5, 1.0).is_empty());
        assert!(spatial_suppression(&[], 1.0, 5).is_empty());
        let tiny = Image::new(3, 3);
        assert!(local_maxima(&tiny, 0.0, 1).is_empty());
    }
}
