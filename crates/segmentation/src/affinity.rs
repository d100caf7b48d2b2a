//! Affinity-graph construction (the "Adjacencymatrix" kernel) and the
//! texture filter bank ("Filterbanks" kernel).

use crate::stencil::AffinityStencil;
use sdvbs_exec::{fill_chunks, ExecPolicy};
use sdvbs_image::Image;
use sdvbs_kernels::conv::{convolve_2d, gaussian_blur};
use std::collections::BTreeMap;

/// Per-pixel feature vectors from a small oriented filter bank: a Gaussian
/// (blur) channel plus horizontal, vertical and two diagonal derivative
/// responses. This is the segmentation benchmark's "Filterbanks" kernel —
/// it lets the affinity compare local texture, not just raw intensity.
pub fn filter_bank_features(img: &Image) -> Vec<Image> {
    let blur = gaussian_blur(img, 1.0);
    // Oriented 3x3 derivative kernels.
    let kh: [f32; 9] = [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];
    let kv: [f32; 9] = [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0];
    let kd1: [f32; 9] = [0.0, 1.0, 2.0, -1.0, 0.0, 1.0, -2.0, -1.0, 0.0];
    let kd2: [f32; 9] = [2.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, -2.0];
    // Derivative channels are attenuated: a Sobel response to a step edge
    // is ~4x the step height, and at full weight the boundary-ridge pixels
    // form spurious "wall" clusters that hijack the leading eigenvectors.
    let att = 0.15f32;
    vec![
        blur.clone(),
        convolve_2d(&blur, &kh, 3, 3).map(|v| v * att),
        convolve_2d(&blur, &kv, 3, 3).map(|v| v * att),
        convolve_2d(&blur, &kd1, 3, 3).map(|v| v * att),
        convolve_2d(&blur, &kd2, 3, 3).map(|v| v * att),
    ]
}

/// Builds the sparse pixel-affinity matrix
/// `w(i, j) = exp(−‖F_i − F_j‖² / σ_f²) · exp(−‖p_i − p_j‖² / σ_x²)`
/// for pixel pairs within `radius`, where `F` is either raw intensity or
/// the filter-bank feature vector. Weights at or below `1e-6` are dropped.
///
/// The diagonal is set to 1 (every pixel is fully similar to itself).
pub fn adjacency_matrix(
    features: &[Image],
    radius: usize,
    sigma_feature: f32,
    sigma_spatial: f32,
) -> AffinityStencil {
    adjacency_matrix_with(
        features,
        radius,
        sigma_feature,
        sigma_spatial,
        ExecPolicy::Serial,
    )
}

/// [`adjacency_matrix`] under an execution policy: each plane of the
/// stencil is filled in bands of pixel rows, one `fill_chunks` pass per
/// offset, and every weight depends on its pixel pair alone, so the
/// stencil is bit-identical to the serial one for any policy.
pub fn adjacency_matrix_with(
    features: &[Image],
    radius: usize,
    sigma_feature: f32,
    sigma_spatial: f32,
    policy: ExecPolicy,
) -> AffinityStencil {
    assert!(!features.is_empty(), "need at least one feature channel");
    let w = features[0].width();
    let h = features[0].height();
    let n = w * h;
    let inv_sf2 = 1.0 / (sigma_feature * sigma_feature);
    let inv_sx2 = 1.0 / (sigma_spatial * sigma_spatial);
    // Row `y` of the plane for neighbour `(dy, dx)`: the weight of every
    // pixel whose neighbour is inside the image; other entries stay 0.0.
    let fill_row = |y: usize, (dy, dx): (usize, isize), row: &mut [f64], scratch: &mut [f32]| {
        if y + dy >= h {
            return;
        }
        let x0 = dx.min(0).unsigned_abs();
        let x1 = w - dx.max(0) as usize;
        let nx0 = x0.wrapping_add_signed(dx);
        let fd = &mut scratch[x0..x1];
        fd.fill(0.0);
        for f in features {
            let here = &f.row(y)[x0..x1];
            let there = &f.row(y + dy)[nx0..nx0 + fd.len()];
            for ((acc, &p), &q) in fd.iter_mut().zip(here).zip(there) {
                let d = p - q;
                *acc += d * d;
            }
        }
        let sdist = (dx * dx + (dy * dy) as isize) as f32;
        for (out, &fdist) in row[x0..x1].iter_mut().zip(fd.iter()) {
            let wgt = (-fdist * inv_sf2 - sdist * inv_sx2).exp();
            *out = if wgt > 1e-6 { wgt as f64 } else { 0.0 };
        }
    };
    let slots = forward_slots(w, h, radius);
    // One allocation per plane, each the size of a Lanczos vector: a
    // single block for all planes (19.5 MB at CIF) would, once freed,
    // raise glibc's dynamic mmap threshold and change how every later
    // allocation of the process is served.
    let planes = slots
        .iter()
        .map(|(_, pairs)| {
            let mut plane = vec![0.0f64; n];
            fill_chunks(policy, &mut plane, w, |start, band| {
                let mut scratch = vec![0.0f32; w];
                for (k, row) in band.chunks_exact_mut(w).enumerate() {
                    for &pair in pairs {
                        fill_row(start / w + k, pair, row, &mut scratch);
                    }
                }
            });
            plane
        })
        .collect();
    let offsets = slots.iter().map(|&(o, _)| o).collect();
    AffinityStencil::from_planes(offsets, vec![1.0; n], planes)
}

/// The forward half of a radius-`radius` neighbourhood on a `w × h` grid
/// (`dy > 0`, or `dy == 0 && dx > 0`), grouped by linear offset
/// `dy · w + dx`, ascending. Pairs that no pixel of the grid can take are
/// left out. Two pairs share an offset only when `w ≤ 2 · radius`, and then
/// at most one of them is inside the image at any pixel.
fn forward_slots(w: usize, h: usize, radius: usize) -> Vec<(usize, Vec<(usize, isize)>)> {
    let r = radius as isize;
    let mut slots: BTreeMap<usize, Vec<(usize, isize)>> = BTreeMap::new();
    for dy in 0..=radius {
        let dx_start = if dy == 0 { 1 } else { -r };
        for dx in dx_start..=r {
            if dy < h && dx.unsigned_abs() < w {
                let offset = (dy * w).wrapping_add_signed(dx);
                slots.entry(offset).or_default().push((dy, dx));
            }
        }
    }
    slots.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_bank_has_five_channels() {
        let img = Image::from_fn(16, 16, |x, y| (x * y) as f32);
        let fb = filter_bank_features(&img);
        assert_eq!(fb.len(), 5);
        for f in &fb {
            assert_eq!(f.width(), 16);
        }
    }

    #[test]
    fn oriented_filters_respond_to_their_orientation() {
        // A vertical edge: horizontal derivative fires, vertical doesn't.
        let img = Image::from_fn(20, 20, |x, _| if x < 10 { 0.0 } else { 100.0 });
        let fb = filter_bank_features(&img);
        let hresp = fb[1].get(10, 10).abs();
        let vresp = fb[2].get(10, 10).abs();
        assert!(hresp > 10.0 * (vresp + 1e-3), "h {hresp} v {vresp}");
    }

    #[test]
    fn affinity_is_symmetric_with_unit_diagonal() {
        let img = Image::from_fn(8, 8, |x, y| ((x * 5 + y * 3) % 17) as f32);
        let a = adjacency_matrix(&[img], 2, 10.0, 4.0);
        let d = a.to_dense();
        assert!(d.is_symmetric(1e-12));
        for i in 0..64 {
            assert_eq!(d[(i, i)], 1.0);
        }
    }

    #[test]
    fn similar_neighbors_have_higher_affinity_than_dissimilar() {
        // Left half 0, right half 100: affinity across the boundary is tiny.
        let img = Image::from_fn(10, 4, |x, _| if x < 5 { 0.0 } else { 100.0 });
        let a = adjacency_matrix(&[img], 1, 10.0, 4.0).to_dense();
        let inside = a[(0, 1)]; // pixels (0,0)-(1,0), same region
        let across = a[(4, 5)]; // pixels (4,0)-(5,0), across the edge
        assert!(inside > 0.5);
        assert!(across < 1e-6 || across < inside / 1e6);
    }

    #[test]
    fn radius_limits_connectivity() {
        let img = Image::filled(6, 1, 1.0);
        let a = adjacency_matrix(&[img], 2, 10.0, 100.0).to_dense();
        assert!(a[(0, 2)] > 0.0);
        assert_eq!(a[(0, 3)], 0.0); // distance 3 > radius 2
    }
}
