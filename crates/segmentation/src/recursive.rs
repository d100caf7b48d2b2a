//! Recursive two-way normalized cuts — the formulation of the original
//! Shi–Malik paper (the k-way embedding in [`segment`](crate::segment) is
//! the later one-shot variant).
//!
//! The image's affinity graph is split by the second eigenvector of the
//! normalized affinity (the "Fiedler direction"); the larger remaining
//! region is re-split recursively until the requested segment count is
//! reached.

use crate::affinity::adjacency_matrix_with;
use crate::ncuts::{
    affinity_graph, Affinity, BuildAffinity, Segmentation, SegmentationConfig, SegmentationError,
};
use sdvbs_image::Image;
use sdvbs_matrix::lanczos_deflated;
use sdvbs_profile::Profiler;

/// Segments an image by recursive two-way normalized cuts.
///
/// Uses the same configuration and kernel attribution as
/// [`segment`](crate::segment) (`Filterbanks`, `Adjacencymatrix`,
/// `Eigensolve`, `QRfactorizations` — the discretization here is the
/// minimum-Ncut threshold sweep along the Fiedler vector).
///
/// # Errors
///
/// Same conditions as [`segment`](crate::segment).
pub fn segment_recursive(
    img: &Image,
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
) -> Result<Segmentation, SegmentationError> {
    segment_recursive_on(img, cfg, prof, adjacency_matrix_with)
}

/// [`segment_recursive`] over the affinity matrix that `build` makes.
pub(crate) fn segment_recursive_on<A: Affinity>(
    img: &Image,
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
    build: BuildAffinity<A>,
) -> Result<Segmentation, SegmentationError> {
    let w = affinity_graph(img, cfg, prof, build)?;
    let n = img.len();
    // Region bookkeeping: member lists of sorted pixel indices.
    let mut regions: Vec<Vec<usize>> = vec![(0..n).collect()];
    while regions.len() < cfg.segments {
        // Split the largest splittable region.
        let Some(target) = regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.len() >= 2)
            .max_by_key(|(_, r)| r.len())
            .map(|(i, _)| i)
        else {
            break;
        };
        let members = regions.swap_remove(target);
        let (a, b) = split_region(&w, &members, cfg, prof)?;
        regions.push(a);
        regions.push(b);
    }
    let mut labels = vec![0usize; n];
    for (li, region) in regions.iter().enumerate() {
        for &p in region {
            labels[p] = li;
        }
    }
    Ok(Segmentation::from_labels(
        labels,
        img.width(),
        img.height(),
        regions.len(),
    ))
}

/// Splits one region at the minimum-Ncut threshold along its Fiedler
/// direction.
///
/// The region's submatrix is taken from `w` twice, scaled for the
/// eigensolve and then plain for the cut sweep, so only one copy is alive
/// at a time.
fn split_region<A: Affinity>(
    w: &A,
    members: &[usize],
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
) -> Result<(Vec<usize>, Vec<usize>), SegmentationError> {
    let (mut sub_w, sorted) = prof.kernel("Adjacencymatrix", |_| {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        (w.submatrix(&sorted), sorted)
    });
    let m = sorted.len();
    let fiedler = prof.kernel("Eigensolve", |_| {
        let d = sub_w.row_sums();
        let dinv: Vec<f64> = d
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 })
            .collect();
        sub_w.scale_sym(&dinv);
        let start: Vec<f64> = (0..m)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(7);
                ((x >> 33) % 1000) as f64 / 1000.0 + 0.1
            })
            .collect();
        let steps = cfg.lanczos_steps.max(16);
        lanczos_deflated(&sub_w, 2, &start, steps)
            .map(|r| {
                r.vectors
                    .into_iter()
                    .nth(1)
                    .expect("k=2 returns two vectors")
            })
            .map_err(SegmentationError::Eigensolve)
    })?;
    drop(sub_w);
    let sub_plain = prof.kernel("Adjacencymatrix", |_| w.submatrix(&sorted));
    // Discretization ("QRfactorizations" scope): sweep candidate
    // thresholds along the Fiedler direction and keep the split with the
    // smallest normalized-cut value — the criterion of the original paper.
    let (a, b) = prof.kernel("QRfactorizations", |_| {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&i, &j| {
            fiedler[i]
                .partial_cmp(&fiedler[j])
                .expect("finite eigenvector")
        });
        let candidates = 24usize.min(m - 1);
        // The degrees do not depend on the threshold: sum them once.
        let degree = sub_plain.row_sums();
        let mut best_cut = f64::INFINITY;
        let mut best_split = m / 2;
        for c in 1..=candidates {
            let split = (c * m) / (candidates + 1);
            if split == 0 || split >= m {
                continue;
            }
            // Membership: side[i] = true if i falls in the low group.
            let threshold = fiedler[order[split]];
            let ncut = ncut_value(&sub_plain, &degree, &fiedler, threshold);
            if ncut < best_cut {
                best_cut = ncut;
                best_split = split;
            }
        }
        let a: Vec<usize> = order[..best_split].iter().map(|&i| sorted[i]).collect();
        let b: Vec<usize> = order[best_split..].iter().map(|&i| sorted[i]).collect();
        (a, b)
    });
    Ok((a, b))
}

/// Normalized-cut value of the split `{ fiedler < threshold }` vs the
/// rest: `cut/assoc(A) + cut/assoc(B)`, where `degree` is `w`'s row sums.
fn ncut_value(w: &sdvbs_matrix::CsrMatrix, degree: &[f64], fiedler: &[f64], threshold: f64) -> f64 {
    let n = w.dim();
    let side: Vec<bool> = fiedler.iter().map(|&v| v < threshold).collect();
    let mut cut = 0.0f64;
    let mut assoc_a = 0.0f64;
    let mut assoc_b = 0.0f64;
    for i in 0..n {
        if side[i] {
            assoc_a += degree[i];
        } else {
            assoc_b += degree[i];
        }
    }
    // Cut weight: sum of edges crossing the partition.
    for i in 0..n {
        for (j, v) in w.row_entries(i) {
            if side[i] != side[j] {
                cut += v;
            }
        }
    }
    cut /= 2.0; // symmetric matrix counts each edge twice
    if assoc_a <= 0.0 || assoc_b <= 0.0 {
        return f64::INFINITY;
    }
    cut / assoc_a + cut / assoc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rand_index;
    use sdvbs_synth::segmentable_scene;

    #[test]
    fn two_region_image_splits_cleanly() {
        let img = Image::from_fn(24, 16, |x, _| if x < 12 { 20.0 } else { 220.0 });
        let cfg = SegmentationConfig {
            segments: 2,
            filter_bank: false,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment_recursive(&img, &cfg, &mut prof).unwrap();
        let left = seg.label(2, 8);
        let right = seg.label(20, 8);
        assert_ne!(left, right);
        let mut errors = 0;
        for y in 0..16 {
            for x in 0..24 {
                let want = if x < 12 { left } else { right };
                if seg.label(x, y) != want {
                    errors += 1;
                }
            }
        }
        assert!(errors <= 12, "{errors} mislabeled pixels");
    }

    #[test]
    fn four_region_scene_matches_truth() {
        let scene = segmentable_scene(40, 30, 7, 4);
        let cfg = SegmentationConfig {
            segments: 4,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment_recursive(&scene.image, &cfg, &mut prof).unwrap();
        let ri = rand_index(seg.labels(), &scene.labels);
        // Recursive bisection trails the k-way embedding on multi-region
        // scenes (a greedy early cut cannot be revised — a limitation the
        // original Shi–Malik paper acknowledges), so the bar here is lower
        // than the k-way test's.
        assert!(ri > 0.7, "rand index {ri}");
        let kway = crate::segment(&scene.image, &cfg, &mut prof).unwrap();
        let kway_ri = rand_index(kway.labels(), &scene.labels);
        assert!(
            kway_ri + 0.05 >= ri,
            "k-way ({kway_ri}) unexpectedly far below recursive ({ri})"
        );
    }

    #[test]
    fn produces_exactly_the_requested_segment_count() {
        let scene = segmentable_scene(32, 24, 3, 3);
        let cfg = SegmentationConfig {
            segments: 5,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment_recursive(&scene.image, &cfg, &mut prof).unwrap();
        let mut used: Vec<usize> = seg.labels().to_vec();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 5);
    }

    #[test]
    fn agrees_with_kway_on_easy_scenes() {
        let scene = segmentable_scene(36, 28, 11, 3);
        let cfg = SegmentationConfig {
            segments: 3,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let rec = segment_recursive(&scene.image, &cfg, &mut prof).unwrap();
        let kway = crate::segment(&scene.image, &cfg, &mut prof).unwrap();
        let agreement = rand_index(rec.labels(), kway.labels());
        assert!(agreement > 0.8, "recursive vs k-way rand index {agreement}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let img = Image::filled(8, 8, 1.0);
        let mut prof = Profiler::new();
        let cfg = SegmentationConfig {
            segments: 0,
            ..SegmentationConfig::default()
        };
        assert!(segment_recursive(&img, &cfg, &mut prof).is_err());
    }
}
