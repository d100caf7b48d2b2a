//! Bit-identity oracle for [`AffinityStencil`]: the triplet-built CSR
//! affinity it replaced, kept as a reference, and the tests that hold the
//! stencil and every pipeline over it to that reference bit for bit.

use crate::ncuts::{segment_on, Affinity};
use crate::recursive::segment_recursive_on;
use crate::stencil::AffinityStencil;
use crate::SegmentationConfig;
use crate::{adjacency_matrix_with, filter_bank_features, segment, segment_recursive};
use proptest::prelude::*;
use sdvbs_exec::{map_chunks, ExecPolicy};
use sdvbs_image::Image;
use sdvbs_matrix::{lanczos_deflated, CsrMatrix, LinearOperator, SparseBuilder};
// What the shared reference Lanczos file imports from its parent module.
use sdvbs_matrix::{LanczosResult, Matrix, MatrixError, Result, SymEigen};
use sdvbs_profile::Profiler;
use sdvbs_synth::segmentable_scene;

impl Affinity for CsrMatrix {
    fn row_sums(&self) -> Vec<f64> {
        CsrMatrix::row_sums(self)
    }

    fn scale_sym(&mut self, d: &[f64]) {
        CsrMatrix::scale_sym(self, d);
    }

    fn submatrix(&self, keep: &[usize]) -> CsrMatrix {
        CsrMatrix::submatrix(self, keep)
    }
}

/// The affinity build the stencil replaced: each band of pixel rows emits
/// `(i, j, w)` triplets for the forward half of every neighbourhood plus
/// their mirrors, and `SparseBuilder` sorts them into CSR.
fn triplet_adjacency(
    features: &[Image],
    radius: usize,
    sigma_feature: f32,
    sigma_spatial: f32,
    policy: ExecPolicy,
) -> CsrMatrix {
    assert!(!features.is_empty(), "need at least one feature channel");
    let w = features[0].width();
    let h = features[0].height();
    let n = w * h;
    let inv_sf2 = 1.0 / (sigma_feature * sigma_feature);
    let inv_sx2 = 1.0 / (sigma_spatial * sigma_spatial);
    let r = radius as isize;
    let emit_band = |ys: std::ops::Range<usize>| -> Vec<(usize, usize, f64)> {
        let mut triplets = Vec::new();
        for y in ys.start as isize..ys.end as isize {
            for x in 0..w as isize {
                let i = (y as usize) * w + x as usize;
                triplets.push((i, i, 1.0));
                for dy in 0..=r {
                    let dx_start = if dy == 0 { 1 } else { -r };
                    for dx in dx_start..=r {
                        let nx = x + dx;
                        let ny = y + dy;
                        if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                            continue;
                        }
                        let j = (ny as usize) * w + nx as usize;
                        let mut fdist = 0.0f32;
                        for f in features {
                            let d = f.get(x as usize, y as usize) - f.get(nx as usize, ny as usize);
                            fdist += d * d;
                        }
                        let sdist = (dx * dx + dy * dy) as f32;
                        let wgt = (-fdist * inv_sf2 - sdist * inv_sx2).exp();
                        if wgt > 1e-6 {
                            triplets.push((i, j, wgt as f64));
                            triplets.push((j, i, wgt as f64));
                        }
                    }
                }
            }
        }
        triplets
    };
    let mut builder = SparseBuilder::new(n);
    for band in map_chunks(policy, h, emit_band) {
        for (i, j, v) in band {
            builder.push(i, j, v);
        }
    }
    builder.build()
}

/// The paper's three input sizes: SQCIF, QCIF, CIF.
const SIZES: [(usize, usize); 3] = [(128, 96), (176, 144), (352, 288)];

const POLICIES: [ExecPolicy; 3] = [
    ExecPolicy::Serial,
    ExecPolicy::Threads(2),
    ExecPolicy::Threads(4),
];

/// A 4-region scene's feature channels: the image alone, or the 5-channel
/// filter bank. Neighbouring regions differ by ~67 gray levels, so at the
/// default bandwidths some cross-region weights are kept and others fall
/// below the 1e-6 threshold.
fn features(w: usize, h: usize, seed: u64, bank: bool) -> Vec<Image> {
    let scene = segmentable_scene(w, h, seed, 4);
    if bank {
        filter_bank_features(&scene.image)
    } else {
        vec![scene.image]
    }
}

/// A deterministic operand in [-1, 1) with some `+0.0` and `-0.0` entries.
fn operand(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 11 {
            3 => 0.0,
            7 => -0.0,
            _ => {
                let x = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }
        })
        .collect()
}

/// Asserts `a` and `b` hold the same bits, naming the first difference.
fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
        panic!("{what}: index {i} holds {:e}, reference {:e}", a[i], b[i]);
    }
}

fn inv_sqrt(d: &[f64]) -> Vec<f64> {
    d.iter()
        .map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 })
        .collect()
}

/// Checks one stencil against its reference: the same entries, then
/// `row_sums`, `scale_sym` and `apply` to the bit.
fn assert_matches_reference(mut stencil: AffinityStencil, mut csr: CsrMatrix, what: &str) {
    assert!(stencil.to_csr() == csr, "{what}: entries differ");
    let d = stencil.row_sums();
    assert_same_bits(&d, &csr.row_sums(), &format!("{what}: row sums"));
    let dinv = inv_sqrt(&d);
    stencil.scale_sym(&dinv);
    csr.scale_sym(&dinv);
    assert!(stencil.to_csr() == csr, "{what}: scaled entries differ");
    let n = csr.dim();
    let x = operand(n, n as u64);
    let mut y = vec![f64::NAN; n];
    stencil.apply(&x, &mut y);
    assert_same_bits(&y, &csr.matvec(&x), &format!("{what}: matvec"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes (each side in 1..=2r+2, or a paper size), radius 1-4,
    /// 1 or 5 channels, under every policy.
    #[test]
    fn stencil_matches_the_triplet_csr_bit_for_bit(
        kind in 0usize..8,
        side_w in 0usize..10,
        side_h in 0usize..10,
        radius in 1usize..=4,
        bank in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let (w, h) = match kind {
            5..=7 => SIZES[kind - 5],
            _ => (1 + side_w % (2 * radius + 2), 1 + side_h % (2 * radius + 2)),
        };
        let feats = features(w, h, seed, bank == 1);
        let csr = triplet_adjacency(&feats, radius, 25.0, 6.0, ExecPolicy::Serial);
        for policy in POLICIES {
            let stencil = adjacency_matrix_with(&feats, radius, 25.0, 6.0, policy);
            assert_matches_reference(
                stencil,
                csr.clone(),
                &format!("{w}x{h} r{radius} bank {bank} {policy:?}"),
            );
        }
    }
}

/// Widths and heights at or below 2r, where two neighbour offsets share a
/// linear offset and only one of them is inside the image at any pixel.
#[test]
fn narrow_shapes_match_the_triplet_csr() {
    let shapes = [
        (1, 1),
        (1, 9),
        (9, 1),
        (2, 3),
        (3, 2),
        (4, 4),
        (6, 5),
        (5, 7),
        (7, 5),
    ];
    for (w, h) in shapes {
        for radius in 1..=4 {
            for bank in [false, true] {
                let feats = features(w, h, (w * 31 + h) as u64, bank);
                let csr = triplet_adjacency(&feats, radius, 25.0, 6.0, ExecPolicy::Serial);
                for policy in POLICIES {
                    let stencil = adjacency_matrix_with(&feats, radius, 25.0, 6.0, policy);
                    let what = format!("{w}x{h} r{radius} bank {bank} {policy:?}");
                    assert_matches_reference(stencil, csr.clone(), &what);
                }
            }
        }
    }
}

/// The normalized-cuts eigensolve at SQCIF returns the same eigenpairs,
/// to the bit, on the stencil as on the reference CSR.
#[test]
fn lanczos_eigenvectors_match_at_sqcif() {
    let (w, h) = SIZES[0];
    let feats = features(w, h, 17, true);
    let mut stencil = adjacency_matrix_with(&feats, 3, 25.0, 6.0, ExecPolicy::Serial);
    let mut csr = triplet_adjacency(&feats, 3, 25.0, 6.0, ExecPolicy::Serial);
    let dinv = inv_sqrt(&stencil.row_sums());
    stencil.scale_sym(&dinv);
    csr.scale_sym(&dinv);
    let start: Vec<f64> = (0..w * h).map(|i| 0.1 + (i % 97) as f64 / 97.0).collect();
    let a = lanczos_deflated(&stencil, 4, &start, 60).expect("stencil eigensolve");
    let b = lanczos_deflated(&csr, 4, &start, 60).expect("reference eigensolve");
    assert_same_bits(&a.values, &b.values, "eigenvalues");
    assert_eq!(a.steps, b.steps);
    for (j, (va, vb)) in a.vectors.iter().zip(&b.vectors).enumerate() {
        assert_same_bits(va, vb, &format!("eigenvector {j}"));
    }
}

/// The Lanczos loops the fused Krylov loop replaced (the matrix crate's
/// test-only copy).
#[path = "../../matrix/src/lanczos_reference.rs"]
mod lanczos_reference;

/// The fused Krylov loop returns the replaced loop's eigenpairs and step
/// count, to the bit, on the normalized CIF stencil of one seed with the
/// start vector and step count `segment` uses.
#[test]
fn fused_lanczos_matches_the_replaced_loop_on_the_cif_stencil() {
    let (w, h) = SIZES[2];
    let feats = features(w, h, 3, true);
    let mut stencil = adjacency_matrix_with(&feats, 3, 25.0, 6.0, ExecPolicy::Serial);
    stencil.scale_sym(&inv_sqrt(&stencil.row_sums()));
    let start: Vec<f64> = (0..w * h)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) % 1000) as f64 / 1000.0 + 0.1
        })
        .collect();
    let a = lanczos_deflated(&stencil, 4, &start, 60).expect("fused eigensolve");
    let b = lanczos_reference::lanczos_deflated(&stencil, 4, &start, 60).expect("reference");
    assert_eq!(a.steps, b.steps);
    assert_same_bits(&a.values, &b.values, "eigenvalues");
    for (j, (va, vb)) in a.vectors.iter().zip(&b.vectors).enumerate() {
        assert_same_bits(va, vb, &format!("eigenvector {j}"));
    }
}

/// Five seeds at SQCIF and QCIF, as the suite draws them.
fn pinned_scenes() -> impl Iterator<Item = (String, Image)> {
    SIZES[..2].iter().flat_map(|&(w, h)| {
        (1..=5u64).map(move |seed| {
            let scene = segmentable_scene(w, h, seed, SegmentationConfig::default().segments);
            (format!("{w}x{h} seed {seed}"), scene.image)
        })
    })
}

#[test]
fn segment_labels_match_the_reference_pipeline() {
    let cfg = SegmentationConfig::default();
    for (what, img) in pinned_scenes() {
        let got = segment(&img, &cfg, &mut Profiler::new()).expect("stencil pipeline");
        let want = segment_on(&img, &cfg, &mut Profiler::new(), triplet_adjacency)
            .expect("reference pipeline");
        assert!(got.labels() == want.labels(), "{what}: labels differ");
    }
}

#[test]
fn segment_recursive_labels_match_the_reference_pipeline() {
    let cfg = SegmentationConfig::default();
    for (what, img) in pinned_scenes() {
        let got = segment_recursive(&img, &cfg, &mut Profiler::new()).expect("stencil pipeline");
        let want = segment_recursive_on(&img, &cfg, &mut Profiler::new(), triplet_adjacency)
            .expect("reference pipeline");
        assert!(got.labels() == want.labels(), "{what}: labels differ");
    }
}
