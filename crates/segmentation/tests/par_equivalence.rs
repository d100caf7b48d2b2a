//! Serial vs parallel equivalence for affinity-matrix construction.
//!
//! `adjacency_matrix_with` promises a **bit-identical** affinity stencil
//! under any [`ExecPolicy`]: workers fill disjoint bands of pixel rows of
//! each weight plane, and each weight depends on its pixel pair alone.
//! Verified for 1, 2 and 4 threads at the paper's three input sizes.

use proptest::prelude::*;
use sdvbs_exec::ExecPolicy;
use sdvbs_profile::Profiler;
use sdvbs_segmentation::{
    adjacency_matrix, adjacency_matrix_with, filter_bank_features, segment, SegmentationConfig,
};
use sdvbs_synth::segmentable_scene;

/// The paper's three input sizes: SQCIF, QCIF, CIF.
const SIZES: [(usize, usize); 3] = [(128, 96), (176, 144), (352, 288)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn adjacency_matrix_is_policy_invariant(seed in 0u64..10_000, size in 0usize..3) {
        let (w, h) = SIZES[size];
        let scene = segmentable_scene(w, h, seed, 4);
        let features = filter_bank_features(&scene.image);
        let serial = adjacency_matrix(&features, 3, 25.0, 6.0);
        for n in [1usize, 2, 4] {
            let par = adjacency_matrix_with(&features, 3, 25.0, 6.0, ExecPolicy::Threads(n));
            prop_assert_eq!(&par, &serial, "threads = {}", n);
        }
    }
}

#[test]
fn segment_pipeline_is_policy_invariant() {
    // End-to-end: the whole normalized-cuts pipeline produces identical
    // labels when only the Adjacencymatrix construction is parallelized.
    let scene = segmentable_scene(64, 48, 11, 3);
    let base = SegmentationConfig {
        segments: 3,
        ..SegmentationConfig::default()
    };
    let mut prof = Profiler::new();
    let serial = segment(&scene.image, &base, &mut prof).expect("serial segmentation");
    for n in [2usize, 4] {
        let cfg = SegmentationConfig {
            exec: ExecPolicy::Threads(n),
            ..base
        };
        let mut prof = Profiler::new();
        let par = segment(&scene.image, &cfg, &mut prof).expect("parallel segmentation");
        assert_eq!(par.labels(), serial.labels(), "threads = {n}");
    }
}
