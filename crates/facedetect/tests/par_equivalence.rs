//! Serial vs parallel equivalence for the sliding-window cascade scan.
//!
//! `DetectorConfig::exec` promises **bit-identical** detections under any
//! [`ExecPolicy`]: scan rows are distributed over workers and their
//! detections rejoined in serial scan order, so the stabilization
//! (merge) stage sees the same raw window sequence. Verified for 1, 2
//! and 4 threads at the paper's three input sizes.

use proptest::prelude::*;
use sdvbs_exec::ExecPolicy;
use sdvbs_facedetect::{try_detect_faces, Cascade, DetectorConfig};
use sdvbs_profile::Profiler;
use sdvbs_synth::face_scene;

/// The paper's three input sizes: SQCIF, QCIF, CIF.
const SIZES: [(usize, usize); 3] = [(128, 96), (176, 144), (352, 288)];

/// The shipped default cascade.
fn cascade() -> &'static Cascade {
    Cascade::pretrained()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn detections_are_policy_invariant(seed in 0u64..10_000, size in 0usize..3) {
        let (w, h) = SIZES[size];
        let scene = face_scene(w, h, seed, 2);
        let base = DetectorConfig::default();
        let mut prof = Profiler::new();
        let serial = try_detect_faces(&scene.image, cascade(), &base, &mut prof).expect("valid image");
        for n in [1usize, 2, 4] {
            let cfg = DetectorConfig { exec: ExecPolicy::Threads(n), ..base };
            let mut prof = Profiler::new();
            let par = try_detect_faces(&scene.image, cascade(), &cfg, &mut prof).expect("valid image");
            prop_assert_eq!(&par, &serial, "threads = {}", n);
            // The scan kernel is still attributed after absorption.
            prop_assert!(
                prof.report().occupancy("ExtractFaces").is_some(),
                "ExtractFaces attribution lost at {} threads",
                n
            );
        }
    }
}

#[test]
fn auto_policy_matches_serial_too() {
    let scene = face_scene(128, 96, 3, 1);
    let mut prof = Profiler::new();
    let serial = try_detect_faces(
        &scene.image,
        cascade(),
        &DetectorConfig::default(),
        &mut prof,
    )
    .expect("valid image");
    let cfg = DetectorConfig {
        exec: ExecPolicy::Auto,
        ..DetectorConfig::default()
    };
    let par = try_detect_faces(&scene.image, cascade(), &cfg, &mut prof).expect("valid image");
    assert_eq!(par, serial);
}
