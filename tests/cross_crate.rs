//! Cross-crate integration: the suite's components composed in ways the
//! paper's applications compose them (features feeding geometric
//! estimation, trackers measuring stereo disparity).

use sdvbs::profile::Profiler;
use sdvbs::sift::{match_descriptors, try_detect_and_describe, SiftConfig};
use sdvbs::stitch::{estimate_affine_ransac, Affine};
use sdvbs::synth::{overlapping_pair, stereo_pair};
use sdvbs::tracking::{try_track_pair, TrackingConfig};

/// SIFT keypoints + stitch's RANSAC recover the transform between two
/// views — the exact composition the paper describes for image stitch
/// ("SIFT ... finds wide applicability in ... image stitching").
#[test]
fn sift_features_drive_ransac_alignment() {
    let pair = overlapping_pair(160, 120, 21, 0.02, 10.0, 3.0);
    let mut prof = Profiler::new();
    // Value-noise scenes are self-similar, so ambiguous descriptors get
    // pruned by the ratio test; a lower contrast threshold recovers more
    // keypoints to match.
    let cfg = SiftConfig {
        contrast_threshold: 0.012,
        ..SiftConfig::default()
    };
    let fa = try_detect_and_describe(&pair.a, &cfg, &mut prof).expect("valid image");
    let fb = try_detect_and_describe(&pair.b, &cfg, &mut prof).expect("valid image");
    let matches = match_descriptors(&fb, &fa, 0.9);
    assert!(matches.len() >= 8, "only {} SIFT matches", matches.len());
    let src: Vec<(f64, f64)> = matches
        .iter()
        .map(|m| (fb[m.a].keypoint.x as f64, fb[m.a].keypoint.y as f64))
        .collect();
    let dst: Vec<(f64, f64)> = matches
        .iter()
        .map(|m| (fa[m.b].keypoint.x as f64, fa[m.b].keypoint.y as f64))
        .collect();
    let est =
        estimate_affine_ransac(&src, &dst, 800, 3.0, 6, 3).expect("RANSAC finds the alignment");
    let truth = Affine::from_coeffs(pair.b_to_a);
    let diff = est.transform.max_coeff_diff(&truth);
    assert!(
        diff < 2.0,
        "transform error {diff}: {} vs {truth}",
        est.transform
    );
}

/// The KLT tracker applied across a stereo pair measures disparity: the
/// horizontal motion of each tracked feature should match the
/// ground-truth disparity map (features move by -d from left to right).
#[test]
fn tracker_recovers_stereo_disparity_at_features() {
    let scene = stereo_pair(128, 96, 33);
    let cfg = TrackingConfig::default();
    let mut prof = Profiler::new();
    let tracks =
        try_track_pair(&scene.left, &scene.right, &cfg, &mut prof).expect("valid frame pair");
    assert!(tracks.len() >= 10, "too few tracks: {}", tracks.len());
    let mut checked = 0;
    let mut consistent = 0;
    for t in &tracks {
        let (dx, dy) = t.motion();
        // Stereo motion is horizontal.
        if dy.abs() > 1.0 || !t.converged {
            continue;
        }
        let x = t.from.x.round() as usize;
        let y = t.from.y.round() as usize;
        if x >= scene.truth.width() || y >= scene.truth.height() {
            continue;
        }
        let d = scene.truth.get(x, y);
        checked += 1;
        if (dx + d).abs() <= 1.5 {
            consistent += 1;
        }
    }
    assert!(checked >= 8, "only {checked} usable tracks");
    assert!(
        consistent * 10 >= checked * 7,
        "{consistent}/{checked} tracks match ground-truth disparity"
    );
}

/// The dataflow tracer agrees with the profiler-level intuition: a kernel
/// with independent per-pixel work (SSD) shows far more intrinsic
/// parallelism than a serial-iteration kernel (conjugate gradient).
#[test]
fn dataflow_parallelism_ordering_matches_kernel_structure() {
    use sdvbs::dataflow::kernels as dk;
    let ssd = dk::ssd(48, 36);
    let cg = dk::conjugate_matrix(48, 12);
    // SSD's dependence depth is logarithmic (one reduction tree); CG's
    // grows with the iteration count. Both the span ordering and the
    // parallelism ordering must reflect that.
    assert!(
        ssd.span * 5 < cg.span,
        "spans: SSD {} vs CG {}",
        ssd.span,
        cg.span
    );
    assert!(
        ssd.parallelism() > cg.parallelism(),
        "SSD {}x vs CG {}x",
        ssd.parallelism(),
        cg.parallelism()
    );
}
