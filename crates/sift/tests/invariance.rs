//! Invariance tests: the properties that give SIFT its name
//! (scale-invariant, rotation-robust feature transform).

use sdvbs_image::Image;
use sdvbs_profile::Profiler;
use sdvbs_sift::{match_descriptors, try_detect_and_describe, SiftConfig};
use sdvbs_synth::textured_image;

fn config() -> SiftConfig {
    SiftConfig {
        contrast_threshold: 0.012,
        ..SiftConfig::default()
    }
}

/// Matches under a 90° rotation must land at geometrically consistent
/// positions (rot90 is lossless, so descriptors should match well).
#[test]
fn rotation_by_90_degrees_preserves_matches() {
    let img = textured_image(96, 96, 31);
    let rot = img.rotate90_cw();
    let mut prof = Profiler::new();
    let fa = try_detect_and_describe(&img, &config(), &mut prof).expect("valid image");
    let fb = try_detect_and_describe(&rot, &config(), &mut prof).expect("valid image");
    assert!(fa.len() >= 15, "only {} keypoints", fa.len());
    let matches = match_descriptors(&fa, &fb, 0.85);
    assert!(
        matches.len() >= 6,
        "only {} matches under rotation",
        matches.len()
    );
    // Geometric consistency: (x, y) in the original maps to
    // (h - 1 - y, x) in the clockwise-rotated image.
    let h = img.height() as f32;
    let mut consistent = 0;
    for m in &matches {
        let a = &fa[m.a].keypoint;
        let b = &fb[m.b].keypoint;
        let expect_x = h - 1.0 - a.y;
        let expect_y = a.x;
        if (b.x - expect_x).abs() < 3.0 && (b.y - expect_y).abs() < 3.0 {
            consistent += 1;
        }
    }
    assert!(
        consistent * 3 >= matches.len() * 2,
        "{consistent}/{} geometrically consistent",
        matches.len()
    );
}

/// Doubling the image scale should roughly double detected keypoint
/// scales for corresponding structures.
#[test]
fn keypoint_scale_follows_image_scale() {
    let img = textured_image(72, 72, 17);
    let big = img.resize_bilinear(144, 144);
    let mut prof = Profiler::new();
    let cfg = SiftConfig {
        double_size: false,
        ..config()
    };
    let fa = try_detect_and_describe(&img, &cfg, &mut prof).expect("valid image");
    let fb = try_detect_and_describe(&big, &cfg, &mut prof).expect("valid image");
    assert!(!fa.is_empty() && !fb.is_empty());
    // Compare scales of *matched* pairs (the upscaled image also grows
    // brand-new fine-scale keypoints, so a global mean is meaningless).
    let matches = match_descriptors(&fa, &fb, 0.85);
    assert!(
        matches.len() >= 5,
        "only {} cross-scale matches",
        matches.len()
    );
    let mut ratios: Vec<f64> = matches
        .iter()
        .map(|m| fb[m.b].keypoint.sigma as f64 / fa[m.a].keypoint.sigma as f64)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite scales"));
    let median = ratios[ratios.len() / 2];
    assert!(
        (1.4..=2.8).contains(&median),
        "median matched-keypoint scale ratio {median:.2}, expected ~2"
    );
}

/// Brightness and contrast changes must not change the descriptor
/// (gradients are normalized).
#[test]
fn descriptors_are_lighting_invariant() {
    let img = textured_image(80, 80, 23);
    let relit = img.map(|v| 0.5 * v + 60.0);
    let mut prof = Profiler::new();
    let fa = try_detect_and_describe(&img, &config(), &mut prof).expect("valid image");
    let fb = try_detect_and_describe(&relit, &config(), &mut prof).expect("valid image");
    let matches = match_descriptors(&fa, &fb, 0.8);
    assert!(
        matches.len() >= 10,
        "only {} matches after relighting",
        matches.len()
    );
    // Matched keypoints stay at the same positions.
    let mut same_pos = 0;
    for m in &matches {
        let a = &fa[m.a].keypoint;
        let b = &fb[m.b].keypoint;
        if (a.x - b.x).abs() < 1.5 && (a.y - b.y).abs() < 1.5 {
            same_pos += 1;
        }
    }
    assert!(
        same_pos * 4 >= matches.len() * 3,
        "{same_pos}/{}",
        matches.len()
    );
}

/// Mild additive noise should not destroy matching.
#[test]
fn robust_to_additive_noise() {
    let img = textured_image(80, 80, 29);
    let noisy = Image::from_fn(80, 80, |x, y| {
        let n = (((x * 31 + y * 17) % 13) as f32 - 6.0) * 0.8;
        img.get(x, y) + n
    });
    let mut prof = Profiler::new();
    let fa = try_detect_and_describe(&img, &config(), &mut prof).expect("valid image");
    let fb = try_detect_and_describe(&noisy, &config(), &mut prof).expect("valid image");
    let matches = match_descriptors(&fa, &fb, 0.8);
    assert!(
        matches.len() >= 8,
        "only {} matches under noise",
        matches.len()
    );
}
