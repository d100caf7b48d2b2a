//! Failure injection: degenerate and adversarial inputs must produce
//! structured errors or graceful degradation — never panics — across the
//! public API.

use sdvbs::core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs::image::Image;
use sdvbs::profile::Profiler;

/// Every benchmark must survive a degenerate 1×1 "size class" (each
/// clamps to its own minimum working size rather than panicking).
#[test]
fn suite_survives_degenerate_sizes() {
    let size = InputSize::Custom {
        width: 1,
        height: 1,
    };
    for bench in all_benchmarks() {
        bench.warmup();
        let mut prof = Profiler::new();
        // A typed error is a structured outcome too; only a panic fails.
        let detail = bench
            .try_run_with(size, 1, ExecPolicy::Serial, &mut prof)
            .map_or_else(|e| e.to_string(), |outcome| outcome.detail);
        assert!(
            !detail.is_empty(),
            "{} returned empty detail",
            bench.info().name
        );
    }
}

/// Featureless (flat) imagery degrades gracefully everywhere.
#[test]
fn flat_inputs_degrade_gracefully() {
    let flat = Image::filled(96, 72, 100.0);
    let mut prof = Profiler::new();
    // Tracking: no features, no tracks, no panic.
    let tracks = sdvbs::tracking::try_track_pair(
        &flat,
        &flat,
        &sdvbs::tracking::TrackingConfig::default(),
        &mut prof,
    )
    .expect("valid frame pair");
    assert!(tracks.is_empty());
    // SIFT: no keypoints.
    let feats =
        sdvbs::sift::try_detect_and_describe(&flat, &sdvbs::sift::SiftConfig::default(), &mut prof)
            .expect("valid image");
    assert!(feats.is_empty());
    // Stitch: structured error.
    assert!(matches!(
        sdvbs::stitch::stitch(
            &flat,
            &flat,
            &sdvbs::stitch::StitchConfig::default(),
            &mut prof
        ),
        Err(sdvbs::stitch::StitchError::TooFewFeatures { .. })
    ));
    // MSER: nothing to report.
    assert!(sdvbs::sift::detect_mser(
        &flat,
        sdvbs::sift::MserPolarity::Dark,
        &sdvbs::sift::MserConfig::default()
    )
    .is_empty());
    // Disparity on identical flat images: all-zero disparity, not a crash.
    let disp = sdvbs::disparity::try_compute_disparity(
        &flat,
        &flat,
        &sdvbs::disparity::DisparityConfig::default(),
        &mut prof,
    )
    .expect("valid stereo pair");
    assert!(disp.as_slice().iter().all(|&v| v == 0.0));
}

/// Non-finite pixel values must not poison detectors into panicking.
#[test]
fn nan_pixels_do_not_panic_detectors() {
    let mut img = sdvbs::synth::textured_image(64, 64, 3);
    // Inject a NaN island.
    for y in 10..14 {
        for x in 10..14 {
            img.set(x, y, f32::NAN);
        }
    }
    // Gaussian blur and gradients propagate NaN but must not panic.
    let blurred = sdvbs::kernels::conv::gaussian_blur(&img, 1.0);
    assert!(blurred.as_slice().iter().any(|v| v.is_nan()));
    let gx = sdvbs::kernels::gradient::gradient_x(&img);
    let _ = gx.get(0, 0);
    // Integral images accumulate prefix sums, so NaN poisons everything
    // right of / below the island — but the prefix region stays usable.
    let ii = sdvbs::kernels::integral::IntegralImage::new(&img);
    assert!(ii.sum(0, 0, 8, 8).is_finite());
    assert!(!ii.sum(8, 8, 16, 16).is_finite());
}

/// Corrupted persisted models are rejected with structured errors.
#[test]
fn corrupted_cascade_models_are_rejected() {
    use sdvbs::facedetect::{Cascade, ModelIoError};
    let dir = std::env::temp_dir();
    let path = dir.join(format!("sdvbs_corrupt_{}.txt", std::process::id()));
    for contents in [
        "",                                                        // empty
        "SDVBS-CASCADE 1\n",                                       // truncated header
        "SDVBS-CASCADE 1\nwindow 0\nstages 1\n",                   // implausible window
        "SDVBS-CASCADE 1\nwindow 24\nstages 1\nstage 1 nan-ish\n", // bad number
    ] {
        std::fs::write(&path, contents).unwrap();
        assert!(
            matches!(Cascade::load(&path), Err(ModelIoError::Malformed(_))),
            "accepted corrupt model: {contents:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// RANSAC with pure-outlier correspondences fails cleanly instead of
/// returning a bogus transform.
#[test]
fn ransac_rejects_pure_noise() {
    // Deterministic scatter with no consistent affine relation.
    let src: Vec<(f64, f64)> = (0..30)
        .map(|i| ((i * 37 % 97) as f64, (i * 53 % 89) as f64))
        .collect();
    let dst: Vec<(f64, f64)> = (0..30)
        .map(|i| ((i * 71 % 83) as f64, (i * 29 % 79) as f64))
        .collect();
    let est = sdvbs::stitch::estimate_affine_ransac(&src, &dst, 300, 1.0, 12, 5);
    assert!(est.is_none(), "RANSAC hallucinated a model from noise");
}

/// The localizer stays numerically sane when sensors drop out entirely
/// (odometry-only dead reckoning with growing uncertainty).
#[test]
fn localization_survives_sensor_dropout() {
    use sdvbs::localization::{MclConfig, MonteCarloLocalizer, World, WorldConfig};
    let world = World::generate(&WorldConfig::default());
    let traj = world.simulate(20, 5);
    let mut mcl = MonteCarloLocalizer::new(&world, &MclConfig::default());
    let mut prof = Profiler::new();
    for step in &traj.steps {
        // Drop every measurement: the filter must keep predicting.
        mcl.try_step(&step.odometry, &[], &world, &mut prof)
            .expect("finite sensor data");
    }
    let est = mcl.estimate();
    assert!(est.x.is_finite() && est.y.is_finite() && est.theta.is_finite());
    // Weights remain a valid distribution.
    let wsum: f64 = mcl.particles().iter().map(|p| p.weight).sum();
    assert!((wsum - 1.0).abs() < 1e-6, "weight sum {wsum}");
}
