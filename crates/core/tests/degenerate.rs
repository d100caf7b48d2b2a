//! Degenerate-input properties for the fallible benchmark path.
//!
//! The robustness contract: no input a harness can construct — 0×0
//! frames, 1×1 frames, arbitrary tiny sizes, NaN-poisoned pixels — may
//! panic inside [`Benchmark::try_run_with`]. Degenerate sizes are clamped
//! up to each pipeline's minimum and must succeed; poisoned inputs must
//! surface as the benchmark crate's own typed error, carried by
//! [`SdvbsError`], never an abort. Panics are trapped
//! with `catch_unwind` so a violation fails the property with the
//! benchmark named instead of killing the test binary.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdvbs_core::{
    all_benchmarks, clear_poison, set_poison, Benchmark, ExecPolicy, InputSize, PoisonSpec,
    RunOutcome, SdvbsError,
};
use sdvbs_profile::Profiler;
use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one benchmark through the fallible path, trapping panics.
fn try_cell(
    bench: &(dyn Benchmark + Send + Sync),
    size: InputSize,
    seed: u64,
) -> Result<Result<RunOutcome, SdvbsError>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut prof = Profiler::new();
        bench.try_run_with(size, seed, ExecPolicy::Serial, &mut prof)
    }))
    .map_err(|_| format!("{} panicked", bench.info().name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary tiny sizes — including the fully degenerate 0×0 and 1×1 —
    /// succeed through every benchmark: each pipeline clamps its synthetic
    /// input up to its own minimum instead of panicking on an impossible
    /// geometry.
    #[test]
    fn tiny_and_zero_sizes_never_panic(
        width in 0usize..4,
        height in 0usize..4,
        seed in 0u64..1_000,
    ) {
        clear_poison();
        let size = InputSize::Custom { width, height };
        for bench in all_benchmarks() {
            let result = try_cell(bench.as_ref(), size, seed);
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(msg) => return Err(TestCaseError::fail(msg)),
            };
            prop_assert!(
                outcome.is_ok(),
                "{} must clamp {}x{} up, got {:?}",
                bench.info().name,
                width,
                height,
                outcome.err()
            );
        }
    }

    /// NaN-poisoned inputs surface as a typed error from every benchmark:
    /// the poison flows through the kernels' finiteness validation instead
    /// of propagating NaN into results or panicking.
    #[test]
    fn nan_poisoned_inputs_yield_typed_errors(
        stride in 1usize..64,
        seed in 0u64..1_000,
    ) {
        for bench in all_benchmarks() {
            set_poison(PoisonSpec { stride, seed });
            let result = try_cell(
                bench.as_ref(),
                InputSize::Custom { width: 32, height: 24 },
                seed,
            );
            clear_poison();
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(msg) => return Err(TestCaseError::fail(msg)),
            };
            prop_assert!(
                outcome.is_err(),
                "{} must reject NaN input with a typed error, got {:?}",
                bench.info().name,
                outcome.ok()
            );
        }
    }

    /// A single-color (zero-contrast) scene is a valid input everywhere:
    /// featureless, but never a panic and never a NaN quality score.
    #[test]
    fn featureless_scenes_produce_finite_outcomes(seed in 0u64..1_000) {
        clear_poison();
        for bench in all_benchmarks() {
            let result = try_cell(
                bench.as_ref(),
                InputSize::Custom { width: 1, height: 1 },
                seed,
            );
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(msg) => return Err(TestCaseError::fail(msg)),
            };
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{}: {e}", bench.info().name
                ))),
            };
            if let Some(q) = outcome.quality {
                prop_assert!(
                    q.is_finite(),
                    "{} quality must be finite, got {q}",
                    bench.info().name
                );
            }
        }
    }
}

/// The message of the benchmark `name`'s crate error if `err` carries
/// one.
fn crate_message(name: &str, err: &SdvbsError) -> Option<String> {
    fn carried<E: Error + 'static>(err: &SdvbsError) -> Option<String> {
        err.source()?.downcast_ref::<E>().map(E::to_string)
    }
    match name {
        "Disparity Map" => carried::<sdvbs_disparity::DisparityError>(err),
        "Feature Tracking" => carried::<sdvbs_tracking::TrackingError>(err),
        "Image Segmentation" => carried::<sdvbs_segmentation::SegmentationError>(err),
        "SIFT" => carried::<sdvbs_sift::SiftError>(err),
        "Robot Localization" => carried::<sdvbs_localization::MclError>(err),
        "SVM" => carried::<sdvbs_svm::SvmError>(err),
        "Face Detection" => carried::<sdvbs_facedetect::DetectError>(err),
        "Image Stitch" => carried::<sdvbs_stitch::StitchError>(err),
        "Texture Synthesis" => carried::<sdvbs_texture::TextureError>(err),
        other => panic!("no crate error listed for {other}"),
    }
}

/// A NaN-poisoned run fails with its benchmark crate's own error: the
/// source downcasts to that crate's type and the message is its own.
#[test]
fn a_poisoned_run_carries_its_crate_error() {
    for bench in all_benchmarks() {
        let name = bench.info().name;
        set_poison(PoisonSpec {
            stride: 16,
            seed: 5,
        });
        let result = try_cell(
            bench.as_ref(),
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            5,
        );
        clear_poison();
        let err = result
            .unwrap_or_else(|panicked| panic!("{panicked}"))
            .expect_err(name);
        assert_eq!(
            crate_message(name, &err),
            Some(err.to_string()),
            "{name}: {err:?} does not carry its crate's error"
        );
    }
}
