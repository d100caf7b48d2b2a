//! The suite-wide error taxonomy.
//!
//! Every benchmark crate keeps its own narrow error type (`MatrixError`,
//! `SvmError`, `StitchError`, …) so the substrate crates stay
//! dependency-light; [`SdvbsError`] is the *workspace* view of all of
//! them, produced by the fallible [`crate::Benchmark::try_run_with`] path
//! and consumed by the runner, which records a failed cell as a typed
//! outcome instead of letting the process abort.

use std::error::Error;
use std::fmt;

/// Convenience alias for suite-level results.
pub type SdvbsResult<T> = std::result::Result<T, SdvbsError>;

/// The suite-wide error taxonomy: every way a benchmark cell can fail
/// without the process panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SdvbsError {
    /// Operand or image dimensions are incompatible.
    DimensionMismatch {
        /// Dimensions expected by the operation (width/rows × height/cols).
        expected: (usize, usize),
        /// Dimensions actually supplied.
        found: (usize, usize),
    },
    /// An input is empty (zero-sized image, empty feature set, no
    /// measurements) where the pipeline needs data.
    EmptyInput {
        /// What was empty.
        what: &'static str,
    },
    /// An input is too small for the pipeline's structural minimum (e.g.
    /// an image smaller than the aggregation window).
    InputTooSmall {
        /// What was too small.
        what: &'static str,
        /// The minimum the pipeline requires.
        min: usize,
        /// What was found.
        found: usize,
    },
    /// Input data contains NaN or infinity where finite values are
    /// required.
    NonFiniteData {
        /// Where the non-finite value was found.
        what: &'static str,
    },
    /// A direct solve hit a singular (or numerically singular) matrix.
    SingularSystem,
    /// An iterative solver (Jacobi sweep, Lanczos, SMO, interior-point)
    /// exhausted its iteration budget without converging.
    NonConvergent {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A configuration value is out of its documented range.
    InvalidConfig(String),
    /// A benchmark-specific failure that maps to none of the shared
    /// variants (the message is the crate error's display form).
    Pipeline(String),
}

impl fmt::Display for SdvbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdvbsError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SdvbsError::EmptyInput { what } => write!(f, "empty input: {what}"),
            SdvbsError::InputTooSmall { what, min, found } => {
                write!(f, "{what} too small: need at least {min}, found {found}")
            }
            SdvbsError::NonFiniteData { what } => {
                write!(f, "non-finite data (NaN or infinity) in {what}")
            }
            SdvbsError::SingularSystem => {
                write!(f, "matrix is singular to working precision")
            }
            SdvbsError::NonConvergent { iterations } => {
                write!(f, "solver did not converge within {iterations} iterations")
            }
            SdvbsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SdvbsError::Pipeline(msg) => write!(f, "pipeline failure: {msg}"),
        }
    }
}

impl Error for SdvbsError {}

impl From<sdvbs_matrix::MatrixError> for SdvbsError {
    fn from(e: sdvbs_matrix::MatrixError) -> Self {
        use sdvbs_matrix::MatrixError;
        match e {
            MatrixError::DimensionMismatch { expected, found } => {
                SdvbsError::DimensionMismatch { expected, found }
            }
            MatrixError::Singular => SdvbsError::SingularSystem,
            MatrixError::NoConvergence { iterations } => SdvbsError::NonConvergent { iterations },
            MatrixError::Empty => SdvbsError::EmptyInput { what: "matrix" },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_image::ImageError> for SdvbsError {
    fn from(e: sdvbs_image::ImageError) -> Self {
        SdvbsError::Pipeline(e.to_string())
    }
}

impl From<sdvbs_profile::ProfileError> for SdvbsError {
    fn from(e: sdvbs_profile::ProfileError) -> Self {
        SdvbsError::Pipeline(e.to_string())
    }
}

impl From<sdvbs_disparity::DisparityError> for SdvbsError {
    fn from(e: sdvbs_disparity::DisparityError) -> Self {
        use sdvbs_disparity::DisparityError;
        match e {
            DisparityError::DimensionMismatch { left, right } => SdvbsError::DimensionMismatch {
                expected: left,
                found: right,
            },
            DisparityError::ImageTooSmall { window, side } => SdvbsError::InputTooSmall {
                what: "stereo image",
                min: window,
                found: side,
            },
            DisparityError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "stereo image pixels",
            },
            DisparityError::Empty => SdvbsError::EmptyInput {
                what: "stereo image",
            },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_tracking::TrackingError> for SdvbsError {
    fn from(e: sdvbs_tracking::TrackingError) -> Self {
        use sdvbs_tracking::TrackingError;
        match e {
            TrackingError::DimensionMismatch { a, b } => SdvbsError::DimensionMismatch {
                expected: a,
                found: b,
            },
            TrackingError::Empty => SdvbsError::EmptyInput { what: "frame" },
            TrackingError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "frame pixels",
            },
            TrackingError::InvalidConfig(msg) => SdvbsError::InvalidConfig(msg),
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_sift::SiftError> for SdvbsError {
    fn from(e: sdvbs_sift::SiftError) -> Self {
        use sdvbs_sift::SiftError;
        match e {
            SiftError::ImageTooSmall { min, side } => SdvbsError::InputTooSmall {
                what: "sift input image",
                min,
                found: side,
            },
            SiftError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "sift input pixels",
            },
            SiftError::InvalidConfig(msg) => SdvbsError::InvalidConfig(msg),
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_segmentation::SegmentationError> for SdvbsError {
    fn from(e: sdvbs_segmentation::SegmentationError) -> Self {
        use sdvbs_segmentation::SegmentationError;
        match e {
            SegmentationError::InvalidConfig(msg) => SdvbsError::InvalidConfig(msg),
            SegmentationError::Eigensolve(m) => m.into(),
            SegmentationError::EmptyImage => SdvbsError::EmptyInput {
                what: "segmentation image",
            },
            SegmentationError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "segmentation image pixels",
            },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_svm::SvmError> for SdvbsError {
    fn from(e: sdvbs_svm::SvmError) -> Self {
        use sdvbs_svm::SvmError;
        match e {
            SvmError::InvalidInput(msg) => {
                SdvbsError::Pipeline(format!("invalid svm input: {msg}"))
            }
            SvmError::NoConvergence { iterations } => SdvbsError::NonConvergent { iterations },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_stitch::StitchError> for SdvbsError {
    fn from(e: sdvbs_stitch::StitchError) -> Self {
        use sdvbs_stitch::StitchError;
        match e {
            StitchError::DimensionTooSmall { min, side } => SdvbsError::InputTooSmall {
                what: "stitch input image",
                min,
                found: side,
            },
            StitchError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "stitch input pixels",
            },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_texture::TextureError> for SdvbsError {
    fn from(e: sdvbs_texture::TextureError) -> Self {
        use sdvbs_texture::TextureError;
        match e {
            TextureError::InvalidConfig(msg) => SdvbsError::InvalidConfig(msg),
            TextureError::EmptySwatch => SdvbsError::EmptyInput {
                what: "texture swatch",
            },
            TextureError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "texture swatch pixels",
            },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_facedetect::CascadeError> for SdvbsError {
    fn from(e: sdvbs_facedetect::CascadeError) -> Self {
        SdvbsError::Pipeline(e.to_string())
    }
}

impl From<sdvbs_facedetect::DetectError> for SdvbsError {
    fn from(e: sdvbs_facedetect::DetectError) -> Self {
        use sdvbs_facedetect::DetectError;
        match e {
            DetectError::ImageTooSmall { window, side } => SdvbsError::InputTooSmall {
                what: "detection image",
                min: window,
                found: side,
            },
            DetectError::NonFinitePixels => SdvbsError::NonFiniteData {
                what: "detection image pixels",
            },
            e @ DetectError::ScaleDoesNotGrow { .. } => SdvbsError::InvalidConfig(e.to_string()),
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

impl From<sdvbs_localization::MclError> for SdvbsError {
    fn from(e: sdvbs_localization::MclError) -> Self {
        use sdvbs_localization::MclError;
        match e {
            MclError::NonFiniteMeasurement => SdvbsError::NonFiniteData {
                what: "range measurements",
            },
            MclError::EmptyTrajectory => SdvbsError::EmptyInput { what: "trajectory" },
            other => SdvbsError::Pipeline(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(SdvbsError, &str)> = vec![
            (
                SdvbsError::DimensionMismatch {
                    expected: (2, 2),
                    found: (3, 2),
                },
                "dimension mismatch",
            ),
            (SdvbsError::EmptyInput { what: "matrix" }, "empty input"),
            (
                SdvbsError::InputTooSmall {
                    what: "image",
                    min: 9,
                    found: 4,
                },
                "too small",
            ),
            (SdvbsError::NonFiniteData { what: "pixels" }, "non-finite"),
            (SdvbsError::SingularSystem, "singular"),
            (SdvbsError::NonConvergent { iterations: 5 }, "converge"),
            (SdvbsError::InvalidConfig("x".into()), "configuration"),
            (SdvbsError::Pipeline("y".into()), "pipeline"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn matrix_errors_map_to_shared_variants() {
        use sdvbs_matrix::MatrixError;
        assert_eq!(
            SdvbsError::from(MatrixError::Singular),
            SdvbsError::SingularSystem
        );
        assert_eq!(
            SdvbsError::from(MatrixError::NoConvergence { iterations: 7 }),
            SdvbsError::NonConvergent { iterations: 7 }
        );
        assert_eq!(
            SdvbsError::from(MatrixError::Empty),
            SdvbsError::EmptyInput { what: "matrix" }
        );
    }

    #[test]
    fn a_non_growing_detector_scale_is_a_config_error() {
        use sdvbs_facedetect::DetectError;
        let e = DetectError::ScaleDoesNotGrow {
            window: 24,
            next: 24,
        };
        assert_eq!(
            SdvbsError::from(e.clone()),
            SdvbsError::InvalidConfig(e.to_string())
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SdvbsError>();
    }
}
