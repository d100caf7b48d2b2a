//! The error of a failed benchmark run.
//!
//! Every benchmark crate keeps its own typed error (`DisparityError`,
//! `SvmError`, `DetectError`, …). [`SdvbsError`] carries that error
//! unchanged out of [`crate::Benchmark::try_run_with`], so one signature
//! serves all nine benchmarks and the runner can record a failed cell as
//! an outcome instead of letting the process abort.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Convenience alias for suite-level results.
pub type SdvbsResult<T> = std::result::Result<T, SdvbsError>;

/// A failed benchmark run: the benchmark crate's own typed error.
///
/// Its `Display` is the crate error's message and [`Error::source`] is the
/// crate error itself, so a caller that needs the variant downcasts it.
/// Clones share the crate error; two errors are equal when their messages
/// are.
///
/// ```
/// use sdvbs_core::{all_benchmarks, clear_poison, set_poison, ExecPolicy, InputSize, PoisonSpec};
/// use sdvbs_disparity::DisparityError;
/// use sdvbs_profile::Profiler;
/// use std::error::Error;
///
/// set_poison(PoisonSpec { stride: 8, seed: 1 });
/// let size = InputSize::Custom { width: 64, height: 48 };
/// let run = all_benchmarks()[0].try_run_with(size, 1, ExecPolicy::Serial, &mut Profiler::new());
/// clear_poison();
/// let err = run.unwrap_err();
/// let cause = err.source().and_then(|e| e.downcast_ref::<DisparityError>());
/// assert_eq!(cause, Some(&DisparityError::NonFinitePixels));
/// assert_eq!(err.to_string(), "stereo images contain non-finite pixels");
/// ```
#[derive(Debug, Clone)]
pub struct SdvbsError(Arc<dyn Error + Send + Sync>);

impl fmt::Display for SdvbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Error for SdvbsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&*self.0)
    }
}

impl PartialEq for SdvbsError {
    fn eq(&self, other: &Self) -> bool {
        self.to_string() == other.to_string()
    }
}

/// One wrapping `From` per crate error a `try_run_with` propagates with `?`.
macro_rules! carry {
    ($($crate_error:ty),+ $(,)?) => {$(
        impl From<$crate_error> for SdvbsError {
            fn from(e: $crate_error) -> Self {
                SdvbsError(Arc::new(e))
            }
        }
    )+};
}

carry!(
    sdvbs_disparity::DisparityError,
    sdvbs_tracking::TrackingError,
    sdvbs_segmentation::SegmentationError,
    sdvbs_sift::SiftError,
    sdvbs_localization::MclError,
    sdvbs_svm::SvmError,
    sdvbs_facedetect::DetectError,
    sdvbs_stitch::StitchError,
    sdvbs_texture::TextureError,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SdvbsError>();
    }

    #[test]
    fn equality_follows_the_message() {
        use sdvbs_disparity::DisparityError;
        let e = SdvbsError::from(DisparityError::NonFinitePixels);
        assert_eq!(e, e.clone());
        assert_eq!(e, SdvbsError::from(DisparityError::NonFinitePixels));
        assert_ne!(e, SdvbsError::from(DisparityError::Empty));
    }
}
