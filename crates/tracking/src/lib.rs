//! SD-VBS benchmark 2: **Feature Tracking** — the Kanade–Lucas–Tomasi
//! (KLT) tracker.
//!
//! Tracking extracts motion information from an image sequence in three
//! phases, exactly as the paper describes (§II-B):
//!
//! 1. **Image processing** — noise filtering (`GaussianFilter`), gradient
//!    images (`Gradient`), and integral-image/windowed sums
//!    (`IntegralImage`, `AreaSum`): pixel-granularity, data-intensive, the
//!    ~55% preprocessing share of Figure 3.
//! 2. **Feature extraction** — the Shi–Tomasi "good features to track"
//!    criterion: the smaller eigenvalue of the windowed structure tensor,
//!    local-maxima selection and spatial suppression.
//! 3. **Feature tracking** — pyramidal Lucas–Kanade: per feature, per
//!    pyramid level, iterate the 2×2 normal equations (`MatrixInversion`)
//!    to estimate the displacement.
//!
//! # Examples
//!
//! ```
//! use sdvbs_profile::Profiler;
//! use sdvbs_synth::frame_pair;
//! use sdvbs_tracking::{try_track_pair, TrackingConfig};
//!
//! let (a, b) = frame_pair(96, 72, 42, 2.0, 1.0);
//! let cfg = TrackingConfig::default();
//! let mut prof = Profiler::new();
//! let tracks = try_track_pair(&a, &b, &cfg, &mut prof)?;
//! assert!(!tracks.is_empty());
//! # Ok::<(), sdvbs_tracking::TrackingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod extract;
mod sequence;
mod track;

pub use config::{InvalidConfig, TrackingConfig};
pub use error::TrackingError;
pub use extract::try_extract_features;
pub use sequence::{Track, Tracker};
pub use track::{try_track_features, try_track_pair, TrackedFeature};

pub use sdvbs_kernels::features::Feature;
