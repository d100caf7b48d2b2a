//! SD-VBS benchmark 7: **Face Detection** — the Viola–Jones detector.
//!
//! The detector locates human faces in images via three components the
//! paper names "extract faces" (pixel-granularity preprocessing and
//! feature extraction), "extract face sequence" and "stabilize face
//! windows". Its defining kernels are the **integral image** (constant-
//! time rectangle sums), **Haar-like rectangle features**, and
//! **AdaBoost** (cited explicitly as one of the suite's most complex
//! kernels), organized into an attentional cascade scanned over a
//! multi-scale sliding window.
//!
//! The original SD-VBS code ships a cascade trained offline on a face
//! corpus that isn't distributed with the paper; this reproduction instead
//! *trains its own cascade* with AdaBoost over decision stumps, on
//! synthetically rendered faces and hard-negative clutter from
//! [`sdvbs_synth`] (see DESIGN.md §5 for the substitution rationale). Like
//! SD-VBS it ships that model pre-trained: [`Cascade::pretrained`] is the
//! default training output, committed as `models/default.cascade`, so
//! detection never pays for training. [`Cascade::train`] stays available
//! for other configurations (the `train_cascade` example regenerates the
//! shipped file).
//!
//! # Examples
//!
//! ```
//! use sdvbs_facedetect::{try_detect_faces, Cascade, DetectorConfig};
//! use sdvbs_profile::Profiler;
//! use sdvbs_synth::face_scene;
//!
//! let mut prof = Profiler::new();
//! let cascade = Cascade::pretrained();
//! let scene = face_scene(160, 120, 7, 2);
//! let found = try_detect_faces(&scene.image, cascade, &DetectorConfig::default(), &mut prof)?;
//! assert!(!found.is_empty());
//! # Ok::<(), sdvbs_facedetect::DetectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boost;
mod cascade;
mod haar;
mod model_io;

pub use boost::{train_adaboost, StrongClassifier, Stump};
pub use cascade::{
    try_detect_faces, Cascade, CascadeConfig, CascadeError, DetectError, Detection, DetectorConfig,
};
pub use haar::{generate_features, HaarFeature, HaarKind, NormalizedWindow};
pub use model_io::ModelIoError;
