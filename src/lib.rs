//! SD-VBS: The San Diego Vision Benchmark Suite, reproduced in Rust.
//!
//! This umbrella crate re-exports the whole workspace — the nine vision
//! benchmarks, their shared substrates, and the profiling/analysis
//! machinery — and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! Start from [`core`]: it exposes the suite registry
//! ([`core::all_benchmarks`]), the paper's input sizes
//! ([`core::InputSize`]), and per-benchmark re-exports.
//!
//! ```
//! use sdvbs::core::{all_benchmarks, ExecPolicy, InputSize};
//! use sdvbs::profile::Profiler;
//!
//! let mut prof = Profiler::new();
//! let suite = all_benchmarks();
//! let size = InputSize::Custom { width: 64, height: 48 };
//! let outcome = suite[0].try_run_with(size, 1, ExecPolicy::Serial, &mut prof)?;
//! println!("{}", outcome.detail);
//! # Ok::<(), sdvbs::core::SdvbsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdvbs_core as core;
pub use sdvbs_dataflow as dataflow;
pub use sdvbs_disparity as disparity;
pub use sdvbs_exec as exec;
pub use sdvbs_facedetect as facedetect;
pub use sdvbs_image as image;
pub use sdvbs_kernels as kernels;
pub use sdvbs_localization as localization;
pub use sdvbs_matrix as matrix;
pub use sdvbs_profile as profile;
pub use sdvbs_segmentation as segmentation;
pub use sdvbs_sift as sift;
pub use sdvbs_stitch as stitch;
pub use sdvbs_svm as svm;
pub use sdvbs_synth as synth;
pub use sdvbs_texture as texture;
pub use sdvbs_tracking as tracking;
