//! The SD-VBS suite core: benchmark metadata, input-size configurations,
//! and a uniform runner over all nine applications.
//!
//! This is the crate a downstream user adopts. It re-exports each
//! benchmark's native API and wraps them behind the [`Benchmark`] trait so
//! harnesses (the table/figure regenerators in `sdvbs-bench`, the runner,
//! CI smoke tests) can iterate the whole suite uniformly. A run is
//! fallible: a degenerate input is a typed [`SdvbsError`], never a panic.
//!
//! ```
//! use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
//! use sdvbs_profile::Profiler;
//!
//! let suite = all_benchmarks();
//! assert_eq!(suite.len(), 9);
//! let disparity = &suite[0];
//! let mut prof = Profiler::new();
//! let size = InputSize::Custom { width: 64, height: 48 };
//! let outcome = disparity.try_run_with(size, 1, ExecPolicy::Serial, &mut prof)?;
//! assert!(outcome.quality.unwrap_or(0.0) > 0.5);
//! assert!(prof.total().as_nanos() > 0); // pipeline time, input gen excluded
//! # Ok::<(), sdvbs_core::SdvbsError>(())
//! ```
//!
//! The three named input sizes follow the paper exactly: SQCIF (128×96),
//! QCIF (176×144) and CIF (352×288), each roughly 2× the pixels of the
//! previous — the x-axis of Figures 2 and 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dump;
mod error;
mod input;
mod meta;
mod poison;
mod suite;

pub use dump::dump_inputs;
pub use error::{SdvbsError, SdvbsResult};
pub use input::InputSize;
pub use meta::{BenchmarkInfo, Characteristic, ConcentrationArea};
pub use poison::{clear_poison, poison_image, poison_slice, set_poison, PoisonSpec};
pub use sdvbs_exec::ExecPolicy;
pub use suite::{all_benchmarks, Benchmark, RunOutcome};

/// Re-exports of the per-benchmark crates for direct access.
pub mod benchmarks {
    pub use sdvbs_disparity as disparity;
    pub use sdvbs_facedetect as facedetect;
    pub use sdvbs_localization as localization;
    pub use sdvbs_segmentation as segmentation;
    pub use sdvbs_sift as sift;
    pub use sdvbs_stitch as stitch;
    pub use sdvbs_svm as svm;
    pub use sdvbs_texture as texture;
    pub use sdvbs_tracking as tracking;
}

/// Re-exports of the substrate crates.
pub mod substrate {
    pub use sdvbs_dataflow as dataflow;
    pub use sdvbs_exec as exec;
    pub use sdvbs_image as image;
    pub use sdvbs_kernels as kernels;
    pub use sdvbs_matrix as matrix;
    pub use sdvbs_profile as profile;
    pub use sdvbs_synth as synth;
}
