//! SD-VBS benchmark 3: **Image Segmentation** — Shi–Malik normalized cuts.
//!
//! Segmentation partitions an image into conceptual regions. The SD-VBS
//! implementation follows the normalized-cuts formulation: build a
//! pixel-pair similarity matrix, extract the leading eigenvectors of the
//! normalized affinity, and discretize the spectral embedding into labels.
//! The paper's kernel decomposition (Figure 3) is `Adjacencymatrix`,
//! `Eigensolve`, `QRfactorizations` and `Filterbanks`; this crate uses the
//! same four scope names.
//!
//! The paper's headline observation — segmentation is *compute-intensive*:
//! its per-kernel occupancy is flat across input sizes, and execution time
//! is governed by the number of segments rather than the pixel count — is
//! reproduced by the `figure2`/`figure3` harnesses in `sdvbs-bench`.
//!
//! Unlike the dense-affinity variant in the original C code (which forces
//! tiny inputs), the affinity matrix here is sparse (pixels within a
//! spatial radius), stored as a fixed-offset stencil ([`AffinityStencil`]:
//! one weight plane per neighbour offset, no index arrays), and the
//! eigenproblem is solved with Lanczos iteration, so the benchmark runs at
//! full CIF resolution.
//!
//! # Examples
//!
//! ```
//! use sdvbs_profile::Profiler;
//! use sdvbs_segmentation::{segment, SegmentationConfig};
//! use sdvbs_synth::segmentable_scene;
//!
//! let scene = segmentable_scene(48, 36, 7, 3);
//! let cfg = SegmentationConfig { segments: 3, ..SegmentationConfig::default() };
//! let mut prof = Profiler::new();
//! let seg = segment(&scene.image, &cfg, &mut prof).unwrap();
//! assert_eq!(seg.labels().len(), 48 * 36);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod discretize;
mod metrics;
mod ncuts;
#[cfg(test)]
mod oracle;
mod recursive;
mod stencil;

pub use affinity::{adjacency_matrix, adjacency_matrix_with, filter_bank_features};
pub use metrics::rand_index;
pub use ncuts::{segment, Segmentation, SegmentationConfig, SegmentationError};
pub use recursive::segment_recursive;
pub use stencil::AffinityStencil;
