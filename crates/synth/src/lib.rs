//! Deterministic synthetic inputs for the SD-VBS benchmarks.
//!
//! The paper distributes each benchmark with "three different sizes ...
//! and several distinct inputs for each of the sizes" (SQCIF 128×96,
//! QCIF 176×144, CIF 352×288 frames, face corpora, robot logs, texture
//! swatches). That corpus is not part of the paper itself, so this crate
//! generates synthetic equivalents: seeded, reproducible scenes with the
//! same pixel counts *and* known ground truth — which lets the Rust
//! reproduction assert output correctness, something the original C code
//! could only do by diffing golden files.
//!
//! All generators take an explicit `seed`; the same seed always produces
//! the same bytes on every platform.
//!
//! # Examples
//!
//! ```
//! use sdvbs_synth::{textured_image, stereo_pair};
//!
//! let img = textured_image(128, 96, 7);
//! assert_eq!(img.width(), 128);
//! let stereo = stereo_pair(128, 96, 7);
//! assert_eq!(stereo.left.width(), stereo.right.width());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faces;
mod noise;
mod scenes;
mod world;

pub use faces::{face_scene, render_face_patch, render_non_face_patch, FaceBox, FaceScene};
pub use noise::{textured_image, value_noise};
pub use scenes::{
    frame_pair, frame_sequence, motion_frame, moving_stereo_pair, overlapping_pair,
    segmentable_scene, stereo_pair, texture_swatch, CameraMotion, OverlapPair, SegmentScene,
    StereoPair, TextureKind,
};
pub use world::{MotionWorld, StereoWorld};
