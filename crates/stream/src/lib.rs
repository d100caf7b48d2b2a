//! `sdvbs-stream` — multi-frame video pipelines over the SD-VBS kernels.
//!
//! The paper benchmarks single frames, but the workload classes it
//! covers are inherently streaming in deployment: a tracker carries
//! feature identities from frame to frame, a stereo rig produces a
//! disparity map per camera step, a panning camera accumulates a mosaic.
//! This crate turns three of the suite's benchmarks into stateful
//! [`StreamPipeline`]s driven one frame at a time:
//!
//! * **Tracking** — KLT feature tracking across a seeded synthetic pan
//!   ([`sdvbs_tracking::Tracker`] over [`sdvbs_synth::MotionWorld`]
//!   frames), carrying live tracks and the previous frame.
//! * **Disparity** — stereo block matching on a moving camera pair
//!   ([`sdvbs_synth::StereoWorld`] frames), scored against per-frame
//!   ground truth and checked for temporal stability.
//! * **Stitch** — SIFT-style match-and-stitch over the pan, composing
//!   pairwise alignments into a running mosaic transform with bounded
//!   memory (the previous frame plus an [`sdvbs_stitch::Affine`], never
//!   a growing panorama image).
//!
//! Every frame is a *pure function* of `(spec, frame index, degraded)`:
//! the synthetic world wraps toroidally, so frame `i` regenerates
//! bit-identically without any sequence state. The world itself depends
//! only on the spec's size and seed, so a pipeline builds it on its first
//! frame and keeps it until the pipeline is dropped; each frame only
//! samples it. That is what lets a
//! serving layer prove an unloaded stream equals a one-shot run — both
//! paths call [`StreamPipeline::process`] with the same arguments and
//! compare [`FrameResult::digest`]s.
//!
//! **Degraded frames** process the same scene at a smaller input size
//! ([`StreamSpec::degraded_dims`], e.g. SQCIF under load): the full
//! frame is generated and downsampled, so the content — and a tracker's
//! feature identities, via [`sdvbs_tracking::Tracker::rescale`] —
//! survives the switch, and a stitcher's alignment is conjugated back
//! into full-resolution mosaic coordinates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disparity;
mod pipeline;
mod spec;
mod stitch;
mod tracking;

pub use pipeline::{
    build_pipeline, fold_digest, run_one_shot, FrameResult, StreamError, StreamPipeline,
    DIGEST_SEED,
};
pub use spec::{DegradePolicy, PipelineKind, StreamSpec};
