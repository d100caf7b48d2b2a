//! The [`StreamPipeline`] trait: stateful, frame-at-a-time execution
//! with per-frame result digests.

use crate::disparity::DisparityStream;
use crate::spec::{PipelineKind, StreamSpec};
use crate::stitch::StitchStream;
use crate::tracking::TrackingStream;
use sdvbs_image::Image;
use sdvbs_synth::{CameraMotion, MotionWorld};
use std::error::Error;
use std::fmt;

/// FNV-1a offset basis — the seed of every frame digest and of the
/// rolling stream digest.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Folds one 64-bit value into an FNV-1a accumulator. A stream's
/// *rolling digest* is `fold_digest` over its frames' digests in frame
/// order, starting from [`DIGEST_SEED`] — the serving layer and the
/// one-shot reference compute it identically, which is the
/// bit-identity check for an unloaded stream.
pub fn fold_digest(acc: u64, value: u64) -> u64 {
    let mut h = acc;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental FNV-1a digest over a frame's outputs.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(DIGEST_SEED)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0 = fold_digest(self.0, v);
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.u64(u64::from(v.to_bits()));
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    pub(crate) fn image(&mut self, img: &Image) {
        self.u64(img.width() as u64);
        self.u64(img.height() as u64);
        for &v in img.as_slice() {
            self.f32(v);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// What one processed frame produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// The frame index within the stream.
    pub frame: u64,
    /// Whether the frame was processed at the degraded size.
    pub degraded: bool,
    /// FNV-1a digest of the frame's semantic output (tracks, disparity
    /// map, mosaic transform) — bit-stable across runs and processes.
    pub digest: u64,
    /// Pipeline-specific quality in `0..=1` (track population, disparity
    /// accuracy, inlier ratio).
    pub quality: f64,
    /// A short human-readable summary of the frame's outcome.
    pub detail: String,
}

/// A frame the pipeline could not process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError(String);

impl StreamError {
    /// Wraps a failure description.
    pub fn new(msg: impl Into<String>) -> StreamError {
        StreamError(msg.into())
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream pipeline error: {}", self.0)
    }
}

impl Error for StreamError {}

/// A stateful multi-frame pipeline. Implementations carry per-frame
/// state (live tracks, the previous frame, a running mosaic transform)
/// between calls; callers must feed **strictly increasing** frame
/// indices — the serving layer serializes frames of one stream to
/// guarantee it.
pub trait StreamPipeline: Send {
    /// Processes frame `frame`, at the degraded size when `degraded`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] when the underlying benchmark cannot
    /// process the frame (the stream itself stays usable — state is
    /// carried across a failed frame).
    fn process(&mut self, frame: u64, degraded: bool) -> Result<FrameResult, StreamError>;
}

/// Builds the pipeline a spec describes, validating the spec first.
///
/// # Errors
///
/// Returns [`StreamError`] for an invalid spec.
pub fn build_pipeline(spec: &StreamSpec) -> Result<Box<dyn StreamPipeline>, StreamError> {
    spec.validate().map_err(StreamError::new)?;
    Ok(match spec.pipeline {
        PipelineKind::Tracking => Box::new(TrackingStream::new(spec)?),
        PipelineKind::Disparity => Box::new(DisparityStream::new(spec)),
        PipelineKind::Stitch => Box::new(StitchStream::new(spec)),
    })
}

/// The one-shot reference: a fresh pipeline over frames `0..frames`,
/// all at full resolution. An unloaded stream through the serving layer
/// must produce bit-identical per-frame digests to this.
///
/// # Errors
///
/// Propagates the first frame failure.
pub fn run_one_shot(spec: &StreamSpec, frames: u64) -> Result<Vec<FrameResult>, StreamError> {
    let mut pipeline = build_pipeline(spec)?;
    (0..frames).map(|i| pipeline.process(i, false)).collect()
}

/// Generates frame `frame` of a pan over the world of `seed` at `dims`,
/// building that world into `world` on first use: the full-resolution
/// frame, downsampled when a degraded size is requested — degraded frames
/// see the *same scene* at lower resolution, so state (feature
/// identities, mosaic alignment) survives the switch.
pub(crate) fn frame_at(
    world: &mut Option<MotionWorld>,
    seed: u64,
    full: (usize, usize),
    dims: (usize, usize),
    motion: CameraMotion,
    frame: u64,
) -> Image {
    let img = world
        .get_or_insert_with(|| MotionWorld::new(full.0, full.1, seed))
        .frame(motion, frame);
    if dims == full {
        img
    } else {
        img.resize_bilinear(dims.0, dims.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DegradePolicy;
    use sdvbs_core::InputSize;

    fn spec(kind: PipelineKind) -> StreamSpec {
        StreamSpec {
            pipeline: kind,
            size: InputSize::Sqcif,
            seed: 42,
            fps: 10.0,
            policy: DegradePolicy::Degrade,
        }
    }

    #[test]
    fn one_shot_runs_are_bit_identical() {
        for kind in [
            PipelineKind::Tracking,
            PipelineKind::Disparity,
            PipelineKind::Stitch,
        ] {
            let a = run_one_shot(&spec(kind), 4).expect("one-shot run");
            let b = run_one_shot(&spec(kind), 4).expect("one-shot rerun");
            assert_eq!(a, b, "{kind:?} one-shot runs diverged");
            assert_eq!(a.len(), 4);
            for (i, r) in a.iter().enumerate() {
                assert_eq!(r.frame, i as u64);
                assert!(!r.degraded);
                assert!(
                    (0.0..=1.0).contains(&r.quality),
                    "{kind:?} quality {}",
                    r.quality
                );
            }
            // Distinct frames produce distinct digests (the output moves).
            assert_ne!(a[1].digest, a[3].digest, "{kind:?} digests frozen");
        }
    }

    #[test]
    fn degraded_frames_process_and_are_flagged() {
        for kind in [
            PipelineKind::Tracking,
            PipelineKind::Disparity,
            PipelineKind::Stitch,
        ] {
            let mut p = build_pipeline(&spec(kind)).expect("build");
            let full = p.process(0, false).expect("full frame");
            let deg = p.process(1, true).expect("degraded frame");
            let back = p.process(2, false).expect("recovered frame");
            assert!(!full.degraded && deg.degraded && !back.degraded);
            assert!(deg.quality > 0.0, "{kind:?} degraded quality collapsed");
        }
    }

    /// Each pipeline's rolling digest over a short run, pinned to the
    /// values the per-frame world synthesis produced before streams kept
    /// their world: full-size runs at two sizes, and a run that degrades
    /// two frames in the middle.
    #[test]
    fn digests_match_the_pinned_values() {
        let fold =
            |rs: &[FrameResult]| rs.iter().fold(DIGEST_SEED, |a, r| fold_digest(a, r.digest));
        let pinned = [
            (
                PipelineKind::Tracking,
                [
                    0x2ce1_1c6e_0ca6_6f32,
                    0x098a_34fd_e788_6b03,
                    0xa0d3_083a_4269_acb0,
                ],
            ),
            (
                PipelineKind::Disparity,
                [
                    0x28a0_3201_aafd_166a,
                    0x8390_42f3_c0c1_8e21,
                    0x3d9a_de7d_80bb_d8ed,
                ],
            ),
            (
                PipelineKind::Stitch,
                [
                    0x4fed_6572_d031_8c20,
                    0x9f82_d634_1cea_42f1,
                    0x91da_81b0_2947_2fec,
                ],
            ),
        ];
        for (kind, [sqcif, qcif, degraded]) in pinned {
            let at = |size, seed| StreamSpec {
                size,
                seed,
                ..spec(kind)
            };
            let run = run_one_shot(&at(InputSize::Sqcif, 42), 5).expect("SQCIF run");
            assert_eq!(fold(&run), sqcif, "{kind:?} SQCIF");
            let run = run_one_shot(&at(InputSize::Qcif, 7), 3).expect("QCIF run");
            assert_eq!(fold(&run), qcif, "{kind:?} QCIF");
            let mut p = build_pipeline(&at(InputSize::Qcif, 7)).expect("build");
            let run: Vec<FrameResult> = [false, true, true, false]
                .into_iter()
                .zip(0..)
                .map(|(degraded, frame)| p.process(frame, degraded).expect("frame"))
                .collect();
            assert_eq!(fold(&run), degraded, "{kind:?} degraded run");
        }
    }

    #[test]
    fn fold_digest_is_order_sensitive() {
        let ab = fold_digest(fold_digest(DIGEST_SEED, 1), 2);
        let ba = fold_digest(fold_digest(DIGEST_SEED, 2), 1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn invalid_specs_refuse_to_build() {
        let mut s = spec(PipelineKind::Tracking);
        s.fps = -1.0;
        assert!(build_pipeline(&s).is_err());
    }
}
