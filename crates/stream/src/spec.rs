//! Stream contracts: pipeline kind, input size, frame-rate SLA, and the
//! backpressure policy applied when the SLA budget is missed.

use sdvbs_core::InputSize;
use sdvbs_synth::CameraMotion;

/// Smallest frame any pipeline accepts (the stereo scene's floor).
const MIN_W: usize = 48;
/// See [`MIN_W`].
const MIN_H: usize = 36;
/// Widest frame accepted — 4×CIF, bounding per-frame cost. The serving
/// daemon bounds a job's custom size by the same frame.
pub const MAX_W: usize = 704;
/// Tallest frame accepted; see [`MAX_W`].
pub const MAX_H: usize = 576;
/// Highest declarable frame rate.
const MAX_FPS: f64 = 240.0;

/// Which multi-frame pipeline a stream runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// KLT feature tracking across a panning sequence.
    Tracking,
    /// Stereo disparity on a moving camera pair.
    Disparity,
    /// Match-and-stitch mosaicking over a panning sequence.
    Stitch,
}

impl PipelineKind {
    /// Parses `"tracking"`, `"disparity"`, or `"stitch"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted labels otherwise.
    pub fn parse(text: &str) -> Result<PipelineKind, String> {
        match text {
            "tracking" => Ok(PipelineKind::Tracking),
            "disparity" => Ok(PipelineKind::Disparity),
            "stitch" => Ok(PipelineKind::Stitch),
            other => Err(format!(
                "unknown pipeline {other:?} (expected tracking, disparity, or stitch)"
            )),
        }
    }

    /// The wire label ([`PipelineKind::parse`]'s inverse).
    pub fn label(self) -> &'static str {
        match self {
            PipelineKind::Tracking => "tracking",
            PipelineKind::Disparity => "disparity",
            PipelineKind::Stitch => "stitch",
        }
    }

    /// The per-frame camera motion of this pipeline's scenario, in
    /// full-resolution pixels per frame. Tracking pans gently (features
    /// survive many frames), disparity translates the rig slowly, and
    /// stitch pans faster so the mosaic actually grows.
    pub fn motion(self) -> CameraMotion {
        match self {
            PipelineKind::Tracking => CameraMotion::translate(1.2, 0.6),
            PipelineKind::Disparity => CameraMotion::translate(0.9, 0.45),
            PipelineKind::Stitch => CameraMotion::pan(6.0),
        }
    }
}

/// What a stream does with a frame submitted while it is over its SLA
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradePolicy {
    /// Skip the frame entirely; it is counted, never processed.
    Drop,
    /// Process frames at [`StreamSpec::degraded_dims`] until latency
    /// recovers.
    Degrade,
}

impl DegradePolicy {
    /// Parses `"drop"` or `"degrade"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted labels otherwise.
    pub fn parse(text: &str) -> Result<DegradePolicy, String> {
        match text {
            "drop" => Ok(DegradePolicy::Drop),
            "degrade" => Ok(DegradePolicy::Degrade),
            other => Err(format!(
                "unknown policy {other:?} (expected drop or degrade)"
            )),
        }
    }

    /// The wire label ([`DegradePolicy::parse`]'s inverse).
    pub fn label(self) -> &'static str {
        match self {
            DegradePolicy::Drop => "drop",
            DegradePolicy::Degrade => "degrade",
        }
    }
}

/// A stream's declared contract: what to run, on what input size, at
/// what frame rate, and how to shed load when the rate is missed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// The pipeline this stream runs.
    pub pipeline: PipelineKind,
    /// Full-resolution input size of each frame.
    pub size: InputSize,
    /// Scene seed — the entire frame sequence derives from it.
    pub seed: u64,
    /// Declared frame rate; the per-frame SLA is `1000 / fps` ms.
    pub fps: f64,
    /// The backpressure policy.
    pub policy: DegradePolicy,
}

impl StreamSpec {
    /// The per-frame latency budget in milliseconds.
    pub fn sla_ms(&self) -> f64 {
        1000.0 / self.fps.max(1e-9)
    }

    /// Full-resolution frame dimensions.
    pub fn full_dims(&self) -> (usize, usize) {
        self.size.dims()
    }

    /// The smaller size degraded frames process at: SQCIF when the full
    /// size is larger than SQCIF, otherwise half the full dimensions
    /// (floored at the pipeline minimum).
    pub fn degraded_dims(&self) -> (usize, usize) {
        let (w, h) = self.full_dims();
        let (sw, sh) = InputSize::Sqcif.dims();
        if w * h > sw * sh {
            (sw, sh)
        } else {
            ((w / 2).max(MIN_W), (h / 2).max(MIN_H))
        }
    }

    /// Validates the contract.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or out-of-range frame rates, frames outside
    /// `48×36 ..= 704×576`, and a `degrade` policy on a frame already at
    /// the minimum size (there would be nothing to degrade to).
    pub fn validate(&self) -> Result<(), String> {
        if !self.fps.is_finite() || self.fps <= 0.0 || self.fps > MAX_FPS {
            return Err(format!("fps must be in (0, {MAX_FPS}], got {}", self.fps));
        }
        let (w, h) = self.full_dims();
        if w < MIN_W || h < MIN_H {
            return Err(format!("frame {w}x{h} below the {MIN_W}x{MIN_H} minimum"));
        }
        if w > MAX_W || h > MAX_H {
            return Err(format!("frame {w}x{h} above the {MAX_W}x{MAX_H} maximum"));
        }
        if self.policy == DegradePolicy::Degrade && self.degraded_dims() == (w, h) {
            return Err(format!(
                "frame {w}x{h} is too small for the degrade policy (no smaller size available)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(size: InputSize, fps: f64, policy: DegradePolicy) -> StreamSpec {
        StreamSpec {
            pipeline: PipelineKind::Tracking,
            size,
            seed: 1,
            fps,
            policy,
        }
    }

    #[test]
    fn labels_round_trip() {
        for k in [
            PipelineKind::Tracking,
            PipelineKind::Disparity,
            PipelineKind::Stitch,
        ] {
            assert_eq!(PipelineKind::parse(k.label()), Ok(k));
        }
        for p in [DegradePolicy::Drop, DegradePolicy::Degrade] {
            assert_eq!(DegradePolicy::parse(p.label()), Ok(p));
        }
        assert!(PipelineKind::parse("sift").is_err());
        assert!(DegradePolicy::parse("panic").is_err());
    }

    #[test]
    fn degraded_dims_fall_back_to_sqcif_then_halve() {
        assert_eq!(
            spec(InputSize::Cif, 10.0, DegradePolicy::Degrade).degraded_dims(),
            (128, 96)
        );
        assert_eq!(
            spec(InputSize::Qcif, 10.0, DegradePolicy::Degrade).degraded_dims(),
            (128, 96)
        );
        assert_eq!(
            spec(InputSize::Sqcif, 10.0, DegradePolicy::Degrade).degraded_dims(),
            (64, 48)
        );
    }

    #[test]
    fn validation_guards_fps_size_and_degradability() {
        assert!(spec(InputSize::Sqcif, 10.0, DegradePolicy::Degrade)
            .validate()
            .is_ok());
        assert!(spec(InputSize::Sqcif, 0.0, DegradePolicy::Drop)
            .validate()
            .is_err());
        assert!(spec(InputSize::Sqcif, 1e9, DegradePolicy::Drop)
            .validate()
            .is_err());
        let tiny = InputSize::Custom {
            width: 48,
            height: 36,
        };
        assert!(spec(tiny, 10.0, DegradePolicy::Drop).validate().is_ok());
        assert!(
            spec(tiny, 10.0, DegradePolicy::Degrade).validate().is_err(),
            "nothing smaller to degrade to"
        );
        let huge = InputSize::Custom {
            width: 4096,
            height: 4096,
        };
        assert!(spec(huge, 10.0, DegradePolicy::Drop).validate().is_err());
        assert!((spec(InputSize::Sqcif, 25.0, DegradePolicy::Drop).sla_ms() - 40.0).abs() < 1e-9);
    }
}
