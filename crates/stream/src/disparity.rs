//! The stereo-disparity stream: per-frame block matching on a moving
//! camera pair, scored against ground truth and checked for temporal
//! stability against the previous frame's map.

use crate::pipeline::{Digest, FrameResult, StreamError, StreamPipeline};
use crate::spec::StreamSpec;
use sdvbs_disparity::{disparity_accuracy, try_compute_disparity, DisparityConfig};
use sdvbs_image::Image;
use sdvbs_profile::Profiler;
use sdvbs_synth::{CameraMotion, StereoWorld};

/// Block-matching aggregation window (odd, per the suite's config).
const WINDOW: usize = 5;
/// A pixel is temporally stable when its disparity moved by at most
/// this much between consecutive frames at the same resolution.
const STABLE_TOL: f32 = 1.0;
/// Accuracy tolerance against ground truth, in disparity levels.
const TRUTH_TOL: f32 = 1.5;

pub(crate) struct DisparityStream {
    seed: u64,
    /// The layered world the camera pair translates over, built on the
    /// first frame.
    world: Option<StereoWorld>,
    full: (usize, usize),
    deg: (usize, usize),
    motion: CameraMotion,
    /// Previous frame's disparity map and its resolution, for the
    /// temporal-stability score (only comparable at matching dims).
    prev: Option<(Image, (usize, usize))>,
}

impl DisparityStream {
    pub(crate) fn new(spec: &StreamSpec) -> DisparityStream {
        DisparityStream {
            seed: spec.seed,
            world: None,
            full: spec.full_dims(),
            deg: spec.degraded_dims(),
            motion: spec.pipeline.motion(),
            prev: None,
        }
    }
}

impl StreamPipeline for DisparityStream {
    fn process(&mut self, frame: u64, degraded: bool) -> Result<FrameResult, StreamError> {
        let dims = if degraded { self.deg } else { self.full };
        let (seed, (w, h)) = (self.seed, self.full);
        let pair = self
            .world
            .get_or_insert_with(|| StereoWorld::new(w, h, seed))
            .frame(self.motion, frame);
        let (left, right, truth) = if dims == self.full {
            (pair.left, pair.right, pair.truth)
        } else {
            // Disparity is horizontal displacement, so the truth values
            // shrink with the width when the frame is downsampled.
            let sx = dims.0 as f32 / self.full.0 as f32;
            (
                pair.left.resize_bilinear(dims.0, dims.1),
                pair.right.resize_bilinear(dims.0, dims.1),
                pair.truth.resize_bilinear(dims.0, dims.1).map(|v| v * sx),
            )
        };
        let cfg = DisparityConfig::new(pair.max_disparity, WINDOW)
            .map_err(|e| StreamError::new(e.to_string()))?;
        let mut prof = Profiler::new();
        let disp = try_compute_disparity(&left, &right, &cfg, &mut prof)
            .map_err(|e| StreamError::new(e.to_string()))?;
        let quality = disparity_accuracy(&disp, &truth, TRUTH_TOL);
        let stability = match &self.prev {
            Some((prev, pdims)) if *pdims == dims => {
                let stable = disp
                    .as_slice()
                    .iter()
                    .zip(prev.as_slice())
                    .filter(|(a, b)| (**a - **b).abs() <= STABLE_TOL)
                    .count();
                Some(stable as f64 / disp.as_slice().len().max(1) as f64)
            }
            _ => None,
        };
        let mut d = Digest::new();
        d.u64(frame);
        d.bool(degraded);
        d.image(&disp);
        let digest = d.finish();
        let detail = match stability {
            Some(s) => format!("accuracy={quality:.3} stability={s:.3}"),
            None => format!("accuracy={quality:.3} stability=n/a"),
        };
        self.prev = Some((disp, dims));
        Ok(FrameResult {
            frame,
            degraded,
            digest,
            quality,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DegradePolicy, PipelineKind};
    use sdvbs_core::InputSize;

    fn spec() -> StreamSpec {
        StreamSpec {
            pipeline: PipelineKind::Disparity,
            size: InputSize::Sqcif,
            seed: 5,
            fps: 10.0,
            policy: DegradePolicy::Degrade,
        }
    }

    #[test]
    fn consecutive_frames_stay_accurate_and_temporally_stable() {
        let mut p = DisparityStream::new(&spec());
        let r0 = p.process(0, false).expect("frame 0");
        let r1 = p.process(1, false).expect("frame 1");
        assert!(r0.quality > 0.8, "frame 0 accuracy {}", r0.quality);
        assert!(r1.quality > 0.8, "frame 1 accuracy {}", r1.quality);
        assert!(
            r1.detail.contains("stability=0.") || r1.detail.contains("stability=1."),
            "expected a numeric stability score, got {:?}",
            r1.detail
        );
        assert_ne!(r0.digest, r1.digest, "camera moved; maps must differ");
    }

    #[test]
    fn degraded_truth_is_rescaled_with_the_width() {
        let mut p = DisparityStream::new(&spec());
        let r = p.process(0, true).expect("degraded frame 0");
        // At half width the scaled truth still matches the computed map.
        assert!(r.quality > 0.6, "degraded accuracy {}", r.quality);
    }
}
