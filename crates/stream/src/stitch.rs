//! The match-and-stitch stream: pairwise alignments over a panning
//! sequence composed into a running mosaic transform.
//!
//! Memory is bounded: the state is the previous frame, the composed
//! frame-to-first [`Affine`], and the mosaic's bounding box in frame-0
//! coordinates — never a growing panorama image.

use crate::pipeline::{frame_at, Digest, FrameResult, StreamError, StreamPipeline};
use crate::spec::StreamSpec;
use sdvbs_image::Image;
use sdvbs_profile::Profiler;
use sdvbs_stitch::{stitch, Affine, StitchConfig};
use sdvbs_synth::{CameraMotion, MotionWorld};

pub(crate) struct StitchStream {
    seed: u64,
    /// The world the camera pans over, built on the first frame.
    world: Option<MotionWorld>,
    full: (usize, usize),
    deg: (usize, usize),
    motion: CameraMotion,
    cfg: StitchConfig,
    /// Previous frame and the resolution it was generated at.
    prev: Option<(Image, (usize, usize))>,
    /// Maps current-frame coordinates (full resolution) into frame-0
    /// coordinates.
    to_first: Affine,
    /// Mosaic bounding box in frame-0 coordinates: `(min_x, min_y,
    /// max_x, max_y)`.
    bounds: (f64, f64, f64, f64),
}

/// An axis-aligned scale affine.
fn scale(sx: f64, sy: f64) -> Affine {
    Affine::from_coeffs([sx, 0.0, 0.0, 0.0, sy, 0.0])
}

impl StitchStream {
    pub(crate) fn new(spec: &StreamSpec) -> StitchStream {
        let (w, h) = spec.full_dims();
        StitchStream {
            seed: spec.seed,
            world: None,
            full: spec.full_dims(),
            deg: spec.degraded_dims(),
            motion: spec.pipeline.motion(),
            cfg: StitchConfig::default(),
            prev: None,
            to_first: Affine::identity(),
            bounds: (0.0, 0.0, w as f64, h as f64),
        }
    }

    /// Expands the mosaic bounds with the current frame's corners (full
    /// resolution) mapped through `to_first`.
    fn grow_bounds(&mut self) {
        let (w, h) = (self.full.0 as f64, self.full.1 as f64);
        for (cx, cy) in [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h)] {
            let (x, y) = self.to_first.apply(cx, cy);
            self.bounds.0 = self.bounds.0.min(x);
            self.bounds.1 = self.bounds.1.min(y);
            self.bounds.2 = self.bounds.2.max(x);
            self.bounds.3 = self.bounds.3.max(y);
        }
    }
}

impl StreamPipeline for StitchStream {
    fn process(&mut self, frame: u64, degraded: bool) -> Result<FrameResult, StreamError> {
        let dims = if degraded { self.deg } else { self.full };
        let img = frame_at(
            &mut self.world,
            self.seed,
            self.full,
            dims,
            self.motion,
            frame,
        );
        let mut inliers = 0usize;
        let mut matches = 0usize;
        if frame > 0 {
            // The previous frame must be at the same resolution to match
            // against; on a degrade/recover switch regenerate it — frames
            // are pure functions of the index, so this is deterministic.
            let prev_at = match self.prev.take() {
                Some((p, pdims)) if pdims == dims => p,
                _ => frame_at(
                    &mut self.world,
                    self.seed,
                    self.full,
                    dims,
                    self.motion,
                    frame - 1,
                ),
            };
            let mut prof = Profiler::new();
            let r = stitch(&prev_at, &img, &self.cfg, &mut prof)
                .map_err(|e| StreamError::new(e.to_string()))?;
            inliers = r.inliers;
            matches = r.matches;
            // `b_to_a` lives in the processing resolution; conjugate it
            // back into full-resolution coordinates before composing.
            let lifted = if dims == self.full {
                r.b_to_a
            } else {
                let sx = dims.0 as f64 / self.full.0 as f64;
                let sy = dims.1 as f64 / self.full.1 as f64;
                scale(1.0 / sx, 1.0 / sy)
                    .compose(&r.b_to_a)
                    .compose(&scale(sx, sy))
            };
            self.to_first = self.to_first.compose(&lifted);
            self.grow_bounds();
        }
        self.prev = Some((img, dims));
        let mosaic_w = (self.bounds.2 - self.bounds.0).ceil() as u64;
        let mosaic_h = (self.bounds.3 - self.bounds.1).ceil() as u64;
        let mut d = Digest::new();
        d.u64(frame);
        d.bool(degraded);
        for c in self.to_first.coeffs() {
            d.f64(c);
        }
        d.u64(mosaic_w);
        d.u64(mosaic_h);
        Ok(FrameResult {
            frame,
            degraded,
            digest: d.finish(),
            quality: if frame == 0 {
                1.0
            } else {
                inliers as f64 / matches.max(1) as f64
            },
            detail: format!("mosaic={mosaic_w}x{mosaic_h} inliers={inliers}/{matches}"),
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
            pipeline: PipelineKind::Stitch,
            size: InputSize::Sqcif,
            seed: 11,
            fps: 10.0,
            policy: DegradePolicy::Degrade,
        }
    }

    #[test]
    fn composed_transform_recovers_the_camera_pan() {
        let s = spec();
        let vx = f64::from(s.pipeline.motion().vx);
        let mut p = StitchStream::new(&s);
        let frames = 4u64;
        for f in 0..=frames {
            let r = p.process(f, false).expect("frame");
            if f > 0 {
                assert!(r.quality > 0.3, "frame {f} inlier ratio {}", r.quality);
            }
        }
        // Frame k's origin sits at world offset k·vx, i.e. at x = k·vx in
        // frame-0 coordinates.
        let (x, y) = p.to_first.apply(0.0, 0.0);
        let want = frames as f64 * vx;
        assert!(
            (x - want).abs() < 1.5,
            "pan recovery drifted: got x={x:.2}, want {want:.2}"
        );
        assert!(
            y.abs() < 1.5,
            "pure pan should not drift vertically: {y:.2}"
        );
        // The mosaic grew horizontally by roughly the pan distance.
        let w = p.bounds.2 - p.bounds.0;
        assert!(
            w > InputSize::Sqcif.dims().0 as f64 + want - 2.0,
            "mosaic width {w:.1} did not grow with the pan"
        );
    }

    #[test]
    fn degraded_alignment_is_lifted_into_full_resolution_coordinates() {
        let s = spec();
        let vx = f64::from(s.pipeline.motion().vx);
        let mut p = StitchStream::new(&s);
        p.process(0, false).expect("frame 0");
        p.process(1, true).expect("degraded frame 1");
        p.process(2, true).expect("degraded frame 2");
        p.process(3, false).expect("recovered frame 3");
        let (x, _) = p.to_first.apply(0.0, 0.0);
        let want = 3.0 * vx;
        // Degraded matching is coarser; allow a looser but still
        // full-resolution-scale tolerance.
        assert!(
            (x - want).abs() < 4.0,
            "lifted pan drifted: got x={x:.2}, want {want:.2}"
        );
    }
}
