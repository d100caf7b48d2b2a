//! The KLT tracking stream: feature identities carried across a panning
//! sequence, surviving degrade-resolution switches.

use crate::pipeline::{frame_at, Digest, FrameResult, StreamError, StreamPipeline};
use crate::spec::StreamSpec;
use sdvbs_profile::Profiler;
use sdvbs_synth::{CameraMotion, MotionWorld};
use sdvbs_tracking::{Tracker, TrackingConfig};

pub(crate) struct TrackingStream {
    seed: u64,
    /// The world the camera pans over, built on the first frame.
    world: Option<MotionWorld>,
    full: (usize, usize),
    deg: (usize, usize),
    motion: CameraMotion,
    tracker: Tracker,
    num_features: usize,
    /// Resolution of the most recently processed frame (None before the
    /// first) — a change triggers [`Tracker::rescale`].
    cur: Option<(usize, usize)>,
}

impl TrackingStream {
    pub(crate) fn new(spec: &StreamSpec) -> Result<TrackingStream, StreamError> {
        let config = TrackingConfig::default();
        let tracker = Tracker::new(config).map_err(|e| StreamError::new(e.to_string()))?;
        Ok(TrackingStream {
            seed: spec.seed,
            world: None,
            full: spec.full_dims(),
            deg: spec.degraded_dims(),
            motion: spec.pipeline.motion(),
            tracker,
            num_features: config.num_features,
            cur: None,
        })
    }
}

impl StreamPipeline for TrackingStream {
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
        if self.cur.is_some_and(|cur| cur != dims) {
            self.tracker.rescale(dims.0, dims.1);
        }
        let mut prof = Profiler::new();
        let dropped = self
            .tracker
            .advance(&img, &mut prof)
            .map_err(|e| StreamError::new(e.to_string()))?;
        self.cur = Some(dims);
        let mut tracks: Vec<_> = self.tracker.tracks().to_vec();
        tracks.sort_by_key(|t| t.id);
        let mut d = Digest::new();
        d.u64(frame);
        d.bool(degraded);
        for t in &tracks {
            d.u64(t.id);
            d.f32(t.x);
            d.f32(t.y);
            d.u64(t.age as u64);
        }
        d.u64(dropped as u64);
        Ok(FrameResult {
            frame,
            degraded,
            digest: d.finish(),
            quality: tracks.len() as f64 / self.num_features.max(1) as f64,
            detail: format!("tracks={} dropped={dropped}", tracks.len()),
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
            pipeline: PipelineKind::Tracking,
            size: InputSize::Sqcif,
            seed: 9,
            fps: 10.0,
            policy: DegradePolicy::Degrade,
        }
    }

    #[test]
    fn tracks_persist_across_frames_and_degrade_switches() {
        let mut p = TrackingStream::new(&spec()).expect("build");
        let r0 = p.process(0, false).expect("frame 0");
        assert!(r0.quality > 0.2, "initial population {}", r0.quality);
        let r1 = p.process(1, false).expect("frame 1");
        let live_before: Vec<u64> = p.tracker.tracks().iter().map(|t| t.id).collect();
        // Degrade, then recover: the population survives both switches.
        p.process(2, true).expect("degraded frame");
        let r3 = p.process(3, false).expect("recovered frame");
        let survivors = p
            .tracker
            .tracks()
            .iter()
            .filter(|t| live_before.contains(&t.id))
            .count();
        assert!(
            survivors * 10 >= live_before.len() * 3,
            "{survivors}/{} identities survived degrade+recover",
            live_before.len()
        );
        assert!(r3.quality > 0.2);
        assert_ne!(r0.digest, r1.digest);
    }
}
