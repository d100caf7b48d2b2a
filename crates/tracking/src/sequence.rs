//! Multi-frame tracking: feature lifetimes across an image sequence.
//!
//! The SD-VBS tracking benchmark is defined over image *sequences*
//! ("extract motion from a sequence of images"); this module adds the
//! bookkeeping a real tracker needs on top of the two-frame KLT core —
//! persistent feature identities, dropping of lost features, and
//! re-detection to maintain the feature population.

use crate::config::TrackingConfig;
use crate::error::TrackingError;
use crate::extract::try_extract_features;
use crate::track::try_track_features;
use sdvbs_image::Image;
use sdvbs_kernels::features::Feature;
use sdvbs_profile::Profiler;

/// A live track: a feature with a persistent identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Track {
    /// Stable identifier, unique within one [`Tracker`].
    pub id: u64,
    /// Current column position.
    pub x: f32,
    /// Current row position.
    pub y: f32,
    /// Frames this feature has survived (0 = just detected).
    pub age: usize,
}

/// A stateful multi-frame KLT tracker.
///
/// Feed frames one at a time with [`Tracker::advance`]; the tracker
/// maintains feature identities, drops features that leave the frame or
/// whose Newton iteration fails to converge, and re-detects to keep the
/// population near `config.num_features`.
///
/// # Examples
///
/// ```
/// use sdvbs_profile::Profiler;
/// use sdvbs_synth::frame_sequence;
/// use sdvbs_tracking::{Tracker, TrackingConfig};
///
/// let frames = frame_sequence(96, 72, 3, 4, 1.0, 0.5);
/// let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
/// let mut prof = Profiler::new();
/// for frame in &frames {
///     tracker.advance(frame, &mut prof)?;
/// }
/// assert!(!tracker.tracks().is_empty());
/// # Ok::<(), sdvbs_tracking::TrackingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tracker {
    config: TrackingConfig,
    tracks: Vec<Track>,
    prev: Option<Image>,
    next_id: u64,
}

impl Tracker {
    /// Creates a tracker with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrackingError::InvalidConfig`] if the configuration is
    /// unusable.
    pub fn new(config: TrackingConfig) -> Result<Self, TrackingError> {
        config.validate()?;
        Ok(Tracker {
            config,
            tracks: Vec::new(),
            prev: None,
            next_id: 0,
        })
    }

    /// The live tracks after the most recent frame.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Total features ever created (ids are dense in `0..created()`).
    pub fn created(&self) -> u64 {
        self.next_id
    }

    /// Rescales the tracker's state to a new frame resolution, so a
    /// stream that degrades to a smaller input size (or recovers back)
    /// can keep its feature identities across the switch. Track
    /// coordinates are scaled into the new resolution and the previous
    /// frame is resampled to match, so the next [`Tracker::advance`]
    /// tracks across the switch instead of failing on mismatched
    /// dimensions. A no-op before the first frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn rescale(&mut self, new_w: usize, new_h: usize) {
        assert!(new_w > 0 && new_h > 0, "rescale needs positive dimensions");
        let Some(prev) = self.prev.take() else {
            return;
        };
        if (prev.width(), prev.height()) == (new_w, new_h) {
            self.prev = Some(prev);
            return;
        }
        let sx = new_w as f32 / prev.width() as f32;
        let sy = new_h as f32 / prev.height() as f32;
        for t in &mut self.tracks {
            t.x *= sx;
            t.y *= sy;
        }
        self.prev = Some(prev.resize_bilinear(new_w, new_h));
    }

    /// Ingests the next frame: tracks existing features into it, drops
    /// lost ones, and re-detects to refill the population. Returns the
    /// number of features dropped this frame.
    ///
    /// # Errors
    ///
    /// The errors of [`try_track_features`] (a frame whose size differs
    /// from the previous one is [`TrackingError::DimensionMismatch`]) and
    /// [`try_extract_features`]. A rejected frame leaves the tracker as it
    /// was, so the next frame tracks from the last accepted one.
    pub fn advance(&mut self, frame: &Image, prof: &mut Profiler) -> Result<usize, TrackingError> {
        let margin = (self.config.window_radius + 2) as f32;
        let mut dropped = 0usize;
        // Tracks exist only once a frame has been accepted, so without a
        // previous frame the population starts empty.
        let mut tracks = Vec::with_capacity(self.tracks.len());
        if let Some(prev) = &self.prev {
            let features: Vec<Feature> = self
                .tracks
                .iter()
                .map(|t| Feature {
                    x: t.x,
                    y: t.y,
                    score: 0.0,
                })
                .collect();
            let results = try_track_features(prev, frame, &features, &self.config, prof)?;
            for (track, result) in self.tracks.iter().zip(&results) {
                let inside = result.to_x >= margin
                    && result.to_y >= margin
                    && result.to_x < frame.width() as f32 - margin
                    && result.to_y < frame.height() as f32 - margin;
                if result.converged && inside {
                    tracks.push(Track {
                        id: track.id,
                        x: result.to_x,
                        y: result.to_y,
                        age: track.age + 1,
                    });
                } else {
                    dropped += 1;
                }
            }
        }
        // Top-up: detect fresh features away from the live ones.
        let mut next_id = self.next_id;
        if tracks.len() < self.config.num_features {
            let candidates = try_extract_features(frame, &self.config, prof)?;
            let min_d2 = self.config.min_distance * self.config.min_distance;
            for c in candidates {
                if tracks.len() >= self.config.num_features {
                    break;
                }
                let clear = tracks
                    .iter()
                    .all(|t| (t.x - c.x).powi(2) + (t.y - c.y).powi(2) >= min_d2);
                if clear {
                    tracks.push(Track {
                        id: next_id,
                        x: c.x,
                        y: c.y,
                        age: 0,
                    });
                    next_id += 1;
                }
            }
        }
        self.tracks = tracks;
        self.next_id = next_id;
        self.prev = Some(frame.clone());
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_synth::frame_sequence;

    #[test]
    fn tracks_persist_and_age_across_frames() {
        let frames = frame_sequence(96, 72, 7, 5, 0.8, 0.4);
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        tracker.advance(&frames[0], &mut prof).expect("valid frame");
        let initial_ids: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
        assert!(
            initial_ids.len() >= 20,
            "{} initial tracks",
            initial_ids.len()
        );
        for frame in &frames[1..] {
            tracker.advance(frame, &mut prof).expect("valid frame");
        }
        // Most original features survive this gentle motion with full age.
        let survivors = tracker
            .tracks()
            .iter()
            .filter(|t| initial_ids.contains(&t.id) && t.age == 4)
            .count();
        assert!(
            survivors * 10 >= initial_ids.len() * 6,
            "{survivors}/{} survivors",
            initial_ids.len()
        );
    }

    #[test]
    fn recovered_motion_matches_velocity_per_frame() {
        let (vx, vy) = (1.2f32, -0.6f32);
        let frames = frame_sequence(96, 72, 9, 4, vx, vy);
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        tracker.advance(&frames[0], &mut prof).expect("valid frame");
        let before: Vec<Track> = tracker.tracks().to_vec();
        tracker.advance(&frames[1], &mut prof).expect("valid frame");
        let mut dxs = Vec::new();
        for t in tracker.tracks() {
            if let Some(b) = before.iter().find(|b| b.id == t.id) {
                dxs.push(((t.x - b.x), (t.y - b.y)));
            }
        }
        assert!(dxs.len() >= 15);
        dxs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let (mdx, mdy) = dxs[dxs.len() / 2];
        assert!((mdx - vx).abs() < 0.3, "dx {mdx}");
        assert!((mdy - vy).abs() < 0.3, "dy {mdy}");
    }

    #[test]
    fn features_leaving_the_frame_are_dropped_and_replaced() {
        // Fast motion pushes content off one edge; the tracker must drop
        // exiting features and re-detect entering ones.
        let frames = frame_sequence(96, 72, 11, 6, 6.0, 0.0);
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        tracker.advance(&frames[0], &mut prof).expect("valid frame");
        let mut total_dropped = 0;
        for frame in &frames[1..] {
            total_dropped += tracker.advance(frame, &mut prof).expect("valid frame");
        }
        assert!(total_dropped > 0, "no features were ever dropped");
        // Population stays healthy thanks to re-detection.
        assert!(
            tracker.tracks().len() >= 20,
            "{} live tracks",
            tracker.tracks().len()
        );
        // New ids were issued beyond the initial batch.
        assert!(tracker.created() > tracker.tracks().len() as u64);
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let frames = frame_sequence(80, 64, 13, 3, 1.0, 1.0);
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        for frame in &frames {
            tracker.advance(frame, &mut prof).expect("valid frame");
            let mut ids: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate track ids");
        }
    }

    #[test]
    fn rescale_carries_tracks_across_a_resolution_switch() {
        // Simulate a degrade switch: full-resolution frames, then the
        // same scene at half resolution. rescale() keeps identities.
        let full = frame_sequence(128, 96, 21, 6, 1.0, 0.5);
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        tracker.advance(&full[0], &mut prof).expect("valid frame");
        tracker.advance(&full[1], &mut prof).expect("valid frame");
        let before: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
        assert!(before.len() >= 20, "{} tracks before switch", before.len());
        tracker.rescale(64, 48);
        for frame in &full[2..] {
            tracker
                .advance(&frame.resize_bilinear(64, 48), &mut prof)
                .expect("valid frame");
        }
        // A solid share of pre-switch identities survives the switch and
        // the half-resolution frames that follow.
        let survivors = tracker
            .tracks()
            .iter()
            .filter(|t| before.contains(&t.id))
            .count();
        assert!(
            survivors * 10 >= before.len() * 4,
            "{survivors}/{} survivors across the switch",
            before.len()
        );
        // Coordinates are in the new resolution.
        for t in tracker.tracks() {
            assert!(t.x < 64.0 && t.y < 48.0, "track off-frame: {t:?}");
        }
    }

    #[test]
    fn rescale_before_any_frame_is_a_no_op() {
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        tracker.rescale(64, 48);
        let mut prof = Profiler::new();
        tracker
            .advance(&Image::filled(96, 72, 1.0), &mut prof)
            .expect("valid frame");
        assert!(tracker.prev.is_some());
    }

    #[test]
    fn mismatched_frame_sizes_are_rejected() {
        let mut tracker = Tracker::new(TrackingConfig::default()).unwrap();
        let mut prof = Profiler::new();
        tracker
            .advance(&Image::filled(96, 72, 1.0), &mut prof)
            .expect("valid frame");
        assert_eq!(
            tracker.advance(&Image::filled(80, 72, 1.0), &mut prof),
            Err(TrackingError::DimensionMismatch {
                a: (96, 72),
                b: (80, 72),
            })
        );
        // The rejected frame left the last accepted one in place.
        let prev = tracker.prev.as_ref().expect("first frame kept");
        assert_eq!((prev.width(), prev.height()), (96, 72));
    }
}
