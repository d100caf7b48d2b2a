//! Tracker configuration.

use crate::error::TrackingError;
use sdvbs_kernels::conv::gaussian_radius;

/// Configuration of the KLT pipeline (feature extraction + pyramidal
/// Lucas–Kanade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Maximum number of features to extract.
    pub num_features: usize,
    /// Half-size of the tracking/aggregation window (window is
    /// `2r+1 × 2r+1`).
    pub window_radius: usize,
    /// Pyramid levels for coarse-to-fine tracking.
    pub pyramid_levels: usize,
    /// Newton iterations per pyramid level.
    pub max_iterations: usize,
    /// Smoothing sigma applied before gradients (the "noise filtering"
    /// stage).
    pub sigma: f32,
    /// Minimum min-eigenvalue response for a feature, as a fraction of the
    /// strongest response in the frame.
    pub quality_level: f32,
    /// Minimum distance in pixels between selected features.
    pub min_distance: f32,
    /// Convergence threshold on the per-iteration update norm.
    pub epsilon: f32,
}

impl Default for TrackingConfig {
    /// KLT defaults comparable to the SD-VBS configuration.
    fn default() -> Self {
        TrackingConfig {
            num_features: 100,
            window_radius: 4,
            pyramid_levels: 3,
            max_iterations: 10,
            sigma: 1.0,
            quality_level: 0.05,
            min_distance: 6.0,
            epsilon: 0.01,
        }
    }
}

impl TrackingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrackingError::InvalidConfig`] if any count is zero,
    /// `sigma` is not positive and finite, `quality_level` is outside
    /// `(0, 1]`, or `epsilon <= 0`.
    pub fn validate(&self) -> Result<(), TrackingError> {
        if self.num_features == 0 {
            return Err(TrackingError::InvalidConfig(
                "num_features must be positive".into(),
            ));
        }
        if self.window_radius == 0 {
            return Err(TrackingError::InvalidConfig(
                "window_radius must be positive".into(),
            ));
        }
        if self.pyramid_levels == 0 {
            return Err(TrackingError::InvalidConfig(
                "pyramid_levels must be positive".into(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(TrackingError::InvalidConfig(
                "max_iterations must be positive".into(),
            ));
        }
        let positive = |v: f32| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !(positive(self.sigma) && self.sigma.is_finite()) {
            return Err(TrackingError::InvalidConfig(format!(
                "sigma must be positive and finite, got {}",
                self.sigma
            )));
        }
        if !(positive(self.quality_level) && self.quality_level <= 1.0) {
            return Err(TrackingError::InvalidConfig(format!(
                "quality_level must be in (0, 1], got {}",
                self.quality_level
            )));
        }
        if !positive(self.epsilon) {
            return Err(TrackingError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        Ok(())
    }

    /// Checks that the smoothing blur fits a frame whose larger side is
    /// `side`: its radius `ceil(3σ)` may not exceed it, so no kernel
    /// allocates more than `2·side + 1` taps.
    pub(crate) fn validate_blur(&self, side: usize) -> Result<(), TrackingError> {
        if gaussian_radius(self.sigma) > side {
            return Err(TrackingError::InvalidConfig(format!(
                "sigma {} blurs wider than the {side}-pixel frame",
                self.sigma
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        TrackingConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_fields_are_caught() {
        let base = TrackingConfig::default();
        for cfg in [
            TrackingConfig {
                num_features: 0,
                ..base
            },
            TrackingConfig {
                window_radius: 0,
                ..base
            },
            TrackingConfig {
                pyramid_levels: 0,
                ..base
            },
            TrackingConfig {
                max_iterations: 0,
                ..base
            },
            TrackingConfig { sigma: 0.0, ..base },
            TrackingConfig {
                sigma: f32::INFINITY,
                ..base
            },
            TrackingConfig {
                quality_level: 0.0,
                ..base
            },
            TrackingConfig {
                quality_level: 1.5,
                ..base
            },
            TrackingConfig {
                epsilon: -1.0,
                ..base
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn error_display_names_field() {
        let cfg = TrackingConfig {
            sigma: -2.0,
            ..TrackingConfig::default()
        };
        let e = cfg.validate().unwrap_err();
        assert!(e.to_string().contains("sigma"));
    }
}
