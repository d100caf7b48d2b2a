//! The 2-D world simulator: landmark map, ground-truth motion, and noisy
//! sensing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A robot pose: position plus heading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// X position (meters).
    pub x: f64,
    /// Y position (meters).
    pub y: f64,
    /// Heading in radians, normalized to `(-π, π]`.
    pub theta: f64,
}

impl Pose {
    /// Euclidean distance to another pose's position.
    pub fn distance(&self, other: &Pose) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Smallest absolute heading difference to another pose.
    pub fn heading_error(&self, other: &Pose) -> f64 {
        normalize_angle(self.theta - other.theta).abs()
    }
}

/// Normalizes an angle into `(-π, π]`.
pub(crate) fn normalize_angle(a: f64) -> f64 {
    // IEEE `fmod` returns `a` unchanged when `|a| < 2π`, where the
    // particle filter's angles almost always are, so skip the call there.
    let tau = 2.0 * std::f64::consts::PI;
    let mut a = if a.abs() < tau { a } else { a % tau };
    if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    } else if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    }
    a
}

/// A relative motion report from wheel odometry: rotate, translate, rotate
/// (the classic odometry motion decomposition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Odometry {
    /// First rotation (radians).
    pub rot1: f64,
    /// Forward translation (meters).
    pub trans: f64,
    /// Second rotation (radians).
    pub rot2: f64,
}

/// A range/bearing observation of a known landmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Index of the observed landmark in [`World::landmarks`].
    pub landmark: usize,
    /// Measured distance (meters).
    pub range: f64,
    /// Measured bearing relative to the robot heading (radians).
    pub bearing: f64,
}

/// Configuration of the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Arena width (meters).
    pub width: f64,
    /// Arena height (meters).
    pub height: f64,
    /// Number of point landmarks.
    pub landmarks: usize,
    /// Maximum sensing distance (meters).
    pub sensor_range: f64,
    /// Odometry noise: std-dev of translation per meter traveled.
    pub odom_trans_noise: f64,
    /// Odometry noise: std-dev of rotation per radian turned.
    pub odom_rot_noise: f64,
    /// Sensor noise: range std-dev (meters).
    pub range_noise: f64,
    /// Sensor noise: bearing std-dev (radians).
    pub bearing_noise: f64,
    /// Seed for landmark placement.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            width: 20.0,
            height: 20.0,
            landmarks: 12,
            sensor_range: 10.0,
            odom_trans_noise: 0.05,
            odom_rot_noise: 0.02,
            range_noise: 0.15,
            bearing_noise: 0.03,
            seed: 1,
        }
    }
}

/// A 2-D arena with point landmarks, able to simulate a robot driving
/// through it.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    landmarks: Vec<(f64, f64)>,
}

/// One simulated timestep: the ground truth pose after the motion, the
/// noisy odometry that reported the motion, and the sensor readings taken
/// at the new pose.
#[derive(Debug, Clone)]
pub struct TrajectoryStep {
    /// Ground-truth pose (for evaluation only — the filter never sees it).
    pub true_pose: Pose,
    /// Noisy odometry for this motion.
    pub odometry: Odometry,
    /// Landmark observations at the new pose.
    pub measurements: Vec<Measurement>,
}

/// A complete simulated run.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The starting ground-truth pose.
    pub start: Pose,
    /// Per-step ground truth, odometry and measurements.
    pub steps: Vec<TrajectoryStep>,
}

impl World {
    /// Generates a world with deterministically placed landmarks.
    ///
    /// # Panics
    ///
    /// Panics if the arena is non-positive in size or has no landmarks.
    pub fn generate(cfg: &WorldConfig) -> Self {
        assert!(
            cfg.width > 0.0 && cfg.height > 0.0,
            "arena must have positive size"
        );
        assert!(cfg.landmarks > 0, "need at least one landmark");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let landmarks = (0..cfg.landmarks)
            .map(|_| {
                (
                    rng.gen_range(0.0..cfg.width),
                    rng.gen_range(0.0..cfg.height),
                )
            })
            .collect();
        World {
            config: *cfg,
            landmarks,
        }
    }

    /// The landmark positions.
    pub fn landmarks(&self) -> &[(f64, f64)] {
        &self.landmarks
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Simulates `steps` timesteps of a wandering robot; `seed` controls
    /// the trajectory and all noise draws.
    pub fn simulate(&self, steps: usize, seed: u64) -> Trajectory {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f63616c697a65);
        let cfg = &self.config;
        let mut pose = Pose {
            x: cfg.width * 0.5,
            y: cfg.height * 0.5,
            theta: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        };
        let start = pose;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            // Wander: gentle random turn plus forward motion, turning away
            // from walls.
            let mut turn: f64 = rng.gen_range(-0.35..0.35);
            let trans: f64 = rng.gen_range(0.4..0.8);
            let ahead_x = pose.x + (pose.theta + turn).cos() * trans * 2.0;
            let ahead_y = pose.y + (pose.theta + turn).sin() * trans * 2.0;
            if ahead_x < 1.0
                || ahead_y < 1.0
                || ahead_x > cfg.width - 1.0
                || ahead_y > cfg.height - 1.0
            {
                turn += std::f64::consts::FRAC_PI_2;
            }
            let rot1 = turn * 0.5;
            let rot2 = turn * 0.5;
            // Ground-truth motion.
            pose.theta = normalize_angle(pose.theta + rot1);
            pose.x += pose.theta.cos() * trans;
            pose.y += pose.theta.sin() * trans;
            pose.theta = normalize_angle(pose.theta + rot2);
            // Noisy odometry report.
            let odometry = Odometry {
                rot1: rot1 + gauss(&mut rng) * cfg.odom_rot_noise,
                trans: trans + gauss(&mut rng) * cfg.odom_trans_noise,
                rot2: rot2 + gauss(&mut rng) * cfg.odom_rot_noise,
            };
            // Sensor sweep.
            let mut measurements = Vec::new();
            for (i, &(lx, ly)) in self.landmarks.iter().enumerate() {
                let dx = lx - pose.x;
                let dy = ly - pose.y;
                let range = dx.hypot(dy);
                if range <= cfg.sensor_range {
                    measurements.push(Measurement {
                        landmark: i,
                        range: range + gauss(&mut rng) * cfg.range_noise,
                        bearing: normalize_angle(
                            dy.atan2(dx) - pose.theta + gauss(&mut rng) * cfg.bearing_noise,
                        ),
                    });
                }
            }
            out.push(TrajectoryStep {
                true_pose: pose,
                odometry,
                measurements,
            });
        }
        Trajectory { start, steps: out }
    }
}

/// Standard normal draw via Box–Muller (keeps the `rand` dependency to the
/// core API, no `rand_distr`).
pub(crate) fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `normalize_angle` as written before the fast path: `fmod` always.
    fn reference_normalize_angle(a: f64) -> f64 {
        let mut a = a % (2.0 * std::f64::consts::PI);
        if a <= -std::f64::consts::PI {
            a += 2.0 * std::f64::consts::PI;
        } else if a > std::f64::consts::PI {
            a -= 2.0 * std::f64::consts::PI;
        }
        a
    }

    #[test]
    fn normalize_angle_matches_the_fmod_form_bit_for_bit() {
        use std::f64::consts::PI;
        let mut inputs = vec![
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0,
            f64::from_bits(1),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in [0.0, PI, 2.0 * PI, 3.0, 7.0, 1e-300] {
            inputs.extend([a, a.next_up(), a.next_down()]);
        }
        let negated: Vec<f64> = inputs.iter().map(|a| -a).collect();
        inputs.extend(negated);
        for a in inputs {
            assert_eq!(
                normalize_angle(a).to_bits(),
                reference_normalize_angle(a).to_bits(),
                "{a:e} ({:#x})",
                a.to_bits()
            );
        }
    }

    #[test]
    fn normalize_angle_range() {
        for a in [-10.0, -3.2, 0.0, 3.2, 10.0, 100.0] {
            let n = normalize_angle(a);
            assert!(n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12);
        }
        assert!((normalize_angle(2.0 * std::f64::consts::PI) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn world_generation_is_deterministic() {
        let a = World::generate(&WorldConfig::default());
        let b = World::generate(&WorldConfig::default());
        assert_eq!(a.landmarks(), b.landmarks());
        let c = World::generate(&WorldConfig {
            seed: 2,
            ..WorldConfig::default()
        });
        assert_ne!(a.landmarks(), c.landmarks());
    }

    #[test]
    fn landmarks_are_inside_the_arena() {
        let w = World::generate(&WorldConfig::default());
        for &(x, y) in w.landmarks() {
            assert!((0.0..=20.0).contains(&x));
            assert!((0.0..=20.0).contains(&y));
        }
    }

    #[test]
    fn trajectory_stays_mostly_inside() {
        let w = World::generate(&WorldConfig::default());
        let t = w.simulate(100, 3);
        assert_eq!(t.steps.len(), 100);
        for s in &t.steps {
            assert!(
                s.true_pose.x > -2.0 && s.true_pose.x < 22.0,
                "{:?}",
                s.true_pose
            );
            assert!(
                s.true_pose.y > -2.0 && s.true_pose.y < 22.0,
                "{:?}",
                s.true_pose
            );
        }
    }

    #[test]
    fn measurements_are_near_true_geometry() {
        let w = World::generate(&WorldConfig::default());
        let t = w.simulate(20, 5);
        for s in &t.steps {
            for m in &s.measurements {
                let (lx, ly) = w.landmarks()[m.landmark];
                let true_range = (lx - s.true_pose.x).hypot(ly - s.true_pose.y);
                assert!((m.range - true_range).abs() < 1.0, "range way off");
                assert!(true_range <= w.config().sensor_range + 1e-9);
            }
        }
    }

    #[test]
    fn odometry_approximates_true_motion() {
        let w = World::generate(&WorldConfig::default());
        let t = w.simulate(50, 9);
        let mut pose = t.start;
        // Dead-reckon with the noisy odometry; should stay within a couple
        // of meters over 50 steps of small noise.
        for s in &t.steps {
            pose.theta = normalize_angle(pose.theta + s.odometry.rot1);
            pose.x += pose.theta.cos() * s.odometry.trans;
            pose.y += pose.theta.sin() * s.odometry.trans;
            pose.theta = normalize_angle(pose.theta + s.odometry.rot2);
        }
        let end = t.steps.last().unwrap().true_pose;
        assert!(
            pose.distance(&end) < 5.0,
            "dead reckoning drifted {:.2}",
            pose.distance(&end)
        );
    }

    #[test]
    fn gauss_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20000;
        let samples: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
