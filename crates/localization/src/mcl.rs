//! The Monte Carlo Localization particle filter.

use crate::world::{gauss, normalize_angle, Measurement, Odometry, Pose, Trajectory, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdvbs_profile::Profiler;
use std::error::Error;
use std::fmt;

/// Errors from the fallible localization entries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MclError {
    /// An odometry or range/bearing measurement is NaN or infinite.
    NonFiniteMeasurement,
    /// The trajectory has no steps to filter over.
    EmptyTrajectory,
}

impl fmt::Display for MclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MclError::NonFiniteMeasurement => {
                write!(f, "odometry or measurement contains non-finite values")
            }
            MclError::EmptyTrajectory => write!(f, "trajectory has no steps"),
        }
    }
}

impl Error for MclError {}

/// One hypothesis about the robot pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Hypothesized pose.
    pub pose: Pose,
    /// Importance weight (normalized after each update).
    pub weight: f64,
}

/// Particle-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MclConfig {
    /// Number of particles.
    pub particles: usize,
    /// Motion-model translation noise (std-dev per meter).
    pub trans_noise: f64,
    /// Motion-model rotation noise (std-dev per radian plus baseline).
    pub rot_noise: f64,
    /// Sensor-model range std-dev.
    pub range_noise: f64,
    /// Sensor-model bearing std-dev.
    pub bearing_noise: f64,
    /// RNG seed for particle initialization and noise draws.
    pub seed: u64,
}

impl Default for MclConfig {
    fn default() -> Self {
        MclConfig {
            particles: 500,
            trans_noise: 0.08,
            rot_noise: 0.04,
            range_noise: 0.25,
            bearing_noise: 0.06,
            seed: 42,
        }
    }
}

/// Monte Carlo localizer: global localization with a uniform particle
/// cloud, refined by odometry/measurement updates.
#[derive(Debug, Clone)]
pub struct MonteCarloLocalizer {
    particles: Vec<Particle>,
    config: MclConfig,
    rng: StdRng,
}

impl MonteCarloLocalizer {
    /// Creates a localizer with particles spread uniformly over the world
    /// (the "global position estimation" problem of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.particles == 0`.
    pub fn new(world: &World, cfg: &MclConfig) -> Self {
        assert!(cfg.particles > 0, "need at least one particle");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let wc = world.config();
        let w0 = 1.0 / cfg.particles as f64;
        let particles = (0..cfg.particles)
            .map(|_| Particle {
                pose: Pose {
                    x: rng.gen_range(0.0..wc.width),
                    y: rng.gen_range(0.0..wc.height),
                    theta: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                },
                weight: w0,
            })
            .collect();
        MonteCarloLocalizer {
            particles,
            config: *cfg,
            rng,
        }
    }

    /// Creates a localizer for the paper's second subtask — *local
    /// position tracking*: the robot's pose is roughly known and the
    /// filter only keeps track of it over time. Particles are seeded as a
    /// Gaussian cloud around `pose` with the given positional and angular
    /// spreads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.particles == 0` or either spread is negative.
    pub fn new_tracking(pose: Pose, pos_spread: f64, angle_spread: f64, cfg: &MclConfig) -> Self {
        assert!(cfg.particles > 0, "need at least one particle");
        assert!(
            pos_spread >= 0.0 && angle_spread >= 0.0,
            "spreads must be non-negative"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let w0 = 1.0 / cfg.particles as f64;
        let particles = (0..cfg.particles)
            .map(|_| Particle {
                pose: Pose {
                    x: pose.x + gauss(&mut rng) * pos_spread,
                    y: pose.y + gauss(&mut rng) * pos_spread,
                    theta: normalize_angle(pose.theta + gauss(&mut rng) * angle_spread),
                },
                weight: w0,
            })
            .collect();
        MonteCarloLocalizer {
            particles,
            config: *cfg,
            rng,
        }
    }

    /// The current particle set.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Spread of the particle cloud: weighted standard deviation of the
    /// particle positions around the estimate (a convergence diagnostic —
    /// small means the filter is confident).
    pub fn position_spread(&self) -> f64 {
        let est = self.estimate();
        let mut var = 0.0;
        let mut wsum = 0.0;
        for p in &self.particles {
            let d2 = (p.pose.x - est.x).powi(2) + (p.pose.y - est.y).powi(2);
            var += p.weight * d2;
            wsum += p.weight;
        }
        if wsum > 0.0 {
            (var / wsum).sqrt()
        } else {
            0.0
        }
    }

    /// Runs one filter step: motion update, measurement weighting
    /// (`ParticleFilter` kernel) and low-variance resampling (`Sampling`
    /// kernel), rejecting non-finite sensor data with a typed error
    /// instead of silently corrupting every particle weight.
    ///
    /// # Errors
    ///
    /// [`MclError::NonFiniteMeasurement`] if the odometry or any range /
    /// bearing reading is NaN or infinite.
    pub fn try_step(
        &mut self,
        odometry: &Odometry,
        measurements: &[Measurement],
        world: &World,
        prof: &mut Profiler,
    ) -> Result<(), MclError> {
        let odo_finite =
            odometry.rot1.is_finite() && odometry.trans.is_finite() && odometry.rot2.is_finite();
        let meas_finite = measurements
            .iter()
            .all(|m| m.range.is_finite() && m.bearing.is_finite());
        if !odo_finite || !meas_finite {
            return Err(MclError::NonFiniteMeasurement);
        }
        self.step_unchecked(odometry, measurements, world, prof);
        Ok(())
    }

    /// Runs the filter over a whole trajectory, validating every step.
    ///
    /// # Errors
    ///
    /// [`MclError::EmptyTrajectory`] for a zero-step trajectory;
    /// [`MclError::NonFiniteMeasurement`] propagated from [`Self::try_step`].
    pub fn try_run_trajectory(
        &mut self,
        traj: &Trajectory,
        world: &World,
        prof: &mut Profiler,
    ) -> Result<(), MclError> {
        if traj.steps.is_empty() {
            return Err(MclError::EmptyTrajectory);
        }
        for step in &traj.steps {
            self.try_step(&step.odometry, &step.measurements, world, prof)?;
        }
        Ok(())
    }

    /// The validated filter step.
    fn step_unchecked(
        &mut self,
        odometry: &Odometry,
        measurements: &[Measurement],
        world: &World,
        prof: &mut Profiler,
    ) {
        let cfg = self.config;
        // Motion + sensor model: the paper's "Particle Filter" kernel
        // (trigonometry-heavy physical modeling).
        prof.kernel("ParticleFilter", |_| {
            for p in &mut self.particles {
                let rot1 = odometry.rot1 + gauss(&mut self.rng) * cfg.rot_noise;
                let trans = odometry.trans
                    + gauss(&mut self.rng) * (cfg.trans_noise * odometry.trans.abs().max(0.2));
                let rot2 = odometry.rot2 + gauss(&mut self.rng) * cfg.rot_noise;
                p.pose.theta = normalize_angle(p.pose.theta + rot1);
                p.pose.x += p.pose.theta.cos() * trans;
                p.pose.y += p.pose.theta.sin() * trans;
                p.pose.theta = normalize_angle(p.pose.theta + rot2);
            }
            if !measurements.is_empty() {
                let inv_2r2 = 1.0 / (2.0 * cfg.range_noise * cfg.range_noise);
                let inv_2b2 = 1.0 / (2.0 * cfg.bearing_noise * cfg.bearing_noise);
                for p in &mut self.particles {
                    let mut log_w = 0.0f64;
                    for m in measurements {
                        let (lx, ly) = world.landmarks()[m.landmark];
                        let dx = lx - p.pose.x;
                        let dy = ly - p.pose.y;
                        let pred_range = dx.hypot(dy);
                        let pred_bearing = normalize_angle(dy.atan2(dx) - p.pose.theta);
                        let dr = m.range - pred_range;
                        let db = normalize_angle(m.bearing - pred_bearing);
                        log_w -= dr * dr * inv_2r2 + db * db * inv_2b2;
                    }
                    p.weight = log_w;
                }
                // Normalize in log space for numerical stability.
                let max_log = self
                    .particles
                    .iter()
                    .map(|p| p.weight)
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for p in &mut self.particles {
                    p.weight = (p.weight - max_log).exp();
                    sum += p.weight;
                }
                if sum > 0.0 {
                    for p in &mut self.particles {
                        p.weight /= sum;
                    }
                } else {
                    let w0 = 1.0 / self.particles.len() as f64;
                    for p in &mut self.particles {
                        p.weight = w0;
                    }
                }
            }
        });
        // Low-variance (systematic) resampling: the paper's "Sampling"
        // kernel — its weighed_sample hot spot.
        if !measurements.is_empty() {
            prof.kernel("Sampling", |_| {
                let n = self.particles.len();
                let mut new_particles = Vec::with_capacity(n);
                let step = 1.0 / n as f64;
                let mut target = self.rng.gen_range(0.0..step);
                let mut cum = self.particles[0].weight;
                let mut i = 0usize;
                for _ in 0..n {
                    while cum < target && i + 1 < n {
                        i += 1;
                        cum += self.particles[i].weight;
                    }
                    let mut p = self.particles[i];
                    p.weight = step;
                    new_particles.push(p);
                    target += step;
                }
                self.particles = new_particles;
            });
        }
    }

    /// Weighted mean pose of the particle cloud (circular mean for the
    /// heading).
    pub fn estimate(&self) -> Pose {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut sin_sum = 0.0;
        let mut cos_sum = 0.0;
        let mut wsum = 0.0;
        for p in &self.particles {
            x += p.weight * p.pose.x;
            y += p.weight * p.pose.y;
            sin_sum += p.weight * p.pose.theta.sin();
            cos_sum += p.weight * p.pose.theta.cos();
            wsum += p.weight;
        }
        if wsum == 0.0 {
            return Pose {
                x: 0.0,
                y: 0.0,
                theta: 0.0,
            };
        }
        Pose {
            x: x / wsum,
            y: y / wsum,
            theta: sin_sum.atan2(cos_sum),
        }
    }

    /// Effective sample size `1 / Σ wᵢ²` — a standard degeneracy
    /// diagnostic.
    pub fn effective_sample_size(&self) -> f64 {
        let s: f64 = self.particles.iter().map(|p| p.weight * p.weight).sum();
        if s > 0.0 {
            1.0 / s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn run_filter(steps: usize, particles: usize, seed: u64) -> (Pose, Pose) {
        let world = World::generate(&WorldConfig::default());
        let traj = world.simulate(steps, seed);
        let cfg = MclConfig {
            particles,
            seed,
            ..MclConfig::default()
        };
        let mut mcl = MonteCarloLocalizer::new(&world, &cfg);
        let mut prof = Profiler::new();
        for step in &traj.steps {
            mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
        }
        (mcl.estimate(), traj.steps.last().unwrap().true_pose)
    }

    #[test]
    fn filter_converges_to_true_pose() {
        let (est, truth) = run_filter(40, 600, 11);
        assert!(
            est.distance(&truth) < 1.0,
            "position error {:.2}",
            est.distance(&truth)
        );
        assert!(
            est.heading_error(&truth) < 0.4,
            "heading error {:.2}",
            est.heading_error(&truth)
        );
    }

    #[test]
    fn convergence_holds_across_seeds() {
        for seed in [1u64, 2, 3] {
            let (est, truth) = run_filter(40, 600, seed);
            assert!(
                est.distance(&truth) < 1.5,
                "seed {seed}: error {:.2}",
                est.distance(&truth)
            );
        }
    }

    #[test]
    fn more_steps_reduce_error() {
        let (est_short, truth_short) = run_filter(3, 400, 21);
        let (est_long, truth_long) = run_filter(50, 400, 21);
        let err_short = est_short.distance(&truth_short);
        let err_long = est_long.distance(&truth_long);
        assert!(
            err_long < err_short.max(1.0),
            "short {err_short:.2} vs long {err_long:.2}"
        );
    }

    #[test]
    fn resampling_preserves_particle_count_and_weights() {
        let world = World::generate(&WorldConfig::default());
        let traj = world.simulate(5, 3);
        let cfg = MclConfig::default();
        let mut mcl = MonteCarloLocalizer::new(&world, &cfg);
        let mut prof = Profiler::new();
        for step in &traj.steps {
            mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
            assert_eq!(mcl.particles().len(), cfg.particles);
            let wsum: f64 = mcl.particles().iter().map(|p| p.weight).sum();
            assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
        }
    }

    #[test]
    fn effective_sample_size_bounds() {
        let world = World::generate(&WorldConfig::default());
        let mcl = MonteCarloLocalizer::new(&world, &MclConfig::default());
        let ess = mcl.effective_sample_size();
        assert!((ess - 500.0).abs() < 1e-6, "uniform cloud ESS {ess}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_filter(20, 300, 5);
        let (b, _) = run_filter(20, 300, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn tracking_mode_converges_faster_than_global() {
        // Local tracking (known rough start) should beat global
        // localization after very few steps.
        let world = World::generate(&WorldConfig::default());
        let traj = world.simulate(5, 13);
        let cfg = MclConfig {
            particles: 300,
            ..MclConfig::default()
        };
        let mut prof = Profiler::new();

        let mut global = MonteCarloLocalizer::new(&world, &cfg);
        let mut tracking = MonteCarloLocalizer::new_tracking(traj.start, 0.5, 0.1, &cfg);
        for step in &traj.steps {
            global
                .try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
            tracking
                .try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
        }
        let truth = traj.steps.last().unwrap().true_pose;
        let err_tracking = tracking.estimate().distance(&truth);
        assert!(err_tracking < 0.6, "tracking error {err_tracking:.2}");
        // After only five steps the tracking filter is at least as good.
        assert!(err_tracking <= global.estimate().distance(&truth) + 0.3);
    }

    #[test]
    fn position_spread_shrinks_as_filter_converges() {
        let world = World::generate(&WorldConfig::default());
        let traj = world.simulate(30, 17);
        let mut mcl = MonteCarloLocalizer::new(&world, &MclConfig::default());
        let mut prof = Profiler::new();
        let initial_spread = mcl.position_spread();
        for step in &traj.steps {
            mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
        }
        let final_spread = mcl.position_spread();
        assert!(
            final_spread < initial_spread / 3.0,
            "spread {initial_spread:.2} -> {final_spread:.2}"
        );
    }

    #[test]
    fn kidnapped_robot_is_recovered_by_global_filter() {
        // Run the filter on one trajectory segment, then feed it
        // measurements from a completely different pose ("kidnap"): the
        // global filter's error should shrink again within a few steps
        // because weights concentrate on particles near the new pose.
        let world = World::generate(&WorldConfig::default());
        let before = world.simulate(10, 19);
        let after = world.simulate(25, 91); // different trajectory = new pose
        let mut mcl = MonteCarloLocalizer::new(
            &world,
            &MclConfig {
                particles: 1500,
                ..MclConfig::default()
            },
        );
        let mut prof = Profiler::new();
        for step in &before.steps {
            mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
        }
        for step in &after.steps {
            mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
                .expect("finite sensor data");
        }
        let truth = after.steps.last().unwrap().true_pose;
        let err = mcl.estimate().distance(&truth);
        assert!(err < 3.0, "kidnapped-robot recovery error {err:.2}");
    }

    #[test]
    fn kernel_attribution() {
        let world = World::generate(&WorldConfig::default());
        let traj = world.simulate(5, 3);
        let mut mcl = MonteCarloLocalizer::new(&world, &MclConfig::default());
        let mut prof = Profiler::new();
        prof.run(|p| {
            for step in &traj.steps {
                mcl.try_step(&step.odometry, &step.measurements, &world, p)
                    .expect("finite sensor data");
            }
        });
        let rep = prof.report();
        assert!(rep.occupancy("ParticleFilter").is_some());
        assert!(rep.occupancy("Sampling").is_some());
    }
}
