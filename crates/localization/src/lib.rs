//! SD-VBS benchmark 5: **Robot Localization** — Monte Carlo Localization
//! (MCL).
//!
//! Localization estimates a robot's pose from noisy odometry and sensor
//! readings. SD-VBS implements the Monte Carlo Localization algorithm: a
//! particle filter combined with probabilistic models of robot perception
//! and motion. The paper highlights two properties this reproduction
//! preserves:
//!
//! * The hot spots split roughly 50/50 between the **weighted sampling**
//!   kernel (`Sampling`) and the **particle filter** kernel
//!   (`ParticleFilter`), both of which "use complex mathematical
//!   operations such as trigonometric functions and square root, making
//!   heavy utilization of floating point engines".
//! * Runtime is governed by the particle count and trajectory, *not* by an
//!   input image size — localization is the flattest line in Figure 2.
//!
//! Because the original sensor logs are not distributed, this crate also
//! contains the substrate the benchmark needs: a 2-D world simulator
//! ([`World`]) producing noisy odometry and landmark range/bearing
//! measurements from a known ground-truth trajectory, so the filter's
//! convergence can actually be asserted in tests.
//!
//! # Examples
//!
//! ```
//! use sdvbs_localization::{MclConfig, MonteCarloLocalizer, World, WorldConfig};
//! use sdvbs_profile::Profiler;
//!
//! let world = World::generate(&WorldConfig::default());
//! let traj = world.simulate(30, 7);
//! let mut mcl = MonteCarloLocalizer::new(&world, &MclConfig::default());
//! let mut prof = Profiler::new();
//! for step in &traj.steps {
//!     mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)?;
//! }
//! let est = mcl.estimate();
//! let true_pose = traj.steps.last().unwrap().true_pose;
//! assert!((est.x - true_pose.x).hypot(est.y - true_pose.y) < 1.5);
//! # Ok::<(), sdvbs_localization::MclError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mcl;
mod world;

pub use mcl::{MclConfig, MclError, MonteCarloLocalizer, Particle};
pub use world::{Measurement, Odometry, Pose, Trajectory, TrajectoryStep, World, WorldConfig};
