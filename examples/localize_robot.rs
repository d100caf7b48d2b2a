//! Robot localization: watch a particle filter converge from global
//! uncertainty to a tight pose estimate (the paper's robotics scenario).
//!
//! ```text
//! cargo run --release --example localize_robot
//! ```

use sdvbs::localization::{MclConfig, MonteCarloLocalizer, World, WorldConfig};
use sdvbs::profile::Profiler;

fn main() {
    let world = World::generate(&WorldConfig::default());
    println!(
        "20x20 m arena, {} landmarks, sensor range {} m",
        world.landmarks().len(),
        world.config().sensor_range
    );
    let traj = world.simulate(40, 12);
    let cfg = MclConfig {
        particles: 800,
        ..MclConfig::default()
    };
    let mut mcl = MonteCarloLocalizer::new(&world, &cfg);
    let mut prof = Profiler::new();
    println!(
        "\n{:>5} {:>12} {:>12} {:>10} {:>10}",
        "step", "est (x, y)", "true (x, y)", "error m", "spread m"
    );
    for (i, step) in traj.steps.iter().enumerate() {
        mcl.try_step(&step.odometry, &step.measurements, &world, &mut prof)
            .expect("finite sensor data");
        if i % 5 == 0 || i + 1 == traj.steps.len() {
            let est = mcl.estimate();
            let t = step.true_pose;
            println!(
                "{:>5} {:>5.1},{:>5.1} {:>6.1},{:>5.1} {:>10.2} {:>10.2}",
                i,
                est.x,
                est.y,
                t.x,
                t.y,
                est.distance(&t),
                mcl.position_spread()
            );
        }
    }
    println!(
        "\nkernel profile ({} particles x {} steps):",
        cfg.particles,
        traj.steps.len()
    );
    println!("{}", prof.report());
}
