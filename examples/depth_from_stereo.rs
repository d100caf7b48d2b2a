//! Depth from stereo: the paper's motivating robot-vision scenario
//! (adaptive cruise control needs per-pixel depth).
//!
//! Generates a synthetic stereo pair with two foreground objects, computes
//! the dense disparity map, reports accuracy against ground truth, and
//! writes the left image plus a depth visualization as netpbm files.
//!
//! ```text
//! cargo run --release --example depth_from_stereo
//! ```

use sdvbs::disparity::{disparity_accuracy, try_compute_disparity, DisparityConfig};
use sdvbs::image::{write_pgm, write_ppm, RgbImage};
use sdvbs::profile::Profiler;
use sdvbs::synth::stereo_pair;
use std::path::PathBuf;

fn main() {
    let scene = stereo_pair(352, 288, 42);
    let cfg = DisparityConfig::default();
    let mut prof = Profiler::new();
    let disp = prof.run(|p| {
        try_compute_disparity(&scene.left, &scene.right, &cfg, p).expect("valid stereo pair")
    });
    let accuracy = disparity_accuracy(&disp, &scene.truth, 1.0);
    println!("dense disparity on a CIF stereo pair ({} px)", disp.len());
    println!(
        "accuracy within +/-1 px of ground truth: {:.1}%",
        accuracy * 100.0
    );
    println!("\nkernel profile:\n{}", prof.report());

    // Color-code depth: near = warm, far = cool.
    let max_d = cfg.max_disparity() as f32;
    let mut vis = RgbImage::new(disp.width(), disp.height());
    for y in 0..disp.height() {
        for x in 0..disp.width() {
            let t = disp.get(x, y) / max_d;
            let r = (255.0 * t) as u8;
            let b = (255.0 * (1.0 - t)) as u8;
            vis.set(x, y, [r, 64, b]);
        }
    }
    let dir = output_dir();
    write_pgm(&scene.left, dir.join("stereo_left.pgm")).expect("write left image");
    write_pgm(&disp.normalized_to_255(), dir.join("disparity.pgm")).expect("write disparity");
    write_ppm(&vis, dir.join("depth_color.ppm")).expect("write depth visualization");
    println!(
        "wrote stereo_left.pgm, disparity.pgm, depth_color.ppm to {}",
        dir.display()
    );
}

fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/example-output");
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}
