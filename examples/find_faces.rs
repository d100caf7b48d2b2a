//! Face detection: the paper's video-surveillance scenario.
//!
//! Loads the shipped Viola–Jones cascade (trained on synthetic faces),
//! scans a rendered scene, and writes an annotated image with detection
//! boxes.
//!
//! ```text
//! cargo run --release --example find_faces
//! ```
//!
//! The cascade is `Cascade::pretrained()`, the output of the default
//! training configuration committed as a model file. To retrain it, run
//! `Cascade::train(&CascadeConfig::default(), ..)` or the
//! `sdvbs-facedetect` example `train_cascade`, which writes the file.

use sdvbs::facedetect::{detect_faces, Cascade, DetectorConfig};
use sdvbs::image::{write_ppm, RgbImage};
use sdvbs::profile::Profiler;
use sdvbs::synth::face_scene;
use std::path::PathBuf;

fn main() {
    let cascade = Cascade::pretrained();
    println!(
        "loaded the shipped {}-stage Viola-Jones cascade\n",
        cascade.stages()
    );

    let scene = face_scene(352, 288, 11, 4);
    let mut detect_prof = Profiler::new();
    let found =
        detect_prof.run(|p| detect_faces(&scene.image, cascade, &DetectorConfig::default(), p));
    println!(
        "scene has {} faces; detector reported {}:",
        scene.faces.len(),
        found.len()
    );
    for d in &found {
        println!(
            "  box at ({:>3}, {:>3}) size {:>3}, support {}",
            d.x, d.y, d.size, d.support
        );
    }
    println!("\ndetection kernel profile:\n{}", detect_prof.report());

    // Annotate: ground truth in green, detections in red.
    let mut vis = RgbImage::from_gray(&scene.image);
    for f in &scene.faces {
        draw_box(&mut vis, f.x, f.y, f.size, [0, 255, 0]);
    }
    for d in &found {
        draw_box(&mut vis, d.x, d.y, d.size, [255, 0, 0]);
    }
    let dir = PathBuf::from("target/example-output");
    std::fs::create_dir_all(&dir).expect("create output directory");
    write_ppm(&vis, dir.join("faces.ppm")).expect("write annotated scene");
    println!(
        "wrote faces.ppm (truth green, detections red) to {}",
        dir.display()
    );
}

fn draw_box(img: &mut RgbImage, x: usize, y: usize, size: usize, color: [u8; 3]) {
    for i in 0..size {
        for &(px, py) in &[
            (x + i, y),
            (x + i, y + size - 1),
            (x, y + i),
            (x + size - 1, y + i),
        ] {
            if px < img.width() && py < img.height() {
                img.set(px, py, color);
            }
        }
    }
}
