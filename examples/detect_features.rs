//! Feature detection gallery: SIFT keypoints and MSER regions on the same
//! scene, written as an annotated image.
//!
//! SIFT finds blob-like keypoints across scales; MSER finds extremal
//! regions stable under intensity thresholding — the two complementary
//! detector families the SD-VBS distribution carries (both credited to
//! Vedaldi in the paper).
//!
//! ```text
//! cargo run --release --example detect_features
//! ```

use sdvbs::image::{write_ppm, RgbImage};
use sdvbs::profile::Profiler;
use sdvbs::sift::{detect_mser, try_detect_and_describe, MserConfig, MserPolarity, SiftConfig};
use sdvbs::synth::textured_image;

fn main() {
    // A textured scene with a few planted dark discs so MSER has stable
    // regions to find.
    let base = textured_image(176, 144, 21);
    let img = sdvbs::image::Image::from_fn(176, 144, |x, y| {
        let d1 = ((x as f32 - 50.0).powi(2) + (y as f32 - 40.0).powi(2)).sqrt();
        let d2 = ((x as f32 - 120.0).powi(2) + (y as f32 - 95.0).powi(2)).sqrt();
        if d1 < 11.0 || d2 < 14.0 {
            35.0
        } else {
            80.0 + 0.6 * base.get(x, y)
        }
    });
    let mut prof = Profiler::new();
    let sift_features = prof
        .run(|p| try_detect_and_describe(&img, &SiftConfig::default(), p).expect("valid image"));
    let msers = detect_mser(&img, MserPolarity::Dark, &MserConfig::default());
    println!(
        "{} SIFT keypoints, {} MSER regions",
        sift_features.len(),
        msers.len()
    );
    println!("\nSIFT kernel profile:\n{}", prof.report());
    for r in &msers {
        println!(
            "MSER at ({:6.1}, {:6.1}): {} px at level {}, variation {:.3}",
            r.cx, r.cy, r.size, r.level, r.variation
        );
    }
    // Annotate: SIFT in yellow crosses, MSER centroids in cyan squares.
    let mut vis = RgbImage::from_gray(&img);
    for f in &sift_features {
        let (x, y) = (f.keypoint.x as isize, f.keypoint.y as isize);
        for d in -2..=2isize {
            vis.draw_marker(x + d, y, 1, [255, 220, 0]);
            vis.draw_marker(x, y + d, 1, [255, 220, 0]);
        }
    }
    for r in &msers {
        vis.draw_marker(r.cx as isize, r.cy as isize, 5, [0, 220, 255]);
    }
    let dir = std::path::PathBuf::from("target/example-output");
    std::fs::create_dir_all(&dir).expect("create output directory");
    write_ppm(&vis, dir.join("features.ppm")).expect("write annotated features");
    println!(
        "\nwrote features.ppm (SIFT yellow, MSER cyan) to {}",
        dir.display()
    );
}
