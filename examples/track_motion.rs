//! Feature tracking across a synthetic video: the paper's
//! robot-vision/automotive tracking scenario.
//!
//! Generates a sequence of frames translating at a known velocity, tracks
//! KLT features frame to frame, and compares the recovered per-frame
//! motion against the truth.
//!
//! ```text
//! cargo run --release --example track_motion
//! ```

use sdvbs::profile::Profiler;
use sdvbs::synth::frame_sequence;
use sdvbs::tracking::{try_extract_features, try_track_features, TrackingConfig};

fn main() {
    let (vx, vy) = (1.6f32, -0.9f32);
    let frames = frame_sequence(176, 144, 7, 6, vx, vy);
    let cfg = TrackingConfig::default();
    let mut prof = Profiler::new();

    println!(
        "tracking across {} QCIF frames, true velocity ({vx}, {vy}) px/frame\n",
        frames.len()
    );
    println!(
        "{:<12} {:>8} {:>12} {:>12}",
        "frame pair", "tracks", "median dx", "median dy"
    );
    for i in 0..frames.len() - 1 {
        let features =
            prof.run(|p| try_extract_features(&frames[i], &cfg, p).expect("valid frame"));
        let tracks = prof.run(|p| {
            try_track_features(&frames[i], &frames[i + 1], &features, &cfg, p)
                .expect("valid frame pair")
        });
        let mut dxs: Vec<f32> = tracks.iter().map(|t| t.motion().0).collect();
        let mut dys: Vec<f32> = tracks.iter().map(|t| t.motion().1).collect();
        dxs.sort_by(|a, b| a.partial_cmp(b).expect("finite motion"));
        dys.sort_by(|a, b| a.partial_cmp(b).expect("finite motion"));
        let (mdx, mdy) = (dxs[dxs.len() / 2], dys[dys.len() / 2]);
        println!(
            "{:<12} {:>8} {:>12.2} {:>12.2}",
            format!("{} -> {}", i, i + 1),
            tracks.len(),
            mdx,
            mdy
        );
    }
    println!("\nkernel profile over all pairs:\n{}", prof.report());
}
