//! Data-parallel kernel execution via [`ExecPolicy`].
//!
//! Runs the same Gaussian filter and stereo-disparity search serially and
//! under thread-parallel policies, checks the results are bit-identical,
//! and shows that per-kernel profile attribution survives parallel runs.
//!
//! ```text
//! cargo run --release --example exec_policy
//! ```

use sdvbs::core::ExecPolicy;
use sdvbs::disparity::{try_compute_disparity, DisparityConfig};
use sdvbs::image::Image;
use sdvbs::kernels::conv::{gaussian_blur, gaussian_blur_with};
use sdvbs::profile::Profiler;
use sdvbs::synth::stereo_pair;

fn main() {
    let img = Image::from_fn(352, 288, |x, y| ((x * 7 + y * 13) % 97) as f32);

    // Row-parallel Gaussian filter on 4 worker threads: bit-identical to
    // the serial kernel by construction (disjoint row bands).
    let serial = gaussian_blur(&img, 1.5);
    let parallel = gaussian_blur_with(&img, 1.5, ExecPolicy::Threads(4));
    assert_eq!(serial.as_slice(), parallel.as_slice());
    println!("Gaussian 352x288: Threads(4) == Serial (bit-identical)");

    // Per-shift parallel stereo search; `Auto` uses every available core.
    let scene = stereo_pair(352, 288, 42);
    let base = DisparityConfig::new(16, 9).expect("valid config");
    let mut serial_prof = Profiler::new();
    let serial_disp = try_compute_disparity(&scene.left, &scene.right, &base, &mut serial_prof)
        .expect("valid stereo pair");

    // Threads(2) forces the parallel per-shift merge even on a single-core
    // host, where `Auto` would resolve to one worker and stay serial.
    let mut report = String::new();
    for exec in [ExecPolicy::Threads(2), ExecPolicy::Auto] {
        let cfg = base.with_exec(exec);
        let mut prof = Profiler::new();
        let disp = try_compute_disparity(&scene.left, &scene.right, &cfg, &mut prof)
            .expect("valid stereo pair");
        assert_eq!(serial_disp.as_slice(), disp.as_slice());
        println!("Disparity 352x288: {exec:?} == Serial (bit-identical)");
        if exec == ExecPolicy::Threads(2) {
            report = prof.report().to_string();
        }
    }

    // Kernel attribution (Figure 3) survives parallel runs: workers time
    // their share into private profilers that are merged back in order.
    println!("\nkernel profile under ExecPolicy::Threads(2):\n{report}");
}
