//! Serial vs parallel equivalence for the per-shift disparity search.
//!
//! `DisparityConfig::with_exec` promises a **bit-identical** disparity map
//! under any [`ExecPolicy`] — including the argmin tie-break (earliest
//! shift wins). Verified for 1, 2 and 4 threads at the paper's three
//! input sizes.

use proptest::prelude::*;
use sdvbs_disparity::{try_compute_disparity, DisparityConfig};
use sdvbs_exec::ExecPolicy;
use sdvbs_profile::Profiler;
use sdvbs_synth::stereo_pair;

/// The paper's three input sizes: SQCIF, QCIF, CIF.
const SIZES: [(usize, usize); 3] = [(128, 96), (176, 144), (352, 288)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn disparity_map_is_policy_invariant(seed in 0u64..10_000, size in 0usize..3) {
        let (w, h) = SIZES[size];
        let s = stereo_pair(w, h, seed);
        let base = DisparityConfig::new(s.max_disparity.max(1), 9).expect("valid config");
        let mut prof = Profiler::new();
        let serial = try_compute_disparity(&s.left, &s.right, &base, &mut prof).expect("valid stereo pair");
        for n in [1usize, 2, 4] {
            let cfg = base.with_exec(ExecPolicy::Threads(n));
            let mut prof = Profiler::new();
            let par = try_compute_disparity(&s.left, &s.right, &cfg, &mut prof).expect("valid stereo pair");
            prop_assert_eq!(&par, &serial, "threads = {}", n);
            // Kernel attribution survives the parallel run: all four
            // kernels are present with one call per shift (plus the
            // cross-worker "Sort" merges).
            let report = prof.report();
            for k in ["SSD", "IntegralImage", "Correlation", "Sort"] {
                prop_assert!(report.occupancy(k).is_some(), "kernel {} missing", k);
            }
        }
    }
}

#[test]
fn auto_policy_matches_serial_too() {
    let s = stereo_pair(128, 96, 5);
    let base = DisparityConfig::new(s.max_disparity.max(1), 9).expect("valid config");
    let mut prof = Profiler::new();
    let serial =
        try_compute_disparity(&s.left, &s.right, &base, &mut prof).expect("valid stereo pair");
    let auto = base.with_exec(ExecPolicy::Auto);
    let par =
        try_compute_disparity(&s.left, &s.right, &auto, &mut prof).expect("valid stereo pair");
    assert_eq!(par, serial);
    assert_eq!(auto.exec(), ExecPolicy::Auto);
}
