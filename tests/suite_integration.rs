//! Integration: the full nine-benchmark suite at the paper's smallest
//! input class, exercised through the uniform `Benchmark` interface.

use sdvbs::core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs::profile::Profiler;

#[test]
fn whole_suite_runs_at_sqcif_with_good_quality() {
    for bench in all_benchmarks() {
        bench.warmup();
        let mut prof = Profiler::new();
        let name = bench.info().name;
        let outcome = bench
            .try_run_with(InputSize::Sqcif, 1, ExecPolicy::Serial, &mut prof)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(q) = outcome.quality {
            assert!(q > 0.5, "{name}: quality {q} ({})", outcome.detail);
        }
        assert!(prof.total().as_nanos() > 0, "{name}: no time measured");
        // Every declared kernel must actually have run.
        let report = prof.report();
        for k in bench.info().kernels {
            assert!(report.occupancy(k).is_some(), "{name}: kernel {k} missing");
        }
    }
}

#[test]
fn suite_is_deterministic_per_seed() {
    for bench in all_benchmarks() {
        bench.warmup();
        let size = InputSize::Custom {
            width: 80,
            height: 64,
        };
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        let a = bench.try_run_with(size, 5, ExecPolicy::Serial, &mut p1);
        let b = bench.try_run_with(size, 5, ExecPolicy::Serial, &mut p2);
        assert_eq!(a, b, "{} not deterministic", bench.info().name);
    }
}

#[test]
fn distinct_seeds_give_distinct_inputs() {
    // The paper provides "several distinct inputs for each of the sizes";
    // our seeds play that role. The run details should differ for at
    // least some benchmarks across seeds (quality varies with the scene).
    let size = InputSize::Custom {
        width: 96,
        height: 72,
    };
    let mut any_differ = false;
    for bench in all_benchmarks() {
        bench.warmup();
        let mut p = Profiler::new();
        let a = bench.try_run_with(size, 1, ExecPolicy::Serial, &mut p);
        let b = bench.try_run_with(size, 2, ExecPolicy::Serial, &mut p);
        if a != b {
            any_differ = true;
        }
    }
    assert!(
        any_differ,
        "all benchmarks produced identical outcomes across seeds"
    );
}

#[test]
fn data_intensive_benchmarks_scale_with_input_size() {
    // Figure 2's core claim: disparity (data-intensive) scales with pixel
    // count. Compare a small and a 4x-pixel custom size with a
    // best-of-three timer to suppress noise.
    let suite = all_benchmarks();
    let disparity = &suite[0];
    let time_at = |w: usize, h: usize| {
        (0..3)
            .map(|_| {
                let mut prof = Profiler::new();
                let size = InputSize::Custom {
                    width: w,
                    height: h,
                };
                disparity
                    .try_run_with(size, 1, ExecPolicy::Serial, &mut prof)
                    .expect("valid stereo pair");
                prof.total()
            })
            .min()
            .expect("three samples")
    };
    let small = time_at(96, 72);
    let large = time_at(192, 144);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(ratio > 2.0, "disparity time ratio {ratio:.2} for 4x pixels");
}
