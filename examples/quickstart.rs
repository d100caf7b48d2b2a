//! Quickstart: run every SD-VBS benchmark once at a small size and print a
//! summary table with per-benchmark quality, runtime and kernel hot spots.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sdvbs::core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs::profile::{Profiler, SystemInfo};

fn main() {
    println!("SD-VBS quickstart — one run of each benchmark\n");
    println!("{}", SystemInfo::collect());
    let size = InputSize::Sqcif;
    let seed = 1;
    println!(
        "{:<20} {:>10} {:>8}   hottest kernel",
        "benchmark", "time (ms)", "quality"
    );
    println!("{}", "-".repeat(72));
    for bench in all_benchmarks() {
        let mut prof = Profiler::new();
        let outcome = bench
            .try_run_with(size, seed, ExecPolicy::Serial, &mut prof)
            .expect("SQCIF inputs are valid");
        let report = prof.report();
        let hottest = report
            .kernels()
            .iter()
            .max_by_key(|k| k.self_time)
            .map(|k| {
                format!(
                    "{} ({:.0}%)",
                    k.name,
                    report.occupancy(&k.name).unwrap_or(0.0)
                )
            })
            .unwrap_or_else(|| "-".to_string());
        let quality = outcome
            .quality
            .map(|q| format!("{q:.3}"))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "{:<20} {:>10.1} {:>8}   {}",
            bench.info().name,
            report.total().as_secs_f64() * 1e3,
            quality,
            hottest
        );
    }
    println!("\nInput size: {size} (the paper's smallest class). See");
    println!("`cargo run -p sdvbs-bench --bin figure3` for the full hot-spot analysis.");
}
