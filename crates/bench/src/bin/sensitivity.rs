//! Input-sensitivity study: the paper ships "several distinct inputs for
//! each of the sizes, which can facilitate power and sensitivity
//! studies". Our seeds play that role — this harness runs every benchmark
//! on five distinct inputs per size class and reports the runtime and
//! quality spread.

use sdvbs_bench::{fmt_ms, header, run_suite};
use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::Job;
use std::time::Duration;

fn main() {
    header("Input sensitivity — five distinct inputs per benchmark (SQCIF)");
    let seeds = [1u64, 2, 3, 4, 5];
    let names: Vec<&str> = all_benchmarks().iter().map(|b| b.info().name).collect();
    // One job per benchmark × seed, best of two timed runs after a warm-up;
    // records come back in this order.
    let jobs: Vec<Job> = names
        .iter()
        .flat_map(|&name| {
            seeds
                .iter()
                .map(move |&seed| Job::new(name, InputSize::Sqcif, ExecPolicy::Serial, seed, 2))
        })
        .collect();
    let records = run_suite(&jobs);
    println!(
        "{:<20} {:>10} {:>10} {:>9} {:>10} {:>10}",
        "benchmark", "min (ms)", "max (ms)", "spread", "min qual", "max qual"
    );
    println!("{}", "-".repeat(76));
    for (name, row) in names.iter().zip(records.chunks(seeds.len())) {
        let (min_t, max_t) = row.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |a, r| {
            (a.0.min(r.min_ms), a.1.max(r.min_ms))
        });
        let spread = max_t / min_t;
        let (min_q, max_q) = row
            .iter()
            .filter_map(|r| r.quality)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |a, q| {
                (a.0.min(q), a.1.max(q))
            });
        let fq = |q: f64| {
            if q.is_finite() {
                format!("{q:.3}")
            } else {
                "n/a".to_string()
            }
        };
        let ms = |t: f64| fmt_ms(Duration::from_secs_f64(t / 1e3));
        println!(
            "{:<20} {:>10} {:>10} {:>8.2}x {:>10} {:>10}",
            name,
            ms(min_t),
            ms(max_t),
            spread,
            fq(min_q),
            fq(max_q),
        );
    }
    println!();
    println!("The paper's observation that some benchmarks are sensitive to input");
    println!("*content* (stitch to feature quality, localization to the trajectory)");
    println!("shows up as runtime/quality spread across seeds at a fixed size.");
}
