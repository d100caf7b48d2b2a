//! Thread-count sweep over the policy-aware benchmarks — the practical
//! counterpart of Table IV.
//!
//! Table IV reports each kernel's *intrinsic* parallelism on an ideal
//! dataflow machine (SSD 1,800x, Sort 1,700x, Correlation 502x, Integral
//! Image 160x, ...). This binary measures what a real multicore host
//! cashes in through the `ExecPolicy` layer: the three benchmarks with
//! data-parallel execution paths (disparity, segmentation, face
//! detection) run at 1, 2, 4 and 8 worker threads on a CIF input through
//! the shared `run_suite` engine, and each kernel's self time is read
//! back out of the per-kernel breakdown the runner records anyway.
//!
//! The measured *ranking* inside disparity is then cross-checked against
//! Table IV's: kernels the paper credits with more intrinsic parallelism
//! should scale at least as well as those with less (on hosts with enough
//! cores — on a single-core host every speedup is ~1x and the check is
//! skipped).
//!
//! Pass `--json <path>` to also write the measurements in the
//! `sdvbs-runner` JSONL record format. Run with
//! `cargo run --release -p sdvbs-bench --bin scaling`.

use sdvbs_bench::{header, json_flag, run_suite, save_json};
use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::{Job, RunRecord};
use std::num::NonZeroUsize;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 2;

/// Table IV parallelism figures for the disparity kernels the runner
/// records, used for the ranking cross-check (name, paper figure).
const PAPER_RANKING: [(&str, f64); 4] = [
    ("SSD", 1800.0),
    ("Sort", 1700.0),
    ("Correlation", 502.0),
    ("IntegralImage", 160.0),
];

/// Self time of `kernel` in a record's breakdown, in ms.
fn kernel_ms(rec: &RunRecord, kernel: &str) -> Option<f64> {
    rec.kernels
        .iter()
        .find(|k| k.name == kernel)
        .map(|k| k.self_ms)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = json_flag(&args);
    header("Thread-count sweep over the data-parallel benchmarks (cf. Table IV)");
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    println!("host: {cores} hardware thread(s) available; input CIF (352x288)\n");
    if cores == 1 {
        println!(
            "note: single-core host — speedups will be ~1x (modulo spawn overhead);\n\
             the sweep still verifies the parallel paths and their overhead.\n"
        );
    }

    // The benchmarks whose kernels honor `ExecPolicy`, disparity first.
    let swept: Vec<&str> = all_benchmarks()
        .iter()
        .filter(|b| b.info().honors_exec_policy)
        .map(|b| b.info().name)
        .collect();
    // One job per benchmark × thread count; records come back in this order.
    let jobs: Vec<Job> = swept
        .iter()
        .flat_map(|&name| {
            THREADS
                .iter()
                .map(move |&n| Job::new(name, InputSize::Cif, ExecPolicy::Threads(n), 7, REPS))
        })
        .collect();
    let records = run_suite(&jobs);

    // Benchmark-level totals and speedups.
    print!("{:<22}", "benchmark");
    for n in THREADS {
        print!(" {:>10}", format!("{n}T (ms)"));
    }
    println!(" {:>8} {:>8}", "4T speed", "8T speed");
    println!("{}", "-".repeat(84));
    for (name, row) in swept.iter().zip(records.chunks(THREADS.len())) {
        print!("{:<22}", name);
        for rec in row {
            print!(" {:>10.2}", rec.min_ms);
        }
        let base = row[0].min_ms.max(1e-9);
        println!(
            " {:>7.2}x {:>7.2}x",
            base / row[2].min_ms.max(1e-9),
            base / row[3].min_ms.max(1e-9)
        );
    }

    // Kernel-level speedups inside disparity, read from the breakdowns.
    let disparity = &records[..THREADS.len()];
    println!("\ndisparity kernels (self time from the recorded breakdowns):");
    print!("{:<22} {:>10}", "kernel", "Table IV");
    for n in THREADS {
        print!(" {:>10}", format!("{n}T (ms)"));
    }
    println!(" {:>8}", "4T speed");
    let mut measured: Vec<(&str, f64, f64)> = Vec::new(); // (kernel, paper, 4T speedup)
    for (kernel, paper) in PAPER_RANKING {
        let times: Vec<Option<f64>> = disparity.iter().map(|r| kernel_ms(r, kernel)).collect();
        if times.iter().any(Option::is_none) {
            continue;
        }
        let times: Vec<f64> = times.into_iter().map(Option::unwrap).collect();
        let speedup = times[0].max(1e-9) / times[2].max(1e-9);
        print!("{:<22} {:>9.0}x", kernel, paper);
        for t in &times {
            print!(" {:>10.3}", t);
        }
        println!(" {:>7.2}x", speedup);
        measured.push((kernel, paper, speedup));
    }

    // Cross-check the measured ranking against Table IV with a generous
    // tolerance — real hosts add memory bandwidth and overhead effects the
    // ideal dataflow machine ignores.
    println!();
    if cores < 2 {
        println!("ranking cross-check vs Table IV: skipped (needs >= 2 cores)");
    } else {
        let mut consistent = true;
        for pair in measured.windows(2) {
            let (hi, lo) = (&pair[0], &pair[1]);
            let ok = hi.2 >= lo.2 * 0.8;
            println!(
                "  {} ({:.0}x, {:.2}x at 4T) vs {} ({:.0}x, {:.2}x at 4T): {}",
                hi.0,
                hi.1,
                hi.2,
                lo.0,
                lo.1,
                lo.2,
                if ok { "consistent" } else { "INVERTED" }
            );
            consistent &= ok;
        }
        println!(
            "ranking cross-check vs Table IV: {}",
            if consistent {
                "consistent"
            } else {
                "inverted pairs found (see above)"
            }
        );
    }
    if let Some(path) = json_out {
        save_json(&path, &records);
    }
}
