//! Shared harness utilities for the table/figure regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary    | reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — benchmark classification by concentration area |
//! | `table2`  | Table II — descriptions, characteristics, domains |
//! | `figure1` | Figure 1 — kernel decomposition (with shared kernels) |
//! | `figure2` | Figure 2 — execution time vs input size |
//! | `figure3` | Figure 3 — per-kernel occupancy at the three sizes |
//! | `table4`  | Table IV — work/span parallelism per kernel |
//!
//! Run any of them with `cargo run --release -p sdvbs-bench --bin <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdvbs_runner::{run_jobs, Job, RunRecord, RunnerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Runs a batch of jobs through the `sdvbs-runner` engine (single worker
/// for timing fidelity) and returns one record per job, in submission
/// order. This is the shared measurement path for the figure regenerators;
/// the records are the same ones `sdvbs-runner run --out` persists, so a
/// `--json` flag on a regenerator just writes them out.
///
/// # Panics
///
/// Panics if a job names an unregistered benchmark — a programming error
/// in a regenerator, not a runtime condition.
pub fn run_suite(jobs: &[Job]) -> Vec<RunRecord> {
    run_jobs(jobs, &RunnerConfig::default())
        .unwrap_or_else(|e| panic!("benchmark suite run failed: {e}"))
}

/// Extracts a `--json <path>` flag from raw CLI args, if present.
///
/// # Panics
///
/// Panics when `--json` is given without a following path.
pub fn json_flag(args: &[String]) -> Option<PathBuf> {
    let idx = args.iter().position(|a| a == "--json")?;
    let path = args
        .get(idx + 1)
        .unwrap_or_else(|| panic!("--json needs a file path"));
    Some(PathBuf::from(path))
}

/// Writes records as JSONL (the runner's result-store format) and prints a
/// confirmation to stderr so it doesn't pollute the regenerated table.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn save_json(path: &std::path::Path, records: &[RunRecord]) {
    sdvbs_runner::write_records(path, records)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("wrote {} record(s) to {}", records.len(), path.display());
}

/// Prints a section header matching the other regenerators' style.
pub fn header(title: &str) {
    let line = "=".repeat(title.len().max(8));
    println!("{line}\n{title}\n{line}\n");
}

/// Formats a duration as milliseconds with sensible precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 10.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::InputSize;

    #[test]
    fn run_suite_returns_records_in_submission_order() {
        use sdvbs_core::ExecPolicy;
        let size = InputSize::Custom {
            width: 64,
            height: 48,
        };
        let jobs = vec![
            Job::new("Feature Tracking", size, ExecPolicy::Serial, 1, 1),
            Job::new("Disparity Map", size, ExecPolicy::Serial, 1, 1),
        ];
        let records = run_suite(&jobs);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].benchmark, "Feature Tracking");
        assert_eq!(records[1].benchmark, "Disparity Map");
        assert!(records.iter().all(|r| r.min_ms > 0.0));
    }

    #[test]
    fn json_flag_extracts_path() {
        let args: Vec<String> = vec!["--json".into(), "out.jsonl".into()];
        assert_eq!(json_flag(&args), Some(PathBuf::from("out.jsonl")));
        assert_eq!(json_flag(&[]), None);
    }

    #[test]
    fn fmt_ms_precision() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.50");
        assert_eq!(fmt_ms(Duration::from_millis(123)), "123.0");
    }
}
