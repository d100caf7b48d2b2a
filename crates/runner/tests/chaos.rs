//! Chaos harness: the whole suite under heavy seeded fault injection.
//!
//! The contract under test is the robustness tentpole end to end: with
//! panics, NaN poisoning, and watchdog stalls injected into nearly half
//! of all attempts, `run_jobs_report` must still return `Ok` (no fault
//! ever escapes as an uncaught panic), every cell must end as a record —
//! completed, failed, timed out, or quarantined — and whatever was
//! written to the store must survive a torn trailing write.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::{
    read_records, recover_records, run_jobs_report, write_records, FaultPlan, Job, RunStatus,
    RunnerConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn tiny() -> InputSize {
    InputSize::Custom {
        width: 32,
        height: 24,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sdvbs-chaos-{name}-{}", std::process::id()));
    p
}

const BENCHES: [&str; 5] = [
    "Disparity Map",
    "Feature Tracking",
    "Image Segmentation",
    "SVM",
    "Texture Synthesis",
];

#[test]
fn heavy_fault_injection_never_aborts_the_run() {
    let plan = FaultPlan::parse("panic:0.5,nan:0.3,timeout:0.1", 42).unwrap();
    let jobs: Vec<Job> = BENCHES
        .iter()
        .map(|b| Job::new(*b, tiny(), ExecPolicy::Serial, 1, 1))
        .collect();
    let cfg = RunnerConfig {
        workers: 2,
        timeout: Some(Duration::from_millis(500)),
        max_retries: 3,
        fault_plan: Some(plan),
        trace: true,
        ..RunnerConfig::default()
    };
    let report = run_jobs_report(&jobs, &cfg).expect("injected faults must never abort the run");
    assert_eq!(report.records.len(), jobs.len(), "one record per cell");

    for rec in &report.records {
        if rec.quarantined {
            assert_ne!(
                rec.status,
                RunStatus::Completed,
                "{}: a completed cell must not be quarantined",
                rec.benchmark
            );
            assert_eq!(rec.attempts, cfg.max_retries + 1);
            assert!(
                report.quarantined.contains(&rec.key()),
                "{}: quarantined record missing from the report",
                rec.benchmark
            );
        } else {
            assert_eq!(
                rec.status,
                RunStatus::Completed,
                "{}: non-quarantined cells must have been retried to success ({})",
                rec.benchmark,
                rec.detail
            );
        }
        assert!(rec.attempts >= 1 && rec.attempts <= cfg.max_retries + 1);
        // Every recorded injected fault is one of the planned kinds.
        for fault in &rec.injected {
            assert!(
                ["panic", "timeout", "nan"].contains(&fault.as_str()),
                "unexpected injected fault {fault:?}"
            );
        }
    }
    assert!(
        report.injected_faults > 0,
        "a 90% combined rate over {} cells must inject something",
        jobs.len()
    );

    // The records — including quarantined ones — roundtrip through the
    // store without losing the robustness fields.
    let path = temp_path("roundtrip");
    write_records(&path, &report.records).unwrap();
    let reread = read_records(&path).unwrap();
    assert_eq!(reread, report.records);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn same_seed_injects_identical_faults() {
    let plan = FaultPlan::parse("panic:0.4,nan:0.4", 7).unwrap();
    let jobs: Vec<Job> = BENCHES
        .iter()
        .map(|b| Job::new(*b, tiny(), ExecPolicy::Serial, 1, 1))
        .collect();
    let cfg = RunnerConfig {
        workers: 1,
        timeout: None,
        max_retries: 2,
        fault_plan: Some(plan),
        trace: false,
        ..RunnerConfig::default()
    };
    let a = run_jobs_report(&jobs, &cfg).unwrap();
    let b = run_jobs_report(&jobs, &cfg).unwrap();
    assert_eq!(a.injected_faults, b.injected_faults);
    assert_eq!(a.quarantined, b.quarantined);
    let faults_of = |report: &sdvbs_runner::RunReport| {
        report
            .records
            .iter()
            .map(|r| (r.benchmark.clone(), r.injected.clone(), r.attempts))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        faults_of(&a),
        faults_of(&b),
        "fault schedule must be seeded"
    );
}

#[test]
fn torn_store_write_is_recovered_with_a_warning_count() {
    let jobs = vec![Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1)];
    let cfg = RunnerConfig::default();
    let report = run_jobs_report(&jobs, &cfg).unwrap();

    // Write twice so there is a healthy record ahead of the torn one,
    // then chop the trailing record mid-line — the truncate fault.
    let path = temp_path("torn");
    let both = [report.records[0].clone(), report.records[0].clone()];
    write_records(&path, &both).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let second_line_at = text.find('\n').unwrap() + 1;
    let torn = &text[..second_line_at + (text.len() - second_line_at) / 2];
    std::fs::write(&path, torn).unwrap();

    // Strict reads refuse the torn file; recovery salvages the healthy
    // prefix and counts what it skipped.
    assert!(read_records(&path).is_err());
    let (recovered, skipped) = recover_records(&path).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0], report.records[0]);
    assert_eq!(skipped, 1);
    std::fs::remove_file(&path).unwrap();
}
