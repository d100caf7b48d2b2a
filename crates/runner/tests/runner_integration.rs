//! Engine-level integration: a benchmark runs under every policy with a
//! full kernel breakdown, a job that exceeds its deadline is reported as
//! `TimedOut` without stalling the rest of the run, and records come back
//! in submission order however many workers raced.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::{run_jobs, FaultKind, FaultPlan, Job, RunStatus, RunnerConfig};
use std::time::Duration;

fn tiny() -> InputSize {
    InputSize::Custom {
        width: 64,
        height: 48,
    }
}

#[test]
fn one_benchmark_completes_under_every_policy_with_kernel_breakdowns() {
    let jobs: Vec<Job> = [ExecPolicy::Serial, ExecPolicy::Threads(2), ExecPolicy::Auto]
        .into_iter()
        .map(|policy| Job::new("Disparity Map", tiny(), policy, 7, 1))
        .collect();
    let records = run_jobs(&jobs, &RunnerConfig::default()).unwrap();
    assert_eq!(records.len(), 3);
    let auto_threads = records[2].threads;
    for rec in &records {
        assert_eq!(
            rec.status,
            RunStatus::Completed,
            "{}: {}",
            rec.policy,
            rec.detail
        );
        assert!(
            !rec.kernels.is_empty(),
            "{} record lacks kernel breakdown",
            rec.policy
        );
        // Kernel self-times are summed across worker threads, so under
        // parallel policies occupancy can legitimately exceed 100%; it must
        // at least account for most of the run and never undershoot.
        let occupancy: f64 =
            rec.kernels.iter().map(|k| k.percent).sum::<f64>() + rec.non_kernel_percent;
        assert!(
            occupancy >= 99.0,
            "{}: kernel occupancy should cover the run, got {occupancy:.2}",
            rec.policy
        );
        assert!(rec.quality.is_some(), "disparity reports accuracy");
    }
    let serial_occupancy: f64 =
        records[0].kernels.iter().map(|k| k.percent).sum::<f64>() + records[0].non_kernel_percent;
    assert!(
        (serial_occupancy - 100.0).abs() < 0.5,
        "serial occupancy should total ~100%, got {serial_occupancy:.2}"
    );
    assert_eq!(records[0].threads, 1);
    assert_eq!(records[1].threads, 2);
    assert!(auto_threads >= 1, "auto must resolve to a concrete width");
    // The paper's bit-identical guarantee: policy changes scheduling, not
    // results, so the quality score is identical across policies.
    assert_eq!(records[0].quality, records[1].quality);
    assert_eq!(records[0].quality, records[2].quality);
}

#[test]
fn deadline_overrun_yields_timed_out_record_and_run_continues() {
    // 1 ns is unreachable: even the smallest disparity run takes longer,
    // so the watchdog always fires. The following job (no timeout pressure
    // at CIF-free tiny size) must still complete.
    let jobs = vec![
        Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1),
        Job::new("Feature Tracking", tiny(), ExecPolicy::Serial, 1, 1),
    ];
    let cfg = RunnerConfig {
        workers: 1,
        timeout: Some(Duration::from_nanos(1)),
        max_retries: 0,
        fault_plan: None,
        trace: false,
        ..RunnerConfig::default()
    };
    let records = run_jobs(&jobs, &cfg).unwrap();
    assert_eq!(records.len(), 2, "a timed-out job still yields a record");
    for rec in &records {
        assert_eq!(
            rec.status,
            RunStatus::TimedOut,
            "1 ns deadline must be unreachable for {}",
            rec.benchmark
        );
        assert!(rec.times_ms.is_empty());
        assert!(rec.detail.contains("deadline"), "detail: {}", rec.detail);
    }
}

#[test]
fn mixed_run_with_generous_timeout_completes_everything() {
    let jobs = vec![
        Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1),
        Job::new("Feature Tracking", tiny(), ExecPolicy::Serial, 1, 1),
    ];
    let cfg = RunnerConfig {
        workers: 1,
        timeout: Some(Duration::from_secs(300)),
        max_retries: 0,
        fault_plan: None,
        trace: true,
        ..RunnerConfig::default()
    };
    let records = run_jobs(&jobs, &cfg).unwrap();
    for rec in &records {
        assert_eq!(
            rec.status,
            RunStatus::Completed,
            "{}: {}",
            rec.benchmark,
            rec.detail
        );
        assert!(rec.min_ms > 0.0);
    }
}

/// A stall injected into job 0 alone: the watchdog gives up on it at
/// about the deadline and frees the only worker, so job 1 completes.
#[test]
fn stalled_job_times_out_at_its_deadline_and_the_next_job_completes() {
    let jobs = vec![
        Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1),
        Job::new("Feature Tracking", tiny(), ExecPolicy::Serial, 1, 1),
    ];
    let plan = (0..5000u64)
        .map(|seed| FaultPlan::parse("timeout:0.5", seed).unwrap())
        .find(|p| p.decide(0, 0) == Some(FaultKind::Timeout) && p.decide(1, 0).is_none())
        .expect("some seed stalls only job 0");
    let cfg = RunnerConfig {
        workers: 1,
        timeout: Some(Duration::from_millis(200)),
        max_retries: 0,
        fault_plan: Some(plan),
        ..RunnerConfig::default()
    };
    let records = run_jobs(&jobs, &cfg).unwrap();
    let (stalled, next) = (&records[0], &records[1]);
    assert_eq!(stalled.status, RunStatus::TimedOut, "{}", stalled.detail);
    assert_eq!(stalled.injected, ["timeout"]);
    assert!(
        (200.0..400.0).contains(&stalled.wall_ms),
        "the watchdog gave up after {:.1} ms against a 200 ms deadline",
        stalled.wall_ms
    );
    assert_eq!(next.status, RunStatus::Completed, "{}", next.detail);
    assert!(next.injected.is_empty());
}

/// Four workers race over jobs whose runtimes fall with their index, so
/// they finish out of order; the records still come back in submission
/// order.
#[test]
fn records_return_in_submission_order_under_four_workers() {
    let benches = [
        "Texture Synthesis",
        "Robot Localization",
        "SVM",
        "SIFT",
        "Feature Tracking",
        "Image Stitch",
        "Face Detection",
        "Disparity Map",
    ];
    let size = InputSize::Custom {
        width: 32,
        height: 24,
    };
    let jobs: Vec<Job> = benches
        .iter()
        .map(|b| Job::new(*b, size, ExecPolicy::Serial, 1, 1))
        .collect();
    let cfg = RunnerConfig {
        workers: 4,
        ..RunnerConfig::default()
    };
    let records = run_jobs(&jobs, &cfg).unwrap();
    let keys: Vec<String> = records.iter().map(|r| r.key()).collect();
    let submitted: Vec<String> = jobs.iter().map(|j| j.cache_key(None)).collect();
    assert_eq!(keys, submitted);
    for rec in &records {
        assert_eq!(rec.status, RunStatus::Completed, "{}", rec.detail);
    }
}
