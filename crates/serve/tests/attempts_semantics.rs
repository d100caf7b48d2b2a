//! Regression pin: the runner's retry accounting and the coordinator's
//! orphan-requeue accounting are the *same* semantics.
//!
//! Both sides count `attempts` as executions begun, allow `budget + 1`
//! of them, and quarantine at exactly that count. The runner expresses
//! it as `max_retries`; the coordinator as `RetryPolicy::budget` and
//! `orphan_disposition`. This test runs the real runner against
//! `sdvbs_serve::protocol` for every small budget and pins that the two
//! agree execution for execution.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::{run_jobs_report, FaultPlan, Job, RunStatus, RunnerConfig};
use sdvbs_serve::{orphan_disposition, OrphanDisposition, RetryPolicy};

fn tiny() -> InputSize {
    InputSize::Custom {
        width: 32,
        height: 24,
    }
}

#[test]
fn runner_and_coordinator_agree_on_attempt_accounting() {
    for budget in 0u32..4 {
        let policy = RetryPolicy { budget };

        // Coordinator side: budget + 1 executions permitted, exhaustion
        // exactly at that boundary.
        assert_eq!(policy.max_attempts(), budget + 1);
        assert!(!policy.exhausted(budget));
        assert!(policy.exhausted(budget + 1));

        // Runner side: a job that fails every attempt is quarantined
        // with `attempts` equal to the same budget + 1.
        let jobs = vec![Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1)];
        let cfg = RunnerConfig {
            fault_plan: Some(FaultPlan::parse("panic:1.0", 9).expect("valid plan")),
            max_retries: budget,
            ..RunnerConfig::default()
        };
        let report = run_jobs_report(&jobs, &cfg).expect("runner never aborts");
        let rec = &report.records[0];
        assert_eq!(rec.status, RunStatus::Panicked);
        assert!(rec.quarantined, "budget {budget}: record not quarantined");
        assert_eq!(
            rec.attempts,
            policy.max_attempts(),
            "budget {budget}: runner counted {} executions where the \
             coordinator's policy permits {}",
            rec.attempts,
            policy.max_attempts()
        );
        // The execution-for-execution agreement: after every failed
        // execution the runner actually performed except the last, the
        // coordinator would have requeued; after the last, quarantined.
        for failed in 1..rec.attempts {
            assert_eq!(
                orphan_disposition(failed, policy, false),
                OrphanDisposition::Requeue,
                "budget {budget}: disposition diverged at {failed} failed executions"
            );
        }
        assert_eq!(
            orphan_disposition(rec.attempts, policy, false),
            OrphanDisposition::Quarantine,
            "budget {budget}: coordinator would not quarantine where the runner did"
        );
    }
}

#[test]
fn clean_runs_cost_exactly_one_attempt_on_both_sides() {
    let jobs = vec![Job::new("Disparity Map", tiny(), ExecPolicy::Serial, 1, 1)];
    let cfg = RunnerConfig {
        max_retries: 2,
        ..RunnerConfig::default()
    };
    let report = run_jobs_report(&jobs, &cfg).expect("clean run");
    let rec = &report.records[0];
    assert_eq!(rec.status, RunStatus::Completed);
    assert_eq!(rec.attempts, 1);
    assert!(!rec.quarantined);
    assert!(!RetryPolicy { budget: 2 }.exhausted(0));
}

#[test]
fn quarantine_wins_over_drain_rejection() {
    // An exhausted orphan during a drain is reported as what it is — a
    // quarantine — not masked as a drain rejection; an unexhausted one
    // is rejected because no new execution may start.
    let policy = RetryPolicy { budget: 1 };
    assert_eq!(
        orphan_disposition(2, policy, true),
        OrphanDisposition::Quarantine
    );
    assert_eq!(
        orphan_disposition(1, policy, true),
        OrphanDisposition::RejectDraining
    );
}
