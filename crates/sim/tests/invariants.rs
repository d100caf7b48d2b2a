//! Invariant coverage: the acceptance-gate exploration plus targeted
//! scenarios the seed planner reaches only rarely.
//!
//! The headline test is the ISSUE acceptance criterion: at least 50
//! seeds of 20 simulated seconds each — over 1000 simulated seconds —
//! under crash, partition, and stall faults, with zero invariant
//! violations. The targeted tests construct fault schedules by hand to
//! pin behaviors a random sweep can miss: full retry-budget exhaustion,
//! the all-workers-dead quarantine path, and a drain riding out a worker
//! that goes silent while it finishes its queue.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_sim::{
    check, explore, run_sim, CheckContext, FaultSchedule, FaultSpec, JobState, ModelConfig,
    NetConfig, SimConfig, SimModel, SimRng,
};
use std::time::Duration;

#[test]
fn fifty_seeds_of_chaos_hold_every_invariant() {
    let template = SimConfig::new(
        0,
        Duration::from_secs(20),
        FaultSpec::parse("crash,partition,stall").expect("valid spec"),
    );
    let report = explore(0, 50, &template);
    assert!(
        report.first_failure.is_none(),
        "invariant violation: {:?}",
        report.first_failure
    );
    assert!(
        report.total_sim_us >= 1_000_000_000,
        "sweep covered only {}µs of simulated time; the acceptance \
         criterion needs at least 1000 simulated seconds",
        report.total_sim_us
    );
}

#[test]
fn reorder_interleavings_hold_every_invariant() {
    // Reorder widens the latency window to 80ms, interleaving frames
    // across links far more aggressively than the default 5ms cap.
    let template = SimConfig::new(
        0,
        Duration::from_secs(12),
        FaultSpec::parse("crash,partition,stall,reorder").expect("valid spec"),
    );
    let report = explore(0, 12, &template);
    assert!(
        report.first_failure.is_none(),
        "invariant violation under reorder: {:?}",
        report.first_failure
    );
}

#[test]
fn faultless_runs_complete_everything_without_deaths() {
    for seed in 0..8 {
        let outcome = run_sim(&SimConfig::new(
            seed,
            Duration::from_secs(10),
            FaultSpec::none(),
        ));
        assert!(
            outcome.violations.is_empty(),
            "seed {seed}: {:?}",
            outcome.violations
        );
        assert_eq!(
            outcome.stats.deaths, 0,
            "seed {seed} declared a death with no faults"
        );
        assert_eq!(
            outcome.stats.quarantined, 0,
            "seed {seed} quarantined a job with no faults"
        );
        assert!(outcome.stats.completed > 0, "seed {seed} completed nothing");
    }
}

/// Exhaustion quarantine, pinned exactly: crash every worker in
/// sequence while long jobs are running, so an orphan chain burns the
/// whole retry budget (attempts = budget + 1) and the coordinator
/// reports "quarantined after N attempts" — never a lost job, never an
/// extra execution.
#[test]
fn sequential_crashes_exhaust_the_budget_exactly() {
    let cfg = ModelConfig {
        workers: 3,
        // Jobs run 30 simulated seconds; every crash lands mid-run.
        exec_min_us: 30_000_000,
        exec_max_us: 30_000_000,
        ..ModelConfig::default()
    };
    let schedule = FaultSchedule {
        crashes: vec![(2_000_000, 0), (6_000_000, 1), (10_000_000, 2)],
        stalls: vec![],
        partitions: vec![],
        reorder: false,
    };
    let load: Vec<(u64, Job)> = (0..6)
        .map(|i| {
            (
                0,
                Job::new("disparity", InputSize::Sqcif, ExecPolicy::Serial, i, 1),
            )
        })
        .collect();
    let drain_at = 14_000_000;
    let horizon = drain_at + 4 * cfg.liveness_us() + 60_000_000;
    let mut model = SimModel::new(
        cfg.clone(),
        SimRng::new(42),
        NetConfig::default(),
        &schedule,
        load,
        drain_at,
    );
    let end_us = model.run(horizon);
    let ctx = CheckContext {
        schedule: &schedule,
        events_left: model.events_left(),
        end_us,
        horizon_us: horizon,
    };
    let violations = check(&model, &ctx);
    assert!(violations.is_empty(), "violations: {violations:?}");

    let max = cfg.cluster.retry_budget + 1;
    let mut exhausted = 0;
    for (id, job) in model.jobs().iter().enumerate() {
        match &job.state {
            JobState::Quarantined(why) => {
                assert!(
                    job.attempts_high <= max,
                    "job {id} began {} executions over the {max} allowed",
                    job.attempts_high
                );
                if why.starts_with("quarantined after") {
                    assert_eq!(
                        job.attempts, max,
                        "job {id} quarantined by exhaustion at {} attempts, not {max}",
                        job.attempts
                    );
                    exhausted += 1;
                }
            }
            other => panic!("job {id}: expected quarantine with all workers dead, got {other:?}"),
        }
    }
    assert!(
        exhausted >= 1,
        "no job exhausted its full retry budget; per-job (state, attempts): {:?}",
        model
            .jobs()
            .iter()
            .map(|j| (format!("{:?}", j.state), j.attempts))
            .collect::<Vec<_>>()
    );
}

/// The drain exemption, pinned: a worker that stalls from just before a
/// drain until long after the liveness window is never declared dead
/// while the cluster drains, so its running jobs finish instead of being
/// rejected as orphans.
#[test]
fn a_worker_silent_through_a_drain_is_never_declared_dead() {
    let cfg = ModelConfig {
        workers: 2,
        exec_min_us: 8_000_000,
        exec_max_us: 8_000_000,
        ..ModelConfig::default()
    };
    let drain_at = 4_000_000;
    let schedule = FaultSchedule {
        crashes: vec![],
        stalls: vec![(0, drain_at - 1_000_000, drain_at + 4 * cfg.liveness_us())],
        partitions: vec![],
        reorder: false,
    };
    let load: Vec<(u64, Job)> = (0..4)
        .map(|i| {
            (
                0,
                Job::new("disparity", InputSize::Sqcif, ExecPolicy::Serial, i, 1),
            )
        })
        .collect();
    let horizon = drain_at + 4 * cfg.liveness_us() + 60_000_000;
    let mut model = SimModel::new(
        cfg,
        SimRng::new(7),
        NetConfig::default(),
        &schedule,
        load,
        drain_at,
    );
    let end_us = model.run(horizon);
    let ctx = CheckContext {
        schedule: &schedule,
        events_left: model.events_left(),
        end_us,
        horizon_us: horizon,
    };
    let violations = check(&model, &ctx);
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert!(
        model.audit.deaths.is_empty(),
        "a draining worker was declared dead: {:?}",
        model.audit.deaths
    );
    let jobs = model.jobs();
    assert_eq!(jobs.len(), 4);
    for (id, job) in jobs.iter().enumerate() {
        assert_eq!(job.state, JobState::Done, "job {id}");
    }
}
