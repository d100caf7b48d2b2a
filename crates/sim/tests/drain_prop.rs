//! Property test for two-phase drain sequencing (satellite of the
//! deterministic-simulation work).
//!
//! Any interleaving of `Drain` against in-flight `Dispatch`/`Done`
//! traffic — drain before the load starts, in the thick of it, or after
//! the last arrival, under any combination of crash/partition/stall/
//! reorder faults — must end with every admitted job `Done` or honestly
//! `Rejected`/`Quarantined` with a reason. Never a silently dropped
//! job, never a double completion, and the drain itself always reaches
//! the stop broadcast.

use proptest::prelude::*;
use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_sim::{
    check, plan, CheckContext, FaultSpec, JobState, ModelConfig, NetConfig, SimModel, SimRng,
};

const BENCHES: &[&str] = &["disparity", "tracking", "mser", "svm"];

fn mk_load(rng: &mut SimRng, count: u64, window_us: u64) -> Vec<(u64, Job)> {
    let mut load = Vec::with_capacity(count as usize);
    for i in 0..count {
        let at = rng.range(0, window_us.max(1));
        let bench = BENCHES[rng.range(0, BENCHES.len() as u64) as usize];
        load.push((
            at,
            Job::new(bench, InputSize::Sqcif, ExecPolicy::Serial, i, 1),
        ));
    }
    load.sort_by_key(|&(at, _)| at);
    load
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn drain_never_loses_or_forges_a_job(
        seed in 0u64..100_000,
        // 0..140% of the load window: drain fires before, during, and
        // well after the submissions it races against.
        drain_pct in 0u64..140,
        count in 1u64..40,
        fault_mask in 0u8..16,
    ) {
        let spec = FaultSpec {
            crash: fault_mask & 1 != 0,
            partition: fault_mask & 2 != 0,
            stall: fault_mask & 4 != 0,
            reorder: fault_mask & 8 != 0,
        };
        let cfg = ModelConfig::default();
        let window_us = 6_000_000u64;
        let mut rng = SimRng::new(seed);
        let schedule = plan(spec, &mut rng, cfg.workers, window_us, cfg.liveness_us());
        let load = mk_load(&mut rng, count, window_us);
        let net = NetConfig {
            latency_min_us: 500,
            latency_max_us: if spec.reorder { 80_000 } else { 5_000 },
        };
        let drain_at = window_us * drain_pct / 100;
        let horizon = window_us + 4 * cfg.liveness_us() + 60_000_000;
        let mut model = SimModel::new(cfg.clone(), rng, net, &schedule, load, drain_at);
        let end_us = model.run(horizon);
        let ctx = CheckContext {
            schedule: &schedule,
            events_left: model.events_left(),
            end_us,
            horizon_us: horizon,
        };
        let violations = check(&model, &ctx);
        prop_assert!(
            violations.is_empty(),
            "seed {} drain_pct {} faults {:#06b}: {:?}",
            seed, drain_pct, fault_mask, violations
        );
        for (id, job) in model.jobs().iter().enumerate() {
            prop_assert_eq!(
                job.terminal_transitions, 1,
                "job {} finished {} times", id, job.terminal_transitions
            );
            match &job.state {
                JobState::Done => prop_assert!(
                    job.record.is_some(),
                    "job {} done without a run record", id
                ),
                JobState::Rejected(why) | JobState::Quarantined(why) => prop_assert!(
                    !why.is_empty(),
                    "job {} failed without a stated reason", id
                ),
                other => prop_assert!(
                    false,
                    "seed {}: job {} silently dropped in state {:?}", seed, id, other
                ),
            }
        }
    }
}
