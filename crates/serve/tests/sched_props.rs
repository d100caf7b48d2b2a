//! Property tests for the scheduling tier, driven by a hand-rolled
//! seeded LCG (no external property-testing dependency):
//!
//! 1. Batched dispatch is a pure throughput optimization — records are
//!    bit-identical on every deterministic field to unbatched dispatch.
//! 2. Deficit round robin never delays a newly arrived interactive job
//!    beyond the documented [`starvation_bound`], no matter how the
//!    batch-class arrivals and dequeues interleave.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::engine::{Engine, EngineConfig, Submission};
use sdvbs_serve::sched::Drr;
use sdvbs_serve::{starvation_bound, Backend, JobClass, SchedConfig};
use std::time::Duration;

/// Splitmix-style step: deterministic, well-mixed, dependency-free.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic record fields: everything except timings and host.
fn fingerprint(r: &sdvbs_runner::RunRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{:?}|{:?}|{}",
        r.benchmark, r.size, r.policy, r.seed, r.iterations, r.status, r.quality, r.detail
    )
}

#[test]
fn batched_dispatch_is_bit_identical_to_unbatched() {
    // A mixed workload across three benchmark x size groups and both
    // classes, generated once and replayed against two engines that
    // differ only in the batch window.
    let mut rng = 0x5eed_cafe_u64;
    let pool: [(&str, InputSize); 3] = [
        (
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
        ),
        (
            "Disparity Map",
            InputSize::Custom {
                width: 64,
                height: 48,
            },
        ),
        ("Feature Tracking", InputSize::Sqcif),
    ];
    let mut workload = Vec::new();
    for _ in 0..9 {
        let (bench, size) = pool[(next(&mut rng) % 3) as usize];
        let seed = 7000 + next(&mut rng) % 1000;
        let class = if next(&mut rng).is_multiple_of(2) {
            JobClass::Interactive
        } else {
            JobClass::Batch
        };
        workload.push((Job::new(bench, size, ExecPolicy::Serial, seed, 1), class));
    }

    let run = |max_batch: usize| -> Vec<String> {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: workload.len() * 2,
            sched: SchedConfig {
                max_batch,
                ..SchedConfig::default()
            },
            ..EngineConfig::default()
        });
        let mut ids = Vec::new();
        for (spec, class) in &workload {
            match engine.submit(spec.clone(), true, *class) {
                Submission::Queued(id) => ids.push(id),
                other => panic!("expected Queued, got {other:?}"),
            }
        }
        let mut prints = Vec::new();
        for id in ids {
            let snap = engine
                .wait_terminal(id, Duration::from_secs(120))
                .expect("job exists");
            let record = snap
                .record
                .unwrap_or_else(|| panic!("job {id} did not complete: {}", snap.detail));
            prints.push(fingerprint(record.record()));
        }
        engine.drain();
        prints
    };

    let unbatched = run(1);
    let batched = run(8);
    // Dispatch order may differ between the two schedules; the record
    // each submission resolves to may not.
    assert_eq!(unbatched, batched);
}

#[test]
fn drr_never_delays_an_interactive_probe_beyond_the_documented_bound() {
    // Adversarial interleavings of batch-class arrivals, probe arrivals,
    // and dequeues, across randomized scheduler configs. The probe is
    // always lone in its class, so the documented bound is
    // `starvation_bound(cfg, 0)` batch-class dispatches after it arrives.
    for seed in 0..24u64 {
        let mut rng = 0xd00d_0000 ^ (seed.wrapping_mul(0x1234_5678_9abc));
        let cfg = SchedConfig {
            max_batch: 1 + (next(&mut rng) % 8) as usize,
            quantum_interactive: 1 + (next(&mut rng) % 20) as u32,
            quantum_batch: 1 + (next(&mut rng) % 4) as u32,
        };
        let bound = starvation_bound(&cfg, 0);
        let mut drr = Drr::new(cfg.clone());
        let mut next_id = 0u64;
        // (probe id, batch-class jobs dispatched since it arrived)
        let mut probe: Option<(u64, usize)> = None;

        let check = |popped: Option<sdvbs_serve::sched::Batch>,
                     probe: &mut Option<(u64, usize)>| {
            let Some(batch) = popped else { return };
            match batch.class {
                JobClass::Batch => {
                    if let Some((_, count)) = probe.as_mut() {
                        *count += batch.ids.len();
                    }
                }
                JobClass::Interactive => {
                    let (id, count) = probe.take().expect("only the probe is interactive");
                    assert_eq!(batch.ids, vec![id]);
                    assert!(
                        count <= bound,
                        "seed {seed}: probe waited behind {count} batch jobs, \
                         documented bound is {bound} ({cfg:?})"
                    );
                }
            }
        };

        for _ in 0..400 {
            match next(&mut rng) % 100 {
                0..=44 => {
                    let group = format!("g{}", next(&mut rng) % 4);
                    drr.push_back(next_id, &group, JobClass::Batch);
                    next_id += 1;
                }
                45..=59 => {
                    if probe.is_none() {
                        drr.push_back(next_id, "probe", JobClass::Interactive);
                        probe = Some((next_id, 0));
                        next_id += 1;
                    }
                }
                _ => check(drr.pop_batch(), &mut probe),
            }
        }
        // Drain the tail so an outstanding probe still gets verified.
        loop {
            let popped = drr.pop_batch();
            if popped.is_none() {
                break;
            }
            check(popped, &mut probe);
        }
        assert!(probe.is_none(), "seed {seed}: probe never dispatched");
    }
}
