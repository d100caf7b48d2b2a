//! The replay guarantee: a seed is a complete reproduction recipe.
//!
//! `run_sim` must be a pure function of its `SimConfig` — same seed,
//! same config, byte-identical event log and digest. That equality is
//! what makes "first failing seed: N" from an exploration actionable:
//! `sdvbs-sim replay --seed N` re-executes the exact run that failed.

use sdvbs_sim::{explore, run_sim, FaultSpec, SimConfig};
use std::time::Duration;

fn cfg(seed: u64, faults: &str) -> SimConfig {
    SimConfig::new(
        seed,
        Duration::from_secs(15),
        FaultSpec::parse(faults).expect("valid fault spec"),
    )
}

#[test]
fn same_seed_replays_bit_identically() {
    for faults in [
        "none",
        "crash",
        "crash,partition",
        "stall,reorder",
        "crash,partition,stall,reorder",
    ] {
        let a = run_sim(&cfg(7, faults));
        let b = run_sim(&cfg(7, faults));
        assert_eq!(a.digest, b.digest, "digest diverged under faults={faults}");
        assert_eq!(
            a.end_us, b.end_us,
            "end time diverged under faults={faults}"
        );
        assert_eq!(a.log, b.log, "event log diverged under faults={faults}");
    }
}

#[test]
fn different_seeds_diverge() {
    let digests: Vec<u64> = (0..8)
        .map(|s| run_sim(&cfg(s, "crash,partition,stall")).digest)
        .collect();
    let mut uniq = digests.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(
        uniq.len(),
        digests.len(),
        "distinct seeds collided on a digest: {digests:016x?}"
    );
}

#[test]
fn fault_spec_changes_the_run() {
    let quiet = run_sim(&cfg(11, "none"));
    let chaotic = run_sim(&cfg(11, "crash,partition"));
    assert_ne!(
        quiet.digest, chaotic.digest,
        "enabling faults must change the run"
    );
    assert!(quiet.stats.deaths == 0, "faultless run declared a death");
}

#[test]
fn exploration_is_deterministic() {
    // The whole sweep replays: per-seed digests from two explorations of
    // the same range are identical, so a CI failure on seed N is the
    // same run a developer replays locally.
    let template = cfg(0, "crash,partition,stall");
    let a = explore(0, 6, &template);
    let b = explore(0, 6, &template);
    let da: Vec<u64> = a.results.iter().map(|r| r.digest).collect();
    let db: Vec<u64> = b.results.iter().map(|r| r.digest).collect();
    assert_eq!(da, db);
    assert_eq!(a.total_sim_us, b.total_sim_us);
}

#[test]
fn pinned_seeds_replay_their_recorded_digests() {
    // Digests `sdvbs-sim replay` printed for these runs. A change that
    // alters any scheduling, retirement or liveness decision moves them;
    // one that only restructures the code must leave them exactly.
    const ALL: &str = "crash,partition,stall,reorder";
    for (seed, faults, secs, digest) in [
        (9, "crash,partition", 20, 0xc0a2_5afe_0a37_7164),
        (7, ALL, 15, 0xbaf7_1086_5411_42d6),
        (11, ALL, 15, 0x1b24_27eb_cbc8_a08e),
    ] {
        let cfg = SimConfig::new(
            seed,
            Duration::from_secs(secs),
            FaultSpec::parse(faults).expect("valid fault spec"),
        );
        assert_eq!(
            run_sim(&cfg).digest,
            digest,
            "seed {seed} under faults={faults} for {secs} s"
        );
    }
}
