//! Seeded decorrelated exponential backoff.
//!
//! [`Backoff`] packages the retry loop's decorrelated-exponential policy
//! in [`crate::run`] as a value: seeded, so the jitter stream is a pure
//! function of the seed (a `--fault-seed` chaos run backs off by the same
//! delays every time). It only *computes* delays; the caller sleeps them.
//!
//! The jitter of round `r` is `unit(mix(seed ^ 0xb0ff ^ r))`, drawn with
//! the fault plan's splitmix64 helpers: a seed always yields the same delays.

use crate::fault::{mix, unit};
use std::time::Duration;

/// Decorrelated exponential backoff state: each delay lands between the
/// base and 3x the previous delay, jittered by a seeded stream, capped.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    seed: u64,
    round: u32,
}

impl Backoff {
    /// A fresh sequence. The first [`next_delay`](Self::next_delay) is at
    /// least `base`; no delay ever exceeds `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            prev: base,
            seed,
            round: 0,
        }
    }

    /// Computes the next delay in the sequence and advances the state.
    /// Purely deterministic in `(base, cap, seed, call index)`.
    pub fn next_delay(&mut self) -> Duration {
        self.round = self.round.wrapping_add(1);
        let jitter = unit(mix(self.seed ^ 0xb0ff ^ u64::from(self.round)));
        let span = (self.prev.as_secs_f64() * 3.0 - self.base.as_secs_f64()).max(0.0);
        let next = self.base.as_secs_f64() + jitter * span;
        self.prev = Duration::from_secs_f64(next).min(self.cap);
        self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_millis(250);

    #[test]
    fn sequence_is_deterministic_in_seed() {
        let mut a = Backoff::new(BASE, CAP, 42);
        let mut b = Backoff::new(BASE, CAP, 42);
        let mut c = Backoff::new(BASE, CAP, 43);
        let sa: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let sb: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        let sc: Vec<_> = (0..8).map(|_| c.next_delay()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        for seed in 0..32u64 {
            let mut b = Backoff::new(BASE, CAP, seed);
            for _ in 0..16 {
                let d = b.next_delay();
                assert!(d >= BASE, "delay {d:?} under base");
                assert!(d <= CAP, "delay {d:?} over cap");
            }
        }
    }

    #[test]
    fn seed_7_replays_its_recorded_delays() {
        // The delays `--fault-seed 7` chaos runs have always backed off by.
        let mut b = Backoff::new(BASE, CAP, 7);
        let delays: Vec<u64> = (0..6).map(|_| b.next_delay().as_nanos() as u64).collect();
        assert_eq!(
            delays,
            [19_381_215, 12_645_926, 19_120_406, 29_545_215, 23_272_332, 13_358_733]
        );
    }
}
