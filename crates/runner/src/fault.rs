//! Deterministic fault injection for chaos-testing the runner.
//!
//! A [`FaultPlan`] is parsed from a spec like
//! `"panic:0.2,timeout:0.1,nan:0.1,truncate:0.05"` plus a seed, and
//! decides — purely as a function of `(seed, job id, attempt)` — whether a
//! given execution attempt gets a fault injected and which kind. The same
//! spec and seed always inject the same faults into the same cells, so a
//! chaos run reproduces exactly; and because each retry attempt draws
//! independently, a faulted cell usually succeeds on retry, exercising the
//! retry path rather than just the quarantine path.

use std::fmt;
use std::str::FromStr;

/// The kinds of fault the runner can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The job closure panics before running the benchmark.
    Panic,
    /// The job sleeps past the watchdog deadline before running.
    Timeout,
    /// The benchmark's synthetic input is NaN-poisoned
    /// (via [`sdvbs_core::set_poison`]), so the kernel's finiteness
    /// validation rejects it with a typed error.
    Nan,
    /// The result-store write is truncated mid-record after the run,
    /// simulating a crash during persistence.
    Truncate,
}

impl FaultKind {
    /// Stable lowercase name, used in specs and records.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Timeout => "timeout",
            FaultKind::Nan => "nan",
            FaultKind::Truncate => "truncate",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A seeded, rate-based fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability an attempt panics.
    pub panic_rate: f64,
    /// Probability an attempt stalls past the watchdog deadline.
    pub timeout_rate: f64,
    /// Probability an attempt runs on NaN-poisoned input.
    pub nan_rate: f64,
    /// Probability the store write is torn mid-record.
    pub truncate_rate: f64,
    /// Seed; same seed + spec ⇒ identical injections.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            panic_rate: 0.0,
            timeout_rate: 0.0,
            nan_rate: 0.0,
            truncate_rate: 0.0,
            seed,
        }
    }

    /// Parses a `kind:rate[,kind:rate...]` spec, e.g.
    /// `"panic:0.2,timeout:0.1,nan:0.1"`. Kinds are `panic`, `timeout`,
    /// `nan`, `truncate`; rates are probabilities in `0.0..=1.0`. Kinds not
    /// named default to rate 0. The per-attempt fault rates must sum to at
    /// most 1 (truncate is drawn separately and is exempt).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::none(seed);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rate) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec entry {part:?} is not kind:rate"))?;
            let rate = f64::from_str(rate.trim())
                .map_err(|_| format!("invalid fault rate {rate:?} in {part:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} not in 0.0..=1.0"));
            }
            match kind.trim() {
                "panic" => plan.panic_rate = rate,
                "timeout" => plan.timeout_rate = rate,
                "nan" => plan.nan_rate = rate,
                "truncate" => plan.truncate_rate = rate,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (panic, timeout, nan, truncate)"
                    ))
                }
            }
        }
        let sum = plan.panic_rate + plan.timeout_rate + plan.nan_rate;
        if sum > 1.0 {
            return Err(format!("panic+timeout+nan rates sum to {sum}, above 1.0"));
        }
        Ok(plan)
    }

    /// A compact canonical fingerprint of the plan, used as the fifth
    /// segment of a cell's cache key (see `Job::cache_key`): the four
    /// rates plus the seed. `None` for an inactive plan — a clean run has
    /// no fault identity, so its cells key on the bare four-tuple.
    pub fn fingerprint(&self) -> Option<String> {
        if !self.is_active() {
            return None;
        }
        Some(format!(
            "fault=panic:{},timeout:{},nan:{},truncate:{}@{}",
            self.panic_rate, self.timeout_rate, self.nan_rate, self.truncate_rate, self.seed
        ))
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0
            || self.timeout_rate > 0.0
            || self.nan_rate > 0.0
            || self.truncate_rate > 0.0
    }

    /// Decides the fault (if any) for one execution attempt of one job.
    /// Deterministic in `(seed, job_id, attempt)`; independent draws per
    /// attempt mean retries of a faulted cell usually run clean.
    pub fn decide(&self, job_id: u64, attempt: u32) -> Option<FaultKind> {
        let u = unit(mix(self.seed
            ^ job_id.wrapping_mul(0x9e37_79b9)
            ^ (u64::from(attempt) << 48)));
        if u < self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < self.panic_rate + self.timeout_rate {
            Some(FaultKind::Timeout)
        } else if u < self.panic_rate + self.timeout_rate + self.nan_rate {
            Some(FaultKind::Nan)
        } else {
            None
        }
    }

    /// Decides whether the store write gets torn (drawn separately from the
    /// per-job faults, once per persistence).
    pub fn decide_truncate(&self) -> bool {
        unit(mix(self.seed ^ 0x7472_756e_6361_7465)) < self.truncate_rate
    }
}

/// splitmix64 finalizer, shared with [`crate::backoff`]'s jitter stream.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits to `0.0..1.0`.
pub(crate) fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_roundtrip_rates() {
        let p = FaultPlan::parse("panic:0.2,timeout:0.1,nan:0.1,truncate:0.05", 7).unwrap();
        assert_eq!(p.panic_rate, 0.2);
        assert_eq!(p.timeout_rate, 0.1);
        assert_eq!(p.nan_rate, 0.1);
        assert_eq!(p.truncate_rate, 0.05);
        assert!(p.is_active());
        assert!(!FaultPlan::parse("", 7).unwrap().is_active());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("panic", 1).is_err());
        assert!(FaultPlan::parse("panic:x", 1).is_err());
        assert!(FaultPlan::parse("panic:1.5", 1).is_err());
        assert!(FaultPlan::parse("explode:0.5", 1).is_err());
        assert!(FaultPlan::parse("panic:0.6,nan:0.6", 1).is_err());
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::parse("panic:0.3,nan:0.3", 42).unwrap();
        for job in 0..50u64 {
            for attempt in 0..4u32 {
                assert_eq!(p.decide(job, attempt), p.decide(job, attempt));
            }
        }
        assert_eq!(p.decide_truncate(), p.decide_truncate());
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::parse("panic:0.5", 3).unwrap();
        let hits = (0..1000u64).filter(|&j| p.decide(j, 0).is_some()).count();
        assert!((350..650).contains(&hits), "got {hits} of 1000");
    }

    #[test]
    fn attempts_draw_independently() {
        // With rate 0.5, some job faulted at attempt 0 must run clean at a
        // later attempt — the property the retry loop relies on.
        let p = FaultPlan::parse("panic:0.5", 9).unwrap();
        let recovered = (0..100u64)
            .filter(|&j| p.decide(j, 0).is_some() && p.decide(j, 1).is_none())
            .count();
        assert!(recovered > 0);
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let p = FaultPlan::none(1);
        assert!((0..200u64).all(|j| p.decide(j, 0).is_none()));
        assert!(!p.decide_truncate());
    }
}
