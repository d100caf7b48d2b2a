//! The properties every simulated run must uphold.
//!
//! Each check returns human-readable violation strings naming the job or
//! worker involved; the harness attaches the seed, which is the whole
//! reproduction recipe. The four properties are the ones the cluster's
//! correctness story rests on:
//!
//! 1. **No job lost or double-completed** — every admitted job reaches a
//!    terminal state exactly once, across any schedule of crashes,
//!    stalls, and partitions.
//! 2. **Retry budget** — a job never begins more than `budget + 1`
//!    executions, and a quarantine-by-exhaustion happens at exactly that
//!    count (the unified accounting of [`sdvbs_serve::protocol`]).
//! 3. **Drain terminates** — once a drain starts, the cluster reaches
//!    quiescence: every job terminal, the stop broadcast sent, the event
//!    queue empty before the horizon.
//! 4. **Staleness honesty** — the coordinator never declares a live,
//!    responsive worker dead: every staleness-based death must be
//!    explained by a crash, a stall, or a partition overlapping the
//!    liveness window (message latency is otherwise bounded well below
//!    the liveness threshold, so heartbeats flow).

use crate::faults::FaultSchedule;
use crate::model::{JobState, SimJob, SimModel};

/// Context the checks need beyond the model itself.
pub struct CheckContext<'a> {
    /// The fault schedule the run executed.
    pub schedule: &'a FaultSchedule,
    /// Liveness window (µs).
    pub liveness_us: u64,
    /// Retry budget.
    pub retry_budget: u32,
    /// Events left unprocessed (nonzero means the horizon tripped).
    pub events_left: usize,
    /// Final virtual time (µs).
    pub end_us: u64,
    /// Hard horizon (µs).
    pub horizon_us: u64,
}

/// Runs every invariant over a finished model. Empty means the run is
/// clean.
pub fn check(model: &SimModel, ctx: &CheckContext<'_>) -> Vec<String> {
    let mut violations = Vec::new();
    let jobs = model.jobs();
    no_lost_or_double(&jobs, &mut violations);
    retry_budget(&jobs, ctx.retry_budget, &mut violations);
    drain_terminates(model, ctx, &mut violations);
    staleness_honesty(model, ctx, &mut violations);
    violations
}

/// Invariant 1: terminal exactly once.
fn no_lost_or_double(jobs: &[SimJob], out: &mut Vec<String>) {
    for (id, job) in jobs.iter().enumerate() {
        if matches!(job.state, JobState::Pending | JobState::Dispatched(_)) {
            out.push(format!(
                "job {id} lost: final state {:?} after quiescence",
                job.state
            ));
        }
        if job.terminal_transitions > 1 {
            out.push(format!(
                "job {id} double-completed: {} terminal transitions",
                job.terminal_transitions
            ));
        }
        if matches!(job.state, JobState::Done) && job.record.is_none() {
            out.push(format!("job {id} done without a record"));
        }
    }
}

/// Invariant 2: `attempts` never exceeds `budget + 1`, and an
/// exhaustion quarantine consumed the whole budget.
fn retry_budget(jobs: &[SimJob], budget: u32, out: &mut Vec<String>) {
    let max = budget.saturating_add(1);
    for (id, job) in jobs.iter().enumerate() {
        if job.attempts_high > max {
            out.push(format!(
                "job {id} began {} executions; budget allows {max}",
                job.attempts_high
            ));
        }
        if let JobState::Quarantined(why) = &job.state {
            if why.starts_with("quarantined after") && job.attempts != max {
                out.push(format!(
                    "job {id} quarantined by exhaustion at {} attempts, not {max}",
                    job.attempts
                ));
            }
        }
    }
}

/// Invariant 3: the drain finished and the world went quiet.
fn drain_terminates(model: &SimModel, ctx: &CheckContext<'_>, out: &mut Vec<String>) {
    if ctx.events_left > 0 || ctx.end_us > ctx.horizon_us {
        out.push(format!(
            "run did not quiesce: {} events unprocessed at t={}µs (horizon {}µs)",
            ctx.events_left, ctx.end_us, ctx.horizon_us
        ));
    }
    if !model.drain_complete() {
        out.push("drain never completed: stop broadcast was not reached".to_string());
    }
}

/// Invariant 4: every staleness death has a fault that explains it.
///
/// A stale verdict at time `t` means no heartbeat reply landed during
/// `[t - liveness, t]`. With latency bounded at `latency_max ≪ liveness`
/// that requires the worker to have been crashed, stalled into that
/// window, or partitioned into it (a partition delays replies by up to
/// its length). Anything else is a false positive — the bug this
/// invariant exists to catch.
fn staleness_honesty(model: &SimModel, ctx: &CheckContext<'_>, out: &mut Vec<String>) {
    let slack = 2 * model.latency_max_us() + ctx.liveness_us;
    for death in &model.audit.deaths {
        if !death.stale {
            continue;
        }
        let (w, t) = (death.worker, death.at_us);
        let crashed = ctx
            .schedule
            .crashes
            .iter()
            .any(|&(at, cw)| cw == w && at <= t);
        let stalled = ctx.schedule.stalls.iter().any(|&(sw, from, until)| {
            sw == w && from <= t && until + slack >= t.saturating_sub(ctx.liveness_us)
        });
        let partitioned = ctx.schedule.partitions.iter().any(|p| {
            p.worker == w
                && p.from_us <= t
                && p.until_us + slack >= t.saturating_sub(ctx.liveness_us)
        });
        if !(crashed || stalled || partitioned) {
            out.push(format!(
                "worker w{w} declared stale-dead at t={t}µs with no crash, stall, or \
                 partition in the liveness window (false-positive death)"
            ));
        }
    }
}
