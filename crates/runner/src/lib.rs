//! `sdvbs-runner` — a benchmark execution service for the SD-VBS
//! reproduction.
//!
//! The crate layers five pieces:
//!
//! * [`run`] — the run engine: a sweep's worker threads claim jobs from a
//!   list fixed before the run starts, retry failed cells after a seeded
//!   [`backoff`], quarantine persistent failures, and return outcomes in
//!   submission order;
//! * [`supervise`](mod@supervise) — per-job watchdog timeouts and panic
//!   isolation, under which every attempt of a sweep and every
//!   [`execute_job`] call runs;
//! * [`job`] / [`store`] — the job model and a JSONL result store
//!   recording timing percentiles, per-kernel profile breakdowns, quality
//!   scores, and host metadata;
//! * [`compare`](mod@compare) — the perf-regression gate that diffs a
//!   candidate run against a committed baseline with a slowdown limit and
//!   a min-runtime noise floor;
//! * [`fault`] — deterministic, seeded fault injection (worker panics,
//!   watchdog stalls, NaN-poisoned inputs, torn store writes) feeding the
//!   retry/quarantine machinery in [`run`].
//!
//! The `sdvbs-runner` binary exposes it all as `list`, `run`, `sweep`,
//! `compare` and `trace` subcommands; the `sdvbs-bench` figure regenerators
//! reuse [`run::run_jobs`] through `sdvbs_bench::run_suite`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod compare;
pub mod fault;
pub mod job;
pub mod run;
pub mod store;
pub mod supervise;

// The hand-rolled JSON/JSONL module moved into `sdvbs-trace` (the trace
// exporters need it below this crate in the dependency graph); re-exported
// here so `sdvbs_runner::jsonl` paths keep working.
pub use sdvbs_trace::jsonl;

pub use backoff::Backoff;
pub use compare::{
    compare, AbsoluteLimit, CompareConfig, CompareReport, Regression, RegressionKind,
};
pub use fault::{FaultKind, FaultPlan};
pub use job::{
    cell_key, parse_policy, policy_label, size_label, HostMeta, Job, KernelStatRecord, RunRecord,
    RunStatus,
};
pub use run::{
    execute_job, honors_exec_policy, run_jobs, run_jobs_report, RunReport, RunnerConfig,
    RunnerError,
};
pub use store::{
    append_metrics, append_records, read_records, recover_records, write_records, StoreError,
};
pub use supervise::{supervise, Completion};
