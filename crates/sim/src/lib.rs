//! `sdvbs-sim` — deterministic simulation testing for the SD-VBS cluster
//! stack.
//!
//! The distributed serving tier (`sdvbs-serve --cluster`) is a
//! coordinator sharding jobs over TCP to worker processes, with
//! heartbeat failure detection, orphan requeue, retry budgets, and
//! two-phase drain. Its failure modes — a worker dying mid-job, a link
//! partitioning for just longer than the liveness window, a stalled
//! process resurrecting after its jobs were requeued — are exactly the
//! schedules threads and real sockets make unreproducible.
//!
//! This crate runs that protocol on a **single-threaded discrete-event
//! simulator** instead:
//!
//! * time is the event loop's virtual microsecond, handed to the sans-IO
//!   core as its `now` — a thousand simulated seconds of heartbeats and
//!   liveness judgements replay in milliseconds;
//! * the network is a model of TCP ([`net::SimNet`]): per-link FIFO, no
//!   silent loss, seeded latency, partitions that hold frames until they
//!   heal;
//! * faults are planned from the seed ([`faults`]): crashes, stalls,
//!   partitions, reorder — so **the failing seed is the reproduction**;
//! * the coordinator *is production's* sans-IO
//!   [`sdvbs_serve::jobs::Coordinator`], deciding through
//!   [`sdvbs_serve::protocol`], and every message round-trips the real
//!   [`sdvbs_wire`] frame codec.
//!
//! [`harness::run_sim`] executes one seed and checks the invariants in
//! [`invariants`]; [`harness::explore`] sweeps a seed range; the
//! `sdvbs-sim` binary exposes both (`explore`, `replay`) for CI and for
//! humans chasing a failing seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod harness;
pub mod invariants;
pub mod model;
pub mod net;
pub mod rng;
pub mod sched;

pub use faults::{plan, FaultSchedule, FaultSpec};
pub use harness::{explore, run_sim, ExploreReport, SeedResult, SimConfig, SimOutcome, SimStats};
pub use invariants::{check, CheckContext};
pub use model::{JobState, ModelConfig, SimJob, SimModel};
pub use net::{Dir, NetConfig, Partition, SimNet};
pub use rng::SimRng;
pub use sched::EventQueue;
