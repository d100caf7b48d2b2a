//! The worker process: one engine, one coordinator, one wire connection.
//!
//! `sdvbs-serve worker` binds a TCP listener, prints its bound address
//! (so a parent that spawned it on port 0 can discover where it landed),
//! accepts exactly one coordinator, and speaks [`sdvbs_wire`] for the
//! rest of its life:
//!
//! * `Dispatch` → submit to the local [`Engine`] (always `fresh` — the
//!   coordinator owns caching and coalescing, and a redispatched job
//!   after a worker death must actually re-execute, not echo stale
//!   state) and answer `Done`/`Rejected` from a per-job waiter thread,
//!   or `Busy` when the local queue is full so the coordinator can
//!   steal the job to another shard;
//! * `Heartbeat` → `HeartbeatOk` with this process's trace clock, which
//!   keeps the coordinator's liveness and epoch-skew estimates fresh;
//! * `MetricsReq`/`TraceReq` → snapshots of the engine's registry and
//!   execution spans;
//! * `Drain` → drain the engine, join every waiter, answer `DrainOk` as
//!   the connection's final frame, and exit.
//!
//! If the coordinator's connection drops before a drain, the worker
//! drains itself and exits — an orphaned worker holding a port and a
//! thread pool is a leak, not a service.

use crate::backend::Backend;
use crate::engine::{Engine, EngineConfig, Submission};
use crate::sched::JobClass;
use sdvbs_trace::now_us;
use sdvbs_wire::{tcp_pair, FrameRx, FrameTx, Message, WireError, PROTO_VERSION};
use std::io::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Worker process parameters.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Self-reported name in the handshake (the coordinator labels
    /// tracks by link index regardless).
    pub name: String,
    /// Local engine sizing.
    pub engine: EngineConfig,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            name: "worker".to_string(),
            engine: EngineConfig::default(),
        }
    }
}

/// Runs a worker to completion: bind, announce, serve one coordinator,
/// drain, exit.
///
/// # Errors
///
/// Only bind/accept failures are errors; a lost coordinator is a normal
/// (self-draining) exit.
pub fn run_worker(cfg: WorkerConfig) -> Result<(), String> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // The parent parses this exact line to discover an ephemeral port.
    println!("sdvbs-serve worker {} listening on {addr}", cfg.name);
    let _ = std::io::stdout().flush();
    let (stream, peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let _ = stream.set_nodelay(true);
    let (tx, mut rx) = tcp_pair(stream).map_err(|e| e.to_string())?;
    let tx: Arc<dyn FrameTx> = Arc::new(tx);
    let engine = Engine::start(cfg.engine.clone());
    match serve_coordinator(&tx, &mut rx, &cfg, &engine) {
        Ok(()) => Ok(()),
        Err(why) => {
            // Lost or misbehaving coordinator: drain locally so no job is
            // abandoned mid-execution, then report why we exited.
            eprintln!(
                "worker {}: coordinator {peer} lost ({why}); draining",
                cfg.name
            );
            engine.drain();
            Ok(())
        }
    }
}

/// The coordinator session. Returns `Ok(())` after a clean `Drain`
/// exchange, `Err` when the connection failed first.
fn serve_coordinator(
    writer: &Arc<dyn FrameTx>,
    reader: &mut dyn FrameRx,
    cfg: &WorkerConfig,
    engine: &Arc<Engine>,
) -> Result<(), String> {
    // Handshake: the coordinator speaks first.
    match reader.recv() {
        Ok(Message::Hello { version, .. }) => {
            if version != PROTO_VERSION {
                let refusal = WireError::BadVersion {
                    ours: PROTO_VERSION,
                    theirs: version,
                };
                send(
                    writer,
                    &Message::Error {
                        message: refusal.to_string(),
                    },
                );
                return Err(refusal.to_string());
            }
            send(
                writer,
                &Message::HelloOk {
                    version: PROTO_VERSION,
                    worker: cfg.name.clone(),
                    now_us: now_us(),
                },
            );
        }
        Ok(other) => return Err(format!("expected hello, got {}", other.kind())),
        Err(e) => return Err(e.to_string()),
    }
    let mut waiters = Waiters::default();
    loop {
        match reader.recv() {
            Ok(Message::Dispatch { id, spec }) => {
                match engine.submit(spec, true, JobClass::Interactive) {
                    Submission::Queued(local) | Submission::Coalesced(local) => {
                        let engine = Arc::clone(engine);
                        let w = Arc::clone(writer);
                        let spawned = thread::Builder::new()
                            .name(format!("sdvbs-worker-wait-{id}"))
                            .spawn(move || report_when_terminal(&engine, &w, id, local));
                        match spawned {
                            Ok(handle) => waiters.push(handle),
                            Err(_) => send(writer, &Message::Busy { id }),
                        }
                    }
                    Submission::Cached(served) => {
                        let record = Box::new(served.record().clone());
                        send(writer, &Message::Done { id, record });
                    }
                    Submission::QueueFull | Submission::Draining => {
                        send(writer, &Message::Busy { id });
                    }
                }
            }
            Ok(Message::Heartbeat { seq }) => {
                send(
                    writer,
                    &Message::HeartbeatOk {
                        seq,
                        now_us: now_us(),
                    },
                );
            }
            Ok(Message::MetricsReq) => {
                send(
                    writer,
                    &Message::MetricsOk {
                        registry: engine.metrics_snapshot(),
                    },
                );
            }
            Ok(Message::TraceReq) => {
                send(
                    writer,
                    &Message::TraceOk {
                        events: engine.trace_events(),
                        now_us: now_us(),
                    },
                );
            }
            Ok(Message::Drain) => {
                let report = engine.drain();
                // Every result frame precedes DrainOk: the waiters hold
                // the writer, so joining them orders the stream.
                waiters.join_all();
                send(
                    writer,
                    &Message::DrainOk {
                        completed: report.completed as u64,
                        rejected: report.rejected as u64,
                    },
                );
                println!(
                    "worker {}: drained ({} completed, {} rejected)",
                    cfg.name, report.completed, report.rejected
                );
                return Ok(());
            }
            Ok(Message::Error { message }) => {
                eprintln!("worker {}: coordinator error: {message}", cfg.name);
            }
            Ok(other) => {
                send(
                    writer,
                    &Message::Error {
                        message: format!("unexpected {} from coordinator", other.kind()),
                    },
                );
            }
            Err(e) => {
                waiters.join_all();
                return Err(e.to_string());
            }
        }
    }
}

/// The per-job waiter threads of one coordinator session. A finished
/// waiter is joined when the next one is added, so the set holds the jobs
/// still in flight rather than every job the worker has run.
#[derive(Default)]
struct Waiters(Vec<thread::JoinHandle<()>>);

impl Waiters {
    /// Joins the finished waiters, then adds `handle`.
    fn push(&mut self, handle: thread::JoinHandle<()>) {
        let mut i = 0;
        while i < self.0.len() {
            if self.0[i].is_finished() {
                let _ = self.0.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        self.0.push(handle);
    }

    /// Waiters not yet joined.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.len()
    }

    /// Joins every waiter: each has sent its job's result frame.
    fn join_all(self) {
        for handle in self.0 {
            let _ = handle.join();
        }
    }
}

/// Waits for local job `local` to finish and reports it upstream as
/// cluster job `id`.
fn report_when_terminal(engine: &Arc<Engine>, writer: &Arc<dyn FrameTx>, id: u64, local: u64) {
    loop {
        let Some(snap) = engine.wait_terminal(local, Duration::from_secs(60)) else {
            send(
                writer,
                &Message::Rejected {
                    id,
                    detail: "job vanished from the worker's table".to_string(),
                },
            );
            return;
        };
        if !snap.is_terminal() {
            continue;
        }
        match snap.record {
            Some(served) => send(
                writer,
                &Message::Done {
                    id,
                    record: Box::new(served.record().clone()),
                },
            ),
            None => send(
                writer,
                &Message::Rejected {
                    id,
                    detail: snap.detail,
                },
            ),
        }
        return;
    }
}

/// One frame out, best-effort: a failed write means the coordinator is
/// gone, and the read loop will observe that on its side.
fn send(writer: &Arc<dyn FrameTx>, msg: &Message) {
    let _ = writer.send(msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_waiters_are_joined_as_new_ones_arrive() {
        let mut waiters = Waiters::default();
        for _ in 0..200 {
            let handle = thread::spawn(|| {});
            while !handle.is_finished() {
                thread::yield_now();
            }
            waiters.push(handle);
            // Every earlier waiter had finished before this push.
            assert_eq!(waiters.len(), 1);
        }
        // A waiter still in flight is kept until it finishes.
        let (release, wait) = std::sync::mpsc::channel::<()>();
        waiters.push(thread::spawn(move || {
            let _ = wait.recv();
        }));
        waiters.push(thread::spawn(|| {}));
        assert!(waiters.len() >= 2, "an unfinished waiter was dropped");
        release.send(()).expect("the waiter is listening");
        waiters.join_all();
    }
}
