//! Cluster fault-tolerance over real sockets and real worker processes:
//! a coordinator loses a worker to SIGKILL mid-sweep and must finish
//! every job elsewhere (or quarantine it honestly), then name the dead
//! worker in its drain report.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::{Backend, ClusterConfig, ClusterEngine, JobClass, Submission};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A worker subprocess; the stdout handle stays open so the worker's
/// post-drain prints never hit a closed pipe.
struct Worker {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Worker {
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sdvbs-serve"))
            .args(["worker", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn a worker process");
        let mut stdout = BufReader::new(child.stdout.take().expect("worker stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("worker banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .unwrap_or_else(|| panic!("unexpected worker banner: {banner:?}"))
            .trim()
            .to_string();
        Worker {
            child,
            addr,
            _stdout: stdout,
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn job(seed: u64) -> Job {
    Job::new(
        "Disparity Map",
        InputSize::Custom {
            width: 64,
            height: 48,
        },
        ExecPolicy::Serial,
        seed,
        1,
    )
}

#[test]
fn killed_worker_loses_no_jobs_silently() {
    let mut workers = [Worker::spawn(), Worker::spawn()];
    let cluster = ClusterEngine::start(ClusterConfig {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        queue_capacity: 32,
        heartbeat: Duration::from_millis(100),
        liveness: Duration::from_millis(1500),
        ..ClusterConfig::default()
    })
    .expect("cluster startup");

    // A sweep wide enough that both shards hold work when the axe falls.
    let mut ids = Vec::new();
    for seed in 0..12u64 {
        match cluster.submit(job(9000 + seed), false, JobClass::Interactive) {
            Submission::Queued(id) => ids.push(id),
            other => panic!("submit: unexpected {other:?}"),
        }
    }
    std::thread::sleep(Duration::from_millis(100));

    // SIGKILL one worker mid-sweep. The coordinator must notice via the
    // broken link and requeue that worker's in-flight jobs.
    workers[1].child.kill().expect("kill -9 the victim worker");
    let _ = workers[1].child.wait();

    // Every job must reach a terminal state: completed on the survivor
    // or quarantined with an honest detail. None may hang.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut done = 0usize;
    let mut quarantined = 0usize;
    for id in ids {
        let left = deadline.saturating_duration_since(Instant::now());
        let snap = cluster.wait_terminal(id, left).expect("job exists");
        match snap.state {
            "done" => done += 1,
            "rejected" => {
                assert!(
                    snap.detail.contains("w1") || snap.detail.contains("worker"),
                    "rejection without a worker-death detail: {:?}",
                    snap.detail
                );
                quarantined += 1;
            }
            other => panic!("job {id} stuck in {other:?} after the kill"),
        }
    }
    assert_eq!(done + quarantined, 12, "every job must be accounted for");
    assert!(
        done > 0,
        "the surviving worker should finish most of the sweep"
    );

    // The death is visible before the drain. When the victim had nothing
    // in flight, no job waited on its link, so the coordinator may see the
    // reset only after every job is terminal: wait for it, well past the
    // 1.5 s liveness window, before asserting.
    let seen_by = Instant::now() + Duration::from_secs(10);
    while cluster.alive_workers().len() > 1 && Instant::now() < seen_by {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(cluster.alive_workers(), vec!["w0".to_string()]);
    let health = cluster.health_extra().expect("cluster health");
    assert!(health.contains("\"workers_alive\":1"), "health: {health}");
    assert!(
        health.contains("\"dead_workers\":[\"w1\"]"),
        "health: {health}"
    );

    // ...and the drain report names the dead worker and accounts for
    // every admitted job.
    let report = cluster.drain();
    assert_eq!(report.dead_workers, vec!["w1".to_string()]);
    assert_eq!(
        report.lifetime.completed + report.lifetime.rejected + report.lifetime.quarantined,
        12,
        "drain report dropped jobs: {report:?}"
    );
    assert_eq!(report.lifetime.completed, done);
    assert_eq!(
        report.lifetime.rejected + report.lifetime.quarantined,
        quarantined
    );
}

#[test]
fn cluster_serves_and_drains_cleanly_without_faults() {
    let workers = [Worker::spawn(), Worker::spawn()];
    let cluster = ClusterEngine::start(ClusterConfig {
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        ..ClusterConfig::default()
    })
    .expect("cluster startup");

    let mut ids = Vec::new();
    for seed in 0..6u64 {
        match cluster.submit(job(7000 + seed), false, JobClass::Interactive) {
            Submission::Queued(id) => ids.push(id),
            other => panic!("submit: unexpected {other:?}"),
        }
    }
    for id in ids {
        let snap = cluster
            .wait_terminal(id, Duration::from_secs(120))
            .expect("job exists");
        assert_eq!(snap.state, "done", "job {id}: {}", snap.detail);
        let record = snap.record.expect("done without a record");
        assert_eq!(record.record().seed, 7000 + id);
    }

    // An identical resubmission is a coordinator-side cache hit — no
    // wire round trip.
    match cluster.submit(job(7000), false, JobClass::Interactive) {
        Submission::Cached(record) => assert_eq!(record.record().seed, 7000),
        other => panic!("expected a cache hit, got {other:?}"),
    }

    let report = cluster.drain();
    assert_eq!(report.lifetime.completed, 6);
    assert_eq!(report.lifetime.rejected, 0);
    assert_eq!(report.lifetime.quarantined, 0);
    assert!(report.dead_workers.is_empty());
    for mut w in workers {
        // Drained workers exit on their own; reap rather than kill.
        let status = w.child.wait().expect("worker exit status");
        assert!(status.success(), "worker exited {status:?}");
    }
}
