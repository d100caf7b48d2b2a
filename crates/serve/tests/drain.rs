//! Graceful-drain integration test over real connections (satellite of
//! the serving layer): in-flight work completes, queued-but-unstarted
//! work is rejected with `503`, submissions during the drain are refused,
//! the listener closes, and no server thread outlives [`Server::wait`].
//!
//! This file intentionally holds a single test so the thread-count
//! assertion sees only this test's threads.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::{spec_body, Client, EngineConfig, Server, ServerConfig};
use sdvbs_trace::jsonl::Value;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spec(seed: u64) -> String {
    spec_body(
        &Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Serial,
            seed,
            1,
        ),
        seed,
    )
}

fn state_of(body: &str) -> String {
    Value::parse(body)
        .ok()
        .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
        .unwrap_or_else(|| format!("<unparsable: {body}>"))
}

fn thread_count() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn drain_completes_running_rejects_queued_and_leaks_nothing() {
    let threads_before = thread_count();

    // One worker with a 300 ms hold: the first job is observably running
    // while the second sits in the queue when the drain starts.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 4,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        },
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // S1: submitted and picked up by the worker.
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec(1)))
        .expect("submit S1");
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let running_id = Value::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .expect("job id");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{running_id}"), None)
            .expect("poll S1");
        if state_of(&resp.body_text()) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "S1 never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // S2: queued behind it.
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec(2)))
        .expect("submit S2");
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let queued_id = Value::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .expect("job id");

    // Drain, from a second connection — in-flight connections stay usable.
    let mut second = Client::connect(&addr).expect("connect second");
    let resp = second
        .request("POST", "/v1/shutdown", None)
        .expect("shutdown");
    assert_eq!(resp.status, 200);
    let resp = second.request("GET", "/healthz", None).expect("healthz");
    assert!(
        resp.body_text().contains("draining"),
        "{}",
        resp.body_text()
    );

    // S3: a submission during the drain is refused with 503.
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec(3)))
        .expect("submit S3");
    assert_eq!(resp.status, 503, "{}", resp.body_text());

    // The running job completes; the queued one is rejected with 503.
    let resp = client
        .request("GET", &format!("/v1/jobs/{running_id}?wait_ms=30000"), None)
        .expect("poll S1 terminal");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(state_of(&resp.body_text()), "done");
    let resp = client
        .request("GET", &format!("/v1/jobs/{queued_id}?wait_ms=30000"), None)
        .expect("poll S2 terminal");
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    assert_eq!(state_of(&resp.body_text()), "rejected");

    drop(client);
    drop(second);
    let report = server.wait();
    assert!(report.drained.completed >= 1, "report: {report:?}");
    assert!(report.drained.rejected >= 1, "report: {report:?}");

    // The listener is closed: new connections are refused.
    let refused = Instant::now() + Duration::from_secs(2);
    loop {
        if TcpStream::connect(&addr).is_err() {
            break;
        }
        assert!(
            Instant::now() < refused,
            "listener still accepting after drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every server thread was joined: the process thread count returns
    // to its pre-server level (Linux-only observation).
    if let Some(before) = threads_before {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let now = thread_count().unwrap_or(before);
            if now <= before {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "thread leak after drain: {before} -> {now}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
