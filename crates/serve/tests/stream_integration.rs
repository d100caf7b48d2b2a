//! Streaming-tier integration tests over real loopback sockets
//! (satellites of the stream subsystem): the HTTP front must preserve
//! the pipelines' bit-exact results, a drain that lands mid-stream
//! must leave every in-flight frame either completed or honestly
//! rejected — never lost, and the stream load generator must read the
//! server's accounting back whole.

use sdvbs_core::InputSize;
use sdvbs_serve::{
    run_stream_loadgen, stream_spec_body, Client, EngineConfig, Server, ServerConfig,
    StreamLoadConfig,
};
use sdvbs_stream::{
    fold_digest, run_one_shot, DegradePolicy, PipelineKind, StreamSpec, DIGEST_SEED,
};
use sdvbs_trace::jsonl::Value;
use std::time::{Duration, Instant};

fn get_u64(body: &str, field: &str) -> u64 {
    Value::parse(body)
        .ok()
        .and_then(|v| v.get(field).and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("missing {field:?} in {body}"))
}

fn open_stream(client: &mut Client, spec: &StreamSpec) -> u64 {
    let resp = client
        .request("POST", "/v1/streams", Some(&stream_spec_body(spec)))
        .expect("open stream");
    assert_eq!(resp.status, 201, "{}", resp.body_text());
    get_u64(&resp.body_text(), "id")
}

/// Job `id`'s state, long-polling up to `wait_ms` for a terminal one.
fn job_state(client: &mut Client, id: u64, wait_ms: u64) -> String {
    let resp = client
        .request("GET", &format!("/v1/jobs/{id}?wait_ms={wait_ms}"), None)
        .expect("poll job");
    let body = resp.body_text();
    Value::parse(&body)
        .ok()
        .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
        .unwrap_or_else(|| panic!("unparsable poll body {body}"))
}

/// Polls job `id` to a terminal state and returns it.
fn poll_terminal(client: &mut Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let state = job_state(client, id, 500);
        if state == "done" || state == "rejected" {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state:?}");
    }
}

#[test]
fn unloaded_stream_over_http_matches_the_one_shot_run() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 16,
            ..EngineConfig::default()
        },
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let spec = StreamSpec {
        pipeline: PipelineKind::Disparity,
        size: InputSize::Sqcif,
        seed: 21,
        fps: 1.0, // a 1000 ms budget: never pressured while unloaded
        policy: DegradePolicy::Degrade,
    };
    let id = open_stream(&mut client, &spec);
    const FRAMES: u64 = 4;
    for _ in 0..FRAMES {
        let resp = client
            .request("POST", &format!("/v1/streams/{id}/frames"), None)
            .expect("submit frame");
        assert_eq!(resp.status, 202, "{}", resp.body_text());
        let body = resp.body_text();
        let ticket = Value::parse(&body).expect("ticket parses");
        assert_eq!(
            ticket.get("dropped"),
            Some(&Value::Bool(false)),
            "unloaded frame dropped: {body}"
        );
        assert_eq!(
            ticket.get("degraded"),
            Some(&Value::Bool(false)),
            "unloaded frame degraded: {body}"
        );
        let job = get_u64(&body, "job_id");
        assert_eq!(poll_terminal(&mut client, job), "done");
    }

    let resp = client
        .request("GET", &format!("/v1/streams/{id}"), None)
        .expect("status");
    let body = resp.body_text();
    assert_eq!(get_u64(&body, "completed"), FRAMES, "{body}");
    assert_eq!(get_u64(&body, "dropped") + get_u64(&body, "failed"), 0);
    let streamed = Value::parse(&body)
        .ok()
        .and_then(|v| {
            v.get("rolling_digest")
                .and_then(Value::as_str)
                .map(String::from)
        })
        .expect("rolling digest");
    let expected = run_one_shot(&spec, FRAMES)
        .expect("one-shot run")
        .iter()
        .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest));
    assert_eq!(
        streamed,
        format!("{expected:#018x}"),
        "HTTP-served stream diverged from the one-shot run"
    );

    let resp = client
        .request("POST", "/v1/shutdown", None)
        .expect("shutdown");
    assert_eq!(resp.status, 200);
    drop(client);
    server.wait();
}

#[test]
fn drain_during_an_active_stream_accounts_for_every_frame() {
    // One worker with a 200 ms hold: when the drain starts, the first
    // frame is running and the rest wait for their turn.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 16,
            hold: Some(Duration::from_millis(200)),
            ..EngineConfig::default()
        },
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let spec = StreamSpec {
        pipeline: PipelineKind::Tracking,
        size: InputSize::Sqcif,
        seed: 9,
        fps: 30.0,
        policy: DegradePolicy::Drop,
    };
    let id = open_stream(&mut client, &spec);

    // Back-to-back submissions all land before the first completion, so
    // nothing is pressured and every frame is accepted.
    const FRAMES: usize = 6;
    let mut jobs = Vec::new();
    for _ in 0..FRAMES {
        let resp = client
            .request("POST", &format!("/v1/streams/{id}/frames"), None)
            .expect("submit frame");
        assert_eq!(resp.status, 202, "{}", resp.body_text());
        let body = resp.body_text();
        assert_eq!(
            Value::parse(&body).expect("ticket").get("dropped"),
            Some(&Value::Bool(false)),
            "{body}"
        );
        jobs.push(get_u64(&body, "job_id"));
    }

    // Start the drain only once the first frame is on the worker: with
    // fast submissions the shutdown can otherwise overtake the dispatcher,
    // and every frame is (rightly) rejected before it runs.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = job_state(&mut client, jobs[0], 0);
        if state == "running" || state == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "first frame stuck in {state}");
        std::thread::sleep(Duration::from_millis(2));
    }

    let resp = client
        .request("POST", "/v1/shutdown", None)
        .expect("shutdown");
    assert_eq!(resp.status, 200);

    // New frames are refused outright during the drain...
    let resp = client
        .request("POST", &format!("/v1/streams/{id}/frames"), None)
        .expect("post-drain submit");
    assert_eq!(resp.status, 503, "{}", resp.body_text());

    // ...while every already-accepted frame ends terminal: done or an
    // honest rejection, nothing hung, nothing lost.
    let mut done = 0u64;
    let mut rejected = 0u64;
    for job in jobs {
        match poll_terminal(&mut client, job).as_str() {
            "done" => done += 1,
            _ => rejected += 1,
        }
    }
    assert_eq!(done + rejected, FRAMES as u64);
    assert!(done >= 1, "the running frame must finish, not be rejected");

    // The stream's own accounting must agree with the per-job states.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let resp = client
            .request("GET", &format!("/v1/streams/{id}"), None)
            .expect("status");
        let body = resp.body_text();
        if get_u64(&body, "in_flight") == 0 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "stream stats never settled: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(get_u64(&body, "submitted"), FRAMES as u64, "{body}");
    assert_eq!(get_u64(&body, "completed"), done, "{body}");
    assert_eq!(get_u64(&body, "rejected"), rejected, "{body}");
    assert_eq!(get_u64(&body, "dropped") + get_u64(&body, "failed"), 0);

    drop(client);
    server.wait();
}

#[test]
fn stream_loadgen_reports_each_streams_accounting_and_digest() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 16,
            ..EngineConfig::default()
        },
    })
    .expect("bind loopback");
    // 4 fps is a 250 ms budget per frame, far above an SQCIF frame's
    // cost: nothing is pressured, so every frame runs full size.
    let specs: Vec<StreamSpec> = [(PipelineKind::Tracking, 31), (PipelineKind::Disparity, 32)]
        .into_iter()
        .map(|(pipeline, seed)| StreamSpec {
            pipeline,
            size: InputSize::Sqcif,
            seed,
            fps: 4.0,
            policy: DegradePolicy::Degrade,
        })
        .collect();
    const FRAMES: u64 = 4;
    let report = run_stream_loadgen(&StreamLoadConfig {
        addr: server.addr().to_string(),
        specs: specs.clone(),
        frames: FRAMES as usize,
        drain_limit: Duration::from_secs(120),
    })
    .expect("stream loadgen runs");
    let printed = report.to_string();
    assert_eq!(report.errors, 0, "{printed}");
    assert_eq!(report.streams.len(), specs.len(), "{printed}");
    for spec in &specs {
        // The report lists streams in id order, which the client
        // threads' race to open them decides.
        let status = report
            .streams
            .iter()
            .find(|s| s.pipeline == spec.pipeline.label())
            .unwrap_or_else(|| panic!("no {} stream:\n{printed}", spec.pipeline.label()));
        assert_eq!(status.state, "closed", "{printed}");
        assert_eq!(status.submitted, FRAMES, "{printed}");
        assert_eq!(status.in_flight, 0, "{printed}");
        assert!(status.accounted(), "{printed}");
        let expected = run_one_shot(spec, FRAMES)
            .expect("one-shot run")
            .iter()
            .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest));
        assert_eq!(
            status.rolling_digest, expected,
            "stream {} diverged from the one-shot run:\n{printed}",
            status.id
        );
        assert!(
            printed.contains(&format!("digest {expected:#018x}")),
            "{printed}"
        );
    }
    server.shutdown();
}
