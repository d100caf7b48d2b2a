//! End-to-end tests of the serving daemon over real loopback
//! connections: result caching, request coalescing, admission control,
//! `fresh=1` re-execution, and the error surface of the job API.

use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::{Job, RunRecord};
use sdvbs_serve::{spec_body, Client, EngineConfig, Server, ServerConfig};
use sdvbs_trace::jsonl::Value;
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

fn start(engine: EngineConfig) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
    })
    .expect("bind loopback");
    let client = Client::connect(&server.addr().to_string()).expect("connect");
    (server, client)
}

fn json(body: &str) -> Value {
    Value::parse(body).unwrap_or_else(|e| panic!("unparsable body {body:?}: {e}"))
}

fn submit(client: &mut Client, body: &str, query: &str) -> (u16, Value) {
    let resp = client
        .request("POST", &format!("/v1/jobs{query}"), Some(body))
        .expect("POST /v1/jobs");
    (resp.status, json(&resp.body_text()))
}

fn poll_done(client: &mut Client, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{id}?wait_ms=500"), None)
            .expect("poll");
        let v = json(&resp.body_text());
        match v.get("state").and_then(Value::as_str) {
            Some("done") => return v,
            Some("queued" | "running") => {}
            other => panic!("job {id} reached {other:?} instead of done"),
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
    }
}

/// Scrapes one counter off `/metrics`.
fn counter(client: &mut Client, name: &str) -> u64 {
    let resp = client.request("GET", "/metrics", None).expect("metrics");
    resp.body_text()
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

#[test]
fn identical_specs_hit_the_cache_and_fresh_bypasses_it() {
    let (server, mut client) = start(EngineConfig::default());
    let (status, v) = submit(&mut client, &spec(1), "");
    assert_eq!(status, 202);
    assert_eq!(v.get("cached"), Some(&Value::Bool(false)));
    let id = v.get("id").and_then(Value::as_u64).expect("id");
    let done = poll_done(&mut client, id);
    let record = done.get("record").expect("record rides along");
    assert_eq!(
        record.get("benchmark").and_then(Value::as_str),
        Some("Disparity Map")
    );

    // The identical spec is a cache hit: answered 200 with the record,
    // and the engine does not execute anything new.
    let (status, v) = submit(&mut client, &spec(1), "");
    assert_eq!(status, 200);
    assert_eq!(v.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(
        v.get("record")
            .and_then(|r| r.get("seed"))
            .and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(counter(&mut client, "sdvbs_serve_jobs_executed"), 1);
    assert_eq!(counter(&mut client, "sdvbs_serve_cache_hits"), 1);

    // fresh=1 forces a re-execution of the same spec.
    let (status, v) = submit(&mut client, &spec(1), "?fresh=1");
    assert_eq!(status, 202);
    let fresh_id = v.get("id").and_then(Value::as_u64).expect("id");
    assert_ne!(fresh_id, id);
    poll_done(&mut client, fresh_id);
    assert_eq!(counter(&mut client, "sdvbs_serve_jobs_executed"), 2);

    server.shutdown();
}

/// The record's bytes in a `{..., "record": <line>}` body.
fn record_bytes(body: &str) -> &str {
    let (_, rest) = body
        .split_once("\"record\":")
        .expect("body carries a record");
    rest.strip_suffix('}').expect("record is the last field")
}

#[test]
fn a_cache_hit_carries_the_done_polls_record_byte_for_byte() {
    let (server, mut client) = start(EngineConfig::default());
    let (status, v) = submit(&mut client, &spec(3), "");
    assert_eq!(status, 202);
    let id = v.get("id").and_then(Value::as_u64).expect("id");
    poll_done(&mut client, id);
    let polled = client
        .request("GET", &format!("/v1/jobs/{id}"), None)
        .expect("poll")
        .body_text();
    let hit = client
        .request("POST", "/v1/jobs", Some(&spec(3)))
        .expect("POST /v1/jobs");
    assert_eq!(hit.status, 200);
    let hit = hit.body_text();
    let line = record_bytes(&polled);
    assert_eq!(record_bytes(&hit), line);
    // Both are the record's own JSON line.
    let record = RunRecord::from_json_line(line).expect("a run record");
    assert_eq!(record.to_json_line(), line);
    server.shutdown();
}

#[test]
fn concurrent_identical_specs_coalesce_to_one_execution() {
    let (server, mut client) = start(EngineConfig {
        hold: Some(Duration::from_millis(300)),
        ..EngineConfig::default()
    });
    let (status, v) = submit(&mut client, &spec(5), "");
    assert_eq!(status, 202);
    assert_eq!(v.get("coalesced"), Some(&Value::Bool(false)));
    let id = v.get("id").and_then(Value::as_u64).expect("id");

    // While the first is in flight, the same spec attaches to it.
    let (status, v) = submit(&mut client, &spec(5), "");
    assert_eq!(status, 202);
    assert_eq!(v.get("coalesced"), Some(&Value::Bool(true)));
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(id));

    poll_done(&mut client, id);
    assert_eq!(counter(&mut client, "sdvbs_serve_jobs_executed"), 1);
    assert_eq!(counter(&mut client, "sdvbs_serve_coalesced"), 1);
    server.shutdown();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let (server, mut client) = start(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        hold: Some(Duration::from_millis(300)),
        ..EngineConfig::default()
    });
    let (status, v) = submit(&mut client, &spec(10), "");
    assert_eq!(status, 202);
    let first = v.get("id").and_then(Value::as_u64).expect("id");
    // Wait for the worker to take it, freeing the queue slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client
            .request("GET", &format!("/v1/jobs/{first}"), None)
            .expect("poll");
        if json(&resp.body_text()).get("state").and_then(Value::as_str) != Some("queued") {
            break;
        }
        assert!(Instant::now() < deadline, "first job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = submit(&mut client, &spec(11), "");
    assert_eq!(status, 202);
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec(12)))
        .expect("overflow");
    assert_eq!(resp.status, 429, "{}", resp.body_text());
    assert_eq!(resp.header("retry-after"), Some("1"));
    server.shutdown();
}

#[test]
fn the_error_surface_is_precise() {
    let (server, mut client) = start(EngineConfig::default());

    // Unknown benchmark and malformed JSON: 400 with a JSON error.
    let resp = client
        .request("POST", "/v1/jobs", Some("{\"benchmark\":\"Nope\"}"))
        .expect("bad spec");
    assert_eq!(resp.status, 400);
    assert!(json(&resp.body_text()).get("error").is_some());
    let resp = client
        .request("POST", "/v1/jobs", Some("this is not json"))
        .expect("bad json");
    assert_eq!(resp.status, 400);

    // Unknown job id: 404. Non-numeric id: 400.
    let resp = client
        .request("GET", "/v1/jobs/9999", None)
        .expect("unknown id");
    assert_eq!(resp.status, 404);
    let resp = client.request("GET", "/v1/jobs/abc", None).expect("bad id");
    assert_eq!(resp.status, 400);

    // Unknown endpoint: 404. Wrong method on a known one: 405.
    let resp = client
        .request("GET", "/v1/nope", None)
        .expect("unknown endpoint");
    assert_eq!(resp.status, 404);
    let resp = client
        .request("DELETE", "/metrics", None)
        .expect("bad method");
    assert_eq!(resp.status, 405);

    // Health reports ok while up.
    let resp = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("ok"));
    server.shutdown();
}
