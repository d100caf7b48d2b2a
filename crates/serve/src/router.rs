//! Request routing: paths + methods → engine calls → JSON responses.
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /v1/jobs` | Submit a job spec. `200` with the record when served from cache, `202` with a job id when queued or coalesced, `400` for a bad spec, `429` + `Retry-After` when the queue is full, `503` while draining. `?fresh=1` bypasses cache and coalescing; `?class=interactive\|batch` picks the QoS lane (default `interactive`). |
//! | `GET /v1/jobs/<id>` | Poll a job. `?wait_ms=N` long-polls until terminal (capped at 30 s). `503` for a rejected job, `404` for an unknown id. |
//! | `POST /v1/streams` | Open a video stream: `{"pipeline":"tracking\|disparity\|stitch", "size":"qcif", "seed":1, "fps":20, "policy":"drop\|degrade"}`. `201` with the stream id, `400` for a bad spec, `429` at the open-stream cap, `503` while draining. |
//! | `POST /v1/streams/<id>/frames` | Submit the stream's next frame. `202` with a frame ticket (which says whether the frame was accepted, dropped by backpressure, or degraded), `404`/`409` for unknown/closed streams, `503` while draining. |
//! | `GET /v1/streams/<id>` | Stream status: frame accounting, SLA violations, degrade state, latency percentiles, recent frame results. |
//! | `POST /v1/streams/<id>/close` | Close the stream (idempotent); responds with its final status. |
//! | `GET /metrics` | Prometheus-style text exposition of the engine's lifetime counters and latency histograms. |
//! | `GET /v1/trace` | Chrome-trace JSON of per-connection request spans absorbed so far. |
//! | `GET /healthz` | `200` always; reports `"ok"` or `"draining"`. |
//! | `POST /v1/shutdown` | Start a graceful drain; responds immediately. |

use crate::backend::Backend;
use crate::engine::{JobSnapshot, Submission};
use crate::http::{Request, Response};
use crate::sched::JobClass;
use crate::shutdown::ShutdownController;
use crate::stream::{parse_stream_spec, StreamRefused};
use sdvbs_core::all_benchmarks;
use sdvbs_runner::Job;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{Trace, TraceEvent};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Longest supported `wait_ms` long-poll.
const MAX_WAIT: Duration = Duration::from_secs(30);
/// Most timed iterations a single request may ask for.
const MAX_ITERATIONS: usize = 1000;

/// Everything a request handler can reach.
pub struct Ctx {
    /// The serving backend — the single-process engine or the cluster
    /// coordinator; the routes are identical over both.
    pub engine: Arc<dyn Backend>,
    /// The shutdown rendezvous.
    pub shutdown: Arc<ShutdownController>,
    /// Request spans absorbed from closed connections.
    pub trace: Arc<Mutex<Vec<TraceEvent>>>,
}

/// A routed response, plus whether this request asked the server to start
/// its graceful drain (the connection loop owns spawning that).
pub struct Routed {
    /// The response to write.
    pub response: Response,
    /// `true` for the `POST /v1/shutdown` that wins the request race.
    pub initiate_shutdown: bool,
}

impl Routed {
    fn plain(response: Response) -> Self {
        Routed {
            response,
            initiate_shutdown: false,
        }
    }
}

/// Routes one parsed request.
pub fn route(req: &Request, ctx: &Ctx) -> Routed {
    match (req.method.as_str(), req.path()) {
        ("POST", "/v1/jobs") => Routed::plain(submit(req, ctx)),
        ("GET", path) if path.starts_with("/v1/jobs/") => Routed::plain(poll(req, ctx)),
        ("POST", "/v1/streams") => Routed::plain(open_stream(req, ctx)),
        ("POST", path) if path.starts_with("/v1/streams/") && path.ends_with("/frames") => {
            Routed::plain(submit_frame(req, ctx))
        }
        ("POST", path) if path.starts_with("/v1/streams/") && path.ends_with("/close") => {
            Routed::plain(close_stream(req, ctx))
        }
        ("GET", path) if path.starts_with("/v1/streams/") => Routed::plain(stream_status(req, ctx)),
        ("GET", "/metrics") => Routed::plain(Response::text(200, ctx.engine.metrics_text())),
        ("GET", "/v1/trace") => Routed::plain(trace_json(ctx)),
        ("GET", "/healthz") => {
            let status = if ctx.shutdown.requested() {
                "draining"
            } else {
                "ok"
            };
            let body = match ctx.engine.health_extra() {
                Some(extra) => format!("{{\"status\":\"{status}\",{extra}}}"),
                None => format!("{{\"status\":\"{status}\"}}"),
            };
            Routed::plain(Response::json(200, body))
        }
        ("POST", "/v1/shutdown") => {
            let owner = ctx.shutdown.request();
            if owner {
                // Flip admission off before responding, so any request
                // sequenced after this response observes the drain.
                ctx.engine.begin_drain();
            }
            Routed {
                response: Response::json(200, "{\"draining\":true}"),
                initiate_shutdown: owner,
            }
        }
        (
            _,
            "/v1/jobs" | "/v1/streams" | "/metrics" | "/v1/trace" | "/healthz" | "/v1/shutdown",
        ) => Routed::plain(Response::json(405, err_json("method not allowed"))),
        _ => Routed::plain(Response::json(404, err_json("no such endpoint"))),
    }
}

/// `POST /v1/jobs`.
fn submit(req: &Request, ctx: &Ctx) -> Response {
    let spec = match parse_spec(&req.body) {
        Ok(spec) => spec,
        Err(why) => return Response::json(400, err_json(&why)),
    };
    let fresh = req
        .query()
        .iter()
        .any(|(k, v)| k == "fresh" && (v == "1" || v == "true"));
    let class_text = req
        .query()
        .into_iter()
        .find(|(k, _)| k == "class")
        .map(|(_, v)| v)
        .unwrap_or_default();
    let class = match JobClass::parse(&class_text) {
        Ok(class) => class,
        Err(why) => return Response::json(400, err_json(&why)),
    };
    match ctx.engine.submit(spec, fresh, class) {
        Submission::Cached(record) => Response::json(
            200,
            format!("{{\"cached\":true,\"record\":{}}}", record.json()),
        ),
        Submission::Queued(id) => Response::json(
            202,
            format!("{{\"cached\":false,\"coalesced\":false,\"id\":{id}}}"),
        ),
        Submission::Coalesced(id) => Response::json(
            202,
            format!("{{\"cached\":false,\"coalesced\":true,\"id\":{id}}}"),
        ),
        Submission::QueueFull => {
            Response::json(429, err_json("queue full")).with_header("retry-after", "1")
        }
        Submission::Draining => Response::json(503, err_json("server is draining")),
    }
}

/// `GET /v1/jobs/<id>`.
fn poll(req: &Request, ctx: &Ctx) -> Response {
    let id_text = &req.path()["/v1/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::json(400, err_json("job id must be an integer"));
    };
    let wait_ms = req
        .query()
        .iter()
        .find(|(k, _)| k == "wait_ms")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .unwrap_or(0);
    let snap = if wait_ms > 0 {
        let wait = Duration::from_millis(wait_ms).min(MAX_WAIT);
        ctx.engine.wait_terminal(id, wait)
    } else {
        ctx.engine.get(id)
    };
    match snap {
        None => Response::json(404, err_json("no such job")),
        Some(snap) => {
            let status = if snap.state == "rejected" { 503 } else { 200 };
            Response::json(status, snapshot_json(&snap))
        }
    }
}

/// Maps a stream refusal to its HTTP response.
fn refusal_response(refused: StreamRefused) -> Response {
    match refused {
        StreamRefused::Unsupported => {
            Response::json(501, err_json("this backend does not serve streams"))
        }
        StreamRefused::Draining => Response::json(503, err_json("server is draining")),
        StreamRefused::LimitReached => {
            Response::json(429, err_json("too many open streams")).with_header("retry-after", "1")
        }
        StreamRefused::NoSuchStream => Response::json(404, err_json("no such stream")),
        StreamRefused::Closed => Response::json(409, err_json("stream is closed")),
        StreamRefused::BadSpec(why) => Response::json(400, err_json(&why)),
    }
}

/// The `<id>` segment of a `/v1/streams/<id>[/...]` path.
fn stream_id(path: &str) -> Result<u64, Response> {
    let rest = &path["/v1/streams/".len()..];
    let id_text = rest.split('/').next().unwrap_or_default();
    id_text
        .parse::<u64>()
        .map_err(|_| Response::json(400, err_json("stream id must be an integer")))
}

/// `POST /v1/streams`.
fn open_stream(req: &Request, ctx: &Ctx) -> Response {
    let spec = match parse_stream_spec(&req.body) {
        Ok(spec) => spec,
        Err(why) => return Response::json(400, err_json(&why)),
    };
    match ctx.engine.open_stream(spec) {
        Ok(id) => Response::json(
            201,
            format!(
                "{{\"id\":{id},\"sla_ms\":{:.3},\"policy\":\"{}\"}}",
                spec.sla_ms(),
                spec.policy.label()
            ),
        ),
        Err(refused) => refusal_response(refused),
    }
}

/// `POST /v1/streams/<id>/frames`.
fn submit_frame(req: &Request, ctx: &Ctx) -> Response {
    let id = match stream_id(req.path()) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match ctx.engine.submit_frame(id) {
        Ok(ticket) => {
            let job = match ticket.job_id {
                Some(job) => job.to_string(),
                None => "null".to_string(),
            };
            Response::json(
                202,
                format!(
                    "{{\"frame\":{},\"job_id\":{job},\"dropped\":{},\"degraded\":{}}}",
                    ticket.frame, ticket.dropped, ticket.degraded
                ),
            )
        }
        Err(refused) => refusal_response(refused),
    }
}

/// `GET /v1/streams/<id>`.
fn stream_status(req: &Request, ctx: &Ctx) -> Response {
    let id = match stream_id(req.path()) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match ctx.engine.stream_status(id) {
        Some(status) => Response::json(200, status.to_value().to_string()),
        None => Response::json(404, err_json("no such stream")),
    }
}

/// `POST /v1/streams/<id>/close`.
fn close_stream(req: &Request, ctx: &Ctx) -> Response {
    let id = match stream_id(req.path()) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match ctx.engine.close_stream(id) {
        Some(status) => Response::json(200, status.to_value().to_string()),
        None => Response::json(404, err_json("no such stream")),
    }
}

/// `GET /v1/trace`: the absorbed connection spans plus the backend's
/// execution-side tracks (merged worker timelines in cluster mode).
fn trace_json(ctx: &Ctx) -> Response {
    let mut events = ctx
        .trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    events.extend(ctx.engine.trace_events());
    Response::json(200, Trace::new(events).to_chrome_json())
}

/// Parses a job spec from a JSON request body:
/// `{"benchmark": "...", "size": "sqcif", "policy": "serial",
///   "seed": 1, "iterations": 1}` — only `benchmark` is required.
fn parse_spec(body: &[u8]) -> Result<Job, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; expected a JSON job spec".into());
    }
    let v = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    // `Job::from_value` owns the field shapes and defaults; the transport
    // policy — registry validation and the iteration cap — lives here.
    let job = Job::from_value(&v)?;
    if !all_benchmarks()
        .iter()
        .any(|b| b.info().name == job.benchmark)
    {
        return Err(format!(
            "unknown benchmark {:?} (see `sdvbs-runner list`)",
            job.benchmark
        ));
    }
    if job.iterations > MAX_ITERATIONS {
        return Err(format!("iterations capped at {MAX_ITERATIONS}"));
    }
    Ok(job)
}

/// `{"error": "..."}` with proper escaping.
pub(crate) fn err_json(message: &str) -> String {
    Value::Obj(vec![("error".to_string(), Value::Str(message.to_string()))]).to_string()
}

/// A job snapshot as JSON; the record's stored line rides along verbatim
/// once done.
fn snapshot_json(snap: &JobSnapshot) -> String {
    match (&snap.record, snap.state) {
        (Some(record), _) => format!(
            "{{\"id\":{},\"state\":\"{}\",\"record\":{}}}",
            snap.id,
            snap.state,
            record.json()
        ),
        (None, "rejected") => Value::Obj(vec![
            ("id".to_string(), Value::Num(snap.id as f64)),
            ("state".to_string(), Value::Str("rejected".to_string())),
            ("detail".to_string(), Value::Str(snap.detail.clone())),
        ])
        .to_string(),
        (None, state) => format!("{{\"id\":{},\"state\":\"{state}\"}}", snap.id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_with_defaults_and_reject_garbage() {
        let job = parse_spec(b"{\"benchmark\":\"Disparity Map\"}").unwrap();
        assert_eq!(job.benchmark, "Disparity Map");
        assert_eq!(job.seed, 1);
        assert_eq!(job.iterations, 1);

        let job = parse_spec(
            b"{\"benchmark\":\"Image Stitch\",\"size\":\"64x48\",\
              \"policy\":\"threads:2\",\"seed\":9,\"iterations\":4}",
        )
        .unwrap();
        assert_eq!(job.seed, 9);
        assert_eq!(job.iterations, 4);

        assert!(parse_spec(b"").is_err());
        assert!(parse_spec(b"not json").is_err());
        assert!(parse_spec(b"{}").is_err());
        assert!(parse_spec(b"{\"benchmark\":\"Nope\"}").is_err());
        assert!(parse_spec(b"{\"benchmark\":\"Disparity Map\",\"size\":\"huge\"}").is_err());
        assert!(parse_spec(b"{\"benchmark\":\"Disparity Map\",\"iterations\":100000}").is_err());
    }

    #[test]
    fn error_json_escapes_the_message() {
        let body = err_json("bad \"quote\"");
        let v = Value::parse(&body).unwrap();
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("bad \"quote\"")
        );
    }
}
