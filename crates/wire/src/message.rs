//! The message vocabulary of the cluster protocol.
//!
//! Every frame carries exactly one [`Message`], serialized as a JSON
//! object with a `"type"` discriminator. The conversation between a
//! coordinator and a worker:
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ----------------------      -----------------------------
//! Hello                       HelloOk        (versioned handshake)
//! Heartbeat                   HeartbeatOk    (liveness + clock sample)
//! Dispatch                    Done | Rejected | Busy
//! MetricsReq                  MetricsOk
//! TraceReq                    TraceOk
//! Drain                       DrainOk        (two-phase drain)
//!                             Error          (typed protocol fault)
//! ```
//!
//! Clock samples (`now_us`) ride on the handshake, heartbeats, and trace
//! replies so the coordinator can estimate each worker's trace-epoch skew
//! and merge per-worker tracks onto one timeline
//! ([`sdvbs_trace::merge_process_traces`]).

use crate::error::WireError;
use sdvbs_runner::{Job, RunRecord};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{event_from_chrome, event_to_chrome, MetricsRegistry, TraceEvent};

/// One protocol message. See the module docs for who sends what.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator's opening message on a fresh connection.
    Hello {
        /// The sender's [`crate::frame::PROTO_VERSION`].
        version: u32,
        /// The sender's role (`"coordinator"`).
        role: String,
        /// The sender's self-chosen name.
        name: String,
    },
    /// Worker's handshake acceptance.
    HelloOk {
        /// The worker's protocol version.
        version: u32,
        /// The worker's self-chosen name (lands in drain reports and
        /// trace track labels).
        worker: String,
        /// The worker's trace clock at send time, for epoch-skew
        /// estimation.
        now_us: u64,
    },
    /// Liveness probe.
    Heartbeat {
        /// Echoed back in the matching [`Message::HeartbeatOk`].
        seq: u64,
    },
    /// Liveness answer.
    HeartbeatOk {
        /// The probed sequence number.
        seq: u64,
        /// The worker's trace clock at send time.
        now_us: u64,
    },
    /// Run this job.
    Dispatch {
        /// Coordinator-side job id, echoed on every reply about this job.
        id: u64,
        /// The job spec.
        spec: Job,
    },
    /// The worker's queue refused the dispatch (admission control); the
    /// coordinator should place the job elsewhere.
    Busy {
        /// The refused job.
        id: u64,
    },
    /// The job executed; here is its record.
    Done {
        /// The finished job.
        id: u64,
        /// The run record (boxed: it dominates the variant size).
        record: Box<RunRecord>,
    },
    /// The worker refused or abandoned the job without a record (e.g. it
    /// was still queued when a drain started).
    Rejected {
        /// The rejected job.
        id: u64,
        /// Why.
        detail: String,
    },
    /// Ask for the worker's metrics registry.
    MetricsReq,
    /// The worker's metrics registry, losslessly (raw histogram samples).
    MetricsOk {
        /// The registry snapshot.
        registry: MetricsRegistry,
    },
    /// Ask for the worker's trace events.
    TraceReq,
    /// The worker's trace events plus a clock sample for skew correction.
    TraceOk {
        /// The events, on the worker's own tracks and timeline.
        events: Vec<TraceEvent>,
        /// The worker's trace clock at send time.
        now_us: u64,
    },
    /// Begin a graceful drain: finish running jobs, reject queued ones,
    /// then answer [`Message::DrainOk`].
    Drain,
    /// The worker finished draining.
    DrainOk {
        /// Jobs that executed to completion over this link's lifetime.
        completed: u64,
        /// Jobs rejected without executing.
        rejected: u64,
    },
    /// A typed protocol fault the peer should log (and usually drop the
    /// link over).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Message {
    /// The `"type"` discriminator this message serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloOk { .. } => "hello_ok",
            Message::Heartbeat { .. } => "heartbeat",
            Message::HeartbeatOk { .. } => "heartbeat_ok",
            Message::Dispatch { .. } => "dispatch",
            Message::Busy { .. } => "busy",
            Message::Done { .. } => "done",
            Message::Rejected { .. } => "rejected",
            Message::MetricsReq => "metrics_req",
            Message::MetricsOk { .. } => "metrics_ok",
            Message::TraceReq => "trace_req",
            Message::TraceOk { .. } => "trace_ok",
            Message::Drain => "drain",
            Message::DrainOk { .. } => "drain_ok",
            Message::Error { .. } => "error",
        }
    }

    /// Serializes the message as its JSON object.
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![("type".into(), Value::Str(self.kind().into()))];
        match self {
            Message::Hello {
                version,
                role,
                name,
            } => {
                pairs.push(("version".into(), Value::Num(f64::from(*version))));
                pairs.push(("role".into(), Value::Str(role.clone())));
                pairs.push(("name".into(), Value::Str(name.clone())));
            }
            Message::HelloOk {
                version,
                worker,
                now_us,
            } => {
                pairs.push(("version".into(), Value::Num(f64::from(*version))));
                pairs.push(("worker".into(), Value::Str(worker.clone())));
                pairs.push(("now_us".into(), Value::Num(*now_us as f64)));
            }
            Message::Heartbeat { seq } => {
                pairs.push(("seq".into(), Value::Num(*seq as f64)));
            }
            Message::HeartbeatOk { seq, now_us } => {
                pairs.push(("seq".into(), Value::Num(*seq as f64)));
                pairs.push(("now_us".into(), Value::Num(*now_us as f64)));
            }
            Message::Dispatch { id, spec } => {
                pairs.push(("id".into(), Value::Num(*id as f64)));
                pairs.push(("spec".into(), spec.to_value()));
            }
            Message::Busy { id } => {
                pairs.push(("id".into(), Value::Num(*id as f64)));
            }
            Message::Done { id, record } => {
                pairs.push(("id".into(), Value::Num(*id as f64)));
                pairs.push(("record".into(), record.to_value()));
            }
            Message::Rejected { id, detail } => {
                pairs.push(("id".into(), Value::Num(*id as f64)));
                pairs.push(("detail".into(), Value::Str(detail.clone())));
            }
            Message::MetricsReq | Message::TraceReq | Message::Drain => {}
            Message::MetricsOk { registry } => {
                pairs.push((
                    "counters".into(),
                    Value::Obj(
                        registry
                            .counters()
                            .map(|(n, v)| (n.to_string(), Value::Num(v as f64)))
                            .collect(),
                    ),
                ));
                pairs.push((
                    "histograms".into(),
                    Value::Obj(
                        registry
                            .histograms()
                            .map(|(n, h)| {
                                (
                                    n.to_string(),
                                    Value::Arr(
                                        h.samples().iter().map(|&s| Value::Num(s)).collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                ));
            }
            Message::TraceOk { events, now_us } => {
                pairs.push((
                    "events".into(),
                    Value::Arr(events.iter().map(event_to_chrome).collect()),
                ));
                pairs.push(("now_us".into(), Value::Num(*now_us as f64)));
            }
            Message::DrainOk {
                completed,
                rejected,
            } => {
                pairs.push(("completed".into(), Value::Num(*completed as f64)));
                pairs.push(("rejected".into(), Value::Num(*rejected as f64)));
            }
            Message::Error { message } => {
                pairs.push(("message".into(), Value::Str(message.clone())));
            }
        }
        Value::Obj(pairs)
    }

    /// Parses a [`Message::to_value`]-shaped object.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for a missing/unknown `"type"` or a
    /// variant missing its fields — never a panic.
    pub fn from_value(v: &Value) -> Result<Message, WireError> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::Malformed("message without a \"type\" field".into()))?;
        let str_field = |name: &str| -> Result<String, WireError> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| WireError::Malformed(format!("{kind}: missing string {name:?}")))
        };
        let u64_field = |name: &str| -> Result<u64, WireError> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError::Malformed(format!("{kind}: missing integer {name:?}")))
        };
        match kind {
            "hello" => Ok(Message::Hello {
                version: u64_field("version")? as u32,
                role: str_field("role")?,
                name: str_field("name")?,
            }),
            "hello_ok" => Ok(Message::HelloOk {
                version: u64_field("version")? as u32,
                worker: str_field("worker")?,
                now_us: u64_field("now_us")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                seq: u64_field("seq")?,
            }),
            "heartbeat_ok" => Ok(Message::HeartbeatOk {
                seq: u64_field("seq")?,
                now_us: u64_field("now_us")?,
            }),
            "dispatch" => Ok(Message::Dispatch {
                id: u64_field("id")?,
                spec: Job::from_value(
                    v.get("spec")
                        .ok_or_else(|| WireError::Malformed("dispatch: missing spec".into()))?,
                )
                .map_err(|e| WireError::Malformed(format!("dispatch: bad spec: {e}")))?,
            }),
            "busy" => Ok(Message::Busy {
                id: u64_field("id")?,
            }),
            "done" => {
                let record = v
                    .get("record")
                    .ok_or_else(|| WireError::Malformed("done: missing record".into()))?;
                let record = RunRecord::from_value(record)
                    .map_err(|e| WireError::Malformed(format!("done: bad record: {e}")))?;
                Ok(Message::Done {
                    id: u64_field("id")?,
                    record: Box::new(record),
                })
            }
            "rejected" => Ok(Message::Rejected {
                id: u64_field("id")?,
                detail: str_field("detail")?,
            }),
            "metrics_req" => Ok(Message::MetricsReq),
            "metrics_ok" => {
                let mut registry = MetricsRegistry::new();
                if let Some(Value::Obj(counters)) = v.get("counters") {
                    for (name, val) in counters {
                        let val = val.as_u64().ok_or_else(|| {
                            WireError::Malformed(format!("metrics_ok: bad counter {name:?}"))
                        })?;
                        registry.incr(name, val);
                    }
                }
                if let Some(Value::Obj(hists)) = v.get("histograms") {
                    for (name, samples) in hists {
                        let samples = samples.as_array().ok_or_else(|| {
                            WireError::Malformed(format!("metrics_ok: bad histogram {name:?}"))
                        })?;
                        for s in samples {
                            let s = s.as_f64().ok_or_else(|| {
                                WireError::Malformed(format!(
                                    "metrics_ok: non-numeric sample in {name:?}"
                                ))
                            })?;
                            registry.observe(name, s);
                        }
                    }
                }
                Ok(Message::MetricsOk { registry })
            }
            "trace_req" => Ok(Message::TraceReq),
            "trace_ok" => {
                let events = v
                    .get("events")
                    .and_then(Value::as_array)
                    .ok_or_else(|| WireError::Malformed("trace_ok: missing events".into()))?
                    .iter()
                    .map(|e| {
                        event_from_chrome(e)
                            .map_err(|e| WireError::Malformed(format!("trace_ok: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Message::TraceOk {
                    events,
                    now_us: u64_field("now_us")?,
                })
            }
            "drain" => Ok(Message::Drain),
            "drain_ok" => Ok(Message::DrainOk {
                completed: u64_field("completed")?,
                rejected: u64_field("rejected")?,
            }),
            "error" => Ok(Message::Error {
                message: str_field("message")?,
            }),
            other => Err(WireError::Malformed(format!(
                "unknown message type {other:?}"
            ))),
        }
    }
}
