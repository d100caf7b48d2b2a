//! Property-based coverage of the `sdvbs-wire` codec, mirroring the HTTP
//! parser proptests: encode → decode is the identity for **every message
//! type**, every strict prefix of a frame is "incomplete" (buffer layer)
//! or a typed `Truncated`/`Closed` (stream layer) — never a panic — and
//! corrupt payload bytes are typed `Malformed` errors.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::{HostMeta, Job, KernelStatRecord, RunRecord, RunStatus};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{MetricsRegistry, Phase, TraceEvent};
use sdvbs_wire::{decode_frame, encode_frame, read_msg, Message, WireError, PROTO_VERSION};

/// Maps bytes onto a printable name alphabet (including characters that
/// need JSON escaping, so the string path is exercised).
fn name(bytes: &[u8]) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 _-:/\"\\";
    bytes
        .iter()
        .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char)
        .collect()
}

/// A deterministic job spec from draw material.
fn job(seed: u64, pick: u64) -> Job {
    let size = match pick % 4 {
        0 => InputSize::Sqcif,
        1 => InputSize::Qcif,
        2 => InputSize::Cif,
        _ => InputSize::Custom {
            width: 16 + (pick % 64) as usize,
            height: 12 + (pick % 48) as usize,
        },
    };
    let policy = match (pick / 4) % 3 {
        0 => ExecPolicy::Serial,
        1 => ExecPolicy::Auto,
        _ => ExecPolicy::Threads(1 + (pick % 7) as usize),
    };
    Job::new("Disparity Map", size, policy, seed, 1 + (pick % 5) as usize)
}

/// A deterministic run record from draw material.
fn record(seed: u64, ms: f64, quarantined: bool) -> RunRecord {
    RunRecord {
        job_id: seed % 100,
        benchmark: "Feature Tracking".into(),
        size: "qcif".into(),
        policy: "threads:2".into(),
        threads: 2,
        seed,
        iterations: 3,
        status: if quarantined {
            RunStatus::Panicked
        } else {
            RunStatus::Completed
        },
        times_ms: vec![ms, ms * 1.5, ms * 0.5],
        min_ms: ms * 0.5,
        p50_ms: ms,
        mean_ms: ms,
        max_ms: ms * 1.5,
        wall_ms: ms * 4.0,
        quality: if seed.is_multiple_of(2) {
            Some(0.75)
        } else {
            None
        },
        detail: format!("tracked {seed} features"),
        kernels: vec![KernelStatRecord {
            name: "Gaussian".into(),
            self_ms: ms * 0.25,
            calls: seed % 17,
            percent: 25.0,
        }],
        non_kernel_percent: 3.5,
        occupancy_mode: "summed-cpu".into(),
        host: HostMeta {
            os: "wire-test-os".into(),
            cpu: "wire-test-cpu".into(),
            logical_cpus: 8,
            simd: "sse2".into(),
        },
        attempts: 1 + (seed % 3) as u32,
        injected: if seed.is_multiple_of(3) {
            vec!["panic".into()]
        } else {
            Vec::new()
        },
        quarantined,
    }
}

/// Builds one message of each of the 15 protocol types from draw
/// material; `pick` selects the variant.
fn message(pick: usize, seed: u64, text: &[u8], ms: f64) -> Message {
    match pick % 15 {
        0 => Message::Hello {
            version: PROTO_VERSION,
            role: "coordinator".into(),
            name: name(text),
        },
        1 => Message::HelloOk {
            version: PROTO_VERSION,
            worker: name(text),
            now_us: seed,
        },
        2 => Message::Heartbeat { seq: seed },
        3 => Message::HeartbeatOk {
            seq: seed,
            now_us: seed.wrapping_mul(3) % 1_000_000_000,
        },
        4 => Message::Dispatch {
            id: seed,
            spec: job(seed, seed / 7),
        },
        5 => Message::Busy { id: seed },
        6 => Message::Done {
            id: seed,
            record: Box::new(record(seed, ms, false)),
        },
        7 => Message::Rejected {
            id: seed,
            detail: name(text),
        },
        8 => Message::MetricsReq,
        9 => {
            let mut registry = MetricsRegistry::new();
            registry.incr("jobs_executed", seed % 1000);
            registry.incr(&format!("ctr_{}", name(text)), 1 + seed % 5);
            registry.observe("job_exec_ms", ms);
            registry.observe("job_exec_ms", ms * 2.0);
            registry.observe("queue_wait_ms", ms * 0.125);
            Message::MetricsOk { registry }
        }
        10 => Message::TraceReq,
        11 => {
            let track = (seed % 2048) as u32;
            let t0 = seed % 1_000_000;
            Message::TraceOk {
                events: vec![
                    TraceEvent::new(name(text), "meta", Phase::Meta, 0, track),
                    TraceEvent::new("Disparity Map", "job", Phase::Begin, t0, track),
                    {
                        let mut ev =
                            TraceEvent::new("inject:panic", "fault", Phase::Instant, t0 + 5, track);
                        ev.args = vec![("attempt".into(), Value::Num(1.0))];
                        ev
                    },
                    TraceEvent::new("Disparity Map", "end", Phase::End, t0 + 10, track),
                ],
                now_us: seed,
            }
        }
        12 => Message::Drain,
        13 => Message::DrainOk {
            completed: seed % 500,
            rejected: seed % 17,
        },
        _ => Message::Error {
            message: name(text),
        },
    }
}

proptest! {
    /// encode → decode is the identity for every message type, consuming
    /// exactly the frame's bytes (buffer layer) and reading exactly one
    /// message (stream layer).
    #[test]
    fn every_message_type_roundtrips(
        pick in 0usize..15,
        seed in 0u64..1_000_000,
        text in proptest::collection::vec(0u8..=255, 0..24),
        ms in 0.001f64..500.0,
    ) {
        let msg = message(pick, seed, &text, ms);
        let frame = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&frame)
            .expect("well-formed frame")
            .expect("complete frame");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(&decoded, &msg);
        let mut cursor = std::io::Cursor::new(frame);
        prop_assert_eq!(read_msg(&mut cursor).expect("stream read"), msg);
    }

    /// Every strict prefix of every frame is incomplete at the buffer
    /// layer (`Ok(None)`: more bytes can always finish it) and a typed
    /// `Truncated`/`Closed` at the stream layer. No input panics.
    #[test]
    fn torn_frames_yield_typed_errors_never_panics(
        pick in 0usize..15,
        seed in 0u64..1_000_000,
        text in proptest::collection::vec(0u8..=255, 0..24),
        ms in 0.001f64..500.0,
        cut_seed in 0usize..100_000,
    ) {
        let msg = message(pick, seed, &text, ms);
        let frame = encode_frame(&msg);
        let cut = cut_seed % frame.len();
        prop_assert!(decode_frame(&frame[..cut]).expect("prefix is not an error").is_none());
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match read_msg(&mut cursor) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated { wanted, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(wanted > got);
                // The reported target is the header or the whole frame.
                prop_assert!(wanted == 4 || wanted == frame.len());
            }
            other => return Err(TestCaseError::fail(
                format!("cut {cut}: expected Closed/Truncated, got {other:?}"))),
        }
    }

    /// A `done` frame carries the record exactly as its JSON line reads,
    /// so the frame bytes do not depend on whether the encoder goes
    /// through the line or builds the record's value directly.
    #[test]
    fn done_frames_embed_the_records_json_line(
        seed in 0u64..1_000_000,
        ms in 0.001f64..500.0,
    ) {
        let rec = record(seed, ms, seed % 5 == 0);
        let frame = encode_frame(&Message::Done { id: seed, record: Box::new(rec.clone()) });
        let want = format!("{{\"type\":\"done\",\"id\":{seed},\"record\":{}}}", rec.to_json_line());
        prop_assert_eq!(&frame[4..], want.as_bytes());
    }

    /// Two frames back to back decode in sequence from one buffer, each
    /// consuming its own bytes (the coordinator's read loop pipelines).
    #[test]
    fn pipelined_frames_decode_in_order(
        seed in 0u64..1_000_000,
        text in proptest::collection::vec(0u8..=255, 0..16),
        ms in 0.001f64..500.0,
    ) {
        let a = message(4, seed, &text, ms);      // Dispatch
        let b = message(6, seed + 1, &text, ms);  // Done
        let bytes = [encode_frame(&a), encode_frame(&b)].concat();
        let (first, used) = decode_frame(&bytes).unwrap().expect("first frame");
        prop_assert_eq!(first, a);
        let (second, used_b) = decode_frame(&bytes[used..]).unwrap().expect("second frame");
        prop_assert_eq!(second, b);
        prop_assert_eq!(used + used_b, bytes.len());
    }

    /// Corrupting a frame's payload yields a typed Malformed (or an
    /// incomplete read when the corruption hides inside a still-valid
    /// JSON string) — never a panic or a bogus success of another type.
    #[test]
    fn corrupt_payload_bytes_never_panic(
        seed in 0u64..1_000_000,
        flip_at_seed in 0usize..100_000,
        flip_to in 0u8..=255,
    ) {
        let msg = message(4, seed, b"x", 1.0); // Dispatch: nested spec object
        let mut frame = encode_frame(&msg);
        let flip_at = 4 + flip_at_seed % (frame.len() - 4);
        frame[flip_at] = flip_to;
        // Must return *something* typed: Ok(Some) if the flip was benign
        // (e.g. same byte), Ok(None) never (length untouched), or a
        // Malformed error. The property is the absence of panics.
        match decode_frame(&frame) {
            Ok(Some(_)) | Err(WireError::Malformed(_)) => {}
            other => return Err(TestCaseError::fail(
                format!("unexpected outcome {other:?}"))),
        }
    }
}
