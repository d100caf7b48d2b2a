//! `sdvbs-wire` — the cluster tier's hand-rolled wire protocol.
//!
//! The SD-VBS serving daemon scales out by sharding jobs across worker
//! processes; this crate is the protocol they speak: **length-prefixed
//! JSONL over TCP** with a versioned hello/handshake, heartbeats, job
//! dispatch, result/metrics/trace streaming, and a two-phase drain — all
//! over `std::net`, no external dependencies, in the spirit of the
//! workspace's other hand-rolled transports (the HTTP/1.1 front end, the
//! JSONL store).
//!
//! * [`frame`] — the framing codec: 4-byte big-endian length + one JSON
//!   message per frame, capped at [`frame::MAX_FRAME`]. Buffer-level
//!   (`decode_frame`) and stream-level (`read_msg`/`write_msg`) APIs.
//! * [`message`] — the [`Message`] vocabulary and its JSON mapping.
//! * [`transport`] — [`tcp_pair`] splits a connected stream into a
//!   shareable sender and a single-reader receiver.
//! * [`error`] — the typed [`WireError`] taxonomy. Torn frames, EOF, bad
//!   versions, and malformed payloads are all distinct, typed, and
//!   panic-free, so the coordinator can tell a dead worker from a broken
//!   one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod message;
pub mod transport;

pub use error::WireError;
pub use frame::{decode_frame, encode_frame, read_msg, write_msg, MAX_FRAME, PROTO_VERSION};
pub use message::Message;
pub use transport::{tcp_pair, TcpFrameRx, TcpFrameTx};
