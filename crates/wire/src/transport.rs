//! The two halves of a framed TCP link.
//!
//! [`tcp_pair`] splits one connected stream into a [`TcpFrameTx`] (a
//! shareable, internally serialized sender) and a [`TcpFrameRx`] (a
//! blocking single-reader receiver). The split mirrors how the cluster
//! uses a link: several threads send on it (dispatcher, heartbeat, rpc)
//! while exactly one reader thread drains it, so [`TcpFrameTx::send`]
//! takes `&self` and serializes internally while [`TcpFrameRx::recv`]
//! takes `&mut self`.

use crate::error::WireError;
use crate::frame::{read_msg, write_msg};
use crate::message::Message;
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};

/// The sending half of a framed link over a shared [`TcpStream`]: each
/// `send` writes one whole frame under an internal mutex, so concurrent
/// senders interleave whole frames, never bytes.
pub struct TcpFrameTx {
    stream: Mutex<TcpStream>,
}

impl TcpFrameTx {
    /// Wraps a connected stream (typically a `try_clone` of the one the
    /// reader holds).
    pub fn new(stream: TcpStream) -> Self {
        TcpFrameTx {
            stream: Mutex::new(stream),
        }
    }

    /// Writes one message as a complete frame and flushes.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the peer is unreachable — the caller treats
    /// any error as a broken link.
    pub fn send(&self, msg: &Message) -> Result<(), WireError> {
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        write_msg(&mut *stream, msg)
    }
}

/// The receiving half of a framed link over an owned [`TcpStream`]: a
/// blocking read of exactly one message at a time.
pub struct TcpFrameRx {
    stream: TcpStream,
}

impl TcpFrameRx {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpFrameRx { stream }
    }

    /// Blocks until one full message arrives.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] for a clean EOF between frames,
    /// [`WireError::Truncated`] for EOF inside one, and the codec's
    /// `Malformed`/`TooLarge` for corrupt payloads.
    pub fn recv(&mut self) -> Result<Message, WireError> {
        read_msg(&mut self.stream)
    }
}

/// Splits one connected TCP stream into its send and receive halves via
/// `try_clone`, the shape both cluster endpoints want.
///
/// # Errors
///
/// [`WireError::Io`] if the clone fails.
pub fn tcp_pair(stream: TcpStream) -> Result<(TcpFrameTx, TcpFrameRx), WireError> {
    let writer = stream.try_clone()?;
    Ok((TcpFrameTx::new(writer), TcpFrameRx::new(stream)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_halves_carry_frames_both_ways() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let (tx, mut rx) = tcp_pair(stream).unwrap();
            tx.send(&Message::Heartbeat { seq: 7 }).unwrap();
            rx.recv().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let (tx, mut rx) = tcp_pair(stream).unwrap();
        assert_eq!(rx.recv().unwrap(), Message::Heartbeat { seq: 7 });
        tx.send(&Message::HeartbeatOk { seq: 7, now_us: 1 })
            .unwrap();
        assert_eq!(
            client.join().unwrap(),
            Message::HeartbeatOk { seq: 7, now_us: 1 }
        );
        // Dropping both server halves closes the socket; the client side
        // would now observe Closed — covered by the cluster tests.
    }
}
