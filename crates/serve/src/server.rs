//! The TCP front end: accept loop, per-connection threads, and the
//! graceful-drain wiring.
//!
//! Each accepted connection gets its own thread with a read timeout, a
//! per-connection [`Recorder`] (one request span per handled request, on
//! the connection's own trace track), and a per-connection
//! [`MetricsRegistry`]; both are folded into the shared state when the
//! connection closes, so the request hot path takes no cross-connection
//! locks. Connections are keep-alive by default and handle pipelined
//! requests; `Connection: close` is honored.
//!
//! Shutdown follows the two phases described in [`crate::shutdown`]:
//! whoever wins [`ShutdownController::request`] spawns the single drain
//! thread, which drains the engine, stores the report, raises the stop
//! flag, and pokes the accept loop awake with a loopback connection.
//! [`Server::wait`] then joins the accept thread, the drain thread, and
//! every connection thread — shutdown leaks nothing. The accept loop
//! joins finished connection threads as it admits new ones, so the
//! server holds handles for the open connections only, not for every
//! connection it ever accepted.

use crate::backend::Backend;
use crate::engine::{Engine, EngineConfig};
use crate::http::{parse_request, HttpError, Response};
use crate::router::{err_json, route, Ctx, Routed};
use crate::shutdown::{DrainReport, ShutdownController, ThreadSet};
use sdvbs_trace::{MetricsRegistry, Recorder};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking the
/// stop flag. Bounds how long shutdown waits on an idle keep-alive
/// connection.
const READ_TICK: Duration = Duration::from_millis(200);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Engine sizing (workers, queue capacity, watchdog, test hold).
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
        }
    }
}

/// State shared by the accept loop, connection threads, and drain thread.
struct Shared {
    ctx: Ctx,
    addr: SocketAddr,
    stop: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<ThreadSet>,
    drainer: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Spawns the one drain thread. Callers must hold the `true` return
    /// of [`ShutdownController::request`] — that is what makes this
    /// single-shot.
    fn start_drain(self: &Arc<Self>) {
        let shared = Arc::clone(self);
        let handle = thread::Builder::new()
            .name("sdvbs-serve-drain".to_string())
            .spawn(move || {
                let report = shared.ctx.engine.drain();
                // Raise stop before publishing the report so a waiter that
                // wakes on `finish` immediately finds joinable threads.
                shared.stop.store(true, Ordering::SeqCst);
                // Poke the accept loop out of `accept()`.
                let _ = TcpStream::connect(shared.addr);
                shared.ctx.shutdown.finish(report);
            })
            .expect("spawning the drain thread");
        *self.drainer.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
    }
}

/// A running benchmark-serving daemon.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, starts a single-process engine, and spawns the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_with_backend(&cfg.addr, Engine::start(cfg.engine))
    }

    /// Binds the listener over an already-running backend — the cluster
    /// coordinator's entry point, and the generic form of
    /// [`Server::start`].
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start_with_backend(addr: &str, backend: Arc<dyn Backend>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ctx: Ctx {
                engine: backend,
                shutdown: Arc::new(ShutdownController::new()),
                trace: Arc::new(Mutex::new(Vec::new())),
            },
            addr,
            stop: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(ThreadSet::default()),
            drainer: Mutex::new(None),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("sdvbs-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawning the accept thread")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving backend (for in-process tests and benchmarks).
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.shared.ctx.engine
    }

    /// Whether a shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.shared.ctx.shutdown.requested()
    }

    /// Blocks until a drain (started by `POST /v1/shutdown` or
    /// [`Server::shutdown`]) finishes, then joins the accept, drain, and
    /// connection threads. Returns the drain report.
    pub fn wait(mut self) -> DrainReport {
        let report = self.shared.ctx.shutdown.wait();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self
            .shared
            .drainer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        conns.join_all();
        report
    }

    /// Initiates a graceful drain (if not already started) and waits for
    /// it, joining every server thread.
    pub fn shutdown(self) -> DrainReport {
        if self.shared.ctx.shutdown.request() {
            self.shared.start_drain();
        }
        self.wait()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // The drain thread's wake-up connection (or a client
                    // racing the stop): the listener is closing.
                    break;
                }
                let idx = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("sdvbs-serve-conn-{idx}"))
                    .spawn(move || conn_loop(stream, idx, &conn_shared));
                if let Ok(handle) = spawned {
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle);
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept error: keep serving.
            }
        }
    }
}

/// One connection: parse → route → respond, keep-alive until the client
/// closes, asks to close, errors, or the server stops.
fn conn_loop(stream: TcpStream, idx: u64, shared: &Arc<Shared>) {
    let mut recorder = Recorder::new();
    recorder.set_label(format!("conn {idx}"));
    let mut local = MetricsRegistry::new();
    serve_conn(&stream, shared, &mut recorder, &mut local);
    shared
        .ctx
        .trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend(recorder.into_events());
    shared.ctx.engine.merge_metrics(&local);
}

fn serve_conn(
    mut stream: &TcpStream,
    shared: &Arc<Shared>,
    recorder: &mut Recorder,
    local: &mut MetricsRegistry,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Responses are one write each; don't let Nagle hold them back.
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 8192];
    loop {
        // Drain every complete (possibly pipelined) request in the buffer.
        loop {
            match parse_request(&buf) {
                Ok((req, consumed)) => {
                    buf.drain(..consumed);
                    let started = Instant::now();
                    recorder.begin(
                        &format!("{} {}", req.method, req.path()),
                        "http",
                        Vec::new(),
                    );
                    let Routed {
                        response,
                        initiate_shutdown,
                    } = route(&req, &shared.ctx);
                    let wrote = stream.write_all(&response.to_bytes()).is_ok();
                    recorder.end();
                    local.incr("http_requests", 1);
                    local.observe("request_ms", started.elapsed().as_secs_f64() * 1e3);
                    if initiate_shutdown {
                        shared.start_drain();
                    }
                    let close = req
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    if !wrote || close {
                        return;
                    }
                }
                Err(HttpError::Incomplete) => break,
                Err(HttpError::Malformed(why)) => {
                    let resp = Response::json(400, err_json(&format!("bad request: {why}")));
                    let _ = stream.write_all(&resp.to_bytes());
                    return;
                }
            }
        }
        // Sample the stop flag *before* blocking in read: a request the
        // client sent just as the drain completed (e.g. the follow-up
        // poll after a long-poll was answered at drain time) must still
        // get its response. Only a line that stays quiet for a full
        // read tick after the stop closes without one.
        let stopping = shared.stop.load(Ordering::SeqCst);
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopping {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let server = Server::start(ServerConfig::default()).expect("bind loopback");
        for _ in 0..200 {
            let mut conn = TcpStream::connect(server.addr()).expect("connect");
            conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("send");
            let mut reply = String::new();
            conn.read_to_string(&mut reply).expect("read to close");
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
        let held = server
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        assert!(held <= 8, "{held} connection handles held after 200 closes");
        server.shutdown();
    }
}
