//! The `std::net` front end: one reader thread per connection feeding the
//! shared [`Service`], one writer thread per connection fanning responses
//! back in submission order (so pipelined clients see FIFO responses even
//! though batches complete concurrently).
//!
//! Reads poll with a short timeout so every connection notices the stop
//! flag promptly; shutdown (the `{"cmd":"shutdown"}` verb or
//! [`ServerHandle::shutdown`]) stops accepting, lets every connection
//! finish its in-flight responses, drains the service queue, and joins
//! all threads before [`Server::run`] returns.

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spikefolio_telemetry::value::Value;

use crate::metrics::{MetricsRegistry, Stage, METRICS_SCHEMA};
use crate::protocol::{self, Control, Payload, WireRequest};
use crate::service::{InferenceRequest, InferenceResponse, ServeError, Service};

/// Longest request line a connection may send (a paper-scale request is
/// about 8 KB). A client that passes it without a newline gets a
/// `line_too_long` error and is disconnected.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Poll interval for the per-connection stop check (ms).
    pub read_poll_ms: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self { read_poll_ms: 100 }
    }
}

struct ServerShared {
    addr: SocketAddr,
    stop: AtomicBool,
}

/// A clonable handle that can stop a running [`Server`] from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether shutdown has been requested.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the accept loop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_millis(500));
    }
}

/// The TCP server. Bind, grab a [`ServerHandle`], then [`run`](Self::run).
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shared: Arc<ServerShared>,
    options: ServerOptions,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.shared.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) in front of `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: &str,
        service: Arc<Service>,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared { addr, stop: AtomicBool::new(false) });
        Ok(Self { listener, service, shared, options })
    }

    /// The control handle for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Accept loop: blocks until shutdown is requested, then joins every
    /// connection, drains the service queue, and returns.
    ///
    /// # Errors
    ///
    /// Propagates listener failures (individual connection errors are
    /// tolerated).
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.handle();
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if handle.is_stopped() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&self.service);
            let conn_handle = handle.clone();
            let poll = Duration::from_millis(self.options.read_poll_ms.max(1));
            let spawned = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || handle_connection(stream, &service, &conn_handle, poll));
            if let Ok(h) = spawned {
                conns.push(h);
            }
        }
        drop(self.listener);
        for h in conns {
            let _ = h.join();
        }
        // Workers are still running here, so every pending response the
        // joined connections flushed was served; now drain and stop them.
        self.service.shutdown();
        Ok(())
    }
}

/// One queued outgoing item: an immediate line or a not-yet-served reply.
enum Outgoing {
    Line(String),
    Pending { id: u64, rx: Receiver<Result<InferenceResponse, ServeError>> },
}

fn writer_loop(
    stream: TcpStream,
    rx: &Receiver<Outgoing>,
    deterministic: bool,
    registry: &MetricsRegistry,
) {
    let mut out = BufWriter::new(stream);
    while let Ok(item) = rx.recv() {
        // Only served responses are timed through the render stage, so its
        // histogram count matches the served-request tally exactly. The
        // stage is observed before the write: a client that has read its
        // reply must find it counted.
        let line = match item {
            Outgoing::Line(line) => line,
            Outgoing::Pending { id, rx } => match rx.recv() {
                Ok(Ok(resp)) => {
                    let t0 = Instant::now();
                    let line = protocol::render_response(&resp, deterministic);
                    registry.observe_stage(Stage::Render, t0.elapsed());
                    line
                }
                Ok(Err(err)) => {
                    protocol::render_error(Some(id), protocol::error_kind(&err), &err.to_string())
                }
                Err(_) => protocol::render_error(Some(id), "shutting_down", "service stopped"),
            },
        };
        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    handle: &ServerHandle,
    poll: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    let Ok(write_half) = stream.try_clone() else { return };
    let deterministic = service.config().deterministic;
    let registry = Arc::clone(service.registry());
    let (out_tx, out_rx) = channel::<Outgoing>();
    let writer = std::thread::Builder::new()
        .name("serve-conn-writer".to_string())
        .spawn(move || writer_loop(write_half, &out_rx, deterministic, &registry));

    let mut read_half = stream;
    let mut buf: Vec<u8> = Vec::new();
    // Leading bytes of `buf` already known to hold no newline.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    'conn: loop {
        if handle.is_stopped() {
            break;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
                    let line_bytes: Vec<u8> = buf.drain(..=scanned + off).collect();
                    scanned = 0;
                    let text = String::from_utf8_lossy(&line_bytes);
                    let line = text.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if !process_line(line, service, handle, &out_tx) {
                        break 'conn;
                    }
                }
                scanned = buf.len();
                if buf.len() > MAX_LINE_BYTES {
                    service.registry().count_parse_error();
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let _ = out_tx.send(Outgoing::Line(protocol::render_error(
                        None,
                        "line_too_long",
                        &msg,
                    )));
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    drop(out_tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

/// Handles one request line; returns `false` when the connection should
/// close (after a `shutdown` verb).
fn process_line(
    line: &str,
    service: &Arc<Service>,
    handle: &ServerHandle,
    out: &Sender<Outgoing>,
) -> bool {
    let parse_t0 = Instant::now();
    let request = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(fail) => {
            service.registry().count_parse_error();
            let _ =
                out.send(Outgoing::Line(protocol::render_error(fail.id, "parse", &fail.message)));
            return true;
        }
    };
    match request {
        WireRequest::Infer(infer) => {
            // Parse-stage latency covers only inference requests so its
            // histogram count matches the issued-request tally; control
            // verbs are deliberately excluded.
            service.registry().observe_stage(Stage::Parse, parse_t0.elapsed());
            let corr = service.registry().mint_corr();
            let state = match infer.payload {
                Payload::State(state) => Ok(state),
                Payload::Window { candles, num_assets, prev_weights } => service
                    .store()
                    .current()
                    .backend
                    .state_from_window(&candles, num_assets, &prev_weights),
            };
            let state = match state {
                Ok(state) => state,
                Err(msg) => {
                    let _ = out.send(Outgoing::Line(protocol::render_error(
                        Some(infer.id),
                        "invalid",
                        &msg,
                    )));
                    return true;
                }
            };
            let deadline = infer.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            let request =
                InferenceRequest { id: infer.id, state, seed: infer.seed, deadline, corr };
            match service.submit(request) {
                Ok(rx) => {
                    let _ = out.send(Outgoing::Pending { id: infer.id, rx });
                }
                Err(err) => {
                    let _ = out.send(Outgoing::Line(protocol::render_error(
                        Some(infer.id),
                        protocol::error_kind(&err),
                        &err.to_string(),
                    )));
                }
            }
            true
        }
        WireRequest::Control(Control::Info) => {
            let model = service.store().current();
            let _ = out.send(Outgoing::Line(protocol::render_ok(vec![
                ("schema".to_string(), Value::Str(protocol::SERVE_SCHEMA.to_string())),
                ("backend".to_string(), Value::Str(model.backend.name().to_string())),
                ("model_version".to_string(), Value::U64(model.version)),
                ("state_dim".to_string(), Value::U64(model.backend.state_dim() as u64)),
                ("action_dim".to_string(), Value::U64(model.backend.action_dim() as u64)),
                ("deterministic".to_string(), Value::Bool(service.config().deterministic)),
            ])));
            true
        }
        WireRequest::Control(Control::Metrics { prometheus }) => {
            let snap = service.metrics_snapshot();
            let line = if prometheus {
                protocol::render_ok(vec![
                    ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
                    ("text".to_string(), Value::Str(snap.render_prometheus())),
                ])
            } else {
                protocol::render_ok(vec![
                    ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
                    ("metrics".to_string(), snap.to_value()),
                ])
            };
            let _ = out.send(Outgoing::Line(line));
            true
        }
        WireRequest::Control(Control::Stats) => {
            let snap = service.stats();
            let swap = service.store().swap_status();
            let (swaps, swap_failures) = (swap.swaps, swap.failures);
            let mut stats = Value::Map(vec![
                ("requests".to_string(), Value::U64(snap.requests)),
                ("served".to_string(), Value::U64(snap.served)),
                ("shed_queue_full".to_string(), Value::U64(snap.shed_queue_full)),
                ("shed_deadline".to_string(), Value::U64(snap.shed_deadline)),
                ("invalid_input".to_string(), Value::U64(snap.invalid_input)),
                ("nonfinite_output".to_string(), Value::U64(snap.nonfinite_output)),
                ("renormalized".to_string(), Value::U64(snap.renormalized)),
                ("batches".to_string(), Value::U64(snap.batches)),
                ("max_batch".to_string(), Value::U64(snap.max_batch)),
                ("queue_depth_peak".to_string(), Value::U64(snap.queue_depth_peak)),
                ("swaps".to_string(), Value::U64(swaps)),
                ("swap_failures".to_string(), Value::U64(swap_failures)),
                ("swap_rejected".to_string(), Value::U64(swap.rejected)),
            ]);
            if let Value::Map(ref mut entries) = stats {
                entries.push(("last_good_version".to_string(), Value::U64(swap.last_good_version)));
                if let Some(kind) = swap.last_error_kind {
                    entries.push(("last_error_kind".to_string(), Value::Str(kind)));
                }
                if let Some(kind) = swap.last_rejection_kind {
                    entries.push(("last_rejection_kind".to_string(), Value::Str(kind)));
                }
            }
            let _ =
                out.send(Outgoing::Line(protocol::render_ok(vec![("stats".to_string(), stats)])));
            true
        }
        WireRequest::Control(Control::Ping) => {
            let _ = out.send(Outgoing::Line(protocol::render_ok(vec![(
                "pong".to_string(),
                Value::Bool(true),
            )])));
            true
        }
        WireRequest::Control(Control::Reload(path)) => {
            let line = match service.store().reload(&path) {
                Ok(version) => protocol::render_ok(vec![
                    ("model_version".to_string(), Value::U64(version)),
                    ("source".to_string(), Value::Str(path)),
                ]),
                Err(msg) => protocol::render_error(None, "reload_failed", &msg),
            };
            let _ = out.send(Outgoing::Line(line));
            true
        }
        WireRequest::Control(Control::Shutdown) => {
            let _ = out.send(Outgoing::Line(protocol::render_ok(vec![(
                "shutting_down".to_string(),
                Value::Bool(true),
            )])));
            handle.shutdown();
            false
        }
    }
}
