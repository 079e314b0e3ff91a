//! The connection edge shared by [`FlowServer`](crate::FlowServer) and the
//! `flow-router` fleet front: everything between the listening socket and
//! a tier's [`Handler`].
//!
//! # Connection model
//!
//! The accept loop admits at most `max_connections` live connections
//! (resolved by [`resolve_worker_threads`], the same knob that sizes every
//! engine pool); further clients wait in the OS accept backlog. Each
//! connection runs **two** threads so requests pipeline for real:
//!
//! * the *reader* enforces the per-connection budgets (line size, request
//!   rate, the `auth` preamble), decodes each line, and hands it to the
//!   handler at once — a query becomes a pending reply (a service ticket,
//!   a routed backend request) pushed into an in-order reply channel;
//! * the *writer* pops replies in request order, resolves each pending one
//!   through the handler, and writes the line back.
//!
//! A client that sends ten requests without reading has all ten in flight,
//! yet always receives responses in request order. Malformed or
//! over-budget lines never kill the connection: they produce an `error`
//! response in order, and the reader keeps going.
//!
//! `update <nbytes>` bodies are read (and size-checked, newline-checked,
//! UTF-8-checked) here; the handler applies the source on the reader
//! thread, which makes an update a per-connection sync point. `shutdown`
//! answers `bye` and gracefully stops the whole edge: the listener closes,
//! live connections are cut loose on their read side (writers keep
//! flushing what was accepted), and dropping the [`Edge`] waits until
//! every connection has finished.

use crate::budget::{constant_time_eq, read_line_bounded, BoundedLine, RateLimiter};
use crate::codec::{self, Command};
use crate::server::ServerConfig;
use flowistry_engine::scheduler::resolve_worker_threads;
use flowistry_engine::QueryRequest;
use flowistry_fault::{sites as fault_sites, Fault};
use flowistry_obs::{Counter, Histogram, Registry};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one tier plugs into the [`Edge`]: how a decoded query or update
/// becomes a response line. Admission, budgets, auth, framing and response
/// order all belong to the edge.
pub trait Handler: Send + Sync + 'static {
    /// A reply still being computed, resolved in request order by the
    /// connection's writer.
    type Pending: Send + 'static;

    /// The tier's name: edge metrics register as `flow_<TIER>_*` and edge
    /// threads are named `flow-<TIER>-*`.
    const TIER: &'static str;

    /// The per-kind histogram (a `{kind="..."}` label is appended) timing
    /// each pending reply from request decode to response flush.
    const LATENCY_SERIES: &'static str;

    /// Whether the `codec.frame_read` / `codec.frame_write` failpoints fire
    /// on this tier's connections.
    const FRAME_FAULTS: bool;

    /// Whether `flow_<TIER>_bytes_{read,written}_total` are registered.
    /// A tier that answers `metrics` from the registry itself leaves them
    /// out: writing that reply would move a series the reply already
    /// rendered.
    const BYTE_COUNTERS: bool;

    /// The epoch stamped on the error envelopes the edge produces.
    fn epoch(&self) -> u64;

    /// Starts serving one decoded query. `line` is the raw request line and
    /// `decoded_at` the instant the edge read it.
    fn query(
        &self,
        request: QueryRequest,
        trace_id: Option<String>,
        deadline_ms: Option<u64>,
        line: &str,
        decoded_at: Instant,
    ) -> Reply<Self::Pending>;

    /// Applies the source of an `update` whose body the edge has read, and
    /// returns the response line. `epoch` is the command's `epoch=` pin.
    fn update(&self, source: String, epoch: Option<u64>) -> String;

    /// Waits for a pending reply and renders its response line.
    fn resolve(&self, pending: Self::Pending) -> String;
}

/// A [`Handler`]'s answer to a query.
pub enum Reply<P> {
    /// A response line ready to write.
    Line(String),
    /// A reply to resolve with [`Handler::resolve`] when its turn comes.
    Pending(P),
}

/// What a connection's reader hands its writer, in request order.
enum Queued<P> {
    Line(String),
    /// A pending reply plus its decode instant and request-kind index, so
    /// the writer can observe decode-to-flush latency.
    Pending(P, Instant, usize),
}

/// Edge counters and the per-kind latency histogram, registered under the
/// tier's `flow_<tier>_` prefix.
struct EdgeMetrics {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    decode_errors: Arc<Counter>,
    auth_failures: Arc<Counter>,
    rate_limited: Arc<Counter>,
    oversize_lines: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    /// Indexed by [`QueryRequest::kind_index`].
    latency: Vec<Arc<Histogram>>,
}

impl EdgeMetrics {
    fn new<H: Handler>(registry: &Registry) -> EdgeMetrics {
        let counter =
            |name: &str, help| registry.counter(&format!("flow_{}_{name}_total", H::TIER), help);
        let byte_counter = |name: &str, help| {
            if H::BYTE_COUNTERS {
                counter(name, help)
            } else {
                Arc::new(Counter::new())
            }
        };
        EdgeMetrics {
            connections: counter("connections", "Connections accepted and served"),
            requests: counter("requests", "Command lines successfully decoded"),
            decode_errors: counter("decode_errors", "Command lines rejected by the codec"),
            auth_failures: counter(
                "auth_failures",
                "Commands rejected for missing or wrong auth preamble",
            ),
            rate_limited: counter(
                "rate_limited",
                "Commands rejected by the per-connection rate budget",
            ),
            oversize_lines: counter(
                "oversize_lines",
                "Request lines rejected by the per-connection size budget",
            ),
            bytes_read: byte_counter(
                "bytes_read",
                "Bytes read from clients (command lines and update bodies)",
            ),
            bytes_written: byte_counter(
                "bytes_written",
                "Bytes written to clients (response lines)",
            ),
            latency: QueryRequest::KINDS
                .iter()
                .map(|kind| {
                    registry.histogram(
                        &format!("{}{{kind=\"{kind}\"}}", H::LATENCY_SERIES),
                        "Latency from request decode to response flush",
                    )
                })
                .collect(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared<H: Handler> {
    handler: Arc<H>,
    /// The budgets every connection reader enforces.
    config: ServerConfig,
    metrics: EdgeMetrics,
    shutdown: Arc<AtomicBool>,
    /// Live connection count, gating the accept loop at `max_connections`.
    active: Mutex<usize>,
    slot_freed: Condvar,
    /// One stream clone per live connection (slot-indexed, `None` when the
    /// connection ended), so shutdown can cut blocked readers loose.
    conn_streams: Mutex<Vec<Option<TcpStream>>>,
}

/// A listening socket serving one [`Handler`]: see the [module docs](self).
pub struct Edge<H: Handler> {
    shared: Arc<Shared<H>>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl<H: Handler> Edge<H> {
    /// Binds `addr` (port `0` for an ephemeral port) and starts accepting
    /// connections for `handler` under the budgets in `config`, registering
    /// the edge metrics on `registry`.
    pub fn bind(
        handler: Arc<H>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        registry: &Registry,
    ) -> io::Result<Edge<H>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let max_connections = resolve_worker_threads(config.max_connections);
        let shared = Arc::new(Shared {
            handler,
            config,
            metrics: EdgeMetrics::new::<H>(registry),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Mutex::new(0),
            slot_freed: Condvar::new(),
            conn_streams: Mutex::new(Vec::new()),
        });
        let accept_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("flow-{}-accept", H::TIER))
                .spawn(move || accept_loop(&shared, &listener, max_connections))?
        };
        Ok(Edge {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the edge is listening on (with the real port when bound
    /// to port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The handler this edge serves.
    pub fn handler(&self) -> &Arc<H> {
        &self.shared.handler
    }

    /// Whether a shutdown has been initiated (wire `shutdown` or
    /// [`Edge::shutdown`]).
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The flag [`Edge::is_shutdown`] reads, for a tier's own background
    /// threads to stop on.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shared.shutdown.clone()
    }

    /// Initiates a graceful shutdown: stop accepting and cut live
    /// connections loose on their read side.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the accept loop has stopped, i.e. until a shutdown.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl<H: Handler> Drop for Edge<H> {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
        // Wait for every connection thread: each answers everything its
        // client got accepted before the edge is considered gone.
        let mut active = self.shared.active.lock().expect("edge active lock");
        while *active > 0 {
            active = self
                .shared
                .slot_freed
                .wait(active)
                .expect("edge active lock");
        }
    }
}

/// Flips the shutdown flag and wakes everyone who might be blocked: the
/// accept loop (via a loopback connect), blocked connection readers (via a
/// read-side shutdown of their streams — writers keep flushing), and the
/// slot condvar.
fn initiate_shutdown<H: Handler>(shared: &Shared<H>, local_addr: SocketAddr) {
    let first = !shared.shutdown.swap(true, Ordering::SeqCst);
    // Wake a (possibly) blocked `accept` with a throwaway connection, on
    // *every* call: the first attempt can fail under fd pressure (connect
    // needs a free descriptor), and the retry from a later drop()/wait()
    // is then what stands between a parked accept thread and a permanent
    // hang. Extra wakeups are harmless — the accept loop just closes them.
    // If the listener is already gone the connect simply fails.
    let _ = TcpStream::connect(local_addr);
    {
        let _guard = shared.active.lock().expect("edge active lock");
        shared.slot_freed.notify_all();
    }
    if !first {
        return;
    }
    // Cut only the *read* side: parked readers unblock (read_line returns
    // 0) and stop ingesting new requests, but each connection's writer can
    // still flush responses for everything already accepted — the
    // "answered before the listener goes away" guarantee depends on the
    // write side staying open.
    let streams = shared.conn_streams.lock().expect("conn stream lock");
    for stream in streams.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

/// Registers a clone of `stream` for shutdown to cut loose; returns the
/// slot to clear when the connection ends.
fn register_stream<H: Handler>(shared: &Shared<H>, stream: &TcpStream) -> Option<usize> {
    let clone = stream.try_clone().ok()?;
    let mut streams = shared.conn_streams.lock().expect("conn stream lock");
    match streams.iter().position(Option::is_none) {
        Some(i) => {
            streams[i] = Some(clone);
            Some(i)
        }
        None => {
            streams.push(Some(clone));
            Some(streams.len() - 1)
        }
    }
}

/// Clears a connection's stream slot and releases its admission slot.
fn release<H: Handler>(shared: &Shared<H>, stream_slot: Option<usize>) {
    if let Some(i) = stream_slot {
        shared.conn_streams.lock().expect("conn stream lock")[i] = None;
    }
    let mut active = shared.active.lock().expect("edge active lock");
    *active -= 1;
    shared.slot_freed.notify_all();
}

fn accept_loop<H: Handler>(
    shared: &Arc<Shared<H>>,
    listener: &TcpListener,
    max_connections: usize,
) {
    loop {
        // Admission control: at most `max_connections` live connections.
        {
            let mut active = shared.active.lock().expect("edge active lock");
            while *active >= max_connections && !shared.shutdown.load(Ordering::SeqCst) {
                active = shared.slot_freed.wait(active).expect("edge active lock");
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            *active += 1;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                release(shared, None);
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept errors (fd exhaustion) must not turn
                // this thread into a hot spin loop next to the workers.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wakeup connect (or a client racing the shutdown): close
            // it without serving.
            release(shared, None);
            break;
        }
        // Writers must be able to finish flushing during shutdown (the
        // sweep leaves the write side open for exactly that), so a client
        // that stops reading cannot be allowed to park a writer forever
        // and wedge teardown: bound every send.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        // Every reply ends in one flush. With Nagle on, a reply's last
        // short segment waits for the client's delayed ACK of the segments
        // before it — a fixed stall of tens of milliseconds per reply
        // longer than one segment.
        let _ = stream.set_nodelay(true);
        // A connection shutdown() cannot reach must not be served at all:
        // its reader could block in read_line forever and hang the final
        // active-count wait. Refuse it instead (try_clone only fails under
        // fd exhaustion, where shedding load is the right move anyway).
        let Some(slot) = register_stream(shared, &stream) else {
            drop(stream);
            release(shared, None);
            continue;
        };
        // Re-check *after* registering: a shutdown that raced in between
        // may have swept conn_streams before this stream was in it, and the
        // sweep runs only once — cut the straggler ourselves or its reader
        // would park forever and wedge the final active-count wait.
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            release(shared, Some(slot));
            break;
        }
        let shared_for_conn = shared.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("flow-{}-conn", H::TIER))
            .spawn(move || {
                handle_connection(&shared_for_conn, stream);
                release(&shared_for_conn, Some(slot));
            });
        if spawned.is_err() {
            release(shared, Some(slot));
        }
    }
    // No more connections will be admitted; dropping the listener (by
    // returning) closes the socket.
}

/// Shuts its stream down on drop. The writer holds one: if it dies first —
/// a write error, an injected fault, a panic — the socket must close with
/// it, or the reader's clone would keep the connection half-open with
/// nobody left to answer, and a peer blocked on a response would wait
/// forever instead of seeing EOF.
struct CloseOnExit(TcpStream);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

fn handle_connection<H: Handler>(shared: &Arc<Shared<H>>, stream: TcpStream) {
    let (Ok(read_half), Ok(write_half), Ok(guard)) =
        (stream.try_clone(), stream.try_clone(), stream.try_clone())
    else {
        return;
    };
    shared.metrics.connections.inc();
    let (tx, rx) = std::sync::mpsc::channel();
    let guard = CloseOnExit(guard);
    let shared_for_writer = shared.clone();
    let writer = std::thread::Builder::new()
        .name(format!("flow-{}-writer", H::TIER))
        .spawn(move || {
            let _guard = guard;
            writer_loop(&shared_for_writer, write_half, rx);
        });
    let Ok(writer) = writer else { return };

    let shutdown_requested = reader_loop(shared, BufReader::new(read_half), &tx);

    // Close the reply channel: the writer drains what is pending (including
    // the `bye` acknowledging a shutdown command), then exits. Only after
    // the client has its answers does a requested shutdown start tearing
    // other connections down.
    drop(tx);
    let _ = writer.join();
    if shutdown_requested {
        let addr = stream
            .local_addr()
            .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
        initiate_shutdown(shared, addr);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's reader state: the budgets in force and whether the
/// `auth` preamble has been passed.
struct ConnReader<'a, H: Handler> {
    shared: &'a Shared<H>,
    limiter: RateLimiter,
    authed: bool,
}

/// What the reader does after one command line.
enum Step<P> {
    Reply(Queued<P>),
    Shutdown,
}

/// Reads request lines until EOF, error, or `shutdown`, queueing replies in
/// order. Returns whether a shutdown was requested.
fn reader_loop<H: Handler>(
    shared: &Shared<H>,
    mut reader: BufReader<TcpStream>,
    tx: &Sender<Queued<H::Pending>>,
) -> bool {
    let max_line = shared.config.effective_max_line_bytes();
    let mut conn = ConnReader {
        shared,
        limiter: RateLimiter::new(
            shared.config.rate_limit,
            shared.config.effective_rate_burst(),
        ),
        // Connections are born authenticated when no token is configured.
        authed: shared.config.auth_token.is_none(),
    };
    let mut line = String::new();
    loop {
        let queued = match read_line_bounded(&mut reader, &mut line, max_line) {
            Err(_) | Ok(BoundedLine::Eof) => return false, // EOF or a cut connection
            Ok(BoundedLine::TooLong(n)) => {
                shared.metrics.bytes_read.add(n as u64);
                shared.metrics.oversize_lines.inc();
                conn.error(format!("request line exceeds the {max_line}-byte budget"))
            }
            Ok(BoundedLine::Line(n)) => {
                shared.metrics.bytes_read.add(n as u64);
                if line.is_empty() {
                    continue; // blank keep-alive lines are ignored
                }
                match conn.command(&line, &mut reader) {
                    Step::Reply(queued) => queued,
                    Step::Shutdown => {
                        let _ = tx.send(Queued::Line(codec::BYE_LINE.to_string()));
                        return true;
                    }
                }
            }
        };
        if tx.send(queued).is_err() {
            return false; // writer is gone (connection cut)
        }
    }
}

impl<H: Handler> ConnReader<'_, H> {
    fn error(&self, msg: String) -> Queued<H::Pending> {
        Queued::Line(codec::encode_error(self.shared.handler.epoch(), msg))
    }

    /// Serves one non-blank command line: the rate budget, the frame-read
    /// failpoint, decoding, the auth gate, then dispatch.
    fn command(&mut self, line: &str, reader: &mut BufReader<TcpStream>) -> Step<H::Pending> {
        let metrics = &self.shared.metrics;
        // The rate budget admits *command lines*, well-formed or not: a
        // client spraying garbage spends budget exactly like a legitimate
        // one. Rejected commands are answered, not dropped — and never
        // reach the handler.
        if !self.limiter.allow() {
            metrics.rate_limited.inc();
            return Step::Reply(self.error(format!(
                "rate limit exceeded ({} requests/s)",
                self.shared.config.rate_limit
            )));
        }
        let decoded_at = Instant::now();
        // The frame-read failpoint: `err` models an undecodable frame
        // (the client gets the same structured error a real decode
        // failure produces), `delay` a stalled read, `panic` a reader
        // crash — the connection drops, never the process.
        if H::FRAME_FAULTS {
            match flowistry_fault::check(fault_sites::CODEC_FRAME_READ) {
                Fault::None | Fault::PartialWrite(_) => {}
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Err => {
                    metrics.decode_errors.inc();
                    return Step::Reply(self.error(format!(
                        "malformed request: injected fault {}",
                        fault_sites::CODEC_FRAME_READ
                    )));
                }
                Fault::Panic => {
                    panic!(
                        "failpoint {}: injected panic",
                        fault_sites::CODEC_FRAME_READ
                    )
                }
            }
        }
        let command = codec::decode_command(line);
        // The auth preamble gates everything but itself: before a valid
        // token arrives, every other command — including malformed lines,
        // updates, and shutdowns — answers the same structured error.
        if !self.authed && !matches!(command, Ok(Command::Auth { .. })) {
            metrics.auth_failures.inc();
            return Step::Reply(
                self.error("authentication required: send `auth <token>` first".to_string()),
            );
        }
        let command = match command {
            Ok(command) => command,
            Err(msg) => {
                metrics.decode_errors.inc();
                return Step::Reply(self.error(format!("malformed request: {msg}")));
            }
        };
        metrics.requests.inc();
        let handler = &self.shared.handler;
        Step::Reply(match command {
            Command::Auth { token } => {
                let accepted = match &self.shared.config.auth_token {
                    // Constant-time compare: an `auth` probe learns nothing
                    // about *where* its guess diverged.
                    Some(expected) => constant_time_eq(expected.as_bytes(), token.as_bytes()),
                    // No token configured: acknowledge, so clients can send
                    // the preamble unconditionally.
                    None => true,
                };
                if accepted {
                    self.authed = true;
                    Queued::Line(codec::AUTHED_LINE.to_string())
                } else {
                    metrics.auth_failures.inc();
                    self.error("bad auth token".to_string())
                }
            }
            Command::Query {
                request,
                trace_id,
                deadline_ms,
            } => {
                let kind = request.kind_index();
                match handler.query(request, trace_id, deadline_ms, line, decoded_at) {
                    Reply::Line(line) => Queued::Line(line),
                    Reply::Pending(pending) => Queued::Pending(pending, decoded_at, kind),
                }
            }
            Command::Update { bytes, epoch } => match self.read_update_body(reader, bytes) {
                Ok(source) => Queued::Line(handler.update(source, epoch)),
                Err(msg) => self.error(msg),
            },
            Command::Shutdown => return Step::Shutdown,
        })
    }

    /// Reads the `bytes` source bytes of an `update` command plus the
    /// terminating newline. An over-budget body is drained and refused.
    fn read_update_body(
        &self,
        reader: &mut BufReader<TcpStream>,
        bytes: usize,
    ) -> Result<String, String> {
        let max_update_bytes = self.shared.config.effective_max_update_bytes();
        if bytes > max_update_bytes {
            // Drain the announced body before answering, or the rest of the
            // connection would parse megabytes of source text as command
            // lines.
            if io::copy(&mut reader.by_ref().take(bytes as u64), &mut io::sink()).is_err() {
                return Err("update source truncated".to_string());
            }
            self.shared.metrics.bytes_read.add(bytes as u64);
            let _ = consume_newline(reader);
            return Err(format!(
                "update of {bytes} bytes exceeds {max_update_bytes}"
            ));
        }
        let mut source = vec![0u8; bytes];
        if reader.read_exact(&mut source).is_err() {
            return Err("update source truncated".to_string());
        }
        self.shared.metrics.bytes_read.add(bytes as u64);
        consume_newline(reader)?;
        String::from_utf8(source).map_err(|_| "update source is not UTF-8".to_string())
    }
}

/// Consumes the newline terminating an `update` source block. The newline
/// is consumed only if it is actually there: blindly eating one byte would
/// silently desync the line framing when a client miscounts `<nbytes>`
/// (the next command's first byte would vanish).
fn consume_newline(reader: &mut BufReader<TcpStream>) -> Result<(), String> {
    match reader.fill_buf() {
        Ok(buf) if buf.first() == Some(&b'\n') => {
            reader.consume(1);
            Ok(())
        }
        Ok([]) => Ok(()), // EOF right after the body; the connection is ending
        Ok(_) => Err("update source not followed by a newline (check <nbytes>)".to_string()),
        Err(_) => Err("update source truncated".to_string()),
    }
}

/// Writes replies in request order, resolving each pending one in turn.
fn writer_loop<H: Handler>(
    shared: &Shared<H>,
    stream: TcpStream,
    rx: Receiver<Queued<H::Pending>>,
) {
    let mut out = io::BufWriter::new(stream);
    for queued in rx {
        let (line, timed) = match queued {
            Queued::Line(line) => (line, None),
            Queued::Pending(pending, decoded_at, kind) => {
                (shared.handler.resolve(pending), Some((decoded_at, kind)))
            }
        };
        // The frame-write failpoint. `partial_write` flushes a torn
        // frame and drops the connection — the client sees a line with
        // no newline, exactly what a peer crash mid-write produces;
        // `err`/`panic` drop the connection whole.
        if H::FRAME_FAULTS {
            match flowistry_fault::check(fault_sites::CODEC_FRAME_WRITE) {
                Fault::None => {}
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Err => return,
                Fault::Panic => {
                    panic!(
                        "failpoint {}: injected panic",
                        fault_sites::CODEC_FRAME_WRITE
                    )
                }
                Fault::PartialWrite(frac) => {
                    let cut = (line.len() as f64 * frac) as usize;
                    let _ = out.write_all(&line.as_bytes()[..cut]);
                    let _ = out.flush();
                    return;
                }
            }
        }
        if writeln!(out, "{line}").is_err() || out.flush().is_err() {
            return; // client went away; pending replies still resolve upstream
        }
        shared.metrics.bytes_written.add(line.len() as u64 + 1);
        if let Some((decoded_at, kind)) = timed {
            shared.metrics.latency[kind].observe(decoded_at.elapsed());
        }
    }
}
