//! Backend lifecycle for the router: how replicas are launched (child
//! `flow-server` processes or in-process servers), how the router talks to
//! them (one pipelined data connection plus one control connection each),
//! and how a dead replica is detected and respawned.

use flowistry_fault::{sites as fault_sites, Fault};
use flowistry_obs::{Counter, Gauge, Registry};
use flowistry_server::{ClientConfig, FlowClient};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long connection attempts to a backend may take before the router
/// counts them as failures.
pub(crate) const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Connect retry budget against a backend that is still binding. Kept
/// small (~15ms of backoff total): launchers return only after the
/// instance is bound, so a refused connect usually means *dead*, and the
/// caller wants that verdict fast enough to fail over.
pub(crate) const BACKEND_CONNECT_ATTEMPTS: u32 = 5;

/// A live backend instance: where it listens and what keeps it alive.
pub struct BackendHandle {
    /// The address the instance serves on.
    pub addr: SocketAddr,
    kind: HandleKind,
}

enum HandleKind {
    /// A supervised child process (killed on respawn and on drop).
    Process(Child),
    /// An in-process [`FlowServer`], for tests and single-binary fleets.
    InProcess(flowistry_server::FlowServer),
    /// An address the router does not supervise (no kill, no respawn).
    External,
}

impl BackendHandle {
    /// Wraps an address the router should route to but never supervise.
    pub fn external(addr: SocketAddr) -> BackendHandle {
        BackendHandle {
            addr,
            kind: HandleKind::External,
        }
    }

    /// The child's OS pid, when the backend is a child process.
    pub fn pid(&self) -> Option<u32> {
        match &self.kind {
            HandleKind::Process(child) => Some(child.id()),
            _ => None,
        }
    }

    /// Whether the router supervises (and may respawn) this instance.
    pub fn supervised(&self) -> bool {
        !matches!(self.kind, HandleKind::External)
    }

    /// Tears the instance down ungracefully — the chaos path and the
    /// respawn path share it.
    pub fn kill(&mut self) {
        match &mut self.kind {
            HandleKind::Process(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            HandleKind::InProcess(server) => server.shutdown(),
            HandleKind::External => {}
        }
    }
}

impl Drop for BackendHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Launches backend instances. One launcher per ring slot: respawning slot
/// `i` means calling its launcher again, so a replacement instance comes up
/// with the same configuration (source file, cache dir, auth token) as the
/// one that died.
pub trait BackendLauncher: Send + Sync {
    /// Starts one instance and returns its handle once it is listening.
    fn launch(&self) -> io::Result<BackendHandle>;
}

/// Launches `flow-server` child processes, the production deployment
/// shape. Every instance of a slot shares the `--cache-dir`, so a respawn
/// warm-starts from the summaries its predecessor (and its siblings)
/// already persisted.
pub struct ProcessLauncher {
    /// Path to the `flow-server` binary.
    pub binary: std::path::PathBuf,
    /// Path to the seed source file the server compiles at startup.
    pub source: std::path::PathBuf,
    /// Extra arguments (`--cache-dir`, `--auth-token`, budgets, ...).
    pub args: Vec<String>,
}

impl BackendLauncher for ProcessLauncher {
    fn launch(&self) -> io::Result<BackendHandle> {
        let mut child = Command::new(&self.binary)
            .arg(&self.source)
            .args(["--addr", "127.0.0.1:0"])
            .args(&self.args)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()?;
        // The server prints `flow-server listening on <addr>` once bound.
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if lines.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "flow-server exited before announcing its address",
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("flow-server listening on ") {
                match rest.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable listen line {rest:?}: {e}"),
                        ));
                    }
                }
            }
        };
        // Keep draining the child's stdout so it can never block on a full
        // pipe; the thread dies with the pipe when the child does.
        std::thread::Builder::new()
            .name("flow-backend-drain".to_string())
            .spawn(move || {
                let mut sink = String::new();
                loop {
                    sink.clear();
                    match lines.read_line(&mut sink) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                }
            })
            .expect("spawn stdout drain");
        Ok(BackendHandle {
            addr,
            kind: HandleKind::Process(child),
        })
    }
}

/// Launches in-process [`FlowServer`](flowistry_server::FlowServer)s — no child processes, so tests and
/// the eval harness can stand up a whole fleet inside one test binary.
pub struct InProcessLauncher {
    /// Seed program source each instance compiles at startup.
    pub source: String,
    /// Engine/service worker threads per instance (`0` = auto).
    pub workers: usize,
    /// Shared summary-cache directory, when warm-starting is wanted (see
    /// [`EngineConfig::with_cache_dir`](flowistry_engine::EngineConfig::with_cache_dir)).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Auth token each instance requires, matching the router's
    /// backend token.
    pub auth_token: Option<String>,
}

impl BackendLauncher for InProcessLauncher {
    fn launch(&self) -> io::Result<BackendHandle> {
        use flowistry_core::{AnalysisParams, Condition};
        use flowistry_engine::{AnalysisEngine, EngineConfig, FlowService, ServiceConfig};
        use flowistry_server::{FlowServer, ServerConfig};

        let program = flowistry_lang::compile(&self.source)
            .map_err(|d| io::Error::new(io::ErrorKind::InvalidData, d.message))?;
        let mut engine_config = EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM))
            .with_threads(self.workers)
            .with_metrics(Arc::new(Registry::new()));
        if let Some(dir) = &self.cache_dir {
            engine_config = engine_config.with_cache_dir(dir);
        }
        let engine = AnalysisEngine::new(Arc::new(program), engine_config);
        let service = FlowService::new(engine, ServiceConfig::default().with_workers(self.workers));
        let mut server_config = ServerConfig::default().with_max_connections(8);
        if let Some(token) = &self.auth_token {
            server_config = server_config.with_auth_token(token.clone());
        }
        let server = FlowServer::bind(service, "127.0.0.1:0", server_config)?;
        Ok(BackendHandle {
            addr: server.local_addr(),
            kind: HandleKind::InProcess(server),
        })
    }
}

/// The shared pipelined data connection to one backend. All client
/// connections' routed requests multiplex over it; responses come back in
/// write order, so an in-order queue of reply senders is enough to match
/// them up.
struct BackendConn {
    writer: TcpStream,
    /// Senders for responses not yet received, in request order. Shared
    /// with the reader thread, which pops the front per response line.
    inflight: Arc<Mutex<VecDeque<Sender<String>>>>,
    /// Set by the reader thread when the connection dies.
    dead: Arc<AtomicBool>,
}

impl BackendConn {
    fn open(addr: SocketAddr, auth_token: Option<&str>) -> io::Result<BackendConn> {
        // The backend-connect failpoint: an injected error here looks to
        // the router exactly like a refused/timed-out connect, which is
        // what feeds the circuit breaker. (`partial_write` has no torn
        // frame to model before a connection exists; it degrades to err.)
        match flowistry_fault::check(fault_sites::BACKEND_CONNECT) {
            Fault::None => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Err | Fault::PartialWrite(_) => {
                return Err(flowistry_fault::injected_error(
                    fault_sites::BACKEND_CONNECT,
                ))
            }
            Fault::Panic => {
                panic!("failpoint {}: injected panic", fault_sites::BACKEND_CONNECT)
            }
        }
        let config = ClientConfig::default().with_connect_timeout(BACKEND_CONNECT_TIMEOUT);
        let mut client = FlowClient::connect_retry(addr, &config, BACKEND_CONNECT_ATTEMPTS)?;
        if let Some(token) = auth_token {
            client.auth(token)?;
        }
        // A backend sends nothing after `authed` until it gets a request,
        // so the client's read buffer is empty and the raw stream loses
        // nothing.
        let stream = client.into_stream()?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let inflight: Arc<Mutex<VecDeque<Sender<String>>>> = Arc::new(Mutex::new(VecDeque::new()));
        let dead = Arc::new(AtomicBool::new(false));
        {
            let inflight = inflight.clone();
            let dead = dead.clone();
            std::thread::Builder::new()
                .name("flow-backend-read".to_string())
                .spawn(move || {
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            // A line with no trailing newline is the torn
                            // tail of a frame cut off by the backend dying
                            // mid-write: drop it and let failover re-serve
                            // the request rather than forward garbage.
                            Ok(_) if !line.ends_with('\n') => break,
                            Ok(_) => {}
                        }
                        let trimmed = line.trim_end_matches(['\r', '\n']).to_string();
                        let sender = inflight.lock().expect("inflight lock").pop_front();
                        match sender {
                            Some(tx) => {
                                let _ = tx.send(trimmed);
                            }
                            None => break, // response with no request: protocol torn
                        }
                    }
                    dead.store(true, Ordering::SeqCst);
                    // Drop every waiting sender: receivers see a closed
                    // channel and count their request as lost.
                    inflight.lock().expect("inflight lock").clear();
                })
                .expect("spawn backend reader");
        }
        Ok(BackendConn {
            writer,
            inflight,
            dead,
        })
    }

    /// Writes one request line, returning the receiver its response will
    /// arrive on. The enqueue and the write happen under the caller's
    /// exclusive borrow, so the inflight order always matches the write
    /// order.
    fn send(&mut self, line: &str) -> io::Result<Receiver<String>> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "backend connection lost",
            ));
        }
        // The backend-send failpoint. `err` fails the send before the
        // request is enqueued (the caller fails over to the next ring
        // successor); `partial_write` writes a torn frame and kills the
        // connection — leaving it alive would desync every response
        // behind the tear.
        match flowistry_fault::check(fault_sites::BACKEND_SEND) {
            Fault::None => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Err => return Err(flowistry_fault::injected_error(fault_sites::BACKEND_SEND)),
            Fault::PartialWrite(frac) => {
                let cut = (line.len() as f64 * frac) as usize;
                let _ = self.writer.write_all(&line.as_bytes()[..cut]);
                let _ = self.writer.flush();
                self.dead.store(true, Ordering::SeqCst);
                self.inflight.lock().expect("inflight lock").clear();
                return Err(flowistry_fault::injected_error(fault_sites::BACKEND_SEND));
            }
            Fault::Panic => {
                panic!("failpoint {}: injected panic", fault_sites::BACKEND_SEND)
            }
        }
        let (tx, rx) = channel();
        self.inflight.lock().expect("inflight lock").push_back(tx);
        if writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .is_err()
        {
            self.dead.store(true, Ordering::SeqCst);
            self.inflight.lock().expect("inflight lock").clear();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "backend write failed",
            ));
        }
        Ok(rx)
    }
}

/// Per-backend observability, labeled by ring slot.
pub(crate) struct BackendMetrics {
    pub(crate) requests: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) respawns: Arc<Counter>,
    pub(crate) healthy: Arc<Gauge>,
    pub(crate) breaker_state: Arc<Gauge>,
}

impl BackendMetrics {
    fn new(registry: &Registry, index: usize) -> BackendMetrics {
        let label = [("backend", index.to_string())];
        let labels: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        BackendMetrics {
            requests: registry.counter(
                &flowistry_obs::labeled("flow_router_backend_requests_total", &labels),
                "Requests routed to this backend",
            ),
            errors: registry.counter(
                &flowistry_obs::labeled("flow_router_backend_errors_total", &labels),
                "Requests that failed against this backend",
            ),
            retries: registry.counter(
                &flowistry_obs::labeled("flow_router_backend_retries_total", &labels),
                "Requests retried away from this backend after a loss",
            ),
            respawns: registry.counter(
                &flowistry_obs::labeled("flow_router_backend_respawns_total", &labels),
                "Times the supervisor respawned this backend",
            ),
            healthy: registry.gauge(
                &flowistry_obs::labeled("flow_router_backend_healthy", &labels),
                "1 when this backend serves traffic, 0 while it is down",
            ),
            breaker_state: registry.gauge(
                &flowistry_obs::labeled("flow_breaker_state", &labels),
                "Circuit breaker state: 0 closed, 1 open, 2 half-open",
            ),
        }
    }
}

/// Circuit-breaker states, stored in [`Backend::breaker`] (and exported
/// verbatim as the `flow_breaker_state` gauge).
pub(crate) const BREAKER_CLOSED: u8 = 0;
pub(crate) const BREAKER_OPEN: u8 = 1;
pub(crate) const BREAKER_HALF_OPEN: u8 = 2;

/// Consecutive send failures before a backend's circuit opens.
const BREAKER_THRESHOLD: u32 = 5;
/// How long an open circuit waits before letting one half-open probe
/// request through.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// One ring slot of the fleet: the launcher that makes instances, the
/// current instance, its connections, and its health state.
pub(crate) struct Backend {
    pub(crate) index: usize,
    launcher: Box<dyn BackendLauncher>,
    /// The live instance (`None` between a detected death and the respawn).
    pub(crate) handle: Mutex<Option<BackendHandle>>,
    /// The shared pipelined data connection, opened lazily.
    conn: Mutex<Option<BackendConn>>,
    /// The control connection: health probes, updates, replay, shutdown.
    pub(crate) control: Mutex<Option<FlowClient>>,
    pub(crate) healthy: AtomicBool,
    /// Circuit-breaker state ([`BREAKER_CLOSED`]/[`BREAKER_OPEN`]/
    /// [`BREAKER_HALF_OPEN`]): the data-path complement to health probes.
    /// Probes take `failure_threshold * health_interval` to notice a dead
    /// backend; the breaker trips on consecutive *send* failures, so
    /// routed traffic stops hammering a struggling replica within
    /// milliseconds instead.
    breaker: AtomicU8,
    /// Consecutive failed sends (reset by any success).
    send_failures: AtomicU32,
    /// When the breaker last opened (None = never).
    breaker_opened_at: Mutex<Option<Instant>>,
    /// Consecutive failed health probes.
    pub(crate) probe_failures: AtomicU32,
    /// Epoch of the last update this backend applied (0 = seed program).
    pub(crate) synced_epoch: AtomicU64,
    pub(crate) auth_token: Option<String>,
    pub(crate) metrics: BackendMetrics,
}

impl Backend {
    pub(crate) fn launch(
        index: usize,
        launcher: Box<dyn BackendLauncher>,
        auth_token: Option<String>,
        registry: &Registry,
    ) -> io::Result<Backend> {
        let handle = launcher.launch()?;
        let metrics = BackendMetrics::new(registry, index);
        metrics.healthy.set(1);
        Ok(Backend {
            index,
            launcher,
            handle: Mutex::new(Some(handle)),
            conn: Mutex::new(None),
            control: Mutex::new(None),
            healthy: AtomicBool::new(true),
            breaker: AtomicU8::new(BREAKER_CLOSED),
            send_failures: AtomicU32::new(0),
            breaker_opened_at: Mutex::new(None),
            probe_failures: AtomicU32::new(0),
            synced_epoch: AtomicU64::new(0),
            auth_token,
            metrics,
        })
    }

    pub(crate) fn addr(&self) -> Option<SocketAddr> {
        self.handle
            .lock()
            .expect("handle lock")
            .as_ref()
            .map(|h| h.addr)
    }

    pub(crate) fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    pub(crate) fn set_healthy(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::SeqCst);
        self.metrics.healthy.set(i64::from(healthy));
    }

    /// Whether the circuit breaker lets a send through. Closed: always.
    /// Open: only once [`BREAKER_COOLDOWN`] has elapsed, and then exactly
    /// one caller wins the transition to half-open and carries the probe
    /// request — everyone else keeps failing fast until that probe settles
    /// via [`Backend::record_send_success`] or
    /// [`Backend::record_send_failure`].
    pub(crate) fn breaker_allows(&self) -> bool {
        match self.breaker.load(Ordering::SeqCst) {
            BREAKER_CLOSED => true,
            BREAKER_OPEN => {
                let cooled = self
                    .breaker_opened_at
                    .lock()
                    .expect("breaker lock")
                    .is_none_or(|t| t.elapsed() >= BREAKER_COOLDOWN);
                cooled
                    && self
                        .breaker
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    && {
                        self.metrics.breaker_state.set(i64::from(BREAKER_HALF_OPEN));
                        true
                    }
            }
            _ => false, // half-open: the probe is already in flight
        }
    }

    /// A send (or its response) succeeded: close the breaker.
    pub(crate) fn record_send_success(&self) {
        self.send_failures.store(0, Ordering::SeqCst);
        if self.breaker.swap(BREAKER_CLOSED, Ordering::SeqCst) != BREAKER_CLOSED {
            self.metrics.breaker_state.set(i64::from(BREAKER_CLOSED));
        }
    }

    /// A send failed (or its response was lost): after
    /// [`BREAKER_THRESHOLD`] consecutive failures — or immediately, if this
    /// was the half-open probe — the breaker opens.
    pub(crate) fn record_send_failure(&self) {
        let failures = self.send_failures.fetch_add(1, Ordering::SeqCst) + 1;
        let state = self.breaker.load(Ordering::SeqCst);
        if state == BREAKER_HALF_OPEN || (state == BREAKER_CLOSED && failures >= BREAKER_THRESHOLD)
        {
            *self.breaker_opened_at.lock().expect("breaker lock") = Some(Instant::now());
            self.breaker.store(BREAKER_OPEN, Ordering::SeqCst);
            self.metrics.breaker_state.set(i64::from(BREAKER_OPEN));
        }
    }

    /// Current breaker state (one of the `BREAKER_*` constants).
    pub(crate) fn breaker_state(&self) -> u8 {
        self.breaker.load(Ordering::SeqCst)
    }

    /// Sends one routed request line over the shared data connection,
    /// opening (and authenticating) it first when needed.
    pub(crate) fn send(&self, line: &str) -> io::Result<Receiver<String>> {
        let mut conn = self.conn.lock().expect("backend conn lock");
        if conn.as_ref().is_none_or(|c| c.dead.load(Ordering::SeqCst)) {
            let addr = self
                .addr()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "backend is down"))?;
            *conn = Some(BackendConn::open(addr, self.auth_token.as_deref())?);
        }
        let result = conn.as_mut().expect("conn just opened").send(line);
        if result.is_ok() {
            self.metrics.requests.inc();
        } else {
            self.metrics.errors.inc();
        }
        result
    }

    /// Drops the data connection (the respawn path: the old instance's
    /// socket must not leak onto the new instance).
    pub(crate) fn reset_conns(&self) {
        *self.conn.lock().expect("backend conn lock") = None;
        *self.control.lock().expect("backend control lock") = None;
    }

    /// Opens (or reuses) the control connection with `read_timeout`.
    pub(crate) fn control_client(
        &self,
        read_timeout: Option<Duration>,
    ) -> io::Result<std::sync::MutexGuard<'_, Option<FlowClient>>> {
        let mut control = self.control.lock().expect("backend control lock");
        if control.is_none() {
            let addr = self
                .addr()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "backend is down"))?;
            let config = ClientConfig::default().with_connect_timeout(BACKEND_CONNECT_TIMEOUT);
            let mut client = FlowClient::connect_retry(addr, &config, BACKEND_CONNECT_ATTEMPTS)?;
            if let Some(token) = &self.auth_token {
                client.auth(token)?;
            }
            *control = Some(client);
        }
        control
            .as_ref()
            .expect("control just opened")
            .set_read_timeout(read_timeout)?;
        Ok(control)
    }

    /// Kills the current instance and launches a replacement. The caller
    /// (the supervisor) replays update history afterwards, before marking
    /// the backend healthy again.
    pub(crate) fn respawn(&self) -> io::Result<SocketAddr> {
        {
            let mut handle = self.handle.lock().expect("handle lock");
            if let Some(h) = handle.as_mut() {
                h.kill();
            }
            *handle = None;
        }
        self.reset_conns();
        let new_handle = self.launcher.launch()?;
        let addr = new_handle.addr;
        *self.handle.lock().expect("handle lock") = Some(new_handle);
        self.synced_epoch.store(0, Ordering::SeqCst);
        // A fresh instance earns a fresh breaker.
        self.record_send_success();
        self.metrics.respawns.inc();
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_connections_authenticate_through_the_client_handshake() {
        let launcher = InProcessLauncher {
            source: "fn f(x: i32) -> i32 { return x; }".to_string(),
            workers: 1,
            cache_dir: None,
            auth_token: Some("right".to_string()),
        };
        let backend = launcher.launch().expect("launch backend");
        let refused = BackendConn::open(backend.addr, Some("wrong"))
            .err()
            .expect("wrong token accepted");
        assert_eq!(refused.kind(), io::ErrorKind::PermissionDenied);
        // After `authed`, the raw stream carries the first reply intact.
        let mut conn = BackendConn::open(backend.addr, Some("right")).expect("right token");
        let reply = conn.send("stats").expect("send").recv().expect("reply");
        assert!(reply.starts_with("stats 0 "), "{reply}");
    }
}
