//! [`FlowRouter`]: the fleet front. Accepts client connections speaking
//! the ordinary `flow-server` wire protocol, consistent-hashes each query
//! to a backend replica, fans `update` out to every replica with a quorum
//! ack, health-checks the fleet, and respawns replicas that die.
//!
//! ## Ordering
//!
//! A client sees responses in request order, exactly as against a single
//! server, even though consecutive requests may hit different backends:
//! the shared connection [`Edge`] queues each routed request's response
//! receiver *in order*, and the connection's writer drains those receivers
//! in the same order. Backend-side order holds because each backend's
//! pooled connection enqueues the reply slot and writes the request under
//! one lock.
//!
//! ## Failure
//!
//! A request whose backend dies mid-flight is retried on the key's ring
//! successors (three attempts in all); only when every candidate fails
//! does the client see a structured `error` envelope. The supervisor
//! probes each backend's control connection with `stats`; after
//! [`RouterConfig::failure_threshold`] consecutive misses the instance is
//! killed, relaunched (warm-starting from the shared summary-cache dir),
//! re-authenticated, caught up by replaying the full update history, and
//! only then marked healthy for routing again.

use crate::backend::{Backend, BackendLauncher};
use crate::ring::HashRing;
use flowistry_engine::{QueryEnvelope, QueryRequest, QueryResponse};
use flowistry_obs::{Counter, Gauge, Registry};
use flowistry_server::codec;
use flowistry_server::edge::{Edge, Handler, Reply};
use flowistry_server::ServerConfig;
use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Health-probe read timeout.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// Attempts per routed request across ring successors.
const RETRY_ATTEMPTS: u32 = 3;

/// Fleet-front configuration. The router applies the same budgets as a
/// `flow-server` (auth, connection cap, rate, line and update size) at the
/// shared connection edge, so hostile traffic is rejected before it
/// touches a backend; `edge` holds them.
#[derive(Clone, Debug, Default)]
pub struct RouterConfig {
    /// Virtual nodes per backend on the hash ring (`0` = default).
    pub vnodes: usize,
    /// The client-facing edge's budgets, with the defaults
    /// [`ServerConfig`] documents.
    pub edge: ServerConfig,
    /// Token the router presents to backends (`None` = backends are open).
    pub backend_auth_token: Option<String>,
    /// Health-probe period (`None` = 250ms).
    pub health_interval: Option<Duration>,
    /// Consecutive probe failures before a respawn (`0` = 3).
    pub failure_threshold: u32,
    /// Metrics registry (`None` = a private one; see
    /// [`FlowRouter::metrics_registry`]).
    pub registry: Option<Arc<Registry>>,
}

impl RouterConfig {
    /// Sets the client-facing auth token.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.edge = self.edge.with_auth_token(token);
        self
    }

    /// Sets the token presented to backends.
    pub fn with_backend_auth_token(mut self, token: impl Into<String>) -> Self {
        self.backend_auth_token = Some(token.into());
        self
    }

    /// Sets the per-connection rate budget.
    pub fn with_rate_limit(mut self, per_sec: f64, burst: u32) -> Self {
        self.edge = self.edge.with_rate_limit(per_sec, burst);
        self
    }

    /// Sets the request-line size budget.
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.edge = self.edge.with_max_line_bytes(bytes);
        self
    }

    /// Sets the live client connection cap.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.edge = self.edge.with_max_connections(max);
        self
    }

    /// Sets the health-probe period.
    pub fn with_health_interval(mut self, interval: Duration) -> Self {
        self.health_interval = Some(interval);
        self
    }

    /// Sets the consecutive-failure threshold for respawn.
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold;
        self
    }

    /// Sets the metrics registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn effective_health_interval(&self) -> Duration {
        self.health_interval.unwrap_or(Duration::from_millis(250))
    }

    fn effective_failure_threshold(&self) -> u32 {
        if self.failure_threshold == 0 {
            3
        } else {
            self.failure_threshold
        }
    }
}

/// Fleet-front counters beyond the edge's own (which the shared
/// connection edge registers under the same `flow_router_` prefix).
struct RouterMetrics {
    updates: Arc<Counter>,
    update_quorum_failures: Arc<Counter>,
    lost_requests: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    history_bytes: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &Registry) -> RouterMetrics {
        RouterMetrics {
            updates: registry.counter(
                "flow_router_updates_total",
                "Update broadcasts that reached quorum",
            ),
            update_quorum_failures: registry.counter(
                "flow_router_update_quorum_failures_total",
                "Update broadcasts that missed quorum",
            ),
            lost_requests: registry.counter(
                "flow_router_lost_requests_total",
                "Requests answered with a synthesized error after every retry failed",
            ),
            deadline_exceeded: registry.counter(
                "flow_deadline_exceeded_total",
                "Requests answered `error deadline exceeded` because their budget \
                 ran out at the router (waiting on a backend or between retries)",
            ),
            history_bytes: registry.gauge(
                "flow_router_history_bytes",
                "Bytes of update state retained for backend catch-up (the \
                 compacted latest program source, not the full history)",
            ),
        }
    }
}

struct RouterShared {
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
    config: RouterConfig,
    registry: Arc<Registry>,
    metrics: RouterMetrics,
    /// Epoch of the newest broadcast update (what locally generated
    /// envelopes are stamped with).
    epoch: AtomicU64,
    /// The *compacted* update history: the latest program source only.
    /// Updates carry complete program source (not diffs), so one pinned
    /// `update ... epoch=<fleet epoch>` brings any backend — respawned or
    /// straggling — fully up to date; retaining every version ever
    /// broadcast was O(updates × source) memory for no extra information.
    /// The lock doubles as the broadcast serialization point.
    latest_update: Mutex<Option<Arc<String>>>,
    /// Round-robin counter spreading non-function-scoped requests.
    round_robin: AtomicU64,
}

impl RouterShared {
    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn error_envelope(&self, msg: String) -> String {
        codec::encode_error(self.current_epoch(), msg)
    }

    /// The routing key of a query: function-scoped requests pin to their
    /// function (cache locality — the same backend keeps answering for the
    /// same function); whole-program and introspection requests spread
    /// round-robin.
    fn routing_key(&self, request: &QueryRequest) -> String {
        match request {
            QueryRequest::Summary(f) | QueryRequest::Results(f) | QueryRequest::Lint(f) => {
                format!("func:{}", f.0)
            }
            QueryRequest::BackwardSlice { func, .. }
            | QueryRequest::BackwardSliceAt { func, .. } => format!("func:{}", func.0),
            _ => format!("rr:{}", self.round_robin.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Sends `line` to the first candidate that takes it: healthy chain
    /// members with a closed (or probing) breaker from `start` first, then
    /// (all unhealthy — a fleet-wide brown-out) anyone whose breaker
    /// allows it. Returns the chosen backend index and the reply receiver.
    fn send_via_chain(
        &self,
        chain: &[usize],
        start: usize,
        line: &str,
    ) -> Option<(usize, Receiver<String>)> {
        for only_healthy in [true, false] {
            for offset in 0..chain.len() {
                let index = chain[(start + offset) % chain.len()];
                let backend = &self.backends[index];
                if only_healthy && !backend.is_healthy() {
                    continue;
                }
                if !backend.breaker_allows() {
                    continue;
                }
                match backend.send(line) {
                    Ok(rx) => return Some((index, rx)),
                    Err(_) => backend.record_send_failure(),
                }
            }
        }
        None
    }

    /// Broadcasts one update to every backend and records it as the new
    /// compacted history. Returns the ack line for the requesting client.
    fn broadcast_update(&self, source: String) -> String {
        // One broadcast at a time: the latest-update lock doubles as the
        // serialization point, so every backend applies the same sources
        // in the same order and epochs agree fleet-wide.
        let mut latest = self.latest_update.lock().expect("update history lock");
        let expected_epoch = self.epoch.load(Ordering::SeqCst) + 1;
        let source = Arc::new(source);
        // Pin the broadcast to the fleet epoch: a backend that missed
        // earlier updates (or was respawned mid-broadcast) fast-forwards
        // its counter instead of landing on a stale epoch — the source is
        // the complete program, so the fast-forward loses nothing.
        let results: Vec<io::Result<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .backends
                .iter()
                .map(|backend| {
                    let source = source.clone();
                    s.spawn(move || apply_update(backend, &source, Some(expected_epoch)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("update thread"))
                .collect()
        });
        let results: Vec<io::Result<u64>> = results
            .into_iter()
            .map(|r| match r {
                Ok(epoch) if epoch != expected_epoch => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("backend applied update as epoch {epoch}, not {expected_epoch}"),
                )),
                other => other,
            })
            .collect();
        let applied = results.iter().filter(|r| r.is_ok()).count();
        if applied == 0 {
            // Nothing changed anywhere (typically a compile error, which
            // every replica rejects identically): report the first error.
            self.metrics.update_quorum_failures.inc();
            let msg = results
                .iter()
                .find_map(|r| r.as_ref().err().map(|e| e.to_string()))
                .unwrap_or_else(|| "no backends".to_string());
            return self.error_envelope(format!("update failed on all backends: {msg}"));
        }
        // At least one replica now serves the new epoch, so the update is
        // real: compact the history to it (respawns and stragglers catch
        // up from this one source) and advance the fleet epoch.
        self.metrics.history_bytes.set(source.len() as i64);
        *latest = Some(source);
        self.epoch.store(expected_epoch, Ordering::SeqCst);
        for (backend, result) in self.backends.iter().zip(&results) {
            match result {
                Ok(epoch) => {
                    backend.synced_epoch.store(*epoch, Ordering::SeqCst);
                    // The pinned update carried the complete program, so
                    // even a straggler that missed earlier broadcasts is
                    // fully caught up now.
                    backend.set_healthy(true);
                }
                Err(_) => {
                    // Missed the update: stop routing to it until the
                    // supervisor respawns and replays it back into sync.
                    backend.metrics.errors.inc();
                    backend.set_healthy(false);
                    backend.reset_conns();
                }
            }
        }
        let quorum = self.backends.len() / 2 + 1;
        if applied >= quorum {
            self.metrics.updates.inc();
            codec::encode_update_ack(expected_epoch)
        } else {
            self.metrics.update_quorum_failures.inc();
            self.error_envelope(format!(
                "update applied on {applied}/{} backends (quorum {quorum}); \
                 epoch {expected_epoch} will converge as replicas respawn",
                self.backends.len()
            ))
        }
    }
}

/// Applies one update through a backend's control connection, returning
/// the epoch the backend reports. `target_epoch` pins the update to a
/// fleet epoch (the backend fast-forwards its counter to match).
fn apply_update(backend: &Backend, source: &str, target_epoch: Option<u64>) -> io::Result<u64> {
    // Updates recompile and re-analyze server-side: give them a generous
    // budget, not the probe timeout.
    let mut control = backend.control_client(Some(Duration::from_secs(120)))?;
    let client = control.as_mut().expect("control open");
    match client.update_at(source, target_epoch) {
        Ok(epoch) => Ok(epoch),
        Err(e) => {
            // The control connection may be desynced after a failed
            // update; drop it so the next use reconnects cleanly.
            *control = None;
            Err(e)
        }
    }
}

/// A routed request in flight: the receiver its response arrives on, plus
/// everything needed to retry it if the backend dies mid-flight.
struct Routed {
    rx: Receiver<String>,
    /// The verbatim request line, for retries.
    line: String,
    /// Fallback order across backends (ring chain of the routing key).
    chain: Vec<usize>,
    /// Position in `chain` the current attempt used.
    position: usize,
    /// Attempts used so far (first send counts as one).
    attempts: u32,
    /// When the client's `deadline=` budget runs out (None = no deadline).
    /// Bounds both the wait on a backend and the failover retries: once
    /// spent, the client gets `error deadline exceeded` instead of a late
    /// answer it no longer wants.
    deadline: Option<Instant>,
}

/// The router's side of the edge: queries are routed to backends, updates
/// broadcast to all of them.
impl Handler for RouterShared {
    type Pending = Routed;
    const TIER: &'static str = "router";
    const LATENCY_SERIES: &'static str = "flow_router_route_seconds";
    // The router runs in one process with its in-process replicas in the
    // chaos gauntlet, sharing one failpoint registry: torn frames at the
    // front would count as violations that are not bugs.
    const FRAME_FAULTS: bool = false;
    // `metrics` is answered from the router's own registry.
    const BYTE_COUNTERS: bool = false;

    fn epoch(&self) -> u64 {
        self.current_epoch()
    }

    fn query(
        &self,
        request: QueryRequest,
        trace_id: Option<String>,
        deadline_ms: Option<u64>,
        line: &str,
        decoded_at: Instant,
    ) -> Reply<Routed> {
        if matches!(request, QueryRequest::Metrics) {
            // The router answers `metrics` itself: its registry carries the
            // fleet's routing/health series. Backend engine metrics are
            // scraped per backend.
            return Reply::Line(codec::encode_envelope(&QueryEnvelope {
                epoch: self.current_epoch(),
                response: QueryResponse::Metrics(self.registry.render_prometheus()),
                trace_id,
            }));
        }
        let key = self.routing_key(&request);
        let chain: Vec<usize> = self.ring.route_chain(&key).collect();
        match self.send_via_chain(&chain, 0, line) {
            Some((index, rx)) => {
                let position = chain.iter().position(|&i| i == index).unwrap_or(0);
                Reply::Pending(Routed {
                    rx,
                    line: line.to_string(),
                    chain,
                    position,
                    attempts: 1,
                    // The raw line (deadline attr included) is what gets
                    // forwarded, so the backend sees the same budget and
                    // sheds on its own.
                    deadline: deadline_ms.map(|ms| decoded_at + Duration::from_millis(ms)),
                })
            }
            None => {
                self.metrics.lost_requests.inc();
                Reply::Line(self.error_envelope("router: no backend available".to_string()))
            }
        }
    }

    /// A client-supplied `epoch=` pin is ignored at the front: the router
    /// owns the fleet's epoch numbering.
    fn update(&self, source: String, _epoch: Option<u64>) -> String {
        self.broadcast_update(source)
    }

    /// Waits for a routed response. A request whose backend died
    /// mid-flight is retried here, synchronously — this response is the
    /// next one due on the wire anyway, so blocking on the retry preserves
    /// order for free. A request carrying a `deadline=` budget waits no
    /// longer than that budget, on backends and retries combined.
    fn resolve(&self, routed: Routed) -> String {
        let Routed {
            mut rx,
            line,
            chain,
            mut position,
            mut attempts,
            deadline,
        } = routed;
        loop {
            let current = &self.backends[chain[position % chain.len()]];
            let received = match deadline {
                None => rx.recv().map_err(|_| false),
                Some(d) => {
                    let budget = d.saturating_duration_since(Instant::now());
                    rx.recv_timeout(budget)
                        .map_err(|e| matches!(e, std::sync::mpsc::RecvTimeoutError::Timeout))
                }
            };
            match received {
                Ok(response) => {
                    current.record_send_success();
                    return response;
                }
                Err(true) => {
                    // The budget ran out while a backend still held the
                    // request. Answer now — a late response on the pooled
                    // connection is discarded by its (dropped) receiver.
                    self.metrics.deadline_exceeded.inc();
                    return self.error_envelope("deadline exceeded".to_string());
                }
                Err(false) => {
                    // The backend died with this request in flight. Rotate
                    // to the key's next ring successor and try again —
                    // unless the deadline budget is already spent.
                    current.metrics.retries.inc();
                    current.record_send_failure();
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.metrics.deadline_exceeded.inc();
                        return self.error_envelope("deadline exceeded".to_string());
                    }
                    if attempts >= RETRY_ATTEMPTS {
                        self.metrics.lost_requests.inc();
                        return self.error_envelope(format!(
                            "router: request lost after {attempts} attempts"
                        ));
                    }
                    attempts += 1;
                    match self.send_via_chain(&chain, position + 1, &line) {
                        Some((index, new_rx)) => {
                            position = chain.iter().position(|&i| i == index).unwrap_or(position);
                            rx = new_rx;
                        }
                        None => {
                            self.metrics.lost_requests.inc();
                            return self.error_envelope("router: no backend available".to_string());
                        }
                    }
                }
            }
        }
    }
}

/// The running fleet front: see the [module docs](self).
pub struct FlowRouter {
    edge: Edge<RouterShared>,
    health_handle: Option<JoinHandle<()>>,
}

impl FlowRouter {
    /// Launches one backend per launcher, binds `addr`, and starts
    /// routing. Fails if any backend fails to launch.
    pub fn start(
        launchers: Vec<Box<dyn BackendLauncher>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> io::Result<FlowRouter> {
        if launchers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one backend",
            ));
        }
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let mut backends = Vec::with_capacity(launchers.len());
        for (index, launcher) in launchers.into_iter().enumerate() {
            backends.push(Arc::new(Backend::launch(
                index,
                launcher,
                config.backend_auth_token.clone(),
                &registry,
            )?));
        }
        let ring = HashRing::new(backends.len(), config.vnodes);
        let metrics = RouterMetrics::new(&registry);
        let shared = Arc::new(RouterShared {
            backends,
            ring,
            config,
            registry: registry.clone(),
            metrics,
            epoch: AtomicU64::new(0),
            latest_update: Mutex::new(None),
            round_robin: AtomicU64::new(0),
        });
        let edge = Edge::bind(shared.clone(), addr, shared.config.edge.clone(), &registry)?;
        let health_handle = {
            let stop = edge.shutdown_flag();
            std::thread::Builder::new()
                .name("flow-router-health".to_string())
                .spawn(move || health_loop(&shared, &stop))
                .expect("spawn router health loop")
        };
        Ok(FlowRouter {
            edge,
            health_handle: Some(health_handle),
        })
    }

    /// The address the router listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The registry holding every router metric (what the wire `metrics`
    /// command renders).
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.edge.handler().registry
    }

    /// Number of backends in the fleet.
    pub fn backend_count(&self) -> usize {
        self.edge.handler().backends.len()
    }

    /// The current address of backend `index` (`None` while it is down).
    pub fn backend_addr(&self, index: usize) -> Option<SocketAddr> {
        self.edge
            .handler()
            .backends
            .get(index)
            .and_then(|b| b.addr())
    }

    /// Whether backend `index` currently serves traffic.
    pub fn backend_healthy(&self, index: usize) -> bool {
        self.edge
            .handler()
            .backends
            .get(index)
            .is_some_and(|b| b.is_healthy())
    }

    /// Backend `index`'s circuit-breaker state: 0 closed, 1 open, 2
    /// half-open (mirrors the `flow_breaker_state` gauge).
    pub fn backend_breaker_state(&self, index: usize) -> u8 {
        self.edge
            .handler()
            .backends
            .get(index)
            .map_or(0, |b| b.breaker_state())
    }

    /// The chaos hook: kills backend `index`'s instance out from under the
    /// fleet, exactly as a crash would. The supervisor is left to notice
    /// and respawn it.
    pub fn kill_backend(&self, index: usize) {
        if let Some(backend) = self.edge.handler().backends.get(index) {
            if let Some(handle) = backend.handle.lock().expect("handle lock").as_mut() {
                handle.kill();
            }
        }
    }

    /// Whether a shutdown has been initiated (wire `shutdown` or
    /// [`FlowRouter::shutdown`]).
    pub fn is_shutdown(&self) -> bool {
        self.edge.is_shutdown()
    }

    /// Initiates a graceful shutdown: stop accepting, cut client readers
    /// loose (their writers still flush), stop the supervisor, tear the
    /// backends down.
    pub fn shutdown(&self) {
        self.edge.shutdown();
    }

    /// Blocks until the router has shut down.
    pub fn wait(mut self) {
        self.edge.wait();
    }
}

impl Drop for FlowRouter {
    fn drop(&mut self) {
        self.shutdown();
        self.edge.wait();
        if let Some(handle) = self.health_handle.take() {
            let _ = handle.join();
        }
        // Dropping the edge then waits for every client connection; the
        // backends (and their child processes / in-process servers) die
        // with the shared state when the last Arc drops.
    }
}

/// The supervisor: probes every backend's control connection with `stats`,
/// and after enough consecutive misses kills + relaunches the instance,
/// replays the update history into it, and returns it to the ring.
fn health_loop(shared: &RouterShared, stop: &AtomicBool) {
    let interval = shared.config.effective_health_interval();
    let threshold = shared.config.effective_failure_threshold();
    while !stop.load(Ordering::SeqCst) {
        // Sleep in short slices: a long probe interval must not hold the
        // router's shutdown hostage (Drop joins this thread).
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25).min(interval));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        for backend in &shared.backends {
            let probe_ok = {
                // `try_lock`, not `lock`: a control connection busy with a
                // long update is evidence of life, not death — and probing
                // behind it would stall the whole sweep.
                match backend.control.try_lock() {
                    Err(_) => continue,
                    Ok(guard) => {
                        drop(guard);
                        probe(backend, PROBE_TIMEOUT)
                    }
                }
            };
            if probe_ok {
                backend.probe_failures.store(0, Ordering::SeqCst);
                // A live replica can still be unroutable: its catch-up
                // replay failed after a respawn or a missed broadcast.
                // Re-sync it here — a healthy probe resets the failure
                // counter, so the respawn path below would never fire for
                // it and it would stay stranded forever otherwise.
                if !backend.is_healthy() {
                    match replay_latest(shared, backend) {
                        Ok(()) => backend.set_healthy(true),
                        Err(e) => flowistry_obs::warn!(
                            "backend {} catch-up replay failed: {e}; will retry",
                            backend.index
                        ),
                    }
                }
                continue;
            }
            let failures = backend.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
            if failures < threshold {
                continue;
            }
            let supervised = backend
                .handle
                .lock()
                .expect("handle lock")
                .as_ref()
                .is_none_or(|h| h.supervised());
            backend.set_healthy(false);
            backend.reset_conns();
            if !supervised {
                continue; // external backends are somebody else's problem
            }
            match respawn_and_replay(shared, backend) {
                Ok(addr) => {
                    backend.probe_failures.store(0, Ordering::SeqCst);
                    backend.set_healthy(true);
                    // Scraped by fleet scripts, like the server's own
                    // listen line: keep on stdout.
                    println!("flow-router respawned backend {} at {addr}", backend.index);
                    let _ = io::stdout().flush();
                }
                Err(e) => {
                    flowistry_obs::warn!(
                        "backend {} respawn failed: {e}; will retry",
                        backend.index
                    );
                }
            }
        }
    }
}

/// One health probe: a `stats` round-trip on the control connection.
fn probe(backend: &Backend, timeout: Duration) -> bool {
    let result = (|| -> io::Result<()> {
        let mut control = backend.control_client(Some(timeout))?;
        let client = control.as_mut().expect("control open");
        match client.stats() {
            Ok(_) => Ok(()),
            Err(e) => {
                // A failed probe leaves the connection desynced; reconnect
                // next time.
                *control = None;
                Err(e)
            }
        }
    })();
    result.is_ok()
}

/// Kills, relaunches, re-authenticates, and catches the backend up with
/// one update: the compacted latest program source, pinned to the fleet
/// epoch (the backend fast-forwards to it). Replaying every historical
/// version would produce the same final state at N× the recompile cost
/// and O(history) router memory.
fn respawn_and_replay(shared: &RouterShared, backend: &Backend) -> io::Result<SocketAddr> {
    let addr = backend.respawn()?;
    replay_latest(shared, backend)?;
    Ok(addr)
}

/// Catches a live backend up with one update: the compacted latest
/// program source, pinned to the fleet epoch (the backend fast-forwards
/// to it). Also the recovery path for a replica whose earlier replay
/// failed — the replay can fail independently of replica health, so the
/// health sweep retries it on otherwise-healthy but unrouted backends.
fn replay_latest(shared: &RouterShared, backend: &Backend) -> io::Result<()> {
    // Snapshot the compacted history; a concurrent broadcast supersedes
    // it behind us and marks this backend unhealthy again if it misses
    // that update — the next sweep catches it up again.
    let snapshot = {
        let latest = shared.latest_update.lock().expect("update history lock");
        latest
            .clone()
            .map(|s| (s, shared.epoch.load(Ordering::SeqCst)))
    };
    let Some((source, fleet_epoch)) = snapshot else {
        return Ok(()); // no updates yet: the seed program is current
    };
    if backend.synced_epoch.load(Ordering::SeqCst) == fleet_epoch {
        return Ok(()); // already current (e.g. marked down by a probe blip)
    }
    let epoch = apply_update(backend, &source, Some(fleet_epoch))?;
    // The ack proves the latest source applied; the backend may sit *ahead*
    // of the pinned epoch (failed update attempts consume epochs too, and
    // epochs never move backward), but it must never land short of it.
    if epoch < fleet_epoch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("caught up backend to epoch {fleet_epoch} but it reports {epoch}"),
        ));
    }
    backend.synced_epoch.store(fleet_epoch, Ordering::SeqCst);
    Ok(())
}
