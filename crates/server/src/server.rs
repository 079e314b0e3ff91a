//! The TCP front over one shared [`FlowService`]: a [`Handler`] plugged
//! into the shared connection [`Edge`](crate::edge), which owns admission,
//! budgets, auth, framing and response order (see its module docs).
//!
//! Each query is submitted to the service as soon as its line is decoded
//! ([`FlowService::submit`] — non-blocking up to the service queue's
//! backpressure); the connection's writer waits on the resulting [`Ticket`]
//! when the reply's turn comes, so pipelined requests run across the
//! service's worker pool.
//!
//! `update <nbytes>` compiles the new source server-side and routes it
//! through [`FlowService::update`]; the reader then blocks in
//! [`FlowService::wait_for_epoch`] until the new snapshot serves, making an
//! update a per-connection sync point — the `updated <epoch>` ack and every
//! request pipelined after it reflect the pushed epoch (or later), while
//! other connections keep querying throughout. `shutdown` answers `bye` and
//! gracefully stops the whole server: the listener closes, live connections
//! are shut down, and dropping the service drains every outstanding ticket.

use crate::codec;
use crate::edge::{Edge, Handler, Reply};
use flowistry_engine::{FlowService, QueryRequest, Ticket};
use flowistry_obs::Registry;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`FlowServer`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Maximum live connections. `0` (the default) resolves like every
    /// other pool in the engine: `FLOWISTRY_ENGINE_THREADS` if set, else
    /// available parallelism. Further clients wait in the accept backlog.
    pub max_connections: usize,
    /// When set, every connection must authenticate with
    /// `auth <esc-token>` before any other command is served; wrong or
    /// missing tokens get structured `error` responses (compared in
    /// constant time). `None` (the default) disables the preamble.
    pub auth_token: Option<String>,
    /// Per-connection request-rate budget in requests/second (token
    /// bucket). `0.0` (the default) disables rate limiting.
    pub rate_limit: f64,
    /// Burst ceiling of the rate budget; only meaningful when `rate_limit`
    /// is set. `0` defaults to 64.
    pub rate_burst: u32,
    /// Per-connection request-line size budget in bytes; longer lines are
    /// drained and answered with a structured error. `0` (the default)
    /// means 1 MiB.
    pub max_line_bytes: usize,
    /// Size budget for `update` source bodies in bytes. `0` (the default)
    /// means 16 MiB.
    pub max_update_bytes: usize,
}

impl ServerConfig {
    /// The budget flags `flow-server` and `flow-router` share, each taking
    /// one value; [`ServerConfig::set_flag`] parses them for both.
    pub const FLAGS: [&'static str; 4] = [
        "--auth-token",
        "--rate-limit",
        "--burst",
        "--max-line-bytes",
    ];

    /// Sets the budget that `flag`, one of [`ServerConfig::FLAGS`], names
    /// from its command-line `value`. Returns `false`, leaving the config
    /// as it was, when `value` does not parse or `flag` is not one of them.
    pub fn set_flag(&mut self, flag: &str, value: &str) -> bool {
        fn parse<T: std::str::FromStr>(value: &str, budget: &mut T) -> bool {
            value.parse().map(|v| *budget = v).is_ok()
        }
        match flag {
            "--auth-token" => {
                self.auth_token = Some(value.to_string());
                true
            }
            "--rate-limit" => parse(value, &mut self.rate_limit),
            "--burst" => parse(value, &mut self.rate_burst),
            "--max-line-bytes" => parse(value, &mut self.max_line_bytes),
            _ => false,
        }
    }

    /// Sets the live-connection cap (`0` = auto).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// Requires the `auth <esc-token>` connection preamble.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Sets the per-connection request-rate budget (`0.0` = off) and its
    /// burst ceiling (`0` = default burst).
    pub fn with_rate_limit(mut self, per_sec: f64, burst: u32) -> Self {
        self.rate_limit = per_sec;
        self.rate_burst = burst;
        self
    }

    /// Sets the per-connection request-line size budget (`0` = 1 MiB).
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Sets the `update` body size budget (`0` = 16 MiB).
    pub fn with_max_update_bytes(mut self, bytes: usize) -> Self {
        self.max_update_bytes = bytes;
        self
    }

    /// The effective request-line budget.
    pub(crate) fn effective_max_line_bytes(&self) -> usize {
        if self.max_line_bytes == 0 {
            1 << 20
        } else {
            self.max_line_bytes
        }
    }

    /// The effective `update` body budget.
    pub(crate) fn effective_max_update_bytes(&self) -> usize {
        if self.max_update_bytes == 0 {
            16 << 20
        } else {
            self.max_update_bytes
        }
    }

    /// The effective burst ceiling.
    pub(crate) fn effective_rate_burst(&self) -> u32 {
        if self.rate_burst == 0 {
            64
        } else {
            self.rate_burst
        }
    }
}

/// The server's side of the edge: queries become service tickets.
struct ServerHandler {
    service: FlowService,
}

impl Handler for ServerHandler {
    type Pending = Ticket;
    const TIER: &'static str = "server";
    const LATENCY_SERIES: &'static str = "flow_server_request_wire_seconds";
    const FRAME_FAULTS: bool = true;
    const BYTE_COUNTERS: bool = true;

    fn epoch(&self) -> u64 {
        self.service.current_epoch()
    }

    fn query(
        &self,
        request: QueryRequest,
        trace_id: Option<String>,
        deadline_ms: Option<u64>,
        _line: &str,
        _decoded_at: Instant,
    ) -> Reply<Ticket> {
        Reply::Pending(self.service.submit_with_deadline(
            request,
            trace_id,
            deadline_ms.map(Duration::from_millis),
        ))
    }

    fn update(&self, source: String, target_epoch: Option<u64>) -> String {
        let program = match flowistry_lang::compile(&source) {
            Ok(program) => program,
            Err(diag) => {
                return codec::encode_error(
                    self.epoch(),
                    format!("update failed to compile: {}", diag.message),
                )
            }
        };
        let epoch = self.service.update_at(program, target_epoch);
        // An update is a sync point for *this connection*: requests
        // pipelined after it must be served from the new epoch (or a later
        // one), so don't touch the next line until the swap happened. Other
        // connections keep querying the old snapshot throughout — this
        // holds back one reader, not the service.
        self.service.wait_for_epoch(epoch);
        // The epoch counter advances even when the background re-analysis
        // panicked (so waiters never hang) — but then the snapshot did NOT
        // change, and acknowledging success would be a lie. Tell the client
        // instead.
        let serving = self.service.snapshot().epoch();
        if serving < epoch {
            return codec::encode_error(
                serving,
                format!("update {epoch} failed during re-analysis; epoch {serving} still serving"),
            );
        }
        codec::encode_update_ack(epoch)
    }

    fn resolve(&self, ticket: Ticket) -> String {
        codec::encode_envelope(&ticket.wait())
    }
}

/// A running TCP front over one [`FlowService`]: see the [module
/// docs](self).
pub struct FlowServer {
    edge: Edge<ServerHandler>,
}

impl FlowServer {
    /// Binds `addr` (use port `0` for an ephemeral port) and starts
    /// accepting connections against `service`.
    pub fn bind(
        service: FlowService,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<FlowServer> {
        let registry = service.metrics_registry().clone();
        let handler = Arc::new(ServerHandler { service });
        let edge = Edge::bind(handler, addr, config, &registry)?;
        Ok(FlowServer { edge })
    }

    /// The address the server is listening on (with the real port when
    /// bound to port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The metrics registry the whole stack (engine, service, and this
    /// server's wire layer) reports into — what the wire `metrics` command
    /// renders.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        self.edge.handler().service.metrics_registry()
    }

    /// Whether a `shutdown` command (or [`FlowServer::shutdown`]) has been
    /// received.
    pub fn is_shutdown(&self) -> bool {
        self.edge.is_shutdown()
    }

    /// Blocks until the server has shut down (via the wire `shutdown`
    /// command or a concurrent [`FlowServer::shutdown`] call) and every
    /// connection has been answered and closed.
    pub fn wait(mut self) {
        self.edge.wait();
        // Dropping the edge runs the rest of the teardown.
    }

    /// Initiates a graceful shutdown: stop accepting, cut live connections
    /// loose, and (on drop) drain every outstanding ticket.
    pub fn shutdown(&self) {
        self.edge.shutdown();
    }
}
