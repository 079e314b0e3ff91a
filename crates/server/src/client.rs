//! A blocking TCP client for the [`flow-server`](crate) wire protocol,
//! mirroring the in-process [`FlowService`] API: `query` for one-shot
//! round-trips, `submit`/`recv` for pipelining, `update` for server-side
//! re-analysis.
//!
//! [`FlowService`]: flowistry_engine::FlowService

use crate::codec;
use flowistry_engine::{QueryEnvelope, QueryRequest, QueryResponse, ServiceStats};
use flowistry_lang::types::FuncId;
use flowistry_lint::LintFinding;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Socket timeout knobs for [`FlowClient`]. The default (`None`
/// everywhere) preserves the historical blocking behavior — connects and
/// reads wait forever — which is right for interactive tools. Fleet
/// components (the `flow-router` connection pool, health probes) run with
/// short timeouts so one wedged backend cannot wedge the front.
#[derive(Clone, Debug, Default)]
pub struct ClientConfig {
    /// TCP connect timeout; `None` uses the OS default.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// Sets the connect timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Sets the read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the write timeout.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }
}

/// A blocking connection to a `flow-server`.
///
/// Responses arrive in request order, so the pipelined API is two calls:
/// [`FlowClient::submit`] writes a request without waiting, and
/// [`FlowClient::recv`] reads the next response. [`FlowClient::query`] is
/// the blocking composition of the two.
pub struct FlowClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Submitted-but-unreceived request count (pipelining depth).
    pending: usize,
}

impl FlowClient {
    /// Connects to a running `flow-server` with default (unbounded)
    /// timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<FlowClient> {
        FlowClient::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit timeout configuration.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> io::Result<FlowClient> {
        let writer = match config.connect_timeout {
            None => TcpStream::connect(&addr)?,
            Some(timeout) => {
                // `connect_timeout` wants one resolved address; try each in
                // turn like `TcpStream::connect` does.
                let mut last_err = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last_err.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to nothing",
                            )
                        }))
                    }
                }
            }
        };
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(config.read_timeout)?;
        writer.set_write_timeout(config.write_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(FlowClient {
            reader,
            writer,
            pending: 0,
        })
    }

    /// Connects, retrying transient failures (connection refused/reset —
    /// the window where a server is still binding or an OS backlog
    /// overflowed) with decorrelated-jitter backoff (1ms base, 100ms cap),
    /// up to `attempts` tries. Non-transient errors fail immediately.
    ///
    /// The jitter matters under fan-out: when a respawned backend comes up,
    /// every waiting client's deterministic `1, 2, 4, …` schedule fires in
    /// lockstep and the reconnect stampede overflows the accept backlog —
    /// which is itself a transient connect error, so the herd re-arms.
    /// Each call seeds its own schedule from per-call entropy so
    /// concurrent retriers spread out.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        config: &ClientConfig,
        attempts: u32,
    ) -> io::Result<FlowClient> {
        let mut backoff = RetryBackoff::from_entropy();
        let mut last_err = None;
        for attempt in 0..attempts.max(1) {
            match FlowClient::connect_with(addr.clone(), config) {
                Ok(client) => return Ok(client),
                Err(e) if is_transient_connect_error(&e) => {
                    last_err = Some(e);
                    if attempt + 1 < attempts.max(1) {
                        thread::sleep(backoff.next_delay());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("connect_retry: no attempts")))
    }

    /// Unwraps the underlying stream, discarding the client. Only sound
    /// before any request has been submitted (nothing read-buffered yet);
    /// the router uses it to run the raw wire protocol over a connection
    /// established with the client's connect/retry/timeout machinery.
    pub fn into_stream(self) -> io::Result<TcpStream> {
        debug_assert_eq!(self.pending, 0, "into_stream with responses pending");
        Ok(self.writer)
    }

    /// Adjusts the socket read timeout of this live connection. The
    /// `flow-router` control plane shares one connection between fast
    /// health probes (short timeout) and slow `update` pushes (long
    /// timeout) and retunes it per call.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends the `auth` connection preamble and waits for the server's
    /// verdict. Servers with no token configured acknowledge any token, so
    /// clients can send the preamble unconditionally. A rejected token
    /// comes back as [`io::ErrorKind::PermissionDenied`].
    ///
    /// Call before the first request; like `update`, it is a pipeline sync
    /// point.
    pub fn auth(&mut self, token: &str) -> io::Result<()> {
        if self.pending > 0 {
            return Err(invalid_data(format!(
                "auth with {} responses pending; drain with recv() first",
                self.pending
            )));
        }
        writeln!(self.writer, "{}", codec::encode_auth(token))?;
        self.writer.flush()?;
        let line = self.read_line()?;
        if line == codec::AUTHED_LINE {
            return Ok(());
        }
        match codec::decode_envelope(&line)
            .map_err(invalid_data)?
            .response
        {
            QueryResponse::Error(msg) => Err(io::Error::new(io::ErrorKind::PermissionDenied, msg)),
            other => Err(invalid_data(format!(
                "unexpected response to auth: {other:?}"
            ))),
        }
    }

    /// Sends `request` without waiting for its answer (pipelining). Pair
    /// each `submit` with one [`FlowClient::recv`]; responses come back in
    /// submission order.
    pub fn submit(&mut self, request: &QueryRequest) -> io::Result<()> {
        self.submit_with(request, None, None)
    }

    /// Like [`FlowClient::submit`], with two request attributes. A client
    /// `trace_id` is echoed verbatim on the matching response envelope and
    /// stamped on the server's internal spans, so one request can be
    /// followed through logs on both sides of the wire. A `deadline=<ms>`
    /// budget: a server (or router) that cannot answer within it replies
    /// `error deadline exceeded` instead of making the client wait for an
    /// answer it no longer wants.
    pub fn submit_with(
        &mut self,
        request: &QueryRequest,
        trace_id: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> io::Result<()> {
        let line = codec::encode_request_with(request, trace_id, deadline_ms);
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.pending += 1;
        Ok(())
    }

    /// Receives the next pipelined response, in submission order.
    pub fn recv(&mut self) -> io::Result<QueryEnvelope> {
        let line = self.read_line()?;
        self.pending = self.pending.saturating_sub(1);
        codec::decode_envelope(&line).map_err(invalid_data)
    }

    /// Submits `request` and blocks for its answer.
    pub fn query(&mut self, request: &QueryRequest) -> io::Result<QueryEnvelope> {
        self.submit(request)?;
        self.recv()
    }

    /// Number of submitted requests whose responses have not been received
    /// yet.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Ships `source` to the server, which recompiles it and re-analyzes in
    /// the background; blocks until the new snapshot serves and returns its
    /// epoch. A compile error on the server side comes back as an
    /// [`io::ErrorKind::InvalidData`] error carrying the server's message.
    ///
    /// `update` is a pipeline sync point: call it only with no responses
    /// pending (it fails fast otherwise, rather than misattribute replies).
    pub fn update(&mut self, source: &str) -> io::Result<u64> {
        self.update_at(source, None)
    }

    /// Like [`FlowClient::update`], optionally pinning the update to a
    /// target epoch via the `epoch=` attribute: the server fast-forwards
    /// its epoch counter to at least `target_epoch` when applying. The
    /// router uses this to catch respawned replicas up with one compacted
    /// update instead of a full history replay.
    pub fn update_at(&mut self, source: &str, target_epoch: Option<u64>) -> io::Result<u64> {
        if self.pending > 0 {
            return Err(invalid_data(format!(
                "update with {} responses pending; drain with recv() first",
                self.pending
            )));
        }
        writeln!(
            self.writer,
            "{}",
            codec::encode_update_at(source.len(), target_epoch)
        )?;
        self.writer.write_all(source.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let line = self.read_line()?;
        if let Ok(epoch) = codec::decode_update_ack(&line) {
            return Ok(epoch);
        }
        // Not an ack: the server answered with an error envelope.
        match codec::decode_envelope(&line)
            .map_err(invalid_data)?
            .response
        {
            QueryResponse::Error(msg) => Err(invalid_data(msg)),
            other => Err(invalid_data(format!(
                "unexpected response to update: {other:?}"
            ))),
        }
    }

    /// Convenience: the server's current [`ServiceStats`], with the epoch
    /// of the envelope that carried them.
    pub fn stats(&mut self) -> io::Result<(u64, ServiceStats)> {
        let envelope = self.query(&QueryRequest::Stats)?;
        match envelope.response {
            QueryResponse::Stats(stats) => Ok((envelope.epoch, stats)),
            other => Err(invalid_data(format!("expected stats, got {other:?}"))),
        }
    }

    /// Convenience: the server's metrics snapshot in Prometheus text
    /// exposition format (every counter, gauge, and histogram the engine,
    /// service, and wire layer report).
    pub fn metrics(&mut self) -> io::Result<String> {
        let envelope = self.query(&QueryRequest::Metrics)?;
        match envelope.response {
            QueryResponse::Metrics(text) => Ok(text),
            other => Err(invalid_data(format!("expected metrics, got {other:?}"))),
        }
    }

    /// Convenience: all lint findings for one function, with the epoch of
    /// the envelope that carried them. A server-side error (e.g. an unknown
    /// function id) comes back as [`io::ErrorKind::InvalidData`].
    pub fn lint(&mut self, func: FuncId) -> io::Result<(u64, Vec<LintFinding>)> {
        let envelope = self.query(&QueryRequest::Lint(func))?;
        match envelope.response {
            QueryResponse::Lint(findings) => Ok((envelope.epoch, findings)),
            QueryResponse::Error(msg) => Err(invalid_data(msg)),
            other => Err(invalid_data(format!("expected findings, got {other:?}"))),
        }
    }

    /// Asks the server to shut down gracefully and waits for its `bye`.
    /// Consumes the client: the connection is done after this.
    pub fn shutdown_server(mut self) -> io::Result<()> {
        writeln!(self.writer, "{}", codec::SHUTDOWN_LINE)?;
        self.writer.flush()?;
        // Drain any pipelined responses still in flight before the ack.
        loop {
            let line = self.read_line()?;
            if line == codec::BYE_LINE {
                return Ok(());
            }
        }
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

/// Decorrelated-jitter retry backoff (the "decorrelated jitter" scheme
/// from the AWS architecture blog): each delay is drawn uniformly from
/// `[base, prev * 3]` and capped, so consecutive delays are randomized
/// *and* still grow on average, without the thundering-herd lockstep of
/// deterministic exponential backoff.
///
/// The schedule is a pure function of the seed — two instances with the
/// same seed sleep identically, which is what lets the chaos harness
/// replay a reconnect storm deterministically.
pub struct RetryBackoff {
    rng: rand::rngs::StdRng,
    base: Duration,
    cap: Duration,
    prev: Duration,
}

impl RetryBackoff {
    /// A schedule over `[base, cap]` driven by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> RetryBackoff {
        use rand::SeedableRng;
        RetryBackoff {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            base,
            cap: cap.max(base),
            prev: base,
        }
    }

    /// The connect-retry default (1ms base, 100ms cap) seeded from
    /// per-call entropy, so concurrent retriers decorrelate.
    pub fn from_entropy() -> RetryBackoff {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        // Distinct streams even when two threads read the same clock tick.
        let tid = &now as *const u64 as u64;
        RetryBackoff::new(
            Duration::from_millis(1),
            Duration::from_millis(100),
            now.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tid,
        )
    }

    /// The next delay to sleep: uniform in `[base, prev * 3]`, capped.
    pub fn next_delay(&mut self) -> Duration {
        use rand::Rng;
        let base = self.base.as_millis() as u64;
        let hi = (self.prev.as_millis() as u64).saturating_mul(3).max(base);
        let drawn = Duration::from_millis(self.rng.gen_range(base..=hi));
        self.prev = drawn.min(self.cap);
        self.prev
    }
}

/// Whether a connect error is worth retrying: the server may simply not be
/// listening *yet* (spawn race) or the accept backlog overflowed.
fn is_transient_connect_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::AddrNotAvailable
    )
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::RetryBackoff;
    use std::time::Duration;

    fn schedule(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = RetryBackoff::new(Duration::from_millis(1), Duration::from_millis(100), seed);
        (0..n).map(|_| b.next_delay()).collect()
    }

    /// Two clients retrying with different seeds must not sleep in
    /// lockstep — that divergence is the whole point of the jitter.
    #[test]
    fn differently_seeded_retry_schedules_diverge() {
        let a = schedule(1, 16);
        let b = schedule(2, 16);
        assert_ne!(a, b, "seeds 1 and 2 produced identical schedules");
        // And the same seed replays the same schedule exactly.
        assert_eq!(a, schedule(1, 16));
    }

    /// Every delay stays within `[base, cap]`, and the schedule still
    /// grows from the base: jitter must not collapse backoff into a
    /// busy-loop of minimum sleeps.
    #[test]
    fn jittered_delays_respect_base_and_cap() {
        for seed in 0..32u64 {
            let delays = schedule(seed, 32);
            let base = Duration::from_millis(1);
            let cap = Duration::from_millis(100);
            assert!(delays.iter().all(|d| *d >= base && *d <= cap), "{delays:?}");
            assert!(
                delays.iter().any(|d| *d > Duration::from_millis(3)),
                "seed {seed} never grew past 3ms: {delays:?}"
            );
        }
    }
}
