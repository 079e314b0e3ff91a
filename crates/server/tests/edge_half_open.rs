//! Half-open regression for the shared connection edge: when a connection's
//! writer dies mid-reply, the socket must close with it. Both `flow-server`
//! and `flow-router` run this writer, so one fake handler covers both tiers.

use flowistry_engine::QueryRequest;
use flowistry_obs::Registry;
use flowistry_server::edge::{Edge, Handler, Reply};
use flowistry_server::ServerConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every query goes pending, and resolving it panics the writer.
struct PanickingReply;

impl Handler for PanickingReply {
    type Pending = ();
    const TIER: &'static str = "halfopen";
    const LATENCY_SERIES: &'static str = "flow_halfopen_seconds";
    const FRAME_FAULTS: bool = false;
    const BYTE_COUNTERS: bool = false;

    fn epoch(&self) -> u64 {
        0
    }

    fn query(
        &self,
        _request: QueryRequest,
        _trace_id: Option<String>,
        _deadline_ms: Option<u64>,
        _line: &str,
        _decoded_at: Instant,
    ) -> Reply<()> {
        Reply::Pending(())
    }

    fn update(&self, _source: String, _epoch: Option<u64>) -> String {
        unreachable!("the test sends no updates")
    }

    fn resolve(&self, _pending: ()) -> String {
        panic!("injected writer panic");
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

#[test]
fn a_dead_writer_closes_the_socket_and_frees_the_slot() {
    let registry = Registry::new();
    let edge = Edge::bind(
        Arc::new(PanickingReply),
        "127.0.0.1:0",
        ServerConfig::default().with_max_connections(1),
        &registry,
    )
    .unwrap();

    // The writer panics resolving this reply; the client, blocked on a
    // read, must see EOF rather than wait on a half-open socket.
    let mut first = connect(edge.local_addr());
    first.write_all(b"stats\n").unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    match first.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("expected EOF, got {:?}", String::from_utf8_lossy(&buf[..n])),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "client still blocked after {:?}: the socket was left half-open",
            started.elapsed()
        ),
    }

    // With one connection allowed, a second client is served only once
    // the dead connection's slot was released. A malformed line is
    // answered by the edge itself, without the panicking reply step.
    let second = connect(edge.local_addr());
    (&second).write_all(b"no-such-verb\n").unwrap();
    let mut line = String::new();
    BufReader::new(&second).read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error 0 malformed"),
        "second client was not served: {line:?}"
    );
}
