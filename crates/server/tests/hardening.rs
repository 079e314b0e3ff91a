//! Wire-front hardening: the `auth` connection preamble, per-connection
//! request-rate budgets, and request-size budgets. Every rejection must be
//! a *structured* error envelope on the offender's own connection — a
//! hostile client never crashes the server or perturbs a well-behaved
//! neighbor (each test ends by proving a legitimate query still answers
//! correctly).

use flowistry_core::{AnalysisParams, Condition};
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, QueryRequest, QueryResponse, ServiceConfig,
};
use flowistry_lang::types::FuncId;
use flowistry_obs::{sample, Registry};
use flowistry_server::{ClientConfig, FlowClient, FlowServer, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

const SOURCE: &str = "fn probe(v: i32) -> i32 { let a = v + 1; return a; }";

fn serve_on(addr: impl ToSocketAddrs, config: ServerConfig) -> FlowServer {
    // A private registry per test: these run concurrently in one process
    // and must not pool their counters.
    let registry = Arc::new(Registry::new());
    let program = Arc::new(flowistry_lang::compile(SOURCE).unwrap());
    let engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM))
            .with_metrics(registry),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
    // Several tests hold one connection open while probing from another;
    // never let the accept loop serialize them (the default cap is the
    // machine's parallelism, which can be 1).
    FlowServer::bind(service, addr, config.with_max_connections(8)).expect("bind loopback")
}

fn serve(config: ServerConfig) -> FlowServer {
    serve_on("127.0.0.1:0", config)
}

fn expect_error(client: &mut FlowClient, needle: &str) {
    let envelope = client.query(&QueryRequest::Stats).expect("round trip");
    match envelope.response {
        QueryResponse::Error(msg) => {
            assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}")
        }
        other => panic!("expected error containing {needle:?}, got {other:?}"),
    }
}

fn expect_summary(client: &mut FlowClient) {
    let envelope = client
        .query(&QueryRequest::Summary(FuncId(0)))
        .expect("round trip");
    assert!(
        matches!(envelope.response, QueryResponse::Summary(Some(_))),
        "expected a summary, got {:?}",
        envelope.response
    );
}

#[test]
fn auth_gate_rejects_until_token_accepted() {
    let server = serve(ServerConfig::default().with_auth_token("hunter2"));
    let addr = server.local_addr();

    // Unauthenticated requests — valid or garbage — answer structured
    // errors and leave the connection serving.
    let mut client = FlowClient::connect(addr).unwrap();
    expect_error(&mut client, "authentication required");
    expect_error(&mut client, "authentication required");

    // A wrong token is refused; the connection survives to try again.
    let denied = client.auth("hunter3").expect_err("bad token must fail");
    assert_eq!(denied.kind(), std::io::ErrorKind::PermissionDenied);
    expect_error(&mut client, "authentication required");

    // The right token unlocks the full protocol on the same connection.
    client.auth("hunter2").expect("correct token");
    expect_summary(&mut client);
    let (_, stats) = client.stats().expect("stats after auth");
    assert!(stats.served >= 1);

    // The failed attempts are visible in the scrape.
    let scrape = client.metrics().expect("metrics after auth");
    assert!(sample(&scrape, "flow_server_auth_failures_total") >= Some(3.0));

    // Tokens with wire-hostile bytes round-trip through the escaper.
    let spicy_server = serve(ServerConfig::default().with_auth_token("a b=c|d%20"));
    let mut spicy = FlowClient::connect(spicy_server.local_addr()).unwrap();
    spicy.auth("a b=c|d%20").expect("escaped token");
    expect_summary(&mut spicy);
}

#[test]
fn auth_preamble_is_acked_when_no_token_configured() {
    let server = serve(ServerConfig::default());
    let mut client = FlowClient::connect(server.local_addr()).unwrap();
    // Clients may send the preamble unconditionally.
    client.auth("whatever").expect("tokenless server acks auth");
    expect_summary(&mut client);
}

#[test]
fn rate_budget_rejects_spikes_with_structured_errors() {
    // A glacial refill rate with a burst of 4: the 5th request is over
    // budget no matter how slowly this test machine runs the first four.
    let server = serve(ServerConfig::default().with_rate_limit(0.001, 4));
    let mut client = FlowClient::connect(server.local_addr()).unwrap();
    for _ in 0..4 {
        expect_summary(&mut client);
    }
    let envelope = client.query(&QueryRequest::Summary(FuncId(0))).unwrap();
    match envelope.response {
        QueryResponse::Error(msg) => assert!(msg.contains("rate limit"), "got {msg:?}"),
        other => panic!("expected rate-limit error, got {other:?}"),
    }
    // The budget is per connection: a fresh one has a fresh burst.
    let mut neighbor = FlowClient::connect(server.local_addr()).unwrap();
    expect_summary(&mut neighbor);
    let scrape = neighbor.metrics().expect("metrics scrape");
    assert!(sample(&scrape, "flow_server_rate_limited_total") >= Some(1.0));
}

#[test]
fn oversize_lines_are_drained_and_answered() {
    let server = serve(ServerConfig::default().with_max_line_bytes(256));
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // A line far over budget, then a legitimate command on the same
    // connection: the overflow must be drained to its newline so the
    // framing stays intact.
    let long = "x".repeat(4096);
    writeln!(writer, "{long}").unwrap();
    writeln!(writer, "stats").unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    // The message rides the wire escaped (spaces become %20).
    assert!(
        line.starts_with("error ") && line.contains("request%20line%20exceeds"),
        "oversize rejection missing: {line:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("stats"),
        "connection desynced after oversize line: {line:?}"
    );
}

#[test]
fn update_budget_is_configurable() {
    let server = serve(ServerConfig::default().with_max_update_bytes(128));
    let mut client = FlowClient::connect(server.local_addr()).unwrap();
    let big = format!("fn f(v: i32) -> i32 {{ return v; }} // {}", "y".repeat(256));
    let err = client.update(&big).expect_err("over-budget update");
    assert!(err.to_string().contains("exceeds"), "got {err}");
    // The connection keeps serving after the rejection.
    expect_summary(&mut client);
}

#[test]
fn deeply_nested_update_is_an_error_reply() {
    let server = serve(ServerConfig::default());
    let mut client = FlowClient::connect(server.local_addr()).unwrap();
    let deep = format!(
        "fn f(v: i32) -> i32 {{ return {}v{}; }}",
        "(".repeat(1000),
        ")".repeat(1000)
    );
    let err = client.update(&deep).expect_err("too deep to compile");
    assert!(err.to_string().contains("nesting too deep"), "got {err}");
    // The server survived and keeps serving the program it had.
    expect_summary(&mut client);
}

#[test]
fn client_timeouts_surface_instead_of_hanging() {
    let server = serve(ServerConfig::default());
    let config = ClientConfig::default()
        .with_connect_timeout(Duration::from_secs(2))
        .with_read_timeout(Duration::from_millis(50))
        .with_write_timeout(Duration::from_secs(2));
    let mut client = FlowClient::connect_with(server.local_addr(), &config).unwrap();
    // Nothing was submitted, so this read can only time out.
    let err = client.recv().expect_err("read timeout");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a timeout, got {err:?}"
    );
}

#[test]
fn connect_retry_waits_out_a_late_binder() {
    // Reserve an address nobody listens on, then release it: connects are
    // refused. Retry in one thread while another binds the listener late.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        serve_on(addr, ServerConfig::default())
    });
    let config = ClientConfig::default().with_connect_timeout(Duration::from_secs(2));
    let mut client =
        FlowClient::connect_retry(addr, &config, 12).expect("retry outlasts the bind race");
    let _server = binder.join().unwrap();
    expect_summary(&mut client);
}
