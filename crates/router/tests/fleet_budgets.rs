//! The router's edge budgets, exercised against a live single-replica
//! fleet: wrong or missing auth, request-rate spikes, oversize request
//! lines, and oversize update bodies all get structured `error` envelopes
//! — and none of them destabilize the connection, the router, or the
//! backend behind it.

use flowistry_engine::{QueryRequest, QueryResponse};
use flowistry_lang::types::FuncId;
use flowistry_obs::Registry;
use flowistry_router::{BackendLauncher, FlowRouter, InProcessLauncher, RouterConfig};
use flowistry_server::{ClientConfig, FlowClient, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

const FRONT_TOKEN: &str = "front-secret";
const BACKEND_TOKEN: &str = "backend-secret";
const SOURCE: &str = "fn f(p: &mut i32, x: i32) -> i32 { *p = x; return x; }";

fn fleet(config: RouterConfig) -> FlowRouter {
    let launchers: Vec<Box<dyn BackendLauncher>> = vec![Box::new(InProcessLauncher {
        source: SOURCE.to_string(),
        workers: 1,
        cache_dir: None,
        auth_token: Some(BACKEND_TOKEN.to_string()),
    })];
    FlowRouter::start(
        launchers,
        "127.0.0.1:0",
        config
            .with_backend_auth_token(BACKEND_TOKEN)
            // This box may resolve the default to 1; the tests below hold
            // several connections open at once.
            .with_max_connections(8),
    )
    .expect("start single-replica fleet")
}

fn expect_error(client: &mut FlowClient, fragment: &str) {
    let envelope = client
        .query(&QueryRequest::Stats)
        .expect("query round-trip");
    match &envelope.response {
        QueryResponse::Error(msg) => {
            assert!(msg.contains(fragment), "error {msg:?} lacks {fragment:?}")
        }
        other => panic!("expected an error mentioning {fragment:?}, got {other:?}"),
    }
}

#[test]
fn auth_gate_rejects_until_token_accepted() {
    let router = fleet(RouterConfig::default().with_auth_token(FRONT_TOKEN));
    let addr = router.local_addr();

    let mut client = FlowClient::connect(addr).expect("connect");
    // Pre-auth: every command is refused with a structured error.
    expect_error(&mut client, "authentication required");
    // A wrong token is refused in kind.
    let denied = client
        .auth("not-the-token")
        .expect_err("wrong token accepted");
    assert_eq!(denied.kind(), std::io::ErrorKind::PermissionDenied);
    // The connection survives the refusals; the right token unlocks it.
    client.auth(FRONT_TOKEN).expect("correct token");
    let (_, stats) = client.stats().expect("authed query");
    assert_eq!(stats.epoch, 0);

    let scrape = router.metrics_registry().render_prometheus();
    assert!(scrape.contains("flow_router_auth_failures_total 2"));
}

#[test]
fn rate_budget_rejects_spikes_with_structured_errors() {
    // A glacial refill with a burst of 4: the auth preamble and three
    // queries pass, then the budget is simply gone for the test's
    // lifetime.
    let router = fleet(
        RouterConfig::default()
            .with_auth_token(FRONT_TOKEN)
            .with_rate_limit(0.001, 4),
    );
    let addr = router.local_addr();

    let mut client = FlowClient::connect(addr).expect("connect");
    client.auth(FRONT_TOKEN).expect("auth spends one token");
    for _ in 0..3 {
        let (_, stats) = client.stats().expect("within burst");
        assert_eq!(stats.epoch, 0);
    }
    expect_error(&mut client, "rate limit exceeded");

    // The budget is per connection: a fresh client starts with a full
    // burst, so one noisy neighbor cannot starve the fleet.
    let mut fresh = FlowClient::connect(addr).expect("second connect");
    fresh.auth(FRONT_TOKEN).expect("fresh auth");
    fresh.stats().expect("fresh connection has its own budget");
}

#[test]
fn oversize_lines_are_drained_and_answered() {
    let router = fleet(
        RouterConfig::default()
            .with_auth_token(FRONT_TOKEN)
            .with_max_line_bytes(256),
    );
    let addr = router.local_addr();

    // Raw wire: a 4KiB garbage line, refused before auth is even
    // consulted, then the same connection authenticates and works.
    let stream = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(&[b'x'; 4096])
        .and_then(|()| writer.write_all(b"\n"))
        .expect("oversize write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("oversize reply");
    assert!(
        line.starts_with("error ") && line.contains("request%20line%20exceeds"),
        "oversize line answered {line:?}"
    );
    writeln!(
        writer,
        "{}",
        flowistry_server::codec::encode_auth(FRONT_TOKEN)
    )
    .expect("auth write");
    line.clear();
    reader.read_line(&mut line).expect("auth reply");
    assert_eq!(line.trim_end(), flowistry_server::codec::AUTHED_LINE);
    writeln!(writer, "stats").expect("stats write");
    line.clear();
    reader.read_line(&mut line).expect("stats reply");
    let envelope = flowistry_server::codec::decode_envelope(line.trim_end()).expect("decode");
    assert!(
        matches!(envelope.response, QueryResponse::Stats(_)),
        "connection died after oversize line: {:?}",
        envelope.response
    );
}

#[test]
fn update_budget_is_configurable() {
    let config = RouterConfig {
        // Between the 46-byte replacement below and the 55-byte seed.
        edge: ServerConfig::default().with_max_update_bytes(50),
        ..RouterConfig::default()
    };
    let router = fleet(config);
    let addr = router.local_addr();

    let mut client = FlowClient::connect(addr).expect("connect");
    let rejected = client.update(SOURCE).expect_err("oversize update accepted");
    assert!(
        rejected.to_string().contains("exceeds"),
        "unhelpful update rejection: {rejected}"
    );
    // Nothing was broadcast; the fleet still serves epoch 0 and accepts a
    // small update on the same connection.
    let (_, stats) = client.stats().expect("stats after rejection");
    assert_eq!(stats.epoch, 0);
    let epoch = client
        .update("fn f(p: &mut i32, x: i32) -> i32 { return x; }")
        .expect("small update");
    assert_eq!(epoch, 1);
}

#[test]
fn metrics_verb_answers_from_the_router_registry() {
    let registry = Arc::new(Registry::new());
    let router = fleet(RouterConfig::default().with_registry(registry.clone()));
    let addr = router.local_addr();

    let mut client = FlowClient::connect(addr).expect("connect");
    client.stats().expect("one routed request");
    let scrape = client.metrics().expect("wire metrics");
    // The fleet's series, not a backend's: routing counters present,
    // engine counters absent.
    assert!(scrape.contains("flow_router_requests_total"));
    assert!(scrape.contains("flow_router_backend_requests_total{backend=\"0\"}"));
    assert!(!scrape.contains("flow_engine_functions_analyzed_total"));
    assert_eq!(scrape, registry.render_prometheus());
}

#[test]
fn lint_verb_routes_with_function_pinning_and_survives_malformed_lines() {
    let registry = Arc::new(Registry::new());
    let router = fleet(RouterConfig::default().with_registry(registry.clone()));
    let addr = router.local_addr();

    let mut client = FlowClient::connect(addr).expect("connect");
    // A valid lint query routes to the function's pinned backend and
    // answers findings (`f` writes `*p` and returns `x`, so it is clean).
    let envelope = client
        .query(&QueryRequest::Lint(FuncId(0)))
        .expect("lint round-trip");
    match &envelope.response {
        QueryResponse::Lint(findings) => assert!(findings.is_empty(), "{findings:?}"),
        other => panic!("expected lint findings, got {other:?}"),
    }
    // An unknown function id is a structured error from the backend, not a
    // dropped connection.
    let envelope = client
        .query(&QueryRequest::Lint(FuncId(42)))
        .expect("out-of-range lint round-trip");
    match &envelope.response {
        QueryResponse::Error(msg) => {
            assert!(msg.contains("unknown function id 42"), "{msg}")
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // Raw wire: malformed `lint` lines are refused with structured errors
    // and the connection keeps serving.
    let stream = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    for bad in ["lint", "lint nine", "lint 0 extra"] {
        writeln!(writer, "{bad}").expect("malformed write");
        line.clear();
        reader.read_line(&mut line).expect("malformed reply");
        assert!(
            line.starts_with("error "),
            "{bad:?} answered {line:?}, want a structured error"
        );
    }
    writeln!(writer, "lint 0").expect("valid write");
    line.clear();
    reader.read_line(&mut line).expect("valid reply");
    let envelope = flowistry_server::codec::decode_envelope(line.trim_end()).expect("decode");
    assert!(
        matches!(envelope.response, QueryResponse::Lint(_)),
        "connection died after malformed lint lines: {:?}",
        envelope.response
    );

    // The router's per-kind routing latency series records the lint verb;
    // both well-formed queries went to the single replica's shard.
    let scrape = registry.render_prometheus();
    assert!(
        scrape.contains("flow_router_route_seconds_count{kind=\"lint\"}"),
        "no lint routing series:\n{scrape}"
    );
}

#[test]
fn open_front_acks_auth_unconditionally() {
    // No token configured: the preamble is still acknowledged, so clients
    // can send it unconditionally.
    let router = fleet(RouterConfig::default());
    let mut client = FlowClient::connect_retry(
        router.local_addr(),
        &ClientConfig::default().with_read_timeout(Duration::from_secs(30)),
        8,
    )
    .expect("connect");
    client.auth("whatever").expect("open front acks any token");
    client.stats().expect("routed query");
}
