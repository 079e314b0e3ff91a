//! End-to-end loopback stress for the fleet front, extending the server's
//! `loopback_stress` gauntlet across a routed 3-replica fleet: 8
//! concurrent TCP clients issue the mixed protocol (blocking round-trips
//! and pipelined bursts) *through the router* while an updater pushes
//! edited program versions through the wire `update` broadcast — and a
//! chaos thread kills one backend mid-run. The supervisor must notice,
//! respawn it (warm-started from the shared summary-cache dir), and replay
//! the update history into it before routing to it again.
//!
//! Every envelope that comes back is decoded and checked **bit-for-bit**
//! against a direct (engine-free) analysis of the program version matching
//! its epoch — regardless of which replica answered. A routing mix-up, an
//! epoch skew between replicas, or a half-replayed respawn all fail the
//! comparison. Runs at 1, 2, and 8 backend workers.
//!
//! The edge budgets ride along: every client authenticates first, an
//! unauthenticated connection mid-run gets structured errors without
//! disturbing anyone, and the router's own metrics must record the chaos
//! (respawns, quorum acks) when scraped over the wire.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::layered_program;
use flowistry_engine::{Policy, QueryRequest, QueryResponse, Reference};
use flowistry_lang::types::FuncId;
use flowistry_obs::Registry;
use flowistry_router::{BackendLauncher, FlowRouter, InProcessLauncher, RouterConfig};
use flowistry_server::{ClientConfig, FlowClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRONT_TOKEN: &str = "fleet-front-token";
const BACKEND_TOKEN: &str = "fleet-backend-token";

/// The value of the series named exactly `series` in Prometheus text.
fn sample(text: &str, series: &str) -> f64 {
    let value = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .unwrap_or_else(|| panic!("series {series} missing from scrape"));
    value.parse().unwrap_or_else(|e| panic!("{series}: {e}"))
}

/// Whether a response is the router's synthesized loss error — the one
/// answer a client may legitimately see during the chaos window, and the
/// signal to simply re-issue the request.
fn is_router_loss(response: &QueryResponse) -> bool {
    matches!(response, QueryResponse::Error(msg) if msg.starts_with("router:"))
}

/// Connects through the router front and completes the auth preamble.
fn connect_authed(addr: std::net::SocketAddr) -> FlowClient {
    let mut client = FlowClient::connect_retry(addr, &ClientConfig::default(), 8)
        .expect("connect through router");
    client.auth(FRONT_TOKEN).expect("front auth");
    client
}

/// The scenario at one backend worker count: 8 clients race a wire
/// updater through a 3-replica fleet while one replica is killed and
/// respawned; every envelope is checked against the direct analysis of
/// its own epoch.
fn hammer_through_router(workers: usize) {
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    const VERSIONS: usize = 4;

    // Version k pads module 0's leaf body with k statements: the function
    // set is unchanged (FuncIds stable), but shifted statement locations
    // make each version's results pairwise distinct — an epoch mix-up
    // between replicas cannot go unnoticed.
    let sources: Vec<String> = (0..VERSIONS).map(|k| layered_program(3, 3, k)).collect();
    let references: Vec<Reference> = sources
        .iter()
        .map(|src| {
            let program = flowistry_lang::compile(src).expect("edited version compiles");
            Reference::new(Arc::new(program), params.clone())
        })
        .collect();
    let num_funcs = references[0].program().bodies.len();
    let leaf = QueryRequest::Results(FuncId(0));
    for k in 1..VERSIONS {
        assert_ne!(
            references[k - 1].answer(&leaf),
            references[k].answer(&leaf),
            "versions {} and {k} must be distinguishable",
            k - 1
        );
    }
    let policy = Policy::from_conventions(references[0].program());

    // One shared summary-cache dir across the fleet: the respawned replica
    // warm-starts from its siblings' work.
    let cache_dir =
        std::env::temp_dir().join(format!("flow-fleet-cache-{}-{workers}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create fleet cache dir");

    let launchers: Vec<Box<dyn BackendLauncher>> = (0..3)
        .map(|_| {
            Box::new(InProcessLauncher {
                source: sources[0].clone(),
                workers,
                cache_dir: Some(cache_dir.clone()),
                auth_token: Some(BACKEND_TOKEN.to_string()),
            }) as Box<dyn BackendLauncher>
        })
        .collect();
    let registry = Arc::new(Registry::new());
    let config = RouterConfig::default()
        .with_auth_token(FRONT_TOKEN)
        .with_backend_auth_token(BACKEND_TOKEN)
        // 8 query clients + the updater + the final checker + the unauthed
        // probe must never queue behind each other in the accept backlog.
        .with_max_connections(16)
        // An aggressive supervisor, so the kill below is detected and
        // repaired within the test's lifetime.
        .with_health_interval(Duration::from_millis(40))
        .with_failure_threshold(2)
        .with_registry(registry.clone());
    let router = FlowRouter::start(launchers, "127.0.0.1:0", config).expect("start loopback fleet");
    let addr = router.local_addr();

    // Every envelope must equal the direct answer for its own epoch,
    // whichever replica served it.
    let check = |epoch: u64, request: &QueryRequest, response: &QueryResponse| {
        assert!(
            (epoch as usize) < VERSIONS,
            "impossible epoch {epoch} in an envelope"
        );
        match (request, response) {
            (QueryRequest::Stats, QueryResponse::Stats(stats)) => {
                assert_eq!(stats.epoch, epoch);
                assert_eq!(stats.workers, workers);
            }
            (req, QueryResponse::Error(msg)) => {
                panic!("unexpected error for {req:?} at epoch {epoch}: {msg}")
            }
            _ => assert_eq!(
                Some(response),
                references[epoch as usize].answer(request).as_ref(),
                "{request:?} through the router diverged from direct analysis at epoch {epoch}"
            ),
        }
    };

    std::thread::scope(|s| {
        // 8 query clients: even threads do blocking round-trips, odd
        // threads pipeline bursts of 5 requests before reading responses.
        for t in 0..8usize {
            let check = &check;
            let policy = &policy;
            s.spawn(move || {
                let mut client = connect_authed(addr);
                let make_request = |i: usize| {
                    let func = FuncId(((i + t) % num_funcs) as u32);
                    match (i + t) % 6 {
                        0 => QueryRequest::Results(func),
                        1 => QueryRequest::Summary(func),
                        2 => QueryRequest::BackwardSlice {
                            func,
                            var: "v".to_string(),
                        },
                        3 => QueryRequest::CheckPolicy(policy.clone()),
                        4 => QueryRequest::Lint(func),
                        _ => QueryRequest::Stats,
                    }
                };
                // A request the chaos window genuinely lost is re-issued;
                // anything else is checked bit-for-bit.
                let settle = |client: &mut FlowClient, request: &QueryRequest, tid: &str| {
                    for _attempt in 0..32 {
                        let envelope = client.query(request).expect("query through router");
                        if is_router_loss(&envelope.response) {
                            continue;
                        }
                        assert_eq!(
                            envelope.trace_id.as_deref(),
                            Some(tid),
                            "trace id not echoed on {request:?}"
                        );
                        check(envelope.epoch, request, &envelope.response);
                        return;
                    }
                    panic!("{request:?} still lost after 32 retries");
                };
                let tid = format!("client-{t}");
                if t % 2 == 0 {
                    for i in 0..30usize {
                        let request = make_request(i);
                        client
                            .submit_with(&request, Some(&tid), None)
                            .expect("traced submit");
                        let envelope = client.recv().expect("query round-trip");
                        if is_router_loss(&envelope.response) {
                            settle(&mut client, &request, &tid);
                            continue;
                        }
                        assert_eq!(
                            envelope.trace_id.as_deref(),
                            Some(tid.as_str()),
                            "trace id not echoed on {request:?}"
                        );
                        check(envelope.epoch, &request, &envelope.response);
                    }
                } else {
                    for burst in 0..6usize {
                        let requests: Vec<_> =
                            (0..5).map(|j| make_request(burst * 5 + j)).collect();
                        for request in &requests {
                            client
                                .submit_with(request, Some(&tid), None)
                                .expect("pipelined traced submit");
                        }
                        assert_eq!(client.pending(), 5);
                        let mut lost = Vec::new();
                        for request in &requests {
                            let envelope = client.recv().expect("pipelined recv");
                            if is_router_loss(&envelope.response) {
                                lost.push(request.clone());
                                continue;
                            }
                            assert_eq!(
                                envelope.trace_id.as_deref(),
                                Some(tid.as_str()),
                                "trace id not echoed on {request:?}"
                            );
                            check(envelope.epoch, request, &envelope.response);
                        }
                        for request in lost {
                            settle(&mut client, &request, &tid);
                        }
                    }
                }
            });
        }

        // Meanwhile: push every edited version through the wire `update`
        // broadcast, in order. The fleet acks each one at quorum even with
        // a replica down.
        let sources = &sources;
        s.spawn(move || {
            let mut updater = connect_authed(addr);
            for (k, source) in sources.iter().enumerate().skip(1) {
                let epoch = updater.update(source).expect("wire update broadcast");
                assert_eq!(epoch, k as u64, "updates must apply in order");
            }
        });

        // Chaos: kill replica 1 out from under the fleet mid-run. The
        // supervisor must respawn it; routed traffic must not care.
        let router = &router;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            router.kill_backend(1);
        });

        // An unauthenticated connection mid-run: structured errors only,
        // and nobody else notices.
        s.spawn(move || {
            let mut intruder = FlowClient::connect_retry(addr, &ClientConfig::default(), 8)
                .expect("connect unauthed probe");
            for _ in 0..3 {
                let envelope = intruder
                    .query(&QueryRequest::Stats)
                    .expect("unauthed query");
                match &envelope.response {
                    QueryResponse::Error(msg) => {
                        assert!(
                            msg.contains("authentication required"),
                            "unauthed connection saw: {msg}"
                        )
                    }
                    other => panic!("unauthed connection was served: {other:?}"),
                }
            }
        });
    });

    // The kill must be noticed, the replica respawned, and the update
    // history replayed into it before it serves again.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let respawns = sample(
            &registry.render_prometheus(),
            "flow_router_backend_respawns_total{backend=\"1\"}",
        );
        if respawns >= 1.0 && router.backend_healthy(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend 1 was never respawned (respawns={respawns}, healthy={})",
            router.backend_healthy(1)
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // All clients done, all updates applied, the fleet repaired: a fresh
    // connection must see the final version bit-for-bit from *every*
    // function's owner — including the respawned replica's shard.
    let mut client = connect_authed(addr);
    for f in 0..num_funcs {
        let request = QueryRequest::Results(FuncId(f as u32));
        let envelope = client.query(&request).expect("final sweep query");
        assert_eq!(
            envelope.epoch,
            (VERSIONS - 1) as u64,
            "function {f}'s owner lags the fleet epoch"
        );
        check(envelope.epoch, &request, &envelope.response);
    }
    let (epoch, stats) = client.stats().expect("final stats");
    assert_eq!(epoch, (VERSIONS - 1) as u64);
    assert_eq!(stats.epoch, (VERSIONS - 1) as u64);

    // The router's own metrics answer the wire `metrics` verb (the fleet
    // registry, not any single backend's), and must record the run.
    let scrape = client.metrics().expect("router metrics scrape");
    assert!(sample(&scrape, "flow_router_requests_total") >= (8 * 30) as f64);
    assert_eq!(sample(&scrape, "flow_router_updates_total"), 3.0);
    assert!(sample(&scrape, "flow_router_backend_respawns_total{backend=\"1\"}") >= 1.0);
    assert_eq!(
        sample(&scrape, "flow_router_backend_respawns_total{backend=\"0\"}"),
        0.0
    );
    assert!(sample(&scrape, "flow_router_auth_failures_total") >= 3.0);
    assert_eq!(
        sample(&scrape, "flow_router_backend_healthy{backend=\"1\"}"),
        1.0
    );
    assert_eq!(sample(&scrape, "flow_router_decode_errors_total"), 0.0);
    // Route latency per kind the clients issued (decode to flush, including
    // any failover retries), read off the router's registry.
    for kind in ["results", "summary", "slice", "policy", "lint", "stats"] {
        let route =
            registry.histogram(&format!("flow_router_route_seconds{{kind=\"{kind}\"}}"), "");
        assert!(route.count() > 0, "{kind} was never routed");
        let p50 = route.quantile(0.5).unwrap_or(0.0);
        let p99 = route.quantile(0.99).unwrap_or(0.0);
        assert!(p99 >= p50, "{kind} route p99 {p99} < p50 {p50}");
    }
    // 11 fronts: 8 stress clients, the updater, the unauthed probe, this
    // checker.
    assert_eq!(sample(&scrape, "flow_router_connections_total"), 11.0);

    // Graceful wire shutdown: the router acks with `bye`, tears the fleet
    // down, and `wait()` returns.
    client.shutdown_server().expect("wire shutdown");
    router.wait();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn fleet_stress_one_worker() {
    hammer_through_router(1);
}

#[test]
fn fleet_stress_two_workers() {
    hammer_through_router(2);
}

#[test]
fn fleet_stress_eight_workers() {
    hammer_through_router(8);
}
