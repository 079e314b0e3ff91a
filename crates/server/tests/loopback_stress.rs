//! End-to-end loopback stress for the TCP front, mirroring the engine's
//! `service_stress` gauntlet: N concurrent TCP clients issue the mixed
//! protocol (blocking round-trips and pipelined submit/recv bursts) while
//! an updater client pushes edited program versions through the wire
//! `update` command. Every envelope that comes back over TCP is decoded and
//! checked **bit-for-bit** against a direct (engine-free) analysis of the
//! program version matching its epoch — a codec bug, an epoch mix-up, or a
//! half-swapped snapshot all fail the comparison.
//!
//! Runs at 1, 2, and 8 service workers, and ends with a graceful wire
//! `shutdown` that must answer everything already accepted.
//!
//! Telemetry rides along end to end: every client stamps its requests with
//! a distinct trace id and asserts the echo on each envelope, and a
//! post-run `metrics` scrape must agree exactly with the deterministic
//! client-side request tallies (each run gets its own [`Registry`] so the
//! three worker counts can run concurrently in one process).

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::layered_program;
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, Policy, QueryRequest, QueryResponse, Reference,
    ServiceConfig,
};
use flowistry_lang::types::FuncId;
use flowistry_obs::{sample, Registry};
use flowistry_server::{ClientConfig, FlowClient, FlowServer, ServerConfig};
use std::sync::Arc;

/// The scenario at one service worker count: 8 TCP clients race a TCP
/// updater; every envelope is checked against the direct analysis of its
/// own epoch; the run ends with a graceful wire shutdown.
fn hammer_over_tcp(workers: usize) {
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    const VERSIONS: usize = 4;

    // Version k pads module 0's leaf body with k statements: the function
    // set is unchanged (FuncIds stable), but shifted statement locations
    // make each version's results pairwise distinct — an epoch mix-up
    // cannot go unnoticed.
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
    // Every version has the same function names, so one policy serves all.
    let policy = Policy::from_conventions(references[0].program());

    // A private registry per run: the three worker-count tests run
    // concurrently in this process and must not pool their counters.
    let registry = Arc::new(Registry::new());
    let engine = AnalysisEngine::new(
        references[0].program().clone(),
        EngineConfig::default()
            .with_params(params.clone())
            .with_metrics(registry.clone()),
    );
    let service = FlowService::new(
        engine,
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(16),
    );
    let server = FlowServer::bind(
        service,
        "127.0.0.1:0",
        // 8 query clients + 1 updater + the final checker must never queue
        // behind each other in the accept backlog.
        ServerConfig::default().with_max_connections(16),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Every envelope must equal the direct answer for its own epoch: a
    // codec bug, an epoch mix-up or a half-swapped snapshot all fail here.
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
                "{request:?} over TCP diverged from direct analysis at epoch {epoch}"
            ),
        }
    };

    std::thread::scope(|s| {
        // 8 query clients: even threads do blocking round-trips, odd threads
        // pipeline bursts of 5 requests before reading any response.
        for t in 0..8usize {
            let check = &check;
            let policy = &policy;
            s.spawn(move || {
                // Ten clients connect at once; ride out accept-backlog refusals
                // with capped backoff instead of a fixed sleep.
                let mut client = FlowClient::connect_retry(addr, &ClientConfig::default(), 8)
                    .expect("connect query client");
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
                // Every request carries this client's trace id; every
                // envelope must echo it back verbatim.
                let tid = format!("client-{t}");
                if t % 2 == 0 {
                    for i in 0..30usize {
                        let request = make_request(i);
                        client
                            .submit_with(&request, Some(&tid), None)
                            .expect("traced submit");
                        let envelope = client.recv().expect("query round-trip");
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
                        for request in &requests {
                            let envelope = client.recv().expect("pipelined recv");
                            assert_eq!(
                                envelope.trace_id.as_deref(),
                                Some(tid.as_str()),
                                "trace id not echoed on {request:?}"
                            );
                            check(envelope.epoch, request, &envelope.response);
                        }
                    }
                }
            });
        }

        // Meanwhile: push every edited version through the wire, in order.
        let sources = &sources;
        s.spawn(move || {
            let mut updater = FlowClient::connect_retry(addr, &ClientConfig::default(), 8)
                .expect("connect updater");
            for (k, source) in sources.iter().enumerate().skip(1) {
                // `update` blocks until the new snapshot serves.
                let epoch = updater.update(source).expect("wire update");
                assert_eq!(epoch, k as u64, "updates must apply in order");
            }
        });
    });

    // All clients done, all updates applied: a fresh connection sees the
    // final version, and the serving stats add up.
    let mut client = FlowClient::connect_retry(addr, &ClientConfig::default(), 8)
        .expect("connect final checker");
    let request = QueryRequest::Results(FuncId(0));
    let envelope = client.query(&request).expect("final query");
    assert_eq!(envelope.epoch, (VERSIONS - 1) as u64);
    check(envelope.epoch, &request, &envelope.response);
    let (_, stats) = client.stats().expect("final stats");
    assert_eq!(stats.epoch, (VERSIONS - 1) as u64);
    assert_eq!(stats.updates_applied, (VERSIONS - 1) as u64);
    assert!(
        stats.served >= (8 * 30) as u64,
        "served only {} requests",
        stats.served
    );

    // The wire `metrics` scrape must agree with the deterministic client
    // tallies. Each of the 8 clients issued each kind exactly 5 times
    // ((i + t) % 6 cycles through 6 kinds over 30 requests); the final
    // checker adds one results + one stats, and the scrape itself is
    // counted (its request counter increments before the text renders).
    let scrape = client.metrics().expect("wire metrics scrape");
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"results\"}"),
        Some(41.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"summary\"}"),
        Some(40.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"slice\"}"),
        Some(40.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"policy\"}"),
        Some(40.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"lint\"}"),
        Some(40.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"stats\"}"),
        Some(41.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"metrics\"}"),
        Some(1.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_requests_total{kind=\"slice_at\"}"),
        Some(0.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_updates_applied_total"),
        Some(3.0)
    );
    assert_eq!(
        sample(&scrape, "flow_service_updates_failed_total"),
        Some(0.0)
    );
    assert_eq!(sample(&scrape, "flow_service_queue_depth"), Some(0.0));
    // Per-kind latency histograms: one total-latency observation per
    // already-answered request (the in-flight scrape itself is not yet
    // observed at render time).
    assert_eq!(
        sample(
            &scrape,
            "flow_service_request_seconds_count{kind=\"summary\"}"
        ),
        Some(40.0)
    );
    assert_eq!(
        sample(
            &scrape,
            "flow_service_request_seconds_count{kind=\"results\"}"
        ),
        Some(41.0)
    );
    // The same histograms as latency digests, read off the registry the
    // service records into: every exercised kind has a nonzero median and
    // a tail at least as slow.
    for kind in ["summary", "results", "slice", "stats"] {
        let latency = registry.histogram(
            &format!("flow_service_request_seconds{{kind=\"{kind}\"}}"),
            "",
        );
        let p50 = latency.quantile(0.5).unwrap_or(0.0);
        let p99 = latency.quantile(0.99).unwrap_or(0.0);
        assert!(p50 > 0.0, "{kind} p50 is zero");
        assert!(p99 >= p50, "{kind} p99 {p99} < p50 {p50}");
    }
    // Wire layer: 10 connections (8 stress clients, the updater, this
    // checker); every line decoded cleanly — 240 stress queries, 3
    // updates, and the checker's results + stats + metrics.
    assert_eq!(sample(&scrape, "flow_server_connections_total"), Some(10.0));
    assert_eq!(
        sample(&scrape, "flow_server_decode_errors_total"),
        Some(0.0)
    );
    assert_eq!(sample(&scrape, "flow_server_requests_total"), Some(246.0));
    assert!(sample(&scrape, "flow_server_bytes_read_total") > Some(0.0));
    assert!(sample(&scrape, "flow_server_bytes_written_total") > Some(0.0));
    // Wire latency is observed *after* the response bytes flush, so a
    // connection's last observation can still be in flight when the
    // scrape renders: allow one lagging request per client per kind.
    for kind in ["results", "summary", "slice", "policy", "lint", "stats"] {
        let count = sample(
            &scrape,
            &format!("flow_server_request_wire_seconds_count{{kind=\"{kind}\"}}"),
        );
        assert!(
            count.is_some_and(|count| (32.0..=42.0).contains(&count)),
            "wire latency count for {kind} is {count:?}, expected ~40"
        );
    }
    // The engine under all of this analyzed every function at least once
    // per program version pushed.
    assert!(
        sample(&scrape, "flow_engine_functions_analyzed_total") >= Some(num_funcs as f64),
        "engine telemetry missing from the shared registry"
    );

    // Graceful wire shutdown: the server acknowledges with `bye`, then
    // `wait()` returns — nothing accepted goes unanswered, nothing hangs.
    client.shutdown_server().expect("wire shutdown");
    server.wait();
}

#[test]
fn tcp_stress_one_worker() {
    hammer_over_tcp(1);
}

#[test]
fn tcp_stress_two_workers() {
    hammer_over_tcp(2);
}

#[test]
fn tcp_stress_eight_workers() {
    hammer_over_tcp(8);
}

/// Another connection's in-flight responses survive a concurrent wire
/// `shutdown`: the sweep cuts only the read side of live connections, so
/// every request the server already accepted still gets its response
/// flushed before teardown.
#[test]
fn shutdown_lets_other_connections_flush_accepted_responses() {
    let program =
        Arc::new(flowistry_lang::compile(&layered_program(2, 3, 0)).expect("program compiles"));
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let policy = Policy::from_conventions(&program);
    let engine = AnalysisEngine::new(program, EngineConfig::default().with_params(params.clone()));
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(1));
    let server = FlowServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig::default().with_max_connections(4),
    )
    .unwrap();

    let mut pipelined = FlowClient::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        pipelined
            .submit(&QueryRequest::CheckPolicy(policy.clone()))
            .unwrap();
    }
    // Wait until the connection's reader has provably ingested all five
    // requests (the shutdown sweep stops further reads, not accepted work):
    // `served + queue_depth` counts every request submitted to the service,
    // including the stats polls themselves, so once it reaches 5 + polls
    // the five CheckPolicy requests are all in.
    let mut other = FlowClient::connect(server.local_addr()).unwrap();
    let mut polls = 0u64;
    loop {
        polls += 1;
        let (_, stats) = other.stats().expect("stats poll");
        if stats.served + stats.queue_depth as u64 >= 5 + polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    other.shutdown_server().expect("wire shutdown");

    for i in 0..5 {
        let envelope = pipelined
            .recv()
            .unwrap_or_else(|e| panic!("response {i} lost in shutdown: {e}"));
        assert!(
            matches!(envelope.response, QueryResponse::CheckPolicy(_)),
            "response {i} corrupted by shutdown: {:?}",
            envelope.response
        );
    }
    server.wait();
}

/// Requests pipelined *after* an `update` on the same connection must be
/// served from the acknowledged epoch (or later), never the pre-update
/// snapshot — even when the whole batch arrives in one write before the
/// re-analysis finishes.
#[test]
fn pipelined_requests_after_update_see_the_new_epoch() {
    use std::io::{BufRead, BufReader, Write};

    let v0 = "fn f(p: &mut i32, x: i32) -> i32 { *p = x; return x; }";
    let v1 = "fn f(p: &mut i32, x: i32) -> i32 { let pad = x + 1; *p = pad; return pad; }";
    let engine = AnalysisEngine::new(
        Arc::new(flowistry_lang::compile(v0).unwrap()),
        EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
    let server = FlowServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig::default().with_max_connections(4),
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // One write carries the update *and* a follow-up query: the server must
    // hold the query until the new snapshot serves.
    let batch = format!("update {}\n{v1}\nresults 0\n", v1.len());
    stream.write_all(batch.as_bytes()).unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "updated 1");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let envelope = flowistry_server::codec::decode_envelope(line.trim_end()).unwrap();
    assert_eq!(
        envelope.epoch, 1,
        "post-update pipelined query served from the old snapshot"
    );
    let program_v1 = flowistry_lang::compile(v1).unwrap();
    let direct = analyze(
        &program_v1,
        FuncId(0),
        &AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
    );
    assert_eq!(envelope.response, QueryResponse::Results(Arc::new(direct)));
}

/// Malformed wire input never kills the server: garbage lines, bad ids,
/// out-of-range places/locations, truncated updates — each yields a
/// structured `error` response and the connection keeps serving.
#[test]
fn malformed_input_answers_errors_and_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let program = Arc::new(
        flowistry_lang::compile("fn f(p: &mut i32, x: i32) -> i32 { *p = x; return x; }").unwrap(),
    );
    let engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
    let server = FlowServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig::default().with_max_connections(4),
    )
    .unwrap();

    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    fn ask(
        writer: &mut std::net::TcpStream,
        reader: &mut BufReader<std::net::TcpStream>,
        line: &str,
    ) -> QueryResponse {
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        flowistry_server::codec::decode_envelope(response.trim_end())
            .unwrap_or_else(|e| panic!("undecodable response {response:?}: {e}"))
            .response
    }

    for bad in [
        "total garbage",
        "summary",
        "summary -1",
        "summary 999",
        "results 999",
        "slice 0",
        "slice-at 0 99 0 0", // out-of-range place local
        "slice-at 0 1 99 0", // out-of-range block
        "slice-at 0 1 0 99", // out-of-range statement index
        "slice-at 0 zz 0 0", // unparseable place
        "update notanumber",
        "ifc nonsense",
        "lint",
        "lint nine",
        "lint 999",
        "lint 0 extra",
    ] {
        let response = ask(&mut writer, &mut reader, bad);
        assert!(
            matches!(response, QueryResponse::Error(_)),
            "{bad:?} must answer an error, got {response:?}"
        );
    }

    // A bad update *body* (valid framing, uncompilable source).
    let broken = "fn broken(";
    writeln!(writer, "update {}", broken.len()).unwrap();
    writer.write_all(broken.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let envelope = flowistry_server::codec::decode_envelope(response.trim_end()).unwrap();
    match envelope.response {
        QueryResponse::Error(msg) => {
            assert!(msg.contains("compile"), "unhelpful update error: {msg}")
        }
        other => panic!("uncompilable update answered {other:?}"),
    }

    // After all of that, the same connection still serves real queries.
    let response = ask(&mut writer, &mut reader, "summary 0");
    assert!(
        matches!(response, QueryResponse::Summary(Some(_))),
        "connection died after malformed input: {response:?}"
    );
}
