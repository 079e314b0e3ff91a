//! The CI client smoke: connects to a running `flow-server`, pushes a
//! known program via `update`, and checks a summary + slice + results +
//! IFC + stats round-trip **bit-for-bit against a local direct analysis**
//! of the same source (a [`Reference`]). Also pokes the server with
//! garbage and bad ids to confirm malformed input yields structured errors
//! without killing the connection.
//!
//! ```text
//! flow-smoke <HOST:PORT> [--metrics] [--lint] [--shutdown] [--auth TOKEN]
//! ```
//!
//! With `--metrics` the server's Prometheus snapshot is scraped twice
//! (around one extra request), checked for the required series and for
//! monotonically advancing counters, and echoed to stdout. With `--lint`
//! a `lint` query is round-tripped against the local linter's findings
//! (bit-exact) and the `flow_lint_*` counters are checked to advance
//! across two scrapes — point this at a `flow-server`, not a router
//! (router scrapes expose routing series, not engine series). With
//! `--shutdown` the server is asked to stop after the checks (CI uses
//! this to tear the background server down and assert a clean exit).
//! `--auth TOKEN` sends the `auth` connection preamble on every
//! connection, for servers (or routers) started with a token.
//!
//! Connects are retried with capped backoff: CI starts the server in the
//! background and races this client against its bind.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_engine::{Policy, QueryRequest, QueryResponse, Reference};
use flowistry_lang::mir::{BasicBlock, Location, Place};
use flowistry_lang::types::FuncId;
use flowistry_lint::LintPass;
use flowistry_obs::sample;
use flowistry_server::{codec, ClientConfig, FlowClient};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Transient-failure connect budget: ~12 attempts backing off 1ms → 100ms
/// covers a server that is still binding without stalling a broken CI run
/// for long.
const CONNECT_ATTEMPTS: u32 = 12;

const SOURCE: &str = "
    fn read_password(seed: i32) -> i32 { return seed + 41; }
    fn insecure_print(x: i32) -> i32 { return x; }
    fn store(p: &mut i32, v: i32) { *p = v; }
    fn main(v: i32) -> i32 {
        let password = read_password(v);
        let mut slot = 0;
        store(&mut slot, password);
        return insecure_print(slot);
    }
";

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("smoke check failed: {what}"))
    }
}

/// Scrapes metrics twice around one extra request and checks the required
/// series are present with monotonically advancing counters.
fn check_metrics(
    client: &mut FlowClient,
    fail: impl Fn(std::io::Error) -> String,
) -> Result<(), String> {
    let first = client.metrics().map_err(&fail)?;
    for series in [
        "flow_engine_functions_analyzed_total",
        "flow_engine_cache_hits_total",
        "flow_service_requests_total{kind=\"summary\"}",
        "flow_service_request_seconds_count{kind=\"metrics\"}",
        "flow_service_queue_depth",
        "flow_server_connections_total",
        "flow_server_requests_total",
        "flow_server_bytes_read_total",
        "flow_server_bytes_written_total",
        "flow_server_request_wire_seconds_count{kind=\"stats\"}",
    ] {
        check(
            sample(&first, series).is_some(),
            &format!("metrics scrape contains {series}"),
        )?;
    }
    // One more request in between: every wire/service counter it touches
    // must advance by the second scrape.
    client.stats().map_err(&fail)?;
    let second = client.metrics().map_err(&fail)?;
    for series in [
        "flow_server_requests_total",
        "flow_server_bytes_read_total",
        "flow_server_bytes_written_total",
        "flow_service_requests_total{kind=\"stats\"}",
    ] {
        let a = sample(&first, series).unwrap_or(0.0);
        let b = sample(&second, series).unwrap_or(0.0);
        check(
            b > a,
            &format!("{series} advanced across scrapes ({a} -> {b})"),
        )?;
    }
    print!("{second}");
    Ok(())
}

/// Round-trips a `lint` query (checked bit-exact against the reference's
/// linter run) and asserts the lint observability counters advance across
/// two metrics scrapes.
fn check_lint(
    client: &mut FlowClient,
    reference: &Reference,
    main: FuncId,
    epoch: u64,
    fail: impl Fn(std::io::Error) -> String,
) -> Result<(), String> {
    let first = client.metrics().map_err(&fail)?;
    let (lint_epoch, findings) = client.lint(main).map_err(&fail)?;
    check(lint_epoch == epoch, "lint served from the pushed epoch")?;
    check(
        matches!(
            reference.answer(&QueryRequest::Lint(main)),
            Some(QueryResponse::Lint(expected)) if expected == findings
        ),
        "lint(main) == direct linter",
    )?;
    check(
        findings
            .iter()
            .any(|f| f.pass == LintPass::SecretToDebugSink),
        "fixture's password leak is flagged by the lint",
    )?;
    let second = client.metrics().map_err(&fail)?;
    for series in [
        "flow_lint_checks_total",
        "flow_lint_findings_total",
        "flow_service_requests_total{kind=\"lint\"}",
    ] {
        let a = sample(&first, series).unwrap_or(0.0);
        let b = sample(&second, series).unwrap_or(0.0);
        check(
            b > a,
            &format!("{series} advanced across scrapes ({a} -> {b})"),
        )?;
    }
    Ok(())
}

/// Connects with [`FlowClient::connect_retry`] and, given a token, sends
/// the `auth` preamble.
fn connect(addr: &str, auth: Option<&str>) -> std::io::Result<FlowClient> {
    let mut client = FlowClient::connect_retry(addr, &ClientConfig::default(), CONNECT_ATTEMPTS)?;
    if let Some(token) = auth {
        client.auth(token)?;
    }
    Ok(client)
}

fn run(
    addr: &str,
    metrics: bool,
    lint: bool,
    shutdown: bool,
    auth: Option<&str>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("i/o against {addr}: {e}");

    // Phase 1, the raw socket of an authenticated client: garbage never
    // kills the connection — each bad line yields a structured `error`
    // response and the line after it is served normally.
    {
        let stream = connect(addr, auth)
            .and_then(FlowClient::into_stream)
            .map_err(fail)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(fail)?);
        let mut writer = stream;
        let mut line = String::new();
        writer
            .write_all(b"complete garbage\nsummary notanumber\nstats\n")
            .map_err(fail)?;
        for expect_error in [true, true, false] {
            line.clear();
            reader.read_line(&mut line).map_err(fail)?;
            let envelope = codec::decode_envelope(line.trim_end())
                .map_err(|e| format!("undecodable response {line:?}: {e}"))?;
            check(
                matches!(envelope.response, QueryResponse::Error(_)) == expect_error,
                &format!("garbage-phase response {line:?} (expect_error={expect_error})"),
            )?;
        }
    }

    // Phase 2: push a known program and compare every answer against a
    // local direct analysis of the same source.
    let program =
        flowistry_lang::compile(SOURCE).map_err(|d| format!("bad fixture: {}", d.message))?;
    let main = program.func_id("main").expect("fixture has main");
    let store = program.func_id("store").expect("fixture has store");
    let policy = Policy::from_conventions(&program);
    let reference = Reference::new(
        Arc::new(program),
        AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
    );
    check(
        matches!(
            reference.answer(&QueryRequest::CheckPolicy(policy.clone())),
            Some(QueryResponse::CheckPolicy(diagnostics)) if !diagnostics.is_empty()
        ),
        "fixture produces an IFC violation",
    )?;

    let mut client = connect(addr, auth).map_err(fail)?;
    let epoch = client.update(SOURCE).map_err(fail)?;

    // Summary, full per-location results, the backward slice of the
    // password variable, the raw location-level slice of the return value,
    // the fixture's password → insecure_print flow, and a bad function id
    // (a structured error, then normal service): each bit-identical to the
    // direct answer.
    for (request, what) in [
        (QueryRequest::Summary(store), "summary(store)"),
        (QueryRequest::Results(main), "results(main)"),
        (
            QueryRequest::BackwardSlice {
                func: main,
                var: "password".to_string(),
            },
            "slice(main, password)",
        ),
        (
            QueryRequest::BackwardSliceAt {
                func: main,
                place: Place::return_place(),
                loc: Location {
                    block: BasicBlock(0),
                    statement_index: 0,
                },
            },
            "slice-at(main)",
        ),
        (QueryRequest::CheckPolicy(policy), "check-policy"),
        (QueryRequest::Summary(FuncId(999)), "unknown function id"),
    ] {
        let envelope = client.query(&request).map_err(fail)?;
        check(
            envelope.epoch == epoch,
            &format!("{what} answered from the pushed epoch"),
        )?;
        // Only the bad id is an error: the reference shares the service's
        // validation, so equality alone would not notice a rejected valid id.
        let bad_id = matches!(request, QueryRequest::Summary(FuncId(999)));
        check(
            matches!(envelope.response, QueryResponse::Error(_)) == bad_id,
            &format!("{what} answers an error iff the id is unknown"),
        )?;
        check(
            Some(envelope.response) == reference.answer(&request),
            &format!("{what} == direct analysis"),
        )?;
    }

    // Stats round-trip.
    let (stats_epoch, stats) = client.stats().map_err(fail)?;
    check(stats_epoch == epoch, "stats served from the pushed epoch")?;
    check(stats.epoch == epoch, "stats payload epoch")?;
    check(stats.served > 0, "served counter advanced")?;
    check(stats.updates_applied > 0, "update was applied")?;

    if metrics {
        check_metrics(&mut client, fail)?;
    }

    if lint {
        check_lint(&mut client, &reference, main, epoch, fail)?;
    }

    if shutdown {
        client.shutdown_server().map_err(fail)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: flow-smoke <HOST:PORT> [--metrics] [--lint] [--shutdown] [--auth TOKEN]");
        ExitCode::from(2)
    };
    let mut addr = None;
    let mut metrics = false;
    let mut lint = false;
    let mut shutdown = false;
    let mut auth = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            "--lint" => lint = true,
            "--shutdown" => shutdown = true,
            "--auth" => match iter.next() {
                Some(token) => auth = Some(token.clone()),
                None => return usage(),
            },
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other),
            _ => return usage(),
        }
    }
    let Some(addr) = addr else { return usage() };
    match run(addr, metrics, lint, shutdown, auth.as_deref()) {
        Ok(()) => {
            println!("flow-smoke OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flow-smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
