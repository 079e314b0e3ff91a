//! The CI client smoke: connects to a running `flow-server`, pushes a
//! known program via `update`, and checks a summary + slice + results +
//! IFC + stats round-trip **bit-for-bit against a local direct analysis**
//! of the same source. Also pokes the server with garbage and bad ids to
//! confirm malformed input yields structured errors without killing the
//! connection.
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

use flowistry_core::{analyze, AnalysisParams, Condition, FunctionSummary};
use flowistry_engine::{QueryRequest, QueryResponse};
use flowistry_ifc::{Policy, PolicyChecker};
use flowistry_lang::mir::{BasicBlock, Location, Place};
use flowistry_lint::{LintPass, Linter};
use flowistry_server::{codec, ClientConfig, FlowClient};
use flowistry_slicer::Slicer;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

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

/// The value of the first sample whose series name starts with `prefix`,
/// from Prometheus exposition text.
fn sample_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
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
            sample_value(&first, series).is_some(),
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
        let a = sample_value(&first, series).unwrap_or(0.0);
        let b = sample_value(&second, series).unwrap_or(0.0);
        check(
            b > a,
            &format!("{series} advanced across scrapes ({a} -> {b})"),
        )?;
    }
    print!("{second}");
    Ok(())
}

/// Connects a raw socket, retrying transient refusals (server still
/// binding) with the same capped backoff as [`FlowClient::connect_retry`].
fn connect_raw_retry(addr: &str) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(1);
    let cap = Duration::from_millis(100);
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::TimedOut
                ) =>
            {
                last_err = Some(e);
                if attempt + 1 < CONNECT_ATTEMPTS {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(cap);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// Round-trips a `lint` query (checked bit-exact against the local
/// linter) and asserts the lint observability counters advance across two
/// metrics scrapes.
fn check_lint(
    client: &mut FlowClient,
    program: &flowistry_lang::CompiledProgram,
    main: flowistry_lang::types::FuncId,
    epoch: u64,
    direct_main: &flowistry_core::InfoFlowResults,
    fail: impl Fn(std::io::Error) -> String,
) -> Result<(), String> {
    let linter = Linter::new(program);
    let summary = FunctionSummary::from_results(program.body(main), direct_main);
    let expected = linter.lint_function(main, &summary, direct_main);

    let first = client.metrics().map_err(&fail)?;
    let (lint_epoch, findings) = client.lint(main).map_err(&fail)?;
    check(lint_epoch == epoch, "lint served from the pushed epoch")?;
    check(findings == expected, "lint(main) == direct linter")?;
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
        let a = sample_value(&first, series).unwrap_or(0.0);
        let b = sample_value(&second, series).unwrap_or(0.0);
        check(
            b > a,
            &format!("{series} advanced across scrapes ({a} -> {b})"),
        )?;
    }
    Ok(())
}

fn run(
    addr: &str,
    metrics: bool,
    lint: bool,
    shutdown: bool,
    auth: Option<&str>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("i/o against {addr}: {e}");

    // Phase 1, raw socket: garbage never kills the connection — each bad
    // line yields a structured `error` response and the line after it is
    // served normally.
    {
        let stream = connect_raw_retry(addr).map_err(fail)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(fail)?);
        let mut writer = stream;
        let mut line = String::new();
        if let Some(token) = auth {
            writeln!(writer, "{}", codec::encode_auth(token)).map_err(fail)?;
            reader.read_line(&mut line).map_err(fail)?;
            check(
                line.trim_end() == codec::AUTHED_LINE,
                &format!("auth preamble acked (got {line:?})"),
            )?;
        }
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
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let main = program.func_id("main").expect("fixture has main");
    let store = program.func_id("store").expect("fixture has store");

    let mut client = FlowClient::connect_retry(addr, &ClientConfig::default(), CONNECT_ATTEMPTS)
        .map_err(fail)?;
    if let Some(token) = auth {
        client.auth(token).map_err(fail)?;
    }
    let epoch = client.update(SOURCE).map_err(fail)?;

    // Summary: bit-identical to the summary extracted from direct analysis.
    let direct = analyze(&program, store, &params);
    let expected_summary = FunctionSummary::from_results(program.body(store), &direct);
    let envelope = client.query(&QueryRequest::Summary(store)).map_err(fail)?;
    check(
        envelope.epoch == epoch,
        "summary answered from the pushed epoch",
    )?;
    check(
        envelope.response == QueryResponse::Summary(Some(expected_summary)),
        "summary(store) == direct analysis",
    )?;

    // Results: full per-location states across the wire, still identical.
    let envelope = client.query(&QueryRequest::Results(main)).map_err(fail)?;
    let direct_main = analyze(&program, main, &params);
    match envelope.response {
        QueryResponse::Results(got) => check(*got == direct_main, "results(main) == direct")?,
        other => return Err(format!("results(main) answered {other:?}")),
    }

    // Backward slice of the password variable.
    let expected_slice =
        Slicer::new(&program, main, params.clone()).backward_slice_of_var("password");
    let envelope = client
        .query(&QueryRequest::BackwardSlice {
            func: main,
            var: "password".to_string(),
        })
        .map_err(fail)?;
    check(
        envelope.response == QueryResponse::BackwardSlice(expected_slice),
        "slice(main, password) == direct",
    )?;

    // Raw location-level slice.
    let place = Place::return_place();
    let loc = Location {
        block: BasicBlock(0),
        statement_index: 0,
    };
    let envelope = client
        .query(&QueryRequest::BackwardSliceAt {
            func: main,
            place: place.clone(),
            loc,
        })
        .map_err(fail)?;
    check(
        envelope.response
            == QueryResponse::BackwardSliceAt(direct_main.backward_slice(&place, loc)),
        "slice-at(main) == direct",
    )?;

    // IFC: the fixture's password → insecure_print flow must be reported.
    let policy = Policy::from_conventions(&program);
    let expected_diagnostics: Vec<_> = PolicyChecker::new(&program, policy.clone())
        .map_err(|e| format!("convention policy rejected: {e}"))?
        .with_params(params.clone())
        .check_program()
        .into_iter()
        .flat_map(|r| r.diagnostics)
        .collect();
    check(
        !expected_diagnostics.is_empty(),
        "fixture produces an IFC violation",
    )?;
    let envelope = client
        .query(&QueryRequest::CheckPolicy(policy))
        .map_err(fail)?;
    check(
        envelope.response == QueryResponse::CheckPolicy(expected_diagnostics),
        "check-policy == direct",
    )?;

    // Bad function id: a structured error, then normal service.
    let envelope = client
        .query(&QueryRequest::Summary(flowistry_lang::types::FuncId(999)))
        .map_err(fail)?;
    check(
        matches!(envelope.response, QueryResponse::Error(_)),
        "unknown function id answers an error",
    )?;

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
        check_lint(&mut client, &program, main, epoch, &direct_main, fail)?;
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
