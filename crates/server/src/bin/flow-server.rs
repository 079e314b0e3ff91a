//! The standalone analysis server: compiles a source file, builds a
//! [`FlowService`], and serves the wire
//! protocol over TCP until a `shutdown` command arrives.
//!
//! ```text
//! flow-server <source-file> [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N]
//!             [--stats-interval SECS] [--cache-dir DIR] [--auth-token TOKEN]
//!             [--rate-limit N] [--burst N] [--max-line-bytes N]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (an ephemeral port); the bound
//! address is printed as `flow-server listening on <addr>` so scripts can
//! scrape it. `--workers` sizes the service's query pool and `--max-conns`
//! the live-connection cap (`0` = `FLOWISTRY_ENGINE_THREADS` or available
//! parallelism, like every engine pool). `--stats-interval SECS` (default
//! off) logs a one-line traffic summary at info level every `SECS` seconds
//! — visible with `FLOWISTRY_LOG=info`.
//!
//! Fleet knobs: `--cache-dir DIR` points the engine at a (shareable)
//! on-disk summary cache, so replicas respawned by `flow-router`
//! warm-start from their siblings' work. `--auth-token TOKEN` requires
//! the `auth` connection preamble (also readable from
//! `FLOW_SERVER_AUTH_TOKEN` to keep tokens off the command line);
//! `--rate-limit N` caps each connection at N requests/second with bursts
//! of `--burst` (default 64), and `--max-line-bytes N` bounds request
//! lines.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_engine::{AnalysisEngine, EngineConfig, FlowService, ServiceConfig};
use flowistry_server::{FlowServer, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: flow-server <source-file> [--addr HOST:PORT] [--workers N] [--queue N] \
         [--max-conns N] [--stats-interval SECS] [--cache-dir DIR] [--auth-token TOKEN] \
         [--rate-limit N] [--burst N] [--max-line-bytes N]"
    );
    ExitCode::from(2)
}

/// Spawns the detached `--stats-interval` logger: one info-level line per
/// tick, read straight off the shared metrics registry. The thread never
/// joins — the process exits out from under it when the server stops.
fn spawn_stats_logger(registry: std::sync::Arc<flowistry_obs::Registry>, secs: u64) {
    let connections = registry.counter("flow_server_connections_total", "");
    let requests = registry.counter("flow_server_requests_total", "");
    let decode_errors = registry.counter("flow_server_decode_errors_total", "");
    let bytes_read = registry.counter("flow_server_bytes_read_total", "");
    let bytes_written = registry.counter("flow_server_bytes_written_total", "");
    let queue_depth = registry.gauge("flow_service_queue_depth", "");
    std::thread::Builder::new()
        .name("flow-stats".to_string())
        .spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            flowistry_obs::info!(
                "stats: connections={} requests={} decode_errors={} \
                 bytes_read={} bytes_written={} queue_depth={}",
                connections.value(),
                requests.value(),
                decode_errors.value(),
                bytes_read.value(),
                bytes_written.value(),
                queue_depth.value(),
            );
        })
        .expect("spawn stats logger");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source_path = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = 0usize;
    let mut queue = 256usize;
    let mut stats_interval = 0u64;
    let mut cache_dir: Option<String> = None;
    let mut edge = ServerConfig {
        auth_token: std::env::var("FLOW_SERVER_AUTH_TOKEN").ok(),
        ..ServerConfig::default()
    };

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut flag_value = |name: &str| -> Option<String> {
            let v = iter.next();
            if v.is_none() {
                eprintln!("flow-server: {name} needs a value");
            }
            v.cloned()
        };
        match arg.as_str() {
            "--addr" => match flag_value("--addr") {
                Some(v) => addr = v,
                None => return usage(),
            },
            "--workers" => match flag_value("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return usage(),
            },
            "--queue" => match flag_value("--queue").and_then(|v| v.parse().ok()) {
                Some(v) => queue = v,
                None => return usage(),
            },
            "--max-conns" => match flag_value("--max-conns").and_then(|v| v.parse().ok()) {
                Some(v) => edge.max_connections = v,
                None => return usage(),
            },
            "--stats-interval" => {
                match flag_value("--stats-interval").and_then(|v| v.parse().ok()) {
                    Some(v) => stats_interval = v,
                    None => return usage(),
                }
            }
            "--cache-dir" => match flag_value("--cache-dir") {
                Some(v) => cache_dir = Some(v),
                None => return usage(),
            },
            flag if ServerConfig::FLAGS.contains(&flag) => match flag_value(flag) {
                Some(v) if edge.set_flag(flag, &v) => {}
                _ => return usage(),
            },
            other if source_path.is_none() && !other.starts_with('-') => {
                source_path = Some(other.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(source_path) = source_path else {
        return usage();
    };

    let source = match std::fs::read_to_string(&source_path) {
        Ok(s) => s,
        Err(e) => {
            flowistry_obs::error!("cannot read {source_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match flowistry_lang::compile(&source) {
        Ok(p) => p,
        Err(diag) => {
            flowistry_obs::error!("{source_path} does not compile: {}", diag.message);
            return ExitCode::FAILURE;
        }
    };

    let mut engine_config = EngineConfig::default()
        .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM))
        .with_threads(workers);
    if let Some(dir) = &cache_dir {
        engine_config = engine_config.with_cache_path(dir);
    }
    let engine = AnalysisEngine::new(program, engine_config);
    let service = FlowService::new(
        engine,
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(queue),
    );
    let server = match FlowServer::bind(service, addr.as_str(), edge) {
        Ok(s) => s,
        Err(e) => {
            flowistry_obs::error!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stats_interval > 0 {
        spawn_stats_logger(server.metrics_registry().clone(), stats_interval);
    }

    // Stays on stdout (not the logger): scripts scrape this line for the
    // bound port, whatever FLOWISTRY_LOG is set to.
    println!("flow-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    flowistry_obs::info!("flow-server shut down");
    ExitCode::SUCCESS
}
