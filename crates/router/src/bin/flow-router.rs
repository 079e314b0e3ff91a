//! The fleet front binary: spawns `N` `flow-server` replicas as child
//! processes (sharing one summary-cache directory), then routes the wire
//! protocol across them.
//!
//! ```text
//! flow-router <source-file> [--addr HOST:PORT] [--backends N] [--server-bin PATH]
//!             [--cache-dir DIR] [--workers N] [--vnodes N]
//!             [--auth-token TOKEN] [--backend-auth-token TOKEN]
//!             [--rate-limit N] [--burst N] [--max-line-bytes N]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0`; the bound address is printed as
//! `flow-router listening on <addr>` so scripts can scrape it (and each
//! respawn prints `flow-router respawned backend <i> at <addr>`).
//! `--backends` (default 3) sizes the fleet; `--server-bin` locates the
//! `flow-server` binary (default: next to this executable). `--cache-dir`
//! (default: a fresh temp dir) is handed to every replica so respawns
//! warm-start from their siblings' summaries.
//!
//! `--auth-token` (or `FLOW_ROUTER_AUTH_TOKEN`) guards the client-facing
//! edge; `--backend-auth-token` (or `FLOW_SERVER_AUTH_TOKEN`) is what the
//! router presents to replicas — the replicas are launched with the same
//! token required. `--rate-limit`/`--burst`/`--max-line-bytes` bound each
//! client connection, exactly like the same flags on `flow-server`.

use flowistry_router::{FlowRouter, ProcessLauncher, RouterConfig};
use flowistry_server::ServerConfig;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: flow-router <source-file> [--addr HOST:PORT] [--backends N] \
         [--server-bin PATH] [--cache-dir DIR] [--workers N] [--vnodes N] \
         [--auth-token TOKEN] [--backend-auth-token TOKEN] [--rate-limit N] [--burst N] \
         [--max-line-bytes N]"
    );
    ExitCode::from(2)
}

/// `flow-server` lives next to `flow-router` in every cargo layout; use
/// that unless `--server-bin` says otherwise.
fn default_server_bin() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("flow-server")))
        .unwrap_or_else(|| std::path::PathBuf::from("flow-server"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source_path: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut backends = 3usize;
    let mut server_bin: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut workers = 0usize;
    let mut vnodes = 0usize;
    let mut edge = ServerConfig {
        auth_token: std::env::var("FLOW_ROUTER_AUTH_TOKEN").ok(),
        ..ServerConfig::default()
    };
    let mut backend_auth_token = std::env::var("FLOW_SERVER_AUTH_TOKEN").ok();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut flag_value = |name: &str| -> Option<String> {
            let v = iter.next();
            if v.is_none() {
                eprintln!("flow-router: {name} needs a value");
            }
            v.cloned()
        };
        match arg.as_str() {
            "--addr" => match flag_value("--addr") {
                Some(v) => addr = v,
                None => return usage(),
            },
            "--backends" => match flag_value("--backends").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => backends = v,
                _ => return usage(),
            },
            "--server-bin" => match flag_value("--server-bin") {
                Some(v) => server_bin = Some(v),
                None => return usage(),
            },
            "--cache-dir" => match flag_value("--cache-dir") {
                Some(v) => cache_dir = Some(v),
                None => return usage(),
            },
            "--workers" => match flag_value("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return usage(),
            },
            "--vnodes" => match flag_value("--vnodes").and_then(|v| v.parse().ok()) {
                Some(v) => vnodes = v,
                None => return usage(),
            },
            "--backend-auth-token" => match flag_value("--backend-auth-token") {
                Some(v) => backend_auth_token = Some(v),
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
    if std::fs::metadata(&source_path).is_err() {
        flowistry_obs::error!("cannot read {source_path}");
        return ExitCode::FAILURE;
    }

    let server_bin = server_bin.map_or_else(default_server_bin, std::path::PathBuf::from);
    let cache_dir = match cache_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let dir =
                std::env::temp_dir().join(format!("flow-router-cache-{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                flowistry_obs::error!("cannot create cache dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            dir
        }
    };

    let mut backend_args = vec![
        "--cache-dir".to_string(),
        cache_dir.display().to_string(),
        "--workers".to_string(),
        workers.to_string(),
    ];
    if let Some(token) = &backend_auth_token {
        backend_args.push("--auth-token".to_string());
        backend_args.push(token.clone());
    }
    let launchers: Vec<Box<dyn flowistry_router::BackendLauncher>> = (0..backends)
        .map(|_| {
            Box::new(ProcessLauncher {
                binary: server_bin.clone(),
                source: std::path::PathBuf::from(&source_path),
                args: backend_args.clone(),
            }) as Box<dyn flowistry_router::BackendLauncher>
        })
        .collect();

    let config = RouterConfig {
        vnodes,
        edge,
        backend_auth_token,
        ..RouterConfig::default()
    };

    let router = match FlowRouter::start(launchers, addr.as_str(), config) {
        Ok(r) => r,
        Err(e) => {
            flowistry_obs::error!("cannot start fleet on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for i in 0..router.backend_count() {
        if let Some(backend_addr) = router.backend_addr(i) {
            flowistry_obs::info!("backend {i} listening on {backend_addr}");
        }
    }

    // Stays on stdout (not the logger): scripts scrape this line for the
    // bound port, whatever FLOWISTRY_LOG is set to.
    println!("flow-router listening on {}", router.local_addr());
    let _ = std::io::stdout().flush();
    router.wait();
    flowistry_obs::info!("flow-router shut down");
    ExitCode::SUCCESS
}
