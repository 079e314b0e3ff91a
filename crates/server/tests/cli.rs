//! `flow-server`'s command line: the edge budget flags it shares with
//! `flow-router` ([`ServerConfig::FLAGS`]) exit 2 with the usage line on a
//! missing or malformed value, and parse when well formed; those runs fail
//! in the flag parser or on the missing source file after it. One server
//! does start, to show where `--cache-dir` puts the summary cache.

use flowistry_server::{FlowClient, ServerConfig};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

fn flow_server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flow-server"))
        .args(args)
        .env_remove("FLOW_SERVER_AUTH_TOKEN")
        .output()
        .expect("run flow-server")
}

fn assert_usage(output: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{what}: {stderr}");
    assert!(
        stderr.contains("usage: flow-server <source-file>"),
        "{what}: {stderr}"
    );
}

#[test]
fn budget_flags_without_a_value_exit_2_with_usage() {
    for flag in ServerConfig::FLAGS {
        let output = flow_server(&["missing.rox", flag]);
        assert_usage(&output, flag);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{stderr}"
        );
    }
}

#[test]
fn malformed_budget_values_exit_2_with_usage() {
    for (flag, value) in [
        ("--rate-limit", "fast"),
        ("--burst", "-1"),
        ("--burst", "4294967296"),
        ("--max-line-bytes", "1MiB"),
    ] {
        assert_usage(&flow_server(&["missing.rox", flag, value]), flag);
    }
}

#[test]
fn well_formed_budget_flags_reach_the_source_check() {
    let output = flow_server(&[
        "missing.rox",
        "--auth-token",
        "t",
        "--rate-limit",
        "2.5",
        "--burst",
        "8",
        "--max-line-bytes",
        "4096",
        "--max-conns",
        "2",
    ]);
    // Exit 1, not 2: the flags parsed and reading the source failed.
    assert_eq!(output.status.code(), Some(1), "{output:?}");
}

#[test]
fn set_flag_sets_the_budget_each_flag_names() {
    let mut config = ServerConfig::default();
    for (flag, value) in [
        ("--auth-token", "t"),
        ("--rate-limit", "2.5"),
        ("--burst", "8"),
        ("--max-line-bytes", "4096"),
    ] {
        assert!(config.set_flag(flag, value), "{flag} {value}");
    }
    assert_eq!(config.auth_token.as_deref(), Some("t"));
    assert_eq!(config.rate_limit, 2.5);
    assert_eq!(config.rate_burst, 8);
    assert_eq!(config.max_line_bytes, 4096);
    // A malformed value or a flag outside the shared set changes nothing.
    assert!(!config.set_flag("--burst", "many"));
    assert!(!config.set_flag("--max-conns", "2"));
    assert_eq!(config.rate_burst, 8);
    assert_eq!(config.max_connections, 0);
}

/// The names of the entries of directory `dir`.
fn entry_names(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// A spawned server, killed and reaped if the test panics before it
/// exits on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `--cache-dir D` keeps the summary cache inside `D`: after a server ran
/// and shut down, `D` holds its `summaries.<N>.cache` shards and nothing
/// named `D.*` lies beside `D`.
#[test]
fn cache_dir_holds_the_summary_shards() {
    let root = std::env::temp_dir().join(format!("flow-server-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create test dir");
    let source = root.join("program.rox");
    std::fs::write(
        &source,
        "fn bump(p: &mut i32) { *p = *p + 1; }\n\
         fn main(v: i32) -> i32 { let mut x = v; bump(&mut x); return x; }\n",
    )
    .expect("write source");
    let cache = root.join("cache");
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_flow-server"))
            .arg(&source)
            .arg("--cache-dir")
            .arg(&cache)
            .env_remove("FLOW_SERVER_AUTH_TOKEN")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn flow-server"),
    );
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("flow-server listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"));
    FlowClient::connect(addr)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    assert!(server.0.wait().expect("wait").success());

    let shards = entry_names(&cache)
        .into_iter()
        .filter(|name| name.starts_with("summaries.") && name.ends_with(".cache"))
        .count();
    assert!(shards > 0, "no summaries.*.cache in {}", cache.display());
    let beside: Vec<String> = entry_names(&root)
        .into_iter()
        .filter(|name| name.starts_with("cache."))
        .collect();
    assert!(beside.is_empty(), "cache files beside the dir: {beside:?}");
    let _ = std::fs::remove_dir_all(&root);
}
