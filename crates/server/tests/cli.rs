//! `flow-server`'s command line: the edge budget flags it shares with
//! `flow-router` ([`ServerConfig::FLAGS`]) exit 2 with the usage line on a
//! missing or malformed value, and parse when well formed. No server
//! starts: every run either fails in the flag parser or on the missing
//! source file after it.

use flowistry_server::ServerConfig;
use std::process::{Command, Output};

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
