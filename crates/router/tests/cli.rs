//! `flow-router`'s command line: the edge budget flags it shares with
//! `flow-server` ([`ServerConfig::FLAGS`]) exit 2 with the usage line on a
//! missing or malformed value, and parse when well formed. No fleet
//! starts: every run either fails in the flag parser or on the missing
//! source file after it.

use flowistry_server::ServerConfig;
use std::process::{Command, Output};

fn flow_router(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flow-router"))
        .args(args)
        .env_remove("FLOW_ROUTER_AUTH_TOKEN")
        .output()
        .expect("run flow-router")
}

fn assert_usage(output: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{what}: {stderr}");
    assert!(
        stderr.contains("usage: flow-router <source-file>"),
        "{what}: {stderr}"
    );
}

#[test]
fn budget_flags_without_a_value_exit_2_with_usage() {
    for flag in ServerConfig::FLAGS {
        let output = flow_router(&["missing.rox", flag]);
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
        assert_usage(&flow_router(&["missing.rox", flag, value]), flag);
    }
}

#[test]
fn well_formed_budget_flags_reach_the_source_check() {
    let output = flow_router(&[
        "missing.rox",
        "--auth-token",
        "t",
        "--rate-limit",
        "2.5",
        "--burst",
        "8",
        "--max-line-bytes",
        "4096",
    ]);
    // Exit 1, not 2: the flags parsed and the source check failed.
    assert_eq!(output.status.code(), Some(1), "{output:?}");
}
