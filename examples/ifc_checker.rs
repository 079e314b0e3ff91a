//! The information flow control checker (Figure 5b), grown into the
//! lattice policy engine: a multi-level policy written in source
//! annotations, a declassification point, and structured diagnostics
//! carrying a flow witness.
//!
//! Run with: `cargo run --example ifc_checker`

use flowistry::ifc::{Policy, PolicyChecker};
use flowistry::prelude::compile;

/// An audit-logging program under the `Low < Med < High < TopSecret`
/// lattice, annotated in the source itself:
///
/// * `read_credentials` produces `High` data and `session_nonce` `Med`;
/// * `audit_log` is a sink cleared up to `Med`, `debug_dump` only to `Low`;
/// * `fingerprint`'s call in `login` is declassified — the hashed
///   credential may be logged even though its input is `High`.
const PROGRAM: &str = r#"
#![lattice(multi_level)]
#![default_label(Low)]

#[label(High)]
fn read_credentials(seed: i32) -> i32 { return seed * 31 + 7; }

#[label(Med)]
fn session_nonce(seed: i32) -> i32 { return seed + 100; }

fn fingerprint(x: i32) -> i32 { return x * 40503 + 13; }

#[sink(Med)]
fn audit_log(x: i32) -> i32 { return x; }

#[sink(Low)]
fn debug_dump(x: i32) -> i32 { return x; }

fn login(seed: i32, attempt: i32) -> bool {
    let cred = read_credentials(seed);
    let nonce = session_nonce(seed);
    #[declassify] let tag = fingerprint(cred);
    let ok1 = audit_log(tag);
    let ok2 = audit_log(nonce);
    let leak = debug_dump(nonce);
    return attempt == cred;
}
"#;

fn main() {
    let program = compile(PROGRAM).expect("the example program compiles");

    let policy = Policy::from_annotations(&program).expect("annotations are well-formed");
    let checker = PolicyChecker::new(&program, policy).expect("policy validates");
    println!(
        "lattice: {:?} (bottom {}, top {})",
        checker
            .lattice()
            .labels()
            .map(|l| checker.lattice().name(l))
            .collect::<Vec<_>>(),
        checker.lattice().name(checker.lattice().bottom()),
        checker.lattice().name(checker.lattice().top()),
    );

    let reports = checker.check_program();
    for report in &reports {
        println!("\nfunction `{}`:", report.function);
        for diag in &report.diagnostics {
            println!(
                "  VIOLATION at line {}: `{}` (cleared to {}) observes {} data",
                diag.line, diag.sink, diag.clearance, diag.incoming_label
            );
            for source in &diag.sources {
                println!("    source: {source}");
            }
            print!("    flow witness (lines):");
            for step in &diag.witness {
                print!(" {}", step.line);
            }
            println!();
        }
    }

    // What the declassification bought: `audit_log(tag)` is NOT among the
    // violations — `fingerprint(cred)` is a sanctioned release point —
    // while `debug_dump(nonce)` is, because `Med` exceeds its `Low`
    // clearance.
    let login = reports
        .iter()
        .find(|r| r.function == "login")
        .expect("login is reported");
    assert!(login.diagnostics.iter().all(|d| d.sink != "audit_log"));
    assert!(login.diagnostics.iter().any(|d| d.sink == "debug_dump"));
    println!("\n`audit_log(tag)` passes: the fingerprint call is declassified.");

    // The two-point naming-convention policy runs through the same checker.
    let conventions = PolicyChecker::new(&program, Policy::from_conventions(&program))
        .expect("the convention policy resolves");
    println!(
        "convention policy finds {} violation(s) here (no conventional names).",
        conventions
            .check_program()
            .iter()
            .map(|r| r.diagnostics.len())
            .sum::<usize>()
    );
}
