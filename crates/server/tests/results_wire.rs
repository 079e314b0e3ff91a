//! The `results` wire form against real analyses of generated corpus
//! crates: every function round-trips to an equal value, decoded states
//! share exactly one row allocation per row-table entry, tree-domain and
//! indexed results decode to equal values, and the `rav1e` driver payloads
//! stay under a size gate.
//!
//! ```text
//! cargo test --release -p flowistry-server --test results_wire
//! ```

use flowistry_core::{analyze, AnalysisParams, BitSet, Condition, DomainKind, InfoFlowResults};
use flowistry_corpus::{paper_profiles, GeneratedCrate, DEFAULT_SEED};
use flowistry_engine::{QueryEnvelope, QueryResponse};
use flowistry_server::codec;
use std::collections::HashSet;
use std::sync::Arc;

/// Position of the row table among a `results` line's space-separated
/// fields: tag, epoch, function, boundary flag, iterations, places, deps,
/// rows.
const ROW_TABLE_FIELD: usize = 7;

/// The corpus crate `name` at the default corpus seed.
fn corpus_crate(name: &str) -> GeneratedCrate {
    let profile = paper_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .expect("corpus profile exists");
    flowistry_corpus::generate_crate(&profile, DEFAULT_SEED)
}

fn params(domain: DomainKind) -> AnalysisParams {
    AnalysisParams {
        domain,
        ..AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
    }
}

fn encode(results: InfoFlowResults) -> String {
    codec::encode_envelope(&QueryEnvelope {
        epoch: 0,
        response: QueryResponse::Results(Arc::new(results)),
        trace_id: None,
    })
}

fn decode(line: &str) -> Arc<InfoFlowResults> {
    match codec::decode_envelope(line).map(|e| e.response) {
        Ok(QueryResponse::Results(results)) => results,
        other => panic!("not a results envelope: {other:?}"),
    }
}

fn row_table_len(line: &str) -> usize {
    match line.split(' ').nth(ROW_TABLE_FIELD) {
        Some("-") => 0,
        Some(rows) => rows.split(',').count(),
        None => panic!("line has no row table: {line:?}"),
    }
}

/// Distinct row allocations over every state of `results`.
fn distinct_rows(results: &InfoFlowResults) -> usize {
    let view = results.indexed();
    let after: Vec<_> = (0..view.entry().len())
        .flat_map(|block| view.after_states(block))
        .collect();
    let states = view.entry().iter().chain(&after).chain([view.exit()]);
    let mut rows: HashSet<*const BitSet> = HashSet::new();
    for state in states {
        rows.extend(
            state
                .entries()
                .filter_map(|(_, row)| row)
                .map(|r| r as *const BitSet),
        );
    }
    rows.len()
}

#[test]
fn every_function_of_a_corpus_crate_roundtrips_with_shared_rows() {
    let krate = corpus_crate("rocket");
    let params = params(DomainKind::Indexed);
    for &func in &krate.crate_funcs {
        let results = analyze(&krate.program, func, &params);
        let line = encode(results.clone());
        let decoded = decode(&line);
        assert_eq!(*decoded, results, "function {func:?} changed on the wire");
        assert_eq!(
            distinct_rows(&decoded),
            row_table_len(&line),
            "function {func:?}: one shared row per row-table entry"
        );
        // One encoding per value: re-encoding the decoded value reproduces
        // the line byte for byte.
        assert_eq!(encode((*decoded).clone()), line, "function {func:?}");
    }
}

#[test]
fn tree_domain_and_indexed_results_decode_to_equal_values() {
    let krate = corpus_crate("rocket");
    for &func in &krate.crate_funcs {
        let tree = analyze(&krate.program, func, &params(DomainKind::Tree));
        let indexed = analyze(&krate.program, func, &params(DomainKind::Indexed));
        let from_tree = decode(&encode(tree.clone()));
        assert_eq!(*from_tree, tree, "function {func:?}: tree result changed");
        assert_eq!(
            *from_tree,
            *decode(&encode(indexed)),
            "function {func:?}: domains decode differently"
        );
    }
}

/// The `results` answers of `rav1e`'s drivers — the payloads of the
/// benchmark's `results-heavy` workload — together stay at least 10×
/// under the 43,468,123 bytes the per-location Θ text grammar took.
#[test]
fn rav1e_driver_payloads_stay_under_the_size_gate() {
    const GATE_BYTES: usize = 4_346_812;
    let krate = corpus_crate("rav1e");
    let params = params(DomainKind::Indexed);
    let drivers: Vec<_> = krate
        .crate_funcs
        .iter()
        .copied()
        .filter(|&f| krate.program.body(f).name.starts_with("drive_"))
        .collect();
    assert_eq!(drivers.len(), 26, "the rav1e profile's driver count");
    let bytes: usize = drivers
        .iter()
        .map(|&f| encode(analyze(&krate.program, f, &params)).len())
        .sum();
    println!("rav1e driver results payloads: {bytes} bytes");
    assert!(
        bytes <= GATE_BYTES,
        "{bytes} payload bytes exceed the {GATE_BYTES}-byte gate"
    );
}
