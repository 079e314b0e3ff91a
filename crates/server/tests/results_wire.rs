//! The `results` wire form against real analyses of generated corpus
//! crates: every function round-trips to an equal value, decoded states
//! share exactly one row allocation per row-table entry, tree-domain and
//! indexed results decode to equal values, the `rav1e` driver payloads
//! stay under a size gate, the encoded bytes of two whole crates are
//! pinned by a hash, and seeded byte mutations of real lines never panic
//! the decoder.
//!
//! ```text
//! cargo test --release -p flowistry-server --test results_wire
//! ```

use flowistry_core::{analyze, AnalysisParams, BitSet, Condition, DomainKind, InfoFlowResults};
use flowistry_corpus::{paper_profiles, GeneratedCrate, DEFAULT_SEED};
use flowistry_engine::{QueryEnvelope, QueryResponse};
use flowistry_lang::types::FuncId;
use flowistry_server::codec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// 64-bit FNV-1a, folded over `bytes` starting from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exact bytes of every `results` line of `rav1e` and `rocket`, under
/// the Whole-program and Modular conditions. A codec change that keeps
/// values equal but moves a byte (a different row numbering, a reordered
/// entry) round-trips fine and still fails here: the other tests compare
/// lines only with the same codec's own output.
#[test]
fn results_wire_bytes_of_two_crates_are_pinned() {
    const LINES: usize = 224;
    const BYTES: usize = 2_100_887;
    const HASH: u64 = 0xe13a_80d7_d5e8_9e47;
    let mut lines = 0;
    let mut bytes = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for name in ["rav1e", "rocket"] {
        let krate = corpus_crate(name);
        for condition in [Condition::WHOLE_PROGRAM, Condition::MODULAR] {
            let params = AnalysisParams::for_condition(condition);
            for func in 0..krate.program.bodies.len() as u32 {
                let line = encode(analyze(&krate.program, FuncId(func), &params));
                lines += 1;
                bytes += line.len();
                hash = fnv1a(fnv1a(hash, line.as_bytes()), b"\n");
            }
        }
    }
    println!("{lines} results lines, {bytes} bytes, FNV-1a {hash:#018x}");
    assert_eq!((lines, bytes, hash), (LINES, BYTES, HASH));
}

/// Seeded byte mutations of real `results` lines: one byte deleted,
/// duplicated or replaced by a digit or separator of the grammar, or the
/// line truncated. The decoder never panics on one, and every line it
/// accepts re-encodes to a line that decodes to an equal value.
#[test]
fn mutated_results_lines_never_panic_and_accepted_ones_reencode() {
    const CASES: usize = 2048;
    const ALPHABET: &[u8] = b"0123456789,+:|^!~-";
    let krate = corpus_crate("rocket");
    let params = params(DomainKind::Indexed);
    let lines: Vec<String> = krate
        .crate_funcs
        .iter()
        .map(|&f| encode(analyze(&krate.program, f, &params)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x6d75_7461_7465);
    let mut accepted = 0;
    for case in 0..CASES {
        let line = lines[rng.gen_range(0..lines.len())].as_bytes();
        let at = rng.gen_range(0..line.len());
        let mut bytes = line.to_vec();
        match rng.gen_range(0..4) {
            0 => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, line[at]),
            2 => bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
            _ => bytes.truncate(at),
        }
        let mutated = String::from_utf8(bytes).expect("results lines are ASCII");
        if let Ok(envelope) = codec::decode_envelope(&mutated) {
            accepted += 1;
            let again = codec::encode_envelope(&envelope);
            assert_eq!(
                codec::decode_envelope(&again).as_ref(),
                Ok(&envelope),
                "case {case}: {mutated:?} re-encodes to {again:?}"
            );
        }
    }
    println!("{accepted} of {CASES} mutated lines decode");
    assert!(
        (1..CASES).contains(&accepted),
        "{accepted} of {CASES} mutated lines decode: the cases cover one outcome only"
    );
}
