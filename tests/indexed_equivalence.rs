//! Bit-equality of the indexed dataflow domain against the tree domain.
//!
//! The indexed representation (`DomainKind::Indexed`, the default) must be
//! a pure performance change: for every program, function and condition it
//! has to produce `InfoFlowResults` that compare equal to the tree-map Θ
//! path (`DomainKind::Tree`), and therefore identical function summaries
//! and backward slices. This suite asserts exactly that over
//!
//! * the full generated corpus (all ten profile crates), and
//! * 128 seeded programs from `flowistry_corpus::random_program`, with
//!   branches, loops, references, tuples and calls. A failure names the
//!   seed and size; `random_program(seed, size)` rebuilds the program.

use flowistry::prelude::*;
use flowistry_core::places::all_body_places;
use flowistry_core::{DeltaEntry, FunctionSummary, InfoFlowResults};
use flowistry_corpus::{generate_corpus, random_program, DEFAULT_SEED};
use flowistry_lang::mir::{Local, Place};
use flowistry_lang::types::FuncId;
use std::collections::BTreeSet;

fn params(condition: Condition, domain: DomainKind) -> AnalysisParams {
    AnalysisParams {
        condition,
        domain,
        ..AnalysisParams::default()
    }
}

/// Analyzes `func` under both domains and asserts every observable output
/// is identical: the full per-location results, the extracted summary, and
/// the backward slice of the return place at every return location.
/// Returns the tree and the indexed results.
fn assert_equivalent(
    program: &CompiledProgram,
    func: FuncId,
    base: &AnalysisParams,
    context: &str,
) -> (InfoFlowResults, InfoFlowResults) {
    let tree = analyze(
        program,
        func,
        &AnalysisParams {
            domain: DomainKind::Tree,
            ..base.clone()
        },
    );
    let indexed = analyze(
        program,
        func,
        &AnalysisParams {
            domain: DomainKind::Indexed,
            ..base.clone()
        },
    );
    let body = program.body(func);
    assert_eq!(
        tree, indexed,
        "results differ for `{}` under {} ({context})",
        body.name, base.condition
    );
    assert_eq!(
        tree.iterations(),
        indexed.iterations(),
        "iteration counts differ for `{}` ({context})",
        body.name
    );
    assert_eq!(tree.hit_boundary(), indexed.hit_boundary());

    let tree_summary = FunctionSummary::from_results(body, &tree);
    let indexed_summary = FunctionSummary::from_results(body, &indexed);
    assert_eq!(
        tree_summary, indexed_summary,
        "summaries differ for `{}` ({context})",
        body.name
    );

    for loc in body.return_locations() {
        assert_eq!(
            tree.backward_slice(&Place::return_place(), loc),
            indexed.backward_slice(&Place::return_place(), loc),
            "backward slices at {loc} differ for `{}` ({context})",
            body.name
        );
    }
    (tree, indexed)
}

/// Every function of every corpus crate, under the modular condition (the
/// paper's headline analysis and the hot path of every layer above),
/// including every point query at every location and the stored shape of
/// the indexed results.
#[test]
fn corpus_modular_results_are_bit_identical() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let base = params(Condition::MODULAR, DomainKind::Indexed);
    // The suite's longest test: two workers, each taking every other crate.
    let [checked, absent, stored, per_location] = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let (corpus, base) = (&corpus, &base);
                scope.spawn(move || {
                    let mut counts = [0usize; 4];
                    for krate in corpus.iter().skip(worker).step_by(2) {
                        for &func in &krate.crate_funcs {
                            let program = &krate.program;
                            let results = assert_equivalent(program, func, base, &krate.name);
                            counts[1] +=
                                assert_point_queries_agree(program, func, &results, &krate.name);
                            let (stored, per_location) =
                                assert_deltas_are_canonical(program, func, &results, &krate.name);
                            counts[0] += 1;
                            counts[2] += stored;
                            counts[3] += per_location;
                        }
                    }
                    counts
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .fold([0; 4], |total, counts| {
                std::array::from_fn(|i| total[i] + counts[i])
            })
    });
    assert!(checked > 300, "corpus shrank: only {checked} functions");
    assert!(absent > 0, "no place outside a place table was queried");
    println!("stored rows {stored}, per-location present entries {per_location}");
    assert!(
        stored * 3 <= per_location,
        "{stored} stored rows for {per_location} per-location present entries"
    );
}

/// The stored shape of `func`'s indexed results. Each step's delta names
/// exactly the places whose presence or dependencies differ between the
/// tree oracle's states before and after the step, each once: the
/// canonical form that equality relies on. Returns the rows the results
/// store (entry states, deltas, exit) and the present entries of all the
/// per-location states they stand for.
fn assert_deltas_are_canonical(
    program: &CompiledProgram,
    func: FuncId,
    (tree, indexed): &(InfoFlowResults, InfoFlowResults),
    context: &str,
) -> (usize, usize) {
    let name = &program.body(func).name;
    let (_, entry, after, exit, _, _) = tree.raw_parts();
    let states = indexed.indexed();
    let deltas = states.deltas();
    assert_eq!(deltas.num_blocks(), entry.len(), "`{name}` ({context})");
    let mut per_location = entry.iter().chain([&exit]).map(|s| s.len()).sum();
    for (block, tree_after) in after.iter().enumerate() {
        assert_eq!(
            deltas.num_steps(block),
            tree_after.len(),
            "`{name}` ({context})"
        );
        let mut before = &entry[block];
        for (step, state) in tree_after.iter().enumerate() {
            let mut named: Vec<&Place> = deltas
                .step(block, step)
                .iter()
                .map(|entry| &states.places()[entry.place() as usize])
                .collect();
            named.sort();
            let differing: BTreeSet<&Place> = before
                .keys()
                .chain(state.keys())
                .filter(|place| before.get(*place) != state.get(*place))
                .collect();
            assert_eq!(
                named,
                differing.into_iter().collect::<Vec<_>>(),
                "`{name}` block {block} step {step} ({context})"
            );
            per_location += state.len();
            before = state;
        }
    }
    let full_rows = states
        .entry()
        .iter()
        .chain([states.exit()])
        .flat_map(|state| state.entries())
        .filter(|(_, row)| row.is_some())
        .count();
    let delta_rows = (0..deltas.num_blocks())
        .flat_map(|block| (0..deltas.num_steps(block)).map(move |step| (block, step)))
        .flat_map(|(block, step)| deltas.step(block, step))
        .filter(|entry| matches!(entry, DeltaEntry::Set(_, Some(_))))
        .count();
    (full_rows + delta_rows, per_location)
}

/// The point queries every reader uses (`deps_before`, `deps_after`,
/// `exit_deps`) answer on the indexed states exactly what the tree oracle's
/// `ThetaExt::read_conflicts` answers, at every location of `func`: for
/// every place in the indexed place table, every local's root place, and
/// every valid place of the body that the table lacks. Past a block's
/// first instruction `deps_before` reads the state `deps_after` reads at
/// the previous one (a core unit test pins that), so it is queried at
/// block entries. Returns how many places outside the table were queried.
fn assert_point_queries_agree(
    program: &CompiledProgram,
    func: FuncId,
    (tree, indexed): &(InfoFlowResults, InfoFlowResults),
    context: &str,
) -> usize {
    let body = program.body(func);
    let table = indexed.indexed().places().to_vec();
    let roots = (0..body.local_decls.len()).map(|l| Place::from_local(Local(l as u32)));
    let absent: Vec<Place> = all_body_places(body, &program.structs)
        .into_iter()
        .map(|(place, _)| place)
        .filter(|place| !table.contains(place))
        .collect();
    let mut places: Vec<Place> = table
        .iter()
        .cloned()
        .chain(roots)
        .chain(absent.clone())
        .collect();
    places.sort();
    places.dedup();
    let locations = body.all_locations();
    for place in &places {
        let why = || format!("`{}` at {place} ({context})", body.name);
        assert_eq!(tree.exit_deps(place), indexed.exit_deps(place), "{}", why());
        for &loc in &locations {
            if loc.statement_index == 0 {
                assert_eq!(
                    tree.deps_before(place, loc),
                    indexed.deps_before(place, loc),
                    "before {loc}: {}",
                    why()
                );
            }
            assert_eq!(
                tree.deps_after(place, loc),
                indexed.deps_after(place, loc),
                "after {loc}: {}",
                why()
            );
        }
    }
    absent.len()
}

/// The remaining headline conditions (whole-program, mut-blind, ref-blind)
/// on two representative crates: `rayon` (reference-light) and `sccache`
/// (call- and boundary-heavy). The modular condition is covered corpus-wide
/// above. Whole-program runs with summary memoization to keep the
/// naive-recursion cost bounded; the naive path is covered by the
/// random-program suite below and by the core unit tests.
#[test]
fn corpus_headline_conditions_are_bit_identical() {
    let corpus = generate_corpus(DEFAULT_SEED);
    for krate in [&corpus[0], &corpus[3]] {
        for condition in Condition::headline_four() {
            if condition == Condition::MODULAR {
                continue;
            }
            let base = AnalysisParams {
                condition,
                available_bodies: Some(krate.available_bodies()),
                memoize_summaries: condition.whole_program,
                ..AnalysisParams::default()
            };
            for &func in &krate.crate_funcs {
                assert_equivalent(&krate.program, func, &base, &krate.name);
            }
        }
    }
}

/// The fixpoint's answer does not depend on its visit order. Every corpus
/// function under the four headline conditions has the same block entry
/// states, deltas and exit state whether every fixpoint of the run takes
/// its priority from the loop-aware order (`analyze`) or from plain
/// reverse post-order, and the loop-aware order never needs more visits.
#[test]
fn corpus_results_do_not_depend_on_the_visit_order() {
    use flowistry_core::analyze_in_reverse_post_order;

    let corpus = generate_corpus(DEFAULT_SEED);
    let [analyses, loop_aware_visits, plain_visits] = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut counts = [0usize; 3];
                    for krate in corpus.iter().skip(worker).step_by(2) {
                        for condition in Condition::headline_four() {
                            let params = AnalysisParams {
                                condition,
                                available_bodies: Some(krate.available_bodies()),
                                memoize_summaries: condition.whole_program,
                                ..AnalysisParams::default()
                            };
                            for &func in &krate.crate_funcs {
                                let program = &krate.program;
                                let loop_aware = analyze(program, func, &params);
                                let plain = analyze_in_reverse_post_order(program, func, &params);
                                let why = || {
                                    format!(
                                        "`{}` under {condition} ({})",
                                        program.body(func).name,
                                        krate.name
                                    )
                                };
                                let (a, b) = (loop_aware.indexed(), plain.indexed());
                                assert_eq!(a.entry(), b.entry(), "entry states: {}", why());
                                assert_eq!(a.deltas(), b.deltas(), "deltas: {}", why());
                                assert_eq!(a.exit(), b.exit(), "exit state: {}", why());
                                assert_eq!(loop_aware.hit_boundary(), plain.hit_boundary());
                                assert!(
                                    loop_aware.iterations() <= plain.iterations(),
                                    "{} visits against {}: {}",
                                    loop_aware.iterations(),
                                    plain.iterations(),
                                    why()
                                );
                                counts[0] += 1;
                                counts[1] += loop_aware.iterations();
                                counts[2] += plain.iterations();
                            }
                        }
                    }
                    counts
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .fold([0; 3], |total, counts| {
                std::array::from_fn(|i| total[i] + counts[i])
            })
    });
    println!("{analyses} analyses: {loop_aware_visits} visits loop-aware, {plain_visits} plain");
    assert!(
        analyses > 4 * 700,
        "corpus shrank: only {analyses} analyses"
    );
    assert!(loop_aware_visits < plain_visits);
}

/// Seeded summary stores must behave identically too: computing every
/// summary bottom-up (the engine's unit of work) and re-serving analyses
/// from the seeds yields the same summaries on both domains.
#[test]
fn corpus_seeded_summaries_are_bit_identical() {
    use flowistry_core::{compute_summary, CachedSummary};
    use std::collections::HashMap;

    let krate = &generate_corpus(DEFAULT_SEED)[1];
    let mut by_domain = Vec::new();
    for domain in [DomainKind::Tree, DomainKind::Indexed] {
        let base = AnalysisParams {
            condition: Condition::WHOLE_PROGRAM,
            domain,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        let mut store: HashMap<FuncId, CachedSummary> = HashMap::new();
        // Positional order is good enough for seeding here: a missing callee
        // summary just means the analysis recurses, which must also match.
        for &func in &krate.crate_funcs {
            let entry = compute_summary(&krate.program, func, &base, &store);
            store.insert(func, entry);
        }
        by_domain.push(store);
    }
    assert_eq!(by_domain[0].len(), by_domain[1].len());
    for (func, tree_entry) in &by_domain[0] {
        assert_eq!(
            Some(tree_entry),
            by_domain[1].get(func),
            "seeded summary differs for {func:?}"
        );
    }
}

/// Random programs: the two domains agree on every function, under the
/// four headline conditions, including naive (unmemoized) whole-program
/// recursion.
#[test]
fn random_programs_are_bit_identical() {
    for seed in 0..128 {
        let size = 1 + seed as usize % 8;
        let src = random_program(seed, size);
        let program = compile(&src).expect("generated program compiles");
        let context = format!("random_program({seed}, {size})");
        for condition in Condition::headline_four() {
            let base = params(condition, DomainKind::Indexed);
            for i in 0..program.bodies.len() {
                assert_equivalent(&program, FuncId(i as u32), &base, &context);
            }
        }
    }
}
