//! Property-based stress test for the work-stealing scheduler: over random
//! call DAGs and worker counts, the work-stealing schedule must produce
//! summaries and results bit-identical to a strictly sequential run (and to
//! direct analysis).

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_lang::types::FuncId;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Renders a random call DAG as a Rox program. Function `f{i}` calls a
/// subset of `f{0}..f{i}` chosen by `edge_bits` (so the graph is acyclic by
/// construction), mixing value flow, mutation through a reference, and a
/// control-dependent write — enough structure that a scheduling bug (a
/// caller analyzed before a callee's summary is published) changes the
/// summaries.
fn dag_source(n: usize, edge_bits: u64) -> String {
    let mut src = String::new();
    let mut bit = 0u32;
    for i in 0..n {
        let callees: Vec<usize> = (0..i)
            .filter(|_| {
                let take = edge_bits.rotate_left(bit) & 1 == 1;
                bit = bit.wrapping_add(1);
                take
            })
            .collect();
        let _ = writeln!(src, "fn f{i}(p: &mut i32, v: i32) -> i32 {{");
        let _ = writeln!(src, "    let mut acc = v;");
        for callee in callees {
            let _ = writeln!(src, "    let r{callee} = f{callee}(p, acc + 1);");
            let _ = writeln!(src, "    acc = acc + r{callee};");
        }
        let _ = writeln!(
            src,
            "    if acc > 7 {{ *p = *p + acc; }} else {{ *p = acc; }}"
        );
        let _ = writeln!(src, "    return acc + *p;");
        let _ = writeln!(src, "}}");
    }
    src
}

proptest! {
    #[test]
    fn random_dags_schedule_identically_across_thread_counts(
        n in 3usize..9,
        edge_bits in 0u64..u64::MAX,
    ) {
        let src = dag_source(n, edge_bits);
        let program = std::sync::Arc::new(
            flowistry_lang::compile(&src)
                .unwrap_or_else(|e| panic!("generated DAG failed to compile: {e:?}\n{src}")),
        );
        let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);

        // The reference: a strictly sequential work-stealing run.
        let mut reference = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default()
                .with_params(params.clone())
                .with_threads(1),
        );
        let ref_stats = reference.analyze_all();
        prop_assert_eq!(ref_stats.analyzed, n);

        for threads in [2usize, 8] {
            let mut engine = AnalysisEngine::new(
                program.clone(),
                EngineConfig::default()
                    .with_params(params.clone())
                    .with_threads(threads),
            );
            let stats = engine.analyze_all();
            prop_assert_eq!(stats.analyzed, ref_stats.analyzed);
            prop_assert_eq!(stats.cache_hits, 0);
            for i in 0..n {
                let func = FuncId(i as u32);
                prop_assert_eq!(
                    engine.summary(func),
                    reference.summary(func),
                    "summary of f{} diverged with {} threads",
                    i,
                    threads
                );
            }
        }

        // Spot-check the root against direct analysis (every function's
        // summary already matched; full per-location equality on the most
        // call-heavy function keeps the property cheap).
        let root = FuncId((n - 1) as u32);
        let direct = analyze(&program, root, &params);
        prop_assert_eq!(&*reference.results(root), &direct);
    }
}
