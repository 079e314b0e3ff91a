//! Seeded stress test for the work-stealing scheduler: over random call
//! DAGs and worker counts, the work-stealing schedule must produce
//! summaries and results bit-identical to a strictly sequential run (and to
//! direct analysis).
//!
//! `flowistry_corpus::random_program(seed, n)` draws the DAG's `n`
//! functions and their edges from the seeded `StdRng`; a failure names the
//! seed and `n`.

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::random_program;
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_lang::types::FuncId;

#[test]
fn random_dags_schedule_identically_across_thread_counts() {
    for seed in 0..128 {
        let n = 3 + seed as usize % 6;
        let case = format!("seed {seed}, n {n}");
        let src = random_program(seed, n);
        let program =
            std::sync::Arc::new(flowistry_lang::compile(&src).unwrap_or_else(|e| {
                panic!("{case}: generated DAG failed to compile: {e:?}\n{src}")
            }));
        let functions = program.bodies.len();
        let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);

        // The reference: a strictly sequential work-stealing run.
        let mut reference = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default()
                .with_params(params.clone())
                .with_threads(1),
        );
        let ref_stats = reference.analyze_all();
        assert_eq!(ref_stats.analyzed, functions, "{case}");

        for threads in [2usize, 8] {
            let mut engine = AnalysisEngine::new(
                program.clone(),
                EngineConfig::default()
                    .with_params(params.clone())
                    .with_threads(threads),
            );
            let stats = engine.analyze_all();
            assert_eq!(stats.analyzed, ref_stats.analyzed, "{case}");
            assert_eq!(stats.cache_hits, 0, "{case}");
            for i in 0..functions {
                let func = FuncId(i as u32);
                assert_eq!(
                    engine.summary(func),
                    reference.summary(func),
                    "{case}: summary of `{}` diverged with {threads} threads",
                    program.body(func).name
                );
            }
        }

        // Spot-check the entry against direct analysis (every function's
        // summary already matched; full per-location equality on the most
        // call-heavy function keeps the property cheap).
        let root = program.func_id("f").expect("the entry function");
        let direct = analyze(&program, root, &params);
        assert_eq!(&*reference.results(root), &direct, "{case}");
    }
}
