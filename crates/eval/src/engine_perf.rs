//! Incremental-engine measurements: cold vs warm vs after-edit re-analysis,
//! and sequential vs parallel scheduling.
//!
//! The paper stops at *per-query* modularity: analyze one function in ~370µs
//! and avoid the 178× whole-program blow-up. The engine pushes the same
//! modularity across queries and across runs — summaries are computed once,
//! bottom-up, in parallel, and cached by content hash. This module measures
//! what that buys on the synthetic corpus:
//!
//! * **cold** — first `analyze_all` over a freshly generated crate;
//! * **warm** — `analyze_all` again with every summary cached;
//! * **edited** — one helper function's body is edited, the crate is
//!   re-compiled and re-analyzed: only the dirty cone is recomputed;
//! * **sequential vs parallel** — the same cold run with one worker thread
//!   versus the machine's available parallelism (the scheduler-skew gates
//!   in `tests/perf_gates.rs` use a corpus built to make the schedule's
//!   overlap matter).

use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::generate_crate;
use flowistry_engine::{AnalysisEngine, EngineConfig};
use std::sync::Arc;
use std::time::Instant;

/// Results of the incremental-engine experiment on one corpus crate.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Crate the experiment ran on.
    pub krate: String,
    /// Number of functions analyzed by the cold run.
    pub num_functions: usize,
    /// Seconds for the cold (empty-cache) run.
    pub cold_seconds: f64,
    /// Seconds for the fully warm re-run (every summary cached).
    pub warm_seconds: f64,
    /// Seconds for re-analysis after editing one helper function.
    pub edited_seconds: f64,
    /// Functions recomputed by the after-edit run (the dirty cone).
    pub edited_dirty: usize,
    /// `cold_seconds / edited_seconds` — the incremental speedup the
    /// engine's cache buys on a single-function edit.
    pub edit_speedup: f64,
    /// Seconds for a cold run restricted to one worker thread.
    pub sequential_seconds: f64,
    /// Seconds for a cold run using all available parallelism.
    pub parallel_seconds: f64,
    /// `sequential_seconds / parallel_seconds`.
    pub parallel_speedup: f64,
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// Successful deque steals in the parallel cold run.
    pub steals: usize,
}

/// Edits the body of `helper_0` in a generated crate's source: inserts one
/// extra statement right after the function's opening brace, which changes
/// that function's content hash and nothing else's.
pub fn edit_one_helper(source: &str) -> Option<String> {
    let fn_start = source.find("fn helper_0")?;
    let brace = source[fn_start..].find('{')? + fn_start;
    let mut edited = String::with_capacity(source.len() + 32);
    edited.push_str(&source[..=brace]);
    edited.push_str("\n    let zedit = 1;");
    edited.push_str(&source[brace + 1..]);
    Some(edited)
}

/// Runs the incremental experiment on the corpus crate generated from
/// `profile_index` (into [`flowistry_corpus::paper_profiles`]) and `seed`.
///
/// # Panics
///
/// Panics if the generated or edited crate fails to compile — both are
/// generator bugs.
pub fn measure_incremental(profile_index: usize, seed: u64) -> IncrementalReport {
    let profiles = flowistry_corpus::paper_profiles();
    let profile = &profiles[profile_index.min(profiles.len() - 1)];
    let krate = generate_crate(profile, seed);
    let program = Arc::new(krate.program.clone());
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some(krate.available_bodies()),
        ..AnalysisParams::default()
    };

    // Cold and warm, on the default (parallel) configuration.
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    let start = Instant::now();
    let cold_stats = engine.analyze_all();
    let cold_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let warm_stats = engine.analyze_all();
    let warm_seconds = start.elapsed().as_secs_f64();
    assert_eq!(warm_stats.analyzed, 0, "second run must be fully warm");

    // Edit one helper, recompile, re-analyze incrementally.
    let edited_source = edit_one_helper(&krate.source).expect("corpus crates define helper_0");
    let edited_program =
        Arc::new(flowistry_lang::compile(&edited_source).expect("edited crate compiles"));
    // Availability was expressed as FuncIds of the original program; the
    // edit keeps the function list identical, so it carries over.
    engine.update_program(edited_program);
    let start = Instant::now();
    let edited_stats = engine.analyze_all();
    let edited_seconds = start.elapsed().as_secs_f64();

    // Sequential vs parallel cold runs on fresh engines.
    let mut sequential = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(params.clone())
            .with_threads(1),
    );
    let start = Instant::now();
    sequential.analyze_all();
    let sequential_seconds = start.elapsed().as_secs_f64();

    let mut parallel = AnalysisEngine::new(program, EngineConfig::default().with_params(params));
    let start = Instant::now();
    let parallel_stats = parallel.analyze_all();
    let parallel_seconds = start.elapsed().as_secs_f64();

    IncrementalReport {
        krate: krate.name.clone(),
        num_functions: cold_stats.analyzed,
        cold_seconds,
        warm_seconds,
        edited_seconds,
        edited_dirty: edited_stats.analyzed,
        edit_speedup: cold_seconds / edited_seconds.max(1e-9),
        sequential_seconds,
        parallel_seconds,
        parallel_speedup: sequential_seconds / parallel_seconds.max(1e-9),
        threads: parallel_stats.threads,
        steals: parallel_stats.steals,
    }
}

/// Renders the report as a text block for the evaluation output.
pub fn render_incremental(report: &IncrementalReport) -> String {
    format!(
        "Incremental engine on `{}` ({} functions, {} threads)\n\
           cold analyze_all        {:>10.3} ms\n\
           warm re-run             {:>10.3} ms\n\
           after 1-function edit   {:>10.3} ms  ({} functions dirty)\n\
           edit speedup            {:>10.1}x\n\
           sequential cold         {:>10.3} ms\n\
           parallel cold           {:>10.3} ms  ({:.2}x, {} steals)\n",
        report.krate,
        report.num_functions,
        report.threads,
        report.cold_seconds * 1e3,
        report.warm_seconds * 1e3,
        report.edited_seconds * 1e3,
        report.edited_dirty,
        report.edit_speedup,
        report.sequential_seconds * 1e3,
        report.parallel_seconds * 1e3,
        report.parallel_speedup,
        report.steals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_corpus::DEFAULT_SEED;

    #[test]
    fn edit_changes_exactly_one_function() {
        let src = "fn helper_0(x: i32, y: i32) -> i32 {\n    return x + y;\n}\n\
                   fn drive_0(a: i32) -> i32 { return helper_0(a, 2); }\n";
        let edited = edit_one_helper(src).unwrap();
        assert!(edited.contains("zedit"));
        let p1 = flowistry_lang::compile(src).unwrap();
        let p2 = flowistry_lang::compile(&edited).unwrap();
        let h1 = flowistry_lang::function_content_hash(&p1, p1.func_id("helper_0").unwrap());
        let h2 = flowistry_lang::function_content_hash(&p2, p2.func_id("helper_0").unwrap());
        assert_ne!(h1, h2);
        assert!(edit_one_helper("fn nothing() {}").is_none());
    }

    #[test]
    fn incremental_run_touches_only_the_dirty_cone() {
        let report = measure_incremental(0, DEFAULT_SEED);
        assert!(report.num_functions > 10);
        assert!(
            report.edited_dirty < report.num_functions / 2,
            "editing one helper dirtied {}/{} functions",
            report.edited_dirty,
            report.num_functions
        );
        assert!(report.cold_seconds > 0.0);
        assert!(report.parallel_seconds > 0.0);
        let text = render_incremental(&report);
        assert!(text.contains("edit speedup"));
        assert!(text.contains("parallel cold"));
        assert!(text.contains(&report.krate));
    }
}
