//! Performance gates: the §5.1 claims and the engine built on them,
//! asserted as plain tests.
//!
//! * the incremental engine: one edit re-analyzes under a fifth of the
//!   program, at least 5× faster than a cold run;
//! * the work-stealing scheduler: on a corpus built for per-level cost
//!   skew, its makespan stays near the critical-path lower bound;
//! * the indexed dataflow domain: at least 3× faster than the tree domain
//!   on the large-body profile (writes `BENCH_infoflow.json` at the
//!   repository root);
//! * per-function telemetry: at most 5% of the analysis it wraps.
//!
//! Wall-clock ratios only mean something in an optimized build, so those
//! tests are ignored in debug builds. Run them with
//!
//! ```text
//! FLOWISTRY_ENGINE_THREADS=8 cargo test --release -p flowistry --test perf_gates -- --test-threads=1
//! ```
//!
//! (one test thread, so the timed gates do not contend with each other).
//! The deterministic halves (the dirty-cone size, the simulated makespan
//! and the instrumentation counter) run in every build.

use flowistry_core::{
    analyze, compute_summary, AnalysisParams, CachedSummary, Condition, DomainKind,
};
use flowistry_corpus::{generate_crate, paper_profiles, GeneratedCrate, DEFAULT_SEED};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_eval::json::Json;
use flowistry_lang::types::FuncId;
use flowistry_lang::{CallGraph, CompiledProgram};
use flowistry_obs::{Registry, Span};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn profile(name: &str) -> GeneratedCrate {
    let profile = paper_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{name} profile exists"));
    generate_crate(&profile, DEFAULT_SEED)
}

// ---------------------------------------------------------------------------
// Incremental engine: cold whole-program analysis vs re-analysis after one
// single-function edit, on the largest corpus crate.
// ---------------------------------------------------------------------------

/// Edits the body of `helper_0` in a generated crate's source: inserts one
/// extra statement right after the function's opening brace, which changes
/// that function's content hash and nothing else's.
fn edit_one_helper(source: &str) -> Option<String> {
    let fn_start = source.find("fn helper_0")?;
    let brace = source[fn_start..].find('{')? + fn_start;
    let mut edited = String::with_capacity(source.len() + 32);
    edited.push_str(&source[..=brace]);
    edited.push_str("\n    let zedit = 1;");
    edited.push_str(&source[brace + 1..]);
    Some(edited)
}

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

/// On the rg3d stand-in (the largest corpus crate): cold `analyze_all`,
/// then `analyze_all` after editing one helper, on one worker. The ratio is
/// a property of the cache (dirty cone vs whole program), and thread
/// scheduling would only add noise to it. Returns
/// `(cold seconds, cold analyzed, warm seconds, warm analyzed)`.
fn cold_then_edited() -> (f64, usize, f64, usize) {
    let krate = profile("rg3d");
    let edited_source = edit_one_helper(&krate.source).expect("helper_0 exists");
    let edited = flowistry_lang::compile(&edited_source).expect("edited crate compiles");
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some(krate.available_bodies()),
        ..AnalysisParams::default()
    };
    let mut engine = AnalysisEngine::new(
        Arc::new(krate.program),
        EngineConfig::default().with_params(params).with_threads(1),
    );
    let start = Instant::now();
    let cold = engine.analyze_all().analyzed;
    let cold_secs = start.elapsed().as_secs_f64();
    engine.update_program(Arc::new(edited));
    let start = Instant::now();
    let warm = engine.analyze_all().analyzed;
    (cold_secs, cold, start.elapsed().as_secs_f64(), warm)
}

#[test]
fn one_edit_dirties_under_a_fifth_of_the_functions() {
    let (_, cold, _, warm) = cold_then_edited();
    assert!(warm < cold / 5, "dirty cone too large: {warm}/{cold}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; CI runs it with --release")]
fn warm_reanalysis_after_one_edit_is_5x_faster_than_cold() {
    let (cold_secs, cold, warm_secs, warm) = cold_then_edited();
    let speedup = cold_secs / warm_secs.max(1e-9);
    println!(
        "engine_incremental: cold {:.3} ms ({cold} analyzed) vs edited {:.3} ms \
         ({warm} analyzed) => {speedup:.1}x",
        cold_secs * 1e3,
        warm_secs * 1e3,
    );
    assert!(
        speedup >= 5.0,
        "warm re-analysis after one edit must be at least 5x faster than cold \
         whole-program analysis, got {speedup:.1}x"
    );
}

// ---------------------------------------------------------------------------
// Scheduler skew: work stealing on a corpus built to maximize per-level
// cost skew, checked against the critical-path lower bound.
//
// The workload puts one giant SCC (a mutual-recursion cycle whose members
// are expensive to summarize) in the same scheduling level as many cheap
// leaf functions, and stacks a deep call chain on top of one leaf. Under
// level barriers the chain cannot start until the giant SCC finishes, so
// wall-clock is `giant + chain`, about twice the lower bound
// `max(critical path, total work / workers)`. Work stealing releases each
// chain link the moment its callee is summarized, so the chain overlaps
// the giant SCC and wall-clock is `max(giant, chain)`.
// ---------------------------------------------------------------------------

/// One giant `scc_size`-cycle plus `leaves` trivial functions in level 0,
/// and a `chain_depth`-deep caller chain rooted at leaf `s0`.
fn skewed_source(scc_size: usize, leaves: usize, chain_depth: usize) -> String {
    let mut src = String::new();
    for i in 0..scc_size {
        let next = (i + 1) % scc_size;
        let _ = writeln!(
            src,
            "fn g{i}(p: &mut i32, v: i32) -> i32 {{
                 let a = v + 1;
                 let mut b = a * 2;
                 if b > 6 {{ b = b - v; }} else {{ *p = *p + a; }}
                 let c = b + a;
                 let r = g{next}(p, c);
                 let d = r + c;
                 return d;
             }}"
        );
    }
    for i in 0..leaves {
        let _ = writeln!(
            src,
            "fn s{i}(p: &mut i32, v: i32) -> i32 {{
                 if v > 0 {{ *p = *p + v; }} else {{ *p = v; }}
                 return v * 2;
             }}"
        );
    }
    for i in 0..chain_depth {
        let callee = if i == 0 {
            "s0".to_string()
        } else {
            format!("c{}", i - 1)
        };
        let _ = writeln!(
            src,
            "fn c{i}(p: &mut i32, v: i32) -> i32 {{
                 let r1 = {callee}(p, v + 1);
                 let r2 = {callee}(p, r1);
                 let mut acc = r1 + r2;
                 if acc > 10 {{ acc = acc - v; }} else {{ *p = *p + acc; }}
                 return acc;
             }}"
        );
    }
    src
}

/// Two workers are enough to expose the skew: one gets stuck on the giant
/// SCC, the other runs the chain.
const SKEW_WORKERS: usize = 2;

/// The skewed corpus, tuned so the giant SCC costs about as much as the
/// whole chain, which puts the overlap near its 2× maximum.
fn skewed_program() -> (Arc<CompiledProgram>, AnalysisParams) {
    let program = flowistry_lang::compile(&skewed_source(16, 16, 170)).expect("skewed corpus");
    (
        Arc::new(program),
        AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
    )
}

/// Measures every component's summary cost with one sequential bottom-up
/// pass (callee summaries seeded exactly as either scheduler would).
fn component_costs(
    program: &CompiledProgram,
    call_graph: &CallGraph,
    params: &AnalysisParams,
) -> Vec<f64> {
    let mut store: HashMap<FuncId, CachedSummary> = HashMap::new();
    let mut costs = vec![0.0; call_graph.sccs().len()];
    for (idx, members) in call_graph.sccs().iter().enumerate() {
        let start = Instant::now();
        let produced: Vec<(FuncId, CachedSummary)> = members
            .iter()
            .map(|&f| (f, compute_summary(program, f, params, &store)))
            .collect();
        costs[idx] = start.elapsed().as_secs_f64();
        store.extend(produced);
    }
    costs
}

/// The makespan no schedule on `workers` workers can beat: the larger of
/// the cost-weighted critical path through the condensation and the total
/// work spread evenly.
fn makespan_lower_bound(call_graph: &CallGraph, costs: &[f64], workers: usize) -> f64 {
    // Callee components have lower indices, so one pass in index order
    // sees every callee's finish time before its callers.
    let mut finish = vec![0.0f64; costs.len()];
    for scc in 0..costs.len() {
        let ready = call_graph
            .scc_callees(scc)
            .iter()
            .map(|&callee| finish[callee])
            .fold(0.0f64, f64::max);
        finish[scc] = ready + costs[scc];
    }
    let critical_path = finish.iter().copied().fold(0.0f64, f64::max);
    critical_path.max(costs.iter().sum::<f64>() / workers as f64)
}

/// Makespan of a barrier-free greedy schedule on `workers` workers: a
/// component starts as soon as a worker is free and its callees are done,
/// the policy work stealing implements (event-driven simulation).
fn work_stealing_makespan(call_graph: &CallGraph, costs: &[f64], workers: usize) -> f64 {
    let mut deps = call_graph.scc_dependency_counts();
    let mut ready: Vec<usize> = (0..deps.len()).filter(|&s| deps[s] == 0).collect();
    let mut running: Vec<(f64, usize)> = Vec::new(); // (finish time, scc)
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut left = deps.len();
    while left > 0 {
        while running.len() < workers && !ready.is_empty() {
            // Largest ready component first, mirroring LPT.
            let pick = (0..ready.len())
                .max_by(|&a, &b| costs[ready[a]].total_cmp(&costs[ready[b]]))
                .expect("nonempty ready set");
            let scc = ready.swap_remove(pick);
            running.push((now + costs[scc], scc));
        }
        // Advance to the next completion.
        let next = (0..running.len())
            .min_by(|&a, &b| running[a].0.total_cmp(&running[b].0))
            .expect("running set nonempty while work remains");
        let (finish, scc) = running.swap_remove(next);
        now = finish;
        makespan = makespan.max(finish);
        left -= 1;
        for &caller in call_graph.scc_callers(scc) {
            deps[caller] -= 1;
            if deps[caller] == 0 {
                ready.push(caller);
            }
        }
    }
    makespan
}

/// The structural property, on measured per-component costs: independent
/// of the runner's core count, so it runs in every build.
#[test]
fn work_stealing_makespan_stays_near_the_critical_path_bound() {
    let (program, params) = skewed_program();
    let call_graph = CallGraph::extract(&program);
    let costs = component_costs(&program, &call_graph, &params);
    let bound = makespan_lower_bound(&call_graph, &costs, SKEW_WORKERS);
    let stealing = work_stealing_makespan(&call_graph, &costs, SKEW_WORKERS);
    println!(
        "scheduler_skew: {} components, critical path {} components, {SKEW_WORKERS} workers: \
         lower bound {:.3} ms vs work-stealing {:.3} ms ({:.2}x)",
        costs.len(),
        call_graph.critical_path_len(),
        bound * 1e3,
        stealing * 1e3,
        stealing / bound.max(1e-9)
    );
    assert!(
        stealing < bound * 1.25,
        "on the skewed-SCC corpus the work-stealing schedule must stay near \
         the critical-path lower bound: {:.3} ms vs {:.3} ms",
        stealing * 1e3,
        bound * 1e3
    );
}

fn cold_seconds(program: &Arc<CompiledProgram>, params: &AnalysisParams, threads: usize) -> f64 {
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(params.clone())
            .with_threads(threads),
    );
    let start = Instant::now();
    engine.analyze_all();
    start.elapsed().as_secs_f64()
}

/// The overlap on the wall clock, asserted where it is physically possible
/// (at least 2 cores). Retried: runners are noisy; the corpus's shape
/// guarantees the win, the retry guards the measurement.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; CI runs it with --release")]
fn two_workers_overlap_the_giant_scc_on_the_wall_clock() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("scheduler_skew: single core, nothing to overlap; skipped");
        return;
    }
    let (program, params) = skewed_program();
    let mut measurements = Vec::new();
    for _ in 0..3 {
        let sequential = cold_seconds(&program, &params, 1);
        let stealing = cold_seconds(&program, &params, SKEW_WORKERS);
        println!(
            "scheduler_skew: sequential {:.3} ms vs work-stealing {:.3} ms ({:.2}x)",
            sequential * 1e3,
            stealing * 1e3,
            sequential / stealing.max(1e-9)
        );
        if stealing < sequential {
            return;
        }
        measurements.push((sequential, stealing));
    }
    panic!(
        "two work-stealing workers must overlap the giant SCC with the chain \
         on the skewed-SCC corpus with {cores} cores; measurements \
         (sequential, work-stealing) in seconds: {measurements:?}"
    );
}

// ---------------------------------------------------------------------------
// Per-function cost (§5.1) on rav1e's stand-in, which has the largest
// function bodies of the corpus.
// ---------------------------------------------------------------------------

/// One timed sweep: analyze every crate function of `krate` under the
/// modular condition on `domain`. Returns (wall seconds, statements
/// analyzed). Each result is dropped at once: the point is the analysis
/// itself, what every layer above pays per function.
fn timed_sweep(krate: &GeneratedCrate, domain: DomainKind) -> (f64, usize) {
    let params = AnalysisParams {
        domain,
        ..AnalysisParams::default()
    };
    let mut statements = 0usize;
    let start = Instant::now();
    for &func in &krate.crate_funcs {
        let results = analyze(&krate.program, func, &params);
        assert!(results.iterations() > 0);
        statements += krate.program.body(func).instruction_count();
    }
    (start.elapsed().as_secs_f64(), statements)
}

/// The indexed domain against the tree domain; also writes the
/// `BENCH_infoflow.json` trajectory artifact.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; CI runs it with --release")]
fn indexed_domain_is_3x_faster_than_tree_on_rav1e() {
    let krate = profile("rav1e");
    // Warm-up pass (page in the program, fill allocator pools), untimed.
    let _ = timed_sweep(&krate, DomainKind::Indexed);
    let (tree_secs, statements) = timed_sweep(&krate, DomainKind::Tree);
    let (indexed_secs, _) = timed_sweep(&krate, DomainKind::Indexed);
    let speedup = tree_secs / indexed_secs.max(1e-12);

    let per_sec = |secs: f64| statements as f64 / secs.max(1e-12);
    println!(
        "per_function ({}): tree {:.1} ms ({:.0} stmts/s) vs indexed {:.1} ms ({:.0} stmts/s) => {speedup:.1}x",
        krate.name,
        tree_secs * 1e3,
        per_sec(tree_secs),
        indexed_secs * 1e3,
        per_sec(indexed_secs),
    );
    let domain_obj = |secs: f64| {
        Json::Obj(vec![
            ("wall_seconds".into(), Json::Num(secs)),
            ("statements_per_sec".into(), Json::Num(per_sec(secs))),
        ])
    };
    let report = Json::Obj(vec![
        ("profile".into(), Json::Str(krate.name.clone())),
        ("condition".into(), Json::Str("modular".into())),
        (
            "functions".into(),
            Json::Num(krate.crate_funcs.len() as f64),
        ),
        ("total_statements".into(), Json::Num(statements as f64)),
        ("tree".into(), domain_obj(tree_secs)),
        ("indexed".into(), domain_obj(indexed_secs)),
        ("speedup".into(), Json::Num(speedup)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_infoflow.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_infoflow.json");

    assert!(
        speedup >= 3.0,
        "indexed domain must be at least 3x faster than the tree domain \
         on the large-body profile, got {speedup:.2}x \
         (tree {tree_secs:.3}s vs indexed {indexed_secs:.3}s)"
    );
}

/// Runs `work` on every crate function of `krate`, each call wrapped in
/// exactly the telemetry the engine's scheduler adds per function: an RAII
/// span feeding a latency histogram, plus a functions-analyzed counter
/// increment. Returns wall seconds.
fn instrumented(krate: &GeneratedCrate, registry: &Registry, mut work: impl FnMut(FuncId)) -> f64 {
    let histogram = registry.histogram("gate_summary_compute_seconds", "");
    let analyzed = registry.counter("gate_functions_analyzed_total", "");
    let start = Instant::now();
    for &func in &krate.crate_funcs {
        let _span = Span::enter_with("summary_compute", krate.program.body(func).name.as_str())
            .with_histogram(histogram.clone());
        work(func);
        analyzed.inc();
    }
    start.elapsed().as_secs_f64()
}

/// The instrumentation the overhead gate times records every function it
/// wraps.
#[test]
fn telemetry_records_every_function() {
    let krate = profile("rav1e");
    let registry = Registry::new();
    let params = AnalysisParams::default();
    instrumented(&krate, &registry, |func| {
        assert!(analyze(&krate.program, func, &params).iterations() > 0);
    });
    let funcs = krate.crate_funcs.len() as u64;
    assert_eq!(
        registry
            .counter("gate_functions_analyzed_total", "")
            .value(),
        funcs
    );
    assert_eq!(
        registry
            .histogram("gate_summary_compute_seconds", "")
            .count(),
        funcs
    );
}

/// Per-function telemetry (one span, one histogram observation and one
/// counter increment per function; the fixpoint inner loop is deliberately
/// uninstrumented) must cost at most 5% of the sweep it wraps.
///
/// That cost is a few microseconds against a sweep of tens of
/// milliseconds, far below the sweep's run-to-run noise, so timing an
/// instrumented sweep against a plain one measures the noise. Instead the
/// same telemetry calls, the same number of times, are timed on their own
/// and added to the plain sweep. Both sides take the minimum of interleaved
/// rounds, so one scheduling hiccup cannot decide either.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; CI runs it with --release")]
fn per_function_telemetry_costs_at_most_5_percent() {
    // Events off, as in a production server without FLOWISTRY_LOG: the
    // gate measures the always-on metrics path, not stderr formatting.
    flowistry_obs::set_max_level(flowistry_obs::Level::Off);
    let krate = profile("rav1e");
    let registry = Registry::new();
    const ROUNDS: usize = 5;

    let _ = timed_sweep(&krate, DomainKind::Indexed); // warm-up, untimed
    let (mut plain, mut telemetry) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        plain = plain.min(timed_sweep(&krate, DomainKind::Indexed).0);
        telemetry = telemetry.min(instrumented(&krate, &registry, |_| {}));
    }
    let ratio = (plain + telemetry) / plain.max(1e-12);
    println!(
        "per_function/telemetry_overhead ({}): plain {:.3} ms, telemetry {:.1} us \
         for {} functions => {ratio:.5}x",
        krate.name,
        plain * 1e3,
        telemetry * 1e6,
        krate.crate_funcs.len(),
    );
    assert_eq!(
        registry
            .counter("gate_functions_analyzed_total", "")
            .value() as usize,
        ROUNDS * krate.crate_funcs.len(),
        "instrumentation must have recorded every function"
    );
    assert!(
        ratio <= 1.05,
        "per-function telemetry costs {:.1}% (> 5% budget): \
         plain {plain:.4}s vs telemetry {telemetry:.6}s",
        (ratio - 1.0) * 100.0,
    );
}
