//! Scheduler-skew benchmark: work-stealing `analyze_all` on a corpus built
//! to maximize per-level cost skew, checked against the critical-path lower
//! bound no schedule can beat.
//!
//! The workload puts one *giant* SCC (a mutual-recursion cycle whose
//! members are expensive to summarize: naive recursion re-analyzes partner
//! bodies around the cycle) in the same scheduling level as many cheap leaf
//! functions, and stacks a deep call chain on top of one leaf. Under level
//! barriers the chain cannot start until the giant SCC finishes — every
//! level-0 worker joins before level 1 — so wall-clock is `giant + chain`.
//! The work-stealing scheduler releases each chain link the moment its
//! callee is summarized, so the chain overlaps the giant SCC and wall-clock
//! is `max(giant, chain)`.
//!
//! The lower bound is `max(critical path, total work / workers)`, where the
//! critical path is the cost-weighted longest chain through the
//! condensation. A barrier schedule pays `giant + chain`, about twice the
//! bound on this corpus; the headline check asserts that work stealing
//! stays close to the bound, two ways:
//!
//! 1. **Deterministically**, by measuring every component's summary cost
//!    once (sequentially) and simulating the work-stealing policy
//!    (event-driven greedy over the condensation DAG) for two workers. This
//!    captures the *structural* property and is immune to runner core
//!    counts and noise.
//! 2. **On the wall clock**, comparing a real two-worker `analyze_all` run
//!    with a one-worker run — asserted only when the machine actually has
//!    ≥ 2 cores (with one core there is nothing to overlap).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowistry_core::{compute_summary, AnalysisParams, CachedSummary, Condition};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_lang::types::FuncId;
use flowistry_lang::CallGraph;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

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

/// Measures every component's summary cost with one sequential bottom-up
/// pass (callee summaries seeded exactly as either scheduler would).
fn component_costs(
    program: &flowistry_lang::CompiledProgram,
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
/// component starts as soon as a worker is free and its callees are done —
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
                .max_by(|&a, &b| {
                    costs[ready[a]]
                        .partial_cmp(&costs[ready[b]])
                        .expect("finite costs")
                })
                .expect("nonempty ready set");
            let scc = ready.swap_remove(pick);
            running.push((now + costs[scc], scc));
        }
        // Advance to the next completion.
        let next = (0..running.len())
            .min_by(|&a, &b| running[a].0.partial_cmp(&running[b].0).expect("finite"))
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

fn cold_seconds(
    program: &std::sync::Arc<flowistry_lang::CompiledProgram>,
    params: &AnalysisParams,
    threads: usize,
) -> f64 {
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

fn bench_skewed_scc(c: &mut Criterion) {
    // Tuned so the giant SCC's cost is comparable to the chain's total
    // cost: a barrier schedule would pay `giant + chain`, work stealing
    // `max(giant, chain)`, putting the overlap near its 2x maximum.
    // (Retuned for the indexed dataflow domain: summaries now resolve once
    // per call site instead of once per fixpoint visit, which made cycle
    // members far cheaper relative to chain links — the SCC is bigger and
    // the chain shorter than the tree-domain tuning used.)
    let src = skewed_source(16, 16, 170);
    let program =
        std::sync::Arc::new(flowistry_lang::compile(&src).expect("skewed corpus compiles"));
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    // Two workers are enough to expose the skew (one gets stuck on the
    // giant SCC, the other runs the chain).
    let threads = 2;

    let mut group = c.benchmark_group("scheduler_skew");
    group.sample_size(10);
    for (name, workers) in [("sequential", 1), ("work_stealing", threads)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, program| {
            b.iter(|| {
                let mut engine = AnalysisEngine::new(
                    program.clone(),
                    EngineConfig::default()
                        .with_params(params.clone())
                        .with_threads(workers),
                );
                engine.analyze_all().analyzed
            })
        });
    }
    group.finish();

    // Acceptance check 1: the structural property, on measured
    // per-component costs — deterministic, independent of the runner's
    // core count.
    let call_graph = CallGraph::extract(&program);
    let costs = component_costs(&program, &call_graph, &params);
    let bound = makespan_lower_bound(&call_graph, &costs, threads);
    let stealing_sim = work_stealing_makespan(&call_graph, &costs, threads);
    println!(
        "scheduler_skew/makespan ({} components, critical path {} components, \
         {threads} workers): lower bound {:.3} ms vs work-stealing {:.3} ms ({:.2}x)",
        costs.len(),
        call_graph.critical_path_len(),
        bound * 1e3,
        stealing_sim * 1e3,
        stealing_sim / bound.max(1e-9)
    );
    assert!(
        stealing_sim < bound * 1.25,
        "on the skewed-SCC corpus the work-stealing schedule must stay near \
         the critical-path lower bound: {:.3} ms vs {:.3} ms",
        stealing_sim * 1e3,
        bound * 1e3
    );

    // Acceptance check 2: the overlap on the wall clock, asserted where it
    // is physically possible (≥ 2 cores). Retried: runners are noisy; the
    // shape guarantees the win, the retry guards the measurement.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measurements = Vec::new();
    let mut won = false;
    for attempt in 0..3 {
        let sequential = cold_seconds(&program, &params, 1);
        let stealing = cold_seconds(&program, &params, threads);
        println!(
            "scheduler_skew/attempt {attempt}: sequential {:.3} ms vs work-stealing {:.3} ms ({:.2}x)",
            sequential * 1e3,
            stealing * 1e3,
            sequential / stealing.max(1e-9)
        );
        measurements.push((sequential, stealing));
        if stealing < sequential {
            won = true;
            break;
        }
    }
    if cores < 2 {
        println!(
            "scheduler_skew: single-core machine — wall-clock overlap is \
             impossible, skipping the wall-clock assertion (the makespan \
             check above already asserted the structural property)"
        );
        return;
    }
    assert!(
        won,
        "two work-stealing workers must overlap the giant SCC with the chain \
         on the skewed-SCC corpus with {cores} cores; measurements \
         (sequential, work-stealing) in seconds: {measurements:?}"
    );
}

criterion_group!(benches, bench_skewed_scc);
criterion_main!(benches);
