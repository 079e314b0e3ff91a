//! Concurrent-serving stress test for [`FlowService`]: 8 threads hammer the
//! service with mixed queries while `update()` swaps edited programs
//! underneath. Every response must match a direct `analyze` of the epoch it
//! was served from, and no response may mix state from two epochs (a
//! "half-swapped snapshot" would show up as an answer matching no version).
//!
//! The scenario runs at 1, 2, and 8 query workers: one worker serializes
//! everything (answers must still be epoch-tagged correctly), 8 workers on
//! a small machine force preemption mid-query.

use flowistry_core::{analyze, AnalysisParams, Condition, FunctionSummary};
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, QueryRequest, QueryResponse, ServiceConfig,
};
use flowistry_ifc::{IfcDiagnostic, Policy, PolicyChecker};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use flowistry_slicer::{Slice, Slicer};
use std::fmt::Write as _;
use std::sync::Arc;

/// Same layered workload as the incremental tests: `modules` chains of
/// `depth` functions. Edits below touch bodies only, so `FuncId`s are
/// stable across every version.
fn layered_source(modules: usize, depth: usize) -> String {
    let mut src = String::new();
    for m in 0..modules {
        for l in 0..depth {
            if l == 0 {
                let _ = writeln!(
                    src,
                    "fn m{m}_l0(p: &mut i32, v: i32) -> i32 {{
                         if v > 0 {{ *p = *p + v; }} else {{ *p = v; }}
                         let a = v * 2;
                         let b = a + *p;
                         return b;
                     }}"
                );
            } else {
                let prev = l - 1;
                let _ = writeln!(
                    src,
                    "fn m{m}_l{l}(p: &mut i32, v: i32) -> i32 {{
                         let r1 = m{m}_l{prev}(p, v + 1);
                         let r2 = m{m}_l{prev}(p, r1);
                         let mut acc = r1 + r2;
                         if acc > 10 {{ acc = acc - v; }}
                         return acc;
                     }}"
                );
            }
        }
    }
    src
}

/// Everything a response can be checked against, computed directly (no
/// engine) for one program version.
struct Expected {
    program: Arc<CompiledProgram>,
    results: Vec<flowistry_core::InfoFlowResults>,
    summaries: Vec<FunctionSummary>,
    slices: Vec<Option<Slice>>,
    policy: Vec<IfcDiagnostic>,
}

fn expected_for(program: Arc<CompiledProgram>, params: &AnalysisParams) -> Expected {
    let n = program.bodies.len();
    let results: Vec<_> = (0..n)
        .map(|i| analyze(&program, FuncId(i as u32), params))
        .collect();
    let summaries: Vec<_> = (0..n)
        .map(|i| FunctionSummary::from_results(program.body(FuncId(i as u32)), &results[i]))
        .collect();
    let slices: Vec<_> = (0..n)
        .map(|i| Slicer::new(&program, FuncId(i as u32), params.clone()).backward_slice_of_var("v"))
        .collect();
    // What `check_policy` serves: every function's diagnostics, flattened.
    let policy = PolicyChecker::new(&program, Policy::from_conventions(&program))
        .expect("convention policy resolves")
        .with_params(params.clone())
        .check_program()
        .into_iter()
        .flat_map(|r| r.diagnostics)
        .collect();
    Expected {
        program,
        results,
        summaries,
        slices,
        policy,
    }
}

/// The scenario at one worker count: queries race background updates; every
/// envelope is checked against the direct analysis of its own epoch.
fn hammer_with_updates(workers: usize) {
    let base = layered_source(3, 3);
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    const VERSIONS: usize = 4;

    // Version k prepends k padding statements to module 0's leaf body: the
    // function set is unchanged (FuncIds stable across every version), but
    // the shifted statement locations make each version's per-location
    // results pairwise distinct — an epoch mix-up cannot go unnoticed.
    let programs: Vec<Arc<CompiledProgram>> = (0..VERSIONS)
        .map(|k| {
            let pad: String = (0..k).map(|j| format!("let zpad{j} = v + 1; ")).collect();
            let src = base.replacen("let a = v * 2;", &format!("{pad}let a = v * 2;"), 1);
            Arc::new(flowistry_lang::compile(&src).expect("edited version compiles"))
        })
        .collect();
    let expected: Vec<Expected> = programs
        .iter()
        .map(|p| expected_for(p.clone(), &params))
        .collect();
    let num_funcs = programs[0].bodies.len();
    // The edits must actually change answers, or epoch mix-ups would pass.
    for k in 1..VERSIONS {
        assert_ne!(
            expected[k - 1].results[0],
            expected[k].results[0],
            "versions {} and {k} must be distinguishable",
            k - 1
        );
    }

    let engine = AnalysisEngine::new(
        programs[0].clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    let service = FlowService::new(
        engine,
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(16),
    );

    let check = |epoch: u64, request: &QueryRequest, response: &QueryResponse| {
        let exp = &expected[epoch as usize];
        match (request, response) {
            (QueryRequest::Results(f), QueryResponse::Results(got)) => {
                assert_eq!(
                    **got, exp.results[f.0 as usize],
                    "Results({}) diverged from direct analyze at epoch {epoch}",
                    f.0
                );
            }
            (QueryRequest::Summary(f), QueryResponse::Summary(got)) => {
                assert_eq!(
                    got.as_ref(),
                    Some(&exp.summaries[f.0 as usize]),
                    "Summary({}) diverged at epoch {epoch}",
                    f.0
                );
            }
            (QueryRequest::BackwardSlice { func, .. }, QueryResponse::BackwardSlice(got)) => {
                assert_eq!(
                    got, &exp.slices[func.0 as usize],
                    "BackwardSlice({}) diverged at epoch {epoch}",
                    func.0
                );
            }
            (QueryRequest::CheckPolicy(_), QueryResponse::CheckPolicy(got)) => {
                // The whole-program answer must equal exactly this epoch's
                // diagnostics — a half-swapped snapshot would mix versions
                // and match neither.
                assert_eq!(got, &exp.policy, "CheckPolicy diverged at epoch {epoch}");
            }
            (QueryRequest::Stats, QueryResponse::Stats(stats)) => {
                assert_eq!(stats.epoch, epoch);
                assert_eq!(stats.workers, workers);
            }
            (req, QueryResponse::Error(msg)) => {
                panic!("unexpected error for {req:?} at epoch {epoch}: {msg}")
            }
            (req, resp) => panic!("response variant mismatch: {req:?} -> {resp:?}"),
        }
        let _ = &exp.program;
    };

    std::thread::scope(|s| {
        // 8 query threads, mixing the blocking and the submit/poll APIs.
        for t in 0..8usize {
            let service = &service;
            let check = &check;
            s.spawn(move || {
                for i in 0..30usize {
                    let func = FuncId(((i + t) % num_funcs) as u32);
                    let request = match (i + t) % 5 {
                        0 => QueryRequest::Results(func),
                        1 => QueryRequest::Summary(func),
                        2 => QueryRequest::BackwardSlice {
                            func,
                            var: "v".to_string(),
                        },
                        3 => QueryRequest::CheckPolicy(Policy::from_conventions(
                            service.snapshot().program(),
                        )),
                        _ => QueryRequest::Stats,
                    };
                    let envelope = if t % 2 == 0 {
                        service.query(request.clone())
                    } else {
                        // The handle API: submit, then poll until served.
                        let ticket = service.submit(request.clone());
                        loop {
                            match ticket.poll() {
                                Some(envelope) => break envelope,
                                None => std::thread::yield_now(),
                            }
                        }
                    };
                    assert!(
                        (envelope.epoch as usize) < VERSIONS,
                        "impossible epoch {}",
                        envelope.epoch
                    );
                    check(envelope.epoch, &request, &envelope.response);
                }
            });
        }

        // Meanwhile: swap every edited version in, in order, while the
        // query threads are mid-flight.
        let service = &service;
        let programs = &programs;
        s.spawn(move || {
            for program in programs.iter().skip(1) {
                let epoch = service.update(program.clone());
                // Let queries race the re-analysis, then make sure the swap
                // really happened before scheduling the next one.
                std::thread::yield_now();
                service.wait_for_epoch(epoch);
            }
        });
    });

    // All updates applied; the final snapshot serves the last version.
    service.wait_for_epoch((VERSIONS - 1) as u64);
    let stats = service.stats();
    assert_eq!(stats.epoch, (VERSIONS - 1) as u64);
    assert_eq!(stats.updates_applied, (VERSIONS - 1) as u64);
    assert_eq!(stats.served, 8 * 30);
    assert_eq!(stats.queue_depth, 0);

    // And the post-update service answers the final version directly.
    let envelope = service.query(QueryRequest::Results(FuncId(0)));
    assert_eq!(envelope.epoch, (VERSIONS - 1) as u64);
    check(
        envelope.epoch,
        &QueryRequest::Results(FuncId(0)),
        &envelope.response,
    );
}

#[test]
fn concurrent_queries_with_updates_one_worker() {
    hammer_with_updates(1);
}

#[test]
fn concurrent_queries_with_updates_two_workers() {
    hammer_with_updates(2);
}

#[test]
fn concurrent_queries_with_updates_eight_workers() {
    hammer_with_updates(8);
}

#[test]
fn unknown_function_ids_answer_error_not_panic() {
    let program = Arc::new(flowistry_lang::compile("fn f(x: i32) -> i32 { return x; }").unwrap());
    let engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
    let envelope = service.query(QueryRequest::Results(FuncId(999)));
    assert!(
        matches!(envelope.response, QueryResponse::Error(_)),
        "expected an error response, got {:?}",
        envelope.response
    );
    // The service survives: the next valid query is served normally.
    let ok = service.query(QueryRequest::Summary(FuncId(0)));
    assert!(matches!(ok.response, QueryResponse::Summary(Some(_))));
}

#[test]
fn updates_apply_in_submission_order() {
    let base = layered_source(1, 2);
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let programs: Vec<Arc<CompiledProgram>> = (0..3)
        .map(|k| {
            let pad: String = (0..k).map(|j| format!("let zpad{j} = v + 1; ")).collect();
            let src = base.replacen("let a = v * 2;", &format!("{pad}let a = v * 2;"), 1);
            Arc::new(flowistry_lang::compile(&src).unwrap())
        })
        .collect();
    let engine = AnalysisEngine::new(
        programs[0].clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(1));

    // Burst-submit both updates before waiting: epochs must come back in
    // order, and the final snapshot must be the last submission.
    let e1 = service.update(programs[1].clone());
    let e2 = service.update(programs[2].clone());
    assert_eq!((e1, e2), (1, 2));
    service.wait_for_epoch(e2);
    let top = programs[2].func_id("m0_l1").unwrap();
    let envelope = service.query(QueryRequest::Results(top));
    assert_eq!(envelope.epoch, 2);
    assert_eq!(
        envelope.response,
        QueryResponse::Results(Arc::new(analyze(&programs[2], top, &params)))
    );
}
