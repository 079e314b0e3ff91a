//! Concurrent-serving stress test for [`FlowService`]: 8 threads hammer the
//! service with mixed queries while `update()` swaps edited programs
//! underneath. Every response must match a direct `analyze` of the epoch it
//! was served from, and no response may mix state from two epochs (a
//! "half-swapped snapshot" would show up as an answer matching no version).
//!
//! The scenario runs at 1, 2, and 8 query workers: one worker serializes
//! everything (answers must still be epoch-tagged correctly), 8 workers on
//! a small machine force preemption mid-query.

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::layered_program;
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, Policy, QueryRequest, QueryResponse, Reference,
    ServiceConfig,
};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use std::sync::Arc;

/// The scenario at one worker count: queries race background updates; every
/// envelope is checked against the direct analysis of its own epoch.
fn hammer_with_updates(workers: usize) {
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    const VERSIONS: usize = 4;

    // Version k pads module 0's leaf body with k statements: the function
    // set is unchanged (FuncIds stable across every version), but the
    // shifted statement locations make each version's per-location
    // results pairwise distinct — an epoch mix-up cannot go unnoticed.
    let programs: Vec<Arc<CompiledProgram>> = (0..VERSIONS)
        .map(|k| {
            let src = layered_program(3, 3, k);
            Arc::new(flowistry_lang::compile(&src).expect("edited version compiles"))
        })
        .collect();
    let references: Vec<Reference> = programs
        .iter()
        .map(|p| Reference::new(p.clone(), params.clone()))
        .collect();
    let num_funcs = programs[0].bodies.len();
    // The edits must actually change answers, or epoch mix-ups would pass.
    let leaf = QueryRequest::Results(FuncId(0));
    for k in 1..VERSIONS {
        assert_ne!(
            references[k - 1].answer(&leaf),
            references[k].answer(&leaf),
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

    // Every answer must equal the direct answer for its own epoch: a
    // half-swapped snapshot would mix versions and match neither.
    let check =
        |epoch: u64, request: &QueryRequest, response: &QueryResponse| match (request, response) {
            (QueryRequest::Stats, QueryResponse::Stats(stats)) => {
                assert_eq!(stats.epoch, epoch);
                assert_eq!(stats.workers, workers);
            }
            (req, QueryResponse::Error(msg)) => {
                panic!("unexpected error for {req:?} at epoch {epoch}: {msg}")
            }
            _ => assert_eq!(
                Some(response),
                references[epoch as usize].answer(request).as_ref(),
                "{request:?} diverged from direct analysis at epoch {epoch}"
            ),
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
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let programs: Vec<Arc<CompiledProgram>> = (0..3)
        .map(|k| Arc::new(flowistry_lang::compile(&layered_program(1, 2, k)).unwrap()))
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
