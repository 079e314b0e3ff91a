//! The oracle pinned to the served path: over seeded random programs,
//! under the four headline conditions, with every body available and with
//! only some, [`Reference::answer`] equals what a [`FlowService`] over the
//! same program answers, for every function and every request kind the
//! reference answers. The stress tests of the service, the TCP front and
//! the fleet trust the reference as their oracle; this test keeps it from
//! drifting away from what is served.
//!
//! A failure names the seed and size; `random_program(seed, size)`
//! rebuilds the program.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::random_program;
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, Policy, QueryRequest, QueryResponse, Reference,
    ServiceConfig,
};
use flowistry_lang::mir::{Local, Location, Place};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use std::sync::Arc;

/// Every request the reference answers for `program`: per function its
/// summary, results, lint, a slice of every named local and of a name that
/// does not exist, and the location-level slices of the return value and
/// of the last local at each exit and at the entry; then two policies and,
/// last, the only two requests that must fail: a policy the checker
/// rejects and an unknown function id.
fn requests(program: &CompiledProgram) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for (i, body) in program.bodies.iter().enumerate() {
        let func = FuncId(i as u32);
        requests.extend([
            QueryRequest::Summary(func),
            QueryRequest::Results(func),
            QueryRequest::Lint(func),
        ]);
        let vars = body.local_decls.iter().filter_map(|d| d.name.clone());
        requests.extend(
            vars.chain(["no_such_var".to_string()])
                .map(|var| QueryRequest::BackwardSlice { func, var }),
        );
        let last_local = Place::from(Local(body.local_decls.len() as u32 - 1));
        for loc in body.return_locations().into_iter().chain([Location::START]) {
            requests.extend(
                [Place::return_place(), last_local.clone()]
                    .map(|place| QueryRequest::BackwardSliceAt { func, place, loc }),
            );
        }
    }
    let policy = Policy::default()
        .with_param_label("f", "a", "Secret")
        .with_fn_label("helper", "Secret")
        .with_local_label("f", "v0", "Secret")
        .with_sink("bump", "Public")
        .with_sink("read_pair", "Public");
    requests.push(QueryRequest::CheckPolicy(policy));
    requests.push(QueryRequest::CheckPolicy(
        Policy::default().with_fn_label("helper", "NoSuchLabel"),
    ));
    requests.push(QueryRequest::Results(FuncId(program.bodies.len() as u32)));
    requests
}

#[test]
fn reference_answers_equal_served_answers_on_random_programs() {
    let mut violations = 0;
    let mut missing_summaries = 0;
    for seed in 0..64 {
        let size = 1 + seed as usize % 8;
        let src = random_program(seed, size);
        let program = Arc::new(flowistry_lang::compile(&src).expect("generated program compiles"));
        let requests = requests(&program);
        // Bodies of even function ids only: the odd ones are dependencies.
        let some = (0..program.bodies.len() as u32)
            .step_by(2)
            .map(FuncId)
            .collect();
        for condition in Condition::headline_four() {
            for available_bodies in [None, Some(&some)] {
                let params = AnalysisParams {
                    available_bodies: available_bodies.cloned(),
                    ..AnalysisParams::for_condition(condition)
                };
                let case = format!(
                    "random_program({seed}, {size}) under {condition}, restricted: {}",
                    available_bodies.is_some()
                );
                let reference = Reference::new(program.clone(), params.clone());
                let engine = AnalysisEngine::new(
                    program.clone(),
                    EngineConfig::default().with_params(params),
                );
                let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
                for (i, request) in requests.iter().enumerate() {
                    let served = service.query(request.clone()).response;
                    // The reference shares the service's validation, so
                    // equality alone would pass a rejected valid request.
                    assert_eq!(
                        matches!(served, QueryResponse::Error(_)),
                        i + 2 >= requests.len(),
                        "{case}: {request:?} answered {served:?}"
                    );
                    assert_eq!(
                        Some(&served),
                        reference.answer(request).as_ref(),
                        "{case}: {request:?}"
                    );
                    match served {
                        QueryResponse::CheckPolicy(diagnostics) => violations += diagnostics.len(),
                        QueryResponse::Summary(None) => missing_summaries += 1,
                        _ => {}
                    }
                }
                let n = program.bodies.len();
                assert_eq!(
                    reference.answer(&QueryRequest::Results(FuncId(n as u32))),
                    Some(QueryResponse::Error(format!(
                        "unknown function id {n} (program has {n} functions)"
                    ))),
                    "{case}"
                );
                for request in [QueryRequest::Stats, QueryRequest::Metrics] {
                    assert_eq!(reference.answer(&request), None, "{case}: {request:?}");
                }
            }
        }
    }
    // Neither comparison may hold vacuously: the policy must flag flows
    // and the restriction must withhold summaries.
    assert!(violations > 0, "no policy request found a violation");
    assert!(missing_summaries > 0, "no function lacked a body");
}
