//! The from-scratch answer to every served query: the oracle that the
//! service, wire and fleet gauntlets check each answer against.
//!
//! The paper's modularity claim is that an answer assembled from callee
//! summaries equals the answer of analyzing the program directly (§5). A
//! [`Reference`] computes the direct side for one program version and one
//! set of [`AnalysisParams`]: [`analyze`] per function,
//! [`FunctionSummary::from_results`], a [`Slicer`], a [`PolicyChecker`]
//! and a [`Linter`], with no engine, cache or snapshot in between. Whatever
//! serves a [`QueryRequest`] (a [`FlowService`](crate::FlowService), a
//! `flow-server` over TCP, a router in front of a fleet) must answer it
//! with exactly [`Reference::answer`] for the program version of the
//! answer's epoch.
//!
//! ```
//! use flowistry_core::{AnalysisParams, Condition};
//! use flowistry_engine::{
//!     AnalysisEngine, EngineConfig, FlowService, QueryRequest, Reference, ServiceConfig,
//! };
//! use std::sync::Arc;
//!
//! let program = Arc::new(flowistry_lang::compile("
//!     fn store(p: &mut i32, v: i32) { *p = v; }
//!     fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }
//! ").unwrap());
//! let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
//! let reference = Reference::new(program.clone(), params.clone());
//! let engine = AnalysisEngine::new(program.clone(), EngineConfig::default().with_params(params));
//! let service = FlowService::new(engine, ServiceConfig::default());
//!
//! let request = QueryRequest::Summary(program.func_id("caller").unwrap());
//! assert_eq!(Some(service.query(request.clone()).response), reference.answer(&request));
//! ```

use crate::service::request_error;
use crate::{QueryRequest, QueryResponse};
use flowistry_core::{analyze, AnalysisParams, FunctionSummary, InfoFlowResults};
use flowistry_ifc::PolicyChecker;
use flowistry_lang::types::FuncId;
use flowistry_lang::{CallGraph, CompiledProgram};
use flowistry_lint::Linter;
use flowistry_slicer::Slicer;
use std::sync::{Arc, OnceLock};

/// What any server must answer for one program version, computed directly.
///
/// Each function is analyzed at most once, on first use, and the
/// reference is `Sync`: any number of checking threads can share one.
pub struct Reference {
    program: Arc<CompiledProgram>,
    params: AnalysisParams,
    call_graph: CallGraph,
    analyzed: Vec<OnceLock<Analyzed>>,
}

/// One function's direct analysis and the summary projected from it.
struct Analyzed {
    results: Arc<InfoFlowResults>,
    summary: FunctionSummary,
}

impl Reference {
    /// The reference for `program` analyzed under `params`. Nothing is
    /// analyzed until a request asks.
    pub fn new(program: Arc<CompiledProgram>, params: AnalysisParams) -> Reference {
        let call_graph = CallGraph::extract(&program);
        let analyzed = (0..program.bodies.len()).map(|_| OnceLock::new()).collect();
        Reference {
            program,
            params,
            call_graph,
            analyzed,
        }
    }

    /// The program this reference answers for.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    fn analyzed(&self, func: FuncId) -> &Analyzed {
        self.analyzed[func.0 as usize].get_or_init(|| {
            let results = analyze(&self.program, func, &self.params);
            let summary = FunctionSummary::from_results(self.program.body(func), &results);
            Analyzed {
                results: Arc::new(results),
                summary,
            }
        })
    }

    /// The answer every server must give to `request`, or `None` for
    /// [`QueryRequest::Stats`] and [`QueryRequest::Metrics`], whose answers
    /// describe the server rather than the program.
    ///
    /// A function whose body `params` makes unavailable has no summary, as
    /// in a snapshot, so [`QueryRequest::Summary`] answers `Summary(None)`
    /// for it. A policy is checked against the same per-function results
    /// that [`PolicyChecker::check_program`] computes, so each function is
    /// analyzed once however many requests ask. Out-of-range ids, places
    /// and locations, and an invalid policy, answer the same
    /// [`QueryResponse::Error`] a service gives.
    pub fn answer(&self, request: &QueryRequest) -> Option<QueryResponse> {
        if let Some(error) = request_error(&self.program, request) {
            return Some(error);
        }
        let results_of = |func: FuncId| self.analyzed(func).results.clone();
        Some(match request {
            QueryRequest::Summary(func) => QueryResponse::Summary(
                self.params
                    .body_available(*func)
                    .then(|| self.analyzed(*func).summary.clone()),
            ),
            QueryRequest::Results(func) => QueryResponse::Results(results_of(*func)),
            QueryRequest::BackwardSlice { func, var } => QueryResponse::BackwardSlice(
                Slicer::from_results(&self.program, *func, results_of(*func))
                    .backward_slice_of_var(var),
            ),
            QueryRequest::BackwardSliceAt { func, place, loc } => {
                QueryResponse::BackwardSliceAt(results_of(*func).backward_slice(place, *loc))
            }
            QueryRequest::CheckPolicy(policy) => {
                match PolicyChecker::new(&self.program, policy.clone()) {
                    Ok(checker) => QueryResponse::CheckPolicy(
                        (0..self.program.bodies.len())
                            .flat_map(|i| {
                                let func = FuncId(i as u32);
                                checker
                                    .check_with_results(func, &results_of(func))
                                    .diagnostics
                            })
                            .collect(),
                    ),
                    Err(e) => QueryResponse::Error(format!("invalid policy: {e}")),
                }
            }
            QueryRequest::Lint(func) => {
                let Analyzed { results, summary } = self.analyzed(*func);
                QueryResponse::Lint(
                    Linter::with_call_graph(&self.program, &self.call_graph)
                        .lint_function(*func, summary, results),
                )
            }
            QueryRequest::Stats | QueryRequest::Metrics => return None,
        })
    }
}
