//! # flowistry: a reproduction of "Modular Information Flow through Ownership" (PLDI 2022)
//!
//! This facade crate re-exports the whole system:
//!
//! * [`lang`] — the Rox ownership-typed language front-end (lexer, parser,
//!   type checker, region inference, loan sets, borrow checker, MIR);
//! * [`dataflow`] — CFG algorithms (dataflow engine, post-dominators,
//!   control dependence);
//! * [`core`] — the modular information flow analysis itself;
//! * [`interp`] — the interpreter and empirical noninterference checker;
//! * [`engine`] — the incremental analysis engine (call-graph scheduling,
//!   content-hashed summary caching, owned `AnalysisSnapshot` query
//!   surface, and the async `FlowService` query front);
//! * [`slicer`] — the program slicer application (Figure 5a);
//! * [`ifc`] — information flow control (Figure 5b): the lattice policy
//!   engine with declassification and flow witnesses, plus the legacy
//!   convention checker;
//! * [`lint`] — effect inference (`#[effect(...)]` contracts checked
//!   against inferred read/write/sink signatures) and the flow-aware lint
//!   passes built on the modular summaries;
//! * [`corpus`] — the synthetic evaluation dataset generator;
//! * [`obs`] — the observability layer (metrics registry, leveled
//!   logging, span timers) threaded through engine, service, and server;
//! * [`eval`] — the harness regenerating the paper's tables and figures.
//!
//! See the `examples/` directory for runnable end-to-end demonstrations and
//! the README's "Building and testing" section for regenerating the
//! evaluation.
//!
//! ```
//! use flowistry::prelude::*;
//!
//! let program = compile("fn double(x: i32) -> i32 { return x * 2; }").unwrap();
//! let results = analyze(&program, program.func_id("double").unwrap(), &AnalysisParams::default());
//! assert!(results
//!     .exit_deps_of_local(flowistry::lang::mir::Local(0))
//!     .iter()
//!     .any(|d| d.arg().is_some()));
//! ```

#![warn(missing_docs)]

pub use flowistry_core as core;
pub use flowistry_corpus as corpus;
pub use flowistry_dataflow as dataflow;
pub use flowistry_engine as engine;
pub use flowistry_eval as eval;
pub use flowistry_ifc as ifc;
pub use flowistry_interp as interp;
pub use flowistry_lang as lang;
pub use flowistry_lint as lint;
pub use flowistry_obs as obs;
pub use flowistry_slicer as slicer;

/// The most commonly used items, for `use flowistry::prelude::*`.
pub mod prelude {
    pub use flowistry_core::{
        analyze, AnalysisParams, Condition, Dep, DepSet, DomainKind, Theta, ThetaExt,
    };
    pub use flowistry_engine::{
        AnalysisEngine, AnalysisSnapshot, EngineConfig, FlowService, QueryRequest, QueryResponse,
        ServiceConfig,
    };
    pub use flowistry_ifc::{IfcDiagnostic, LatticeSpec, Policy, PolicyChecker, SecurityLattice};
    pub use flowistry_interp::{Interpreter, Value};
    pub use flowistry_lang::{compile, compile_strict, CompiledProgram};
    pub use flowistry_lint::{EffectSignature, LintFinding, LintPass, Linter};
    pub use flowistry_router::{FlowRouter, InProcessLauncher, ProcessLauncher, RouterConfig};
    pub use flowistry_server::{FlowClient, FlowServer, ServerConfig};
    pub use flowistry_slicer::Slicer;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let program = compile(
            "fn helper(p: &mut i32, v: i32) { *p = v; }
             fn main_fn(a: i32, b: i32) -> i32 { let mut x = 0; helper(&mut x, a); return x + b; }",
        )
        .unwrap();
        let func = program.func_id("main_fn").unwrap();
        let results = analyze(&program, func, &AnalysisParams::default());
        assert!(results.iterations() > 0);
        let interp = Interpreter::new(&program);
        let out = interp
            .run_with_env(func, vec![Value::Int(2), Value::Int(3)])
            .unwrap();
        assert_eq!(out.return_value, Value::Int(5));
    }

    #[test]
    fn facade_engine_serves_slices_and_summaries() {
        let program = std::sync::Arc::new(
            compile(
                "fn helper(p: &mut i32, v: i32) { *p = v; }
                 fn main_fn(a: i32, b: i32) -> i32 {
                     let mut x = 0;
                     helper(&mut x, a);
                     let unused = b + 1;
                     return x;
                 }",
            )
            .unwrap(),
        );
        let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
        let mut engine =
            AnalysisEngine::new(program.clone(), EngineConfig::default().with_params(params));
        let stats = engine.analyze_all();
        assert_eq!(stats.analyzed, 2);

        // Queries go through the owned snapshot — no lifetime on the API.
        let snapshot = engine.snapshot();
        let main_fn = program.func_id("main_fn").unwrap();
        let slice = snapshot.backward_slice(main_fn, "x").unwrap();
        assert!(slice.contains_line(4), "lines: {:?}", slice.lines);
        assert!(!slice.contains_line(5), "lines: {:?}", slice.lines);

        let helper = program.func_id("helper").unwrap();
        let summary = snapshot.summary(helper).unwrap();
        assert_eq!(summary.mutations.len(), 1);

        // And through the service front, with the typed protocol.
        let service = FlowService::new(engine, ServiceConfig::default().with_workers(2));
        let reply = service.query(QueryRequest::Summary(helper));
        assert_eq!(reply.epoch, 0);
        assert_eq!(
            reply.response,
            QueryResponse::Summary(Some(summary.clone()))
        );
    }

    #[test]
    fn facade_lints_figure_5a_unused_mut() {
        let program =
            compile("fn crop(img: &mut i32, scale: i32) -> i32 { return *img + scale; }").unwrap();
        let func = program.func_id("crop").unwrap();
        let results = analyze(
            &program,
            func,
            &AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
        );
        let summary = flowistry_core::FunctionSummary::from_results(program.body(func), &results);
        let linter = Linter::new(&program);
        let findings = linter.lint_function(func, &summary, &results);
        assert!(findings.iter().any(|f| f.pass == LintPass::UnusedMut));
        // `crop` mutates nothing and reaches no sink: inferred-pure, with
        // both parameters in its read set.
        let effect = linter.infer_effect(func, &summary, &results);
        assert!(effect.is_pure());
        assert_eq!(effect.reads.len(), 2);
    }
}
