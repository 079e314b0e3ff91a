//! Expected answers, computed in-process from snapshots the benchmark
//! builds itself, and the inputs the workloads send.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::{generate_corpus, GeneratedCrate, DEFAULT_SEED};
use flowistry_engine::{
    AnalysisEngine, AnalysisSnapshot, EngineConfig, QueryEnvelope, QueryRequest, QueryResponse,
    SummaryKey,
};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use flowistry_obs::Registry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The ten corpus crates. Their programs are fixed (the repository's
/// default corpus seed), so run-to-run differences come from the system,
/// not from regenerated program sizes; the benchmark seed picks the order
/// and choice of requests and edits instead.
pub fn corpus() -> Vec<GeneratedCrate> {
    generate_corpus(DEFAULT_SEED)
}

/// The corpus crate named `name`.
///
/// # Panics
///
/// Panics if no profile has that name, a bug in the benchmark.
pub fn corpus_crate(name: &str) -> GeneratedCrate {
    let profile = flowistry_corpus::paper_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no corpus profile named {name}"));
    flowistry_corpus::generate_crate(&profile, DEFAULT_SEED)
}

/// The analysis parameters the in-process replicas use.
pub fn serving_params() -> AnalysisParams {
    AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
}

/// `source` with one statement added at the top of function `name`'s body,
/// on the line that opens it: a one-function edit that changes the
/// function's content hash (so it and its transitive callers are
/// re-analyzed) but none of its flows, and shifts no line of any other
/// function. `tag` makes each edit distinct.
///
/// # Panics
///
/// Panics if `source` has no function `name`, a bug in the benchmark.
pub fn edit_source(source: &str, name: &str, tag: usize) -> String {
    let header = [format!("fn {name}("), format!("fn {name}<")]
        .iter()
        .find_map(|h| source.find(h.as_str()))
        .unwrap_or_else(|| panic!("no function {name} to edit"));
    let open = header + source[header..].find("{\n").expect("function body") + 1;
    format!(
        "{} let bench_edit = {tag};{}",
        &source[..open],
        &source[open..]
    )
}

/// A user variable of `func` to slice on: the last named local, which for
/// generated code is the variable most statements feed.
pub fn slice_var(program: &CompiledProgram, func: FuncId) -> Option<String> {
    program
        .body(func)
        .local_decls
        .iter()
        .rev()
        .find_map(|decl| decl.name.clone())
}

/// The small-read mix: `summary`, `slice`, `lint` and `stats`, cycled over
/// `funcs` in order. Request `i` is `read_request(program, funcs, i)`.
pub fn read_request(program: &CompiledProgram, funcs: &[FuncId], i: usize) -> QueryRequest {
    let func = funcs[(i / 4) % funcs.len()];
    match i % 4 {
        0 => QueryRequest::Summary(func),
        1 => match slice_var(program, func) {
            Some(var) => QueryRequest::BackwardSlice { func, var },
            None => QueryRequest::Summary(func),
        },
        2 => QueryRequest::Lint(func),
        _ => QueryRequest::Stats,
    }
}

/// Builds a cache-less single-threaded engine over `program` and runs it.
pub fn analyzed_engine(program: Arc<CompiledProgram>, params: &AnalysisParams) -> AnalysisEngine {
    let mut engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(params.clone())
            .with_threads(1)
            .with_metrics(Arc::new(Registry::new())),
    );
    engine.analyze_all();
    engine
}

/// Expected answers per served epoch.
pub struct Oracle {
    /// One snapshot per program version.
    versions: Vec<AnalysisSnapshot>,
    /// Maps a served epoch to its version index (`None` = no such epoch).
    version_of: Box<dyn Fn(u64) -> Option<usize>>,
    /// Expected answers by the function's summary key and the request:
    /// equal keys mean equal content down the call graph, so one entry
    /// serves every version the function is unchanged in.
    memo: RefCell<HashMap<(SummaryKey, String), QueryResponse>>,
}

impl Oracle {
    /// An oracle for a program that never changes: every answer must come
    /// from epoch 0.
    pub fn fixed(snapshot: AnalysisSnapshot) -> Oracle {
        Oracle::versioned(vec![snapshot], Box::new(|e| (e == 0).then_some(0)))
    }

    /// An oracle over several program versions.
    pub fn versioned(
        versions: Vec<AnalysisSnapshot>,
        version_of: Box<dyn Fn(u64) -> Option<usize>>,
    ) -> Oracle {
        Oracle {
            versions,
            version_of,
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The snapshot serving version 0.
    pub fn base(&self) -> &AnalysisSnapshot {
        &self.versions[0]
    }

    /// Whether `envelope` is the right answer to `request` at the epoch it
    /// claims: summaries, slices, lints and results must equal a direct
    /// snapshot query of that epoch's program; `stats` must report the
    /// epoch it was served at.
    pub fn matches(&self, request: &QueryRequest, envelope: &QueryEnvelope) -> bool {
        let Some(version) = (self.version_of)(envelope.epoch) else {
            return false;
        };
        let Some(snapshot) = self.versions.get(version) else {
            return false;
        };
        let func = match request {
            QueryRequest::Summary(func)
            | QueryRequest::Results(func)
            | QueryRequest::Lint(func)
            | QueryRequest::BackwardSlice { func, .. } => *func,
            _ => FuncId(0),
        };
        let expected = |request: &QueryRequest| match request {
            QueryRequest::Summary(func) => {
                Some(QueryResponse::Summary(snapshot.summary(*func).cloned()))
            }
            QueryRequest::BackwardSlice { func, var } => Some(QueryResponse::BackwardSlice(
                snapshot.backward_slice(*func, var),
            )),
            QueryRequest::Lint(func) => Some(QueryResponse::Lint(snapshot.lint(*func))),
            QueryRequest::Results(func) => Some(QueryResponse::Results(snapshot.results(*func))),
            _ => None,
        };
        match (request, &envelope.response) {
            (QueryRequest::Stats, QueryResponse::Stats(stats)) => stats.epoch == envelope.epoch,
            (QueryRequest::Metrics, QueryResponse::Metrics(_)) => true,
            (QueryRequest::Stats | QueryRequest::Metrics, _) => false,
            _ => {
                let key = (
                    snapshot.key(func),
                    flowistry_server::codec::encode_request(request),
                );
                let mut memo = self.memo.borrow_mut();
                let want = match memo.get(&key) {
                    Some(want) => want,
                    None => match expected(request) {
                        Some(want) => memo.entry(key).or_insert(want),
                        None => return false,
                    },
                };
                *want == envelope.response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_compile_and_change_only_the_edited_function() {
        let krate = corpus_crate("rayon");
        let edited = edit_source(&krate.source, "helper_3", 7);
        assert_ne!(edited, krate.source);
        assert!(edited.contains("{ let bench_edit = 7;\n"));
        assert_eq!(edited.lines().count(), krate.source.lines().count());
        let program = flowistry_lang::compile(&edited).expect("edited source compiles");
        let params = serving_params();
        let mut engine = analyzed_engine(Arc::new(krate.program.clone()), &params);
        let edited_id = program.func_id("helper_3").unwrap();
        engine.update_program(Arc::new(program));
        let stats = engine.analyze_all();
        let dirty = engine.invalidation_set(edited_id);
        assert_eq!(
            stats.analyzed,
            dirty.len(),
            "only the edit's cone re-analyzes"
        );
        assert!(stats.analyzed >= 1);
    }

    #[test]
    fn read_requests_cycle_kinds_and_functions() {
        let krate = corpus_crate("rayon");
        let funcs: Vec<FuncId> = (0..3).map(FuncId).collect();
        let kinds: Vec<&str> = (0..8)
            .map(|i| read_request(&krate.program, &funcs, i).kind_str())
            .collect();
        assert_eq!(
            kinds,
            ["summary", "slice", "lint", "stats", "summary", "slice", "lint", "stats"]
        );
        assert_eq!(
            read_request(&krate.program, &funcs, 4),
            QueryRequest::Summary(FuncId(1))
        );
    }
}
