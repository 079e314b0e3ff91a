//! The immutable, owned query surface of the engine.
//!
//! An [`AnalysisSnapshot`] is what one [`analyze_all`] run produces: the
//! program (shared through an `Arc`), the call graph, every published
//! summary, and a bounded memo of per-function results. It has **no
//! lifetime parameter** and every query method takes `&self`, so a snapshot
//! can be cloned (two `Arc` bumps), sent to other threads, and serve
//! arbitrarily many concurrent queries — the paper's modularity result
//! means a summary is valid independent of who asks, so nothing in here
//! ever needs to change after construction. Clones share the results memo:
//! a function analyzed for one query is warm for every holder of the
//! snapshot.
//!
//! [`analyze_all`]: crate::AnalysisEngine::analyze_all

use crate::{RunStats, SummaryKey};
use flowistry_core::{
    analyze_with_summaries, AnalysisParams, CachedSummary, FunctionSummary, InfoFlowResults,
};
use flowistry_ifc::{IfcDiagnostic, Policy, PolicyChecker, PolicyError};
use flowistry_lang::mir::{Location, Place};
use flowistry_lang::types::FuncId;
use flowistry_lang::{CallGraph, CompiledProgram};
use flowistry_lint::{LintFinding, Linter};
use flowistry_slicer::{Slice, Slicer};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// An immutable result of one [`analyze_all`] run, serving queries without
/// a lifetime bound.
///
/// Cloning is cheap (the snapshot is a pair of `Arc`s) and clones share the
/// memoized per-function results. Queries against one snapshot are always
/// internally consistent: the program, summaries, and results all belong to
/// the same epoch, no matter what the producing engine does afterwards.
///
/// [`analyze_all`]: crate::AnalysisEngine::analyze_all
#[derive(Clone)]
pub struct AnalysisSnapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    program: Arc<CompiledProgram>,
    params: AnalysisParams,
    // Shared with the producing engine (immutable per epoch): snapshot
    // construction is reference bumps, not graph/key copies.
    call_graph: Arc<CallGraph>,
    keys: Arc<Vec<SummaryKey>>,
    summaries: HashMap<FuncId, CachedSummary>,
    results: Mutex<ResultsMemo>,
    epoch: u64,
    stats: RunStats,
}

impl std::fmt::Debug for AnalysisSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSnapshot")
            .field("epoch", &self.inner.epoch)
            .field("functions", &self.inner.program.bodies.len())
            .field("summaries", &self.inner.summaries.len())
            .finish()
    }
}

impl AnalysisSnapshot {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: Arc<CompiledProgram>,
        params: AnalysisParams,
        call_graph: Arc<CallGraph>,
        keys: Arc<Vec<SummaryKey>>,
        summaries: HashMap<FuncId, CachedSummary>,
        results_capacity: usize,
        epoch: u64,
        stats: RunStats,
    ) -> Self {
        AnalysisSnapshot {
            inner: Arc::new(SnapshotInner {
                program,
                params,
                call_graph,
                keys,
                summaries,
                results: Mutex::new(ResultsMemo::new(results_capacity)),
                epoch,
                stats,
            }),
        }
    }

    /// Pre-populates the results memo with results that were computed as a
    /// by-product of summary extraction (capacity and LRU order apply as
    /// usual). Called once by `analyze_all` before the snapshot is
    /// published.
    pub(crate) fn seed_results(&self, seed: Vec<(FuncId, Arc<InfoFlowResults>)>) {
        let mut memo = self.inner.results.lock().expect("results memo lock");
        for (func, results) in seed {
            memo.insert(func, results);
        }
    }

    /// Hands back `Arc` clones of every memoized result whose summary key
    /// is unchanged under `keys`, so a successor snapshot can inherit them.
    /// Key equality covers function content, parameters, and (transitively)
    /// callee content, which is exactly the condition under which the
    /// memoized analysis is still the analysis the new program version
    /// would compute — and sharing the `Arc`s means retiring this snapshot
    /// never deep-drops results the successor still serves.
    pub(crate) fn carryover_results(
        &self,
        keys: &[SummaryKey],
    ) -> Vec<(FuncId, Arc<InfoFlowResults>)> {
        let memo = self.inner.results.lock().expect("results memo lock");
        memo.entries()
            .filter(|(func, _)| {
                self.inner.keys.get(func.0 as usize).copied() == keys.get(func.0 as usize).copied()
            })
            .map(|(func, results)| (func, results.clone()))
            .collect()
    }

    /// The program this snapshot was computed from.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.inner.program
    }

    /// The analysis parameters the snapshot was computed under.
    pub fn params(&self) -> &AnalysisParams {
        &self.inner.params
    }

    /// The snapshot's call graph.
    pub fn call_graph(&self) -> &CallGraph {
        &self.inner.call_graph
    }

    /// Which program version this snapshot belongs to: the producing
    /// engine's [`update_program`](crate::AnalysisEngine::update_program)
    /// count at the time of the run. Every answer served from one snapshot
    /// carries the same epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// What the producing `analyze_all` run did.
    pub fn stats(&self) -> RunStats {
        self.inner.stats
    }

    /// The cache key of `func` under this snapshot's program and parameters.
    pub fn key(&self, func: FuncId) -> SummaryKey {
        self.inner.keys[func.0 as usize]
    }

    /// The published summary of `func`, if the run produced one (external
    /// functions have none).
    pub fn summary(&self, func: FuncId) -> Option<&FunctionSummary> {
        self.inner.summaries.get(&func).map(|e| e.summary.as_ref())
    }

    /// The full per-location analysis results for `func`, served from the
    /// snapshot's bounded memo. All callee summaries are pre-seeded, so
    /// this never recurses — and it returns exactly what a from-scratch
    /// [`analyze`](flowistry_core::analyze) call would, provided no call
    /// chain exceeds `AnalysisParams::max_recursion_depth` (past that,
    /// direct analysis falls back to the conservative modular rule while
    /// the snapshot keeps using summaries, making it strictly more precise;
    /// see the crate docs).
    ///
    /// On a memo miss the analysis runs *outside* the memo lock: concurrent
    /// queries for different functions never serialize on each other, at
    /// the cost of an occasional duplicated computation whose results are
    /// bit-identical anyway.
    pub fn results(&self, func: FuncId) -> Arc<InfoFlowResults> {
        if let Some(hit) = self
            .inner
            .results
            .lock()
            .expect("results memo lock")
            .get(func)
        {
            return hit;
        }
        let computed = Arc::new(analyze_with_summaries(
            &self.inner.program,
            func,
            &self.inner.params,
            &self.inner.summaries,
        ));
        self.inner
            .results
            .lock()
            .expect("results memo lock")
            .insert(func, computed)
    }

    /// Backward slice of the user variable `var` of `func` (snapshot-backed
    /// counterpart of [`Slicer::backward_slice_of_var`]).
    pub fn backward_slice(&self, func: FuncId, var: &str) -> Option<Slice> {
        self.slicer(func).backward_slice_of_var(var)
    }

    /// Backward slice of `func`'s return value.
    pub fn backward_slice_of_return(&self, func: FuncId) -> Slice {
        self.slicer(func).backward_slice_of_return()
    }

    /// Locations in the dependency set of `place` just before `loc` — the
    /// raw location-level slice of §5.1.
    pub fn backward_slice_at(
        &self,
        func: FuncId,
        place: &Place,
        loc: Location,
    ) -> BTreeSet<Location> {
        self.results(func).backward_slice(place, loc)
    }

    /// A snapshot-backed [`Slicer`] for `func`, sharing the memoized
    /// results (no per-query deep clone: the slicer holds the same `Arc`
    /// the snapshot's memo does).
    pub fn slicer(&self, func: FuncId) -> Slicer<'_> {
        Slicer::from_results(&self.inner.program, func, self.results(func))
    }

    /// Checks every function against a lattice [`Policy`] and returns the
    /// flattened diagnostics, each carrying its flow witness. The
    /// snapshot-backed counterpart of
    /// [`PolicyChecker::check_program`].
    ///
    /// # Errors
    ///
    /// Returns the [`PolicyError`] for the first policy entry that names an
    /// unknown label, function, parameter or local.
    pub fn check_policy(&self, policy: Policy) -> Result<Vec<IfcDiagnostic>, PolicyError> {
        let checker = PolicyChecker::new(&self.inner.program, policy)?;
        Ok((0..self.inner.program.bodies.len())
            .flat_map(|i| {
                let func = FuncId(i as u32);
                checker
                    .check_with_results(func, &self.results(func))
                    .diagnostics
            })
            .collect())
    }

    /// Runs every lint pass (effect checking included) over `func`, serving
    /// the flow analysis from the snapshot's memo. The snapshot-backed
    /// counterpart of [`Linter::lint_function`].
    pub fn lint(&self, func: FuncId) -> Vec<LintFinding> {
        let linter = Linter::with_call_graph(&self.inner.program, &self.inner.call_graph);
        let results = self.results(func);
        match self.summary(func) {
            Some(summary) => linter.lint_function(func, summary, &results),
            None => {
                let summary =
                    FunctionSummary::from_results(self.inner.program.body(func), &results);
                linter.lint_function(func, &summary, &results)
            }
        }
    }

    /// The set of functions whose summary would have to be recomputed if
    /// `func`'s body changed: `func` plus its transitive callers.
    pub fn invalidation_set(&self, func: FuncId) -> BTreeSet<FuncId> {
        self.inner.call_graph.transitive_callers(func)
    }

    /// How many per-function results the memo currently holds (bounded by
    /// [`EngineConfig::with_results_capacity`](crate::EngineConfig::with_results_capacity)).
    pub fn memoized_results(&self) -> usize {
        self.inner.results.lock().expect("results memo lock").len()
    }
}

/// A least-recently-used bounded memo of per-function results.
///
/// Under heavy query traffic the per-function results map would otherwise
/// grow to one entry per program function *per snapshot*; the cap keeps a
/// long-lived service's memory bounded while eviction stays invisible to
/// callers — a re-queried evicted function is recomputed from the same
/// summaries and comes out bit-identical.
///
/// Recency is tracked by a monotone tick per touch, with a `BTreeMap`
/// index from tick to function: eviction pops the smallest tick in
/// O(log n) instead of scanning every entry while the (snapshot-global)
/// memo lock is held.
struct ResultsMemo {
    capacity: usize,
    tick: u64,
    entries: HashMap<FuncId, MemoEntry>,
    /// last_used tick → func; ticks are unique, so this is a total order.
    by_recency: BTreeMap<u64, FuncId>,
}

struct MemoEntry {
    results: Arc<InfoFlowResults>,
    last_used: u64,
}

impl ResultsMemo {
    fn new(capacity: usize) -> Self {
        ResultsMemo {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entries(&self) -> impl Iterator<Item = (FuncId, &Arc<InfoFlowResults>)> {
        self.entries.iter().map(|(&func, e)| (func, &e.results))
    }

    fn touch(
        entry: &mut MemoEntry,
        by_recency: &mut BTreeMap<u64, FuncId>,
        func: FuncId,
        tick: u64,
    ) {
        by_recency.remove(&entry.last_used);
        entry.last_used = tick;
        by_recency.insert(tick, func);
    }

    fn get(&mut self, func: FuncId) -> Option<Arc<InfoFlowResults>> {
        self.tick += 1;
        let tick = self.tick;
        let by_recency = &mut self.by_recency;
        self.entries.get_mut(&func).map(|e| {
            Self::touch(e, by_recency, func, tick);
            e.results.clone()
        })
    }

    /// Inserts `results`, returning the memo's entry — if a concurrent
    /// query raced us and already filled the slot, its (identical) results
    /// win so every holder shares one allocation.
    fn insert(&mut self, func: FuncId, results: Arc<InfoFlowResults>) -> Arc<InfoFlowResults> {
        self.tick += 1;
        let entry = self.entries.entry(func).or_insert(MemoEntry {
            results,
            last_used: 0,
        });
        Self::touch(entry, &mut self.by_recency, func, self.tick);
        let out = entry.results.clone();
        while self.entries.len() > self.capacity {
            let (_, coldest) = self
                .by_recency
                .pop_first()
                .expect("memo over capacity implies nonempty");
            self.entries.remove(&coldest);
        }
        out
    }
}
