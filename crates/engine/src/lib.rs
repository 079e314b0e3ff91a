//! # flowistry-engine: the incremental analysis engine
//!
//! The paper's central result is that ownership makes information flow
//! analyzable **modularly**: a function's caller-visible flows are captured
//! by a [`FunctionSummary`] that depends only on the function's own body and
//! its callees' summaries. This crate exploits that result operationally:
//!
//! * a [`CallGraph`] is extracted from the
//!   program and condensed into strongly connected components;
//! * summary computation is scheduled **bottom-up** over the condensation
//!   by a dependency-counting work-stealing scheduler: each component
//!   carries an atomic count of unfinished callee components, workers pull
//!   ready components from per-worker deques (stealing when empty), and a
//!   finished summary publishes into a concurrent store and immediately
//!   releases its callers — no level barriers, so wall-clock is bounded by
//!   the condensation's critical path;
//! * each summary is stored in a [`SummaryCache`] — sharded by key prefix,
//!   one lock and one persistence file per shard — keyed by a stable
//!   content hash of the function's MIR plus its callees' keys, so
//!   re-running after an edit re-analyzes only the edited function and its
//!   transitive callers — everything else is a cache hit (optionally warm
//!   from disk).
//!
//! The API is split into three layers, none of which borrows the program:
//!
//! * [`AnalysisEngine`] is the **builder**. It owns the program through an
//!   `Arc<CompiledProgram>` and its [`AnalysisEngine::analyze_all`] run
//!   produces…
//! * [`AnalysisSnapshot`], the **immutable query surface**: call graph,
//!   published summaries, and a bounded memo of per-function results, all
//!   behind `&self` methods with no lifetime parameter. Snapshots are
//!   cheaply cloneable (two `Arc` bumps) and answer
//!   [`results`](AnalysisSnapshot::results),
//!   [`backward_slice`](AnalysisSnapshot::backward_slice), and
//!   [`check_policy`](AnalysisSnapshot::check_policy) queries from any thread,
//!   producing results identical to a from-scratch
//!   [`analyze`](flowistry_core::analyze).
//! * [`FlowService`] is the **service front**: it owns the current
//!   snapshot, drains a bounded [`QueryRequest`] queue with a worker pool,
//!   and swaps in freshly analyzed snapshots behind running queries when
//!   [`FlowService::update`] delivers an edited program — in-flight
//!   queries finish on the epoch they started on.
//!
//! Beside the three layers stands [`Reference`], the **oracle**: it
//! answers any [`QueryRequest`] for one program version from scratch
//! ([`analyze`](flowistry_core::analyze) per function, no engine, cache or
//! snapshot), and [`Reference::answer`] is what every server — the
//! service, the TCP front, a routed fleet — must answer for that version.
//! The stress tests of all three check every answer against it.
//!
//! One caveat to "identical": direct `analyze` bounds its naive recursion
//! with `AnalysisParams::max_recursion_depth` and falls back to the
//! conservative modular rule past that depth. The engine never recurses, so
//! the guard never fires — on call chains deeper than the limit the engine
//! is *strictly more precise* than direct analysis (still sound; the guard
//! exists only to bound recursion cost, which summaries eliminate). For
//! chains within the limit — including the entire evaluation corpus — the
//! results are equal bit for bit.
//!
//! ```
//! use flowistry_engine::{AnalysisEngine, EngineConfig};
//! use flowistry_core::{analyze, AnalysisParams, Condition};
//! use std::sync::Arc;
//!
//! let program = Arc::new(flowistry_lang::compile("
//!     fn store(p: &mut i32, v: i32) { *p = v; }
//!     fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }
//! ").unwrap());
//! let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
//! let mut engine = AnalysisEngine::new(
//!     program.clone(),
//!     EngineConfig::default().with_params(params.clone()),
//! );
//! let stats = engine.analyze_all();
//! assert_eq!(stats.analyzed, 2);
//!
//! // The snapshot owns everything it needs: it can outlive the engine,
//! // move across threads, and serve queries identical to direct analyze().
//! let snapshot = engine.snapshot();
//! let caller = program.func_id("caller").unwrap();
//! assert_eq!(*snapshot.results(caller), analyze(&program, caller, &params));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod reference;
pub mod scheduler;
pub mod service;
pub mod snapshot;

pub use cache::{LoadStats, SummaryCache, SummaryKey, SHARD_COUNT};
/// The payload of [`QueryRequest::CheckPolicy`], re-exported so that
/// clients can build policy requests without naming `flowistry-ifc`.
pub use flowistry_ifc::Policy;
pub use reference::Reference;
pub use scheduler::ConcurrentSummaryStore;
pub use service::{
    FlowService, QueryEnvelope, QueryRequest, QueryResponse, ServiceConfig, ServiceStats, Ticket,
};
pub use snapshot::AnalysisSnapshot;

use flowistry_core::{AnalysisParams, FunctionSummary};
use flowistry_lang::types::FuncId;
use flowistry_lang::{function_content_hash, CallGraph, CompiledProgram, StableHasher};
use flowistry_obs::{Counter, Histogram, Registry};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of an [`AnalysisEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Analysis parameters applied to every function.
    pub params: AnalysisParams,
    /// Worker threads for summary computation. `0` (the default) uses the
    /// `FLOWISTRY_ENGINE_THREADS` environment variable if set (useful for
    /// forcing a worker count in CI) and otherwise the machine's available
    /// parallelism; `1` runs strictly sequentially on the calling thread.
    pub threads: usize,
    /// When set, the summary cache is loaded from this file on construction
    /// and written back after every [`AnalysisEngine::analyze_all`].
    pub cache_path: Option<PathBuf>,
    /// How many [`AnalysisEngine::analyze_all`] runs a cache entry survives
    /// without being used before it is evicted (default 8). Content-hash
    /// keys never repeat across program versions, so this bounds cache
    /// growth over long edit sessions while keeping recently-visited
    /// versions warm.
    pub cache_retention: u64,
    /// How many per-function results each snapshot's memo retains (default
    /// 4096, least-recently-used eviction). Under heavy query traffic the
    /// memo would otherwise grow to one entry per program function per
    /// snapshot; eviction is invisible to callers — recomputed answers are
    /// bit-identical.
    pub results_capacity: usize,
    /// Metrics registry the engine (and any [`FlowService`] built on it)
    /// records into. `None` (the default) uses the process-wide
    /// [`Registry::global`]; tests that assert exact tallies pass their own
    /// registry so parallel tests stay isolated.
    pub metrics: Option<Arc<Registry>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            params: AnalysisParams::default(),
            threads: 0,
            cache_path: None,
            cache_retention: 8,
            results_capacity: 4096,
            metrics: None,
        }
    }
}

impl EngineConfig {
    /// Replaces the analysis parameters.
    pub fn with_params(mut self, params: AnalysisParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the worker thread count (`0` = auto, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables disk persistence of the summary cache.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Enables disk persistence of the summary cache inside directory
    /// `dir`, which engines of a fleet can share: the cache path is
    /// `dir/summaries.cache`, so the shards are `dir/summaries.<N>.cache`.
    pub fn with_cache_dir(self, dir: impl AsRef<Path>) -> Self {
        self.with_cache_path(dir.as_ref().join("summaries.cache"))
    }

    /// Overrides how many runs an unused cache entry survives.
    pub fn with_cache_retention(mut self, runs: u64) -> Self {
        self.cache_retention = runs;
        self
    }

    /// Caps how many per-function results a snapshot memoizes (minimum 1).
    pub fn with_results_capacity(mut self, capacity: usize) -> Self {
        self.results_capacity = capacity.max(1);
        self
    }

    /// Records metrics into `registry` instead of the process-wide
    /// [`Registry::global`].
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }
}

/// The engine's pre-resolved metric handles: looked up once at
/// construction so the hot paths (per-function summary computation, run
/// accounting) never touch the registry's lock.
#[derive(Clone)]
pub(crate) struct EngineMetrics {
    /// Wall-clock of each fresh summary computation. Callee summaries are
    /// computed under their own spans (or come from the cache/store), so
    /// this is per-function self-time.
    pub summary_compute: Arc<Histogram>,
    pub functions_analyzed: Arc<Counter>,
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    pub steals: Arc<Counter>,
    pub cache_evictions: Arc<Counter>,
    pub cache_persisted: Arc<Counter>,
}

impl EngineMetrics {
    pub(crate) fn new(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            summary_compute: registry.histogram(
                "flow_engine_summary_compute_seconds",
                "Wall-clock self-time of each freshly computed function summary",
            ),
            functions_analyzed: registry.counter(
                "flow_engine_functions_analyzed_total",
                "Function summaries computed by running the analysis",
            ),
            cache_hits: registry.counter(
                "flow_engine_cache_hits_total",
                "Function summaries served from the summary cache",
            ),
            cache_misses: registry.counter(
                "flow_engine_cache_misses_total",
                "Summary cache lookups that required a fresh analysis",
            ),
            steals: registry.counter(
                "flow_engine_steals_total",
                "Successful deque steals in the work-stealing scheduler",
            ),
            cache_evictions: registry.counter(
                "flow_engine_cache_evictions_total",
                "Summary cache entries evicted by generation retention",
            ),
            cache_persisted: registry.counter(
                "flow_engine_cache_persisted_entries_total",
                "Summary cache entries written to disk",
            ),
        }
    }
}

/// What one [`AnalysisEngine::analyze_all`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Functions whose summary was computed by running the analysis.
    pub analyzed: usize,
    /// Functions whose summary came out of the cache.
    pub cache_hits: usize,
    /// Sequential depth of the schedule: the critical-path length (in
    /// SCCs) of the call graph's condensation.
    pub levels: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Successful deque steals (always `0` with a single worker).
    pub steals: usize,
}

/// The snapshot builder: owns the program, the summary cache, and the
/// scheduling configuration; each [`AnalysisEngine::analyze_all`] run
/// publishes an immutable [`AnalysisSnapshot`].
///
/// The engine shares the [`CompiledProgram`] through an `Arc` — no borrow,
/// no lifetime. After an edit, `compile` the new source and hand it to
/// [`AnalysisEngine::update_program`] — the summary cache carries over, so
/// the next [`AnalysisEngine::analyze_all`] only re-analyzes functions
/// whose content (or whose callees' content) changed.
///
/// Queries go to a snapshot: take an [`AnalysisEngine::snapshot`] (or put
/// a [`FlowService`] in front). The builder itself answers only
/// [`AnalysisEngine::summary`], [`AnalysisEngine::results`] and
/// [`AnalysisEngine::invalidation_set`] from its most recent run.
pub struct AnalysisEngine {
    program: Arc<CompiledProgram>,
    config: EngineConfig,
    // Arc-shared with the snapshots: immutable per epoch, so publishing a
    // snapshot costs reference bumps, not O(functions + edges) copies.
    call_graph: Arc<CallGraph>,
    keys: Arc<Vec<SummaryKey>>,
    cache: SummaryCache,
    epoch: u64,
    current: Option<AnalysisSnapshot>,
    /// The registry metrics record into (configured or the global one).
    registry: Arc<Registry>,
    /// Handles pre-resolved from `registry` at construction.
    metrics: EngineMetrics,
}

impl AnalysisEngine {
    /// Creates an engine for `program`, loading the disk cache if one is
    /// configured (a missing or corrupt cache file just starts cold).
    pub fn new(program: impl Into<Arc<CompiledProgram>>, config: EngineConfig) -> Self {
        let program = program.into();
        let cache = match &config.cache_path {
            Some(path) => SummaryCache::load(path).unwrap_or_default(),
            None => SummaryCache::new(),
        };
        let call_graph = Arc::new(CallGraph::extract(&program));
        let keys = Arc::new(compute_keys(&program, &call_graph, &config.params));
        let registry = config
            .metrics
            .clone()
            .unwrap_or_else(|| Registry::global().clone());
        let metrics = EngineMetrics::new(&registry);
        AnalysisEngine {
            program,
            config,
            call_graph,
            keys,
            cache,
            epoch: 0,
            current: None,
            registry,
            metrics,
        }
    }

    /// The metrics registry this engine records into — the configured one,
    /// or [`Registry::global`] by default. A [`FlowService`] built on this
    /// engine inherits it.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The program currently served (shared, not borrowed).
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// The engine's call graph.
    pub fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// The analysis parameters in use.
    pub fn params(&self) -> &AnalysisParams {
        &self.config.params
    }

    /// The current program epoch: how many times
    /// [`AnalysisEngine::update_program`] has run. Snapshots carry the
    /// epoch they were built on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cache key of `func` under the current program and parameters.
    pub fn key(&self, func: FuncId) -> SummaryKey {
        self.keys[func.0 as usize]
    }

    /// Settles the epoch after a *failed* update attempt: the attempt
    /// still lands on `epoch`, the epoch the `FlowService` promised it,
    /// whether the failure struck before or after
    /// [`AnalysisEngine::update_program_at`] advanced the counter.
    pub fn settle_failed_update(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Swaps in a re-compiled program (after a source edit) and returns the
    /// new epoch. The current snapshot is retired (existing clones keep
    /// serving their own epoch untouched, and the next run inherits its
    /// memoized results for every function whose key is unchanged); the
    /// content-addressed cache is kept, so the next
    /// [`AnalysisEngine::analyze_all`] is incremental: only functions whose
    /// key changed are re-analyzed.
    ///
    /// An `available_bodies` restriction is carried across the update **by
    /// function name**: [`FuncId`]s are positional and shift when the edit
    /// adds or removes functions, so the ids are re-resolved against the
    /// new program (names that no longer exist are dropped).
    pub fn update_program(&mut self, program: impl Into<Arc<CompiledProgram>>) -> u64 {
        self.update_program_at(program, None)
    }

    /// Like [`AnalysisEngine::update_program`], but optionally
    /// fast-forwards the epoch to at least `target_epoch`. A respawned
    /// fleet replica is warm-started with the *latest* program only, not
    /// the whole update history; pinning the epoch keeps its envelopes
    /// consistent with the fleet's numbering (epochs never move backward —
    /// a stale target is ignored).
    pub fn update_program_at(
        &mut self,
        program: impl Into<Arc<CompiledProgram>>,
        target_epoch: Option<u64>,
    ) -> u64 {
        let program = program.into();
        // Advance the epoch before anything that can panic (call-graph
        // extraction, key computation), so a failed attempt has already
        // consumed its epoch.
        self.epoch += 1;
        if let Some(target) = target_epoch {
            self.epoch = self.epoch.max(target);
        }
        if let Some(old_set) = &self.config.params.available_bodies {
            let names: std::collections::BTreeSet<&str> = old_set
                .iter()
                .filter_map(|f| self.program.signatures.get(f.0 as usize))
                .map(|sig| sig.name.as_str())
                .collect();
            let remapped = program
                .signatures
                .iter()
                .enumerate()
                .filter(|(_, sig)| names.contains(sig.name.as_str()))
                .map(|(i, _)| FuncId(i as u32))
                .collect();
            self.config.params.available_bodies = Some(remapped);
        }
        self.program = program;
        self.call_graph = Arc::new(CallGraph::extract(&self.program));
        self.keys = Arc::new(compute_keys(
            &self.program,
            &self.call_graph,
            &self.config.params,
        ));
        // `current` is kept (now stale — its epoch lags `self.epoch`) so
        // the next `analyze_all` can carry its memoized results forward;
        // the query accessors refuse to serve it in the meantime.
        self.epoch
    }

    /// Computes (or fetches) the summary of every available function,
    /// bottom-up over the call graph with the work-stealing
    /// [`scheduler`], publishes a fresh [`AnalysisSnapshot`], and persists
    /// the cache if a path is configured.
    pub fn analyze_all(&mut self) -> RunStats {
        let outcome = scheduler::run_work_stealing(
            &self.program,
            &self.call_graph,
            &self.config.params,
            &self.keys,
            &self.cache,
            scheduler::resolve_worker_threads(self.config.threads),
            self.config.results_capacity,
            &self.metrics,
        );
        let stats = RunStats {
            analyzed: outcome.analyzed,
            cache_hits: outcome.cache_hits,
            levels: self.call_graph.critical_path_len(),
            threads: outcome.threads,
            steals: outcome.steals,
        };

        // Close the run: mark every key this program version uses (hits and
        // fresh inserts alike) and evict entries idle for too many runs.
        let used: Vec<SummaryKey> = outcome.summaries.keys().map(|&f| self.key(f)).collect();
        self.cache.touch(used);
        let evicted = self.cache.end_generation(self.config.cache_retention);

        self.metrics.functions_analyzed.add(stats.analyzed as u64);
        self.metrics.cache_hits.add(stats.cache_hits as u64);
        self.metrics.cache_misses.add(stats.analyzed as u64);
        self.metrics.steals.add(stats.steals as u64);
        self.metrics.cache_evictions.add(evicted as u64);

        if let Some(path) = &self.config.cache_path {
            match self.cache.save(path) {
                Ok(persisted) => self.metrics.cache_persisted.add(persisted as u64),
                Err(e) => flowistry_obs::warn!("could not persist summary cache: {e}"),
            }
        }

        // Seed the snapshot's memo with the full results computed during
        // summary extraction (a summary is a projection of them, so they
        // were free): first queries for freshly analyzed functions are memo
        // hits instead of re-analyses. Cache-hit functions inherit the
        // retiring snapshot's memoized results where the summary key is
        // unchanged — shared `Arc`s, so retiring the old snapshot never
        // deep-drops what the new one still serves. Carried entries go in
        // *first*: seeding assigns LRU recency in insertion order, so when
        // the combined seed exceeds the memo capacity it is old carry-over
        // that gets evicted, never this run's freshly analyzed dirty cone.
        let mut seed = match &self.current {
            Some(prev) => prev.carryover_results(&self.keys),
            None => Vec::new(),
        };
        seed.extend(outcome.results);
        let snapshot = AnalysisSnapshot::new(
            self.program.clone(),
            self.config.params.clone(),
            self.call_graph.clone(),
            self.keys.clone(),
            outcome.summaries,
            self.config.results_capacity,
            self.epoch,
            stats,
        );
        snapshot.seed_results(seed);
        self.current = Some(snapshot);
        stats
    }

    /// The most recent [`AnalysisSnapshot`] (cheap clone — two `Arc`
    /// bumps). The snapshot is immutable and self-contained: it keeps
    /// serving its epoch even after the engine moves on via
    /// [`AnalysisEngine::update_program`].
    ///
    /// # Panics
    ///
    /// Panics if [`AnalysisEngine::analyze_all`] has not produced a
    /// snapshot for the current program yet.
    pub fn snapshot(&self) -> AnalysisSnapshot {
        self.current_snapshot().clone()
    }

    /// Whether [`AnalysisEngine::analyze_all`] has produced a snapshot for
    /// the current program (a snapshot retired by
    /// [`AnalysisEngine::update_program`] does not count).
    pub fn has_snapshot(&self) -> bool {
        self.current
            .as_ref()
            .is_some_and(|s| s.epoch() == self.epoch)
    }

    fn current_snapshot(&self) -> &AnalysisSnapshot {
        let snapshot = self
            .current
            .as_ref()
            .expect("no snapshot yet: run analyze_all() after new()");
        assert_eq!(
            snapshot.epoch(),
            self.epoch,
            "snapshot is stale: run analyze_all() after update_program()"
        );
        snapshot
    }

    /// The cached summary of `func` in the current snapshot, if
    /// [`AnalysisEngine::analyze_all`] has produced one (external functions
    /// have none; before the first `analyze_all` — or after an
    /// `update_program` not yet re-analyzed — every function answers
    /// `None`).
    pub fn summary(&self, func: FuncId) -> Option<&FunctionSummary> {
        self.current
            .as_ref()
            .filter(|s| s.epoch() == self.epoch)
            .and_then(|s| s.summary(func))
    }

    /// Forwards to [`AnalysisSnapshot::results`] on the current snapshot.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot has been built yet (see
    /// [`AnalysisEngine::snapshot`]).
    pub fn results(&self, func: FuncId) -> Arc<flowistry_core::InfoFlowResults> {
        self.current_snapshot().results(func)
    }

    /// The set of functions whose summary would have to be recomputed if
    /// `func`'s body changed: `func` plus its transitive callers.
    pub fn invalidation_set(&self, func: FuncId) -> BTreeSet<FuncId> {
        self.call_graph.transitive_callers(func)
    }

    /// Direct access to the underlying summary cache (for inspection).
    pub fn cache(&self) -> &SummaryCache {
        &self.cache
    }
}

/// Computes every function's [`SummaryKey`].
///
/// Keys follow the dependency structure of summaries: processing components
/// in reverse topological order, a function's key mixes
///
/// * a fingerprint of the analysis parameters,
/// * its own span-free content hash,
/// * the content hashes of its recursion partners (same SCC), and
/// * the keys of its callees outside the SCC (their keys, not their hashes,
///   so transitive edits propagate), tagged with their availability.
fn compute_keys(
    program: &CompiledProgram,
    call_graph: &CallGraph,
    params: &AnalysisParams,
) -> Vec<SummaryKey> {
    let n = program.bodies.len();
    let fingerprint = params_fingerprint(program, params);
    let own: Vec<u64> = (0..n)
        .map(|i| function_content_hash(program, FuncId(i as u32)))
        .collect();

    let mut keys = vec![SummaryKey(0); n];
    // `sccs()` is in reverse topological order: callees first, so callee
    // keys are final by the time a caller mixes them in.
    for members in call_graph.sccs() {
        let member_set: BTreeSet<FuncId> = members.iter().copied().collect();
        for &func in members {
            let mut h = StableHasher::new();
            h.write_u64(fingerprint);
            h.write_u64(own[func.0 as usize]);
            // Recursion partners contribute their raw content: the analysis
            // walks their bodies when it recurses around the cycle.
            h.write_usize(members.len());
            for &partner in members {
                if partner != func {
                    h.write_u64(own[partner.0 as usize]);
                }
            }
            let outside: BTreeSet<FuncId> = members
                .iter()
                .flat_map(|&m| call_graph.callees(m).iter().copied())
                .filter(|c| !member_set.contains(c))
                .collect();
            h.write_usize(outside.len());
            for callee in outside {
                let available = params.body_available(callee);
                h.write_bool(available);
                if available {
                    h.write_u64(keys[callee.0 as usize].0);
                } else {
                    // Only the signature is visible across the boundary, but
                    // the content hash covers it; being coarser is safe.
                    h.write_u64(own[callee.0 as usize]);
                }
            }
            keys[func.0 as usize] = SummaryKey(h.finish());
        }
    }
    keys
}

/// Hashes everything in [`AnalysisParams`] that can change analysis results.
fn params_fingerprint(program: &CompiledProgram, params: &AnalysisParams) -> u64 {
    let mut h = StableHasher::new();
    h.write_bool(params.condition.whole_program);
    h.write_bool(params.condition.mut_blind);
    h.write_bool(params.condition.ref_blind);
    h.write_usize(params.max_recursion_depth);
    match &params.available_bodies {
        None => h.write_u8(0),
        Some(set) => {
            h.write_u8(1);
            // By name, for the same positional-id reason as call hashing —
            // and in *sorted* order: iterating the set in FuncId order would
            // tie the fingerprint to positional ids, so an edit that merely
            // shifts ids would reorder the names and cold-invalidate the
            // whole cache despite denoting the same available set.
            let names: BTreeSet<&str> = set
                .iter()
                .filter_map(|func| program.signatures.get(func.0 as usize))
                .map(|sig| sig.name.as_str())
                .collect();
            h.write_usize(names.len());
            for name in names {
                h.write_str(name);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_core::{analyze, Condition};

    const PROGRAM: &str = "
        fn leaf(p: &mut i32, v: i32) { *p = v; }
        fn mid(p: &mut i32, v: i32) { leaf(p, v + 1); }
        fn top(v: i32) -> i32 { let mut x = 0; mid(&mut x, v); return x; }
    ";

    fn whole_program() -> AnalysisParams {
        AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
    }

    fn compile(src: &str) -> Arc<CompiledProgram> {
        Arc::new(flowistry_lang::compile(src).unwrap())
    }

    #[test]
    fn analyze_all_visits_every_function_bottom_up() {
        let program = compile(PROGRAM);
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(whole_program()),
        );
        let stats = engine.analyze_all();
        assert_eq!(stats.analyzed, 3);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.levels, 3);
        for name in ["leaf", "mid", "top"] {
            let func = program.func_id(name).unwrap();
            assert!(engine.summary(func).is_some(), "no summary for {name}");
        }
        // Second run: everything is warm.
        let stats2 = engine.analyze_all();
        assert_eq!(stats2.analyzed, 0);
        assert_eq!(stats2.cache_hits, 3);
    }

    #[test]
    fn engine_results_match_direct_analysis() {
        let program = compile(PROGRAM);
        let params = whole_program();
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(params.clone()),
        );
        engine.analyze_all();
        for i in 0..program.bodies.len() {
            let func = FuncId(i as u32);
            let direct = analyze(&program, func, &params);
            assert_eq!(*engine.results(func), direct, "{}", program.body(func).name);
        }
    }

    #[test]
    fn snapshots_outlive_the_engine_and_serve_their_own_epoch() {
        let program = compile(PROGRAM);
        let params = whole_program();
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(params.clone()),
        );
        engine.analyze_all();
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.epoch(), 0);

        // The engine moves on to an edited program; the old snapshot keeps
        // answering from the program it was built on.
        let edited = compile(&PROGRAM.replace("v + 1", "v + 2"));
        let epoch = engine.update_program(edited.clone());
        assert_eq!(epoch, 1);
        engine.analyze_all();
        assert_eq!(engine.snapshot().epoch(), 1);

        drop(engine);
        let top = program.func_id("top").unwrap();
        assert_eq!(*snapshot.results(top), analyze(&program, top, &params));
        assert!(Arc::ptr_eq(snapshot.program(), &program));
    }

    #[test]
    fn unavailable_functions_are_not_summarized() {
        let program = compile(PROGRAM);
        let top = program.func_id("top").unwrap();
        let mid = program.func_id("mid").unwrap();
        let params = AnalysisParams {
            condition: Condition::WHOLE_PROGRAM,
            available_bodies: Some([top, mid].into_iter().collect()),
            ..AnalysisParams::default()
        };
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(params.clone()),
        );
        let stats = engine.analyze_all();
        assert_eq!(stats.analyzed, 2);
        assert!(engine.summary(program.func_id("leaf").unwrap()).is_none());
        // Boundary flag matches the from-scratch analysis.
        let direct = analyze(&program, top, &params);
        assert!(direct.hit_boundary());
        assert_eq!(*engine.results(top), direct);
    }

    #[test]
    fn invalidation_set_is_the_caller_cone() {
        let program = compile(PROGRAM);
        let engine = AnalysisEngine::new(program.clone(), EngineConfig::default());
        let leaf = program.func_id("leaf").unwrap();
        let set = engine.invalidation_set(leaf);
        assert_eq!(set.len(), 3);
        let top = program.func_id("top").unwrap();
        assert_eq!(engine.invalidation_set(top).len(), 1);
    }

    #[test]
    fn keys_depend_on_params() {
        let program = compile(PROGRAM);
        let func = program.func_id("top").unwrap();
        let modular = AnalysisEngine::new(program.clone(), EngineConfig::default());
        let whole = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(whole_program()),
        );
        assert_ne!(modular.key(func), whole.key(func));
    }
}
