//! The dependency-counting work-stealing scheduler.
//!
//! A schedule that groups components into levels and joins every worker at
//! each level boundary lets one slow component stall the whole level:
//! wall-clock is the *sum of per-level maxima*. The paper's modularity
//! result implies a strictly weaker requirement — a component is ready as
//! soon as its callee components are summarized, regardless of what else
//! is in flight. This module schedules exactly that:
//!
//! * every SCC of the condensation carries an atomic count of unfinished
//!   callee components (seeded from
//!   [`CallGraph::scc_dependency_counts`]);
//! * each worker owns a deque of ready components — it pops from the back
//!   of its own deque and steals from the front of a victim's when empty;
//! * a finished component publishes its members' summaries into a
//!   [`ConcurrentSummaryStore`] (readable mid-run by every worker through
//!   the [`SummaryStore`] seeding trait) and decrements each caller
//!   component's count, pushing components that reach zero onto the
//!   finishing worker's own deque.
//!
//! There are no barriers, so wall-clock is bounded by the critical path of
//! the condensation instead of the sum of per-level maxima. Results are
//! bit-identical to a sequential run (and to direct
//! [`analyze`](flowistry_core::analyze)): the members of a component are
//! analyzed against exactly the summaries of its callee components, and
//! publication happens only after the *whole* component is done, so
//! mutually recursive partners never observe each other's freshly computed
//! summaries.

use crate::cache::SummaryCache;
use crate::{EngineMetrics, SummaryKey};
use flowistry_core::{
    compute_summary_with_results, AnalysisParams, CachedSummary, InfoFlowResults, SummaryStore,
};
use flowistry_lang::types::FuncId;
use flowistry_lang::{CallGraph, CompiledProgram};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Resolves a configured worker-thread count the way every pool in this
/// crate does: `0` means the `FLOWISTRY_ENGINE_THREADS` environment
/// variable if set (useful for forcing a worker count in CI), else the
/// machine's available parallelism; any other value is taken as-is. Shared
/// by [`analyze_all`](crate::AnalysisEngine::analyze_all)'s summary workers
/// and the [`FlowService`](crate::FlowService) query pool so one knob sizes
/// both.
pub fn resolve_worker_threads(configured: usize) -> usize {
    match configured {
        0 => std::env::var("FLOWISTRY_ENGINE_THREADS")
            .ok()
            .and_then(|raw| parse_thread_env(&raw))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Warned-once flag for a malformed `FLOWISTRY_ENGINE_THREADS`: the
/// resolver runs once per `analyze_all` and per service pool, and repeating
/// the warning every time would drown real output.
static WARNED_MALFORMED_THREADS: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Parses a `FLOWISTRY_ENGINE_THREADS` value. Whitespace is trimmed first —
/// `FLOWISTRY_ENGINE_THREADS="8 "` (or a trailing newline from command
/// substitution) must not silently disable the knob. `0` means auto, like
/// the configured value. Anything that still fails to parse warns once on
/// stderr and falls back to available parallelism.
fn parse_thread_env(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => {
            if !WARNED_MALFORMED_THREADS.swap(true, Ordering::Relaxed) {
                flowistry_obs::warn!(
                    "ignoring malformed FLOWISTRY_ENGINE_THREADS value {raw:?}; \
                     using available parallelism"
                );
            }
            None
        }
    }
}

/// Number of shards in the [`ConcurrentSummaryStore`] (keyed by `FuncId`,
/// which is dense, so a cheap modulo spreads load evenly).
const STORE_SHARDS: usize = 16;

/// A concurrent [`FuncId`] → [`CachedSummary`] map that workers publish
/// finished summaries into while other workers are mid-analysis.
///
/// Implements [`SummaryStore`], so it seeds
/// [`compute_summary`](flowistry_core::compute_summary) directly: a worker analyzing a caller reads its
/// callees' summaries out of the store without any hand-off or barrier.
/// Sharded `RwLock`s keep lookups (the hot path — every call terminator of
/// every analyzed body) wait-free with respect to each other.
#[derive(Debug, Default)]
pub struct ConcurrentSummaryStore {
    shards: [RwLock<HashMap<FuncId, CachedSummary>>; STORE_SHARDS],
}

impl ConcurrentSummaryStore {
    /// An empty store.
    pub fn new() -> Self {
        ConcurrentSummaryStore::default()
    }

    fn shard(&self, func: FuncId) -> &RwLock<HashMap<FuncId, CachedSummary>> {
        &self.shards[func.0 as usize % STORE_SHARDS]
    }

    /// Makes `func`'s summary visible to every worker.
    pub fn publish(&self, func: FuncId, entry: CachedSummary) {
        self.shard(func)
            .write()
            .expect("summary store lock")
            .insert(func, entry);
    }

    /// Consumes the store into a plain map (used by the engine to serve
    /// queries after the run completes).
    pub fn into_map(self) -> HashMap<FuncId, CachedSummary> {
        let mut out = HashMap::new();
        for shard in self.shards {
            out.extend(shard.into_inner().expect("summary store lock"));
        }
        out
    }
}

impl SummaryStore for ConcurrentSummaryStore {
    fn lookup(&self, func: FuncId) -> Option<CachedSummary> {
        self.shard(func)
            .read()
            .expect("summary store lock")
            .get(&func)
            .cloned()
    }
}

/// What one work-stealing run produced, for the engine to fold into its
/// `RunStats` and query state.
pub(crate) struct WorkStealingOutcome {
    /// Functions whose summary was computed by running the analysis.
    pub analyzed: usize,
    /// Functions whose summary came out of the cache.
    pub cache_hits: usize,
    /// Successful deque steals.
    pub steals: usize,
    /// Workers used.
    pub threads: usize,
    /// Every available function's summary.
    pub summaries: HashMap<FuncId, CachedSummary>,
    /// The full per-location results of every function that was *analyzed*
    /// this run (cache hits carry no results). The summary is a projection
    /// of these, so they come for free — the engine seeds its snapshot's
    /// results memo with them instead of re-analyzing on first query.
    pub results: Vec<(FuncId, Arc<InfoFlowResults>)>,
}

/// Runs summary computation over the condensation with `workers` work-
/// stealing workers, resolving each function against `cache` and seeding
/// analyses from the concurrent store. Each fresh summary computation runs
/// under a `summary_compute` span feeding `metrics.summary_compute` — the
/// fixpoint inner loop itself stays uninstrumented.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_work_stealing(
    program: &CompiledProgram,
    call_graph: &CallGraph,
    params: &AnalysisParams,
    keys: &[SummaryKey],
    cache: &SummaryCache,
    workers: usize,
    results_capacity: usize,
    metrics: &EngineMetrics,
) -> WorkStealingOutcome {
    let num_sccs = call_graph.sccs().len();
    let workers = workers.clamp(1, num_sccs.max(1));

    let deps: Vec<AtomicUsize> = call_graph
        .scc_dependency_counts()
        .into_iter()
        .map(AtomicUsize::new)
        .collect();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Leaf components are ready immediately; spread them round-robin so
    // every worker starts with local work before stealing kicks in.
    let mut seeded = 0usize;
    for (scc, count) in deps.iter().enumerate() {
        if count.load(Ordering::Relaxed) == 0 {
            deques[seeded % workers]
                .lock()
                .expect("scheduler deque lock")
                .push_back(scc);
            seeded += 1;
        }
    }

    let remaining = AtomicUsize::new(num_sccs);
    let steals = AtomicUsize::new(0);
    // Bounds how many full results the run retains for memo seeding: the
    // snapshot memo caps out at `results_capacity` anyway, so collecting
    // past it would only inflate the run's peak memory.
    let results_kept = AtomicUsize::new(0);
    let store = ConcurrentSummaryStore::new();
    // A panicking worker cannot decrement `remaining` for components it
    // never finished, so without this flag its siblings would spin on the
    // idle path forever. The first panic is stashed here; everyone else
    // drains out at the next loop check and the payload is re-thrown on
    // the caller's thread, failing fast like a scoped-thread join.
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    type WorkerTally = (usize, usize, Vec<(FuncId, Arc<InfoFlowResults>)>);
    let worker_loop = |me: usize| -> WorkerTally {
        let (mut analyzed, mut cache_hits) = (0usize, 0usize);
        let mut results: Vec<(FuncId, Arc<InfoFlowResults>)> = Vec::new();
        let mut idle_rounds = 0u32;
        loop {
            if panic_payload.lock().expect("panic slot lock").is_some() {
                break;
            }
            let next = pop_own(&deques, me).or_else(|| steal(&deques, me, &steals));
            let Some(scc) = next else {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Back off while out of work: yield first (cheap wake-up if
                // a victim publishes immediately), then sleep briefly — a
                // hot spin would steal cycles from the workers actually
                // computing, which on few-core machines can cost more than
                // stealing ever wins.
                idle_rounds += 1;
                if idle_rounds <= 8 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                continue;
            };
            idle_rounds = 0;

            // Resolve the whole component against the cache/store before
            // publishing anything: partners of a recursion cycle must not
            // see each other's summaries (that would diverge from a
            // sequential run and from direct analysis, which recurse into
            // partner bodies naively). `AssertUnwindSafe` is fine: on a
            // panic the whole run is abandoned, never resumed.
            type Produced = (FuncId, CachedSummary, Option<Arc<InfoFlowResults>>);
            let component = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut produced: Vec<Produced> = Vec::new();
                for &func in &call_graph.sccs()[scc] {
                    if !params.body_available(func) {
                        continue;
                    }
                    let key = keys[func.0 as usize];
                    match cache.get(key) {
                        Some(entry) => produced.push((func, entry, None)),
                        None => {
                            let _span = flowistry_obs::Span::enter_with(
                                "summary_compute",
                                program.body(func).name.as_str(),
                            )
                            .with_histogram(metrics.summary_compute.clone());
                            let (entry, full) =
                                compute_summary_with_results(program, func, params, &store);
                            cache.insert(key, entry.clone());
                            produced.push((func, entry, Some(Arc::new(full))));
                        }
                    }
                }
                produced
            }));
            let produced = match component {
                Ok(produced) => produced,
                Err(payload) => {
                    let mut slot = panic_payload.lock().expect("panic slot lock");
                    slot.get_or_insert(payload);
                    break;
                }
            };
            for (func, entry, full) in produced {
                match full {
                    None => cache_hits += 1,
                    Some(full) => {
                        analyzed += 1;
                        if results_kept.fetch_add(1, Ordering::Relaxed) < results_capacity {
                            results.push((func, full));
                        }
                    }
                }
                store.publish(func, entry);
            }

            // The component is done: release callers that were only waiting
            // on it. `AcqRel` orders our publications before any worker
            // that observes the count reach zero.
            for &caller in call_graph.scc_callers(scc) {
                if deps[caller].fetch_sub(1, Ordering::AcqRel) == 1 {
                    deques[me]
                        .lock()
                        .expect("scheduler deque lock")
                        .push_back(caller);
                }
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        }
        (analyzed, cache_hits, results)
    };

    let counts: Vec<WorkerTally> = if workers == 1 {
        // Single worker: run inline — strictly sequential and deterministic.
        vec![worker_loop(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|me| s.spawn(move || worker_loop(me)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        })
    };
    if let Some(payload) = panic_payload.into_inner().expect("panic slot lock") {
        std::panic::resume_unwind(payload);
    }

    debug_assert_eq!(remaining.load(Ordering::Relaxed), 0);
    let (mut analyzed, mut cache_hits) = (0usize, 0usize);
    let mut results = Vec::new();
    for (a, h, r) in counts {
        analyzed += a;
        cache_hits += h;
        results.extend(r);
    }
    WorkStealingOutcome {
        analyzed,
        cache_hits,
        steals: steals.load(Ordering::Relaxed),
        threads: workers,
        summaries: store.into_map(),
        results,
    }
}

/// Pops from the back of the worker's own deque (LIFO keeps the working
/// set hot: a component made ready by the last finish is processed next).
fn pop_own(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    deques[me].lock().expect("scheduler deque lock").pop_back()
}

/// Steals from the front of the first non-empty victim deque (FIFO: take
/// the oldest ready component, which the owner is least likely to want
/// soon). Scans victims starting after `me` so contention spreads.
fn steal(deques: &[Mutex<VecDeque<usize>>], me: usize, steals: &AtomicUsize) -> Option<usize> {
    let n = deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(scc) = deques[victim]
            .lock()
            .expect("scheduler deque lock")
            .pop_front()
        {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(scc);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_core::Condition;

    /// Regressions for `FLOWISTRY_ENGINE_THREADS` parsing, in one test so
    /// the process-global warned-once flag is observed in a fixed order:
    /// (1) surrounding whitespace (e.g. a trailing newline from
    /// `FLOWISTRY_ENGINE_THREADS=$(nproc)`) used to fail `parse` and
    /// silently fall through to available parallelism — it is trimmed now;
    /// (2) a value that still fails to parse warns once instead of being
    /// silently ignored.
    #[test]
    fn thread_env_is_trimmed_and_malformed_values_warn_once() {
        assert_eq!(parse_thread_env("8"), Some(8));
        assert_eq!(parse_thread_env(" 8 "), Some(8));
        assert_eq!(parse_thread_env("8\n"), Some(8));
        assert_eq!(parse_thread_env("\t2"), Some(2));
        // 0 means auto, exactly like the configured value — no warning.
        // (No flag-is-still-false assertion here: a sibling test resolving
        // threads under a genuinely malformed env var would flip the
        // process-global flag concurrently and flake this test for exactly
        // the users the warning exists for.)
        assert_eq!(parse_thread_env("0"), None);

        // Malformed values fall back to available parallelism and warn on
        // stderr — but only the first one.
        assert_eq!(parse_thread_env("bogus"), None);
        assert!(WARNED_MALFORMED_THREADS.load(Ordering::Relaxed));
        assert_eq!(parse_thread_env("8 threads"), None);
        assert_eq!(parse_thread_env("-2"), None);
        assert!(WARNED_MALFORMED_THREADS.load(Ordering::Relaxed));

        // An explicitly configured count never consults the environment.
        // (No `set_var` here: mutating the environment races concurrent
        // `getenv` calls from sibling tests — the trim behavior is covered
        // through `parse_thread_env`, which `resolve_worker_threads` feeds
        // every env value through.)
        assert_eq!(resolve_worker_threads(3), 3);
        assert_eq!(resolve_worker_threads(1), 1);
    }

    /// A panicking worker must re-throw on the calling thread, not leave
    /// its siblings spinning forever on a `remaining` count that can never
    /// reach zero (a hang here fails the test run via its timeout).
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn worker_panics_propagate_instead_of_hanging() {
        let program = flowistry_lang::compile(
            "fn a(x: i32) -> i32 { return x; }
             fn b(x: i32) -> i32 { return a(x); }",
        )
        .unwrap();
        let call_graph = CallGraph::extract(&program);
        let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
        let cache = SummaryCache::new();
        // An empty key table makes the first component's key lookup panic
        // inside a worker.
        let metrics = crate::EngineMetrics::new(&flowistry_obs::Registry::new());
        run_work_stealing(
            &program,
            &call_graph,
            &params,
            &[],
            &cache,
            2,
            4096,
            &metrics,
        );
    }
}
