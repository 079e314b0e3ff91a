//! The async query front: a long-lived service serving slice/IFC queries
//! from immutable snapshots while re-analysis happens in the background.
//!
//! [`FlowService`] is the codebase's first step from "library" to
//! "server". It owns the current [`AnalysisSnapshot`] plus the producing
//! [`AnalysisEngine`], and splits work across two kinds of threads:
//!
//! * a **query worker pool** drains a bounded [`QueryRequest`] queue.
//!   Every worker starts a request by cloning the current snapshot (two
//!   `Arc` bumps), so a request is answered entirely from one immutable
//!   epoch — no query ever observes a half-swapped snapshot. The pool is
//!   sized by the same knob as the summary scheduler
//!   ([`resolve_worker_threads`]: `0` = `FLOWISTRY_ENGINE_THREADS` or
//!   available parallelism).
//! * an **updater thread** applies [`FlowService::update`] requests: it
//!   feeds the edited program to the engine, re-runs
//!   [`analyze_all`](AnalysisEngine::analyze_all) — warm from the shared
//!   [`SummaryCache`](crate::SummaryCache), scheduled by the work-stealing
//!   scheduler, so only the edit's dirty cone is recomputed — and
//!   atomically swaps the fresh snapshot in. In-flight queries finish on
//!   the epoch they started on; the next request picks up the new one.
//!
//! Callers choose between the blocking [`FlowService::query`] and the
//! [`FlowService::submit`]/[`Ticket::poll`] handle API. Every answer comes
//! wrapped in a [`QueryEnvelope`] carrying the epoch of the snapshot that
//! served it, so callers (and the stress tests) can check answers against
//! the exact program version they were computed from.
//!
//! ```
//! use flowistry_engine::{AnalysisEngine, EngineConfig, FlowService, ServiceConfig};
//! use flowistry_engine::{QueryRequest, QueryResponse};
//! use flowistry_core::{AnalysisParams, Condition};
//! use std::sync::Arc;
//!
//! let program = Arc::new(flowistry_lang::compile("
//!     fn store(p: &mut i32, v: i32) { *p = v; }
//!     fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }
//! ").unwrap());
//! let engine = AnalysisEngine::new(
//!     program.clone(),
//!     EngineConfig::default()
//!         .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
//! );
//! let service = FlowService::new(engine, ServiceConfig::default());
//! let caller = program.func_id("caller").unwrap();
//! let reply = service.query(QueryRequest::Results(caller));
//! assert_eq!(reply.epoch, 0);
//! assert!(matches!(reply.response, QueryResponse::Results(_)));
//! ```

use crate::scheduler::resolve_worker_threads;
use crate::{AnalysisEngine, AnalysisSnapshot, RunStats};
use flowistry_core::{FunctionSummary, InfoFlowResults};
use flowistry_fault::{sites as fault_sites, Fault};
use flowistry_ifc::{IfcDiagnostic, Policy};
use flowistry_lang::mir::{Body, Location, Place};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use flowistry_lint::LintFinding;
use flowistry_obs::{Counter, Gauge, Histogram, Registry, Span, TraceIdGuard};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`FlowService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Query worker threads. `0` (the default) resolves like the engine's
    /// summary workers: `FLOWISTRY_ENGINE_THREADS` if set, else the
    /// machine's available parallelism.
    pub workers: usize,
    /// Capacity of the request queue. A full queue applies backpressure:
    /// [`FlowService::submit`] blocks until a worker drains a slot.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 256,
        }
    }
}

impl ServiceConfig {
    /// Sets the query worker count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the request queue capacity (minimum 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// One query against the service, mirroring the snapshot query API.
/// (`PartialEq` exists for wire codecs and tests that round-trip requests.)
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// The published [`FunctionSummary`] of a function
    /// ([`AnalysisSnapshot::summary`]).
    Summary(FuncId),
    /// The full per-location results of a function
    /// ([`AnalysisSnapshot::results`]).
    Results(FuncId),
    /// Backward slice of a user variable
    /// ([`AnalysisSnapshot::backward_slice`]).
    BackwardSlice {
        /// Function to slice in.
        func: FuncId,
        /// The user variable serving as the slicing criterion.
        var: String,
    },
    /// Raw location-level backward slice
    /// ([`AnalysisSnapshot::backward_slice_at`]).
    BackwardSliceAt {
        /// Function to slice in.
        func: FuncId,
        /// The place whose dependencies are requested.
        place: Place,
        /// The location just before which dependencies are taken.
        loc: Location,
    },
    /// Lattice-based IFC policy check
    /// ([`AnalysisSnapshot::check_policy`]): the client ships a [`Policy`]
    /// and gets structured diagnostics with flow witnesses back.
    CheckPolicy(Policy),
    /// All lint passes over one function ([`AnalysisSnapshot::lint`]):
    /// effect checking plus the flow-aware lint suite.
    Lint(FuncId),
    /// Service health: current epoch, queue depth, counters.
    Stats,
    /// A Prometheus-style text snapshot of the metrics registry the
    /// service records into.
    Metrics,
}

impl QueryRequest {
    /// The request-kind labels, in [`QueryRequest::kind_index`] order —
    /// what the per-kind metric series (`flow_service_requests_total{kind=…}`
    /// and friends) are labeled with.
    pub const KINDS: [&'static str; 8] = [
        "summary", "results", "slice", "slice_at", "policy", "lint", "stats", "metrics",
    ];

    /// Index of this request's kind into [`QueryRequest::KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            QueryRequest::Summary(_) => 0,
            QueryRequest::Results(_) => 1,
            QueryRequest::BackwardSlice { .. } => 2,
            QueryRequest::BackwardSliceAt { .. } => 3,
            QueryRequest::CheckPolicy(_) => 4,
            QueryRequest::Lint(_) => 5,
            QueryRequest::Stats => 6,
            QueryRequest::Metrics => 7,
        }
    }

    /// The request-kind label (`"summary"`, `"slice_at"`, …).
    pub fn kind_str(&self) -> &'static str {
        QueryRequest::KINDS[self.kind_index()]
    }
}

/// The answer to one [`QueryRequest`], variant-matched to the request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Summary`] (`None` for external functions).
    Summary(Option<FunctionSummary>),
    /// Answer to [`QueryRequest::Results`].
    Results(Arc<InfoFlowResults>),
    /// Answer to [`QueryRequest::BackwardSlice`] (`None` if the variable
    /// does not exist).
    BackwardSlice(Option<flowistry_slicer::Slice>),
    /// Answer to [`QueryRequest::BackwardSliceAt`].
    BackwardSliceAt(BTreeSet<Location>),
    /// Answer to [`QueryRequest::CheckPolicy`]: all diagnostics, with flow
    /// witnesses. (An invalid policy comes back as
    /// [`QueryResponse::Error`].)
    CheckPolicy(Vec<IfcDiagnostic>),
    /// Answer to [`QueryRequest::Lint`]: every finding in the function,
    /// ordered by pass then line.
    Lint(Vec<LintFinding>),
    /// Answer to [`QueryRequest::Stats`].
    Stats(ServiceStats),
    /// Answer to [`QueryRequest::Metrics`]: the registry rendered as
    /// Prometheus text exposition.
    Metrics(String),
    /// The request could not be served: unknown function id, out-of-range
    /// place or location, or the query panicked (the message then carries
    /// the panic payload). The service itself stays up.
    Error(String),
}

/// A [`QueryResponse`] tagged with the epoch of the snapshot that served
/// it. Every answer is computed entirely against that one snapshot, so all
/// of its contents are mutually consistent.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEnvelope {
    /// The snapshot epoch the answer was served from (see
    /// [`AnalysisSnapshot::epoch`]).
    pub epoch: u64,
    /// The answer itself.
    pub response: QueryResponse,
    /// The caller-supplied trace id of the request this answers, echoed
    /// back verbatim (see [`FlowService::submit_with_deadline`]). `None` for
    /// untraced requests — the wire format then omits it, which is also
    /// what pre-trace-id peers produce and expect.
    pub trace_id: Option<String>,
}

/// Service health counters, served by [`QueryRequest::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Epoch of the snapshot that served this answer.
    pub epoch: u64,
    /// Requests waiting in the queue at the time of the answer.
    pub queue_depth: usize,
    /// Query worker threads.
    pub workers: usize,
    /// Requests served so far (including this one).
    pub served: u64,
    /// Background updates applied so far.
    pub updates_applied: u64,
    /// Background updates that panicked during re-analysis (the previous
    /// snapshot keeps serving; `wait_for_epoch` callers still unblock).
    pub updates_failed: u64,
    /// What the `analyze_all` run that built the serving snapshot did.
    pub run: RunStats,
}

/// A handle to one submitted request (see [`FlowService::submit`]).
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// The answer, if the request has been served yet. Idempotent: once
    /// the answer is ready, every `poll` (and a subsequent
    /// [`Ticket::wait`]) returns it.
    pub fn poll(&self) -> Option<QueryEnvelope> {
        self.slot.filled.lock().expect("response slot lock").clone()
    }

    /// Blocks until the answer is ready and returns it.
    pub fn wait(self) -> QueryEnvelope {
        let mut filled = self.slot.filled.lock().expect("response slot lock");
        loop {
            if let Some(envelope) = filled.as_ref() {
                return envelope.clone();
            }
            filled = self.slot.ready.wait(filled).expect("response slot lock");
        }
    }
}

struct ResponseSlot {
    filled: Mutex<Option<QueryEnvelope>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn fill(&self, envelope: QueryEnvelope) {
        *self.filled.lock().expect("response slot lock") = Some(envelope);
        self.ready.notify_all();
    }
}

struct Job {
    request: QueryRequest,
    slot: Arc<ResponseSlot>,
    /// Caller-supplied trace id, echoed in the envelope and installed on
    /// the serving worker for the duration of the request.
    trace_id: Option<String>,
    /// When the job entered the queue — queue-wait and total latency are
    /// measured from here.
    submitted: Instant,
    /// When the caller stops wanting the answer. A job that is already
    /// past its deadline when a worker dequeues it is shed with a
    /// structured `deadline exceeded` error instead of computed — under
    /// overload, work the client has given up on must not crowd out work
    /// it still wants.
    deadline: Option<Instant>,
}

/// Per-request-kind metric handles, indexed by
/// [`QueryRequest::kind_index`].
struct KindMetrics {
    requests: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    compute: Arc<Histogram>,
    total: Arc<Histogram>,
}

/// The service's pre-resolved metric handles.
struct ServiceMetrics {
    kinds: Vec<KindMetrics>,
    queue_depth: Arc<Gauge>,
    update_swap: Arc<Histogram>,
    updates_applied: Arc<Counter>,
    updates_failed: Arc<Counter>,
    /// Lattice policy checks served (one per `CheckPolicy` request).
    ifc_policy_checks: Arc<Counter>,
    /// Violations found across all policy checks.
    ifc_policy_violations: Arc<Counter>,
    /// Lint queries served (one per `Lint` request).
    lint_checks: Arc<Counter>,
    /// Findings reported across all lint queries.
    lint_findings: Arc<Counter>,
    /// Jobs shed at dequeue because their deadline had already expired.
    shed: Arc<Counter>,
    /// Requests answered with a `deadline exceeded` error.
    deadline_exceeded: Arc<Counter>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> ServiceMetrics {
        let kinds = QueryRequest::KINDS
            .iter()
            .map(|kind| KindMetrics {
                requests: registry.counter(
                    &format!("flow_service_requests_total{{kind=\"{kind}\"}}"),
                    "Requests served by the FlowService worker pool",
                ),
                queue_wait: registry.histogram(
                    &format!("flow_service_request_queue_seconds{{kind=\"{kind}\"}}"),
                    "Time a request waited in the service queue before a worker picked it up",
                ),
                compute: registry.histogram(
                    &format!("flow_service_request_compute_seconds{{kind=\"{kind}\"}}"),
                    "Time a worker spent computing a request's answer",
                ),
                total: registry.histogram(
                    &format!("flow_service_request_seconds{{kind=\"{kind}\"}}"),
                    "Total submit-to-answer latency of a request",
                ),
            })
            .collect();
        ServiceMetrics {
            kinds,
            queue_depth: registry.gauge(
                "flow_service_queue_depth",
                "Requests currently waiting in the service queue",
            ),
            update_swap: registry.histogram(
                "flow_service_update_swap_seconds",
                "Background re-analysis duration, from picking up an update to swapping its snapshot in",
            ),
            updates_applied: registry.counter(
                "flow_service_updates_applied_total",
                "Background updates whose snapshot was swapped in",
            ),
            updates_failed: registry.counter(
                "flow_service_updates_failed_total",
                "Background updates whose re-analysis panicked",
            ),
            ifc_policy_checks: registry.counter(
                "flow_ifc_policy_checks_total",
                "Lattice IFC policy checks served",
            ),
            ifc_policy_violations: registry.counter(
                "flow_ifc_policy_violations_total",
                "IFC diagnostics reported across all policy checks",
            ),
            lint_checks: registry.counter(
                "flow_lint_checks_total",
                "Lint queries served (all passes over one function each)",
            ),
            lint_findings: registry.counter(
                "flow_lint_findings_total",
                "Lint findings reported across all lint queries",
            ),
            shed: registry.counter(
                "flow_shed_total",
                "Jobs shed at dequeue because their deadline had expired",
            ),
            deadline_exceeded: registry.counter(
                "flow_deadline_exceeded_total",
                "Requests answered with a structured deadline-exceeded error",
            ),
        }
    }
}

struct ServiceShared {
    queue: Mutex<VecDeque<Job>>,
    queue_capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    updates: Mutex<UpdateQueue>,
    update_pending: Condvar,
    snapshot: RwLock<AnalysisSnapshot>,
    engine: Mutex<AnalysisEngine>,
    current_epoch: Mutex<u64>,
    epoch_advanced: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    served: AtomicU64,
    updates_applied: AtomicU64,
    updates_failed: AtomicU64,
    /// The registry this service records into (inherited from the engine);
    /// also what [`QueryRequest::Metrics`] renders.
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
}

/// Background updates awaiting the updater, each with the epoch promised
/// to its submitter.
struct UpdateQueue {
    pending: VecDeque<(Arc<CompiledProgram>, u64)>,
    /// The highest epoch promised so far; the next update is promised at
    /// least one more.
    last_promised: u64,
}

/// A long-lived query service over one evolving program: see the [module
/// docs](self).
pub struct FlowService {
    shared: Arc<ServiceShared>,
    worker_handles: Vec<JoinHandle<()>>,
    updater_handle: Option<JoinHandle<()>>,
}

impl FlowService {
    /// Starts a service over `engine`, spawning the worker pool and the
    /// updater thread. If the engine has not produced a snapshot yet, one
    /// `analyze_all` run happens here (on the calling thread) so the
    /// service never serves without a snapshot.
    pub fn new(mut engine: AnalysisEngine, config: ServiceConfig) -> FlowService {
        if !engine.has_snapshot() {
            engine.analyze_all();
        }
        let snapshot = engine.snapshot();
        let base_epoch = snapshot.epoch();
        let last_promised = engine.epoch();
        let workers = resolve_worker_threads(config.workers);
        let registry = engine.metrics_registry().clone();
        let metrics = ServiceMetrics::new(&registry);
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(VecDeque::new()),
            queue_capacity: config.queue_capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            updates: Mutex::new(UpdateQueue {
                pending: VecDeque::new(),
                last_promised,
            }),
            update_pending: Condvar::new(),
            snapshot: RwLock::new(snapshot),
            engine: Mutex::new(engine),
            current_epoch: Mutex::new(base_epoch),
            epoch_advanced: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            served: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            updates_failed: AtomicU64::new(0),
            registry,
            metrics,
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("flow-query-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn query worker")
            })
            .collect();
        let updater_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("flow-updater".to_string())
                .spawn(move || updater_loop(&shared))
                .expect("spawn updater")
        };

        FlowService {
            shared,
            worker_handles,
            updater_handle: Some(updater_handle),
        }
    }

    /// Enqueues a request and returns a [`Ticket`] to poll or wait on.
    /// Blocks while the queue is at capacity (backpressure).
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        self.submit_with_deadline(request, None, None)
    }

    /// Like [`FlowService::submit`], with two request attributes. A caller
    /// `trace_id` is echoed in the answer's [`QueryEnvelope::trace_id`] and
    /// installed on the serving worker thread while the request runs, so
    /// every span and log event the request touches carries it. A latency
    /// budget `deadline`: if the job is still queued when it (measured
    /// from now) passes, the dequeuing worker sheds it with a structured
    /// [`QueryResponse::Error`] (`deadline exceeded`) instead of
    /// computing an answer nobody is waiting for.
    pub fn submit_with_deadline(
        &self,
        request: QueryRequest,
        trace_id: Option<String>,
        deadline: Option<Duration>,
    ) -> Ticket {
        let slot = Arc::new(ResponseSlot {
            filled: Mutex::new(None),
            ready: Condvar::new(),
        });
        let submitted = Instant::now();
        let job = Job {
            request,
            slot: slot.clone(),
            trace_id,
            submitted,
            deadline: deadline.map(|budget| submitted + budget),
        };
        let started = Instant::now();
        let mut queue = self.shared.queue.lock().expect("service queue lock");
        while queue.len() >= self.shared.queue_capacity {
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(queue, Duration::from_secs(10))
                .expect("service queue lock");
            queue = guard;
            if started.elapsed() >= Duration::from_secs(10)
                && queue.len() >= self.shared.queue_capacity
            {
                flowistry_obs::warn!(
                    "submit backpressure stalled: queue {}/{} full after {:?}",
                    queue.len(),
                    self.shared.queue_capacity,
                    started.elapsed()
                );
            }
        }
        queue.push_back(job);
        self.shared.metrics.queue_depth.add(1);
        drop(queue);
        self.shared.not_empty.notify_one();
        Ticket { slot }
    }

    /// Submits `request` and blocks until its answer arrives.
    pub fn query(&self, request: QueryRequest) -> QueryEnvelope {
        self.submit(request).wait()
    }

    /// Schedules a re-analysis of `program` in the background and returns
    /// the epoch its snapshot will carry. Queries keep being served from
    /// the current snapshot until the new one atomically replaces it;
    /// updates apply in submission order. Use
    /// [`FlowService::wait_for_epoch`] to block until the swap happened.
    pub fn update(&self, program: impl Into<Arc<CompiledProgram>>) -> u64 {
        self.update_at(program, None)
    }

    /// Like [`FlowService::update`], but optionally pins the fleet epoch
    /// the update lands on (epochs never move backward; a stale target is
    /// ignored). Used to warm-start a respawned replica from the
    /// compacted latest program while keeping its envelope epochs aligned
    /// with the fleet's.
    pub fn update_at(
        &self,
        program: impl Into<Arc<CompiledProgram>>,
        target_epoch: Option<u64>,
    ) -> u64 {
        let program = program.into();
        // Allocate the epoch and enqueue under one lock: the updater pins
        // the engine to the queued epoch whether the update succeeds or
        // fails, so every promise is exactly the epoch its update lands on.
        let mut updates = self.shared.updates.lock().expect("service update lock");
        let epoch = (updates.last_promised + 1).max(target_epoch.unwrap_or(0));
        updates.last_promised = epoch;
        updates.pending.push_back((program, epoch));
        drop(updates);
        self.shared.update_pending.notify_one();
        epoch
    }

    /// Blocks until the serving snapshot's epoch is at least `epoch` (as
    /// returned by [`FlowService::update`]). Returns even if that update's
    /// re-analysis panicked — the epoch still advances so callers never
    /// hang; check [`ServiceStats::updates_failed`] (or compare the served
    /// envelopes' epochs) to detect that the snapshot did not change.
    pub fn wait_for_epoch(&self, epoch: u64) {
        let started = Instant::now();
        let mut current = self.shared.current_epoch.lock().expect("epoch lock");
        while *current < epoch {
            let (guard, _) = self
                .shared
                .epoch_advanced
                .wait_timeout(current, Duration::from_secs(10))
                .expect("epoch lock");
            current = guard;
            // A promised epoch the updater hasn't reached in 10s means the
            // epoch bookkeeping desynced (or an update wedged) — exactly
            // the state that turns into a silent connection hang. Keep
            // waiting, but say so.
            if started.elapsed() >= Duration::from_secs(10) && *current < epoch {
                flowistry_obs::warn!(
                    "wait_for_epoch stalled: waiting for epoch {epoch}, \
                     serving epoch still {current} after {:?} \
                     (queued updates: {})",
                    started.elapsed(),
                    self.shared
                        .updates
                        .lock()
                        .expect("service update lock")
                        .pending
                        .len()
                );
            }
        }
    }

    /// Epoch of the snapshot currently serving queries.
    pub fn current_epoch(&self) -> u64 {
        *self.shared.current_epoch.lock().expect("epoch lock")
    }

    /// A clone of the snapshot currently serving queries, for direct
    /// (in-thread) query access alongside the queued protocol.
    pub fn snapshot(&self) -> AnalysisSnapshot {
        self.shared.snapshot.read().expect("snapshot lock").clone()
    }

    /// Service health counters (the immediate equivalent of submitting
    /// [`QueryRequest::Stats`]).
    pub fn stats(&self) -> ServiceStats {
        let snapshot = self.snapshot();
        stats_from(&self.shared, &snapshot)
    }

    /// The metrics registry this service (and its engine) records into —
    /// what a [`QueryRequest::Metrics`] answer renders. Servers in front
    /// of the service register their own wire-level metrics here.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }
}

impl Drop for FlowService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Notify while holding the matching mutex: a thread that checked
        // the flag under the lock is either going to re-check (and see
        // `true`) or is already parked in `wait()` when we acquire the
        // lock — notifying lock-free instead could land in the gap between
        // its check and its `wait()`, losing the one-and-only wakeup and
        // hanging `join()` below forever.
        {
            let _guard = self.shared.queue.lock().expect("service queue lock");
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        {
            let _guard = self.shared.updates.lock().expect("service update lock");
            self.shared.update_pending.notify_all();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.updater_handle.take() {
            let _ = handle.join();
        }
        // Drain-on-shutdown guarantee: every outstanding `Ticket` gets an
        // answer. The workers drain the queue before exiting (they only
        // stop once it is empty), so this is normally a no-op — but if a
        // job ever lands after the last worker checked (e.g. a backpressured
        // submitter released in the shutdown window), answer it here rather
        // than leave its ticket unfilled forever.
        let leftovers: Vec<Job> = {
            let mut queue = self.shared.queue.lock().expect("service queue lock");
            queue.drain(..).collect()
        };
        if !leftovers.is_empty() {
            let snapshot = self.shared.snapshot.read().expect("snapshot lock").clone();
            for job in leftovers {
                self.shared.metrics.queue_depth.sub(1);
                self.shared.served.fetch_add(1, Ordering::Relaxed);
                serve_job(&self.shared, &snapshot, job);
            }
        }
    }
}

fn stats_from(shared: &ServiceShared, snapshot: &AnalysisSnapshot) -> ServiceStats {
    ServiceStats {
        epoch: snapshot.epoch(),
        queue_depth: shared.queue.lock().expect("service queue lock").len(),
        workers: shared.workers,
        served: shared.served.load(Ordering::Relaxed),
        updates_applied: shared.updates_applied.load(Ordering::Relaxed),
        updates_failed: shared.updates_failed.load(Ordering::Relaxed),
        run: snapshot.stats(),
    }
}

/// Serves one request entirely from `snapshot` — the single source of
/// consistency: everything the answer contains belongs to one epoch.
fn serve(
    shared: &ServiceShared,
    snapshot: &AnalysisSnapshot,
    request: QueryRequest,
) -> QueryResponse {
    if let Some(error) = request_error(snapshot.program(), &request) {
        return error;
    }
    match request {
        QueryRequest::Summary(func) => QueryResponse::Summary(snapshot.summary(func).cloned()),
        QueryRequest::Results(func) => QueryResponse::Results(snapshot.results(func)),
        QueryRequest::BackwardSlice { func, var } => {
            QueryResponse::BackwardSlice(snapshot.backward_slice(func, &var))
        }
        QueryRequest::BackwardSliceAt { func, place, loc } => {
            QueryResponse::BackwardSliceAt(snapshot.backward_slice_at(func, &place, loc))
        }
        QueryRequest::CheckPolicy(policy) => {
            shared.metrics.ifc_policy_checks.inc();
            match snapshot.check_policy(policy) {
                Ok(diagnostics) => {
                    shared
                        .metrics
                        .ifc_policy_violations
                        .add(diagnostics.len() as u64);
                    QueryResponse::CheckPolicy(diagnostics)
                }
                Err(e) => QueryResponse::Error(format!("invalid policy: {e}")),
            }
        }
        QueryRequest::Lint(func) => {
            shared.metrics.lint_checks.inc();
            let findings = snapshot.lint(func);
            shared.metrics.lint_findings.add(findings.len() as u64);
            QueryResponse::Lint(findings)
        }
        QueryRequest::Stats => QueryResponse::Stats(stats_from(shared, snapshot)),
        QueryRequest::Metrics => QueryResponse::Metrics(shared.registry.render_prometheus()),
    }
}

/// The error `request` gets instead of an answer from `program`, if it
/// names an unknown function id or an out-of-range place or location.
/// Remote callers can send arbitrary ids: each must come back as a
/// descriptive error, not a panic swallowed by `catch_unwind`.
pub(crate) fn request_error(
    program: &CompiledProgram,
    request: &QueryRequest,
) -> Option<QueryResponse> {
    let func = match request {
        QueryRequest::Summary(func)
        | QueryRequest::Results(func)
        | QueryRequest::Lint(func)
        | QueryRequest::BackwardSlice { func, .. }
        | QueryRequest::BackwardSliceAt { func, .. } => *func,
        QueryRequest::CheckPolicy(_) | QueryRequest::Stats | QueryRequest::Metrics => return None,
    };
    let num_funcs = program.bodies.len();
    if func.0 as usize >= num_funcs {
        return Some(QueryResponse::Error(format!(
            "unknown function id {} (program has {num_funcs} functions)",
            func.0
        )));
    }
    let QueryRequest::BackwardSliceAt { place, loc, .. } = request else {
        return None;
    };
    let body = program.body(func);
    check_place(body, place)
        .and_then(|()| check_location(body, *loc))
        .err()
}

/// Validates that `place`'s root local exists in `body`.
fn check_place(body: &Body, place: &Place) -> Result<(), QueryResponse> {
    let num_locals = body.local_decls.len();
    if place.local.index() < num_locals {
        Ok(())
    } else {
        Err(QueryResponse::Error(format!(
            "place local {} out of range for `{}` ({num_locals} locals)",
            place.local, body.name
        )))
    }
}

/// Validates that `loc` denotes a statement or terminator of `body`.
fn check_location(body: &Body, loc: Location) -> Result<(), QueryResponse> {
    let num_blocks = body.basic_blocks.len();
    if loc.block.index() >= num_blocks {
        return Err(QueryResponse::Error(format!(
            "location {loc} out of range for `{}` ({num_blocks} blocks)",
            body.name
        )));
    }
    // `statement_index == statements.len()` is the terminator — valid.
    let statements = body.basic_blocks[loc.block.index()].statements.len();
    if loc.statement_index > statements {
        return Err(QueryResponse::Error(format!(
            "location {loc} out of range for `{}` ({} has {statements} statements)",
            body.name, loc.block
        )));
    }
    Ok(())
}

/// Extracts the message out of a panic payload, if it carries one: panics
/// raised by `panic!` carry a `&str` or `String`.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// Renders a panic payload into the error message a caller sees — a bare
/// `"query panicked"` gives a remote caller nothing to act on.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match panic_detail(payload) {
        Some(msg) => format!("query panicked: {msg}"),
        None => "query panicked".to_string(),
    }
}

/// Serves `job` against `snapshot` and fills its ticket, converting a panic
/// into a [`QueryResponse::Error`] carrying the panic message.
///
/// This is also where the per-kind request accounting happens: the
/// requests counter, the queue-wait observation (submit → here), the
/// compute span, and the total latency observation — so requests answered
/// by the shutdown drain are tallied exactly like worker-served ones.
fn serve_job(shared: &ServiceShared, snapshot: &AnalysisSnapshot, job: Job) {
    let Job {
        request,
        slot,
        trace_id,
        submitted,
        deadline,
    } = job;
    let kind = &shared.metrics.kinds[request.kind_index()];
    kind.requests.inc();
    kind.queue_wait.observe(submitted.elapsed());
    let _trace = TraceIdGuard::install(trace_id.clone());

    // Load shedding at dequeue: a job whose deadline passed while it
    // queued gets a structured error now — computing it would only delay
    // the jobs behind it that clients still want.
    if deadline.is_some_and(|d| Instant::now() > d) {
        shared.metrics.shed.inc();
        shared.metrics.deadline_exceeded.inc();
        kind.total.observe(submitted.elapsed());
        slot.fill(QueryEnvelope {
            epoch: snapshot.epoch(),
            response: QueryResponse::Error("deadline exceeded".to_string()),
            trace_id,
        });
        return;
    }

    let response = {
        let _span = Span::enter_with("serve_request", request.kind_str())
            .with_histogram(kind.compute.clone());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The scheduler job-start failpoint: `delay` models a slow
            // worker (exercising deadline shedding behind it), `err` and
            // `panic` both surface as a structured error through the
            // catch_unwind below — a worker thread must survive any
            // injected fault.
            match flowistry_fault::check(fault_sites::SCHEDULER_JOB_START) {
                Fault::None | Fault::PartialWrite(_) => {}
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Err => panic!("injected fault: {}", fault_sites::SCHEDULER_JOB_START),
                Fault::Panic => {
                    panic!(
                        "failpoint {}: injected panic",
                        fault_sites::SCHEDULER_JOB_START
                    )
                }
            }
            serve(shared, snapshot, request)
        }))
        .unwrap_or_else(|payload| QueryResponse::Error(panic_message(payload.as_ref())))
    };
    kind.total.observe(submitted.elapsed());
    slot.fill(QueryEnvelope {
        epoch: snapshot.epoch(),
        response,
        trace_id,
    });
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("service queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.not_empty.wait(queue).expect("service queue lock");
            }
        };
        let Some(job) = job else { break };
        shared.metrics.queue_depth.sub(1);
        shared.not_full.notify_one();

        // Pin the epoch for this whole request: the clone is two Arc bumps,
        // and a concurrent snapshot swap cannot touch it afterwards.
        let snapshot = shared.snapshot.read().expect("snapshot lock").clone();
        // Count the request before serving it, so a Stats answer includes
        // itself (as its field documents).
        shared.served.fetch_add(1, Ordering::Relaxed);
        serve_job(shared, &snapshot, job);
    }
}

fn updater_loop(shared: &ServiceShared) {
    loop {
        let pending = {
            let mut updates = shared.updates.lock().expect("service update lock");
            loop {
                if let Some(pending) = updates.pending.pop_front() {
                    break Some(pending);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                updates = shared
                    .update_pending
                    .wait(updates)
                    .expect("service update lock");
            }
        };
        let Some((program, epoch)) = pending else {
            break;
        };
        let swap_started = Instant::now();

        // Re-analyze on this thread — warm from the engine's summary cache,
        // parallel via the work-stealing scheduler — while queries keep
        // flowing against the old snapshot. A panicking analysis must not
        // kill the updater (that would leave `wait_for_epoch` callers
        // blocked forever and later updates silently undrained): catch it,
        // count the update as failed, and advance the epoch so waiters
        // unblock — queries simply keep being served from the surviving
        // snapshot, whose envelopes still carry *its* epoch.
        let outcome = {
            let mut engine = shared.engine.lock().expect("service engine lock");
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The update-recompile failpoint: every mode lands in the
                // existing failed-update path (catch_unwind below), which
                // keeps the previous snapshot serving and still advances
                // the epoch so waiters never hang.
                match flowistry_fault::check(fault_sites::UPDATE_RECOMPILE) {
                    Fault::None | Fault::PartialWrite(_) => {}
                    Fault::Delay(d) => std::thread::sleep(d),
                    Fault::Err => {
                        panic!("injected fault: {}", fault_sites::UPDATE_RECOMPILE)
                    }
                    Fault::Panic => {
                        panic!(
                            "failpoint {}: injected panic",
                            fault_sites::UPDATE_RECOMPILE
                        )
                    }
                }
                engine.update_program_at(program, Some(epoch));
                engine.analyze_all();
                engine.snapshot()
            }));
            // A failed attempt lands on its promised epoch too, so later
            // updates stay on their promises and `wait_for_epoch` callers
            // never hang.
            if attempt.is_err() {
                engine.settle_failed_update(epoch);
            }
            attempt
        };
        match outcome {
            Ok(snapshot) => {
                // The atomic swap: requests started before this instant keep
                // their clone of the old snapshot; requests started after
                // see the new one.
                *shared.snapshot.write().expect("snapshot lock") = snapshot;
                shared.updates_applied.fetch_add(1, Ordering::Relaxed);
                shared.metrics.updates_applied.inc();
                shared.metrics.update_swap.observe(swap_started.elapsed());
            }
            Err(payload) => {
                shared.updates_failed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.updates_failed.inc();
                flowistry_obs::warn!(
                    "FlowService background re-analysis panicked{}; \
                     keeping the previous snapshot",
                    panic_detail(payload.as_ref())
                        .map(|msg| format!(" ({msg})"))
                        .unwrap_or_default()
                );
            }
        }
        // Promises strictly increase in queue order, so this only moves
        // the epoch forward.
        *shared.current_epoch.lock().expect("epoch lock") = epoch;
        shared.epoch_advanced.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use flowistry_core::{AnalysisParams, Condition};
    use flowistry_lang::mir::BasicBlock;

    fn service() -> (Arc<CompiledProgram>, FlowService) {
        let program = Arc::new(
            flowistry_lang::compile(
                "fn store(p: &mut i32, v: i32) { *p = v; }
                 fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }",
            )
            .unwrap(),
        );
        let engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default()
                .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
        );
        let service = FlowService::new(engine, ServiceConfig::default().with_workers(1));
        (program, service)
    }

    fn slice_at(func: FuncId, local: u32, block: u32, stmt: usize) -> QueryRequest {
        QueryRequest::BackwardSliceAt {
            func,
            place: Place::from_local(flowistry_lang::mir::Local(local)).deref(),
            loc: Location {
                block: BasicBlock(block),
                statement_index: stmt,
            },
        }
    }

    /// Regression (remote callers can send arbitrary places): an
    /// out-of-range place local answers a descriptive error instead of a
    /// bare `"query panicked"`.
    #[test]
    fn out_of_range_place_answers_a_descriptive_error() {
        let (program, service) = service();
        let func = program.func_id("store").unwrap();
        let envelope = service.query(slice_at(func, 999, 0, 0));
        match envelope.response {
            QueryResponse::Error(msg) => {
                assert!(msg.contains("place local _999"), "unhelpful error: {msg}");
                assert!(msg.contains("store"), "no function name: {msg}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // The service keeps serving after the rejected request.
        let ok = service.query(QueryRequest::Summary(func));
        assert!(matches!(ok.response, QueryResponse::Summary(Some(_))));
    }

    /// Regression: out-of-range locations (bad block, bad statement index)
    /// answer descriptive errors; the terminator location is valid.
    #[test]
    fn out_of_range_location_answers_a_descriptive_error() {
        let (program, service) = service();
        let func = program.func_id("store").unwrap();

        let envelope = service.query(slice_at(func, 1, 999, 0));
        match envelope.response {
            QueryResponse::Error(msg) => {
                assert!(msg.contains("bb999[0]"), "unhelpful error: {msg}")
            }
            other => panic!("expected an error, got {other:?}"),
        }

        let statements = program.body(func).basic_blocks[0].statements.len();
        let envelope = service.query(slice_at(func, 1, 0, statements + 1));
        match envelope.response {
            QueryResponse::Error(msg) => {
                assert!(msg.contains("statements"), "unhelpful error: {msg}")
            }
            other => panic!("expected an error, got {other:?}"),
        }

        // One past the last statement is the terminator — a valid location.
        let envelope = service.query(slice_at(func, 1, 0, statements));
        assert!(
            matches!(envelope.response, QueryResponse::BackwardSliceAt(_)),
            "terminator location must be served: {:?}",
            envelope.response
        );
    }

    /// Regression: a panic payload's `&str`/`String` message is forwarded
    /// into the error response instead of being discarded.
    #[test]
    fn panic_payloads_forward_their_message() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static message");
        assert_eq!(
            panic_message(payload.as_ref()),
            "query panicked: static message"
        );
        let payload: Box<dyn std::any::Any + Send> = Box::new(format!("formatted {}", 42));
        assert_eq!(
            panic_message(payload.as_ref()),
            "query panicked: formatted 42"
        );
        // Exotic payloads still degrade to the bare marker.
        let payload: Box<dyn std::any::Any + Send> = Box::new(7usize);
        assert_eq!(panic_message(payload.as_ref()), "query panicked");
    }

    /// `CheckPolicy` through the service: a violated policy answers
    /// diagnostics with a witness, a satisfied one answers an empty list,
    /// an invalid one answers a descriptive error — and the per-policy
    /// metrics counters advance.
    #[test]
    fn check_policy_serves_diagnostics_and_rejects_bad_policies() {
        let (_program, service) = service();

        // `caller`'s parameter is Secret and the callee is a Public sink.
        let violated = Policy::default()
            .with_param_label("caller", "v", "Secret")
            .with_sink("store", "Public");
        let envelope = service.query(QueryRequest::CheckPolicy(violated));
        match envelope.response {
            QueryResponse::CheckPolicy(diags) => {
                assert_eq!(diags.len(), 1, "{diags:?}");
                assert_eq!(diags[0].sink, "store");
                assert_eq!(diags[0].incoming_label, "Secret");
                assert!(!diags[0].witness.is_empty(), "no flow witness");
            }
            other => panic!("expected diagnostics, got {other:?}"),
        }

        // Clearing the sink up to Secret satisfies the policy.
        let satisfied = Policy::default()
            .with_param_label("caller", "v", "Secret")
            .with_sink("store", "Secret");
        let envelope = service.query(QueryRequest::CheckPolicy(satisfied));
        assert_eq!(envelope.response, QueryResponse::CheckPolicy(Vec::new()));

        // A policy naming a function that does not exist is rejected with
        // the offending name, not silently ignored.
        let invalid = Policy::default().with_fn_label("no_such_fn", "Secret");
        let envelope = service.query(QueryRequest::CheckPolicy(invalid));
        match envelope.response {
            QueryResponse::Error(msg) => {
                assert!(msg.contains("invalid policy"), "{msg}");
                assert!(msg.contains("no_such_fn"), "{msg}");
            }
            other => panic!("expected an error, got {other:?}"),
        }

        // Both served checks (the invalid one never reached the checker)
        // and one violation show up in the metrics rendering.
        let envelope = service.query(QueryRequest::Metrics);
        let QueryResponse::Metrics(text) = envelope.response else {
            panic!("expected metrics");
        };
        assert!(
            text.contains("flow_ifc_policy_checks_total"),
            "missing counter:\n{text}"
        );
        assert!(
            text.contains("flow_ifc_policy_violations_total"),
            "missing counter:\n{text}"
        );
    }

    /// `Lint` through the service: findings come back ordered, an unknown
    /// function id answers a descriptive error, and the lint counters show
    /// up in the metrics rendering.
    #[test]
    fn lint_serves_findings_and_advances_counters() {
        let program = Arc::new(
            flowistry_lang::compile(
                "fn crop(img: &mut i32, ignored: &mut i32) -> i32 {
                     let dead = 1;
                     *img = 5;
                     return *img;
                 }",
            )
            .unwrap(),
        );
        let engine = AnalysisEngine::new(program.clone(), EngineConfig::default());
        let service = FlowService::new(engine, ServiceConfig::default().with_workers(1));
        let func = program.func_id("crop").unwrap();

        let envelope = service.query(QueryRequest::Lint(func));
        let QueryResponse::Lint(findings) = envelope.response else {
            panic!("expected lint findings, got {:?}", envelope.response);
        };
        let passes: Vec<&str> = findings.iter().map(|f| f.pass.name()).collect();
        assert!(passes.contains(&"dead-store"), "{findings:?}");
        assert!(passes.contains(&"unused-mut"), "{findings:?}");
        assert!(
            findings.iter().all(|f| f.function == "crop"),
            "{findings:?}"
        );

        let envelope = service.query(QueryRequest::Lint(FuncId(99)));
        match envelope.response {
            QueryResponse::Error(msg) => {
                assert!(msg.contains("unknown function id 99"), "{msg}")
            }
            other => panic!("expected an error, got {other:?}"),
        }

        let envelope = service.query(QueryRequest::Metrics);
        let QueryResponse::Metrics(text) = envelope.response else {
            panic!("expected metrics");
        };
        assert!(
            text.contains("flow_lint_checks_total 1"),
            "missing or wrong counter:\n{text}"
        );
        assert!(
            text.contains("flow_lint_findings_total"),
            "missing counter:\n{text}"
        );
    }
}
