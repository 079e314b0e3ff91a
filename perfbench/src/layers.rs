//! Per-layer measurements, made from outside: each times calls the
//! benchmark makes into one layer's public functions, or reads the
//! layer's own counters.

use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::wire::LineClient;
use flowistry_core::{analyze, AnalysisParams};
use flowistry_corpus::GeneratedCrate;
use flowistry_engine::{
    AnalysisEngine, AnalysisSnapshot, EngineConfig, FlowService, QueryEnvelope, QueryRequest,
    QueryResponse, ServiceConfig,
};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use flowistry_obs::{Histogram, Registry};
use flowistry_router::{BackendLauncher, FlowRouter, InProcessLauncher, RouterConfig};
use flowistry_server::codec;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every engine and service the benchmark builds. One
/// per pool keeps a 2-vCPU machine from oversubscribing when a router,
/// two replicas and two clients share it; it is printed with every run.
pub const POOL_THREADS: usize = 1;

/// Timings and counters of one fresh engine's life.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCycle {
    /// Seconds spent in compile (when the cycle compiled its program).
    pub compile_s: f64,
    /// Seconds in `AnalysisEngine::new`.
    pub new_s: f64,
    /// Seconds in the cold `analyze_all`.
    pub analyze_all_s: f64,
    /// Seconds dropping the engine.
    pub drop_s: f64,
    /// Summaries computed.
    pub analyzed: u64,
    /// Deque steals.
    pub steals: u64,
    /// Summed self time of fresh summary computations.
    pub summary_compute_s: f64,
}

impl EngineCycle {
    /// Time the cycle's user waited for: compile, build, analyze, drop.
    pub fn seconds(&self) -> f64 {
        self.compile_s + self.new_s + self.analyze_all_s + self.drop_s
    }
}

/// Compiles `source`, builds a cache-less engine over it, runs a cold
/// `analyze_all`, hands the engine to `inspect` (untimed), and drops it.
/// Returns `None` if the source does not compile.
pub fn engine_cycle(
    source: &str,
    params: &AnalysisParams,
    tracer: &mut Tracer,
    inspect: impl FnOnce(&AnalysisEngine),
) -> Option<EngineCycle> {
    let registry = Arc::new(Registry::new());
    let config = EngineConfig::default()
        .with_params(params.clone())
        .with_threads(POOL_THREADS)
        .with_metrics(registry.clone());
    let mut cycle = EngineCycle::default();

    tracer.enter("lang.compile");
    let start = Instant::now();
    let program = flowistry_lang::compile(source);
    cycle.compile_s = start.elapsed().as_secs_f64();
    tracer.exit();
    let program = Arc::new(program.ok()?);

    tracer.enter("engine.new");
    let start = Instant::now();
    let mut engine = AnalysisEngine::new(program, config);
    cycle.new_s = start.elapsed().as_secs_f64();
    tracer.exit();

    tracer.enter("engine.analyze_all");
    let start = Instant::now();
    let stats = engine.analyze_all();
    cycle.analyze_all_s = start.elapsed().as_secs_f64();
    tracer.exit();

    inspect(&engine);

    tracer.enter("engine.drop");
    let start = Instant::now();
    drop(black_box(engine));
    cycle.drop_s = start.elapsed().as_secs_f64();
    tracer.exit();

    cycle.analyzed = stats.analyzed as u64;
    cycle.steals = stats.steals as u64;
    cycle.summary_compute_s = registry
        .histogram("flow_engine_summary_compute_seconds", "")
        .sum_seconds();
    Some(cycle)
}

/// Records the engine metrics of one cycle (or the per-round sums of
/// several) into `outcome`.
pub fn record_engine(outcome: &mut Outcome, cycles: &[EngineCycle], per_round: f64) {
    let ms = |f: fn(&EngineCycle) -> f64| mean(&cycles.iter().map(f).collect::<Vec<_>>()) * 1e3;
    outcome.set("lang.compile_ms", ms(|c| c.compile_s));
    outcome.set("engine.new_ms", ms(|c| c.new_s));
    outcome.set("engine.analyze_all_ms", ms(|c| c.analyze_all_s));
    outcome.set("engine.drop_ms", ms(|c| c.drop_s));
    let total = |f: fn(&EngineCycle) -> f64| cycles.iter().map(f).sum::<f64>() / per_round;
    outcome.set(
        "engine.functions_analyzed",
        total(|c| c.analyzed as f64).round(),
    );
    outcome.set("engine.steals", total(|c| c.steals as f64));
    outcome.set("engine.summary_compute_s", total(|c| c.summary_compute_s));
}

/// The results path of a set of functions, fixpoint to decoded envelope.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResultsPath {
    /// Summed fixpoint iterations.
    pub iterations: u64,
    /// Summed `analyze` seconds.
    pub fixpoint_s: f64,
    /// Summed seconds of each result's first `raw_parts()`.
    pub theta_decode_s: f64,
    /// Summed `encode_envelope` seconds.
    pub encode_s: f64,
    /// Summed `decode_envelope` seconds.
    pub decode_s: f64,
    /// Summed encoded line lengths.
    pub bytes: u64,
    /// Functions taken through the path.
    pub functions: u64,
    /// Functions whose decoded envelope differed from the encoded one.
    pub mismatches: u64,
}

/// Runs each of `funcs` through the fixpoint, the Theta decode, the wire
/// encoder and the wire decoder, timing every stage.
pub fn results_path(
    program: &CompiledProgram,
    params: &AnalysisParams,
    funcs: &[FuncId],
    tracer: &mut Tracer,
) -> ResultsPath {
    let mut path = ResultsPath::default();
    for &func in funcs {
        tracer.enter("core.fixpoint");
        let start = Instant::now();
        let results = Arc::new(analyze(program, func, params));
        path.fixpoint_s += start.elapsed().as_secs_f64();
        tracer.exit();
        path.iterations += results.iterations() as u64;

        tracer.enter("core.theta_decode");
        let start = Instant::now();
        black_box(results.raw_parts());
        path.theta_decode_s += start.elapsed().as_secs_f64();
        tracer.exit();

        let envelope = QueryEnvelope {
            epoch: 0,
            response: QueryResponse::Results(results),
            trace_id: None,
        };
        tracer.enter("codec.encode");
        let start = Instant::now();
        let line = codec::encode_envelope(&envelope);
        path.encode_s += start.elapsed().as_secs_f64();
        tracer.exit();
        path.bytes += line.len() as u64;

        tracer.enter("codec.decode");
        let start = Instant::now();
        let decoded = codec::decode_envelope(&line);
        path.decode_s += start.elapsed().as_secs_f64();
        tracer.exit();
        path.functions += 1;
        if decoded.as_ref() != Ok(&envelope) {
            path.mismatches += 1;
        }
    }
    path
}

/// Records a results path into `outcome` (sums over its functions).
pub fn record_results_path(outcome: &mut Outcome, path: &ResultsPath) {
    outcome.set("core.fixpoint_iterations", path.iterations as f64);
    outcome.set("core.fixpoint_ms", path.fixpoint_s * 1e3);
    outcome.set("core.theta_decode_ms", path.theta_decode_s * 1e3);
    outcome.set("codec.encode_ms", path.encode_s * 1e3);
    outcome.set("codec.decode_ms", path.decode_s * 1e3);
    outcome.set("codec.results_bytes", path.bytes as f64);
    for i in 0..path.functions {
        outcome.check(i >= path.mismatches);
    }
}

/// Mean milliseconds of in-process slices and lints over `requests`' slice
/// and lint entries, against `snapshot`.
pub fn record_snapshot_ops(
    outcome: &mut Outcome,
    snapshot: &AnalysisSnapshot,
    requests: &[QueryRequest],
    tracer: &mut Tracer,
) {
    let mut slices = Vec::new();
    let mut lints = Vec::new();
    for request in requests {
        match request {
            QueryRequest::BackwardSlice { func, var } => {
                tracer.enter("slicer.backward_slice");
                let start = Instant::now();
                black_box(snapshot.backward_slice(*func, var));
                slices.push(start.elapsed().as_secs_f64() * 1e3);
                tracer.exit();
            }
            QueryRequest::Lint(func) => {
                tracer.enter("lint.lint");
                let start = Instant::now();
                black_box(snapshot.lint(*func));
                lints.push(start.elapsed().as_secs_f64() * 1e3);
                tracer.exit();
            }
            _ => {}
        }
    }
    outcome.set("slicer.backward_slice_ms", mean(&slices));
    outcome.set("lint.lint_ms", mean(&lints));
}

/// Median milliseconds of the same requests through an in-process
/// `FlowService::query` (no wire), checked against `oracle` at epoch 0.
pub fn service_query_ms(
    outcome: &mut Outcome,
    program: Arc<CompiledProgram>,
    params: &AnalysisParams,
    requests: &[QueryRequest],
    oracle: &Oracle,
    tracer: &mut Tracer,
) -> f64 {
    let engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(params.clone())
            .with_threads(POOL_THREADS)
            .with_metrics(Arc::new(Registry::new())),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(POOL_THREADS));
    // One pass to warm the memo, one timed pass.
    for request in requests {
        service.query(request.clone());
    }
    let mut samples = Vec::new();
    for request in requests {
        tracer.enter("service.query");
        let start = Instant::now();
        let envelope = service.query(request.clone());
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.exit();
        outcome.check(oracle.matches(request, &envelope));
    }
    median(&samples)
}

/// Nanoseconds per `Histogram::observe`, over a tight loop.
pub fn observe_ns() -> f64 {
    const CALLS: u64 = 2_000_000;
    let histogram = Histogram::new();
    let start = Instant::now();
    for i in 0..CALLS {
        histogram.observe(black_box(Duration::from_nanos(i & 0xFFFF)));
    }
    black_box(histogram.count());
    start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// Sums of the replica-side series the per-layer table reads, from
/// Prometheus text.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scrape {
    /// `flow_service_request_queue_seconds` sum over kinds.
    pub queue_s: f64,
    /// `flow_service_request_seconds` sum over kinds.
    pub request_s: f64,
    /// `flow_service_update_swap_seconds` sum.
    pub swap_s: f64,
    /// `flow_service_update_swap_seconds` count.
    pub swaps: f64,
    /// `flow_engine_cache_hits_total`.
    pub hits: f64,
    /// `flow_engine_cache_misses_total`.
    pub misses: f64,
    /// `flow_engine_functions_analyzed_total`.
    pub analyzed: f64,
}

impl Scrape {
    /// Parses one Prometheus text exposition.
    pub fn parse(text: &str) -> Scrape {
        let mut s = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let base = series.split('{').next().unwrap_or(series);
            let field = match base {
                "flow_service_request_queue_seconds_sum" => &mut s.queue_s,
                "flow_service_request_seconds_sum" => &mut s.request_s,
                "flow_service_update_swap_seconds_sum" => &mut s.swap_s,
                "flow_service_update_swap_seconds_count" => &mut s.swaps,
                "flow_engine_cache_hits_total" => &mut s.hits,
                "flow_engine_cache_misses_total" => &mut s.misses,
                "flow_engine_functions_analyzed_total" => &mut s.analyzed,
                _ => continue,
            };
            *field += value;
        }
        s
    }

    /// Fetches and sums the scrapes of every address in `addrs`.
    pub fn fetch(addrs: &[SocketAddr]) -> std::io::Result<Scrape> {
        let mut total = Scrape::default();
        for &addr in addrs {
            let mut client = LineClient::connect(addr)?;
            let reply = client.query(&QueryRequest::Metrics)?;
            match reply.envelope {
                Ok(QueryEnvelope {
                    response: QueryResponse::Metrics(text),
                    ..
                }) => total = total.plus(&Scrape::parse(&text), 1.0),
                other => {
                    return Err(std::io::Error::other(format!(
                        "metrics scrape of {addr} failed: {other:?}"
                    )))
                }
            }
        }
        Ok(total)
    }

    /// `self + sign * other`, field by field.
    pub fn plus(&self, other: &Scrape, sign: f64) -> Scrape {
        Scrape {
            queue_s: self.queue_s + sign * other.queue_s,
            request_s: self.request_s + sign * other.request_s,
            swap_s: self.swap_s + sign * other.swap_s,
            swaps: self.swaps + sign * other.swaps,
            hits: self.hits + sign * other.hits,
            misses: self.misses + sign * other.misses,
            analyzed: self.analyzed + sign * other.analyzed,
        }
    }
}

/// Records what replicas did between two scrapes; `replicas` divides the
/// re-analysis count so it reads per replica.
pub fn record_scrape_delta(outcome: &mut Outcome, delta: &Scrape, replicas: f64) {
    record_service_share(outcome, delta);
    let lookups = delta.hits + delta.misses;
    outcome.set("engine.cache_lookups", lookups);
    outcome.set(
        "engine.cache_hit_ratio",
        if lookups > 0.0 {
            delta.hits / lookups
        } else {
            0.0
        },
    );
    outcome.set("engine.update_dirty_fns", delta.analyzed / replicas);
    outcome.set(
        "service.update_swap_ms",
        if delta.swaps > 0.0 {
            delta.swap_s * 1e3 / delta.swaps
        } else {
            0.0
        },
    );
}

/// Records the seconds requests spent in services between two scrapes,
/// and the share of them spent queued.
pub fn record_service_share(outcome: &mut Outcome, delta: &Scrape) {
    outcome.set("service.request_s", delta.request_s);
    outcome.set(
        "service.queue_wait_share",
        if delta.request_s > 0.0 {
            delta.queue_s / delta.request_s
        } else {
            0.0
        },
    );
}

/// A router over two in-process replicas of `source`, each with one
/// worker, reporting into `registry`.
pub fn start_fleet(source: &str, registry: Arc<Registry>) -> std::io::Result<FlowRouter> {
    let launchers: Vec<Box<dyn BackendLauncher>> = (0..2)
        .map(|_| {
            Box::new(InProcessLauncher {
                source: source.to_string(),
                workers: POOL_THREADS,
                cache_dir: None,
                auth_token: None,
            }) as Box<dyn BackendLauncher>
        })
        .collect();
    FlowRouter::start(
        launchers,
        "127.0.0.1:0",
        RouterConfig::default()
            .with_max_connections(4)
            .with_registry(registry),
    )
}

/// The addresses of every replica behind `router`.
pub fn replica_addrs(router: &FlowRouter) -> Vec<SocketAddr> {
    (0..router.backend_count())
        .filter_map(|i| router.backend_addr(i))
        .collect()
}

/// Router counters: retries summed over backends, and quorum updates.
pub fn record_router_counters(outcome: &mut Outcome, router: &FlowRouter) {
    let registry = router.metrics_registry();
    let retries: u64 = (0..router.backend_count())
        .map(|i| {
            registry
                .counter(
                    &format!("flow_router_backend_retries_total{{backend=\"{i}\"}}"),
                    "",
                )
                .value()
        })
        .sum();
    outcome.set("router.retries", retries as f64);
    outcome.set(
        "router.updates",
        registry.counter("flow_router_updates_total", "").value() as f64,
    );
}

/// Routed versus direct round trips of the same requests.
#[derive(Debug, Clone, Default)]
pub struct HopSplit {
    /// Milliseconds through the router.
    pub routed_ms: Vec<f64>,
    /// Milliseconds straight to a replica.
    pub direct_ms: Vec<f64>,
}

impl HopSplit {
    /// Records the split: routed and direct medians, their difference, and
    /// the difference as a share of the routed median; and the direct wire
    /// round trip minus the in-process `service_ms` as the server's wire
    /// overhead.
    pub fn record(&self, outcome: &mut Outcome, service_ms: f64) {
        let routed = median(&self.routed_ms);
        let direct = median(&self.direct_ms);
        outcome.set("router.routed_ms", routed);
        outcome.set("router.direct_ms", direct);
        outcome.set("router.hop_ms", routed - direct);
        outcome.set("router.hop_share", (routed - direct) / routed);
        outcome.set("server.wire_overhead_ms", direct - service_ms);
    }
}

/// Sends each request through the router and then straight to replica 0,
/// checking both answers against `oracle`.
pub fn hop_split(
    outcome: &mut Outcome,
    router: &FlowRouter,
    requests: &[QueryRequest],
    oracle: &Oracle,
    tracer: &mut Tracer,
) -> std::io::Result<HopSplit> {
    let mut routed = LineClient::connect(router.local_addr())?;
    let replica = router
        .backend_addr(0)
        .ok_or_else(|| std::io::Error::other("replica 0 is down"))?;
    let mut direct = LineClient::connect(replica)?;
    let mut split = HopSplit::default();
    // Warm both paths once, then time.
    for request in requests {
        routed.query(request)?;
        direct.query(request)?;
    }
    for request in requests {
        for (client, samples, name) in [
            (&mut routed, &mut split.routed_ms, "router.routed"),
            (&mut direct, &mut split.direct_ms, "server.direct"),
        ] {
            tracer.enter(name);
            let reply = client.query(request)?;
            tracer.exit();
            samples.push(reply.seconds * 1e3);
            outcome.check(
                reply
                    .envelope
                    .is_ok_and(|envelope| oracle.matches(request, &envelope)),
            );
        }
    }
    Ok(split)
}

/// Stands up a router over two replicas of `krate`, splits routed from
/// direct round trips of the small-read mix, compares the direct trip with
/// the in-process service, and pushes one edit and its revert through the
/// router, reading the replicas' counters around it.
pub fn fleet_probe(
    outcome: &mut Outcome,
    krate: &GeneratedCrate,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    let params = crate::oracle::serving_params();
    let program = Arc::new(krate.program.clone());
    let oracle = Oracle::fixed(crate::oracle::analyzed_engine(program.clone(), &params).snapshot());
    let funcs: Vec<FuncId> = (0..program.bodies.len() as u32).map(FuncId).collect();
    let requests: Vec<_> = (0..4 * funcs.len().min(16))
        .map(|i| crate::oracle::read_request(&program, &funcs, i))
        .collect();
    record_snapshot_ops(outcome, oracle.base(), &requests, tracer);
    let service_ms = service_query_ms(
        outcome,
        program.clone(),
        &params,
        &requests,
        &oracle,
        tracer,
    );
    outcome.set("service.query_ms", service_ms);

    let router = start_fleet(&krate.source, Arc::new(Registry::new()))?;
    let replicas = replica_addrs(&router);
    let before = Scrape::fetch(&replicas)?;
    let split = hop_split(outcome, &router, &requests, &oracle, tracer)?;
    split.record(outcome, service_ms);
    let mut editor = LineClient::connect(router.local_addr())?;
    let helper = "helper_0";
    for (epoch, source) in [
        (1, crate::oracle::edit_source(&krate.source, helper, 1)),
        (2, krate.source.clone()),
    ] {
        tracer.enter("router.update");
        let ack = editor.update(&source)?.to_string();
        tracer.exit();
        outcome.check(ack == format!("updated {epoch}"));
    }
    let after = Scrape::fetch(&replicas)?;
    record_scrape_delta(outcome, &after.plus(&before, -1.0), replicas.len() as f64);
    record_router_counters(outcome, &router);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_sum_each_series_over_its_labels() {
        let registry = Registry::new();
        for (kind, ms) in [("summary", 3), ("lint", 1)] {
            let name = format!("flow_service_request_seconds{{kind=\"{kind}\"}}");
            registry
                .histogram(&name, "")
                .observe(Duration::from_millis(ms));
        }
        registry.counter("flow_engine_cache_hits_total", "").add(5);
        let scrape = Scrape::parse(&registry.render_prometheus());
        assert!((scrape.request_s - 0.004).abs() < 1e-9, "{scrape:?}");
        assert_eq!(scrape.hits, 5.0);
        assert_eq!(scrape.queue_s, 0.0);
        assert_eq!(scrape.plus(&scrape, -1.0), Scrape::default());
    }
}
