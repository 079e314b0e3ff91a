//! `results-heavy`: one in-process `FlowServer` over `rav1e` and one
//! closed-loop client cycling `results` over the crate's `drive_*`
//! functions with the memo warm. Each answer is a large line, so encode,
//! flush and decode dominate; the fixpoint does no work while measured.

use crate::args::Args;
use crate::layers::{self, POOL_THREADS};
use crate::oracle::{self, Oracle};
use crate::pace::Paced;
use crate::report::Outcome;
use crate::stats::{median, quantile, SplitMix64};
use crate::trace::Tracer;
use crate::wire::LineClient;
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, QueryEnvelope, QueryRequest, QueryResponse,
    ServiceConfig,
};
use flowistry_lang::types::FuncId;
use flowistry_obs::Registry;
use flowistry_server::{codec, FlowServer, ServerConfig};
use std::io;
use std::sync::Arc;
use std::time::Instant;

const CRATE: &str = "rav1e";
/// Server bring-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Fewest measured rounds (one round = every driver once).
const MIN_ROUNDS: usize = 2;

struct Served {
    server: FlowServer,
    client: LineClient,
}

/// Compiles the crate, analyzes it behind a fresh service, binds a server
/// and waits for the first answer, to a `stats` request. Returns the stack
/// and the seconds from the start to that answer.
fn bring_up(source: &str, outcome: &mut Outcome) -> io::Result<(Served, f64)> {
    let start = Instant::now();
    let program = flowistry_lang::compile(source)
        .map_err(|d| io::Error::new(io::ErrorKind::InvalidData, d.message))?;
    let engine = AnalysisEngine::new(
        Arc::new(program),
        EngineConfig::default()
            .with_params(oracle::serving_params())
            .with_threads(POOL_THREADS)
            .with_metrics(Arc::new(Registry::new())),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(POOL_THREADS));
    let server = FlowServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig::default().with_max_connections(2),
    )?;
    let mut client = LineClient::connect(server.local_addr())?;
    let reply = client.query(&QueryRequest::Stats)?;
    let seconds = start.elapsed().as_secs_f64();
    outcome.check(
        reply
            .envelope
            .is_ok_and(|e| matches!(e.response, QueryResponse::Stats(stats) if stats.epoch == 0)),
    );
    Ok((Served { server, client }, seconds))
}

/// The client side of the loop: the live stack and what it is asked.
struct Client<'a> {
    served: Served,
    drivers: &'a [FuncId],
    expected: &'a [Vec<u8>],
    orders: Box<dyn Iterator<Item = Vec<usize>>>,
    /// Every driver's round trips at the reference pace.
    paced: Paced,
}

/// The measured loop's rounds: per-request milliseconds and per-round
/// rates, kept apart for untraced and traced rounds.
#[derive(Default)]
struct Measured {
    latencies_ms: Vec<f64>,
    rates: Vec<f64>,
    traced_rates: Vec<f64>,
}

impl Client<'_> {
    /// One round, every driver once in the round's seeded order; returns
    /// each request's seconds, in order.
    fn round(&mut self, outcome: &mut Outcome, tracer: &mut Tracer) -> io::Result<Vec<f64>> {
        let order = self.orders.next().expect("orders never run out");
        let mut times = Vec::with_capacity(order.len());
        for &i in &order {
            self.paced.mark();
            tracer.enter("client.results");
            let reply = self
                .served
                .client
                .query(&QueryRequest::Results(self.drivers[i]))?;
            tracer.exit();
            self.paced.record(i, reply.seconds);
            times.push(reply.seconds);
            // Outside the timed region: the line must be bit-identical to
            // the encoding of the oracle snapshot's own results.
            outcome.check(
                reply.envelope.is_ok()
                    && self.served.client.last_line().as_bytes() == self.expected[i],
            );
        }
        Ok(times)
    }

    /// Rounds until `seconds` have passed (at least [`MIN_ROUNDS`] per
    /// tracer), taking the tracers in turn round by round.
    fn rounds(
        &mut self,
        seconds: f64,
        outcome: &mut Outcome,
        tracers: &mut [&mut Tracer],
    ) -> io::Result<Measured> {
        let start = Instant::now();
        let mut m = Measured::default();
        let mut n = 0;
        while n < MIN_ROUNDS * tracers.len() || start.elapsed().as_secs_f64() < seconds {
            let tracer = &mut tracers[n % tracers.len()];
            let times = self.round(outcome, tracer)?;
            let rate = times.len() as f64 / times.iter().sum::<f64>();
            m.latencies_ms.extend(times.iter().map(|s| s * 1e3));
            if tracer.enabled() {
                m.traced_rates.push(rate);
            } else {
                m.rates.push(rate);
            }
            n += 1;
        }
        Ok(m)
    }
}

/// The driver order of each round, warm-up first, for `seed`.
pub fn driver_orders(seed: u64, drivers: usize) -> impl Iterator<Item = Vec<usize>> {
    SplitMix64::new(seed, 2).orders(drivers)
}

/// Runs the workload and records its metrics into `outcome`.
pub fn run(run: &Args, outcome: &mut Outcome, tracer: &mut Tracer) -> io::Result<()> {
    let krate = oracle::corpus_crate(CRATE);
    let program = Arc::new(krate.program.clone());
    let params = oracle::serving_params();
    let drivers: Vec<FuncId> = (0..program.bodies.len() as u32)
        .map(FuncId)
        .filter(|&f| program.body(f).name.starts_with("drive_"))
        .collect();
    // The oracle snapshot is dropped once its lines are encoded: its
    // decoded results would otherwise double the process's footprint.
    let snapshot = oracle::analyzed_engine(program.clone(), &params).snapshot();
    let expected: Vec<Vec<u8>> = drivers
        .iter()
        .map(|&f| {
            codec::encode_envelope(&QueryEnvelope {
                epoch: 0,
                response: QueryResponse::Results(snapshot.results(f)),
                trace_id: None,
            })
            .into_bytes()
        })
        .collect();
    drop(snapshot);

    let mut setup = Paced::new(1);
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous stack down before timing the next bring-up.
        drop(served.take());
        setup.mark();
        let (stack, seconds) = bring_up(&krate.source, outcome)?;
        setup.record(0, seconds);
        served = Some(stack);
    }
    let mut client = Client {
        served: served.expect("at least one bring-up"),
        drivers: &drivers,
        expected: &expected,
        orders: Box::new(driver_orders(run.seed, drivers.len())),
        paced: Paced::new(drivers.len()),
    };
    // Warm the memo and every result's decoded form.
    let mut untraced = Tracer::new(false, Instant::now());
    client.round(outcome, &mut untraced)?;
    client.paced = Paced::new(drivers.len());

    if !run.trace {
        let m = client.rounds(run.seconds as f64, outcome, &mut [&mut untraced])?;
        let pass_s = client.paced.pass_s();
        println!(
            "perfbench: raw times: {} requests, round trip p50 {:.3} ms, p90 {:.3} ms, \
             {:.3} requests/s median over rounds; reference median {:.4} ms",
            m.latencies_ms.len(),
            quantile(&m.latencies_ms, 0.5),
            quantile(&m.latencies_ms, 0.9),
            median(&m.rates),
            client.paced.reference_median_s() * 1e3,
        );
        outcome.set("setup_s", setup.pass_s());
        outcome.set("pass_ms", pass_s * 1e3);
        outcome.set("throughput_per_s", drivers.len() as f64 / pass_s);
        return Ok(());
    }

    let m = client.rounds(run.seconds as f64, outcome, &mut [&mut untraced, tracer])?;
    outcome.set(
        "trace.overhead_share",
        median(&m.rates) / median(&m.traced_rates) - 1.0,
    );
    let registry = client.served.server.metrics_registry().clone();
    drop(client);

    // The results path stage by stage, for the same drivers.
    let path = layers::results_path(&program, &params, &drivers, tracer);
    layers::record_results_path(outcome, &path);
    let cycle = layers::engine_cycle(&krate.source, &params, tracer, |_| {});
    outcome.check(cycle.is_some());
    layers::record_engine(outcome, cycle.as_slice(), 1.0);

    // Router, replicas and small reads over the same crate.
    layers::fleet_probe(outcome, &krate, tracer)?;
    // Service and wire shares of the served `results` trip itself: the
    // live server's queue and request seconds, and its round trip minus
    // the same request through an in-process service.
    let live = layers::Scrape::parse(&registry.render_prometheus());
    layers::record_service_share(outcome, &live);
    let oracle = Oracle::fixed(oracle::analyzed_engine(program.clone(), &params).snapshot());
    let requests: Vec<QueryRequest> = drivers.iter().map(|&f| QueryRequest::Results(f)).collect();
    let service_ms = layers::service_query_ms(
        outcome,
        program.clone(),
        &params,
        &requests,
        &oracle,
        tracer,
    );
    outcome.set("service.query_ms", service_ms);
    outcome.set(
        "server.wire_overhead_ms",
        median(&m.latencies_ms) - service_ms,
    );
    Ok(())
}
