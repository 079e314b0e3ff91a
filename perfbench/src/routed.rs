//! `edit-routed`: a `FlowRouter` over two in-process `rg3d` replicas,
//! driven by two connections. A closed-loop reader cycles `summary`,
//! `slice`, `lint` and `stats` over every function while an open-loop
//! editor sends `update`s at a fixed rate, alternating a one-helper edit
//! and its revert. Update latency is timed from when each update was due.

use crate::args::Args;
use crate::layers::{self, HopSplit};
use crate::oracle::{self, Oracle};
use crate::pace::Paced;
use crate::report::Outcome;
use crate::stats::{median, quantile, SplitMix64};
use crate::trace::Tracer;
use crate::wire::LineClient;
use flowistry_engine::QueryRequest;
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use flowistry_obs::Registry;
use flowistry_router::FlowRouter;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CRATE: &str = "rg3d";
/// Editor arrival rate, updates per second.
const UPDATE_RATE: f64 = 4.0;
/// Fleet bring-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Reads per throughput round.
const READS_PER_ROUND: usize = 1000;
/// In the traced run, every this-many-th read is also sent straight to a
/// replica, for the router-hop split.
const HOP_SAMPLE_EVERY: usize = 7;

/// The edits one run sends: update `i` (0-based, across phases) edits
/// helper `helpers[i / 2]` when `i` is even and reverts it when odd.
struct Edits {
    base: String,
    edited: Vec<String>,
}

impl Edits {
    fn new(base: &str, helpers: &[String], count: usize) -> Edits {
        Edits {
            base: base.to_string(),
            edited: (0..count)
                .map(|j| oracle::edit_source(base, &helpers[j % helpers.len()], j + 1))
                .collect(),
        }
    }

    /// The source update `i` ships.
    fn source(&self, i: usize) -> &str {
        if i.is_multiple_of(2) {
            &self.edited[i / 2]
        } else {
            &self.base
        }
    }

    /// Which version an epoch serves: 0 for the base, `j + 1` for edit `j`.
    fn version_of(epoch: u64) -> usize {
        if epoch % 2 == 1 {
            (epoch as usize).div_ceil(2)
        } else {
            0
        }
    }
}

/// What the traffic measured. Read rates are kept apart for untraced and
/// traced rounds; reads are paced in untraced rounds only.
struct Phase {
    update_ms: Vec<f64>,
    late_ms: Vec<f64>,
    paced: Paced,
    read_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    hop: HopSplit,
}

/// The editor: sends `updates` updates on a fixed schedule, each timed
/// from when it was due.
fn edit_loop(
    router: SocketAddr,
    edits: &Edits,
    updates: usize,
    tracer: &mut Tracer,
) -> io::Result<(Vec<f64>, Vec<f64>, usize)> {
    let mut client = LineClient::connect(router)?;
    let start = Instant::now();
    let (mut update_ms, mut late_ms, mut failures) = (Vec::new(), Vec::new(), 0);
    for i in 0..updates {
        let due = start + Duration::from_secs_f64(i as f64 / UPDATE_RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        tracer.enter("router.update");
        let ack = client.update(edits.source(i))?;
        tracer.exit();
        update_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        if ack != format!("updated {}", i + 1) {
            eprintln!("perfbench: update {i} answered {ack:?}");
            failures += 1;
        }
    }
    Ok((update_ms, late_ms, failures))
}

struct Fleet {
    router: FlowRouter,
    reader: LineClient,
}

fn bring_up(source: &str, first: &QueryRequest, oracle: &Oracle) -> io::Result<(Fleet, f64, bool)> {
    let start = Instant::now();
    let router = layers::start_fleet(source, Arc::new(Registry::new()))?;
    let mut reader = LineClient::connect(router.local_addr())?;
    let reply = reader.query(first)?;
    let seconds = start.elapsed().as_secs_f64();
    let ok = reply.envelope.is_ok_and(|e| oracle.matches(first, &e));
    Ok((Fleet { router, reader }, seconds, ok))
}

struct Traffic<'a> {
    program: &'a CompiledProgram,
    order: Vec<FuncId>,
    edits: &'a Edits,
    oracle: &'a Oracle,
}

impl Traffic<'_> {
    /// Runs `updates` edits beside closed-loop reads until the editor is
    /// done, taking the reader's tracers in turn round by round. Reads in
    /// traced rounds are also sampled for the hop split.
    fn run(
        &self,
        fleet: &mut Fleet,
        updates: usize,
        outcome: &mut Outcome,
        tracers: &mut [&mut Tracer],
        editor_tracer: &mut Tracer,
    ) -> io::Result<Phase> {
        // Read `i` asks the same as read `i % reads`: one pass of the mix.
        let reads = 4 * self.order.len();
        let mut phase = Phase {
            update_ms: Vec::new(),
            late_ms: Vec::new(),
            paced: Paced::new(reads),
            read_rates: Vec::new(),
            traced_rates: Vec::new(),
            hop: HopSplit::default(),
        };
        let done = AtomicBool::new(false);
        let router_addr = fleet.router.local_addr();
        let mut direct = if tracers.iter().any(|t| t.enabled()) {
            let addr = fleet
                .router
                .backend_addr(0)
                .ok_or_else(|| io::Error::other("replica 0 is down"))?;
            Some(LineClient::connect(addr)?)
        } else {
            None
        };
        let edits = self.edits;
        let editor = std::thread::scope(|s| -> io::Result<_> {
            let editor = s.spawn(|| {
                let result = edit_loop(router_addr, edits, updates, editor_tracer);
                done.store(true, Ordering::SeqCst);
                result
            });
            let (mut busy, mut in_round, mut round) = (0.0, 0, 0);
            // Read 0 answered the bring-up.
            let mut next_read = 1;
            while !done.load(Ordering::SeqCst) {
                let tracer = &mut tracers[round % tracers.len()];
                let item = next_read % reads;
                let request = oracle::read_request(self.program, &self.order, next_read);
                next_read += 1;
                tracer.enter("router.routed");
                let reply = fleet.reader.query(&request);
                tracer.exit();
                let reply = match reply {
                    Ok(reply) => reply,
                    Err(e) => {
                        // Unblock nothing: the editor finishes on its own.
                        outcome.check(false);
                        eprintln!("perfbench: routed read failed: {e}");
                        break;
                    }
                };
                busy += reply.seconds;
                in_round += 1;
                let traced = tracer.enabled();
                if !traced {
                    phase.paced.record_at_latest(item, reply.seconds);
                }
                if in_round == READS_PER_ROUND {
                    let rates = if traced {
                        &mut phase.traced_rates
                    } else {
                        &mut phase.read_rates
                    };
                    rates.push(READS_PER_ROUND as f64 / busy);
                    // Reads are too short to pace one by one.
                    phase.paced.mark();
                    (busy, in_round, round) = (0.0, 0, round + 1);
                }
                outcome.check(
                    reply
                        .envelope
                        .is_ok_and(|e| self.oracle.matches(&request, &e)),
                );
                if let Some(direct) = direct.as_mut().filter(|_| traced) {
                    if next_read.is_multiple_of(HOP_SAMPLE_EVERY) {
                        phase.hop.routed_ms.push(reply.seconds * 1e3);
                        tracer.enter("server.direct");
                        let direct_reply = direct.query(&request)?;
                        tracer.exit();
                        phase.hop.direct_ms.push(direct_reply.seconds * 1e3);
                        outcome.check(
                            direct_reply
                                .envelope
                                .is_ok_and(|e| self.oracle.matches(&request, &e)),
                        );
                    }
                }
            }
            if phase.read_rates.is_empty() && in_round > 0 {
                phase.read_rates.push(in_round as f64 / busy);
            }
            if tracers.len() > 1 && phase.traced_rates.is_empty() && in_round > 0 {
                phase.traced_rates.push(in_round as f64 / busy);
            }
            Ok(editor.join().expect("editor thread panicked"))
        })?;
        let (update_ms, late_ms, failures) = editor?;
        for _ in 0..update_ms.len() {
            outcome.check(true);
        }
        for _ in 0..failures {
            outcome.check(false);
        }
        phase.update_ms = update_ms;
        phase.late_ms = late_ms;
        Ok(phase)
    }
}

/// The seeded inputs: the helpers the edits touch, in edit order, and the
/// function order the reads cycle over.
pub fn plan(program: &CompiledProgram, seed: u64) -> (Vec<String>, Vec<FuncId>) {
    let mut rng = SplitMix64::new(seed, 3);
    let mut helpers: Vec<String> = program
        .bodies
        .iter()
        .map(|b| b.name.clone())
        .filter(|n| n.starts_with("helper_"))
        .collect();
    rng.shuffle(&mut helpers);
    let mut order: Vec<FuncId> = (0..program.bodies.len() as u32).map(FuncId).collect();
    rng.shuffle(&mut order);
    (helpers, order)
}

/// Functions re-analyzed by each of the first `updates` updates of `seed`,
/// replayed on one in-process engine the way every replica applies them.
pub fn replay_dirty_counts(seed: u64, updates: usize) -> Vec<usize> {
    let krate = oracle::corpus_crate(CRATE);
    let program = Arc::new(krate.program.clone());
    let (helpers, _) = plan(&program, seed);
    let edits = Edits::new(&krate.source, &helpers, updates.div_ceil(2));
    let mut engine = oracle::analyzed_engine(program, &oracle::serving_params());
    (0..updates)
        .map(|i| {
            let next = flowistry_lang::compile(edits.source(i)).expect("edits compile");
            engine.update_program(Arc::new(next));
            engine.analyze_all().analyzed
        })
        .collect()
}

/// Runs the workload and records its metrics into `outcome`.
pub fn run(
    run: &Args,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    editor_tracer: &mut Tracer,
) -> io::Result<()> {
    let krate = oracle::corpus_crate(CRATE);
    let program = Arc::new(krate.program.clone());
    let params = oracle::serving_params();
    // An even number of updates, so every phase ends on the base program.
    let updates = 2 * ((UPDATE_RATE * run.seconds as f64 / 2.0).ceil() as usize).max(1);
    let (helpers, order) = plan(&program, run.seed);
    let edits = Edits::new(&krate.source, &helpers, updates / 2);

    // One snapshot per version, built incrementally by one engine.
    let mut engine = oracle::analyzed_engine(program.clone(), &params);
    let mut versions = vec![engine.snapshot()];
    for source in &edits.edited {
        let edited = flowistry_lang::compile(source)
            .map_err(|d| io::Error::new(io::ErrorKind::InvalidData, d.message))?;
        engine.update_program(Arc::new(edited));
        engine.analyze_all();
        versions.push(engine.snapshot());
    }
    drop(engine);
    let max_epoch = updates as u64;
    let oracle = Oracle::versioned(
        versions,
        Box::new(move |e| (e <= max_epoch).then(|| Edits::version_of(e))),
    );

    let first = oracle::read_request(&program, &order, 0);
    let mut setup = Paced::new(1);
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        drop(fleet.take());
        setup.mark();
        let (stack, seconds, ok) = bring_up(&krate.source, &first, &oracle)?;
        outcome.check(ok);
        setup.record(0, seconds);
        fleet = Some(stack);
    }
    let mut fleet = fleet.expect("at least one bring-up");
    let replicas = layers::replica_addrs(&fleet.router);
    let before = layers::Scrape::fetch(&replicas)?;

    let traffic = Traffic {
        program: &program,
        order,
        edits: &edits,
        oracle: &oracle,
    };
    let mut untraced = Tracer::new(false, Instant::now());

    if !run.trace {
        let phase = traffic.run(
            &mut fleet,
            updates,
            outcome,
            &mut [&mut untraced],
            &mut Tracer::new(false, Instant::now()),
        )?;
        eprintln!(
            "perfbench: {} updates, generator late p50 {:.3} ms, max {:.3} ms",
            phase.update_ms.len(),
            median(&phase.late_ms),
            phase.late_ms.iter().cloned().fold(0.0, f64::max),
        );
        let pass_s = phase.paced.pass_s();
        println!(
            "perfbench: raw times: update p50 {:.3} ms, p90 {:.3} ms from due time, \
             {:.1} reads/s median over rounds; reference median {:.4} ms",
            quantile(&phase.update_ms, 0.5),
            quantile(&phase.update_ms, 0.9),
            median(&phase.read_rates),
            phase.paced.reference_median_s() * 1e3,
        );
        outcome.set("setup_s", setup.pass_s());
        outcome.set("pass_ms", pass_s * 1e3);
        outcome.set(
            "throughput_per_s",
            (4 * traffic.order.len()) as f64 / pass_s,
        );
        return Ok(());
    }

    let traced = traffic.run(
        &mut fleet,
        updates,
        outcome,
        &mut [&mut untraced, tracer],
        editor_tracer,
    )?;
    outcome.set(
        "trace.overhead_share",
        median(&traced.read_rates) / median(&traced.traced_rates) - 1.0,
    );
    let after = layers::Scrape::fetch(&replicas)?;
    layers::record_scrape_delta(outcome, &after.plus(&before, -1.0), replicas.len() as f64);
    layers::record_router_counters(outcome, &fleet.router);
    drop(fleet);

    // In-process service and snapshot queries over the same request mix,
    // then the direct trip minus the in-process one for the wire overhead.
    let requests: Vec<QueryRequest> = (0..64)
        .map(|i| oracle::read_request(&program, &traffic.order, i))
        .collect();
    let fixed = Oracle::fixed(oracle.base().clone());
    layers::record_snapshot_ops(outcome, oracle.base(), &requests, tracer);
    let service_ms =
        layers::service_query_ms(outcome, program.clone(), &params, &requests, &fixed, tracer);
    outcome.set("service.query_ms", service_ms);
    traced.hop.record(outcome, service_ms);

    // The analysis layers, over the same crate.
    let sample: Vec<FuncId> = traffic.order.iter().copied().take(16).collect();
    let path = layers::results_path(&program, &params, &sample, tracer);
    layers::record_results_path(outcome, &path);
    let cycle = layers::engine_cycle(&krate.source, &params, tracer, |_| {});
    outcome.check(cycle.is_some());
    layers::record_engine(outcome, cycle.as_slice(), 1.0);
    // Compile cost of what the editor shipped, as the replicas pay it.
    let mut compiles = Vec::new();
    for i in 0..updates.min(8) {
        tracer.enter("lang.compile");
        let start = Instant::now();
        let ok = flowistry_lang::compile(edits.source(i)).is_ok();
        compiles.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.exit();
        outcome.check(ok);
    }
    outcome.set("lang.compile_ms", crate::stats::mean(&compiles));
    Ok(())
}
