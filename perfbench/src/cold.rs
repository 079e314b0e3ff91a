//! `cold-corpus`: the paper's Table-1 traffic as a batch job. Each round
//! compiles all ten corpus crates from source and, per crate, builds a
//! fresh cache-less engine, runs a cold `analyze_all` and drops it. No
//! sockets: codec, server and router do no work in the measured rounds.

use crate::args::Args;
use crate::layers::{self, EngineCycle};
use crate::oracle;
use crate::pace::Paced;
use crate::report::Outcome;
use crate::stats::{median, quantile, SplitMix64};
use crate::trace::Tracer;
use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::GeneratedCrate;
use flowistry_lang::types::FuncId;
use std::sync::Arc;
use std::time::Instant;

/// Crate the traced run's probes (wire, router, service) run over: the
/// smallest, so the probes stay a small share of the run.
const PROBE_CRATE: &str = "rayon";
/// Corpus generations timed for `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Input {
    name: String,
    source: String,
    params: AnalysisParams,
    funcs: Vec<FuncId>,
}

/// One round: the crates in a seeded order, and what each cost.
struct Round {
    cycles: Vec<EngineCycle>,
    iterations: u64,
    traced: bool,
}

impl Round {
    fn seconds(&self) -> f64 {
        self.cycles.iter().map(EngineCycle::seconds).sum()
    }

    fn analyzed(&self) -> u64 {
        self.cycles.iter().map(|c| c.analyzed).sum()
    }
}

/// A stable digest of every summary in a crate, in function order.
fn digest(engine: &flowistry_engine::AnalysisEngine, funcs: &[FuncId]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &func in funcs {
        let text = engine
            .summary(func)
            .map_or_else(|| "-".to_string(), |s| s.encode());
        for byte in text.bytes().chain([0xFF]) {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

struct Rounds<'a> {
    inputs: &'a [Input],
    orders: Box<dyn Iterator<Item = Vec<usize>>>,
    /// Per-crate digest of the first round; later rounds must match it.
    reference: Vec<Option<u64>>,
    /// Every crate's times at the reference pace.
    paced: Paced,
}

impl Rounds<'_> {
    fn round(&mut self, outcome: &mut Outcome, tracer: &mut Tracer) -> Round {
        let order = self.orders.next().expect("orders never run out");
        let mut round = Round {
            cycles: Vec::new(),
            iterations: 0,
            traced: tracer.enabled(),
        };
        tracer.enter("round");
        for index in order {
            let input = &self.inputs[index];
            let traced = round.traced;
            let mut seen = None;
            let mut iterations = 0;
            tracer.enter("crate");
            let cycle = layers::engine_cycle(&input.source, &input.params, tracer, |engine| {
                seen = Some(digest(engine, &input.funcs));
                if traced {
                    iterations = input
                        .funcs
                        .iter()
                        .map(|&f| engine.results(f).iterations() as u64)
                        .sum();
                }
            });
            tracer.exit();
            let reference = self.reference[index].get_or_insert(seen.unwrap_or(0));
            outcome.check(cycle.is_some() && seen == Some(*reference));
            if let Some(cycle) = cycle {
                self.paced.record(index, cycle.seconds());
                round.cycles.push(cycle);
            }
            round.iterations += iterations;
        }
        tracer.exit();
        round
    }

    /// Rounds until `seconds` of wall time have passed (at least
    /// [`MIN_ROUNDS`] per tracer), taking the tracers in turn round by
    /// round so that a traced and an untraced round see the same machine.
    fn run_for(
        &mut self,
        seconds: f64,
        outcome: &mut Outcome,
        tracers: &mut [&mut Tracer],
    ) -> Vec<Round> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS * tracers.len() || start.elapsed().as_secs_f64() < seconds {
            let tracer = &mut tracers[rounds.len() % tracers.len()];
            rounds.push(self.round(outcome, tracer));
        }
        rounds
    }
}

/// The crate order of each round, warm-up first, for `seed`: the only
/// input of this workload the seed changes.
pub fn crate_orders(seed: u64, crates: usize) -> impl Iterator<Item = Vec<usize>> {
    SplitMix64::new(seed, 1).orders(crates)
}

fn inputs(corpus: &[GeneratedCrate]) -> Vec<Input> {
    corpus
        .iter()
        .map(|krate| Input {
            name: krate.name.clone(),
            source: krate.source.clone(),
            params: AnalysisParams {
                condition: Condition::WHOLE_PROGRAM,
                available_bodies: Some(krate.available_bodies()),
                ..AnalysisParams::default()
            },
            funcs: krate.crate_funcs.clone(),
        })
        .collect()
}

/// Runs the workload and records its metrics into `outcome`.
pub fn run(run: &Args, outcome: &mut Outcome, tracer: &mut Tracer) {
    let mut setup = Paced::new(1);
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        corpus = oracle::corpus();
        setup.record(0, start.elapsed().as_secs_f64());
    }
    let inputs = inputs(&corpus);
    let mut rounds = Rounds {
        inputs: &inputs,
        orders: Box::new(crate_orders(run.seed, inputs.len())),
        reference: vec![None; inputs.len()],
        paced: Paced::new(inputs.len()),
    };
    let mut untraced = Tracer::new(false, Instant::now());
    // Warm-up round: fixes the reference digests, pays first-touch costs.
    rounds.round(outcome, &mut untraced);
    rounds.paced = Paced::new(inputs.len());

    if !run.trace {
        let measured = rounds.run_for(run.seconds as f64, outcome, &mut [&mut untraced]);
        let pass_s = rounds.paced.pass_s();
        let latencies: Vec<f64> = measured.iter().map(|r| r.seconds() * 1e3).collect();
        println!(
            "perfbench: raw times: {} rounds, round p50 {:.3} ms, p90 {:.3} ms; \
             reference median {:.4} ms",
            measured.len(),
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.9),
            rounds.paced.reference_median_s() * 1e3,
        );
        outcome.set("setup_s", setup.pass_s());
        outcome.set("pass_ms", pass_s * 1e3);
        outcome.set("throughput_per_s", measured[0].analyzed() as f64 / pass_s);
        return;
    }

    // Traced run: untraced and traced rounds in turn, for the overhead;
    // the engine's layers come from the traced rounds.
    let (traced, plain): (Vec<Round>, Vec<Round>) = rounds
        .run_for(run.seconds as f64, outcome, &mut [&mut untraced, tracer])
        .into_iter()
        .partition(|r| r.traced);
    let round_s = |rs: &[Round]| median(&rs.iter().map(Round::seconds).collect::<Vec<_>>());
    outcome.set(
        "trace.overhead_share",
        round_s(&traced) / round_s(&plain) - 1.0,
    );
    let cycles: Vec<EngineCycle> = traced.iter().flat_map(|r| r.cycles.clone()).collect();
    layers::record_engine(outcome, &cycles, traced.len() as f64);
    if let Err(e) = probe(outcome, &inputs, tracer) {
        eprintln!("perfbench: cold-corpus probe failed: {e}");
        outcome.check(false);
    }
    // The rounds' own iteration count, not the probe's, is the one the
    // analysis throughput depends on; every traced round must repeat it.
    outcome.set("core.fixpoint_iterations", traced[0].iterations as f64);
    for r in &traced {
        outcome.check(r.analyzed() == traced[0].analyzed() && r.iterations == traced[0].iterations);
    }
}

/// The layers the batch rounds never touch, measured over the probe crate:
/// the results path, in-process service and snapshot queries, and a
/// two-replica fleet for wire, hop and update costs.
fn probe(outcome: &mut Outcome, inputs: &[Input], tracer: &mut Tracer) -> std::io::Result<()> {
    let krate = oracle::corpus_crate(PROBE_CRATE);
    let input = inputs
        .iter()
        .find(|i| i.name == PROBE_CRATE)
        .expect("probe crate is in the corpus");
    let program = Arc::new(krate.program.clone());
    let drivers: Vec<FuncId> = input
        .funcs
        .iter()
        .copied()
        .filter(|&f| program.body(f).name.starts_with("drive_"))
        .collect();
    let path = layers::results_path(&program, &input.params, &drivers, tracer);
    layers::record_results_path(outcome, &path);
    layers::fleet_probe(outcome, &krate, tracer)
}
