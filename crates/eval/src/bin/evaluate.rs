//! The evaluation driver: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p flowistry-eval --bin evaluate -- all
//! cargo run --release -p flowistry-eval --bin evaluate -- fig2 --seed 0xF10A
//! cargo run --release -p flowistry-eval --bin evaluate -- all --smoke --threads 2
//! ```
//!
//! Subcommands: `table1`, `table2`, `fig2`, `fig3`, `fig4`, `boundary`,
//! `perf`, `chaos`, `noninterference`, `ifc`, `lints`, `all` (default).
//! Results are printed and also written as JSON under `results/`. `ifc`
//! runs the labeled-corpus differential (policy checker vs interpreter)
//! and exits nonzero on any mismatch; `lints` runs every lint pass plus
//! the inferred effect signatures against the interpreter soundness
//! oracles and exits nonzero on any under-approximation or false positive.
//!
//! Flags:
//!
//! * `--seed <N>` — corpus generation seed, decimal, or hex with a `0x`
//!   prefix (a malformed seed is a usage error);
//! * `--threads <N>` — engine worker threads; overrides the
//!   `FLOWISTRY_ENGINE_THREADS` environment variable, so sweeps are
//!   reproducible without env plumbing;
//! * `--smoke` — a fast CI pass: the corpus sweep is limited to the first
//!   two crates, the chaos gauntlet runs on the smallest profile, and the
//!   noninterference, IFC and lint checks use fewer programs and trials.
//!   A smoke run writes only under `results/`; the tracked repo-root
//!   `BENCH_chaos.json` and `BENCH_lints.json` change only on a full run.
//!
//! An unknown subcommand or flag, or a malformed value, is a usage error
//! (exit status 2).

use flowistry_core::Condition;
use flowistry_eval::report;
use flowistry_eval::{
    boundary_stats, diff_stats, measure_corpus_limited, measure_slowdown, per_crate_stats,
    CrateMeasurements, Json, ToJson, VariableRecord,
};
use std::path::Path;

/// Parses a `--seed` value: decimal, or hex with a `0x` prefix.
fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("malformed --seed {raw:?}: expected decimal or 0x-prefixed hex"))
}

fn usage_error(msg: &str) -> ! {
    eprintln!("evaluate: {msg}");
    eprintln!("usage: evaluate [SUBCOMMAND] [--seed N] [--threads N] [--smoke]");
    eprintln!("subcommands: {}", SUBCOMMANDS.join(", "));
    std::process::exit(2);
}

/// How much of each experiment to run: the full evaluation or the CI smoke.
#[derive(Clone, Copy)]
struct Scale {
    max_crates: usize,
    chaos_profile: usize,
    noninterference_crates: usize,
    noninterference_funcs: usize,
    noninterference_trials: usize,
    slowdown_depth: usize,
    service_requests: usize,
    ifc_programs: usize,
    ifc_trials: usize,
    lint_programs: usize,
    lint_trials: usize,
    /// Whether the run rewrites the tracked repo-root `BENCH_*.json`
    /// artifacts. Only a full-scale run does: a smoke run writes its
    /// reports under `results/` alone.
    writes_bench: bool,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            max_crates: usize::MAX,
            chaos_profile: 7, // the rg3d stand-in — the largest corpus crate
            noninterference_crates: 3,
            noninterference_funcs: 30,
            noninterference_trials: 8,
            slowdown_depth: 6,
            service_requests: 50,
            ifc_programs: 210,
            ifc_trials: 4,
            lint_programs: 210,
            lint_trials: 4,
            writes_bench: true,
        }
    }

    fn smoke() -> Scale {
        Scale {
            max_crates: 2,
            chaos_profile: 0,
            noninterference_crates: 1,
            noninterference_funcs: 5,
            noninterference_trials: 2,
            slowdown_depth: 4,
            service_requests: 12,
            ifc_programs: 24,
            ifc_trials: 2,
            lint_programs: 24,
            lint_trials: 2,
            writes_bench: false,
        }
    }
}

/// Every subcommand; `all` is the default.
const SUBCOMMANDS: [&str; 12] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "boundary",
    "perf",
    "chaos",
    "noninterference",
    "ifc",
    "lints",
    "all",
];

/// A parsed command line.
struct Args {
    command: &'static str,
    seed: u64,
    threads: Option<usize>,
    scale: Scale,
}

/// Parses the arguments after the program name; any unknown subcommand or
/// flag, and any malformed value, is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut seed = flowistry_corpus::DEFAULT_SEED;
    let mut threads = None;
    let mut scale = Scale::full();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => seed = parse_seed(iter.next().ok_or("--seed needs a value")?)?,
            "--threads" => {
                let raw = iter.next().ok_or("--threads needs a value")?;
                let n = raw
                    .parse()
                    .map_err(|_| format!("malformed --threads {raw:?}: expected a count"))?;
                threads = Some(n);
            }
            "--smoke" => scale = Scale::smoke(),
            other => match SUBCOMMANDS.iter().find(|&&sub| sub == other) {
                Some(sub) if command.is_none() => command = Some(*sub),
                _ => return Err(format!("unexpected argument {other:?}")),
            },
        }
    }
    Ok(Args {
        command: command.unwrap_or("all"),
        seed,
        threads,
        scale,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        command,
        seed,
        threads,
        scale,
    } = parse_args(&args).unwrap_or_else(|msg| usage_error(&msg));
    if let Some(n) = threads {
        // The engine resolves `threads: 0` through this variable, so
        // setting it here (before any engine spawns) overrides whatever the
        // environment carried.
        std::env::set_var("FLOWISTRY_ENGINE_THREADS", n.to_string());
    }

    let out_dir = Path::new("results");
    let _ = std::fs::create_dir_all(out_dir);

    println!("== Flowistry reproduction evaluation (seed 0x{seed:X}) ==\n");

    match command {
        "table2" => {
            println!(
                "{}",
                report::render_table2(&flowistry_corpus::paper_profiles(), seed)
            );
        }
        "perf" => run_perf(seed, scale, out_dir),
        "chaos" => run_chaos(seed, scale, out_dir),
        "noninterference" => run_noninterference(seed, scale),
        "ifc" => run_ifc(seed, scale, out_dir),
        "lints" => run_lints(seed, scale, out_dir),
        cmd => {
            // Everything else needs the corpus measured under the four
            // headline conditions.
            eprintln!("measuring corpus (4 conditions)...");
            let measurements =
                measure_corpus_limited(seed, &Condition::headline_four(), scale.max_crates);
            let records: Vec<VariableRecord> = measurements
                .iter()
                .flat_map(|m| m.records.iter().cloned())
                .collect();
            write_json(out_dir.join("measurements.json"), &measurements);

            match cmd {
                "table1" => print_table1(&measurements, out_dir),
                "fig2" => print_fig2(&records, out_dir),
                "fig3" => print_fig3(&records, out_dir),
                "fig4" => print_fig4(&measurements, out_dir),
                "boundary" => print_boundary(&records, out_dir),
                _ => {
                    print_table1(&measurements, out_dir);
                    print_fig2(&records, out_dir);
                    print_fig3(&records, out_dir);
                    print_fig4(&measurements, out_dir);
                    print_boundary(&records, out_dir);
                    print_perf_from(&measurements, scale, out_dir);
                    println!(
                        "{}",
                        report::render_table2(&flowistry_corpus::paper_profiles(), seed)
                    );
                    run_noninterference(seed, scale);
                    run_ifc(seed, scale, out_dir);
                    run_lints(seed, scale, out_dir);
                }
            }
        }
    }
}

fn write_json<T: flowistry_eval::ToJson>(path: std::path::PathBuf, value: &T) {
    let json = value.to_json().pretty();
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn print_table1(measurements: &[CrateMeasurements], out_dir: &Path) {
    let text = report::render_table1(measurements);
    println!("{text}");
    let _ = std::fs::write(out_dir.join("table1.txt"), &text);
}

fn print_fig2(records: &[VariableRecord], out_dir: &Path) {
    let stats = diff_stats(records, Condition::MODULAR, Condition::WHOLE_PROGRAM);
    let text = report::render_diff(
        "Figure 2: Modular vs Whole-program dependency-set sizes",
        &stats,
    );
    println!("{text}");
    write_json(out_dir.join("fig2.json"), &stats);
}

fn print_fig3(records: &[VariableRecord], out_dir: &Path) {
    let whole = diff_stats(records, Condition::MODULAR, Condition::WHOLE_PROGRAM);
    let mut_blind = diff_stats(records, Condition::MUT_BLIND, Condition::MODULAR);
    let ref_blind = diff_stats(records, Condition::REF_BLIND, Condition::MODULAR);
    let mut text = String::new();
    text.push_str(&report::render_diff(
        "Figure 3a: Modular vs Whole-program (for comparison)",
        &whole,
    ));
    text.push_str(&report::render_diff(
        "Figure 3b: Mut-blind vs Modular",
        &mut_blind,
    ));
    text.push_str(&report::render_diff(
        "Figure 3c: Ref-blind vs Modular",
        &ref_blind,
    ));
    println!("{text}");
    write_json(
        out_dir.join("fig3.json"),
        &vec![whole, mut_blind, ref_blind],
    );
}

fn print_fig4(measurements: &[CrateMeasurements], out_dir: &Path) {
    let stats = per_crate_stats(measurements, Condition::MUT_BLIND, Condition::MODULAR);
    let text = report::render_per_crate(&stats);
    println!("{text}");
    write_json(out_dir.join("fig4.json"), &stats);
}

fn print_boundary(records: &[VariableRecord], out_dir: &Path) {
    let stats = boundary_stats(records);
    let text = report::render_boundary(&stats);
    println!("{text}");
    write_json(out_dir.join("boundary.json"), &stats);
}

fn print_perf_from(measurements: &[CrateMeasurements], scale: Scale, out_dir: &Path) {
    let medians: Vec<(String, f64)> = measurements
        .iter()
        .map(|m| (m.name.clone(), m.median_analysis_micros))
        .collect();
    let slowdown = measure_slowdown(scale.slowdown_depth, 2);
    let text = report::render_perf(&medians, &slowdown);
    println!("{text}");
    write_json(out_dir.join("perf.json"), &slowdown);
}

fn run_perf(seed: u64, scale: Scale, out_dir: &Path) {
    eprintln!("measuring corpus for per-function timings...");
    let measurements = measure_corpus_limited(seed, &[Condition::MODULAR], scale.max_crates);
    print_perf_from(&measurements, scale, out_dir);
}

fn run_chaos(seed: u64, scale: Scale, out_dir: &Path) {
    eprintln!("running the chaos gauntlet (8 clients, 3 replicas, seeded fault schedule)...");
    let report =
        flowistry_eval::measure_chaos(scale.chaos_profile, seed, 3, 0, 8, scale.service_requests);
    println!("{}", flowistry_eval::render_chaos(&report));
    write_json(out_dir.join("chaos.json"), &report);
    // The repo-root benchmark artifact the README links.
    if scale.writes_bench {
        let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
        write_json(std::path::PathBuf::from(bench), &report);
    }
    if !report.invariant_violations.is_empty() || !report.post_chaos_bit_identical {
        eprintln!(
            "chaos gauntlet FAILED: {} invariant violations, bit-identical recovery: {}",
            report.invariant_violations.len(),
            report.post_chaos_bit_identical
        );
        std::process::exit(1);
    }
}

fn run_noninterference(seed: u64, scale: Scale) {
    println!("Empirical noninterference check (Theorem 3.1) on corpus drivers");
    let corpus = flowistry_corpus::generate_corpus(seed);
    let mut checked = 0usize;
    let mut trials = 0usize;
    let mut violations = 0usize;
    for krate in corpus.iter().take(scale.noninterference_crates) {
        for &func in krate.crate_funcs.iter().take(scale.noninterference_funcs) {
            let report = flowistry_interp::check_function(
                &krate.program,
                func,
                &flowistry_core::AnalysisParams::default(),
                scale.noninterference_trials,
                seed ^ func.0 as u64,
            );
            if let Some(report) = report {
                checked += 1;
                trials += report.completed_trials;
                violations += report.violations.len();
                for v in &report.violations {
                    eprintln!("  VIOLATION in {}: {v}", krate.name);
                }
            }
        }
    }
    println!("  checked {checked} functions, {trials} completed trials, {violations} violations\n");
}

fn run_ifc(seed: u64, scale: Scale, out_dir: &Path) {
    eprintln!(
        "running the IFC differential ({} labeled programs, {} trials per secure driver)...",
        scale.ifc_programs, scale.ifc_trials
    );
    let report =
        flowistry_eval::measure_ifc_differential(seed, scale.ifc_programs, scale.ifc_trials);
    println!("{}", flowistry_eval::render_ifc_differential(&report));
    write_json(out_dir.join("ifc.json"), &report);
    if !report.is_clean() {
        eprintln!(
            "IFC differential FAILED: {} interference mismatches",
            report.interference_mismatches.len()
        );
        std::process::exit(1);
    }
}

fn run_lints(seed: u64, scale: Scale, out_dir: &Path) {
    eprintln!(
        "running the lint/effect soundness differential ({} labeled programs, {} trials per function)...",
        scale.lint_programs, scale.lint_trials
    );
    let report = flowistry_eval::measure_lints(seed, scale.lint_programs, scale.lint_trials);
    println!("{}", flowistry_eval::render_lints(&report));
    write_json(out_dir.join("lints.json"), &report);
    // The repo-root benchmark artifact CI diffs and the README links. It
    // is tracked, so it keeps only the seeded counts: the wall time, which
    // moves on every run, stays in `results/lints.json`.
    if scale.writes_bench {
        let mut bench = report.to_json();
        if let Json::Obj(fields) = &mut bench {
            fields.retain(|(key, _)| key != "lint_wall_millis");
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lints.json");
        write_json(std::path::PathBuf::from(path), &bench);
    }
    if !report.is_clean() {
        eprintln!(
            "lint differential FAILED: {} effect under-approximations, {} dead-store false positives, {} unused-mut false positives",
            report.effect_underapprox.len(),
            report.dead_store_false_positives.len(),
            report.unused_mut_false_positives.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, parse_seed};

    fn parse(line: &str) -> Result<&'static str, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args).map(|a| a.command)
    }

    #[test]
    fn subcommands_and_flags_parse() {
        assert_eq!(parse(""), Ok("all"));
        assert_eq!(parse("fig3 --smoke --threads 2"), Ok("fig3"));
        assert_eq!(parse("--seed 0xF10A lints"), Ok("lints"));
        let args: Vec<String> = ["--threads", "3", "--seed", "7"].map(String::from).into();
        let parsed = parse_args(&args).unwrap();
        assert_eq!((parsed.threads, parsed.seed), (Some(3), 7));
    }

    #[test]
    fn unknown_subcommands_and_flags_are_rejected() {
        for line in [
            "engine",
            "all --no-baseline",
            "tabel1",
            "--verbose",
            "fig2 fig3",
            "--threads",
            "--threads many",
            "--seed",
        ] {
            assert!(parse(line).is_err(), "{line:?} was accepted");
        }
    }

    #[test]
    fn seeds_are_decimal_by_default() {
        assert_eq!(parse_seed("10"), Ok(10));
        assert_eq!(parse_seed("0"), Ok(0));
    }

    #[test]
    fn seeds_are_hex_only_with_a_prefix() {
        assert_eq!(parse_seed("0x10"), Ok(16));
        assert_eq!(parse_seed("0xF10A"), Ok(0xF10A));
    }

    #[test]
    fn malformed_seeds_are_rejected() {
        for raw in [
            "",
            "F10A",
            "0x",
            "0xZZ",
            "-1",
            "1.5",
            "18446744073709551616",
        ] {
            assert!(parse_seed(raw).is_err(), "{raw:?} was accepted");
        }
    }
}
