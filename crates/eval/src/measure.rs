//! Measurement: run the analysis over the corpus under every condition and
//! record per-variable dependency-set sizes (the paper's dependent variable,
//! §5.1).
//!
//! The records come from the engine: each condition builds one snapshot
//! per crate (summaries computed bottom-up once, seeding the snapshot's
//! results memo as a by-product) and serves every per-function measurement
//! from it. The paper's §5.1 per-function time is measured separately, by
//! one direct `analyze` per function under the Modular condition.

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::GeneratedCrate;
use flowistry_engine::{AnalysisEngine, EngineConfig};
use std::sync::Arc;
use std::time::Instant;

/// One data point: the dependency-set size of one variable of one function
/// under one condition (the paper collects 3,487,832 of these; ours is a
/// scaled-down corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct VariableRecord {
    /// Crate the function belongs to.
    pub krate: String,
    /// Function name.
    pub function: String,
    /// Variable name (a named local, including parameters).
    pub variable: String,
    /// Analysis condition name (see [`Condition::name`]).
    pub condition: String,
    /// Size of the variable's dependency set at function exit.
    pub size: usize,
    /// Whether the analysis of this function crossed a crate boundary
    /// (meaningful for the Whole-program condition, §5.4.2).
    pub hit_boundary: bool,
}

/// Aggregate metrics for one crate (one row of Table 1) plus its records.
#[derive(Debug, Clone)]
pub struct CrateMeasurements {
    /// Crate name.
    pub name: String,
    /// What the original project is.
    pub purpose: String,
    /// Lines of code of the generated crate.
    pub loc: usize,
    /// Number of analyzed (crate-local) functions.
    pub num_funcs: usize,
    /// Number of analyzed variables (under the Modular condition).
    pub num_vars: usize,
    /// Average MIR instructions per analyzed function.
    pub avg_instrs_per_func: f64,
    /// Median per-function analysis time in microseconds (Modular, direct
    /// per-function `analyze` — the paper's §5.1 metric).
    pub median_analysis_micros: f64,
    /// All per-variable records, across conditions. Served from the
    /// engine snapshots — bit-identical to the direct path on this corpus
    /// (pinned by `engine_served_records_match_direct_analysis`); note the
    /// engine is *strictly more precise* than direct `analyze` on call
    /// chains deeper than `AnalysisParams::max_recursion_depth`, so a
    /// future corpus profile exceeding that depth would shift these
    /// records relative to the paper's direct-analysis definition (see the
    /// flowistry-engine crate docs).
    pub records: Vec<VariableRecord>,
}

/// Runs the analysis of every crate-local function of `krate` under each of
/// `conditions` and collects the per-variable records.
///
/// The records are served from one engine snapshot per condition; a direct
/// per-function `analyze` under the Modular condition is timed for
/// [`CrateMeasurements::median_analysis_micros`].
pub fn measure_crate(krate: &GeneratedCrate, conditions: &[Condition]) -> CrateMeasurements {
    let program = Arc::new(krate.program.clone());
    let available = krate.available_bodies();
    let mut records = Vec::new();
    let mut total_instrs = 0usize;
    for &func in &krate.crate_funcs {
        total_instrs += program.body(func).instruction_count();
    }

    // One snapshot per condition serves every per-function measurement.
    for &condition in conditions {
        let params = AnalysisParams {
            condition,
            available_bodies: Some(available.clone()),
            ..AnalysisParams::default()
        };
        let mut engine =
            AnalysisEngine::new(program.clone(), EngineConfig::default().with_params(params));
        engine.analyze_all();
        let snapshot = engine.snapshot();
        for &func in &krate.crate_funcs {
            let results = snapshot.results(func);
            let body = program.body(func);
            for (local, deps) in results.user_variable_deps(body) {
                let name = body
                    .local_decl(local)
                    .name
                    .clone()
                    .unwrap_or_else(|| local.to_string());
                records.push(VariableRecord {
                    krate: krate.name.clone(),
                    function: body.name.clone(),
                    variable: name,
                    condition: condition.name(),
                    size: deps.len(),
                    hit_boundary: results.hit_boundary(),
                });
            }
        }
    }

    // The paper's §5.1 metric: a from-scratch Modular analyze() per
    // function.
    let params = AnalysisParams {
        available_bodies: Some(available),
        ..AnalysisParams::for_condition(Condition::MODULAR)
    };
    let mut modular_times: Vec<f64> = krate
        .crate_funcs
        .iter()
        .map(|&func| {
            let start = Instant::now();
            let results = analyze(&program, func, &params);
            let elapsed = start.elapsed();
            std::hint::black_box(&results);
            elapsed.as_secs_f64() * 1e6
        })
        .collect();

    let num_vars = records
        .iter()
        .filter(|r| r.condition == Condition::MODULAR.name())
        .count();
    modular_times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let median_analysis_micros = percentile(&modular_times, 0.5);

    let profile = flowistry_corpus::paper_profiles()
        .into_iter()
        .find(|p| p.name == krate.name);

    CrateMeasurements {
        name: krate.name.clone(),
        purpose: profile.map(|p| p.purpose).unwrap_or_default(),
        loc: krate.loc(),
        num_funcs: krate.crate_funcs.len(),
        num_vars,
        avg_instrs_per_func: total_instrs as f64 / krate.crate_funcs.len().max(1) as f64,
        median_analysis_micros,
        records,
    }
}

/// Measures the whole corpus generated from `seed`, under `conditions`.
pub fn measure_corpus(seed: u64, conditions: &[Condition]) -> Vec<CrateMeasurements> {
    measure_corpus_limited(seed, conditions, usize::MAX)
}

/// [`measure_corpus`] restricted to the first `max_crates` corpus crates —
/// the CI smoke path (`evaluate all --smoke`).
pub fn measure_corpus_limited(
    seed: u64,
    conditions: &[Condition],
    max_crates: usize,
) -> Vec<CrateMeasurements> {
    flowistry_corpus::generate_corpus(seed)
        .iter()
        .take(max_crates)
        .map(|k| measure_crate(k, conditions))
        .collect()
}

/// The `q`-th percentile (0.0..=1.0) of an already-sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_corpus::{generate_crate, paper_profiles, DEFAULT_SEED};

    #[test]
    fn measuring_a_small_crate_produces_records_for_all_conditions() {
        let profile = &paper_profiles()[0];
        let krate = generate_crate(profile, DEFAULT_SEED);
        let conditions = Condition::headline_four();
        let m = measure_crate(&krate, &conditions);
        assert_eq!(m.name, profile.name);
        assert!(m.num_funcs > 0);
        assert!(m.num_vars > 0);
        assert!(m.avg_instrs_per_func > 1.0);
        // Every condition appears in the records.
        for c in &conditions {
            assert!(
                m.records.iter().any(|r| r.condition == c.name()),
                "missing condition {c}"
            );
        }
        // The number of records is (#vars) * (#conditions).
        assert_eq!(m.records.len(), m.num_vars * conditions.len());
        assert!(m.median_analysis_micros > 0.0);
    }

    #[test]
    fn engine_served_records_match_direct_analysis() {
        // The sweep serves records from snapshots; this pins them against
        // the per-function analyze() path they replaced.
        let profile = &paper_profiles()[0];
        let krate = generate_crate(profile, DEFAULT_SEED);
        let m = measure_crate(&krate, &[Condition::WHOLE_PROGRAM]);
        let params = AnalysisParams {
            condition: Condition::WHOLE_PROGRAM,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        for &func in &krate.crate_funcs {
            let body = krate.program.body(func);
            let direct = analyze(&krate.program, func, &params);
            for (local, deps) in direct.user_variable_deps(body) {
                let name = body
                    .local_decl(local)
                    .name
                    .clone()
                    .unwrap_or_else(|| local.to_string());
                let record = m
                    .records
                    .iter()
                    .find(|r| r.function == body.name && r.variable == name)
                    .unwrap_or_else(|| panic!("no record for {}::{name}", body.name));
                assert_eq!(record.size, deps.len(), "{}::{name}", body.name);
                assert_eq!(record.hit_boundary, direct.hit_boundary());
            }
        }
    }

    #[test]
    fn modular_never_beats_mut_blind_in_precision() {
        let profile = &paper_profiles()[0];
        let krate = generate_crate(profile, DEFAULT_SEED);
        let m = measure_crate(&krate, &[Condition::MODULAR, Condition::MUT_BLIND]);
        // Pair up records and check modular <= mut-blind sizes.
        for r in m
            .records
            .iter()
            .filter(|r| r.condition == Condition::MODULAR.name())
        {
            let other = m
                .records
                .iter()
                .find(|o| {
                    o.condition == Condition::MUT_BLIND.name()
                        && o.function == r.function
                        && o.variable == r.variable
                })
                .expect("matching record");
            assert!(
                r.size <= other.size,
                "{}::{} modular={} mut-blind={}",
                r.function,
                r.variable,
                r.size,
                other.size
            );
        }
    }

    #[test]
    fn percentile_of_sorted_data() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
