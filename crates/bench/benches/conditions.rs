//! Benchmark for experiments E2/E3 (Figures 2 and 3): running the analysis
//! of one corpus crate under each of the four headline conditions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::{generate_crate, paper_profiles, DEFAULT_SEED};

fn bench_conditions(c: &mut Criterion) {
    let profile = paper_profiles().into_iter().next().expect("ten profiles");
    let krate = generate_crate(&profile, DEFAULT_SEED);
    let funcs: Vec<_> = krate.crate_funcs.iter().copied().take(12).collect();

    let mut group = c.benchmark_group("analysis_conditions");
    group.sample_size(10);
    for condition in Condition::headline_four() {
        let params = AnalysisParams {
            condition,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(condition.name()),
            &params,
            |b, params| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &func in &funcs {
                        let results = analyze(&krate.program, func, params);
                        total += results.exit_entries().count();
                    }
                    total
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_conditions);
criterion_main!(benches);
