//! Ablation benchmarks for two design choices of the analysis: field
//! sensitivity (place granularity) and control-dependence handling,
//! measured as their cost on representative functions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowistry_core::{analyze, AnalysisParams};
use flowistry_lang::compile;

/// Field-heavy workload: many disjoint field writes. Field sensitivity keeps
/// dependency sets small; the benchmark tracks what that precision costs.
const FIELD_HEAVY: &str = "
fn f(a: i32, b: i32, c: i32) -> i32 {
    let mut t = ((a, b), (c, 0));
    t.0.0 = a + 1;
    t.0.1 = b + 2;
    t.1.0 = c + 3;
    t.1.1 = t.0.0 + t.1.0;
    return t.1.1;
}";

/// Branch-heavy workload: every assignment is control-dependent on several
/// switches, exercising the post-dominator/control-dependence machinery.
const BRANCH_HEAVY: &str = "
fn f(a: i32, b: i32, c: i32) -> i32 {
    let mut out = 0;
    if a > 0 { if b > 0 { out = a; } else { out = b; } } else { out = c; }
    if c > 2 { out = out + 1; }
    if b == a { out = out * 2; } else { if a < c { out = out - 1; } }
    return out;
}";

/// Alias-heavy workload: reborrow chains which the loan-set machinery must
/// resolve at every mutation.
const ALIAS_HEAVY: &str = "
fn f(a: i32) -> i32 {
    let mut x = (0, (0, 0));
    let r1 = &mut x;
    let r2 = &mut (*r1).1;
    let r3 = &mut (*r2).0;
    *r3 = a;
    let s1 = &mut x.0;
    *s1 = a + 1;
    return x.0 + x.1.0;
}";

fn bench_ablations(c: &mut Criterion) {
    let cases = [
        ("field_sensitivity", FIELD_HEAVY),
        ("control_deps", BRANCH_HEAVY),
        ("alias_resolution", ALIAS_HEAVY),
    ];
    let mut group = c.benchmark_group("ablations");
    for (name, src) in cases {
        let program = compile(src).expect("ablation program compiles");
        let func = program.func_id("f").expect("f exists");
        group.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, program| {
            b.iter(|| analyze(program, func, &AnalysisParams::default()).iterations())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
