//! Interpreter-differential testing of the IFC policy checker.
//!
//! Two properties over the generated labeled corpus
//! ([`flowistry::corpus::labeled`]), plus pinned convention verdicts:
//!
//! 1. **No missed interference.** For every driver the policy checker
//!    reports *secure*, varying its high inputs (secret-source seeds and
//!    `#[label(Secret)]` parameters) must not change anything a sink
//!    observes — checked by running the interpreter on input pairs that
//!    differ only in the high inputs and comparing the sink call traces.
//!    Drivers containing `#[declassify]` are excluded: released data
//!    legitimately varies with high inputs.
//!
//! 2. **Annotations and conventions agree.** On the labeled corpus the
//!    source annotations and the naming conventions express the same
//!    two-point policy.
//!
//! The verdicts of [`Policy::from_conventions`] are pinned to a hash of
//! every reported violation, so any change to the convention policy or the
//! two-point checker shows up as a hash mismatch. And every finding,
//! diagnostic and witness is the same whether the checker and the linter
//! read tree-domain or indexed results.

use flowistry::core::{analyze, AnalysisParams, Condition, DomainKind, FunctionSummary};
use flowistry::corpus::{differential_corpus, generate_corpus, LabeledProgram, DEFAULT_SEED};
use flowistry::ifc::{Policy, PolicyChecker};
use flowistry::interp::{CallEvent, Interpreter, Rng, Value};
use flowistry::lang::types::FuncId;
use flowistry::lang::StableHasher;
use flowistry::lint::Linter;

const TRIALS_PER_DRIVER: usize = 4;

fn whole_program() -> AnalysisParams {
    AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
}

/// The sink-visible behavior of one execution: every call to a sink
/// function, in order, with its argument values.
fn sink_trace(calls: &[CallEvent], sinks: &[String]) -> Vec<(String, Vec<Value>)> {
    calls
        .iter()
        .filter(|c| sinks.contains(&c.callee))
        .map(|c| (c.callee.clone(), c.args.clone()))
        .collect()
}

#[test]
fn analysis_secure_drivers_show_no_interference() {
    let corpus = differential_corpus();
    assert!(
        corpus.len() >= 200,
        "differential corpus must span at least 200 programs"
    );

    let mut rng = Rng::new(0xD1FF);
    let mut clean_drivers = 0usize;
    let mut compared = 0usize;

    for p in &corpus {
        let policy = Policy::from_annotations(&p.program)
            .unwrap_or_else(|e| panic!("{}: bad annotations: {e}", p.name));
        let checker = PolicyChecker::new(&p.program, policy)
            .unwrap_or_else(|e| panic!("{}: bad policy: {e}", p.name))
            .with_params(whole_program());
        let interp = Interpreter::new(&p.program);

        for d in &p.drivers {
            let report = checker
                .check_function(&d.name)
                .expect("driver exists by construction");
            if !report.is_clean() || d.declassifies {
                continue;
            }
            clean_drivers += 1;
            let func = p.program.func_id(&d.name).expect("driver exists");

            for _ in 0..TRIALS_PER_DRIVER {
                let base: Vec<Value> = (0..d.num_params)
                    .map(|_| Value::Int(rng.small_int()))
                    .collect();
                let mut varied = base.clone();
                for &i in &d.high_inputs {
                    let Value::Int(old) = base[i] else {
                        unreachable!()
                    };
                    let mut next = rng.small_int();
                    if next == old {
                        next += 1;
                    }
                    varied[i] = Value::Int(next);
                }
                let (Ok(a), Ok(b)) = (
                    interp.run_with_env(func, base.clone()),
                    interp.run_with_env(func, varied.clone()),
                ) else {
                    continue; // runtime error (fuel, arithmetic): trial is inconclusive
                };
                compared += 1;
                let ta = sink_trace(&a.calls, &p.sink_names);
                let tb = sink_trace(&b.calls, &p.sink_names);
                assert_eq!(
                    ta, tb,
                    "interference in analysis-secure driver {}::{} \
                     (base {base:?}, varied {varied:?}):\n{}",
                    p.name, d.name, p.source
                );
            }
        }
    }

    assert!(
        clean_drivers >= 50,
        "oracle is vacuous: only {clean_drivers} analysis-secure drivers"
    );
    assert!(
        compared >= 100,
        "oracle is vacuous: only {compared} executions compared"
    );
}

/// The policy checker and every lint pass report the same findings,
/// diagnostics and witness steps on tree-domain results as on indexed
/// results, for every function of the labeled corpus.
#[test]
fn findings_are_identical_on_both_domains() {
    let (mut reports, mut findings) = (0usize, 0usize);
    for p in differential_corpus() {
        let program = &p.program;
        let checker = PolicyChecker::new(program, Policy::from_annotations(program).unwrap())
            .unwrap_or_else(|e| panic!("{}: bad policy: {e}", p.name));
        let linter = Linter::new(program);
        for i in 0..program.bodies.len() {
            let func = FuncId(i as u32);
            let body = program.body(func);
            let [tree, indexed] = [DomainKind::Tree, DomainKind::Indexed].map(|domain| {
                let params = AnalysisParams {
                    domain,
                    ..whole_program()
                };
                let results = analyze(program, func, &params);
                let summary = FunctionSummary::from_results(body, &results);
                let report = checker.check_with_results(func, &results);
                let lints = linter.lint_function(func, &summary, &results);
                let effect = linter.infer_effect(func, &summary, &results);
                (summary, report, lints, effect)
            });
            let at = || format!("{}::{}", p.name, body.name);
            assert_eq!(tree.0, indexed.0, "summary of {}", at());
            assert_eq!(tree.1, indexed.1, "policy report of {}", at());
            assert_eq!(tree.2, indexed.2, "lint findings of {}", at());
            assert_eq!(tree.3, indexed.3, "effect of {}", at());
            reports += tree.1.diagnostics.len();
            findings += tree.2.len();
        }
    }
    assert!(
        reports > 0 && findings > 0,
        "vacuous: {reports} diagnostics, {findings} findings"
    );
}

#[test]
fn annotations_and_conventions_express_the_same_policy() {
    for p in differential_corpus() {
        // The representations differ in one spot — the conventions record a
        // sensitively-named parameter as a secret *local* (parameters are
        // named locals), annotations as a *param* label — so compare the
        // merged variable pool.
        let from_ann = Policy::from_annotations(&p.program).unwrap();
        let from_conv = Policy::from_conventions(&p.program);
        let var_labels = |pol: &Policy| {
            let mut all: Vec<_> = pol
                .param_labels
                .iter()
                .chain(&pol.local_labels)
                .cloned()
                .collect();
            all.sort();
            all
        };
        assert_eq!(
            var_labels(&from_ann),
            var_labels(&from_conv),
            "{}: variable labels diverge",
            p.name
        );
        let sorted = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        assert_eq!(
            sorted(from_ann.fn_labels),
            sorted(from_conv.fn_labels),
            "{}: function labels diverge",
            p.name
        );
        assert_eq!(
            sorted(from_ann.sink_clearances),
            sorted(from_conv.sink_clearances),
            "{}: sink clearances diverge",
            p.name
        );
    }
}

/// Pins the convention policy's verdicts on the labeled corpus under the
/// whole-program condition: a stable hash over every reported
/// `(function, sink_calls_checked, sink, location, line, sources)` tuple,
/// plus the function, sink-call and violation counts. Functions with
/// `#[declassify]` points are skipped, since the constants predate
/// declassification-aware convention checks. The constants were produced by
/// the two-point convention checker that preceded `PolicyChecker`, so they
/// also pin the verdicts to that checker's.
#[test]
fn convention_verdicts_are_pinned() {
    let params = whole_program();
    let mut hasher = StableHasher::new();
    let (mut functions, mut sink_calls, mut violations) = (0usize, 0usize, 0usize);
    for p in differential_corpus() {
        let program = &p.program;
        let checker = PolicyChecker::new(program, Policy::from_conventions(program))
            .unwrap_or_else(|e| panic!("{}: convention policy invalid: {e}", p.name))
            .with_params(params.clone());
        for (i, body) in program.bodies.iter().enumerate() {
            if !body.declassified_calls.is_empty() {
                continue;
            }
            let func = FuncId(i as u32);
            let report = checker.check_with_results(func, &analyze(program, func, &params));
            functions += 1;
            sink_calls += report.sink_calls_checked;
            for d in &report.diagnostics {
                violations += 1;
                hasher.write_str(&report.function);
                hasher.write_usize(report.sink_calls_checked);
                hasher.write_str(&d.sink);
                hasher.write_u32(d.location.block.0);
                hasher.write_usize(d.location.statement_index);
                hasher.write_usize(d.line);
                hasher.write_usize(d.sources.len());
                for source in &d.sources {
                    hasher.write_str(source);
                }
            }
        }
    }
    assert_eq!(
        (functions, sink_calls, violations),
        (2482, 826, 317),
        "function, sink-call and violation counts moved"
    );
    assert_eq!(
        hasher.finish(),
        0x3a47689def88664d,
        "convention verdicts moved"
    );

    // The ten-crate evaluation corpus has no sensitive names: the
    // convention policy must stay silent on it.
    for krate in generate_corpus(DEFAULT_SEED) {
        let checker = PolicyChecker::new(&krate.program, Policy::from_conventions(&krate.program))
            .unwrap_or_else(|e| panic!("{}: convention policy invalid: {e}", krate.name));
        let reports = checker.check_program();
        assert!(reports.is_empty(), "{}: {reports:?}", krate.name);
    }
}

/// Spot check that the labeled generator produces both verdicts: a corpus
/// where every driver is insecure (or every driver secure) would leave one
/// side of the differential untested.
#[test]
fn labeled_corpus_produces_both_verdicts() {
    let corpus: Vec<LabeledProgram> = differential_corpus().into_iter().take(30).collect();
    let mut clean = 0usize;
    let mut violating = 0usize;
    for p in &corpus {
        let checker = PolicyChecker::new(&p.program, Policy::from_annotations(&p.program).unwrap())
            .unwrap()
            .with_params(whole_program());
        for d in &p.drivers {
            if checker.check_function(&d.name).unwrap().is_clean() {
                clean += 1;
            } else {
                violating += 1;
            }
        }
    }
    assert!(clean > 0, "no secure drivers in the first 30 programs");
    assert!(
        violating > 0,
        "no insecure drivers in the first 30 programs"
    );
}
