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
//!    legitimately varies with high inputs. This runs the evaluation's
//!    experiment, [`measure_ifc_differential`], the one `evaluate ifc`
//!    reports.
//!
//! 2. **Annotations and conventions agree.** On the labeled corpus the
//!    source annotations and the naming conventions express the same
//!    two-point policy.
//!
//! The verdicts of [`Policy::from_conventions`] are pinned to a hash of
//! every reported violation, so any change to the convention policy or the
//! two-point checker shows up as a hash mismatch. Every finding,
//! diagnostic and witness is the same whether the checker and the linter
//! read tree-domain or indexed results. And the linter's
//! secret-to-debug-sink findings are exactly the checker's diagnostics at
//! bottom-clearance sinks.

use flowistry::core::{analyze, AnalysisParams, Condition, DomainKind, FunctionSummary};
use flowistry::corpus::labeled::DIFFERENTIAL_PROGRAMS;
use flowistry::corpus::{differential_corpus, generate_corpus, LabeledProgram, DEFAULT_SEED};
use flowistry::eval::measure_ifc_differential;
use flowistry::ifc::{Policy, PolicyChecker};
use flowistry::lang::types::FuncId;
use flowistry::lang::StableHasher;
use flowistry::lint::Linter;
use std::collections::BTreeSet;

fn whole_program() -> AnalysisParams {
    AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
}

/// Property 1, through the evaluation's own experiment: every mismatch it
/// records (observed interference, or a policy that could not be built)
/// fails the test.
#[test]
fn analysis_secure_drivers_show_no_interference() {
    let report = measure_ifc_differential(DEFAULT_SEED, DIFFERENTIAL_PROGRAMS, 4);
    assert!(
        report.programs >= 200,
        "differential corpus must span at least 200 programs"
    );
    assert!(
        report.is_clean(),
        "interference in analysis-secure drivers:\n{}",
        report.interference_mismatches.join("\n")
    );
    assert!(
        report.secure_drivers >= 50,
        "oracle is vacuous: only {} analysis-secure drivers",
        report.secure_drivers
    );
    assert!(
        report.executions_compared >= 100,
        "oracle is vacuous: only {} executions compared",
        report.executions_compared
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

/// The lint's secret-to-debug-sink findings are the policy checker's
/// diagnostics at bottom-clearance sinks, under each composed policy (the
/// annotations and the naming conventions), compared as
/// `(function, sink line)` sets.
#[test]
fn secret_sink_findings_are_the_checkers_bottom_clearance_diagnostics() {
    let params = whole_program();
    let mut compared = 0usize;
    for p in differential_corpus() {
        let program = &p.program;
        let linter = Linter::new(program);
        let checkers = [
            Policy::from_annotations(program).unwrap(),
            Policy::from_conventions(program),
        ]
        .map(|policy| PolicyChecker::new(program, policy).unwrap());
        for i in 0..program.bodies.len() {
            let func = FuncId(i as u32);
            let results = analyze(program, func, &params);
            let lint: BTreeSet<(String, usize)> = linter
                .secret_to_debug_sinks(func, &results)
                .into_iter()
                .map(|f| (f.function, f.line))
                .collect();
            let mut checked = BTreeSet::new();
            for checker in &checkers {
                let bottom = checker.lattice().name(checker.lattice().bottom());
                for d in checker.check_with_results(func, &results).diagnostics {
                    if d.clearance == bottom {
                        checked.insert((d.in_function, d.line));
                    }
                }
            }
            assert_eq!(lint, checked, "{}::{}", p.name, program.body(func).name);
            compared += lint.len();
        }
    }
    assert!(compared > 0, "vacuous: no secret-to-debug-sink findings");
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
