//! The lint/effect soundness experiment: runs every lint pass over the
//! labeled corpus (plus a small fixture set that exercises the passes the
//! generated corpus cannot reach) and cross-examines the results against
//! the interpreter.
//!
//! Three soundness claims are tested:
//!
//! 1. **Effect read over-approximation.** For every parameter *not* in a
//!    function's inferred read set, varying that parameter alone must not
//!    change anything observable — the return value, the full call trace,
//!    or the final referents of reference parameters.
//! 2. **Effect write over-approximation.** A reference parameter *not* in
//!    the inferred write set must come back with its referent unchanged on
//!    every execution. Unique-reference parameters in this situation are
//!    exactly the unused-`&mut` findings, so an observed write here is also
//!    a lint false positive.
//! 3. **Dead-store truth.** For every dead-store finding, the flagged
//!    `Assign` is rewritten to two different constants in a cloned program;
//!    if either mutant changes an observable, the store was used and the
//!    finding is a false positive.
//!
//! Any violation is recorded verbatim; the `evaluate lints` subcommand
//! exits nonzero if any list is nonempty.

use crate::json::{Json, ToJson};
use flowistry_core::{analyze, AnalysisParams, Condition, FunctionSummary};
use flowistry_corpus::generate_labeled_corpus;
use flowistry_interp::{input_tys, random_value, Interpreter, Outcome, Rng, Value};
use flowistry_lang::mir::{ConstValue, Local, Operand, Rvalue, StatementKind};
use flowistry_lang::types::{FuncId, Ty};
use flowistry_lang::{CallGraph, CompiledProgram};
use flowistry_lint::{LintFinding, LintPass, Linter};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Results of one lint evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LintEvalReport {
    /// Corpus generation seed.
    pub seed: u64,
    /// Programs linted (labeled corpus plus fixtures).
    pub programs: usize,
    /// Functions linted across all programs.
    pub functions_linted: usize,
    /// Total findings across all passes.
    pub findings_total: usize,
    /// Findings per pass, in reporting order (every pass listed).
    pub per_pass: Vec<(String, usize)>,
    /// Findings per corpus profile (fixtures under `"fixtures"`).
    pub per_profile: Vec<(String, usize)>,
    /// Wall time spent analyzing, linting, and inferring effects.
    pub lint_wall_millis: f64,
    /// `(function, parameter)` variations checked by the read oracle.
    pub effect_reads_checked: usize,
    /// Reference-parameter executions checked by the write oracle.
    pub effect_writes_checked: usize,
    /// Constant-mutation runs probing dead-store findings.
    pub dead_store_probes: usize,
    /// Executions probing unused-`&mut` findings.
    pub unused_mut_probes: usize,
    /// Inferred effect sets the interpreter proved too small (must be
    /// empty).
    pub effect_underapprox: Vec<String>,
    /// Dead-store findings whose store the interpreter observed used (must
    /// be empty).
    pub dead_store_false_positives: Vec<String>,
    /// Unused-`&mut` findings whose parameter the interpreter observed
    /// written (must be empty).
    pub unused_mut_false_positives: Vec<String>,
}

impl LintEvalReport {
    /// Whether every soundness oracle came back clean.
    pub fn is_clean(&self) -> bool {
        self.effect_underapprox.is_empty()
            && self.dead_store_false_positives.is_empty()
            && self.unused_mut_false_positives.is_empty()
    }
}

/// Handwritten programs covering what the scalar labeled corpus cannot:
/// unique-reference parameters (written, read-only, and conditional),
/// clear-cut dead stores, and declared `#[effect]` contracts.
const FIXTURES: &[(&str, &str)] = &[
    (
        "fixture_mut",
        "fn set(p: &mut i32, x: i32) { *p = x; }
         fn crop(img: &mut i32, scale: i32) -> i32 { return *img + scale; }
         fn guard(a: &mut i32, b: &mut i32, c: bool) { if c { *a = *b + 1; } }",
    ),
    (
        "fixture_dead",
        "fn f(x: i32, y: i32) -> i32 { let dead = x * 2; let live = y + 1; return live; }
         fn g(c: bool, x: i32) -> i32 { let mut v = 1; if c { v = 2; } let stray = x; return v; }",
    ),
    (
        "fixture_effects",
        "#[effect(pure)]
         fn add(x: i32, y: i32) -> i32 { return x + y; }
         #[effect(reads(x), writes(p))]
         fn store(p: &mut i32, x: i32) { *p = x; }
         #[effect(reads(x))]
         fn wide(x: i32, y: i32) -> i32 { return x + y; }
         fn mix(x: i32) -> i32 { return x + 1; }
         fn relabel(x: i32) -> i32 { #[declassify] let y = mix(x); return y; }
         fn insecure_log(x: i32) -> i32 { return x; }
         fn audit(flag: bool, v: i32) -> i32 { if flag { insecure_log(v); } return 0; }",
    ),
];

/// What an execution observably did: return value, every call (callee and
/// argument values, transitively), and the final referents of reference
/// parameters. Two runs that agree here are indistinguishable to the
/// caller and to every callee.
fn observables(o: &Outcome) -> (&Value, &[flowistry_interp::CallEvent], &[Option<Value>]) {
    (&o.return_value, &o.calls, &o.environment.locals)
}

/// Runs the lint evaluation over `programs` labeled programs (plus the
/// fixtures) with `trials` interpreter executions per function.
pub fn measure_lints(seed: u64, programs: usize, trials: usize) -> LintEvalReport {
    let mut measured: Vec<(String, String, CompiledProgram)> =
        generate_labeled_corpus(seed, programs)
            .into_iter()
            .map(|p| {
                let profile = p
                    .name
                    .rsplit_once('_')
                    .map(|(prefix, _)| prefix.to_string())
                    .unwrap_or_else(|| p.name.clone());
                (profile, p.name, p.program)
            })
            .collect();
    for (name, source) in FIXTURES {
        let program = flowistry_lang::compile(source)
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to compile: {e:?}"));
        measured.push(("fixtures".to_string(), name.to_string(), program));
    }

    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let mut rng = Rng::new(seed ^ 0x11A7);
    let mut report = LintEvalReport {
        seed,
        programs: measured.len(),
        functions_linted: 0,
        findings_total: 0,
        per_pass: LintPass::ALL
            .iter()
            .map(|p| (p.name().to_string(), 0))
            .collect(),
        per_profile: Vec::new(),
        lint_wall_millis: 0.0,
        effect_reads_checked: 0,
        effect_writes_checked: 0,
        dead_store_probes: 0,
        unused_mut_probes: 0,
        effect_underapprox: Vec::new(),
        dead_store_false_positives: Vec::new(),
        unused_mut_false_positives: Vec::new(),
    };

    for (profile, name, program) in &measured {
        let graph = CallGraph::extract(program);
        let linter = Linter::with_call_graph(program, &graph);
        let interp = Interpreter::new(program);
        let mut profile_findings = 0usize;

        for i in 0..program.bodies.len() {
            let func = FuncId(i as u32);
            report.functions_linted += 1;

            let start = Instant::now();
            let results = analyze(program, func, &params);
            let summary = FunctionSummary::from_results(program.body(func), &results);
            let findings = linter.lint_function(func, &summary, &results);
            let effect = linter.infer_effect(func, &summary, &results);
            report.lint_wall_millis += start.elapsed().as_secs_f64() * 1e3;

            report.findings_total += findings.len();
            profile_findings += findings.len();
            for f in &findings {
                if let Some(entry) = report
                    .per_pass
                    .iter_mut()
                    .find(|(pass, _)| pass == f.pass.name())
                {
                    entry.1 += 1;
                }
            }

            let sig = program.signature(func);
            let Some(effective) = input_tys(&sig.inputs) else {
                continue;
            };
            let context = format!("{name}::{}", sig.name);

            for _ in 0..trials {
                let Some(base) = effective
                    .iter()
                    .map(|ty| random_value(ty, &program.structs, &mut rng))
                    .collect::<Option<Vec<Value>>>()
                else {
                    continue;
                };
                let Ok(run) = interp.run_with_env(func, base.clone()) else {
                    continue;
                };

                check_reads(
                    &interp,
                    program,
                    func,
                    &effect.reads,
                    &base,
                    &run,
                    &context,
                    &mut rng,
                    &mut report,
                );
                check_writes(sig, &effect.writes, &base, &run, &context, &mut report);
                probe_dead_stores(program, func, &findings, &base, &run, &context, &mut report);
            }
        }

        match report.per_profile.iter_mut().find(|(p, _)| p == profile) {
            Some(entry) => entry.1 += profile_findings,
            None => report.per_profile.push((profile.clone(), profile_findings)),
        }
    }

    report
}

/// Read oracle: vary each by-value parameter outside the inferred read set
/// and require every observable unchanged.
#[allow(clippy::too_many_arguments)]
fn check_reads(
    interp: &Interpreter<'_>,
    program: &CompiledProgram,
    func: FuncId,
    reads: &BTreeSet<Local>,
    base: &[Value],
    run: &Outcome,
    context: &str,
    rng: &mut Rng,
    report: &mut LintEvalReport,
) {
    for (i, ty) in program.signature(func).inputs.iter().enumerate() {
        if matches!(ty, Ty::Ref(..)) || reads.contains(&Local(i as u32 + 1)) {
            continue;
        }
        let mut varied = base.to_vec();
        varied[i] = match &base[i] {
            Value::Bool(b) => Value::Bool(!b),
            Value::Int(old) => Value::Int(rng.other_small_int(*old)),
            _ => random_value(ty, &program.structs, rng)
                .expect("input_tys admits only reference-free parameters"),
        };
        let Ok(other) = interp.run_with_env(func, varied.clone()) else {
            continue;
        };
        report.effect_reads_checked += 1;
        if observables(run) != observables(&other) {
            report.effect_underapprox.push(format!(
                "{context}: parameter {i} is outside the inferred read set \
                 {reads:?} but changing it altered an observable \
                 ({base:?} -> {varied:?})"
            ));
        }
    }
}

/// Write oracle: a reference parameter outside the inferred write set must
/// come back with its referent untouched. Unique references here are the
/// unused-`&mut` findings, so violations double as lint false positives.
fn check_writes(
    sig: &flowistry_lang::types::FnSig,
    writes: &BTreeSet<Local>,
    base: &[Value],
    run: &Outcome,
    context: &str,
    report: &mut LintEvalReport,
) {
    for (i, ty) in sig.inputs.iter().enumerate() {
        let Ty::Ref(_, mutability, _) = ty else {
            continue;
        };
        if writes.contains(&Local(i as u32 + 1)) {
            continue;
        }
        let unique = mutability.is_mut();
        report.effect_writes_checked += 1;
        if unique {
            report.unused_mut_probes += 1;
        }
        if run.environment.locals[i].as_ref() != Some(&base[i]) {
            let observed = format!(
                "{context}: parameter {i} is outside the inferred write set \
                 {writes:?} but its referent changed from {:?} to {:?}",
                base[i], run.environment.locals[i]
            );
            if unique {
                report.unused_mut_false_positives.push(observed);
            } else {
                report.effect_underapprox.push(observed);
            }
        }
    }
}

/// Dead-store oracle: rewrite the flagged store to two different constants
/// and require both mutants observationally identical to the original run.
fn probe_dead_stores(
    program: &CompiledProgram,
    func: FuncId,
    findings: &[LintFinding],
    base: &[Value],
    run: &Outcome,
    context: &str,
    report: &mut LintEvalReport,
) {
    for finding in findings.iter().filter(|f| f.pass == LintPass::DeadStore) {
        let Some(step) = finding.witness.first() else {
            continue;
        };
        let loc = step.location;
        let body = program.body(func);
        let stmt = &body.block(loc.block).statements[loc.statement_index];
        let StatementKind::Assign(place, _) = &stmt.kind else {
            continue;
        };
        if !place.projection.is_empty() {
            continue;
        }
        let constants: [ConstValue; 2] = match body.local_decl(place.local).ty {
            Ty::Int => [ConstValue::Int(8191), ConstValue::Int(-8191)],
            Ty::Bool => [ConstValue::Bool(true), ConstValue::Bool(false)],
            _ => continue,
        };
        for constant in constants {
            let mut mutant = program.clone();
            mutant.bodies[func.0 as usize].basic_blocks[loc.block.index()].statements
                [loc.statement_index]
                .kind =
                StatementKind::Assign(place.clone(), Rvalue::Use(Operand::Constant(constant)));
            let Ok(other) = Interpreter::new(&mutant).run_with_env(func, base.to_vec()) else {
                continue;
            };
            report.dead_store_probes += 1;
            if observables(run) != observables(&other) {
                report.dead_store_false_positives.push(format!(
                    "{context}: store flagged dead at line {} but rewriting \
                     it to {constant} changed an observable on inputs {base:?}",
                    finding.line
                ));
            }
        }
    }
}

/// Renders the report as the section the `evaluate` binary prints.
pub fn render_lints(report: &LintEvalReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Lint & effect soundness (all passes vs the interpreter)"
    );
    let _ = writeln!(
        out,
        "  {} programs, {} functions linted, {} findings in {:.1} ms",
        report.programs, report.functions_linted, report.findings_total, report.lint_wall_millis
    );
    let passes = report
        .per_pass
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  per pass: {passes}");
    let profiles = report
        .per_profile
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  per profile: {profiles}");
    let _ = writeln!(
        out,
        "  effect oracle: {} read variations, {} write checks, {} under-approximations",
        report.effect_reads_checked,
        report.effect_writes_checked,
        report.effect_underapprox.len()
    );
    let _ = writeln!(
        out,
        "  lint oracle: {} dead-store probes, {} unused-mut probes, {} false positives",
        report.dead_store_probes,
        report.unused_mut_probes,
        report.dead_store_false_positives.len() + report.unused_mut_false_positives.len()
    );
    for m in report
        .effect_underapprox
        .iter()
        .chain(&report.dead_store_false_positives)
        .chain(&report.unused_mut_false_positives)
    {
        let _ = writeln!(out, "  UNSOUND {m}");
    }
    out
}

impl ToJson for LintEvalReport {
    fn to_json(&self) -> Json {
        let counts = |pairs: &[(String, usize)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        let strings =
            |items: &[String]| Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            ("programs".into(), Json::Num(self.programs as f64)),
            (
                "functions_linted".into(),
                Json::Num(self.functions_linted as f64),
            ),
            (
                "findings_total".into(),
                Json::Num(self.findings_total as f64),
            ),
            ("per_pass".into(), counts(&self.per_pass)),
            ("per_profile".into(), counts(&self.per_profile)),
            ("lint_wall_millis".into(), Json::Num(self.lint_wall_millis)),
            (
                "effect_reads_checked".into(),
                Json::Num(self.effect_reads_checked as f64),
            ),
            (
                "effect_writes_checked".into(),
                Json::Num(self.effect_writes_checked as f64),
            ),
            (
                "dead_store_probes".into(),
                Json::Num(self.dead_store_probes as f64),
            ),
            (
                "unused_mut_probes".into(),
                Json::Num(self.unused_mut_probes as f64),
            ),
            (
                "effect_underapprox".into(),
                strings(&self.effect_underapprox),
            ),
            (
                "dead_store_false_positives".into(),
                strings(&self.dead_store_false_positives),
            ),
            (
                "unused_mut_false_positives".into(),
                strings(&self.unused_mut_false_positives),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_lint_eval_is_clean_and_non_vacuous() {
        let report = measure_lints(flowistry_corpus::DEFAULT_SEED, 12, 2);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.programs, 12 + FIXTURES.len());
        assert!(report.findings_total > 0);
        // Every oracle actually fired.
        assert!(report.effect_reads_checked > 0, "{report:?}");
        assert!(report.effect_writes_checked > 0, "{report:?}");
        assert!(report.dead_store_probes > 0, "{report:?}");
        assert!(report.unused_mut_probes > 0, "{report:?}");
        // The acceptance bar: findings on at least two corpus profiles.
        let nonzero = report.per_profile.iter().filter(|(_, n)| *n > 0).count();
        assert!(nonzero >= 2, "{:?}", report.per_profile);
    }

    #[test]
    fn fixtures_produce_the_passes_the_corpus_cannot() {
        let report = measure_lints(flowistry_corpus::DEFAULT_SEED, 3, 1);
        let count = |pass: LintPass| {
            report
                .per_pass
                .iter()
                .find(|(name, _)| name == pass.name())
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        for pass in [
            LintPass::DeadStore,
            LintPass::UnusedMut,
            LintPass::RedundantDeclassify,
            LintPass::EffectMismatch,
        ] {
            assert!(count(pass) > 0, "{pass:?} empty: {:?}", report.per_pass);
        }
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = measure_lints(7, 3, 1);
        let text = render_lints(&report);
        assert!(text.contains("effect oracle"));
        assert!(text.contains("dead-store probes"));
        let json = report.to_json().pretty();
        assert!(json.contains("\"per_pass\""));
        assert!(json.contains("\"dead_store_false_positives\""));
    }
}
