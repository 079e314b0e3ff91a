//! # flowistry-lint: effect inference and flow-aware lints
//!
//! The paper's core claim is that ownership makes per-function flow
//! summaries precise enough to stand in for whole-program analysis — which
//! also makes them cheap enough to power *other* static analyses for free.
//! This crate is that second consumer:
//!
//! * **Effect inference** ([`Linter::infer_effect`]): an [`EffectSignature`]
//!   per function — the parameters it may read, the parameters it may write
//!   through, and whether it can transitively reach a sink — derived from
//!   the [`FunctionSummary`] and [`InfoFlowResults`] the engine already
//!   computes, plus call-graph reachability.
//! * **Effect checking**: `#[effect(pure)]` / `#[effect(reads(..))]` /
//!   `#[effect(writes(..))]` contracts declared in the source are compared
//!   against the inferred signature; the inferred side is an
//!   over-approximation, so a clean check is a soundness guarantee, not a
//!   heuristic.
//! * **Lint passes** ([`Linter::lint_function`]): dead stores (an assigned
//!   place whose dependencies reach no return, mutation, or call), unused
//!   `&mut` parameters (the paper's Figure 5a `iter_mut` → `iter`
//!   suggestion as a lint), secret data reaching a debug sink, and
//!   redundant `#[declassify]` attributes.
//!
//! Findings are [`LintFinding`]s carrying [`WitnessStep`] flow witnesses,
//! the same evidence format the IFC policy checker produces.
//!
//! ```
//! use flowistry_core::{compute_summary_with_results, AnalysisParams};
//! use flowistry_lint::{LintPass, Linter};
//!
//! let program = flowistry_lang::compile(
//!     "fn f(p: &mut i32) -> i32 { let unused = *p + 1; return 2; }",
//! ).unwrap();
//! let linter = Linter::new(&program);
//! let func = program.func_id("f").unwrap();
//! let store = std::collections::HashMap::new();
//! let (summary, results) =
//!     compute_summary_with_results(&program, func, &AnalysisParams::default(), &store);
//! let findings = linter.lint_function(func, &summary.summary, &results);
//! assert!(findings.iter().any(|f| f.pass == LintPass::DeadStore));
//! assert!(findings.iter().any(|f| f.pass == LintPass::UnusedMut));
//! ```

#![warn(missing_docs)]

use flowistry_core::{Dep, DepSet, FunctionSummary, InfoFlowResults};
use flowistry_ifc::{line_of, witness_steps, IfcDiagnostic, Policy, PolicyChecker, WitnessStep};
use flowistry_lang::mir::{Body, Local, Location, Place, StatementKind, TerminatorKind};
use flowistry_lang::types::{FuncId, Ty};
use flowistry_lang::{CallGraph, CompiledProgram};
use std::collections::{BTreeMap, BTreeSet};

/// The inferred effect signature of one function: an over-approximation of
/// everything the function can do to (or learn from) its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSignature {
    /// The function.
    pub func: FuncId,
    /// Parameters whose initial values the function may read — i.e. may
    /// influence its return value, its caller-visible mutations, or any
    /// call it makes (including which calls happen, via control flow).
    pub reads: BTreeSet<Local>,
    /// Parameters the function may write through (unique references with a
    /// caller-visible [`flowistry_core::SummaryMutation`]).
    pub writes: BTreeSet<Local>,
    /// Whether the function can reach a sink, transitively through calls.
    pub reaches_sink: bool,
}

impl EffectSignature {
    /// Purity in the effect sense: no caller-visible mutation and no sink
    /// reachability. A pure function may still *read* its parameters.
    pub fn is_pure(&self) -> bool {
        self.writes.is_empty() && !self.reaches_sink
    }
}

/// The lint passes this crate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintPass {
    /// An assigned named place whose value reaches no return, mutation, or
    /// call.
    DeadStore,
    /// A unique-reference parameter the function provably never writes
    /// through (paper Figure 5a).
    UnusedMut,
    /// Data labeled above lattice bottom reaching a bottom-clearance
    /// ("debug") sink.
    SecretToDebugSink,
    /// A `#[declassify]` on a call whose incoming label is already bottom.
    RedundantDeclassify,
    /// A declared `#[effect(..)]` contract the inferred signature violates.
    EffectMismatch,
}

impl LintPass {
    /// Every pass, in reporting order.
    pub const ALL: [LintPass; 5] = [
        LintPass::DeadStore,
        LintPass::UnusedMut,
        LintPass::SecretToDebugSink,
        LintPass::RedundantDeclassify,
        LintPass::EffectMismatch,
    ];

    /// Stable wire/report name of the pass.
    pub fn name(self) -> &'static str {
        match self {
            LintPass::DeadStore => "dead-store",
            LintPass::UnusedMut => "unused-mut",
            LintPass::SecretToDebugSink => "secret-to-debug-sink",
            LintPass::RedundantDeclassify => "redundant-declassify",
            LintPass::EffectMismatch => "effect-mismatch",
        }
    }

    /// Inverse of [`LintPass::name`].
    pub fn parse(name: &str) -> Option<LintPass> {
        LintPass::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One lint finding, with the flow witness backing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// The pass that produced the finding.
    pub pass: LintPass,
    /// The function the finding is in.
    pub function: String,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line of the primary location.
    pub line: usize,
    /// Backward-slice evidence, in location order.
    pub witness: Vec<WitnessStep>,
}

/// The lint engine for one compiled program.
///
/// Construction builds one [`PolicyChecker`] per composed policy — the
/// annotation policy ([`Policy::from_annotations`], including
/// `#![module_policy]` composition) when it validates, and the naming
/// conventions ([`Policy::from_conventions`]) — and precomputes transitive
/// sink reachability over the call graph. The secret and declassify passes
/// ask those checkers; they never read a policy themselves. Per-function
/// entry points then only need that function's summary and flow results.
pub struct Linter<'a> {
    program: &'a CompiledProgram,
    /// The checkers of the composed policies, each over its own lattice.
    checkers: Vec<PolicyChecker<'a>>,
    /// Per function: the nearest sink reachable through the call graph
    /// (itself for sinks), or `None` when no sink is reachable.
    sink_reach: Vec<Option<FuncId>>,
}

impl<'a> Linter<'a> {
    /// Builds a linter, extracting the call graph itself.
    pub fn new(program: &'a CompiledProgram) -> Linter<'a> {
        Linter::with_call_graph(program, &CallGraph::extract(program))
    }

    /// Builds a linter reusing an already-extracted call graph (the engine
    /// keeps one per snapshot).
    pub fn with_call_graph(program: &'a CompiledProgram, graph: &CallGraph) -> Linter<'a> {
        // An annotation policy the checker rejects (unknown lattice or
        // label) drops out whole; the wire `policy` verb reports why.
        let annotated = Policy::from_annotations(program)
            .ok()
            .and_then(|policy| PolicyChecker::new(program, policy).ok());
        let conventions = PolicyChecker::new(program, Policy::from_conventions(program))
            .expect("the convention policy names only what the program declares");
        let checkers: Vec<PolicyChecker<'a>> = annotated.into_iter().chain([conventions]).collect();

        // Transitive sink reachability: reverse BFS from the sinks,
        // carrying the sink each function reaches as the witness.
        let sinks: BTreeSet<FuncId> = checkers
            .iter()
            .flat_map(|c| c.sinks().iter().map(|&(sink, _)| sink))
            .collect();
        let mut sink_reach: Vec<Option<FuncId>> = vec![None; program.signatures.len()];
        let mut work: Vec<FuncId> = Vec::new();
        for &s in &sinks {
            sink_reach[s.0 as usize] = Some(s);
            work.push(s);
        }
        while let Some(f) = work.pop() {
            let reached = sink_reach[f.0 as usize];
            for &caller in graph.callers(f) {
                if sink_reach[caller.0 as usize].is_none() {
                    sink_reach[caller.0 as usize] = reached;
                    work.push(caller);
                }
            }
        }

        Linter {
            program,
            checkers,
            sink_reach,
        }
    }

    /// Infers the [`EffectSignature`] of `func` from its summary and flow
    /// results.
    ///
    /// The read set over-approximates interpreter-observable reads: a
    /// parameter is included when its initial value can flow into the
    /// return value, into a caller-visible mutation, or into any call the
    /// function makes — argument *or* control dependence, so a parameter
    /// that only decides *whether* a call happens still counts as read.
    pub fn infer_effect(
        &self,
        func: FuncId,
        summary: &FunctionSummary,
        results: &InfoFlowResults,
    ) -> EffectSignature {
        let body = self.program.body(func);
        let mut reads: BTreeSet<Local> = BTreeSet::new();
        let mut writes: BTreeSet<Local> = BTreeSet::new();

        let collect = |deps: &DepSet, into: &mut BTreeSet<Local>| {
            into.extend(deps.iter().filter_map(Dep::arg));
        };

        collect(&results.exit_deps_of_local(Local(0)), &mut reads);
        for m in &summary.mutations {
            writes.insert(m.param);
            reads.extend(m.sources.iter().copied());
        }
        for (loc, args, destination) in call_sites(body) {
            collect(&results.call_deps(loc, args, destination), &mut reads);
        }

        EffectSignature {
            func,
            reads,
            writes,
            reaches_sink: self.sink_reach[func.0 as usize].is_some(),
        }
    }

    /// Runs every lint pass on `func` and returns the findings, ordered by
    /// pass, then line.
    pub fn lint_function(
        &self,
        func: FuncId,
        summary: &FunctionSummary,
        results: &InfoFlowResults,
    ) -> Vec<LintFinding> {
        let mut findings = self.dead_stores(func, results);
        findings.extend(self.unused_muts(func, summary));
        findings.extend(self.secret_to_debug_sinks(func, results));
        findings.extend(self.redundant_declassifies(func, results));
        findings.extend(self.check_effects(func, summary, results));
        findings.sort_by(|a, b| (a.pass, a.line, &a.message).cmp(&(b.pass, b.line, &b.message)));
        findings
    }

    /// Dead-store pass: flags `Assign` statements to named locals whose
    /// produced value is in no *live root* — the return value's
    /// dependencies, any caller-visible mutation's dependencies, or any
    /// call's incoming dependencies. Dependency sets are transitively
    /// closed, so one-step membership suffices.
    pub fn dead_stores(&self, func: FuncId, results: &InfoFlowResults) -> Vec<LintFinding> {
        let body = self.program.body(func);
        let source = &self.program.source;
        let mut live = DepSet::new();
        live.extend(results.exit_deps_of_local(Local(0)));
        for (_, deps) in results.caller_visible_exit_entries(body) {
            live.extend(deps);
        }
        for (loc, args, destination) in call_sites(body) {
            live.extend(results.call_deps(loc, args, destination));
        }

        let mut findings = Vec::new();
        for bb in body.block_ids() {
            for (i, stmt) in body.block(bb).statements.iter().enumerate() {
                let StatementKind::Assign(place, _) = &stmt.kind else {
                    continue;
                };
                let Some(name) = &body.local_decl(place.local).name else {
                    continue;
                };
                let loc = Location {
                    block: bb,
                    statement_index: i,
                };
                if !live.contains(&Dep::Instr(loc)) {
                    findings.push(LintFinding {
                        pass: LintPass::DeadStore,
                        function: body.name.clone(),
                        message: format!(
                            "value assigned to `{name}` is never used \
                             (reaches no return, mutation, or call)"
                        ),
                        line: stmt.span.line_of(source),
                        witness: vec![WitnessStep {
                            location: loc,
                            line: stmt.span.line_of(source),
                        }],
                    });
                }
            }
        }
        findings
    }

    /// Unused-`&mut` pass (paper Figure 5a): a unique-reference parameter
    /// with no caller-visible mutation in the summary is provably never
    /// written through — a shared reference would do.
    pub fn unused_muts(&self, func: FuncId, summary: &FunctionSummary) -> Vec<LintFinding> {
        let sig = self.program.signature(func);
        let body = self.program.body(func);
        let source = &self.program.source;
        let mut findings = Vec::new();
        for (i, ty) in sig.inputs.iter().enumerate() {
            let local = Local(i as u32 + 1);
            if !contains_unique_ref(ty) {
                continue;
            }
            if summary.mutations.iter().any(|m| m.param == local) {
                continue;
            }
            let decl = body.local_decl(local);
            let name = decl.name.clone().unwrap_or_else(|| format!("_{}", local.0));
            findings.push(LintFinding {
                pass: LintPass::UnusedMut,
                function: body.name.clone(),
                message: format!(
                    "unique reference parameter `{name}` is never written \
                     through; a shared reference suffices"
                ),
                line: decl.span.line_of(source),
                witness: Vec::new(),
            });
        }
        findings
    }

    /// Secret-reaches-debug-sink pass: the composed policies' checker
    /// diagnostics at bottom-clearance ("debug") sinks, one finding per
    /// sink call, with `#[declassify]` releases honored.
    pub fn secret_to_debug_sinks(
        &self,
        func: FuncId,
        results: &InfoFlowResults,
    ) -> Vec<LintFinding> {
        let mut hits: BTreeMap<Location, IfcDiagnostic> = BTreeMap::new();
        for checker in &self.checkers {
            let bottom = checker.lattice().bottom();
            for d in checker.check_with_results(func, results).diagnostics {
                if checker.lattice().label(&d.clearance) != Some(bottom) {
                    continue;
                }
                match hits.get_mut(&d.location) {
                    Some(hit) => hit.sources.extend(d.sources),
                    None => {
                        hits.insert(d.location, d);
                    }
                }
            }
        }
        hits.into_values()
            .map(|mut d| {
                d.sources.sort();
                d.sources.dedup();
                LintFinding {
                    pass: LintPass::SecretToDebugSink,
                    function: d.in_function,
                    message: format!(
                        "secret data reaches debug sink `{}` (via {})",
                        d.sink,
                        d.sources.join(", "),
                    ),
                    line: d.line,
                    witness: d.witness,
                }
            })
            .collect()
    }

    /// Redundant-`#[declassify]` pass: a declassified call whose incoming
    /// dependencies (and callee) no composed policy labels above bottom
    /// released nothing — the attribute is dead policy surface.
    pub fn redundant_declassifies(
        &self,
        func: FuncId,
        results: &InfoFlowResults,
    ) -> Vec<LintFinding> {
        let body = self.program.body(func);
        if body.declassified_calls.is_empty() {
            return Vec::new();
        }
        let source = &self.program.source;
        let labels: Vec<_> = self
            .checkers
            .iter()
            .map(|c| c.labels(func, results))
            .collect();
        let mut findings = Vec::new();
        for &dloc in &body.declassified_calls {
            let TerminatorKind::Call {
                func: callee,
                destination,
                ..
            } = &body.block(dloc.block).terminator().kind
            else {
                continue;
            };
            // The call's own instruction carries the callee's label.
            let mut deps = results.deps_after(destination, dloc);
            deps.insert(Dep::Instr(dloc));
            let labeled = labels
                .iter()
                .flat_map(|l| &l.sources)
                .any(|s| !s.deps.is_disjoint(&deps));
            if labeled {
                continue;
            }
            findings.push(LintFinding {
                pass: LintPass::RedundantDeclassify,
                function: body.name.clone(),
                message: format!(
                    "`#[declassify]` on call to `{}` is redundant: the \
                     incoming label is already bottom",
                    self.program.signature(*callee).name,
                ),
                line: line_of(body, source, dloc),
                witness: witness_steps(body, source, deps),
            });
        }
        findings
    }

    /// Effect-checking pass: compares a declared `#[effect(..)]` contract
    /// against the inferred signature. Inference over-approximates, so
    /// every reported mismatch is a real hole in the declaration (no false
    /// negatives on the declared side).
    pub fn check_effects(
        &self,
        func: FuncId,
        summary: &FunctionSummary,
        results: &InfoFlowResults,
    ) -> Vec<LintFinding> {
        let sig = self.program.signature(func);
        let Some(decl) = &sig.effect else {
            return Vec::new();
        };
        let body = self.program.body(func);
        let source = &self.program.source;
        let inferred = self.infer_effect(func, summary, results);
        let fn_line = body.span.line_of(source);
        let param_name = |l: Local| {
            body.local_decl(l)
                .name
                .clone()
                .unwrap_or_else(|| format!("_{}", l.0))
        };
        let param_by_name = |n: &str| {
            body.args()
                .find(|a| body.local_decl(*a).name.as_deref() == Some(n))
        };
        let mut findings = Vec::new();
        let mut push = |message: String, witness: Vec<WitnessStep>| {
            findings.push(LintFinding {
                pass: LintPass::EffectMismatch,
                function: body.name.clone(),
                message,
                line: fn_line,
                witness,
            });
        };

        if decl.pure {
            for &w in &inferred.writes {
                push(
                    format!(
                        "declared `#[effect(pure)]` but may write through `{}`",
                        param_name(w)
                    ),
                    self.write_witness(body, source, results, w),
                );
            }
            if let Some(sink) = self.sink_reach[func.0 as usize] {
                push(
                    format!(
                        "declared `#[effect(pure)]` but can reach sink `{}`",
                        self.program.signature(sink).name
                    ),
                    Vec::new(),
                );
            }
        }
        if !decl.reads.is_empty() {
            let declared: BTreeSet<Local> =
                decl.reads.iter().filter_map(|n| param_by_name(n)).collect();
            for &r in inferred.reads.difference(&declared) {
                push(
                    format!(
                        "may read parameter `{}` not declared in `#[effect(reads(..))]`",
                        param_name(r)
                    ),
                    self.read_witness(body, source, results, r),
                );
            }
        }
        if !decl.writes.is_empty() {
            let declared: BTreeSet<Local> = decl
                .writes
                .iter()
                .filter_map(|n| param_by_name(n))
                .collect();
            for &w in inferred.writes.difference(&declared) {
                push(
                    format!(
                        "may write through parameter `{}` not declared in \
                         `#[effect(writes(..))]`",
                        param_name(w)
                    ),
                    self.write_witness(body, source, results, w),
                );
            }
        }
        findings
    }

    /// Witness for an inferred read of `param`: the instructions in every
    /// exit row that carries the parameter's `Arg` marker.
    fn read_witness(
        &self,
        body: &Body,
        source: &str,
        results: &InfoFlowResults,
        param: Local,
    ) -> Vec<WitnessStep> {
        let mut deps = DepSet::new();
        for (_, row) in results.exit_entries() {
            if row.contains(&Dep::Arg(param)) {
                deps.extend(row);
            }
        }
        witness_steps(body, source, deps)
    }

    /// Witness for an inferred write through `param`: the instructions in
    /// the exit rows of the parameter's dereferenced places.
    fn write_witness(
        &self,
        body: &Body,
        source: &str,
        results: &InfoFlowResults,
        param: Local,
    ) -> Vec<WitnessStep> {
        let mut deps = DepSet::new();
        for (place, row) in results.caller_visible_exit_entries(body) {
            if place.local == param {
                deps.extend(row);
            }
        }
        witness_steps(body, source, deps)
    }
}

/// All call sites of `body` as `(location, arguments, destination)`.
fn call_sites(body: &Body) -> Vec<(Location, &[flowistry_lang::mir::Operand], &Place)> {
    let mut out = Vec::new();
    for bb in body.block_ids() {
        let data = body.block(bb);
        if let TerminatorKind::Call {
            args, destination, ..
        } = &data.terminator().kind
        {
            out.push((
                Location {
                    block: bb,
                    statement_index: data.statements.len(),
                },
                args.as_slice(),
                destination,
            ));
        }
    }
    out
}

/// Whether `ty` contains a unique (mutable) reference, transitively.
fn contains_unique_ref(ty: &Ty) -> bool {
    match ty {
        Ty::Ref(_, m, inner) => m.is_mut() || contains_unique_ref(inner),
        Ty::Tuple(tys) => tys.iter().any(contains_unique_ref),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_core::{compute_summary_with_results, AnalysisParams};
    use std::collections::HashMap;

    fn lint(program: &CompiledProgram, name: &str) -> Vec<LintFinding> {
        let linter = Linter::new(program);
        let func = program.func_id(name).unwrap();
        let store = HashMap::new();
        let (cached, results) =
            compute_summary_with_results(program, func, &AnalysisParams::default(), &store);
        linter.lint_function(func, &cached.summary, &results)
    }

    fn effect(program: &CompiledProgram, name: &str) -> EffectSignature {
        let linter = Linter::new(program);
        let func = program.func_id(name).unwrap();
        let store = HashMap::new();
        let (cached, results) =
            compute_summary_with_results(program, func, &AnalysisParams::default(), &store);
        linter.infer_effect(func, &cached.summary, &results)
    }

    fn passes(findings: &[LintFinding]) -> Vec<LintPass> {
        findings.iter().map(|f| f.pass).collect()
    }

    #[test]
    fn dead_store_is_flagged_with_witness() {
        let program = flowistry_lang::compile(
            "fn f(x: i32) -> i32 { let unused = x + 1; let used = x * 2; return used; }",
        )
        .unwrap();
        let findings = lint(&program, "f");
        let dead: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1, "{findings:?}");
        assert!(dead[0].message.contains("`unused`"));
        assert_eq!(dead[0].witness.len(), 1);
        assert_eq!(dead[0].line, 1);
    }

    #[test]
    fn stores_feeding_returns_mutations_and_calls_are_live() {
        let program = flowistry_lang::compile(
            "fn observe(x: i32) { }
             fn f(p: &mut i32, x: i32) -> i32 {
                 let into_ret = x + 1;
                 let into_mut = x + 2;
                 let into_call = x + 3;
                 *p = into_mut;
                 observe(into_call);
                 return into_ret;
             }",
        )
        .unwrap();
        let findings = lint(&program, "f");
        assert!(
            !passes(&findings).contains(&LintPass::DeadStore),
            "{findings:?}"
        );
    }

    #[test]
    fn conditional_use_keeps_a_store_live() {
        let program = flowistry_lang::compile(
            "fn f(c: bool) -> i32 { let mut x = 1; if c { x = 2; } return x; }",
        )
        .unwrap();
        let findings = lint(&program, "f");
        assert!(
            !passes(&findings).contains(&LintPass::DeadStore),
            "{findings:?}"
        );
    }

    #[test]
    fn overwritten_store_is_dead() {
        let program =
            flowistry_lang::compile("fn f(y: i32) -> i32 { let mut x = 1; x = y; return x; }")
                .unwrap();
        let findings = lint(&program, "f");
        let dead: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1, "{findings:?}");
    }

    #[test]
    fn unused_unique_ref_is_flagged() {
        // The paper's §5.3.1 crop shape: takes &mut but only reads.
        let program =
            flowistry_lang::compile("fn crop(img: &mut (i32, i32)) -> i32 { return (*img).0; }")
                .unwrap();
        let findings = lint(&program, "crop");
        let unused: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::UnusedMut)
            .collect();
        assert_eq!(unused.len(), 1, "{findings:?}");
        assert!(unused[0].message.contains("`img`"));
    }

    #[test]
    fn written_unique_ref_is_not_flagged() {
        let program = flowistry_lang::compile("fn set(p: &mut i32, x: i32) { *p = x; }").unwrap();
        let findings = lint(&program, "set");
        assert!(
            !passes(&findings).contains(&LintPass::UnusedMut),
            "{findings:?}"
        );
    }

    #[test]
    fn transitive_write_through_callee_is_not_flagged() {
        let program = flowistry_lang::compile(
            "fn inner(p: &mut i32) { *p = 1; }
             fn outer(q: &mut i32) { inner(q); }",
        )
        .unwrap();
        let findings = lint(&program, "outer");
        assert!(
            !passes(&findings).contains(&LintPass::UnusedMut),
            "{findings:?}"
        );
    }

    #[test]
    fn secret_reaching_debug_sink_is_flagged() {
        let program = flowistry_lang::compile(
            "fn read_password() -> i32 { return 1234; }
             fn insecure_print(x: i32) { }
             fn main_like() {
                 let password = read_password();
                 if password == 1234 { insecure_print(1); }
             }",
        )
        .unwrap();
        let findings = lint(&program, "main_like");
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::SecretToDebugSink)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("insecure_print"));
        assert!(!hits[0].witness.is_empty());
    }

    #[test]
    fn public_data_at_debug_sink_is_clean() {
        let program = flowistry_lang::compile(
            "fn insecure_print(x: i32) { }
             fn main_like(x: i32) { insecure_print(x); }",
        )
        .unwrap();
        let findings = lint(&program, "main_like");
        assert!(
            !passes(&findings).contains(&LintPass::SecretToDebugSink),
            "{findings:?}"
        );
    }

    #[test]
    fn module_policy_sink_feeds_the_lint() {
        let program = flowistry_lang::compile(
            "#![lattice(two_point)]
             #![module_policy(console, sink(Public))]
             #[label(Secret)]
             fn fetch_key() -> i32 { return 7; }
             #[module(console)]
             fn emit(x: i32) { }
             fn main_like() { let k = fetch_key(); emit(k); }",
        )
        .unwrap();
        let findings = lint(&program, "main_like");
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::SecretToDebugSink)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("`emit`"));
    }

    fn sink_hits(findings: Vec<LintFinding>) -> Vec<LintFinding> {
        findings
            .into_iter()
            .filter(|f| f.pass == LintPass::SecretToDebugSink)
            .collect()
    }

    #[test]
    fn default_label_feeds_the_lint_as_it_feeds_the_checker() {
        let program = flowistry_lang::compile(
            "#![default_label(Secret)]
             fn source() -> i32 { return 1; }
             #[sink(Public)]
             fn emit(x: i32) { }
             fn main_like() { let v = source(); emit(v); }",
        )
        .unwrap();
        let policy = Policy::from_annotations(&program).unwrap();
        let report = PolicyChecker::new(&program, policy)
            .unwrap()
            .check_function("main_like")
            .unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{report:?}");
        let d = &report.diagnostics[0];
        let hits = sink_hits(lint(&program, "main_like"));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].line, &hits[0].witness), (d.line, &d.witness));
        assert!(hits[0].message.contains("call to `source`"), "{hits:?}");
    }

    #[test]
    fn policies_do_not_mix_labels_and_sinks() {
        // `read_password` is secret only under the naming conventions, and
        // `emit` a sink only under the annotations: no one policy sees a
        // flow from one to the other.
        let program = flowistry_lang::compile(
            "#![lattice(multi_level)]
             fn read_password() -> i32 { return 1; }
             #[sink(Low)]
             fn emit(x: i32) { }
             fn main_like() { let p = read_password(); emit(p); }",
        )
        .unwrap();
        let hits = sink_hits(lint(&program, "main_like"));
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn rejected_annotation_policy_leaves_the_conventions() {
        let program = flowistry_lang::compile(
            "#[label(Purple)]
             fn fetch_key() -> i32 { return 7; }
             #[label(Secret)]
             fn fetch_token() -> i32 { return 8; }
             #[sink(Public)]
             fn emit(x: i32) { }
             fn read_password() -> i32 { return 1; }
             fn insecure_print(x: i32) { }
             fn relay(x: i32) { emit(x); }
             fn main_like() {
                 let t = fetch_token();
                 emit(t);
                 let p = read_password();
                 insecure_print(p);
             }",
        )
        .unwrap();
        assert!(PolicyChecker::new(&program, Policy::from_annotations(&program).unwrap()).is_err());
        let hits = sink_hits(lint(&program, "main_like"));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`insecure_print`"), "{hits:?}");
        // `emit` is a sink only under the rejected policy.
        assert!(!effect(&program, "relay").reaches_sink);
    }

    #[test]
    fn declassified_secret_does_not_hit_the_sink_lint() {
        let program = flowistry_lang::compile(
            "fn read_secret() -> i32 { return 7; }
             fn scramble(x: i32) -> i32 { return x * 31; }
             fn insecure_print(x: i32) { }
             fn main_like() {
                 let secret_v = read_secret();
                 #[declassify] let safe = scramble(secret_v);
                 insecure_print(safe);
             }",
        )
        .unwrap();
        let findings = lint(&program, "main_like");
        assert!(
            !passes(&findings).contains(&LintPass::SecretToDebugSink),
            "{findings:?}"
        );
        // ...and the declassify is doing real work, so it is not redundant.
        assert!(
            !passes(&findings).contains(&LintPass::RedundantDeclassify),
            "{findings:?}"
        );
    }

    #[test]
    fn declassify_of_public_data_is_redundant() {
        let program = flowistry_lang::compile(
            "fn mix(x: i32) -> i32 { return x + 1; }
             fn main_like(x: i32) -> i32 {
                 #[declassify] let y = mix(x);
                 return y;
             }",
        )
        .unwrap();
        let findings = lint(&program, "main_like");
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::RedundantDeclassify)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("`mix`"));
    }

    #[test]
    fn inferred_effects_cover_reads_writes_and_sinks() {
        let program = flowistry_lang::compile(
            "fn insecure_log(x: i32) { }
             fn f(a: i32, b: i32, c: i32, p: &mut i32, ignored: i32) -> i32 {
                 *p = b;
                 if c > 0 { insecure_log(1); }
                 return a;
             }",
        )
        .unwrap();
        let sig = effect(&program, "f");
        // a: return; b: mutation source; c: controls the sink call.
        assert!(sig.reads.contains(&Local(1)), "{sig:?}");
        assert!(sig.reads.contains(&Local(2)), "{sig:?}");
        assert!(sig.reads.contains(&Local(3)), "{sig:?}");
        assert!(!sig.reads.contains(&Local(5)), "{sig:?}");
        assert_eq!(sig.writes, BTreeSet::from([Local(4)]));
        assert!(sig.reaches_sink);
        assert!(!sig.is_pure());
    }

    #[test]
    fn sink_reachability_is_transitive() {
        let program = flowistry_lang::compile(
            "fn insecure_emit(x: i32) { }
             fn middle(x: i32) { insecure_emit(x); }
             fn top(x: i32) { middle(x); }
             fn pure_one(x: i32) -> i32 { return x; }",
        )
        .unwrap();
        assert!(effect(&program, "top").reaches_sink);
        assert!(effect(&program, "middle").reaches_sink);
        assert!(!effect(&program, "pure_one").reaches_sink);
        assert!(effect(&program, "pure_one").is_pure());
    }

    #[test]
    fn honest_effect_declaration_is_clean() {
        let program = flowistry_lang::compile(
            "#[effect(reads(x, y), writes(p))]
             fn f(x: i32, y: i32, p: &mut i32) { *p = x + y; }
             #[effect(pure)]
             fn g(x: i32) -> i32 { return x; }",
        )
        .unwrap();
        assert!(
            !passes(&lint(&program, "f")).contains(&LintPass::EffectMismatch),
            "{:?}",
            lint(&program, "f")
        );
        assert!(!passes(&lint(&program, "g")).contains(&LintPass::EffectMismatch));
    }

    #[test]
    fn effect_violations_are_reported_with_witnesses() {
        let program = flowistry_lang::compile(
            "#[effect(pure)]
             fn sneaky(p: &mut i32) { *p = 1; }
             #[effect(reads(x))]
             fn wide(x: i32, y: i32) -> i32 { return x + y; }",
        )
        .unwrap();
        let sneaky = lint(&program, "sneaky");
        let hits: Vec<_> = sneaky
            .iter()
            .filter(|f| f.pass == LintPass::EffectMismatch)
            .collect();
        assert_eq!(hits.len(), 1, "{sneaky:?}");
        assert!(hits[0].message.contains("pure"));
        assert!(hits[0].message.contains("`p`"));
        assert!(!hits[0].witness.is_empty());

        let wide = lint(&program, "wide");
        let hits: Vec<_> = wide
            .iter()
            .filter(|f| f.pass == LintPass::EffectMismatch)
            .collect();
        assert_eq!(hits.len(), 1, "{wide:?}");
        assert!(hits[0].message.contains("`y`"));
    }

    #[test]
    fn declared_pure_with_sink_reach_is_a_mismatch() {
        let program = flowistry_lang::compile(
            "fn insecure_print(x: i32) { }
             #[effect(pure)]
             fn f(x: i32) { insecure_print(x); }",
        )
        .unwrap();
        let findings = lint(&program, "f");
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.pass == LintPass::EffectMismatch)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("insecure_print"));
    }

    #[test]
    fn lint_pass_names_round_trip() {
        for pass in LintPass::ALL {
            assert_eq!(LintPass::parse(pass.name()), Some(pass));
        }
        assert_eq!(LintPass::parse("nonsense"), None);
    }
}
