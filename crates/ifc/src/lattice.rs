//! Security lattices, policies and the lattice-based IFC checker.
//!
//! This module generalises the two-point `Secure`/`Insecure` split of the
//! paper's §6 IFC application into a policy engine over an arbitrary finite
//! [`SecurityLattice`]:
//!
//! * labels are interned [`Label`]s with `join`/`meet`/`≤` tables;
//! * a [`Policy`] assigns labels to functions, parameters and locals, gives
//!   sinks a *clearance* (the highest label they may observe) and names
//!   sanctioned *declassification* points;
//! * the [`PolicyChecker`] propagates labels along the information flow
//!   analysis' dependency rows and reports violations as structured
//!   [`IfcDiagnostic`]s carrying a *flow witness* — the backward slice from
//!   the sink back to the tainted sources.
//!
//! Policies can be written in the source itself (`#![lattice(multi_level)]`,
//! `#[label(High)]`, `#[sink(Low)]`, `#[declassify]`; see
//! [`Policy::from_annotations`]), derived from naming conventions as a
//! two-point policy ([`Policy::from_conventions`]), or built
//! programmatically.

use flowistry_core::{analyze, AnalysisParams, Dep, DepSet, InfoFlowResults};
use flowistry_lang::mir::{Body, Local, Location, TerminatorKind};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;

// ---------------------------------------------------------------------------
// Labels and lattices
// ---------------------------------------------------------------------------

/// An interned security label: an index into a [`SecurityLattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite security lattice: a set of named labels with a partial order
/// `≤` ("may flow to") and total `join`/`meet` tables.
///
/// Built-in instances:
///
/// | constructor | labels (bottom → top) |
/// |---|---|
/// | [`SecurityLattice::two_point`] | `Public < Secret` |
/// | [`SecurityLattice::multi_level`] | `Low < Med < High < TopSecret` |
/// | [`SecurityLattice::conf_integrity`] | product of `Public < Secret` and `Trusted < Untrusted` |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityLattice {
    names: Vec<String>,
    /// `leq[a][b]` ⇔ label `a` may flow to label `b`.
    leq: Vec<Vec<bool>>,
    join: Vec<Vec<u32>>,
    meet: Vec<Vec<u32>>,
    bottom: Label,
    top: Label,
}

impl SecurityLattice {
    /// Builds a lattice from a reflexive-transitive `≤` relation.
    ///
    /// # Panics
    ///
    /// Panics if the relation is not a lattice (some pair lacks a unique
    /// least upper or greatest lower bound). All public constructors build
    /// genuine lattices, so this is unreachable from outside the module.
    fn from_leq(names: Vec<String>, leq: Vec<Vec<bool>>) -> SecurityLattice {
        let n = names.len();
        let mut join = vec![vec![0u32; n]; n];
        let mut meet = vec![vec![0u32; n]; n];
        for a in 0..n {
            for b in 0..n {
                let ubs: Vec<usize> = (0..n).filter(|&u| leq[a][u] && leq[b][u]).collect();
                let lub = ubs
                    .iter()
                    .copied()
                    .find(|&u| ubs.iter().all(|&v| leq[u][v]))
                    .expect("partial order is not a join-semilattice");
                join[a][b] = lub as u32;
                let lbs: Vec<usize> = (0..n).filter(|&l| leq[l][a] && leq[l][b]).collect();
                let glb = lbs
                    .iter()
                    .copied()
                    .find(|&l| lbs.iter().all(|&v| leq[v][l]))
                    .expect("partial order is not a meet-semilattice");
                meet[a][b] = glb as u32;
            }
        }
        let bottom = Label(
            (0..n)
                .find(|&b| (0..n).all(|x| leq[b][x]))
                .expect("lattice has no bottom") as u32,
        );
        let top = Label(
            (0..n)
                .find(|&t| (0..n).all(|x| leq[x][t]))
                .expect("lattice has no top") as u32,
        );
        SecurityLattice {
            names,
            leq,
            join,
            meet,
            bottom,
            top,
        }
    }

    /// A totally ordered lattice `levels[0] < levels[1] < ...`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn linear(levels: &[&str]) -> SecurityLattice {
        assert!(!levels.is_empty(), "a lattice needs at least one label");
        let n = levels.len();
        let names = levels.iter().map(|s| s.to_string()).collect();
        let leq = (0..n).map(|a| (0..n).map(|b| a <= b).collect()).collect();
        SecurityLattice::from_leq(names, leq)
    }

    /// The paper's two-point lattice: `Public < Secret`.
    pub fn two_point() -> SecurityLattice {
        SecurityLattice::linear(&["Public", "Secret"])
    }

    /// A linear multi-level lattice: `Low < Med < High < TopSecret`.
    pub fn multi_level() -> SecurityLattice {
        SecurityLattice::linear(&["Low", "Med", "High", "TopSecret"])
    }

    /// The componentwise product of two lattices. Labels are named
    /// `<left>_<right>` so they remain single identifiers usable in source
    /// annotations.
    pub fn product(a: &SecurityLattice, b: &SecurityLattice) -> SecurityLattice {
        let mut names = Vec::new();
        for an in &a.names {
            for bn in &b.names {
                names.push(format!("{an}_{bn}"));
            }
        }
        let (na, nb) = (a.names.len(), b.names.len());
        let n = na * nb;
        let leq = (0..n)
            .map(|x| {
                (0..n)
                    .map(|y| a.leq[x / nb][y / nb] && b.leq[x % nb][y % nb])
                    .collect()
            })
            .collect();
        SecurityLattice::from_leq(names, leq)
    }

    /// The confidentiality × integrity product lattice. Confidentiality is
    /// `Public < Secret`; integrity is `Trusted < Untrusted` (untrusted data
    /// is the *more* restricted pole: it must not flow into trusted sinks).
    pub fn conf_integrity() -> SecurityLattice {
        SecurityLattice::product(
            &SecurityLattice::linear(&["Public", "Secret"]),
            &SecurityLattice::linear(&["Trusted", "Untrusted"]),
        )
    }

    /// Resolves a label by name.
    pub fn label(&self, name: &str) -> Option<Label> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Label(i as u32))
    }

    /// The name of a label.
    pub fn name(&self, l: Label) -> &str {
        &self.names[l.index()]
    }

    /// Whether data labeled `a` may flow to a context labeled `b`.
    pub fn leq(&self, a: Label, b: Label) -> bool {
        self.leq[a.index()][b.index()]
    }

    /// Least upper bound.
    pub fn join(&self, a: Label, b: Label) -> Label {
        Label(self.join[a.index()][b.index()])
    }

    /// Greatest lower bound.
    pub fn meet(&self, a: Label, b: Label) -> Label {
        Label(self.meet[a.index()][b.index()])
    }

    /// The least restrictive label (public, trusted).
    pub fn bottom(&self) -> Label {
        self.bottom
    }

    /// The most restrictive label.
    pub fn top(&self) -> Label {
        self.top
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the lattice has no labels (never true for the built-ins).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All labels in interning order.
    pub fn labels(&self) -> impl Iterator<Item = Label> {
        (0..self.names.len() as u32).map(Label)
    }
}

/// A wire- and annotation-friendly description of a [`SecurityLattice`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LatticeSpec {
    /// `Public < Secret` — the paper's original policy space.
    #[default]
    TwoPoint,
    /// `Low < Med < High < TopSecret`.
    MultiLevel,
    /// Confidentiality × integrity product.
    ConfIntegrity,
    /// A custom total order, least restrictive first.
    Linear(Vec<String>),
}

impl LatticeSpec {
    /// Builds the lattice this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if a [`LatticeSpec::Linear`] spec has no levels.
    pub fn build(&self) -> SecurityLattice {
        match self {
            LatticeSpec::TwoPoint => SecurityLattice::two_point(),
            LatticeSpec::MultiLevel => SecurityLattice::multi_level(),
            LatticeSpec::ConfIntegrity => SecurityLattice::conf_integrity(),
            LatticeSpec::Linear(levels) => {
                let refs: Vec<&str> = levels.iter().map(String::as_str).collect();
                SecurityLattice::linear(&refs)
            }
        }
    }

    /// Parses the name used in a `#![lattice(...)]` module annotation.
    pub fn parse(name: &str) -> Option<LatticeSpec> {
        match name {
            "two_point" => Some(LatticeSpec::TwoPoint),
            "multi_level" => Some(LatticeSpec::MultiLevel),
            "conf_integrity" => Some(LatticeSpec::ConfIntegrity),
            _ => None,
        }
    }

    /// The annotation name of a built-in spec (`linear` for custom chains).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LatticeSpec::TwoPoint => "two_point",
            LatticeSpec::MultiLevel => "multi_level",
            LatticeSpec::ConfIntegrity => "conf_integrity",
            LatticeSpec::Linear(_) => "linear",
        }
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// A label assignment over a program: which data is sensitive, what each
/// sink is cleared to observe, and which calls are sanctioned release
/// points. All labels are stored by name and resolved (with validation)
/// by [`PolicyChecker::new`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Policy {
    /// The lattice labels are drawn from.
    pub lattice: LatticeSpec,
    /// Fallback label for functions and parameters without an explicit
    /// label. `None` means lattice bottom (unlabeled data is public).
    pub default_label: Option<String>,
    /// `(function, label)`: the function's result carries `label`.
    pub fn_labels: Vec<(String, String)>,
    /// `(function, parameter, label)`.
    pub param_labels: Vec<(String, String, String)>,
    /// `(function, local variable, label)`.
    pub local_labels: Vec<(String, String, String)>,
    /// `(function, clearance)`: calls to `function` may observe data up to
    /// `clearance`; anything above is a violation.
    pub sink_clearances: Vec<(String, String)>,
    /// `(in_function, callee)`: calls from `in_function` to `callee` are
    /// declassification points — their results are relabeled to bottom.
    /// Source-level `#[declassify]` attributes are carried on the MIR body
    /// instead and do not appear here.
    pub declassify: Vec<(String, String)>,
}

impl Policy {
    /// Derives a two-point policy from naming conventions, the closest
    /// analogue of the paper's `Secure`/`Insecure` traits that Rox
    /// supports: functions whose name starts with `insecure_` are sinks
    /// cleared for `Public`, and functions or local variables whose name
    /// has `password`/`secret` as its first or last `_`-separated segment
    /// (or the `secure_` prefix) are `Secret`. Substrings inside a segment
    /// do not count: `secretary` and `not_secret_len` are public.
    pub fn from_conventions(program: &CompiledProgram) -> Policy {
        let mut policy = Policy::default();
        for sig in &program.signatures {
            if sig.name.starts_with("insecure_") {
                policy
                    .sink_clearances
                    .push((sig.name.clone(), "Public".to_string()));
            }
            if crate::is_sensitive_name(&sig.name) {
                policy
                    .fn_labels
                    .push((sig.name.clone(), "Secret".to_string()));
            }
        }
        for body in &program.bodies {
            for name in body.local_decls.iter().filter_map(|d| d.name.as_ref()) {
                if crate::is_sensitive_name(name) {
                    policy.local_labels.push((
                        body.name.clone(),
                        name.clone(),
                        "Secret".to_string(),
                    ));
                }
            }
        }
        policy
    }

    /// Reads the policy written in the program's own annotations:
    /// `#![lattice(L)]` / `#![default_label(L)]` / `#![module_policy(M, ..)]`
    /// at module level, `#[label(L)]` on functions and parameters,
    /// `#[sink(L)]` on sink functions, `#[module(M)]` for module membership.
    /// A function tagged `#[module(M)]` inherits the module's `label`/`sink`
    /// defaults unless it declares its own. (`#[declassify]` points are
    /// carried on MIR bodies and consulted directly by the checker.)
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnknownLattice`] if the module names a lattice
    /// that does not exist. Unknown *labels* are reported later, by
    /// [`PolicyChecker::new`].
    pub fn from_annotations(program: &CompiledProgram) -> Result<Policy, PolicyError> {
        let lattice = match &program.ast.lattice {
            Some(name) => {
                LatticeSpec::parse(name).ok_or_else(|| PolicyError::UnknownLattice(name.clone()))?
            }
            None => LatticeSpec::TwoPoint,
        };
        let mut policy = Policy {
            lattice,
            default_label: program.ast.default_label.clone(),
            ..Policy::default()
        };
        for sig in &program.signatures {
            if let Some(l) = &sig.label {
                policy.fn_labels.push((sig.name.clone(), l.clone()));
            }
            if let Some(c) = &sig.clearance {
                policy.sink_clearances.push((sig.name.clone(), c.clone()));
            }
            for (i, pl) in sig.param_labels.iter().enumerate() {
                if let Some(l) = pl {
                    let pname = program
                        .body_by_name(&sig.name)
                        .and_then(|b| b.local_decls.get(i + 1))
                        .and_then(|d| d.name.clone())
                        .unwrap_or_default();
                    policy
                        .param_labels
                        .push((sig.name.clone(), pname, l.clone()));
                }
            }
        }
        // Module-policy composition: `#[module(M)]` functions pick up the
        // `#![module_policy(M, ..)]` defaults where they declared nothing
        // themselves. Explicit per-function attributes always win.
        for sig in &program.signatures {
            let Some(m) = &sig.module else { continue };
            let Some(mp) = program.ast.module_policies.iter().find(|p| &p.name == m) else {
                continue;
            };
            if sig.label.is_none() {
                if let Some(l) = &mp.label {
                    policy.fn_labels.push((sig.name.clone(), l.clone()));
                }
            }
            if sig.clearance.is_none() {
                if let Some(c) = &mp.clearance {
                    policy.sink_clearances.push((sig.name.clone(), c.clone()));
                }
            }
        }
        Ok(policy)
    }

    /// Sets the lattice.
    pub fn with_lattice(mut self, spec: LatticeSpec) -> Self {
        self.lattice = spec;
        self
    }

    /// Sets the default label.
    pub fn with_default_label(mut self, label: impl Into<String>) -> Self {
        self.default_label = Some(label.into());
        self
    }

    /// Labels a function's result.
    pub fn with_fn_label(mut self, func: impl Into<String>, label: impl Into<String>) -> Self {
        self.fn_labels.push((func.into(), label.into()));
        self
    }

    /// Labels a parameter.
    pub fn with_param_label(
        mut self,
        func: impl Into<String>,
        param: impl Into<String>,
        label: impl Into<String>,
    ) -> Self {
        self.param_labels
            .push((func.into(), param.into(), label.into()));
        self
    }

    /// Labels a local variable.
    pub fn with_local_label(
        mut self,
        func: impl Into<String>,
        local: impl Into<String>,
        label: impl Into<String>,
    ) -> Self {
        self.local_labels
            .push((func.into(), local.into(), label.into()));
        self
    }

    /// Declares a sink with a clearance.
    pub fn with_sink(mut self, func: impl Into<String>, clearance: impl Into<String>) -> Self {
        self.sink_clearances.push((func.into(), clearance.into()));
        self
    }

    /// Declares a declassification point.
    pub fn with_declassify(
        mut self,
        in_func: impl Into<String>,
        callee: impl Into<String>,
    ) -> Self {
        self.declassify.push((in_func.into(), callee.into()));
        self
    }
}

/// Why a policy could not be checked against a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A `#![lattice(...)]` annotation names no built-in lattice.
    UnknownLattice(String),
    /// A label name does not exist in the policy's lattice.
    UnknownLabel {
        /// The unresolvable label.
        label: String,
        /// Where the label was used (e.g. `label for function \`f\``).
        context: String,
    },
    /// The policy names a function the program does not define.
    UnknownFunction(String),
    /// The policy labels a parameter the function does not have.
    UnknownParam {
        /// The function named by the policy.
        function: String,
        /// The missing parameter.
        param: String,
    },
    /// The policy labels a local variable the function does not declare.
    UnknownLocal {
        /// The function named by the policy.
        function: String,
        /// The missing local.
        local: String,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::UnknownLattice(name) => {
                write!(f, "unknown lattice `{name}` (expected `two_point`, `multi_level` or `conf_integrity`)")
            }
            PolicyError::UnknownLabel { label, context } => {
                write!(f, "unknown label `{label}` in {context}")
            }
            PolicyError::UnknownFunction(name) => {
                write!(f, "policy names unknown function `{name}`")
            }
            PolicyError::UnknownParam { function, param } => {
                write!(f, "function `{function}` has no parameter `{param}`")
            }
            PolicyError::UnknownLocal { function, local } => {
                write!(f, "function `{function}` has no local variable `{local}`")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One step of a flow witness: a program location on the dependency path
/// from a tainted source to the violating sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WitnessStep {
    /// The MIR location.
    pub location: Location,
    /// Its 1-based source line.
    pub line: usize,
}

/// A structured IFC violation: data labeled above a sink's clearance
/// reached the sink, with the backward slice as evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfcDiagnostic {
    /// The function containing the flow.
    pub in_function: String,
    /// The sink that received the data.
    pub sink: String,
    /// Location of the call to the sink.
    pub location: Location,
    /// 1-based source line of the call.
    pub line: usize,
    /// Join of the labels flowing into the sink.
    pub incoming_label: String,
    /// The sink's clearance.
    pub clearance: String,
    /// Descriptions of the offending sources (labels above the clearance),
    /// sorted and deduplicated.
    pub sources: Vec<String>,
    /// The flow witness: the backward slice from the sink call, in
    /// program order.
    pub witness: Vec<WitnessStep>,
}

impl std::fmt::Display for IfcDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "in `{}` (line {}): `{}` data [{}] flows into sink `{}` cleared for `{}`",
            self.in_function,
            self.line,
            self.incoming_label,
            self.sources.join(", "),
            self.sink,
            self.clearance
        )?;
        if !self.witness.is_empty() {
            write!(f, "; witness lines: ")?;
            let mut lines: Vec<usize> = self.witness.iter().map(|w| w.line).collect();
            lines.dedup();
            for (i, line) in lines.iter().enumerate() {
                if i > 0 {
                    write!(f, " -> ")?;
                }
                write!(f, "{line}")?;
            }
        }
        Ok(())
    }
}

/// The result of checking one function against a [`Policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyReport {
    /// The checked function.
    pub function: String,
    /// All violations found.
    pub diagnostics: Vec<IfcDiagnostic>,
    /// Number of sink calls inspected.
    pub sink_calls_checked: usize,
}

impl PolicyReport {
    /// Whether the function satisfies the policy.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// The lattice-based IFC checker: a lint pass over the information flow
/// analysis' dependency rows.
///
/// ```
/// use flowistry_ifc::lattice::{LatticeSpec, Policy, PolicyChecker};
/// let src = "
///     fn fetch_key() -> i32 { return 42; }
///     fn log_line(x: i32) { }
///     fn audit(n: i32) { let k = fetch_key(); if k > n { log_line(1); } }
/// ";
/// let program = flowistry_lang::compile(src).unwrap();
/// let policy = Policy::default()
///     .with_lattice(LatticeSpec::MultiLevel)
///     .with_fn_label("fetch_key", "High")
///     .with_sink("log_line", "Low");
/// let checker = PolicyChecker::new(&program, policy).unwrap();
/// let report = checker.check_function("audit").unwrap();
/// assert!(!report.is_clean()); // the implicit flow through `if k > n`
/// ```
#[derive(Debug)]
pub struct PolicyChecker<'a> {
    program: &'a CompiledProgram,
    policy: Policy,
    lattice: SecurityLattice,
    /// The policy's sinks, resolved once (see [`PolicyChecker::sinks`]).
    sinks: Vec<(FuncId, Label)>,
    params: AnalysisParams,
}

impl<'a> PolicyChecker<'a> {
    /// Builds a checker, validating that every name in the policy resolves:
    /// labels against the lattice, functions/params/locals against the
    /// program.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`PolicyError`] for the first unresolvable
    /// name.
    pub fn new(program: &'a CompiledProgram, policy: Policy) -> Result<Self, PolicyError> {
        let lattice = policy.lattice.build();
        validate_policy(program, &policy, &lattice)?;
        let mut sinks: Vec<(FuncId, Label)> = Vec::new();
        for (f, c) in &policy.sink_clearances {
            if let (Some(id), Some(c)) = (program.func_id(f), lattice.label(c)) {
                if !sinks.iter().any(|(s, _)| *s == id) {
                    sinks.push((id, c));
                }
            }
        }
        Ok(PolicyChecker {
            program,
            policy,
            lattice,
            sinks,
            params: AnalysisParams::default(),
        })
    }

    /// Overrides the analysis parameters (e.g. to use Whole-program).
    pub fn with_params(mut self, params: AnalysisParams) -> Self {
        self.params = params;
        self
    }

    /// The lattice the policy draws labels from.
    pub fn lattice(&self) -> &SecurityLattice {
        &self.lattice
    }

    /// Checks a single function by name.
    pub fn check_function(&self, name: &str) -> Option<PolicyReport> {
        let func = self.program.func_id(name)?;
        let results = analyze(self.program, func, &self.params);
        Some(self.check_with_results(func, &results))
    }

    /// Checks every function and returns the reports with violations.
    pub fn check_program(&self) -> Vec<PolicyReport> {
        (0..self.program.bodies.len())
            .map(|i| {
                let func = FuncId(i as u32);
                let results = analyze(self.program, func, &self.params);
                self.check_with_results(func, &results)
            })
            .filter(|r| !r.is_clean())
            .collect()
    }

    /// The sinks the policy declares, with their clearances, in policy
    /// order. A sink declared twice keeps its first clearance.
    pub fn sinks(&self) -> &[(FuncId, Label)] {
        &self.sinks
    }

    /// Labels `func`'s dependency values under the policy: every source
    /// above bottom (parameters, call results, labeled locals) with the
    /// dependencies that carry it, and everything its declassification
    /// points release. [`PolicyChecker::check_with_results`] and the lint
    /// passes both read a policy only through this.
    pub fn labels(&self, func: FuncId, results: &InfoFlowResults) -> FunctionLabels {
        let body = self.program.body(func);
        let lat = &self.lattice;
        let bottom = lat.bottom();
        let default = self
            .policy
            .default_label
            .as_deref()
            .and_then(|n| lat.label(n))
            .unwrap_or(bottom);

        // Sources at bottom are dropped: they can never raise a join nor be
        // named as a source.
        let mut sources = Vec::new();
        let mut push = |deps: DepSet, label: Label, description: String| {
            if label != bottom {
                sources.push(LabeledSource {
                    deps,
                    label,
                    description,
                });
            }
        };
        for arg in body.args() {
            let Some(pname) = &body.local_decl(arg).name else {
                continue;
            };
            let l = self
                .policy
                .param_labels
                .iter()
                .find(|(f, p, _)| f == &body.name && p == pname)
                .and_then(|(_, _, l)| lat.label(l))
                .unwrap_or(default);
            push(
                DepSet::from([Dep::Arg(arg)]),
                l,
                format!("parameter `{pname}`"),
            );
        }
        // Calls: the callee's result label, and the set of declassified
        // call locations (from `#[declassify]` or the policy's pairs).
        let mut declassified: Vec<Location> = body.declassified_calls.clone();
        for bb in body.block_ids() {
            let data = body.block(bb);
            let TerminatorKind::Call { func: callee, .. } = &data.terminator().kind else {
                continue;
            };
            let callee_name = &self.program.signature(*callee).name;
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            if self
                .policy
                .declassify
                .iter()
                .any(|(f, c)| f == &body.name && c == callee_name)
            {
                declassified.push(loc);
            }
            let l = self
                .policy
                .fn_labels
                .iter()
                .find(|(f, _)| f == callee_name)
                .and_then(|(_, l)| lat.label(l))
                .unwrap_or(default);
            push(
                DepSet::from([Dep::Instr(loc)]),
                l,
                format!("call to `{callee_name}`"),
            );
        }
        // A labeled local stands for everything its exit value depends on.
        // A policy names locals, not bindings, so every binding of a
        // shadowed name carries the label.
        for (_, vname, lname) in self
            .policy
            .local_labels
            .iter()
            .filter(|(f, _, _)| f == &body.name)
        {
            let Some(l) = lat.label(lname) else {
                continue;
            };
            for (i, _) in body
                .local_decls
                .iter()
                .enumerate()
                .filter(|(_, d)| d.name.as_deref() == Some(vname.as_str()))
            {
                push(
                    results.exit_deps_of_local(Local(i as u32)),
                    l,
                    format!("variable `{vname}`"),
                );
            }
        }

        // Everything a declassified call observed is released: the call's
        // own instruction plus the dependencies of its result. This is
        // deliberately coarse — declassification is an audited escape
        // hatch, and releasing the *sources* the call saw matches the
        // "declassify(e)" intuition even when those sources also reach the
        // sink by another path.
        let mut released = DepSet::new();
        for loc in declassified {
            released.insert(Dep::Instr(loc));
            if let TerminatorKind::Call { destination, .. } =
                &body.block(loc.block).terminator().kind
            {
                released.extend(results.deps_after(destination, loc));
            }
        }
        FunctionLabels { sources, released }
    }

    /// Checks `func` using precomputed analysis results (e.g. served by the
    /// incremental engine).
    pub fn check_with_results(&self, func: FuncId, results: &InfoFlowResults) -> PolicyReport {
        let body = self.program.body(func);
        let source = &self.program.source;
        let lat = &self.lattice;
        let labels = self.labels(func, results);

        let mut diagnostics = Vec::new();
        let mut sink_calls_checked = 0;
        for bb in body.block_ids() {
            let data = body.block(bb);
            let TerminatorKind::Call {
                func: callee,
                args,
                destination,
                ..
            } = &data.terminator().kind
            else {
                continue;
            };
            let Some(&(_, clearance)) = self.sinks.iter().find(|(sink, _)| sink == callee) else {
                continue;
            };
            sink_calls_checked += 1;
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            // What flows into the sink: the arguments' dependencies plus
            // the control dependencies of the call site (visible in the
            // destination's row after the call).
            let incoming = results.call_deps(loc, args, destination);

            let mut incoming_label = lat.bottom();
            let mut sources = Vec::new();
            for s in labels.reaching(&incoming) {
                incoming_label = lat.join(incoming_label, s.label);
                if !lat.leq(s.label, clearance) {
                    sources.push(s.description.clone());
                }
            }
            sources.sort();
            sources.dedup();

            if !lat.leq(incoming_label, clearance) {
                diagnostics.push(IfcDiagnostic {
                    in_function: body.name.clone(),
                    sink: self.program.signature(*callee).name.clone(),
                    location: loc,
                    line: line_of(body, source, loc),
                    incoming_label: lat.name(incoming_label).to_string(),
                    clearance: lat.name(clearance).to_string(),
                    sources,
                    // The backward slice of the sink's inputs (§5.1),
                    // ending at the sink call itself.
                    witness: witness_steps(
                        body,
                        source,
                        incoming.into_iter().chain([Dep::Instr(loc)]),
                    ),
                });
            }
        }

        PolicyReport {
            function: body.name.clone(),
            diagnostics,
            sink_calls_checked,
        }
    }
}

/// One source a policy labels above bottom in one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledSource {
    /// The dependency values that carry the label: the parameter's `Arg`,
    /// the call's instruction, or everything a labeled local's exit value
    /// depends on.
    pub deps: DepSet,
    /// The label.
    pub label: Label,
    /// How diagnostics name the source (e.g. ``call to `read_password` ``).
    pub description: String,
}

/// One policy's labels over one function's flow results (see
/// [`PolicyChecker::labels`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionLabels {
    /// Every source labeled above bottom.
    pub sources: Vec<LabeledSource>,
    /// The dependencies the function's declassification points release.
    pub released: DepSet,
}

impl FunctionLabels {
    /// The sources that reach `incoming` through a dependency no
    /// declassification released.
    fn reaching<'s>(
        &'s self,
        incoming: &'s DepSet,
    ) -> impl Iterator<Item = &'s LabeledSource> + 's {
        self.sources.iter().filter(move |s| {
            s.deps
                .iter()
                .any(|d| incoming.contains(d) && !self.released.contains(d))
        })
    }
}

/// The 1-based source line of a MIR location.
pub fn line_of(body: &Body, source: &str, loc: Location) -> usize {
    let span = match body.stmt_at(loc) {
        Some(stmt) => stmt.span,
        None => body.block(loc.block).terminator().span,
    };
    span.line_of(source)
}

/// A flow witness: the locations of the instruction dependencies in
/// `deps`, in program order.
pub fn witness_steps(
    body: &Body,
    source: &str,
    deps: impl IntoIterator<Item = Dep>,
) -> Vec<WitnessStep> {
    let locs: std::collections::BTreeSet<Location> =
        deps.into_iter().filter_map(|d| d.location()).collect();
    locs.into_iter()
        .map(|location| WitnessStep {
            location,
            line: line_of(body, source, location),
        })
        .collect()
}

/// Validates every name a policy mentions (see [`PolicyChecker::new`]).
fn validate_policy(
    program: &CompiledProgram,
    policy: &Policy,
    lattice: &SecurityLattice,
) -> Result<(), PolicyError> {
    let check_label = |label: &str, context: String| -> Result<(), PolicyError> {
        if lattice.label(label).is_none() {
            return Err(PolicyError::UnknownLabel {
                label: label.to_string(),
                context,
            });
        }
        Ok(())
    };
    let find_body = |name: &str| -> Result<&Body, PolicyError> {
        program
            .body_by_name(name)
            .ok_or_else(|| PolicyError::UnknownFunction(name.to_string()))
    };

    if let Some(l) = &policy.default_label {
        check_label(l, "the default label".to_string())?;
    }
    for (f, l) in &policy.fn_labels {
        find_body(f)?;
        check_label(l, format!("label for function `{f}`"))?;
    }
    for (f, p, l) in &policy.param_labels {
        let body = find_body(f)?;
        if !body
            .args()
            .any(|a| body.local_decl(a).name.as_deref() == Some(p.as_str()))
        {
            return Err(PolicyError::UnknownParam {
                function: f.clone(),
                param: p.clone(),
            });
        }
        check_label(l, format!("label for parameter `{p}` of `{f}`"))?;
    }
    for (f, v, l) in &policy.local_labels {
        let body = find_body(f)?;
        if !body
            .local_decls
            .iter()
            .any(|d| d.name.as_deref() == Some(v.as_str()))
        {
            return Err(PolicyError::UnknownLocal {
                function: f.clone(),
                local: v.clone(),
            });
        }
        check_label(l, format!("label for variable `{v}` in `{f}`"))?;
    }
    for (f, c) in &policy.sink_clearances {
        find_body(f)?;
        check_label(c, format!("clearance of sink `{f}`"))?;
    }
    for (f, c) in &policy.declassify {
        find_body(f)?;
        find_body(c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---------------- lattice algebra ----------------

    #[test]
    fn two_point_orders_public_below_secret() {
        let lat = SecurityLattice::two_point();
        let public = lat.label("Public").unwrap();
        let secret = lat.label("Secret").unwrap();
        assert_eq!(lat.bottom(), public);
        assert_eq!(lat.top(), secret);
        assert!(lat.leq(public, secret));
        assert!(!lat.leq(secret, public));
        assert_eq!(lat.join(public, secret), secret);
        assert_eq!(lat.meet(public, secret), public);
        assert_eq!(lat.name(secret), "Secret");
        assert_eq!(lat.len(), 2);
        assert!(!lat.is_empty());
    }

    #[test]
    fn multi_level_is_a_chain() {
        let lat = SecurityLattice::multi_level();
        let names: Vec<&str> = lat.labels().map(|l| lat.name(l)).collect();
        assert_eq!(names, ["Low", "Med", "High", "TopSecret"]);
        let med = lat.label("Med").unwrap();
        let high = lat.label("High").unwrap();
        assert!(lat.leq(med, high));
        assert!(!lat.leq(high, med));
        assert_eq!(lat.join(med, high), high);
        assert_eq!(lat.meet(med, high), med);
        assert_eq!(lat.name(lat.top()), "TopSecret");
    }

    #[test]
    fn product_joins_componentwise() {
        let lat = SecurityLattice::conf_integrity();
        assert_eq!(lat.len(), 4);
        let st = lat.label("Secret_Trusted").unwrap();
        let pu = lat.label("Public_Untrusted").unwrap();
        // Incomparable: secrecy vs integrity.
        assert!(!lat.leq(st, pu));
        assert!(!lat.leq(pu, st));
        assert_eq!(lat.name(lat.join(st, pu)), "Secret_Untrusted");
        assert_eq!(lat.name(lat.meet(st, pu)), "Public_Trusted");
        assert_eq!(lat.name(lat.bottom()), "Public_Trusted");
        assert_eq!(lat.name(lat.top()), "Secret_Untrusted");
    }

    #[test]
    fn lattice_laws_hold_on_all_builtins() {
        for lat in [
            SecurityLattice::two_point(),
            SecurityLattice::multi_level(),
            SecurityLattice::conf_integrity(),
        ] {
            for a in lat.labels() {
                assert!(lat.leq(lat.bottom(), a));
                assert!(lat.leq(a, lat.top()));
                for b in lat.labels() {
                    // Commutativity and the connecting law a ≤ b ⇔ a⊔b = b.
                    assert_eq!(lat.join(a, b), lat.join(b, a));
                    assert_eq!(lat.meet(a, b), lat.meet(b, a));
                    assert_eq!(lat.leq(a, b), lat.join(a, b) == b);
                    assert_eq!(lat.leq(a, b), lat.meet(a, b) == a);
                }
            }
        }
    }

    #[test]
    fn spec_roundtrips_names() {
        for spec in [
            LatticeSpec::TwoPoint,
            LatticeSpec::MultiLevel,
            LatticeSpec::ConfIntegrity,
        ] {
            assert_eq!(LatticeSpec::parse(spec.kind_name()), Some(spec.clone()));
            assert!(!spec.build().is_empty());
        }
        assert_eq!(LatticeSpec::parse("diamond"), None);
        let linear = LatticeSpec::Linear(vec!["A".into(), "B".into()]);
        assert_eq!(linear.kind_name(), "linear");
        assert_eq!(linear.build().len(), 2);
    }

    // ---------------- policy checking ----------------

    const MULTI_LEVEL_PROGRAM: &str = "
        fn fetch_secret() -> i32 { return 7; }
        fn fetch_config() -> i32 { return 1; }
        fn emit_low(x: i32) { }
        fn emit_high(x: i32) { }
        fn main_like() {
            let s = fetch_secret();
            let c = fetch_config();
            emit_low(c);
            emit_high(s);
            emit_low(s);
        }
    ";

    fn multi_level_policy() -> Policy {
        Policy::default()
            .with_lattice(LatticeSpec::MultiLevel)
            .with_fn_label("fetch_secret", "High")
            .with_fn_label("fetch_config", "Low")
            .with_sink("emit_low", "Low")
            .with_sink("emit_high", "High")
    }

    #[test]
    fn multi_level_flags_only_above_clearance_flows() {
        let prog = flowistry_lang::compile(MULTI_LEVEL_PROGRAM).unwrap();
        let checker = PolicyChecker::new(&prog, multi_level_policy()).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert_eq!(report.sink_calls_checked, 3);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let d = &report.diagnostics[0];
        assert_eq!(d.sink, "emit_low");
        assert_eq!(d.incoming_label, "High");
        assert_eq!(d.clearance, "Low");
        assert_eq!(d.sources, vec!["call to `fetch_secret`".to_string()]);
    }

    #[test]
    fn witness_traces_back_to_the_source() {
        let prog = flowistry_lang::compile(MULTI_LEVEL_PROGRAM).unwrap();
        let checker = PolicyChecker::new(&prog, multi_level_policy()).unwrap();
        let report = checker.check_function("main_like").unwrap();
        let d = &report.diagnostics[0];
        assert!(!d.witness.is_empty());
        // The witness must include the `fetch_secret` call (line 2 of the
        // function body, line 7 of the source).
        let lines: Vec<usize> = d.witness.iter().map(|w| w.line).collect();
        assert!(lines.contains(&7), "witness lines: {lines:?}");
        assert!(d.to_string().contains("witness lines"));
    }

    #[test]
    fn declassify_via_policy_silences_the_flow() {
        let src = "
            fn fetch_secret() -> i32 { return 7; }
            fn hash(x: i32) -> i32 { return x * 31; }
            fn emit_low(x: i32) { }
            fn main_like() {
                let s = fetch_secret();
                let h = hash(s);
                emit_low(h);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::default()
            .with_lattice(LatticeSpec::MultiLevel)
            .with_fn_label("fetch_secret", "High")
            .with_sink("emit_low", "Low");
        let checker = PolicyChecker::new(&prog, policy.clone()).unwrap();
        assert!(!checker.check_function("main_like").unwrap().is_clean());

        let declassified = policy.with_declassify("main_like", "hash");
        let checker = PolicyChecker::new(&prog, declassified).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn declassify_annotation_silences_the_flow() {
        let src = "
            fn fetch_secret() -> i32 { return 7; }
            fn hash(x: i32) -> i32 { return x * 31; }
            fn emit_low(x: i32) { }
            fn main_like() {
                let s = fetch_secret();
                #[declassify] let h = hash(s);
                emit_low(h);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        assert_eq!(
            prog.body_by_name("main_like")
                .unwrap()
                .declassified_calls
                .len(),
            1
        );
        let policy = Policy::default()
            .with_lattice(LatticeSpec::MultiLevel)
            .with_fn_label("fetch_secret", "High")
            .with_sink("emit_low", "Low");
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn annotations_build_the_policy() {
        let src = "
            #![lattice(multi_level)]
            #[label(High)]
            fn fetch_secret() -> i32 { return 7; }
            #[sink(Low)]
            fn emit_low(x: i32) { }
            fn relay(#[label(Med)] m: i32) {
                let s = fetch_secret();
                emit_low(m);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::from_annotations(&prog).unwrap();
        assert_eq!(policy.lattice, LatticeSpec::MultiLevel);
        assert!(policy
            .fn_labels
            .contains(&("fetch_secret".into(), "High".into())));
        assert!(policy
            .sink_clearances
            .contains(&("emit_low".into(), "Low".into())));
        assert!(policy
            .param_labels
            .contains(&("relay".into(), "m".into(), "Med".into())));
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let report = checker.check_function("relay").unwrap();
        // `m` is Med, the sink is cleared for Low only.
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].incoming_label, "Med");
        assert_eq!(
            report.diagnostics[0].sources,
            vec!["parameter `m`".to_string()]
        );
    }

    #[test]
    fn module_policy_defaults_compose_with_annotations() {
        let src = "
            #![lattice(multi_level)]
            #![module_policy(vault, label(High))]
            #![module_policy(console, sink(Low))]
            #[module(vault)]
            fn fetch_key() -> i32 { return 7; }
            #[module(vault)] #[label(Med)]
            fn fetch_hint() -> i32 { return 1; }
            #[module(console)]
            fn emit(x: i32) { }
            fn main_like() {
                let k = fetch_key();
                emit(k);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::from_annotations(&prog).unwrap();
        // Module default applies where the function declared nothing...
        assert!(policy
            .fn_labels
            .contains(&("fetch_key".into(), "High".into())));
        assert!(policy
            .sink_clearances
            .contains(&("emit".into(), "Low".into())));
        // ...but an explicit `#[label]` wins over the module default.
        assert!(policy
            .fn_labels
            .contains(&("fetch_hint".into(), "Med".into())));
        assert!(!policy
            .fn_labels
            .contains(&("fetch_hint".into(), "High".into())));
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].incoming_label, "High");
    }

    #[test]
    fn module_without_policy_is_inert() {
        let src = "#[module(misc)] fn f() -> i32 { return 1; }";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::from_annotations(&prog).unwrap();
        assert!(policy.fn_labels.is_empty());
        assert!(policy.sink_clearances.is_empty());
    }

    #[test]
    fn unknown_module_lattice_is_an_error() {
        let src = "#![lattice(diamond)] fn f() { }";
        let prog = flowistry_lang::compile(src).unwrap();
        let err = Policy::from_annotations(&prog).unwrap_err();
        assert!(matches!(err, PolicyError::UnknownLattice(ref n) if n == "diamond"));
        assert!(err.to_string().contains("diamond"));
    }

    #[test]
    fn default_label_applies_to_unlabeled_data() {
        let src = "
            fn source() -> i32 { return 1; }
            fn emit(x: i32) { }
            fn main_like() { let v = source(); emit(v); }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::default()
            .with_lattice(LatticeSpec::MultiLevel)
            .with_default_label("High")
            .with_sink("emit", "Low");
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].incoming_label, "High");
    }

    #[test]
    fn conf_integrity_catches_untrusted_into_trusted_sink() {
        let src = "
            fn read_input() -> i32 { return 3; }
            fn exec(x: i32) { }
            fn main_like() { let v = read_input(); exec(v); }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::default()
            .with_lattice(LatticeSpec::ConfIntegrity)
            .with_fn_label("read_input", "Public_Untrusted")
            .with_sink("exec", "Secret_Trusted");
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let report = checker.check_function("main_like").unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].incoming_label, "Public_Untrusted");
    }

    // ---------------- validation errors ----------------

    #[test]
    fn unknown_names_are_descriptive_errors() {
        let prog = flowistry_lang::compile("fn f(x: i32) { let y = x; }").unwrap();
        let cases: Vec<(Policy, &str)> = vec![
            (Policy::default().with_fn_label("ghost", "Secret"), "ghost"),
            (Policy::default().with_sink("ghost", "Public"), "ghost"),
            (
                Policy::default().with_param_label("f", "z", "Secret"),
                "`z`",
            ),
            (
                Policy::default().with_local_label("f", "w", "Secret"),
                "`w`",
            ),
            (Policy::default().with_fn_label("f", "Purple"), "Purple"),
            (Policy::default().with_default_label("Purple"), "Purple"),
            (Policy::default().with_declassify("f", "ghost"), "ghost"),
        ];
        for (policy, needle) in cases {
            let err = PolicyChecker::new(&prog, policy).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "message `{msg}` missing `{needle}`");
        }
    }

    #[test]
    fn valid_policy_constructs() {
        let prog = flowistry_lang::compile("fn f(x: i32) { let y = x; }").unwrap();
        let policy = Policy::default()
            .with_param_label("f", "x", "Secret")
            .with_local_label("f", "y", "Secret")
            .with_sink("f", "Public");
        assert!(PolicyChecker::new(&prog, policy).is_ok());
    }

    // ---------------- naming conventions ----------------

    const PASSWORD_PROGRAM: &str = "
        fn read_password() -> i32 { return 1234; }
        fn insecure_print(x: i32) { }
        fn check(input: i32) -> bool {
            let password = read_password();
            if input == password { insecure_print(1); return true; }
            return false;
        }
        fn safe(input: i32) {
            insecure_print(input);
        }
    ";

    #[test]
    fn conventions_flag_only_the_implicit_password_flow() {
        let prog = flowistry_lang::compile(PASSWORD_PROGRAM).unwrap();
        let policy = Policy::from_conventions(&prog);
        assert_eq!(policy.lattice, LatticeSpec::TwoPoint);
        assert_eq!(
            policy.sink_clearances,
            [("insecure_print".to_string(), "Public".to_string())]
        );
        assert_eq!(
            policy.fn_labels,
            [("read_password".to_string(), "Secret".to_string())]
        );
        assert_eq!(
            policy.local_labels,
            [("check".into(), "password".into(), "Secret".into())]
        );
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let reports = checker.check_program();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].function, "check");
        assert_eq!(reports[0].sink_calls_checked, 1);
        assert_eq!(
            reports[0].diagnostics[0].sources,
            ["call to `read_password`", "variable `password`"]
        );
        assert_eq!(
            checker.check_function("safe").unwrap().sink_calls_checked,
            1
        );
        assert!(checker.check_function("ghost").is_none());
    }

    /// A policy labels a name, so a shadowing binding is as secret as the
    /// one it shadows: here only the second `secret` reaches the sink.
    #[test]
    fn every_binding_of_a_labeled_name_is_labeled() {
        let src = "
            fn get(x: i32) -> i32 { return x; }
            fn insecure_print(x: i32) { }
            fn f(a: i32, b: i32) {
                let secret = get(a);
                let secret = get(b);
                insecure_print(secret);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let report = PolicyChecker::new(&prog, Policy::from_conventions(&prog))
            .unwrap()
            .check_function("f")
            .unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{report:?}");
        assert_eq!(report.diagnostics[0].sources, ["variable `secret`"]);
    }

    #[test]
    fn conventions_do_not_flag_lookalike_names() {
        let src = "
            fn secretary() -> i32 { return 1; }
            fn insecure_print(x: i32) { }
            fn office() {
                let not_secret_len = secretary();
                insecure_print(not_secret_len);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::from_conventions(&prog);
        assert!(policy.fn_labels.is_empty(), "{policy:?}");
        assert!(policy.local_labels.is_empty(), "{policy:?}");
        let reports = PolicyChecker::new(&prog, policy).unwrap().check_program();
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn whole_program_params_can_be_used() {
        let prog = flowistry_lang::compile(PASSWORD_PROGRAM).unwrap();
        let params = AnalysisParams::for_condition(flowistry_core::Condition::WHOLE_PROGRAM);
        let report = PolicyChecker::new(&prog, Policy::from_conventions(&prog))
            .unwrap()
            .with_params(params)
            .check_function("check")
            .unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn secret_parameter_taints_only_its_own_flows() {
        let src = "
            fn insecure_send(x: i32) { }
            fn leaky(token: i32, other: i32) { insecure_send(token + 1); }
            fn tidy(token: i32, other: i32) { insecure_send(other); }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::default()
            .with_sink("insecure_send", "Public")
            .with_param_label("leaky", "token", "Secret")
            .with_param_label("tidy", "token", "Secret");
        let checker = PolicyChecker::new(&prog, policy).unwrap();
        let leaky = checker.check_function("leaky").unwrap();
        assert_eq!(leaky.diagnostics.len(), 1, "{:?}", leaky.diagnostics);
        assert_eq!(leaky.diagnostics[0].sources, ["parameter `token`"]);
        let tidy = checker.check_function("tidy").unwrap();
        assert!(tidy.is_clean(), "{:?}", tidy.diagnostics);
        assert_eq!(tidy.sink_calls_checked, 1);
    }

    #[test]
    fn flows_laundered_through_mutation_are_caught() {
        let src = "
            fn insecure_send(x: i32) { }
            fn get_secret() -> i32 { return 99; }
            fn launder() {
                let secret_value = get_secret();
                let mut copy = 0;
                let p = &mut copy;
                *p = secret_value;
                insecure_send(copy);
            }
        ";
        let prog = flowistry_lang::compile(src).unwrap();
        let policy = Policy::default()
            .with_sink("insecure_send", "Public")
            .with_fn_label("get_secret", "Secret");
        let report = PolicyChecker::new(&prog, policy)
            .unwrap()
            .check_function("launder")
            .unwrap();
        assert!(!report.is_clean());
    }
}
