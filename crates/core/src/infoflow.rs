//! The information flow analysis itself.
//!
//! This module implements the analysis of §2 and §4 of the paper as a
//! forward dataflow pass over MIR:
//!
//! * the state is the dependency context Θ ([`Theta`]): a map from places to
//!   the set of locations (and arguments) that influence their value;
//! * assignments update the conflicts of the assigned place's aliases
//!   (T-Assign / T-AssignDeref); a strong update of an aggregate also gives
//!   every place inside it a key, so a field never reads its siblings'
//!   later writes through the aggregate's key;
//! * function calls are handled modularly from the callee's type signature
//!   (T-App), or by recursive analysis under the Whole-program condition;
//! * indirect flows are added through control dependence (§4.1);
//! * the per-block join is key-wise set union, where a place present on
//!   one side only also gets what reading it on the other side returns
//!   ([`ThetaExt::join_keeping_reads`](crate::deps::ThetaExt::join_keeping_reads)),
//!   and the pass iterates to a fixpoint that visits loop bodies before
//!   loop exits.

#[cfg(feature = "tree-domain")]
use crate::aliases::{AliasAnalysis, AliasMode};
use crate::condition::{AnalysisParams, DomainKind};
#[cfg(feature = "tree-domain")]
use crate::deps::ThetaExt;
use crate::deps::{Dep, DepSet, Theta};
use crate::indexed::{IndexedStates, IndexedTheta};
#[cfg(feature = "tree-domain")]
use crate::places::{
    interior_places, interior_places_with_derefs, readable_places, transitive_refs,
};
use crate::summary::FunctionSummary;
#[cfg(feature = "tree-domain")]
use flowistry_dataflow::engine::iterate_in_order;
use flowistry_dataflow::engine::{iterate_to_fixpoint, Analysis, AnalysisResults};
#[cfg(feature = "tree-domain")]
use flowistry_dataflow::ControlDependencies;
use flowistry_dataflow::{Graph, VecGraph};
use flowistry_lang::mir::{BasicBlock, Body, Local, Location, Operand, Place, TerminatorKind};
#[cfg(feature = "tree-domain")]
use flowistry_lang::mir::{Rvalue, StatementKind};
use flowistry_lang::types::FuncId;
#[cfg(feature = "tree-domain")]
use flowistry_lang::types::{FnSig, Ty};
use flowistry_lang::CompiledProgram;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A CFG adapter exposing a MIR [`Body`] to the dataflow crate: its
/// successor and predecessor lists are built once, in terminator order.
pub struct BodyGraph<'a> {
    body: &'a Body,
    graph: VecGraph,
}

impl<'a> BodyGraph<'a> {
    /// Wraps a body.
    pub fn new(body: &'a Body) -> Self {
        let edges: Vec<(usize, usize)> = body
            .block_ids()
            .flat_map(|bb| {
                body.successors(bb)
                    .map(move |succ| (bb.index(), succ.index()))
            })
            .collect();
        BodyGraph {
            body,
            graph: VecGraph::new(body.basic_blocks.len(), BasicBlock::START.index(), &edges),
        }
    }

    /// Block ids of `Return` terminators, as graph node indices.
    pub fn exit_nodes(&self) -> Vec<usize> {
        self.body
            .block_ids()
            .filter(|bb| {
                matches!(
                    self.body.block(*bb).terminator().kind,
                    TerminatorKind::Return
                )
            })
            .map(|bb| bb.index())
            .collect()
    }
}

impl Graph for BodyGraph<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
    fn start_node(&self) -> usize {
        self.graph.start_node()
    }
    fn successors(&self, node: usize) -> &[usize] {
        self.graph.successors(node)
    }
    fn predecessors(&self, node: usize) -> &[usize] {
        self.graph.predecessors(node)
    }
}

/// A function summary together with the boundary flag of the analysis that
/// produced it — the unit stored by summary caches (the in-run memo table
/// and the incremental engine's content-addressed cache).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedSummary {
    /// The callee's caller-visible effects. `Arc`'d so cloning a cached
    /// entry — which happens for every seed lookup the analysis makes — is
    /// a refcount bump, not a deep copy of the mutation list.
    pub summary: Arc<FunctionSummary>,
    /// Whether computing the summary crossed a crate boundary (§5.4.2);
    /// propagated into every analysis that consumes the cached entry so
    /// [`InfoFlowResults::hit_boundary`] matches a from-scratch run.
    pub hit_boundary: bool,
}

/// A source of precomputed callee summaries consulted before the analysis
/// falls back to recursing into a callee's body.
///
/// The plain in-process seed table is a `HashMap`, but the incremental
/// engine's work-stealing scheduler publishes summaries into a concurrent
/// store while other workers are mid-analysis — so seeding is expressed as
/// a trait and [`analyze_with_summaries`] / [`compute_summary`] accept any
/// implementation. A lookup returns an owned [`CachedSummary`] because
/// concurrent stores cannot hand out references across their lock guards.
pub trait SummaryStore {
    /// The precomputed summary of `func`, if the store has one.
    fn lookup(&self, func: FuncId) -> Option<CachedSummary>;
}

impl SummaryStore for HashMap<FuncId, CachedSummary> {
    fn lookup(&self, func: FuncId) -> Option<CachedSummary> {
        self.get(&func).cloned()
    }
}

/// Shared state threaded through recursive Whole-program analyses.
///
/// `seeds` is the caller-provided summary store (borrowed, so seeding is
/// O(1) no matter how many functions the engine has cached); `memo` is the
/// per-run memo table filled when `memoize_summaries` is on. Shared between
/// the tree and indexed analysis paths (both recurse through
/// [`resolve_callee_summary`]).
#[derive(Default)]
pub(crate) struct SharedCtx<'s> {
    pub(crate) stack: Vec<FuncId>,
    pub(crate) seeds: Option<&'s dyn SummaryStore>,
    pub(crate) memo: HashMap<FuncId, CachedSummary>,
    /// Whether every fixpoint of the run takes its priority from the plain
    /// reverse post-order (see [`analyze_in_reverse_post_order`]).
    #[cfg(feature = "tree-domain")]
    pub(crate) plain_order: bool,
}

/// Runs one body's fixpoint in the loop-aware order
/// ([`iterate_to_fixpoint`]), or in the plain reverse post-order when the
/// run asks for it.
pub(crate) fn run_fixpoint<A: Analysis>(
    graph: &BodyGraph<'_>,
    analysis: &A,
    ctx: &RefCell<SharedCtx<'_>>,
) -> AnalysisResults<A::Domain> {
    #[cfg(feature = "tree-domain")]
    if ctx.borrow().plain_order {
        return iterate_in_order(graph, analysis, &graph.reverse_post_order());
    }
    let _ = ctx; // read only by test builds
    iterate_to_fixpoint(graph, analysis)
}

/// The results of analyzing one function under one condition.
///
/// The per-location states are stored in whichever representation the
/// analysis ran on ([`DomainKind`]): the indexed bitset form, or — under the
/// `tree-domain` feature — tree-map Θ. Readers ask point queries
/// ([`InfoFlowResults::deps_before`], [`InfoFlowResults::deps_after`],
/// [`InfoFlowResults::exit_deps`], [`InfoFlowResults::exit_entries`]),
/// answered straight from the stored states; no tree view is built.
/// `PartialEq`/`Eq` compare every per-location dependency context
/// *semantically* — representation never matters — so the engine's
/// "identical to a from-scratch `analyze`" guarantee can be tested exactly,
/// across domains.
#[derive(Debug, Clone)]
pub struct InfoFlowResults {
    func: FuncId,
    hit_boundary: bool,
    iterations: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    #[cfg(feature = "tree-domain")]
    Tree {
        entry_states: Vec<Theta>,
        after_states: Vec<Vec<Theta>>,
        exit_theta: Theta,
    },
    Indexed(IndexedStates),
}

/// The state just before the instruction at `loc`: the block's entry state
/// for its first instruction, else the state after the previous one.
#[cfg(feature = "tree-domain")]
fn before<'a, T>(entry: &'a [T], after: &'a [Vec<T>], loc: Location) -> &'a T {
    match loc.statement_index.checked_sub(1) {
        None => &entry[loc.block.index()],
        Some(prev) => &after[loc.block.index()][prev],
    }
}

impl PartialEq for InfoFlowResults {
    fn eq(&self, other: &Self) -> bool {
        if self.func != other.func
            || self.hit_boundary != other.hit_boundary
            || self.iterations != other.iterations
        {
            return false;
        }
        // Fast path: two indexed results over the same interning compare
        // index-for-index. Deterministic compilation means two runs of the
        // same function produce identical tables, and canonical deltas mean
        // equal after-states have equal deltas.
        #[allow(irrefutable_let_patterns)]
        if let (Repr::Indexed(a), Repr::Indexed(b)) = (&self.repr, &other.repr) {
            if Arc::ptr_eq(&a.tables, &b.tables) || a.tables == b.tables {
                return a.entry == b.entry && a.deltas == b.deltas && a.exit == b.exit;
            }
        }
        self.raw_parts() == other.raw_parts()
    }
}

impl Eq for InfoFlowResults {}

impl InfoFlowResults {
    #[cfg(feature = "tree-domain")]
    pub(crate) fn from_tree(
        func: FuncId,
        entry_states: Vec<Theta>,
        after_states: Vec<Vec<Theta>>,
        exit_theta: Theta,
        hit_boundary: bool,
        iterations: usize,
    ) -> InfoFlowResults {
        InfoFlowResults {
            func,
            hit_boundary,
            iterations,
            repr: Repr::Tree {
                entry_states,
                after_states,
                exit_theta,
            },
        }
    }

    /// Results over indexed states — as computed by the indexed fixpoint,
    /// or validated by [`IndexedStates::new`] after decoding them from a
    /// wire format. The inverse of [`InfoFlowResults::indexed`].
    pub fn from_indexed_states(
        func: FuncId,
        states: IndexedStates,
        hit_boundary: bool,
        iterations: usize,
    ) -> InfoFlowResults {
        InfoFlowResults {
            func,
            hit_boundary,
            iterations,
            repr: Repr::Indexed(states),
        }
    }

    /// Every per-location state in indexed form: borrowed from indexed
    /// results, interned on the fly from tree-domain ones. This is the hook
    /// a wire codec needs: rebuilding via
    /// [`InfoFlowResults::from_indexed_states`] round-trips to an equal
    /// value, and no [`Theta`] tree is built on the way.
    pub fn indexed(&self) -> Cow<'_, IndexedStates> {
        match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree {
                entry_states,
                after_states,
                exit_theta,
            } => Cow::Owned(IndexedStates::intern_trees(
                entry_states,
                after_states,
                exit_theta,
            )),
            Repr::Indexed(states) => Cow::Borrowed(states),
        }
    }

    /// The analyzed function.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// Dependencies of `place` observable just before `loc`.
    pub fn deps_before(&self, place: &Place, loc: Location) -> DepSet {
        match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree {
                entry_states,
                after_states,
                ..
            } => before(entry_states, after_states, loc).read_conflicts(place),
            Repr::Indexed(states) => states.read_conflicts(
                states.state_at(loc.block.index(), loc.statement_index),
                place,
            ),
        }
    }

    /// Dependencies of `place` observable just after the instruction at
    /// `loc`.
    pub fn deps_after(&self, place: &Place, loc: Location) -> DepSet {
        let (block, index) = (loc.block.index(), loc.statement_index);
        match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree { after_states, .. } => after_states[block][index].read_conflicts(place),
            Repr::Indexed(states) => {
                states.read_conflicts(states.state_at(block, index + 1), place)
            }
        }
    }

    /// Dependencies of `place` at function exit: the join of Θ over all
    /// return locations, the "exit of the CFG" used by the paper's
    /// evaluation metric.
    pub fn exit_deps(&self, place: &Place) -> DepSet {
        match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree { exit_theta, .. } => exit_theta.read_conflicts(place),
            Repr::Indexed(states) => states.read_conflicts(states.exit_state(), place),
        }
    }

    /// Dependencies flowing into the call at `loc`: its arguments' just
    /// before the call, plus `destination`'s just after it, which carry the
    /// call site's control dependencies.
    pub fn call_deps(&self, loc: Location, args: &[Operand], destination: &Place) -> DepSet {
        let mut deps = self.deps_after(destination, loc);
        for arg in args.iter().filter_map(Operand::place) {
            deps.extend(self.deps_before(arg, loc));
        }
        deps
    }

    /// Every place tracked at function exit with its own dependencies (not
    /// its readable ones — see [`InfoFlowResults::exit_deps`]), in `Place`
    /// order.
    pub fn exit_entries(&self) -> impl Iterator<Item = (&Place, DepSet)> + '_ {
        let entries: Vec<(&Place, DepSet)> = match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree { exit_theta, .. } => exit_theta
                .iter()
                .map(|(place, deps)| (place, deps.clone()))
                .collect(),
            Repr::Indexed(states) => states.sorted_entries(&states.exit),
        };
        entries.into_iter()
    }

    /// The exit entries a caller can see: the places of `body`'s parameters
    /// reached through a dereference, each with its own dependencies, in
    /// `Place` order. Only those places' rows are decoded.
    pub fn caller_visible_exit_entries<'a>(
        &'a self,
        body: &Body,
    ) -> impl Iterator<Item = (&'a Place, DepSet)> + 'a {
        let params = 1..=body.arg_count as u32;
        let visible = move |place: &Place| params.contains(&place.local.0) && place.has_deref();
        let entries: Vec<(&Place, DepSet)> = match &self.repr {
            #[cfg(feature = "tree-domain")]
            Repr::Tree { exit_theta, .. } => exit_theta
                .iter()
                .filter(|(place, _)| visible(place))
                .map(|(place, deps)| (place, deps.clone()))
                .collect(),
            Repr::Indexed(states) => states.sorted_entries_where(&states.exit, visible),
        };
        entries.into_iter()
    }

    /// Dependencies of a local variable at function exit (the size of this
    /// set is the paper's per-variable metric).
    pub fn exit_deps_of_local(&self, local: Local) -> DepSet {
        self.exit_deps(&Place::from_local(local))
    }

    /// `(local, dependency set)` for every user-visible variable (named
    /// locals, including parameters) of `body`.
    pub fn user_variable_deps(&self, body: &Body) -> Vec<(Local, DepSet)> {
        body.local_decls
            .iter()
            .enumerate()
            .filter(|(_, d)| d.name.is_some())
            .map(|(i, _)| {
                let local = Local(i as u32);
                (local, self.exit_deps_of_local(local))
            })
            .collect()
    }

    /// Whether a Whole-program run encountered a call whose body was outside
    /// the available set (the paper's crate-boundary event, §5.4.2).
    pub fn hit_boundary(&self) -> bool {
        self.hit_boundary
    }

    /// Number of dataflow iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// All locations whose instruction is in the dependency set of `place`
    /// just before `loc` — a backward slice in the sense of §5.1.
    pub fn backward_slice(&self, place: &Place, loc: Location) -> BTreeSet<Location> {
        self.deps_before(place, loc)
            .iter()
            .filter_map(Dep::location)
            .collect()
    }

    /// Decomposes the results into owned tree-view fields: the function,
    /// the block entry states, the per-block after-states, the exit state,
    /// the boundary flag and the iteration count. Every state is decoded
    /// (tree-domain results: cloned) on every call.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (FuncId, Vec<Theta>, Vec<Vec<Theta>>, Theta, bool, usize) {
        let (func, hit_boundary, iterations) = (self.func, self.hit_boundary, self.iterations);
        #[cfg(feature = "tree-domain")]
        if let Repr::Tree {
            entry_states,
            after_states,
            exit_theta,
        } = &self.repr
        {
            return (
                func,
                entry_states.clone(),
                after_states.clone(),
                exit_theta.clone(),
                hit_boundary,
                iterations,
            );
        }
        let states = self.indexed();
        let decode = |state: &IndexedTheta| state.to_theta(&states.tables);
        (
            func,
            states.entry.iter().map(decode).collect(),
            (0..states.entry.len())
                .map(|block| states.after_states(block).map(|s| decode(&s)).collect())
                .collect(),
            decode(&states.exit),
            hit_boundary,
            iterations,
        )
    }
}

/// Analyzes one function of `program` under `params`.
///
/// # Examples
///
/// ```
/// use flowistry_core::{analyze, AnalysisParams};
/// let prog = flowistry_lang::compile(
///     "fn f(x: i32, y: i32) -> i32 { let z = x + 1; return z; }",
/// ).unwrap();
/// let results = analyze(&prog, prog.func_id("f").unwrap(), &AnalysisParams::default());
/// let ret = results.exit_deps_of_local(flowistry_lang::mir::Local(0));
/// // The return value depends on argument x (arg _1) but not on y (_2).
/// assert!(ret.iter().any(|d| d.arg() == Some(flowistry_lang::mir::Local(1))));
/// assert!(!ret.iter().any(|d| d.arg() == Some(flowistry_lang::mir::Local(2))));
/// ```
pub fn analyze(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
) -> InfoFlowResults {
    let ctx = RefCell::new(SharedCtx::default());
    analyze_dispatch(program, func, params, &ctx)
}

/// [`analyze`] with every fixpoint of the run, callees' included, taking
/// its worklist priority from [`Graph::reverse_post_order`] instead of the
/// loop-aware order. The results must compare equal to [`analyze`]'s:
/// tests use this to check that the answer does not depend on the order.
#[cfg(feature = "tree-domain")]
pub fn analyze_in_reverse_post_order(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
) -> InfoFlowResults {
    let ctx = RefCell::new(SharedCtx {
        plain_order: true,
        ..SharedCtx::default()
    });
    analyze_dispatch(program, func, params, &ctx)
}

/// Runs the analysis on whichever state representation
/// [`AnalysisParams::domain`] selects. Both paths share the recursion
/// context, so whole-program recursion stays on one representation all the
/// way down.
pub(crate) fn analyze_dispatch(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    ctx: &RefCell<SharedCtx<'_>>,
) -> InfoFlowResults {
    match params.domain {
        DomainKind::Indexed => crate::indexed::analyze_indexed_inner(program, func, params, ctx),
        #[cfg(feature = "tree-domain")]
        DomainKind::Tree => analyze_inner(program, func, params, ctx),
    }
}

/// Like [`analyze`], but seeds the callee-summary cache with precomputed
/// entries: when the Whole-program condition needs a callee's summary and
/// `summaries` has one, it is used instead of recursively re-analyzing the
/// callee's body.
///
/// This is the entry point the incremental analysis engine builds on — it
/// computes every function's summary once, bottom-up over the call graph,
/// then serves per-function analyses with all callee summaries pre-seeded.
/// Because the analysis is deterministic, seeding a summary that equals what
/// recursion would have computed leaves the results bit-for-bit identical
/// (the cached [`CachedSummary::hit_boundary`] flag is propagated too).
pub fn analyze_with_summaries(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    summaries: &dyn SummaryStore,
) -> InfoFlowResults {
    let ctx = RefCell::new(SharedCtx {
        seeds: Some(summaries),
        ..SharedCtx::default()
    });
    analyze_dispatch(program, func, params, &ctx)
}

/// Computes just the [`FunctionSummary`] of `func` (plus its boundary flag),
/// reusing any seeded callee summaries. This is the engine's unit of work.
pub fn compute_summary(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    summaries: &dyn SummaryStore,
) -> CachedSummary {
    compute_summary_with_results(program, func, params, summaries).0
}

/// Like [`compute_summary`], but also hands back the full per-location
/// results the summary was extracted from. The summary is a projection of
/// the analysis exit state, so the full results come for free — callers
/// that serve result queries afterwards (the engine's snapshots) keep them
/// instead of re-running the whole analysis per query.
pub fn compute_summary_with_results(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    summaries: &dyn SummaryStore,
) -> (CachedSummary, InfoFlowResults) {
    let results = analyze_with_summaries(program, func, params, summaries);
    let entry = CachedSummary {
        summary: Arc::new(FunctionSummary::from_results(program.body(func), &results)),
        hit_boundary: results.hit_boundary(),
    };
    (entry, results)
}

/// Computes (or fetches) the summary of callee `func`, shared by the tree
/// and indexed transfer functions. Seeded summaries are consulted first,
/// then the per-run memo table; a miss recursively analyzes the callee's
/// body on the current [`DomainKind`]. Returns `None` on recursion cycles
/// or when the depth limit is hit (callers fall back to the modular rule).
/// Boundary flags of cached and recursive results propagate into
/// `hit_boundary`.
pub(crate) fn resolve_callee_summary(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    ctx: &RefCell<SharedCtx<'_>>,
    hit_boundary: &Cell<bool>,
) -> Option<Arc<FunctionSummary>> {
    {
        let ctx_ref = ctx.borrow();
        let cached = ctx_ref
            .seeds
            .and_then(|seeds| seeds.lookup(func))
            .or_else(|| ctx_ref.memo.get(&func).cloned());
        if let Some(cached) = cached {
            if cached.hit_boundary {
                hit_boundary.set(true);
            }
            return Some(cached.summary);
        }
        if ctx_ref.stack.contains(&func) || ctx_ref.stack.len() >= params.max_recursion_depth {
            return None;
        }
    }
    let callee_results = analyze_dispatch(program, func, params, ctx);
    let summary = Arc::new(FunctionSummary::from_results(
        program.body(func),
        &callee_results,
    ));
    if callee_results.hit_boundary() {
        hit_boundary.set(true);
    }
    if params.memoize_summaries {
        ctx.borrow_mut().memo.insert(
            func,
            CachedSummary {
                summary: summary.clone(),
                hit_boundary: callee_results.hit_boundary(),
            },
        );
    }
    Some(summary)
}

#[cfg(feature = "tree-domain")]
fn analyze_inner(
    program: &CompiledProgram,
    func: FuncId,
    params: &AnalysisParams,
    ctx: &RefCell<SharedCtx<'_>>,
) -> InfoFlowResults {
    ctx.borrow_mut().stack.push(func);

    let body = program.body(func);
    let graph = BodyGraph::new(body);
    let exits = graph.exit_nodes();
    let control_deps = ControlDependencies::new(&graph, &exits);
    let alias_mode = if params.condition.ref_blind {
        AliasMode::TypeBased
    } else {
        AliasMode::Lifetimes
    };
    let aliases = AliasAnalysis::new(body, &program.structs, alias_mode);

    let analysis = FlowAnalysis {
        program,
        body,
        aliases,
        control_deps,
        params,
        ctx,
        hit_boundary: Cell::new(false),
    };

    let fixpoint = run_fixpoint(&graph, &analysis, ctx);

    // Reconstruct per-location states from the block entry states.
    let mut entry_states = Vec::with_capacity(body.basic_blocks.len());
    let mut after_states = Vec::with_capacity(body.basic_blocks.len());
    let mut exit_theta = Theta::new();
    for bb in body.block_ids() {
        let entry = fixpoint.entry(bb.index()).clone();
        let data = body.block(bb);
        let mut states = Vec::with_capacity(data.statements.len() + 1);
        let mut state = entry.clone();
        for (i, stmt) in data.statements.iter().enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            analysis.apply_statement(loc, &stmt.kind, &mut state);
            states.push(state.clone());
        }
        let term_loc = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        analysis.apply_terminator(term_loc, &data.terminator().kind, &mut state);
        if matches!(data.terminator().kind, TerminatorKind::Return) {
            exit_theta.join_keeping_reads(&state);
        }
        states.push(state);
        entry_states.push(entry);
        after_states.push(states);
    }

    ctx.borrow_mut().stack.pop();

    InfoFlowResults::from_tree(
        func,
        entry_states,
        after_states,
        exit_theta,
        analysis.hit_boundary.get(),
        fixpoint.iterations(),
    )
}

#[cfg(feature = "tree-domain")]
struct FlowAnalysis<'a, 's> {
    program: &'a CompiledProgram,
    body: &'a Body,
    aliases: AliasAnalysis<'a>,
    control_deps: ControlDependencies,
    params: &'a AnalysisParams,
    ctx: &'a RefCell<SharedCtx<'s>>,
    hit_boundary: Cell<bool>,
}

#[cfg(feature = "tree-domain")]
impl Analysis for FlowAnalysis<'_, '_> {
    type Domain = Theta;

    fn bottom(&self) -> Theta {
        Theta::new()
    }

    fn initial(&self) -> Theta {
        let mut theta = Theta::new();
        for arg in self.body.args() {
            let ty = self.body.local_decl(arg).ty.clone();
            let root = Place::from_local(arg);
            for place in interior_places_with_derefs(&root, &ty, &self.program.structs) {
                theta.insert(place, DepSet::from([Dep::Arg(arg)]));
            }
        }
        theta
    }

    fn transfer_block(&self, node: usize, state: &mut Theta) {
        let bb = BasicBlock(node as u32);
        let data = self.body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            self.apply_statement(loc, &stmt.kind, state);
        }
        let term_loc = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        self.apply_terminator(term_loc, &data.terminator().kind, state);
    }

    fn join(&self, into: &mut Theta, from: &Theta) -> bool {
        into.join_keeping_reads(from)
    }
}

#[cfg(feature = "tree-domain")]
impl FlowAnalysis<'_, '_> {
    // ---------------- reading dependencies ----------------

    fn operand_deps(&self, op: &Operand, state: &Theta) -> DepSet {
        match op.place() {
            Some(place) => self.place_read_deps(place, state),
            None => DepSet::new(),
        }
    }

    fn place_read_deps(&self, place: &Place, state: &Theta) -> DepSet {
        let mut out = DepSet::new();
        for alias in self.aliases.aliases(place) {
            out.extend(state.read_conflicts(&alias));
        }
        out
    }

    fn rvalue_deps(&self, rvalue: &Rvalue, state: &Theta) -> DepSet {
        match rvalue {
            Rvalue::Use(op) | Rvalue::UnaryOp(_, op) => self.operand_deps(op, state),
            Rvalue::BinaryOp(_, a, b) => {
                let mut out = self.operand_deps(a, state);
                out.extend(self.operand_deps(b, state));
                out
            }
            Rvalue::Ref { place, .. } => self.place_read_deps(place, state),
            Rvalue::Aggregate(_, ops) => {
                let mut out = DepSet::new();
                for op in ops {
                    out.extend(self.operand_deps(op, state));
                }
                out
            }
        }
    }

    /// Indirect dependencies of any instruction in `block`: the locations
    /// and discriminant dependencies of every branch the block is
    /// control-dependent on (§4.1, Figure 1).
    fn control_kappa(&self, block: BasicBlock, state: &Theta) -> DepSet {
        let mut out = DepSet::new();
        for &dep_node in self.control_deps.dependencies(block.index()) {
            let dep_bb = BasicBlock(dep_node as u32);
            let data = self.body.block(dep_bb);
            let term_loc = Location {
                block: dep_bb,
                statement_index: data.statements.len(),
            };
            if let TerminatorKind::SwitchBool { discr, .. } = &data.terminator().kind {
                out.insert(Dep::Instr(term_loc));
                out.extend(self.operand_deps(discr, state));
            }
        }
        out
    }

    // ---------------- mutation ----------------

    fn apply_mutation(&self, place: &Place, kappa: DepSet, state: &mut Theta) {
        let aliases = self.aliases.aliases(place);
        if aliases.len() == 1 {
            let target = aliases.into_iter().next().expect("len checked");
            state.strong_update(&target, kappa);
        } else {
            for alias in aliases {
                state.add_to_conflicts(&alias, &kappa);
            }
        }
    }

    /// Applies one statement to `state`.
    pub(crate) fn apply_statement(&self, loc: Location, stmt: &StatementKind, state: &mut Theta) {
        let StatementKind::Assign(place, rvalue) = stmt else {
            return;
        };
        let mut kappa = DepSet::from([Dep::Instr(loc)]);
        kappa.extend(self.control_kappa(loc.block, state));
        kappa.extend(self.rvalue_deps(rvalue, state));

        self.apply_mutation(place, kappa.clone(), state);

        let aliases = self.aliases.aliases(place);
        if aliases.len() != 1 {
            return;
        }
        let target = aliases.into_iter().next().expect("len checked");

        // Field-sensitive refinement for aggregates: the i-th field of the
        // target depends only on the i-th operand (plus the control and
        // location context), not on its siblings.
        if let Rvalue::Aggregate(_, ops) = rvalue {
            for (i, op) in ops.iter().enumerate() {
                let mut field_kappa = DepSet::from([Dep::Instr(loc)]);
                field_kappa.extend(self.control_kappa(loc.block, state));
                field_kappa.extend(self.operand_deps(op, state));
                state.strong_update(&target.field(i as u32), field_kappa);
            }
        }

        // A strong update of an aggregate gives each place inside it a key
        // holding what it reads now. Without one, a place reads through the
        // aggregate's key, which a later write of a sibling field also
        // grows, so the place would read that write too.
        let structs = &self.program.structs;
        let ty = self.body.place_ty(&target, structs);
        for interior in interior_places(&target, &ty, structs).into_iter().skip(1) {
            if !state.contains_key(&interior) {
                let deps = state.read_conflicts(&interior);
                state.insert(interior, deps);
            }
        }
    }

    /// Applies one terminator to `state`.
    pub(crate) fn apply_terminator(&self, loc: Location, term: &TerminatorKind, state: &mut Theta) {
        if let TerminatorKind::Call {
            func,
            args,
            destination,
            ..
        } = term
        {
            self.apply_call(loc, *func, args, destination, state);
        }
    }

    // ---------------- function calls ----------------

    fn apply_call(
        &self,
        loc: Location,
        func: FuncId,
        args: &[Operand],
        destination: &Place,
        state: &mut Theta,
    ) {
        let mut base = DepSet::from([Dep::Instr(loc)]);
        base.extend(self.control_kappa(loc.block, state));
        let sig = self.program.signature(func);

        if self.params.condition.whole_program {
            if self.params.body_available(func) {
                if let Some(summary) = self.callee_summary(func) {
                    self.apply_summary(&summary, sig, args, destination, &base, state);
                    return;
                }
                // Recursive cycle or depth limit: fall back to the modular rule.
            } else {
                self.hit_boundary.set(true);
            }
        }

        self.apply_modular(sig, args, destination, &base, state);
    }

    /// Dependencies readable from one argument: the argument value itself
    /// plus everything reachable through references in its (signature) type.
    fn arg_read_deps(&self, arg: &Operand, sig_ty: &Ty, state: &Theta) -> DepSet {
        let mut out = self.operand_deps(arg, state);
        if let Some(place) = arg.place() {
            for readable in readable_places(place, sig_ty, &self.program.structs) {
                out.extend(self.place_read_deps(&readable, state));
            }
        }
        out
    }

    /// The modular call rule (T-App): the return value and every place
    /// reachable through a (unique) reference in the arguments receive the
    /// union of all readable argument dependencies.
    fn apply_modular(
        &self,
        sig: &FnSig,
        args: &[Operand],
        destination: &Place,
        base: &DepSet,
        state: &mut Theta,
    ) {
        let mut kappa_arg = base.clone();
        for (arg, sig_ty) in args.iter().zip(&sig.inputs) {
            kappa_arg.extend(self.arg_read_deps(arg, sig_ty, state));
        }

        // Mut-blind assumes every reference may be mutated; the modular
        // analysis only assumes unique references are (§5).
        let only_unique = !self.params.condition.mut_blind;
        for (arg, sig_ty) in args.iter().zip(&sig.inputs) {
            let Some(place) = arg.place() else { continue };
            for rref in transitive_refs(place, sig_ty, &self.program.structs, only_unique) {
                for alias in self.aliases.aliases(&rref.place) {
                    state.add_to_conflicts(&alias, &kappa_arg);
                }
            }
        }

        self.apply_mutation(destination, kappa_arg, state);
    }

    /// The Whole-program call rule: use the callee's summary to translate
    /// parameter flows into argument flows.
    fn apply_summary(
        &self,
        summary: &FunctionSummary,
        sig: &FnSig,
        args: &[Operand],
        destination: &Place,
        base: &DepSet,
        state: &mut Theta,
    ) {
        let arg_of = |param: Local| -> Option<(&Operand, &Ty)> {
            let idx = (param.0 as usize).checked_sub(1)?;
            Some((args.get(idx)?, sig.inputs.get(idx)?))
        };
        let source_deps = |param: Local, state: &Theta| -> DepSet {
            match arg_of(param) {
                Some((arg, sig_ty)) => self.arg_read_deps(arg, sig_ty, state),
                None => DepSet::new(),
            }
        };

        for mutation in &summary.mutations {
            let Some((arg, _)) = arg_of(mutation.param) else {
                continue;
            };
            let Some(arg_place) = arg.place() else {
                continue;
            };
            let mut target = arg_place.clone();
            target
                .projection
                .extend(mutation.projection.iter().copied());

            let mut kappa = base.clone();
            for src in &mutation.sources {
                kappa.extend(source_deps(*src, state));
            }
            for alias in self.aliases.aliases(&target) {
                state.add_to_conflicts(&alias, &kappa);
            }
        }

        let mut kappa_ret = base.clone();
        for src in &summary.return_sources {
            kappa_ret.extend(source_deps(*src, state));
        }
        self.apply_mutation(destination, kappa_ret, state);
    }

    /// Computes (or fetches) the callee's summary, re-analyzing its body.
    /// Returns `None` on recursion cycles or when the depth limit is hit.
    /// Shared with the indexed path — see [`resolve_callee_summary`].
    fn callee_summary(&self, func: FuncId) -> Option<Arc<FunctionSummary>> {
        resolve_callee_summary(
            self.program,
            func,
            self.params,
            self.ctx,
            &self.hit_boundary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use flowistry_lang::compile;

    fn find_local(body: &Body, name: &str) -> Local {
        Local(
            body.local_decls
                .iter()
                .position(|d| d.name.as_deref() == Some(name))
                .unwrap_or_else(|| panic!("no local named {name}")) as u32,
        )
    }

    fn run(
        src: &str,
        func: &str,
        condition: Condition,
    ) -> (flowistry_lang::CompiledProgram, InfoFlowResults) {
        let prog = compile(src).expect("compile failure");
        assert!(
            prog.borrow_errors.is_empty(),
            "borrow errors: {:?}",
            prog.borrow_errors
        );
        let id = prog.func_id(func).expect("function not found");
        let results = analyze(&prog, id, &AnalysisParams::for_condition(condition));
        (prog, results)
    }

    fn arg_deps(deps: &DepSet) -> BTreeSet<Local> {
        deps.iter().filter_map(Dep::arg).collect()
    }

    #[test]
    fn straight_line_dependencies_follow_assignments() {
        let (prog, r) = run(
            "fn f(x: i32, y: i32) -> i32 { let a = x + 1; let b = a * 2; return b; }",
            "f",
            Condition::MODULAR,
        );
        let body = prog.body_by_name("f").unwrap();
        let ret = r.exit_deps_of_local(Local(0));
        assert!(arg_deps(&ret).contains(&Local(1)), "return depends on x");
        assert!(
            !arg_deps(&ret).contains(&Local(2)),
            "return does not depend on y"
        );
        let b = find_local(body, "b");
        assert!(!r.exit_deps_of_local(b).is_empty());
    }

    #[test]
    fn field_sensitivity_of_tuples() {
        let (prog, r) = run(
            "fn f(x: i32, y: i32) -> i32 { let mut t = (x, y); t.1 = 0; return t.0; }",
            "f",
            Condition::MODULAR,
        );
        let _ = prog;
        let ret = r.exit_deps_of_local(Local(0));
        // t.0 holds x; mutating t.1 does not taint t.0.
        assert!(arg_deps(&ret).contains(&Local(1)));
        assert!(!arg_deps(&ret).contains(&Local(2)));
    }

    #[test]
    fn mutation_through_reference_updates_pointee() {
        let (prog, r) = run(
            "fn f(x: i32) -> i32 { let mut a = 0; let p = &mut a; *p = x; return a; }",
            "f",
            Condition::MODULAR,
        );
        let _ = prog;
        let ret = r.exit_deps_of_local(Local(0));
        assert!(
            arg_deps(&ret).contains(&Local(1)),
            "a was written with x through p"
        );
    }

    #[test]
    fn control_dependencies_are_tracked() {
        let (prog, r) = run(
            "fn f(c: bool, x: i32) -> i32 { let mut out = 0; if c { out = x; } return out; }",
            "f",
            Condition::MODULAR,
        );
        let _ = prog;
        let ret = r.exit_deps_of_local(Local(0));
        let args = arg_deps(&ret);
        assert!(args.contains(&Local(1)), "return is control-dependent on c");
        assert!(args.contains(&Local(2)));
    }

    #[test]
    fn else_branch_also_control_depends_on_condition() {
        let (prog, r) = run(
            "fn f(c: bool) -> i32 { let mut out = 0; if c { out = 1; } else { out = 2; } return out; }",
            "f",
            Condition::MODULAR,
        );
        let _ = prog;
        let ret = r.exit_deps_of_local(Local(0));
        assert!(arg_deps(&ret).contains(&Local(1)));
    }

    #[test]
    fn loop_carried_dependencies_reach_fixpoint() {
        let (prog, r) = run(
            "fn f(n: i32) -> i32 { let mut acc = 0; let mut i = 0; while i < n { acc = acc + i; i = i + 1; } return acc; }",
            "f",
            Condition::MODULAR,
        );
        let _ = prog;
        let ret = r.exit_deps_of_local(Local(0));
        assert!(
            arg_deps(&ret).contains(&Local(1)),
            "accumulator depends on the bound n"
        );
        assert!(r.iterations() >= 3);
    }

    #[test]
    fn modular_call_assumes_unique_ref_mutated() {
        let src = "
            fn opaque(p: &mut i32, v: i32) { }
            fn caller(v: i32) -> i32 { let mut x = 0; opaque(&mut x, v); return x; }
        ";
        let (_, r) = run(src, "caller", Condition::MODULAR);
        let ret = r.exit_deps_of_local(Local(0));
        assert!(
            arg_deps(&ret).contains(&Local(1)),
            "modularly, x may have been written with v"
        );
    }

    #[test]
    fn modular_call_does_not_assume_shared_ref_mutated() {
        let src = "
            fn reads(p: &i32, v: i32) -> i32 { return *p + v; }
            fn caller(v: i32) -> i32 { let x = 0; let s = reads(&x, v); return x; }
        ";
        let (_, r) = run(src, "caller", Condition::MODULAR);
        let ret = r.exit_deps_of_local(Local(0));
        assert!(
            !arg_deps(&ret).contains(&Local(1)),
            "x is behind a shared reference and cannot be mutated by reads()"
        );
    }

    #[test]
    fn mut_blind_assumes_shared_refs_mutated() {
        let src = "
            fn reads(p: &i32, v: i32) -> i32 { return *p + v; }
            fn caller(v: i32) -> i32 { let x = 0; let s = reads(&x, v); return x; }
        ";
        let (_, r) = run(src, "caller", Condition::MUT_BLIND);
        let ret = r.exit_deps_of_local(Local(0));
        assert!(
            arg_deps(&ret).contains(&Local(1)),
            "mut-blind must conservatively assume x was mutated"
        );
    }

    #[test]
    fn whole_program_sees_that_callee_does_not_mutate() {
        // The paper's §5 example: f(&mut x, y) where f never writes x.
        let src = "
            fn f(a: &mut i32, b: i32) -> i32 { return b + 1; }
            fn caller(y: i32) -> i32 { let mut x = 0; let r = f(&mut x, y); return x; }
        ";
        let (_, modular) = run(src, "caller", Condition::MODULAR);
        let (_, whole) = run(src, "caller", Condition::WHOLE_PROGRAM);
        let modular_ret = arg_deps(&modular.exit_deps_of_local(Local(0)));
        let whole_ret = arg_deps(&whole.exit_deps_of_local(Local(0)));
        assert!(
            modular_ret.contains(&Local(1)),
            "modular assumes the flow y -> x"
        );
        assert!(
            !whole_ret.contains(&Local(1)),
            "whole-program knows x is untouched"
        );
    }

    #[test]
    fn whole_program_return_value_uses_actual_sources() {
        let src = "
            fn pick_second(a: i32, b: i32) -> i32 { return b; }
            fn caller(x: i32, y: i32) -> i32 { return pick_second(x, y); }
        ";
        let (_, modular) = run(src, "caller", Condition::MODULAR);
        let (_, whole) = run(src, "caller", Condition::WHOLE_PROGRAM);
        assert!(arg_deps(&modular.exit_deps_of_local(Local(0))).contains(&Local(1)));
        let whole_args = arg_deps(&whole.exit_deps_of_local(Local(0)));
        assert!(!whole_args.contains(&Local(1)));
        assert!(whole_args.contains(&Local(2)));
    }

    #[test]
    fn whole_program_translates_callee_mutations() {
        let src = "
            fn store(p: &mut i32, v: i32) { *p = v; }
            fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }
        ";
        let (_, whole) = run(src, "caller", Condition::WHOLE_PROGRAM);
        let ret = arg_deps(&whole.exit_deps_of_local(Local(0)));
        assert!(
            ret.contains(&Local(1)),
            "the actual mutation carries v into x"
        );
    }

    #[test]
    fn recursive_functions_fall_back_to_modular() {
        let src = "
            fn fact(n: i32, acc: &mut i32) {
                if n <= 1 { return; }
                *acc = *acc * n;
                fact(n - 1, acc);
            }
            fn caller(n: i32) -> i32 { let mut acc = 1; fact(n, &mut acc); return acc; }
        ";
        let (_, whole) = run(src, "caller", Condition::WHOLE_PROGRAM);
        let ret = arg_deps(&whole.exit_deps_of_local(Local(0)));
        assert!(ret.contains(&Local(1)));
    }

    #[test]
    fn ref_blind_confuses_distinct_references() {
        // The rg3d-style example (§5.3.3): with lifetimes, mutating *parent
        // cannot affect *child; without, it can.
        let src = "
            fn caller(a: i32) -> i32 {
                let mut x = 0;
                let mut y = 0;
                let p = &mut x;
                *p = a;
                let q = &mut y;
                *q = 1;
                return y;
            }
        ";
        let (_, modular) = run(src, "caller", Condition::MODULAR);
        let (_, refblind) = run(src, "caller", Condition::REF_BLIND);
        let modular_args = arg_deps(&modular.exit_deps_of_local(Local(0)));
        let refblind_args = arg_deps(&refblind.exit_deps_of_local(Local(0)));
        assert!(
            !modular_args.contains(&Local(1)),
            "lifetimes keep x and y apart"
        );
        assert!(
            refblind_args.contains(&Local(1)),
            "without lifetimes *p may alias y, so y picks up a's dependency"
        );
    }

    #[test]
    fn dependency_sets_grow_monotonically_with_blind_conditions() {
        let src = "
            fn helper(p: &mut i32, q: &i32, v: i32) { *p = *q + v; }
            fn caller(v: i32) -> i32 {
                let mut a = 0;
                let b = 7;
                helper(&mut a, &b, v);
                return a + b;
            }
        ";
        let (prog, modular) = run(src, "caller", Condition::MODULAR);
        let (_, mut_blind) = run(src, "caller", Condition::MUT_BLIND);
        let (_, ref_blind) = run(src, "caller", Condition::REF_BLIND);
        let body = prog.body_by_name("caller").unwrap();
        for (local, deps) in modular.user_variable_deps(body) {
            let mb = mut_blind.exit_deps_of_local(local);
            let rb = ref_blind.exit_deps_of_local(local);
            assert!(
                deps.len() <= mb.len(),
                "mut-blind must be at least as coarse for {local}"
            );
            assert!(
                deps.len() <= rb.len(),
                "ref-blind must be at least as coarse for {local}"
            );
        }
    }

    #[test]
    fn whole_program_is_at_least_as_precise_as_modular() {
        let src = "
            fn noop(p: &mut i32) { }
            fn double(x: i32) -> i32 { return x * 2; }
            fn caller(a: i32, b: i32) -> i32 {
                let mut acc = a;
                noop(&mut acc);
                let d = double(b);
                return acc + d;
            }
        ";
        let (prog, modular) = run(src, "caller", Condition::MODULAR);
        let (_, whole) = run(src, "caller", Condition::WHOLE_PROGRAM);
        let body = prog.body_by_name("caller").unwrap();
        for (local, deps) in whole.user_variable_deps(body) {
            let m = modular.exit_deps_of_local(local);
            assert!(
                deps.len() <= m.len(),
                "whole-program produced a larger set than modular for {local}"
            );
        }
    }

    #[test]
    fn boundary_tracking_reports_unavailable_callees() {
        let src = "
            fn dep(x: i32) -> i32 { return x; }
            fn caller(x: i32) -> i32 { return dep(x); }
        ";
        let prog = compile(src).unwrap();
        let caller = prog.func_id("caller").unwrap();
        let params = AnalysisParams {
            condition: Condition::WHOLE_PROGRAM,
            available_bodies: Some([caller].into_iter().collect()),
            ..AnalysisParams::default()
        };
        let results = analyze(&prog, caller, &params);
        assert!(results.hit_boundary());

        let all_available = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
        let results2 = analyze(&prog, caller, &all_available);
        assert!(!results2.hit_boundary());
    }

    #[test]
    fn memoized_and_naive_whole_program_agree() {
        let src = "
            fn leaf(p: &mut i32, v: i32) { *p = v; }
            fn mid(p: &mut i32, v: i32) { leaf(p, v + 1); }
            fn caller(v: i32) -> i32 { let mut x = 0; mid(&mut x, v); return x; }
        ";
        let prog = compile(src).unwrap();
        let caller = prog.func_id("caller").unwrap();
        let naive = analyze(
            &prog,
            caller,
            &AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
        );
        let memo = analyze(
            &prog,
            caller,
            &AnalysisParams {
                condition: Condition::WHOLE_PROGRAM,
                memoize_summaries: true,
                ..AnalysisParams::default()
            },
        );
        assert_eq!(
            naive.exit_deps_of_local(Local(0)),
            memo.exit_deps_of_local(Local(0))
        );
    }

    #[test]
    fn figure_one_get_count_flows() {
        // The Figure 1 example adapted to Rox: after get_count, the map *h
        // must depend on the key k (both through insert's mutation and
        // through control flow on contains_key).
        let src = "
            fn contains_key(h: &(i32, i32), k: i32) -> bool { return k == 0 || k == 1; }
            fn insert(h: &mut (i32, i32), k: i32, v: i32) {
                if k == 0 { (*h).0 = v; } else { (*h).1 = v; }
            }
            fn get(h: &(i32, i32), k: i32) -> i32 {
                if k == 0 { return (*h).0; }
                return (*h).1;
            }
            fn get_count(h: &mut (i32, i32), k: i32) -> i32 {
                if !contains_key(h, k) {
                    insert(h, k, 0);
                    return 0;
                }
                return get(h, k);
            }
        ";
        let (prog, r) = run(src, "get_count", Condition::MODULAR);
        let body = prog.body_by_name("get_count").unwrap();
        let h = find_local(body, "h");
        let h_deref_deps = r.exit_deps(&Place::from_local(h).deref());
        let args = arg_deps(&h_deref_deps);
        assert!(
            args.contains(&Local(2)),
            "*h depends on k: {h_deref_deps:?}"
        );
        // The return value depends on both the map and the key.
        let ret = arg_deps(&r.exit_deps_of_local(Local(0)));
        assert!(ret.contains(&Local(1)));
        assert!(ret.contains(&Local(2)));
    }

    #[test]
    fn backward_slice_contains_defining_locations() {
        let src = "fn f(x: i32) -> i32 { let a = x + 1; let b = a * 2; return b; }";
        let (prog, r) = run(src, "f", Condition::MODULAR);
        let body = prog.body_by_name("f").unwrap();
        let returns = body.return_locations();
        let slice = r.backward_slice(&Place::return_place(), returns[0]);
        // The assignments to a and b happen in block 0 before the return.
        assert!(slice.len() >= 2, "slice too small: {slice:?}");
    }

    #[test]
    fn deps_before_is_the_previous_deps_after() {
        let src = "fn f(x: i32) -> i32 { let a = x; let b = a + 1; return b; }";
        let (prog, r) = run(src, "f", Condition::MODULAR);
        let body = prog.body_by_name("f").unwrap();
        assert_eq!(r.func(), prog.func_id("f").unwrap());
        let places: Vec<Place> = (0..body.local_decls.len())
            .map(|l| Place::from_local(Local(l as u32)))
            .collect();
        for loc in body.all_locations() {
            let Some(prev) = loc.statement_index.checked_sub(1) else {
                continue;
            };
            let prev = Location {
                statement_index: prev,
                ..loc
            };
            for place in &places {
                assert_eq!(r.deps_before(place, loc), r.deps_after(place, prev));
            }
        }
        // The first assignment's own location shows up only after it.
        let loc0 = Location {
            block: BasicBlock::START,
            statement_index: 0,
        };
        let a = Place::from_local(find_local(body, "a"));
        assert!(!r.deps_before(&a, loc0).contains(&Dep::Instr(loc0)));
        assert!(r.deps_after(&a, loc0).contains(&Dep::Instr(loc0)));
    }
}
