//! The indexed dataflow domain: the information flow fixpoint on dense
//! bit-matrices.
//!
//! The tree-map Θ of [`crate::deps`] is the paper's presentation, but
//! iterating it to a fixpoint deep-copies a `BTreeMap<Place, BTreeSet<Dep>>`
//! for every block visit and again for every statement when materializing
//! per-location results — the single biggest cost in every layer above the
//! analysis. This module is the production representation (what the real
//! Flowistry artifact does with `rustc_index` domains): before the fixpoint
//! starts, every [`Place`] the body can ever track and every [`Dep`] it can
//! ever record are interned into dense `u32`s, the per-place conflict
//! relation is precomputed as bitsets, and every transfer function is
//! *compiled* into an index-level plan. The fixpoint then runs on an
//! [`IndexMatrix`] whose join is a wordwise OR and whose rows are
//! copy-on-write, so the per-statement state snapshots cost one `Arc` clone
//! per row instead of a tree copy.
//!
//! The results are bit-for-bit identical to the legacy tree domain
//! (`DomainKind::Tree`, compiled in only under the `tree-domain` feature);
//! the equivalence suite asserts it over the whole generated corpus and on
//! random programs.

use crate::aliases::{AliasAnalysis, AliasMode};
use crate::condition::AnalysisParams;
use crate::deps::{Dep, DepSet, Theta};
use crate::infoflow::{resolve_callee_summary, BodyGraph, InfoFlowResults, SharedCtx};
use crate::places::{interior_places_with_derefs, readable_places, transitive_refs};
use crate::summary::FunctionSummary;
use flowistry_dataflow::engine::{iterate_to_fixpoint, Analysis};
use flowistry_dataflow::indexed::{BitSet, IndexMatrix, IndexedDomain};
use flowistry_dataflow::{ControlDependencies, JoinSemiLattice};
use flowistry_lang::mir::{
    BasicBlock, Body, Local, Location, Operand, Place, Rvalue, StatementKind, TerminatorKind,
};
use flowistry_lang::types::{FuncId, Ty};
use flowistry_lang::CompiledProgram;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The frozen value tables of one body's domains: index → value, used to
/// answer point queries on indexed states with places and dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DomainTables {
    /// Interned places, in index order.
    pub(crate) places: Vec<Place>,
    /// Interned dependencies, in index order (arguments first, then every
    /// instruction location in block-major order).
    pub(crate) deps: Vec<Dep>,
}

impl DomainTables {
    /// The dependencies of a row (`None`: a row with no dependencies).
    fn decode(&self, row: Option<&BitSet>) -> DepSet {
        row.into_iter()
            .flat_map(BitSet::iter)
            .map(|d| self.deps[d as usize])
            .collect()
    }
}

/// The dependency context Θ in indexed form: one bitset row of dependency
/// indices per *present* place index. Presence is tracked separately from
/// row content because the tree domain's `read_conflicts` fallback depends
/// on which keys exist, not just on which dependencies they hold.
///
/// Rows are only ever written for present places, so the present places
/// and their rows ([`IndexedTheta::entries`]) are the whole state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedTheta {
    rows: IndexMatrix,
    present: BitSet,
}

impl IndexedTheta {
    fn empty(n_places: usize) -> Self {
        IndexedTheta {
            rows: IndexMatrix::with_rows(n_places),
            present: BitSet::new(),
        }
    }

    /// A state from its present place indices, each with its shared row
    /// (`None` for a place with no dependencies). A later entry for the same
    /// place replaces an earlier one.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, Option<Arc<BitSet>>)>) -> Self {
        let mut rows: Vec<Option<Arc<BitSet>>> = Vec::new();
        let mut present = BitSet::new();
        for (place, row) in entries {
            let slot = place as usize;
            if slot >= rows.len() {
                rows.resize(slot + 1, None);
            }
            rows[slot] = row;
            present.insert(place);
        }
        IndexedTheta {
            rows: IndexMatrix::from_rows(rows),
            present,
        }
    }

    /// The present place indices in increasing order, each with its row
    /// (`None` when the place has no dependencies).
    pub fn entries(&self) -> impl Iterator<Item = (u32, Option<&BitSet>)> + '_ {
        self.present.iter().map(|p| (p, self.rows.row(p)))
    }

    /// Whether place index `place` is a key of this state.
    pub fn contains(&self, place: u32) -> bool {
        self.present.contains(place)
    }

    /// The dependency row of place index `place`, if it has one.
    pub fn row(&self, place: u32) -> Option<&BitSet> {
        self.rows.row(place)
    }

    /// Decodes into the tree representation.
    pub(crate) fn to_theta(&self, tables: &DomainTables) -> Theta {
        self.entries()
            .map(|(p, row)| (tables.places[p as usize].clone(), tables.decode(row)))
            .collect()
    }

    /// Interns a tree-form Θ into `places`/`deps`, one fresh row per key.
    #[cfg(feature = "tree-domain")]
    fn intern(
        theta: &Theta,
        places: &mut IndexedDomain<Place>,
        deps: &mut IndexedDomain<Dep>,
    ) -> Self {
        IndexedTheta::from_entries(theta.iter().map(|(place, set)| {
            let row: BitSet = set.iter().map(|&dep| deps.intern(dep)).collect();
            (
                places.intern(place.clone()),
                (!row.is_empty()).then(|| Arc::new(row)),
            )
        }))
    }
}

/// Every per-location state of one analysis in indexed form, with the
/// place and dependency tables their indices refer to: one entry state per
/// basic block, per block one after-state per statement plus one for the
/// terminator, and the exit state.
#[derive(Debug, Clone)]
pub struct IndexedStates {
    pub(crate) tables: Arc<DomainTables>,
    pub(crate) entry: Vec<IndexedTheta>,
    pub(crate) after: Vec<Vec<IndexedTheta>>,
    pub(crate) exit: IndexedTheta,
}

impl IndexedStates {
    /// Assembles states decoded from outside (e.g. a wire format),
    /// validating them: one entry state and a non-empty after-state list
    /// per block, distinct table entries, and every place index and row bit
    /// within its table.
    pub fn new(
        places: Vec<Place>,
        deps: Vec<Dep>,
        entry: Vec<IndexedTheta>,
        after: Vec<Vec<IndexedTheta>>,
        exit: IndexedTheta,
    ) -> Result<Self, String> {
        if entry.len() != after.len() {
            return Err(format!(
                "{} entry states for {} blocks",
                entry.len(),
                after.len()
            ));
        }
        if let Some(block) = after.iter().position(Vec::is_empty) {
            return Err(format!("block {block} has no after-states"));
        }
        if places.iter().collect::<HashSet<_>>().len() != places.len() {
            return Err("place table repeats a place".to_string());
        }
        if deps.iter().collect::<HashSet<_>>().len() != deps.len() {
            return Err("dependency table repeats a dependency".to_string());
        }
        // A row shared by several states is checked once; `last` skips the
        // hash lookup for the common case, a place keeping its row from
        // one state to the next.
        let mut checked: HashSet<*const BitSet> = HashSet::new();
        let mut last = vec![std::ptr::null::<BitSet>(); places.len()];
        for state in entry.iter().chain(after.iter().flatten()).chain([&exit]) {
            for (place, row) in state.entries() {
                let Some(last) = last.get_mut(place as usize) else {
                    return Err(format!(
                        "place {place} is outside the {}-place table",
                        places.len()
                    ));
                };
                if let Some(row) = row {
                    let ptr = row as *const BitSet;
                    if std::mem::replace(last, ptr) != ptr && checked.insert(ptr) {
                        if let Some(dep) = row.iter().find(|&d| d as usize >= deps.len()) {
                            return Err(format!(
                                "dependency {dep} is outside the {}-dependency table",
                                deps.len()
                            ));
                        }
                    }
                }
            }
        }
        Ok(IndexedStates {
            tables: Arc::new(DomainTables { places, deps }),
            entry,
            after,
            exit,
        })
    }

    /// Interns tree-form states into one indexed view.
    #[cfg(feature = "tree-domain")]
    pub(crate) fn intern_trees(entry: &[Theta], after: &[Vec<Theta>], exit: &Theta) -> Self {
        let mut places = IndexedDomain::new();
        let mut deps = IndexedDomain::new();
        let mut intern = |theta: &Theta| IndexedTheta::intern(theta, &mut places, &mut deps);
        let entry = entry.iter().map(&mut intern).collect();
        let after = after
            .iter()
            .map(|block| block.iter().map(&mut intern).collect())
            .collect();
        let exit = intern(exit);
        IndexedStates {
            tables: Arc::new(DomainTables {
                places: places.into_values(),
                deps: deps.into_values(),
            }),
            entry,
            after,
            exit,
        }
    }

    /// Dependencies observable by reading `place` in `state`, one of these
    /// states: the semantics of [`crate::deps::ThetaExt::read_conflicts`] on the
    /// index. The union of the rows of present subplaces of `place`; if no
    /// subplace is present, the union of the rows of present ancestors.
    /// One scan over the present places evaluates the prefix relation, so
    /// `place` need not be in the place table.
    pub(crate) fn read_conflicts(&self, state: &IndexedTheta, place: &Place) -> DepSet {
        let mut subplaces = BitSet::new();
        let mut ancestors = BitSet::new();
        let mut found_sub = false;
        for (p, row) in state.entries() {
            let key = &self.tables.places[p as usize];
            let into = if place.is_prefix_of(key) {
                found_sub = true;
                &mut subplaces
            } else if key.is_prefix_of(place) {
                &mut ancestors
            } else {
                continue;
            };
            if let Some(row) = row {
                into.union(row);
            }
        }
        let bits = if found_sub { subplaces } else { ancestors };
        self.tables.decode(Some(&bits))
    }

    /// The present places of `state`, one of these states, each with its
    /// own dependencies, in `Place` order.
    pub fn sorted_entries(&self, state: &IndexedTheta) -> Vec<(&Place, DepSet)> {
        let mut entries: Vec<(&Place, DepSet)> = state
            .entries()
            .map(|(p, row)| (&self.tables.places[p as usize], self.tables.decode(row)))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// The place table: place index → place.
    pub fn places(&self) -> &[Place] {
        &self.tables.places
    }

    /// The dependency table: row bit → dependency.
    pub fn deps(&self) -> &[Dep] {
        &self.tables.deps
    }

    /// The state at the entry of each basic block.
    pub fn entry(&self) -> &[IndexedTheta] {
        &self.entry
    }

    /// Per basic block, the state after each statement and after the
    /// terminator.
    pub fn after(&self) -> &[Vec<IndexedTheta>] {
        &self.after
    }

    /// The join of the states at every return.
    pub fn exit(&self) -> &IndexedTheta {
        &self.exit
    }
}

impl JoinSemiLattice for IndexedTheta {
    fn join(&mut self, other: &Self) -> bool {
        let rows_changed = self.rows.join_rows(&other.rows);
        let present_changed = self.present.union(&other.present);
        rows_changed | present_changed
    }
}

/// How one mutation resolves: a strong update of the single alias, or a
/// weak `add_to_conflicts` over each alias in order (the order matters for
/// key seeding, so it is the tree path's `BTreeSet` iteration order).
#[derive(Debug)]
enum MutPlan {
    Strong(u32),
    Weak(Vec<u32>),
}

/// Place indices whose `read_conflicts` get unioned into a κ under
/// construction. Sorted and deduplicated — reads are state-preserving, so
/// order and multiplicity cannot matter.
type ReadPlan = Vec<u32>;

/// The compiled transfer of one `Assign` statement.
#[derive(Debug)]
struct AssignPlan {
    /// Dependency index of `Dep::Instr(loc)`.
    instr: u32,
    /// The rvalue's reads.
    reads: ReadPlan,
    /// The assigned place's mutation.
    mutation: MutPlan,
    /// Field-sensitive aggregate refinement: per field, the strong-update
    /// target index and the field operand's reads. Present only when the
    /// assigned place has a single alias, like the tree path.
    aggregate: Option<Vec<(u32, ReadPlan)>>,
}

/// The compiled transfer of a `Call` terminator.
#[derive(Debug)]
enum CallKind {
    /// The modular rule (T-App).
    Modular {
        /// Readable dependencies of all arguments.
        arg_reads: ReadPlan,
        /// Weak-update targets: aliases of every transitively reachable
        /// (unique) reference, in the tree path's iteration order.
        ref_targets: Vec<u32>,
        /// The destination mutation.
        dest: MutPlan,
    },
    /// The whole-program rule via a callee summary.
    Summary {
        /// Per summary mutation: weak-update targets and source reads.
        mutations: Vec<(Vec<u32>, ReadPlan)>,
        /// Reads feeding the return value.
        ret_reads: ReadPlan,
        /// The destination mutation.
        dest: MutPlan,
    },
}

#[derive(Debug)]
enum TermPlan {
    None,
    Call { instr: u32, kind: CallKind },
}

/// The compiled transfer of one basic block.
#[derive(Debug)]
struct BlockPlan {
    /// Control dependencies: per controlling `SwitchBool`, the terminator's
    /// dependency index and the discriminant's reads.
    ctrl: Vec<(u32, ReadPlan)>,
    /// One entry per statement; `None` for `Nop`.
    stmts: Vec<Option<AssignPlan>>,
    term: TermPlan,
    /// Whether the terminator is `Return` (the block contributes to the
    /// exit Θ).
    is_return: bool,
}

/// One body, compiled for the indexed fixpoint: frozen domains, conflict
/// bitsets, and per-block transfer plans. Everything place- and
/// alias-related is resolved here, once — the fixpoint itself touches only
/// indices and bitsets.
pub(crate) struct CompiledBody {
    n_places: usize,
    tables: Arc<DomainTables>,
    /// Per place `p`: indices `q` with `place[p].is_prefix_of(place[q])`.
    subplaces: Vec<BitSet>,
    /// Per place `p`: indices `q` with `place[q].is_prefix_of(place[p])`.
    ancestors: Vec<BitSet>,
    /// Union of the two: the paper's conflict relation `⊓`.
    conflicts: Vec<BitSet>,
    blocks: Vec<BlockPlan>,
    initial: IndexedTheta,
}

impl CompiledBody {
    // ---------------- state operations ----------------
    //
    // These mirror `ThetaExt` exactly, with the place scans replaced by
    // precomputed conflict bitsets intersected with the presence set.

    fn read_conflicts_into(&self, state: &IndexedTheta, p: u32, out: &mut BitSet) {
        let mut found_sub = false;
        for q in self.subplaces[p as usize].iter() {
            if state.present.contains(q) {
                found_sub = true;
                if let Some(row) = state.rows.row(q) {
                    out.union(row);
                }
            }
        }
        if !found_sub {
            for q in self.ancestors[p as usize].iter() {
                if state.present.contains(q) {
                    if let Some(row) = state.rows.row(q) {
                        out.union(row);
                    }
                }
            }
        }
    }

    fn add_to_conflicts(&self, state: &mut IndexedTheta, p: u32, deps: &BitSet) {
        let mut touched_exact = false;
        for q in self.conflicts[p as usize].iter() {
            if state.present.contains(q) {
                state.rows.union_into_row(q, deps);
                if q == p {
                    touched_exact = true;
                }
            }
        }
        if !touched_exact {
            // Same seeding as the tree path: the new key keeps whatever it
            // was readable with before, plus the new dependencies.
            let mut seeded = BitSet::new();
            self.read_conflicts_into(state, p, &mut seeded);
            seeded.union(deps);
            state.rows.set_row(p, seeded);
            state.present.insert(p);
        }
    }

    fn strong_update(&self, state: &mut IndexedTheta, p: u32, deps: BitSet) {
        for q in self.conflicts[p as usize].iter() {
            if q != p && state.present.contains(q) {
                state.rows.union_into_row(q, &deps);
            }
        }
        state.rows.set_row(p, deps);
        state.present.insert(p);
    }

    // ---------------- plan evaluation ----------------

    fn eval_reads(&self, plan: &[u32], state: &IndexedTheta, out: &mut BitSet) {
        for &p in plan {
            self.read_conflicts_into(state, p, out);
        }
    }

    fn control_kappa_into(&self, block: &BlockPlan, state: &IndexedTheta, out: &mut BitSet) {
        for (instr, reads) in &block.ctrl {
            out.insert(*instr);
            self.eval_reads(reads, state, out);
        }
    }

    fn apply_mut_plan(&self, plan: &MutPlan, kappa: BitSet, state: &mut IndexedTheta) {
        match plan {
            MutPlan::Strong(target) => self.strong_update(state, *target, kappa),
            MutPlan::Weak(targets) => {
                for &target in targets {
                    self.add_to_conflicts(state, target, &kappa);
                }
            }
        }
    }

    /// Applies one compiled `Assign` to `state`.
    fn apply_assign(&self, block: &BlockPlan, plan: &AssignPlan, state: &mut IndexedTheta) {
        let mut kappa = BitSet::new();
        kappa.insert(plan.instr);
        self.control_kappa_into(block, state, &mut kappa);
        self.eval_reads(&plan.reads, state, &mut kappa);
        self.apply_mut_plan(&plan.mutation, kappa, state);

        if let Some(fields) = &plan.aggregate {
            for (target, reads) in fields {
                let mut field_kappa = BitSet::new();
                field_kappa.insert(plan.instr);
                self.control_kappa_into(block, state, &mut field_kappa);
                self.eval_reads(reads, state, &mut field_kappa);
                self.strong_update(state, *target, field_kappa);
            }
        }
    }

    /// Applies the compiled terminator to `state`.
    fn apply_terminator_plan(&self, block: &BlockPlan, state: &mut IndexedTheta) {
        let TermPlan::Call { instr, kind } = &block.term else {
            return;
        };
        let mut base = BitSet::new();
        base.insert(*instr);
        self.control_kappa_into(block, state, &mut base);
        match kind {
            CallKind::Modular {
                arg_reads,
                ref_targets,
                dest,
            } => {
                let mut kappa = base;
                self.eval_reads(arg_reads, state, &mut kappa);
                for &target in ref_targets {
                    self.add_to_conflicts(state, target, &kappa);
                }
                self.apply_mut_plan(dest, kappa, state);
            }
            CallKind::Summary {
                mutations,
                ret_reads,
                dest,
            } => {
                for (targets, srcs) in mutations {
                    let mut kappa = base.clone();
                    self.eval_reads(srcs, state, &mut kappa);
                    for &target in targets {
                        self.add_to_conflicts(state, target, &kappa);
                    }
                }
                let mut kappa_ret = base;
                self.eval_reads(ret_reads, state, &mut kappa_ret);
                self.apply_mut_plan(dest, kappa_ret, state);
            }
        }
    }
}

struct IndexedFlowAnalysis<'a> {
    compiled: &'a CompiledBody,
}

impl Analysis for IndexedFlowAnalysis<'_> {
    type Domain = IndexedTheta;

    fn bottom(&self) -> IndexedTheta {
        IndexedTheta::empty(self.compiled.n_places)
    }

    fn initial(&self) -> IndexedTheta {
        self.compiled.initial.clone()
    }

    fn transfer_block(&self, node: usize, state: &mut IndexedTheta) {
        let plan = &self.compiled.blocks[node];
        for assign in plan.stmts.iter().flatten() {
            self.compiled.apply_assign(plan, assign, state);
        }
        self.compiled.apply_terminator_plan(plan, state);
    }
}

// ---------------- compilation ----------------

struct PlanBuilder<'a, 'b, 's> {
    program: &'a CompiledProgram,
    body: &'a Body,
    aliases: &'a AliasAnalysis<'a>,
    params: &'a AnalysisParams,
    ctx: &'a RefCell<SharedCtx<'s>>,
    hit_boundary: &'b Cell<bool>,
    places: IndexedDomain<Place>,
    /// Dependency index of the first location of each block.
    instr_base: Vec<u32>,
    /// Per-callee summary decision, resolved once per distinct callee.
    summaries: HashMap<FuncId, Option<Arc<FunctionSummary>>>,
}

impl PlanBuilder<'_, '_, '_> {
    fn dep_instr(&self, loc: Location) -> u32 {
        self.instr_base[loc.block.index()] + loc.statement_index as u32
    }

    fn intern(&mut self, place: &Place) -> u32 {
        self.places.intern(place.clone())
    }

    /// Alias indices of `place`, in the tree path's `BTreeSet` order.
    fn alias_indices(&mut self, place: &Place) -> Vec<u32> {
        self.aliases
            .aliases(place)
            .iter()
            .map(|alias| self.places.intern(alias.clone()))
            .collect()
    }

    fn read_plan_place(&mut self, place: &Place) -> ReadPlan {
        self.alias_indices(place)
    }

    fn read_plan_operand(&mut self, op: &Operand) -> ReadPlan {
        match op.place() {
            Some(place) => self.read_plan_place(place),
            None => Vec::new(),
        }
    }

    /// The reads of [`FlowAnalysis::arg_read_deps`]: the argument itself
    /// plus everything reachable through references in its signature type.
    fn arg_read_plan(&mut self, arg: &Operand, sig_ty: &Ty) -> ReadPlan {
        let mut out = self.read_plan_operand(arg);
        if let Some(place) = arg.place() {
            for readable in readable_places(place, sig_ty, &self.program.structs) {
                out.extend(self.read_plan_place(&readable));
            }
        }
        out
    }

    fn mut_plan(&mut self, place: &Place) -> MutPlan {
        let aliases = self.alias_indices(place);
        if aliases.len() == 1 {
            MutPlan::Strong(aliases[0])
        } else {
            MutPlan::Weak(aliases)
        }
    }

    fn dedup(mut plan: ReadPlan) -> ReadPlan {
        plan.sort_unstable();
        plan.dedup();
        plan
    }

    fn assign_plan(&mut self, loc: Location, place: &Place, rvalue: &Rvalue) -> AssignPlan {
        let reads = match rvalue {
            Rvalue::Use(op) | Rvalue::UnaryOp(_, op) => self.read_plan_operand(op),
            Rvalue::BinaryOp(_, a, b) => {
                let mut out = self.read_plan_operand(a);
                out.extend(self.read_plan_operand(b));
                out
            }
            Rvalue::Ref { place, .. } => self.read_plan_place(place),
            Rvalue::Aggregate(_, ops) => {
                let mut out = Vec::new();
                for op in ops {
                    out.extend(self.read_plan_operand(op));
                }
                out
            }
        };
        let mutation = self.mut_plan(place);
        let aggregate = match (rvalue, &mutation) {
            (Rvalue::Aggregate(_, ops), MutPlan::Strong(target)) => {
                let target_place = self.places.value(*target).clone();
                Some(
                    ops.iter()
                        .enumerate()
                        .map(|(i, op)| {
                            let field = self.intern(&target_place.field(i as u32));
                            (field, Self::dedup(self.read_plan_operand(op)))
                        })
                        .collect(),
                )
            }
            _ => None,
        };
        AssignPlan {
            instr: self.dep_instr(loc),
            reads: Self::dedup(reads),
            mutation,
            aggregate,
        }
    }

    /// Resolves whether the call to `func` uses a callee summary, mirroring
    /// the tree path's `apply_call` decision (including the boundary flag),
    /// memoized per callee since summaries are call-state-independent.
    fn callee_summary(&mut self, func: FuncId) -> Option<Arc<FunctionSummary>> {
        if !self.params.condition.whole_program {
            return None;
        }
        if !self.params.body_available(func) {
            self.hit_boundary.set(true);
            return None;
        }
        if let Some(resolved) = self.summaries.get(&func) {
            return resolved.clone();
        }
        let resolved =
            resolve_callee_summary(self.program, func, self.params, self.ctx, self.hit_boundary);
        self.summaries.insert(func, resolved.clone());
        resolved
    }

    fn call_plan(
        &mut self,
        loc: Location,
        func: FuncId,
        args: &[Operand],
        destination: &Place,
    ) -> TermPlan {
        let sig = self.program.signature(func);
        let kind = match self.callee_summary(func) {
            Some(summary) => {
                let arg_of = |param: Local| -> Option<(&Operand, &Ty)> {
                    let idx = (param.0 as usize).checked_sub(1)?;
                    Some((args.get(idx)?, sig.inputs.get(idx)?))
                };
                let mut src_plans: HashMap<Local, ReadPlan> = HashMap::new();
                let mut src_plan = |builder: &mut Self, param: Local| -> ReadPlan {
                    if let Some(plan) = src_plans.get(&param) {
                        return plan.clone();
                    }
                    let plan = match arg_of(param) {
                        Some((arg, sig_ty)) => builder.arg_read_plan(arg, sig_ty),
                        None => Vec::new(),
                    };
                    src_plans.insert(param, plan.clone());
                    plan
                };

                let mut mutations = Vec::new();
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
                    let targets = self.alias_indices(&target);
                    let mut srcs = Vec::new();
                    for src in &mutation.sources {
                        srcs.extend(src_plan(self, *src));
                    }
                    mutations.push((targets, Self::dedup(srcs)));
                }

                let mut ret_reads = Vec::new();
                for src in &summary.return_sources {
                    ret_reads.extend(src_plan(self, *src));
                }
                CallKind::Summary {
                    mutations,
                    ret_reads: Self::dedup(ret_reads),
                    dest: self.mut_plan(destination),
                }
            }
            None => {
                let mut arg_reads = Vec::new();
                for (arg, sig_ty) in args.iter().zip(&sig.inputs) {
                    arg_reads.extend(self.arg_read_plan(arg, sig_ty));
                }
                let only_unique = !self.params.condition.mut_blind;
                let mut ref_targets = Vec::new();
                for (arg, sig_ty) in args.iter().zip(&sig.inputs) {
                    let Some(place) = arg.place() else { continue };
                    for rref in transitive_refs(place, sig_ty, &self.program.structs, only_unique) {
                        ref_targets.extend(self.alias_indices(&rref.place));
                    }
                }
                CallKind::Modular {
                    arg_reads: Self::dedup(arg_reads),
                    ref_targets,
                    dest: self.mut_plan(destination),
                }
            }
        };
        TermPlan::Call {
            instr: self.dep_instr(loc),
            kind,
        }
    }

    fn block_plan(&mut self, bb: BasicBlock, control_deps: &ControlDependencies) -> BlockPlan {
        let data = self.body.block(bb);

        let mut ctrl = Vec::new();
        for &dep_node in control_deps.dependencies(bb.index()) {
            let dep_bb = BasicBlock(dep_node as u32);
            let dep_data = self.body.block(dep_bb);
            if let TerminatorKind::SwitchBool { discr, .. } = &dep_data.terminator().kind {
                let term_loc = Location {
                    block: dep_bb,
                    statement_index: dep_data.statements.len(),
                };
                ctrl.push((self.dep_instr(term_loc), self.read_plan_operand(discr)));
            }
        }

        let stmts = data
            .statements
            .iter()
            .enumerate()
            .map(|(i, stmt)| match &stmt.kind {
                StatementKind::Assign(place, rvalue) => {
                    let loc = Location {
                        block: bb,
                        statement_index: i,
                    };
                    Some(self.assign_plan(loc, place, rvalue))
                }
                StatementKind::Nop => None,
            })
            .collect();

        let term_loc = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        let term = match &data.terminator().kind {
            TerminatorKind::Call {
                func,
                args,
                destination,
                ..
            } => self.call_plan(term_loc, *func, args, destination),
            _ => TermPlan::None,
        };

        BlockPlan {
            ctrl,
            stmts,
            term,
            is_return: matches!(data.terminator().kind, TerminatorKind::Return),
        }
    }
}

/// Compiles `body` for the indexed fixpoint: interns both domains, builds
/// the per-block plans (resolving callee summaries where the whole-program
/// condition applies), and freezes the conflict bitsets.
fn compile_body(
    program: &CompiledProgram,
    body: &Body,
    aliases: &AliasAnalysis<'_>,
    control_deps: &ControlDependencies,
    params: &AnalysisParams,
    ctx: &RefCell<SharedCtx<'_>>,
    hit_boundary: &Cell<bool>,
) -> CompiledBody {
    // The dependency domain is fixed up front: arguments first (index
    // `l - 1` for `_l`), then every instruction location in block-major
    // order, so `Dep::Instr` indices are plain offset arithmetic.
    let mut deps: Vec<Dep> = body.args().map(Dep::Arg).collect();
    let mut instr_base = Vec::with_capacity(body.basic_blocks.len());
    for bb in body.block_ids() {
        instr_base.push(deps.len() as u32);
        let n = body.block(bb).statements.len();
        for i in 0..=n {
            deps.push(Dep::Instr(Location {
                block: bb,
                statement_index: i,
            }));
        }
    }

    let mut builder = PlanBuilder {
        program,
        body,
        aliases,
        params,
        ctx,
        hit_boundary,
        places: IndexedDomain::new(),
        instr_base,
        summaries: HashMap::new(),
    };

    // Initial state: every interior place of every argument (following
    // references) starts with that argument's marker, exactly like the tree
    // path's `initial()`.
    let mut initial_rows: Vec<(u32, u32)> = Vec::new();
    for arg in body.args() {
        let ty = body.local_decl(arg).ty.clone();
        let root = Place::from_local(arg);
        let arg_dep = arg.0 - 1;
        for place in interior_places_with_derefs(&root, &ty, &program.structs) {
            initial_rows.push((builder.intern(&place), arg_dep));
        }
    }

    let blocks: Vec<BlockPlan> = body
        .block_ids()
        .map(|bb| builder.block_plan(bb, control_deps))
        .collect();

    // Freeze the place domain and precompute the conflict relation. Places
    // rooted at different locals never conflict, so the quadratic scan runs
    // per root-local group.
    let places = builder.places.into_values();
    let n = places.len();
    let mut subplaces = vec![BitSet::new(); n];
    let mut ancestors = vec![BitSet::new(); n];
    let mut conflicts = vec![BitSet::new(); n];
    let mut by_local: HashMap<Local, Vec<usize>> = HashMap::new();
    for (i, place) in places.iter().enumerate() {
        by_local.entry(place.local).or_default().push(i);
    }
    for group in by_local.values() {
        for &i in group {
            for &j in group {
                if places[i].is_prefix_of(&places[j]) {
                    subplaces[i].insert(j as u32);
                    ancestors[j].insert(i as u32);
                    conflicts[i].insert(j as u32);
                    conflicts[j].insert(i as u32);
                }
            }
        }
    }

    let mut initial = IndexedTheta::empty(n);
    for (place, arg_dep) in initial_rows {
        initial.rows.insert(place, arg_dep);
        initial.present.insert(place);
    }

    CompiledBody {
        n_places: n,
        tables: Arc::new(DomainTables { places, deps }),
        subplaces,
        ancestors,
        conflicts,
        blocks,
        initial,
    }
}

/// The indexed counterpart of `analyze_inner`: compiles the body, runs the
/// fixpoint on [`IndexedTheta`], and reconstructs per-location states —
/// kept in indexed form inside [`InfoFlowResults`], which answers point
/// queries from them.
pub(crate) fn analyze_indexed_inner(
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
    let hit_boundary = Cell::new(false);

    let compiled = compile_body(
        program,
        body,
        &aliases,
        &control_deps,
        params,
        ctx,
        &hit_boundary,
    );
    let analysis = IndexedFlowAnalysis {
        compiled: &compiled,
    };
    let fixpoint = iterate_to_fixpoint(&graph, &analysis);

    // Reconstruct per-location states from the block entry states. Clones
    // here are cheap: copy-on-write rows, so a statement pays only for the
    // rows it touched.
    let mut entry_states = Vec::with_capacity(body.basic_blocks.len());
    let mut after_states = Vec::with_capacity(body.basic_blocks.len());
    let mut exit = IndexedTheta::empty(compiled.n_places);
    for bb in body.block_ids() {
        let entry = fixpoint.entry(bb.index()).clone();
        let plan = &compiled.blocks[bb.index()];
        let mut states = Vec::with_capacity(plan.stmts.len() + 1);
        let mut state = entry.clone();
        for stmt in &plan.stmts {
            if let Some(assign) = stmt {
                compiled.apply_assign(plan, assign, &mut state);
            }
            states.push(state.clone());
        }
        compiled.apply_terminator_plan(plan, &mut state);
        if plan.is_return {
            exit.join(&state);
        }
        states.push(state);
        entry_states.push(entry);
        after_states.push(states);
    }

    ctx.borrow_mut().stack.pop();

    InfoFlowResults::from_indexed_states(
        func,
        IndexedStates {
            tables: compiled.tables,
            entry: entry_states,
            after: after_states,
            exit,
        },
        hit_boundary.get(),
        fixpoint.iterations(),
    )
}

#[cfg(test)]
mod parts_tests {
    use super::*;

    fn place(local: u32) -> Place {
        Place::from_local(Local(local))
    }

    fn state(entries: &[(u32, Option<&Arc<BitSet>>)]) -> IndexedTheta {
        IndexedTheta::from_entries(entries.iter().map(|&(p, row)| (p, row.cloned())))
    }

    #[test]
    fn from_entries_shares_rows_and_lists_present_places() {
        let row = Arc::new([0, 2].into_iter().collect::<BitSet>());
        let theta = state(&[(3, Some(&row)), (1, None), (5, Some(&row))]);
        let entries: Vec<_> = theta.entries().collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (1, None));
        assert!(std::ptr::eq(entries[1].1.unwrap(), &*row));
        assert!(std::ptr::eq(entries[2].1.unwrap(), &*row));
        assert!(theta.contains(1) && !theta.contains(2));
        assert!(std::ptr::eq(theta.row(3).unwrap(), &*row));
        assert!(theta.row(1).is_none());
    }

    #[test]
    fn indexed_states_reject_inconsistent_parts() {
        let places = || vec![place(0), place(1)];
        let deps = || vec![Dep::Arg(Local(1))];
        let row = Arc::new([0].into_iter().collect::<BitSet>());
        let ok = || state(&[(0, Some(&row)), (1, None)]);
        assert!(IndexedStates::new(places(), deps(), vec![ok()], vec![vec![ok()]], ok()).is_ok());
        let checks = [
            (
                IndexedStates::new(places(), deps(), vec![], vec![vec![ok()]], ok()),
                "entry states",
            ),
            (
                IndexedStates::new(places(), deps(), vec![ok()], vec![vec![]], ok()),
                "no after-states",
            ),
            (
                IndexedStates::new(vec![place(0), place(0)], deps(), vec![], vec![], ok()),
                "repeats a place",
            ),
            (
                IndexedStates::new(places(), vec![Dep::Arg(Local(1)); 2], vec![], vec![], ok()),
                "repeats a dependency",
            ),
            (
                IndexedStates::new(places(), deps(), vec![], vec![], state(&[(2, None)])),
                "place 2",
            ),
            (
                IndexedStates::new(places(), vec![], vec![], vec![], ok()),
                "dependency 0",
            ),
        ];
        for (result, why) in checks {
            match result {
                Err(e) => assert!(e.contains(why), "{e:?} lacks {why:?}"),
                Ok(states) => panic!("accepted {states:?}, want {why:?}"),
            }
        }
    }
}

#[cfg(all(test, feature = "tree-domain"))]
mod tests {
    use crate::condition::{AnalysisParams, Condition, DomainKind};
    use crate::infoflow::analyze;
    use flowistry_lang::compile;

    fn both(src: &str, func: &str, condition: Condition) {
        let prog = compile(src).expect("test program compiles");
        let id = prog.func_id(func).expect("function exists");
        let tree = analyze(
            &prog,
            id,
            &AnalysisParams {
                condition,
                domain: DomainKind::Tree,
                ..AnalysisParams::default()
            },
        );
        let indexed = analyze(
            &prog,
            id,
            &AnalysisParams {
                condition,
                domain: DomainKind::Indexed,
                ..AnalysisParams::default()
            },
        );
        assert_eq!(tree, indexed, "domains disagree on `{func}`");
        assert_eq!(tree.iterations(), indexed.iterations());
        // Spot-check the exit iterator too (Place order on both).
        assert!(tree.exit_entries().eq(indexed.exit_entries()));
    }

    #[test]
    fn straight_line_matches_tree() {
        both(
            "fn f(x: i32, y: i32) -> i32 { let a = x + 1; let b = a * 2; return b; }",
            "f",
            Condition::MODULAR,
        );
    }

    #[test]
    fn branches_and_loops_match_tree() {
        both(
            "fn f(c: bool, n: i32) -> i32 {
                 let mut acc = 0; let mut i = 0;
                 while i < n { if c { acc = acc + i; } i = i + 1; }
                 return acc;
             }",
            "f",
            Condition::MODULAR,
        );
    }

    #[test]
    fn references_and_aggregates_match_tree() {
        both(
            "fn f(x: i32, y: i32) -> i32 {
                 let mut t = (x, y);
                 t.1 = 0;
                 let p = &mut t;
                 (*p).0 = y;
                 return t.0;
             }",
            "f",
            Condition::MODULAR,
        );
    }

    #[test]
    fn calls_match_tree_under_every_condition() {
        let src = "
            fn store(p: &mut i32, v: i32) { *p = v; }
            fn reads(p: &i32, v: i32) -> i32 { return *p + v; }
            fn caller(v: i32) -> i32 {
                let mut x = 0;
                store(&mut x, v);
                let s = reads(&x, v);
                return x + s;
            }
        ";
        for condition in Condition::all_eight() {
            both(src, "caller", condition);
        }
    }

    #[test]
    fn recursion_matches_tree() {
        both(
            "fn fact(n: i32, acc: &mut i32) {
                 if n <= 1 { return; }
                 *acc = *acc * n;
                 fact(n - 1, acc);
             }
             fn caller(n: i32) -> i32 { let mut acc = 1; fact(n, &mut acc); return acc; }",
            "caller",
            Condition::WHOLE_PROGRAM,
        );
    }
}
