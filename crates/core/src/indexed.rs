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
//! copy-on-write.
//!
//! The per-location results ([`IndexedStates`]) are stored the way the
//! `results` wire line ships them: one full state per block entry, and per
//! block a flat list of [`Deltas`] — for each statement and the terminator,
//! only the places whose presence or row differs from the state before. A
//! point query walks its block's deltas up to the location over the entry
//! state; no per-statement state is ever built or kept.
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
use std::ops::Range;
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
#[derive(Debug, PartialEq, Eq)]
pub struct IndexedTheta {
    rows: IndexMatrix,
    present: BitSet,
}

impl Clone for IndexedTheta {
    fn clone(&self) -> Self {
        IndexedTheta {
            rows: self.rows.clone(),
            present: self.present.clone(),
        }
    }

    /// Forwards to the rows and the presence set, so rows already shared
    /// with `source` are kept, not re-counted.
    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.present.clone_from(&source.present);
    }
}

/// Whether two rows hold the same dependencies (`None`: no dependencies).
fn same_row(a: Option<&BitSet>, b: Option<&BitSet>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => std::ptr::eq(a, b) || a == b,
        (Some(row), None) | (None, Some(row)) => row.is_empty(),
        (None, None) => true,
    }
}

/// Whether two slots (`None`: absent, else the row) agree in presence and
/// row content.
fn same_slot(a: Option<Option<&BitSet>>, b: Option<Option<&BitSet>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same_row(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
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

    /// The slot of `place`: `None` if absent, else its row.
    fn slot(&self, place: u32) -> Option<Option<&BitSet>> {
        self.present.contains(place).then(|| self.rows.row(place))
    }

    /// Applies one step's delta, sharing its rows.
    fn apply(&mut self, delta: &[DeltaEntry]) {
        for entry in delta {
            match entry {
                DeltaEntry::Set(place, row) => {
                    self.rows.set_row_arc(*place, row.clone());
                    self.present.insert(*place);
                }
                DeltaEntry::Remove(place) => {
                    self.rows.set_row_arc(*place, None);
                    self.present.remove(*place);
                }
            }
        }
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

/// One entry of a step's delta: a place whose presence or row differs
/// from the state before the step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaEntry {
    /// The place is present with this row (`None`: no dependencies).
    Set(u32, Option<Arc<BitSet>>),
    /// The place is absent.
    Remove(u32),
}

impl DeltaEntry {
    /// The place index the entry is about.
    pub fn place(&self) -> u32 {
        match self {
            DeltaEntry::Set(place, _) | DeltaEntry::Remove(place) => *place,
        }
    }

    /// The slot the entry gives its place (`None`: absent).
    fn slot(&self) -> Option<Option<&BitSet>> {
        match self {
            DeltaEntry::Set(_, row) => Some(row.as_deref()),
            DeltaEntry::Remove(_) => None,
        }
    }

    /// The canonical order within a step: sets, then removals, each by
    /// place.
    fn order_key(&self) -> (bool, u32) {
        (matches!(self, DeltaEntry::Remove(_)), self.place())
    }
}

/// The after-states of every block as deltas, in one flat list: per block,
/// per step (each statement, then the terminator), the entries whose
/// presence or row content differs from the state before the step — the
/// block's entry state for its first step.
///
/// Deltas are canonical, so equal states have equal deltas: no entry
/// repeats its step's place or restates the place's previous value, no set
/// carries an empty row, and a step lists its sets, then its removals, each
/// in place order. [`IndexedStates::new`] rejects anything else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Deltas {
    entries: Vec<DeltaEntry>,
    /// Per step, block after block: the end of its entries in `entries`.
    step_ends: Vec<u32>,
    /// Per block: the end of its steps in `step_ends`.
    block_ends: Vec<u32>,
}

impl Deltas {
    /// Appends one step to the current block.
    pub fn push_step(&mut self, entries: impl IntoIterator<Item = DeltaEntry>) {
        self.entries.extend(entries);
        self.step_ends.push(self.entries.len() as u32);
    }

    /// Closes the current block: it holds the steps pushed since the
    /// previous block closed.
    pub fn end_block(&mut self) {
        self.block_ends.push(self.step_ends.len() as u32);
    }

    /// Appends one block whose after-states are `after`, each diffed
    /// against the one before it, from `entry` on. The deltas share the
    /// states' rows.
    pub fn push_block_of_states(&mut self, entry: &IndexedTheta, after: &[IndexedTheta]) {
        let mut prev = entry;
        for next in after {
            let sets = next
                .present
                .iter()
                .filter(|&p| !same_slot(prev.slot(p), next.slot(p)))
                .map(|p| {
                    let row = next.rows.row_arc(p).filter(|row| !row.is_empty());
                    DeltaEntry::Set(p, row.cloned())
                });
            let removals = prev
                .present
                .iter()
                .filter(|&p| !next.contains(p))
                .map(DeltaEntry::Remove);
            self.push_step(sets.chain(removals));
            prev = next;
        }
        self.end_block();
    }

    /// Number of closed blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_ends.len()
    }

    /// The global indices of `block`'s steps.
    fn steps(&self, block: usize) -> Range<usize> {
        let start = block.checked_sub(1).map_or(0, |b| self.block_ends[b]);
        start as usize..self.block_ends[block] as usize
    }

    /// Number of steps of `block`: its statements, then its terminator.
    pub fn num_steps(&self, block: usize) -> usize {
        self.steps(block).len()
    }

    /// The entries of consecutive global steps, in order.
    fn entries_of(&self, steps: Range<usize>) -> &[DeltaEntry] {
        // Where the entries of the first `n` steps end.
        let end = |n: usize| {
            n.checked_sub(1)
                .map_or(0, |last| self.step_ends[last] as usize)
        };
        &self.entries[end(steps.start)..end(steps.end)]
    }

    /// The delta of step `step` of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block has no such step.
    pub fn step(&self, block: usize, step: usize) -> &[DeltaEntry] {
        let steps = self.steps(block);
        assert!(step < steps.len(), "block {block} has no step {step}");
        let step = steps.start + step;
        self.entries_of(step..step + 1)
    }

    /// The deltas of the first `steps` steps of `block`, in order.
    fn prefix(&self, block: usize, steps: usize) -> &[DeltaEntry] {
        let all = self.steps(block);
        assert!(
            steps <= all.len(),
            "block {block} has {} steps, not {steps}",
            all.len()
        );
        self.entries_of(all.start..all.start + steps)
    }
}

/// One state of an [`IndexedStates`]: a full state overlaid with a prefix
/// of its block's deltas (none for a block entry or the exit).
#[derive(Clone, Copy)]
pub(crate) struct StateAt<'a> {
    base: &'a IndexedTheta,
    deltas: &'a [DeltaEntry],
}

impl<'a> StateAt<'a> {
    /// Calls `visit` once per present place with its row, in no particular
    /// order: each place's latest delta entry, walking back, then the
    /// base's places no delta touched.
    fn for_each(&self, mut visit: impl FnMut(u32, Option<&'a BitSet>)) {
        let mut seen = BitSet::new();
        for entry in self.deltas.iter().rev() {
            if seen.insert(entry.place()) {
                if let DeltaEntry::Set(place, row) = entry {
                    visit(*place, row.as_deref());
                }
            }
        }
        for (place, row) in self.base.entries() {
            if !seen.contains(place) {
                visit(place, row);
            }
        }
    }
}

/// Checks each distinct row's bits against the dependency table once.
struct RowCheck {
    deps: usize,
    checked: HashSet<*const BitSet>,
    /// Per place, the row last checked for it: a place mostly keeps its
    /// row from one state to the next, and this skips the hash lookup.
    last: Vec<*const BitSet>,
}

impl RowCheck {
    fn check(&mut self, place: u32, row: &BitSet) -> Result<(), String> {
        let ptr = row as *const BitSet;
        if std::mem::replace(&mut self.last[place as usize], ptr) != ptr && self.checked.insert(ptr)
        {
            if let Some(dep) = row.iter().find(|&d| d as usize >= self.deps) {
                return Err(format!(
                    "dependency {dep} is outside the {}-dependency table",
                    self.deps
                ));
            }
        }
        Ok(())
    }
}

/// Every per-location state of one analysis in indexed form, with the
/// place and dependency tables their indices refer to: one full entry
/// state per basic block, the [`Deltas`] of every block's statements and
/// terminator, and the exit state.
#[derive(Debug, Clone)]
pub struct IndexedStates {
    pub(crate) tables: Arc<DomainTables>,
    pub(crate) entry: Vec<IndexedTheta>,
    pub(crate) deltas: Deltas,
    pub(crate) exit: IndexedTheta,
}

impl IndexedStates {
    /// Assembles states decoded from outside (e.g. a wire format),
    /// validating them: one entry state and at least one step per block,
    /// distinct table entries, every place index and row bit within its
    /// table, and canonical deltas (see [`Deltas`]).
    pub fn new(
        places: Vec<Place>,
        deps: Vec<Dep>,
        entry: Vec<IndexedTheta>,
        deltas: Deltas,
        exit: IndexedTheta,
    ) -> Result<Self, String> {
        if entry.len() != deltas.num_blocks() {
            return Err(format!(
                "{} entry states for {} blocks",
                entry.len(),
                deltas.num_blocks()
            ));
        }
        let closed = deltas.block_ends.last().map_or(0, |&end| end as usize);
        if closed != deltas.step_ends.len() {
            return Err(format!(
                "{} steps belong to no block",
                deltas.step_ends.len() - closed
            ));
        }
        if let Some(block) = (0..entry.len()).find(|&b| deltas.num_steps(b) == 0) {
            return Err(format!("block {block} has no after-states"));
        }
        if places.iter().collect::<HashSet<_>>().len() != places.len() {
            return Err("place table repeats a place".to_string());
        }
        if deps.iter().collect::<HashSet<_>>().len() != deps.len() {
            return Err("dependency table repeats a dependency".to_string());
        }
        let outside =
            |place: u32| format!("place {place} is outside the {}-place table", places.len());
        let mut rows = RowCheck {
            deps: deps.len(),
            checked: HashSet::new(),
            last: vec![std::ptr::null(); places.len()],
        };
        for state in entry.iter().chain([&exit]) {
            for (place, row) in state.entries() {
                if place as usize >= places.len() {
                    return Err(outside(place));
                }
                if let Some(row) = row {
                    rows.check(place, row)?;
                }
            }
        }
        // Replays every block's deltas: per place, the block and step that
        // last set it, and the slot it set.
        type Touch<'a> = (usize, usize, Option<Option<&'a BitSet>>);
        let mut touched: Vec<Option<Touch>> = vec![None; places.len()];
        for (block, block_entry) in entry.iter().enumerate() {
            for step in 0..deltas.num_steps(block) {
                let mut last_key = None;
                for delta in deltas.step(block, step) {
                    let place = delta.place();
                    let Some(touch) = touched.get_mut(place as usize) else {
                        return Err(outside(place));
                    };
                    let at = || format!("block {block} step {step}: place {place}");
                    let before = match *touch {
                        Some((b, s, _)) if (b, s) == (block, step) => {
                            return Err(format!("{} repeats", at()))
                        }
                        Some((b, _, slot)) if b == block => slot,
                        _ => block_entry.slot(place),
                    };
                    let after = delta.slot();
                    if let Some(Some(row)) = after {
                        if row.is_empty() {
                            return Err(format!("{} has an empty row", at()));
                        }
                        rows.check(place, row)?;
                    }
                    if same_slot(before, after) {
                        return Err(format!("{} does not change", at()));
                    }
                    if last_key >= Some(delta.order_key()) {
                        return Err(format!("{} is out of canonical order", at()));
                    }
                    last_key = Some(delta.order_key());
                    *touch = Some((block, step, after));
                }
            }
        }
        Ok(IndexedStates {
            tables: Arc::new(DomainTables { places, deps }),
            entry,
            deltas,
            exit,
        })
    }

    /// Interns tree-form states into one indexed view, diffing each
    /// after-state against the one before it.
    #[cfg(feature = "tree-domain")]
    pub(crate) fn intern_trees(entry: &[Theta], after: &[Vec<Theta>], exit: &Theta) -> Self {
        let mut places = IndexedDomain::new();
        let mut deps = IndexedDomain::new();
        let mut intern = |theta: &Theta| IndexedTheta::intern(theta, &mut places, &mut deps);
        let entry: Vec<IndexedTheta> = entry.iter().map(&mut intern).collect();
        let mut deltas = Deltas::default();
        for (block_entry, block) in entry.iter().zip(after) {
            let states: Vec<IndexedTheta> = block.iter().map(&mut intern).collect();
            deltas.push_block_of_states(block_entry, &states);
        }
        let exit = intern(exit);
        IndexedStates {
            tables: Arc::new(DomainTables {
                places: places.into_values(),
                deps: deps.into_values(),
            }),
            entry,
            deltas,
            exit,
        }
    }

    /// The state after the first `steps` steps of `block`: its entry state
    /// for 0, the state after statement `steps - 1` (or the terminator)
    /// otherwise.
    pub(crate) fn state_at(&self, block: usize, steps: usize) -> StateAt<'_> {
        StateAt {
            base: &self.entry[block],
            deltas: self.deltas.prefix(block, steps),
        }
    }

    /// The exit state.
    pub(crate) fn exit_state(&self) -> StateAt<'_> {
        StateAt {
            base: &self.exit,
            deltas: &[],
        }
    }

    /// Dependencies observable by reading `place` in `state`, one of these
    /// states: the semantics of [`crate::deps::ThetaExt::read_conflicts`] on the
    /// index. The union of the rows of present subplaces of `place`; if no
    /// subplace is present, the union of the rows of present ancestors.
    /// One scan over the present places evaluates the prefix relation, so
    /// `place` need not be in the place table.
    pub(crate) fn read_conflicts(&self, state: StateAt<'_>, place: &Place) -> DepSet {
        let mut subplaces = BitSet::new();
        let mut ancestors = BitSet::new();
        let mut found_sub = false;
        state.for_each(|p, row| {
            let key = &self.tables.places[p as usize];
            let into = if place.is_prefix_of(key) {
                found_sub = true;
                &mut subplaces
            } else if key.is_prefix_of(place) {
                &mut ancestors
            } else {
                return;
            };
            if let Some(row) = row {
                into.union(row);
            }
        });
        let bits = if found_sub { subplaces } else { ancestors };
        self.tables.decode(Some(&bits))
    }

    /// The present places of `state`, one of these states, that satisfy
    /// `keep`, each with its own dependencies, in `Place` order. Only the
    /// kept places' rows are decoded.
    pub(crate) fn sorted_entries_where(
        &self,
        state: &IndexedTheta,
        keep: impl Fn(&Place) -> bool,
    ) -> Vec<(&Place, DepSet)> {
        let mut entries: Vec<(&Place, DepSet)> = state
            .entries()
            .map(|(p, row)| (&self.tables.places[p as usize], row))
            .filter(|(place, _)| keep(place))
            .map(|(place, row)| (place, self.tables.decode(row)))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// The present places of `state`, one of these states, each with its
    /// own dependencies, in `Place` order.
    pub fn sorted_entries(&self, state: &IndexedTheta) -> Vec<(&Place, DepSet)> {
        self.sorted_entries_where(state, |_| true)
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

    /// Every block's after-states, as stored: one delta per statement and
    /// terminator.
    pub fn deltas(&self) -> &Deltas {
        &self.deltas
    }

    /// Rebuilds the after-states of `block` in order — after each
    /// statement, then after the terminator — by applying its deltas to
    /// its entry state. Each state shares its rows with the stored ones.
    pub fn after_states(&self, block: usize) -> impl Iterator<Item = IndexedTheta> + '_ {
        let mut state = self.entry[block].clone();
        (0..self.deltas.num_steps(block)).map(move |step| {
            state.apply(self.deltas.step(block, step));
            state.clone()
        })
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

    /// ORs `deps` into the row of present place `q`, logging the write
    /// only if it changes the row, which keeps the log to real changes.
    fn union_row(&self, state: &mut IndexedTheta, q: u32, deps: &BitSet, log: &mut impl WriteLog) {
        if !state.rows.row(q).is_some_and(|row| row.is_superset(deps)) {
            log.before_write(state, q);
            state.rows.union_into_row(q, deps);
        }
    }

    fn add_to_conflicts(
        &self,
        state: &mut IndexedTheta,
        p: u32,
        deps: &BitSet,
        log: &mut impl WriteLog,
    ) {
        let mut touched_exact = false;
        for q in self.conflicts[p as usize].iter() {
            if state.present.contains(q) {
                self.union_row(state, q, deps, log);
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
            log.before_write(state, p);
            state.rows.set_row(p, seeded);
            state.present.insert(p);
        }
    }

    fn strong_update(
        &self,
        state: &mut IndexedTheta,
        p: u32,
        deps: BitSet,
        log: &mut impl WriteLog,
    ) {
        for q in self.conflicts[p as usize].iter() {
            if q != p && state.present.contains(q) {
                self.union_row(state, q, &deps, log);
            }
        }
        log.before_write(state, p);
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

    fn apply_mut_plan(
        &self,
        plan: &MutPlan,
        kappa: BitSet,
        state: &mut IndexedTheta,
        log: &mut impl WriteLog,
    ) {
        match plan {
            MutPlan::Strong(target) => self.strong_update(state, *target, kappa, log),
            MutPlan::Weak(targets) => {
                for &target in targets {
                    self.add_to_conflicts(state, target, &kappa, log);
                }
            }
        }
    }

    /// Applies one compiled `Assign` to `state`.
    fn apply_assign(
        &self,
        block: &BlockPlan,
        plan: &AssignPlan,
        state: &mut IndexedTheta,
        log: &mut impl WriteLog,
    ) {
        let mut kappa = BitSet::new();
        kappa.insert(plan.instr);
        self.control_kappa_into(block, state, &mut kappa);
        self.eval_reads(&plan.reads, state, &mut kappa);
        self.apply_mut_plan(&plan.mutation, kappa, state, log);

        if let Some(fields) = &plan.aggregate {
            for (target, reads) in fields {
                let mut field_kappa = BitSet::new();
                field_kappa.insert(plan.instr);
                self.control_kappa_into(block, state, &mut field_kappa);
                self.eval_reads(reads, state, &mut field_kappa);
                self.strong_update(state, *target, field_kappa, log);
            }
        }
    }

    /// Applies the compiled terminator to `state`.
    fn apply_terminator_plan(
        &self,
        block: &BlockPlan,
        state: &mut IndexedTheta,
        log: &mut impl WriteLog,
    ) {
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
                    self.add_to_conflicts(state, target, &kappa, log);
                }
                self.apply_mut_plan(dest, kappa, state, log);
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
                        self.add_to_conflicts(state, target, &kappa, log);
                    }
                }
                let mut kappa_ret = base;
                self.eval_reads(ret_reads, state, &mut kappa_ret);
                self.apply_mut_plan(dest, kappa_ret, state, log);
            }
        }
    }
}

/// Sees every place a transfer writes, just before the write.
trait WriteLog {
    fn before_write(&mut self, state: &IndexedTheta, place: u32);
}

/// The fixpoint keeps no log.
impl WriteLog for () {
    fn before_write(&mut self, _: &IndexedTheta, _: u32) {}
}

/// The places one step writes, each with its slot before the step's first
/// write to it. Holding an old row's `Arc` keeps that row intact: the
/// write copies it instead of changing it in place.
#[derive(Default)]
struct StepLog {
    written: BitSet,
    before: Vec<(u32, Option<Option<Arc<BitSet>>>)>,
}

impl WriteLog for StepLog {
    fn before_write(&mut self, state: &IndexedTheta, place: u32) {
        if self.written.insert(place) {
            let slot = state
                .contains(place)
                .then(|| state.rows.row_arc(place).cloned());
            self.before.push((place, slot));
        }
    }
}

impl StepLog {
    /// Ends a step: pushes its canonical delta onto `deltas` — the written
    /// places whose row differs from before the step — and empties the log.
    /// Transfers only ever add places, so every written place is present.
    fn end_step(&mut self, state: &IndexedTheta, deltas: &mut Deltas) {
        self.before.sort_unstable_by_key(|&(place, _)| place);
        for &(place, _) in &self.before {
            self.written.remove(place);
        }
        deltas.push_step(self.before.drain(..).filter_map(|(place, before)| {
            let row = state.rows.row_arc(place).filter(|row| !row.is_empty());
            let after = Some(row.map(|row| &**row));
            (!same_slot(before.as_ref().map(Option::as_deref), after))
                .then(|| DeltaEntry::Set(place, row.cloned()))
        }));
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
            self.compiled.apply_assign(plan, assign, state, &mut ());
        }
        self.compiled.apply_terminator_plan(plan, state, &mut ());
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

    // Replay each block from its entry state, recording what each
    // statement and the terminator change. The entry states hold every
    // row they share with the replay, and the log every row a step is
    // about to overwrite, so no recorded row changes afterwards.
    let iterations = fixpoint.iterations();
    let entry_states = fixpoint.into_entries();
    let mut deltas = Deltas::default();
    let mut log = StepLog::default();
    let mut exit = IndexedTheta::empty(compiled.n_places);
    let mut state = IndexedTheta::empty(compiled.n_places);
    for (plan, entry) in compiled.blocks.iter().zip(&entry_states) {
        state.clone_from(entry);
        for stmt in &plan.stmts {
            if let Some(assign) = stmt {
                compiled.apply_assign(plan, assign, &mut state, &mut log);
            }
            log.end_step(&state, &mut deltas);
        }
        compiled.apply_terminator_plan(plan, &mut state, &mut log);
        log.end_step(&state, &mut deltas);
        deltas.end_block();
        if plan.is_return {
            exit.join(&state);
        }
    }

    ctx.borrow_mut().stack.pop();

    InfoFlowResults::from_indexed_states(
        func,
        IndexedStates {
            tables: compiled.tables,
            entry: entry_states,
            deltas,
            exit,
        },
        hit_boundary.get(),
        iterations,
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
    fn clone_from_matches_clone_and_keeps_the_source_intact() {
        let row = Arc::new([0, 2].into_iter().collect::<BitSet>());
        let other = Arc::new([1].into_iter().collect::<BitSet>());
        let source = state(&[(0, Some(&row)), (2, None), (4, Some(&row))]);
        // A shorter target, a longer one (past the source's last row and
        // past 128 places, so the presence set spills), and one sharing a
        // row with the source already.
        let targets = [
            state(&[(1, Some(&other))]),
            state(&[(0, None), (2, Some(&other)), (7, Some(&other)), (300, None)]),
            state(&[(0, Some(&row)), (3, None)]),
        ];
        for mut target in targets {
            target.clone_from(&source);
            assert_eq!(target, source.clone());
            assert!(target.entries().eq(source.entries()));
            assert!(std::ptr::eq(target.row(0).unwrap(), &*row));
            assert!(std::ptr::eq(target.row(4).unwrap(), &*row));
            // Writing the working state leaves the source's rows alone.
            target.rows.insert(0, 9);
            target.rows.insert(2, 9);
            target.present.insert(5);
            assert_eq!(
                source.row(0).unwrap().iter().collect::<Vec<_>>(),
                vec![0, 2]
            );
            assert!(source.row(2).is_none() && !source.contains(5));
            assert!(std::ptr::eq(source.row(0).unwrap(), &*row));
        }
    }

    /// The deltas of one block given as full states.
    fn block(entry: &IndexedTheta, after: &[IndexedTheta]) -> Deltas {
        let mut deltas = Deltas::default();
        deltas.push_block_of_states(entry, after);
        deltas
    }

    #[test]
    fn indexed_states_reject_inconsistent_parts() {
        let places = || vec![place(0), place(1)];
        let deps = || vec![Dep::Arg(Local(1))];
        let row = Arc::new([0].into_iter().collect::<BitSet>());
        let ok = || state(&[(0, Some(&row)), (1, None)]);
        let one = || block(&ok(), &[ok()]);
        assert!(IndexedStates::new(places(), deps(), vec![ok()], one(), ok()).is_ok());
        let checks = [
            (
                IndexedStates::new(places(), deps(), vec![], one(), ok()),
                "entry states",
            ),
            (
                IndexedStates::new(places(), deps(), vec![ok()], block(&ok(), &[]), ok()),
                "no after-states",
            ),
            (
                IndexedStates::new(
                    vec![place(0), place(0)],
                    deps(),
                    vec![],
                    Deltas::default(),
                    ok(),
                ),
                "repeats a place",
            ),
            (
                IndexedStates::new(
                    places(),
                    vec![Dep::Arg(Local(1)); 2],
                    vec![],
                    Deltas::default(),
                    ok(),
                ),
                "repeats a dependency",
            ),
            (
                IndexedStates::new(
                    places(),
                    deps(),
                    vec![],
                    Deltas::default(),
                    state(&[(2, None)]),
                ),
                "place 2",
            ),
            (
                IndexedStates::new(places(), vec![], vec![], Deltas::default(), ok()),
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

    #[test]
    fn indexed_states_reject_non_canonical_deltas() {
        let places = || vec![place(0), place(1), place(2)];
        let deps = || vec![Dep::Arg(Local(1))];
        let row = Arc::new([0].into_iter().collect::<BitSet>());
        let entry = || state(&[(0, Some(&row)), (1, None)]);
        let with = |steps: &[&[DeltaEntry]]| {
            let mut deltas = Deltas::default();
            for step in steps {
                deltas.push_step(step.iter().cloned());
            }
            deltas.end_block();
            IndexedStates::new(places(), deps(), vec![entry()], deltas, entry())
        };
        let set = |place, row: Option<&Arc<BitSet>>| DeltaEntry::Set(place, row.cloned());
        let canonical = [set(1, Some(&row)), set(2, None), DeltaEntry::Remove(0)];
        assert!(with(&[&canonical, &[DeltaEntry::Remove(2)]]).is_ok());
        let empty = Arc::new(BitSet::new());
        let checks: [(&[DeltaEntry], &str); 7] = [
            (&[set(2, None), set(2, Some(&row))], "place 2 repeats"),
            (
                &[set(1, Some(&row)), DeltaEntry::Remove(1)],
                "place 1 repeats",
            ),
            (&[set(0, Some(&row))], "place 0 does not change"),
            (&[DeltaEntry::Remove(2)], "place 2 does not change"),
            (&[set(2, Some(&empty))], "place 2 has an empty row"),
            (
                &[set(2, None), set(1, Some(&row))],
                "out of canonical order",
            ),
            (
                &[DeltaEntry::Remove(0), set(2, None)],
                "out of canonical order",
            ),
        ];
        for (step, why) in checks {
            match with(&[step]) {
                Err(e) => assert!(e.contains(why), "{e:?} lacks {why:?}"),
                Ok(states) => panic!("accepted {states:?}, want {why:?}"),
            }
        }
        // A step no block closes.
        let mut deltas = block(&entry(), &[entry()]);
        deltas.push_step([]);
        let orphan = IndexedStates::new(places(), deps(), vec![entry()], deltas, entry());
        assert!(orphan.unwrap_err().contains("belong to no block"));
    }

    #[test]
    fn deltas_rebuild_the_states_they_were_diffed_from() {
        let row = Arc::new([0].into_iter().collect::<BitSet>());
        let other = Arc::new([1].into_iter().collect::<BitSet>());
        let entry = state(&[(0, Some(&row)), (1, None)]);
        let after = [
            state(&[(0, Some(&row)), (1, Some(&other))]),
            state(&[(1, Some(&other)), (2, None)]),
            state(&[(1, Some(&other)), (2, None)]),
        ];
        let deltas = block(&entry, &after);
        assert_eq!(deltas.step(0, 0), [DeltaEntry::Set(1, Some(other.clone()))]);
        assert_eq!(
            deltas.step(0, 1),
            [DeltaEntry::Set(2, None), DeltaEntry::Remove(0)]
        );
        assert!(deltas.step(0, 2).is_empty());
        let places = vec![place(0), place(1), place(2)];
        let deps = vec![Dep::Arg(Local(1)), Dep::Arg(Local(2))];
        let states = IndexedStates::new(places, deps, vec![entry], deltas, after[0].clone())
            .expect("canonical parts");
        let rebuilt: Vec<IndexedTheta> = states.after_states(0).collect();
        assert_eq!(rebuilt, after);
        assert!(std::ptr::eq(rebuilt[2].row(1).unwrap(), &*other));
        // A point query past a removal no longer sees the removed place.
        let read = |steps| states.read_conflicts(states.state_at(0, steps), &place(0));
        assert_eq!(read(1).len(), 1);
        assert!(read(2).is_empty());
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
