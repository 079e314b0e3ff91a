//! Mid-level intermediate representation (MIR) for Rox.
//!
//! Programs are lowered into a control-flow graph of basic blocks, mirroring
//! the representation rustc hands to Flowistry (paper §4.1, Figure 1). Each
//! basic block is a list of [`Statement`]s followed by a [`Terminator`]
//! (goto, boolean switch, call, or return).
//!
//! The central datatype for information flow is [`Place`]: a local variable
//! plus a path of field projections and dereferences, i.e. the place
//! expressions `p` of the paper.

pub mod pretty;

use crate::ast::{BinOp, Mutability, UnOp};
use crate::span::Span;
use crate::types::{FuncId, RegionVid, StructId, Ty};
use std::fmt;
use std::fmt::Write as _;

/// A local variable slot in a [`Body`].
///
/// By convention `_0` is the return place and `_1.._arg_count` are the
/// function arguments, exactly as in rustc MIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Local(pub u32);

impl Local {
    /// The return place `_0`.
    pub const RETURN: Local = Local(0);

    /// Index into `Body::local_decls`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Local {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}", self.0)
    }
}

/// A basic block id in a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BasicBlock(pub u32);

impl BasicBlock {
    /// The entry block `bb0`.
    pub const START: BasicBlock = BasicBlock(0);

    /// Index into `Body::basic_blocks`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A position in the CFG: a block and a statement index within it.
///
/// `statement_index == block.statements.len()` denotes the terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Location {
    /// Which basic block.
    pub block: BasicBlock,
    /// Statement index; the terminator sits one past the last statement.
    pub statement_index: usize,
}

impl Location {
    /// The very first location of a body.
    pub const START: Location = Location {
        block: BasicBlock::START,
        statement_index: 0,
    };
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.block, self.statement_index)
    }
}

/// One element of a place's projection path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlaceElem {
    /// Field access `.n` (tuple index or struct field index).
    Field(u32),
    /// Pointer dereference `*`.
    Deref,
}

/// Renders a projection path in the shared text-codec grammar — `*` for a
/// dereference, `.N` for a field — used by both the summary cache codec
/// (`FunctionSummary::encode`) and the network wire protocol. Inverted
/// exactly by [`parse_projection`].
pub fn encode_projection(projection: &[PlaceElem]) -> String {
    let mut out = String::new();
    push_projection(&mut out, projection);
    out
}

/// Appends [`encode_projection`]'s text for `projection` to `out`.
pub fn push_projection(out: &mut String, projection: &[PlaceElem]) {
    for elem in projection {
        match elem {
            PlaceElem::Deref => out.push('*'),
            PlaceElem::Field(i) => {
                out.push('.');
                let _ = write!(out, "{i}");
            }
        }
    }
}

/// Parses [`encode_projection`]'s output. Returns `None` on any malformed
/// text (codecs treat that as a decode failure, never a panic).
pub fn parse_projection(text: &str) -> Option<Vec<PlaceElem>> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(c) = rest.bytes().next() {
        match c {
            b'*' => {
                out.push(PlaceElem::Deref);
                rest = &rest[1..];
            }
            b'.' => {
                let digits = rest[1..].bytes().take_while(u8::is_ascii_digit).count();
                out.push(PlaceElem::Field(rest[1..1 + digits].parse().ok()?));
                rest = &rest[1 + digits..];
            }
            _ => return None,
        }
    }
    Some(out)
}

/// A place: a local plus a projection path — the `p` of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Place {
    /// The root local variable.
    pub local: Local,
    /// Projection path applied left-to-right.
    pub projection: Vec<PlaceElem>,
}

impl Place {
    /// A place with no projections.
    pub fn from_local(local: Local) -> Self {
        Place {
            local,
            projection: Vec::new(),
        }
    }

    /// The return place `_0`.
    pub fn return_place() -> Self {
        Place::from_local(Local::RETURN)
    }

    /// Extends the place with one more projection element.
    pub fn project(&self, elem: PlaceElem) -> Place {
        let mut projection = self.projection.clone();
        projection.push(elem);
        Place {
            local: self.local,
            projection,
        }
    }

    /// Extends the place with a field projection.
    pub fn field(&self, idx: u32) -> Place {
        self.project(PlaceElem::Field(idx))
    }

    /// Extends the place with a dereference.
    pub fn deref(&self) -> Place {
        self.project(PlaceElem::Deref)
    }

    /// Whether the projection path contains a dereference.
    pub fn has_deref(&self) -> bool {
        self.projection.contains(&PlaceElem::Deref)
    }

    /// Whether `self` is a prefix of `other` (same local, and `other`'s path
    /// starts with `self`'s path). Every place is a prefix of itself.
    pub fn is_prefix_of(&self, other: &Place) -> bool {
        self.local == other.local
            && self.projection.len() <= other.projection.len()
            && self
                .projection
                .iter()
                .zip(&other.projection)
                .all(|(a, b)| a == b)
    }

    /// The paper's *disjointness* (`#`): different locals, or neither path is
    /// a prefix of the other (siblings).
    pub fn is_disjoint_from(&self, other: &Place) -> bool {
        !self.is_prefix_of(other) && !other.is_prefix_of(self)
    }

    /// The paper's *conflict* relation (`⊓`): ancestors and descendants
    /// conflict, siblings do not (§2.1). Mutating a place changes the value
    /// of exactly its conflicting places.
    pub fn conflicts_with(&self, other: &Place) -> bool {
        !self.is_disjoint_from(other)
    }
}

impl From<Local> for Place {
    fn from(local: Local) -> Self {
        Place::from_local(local)
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like rustc: derefs wrap the prefix in parens.
        let mut s = format!("{}", self.local);
        for elem in &self.projection {
            match elem {
                PlaceElem::Field(i) => s = format!("{s}.{i}"),
                PlaceElem::Deref => s = format!("(*{s})"),
            }
        }
        write!(f, "{s}")
    }
}

/// A compile-time constant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstValue {
    /// `()`
    Unit,
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
}

impl fmt::Display for ConstValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstValue::Unit => write!(f, "()"),
            ConstValue::Int(n) => write!(f, "const {n}"),
            ConstValue::Bool(b) => write!(f, "const {b}"),
        }
    }
}

/// An operand: the argument of an rvalue, call or switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Copy the value out of a place.
    Copy(Place),
    /// Move the value out of a place (used for unique references).
    Move(Place),
    /// A constant.
    Constant(ConstValue),
}

impl Operand {
    /// The place read by this operand, if any.
    pub fn place(&self) -> Option<&Place> {
        match self {
            Operand::Copy(p) | Operand::Move(p) => Some(p),
            Operand::Constant(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Copy(p) => write!(f, "{p}"),
            Operand::Move(p) => write!(f, "move {p}"),
            Operand::Constant(c) => write!(f, "{c}"),
        }
    }
}

/// Aggregate kinds: tuples and structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// `(a, b, c)`
    Tuple,
    /// `Name { ... }`
    Struct(StructId),
}

/// Right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Plain use of an operand.
    Use(Operand),
    /// Binary operation.
    BinaryOp(BinOp, Operand, Operand),
    /// Unary operation.
    UnaryOp(UnOp, Operand),
    /// Borrow expression `&'r [mut] place` — creates a loan for region `r`.
    Ref {
        /// Region (provenance) of the borrow.
        region: RegionVid,
        /// Shared or unique.
        mutbl: Mutability,
        /// The borrowed place.
        place: Place,
    },
    /// Tuple or struct construction.
    Aggregate(AggregateKind, Vec<Operand>),
}

impl Rvalue {
    /// All operands read by this rvalue, in order.
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        let (pair, rest): ([Option<&Operand>; 2], &[Operand]) = match self {
            Rvalue::Use(o) | Rvalue::UnaryOp(_, o) => ([Some(o), None], &[]),
            Rvalue::BinaryOp(_, a, b) => ([Some(a), Some(b)], &[]),
            Rvalue::Ref { .. } => ([None, None], &[]),
            Rvalue::Aggregate(_, ops) => ([None, None], ops),
        };
        pair.into_iter().flatten().chain(rest)
    }
}

impl fmt::Display for Rvalue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rvalue::Use(o) => write!(f, "{o}"),
            Rvalue::BinaryOp(op, a, b) => write!(f, "{a} {op} {b}"),
            Rvalue::UnaryOp(op, a) => write!(f, "{op}{a}"),
            Rvalue::Ref {
                region,
                mutbl,
                place,
            } => {
                if mutbl.is_mut() {
                    write!(f, "&{region} mut {place}")
                } else {
                    write!(f, "&{region} {place}")
                }
            }
            Rvalue::Aggregate(kind, ops) => {
                let inner = ops
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                match kind {
                    AggregateKind::Tuple => write!(f, "({inner})"),
                    AggregateKind::Struct(sid) => write!(f, "struct#{}({inner})", sid.0),
                }
            }
        }
    }
}

/// A MIR statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// What the statement does.
    pub kind: StatementKind,
    /// Source span the statement was lowered from.
    pub span: Span,
}

/// The kinds of MIR statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementKind {
    /// `place = rvalue`
    Assign(Place, Rvalue),
    /// No operation (used to keep locations stable when statements are
    /// removed or synthesized).
    Nop,
}

/// A MIR terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Terminator {
    /// What the terminator does.
    pub kind: TerminatorKind,
    /// Source span the terminator was lowered from.
    pub span: Span,
}

/// The kinds of MIR terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminatorKind {
    /// Unconditional jump.
    Goto {
        /// Jump target.
        target: BasicBlock,
    },
    /// Two-way branch on a boolean operand.
    SwitchBool {
        /// The discriminant.
        discr: Operand,
        /// Block taken when the discriminant is `true`.
        true_block: BasicBlock,
        /// Block taken when the discriminant is `false`.
        false_block: BasicBlock,
    },
    /// Function call `destination = func(args)`, then jump to `target`.
    Call {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<Operand>,
        /// Where the return value is stored.
        destination: Place,
        /// Block to continue at after the call returns.
        target: BasicBlock,
    },
    /// Return from the function; the return value lives in `_0`.
    Return,
    /// An unreachable point (e.g. after an infinite loop with no break).
    Unreachable,
}

impl TerminatorKind {
    /// The CFG successors of this terminator, in order.
    pub fn successors(&self) -> impl Iterator<Item = BasicBlock> {
        let pair = match *self {
            TerminatorKind::Goto { target } | TerminatorKind::Call { target, .. } => {
                [Some(target), None]
            }
            TerminatorKind::SwitchBool {
                true_block,
                false_block,
                ..
            } => [Some(true_block), Some(false_block)],
            TerminatorKind::Return | TerminatorKind::Unreachable => [None, None],
        };
        pair.into_iter().flatten()
    }
}

/// One basic block: straight-line statements plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlockData {
    /// The statements, executed in order.
    pub statements: Vec<Statement>,
    /// The terminator. `None` only transiently during lowering.
    pub terminator: Option<Terminator>,
}

impl BasicBlockData {
    /// Creates an empty block with no terminator yet.
    pub fn new() -> Self {
        BasicBlockData {
            statements: Vec::new(),
            terminator: None,
        }
    }

    /// The block's terminator.
    ///
    /// # Panics
    ///
    /// Panics if lowering has not yet set a terminator.
    pub fn terminator(&self) -> &Terminator {
        self.terminator
            .as_ref()
            .expect("basic block has no terminator")
    }
}

impl Default for BasicBlockData {
    fn default() -> Self {
        Self::new()
    }
}

/// Declaration of one local variable slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDecl {
    /// The user-visible name, if this local corresponds to a source variable.
    pub name: Option<String>,
    /// The local's type (regions are body region variables).
    pub ty: Ty,
    /// Whether the local may be reassigned / mutably borrowed.
    pub mutable: bool,
    /// Source span of the declaration.
    pub span: Span,
}

/// Metadata about one region (provenance) variable of a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionData {
    /// Name of the lifetime parameter if this is a universal region.
    pub name: Option<String>,
    /// Universal regions come from the function signature; existential
    /// regions are created for borrows and local types inside the body.
    pub is_universal: bool,
}

/// An outlives constraint `longer :> shorter` between two regions of a body.
///
/// Following the paper (§2.2 step 3 and §4.2), such a constraint makes the
/// loans of `longer` flow into the loan set of `shorter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutlivesConstraint {
    /// The region required to live at least as long as `shorter`.
    pub longer: RegionVid,
    /// The region being outlived.
    pub shorter: RegionVid,
}

/// The MIR body of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    /// Function name.
    pub name: String,
    /// Id of this function within its program.
    pub func_id: FuncId,
    /// Number of arguments; locals `_1..=_arg_count` are the arguments.
    pub arg_count: usize,
    /// All local variable declarations, `_0` first.
    pub local_decls: Vec<LocalDecl>,
    /// All basic blocks, entry block first.
    pub basic_blocks: Vec<BasicBlockData>,
    /// Region metadata; indices are [`RegionVid`]s.
    pub regions: Vec<RegionData>,
    /// Outlives constraints collected by the region analysis.
    pub outlives: Vec<OutlivesConstraint>,
    /// Locations of `Call` terminators whose `let` binding carried a
    /// `#[declassify]` attribute. The information flow analysis ignores
    /// these; the IFC policy layer relabels their results to lattice bottom.
    pub declassified_calls: Vec<Location>,
    /// Module membership from a `#[module(M)]` attribute; module-level lint
    /// and policy defaults key off this.
    pub module: Option<String>,
    /// Span of the whole function.
    pub span: Span,
}

impl Body {
    /// The declaration of `local`.
    pub fn local_decl(&self, local: Local) -> &LocalDecl {
        &self.local_decls[local.index()]
    }

    /// The argument locals `_1..=_arg_count`.
    pub fn args(&self) -> impl Iterator<Item = Local> + '_ {
        (1..=self.arg_count).map(|i| Local(i as u32))
    }

    /// The block data for `bb`.
    pub fn block(&self, bb: BasicBlock) -> &BasicBlockData {
        &self.basic_blocks[bb.index()]
    }

    /// All basic block ids in order.
    pub fn block_ids(&self) -> impl Iterator<Item = BasicBlock> {
        (0..self.basic_blocks.len() as u32).map(BasicBlock)
    }

    /// CFG successors of `bb`.
    pub fn successors(&self, bb: BasicBlock) -> impl Iterator<Item = BasicBlock> {
        self.block(bb).terminator().kind.successors()
    }

    /// All locations in the body, in block order then statement order
    /// (terminator locations included).
    pub fn all_locations(&self) -> Vec<Location> {
        let mut out = Vec::new();
        for bb in self.block_ids() {
            let n = self.block(bb).statements.len();
            for i in 0..=n {
                out.push(Location {
                    block: bb,
                    statement_index: i,
                });
            }
        }
        out
    }

    /// The statement at `loc`, or `None` if `loc` is a terminator location.
    pub fn stmt_at(&self, loc: Location) -> Option<&Statement> {
        self.block(loc.block).statements.get(loc.statement_index)
    }

    /// Locations of all `Return` terminators.
    pub fn return_locations(&self) -> Vec<Location> {
        self.block_ids()
            .filter(|bb| matches!(self.block(*bb).terminator().kind, TerminatorKind::Return))
            .map(|bb| Location {
                block: bb,
                statement_index: self.block(bb).statements.len(),
            })
            .collect()
    }

    /// Total number of statements plus terminators — the "MIR instructions"
    /// count reported in Table 1 of the paper.
    pub fn instruction_count(&self) -> usize {
        self.basic_blocks
            .iter()
            .map(|b| b.statements.len() + 1)
            .sum()
    }

    /// The type of a place, resolved through projections, or `None` if the
    /// place is not well-typed for this body (projection of a non-aggregate,
    /// deref of a non-reference, unknown field, out-of-range local).
    pub fn try_place_ty(&self, place: &Place, structs: &crate::types::StructTable) -> Option<Ty> {
        let mut ty = self.local_decls.get(place.local.index())?.ty.clone();
        for elem in &place.projection {
            ty = match (elem, &ty) {
                (PlaceElem::Deref, Ty::Ref(_, _, inner)) => (**inner).clone(),
                (PlaceElem::Field(i), t) => t.field_ty(*i, structs)?,
                _ => return None,
            };
        }
        Some(ty)
    }

    /// The type of a place, resolved through projections.
    ///
    /// # Panics
    ///
    /// Panics if the place is not well-typed for this body; see
    /// [`Body::try_place_ty`] for the non-panicking variant.
    pub fn place_ty(&self, place: &Place, structs: &crate::types::StructTable) -> Ty {
        self.try_place_ty(place, structs)
            .unwrap_or_else(|| panic!("ill-typed place {place} in body of `{}`", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(local: u32, proj: &[PlaceElem]) -> Place {
        Place {
            local: Local(local),
            projection: proj.to_vec(),
        }
    }

    #[test]
    fn prefix_and_conflicts() {
        use PlaceElem::*;
        let t = place(1, &[]);
        let t0 = place(1, &[Field(0)]);
        let t1 = place(1, &[Field(1)]);
        let t10 = place(1, &[Field(1), Field(0)]);
        let u = place(2, &[]);

        assert!(t.is_prefix_of(&t1));
        assert!(!t1.is_prefix_of(&t));
        assert!(t.is_prefix_of(&t));

        // The paper's example: t.1 conflicts with t and t.1, not t.0.
        assert!(t1.conflicts_with(&t));
        assert!(t1.conflicts_with(&t1));
        assert!(!t1.conflicts_with(&t0));
        assert!(t1.conflicts_with(&t10));
        assert!(!t1.conflicts_with(&u));
        assert!(t0.is_disjoint_from(&t1));
    }

    #[test]
    fn conflict_is_symmetric() {
        use PlaceElem::*;
        let a = place(1, &[Field(0)]);
        let b = place(1, &[Field(0), Field(2)]);
        assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
    }

    #[test]
    fn deref_places() {
        use PlaceElem::*;
        let p = place(3, &[Deref, Field(1)]);
        assert!(p.has_deref());
        assert!(!place(3, &[Field(1)]).has_deref());
        assert_eq!(p.to_string(), "(*_3).1");
    }

    #[test]
    fn place_builders() {
        let p = Place::from_local(Local(2)).field(0).deref().field(3);
        assert_eq!(
            p.projection,
            vec![PlaceElem::Field(0), PlaceElem::Deref, PlaceElem::Field(3)]
        );
        let q: Place = Local(5).into();
        assert_eq!(q, Place::from_local(Local(5)));
    }

    #[test]
    fn terminator_successors() {
        let t = TerminatorKind::SwitchBool {
            discr: Operand::Constant(ConstValue::Bool(true)),
            true_block: BasicBlock(1),
            false_block: BasicBlock(2),
        };
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BasicBlock(1), BasicBlock(2)]
        );
        assert!(TerminatorKind::Return
            .successors()
            .collect::<Vec<_>>()
            .is_empty());
        assert_eq!(
            TerminatorKind::Goto {
                target: BasicBlock(7)
            }
            .successors()
            .collect::<Vec<_>>(),
            vec![BasicBlock(7)]
        );
    }

    #[test]
    fn operand_place() {
        let p = place(1, &[]);
        assert_eq!(Operand::Copy(p.clone()).place(), Some(&p));
        assert_eq!(Operand::Move(p.clone()).place(), Some(&p));
        assert_eq!(Operand::Constant(ConstValue::Int(1)).place(), None);
    }

    #[test]
    fn rvalue_operands() {
        let a = Operand::Constant(ConstValue::Int(1));
        let b = Operand::Copy(place(1, &[]));
        assert_eq!(
            Rvalue::BinaryOp(BinOp::Add, a.clone(), b.clone())
                .operands()
                .collect::<Vec<_>>()
                .len(),
            2
        );
        assert_eq!(
            Rvalue::Use(a.clone()).operands().collect::<Vec<_>>().len(),
            1
        );
        assert!(Rvalue::Ref {
            region: RegionVid(0),
            mutbl: Mutability::Mut,
            place: place(1, &[])
        }
        .operands()
        .collect::<Vec<_>>()
        .is_empty());
        assert_eq!(
            Rvalue::Aggregate(AggregateKind::Tuple, vec![a, b])
                .operands()
                .collect::<Vec<_>>()
                .len(),
            2
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Local(3).to_string(), "_3");
        assert_eq!(BasicBlock(2).to_string(), "bb2");
        assert_eq!(
            Location {
                block: BasicBlock(1),
                statement_index: 4
            }
            .to_string(),
            "bb1[4]"
        );
        assert_eq!(ConstValue::Int(7).to_string(), "const 7");
        assert_eq!(
            Rvalue::Ref {
                region: RegionVid(2),
                mutbl: Mutability::Shared,
                place: place(1, &[PlaceElem::Field(0)])
            }
            .to_string(),
            "&'2 _1.0"
        );
    }
}
