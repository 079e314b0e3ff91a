//! Abstract syntax tree for the Rox surface language.
//!
//! The AST mirrors the fragment of Rust the paper's analysis targets:
//! functions with lifetime parameters and outlives bounds, structs, tuples,
//! shared and unique references, field and dereference places, `let`
//! bindings, assignments, conditionals, loops and function calls.
//!
//! Every expression carries a unique [`ExprId`] assigned by the parser; the
//! type checker records per-expression types in a side table keyed by these
//! ids (see [`crate::typeck`]).

use crate::span::Span;
use std::fmt;

/// Unique id of an expression node within a parsed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Mutability qualifier: the paper's ownership qualifier ω (`shrd`/`uniq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mutability {
    /// Shared / immutable (`shrd` in Oxide, `&T` in Rust).
    Shared,
    /// Unique / mutable (`uniq` in Oxide, `&mut T` in Rust).
    Mut,
}

impl Mutability {
    /// Whether this is the unique (mutable) qualifier.
    pub fn is_mut(self) -> bool {
        matches!(self, Mutability::Mut)
    }
}

impl fmt::Display for Mutability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutability::Shared => write!(f, "shrd"),
            Mutability::Mut => write!(f, "uniq"),
        }
    }
}

/// A surface-syntax type annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AstTy {
    /// `()`
    Unit,
    /// `i32` (also covers `u32`/`usize` in the lexer)
    Int,
    /// `bool`
    Bool,
    /// `(T1, T2, ...)`
    Tuple(Vec<AstTy>),
    /// A named struct type.
    Named(String),
    /// `&'a T` or `&'a mut T`; the lifetime is optional (elided).
    Ref {
        /// Optional named lifetime, e.g. `a` for `'a`.
        lifetime: Option<String>,
        /// Shared or unique.
        mutbl: Mutability,
        /// The referent type.
        inner: Box<AstTy>,
    },
}

impl fmt::Display for AstTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstTy::Unit => write!(f, "()"),
            AstTy::Int => write!(f, "i32"),
            AstTy::Bool => write!(f, "bool"),
            AstTy::Tuple(tys) => {
                write!(f, "(")?;
                for (i, t) in tys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            AstTy::Named(n) => write!(f, "{n}"),
            AstTy::Ref {
                lifetime,
                mutbl,
                inner,
            } => {
                write!(f, "&")?;
                if let Some(lt) = lifetime {
                    write!(f, "'{lt} ")?;
                }
                if mutbl.is_mut() {
                    write!(f, "mut ")?;
                }
                write!(f, "{inner}")
            }
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (evaluated strictly)
    And,
    /// `||` (evaluated strictly)
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator takes boolean operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// A field access: positional (tuple) or named (struct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldName {
    /// Tuple index, e.g. `.0`.
    Index(u32),
    /// Struct field name, e.g. `.count`.
    Named(String),
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldName::Index(i) => write!(f, "{i}"),
            FieldName::Named(n) => write!(f, "{n}"),
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Unique id, used to key the type checker's side tables.
    pub id: ExprId,
    /// The expression itself.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// The different kinds of expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// `()`
    Unit,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// A variable reference.
    Var(String),
    /// Field projection `e.f`.
    Field(Box<Expr>, FieldName),
    /// Dereference `*e`.
    Deref(Box<Expr>),
    /// Borrow `&e` / `&mut e`.
    Borrow {
        /// Shared or unique borrow.
        mutbl: Mutability,
        /// The borrowed place expression.
        expr: Box<Expr>,
    },
    /// Function call `f(a, b)`.
    Call {
        /// Callee name.
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Tuple constructor `(a, b, c)`.
    Tuple(Vec<Expr>),
    /// Struct literal `Name { field: expr, ... }`.
    StructLit {
        /// Struct name.
        name: String,
        /// Field initializers, in source order.
        fields: Vec<(String, Expr)>,
    },
}

impl Expr {
    /// Whether this expression is syntactically a place expression (a path of
    /// field projections and dereferences rooted at a variable).
    pub fn is_place(&self) -> bool {
        match &self.kind {
            ExprKind::Var(_) => true,
            ExprKind::Field(base, _) | ExprKind::Deref(base) => base.is_place(),
            _ => false,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// The statement itself.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// The different kinds of statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `[#[declassify]] let [mut] x [: T] = e;`
    Let {
        /// Bound variable name.
        name: String,
        /// Whether declared `mut`.
        mutable: bool,
        /// Optional type annotation.
        ty: Option<AstTy>,
        /// Initializer.
        init: Expr,
        /// Whether the binding carries a `#[declassify]` attribute: the
        /// initializer (a call) is a sanctioned release point whose result
        /// is relabeled to the lattice bottom.
        declassify: bool,
    },
    /// `place = e;`
    Assign {
        /// Left-hand side (must be a place expression).
        place: Expr,
        /// Right-hand side.
        value: Expr,
    },
    /// `if cond { ... } [else { ... }]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// `while cond { ... }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `loop { ... }`
    Loop {
        /// Loop body.
        body: Block,
    },
    /// `return;` or `return e;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An expression evaluated for effect, e.g. a call: `f(x);`
    Expr(Expr),
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source location of the whole block.
    pub span: Span,
}

/// A declared effect contract from `#[effect(...)]` clauses on a function.
///
/// The contract direction is caller-facing: the function promises to read
/// at most `reads`, write through at most `writes`, and — when `pure` — to
/// perform no caller-visible mutation and reach no sink. The lint layer
/// checks each declaration against the effect signature *inferred* from the
/// function summary (see `flowistry-lint`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EffectDecl {
    /// `#[effect(pure)]`: no caller-visible mutations, no sink reachability.
    pub pure: bool,
    /// Parameters the function may read (`#[effect(reads(a, b))]`).
    pub reads: Vec<String>,
    /// Parameters the function may write through (`#[effect(writes(p))]`).
    pub writes: Vec<String>,
}

/// A `#![module_policy(name, ...)]` header: default IFC policy entries for
/// every function tagged `#[module(name)]`. Explicit `#[label]` / `#[sink]`
/// attributes on a function win over its module's defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModulePolicy {
    /// The module name functions opt into with `#[module(name)]`.
    pub name: String,
    /// Default result label for the module's functions (`label(L)` clause).
    pub label: Option<String>,
    /// Default sink clearance for the module's functions (`sink(C)` clause).
    pub clearance: Option<String>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: AstTy,
    /// Security label from a `#[label(L)]` parameter attribute.
    pub label: Option<String>,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Declared lifetime parameters, e.g. `["a", "b"]` for `<'a, 'b>`.
    pub lifetime_params: Vec<String>,
    /// `where 'a: 'b` outlives bounds as `(long, short)` pairs.
    pub outlives_bounds: Vec<(String, String)>,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Return type (`()` when omitted).
    pub ret_ty: AstTy,
    /// Function body.
    pub body: Block,
    /// Security label of the data this function produces, from a
    /// `#[label(L)]` function attribute.
    pub label: Option<String>,
    /// Sink clearance — the highest label this function may observe — from
    /// a `#[sink(L)]` function attribute.
    pub clearance: Option<String>,
    /// Declared effect contract from `#[effect(...)]` attributes.
    pub effect: Option<EffectDecl>,
    /// Module membership from a `#[module(name)]` attribute; functions in a
    /// module inherit its `#![module_policy(...)]` defaults.
    pub module: Option<String>,
    /// Source location of the whole definition.
    pub span: Span,
}

/// A struct definition. Struct fields must be reference-free (the type
/// checker rejects reference-typed fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Fields, in declaration order.
    pub fields: Vec<(String, AstTy)>,
    /// Source location.
    pub span: Span,
}

/// A complete parsed program: struct definitions and function definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// Function definitions, in source order.
    pub funcs: Vec<FnDef>,
    /// The security lattice named by a `#![lattice(L)]` inner attribute
    /// (`two_point`, `multi_level`, `conf_integrity`, …).
    pub lattice: Option<String>,
    /// Module-wide default label from `#![default_label(L)]`.
    pub default_label: Option<String>,
    /// Per-module policy headers from `#![module_policy(name, ...)]`.
    pub module_policies: Vec<ModulePolicy>,
}

impl Program {
    /// Looks up a function definition by name.
    pub fn func(&self, name: &str) -> Option<&FnDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(kind: ExprKind) -> Expr {
        Expr {
            id: ExprId(0),
            kind,
            span: Span::DUMMY,
        }
    }

    #[test]
    fn place_expressions() {
        let var = expr(ExprKind::Var("x".into()));
        assert!(var.is_place());
        let field = expr(ExprKind::Field(
            Box::new(expr(ExprKind::Var("x".into()))),
            FieldName::Index(0),
        ));
        assert!(field.is_place());
        let deref = expr(ExprKind::Deref(Box::new(expr(ExprKind::Var("p".into())))));
        assert!(deref.is_place());
        let call = expr(ExprKind::Call {
            callee: "f".into(),
            args: vec![],
        });
        assert!(!call.is_place());
        let lit = expr(ExprKind::Int(3));
        assert!(!lit.is_place());
    }

    #[test]
    fn mutability_display() {
        assert_eq!(Mutability::Shared.to_string(), "shrd");
        assert_eq!(Mutability::Mut.to_string(), "uniq");
        assert!(Mutability::Mut.is_mut());
        assert!(!Mutability::Shared.is_mut());
    }

    #[test]
    fn ast_ty_display() {
        let t = AstTy::Ref {
            lifetime: Some("a".into()),
            mutbl: Mutability::Mut,
            inner: Box::new(AstTy::Tuple(vec![AstTy::Int, AstTy::Bool])),
        };
        assert_eq!(t.to_string(), "&'a mut (i32, bool)");
        assert_eq!(AstTy::Unit.to_string(), "()");
        assert_eq!(AstTy::Named("Point".into()).to_string(), "Point");
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            structs: vec![StructDef {
                name: "Point".into(),
                fields: vec![("x".into(), AstTy::Int)],
                span: Span::DUMMY,
            }],
            funcs: vec![FnDef {
                name: "main".into(),
                lifetime_params: vec![],
                outlives_bounds: vec![],
                params: vec![],
                ret_ty: AstTy::Unit,
                body: Block {
                    stmts: vec![],
                    span: Span::DUMMY,
                },
                label: None,
                clearance: None,
                effect: None,
                module: None,
                span: Span::DUMMY,
            }],
            lattice: None,
            default_label: None,
            module_policies: vec![],
        };
        assert!(p.func("main").is_some());
        assert!(p.func("missing").is_none());
        assert!(p.struct_def("Point").is_some());
        assert!(p.struct_def("Line").is_none());
    }
}
