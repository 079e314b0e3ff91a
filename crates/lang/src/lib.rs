//! # flowistry-lang: the Rox language front-end
//!
//! This crate is the substrate of the Flowistry reproduction: a small
//! ownership-typed Rust subset — **Rox** — with everything the information
//! flow analysis of *Modular Information Flow through Ownership* (PLDI
//! 2022) needs from a compiler:
//!
//! * a [`lexer`], [`parser`] and [`ast`] for the surface syntax;
//! * a [`typeck`] pass producing per-expression types and function
//!   signatures with abstract provenances;
//! * a [`mir`] control-flow-graph representation and [`lower`]ing into it;
//! * [`regions`] (outlives-constraint inference) and [`loans`] (loan-set
//!   computation), the two ingredients of §4.2 of the paper;
//! * a simplified [`borrowck`] enforcing the shared-XOR-mutable discipline.
//!
//! The entry point is [`compile`]:
//!
//! ```
//! let program = flowistry_lang::compile(
//!     "fn add(x: i32, y: i32) -> i32 { return x + y; }",
//! ).unwrap();
//! assert_eq!(program.bodies.len(), 1);
//! assert_eq!(program.bodies[0].name, "add");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod borrowck;
pub mod callgraph;
pub mod lexer;
pub mod loans;
pub mod lower;
pub mod mir;
pub mod parser;
pub mod regions;
pub mod span;
pub mod stable_hash;
pub mod typeck;
pub mod types;

pub use callgraph::CallGraph;
pub use stable_hash::{function_content_hash, StableHasher};

use crate::mir::Body;
use crate::span::Diagnostic;
use crate::types::{FnSig, FuncId, StructTable};

/// A fully compiled Rox program: AST, signatures, struct table and one MIR
/// [`Body`] per function, with region constraints installed.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The original source text.
    pub source: String,
    /// The parsed AST.
    pub ast: ast::Program,
    /// Resolved struct definitions.
    pub structs: StructTable,
    /// One signature per function, indexed by [`FuncId`].
    pub signatures: Vec<FnSig>,
    /// One MIR body per function, indexed by [`FuncId`].
    pub bodies: Vec<Body>,
    /// Borrow-check diagnostics (empty for ownership-safe programs). These
    /// are reported but do not abort compilation; see [`compile_strict`].
    pub borrow_errors: Vec<Diagnostic>,
}

impl CompiledProgram {
    /// Looks up a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.signatures
            .iter()
            .position(|s| s.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The body of function `id`.
    pub fn body(&self, id: FuncId) -> &Body {
        &self.bodies[id.0 as usize]
    }

    /// The signature of function `id`.
    pub fn signature(&self, id: FuncId) -> &FnSig {
        &self.signatures[id.0 as usize]
    }

    /// Finds a body by function name.
    pub fn body_by_name(&self, name: &str) -> Option<&Body> {
        self.bodies.iter().find(|b| b.name == name)
    }

    /// Total number of MIR instructions across all bodies.
    pub fn total_instructions(&self) -> usize {
        self.bodies.iter().map(Body::instruction_count).sum()
    }

    /// Number of lines in the source (the paper's LOC metric).
    pub fn loc(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// Compiles Rox source: parse, type check, lower to MIR, infer regions and
/// run the borrow checker (whose diagnostics are collected, not fatal).
///
/// # Errors
///
/// Returns the first lexing, parsing or type error.
///
/// # Examples
///
/// ```
/// let prog = flowistry_lang::compile(
///     "fn get<'a>(p: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*p).0; }",
/// ).unwrap();
/// assert_eq!(prog.signatures[0].region_count, 1);
/// ```
pub fn compile(source: &str) -> Result<CompiledProgram, Diagnostic> {
    let ast = parser::parse_program(source)?;
    let typeck = typeck::check_program(&ast)?;

    let mut bodies = Vec::with_capacity(ast.funcs.len());
    for (idx, func) in ast.funcs.iter().enumerate() {
        let body = lower::lower_fn(
            func,
            FuncId(idx as u32),
            &typeck.signatures[idx],
            &typeck.fn_tables[idx],
            &typeck.structs,
        );
        bodies.push(body);
    }

    regions::infer_regions(&mut bodies, &typeck.signatures, &typeck.structs);

    let mut borrow_errors = Vec::new();
    for body in &bodies {
        borrow_errors.extend(borrowck::check_body(body));
    }

    Ok(CompiledProgram {
        source: source.to_string(),
        ast,
        structs: typeck.structs,
        signatures: typeck.signatures,
        bodies,
        borrow_errors,
    })
}

/// Like [`compile`], but treats borrow-check diagnostics as fatal.
///
/// # Errors
///
/// Returns the first diagnostic from any stage, including borrow checking.
pub fn compile_strict(source: &str) -> Result<CompiledProgram, Diagnostic> {
    let prog = compile(source)?;
    if let Some(err) = prog.borrow_errors.first() {
        return Err(err.clone());
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_end_to_end() {
        let prog = compile(
            "struct Point { x: i32, y: i32 }
             fn origin() -> Point { return Point { x: 0, y: 0 }; }
             fn shift(p: &mut Point, dx: i32) { (*p).x = (*p).x + dx; }
             fn main() -> i32 { let mut p = origin(); shift(&mut p, 3); return p.x; }",
        )
        .unwrap();
        assert_eq!(prog.bodies.len(), 3);
        assert_eq!(prog.structs.len(), 1);
        assert!(prog.borrow_errors.is_empty());
        assert!(prog.total_instructions() > 5);
        assert!(prog.loc() >= 4);
        assert_eq!(prog.func_id("shift"), Some(FuncId(1)));
        assert_eq!(prog.body(FuncId(2)).name, "main");
        assert_eq!(prog.signature(FuncId(0)).name, "origin");
        assert!(prog.body_by_name("main").is_some());
        assert!(prog.body_by_name("missing").is_none());
    }

    #[test]
    fn compile_reports_parse_errors() {
        assert!(compile("fn f( {").is_err());
    }

    #[test]
    fn compile_reports_type_errors() {
        assert!(compile("fn f() { let x: bool = 1; }").is_err());
    }

    #[test]
    fn compile_strict_rejects_borrow_violations() {
        let src = "fn f() -> i32 { let mut x = 1; let r = &x; x = 2; return *r; }";
        assert!(compile(src).is_ok());
        assert!(compile_strict(src).is_err());
    }

    #[test]
    fn figure_one_get_count_analogue_compiles() {
        // The paper's Figure 1 example, adapted to Rox: a "map" is a pair of
        // slots and the key selects one of them.
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
        let prog = compile(src).unwrap();
        assert_eq!(prog.bodies.len(), 4);
        assert!(prog.borrow_errors.is_empty(), "{:?}", prog.borrow_errors);
        let body = prog.body_by_name("get_count").unwrap();
        assert!(body.instruction_count() >= 6);
    }
}
