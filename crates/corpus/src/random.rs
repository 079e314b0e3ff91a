//! Seeded random Rox programs for the property tests: see
//! [`random_program`]. A failing case names its seed and size, and
//! `random_program(seed, size)` rebuilds its program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// The statement shapes of `f`'s body. Leaves come first, then `If`,
/// then the two loops, so a prefix of [`STMTS`] is the choice at a given
/// nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stmt {
    Arith,
    Helper,
    TupleLiteral,
    TupleCall,
    FieldWrite,
    FieldRead,
    Bump,
    ReadPair,
    RefWrite,
    DagCall,
    If,
    While,
    Countdown,
}

const STMTS: [Stmt; 13] = [
    Stmt::Arith,
    Stmt::Helper,
    Stmt::TupleLiteral,
    Stmt::TupleCall,
    Stmt::FieldWrite,
    Stmt::FieldRead,
    Stmt::Bump,
    Stmt::ReadPair,
    Stmt::RefWrite,
    Stmt::DagCall,
    Stmt::If,
    Stmt::While,
    Stmt::Countdown,
];

/// Statements nest at most this deep below `f`'s body.
const MAX_DEPTH: usize = 2;

/// `f`'s four mutable scalars.
const VARS: usize = 4;

/// A random program from `seed`, of the given `size`: the one source of
/// random programs for the condition containment, noninterference,
/// indexed-vs-tree and scheduler stress tests.
///
/// Every program compiles with no borrow diagnostic and terminates under
/// the interpreter for any arguments: each loop counts up to one of `f`'s
/// parameters (or a constant), which nothing reassigns, and stops there if
/// its other exit test has not stopped it first. Reborrows through a
/// local reference (`&mut (*y).1`) stay out of the grammar until the
/// borrow checker can confirm that such programs are well-borrowed. The
/// program has three parts:
/// * fixed helpers: `helper(p, q)` returns `p + 1` (so Whole-program sees
///   that `q` does not flow), `bump(&mut i32, i32)`, `read_pair(&i32, i32)`,
///   `pair(i32, i32) -> (i32, i32)`, and `slot<'a>(&'a mut (i32, i32)) ->
///   &'a mut i32`, which returns a reference to one field of the tuple;
/// * a call DAG of `size` functions `dag0 .. dag{size-1}` taking
///   `(p: &mut i32, v: i32) -> i32`; each calls a random subset of the
///   earlier ones with `p` and writes through `p` under a branch;
/// * the entry `f(a: i32, b: i32, c: i32, d: i32) -> i32` over mutable
///   scalars `v0 .. v3` and a tuple `t`. It calls the DAG's root, then runs
///   `size` random statements: arithmetic, helper calls, tuple assignment
///   and field writes, `bump(&mut _)` and `read_pair(&_, _)`, writes
///   through `slot`, calls into the DAG, and `if` and `while` with nested
///   bodies, including field writes inside loops. A countdown loop
///   `while k < n && v0 > v1 { ..; v0 = v0 - 1; .. }` also exits on
///   scalars that its body writes.
pub fn random_program(seed: u64, size: usize) -> String {
    generate(seed, size).0
}

/// The program and the shape of every statement of `f`, each with whether
/// it sits inside a `while` body.
fn generate(seed: u64, size: usize) -> (String, Vec<(Stmt, bool)>) {
    let mut gen = Generator {
        rng: StdRng::seed_from_u64(seed),
        src: String::new(),
        dag: size,
        fresh: 0,
        shapes: Vec::new(),
    };
    let field = gen.rng.gen_range(0..2);
    let _ = write!(
        gen.src,
        "fn helper(p: i32, q: i32) -> i32 {{ return p + 1; }}\n\
         fn bump(p: &mut i32, q: i32) {{ *p = *p + q; }}\n\
         fn read_pair(a: &i32, b: i32) -> i32 {{ return *a + b; }}\n\
         fn pair(x: i32, y: i32) -> (i32, i32) {{ return (x, y); }}\n\
         fn slot<'a>(t: &'a mut (i32, i32)) -> &'a mut i32 {{ return &mut (*t).{field}; }}\n"
    );
    gen.call_dag();
    gen.entry(size);
    (gen.src, gen.shapes)
}

struct Generator {
    rng: StdRng,
    src: String,
    /// Functions in the call DAG.
    dag: usize,
    /// Suffix of the next fresh local name.
    fresh: usize,
    shapes: Vec<(Stmt, bool)>,
}

impl Generator {
    /// `dag{i}` calls a random subset of `dag0 .. dag{i-1}`, so the graph
    /// is acyclic by construction. It mixes value flow, mutation through
    /// the reference and a control-dependent write, so analyzing a caller
    /// before a callee's summary is published changes the summaries.
    fn call_dag(&mut self) {
        for i in 0..self.dag {
            let _ = writeln!(self.src, "fn dag{i}(p: &mut i32, v: i32) -> i32 {{");
            let _ = writeln!(self.src, "    let mut acc = v;");
            for callee in 0..i {
                if self.rng.gen_bool(0.5) {
                    let _ = writeln!(self.src, "    let r{callee} = dag{callee}(p, acc + 1);");
                    let _ = writeln!(self.src, "    acc = acc + r{callee};");
                }
            }
            let _ = writeln!(
                self.src,
                "    if acc > 7 {{ *p = *p + acc; }} else {{ *p = acc; }}"
            );
            let _ = writeln!(self.src, "    return acc + *p;\n}}");
        }
    }

    fn entry(&mut self, size: usize) {
        self.src
            .push_str("fn f(a: i32, b: i32, c: i32, d: i32) -> i32 {\n");
        for v in 0..VARS {
            let init = self.input();
            let _ = writeln!(self.src, "    let mut v{v} = {init};");
        }
        // A call's result, not a literal: its fields get keys only from the
        // copy into `t`, the shape the joins after a branch or loop once lost.
        let (x, y) = (self.input(), self.input());
        let _ = writeln!(self.src, "    let mut t = pair({x}, {y});");
        if self.dag > 0 {
            let (x, y, v) = (self.var(), self.var(), self.input());
            let root = self.dag - 1;
            let _ = writeln!(self.src, "    v{x} = dag{root}(&mut v{y}, {v});");
        }
        for _ in 0..size {
            self.stmt(0, false);
        }
        let (x, field) = (self.var(), self.rng.gen_range(0..2));
        let _ = writeln!(self.src, "    return v{x} + t.{field};\n}}");
    }

    /// One random statement at nesting `depth` below `f`'s body.
    fn stmt(&mut self, depth: usize, in_loop: bool) {
        let choices = match (depth < MAX_DEPTH, in_loop) {
            (false, _) => STMTS.len() - 3,
            (true, true) => STMTS.len() - 2,
            (true, false) => STMTS.len(),
        };
        let kind = STMTS[self.rng.gen_range(0..choices)];
        self.shapes.push((kind, in_loop));
        let pad = "    ".repeat(depth + 1);
        let x = self.var();
        // Distinct from `x`: `bump(&mut v0, v0)` reads `v0` while it is
        // mutably borrowed.
        let y = (x + self.rng.gen_range(1..VARS)) % VARS;
        let field = self.rng.gen_range(0..2);
        let line = match kind {
            Stmt::Arith => {
                let op = ["+", "-", "*"][self.rng.gen_range(0..3)];
                let rhs = self.operand();
                format!("v{x} = v{y} {op} {rhs};")
            }
            Stmt::Helper => format!("v{x} = helper(v{y}, v{x});"),
            Stmt::TupleLiteral => {
                let rhs = self.operand();
                format!("t = (v{x}, {rhs});")
            }
            Stmt::TupleCall => format!("t = pair(v{x}, v{y});"),
            Stmt::FieldWrite => format!("t.{field} = v{y};"),
            Stmt::FieldRead => format!("v{x} = t.{field} + v{y};"),
            Stmt::Bump => format!("bump(&mut v{x}, v{y});"),
            Stmt::ReadPair => format!("v{x} = read_pair(&v{y}, v{x});"),
            Stmt::RefWrite => {
                let s = self.fresh("s");
                format!("let {s} = slot(&mut t); *{s} = v{y};")
            }
            Stmt::DagCall => {
                let callee = self.rng.gen_range(0..self.dag);
                let z = (x + self.rng.gen_range(1..VARS)) % VARS;
                format!("v{y} = dag{callee}(&mut v{x}, v{z});")
            }
            Stmt::If => {
                let bound = self.rng.gen_range(0..4);
                let _ = writeln!(self.src, "{pad}if v{y} > {bound} {{");
                self.block(depth + 1, in_loop);
                if self.rng.gen_bool(0.5) {
                    let _ = writeln!(self.src, "{pad}}} else {{");
                    self.block(depth + 1, in_loop);
                }
                let _ = writeln!(self.src, "{pad}}}");
                return;
            }
            Stmt::While => {
                let k = self.fresh("k");
                let bound = self.input();
                let _ = writeln!(self.src, "{pad}let mut {k} = 0;");
                let _ = writeln!(self.src, "{pad}while {k} < {bound} {{");
                self.block(depth + 1, true);
                let _ = writeln!(self.src, "{pad}    {k} = {k} + 1;\n{pad}}}");
                return;
            }
            Stmt::Countdown => {
                let k = self.fresh("k");
                let bound = self.input();
                let _ = writeln!(self.src, "{pad}let mut {k} = 0;");
                let _ = writeln!(self.src, "{pad}while {k} < {bound} && v{x} > v{y} {{");
                self.block(depth + 1, true);
                let _ = writeln!(
                    self.src,
                    "{pad}    v{x} = v{x} - 1;\n{pad}    {k} = {k} + 1;\n{pad}}}"
                );
                return;
            }
        };
        let _ = writeln!(self.src, "{pad}{line}");
    }

    fn block(&mut self, depth: usize, in_loop: bool) {
        for _ in 0..self.rng.gen_range(1..3) {
            self.stmt(depth, in_loop);
        }
    }

    fn var(&mut self) -> usize {
        self.rng.gen_range(0..VARS)
    }

    /// A parameter of `f` or a small constant.
    fn input(&mut self) -> String {
        match self.rng.gen_range(0..6) {
            i @ 0..=3 => ["a", "b", "c", "d"][i].to_string(),
            _ => self.rng.gen_range(0..4).to_string(),
        }
    }

    /// One of `f`'s scalars or a small constant.
    fn operand(&mut self) -> String {
        if self.rng.gen_bool(0.75) {
            format!("v{}", self.var())
        } else {
            self.rng.gen_range(1..4).to_string()
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_programs_are_borrow_check_clean_and_cover_every_shape() {
        let mut in_loop_field_write = false;
        let mut seen = Vec::new();
        for seed in 0..256 {
            let size = 1 + seed as usize % 9;
            let (src, shapes) = generate(seed, size);
            let program = flowistry_lang::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed}, size {size}: {}\n{src}", e.render(&src)));
            assert!(
                program.borrow_errors.is_empty(),
                "seed {seed}, size {size}: {:?}\n{src}",
                program.borrow_errors
            );
            for (kind, in_loop) in shapes {
                in_loop_field_write |= in_loop && kind == Stmt::FieldWrite;
                if !seen.contains(&kind) {
                    seen.push(kind);
                }
            }
        }
        for kind in STMTS {
            assert!(seen.contains(&kind), "no {kind:?} statement in 256 seeds");
        }
        assert!(in_loop_field_write, "no field write inside a while body");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_program(7, 5), random_program(7, 5));
        assert_ne!(random_program(7, 5), random_program(8, 5));
    }
}
