//! A simplified borrow (conflict) checker for Rox.
//!
//! The information flow analysis itself only needs loan sets; this module
//! exists because the paper's soundness argument assumes analyzed programs
//! are *ownership-safe* (data is never simultaneously aliased and mutated).
//! The checker enforces an NLL-like discipline:
//!
//! * a loan is **live** at a location when some local live on entry to it
//!   has a type that may carry it: one mentioning a region the loan's region
//!   reaches over the outlives constraints. Live locals are dense bitsets
//!   (`ceil(n_locals / 64)` words) from a backward fixpoint over blocks, and
//!   each loan's carrier locals are one bitset computed once per body;
//! * while a unique loan of `p` is live, `p`'s conflicting places may not be
//!   read, written, or borrowed (except through the loan itself);
//! * while a shared loan of `p` is live, `p`'s conflicting places may not be
//!   written or mutably borrowed.
//!
//! Accesses whose path passes through a dereference are treated as accesses
//! *through* a reference and are not re-checked against other loans; this is
//! a deliberate simplification (it never rejects valid programs, at the cost
//! of missing a small class of invalid ones).

use crate::ast::Mutability;
use crate::mir::*;
use crate::span::Diagnostic;
use crate::types::RegionVid;

/// A loan: a borrow of `place` with a given mutability and region, created
/// at `location`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loan {
    /// Where the borrow statement sits.
    pub location: Location,
    /// The borrowed place.
    pub place: Place,
    /// Shared or unique.
    pub mutbl: Mutability,
    /// The borrow's region.
    pub region: RegionVid,
}

/// Checks one body and returns all conflict diagnostics found.
pub fn check_body(body: &Body) -> Vec<Diagnostic> {
    let loans = collect_loans(body);
    if loans.is_empty() {
        return Vec::new();
    }
    let words = body.local_decls.len().div_ceil(64);
    let carriers = loan_carriers(body, &loans, words);
    let block_live_in = block_live_in(body, words);
    let mut errors = Vec::new();
    // The live-in set of each location of the current block (`words` per
    // location) from one backward walk, the set under that walk, and the
    // loans live at the location being checked.
    let mut live_at: Vec<u64> = Vec::new();
    let mut cur = vec![0u64; words];
    let mut live = Vec::new();

    for bb in body.block_ids() {
        let data = body.block(bb);
        let n = data.statements.len();
        live_at.resize((n + 1) * words, 0);
        live_out(body, bb, &block_live_in, &mut cur);
        transfer_terminator(&mut cur, data.terminator());
        live_at[n * words..].copy_from_slice(&cur);
        for (i, stmt) in data.statements.iter().enumerate().rev() {
            transfer_statement(&mut cur, stmt);
            live_at[i * words..(i + 1) * words].copy_from_slice(&cur);
        }

        for (i, stmt) in data.statements.iter().enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            loans_live_at(&loans, &carriers, &live_at[i * words..], &mut live);
            if let StatementKind::Assign(place, rvalue) = &stmt.kind {
                check_write(body, place, &live, loc, stmt.span, &mut errors);
                match rvalue {
                    Rvalue::Ref {
                        mutbl,
                        place: borrowed,
                        ..
                    } => {
                        check_borrow(body, borrowed, *mutbl, &live, loc, stmt.span, &mut errors);
                    }
                    _ => {
                        for op in rvalue.operands() {
                            if let Some(p) = op.place() {
                                check_read(body, p, &live, loc, stmt.span, &mut errors);
                            }
                        }
                    }
                }
            }
        }
        let loc = Location {
            block: bb,
            statement_index: n,
        };
        loans_live_at(&loans, &carriers, &live_at[n * words..], &mut live);
        match &data.terminator().kind {
            TerminatorKind::Call {
                args, destination, ..
            } => {
                for op in args {
                    if let Some(p) = op.place() {
                        check_read(body, p, &live, loc, data.terminator().span, &mut errors);
                    }
                }
                check_write(
                    body,
                    destination,
                    &live,
                    loc,
                    data.terminator().span,
                    &mut errors,
                );
            }
            TerminatorKind::SwitchBool { discr, .. } => {
                if let Some(p) = discr.place() {
                    check_read(body, p, &live, loc, data.terminator().span, &mut errors);
                }
            }
            _ => {}
        }
    }
    errors
}

/// All loans (borrow statements) in the body.
pub fn collect_loans(body: &Body) -> Vec<Loan> {
    let mut loans = Vec::new();
    for bb in body.block_ids() {
        for (i, stmt) in body.block(bb).statements.iter().enumerate() {
            if let StatementKind::Assign(
                _,
                Rvalue::Ref {
                    region,
                    mutbl,
                    place,
                },
            ) = &stmt.kind
            {
                loans.push(Loan {
                    location: Location {
                        block: bb,
                        statement_index: i,
                    },
                    place: place.clone(),
                    mutbl: *mutbl,
                    region: *region,
                });
            }
        }
    }
    loans
}

fn check_write(
    body: &Body,
    place: &Place,
    live: &[&Loan],
    loc: Location,
    span: crate::span::Span,
    errors: &mut Vec<Diagnostic>,
) {
    if place.has_deref() {
        return; // access through a reference
    }
    for loan in live {
        if loan.location == loc {
            continue;
        }
        if !loan.place.has_deref() && loan.place.conflicts_with(place) {
            errors.push(Diagnostic::error(
                format!(
                    "cannot assign to `{place}` in `{}` because it is borrowed at {}",
                    body.name, loan.location
                ),
                span,
            ));
        }
    }
}

fn check_read(
    body: &Body,
    place: &Place,
    live: &[&Loan],
    loc: Location,
    span: crate::span::Span,
    errors: &mut Vec<Diagnostic>,
) {
    if place.has_deref() {
        return;
    }
    for loan in live {
        if loan.location == loc || !loan.mutbl.is_mut() {
            continue;
        }
        if !loan.place.has_deref() && loan.place.conflicts_with(place) {
            errors.push(Diagnostic::error(
                format!(
                    "cannot read `{place}` in `{}` because it is mutably borrowed at {}",
                    body.name, loan.location
                ),
                span,
            ));
        }
    }
}

fn check_borrow(
    body: &Body,
    place: &Place,
    mutbl: Mutability,
    live: &[&Loan],
    loc: Location,
    span: crate::span::Span,
    errors: &mut Vec<Diagnostic>,
) {
    if place.has_deref() {
        return; // reborrow through an existing reference
    }
    for loan in live {
        if loan.location == loc || loan.place.has_deref() {
            continue;
        }
        let conflict = loan.place.conflicts_with(place);
        if conflict && (mutbl.is_mut() || loan.mutbl.is_mut()) {
            errors.push(Diagnostic::error(
                format!(
                    "cannot borrow `{place}` as {} in `{}` because a conflicting borrow exists at {}",
                    if mutbl.is_mut() { "unique" } else { "shared" },
                    body.name,
                    loan.location
                ),
                span,
            ));
        }
    }
}

/// Collects into `out`, in loan order, the loans live where `live` (a
/// location's live-in set) holds: those with a carrier local in `live`.
fn loans_live_at<'a>(
    loans: &'a [Loan],
    carriers: &[Vec<u64>],
    live: &[u64],
    out: &mut Vec<&'a Loan>,
) {
    out.clear();
    out.extend(
        loans
            .iter()
            .zip(carriers)
            .filter(|(_, carrier)| carrier.iter().zip(live).any(|(c, l)| c & l != 0))
            .map(|(loan, _)| loan),
    );
}

/// Per loan, the locals that may carry it: those whose type mentions a
/// region the loan's region reaches over `longer :> shorter` edges (the
/// loan's region included).
fn loan_carriers(body: &Body, loans: &[Loan], words: usize) -> Vec<Vec<u64>> {
    let n_regions = body.regions.len();
    let mut edges: Vec<Vec<RegionVid>> = vec![Vec::new(); n_regions];
    for c in &body.outlives {
        if let Some(next) = edges.get_mut(c.longer.0 as usize) {
            next.push(c.shorter);
        }
    }
    let mut reached = vec![false; n_regions];
    let mut stack = Vec::new();
    loans
        .iter()
        .map(|loan| {
            reached.fill(false);
            stack.push(loan.region);
            while let Some(r) = stack.pop() {
                if let Some(seen @ false) = reached.get_mut(r.0 as usize) {
                    *seen = true;
                    stack.extend(&edges[r.0 as usize]);
                }
            }
            let mut carrier = vec![0u64; words];
            for (i, decl) in body.local_decls.iter().enumerate() {
                if decl
                    .ty
                    .any_region(&mut |r| reached.get(r.0 as usize) == Some(&true))
                {
                    carrier[i / 64] |= 1 << (i % 64);
                }
            }
            carrier
        })
        .collect()
}

fn mark_live(live: &mut [u64], local: Local) {
    live[local.index() / 64] |= 1 << (local.index() % 64);
}

/// A whole-local assignment kills the local; a write to a projection keeps
/// (and so uses) the rest of it.
fn define(live: &mut [u64], place: &Place) {
    if place.projection.is_empty() {
        live[place.local.index() / 64] &= !(1 << (place.local.index() % 64));
    } else {
        mark_live(live, place.local);
    }
}

/// Backward transfer of one statement: the assigned place, then the
/// rvalue's operands (or the borrowed place).
fn transfer_statement(live: &mut [u64], stmt: &Statement) {
    if let StatementKind::Assign(place, rvalue) = &stmt.kind {
        define(live, place);
        match rvalue {
            Rvalue::Ref { place: p, .. } => mark_live(live, p.local),
            _ => {
                for op in rvalue.operands() {
                    if let Some(p) = op.place() {
                        mark_live(live, p.local);
                    }
                }
            }
        }
    }
}

/// Backward transfer of a terminator: a call's destination, then its
/// arguments; a branch's discriminant; `Return` uses the return place.
fn transfer_terminator(live: &mut [u64], term: &Terminator) {
    match &term.kind {
        TerminatorKind::Call {
            args, destination, ..
        } => {
            define(live, destination);
            for p in args.iter().filter_map(Operand::place) {
                mark_live(live, p.local);
            }
        }
        TerminatorKind::SwitchBool { discr, .. } => {
            if let Some(p) = discr.place() {
                mark_live(live, p.local);
            }
        }
        TerminatorKind::Return => mark_live(live, Local::RETURN),
        _ => {}
    }
}

/// Writes into `out` the union of the live-in sets of `bb`'s successors.
fn live_out(body: &Body, bb: BasicBlock, block_live_in: &[Vec<u64>], out: &mut [u64]) {
    out.fill(0);
    for succ in body.successors(bb) {
        for (o, w) in out.iter_mut().zip(&block_live_in[succ.index()]) {
            *o |= w;
        }
    }
}

/// The live-in set of every block: a backward may-analysis over local
/// bitsets, iterated to a fixpoint.
fn block_live_in(body: &Body, words: usize) -> Vec<Vec<u64>> {
    let n = body.basic_blocks.len();
    let mut live_in = vec![vec![0u64; words]; n];
    let mut live = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for bb in (0..n as u32).rev().map(BasicBlock) {
            live_out(body, bb, &live_in, &mut live);
            let data = body.block(bb);
            transfer_terminator(&mut live, data.terminator());
            for stmt in data.statements.iter().rev() {
                transfer_statement(&mut live, stmt);
            }
            if live != live_in[bb.index()] {
                live_in[bb.index()].copy_from_slice(&live);
                changed = true;
            }
        }
    }
    live_in
}

#[cfg(test)]
mod tests {
    use crate::compile;

    fn errors(src: &str) -> Vec<String> {
        let prog = compile(src).expect("compile failure");
        prog.borrow_errors
            .iter()
            .map(|d| d.message.clone())
            .collect()
    }

    #[test]
    fn sequential_borrows_are_fine() {
        let errs = errors("fn f() { let mut x = 1; let r = &mut x; *r = 2; let v = x; }");
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }

    #[test]
    fn mutating_while_borrowed_is_an_error() {
        let errs = errors("fn f() -> i32 { let mut x = 1; let r = &x; x = 2; return *r; }");
        assert!(!errs.is_empty());
        assert!(errs[0].contains("borrowed"));
    }

    #[test]
    fn reading_while_mutably_borrowed_is_an_error() {
        let errs =
            errors("fn f() -> i32 { let mut x = 1; let r = &mut x; let y = x; *r = 2; return y; }");
        assert!(!errs.is_empty());
    }

    #[test]
    fn two_unique_borrows_conflict() {
        let errs = errors(
            "fn f() -> i32 { let mut x = 1; let a = &mut x; let b = &mut x; *a = 2; *b = 3; return x; }",
        );
        assert!(!errs.is_empty());
    }

    #[test]
    fn shared_borrows_can_coexist() {
        let errs = errors("fn f() -> i32 { let x = 1; let a = &x; let b = &x; return *a + *b; }");
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }

    #[test]
    fn disjoint_field_borrows_do_not_conflict() {
        let errs = errors(
            "fn f() -> i32 { let mut t = (1, 2); let a = &mut t.0; let b = &mut t.1; *a = 3; *b = 4; return t.0; }",
        );
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }

    #[test]
    fn reborrow_through_reference_is_allowed() {
        let errs =
            errors("fn f() { let mut x = (0, 0); let y = &mut x; let z = &mut (*y).1; *z = 1; }");
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }

    #[test]
    fn borrow_ending_before_mutation_is_allowed() {
        let errs =
            errors("fn f() -> i32 { let mut x = 1; let r = &x; let v = *r; x = 2; return v + x; }");
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }

    #[test]
    fn mutation_through_parameter_reference_is_allowed() {
        let errs = errors("fn f(p: &mut i32) { *p = *p + 1; }");
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }
}
