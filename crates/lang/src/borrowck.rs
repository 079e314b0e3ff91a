//! A simplified borrow (conflict) checker for Rox.
//!
//! The information flow analysis itself only needs loan sets; this module
//! exists because the paper's soundness argument assumes analyzed programs
//! are *ownership-safe* (data is never simultaneously aliased and mutated).
//! The checker enforces an NLL-like discipline:
//!
//! * a loan is **live** from its creation until the last use of any local
//!   whose type may carry it (computed via local liveness plus region
//!   reachability over the outlives constraints);
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
use std::collections::{HashMap, HashSet};

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
    let live_locals = liveness(body);
    let reach = region_reachability(body);
    let mut errors = Vec::new();

    for bb in body.block_ids() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            let live = live_loans(body, &loans, &live_locals, &reach, loc);
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
            statement_index: data.statements.len(),
        };
        let live = live_loans(body, &loans, &live_locals, &reach, loc);
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

/// Loans live at `loc`: the loan's region reaches a region mentioned in the
/// type of some local that is live at `loc`, or the loan was created at an
/// earlier statement of the same block and its value has not yet died.
fn live_loans<'a>(
    body: &Body,
    loans: &'a [Loan],
    live_locals: &HashMap<Location, HashSet<Local>>,
    reach: &HashMap<RegionVid, HashSet<RegionVid>>,
    loc: Location,
) -> Vec<&'a Loan> {
    let live = match live_locals.get(&loc) {
        Some(set) => set,
        None => return Vec::new(),
    };
    // Regions mentioned by live locals.
    let mut live_regions: HashSet<RegionVid> = HashSet::new();
    for local in live {
        for r in body.local_decl(*local).ty.regions() {
            live_regions.insert(r);
        }
    }
    loans
        .iter()
        .filter(|loan| {
            reach
                .get(&loan.region)
                .map(|reached| reached.iter().any(|r| live_regions.contains(r)))
                .unwrap_or(false)
        })
        .collect()
}

/// For each region, the set of regions its loans flow into (including
/// itself): reachability over `longer :> shorter` edges.
fn region_reachability(body: &Body) -> HashMap<RegionVid, HashSet<RegionVid>> {
    let mut edges: HashMap<RegionVid, Vec<RegionVid>> = HashMap::new();
    for c in &body.outlives {
        edges.entry(c.longer).or_default().push(c.shorter);
    }
    let mut out = HashMap::new();
    for i in 0..body.regions.len() {
        let start = RegionVid(i as u32);
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        while let Some(r) = stack.pop() {
            if seen.insert(r) {
                if let Some(next) = edges.get(&r) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        out.insert(start, seen);
    }
    out
}

/// Per-location live locals (backward may-analysis).
fn liveness(body: &Body) -> HashMap<Location, HashSet<Local>> {
    // live-out of each block, iterated to fixpoint.
    let n = body.basic_blocks.len();
    let mut live_in: Vec<HashSet<Local>> = vec![HashSet::new(); n];
    let preds = body.predecessors();

    // Transfer over one block: returns the live set before the block given
    // the live set after it, and records per-location sets.
    fn block_transfer(
        body: &Body,
        bb: BasicBlock,
        mut live: HashSet<Local>,
        record: Option<&mut HashMap<Location, HashSet<Local>>>,
    ) -> HashSet<Local> {
        let data = body.block(bb);
        let mut per_loc: Vec<(Location, HashSet<Local>)> = Vec::new();

        // Terminator first (we walk backwards).
        let term_loc = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        match &data.terminator().kind {
            TerminatorKind::Call {
                args, destination, ..
            } => {
                if destination.projection.is_empty() {
                    live.remove(&destination.local);
                } else {
                    live.insert(destination.local);
                }
                for op in args {
                    if let Some(p) = op.place() {
                        live.insert(p.local);
                    }
                }
            }
            TerminatorKind::SwitchBool { discr, .. } => {
                if let Some(p) = discr.place() {
                    live.insert(p.local);
                }
            }
            TerminatorKind::Return => {
                live.insert(Local::RETURN);
            }
            _ => {}
        }
        per_loc.push((term_loc, live.clone()));

        for (i, stmt) in data.statements.iter().enumerate().rev() {
            if let StatementKind::Assign(place, rvalue) = &stmt.kind {
                if place.projection.is_empty() {
                    live.remove(&place.local);
                } else {
                    live.insert(place.local);
                }
                match rvalue {
                    Rvalue::Ref { place: p, .. } => {
                        live.insert(p.local);
                    }
                    _ => {
                        for op in rvalue.operands() {
                            if let Some(p) = op.place() {
                                live.insert(p.local);
                            }
                        }
                    }
                }
            }
            per_loc.push((
                Location {
                    block: bb,
                    statement_index: i,
                },
                live.clone(),
            ));
        }

        if let Some(record) = record {
            for (loc, set) in per_loc {
                record.insert(loc, set);
            }
        }
        live
    }

    // Fixpoint over blocks.
    let mut changed = true;
    while changed {
        changed = false;
        for bb in body.block_ids().collect::<Vec<_>>().into_iter().rev() {
            // live-out = union of live-in of successors
            let mut live_out = HashSet::new();
            for succ in body.successors(bb) {
                live_out.extend(live_in[succ.index()].iter().copied());
            }
            let new_in = block_transfer(body, bb, live_out, None);
            if new_in != live_in[bb.index()] {
                live_in[bb.index()] = new_in;
                changed = true;
            }
        }
    }
    // A location's live set is the set *after* that instruction has been
    // reached going backwards from the block end; record per-location data.
    let mut per_location = HashMap::new();
    for bb in body.block_ids() {
        let mut live_out = HashSet::new();
        for succ in body.successors(bb) {
            live_out.extend(live_in[succ.index()].iter().copied());
        }
        block_transfer(body, bb, live_out, Some(&mut per_location));
        // preds is only used to keep the analysis honest about reachability.
        let _ = &preds;
    }
    per_location
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
