//! Lowering from the typed AST to MIR.
//!
//! The lowering mirrors rustc's HAIR→MIR pass in miniature: expressions are
//! flattened into temporaries (`_1`, `_2`, ...), control flow becomes basic
//! blocks with `SwitchBool` terminators, and every function call becomes a
//! `Call` terminator (paper §4.1, Figure 1).
//!
//! Region variables are created here: one universal region per signature
//! region (identity-mapped, so signature region `'i` is body region `'i`),
//! then a fresh existential region for every reference position in a local's
//! type and for every borrow expression. Outlives constraints between these
//! regions are generated afterwards by [`crate::regions`].

use crate::ast::*;
use crate::mir::*;
use crate::span::Span;
use crate::typeck::{field_index, FnTypeck, VarId};
use crate::types::{FnSig, FuncId, RegionVid, StructTable, Ty};
use std::collections::HashMap;

/// Lowers one function to MIR.
///
/// The caller must pass the [`FnTypeck`] table produced by
/// [`crate::typeck::check_program`] for this function.
pub fn lower_fn(
    func: &FnDef,
    func_id: FuncId,
    sig: &FnSig,
    table: &FnTypeck,
    structs: &StructTable,
) -> Body {
    let mut cx = LowerCx {
        table,
        structs,
        local_decls: Vec::new(),
        basic_blocks: vec![BasicBlockData::new()],
        regions: Vec::new(),
        var_map: HashMap::new(),
        current: BasicBlock::START,
        loop_stack: Vec::new(),
        terminated: false,
        pending_declassify: None,
        declassified_calls: Vec::new(),
    };

    // Universal regions: identity-mapped from the signature.
    for i in 0..sig.region_count {
        cx.regions.push(RegionData {
            name: sig.region_names[i as usize].clone(),
            is_universal: true,
        });
    }

    // `_0`: the return place.
    cx.local_decls.push(LocalDecl {
        name: None,
        ty: sig.output.clone(),
        mutable: true,
        span: func.span,
    });

    // `_1..=_n`: the arguments, with signature types (universal regions).
    for (param, ty) in func.params.iter().zip(&sig.inputs) {
        let local = Local(cx.local_decls.len() as u32);
        cx.local_decls.push(LocalDecl {
            name: Some(param.name.clone()),
            ty: ty.clone(),
            mutable: false,
            span: param.span,
        });
        cx.var_map.insert(table.param_vars[cx.var_map.len()], local);
    }
    let arg_count = func.params.len();

    cx.lower_block(&func.body);

    // Fall-through at the end of the body: implicit `return` for unit
    // functions, unreachable otherwise (the type checker guarantees all
    // paths of a non-unit function end in `return`).
    if !cx.terminated {
        if sig.output == Ty::Unit {
            cx.push_stmt(
                StatementKind::Assign(
                    Place::return_place(),
                    Rvalue::Use(Operand::Constant(ConstValue::Unit)),
                ),
                func.span,
            );
            cx.terminate(TerminatorKind::Return, func.span);
        } else {
            cx.terminate(TerminatorKind::Unreachable, func.span);
        }
    }

    // Any block left without a terminator (created but never reached) gets
    // an `Unreachable` terminator so the CFG is total.
    for bb in &mut cx.basic_blocks {
        if bb.terminator.is_none() {
            bb.terminator = Some(Terminator {
                kind: TerminatorKind::Unreachable,
                span: func.span,
            });
        }
    }

    Body {
        name: func.name.clone(),
        func_id,
        arg_count,
        local_decls: cx.local_decls,
        basic_blocks: cx.basic_blocks,
        regions: cx.regions,
        outlives: Vec::new(),
        declassified_calls: cx.declassified_calls,
        module: func.module.clone(),
        span: func.span,
    }
}

struct LowerCx<'a> {
    table: &'a FnTypeck,
    structs: &'a StructTable,
    local_decls: Vec<LocalDecl>,
    basic_blocks: Vec<BasicBlockData>,
    regions: Vec<RegionData>,
    var_map: HashMap<VarId, Local>,
    current: BasicBlock,
    /// `(continue_target, break_target)` for each enclosing loop.
    loop_stack: Vec<(BasicBlock, BasicBlock)>,
    /// Whether the current block already has a terminator.
    terminated: bool,
    /// Initializer expression of a `#[declassify] let`, matched by id in
    /// [`LowerCx::lower_call`]. An id (not a flag) so that nested calls in
    /// the initializer's arguments, which lower first, are not marked.
    pending_declassify: Option<ExprId>,
    /// Accumulated locations of declassified `Call` terminators.
    declassified_calls: Vec<Location>,
}

impl<'a> LowerCx<'a> {
    // ---------------- infrastructure ----------------

    fn fresh_region(&mut self) -> RegionVid {
        let r = RegionVid(self.regions.len() as u32);
        self.regions.push(RegionData {
            name: None,
            is_universal: false,
        });
        r
    }

    /// Replaces every erased region in `ty` with a fresh existential region.
    fn freshen(&mut self, ty: &Ty) -> Ty {
        ty.map_regions(&mut |_| {
            let r = RegionVid(self.regions.len() as u32);
            self.regions.push(RegionData {
                name: None,
                is_universal: false,
            });
            r
        })
    }

    fn new_block(&mut self) -> BasicBlock {
        let bb = BasicBlock(self.basic_blocks.len() as u32);
        self.basic_blocks.push(BasicBlockData::new());
        bb
    }

    fn switch_to(&mut self, bb: BasicBlock) {
        self.current = bb;
        self.terminated = false;
    }

    fn push_stmt(&mut self, kind: StatementKind, span: Span) {
        debug_assert!(!self.terminated, "statement pushed after terminator");
        self.basic_blocks[self.current.index()]
            .statements
            .push(Statement { kind, span });
    }

    fn terminate(&mut self, kind: TerminatorKind, span: Span) {
        debug_assert!(!self.terminated, "block terminated twice");
        self.basic_blocks[self.current.index()].terminator = Some(Terminator { kind, span });
        self.terminated = true;
    }

    fn new_temp(&mut self, ty: Ty, span: Span) -> Local {
        let local = Local(self.local_decls.len() as u32);
        self.local_decls.push(LocalDecl {
            name: None,
            ty,
            mutable: true,
            span,
        });
        local
    }

    fn expr_ty(&self, e: &Expr) -> &'a Ty {
        self.table
            .expr_tys
            .get(&e.id)
            .expect("expression was not type checked")
    }

    // ---------------- statements ----------------

    fn lower_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            if self.terminated {
                // Statements after `return`/`break`/`continue` are
                // unreachable; lower them into a fresh detached block so the
                // MIR stays well formed.
                let bb = self.new_block();
                self.switch_to(bb);
            }
            self.lower_stmt(stmt);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Let {
                init, declassify, ..
            } => {
                let var = *self
                    .table
                    .let_vars
                    .get(&init.id)
                    .expect("let binding was not type checked");
                if *declassify {
                    self.pending_declassify = Some(init.id);
                }
                let ty = self.freshen(&self.table.var_tys[var.0 as usize]);
                let name = self.table.var_names[var.0 as usize].clone();
                let mutable = self.table.var_mut[var.0 as usize];
                let rvalue = self.lower_expr_to_rvalue(init);
                let local = Local(self.local_decls.len() as u32);
                self.local_decls.push(LocalDecl {
                    name: Some(name),
                    ty,
                    mutable,
                    span: stmt.span,
                });
                self.push_stmt(
                    StatementKind::Assign(Place::from_local(local), rvalue),
                    stmt.span,
                );
                self.var_map.insert(var, local);
            }
            StmtKind::Assign { place, value } => {
                let rvalue = self.lower_expr_to_rvalue(value);
                let place = self.lower_place(place);
                self.push_stmt(StatementKind::Assign(place, rvalue), stmt.span);
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let discr = self.lower_expr_to_operand(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join_bb = self.new_block();
                self.terminate(
                    TerminatorKind::SwitchBool {
                        discr,
                        true_block: then_bb,
                        false_block: else_bb,
                    },
                    stmt.span,
                );

                self.switch_to(then_bb);
                self.lower_block(then_block);
                if !self.terminated {
                    self.terminate(TerminatorKind::Goto { target: join_bb }, stmt.span);
                }

                self.switch_to(else_bb);
                if let Some(eb) = else_block {
                    self.lower_block(eb);
                }
                if !self.terminated {
                    self.terminate(TerminatorKind::Goto { target: join_bb }, stmt.span);
                }

                self.switch_to(join_bb);
            }
            StmtKind::While { cond, body } => {
                let cond_bb = self.new_block();
                let body_bb = self.new_block();
                let exit_bb = self.new_block();
                self.terminate(TerminatorKind::Goto { target: cond_bb }, stmt.span);

                self.switch_to(cond_bb);
                let discr = self.lower_expr_to_operand(cond);
                self.terminate(
                    TerminatorKind::SwitchBool {
                        discr,
                        true_block: body_bb,
                        false_block: exit_bb,
                    },
                    stmt.span,
                );

                self.loop_stack.push((cond_bb, exit_bb));
                self.switch_to(body_bb);
                self.lower_block(body);
                if !self.terminated {
                    self.terminate(TerminatorKind::Goto { target: cond_bb }, stmt.span);
                }
                self.loop_stack.pop();

                self.switch_to(exit_bb);
            }
            StmtKind::Loop { body } => {
                let body_bb = self.new_block();
                let exit_bb = self.new_block();
                self.terminate(TerminatorKind::Goto { target: body_bb }, stmt.span);

                self.loop_stack.push((body_bb, exit_bb));
                self.switch_to(body_bb);
                self.lower_block(body);
                if !self.terminated {
                    self.terminate(TerminatorKind::Goto { target: body_bb }, stmt.span);
                }
                self.loop_stack.pop();

                self.switch_to(exit_bb);
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => {
                        let rvalue = self.lower_expr_to_rvalue(e);
                        self.push_stmt(
                            StatementKind::Assign(Place::return_place(), rvalue),
                            stmt.span,
                        );
                    }
                    None => {
                        self.push_stmt(
                            StatementKind::Assign(
                                Place::return_place(),
                                Rvalue::Use(Operand::Constant(ConstValue::Unit)),
                            ),
                            stmt.span,
                        );
                    }
                }
                self.terminate(TerminatorKind::Return, stmt.span);
            }
            StmtKind::Break => {
                let (_, break_bb) = *self.loop_stack.last().expect("break outside loop");
                self.terminate(TerminatorKind::Goto { target: break_bb }, stmt.span);
            }
            StmtKind::Continue => {
                let (continue_bb, _) = *self.loop_stack.last().expect("continue outside loop");
                self.terminate(
                    TerminatorKind::Goto {
                        target: continue_bb,
                    },
                    stmt.span,
                );
            }
            StmtKind::Expr(e) => {
                // Evaluate for effect: lower into a temporary.
                let ty = self.freshen(self.expr_ty(e));
                let rvalue = self.lower_expr_to_rvalue(e);
                let temp = self.new_temp(ty, stmt.span);
                self.push_stmt(
                    StatementKind::Assign(Place::from_local(temp), rvalue),
                    stmt.span,
                );
            }
        }
    }

    // ---------------- expressions ----------------

    /// Lowers an expression to an rvalue, emitting statements/terminators for
    /// any nested calls.
    fn lower_expr_to_rvalue(&mut self, expr: &Expr) -> Rvalue {
        match &expr.kind {
            ExprKind::Unit => Rvalue::Use(Operand::Constant(ConstValue::Unit)),
            ExprKind::Int(n) => Rvalue::Use(Operand::Constant(ConstValue::Int(*n))),
            ExprKind::Bool(b) => Rvalue::Use(Operand::Constant(ConstValue::Bool(*b))),
            ExprKind::Var(_) | ExprKind::Field(..) | ExprKind::Deref(_) => {
                Rvalue::Use(self.place_operand(expr))
            }
            ExprKind::Borrow { mutbl, expr: inner } => {
                let place = self.lower_place(inner);
                let region = self.fresh_region();
                Rvalue::Ref {
                    region,
                    mutbl: *mutbl,
                    place,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr_to_operand(lhs);
                let r = self.lower_expr_to_operand(rhs);
                Rvalue::BinaryOp(*op, l, r)
            }
            ExprKind::Unary { op, operand } => {
                let o = self.lower_expr_to_operand(operand);
                Rvalue::UnaryOp(*op, o)
            }
            ExprKind::Tuple(elems) => {
                let ops = elems
                    .iter()
                    .map(|e| self.lower_expr_to_operand(e))
                    .collect();
                Rvalue::Aggregate(AggregateKind::Tuple, ops)
            }
            ExprKind::StructLit { name, fields } => {
                let sid = self
                    .structs
                    .lookup(name)
                    .expect("struct literal for unknown struct survived type checking");
                // Reorder field initializers into declaration order.
                let def = self.structs.get(sid);
                let mut ops = Vec::with_capacity(def.fields.len());
                for (fname, _) in &def.fields {
                    let (_, fexpr) = fields
                        .iter()
                        .find(|(n, _)| n == fname)
                        .expect("missing field survived type checking");
                    ops.push(self.lower_expr_to_operand(fexpr));
                }
                Rvalue::Aggregate(AggregateKind::Struct(sid), ops)
            }
            ExprKind::Call { args, .. } => {
                let temp = self.lower_call(expr, args);
                Rvalue::Use(Operand::Copy(Place::from_local(temp)))
            }
        }
    }

    /// Lowers an expression to an operand, introducing a temporary when the
    /// expression is not already a constant or place.
    fn lower_expr_to_operand(&mut self, expr: &Expr) -> Operand {
        match &expr.kind {
            ExprKind::Unit => Operand::Constant(ConstValue::Unit),
            ExprKind::Int(n) => Operand::Constant(ConstValue::Int(*n)),
            ExprKind::Bool(b) => Operand::Constant(ConstValue::Bool(*b)),
            ExprKind::Var(_) | ExprKind::Field(..) | ExprKind::Deref(_) => self.place_operand(expr),
            _ => {
                let ty = self.freshen(self.expr_ty(expr));
                let rvalue = self.lower_expr_to_rvalue(expr);
                let temp = self.new_temp(ty, expr.span);
                self.push_stmt(
                    StatementKind::Assign(Place::from_local(temp), rvalue),
                    expr.span,
                );
                Operand::Copy(Place::from_local(temp))
            }
        }
    }

    /// Builds the `Copy`/`Move` operand for a place expression. Unique
    /// references are moved, everything else is copied (Rox has no `Drop`
    /// types, so the distinction is cosmetic but mirrors rustc).
    fn place_operand(&mut self, expr: &Expr) -> Operand {
        let place = self.lower_place(expr);
        match self.expr_ty(expr) {
            Ty::Ref(_, m, _) if m.is_mut() => Operand::Move(place),
            _ => Operand::Copy(place),
        }
    }

    /// Lowers a call expression into a `Call` terminator and returns the
    /// temporary holding its result.
    fn lower_call(&mut self, expr: &Expr, args: &[Expr]) -> Local {
        let func = *self
            .table
            .call_resolutions
            .get(&expr.id)
            .expect("call was not resolved during type checking");
        let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr_to_operand(a)).collect();
        let ty = self.freshen(self.expr_ty(expr));
        let dest = self.new_temp(ty, expr.span);
        let next = self.new_block();
        if self.pending_declassify == Some(expr.id) {
            self.pending_declassify = None;
            self.declassified_calls.push(Location {
                block: self.current,
                statement_index: self.basic_blocks[self.current.index()].statements.len(),
            });
        }
        self.terminate(
            TerminatorKind::Call {
                func,
                args: arg_ops,
                destination: Place::from_local(dest),
                target: next,
            },
            expr.span,
        );
        self.switch_to(next);
        dest
    }

    /// Lowers a place expression to a MIR [`Place`]. Non-place bases (e.g.
    /// field access on a call result) are first evaluated into a temporary.
    fn lower_place(&mut self, expr: &Expr) -> Place {
        match &expr.kind {
            ExprKind::Var(_) => {
                let var = *self
                    .table
                    .expr_vars
                    .get(&expr.id)
                    .expect("variable was not resolved during type checking");
                Place::from_local(
                    *self
                        .var_map
                        .get(&var)
                        .expect("variable used before its binding was lowered"),
                )
            }
            ExprKind::Field(base, field) => {
                let base_ty = self.expr_ty(base);
                let mut place = self.lower_place_or_temp(base);
                // Auto-deref through a reference, as the type checker did.
                let container = match base_ty {
                    Ty::Ref(_, _, inner) => {
                        place = place.deref();
                        inner
                    }
                    other => other,
                };
                let idx = field_index(container, field, self.structs)
                    .expect("field resolution survived type checking");
                place.field(idx)
            }
            ExprKind::Deref(base) => {
                let place = self.lower_place_or_temp(base);
                place.deref()
            }
            _ => self.lower_place_or_temp(expr),
        }
    }

    /// Like [`Self::lower_place`], but spills non-place expressions into a
    /// temporary local.
    fn lower_place_or_temp(&mut self, expr: &Expr) -> Place {
        if expr.is_place() {
            self.lower_place(expr)
        } else {
            let ty = self.freshen(self.expr_ty(expr));
            let rvalue = self.lower_expr_to_rvalue(expr);
            let temp = self.new_temp(ty, expr.span);
            self.push_stmt(
                StatementKind::Assign(Place::from_local(temp), rvalue),
                expr.span,
            );
            Place::from_local(temp)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use crate::mir::*;

    fn body_of(src: &str, name: &str) -> Body {
        let prog = compile(src).expect("compile failure");
        prog.bodies
            .iter()
            .find(|b| b.name == name)
            .expect("function not found")
            .clone()
    }

    #[test]
    fn straight_line_function_has_single_block() {
        let b = body_of("fn f(x: i32) -> i32 { let y = x + 1; return y; }", "f");
        // The entry block holds everything; extra blocks may exist but must
        // be unreachable.
        assert!(matches!(
            b.block(BasicBlock::START).terminator().kind,
            TerminatorKind::Return
        ));
        assert_eq!(b.arg_count, 1);
        assert!(b.instruction_count() >= 3);
    }

    #[test]
    fn if_lowers_to_switch_and_join() {
        let b = body_of(
            "fn f(c: bool) -> i32 { let mut x = 0; if c { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        let has_switch = b.block_ids().any(|bb| {
            matches!(
                b.block(bb).terminator().kind,
                TerminatorKind::SwitchBool { .. }
            )
        });
        assert!(has_switch);
        let returns = b.return_locations();
        assert_eq!(returns.len(), 1);
    }

    #[test]
    fn while_loop_forms_a_cycle() {
        let b = body_of(
            "fn f() -> i32 { let mut i = 0; while i < 10 { i = i + 1; } return i; }",
            "f",
        );
        // Some block must have a back edge to an earlier block.
        let mut has_back_edge = false;
        for bb in b.block_ids() {
            for succ in b.successors(bb) {
                if succ.index() <= bb.index() {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
    }

    #[test]
    fn calls_become_terminators() {
        let b = body_of(
            "fn g(x: i32) -> i32 { return x; } fn f() -> i32 { return g(3) + g(4); }",
            "f",
        );
        let n_calls = b
            .block_ids()
            .filter(|bb| matches!(b.block(*bb).terminator().kind, TerminatorKind::Call { .. }))
            .count();
        assert_eq!(n_calls, 2);
    }

    #[test]
    fn borrows_create_fresh_regions() {
        let b = body_of(
            "fn f() { let mut x = 1; let r = &mut x; *r = 2; let s = &x; }",
            "f",
        );
        let n_refs = b
            .basic_blocks
            .iter()
            .flat_map(|bb| &bb.statements)
            .filter(|s| matches!(s.kind, StatementKind::Assign(_, Rvalue::Ref { .. })))
            .count();
        assert_eq!(n_refs, 2);
        // At least two existential regions plus those from local types.
        assert!(b.regions.iter().filter(|r| !r.is_universal).count() >= 2);
    }

    #[test]
    fn field_assignment_produces_projected_place() {
        let b = body_of("fn f() { let mut t = (1, 2); t.1 = 3; }", "f");
        let found = b
            .basic_blocks
            .iter()
            .flat_map(|bb| &bb.statements)
            .any(|s| match &s.kind {
                StatementKind::Assign(p, _) => p.projection == vec![PlaceElem::Field(1)],
                _ => false,
            });
        assert!(found);
    }

    #[test]
    fn deref_assignment_through_reference() {
        let b = body_of("fn f(p: &mut (i32, i32)) { (*p).1 = 3; }", "f");
        let found = b
            .basic_blocks
            .iter()
            .flat_map(|bb| &bb.statements)
            .any(|s| match &s.kind {
                StatementKind::Assign(p, _) => {
                    p.projection == vec![PlaceElem::Deref, PlaceElem::Field(1)]
                }
                _ => false,
            });
        assert!(found);
    }

    #[test]
    fn autoderef_field_access_inserts_deref() {
        let b = body_of("fn f(p: &(i32, i32)) -> i32 { return p.0; }", "f");
        let found = b
            .basic_blocks
            .iter()
            .flat_map(|bb| &bb.statements)
            .any(|s| match &s.kind {
                StatementKind::Assign(_, Rvalue::Use(op)) => op
                    .place()
                    .is_some_and(|p| p.projection == vec![PlaceElem::Deref, PlaceElem::Field(0)]),
                _ => false,
            });
        assert!(found);
    }

    #[test]
    fn unit_function_gets_implicit_return() {
        let b = body_of("fn f() { let x = 1; }", "f");
        assert_eq!(b.return_locations().len(), 1);
    }

    #[test]
    fn break_and_continue_target_loop_blocks() {
        let b = body_of(
            "fn f() { let mut i = 0; while true { if i > 3 { break; } i = i + 1; continue; } }",
            "f",
        );
        // Simply verify the CFG is total (every block has a terminator) and a
        // return exists.
        for bb in b.block_ids() {
            let _ = b.block(bb).terminator();
        }
        assert_eq!(b.return_locations().len(), 1);
    }

    #[test]
    fn arguments_use_universal_regions() {
        let b = body_of("fn f<'a>(p: &'a mut i32) { *p = 1; }", "f");
        assert!(b.regions[0].is_universal);
        assert_eq!(b.regions[0].name.as_deref(), Some("a"));
        let arg_ty = &b.local_decl(Local(1)).ty;
        assert_eq!(arg_ty.regions(), vec![crate::types::RegionVid(0)]);
    }

    #[test]
    fn struct_literal_orders_fields_by_declaration() {
        let b = body_of(
            "struct P { a: i32, b: bool } fn f() -> P { return P { b: true, a: 1 }; }",
            "f",
        );
        let found = b
            .basic_blocks
            .iter()
            .flat_map(|bb| &bb.statements)
            .any(|s| match &s.kind {
                StatementKind::Assign(_, Rvalue::Aggregate(AggregateKind::Struct(_), ops)) => {
                    matches!(ops[0], Operand::Constant(ConstValue::Int(1)))
                        && matches!(ops[1], Operand::Constant(ConstValue::Bool(true)))
                }
                _ => false,
            });
        assert!(found);
    }

    #[test]
    fn unreachable_code_after_return_is_isolated() {
        let b = body_of("fn f() -> i32 { return 1; let x = 2; return x; }", "f");
        // The entry block returns immediately.
        assert!(matches!(
            b.block(BasicBlock::START).terminator().kind,
            TerminatorKind::Return
        ));
    }
}
