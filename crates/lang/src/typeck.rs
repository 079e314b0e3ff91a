//! Type checker for Rox.
//!
//! The checker validates a parsed [`Program`] and produces, per function, a
//! [`FnTypeck`] table used by MIR lowering: the type of every expression, the
//! resolution of every variable use to a binding, and the declared function
//! signatures (the [`FnSig`]s that the modular analysis of paper §2.3 is
//! allowed to consult).
//!
//! Types produced here have [`RegionVid::ERASED`] in every reference
//! position except inside [`FnSig`]s, where regions index the signature's
//! abstract provenances. Concrete region variables are introduced later by
//! MIR lowering and constrained by [`crate::regions`].

use crate::ast::*;
use crate::span::{Diagnostic, Span};
use crate::types::{FnSig, FuncId, RegionVid, StructData, StructTable, Ty};
use std::collections::HashMap;

/// Id of a variable binding (parameter or `let`) within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Per-function type checking results consumed by MIR lowering.
#[derive(Debug, Clone, Default)]
pub struct FnTypeck {
    /// Type of every expression in the function body (erased regions).
    pub expr_tys: HashMap<ExprId, Ty>,
    /// Resolution of every `Var` expression to its binding.
    pub expr_vars: HashMap<ExprId, VarId>,
    /// For each `let` statement (keyed by the id of its initializer
    /// expression), the binding it introduces.
    pub let_vars: HashMap<ExprId, VarId>,
    /// Type of each binding.
    pub var_tys: Vec<Ty>,
    /// Name of each binding.
    pub var_names: Vec<String>,
    /// Mutability of each binding.
    pub var_mut: Vec<bool>,
    /// Bindings of the function parameters, in order.
    pub param_vars: Vec<VarId>,
    /// Resolution of every `Call` expression to the callee's id.
    pub call_resolutions: HashMap<ExprId, FuncId>,
}

/// Whole-program type checking results.
#[derive(Debug, Clone)]
pub struct TypeckResults {
    /// Resolved struct definitions.
    pub structs: StructTable,
    /// One signature per function, indexed by [`FuncId`].
    pub signatures: Vec<FnSig>,
    /// Per-function tables, indexed by [`FuncId`].
    pub fn_tables: Vec<FnTypeck>,
}

impl TypeckResults {
    /// Finds a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.signatures
            .iter()
            .position(|s| s.name == name)
            .map(|i| FuncId(i as u32))
    }
}

/// Type checks a parsed program.
///
/// # Errors
///
/// Returns the first type error found (unknown names, type mismatches,
/// mutability violations, arity errors, missing returns, references in struct
/// fields, unknown lifetimes).
pub fn check_program(program: &Program) -> Result<TypeckResults, Diagnostic> {
    let structs = build_struct_table(program)?;
    let signatures = build_signatures(program, &structs)?;

    let mut fn_tables = Vec::with_capacity(program.funcs.len());
    for (idx, func) in program.funcs.iter().enumerate() {
        let mut cx = FnChecker {
            structs: &structs,
            signatures: &signatures,
            program,
            sig: &signatures[idx],
            func,
            table: FnTypeck::default(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
        };
        cx.check_fn()?;
        fn_tables.push(cx.table);
    }

    Ok(TypeckResults {
        structs,
        signatures,
        fn_tables,
    })
}

fn build_struct_table(program: &Program) -> Result<StructTable, Diagnostic> {
    // Two passes so structs can reference each other regardless of order.
    let mut table = StructTable::new();
    for s in &program.structs {
        if table.lookup(&s.name).is_some() {
            return Err(Diagnostic::error(
                format!("duplicate struct definition `{}`", s.name),
                s.span,
            ));
        }
        table.push(StructData {
            name: s.name.clone(),
            fields: Vec::new(),
        });
    }
    let mut resolved = Vec::new();
    for s in &program.structs {
        let mut fields = Vec::new();
        for (fname, fty) in &s.fields {
            if matches!(fty, AstTy::Ref { .. }) {
                return Err(Diagnostic::error(
                    format!(
                        "struct field `{}.{fname}` has a reference type; struct fields must be reference-free",
                        s.name
                    ),
                    s.span,
                ));
            }
            let ty = ast_ty_to_ty(fty, &table, &mut |_| {
                Err(Diagnostic::error(
                    "lifetimes are not allowed in struct fields",
                    s.span,
                ))
            })?;
            if ty.contains_ref() {
                return Err(Diagnostic::error(
                    format!(
                        "struct field `{}.{fname}` contains a reference type",
                        s.name
                    ),
                    s.span,
                ));
            }
            if fields.iter().any(|(n, _): &(String, Ty)| n == fname) {
                return Err(Diagnostic::error(
                    format!("duplicate field `{fname}` in struct `{}`", s.name),
                    s.span,
                ));
            }
            fields.push((fname.clone(), ty));
        }
        resolved.push(fields);
    }
    let mut out = StructTable::new();
    for (s, fields) in program.structs.iter().zip(resolved) {
        out.push(StructData {
            name: s.name.clone(),
            fields,
        });
    }
    Ok(out)
}

/// Converts a surface type to a semantic type. `region_of` maps a lifetime
/// name (`None` for elided) to a region.
fn ast_ty_to_ty(
    ty: &AstTy,
    structs: &StructTable,
    region_of: &mut impl FnMut(Option<&str>) -> Result<RegionVid, Diagnostic>,
) -> Result<Ty, Diagnostic> {
    Ok(match ty {
        AstTy::Unit => Ty::Unit,
        AstTy::Int => Ty::Int,
        AstTy::Bool => Ty::Bool,
        AstTy::Tuple(tys) => Ty::Tuple(
            tys.iter()
                .map(|t| ast_ty_to_ty(t, structs, region_of))
                .collect::<Result<_, _>>()?,
        ),
        AstTy::Named(name) => {
            let id = structs
                .lookup(name)
                .ok_or_else(|| Diagnostic::error(format!("unknown type `{name}`"), Span::DUMMY))?;
            Ty::Struct(id)
        }
        AstTy::Ref {
            lifetime,
            mutbl,
            inner,
        } => {
            let r = region_of(lifetime.as_deref())?;
            Ty::make_ref(r, *mutbl, ast_ty_to_ty(inner, structs, region_of)?)
        }
    })
}

fn build_signatures(program: &Program, structs: &StructTable) -> Result<Vec<FnSig>, Diagnostic> {
    let mut sigs = Vec::new();
    let mut seen = HashMap::new();
    for f in &program.funcs {
        if seen.insert(f.name.clone(), ()).is_some() {
            return Err(Diagnostic::error(
                format!("duplicate function definition `{}`", f.name),
                f.span,
            ));
        }
        // Region 0..n for declared lifetime params, then fresh regions for
        // elided lifetimes in parameter types.
        let mut region_names: Vec<Option<String>> =
            f.lifetime_params.iter().map(|n| Some(n.clone())).collect();
        let mut named: HashMap<String, RegionVid> = f
            .lifetime_params
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), RegionVid(i as u32)))
            .collect();

        let mut inputs = Vec::new();
        for p in &f.params {
            let ty = ast_ty_to_ty(&p.ty, structs, &mut |lt| match lt {
                Some(name) => named.get(name).copied().ok_or_else(|| {
                    Diagnostic::error(
                        format!("undeclared lifetime `'{name}` in function `{}`", f.name),
                        p.span,
                    )
                }),
                None => {
                    let r = RegionVid(region_names.len() as u32);
                    region_names.push(None);
                    Ok(r)
                }
            })?;
            inputs.push(ty);
        }

        // Return-type elision: allowed only when the parameters mention
        // exactly one region overall (the Rust elision rule restricted to
        // our setting).
        let param_regions: Vec<RegionVid> = {
            let mut rs: Vec<RegionVid> = inputs.iter().flat_map(|t| t.regions()).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        };
        let output = ast_ty_to_ty(&f.ret_ty, structs, &mut |lt| match lt {
            Some(name) => named.get(name).copied().ok_or_else(|| {
                Diagnostic::error(
                    format!(
                        "undeclared lifetime `'{name}` in return type of `{}`",
                        f.name
                    ),
                    f.span,
                )
            }),
            None => {
                if param_regions.len() == 1 {
                    Ok(param_regions[0])
                } else {
                    Err(Diagnostic::error(
                        format!(
                            "cannot elide the return lifetime of `{}`: expected exactly one parameter lifetime, found {}",
                            f.name,
                            param_regions.len()
                        ),
                        f.span,
                    ))
                }
            }
        })?;

        let mut outlives = Vec::new();
        for (long, short) in &f.outlives_bounds {
            let l = *named.get(long).ok_or_else(|| {
                Diagnostic::error(
                    format!("undeclared lifetime `'{long}` in where clause"),
                    f.span,
                )
            })?;
            let s = *named.get(short).ok_or_else(|| {
                Diagnostic::error(
                    format!("undeclared lifetime `'{short}` in where clause"),
                    f.span,
                )
            })?;
            outlives.push((l, s));
        }
        // `named` is only needed during construction of this signature.
        named.clear();

        // `#[effect(reads(..))]` / `#[effect(writes(..))]` may only name the
        // function's own parameters.
        if let Some(effect) = &f.effect {
            for pname in effect.reads.iter().chain(effect.writes.iter()) {
                if !f.params.iter().any(|p| &p.name == pname) {
                    return Err(Diagnostic::error(
                        format!(
                            "`#[effect]` on `{}` names unknown parameter `{pname}`",
                            f.name
                        ),
                        f.span,
                    ));
                }
            }
        }

        sigs.push(FnSig {
            name: f.name.clone(),
            inputs,
            output,
            region_count: region_names.len() as u32,
            region_names,
            outlives,
            label: f.label.clone(),
            clearance: f.clearance.clone(),
            param_labels: f.params.iter().map(|p| p.label.clone()).collect(),
            effect: f.effect.clone(),
            module: f.module.clone(),
        });
    }
    Ok(sigs)
}

struct FnChecker<'a> {
    structs: &'a StructTable,
    signatures: &'a [FnSig],
    program: &'a Program,
    sig: &'a FnSig,
    func: &'a FnDef,
    table: FnTypeck,
    /// Stack of lexical scopes mapping names to bindings.
    scopes: Vec<HashMap<String, VarId>>,
    loop_depth: usize,
}

impl<'a> FnChecker<'a> {
    fn fresh_var(&mut self, name: &str, ty: Ty, mutable: bool) -> VarId {
        let id = VarId(self.table.var_tys.len() as u32);
        self.table.var_tys.push(ty);
        self.table.var_names.push(name.to_string());
        self.table.var_mut.push(mutable);
        id
    }

    fn declare(&mut self, name: &str, ty: Ty, mutable: bool) -> VarId {
        let id = self.fresh_var(name, ty, mutable);
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_string(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    fn erase_regions(ty: &Ty) -> Ty {
        ty.map_regions(&mut |_| RegionVid::ERASED)
    }

    fn check_fn(&mut self) -> Result<(), Diagnostic> {
        // Parameters are bindings; their types are the signature types with
        // regions erased (lowering re-instantiates the signature regions).
        for (param, sig_ty) in self.func.params.iter().zip(&self.sig.inputs) {
            let ty = Self::erase_regions(sig_ty);
            // Parameters are mutable when they are unique references or when
            // reassignment is never checked; Rox treats parameters as
            // immutable bindings (matching Rust without `mut` patterns).
            let var = self.declare(&param.name, ty, false);
            self.table.param_vars.push(var);
        }

        let ret_ty = Self::erase_regions(&self.sig.output);
        self.check_block(&self.func.body)?;

        if ret_ty != Ty::Unit && !Self::block_always_returns(&self.func.body) {
            return Err(Diagnostic::error(
                format!(
                    "function `{}` returns `{}` but not all control-flow paths end in `return`",
                    self.func.name, self.func.ret_ty
                ),
                self.func.span,
            ));
        }
        Ok(())
    }

    fn block_always_returns(block: &Block) -> bool {
        block.stmts.iter().any(Self::stmt_always_returns)
    }

    fn stmt_always_returns(stmt: &Stmt) -> bool {
        match &stmt.kind {
            StmtKind::Return(_) => true,
            StmtKind::If {
                then_block,
                else_block: Some(else_block),
                ..
            } => Self::block_always_returns(then_block) && Self::block_always_returns(else_block),
            StmtKind::Loop { body } => {
                // A loop with no break never falls through.
                !Self::block_contains_break(body)
            }
            _ => false,
        }
    }

    fn block_contains_break(block: &Block) -> bool {
        block.stmts.iter().any(|s| match &s.kind {
            StmtKind::Break => true,
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                Self::block_contains_break(then_block)
                    || else_block.as_ref().is_some_and(Self::block_contains_break)
            }
            // Breaks inside nested loops belong to those loops.
            StmtKind::While { .. } | StmtKind::Loop { .. } => false,
            _ => false,
        })
    }

    fn check_block(&mut self, block: &Block) -> Result<(), Diagnostic> {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.check_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<(), Diagnostic> {
        match &stmt.kind {
            StmtKind::Let {
                name,
                mutable,
                ty,
                init,
                declassify: _,
            } => {
                let init_ty = self.check_expr(init)?;
                let binding_ty = if let Some(ann) = ty {
                    let ann_ty = ast_ty_to_ty(ann, self.structs, &mut |lt| {
                        if lt.is_some() {
                            Err(Diagnostic::error(
                                "named lifetimes are not allowed in let annotations",
                                stmt.span,
                            ))
                        } else {
                            Ok(RegionVid::ERASED)
                        }
                    })?;
                    if !ann_ty.compatible(&init_ty) {
                        return Err(Diagnostic::error(
                            format!(
                                "mismatched types in let binding of `{name}`: annotation is `{}` but initializer has type `{}`",
                                ann_ty.display(self.structs),
                                init_ty.display(self.structs)
                            ),
                            stmt.span,
                        ));
                    }
                    ann_ty
                } else {
                    init_ty
                };
                let var = self.declare(name, binding_ty, *mutable);
                self.table.let_vars.insert(init.id, var);
                Ok(())
            }
            StmtKind::Assign { place, value } => {
                let place_ty = self.check_expr(place)?;
                let value_ty = self.check_expr(value)?;
                if !coerces_to(&value_ty, &place_ty) {
                    return Err(Diagnostic::error(
                        format!(
                            "mismatched types in assignment: place has type `{}` but value has type `{}`",
                            place_ty.display(self.structs),
                            value_ty.display(self.structs)
                        ),
                        stmt.span,
                    ));
                }
                let mutbl = self.place_mutability(place)?;
                if !mutbl {
                    return Err(Diagnostic::error(
                        "cannot assign to immutable place",
                        place.span,
                    ));
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond_ty = self.check_expr(cond)?;
                if !cond_ty.compatible(&Ty::Bool) {
                    return Err(Diagnostic::error(
                        format!(
                            "if condition must be `bool`, found `{}`",
                            cond_ty.display(self.structs)
                        ),
                        cond.span,
                    ));
                }
                self.check_block(then_block)?;
                if let Some(eb) = else_block {
                    self.check_block(eb)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let cond_ty = self.check_expr(cond)?;
                if !cond_ty.compatible(&Ty::Bool) {
                    return Err(Diagnostic::error(
                        format!(
                            "while condition must be `bool`, found `{}`",
                            cond_ty.display(self.structs)
                        ),
                        cond.span,
                    ));
                }
                self.loop_depth += 1;
                self.check_block(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            StmtKind::Loop { body } => {
                self.loop_depth += 1;
                self.check_block(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            StmtKind::Return(value) => {
                let ret_ty = Self::erase_regions(&self.sig.output);
                match value {
                    Some(e) => {
                        let t = self.check_expr(e)?;
                        if !coerces_to(&t, &ret_ty) {
                            return Err(Diagnostic::error(
                                format!(
                                    "return type mismatch: function returns `{}` but value has type `{}`",
                                    ret_ty.display(self.structs),
                                    t.display(self.structs)
                                ),
                                e.span,
                            ));
                        }
                    }
                    None => {
                        if ret_ty != Ty::Unit {
                            return Err(Diagnostic::error(
                                "empty return in a function with a non-unit return type",
                                stmt.span,
                            ));
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(Diagnostic::error(
                        "`break`/`continue` outside of a loop",
                        stmt.span,
                    ));
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
        }
    }

    /// Whether the given place expression may be assigned or mutably
    /// borrowed: its root binding is `mut`, or the path passes through a
    /// dereference of a unique reference.
    fn place_mutability(&mut self, expr: &Expr) -> Result<bool, Diagnostic> {
        match &expr.kind {
            ExprKind::Var(name) => {
                let var = self.lookup(name).ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{name}`"), expr.span)
                })?;
                Ok(self.table.var_mut[var.0 as usize])
            }
            ExprKind::Field(base, _) => self.place_mutability(base),
            ExprKind::Deref(base) => {
                let base_ty = self
                    .table
                    .expr_tys
                    .get(&base.id)
                    .cloned()
                    .unwrap_or(Ty::Unit);
                match base_ty {
                    Ty::Ref(_, m, _) => Ok(m.is_mut()),
                    _ => Ok(false),
                }
            }
            _ => Ok(false),
        }
    }

    fn check_expr(&mut self, expr: &Expr) -> Result<Ty, Diagnostic> {
        let ty = self.check_expr_inner(expr)?;
        self.table.expr_tys.insert(expr.id, ty.clone());
        Ok(ty)
    }

    fn check_expr_inner(&mut self, expr: &Expr) -> Result<Ty, Diagnostic> {
        match &expr.kind {
            ExprKind::Unit => Ok(Ty::Unit),
            ExprKind::Int(_) => Ok(Ty::Int),
            ExprKind::Bool(_) => Ok(Ty::Bool),
            ExprKind::Var(name) => {
                let var = self.lookup(name).ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{name}`"), expr.span)
                })?;
                self.table.expr_vars.insert(expr.id, var);
                Ok(self.table.var_tys[var.0 as usize].clone())
            }
            ExprKind::Field(base, field) => {
                let base_ty = self.check_expr(base)?;
                // Auto-deref one level, as Rust does for field access.
                let (container, _derefed) = match base_ty {
                    Ty::Ref(_, _, inner) => ((*inner).clone(), true),
                    other => (other, false),
                };
                let idx = self.resolve_field(&container, field, expr.span)?;
                container.field_ty(idx, self.structs).ok_or_else(|| {
                    Diagnostic::error(format!("invalid field access `.{field}`"), expr.span)
                })
            }
            ExprKind::Deref(base) => {
                let base_ty = self.check_expr(base)?;
                match base_ty {
                    Ty::Ref(_, _, inner) => Ok((*inner).clone()),
                    other => Err(Diagnostic::error(
                        format!(
                            "cannot dereference a value of type `{}`",
                            other.display(self.structs)
                        ),
                        expr.span,
                    )),
                }
            }
            ExprKind::Borrow { mutbl, expr: inner } => {
                if !inner.is_place() {
                    return Err(Diagnostic::error(
                        "can only borrow place expressions",
                        inner.span,
                    ));
                }
                let inner_ty = self.check_expr(inner)?;
                if mutbl.is_mut() {
                    let ok = self.place_mutability(inner)?;
                    if !ok {
                        return Err(Diagnostic::error(
                            "cannot mutably borrow an immutable place",
                            inner.span,
                        ));
                    }
                }
                Ok(Ty::make_ref(RegionVid::ERASED, *mutbl, inner_ty))
            }
            ExprKind::Call { callee, args } => {
                let func_idx = self
                    .program
                    .funcs
                    .iter()
                    .position(|f| &f.name == callee)
                    .ok_or_else(|| {
                        Diagnostic::error(format!("unknown function `{callee}`"), expr.span)
                    })?;
                let sig = &self.signatures[func_idx];
                if sig.inputs.len() != args.len() {
                    return Err(Diagnostic::error(
                        format!(
                            "function `{callee}` expects {} arguments but {} were supplied",
                            sig.inputs.len(),
                            args.len()
                        ),
                        expr.span,
                    ));
                }
                let expected: Vec<Ty> = sig.inputs.iter().map(Self::erase_regions).collect();
                let output = Self::erase_regions(&sig.output);
                for (arg, expect) in args.iter().zip(expected) {
                    let got = self.check_expr(arg)?;
                    if !coerces_to(&got, &expect) {
                        return Err(Diagnostic::error(
                            format!(
                                "argument type mismatch in call to `{callee}`: expected `{}`, found `{}`",
                                expect.display(self.structs),
                                got.display(self.structs)
                            ),
                            arg.span,
                        ));
                    }
                }
                self.table
                    .call_resolutions
                    .insert(expr.id, FuncId(func_idx as u32));
                Ok(output)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                if op.is_logical() {
                    if !lt.compatible(&Ty::Bool) || !rt.compatible(&Ty::Bool) {
                        return Err(Diagnostic::error(
                            format!("operator `{op}` requires boolean operands"),
                            expr.span,
                        ));
                    }
                    Ok(Ty::Bool)
                } else if op.is_comparison() {
                    if !lt.compatible(&rt) {
                        return Err(Diagnostic::error(
                            format!(
                                "cannot compare `{}` with `{}`",
                                lt.display(self.structs),
                                rt.display(self.structs)
                            ),
                            expr.span,
                        ));
                    }
                    Ok(Ty::Bool)
                } else {
                    if !lt.compatible(&Ty::Int) || !rt.compatible(&Ty::Int) {
                        return Err(Diagnostic::error(
                            format!("operator `{op}` requires integer operands"),
                            expr.span,
                        ));
                    }
                    Ok(Ty::Int)
                }
            }
            ExprKind::Unary { op, operand } => {
                let t = self.check_expr(operand)?;
                match op {
                    UnOp::Neg => {
                        if !t.compatible(&Ty::Int) {
                            return Err(Diagnostic::error(
                                "unary `-` requires an integer operand",
                                expr.span,
                            ));
                        }
                        Ok(Ty::Int)
                    }
                    UnOp::Not => {
                        if !t.compatible(&Ty::Bool) {
                            return Err(Diagnostic::error(
                                "unary `!` requires a boolean operand",
                                expr.span,
                            ));
                        }
                        Ok(Ty::Bool)
                    }
                }
            }
            ExprKind::Tuple(elems) => {
                let tys = elems
                    .iter()
                    .map(|e| self.check_expr(e))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Ty::Tuple(tys))
            }
            ExprKind::StructLit { name, fields } => {
                let sid = self.structs.lookup(name).ok_or_else(|| {
                    Diagnostic::error(format!("unknown struct `{name}`"), expr.span)
                })?;
                let def = self.structs.get(sid);
                if fields.len() != def.fields.len() {
                    return Err(Diagnostic::error(
                        format!(
                            "struct `{name}` has {} fields but {} were provided",
                            def.fields.len(),
                            fields.len()
                        ),
                        expr.span,
                    ));
                }
                for (fname, fexpr) in fields {
                    let idx = def.field_index(fname).ok_or_else(|| {
                        Diagnostic::error(
                            format!("struct `{name}` has no field `{fname}`"),
                            fexpr.span,
                        )
                    })?;
                    let expected = &def.fields[idx as usize].1;
                    let got = self.check_expr(fexpr)?;
                    if !got.compatible(expected) {
                        return Err(Diagnostic::error(
                            format!(
                                "field `{fname}` of `{name}` has type `{}` but the initializer has type `{}`",
                                expected.display(self.structs),
                                got.display(self.structs)
                            ),
                            fexpr.span,
                        ));
                    }
                }
                Ok(Ty::Struct(sid))
            }
        }
    }

    fn resolve_field(
        &self,
        container: &Ty,
        field: &FieldName,
        span: Span,
    ) -> Result<u32, Diagnostic> {
        match (container, field) {
            (Ty::Tuple(tys), FieldName::Index(i)) => {
                if (*i as usize) < tys.len() {
                    Ok(*i)
                } else {
                    Err(Diagnostic::error(
                        format!("tuple index `{i}` out of bounds for a {}-tuple", tys.len()),
                        span,
                    ))
                }
            }
            (Ty::Struct(sid), FieldName::Named(name)) => {
                self.structs.get(*sid).field_index(name).ok_or_else(|| {
                    Diagnostic::error(
                        format!(
                            "struct `{}` has no field `{name}`",
                            self.structs.get(*sid).name
                        ),
                        span,
                    )
                })
            }
            (t, f) => Err(Diagnostic::error(
                format!(
                    "invalid field access `.{f}` on a value of type `{}`",
                    t.display(self.structs)
                ),
                span,
            )),
        }
    }
}

/// Whether a value of type `got` may be passed where `expected` is required:
/// either the types are compatible, or `got` is a unique reference being
/// coerced to a shared reference (Rust's `&mut T -> &T` coercion).
pub fn coerces_to(got: &Ty, expected: &Ty) -> bool {
    if got.compatible(expected) {
        return true;
    }
    match (got, expected) {
        (Ty::Ref(_, got_m, a), Ty::Ref(_, exp_m, b)) => {
            got_m.is_mut() && !exp_m.is_mut() && a.compatible(b)
        }
        _ => false,
    }
}

/// Resolves a field name against a type, returning its index.
///
/// Used by MIR lowering, which needs the same resolution the checker did.
pub fn field_index(container: &Ty, field: &FieldName, structs: &StructTable) -> Option<u32> {
    match (container, field) {
        (Ty::Tuple(tys), FieldName::Index(i)) => ((*i as usize) < tys.len()).then_some(*i),
        (Ty::Struct(sid), FieldName::Named(name)) => structs.get(*sid).field_index(name),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<TypeckResults, Diagnostic> {
        check_program(&parse_program(src).expect("parse failure"))
    }

    #[test]
    fn accepts_simple_arithmetic_function() {
        let r = check("fn add(x: i32, y: i32) -> i32 { return x + y; }").unwrap();
        assert_eq!(r.signatures.len(), 1);
        assert_eq!(r.signatures[0].inputs, vec![Ty::Int, Ty::Int]);
        assert_eq!(r.signatures[0].output, Ty::Int);
    }

    #[test]
    fn rejects_unknown_variable() {
        let err = check("fn f() -> i32 { return zzz; }").unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_type_mismatch_in_let() {
        let err = check("fn f() { let x: bool = 3; }").unwrap_err();
        assert!(err.message.contains("mismatched types"));
    }

    #[test]
    fn rejects_assignment_to_immutable_binding() {
        let err = check("fn f() { let x = 1; x = 2; }").unwrap_err();
        assert!(err.message.contains("immutable"));
    }

    #[test]
    fn accepts_assignment_to_mutable_binding() {
        assert!(check("fn f() { let mut x = 1; x = 2; }").is_ok());
    }

    #[test]
    fn rejects_mut_borrow_of_immutable_place() {
        let err = check("fn f() { let x = 1; let r = &mut x; }").unwrap_err();
        assert!(err.message.contains("cannot mutably borrow"));
    }

    #[test]
    fn accepts_assignment_through_unique_reference() {
        assert!(check("fn f(p: &mut i32) { *p = 3; }").is_ok());
    }

    #[test]
    fn rejects_assignment_through_shared_reference() {
        let err = check("fn f(p: &i32) { *p = 3; }").unwrap_err();
        assert!(err.message.contains("immutable"));
    }

    #[test]
    fn checks_call_arity_and_types() {
        let ok = check("fn g(x: i32) -> i32 { return x; } fn f() { let a = g(1); }");
        assert!(ok.is_ok());
        let arity = check("fn g(x: i32) -> i32 { return x; } fn f() { let a = g(); }").unwrap_err();
        assert!(arity.message.contains("expects 1 arguments"));
        let ty =
            check("fn g(x: i32) -> i32 { return x; } fn f() { let a = g(true); }").unwrap_err();
        assert!(ty.message.contains("argument type mismatch"));
    }

    #[test]
    fn resolves_struct_fields() {
        let src = "struct P { a: i32, b: bool }
                   fn f(p: P) -> bool { return p.b; }";
        assert!(check(src).is_ok());
        let bad = "struct P { a: i32 } fn f(p: P) -> i32 { return p.z; }";
        assert!(check(bad).is_err());
    }

    #[test]
    fn rejects_references_in_struct_fields() {
        let err = check("struct Bad { r: &i32 }").unwrap_err();
        assert!(err.message.contains("reference"));
    }

    #[test]
    fn rejects_duplicate_struct_and_fn() {
        assert!(check("struct A { x: i32 } struct A { y: i32 }").is_err());
        assert!(check("fn f() {} fn f() {}").is_err());
    }

    #[test]
    fn lifetime_parameters_resolve_in_signatures() {
        let src = "fn f<'a>(x: &'a mut i32) -> &'a i32 { return x; }";
        let r = check(src).unwrap();
        let sig = &r.signatures[0];
        assert_eq!(sig.region_count, 1);
        assert_eq!(sig.inputs[0].regions(), vec![RegionVid(0)]);
        assert_eq!(sig.output.regions(), vec![RegionVid(0)]);
    }

    #[test]
    fn undeclared_lifetime_is_error() {
        assert!(check("fn f(x: &'a i32) {}").is_err());
    }

    #[test]
    fn elided_lifetimes_get_fresh_regions() {
        let r = check("fn f(x: &i32, y: &mut i32) { }").unwrap();
        let sig = &r.signatures[0];
        assert_eq!(sig.region_count, 2);
        assert_ne!(sig.inputs[0].regions(), sig.inputs[1].regions());
    }

    #[test]
    fn return_elision_requires_single_param_region() {
        assert!(check("fn f(x: &i32) -> &i32 { return x; }").is_ok());
        assert!(check("fn f(x: &i32, y: &i32) -> &i32 { return x; }").is_err());
    }

    #[test]
    fn where_clause_lifetimes_must_be_declared() {
        assert!(check("fn f<'a, 'b>(x: &'a i32, y: &'b i32) where 'a: 'b {}").is_ok());
        assert!(check("fn f<'a>(x: &'a i32) where 'a: 'q {}").is_err());
    }

    #[test]
    fn missing_return_on_some_path_is_error() {
        let err = check("fn f(c: bool) -> i32 { if c { return 1; } }").unwrap_err();
        assert!(err.message.contains("not all control-flow paths"));
        assert!(check("fn f(c: bool) -> i32 { if c { return 1; } else { return 2; } }").is_ok());
    }

    #[test]
    fn loop_without_break_counts_as_diverging() {
        assert!(check("fn f() -> i32 { loop { } }").is_ok());
        assert!(check("fn f() -> i32 { loop { break; } }").is_err());
    }

    #[test]
    fn break_outside_loop_is_error() {
        assert!(check("fn f() { break; }").is_err());
    }

    #[test]
    fn condition_must_be_bool() {
        assert!(check("fn f() { if 1 { } }").is_err());
        assert!(check("fn f() { while 1 { } }").is_err());
    }

    #[test]
    fn tuple_indexing_bounds_checked() {
        assert!(check("fn f() -> i32 { let t = (1, 2); return t.1; }").is_ok());
        assert!(check("fn f() -> i32 { let t = (1, 2); return t.5; }").is_err());
    }

    #[test]
    fn struct_literal_checks_fields() {
        let src = "struct P { a: i32, b: i32 } fn f() -> P { return P { a: 1, b: 2 }; }";
        assert!(check(src).is_ok());
        let missing = "struct P { a: i32, b: i32 } fn f() -> P { return P { a: 1 }; }";
        assert!(check(missing).is_err());
        let wrong = "struct P { a: i32 } fn f() -> P { return P { a: true }; }";
        assert!(check(wrong).is_err());
    }

    #[test]
    fn field_access_autoderefs_references() {
        let src = "fn f(p: &(i32, bool)) -> bool { return p.1; }";
        assert!(check(src).is_ok());
    }

    #[test]
    fn logical_operators_require_bools() {
        assert!(check("fn f(a: bool, b: bool) -> bool { return a && b; }").is_ok());
        assert!(check("fn f(a: i32, b: bool) -> bool { return a && b; }").is_err());
    }

    #[test]
    fn comparison_requires_same_types() {
        assert!(check("fn f(a: i32, b: i32) -> bool { return a < b; }").is_ok());
        assert!(check("fn f(a: i32, b: bool) -> bool { return a == b; }").is_err());
    }

    #[test]
    fn borrow_of_non_place_is_error() {
        assert!(check("fn f() { let r = &(1 + 2); }").is_err());
    }

    #[test]
    fn var_resolution_handles_shadowing_across_scopes() {
        let src = "fn f() -> i32 { let x = 1; if true { let x = 2; } return x; }";
        let r = check(src).unwrap();
        // Two bindings named `x` exist.
        let count = r.fn_tables[0]
            .var_names
            .iter()
            .filter(|n| n.as_str() == "x")
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(check("fn f() { g(); }").is_err());
    }

    #[test]
    fn unknown_struct_type_is_error() {
        assert!(check("fn f(p: Mystery) { }").is_err());
    }
}
