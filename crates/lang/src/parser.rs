//! Recursive-descent parser for the Rox surface language.
//!
//! The grammar (roughly):
//!
//! ```text
//! program    := inner_attr* (struct_def | fn_def)*
//! inner_attr := "#" "!" "[" IDENT "(" IDENT ")" "]"        // lattice, default_label
//!             | "#" "!" "[" "module_policy" "(" IDENT ("," policy_clause)* ")" "]"
//! policy_clause := "label" "(" IDENT ")" | "sink" "(" IDENT ")"
//! outer_attr := "#" "[" IDENT ("(" IDENT ")")? "]"         // label, sink, module, declassify
//!             | "#" "[" "effect" "(" effect_clause ("," effect_clause)* ")" "]"
//! effect_clause := "pure" | "reads" "(" IDENT ("," IDENT)* ")"
//!                | "writes" "(" IDENT ("," IDENT)* ")"
//! struct_def := "struct" IDENT "{" (IDENT ":" ty ","?)* "}"
//! fn_def     := outer_attr* "fn" IDENT lifetimes? "(" params ")" ("->" ty)? where? block
//! param      := outer_attr* IDENT ":" ty
//! lifetimes  := "<" LIFETIME ("," LIFETIME)* ">"
//! where      := "where" LIFETIME ":" LIFETIME ("," LIFETIME ":" LIFETIME)*
//! ty         := "(" ")" | "i32" | "bool" | "(" ty ("," ty)+ ")" | IDENT
//!             | "&" LIFETIME? "mut"? ty
//! block      := "{" stmt* "}"
//! stmt       := outer_attr? "let" "mut"? IDENT (":" ty)? "=" expr ";"
//!             | "if" expr block ("else" (block | if_stmt))?
//!             | "while" expr block | "loop" block
//!             | "return" expr? ";" | "break" ";" | "continue" ";"
//!             | expr ("=" expr)? ";"
//! expr       := or_expr
//! ```
//!
//! The attribute layer carries the IFC policy surface: `#![lattice(L)]` /
//! `#![default_label(L)]` / `#![module_policy(M, ...)]` at module level,
//! `#[label(L)]` on functions and parameters, `#[sink(L)]` / `#[module(M)]` /
//! `#[effect(..)]` on functions, and `#[declassify]` on a `let` whose
//! initializer is a call (see `flowistry-ifc` and `flowistry-lint`).
//!
//! Operator precedence: `||` < `&&` < comparisons < `+ -` < `* / %` < unary.
//!
//! Nesting is bounded by [`MAX_NESTING`]: deeper input is a diagnostic, not
//! a stack overflow here or in any later pass.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::span::{Diagnostic, Span};

/// Parses a complete Rox program.
///
/// # Errors
///
/// Returns the first lexing or parsing [`Diagnostic`] encountered.
///
/// # Examples
///
/// ```
/// use flowistry_lang::parser::parse_program;
/// let src = "fn add(x: i32, y: i32) -> i32 { return x + y; }";
/// let program = parse_program(src).unwrap();
/// assert_eq!(program.funcs.len(), 1);
/// assert_eq!(program.funcs[0].params.len(), 2);
/// ```
pub fn parse_program(src: &str) -> Result<Program, Diagnostic> {
    let tokens = tokenize(src)?;
    Parser::new(tokens).program()
}

/// Parses a single expression (useful in tests and tools).
///
/// # Errors
///
/// Returns a [`Diagnostic`] if the source is not a single valid expression.
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostic> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// The deepest nesting the parser accepts: blocks, types and expressions
/// together, counting both the recursion of the parser and the height of
/// the expression trees it builds. Every later pass recurses over the same
/// tree, so deeper input is rejected with a [`Diagnostic`] instead of
/// exhausting the stack. A parenthesis level costs about 18 kB of parser
/// stack in a debug build; at 64 levels every shape still compiles and
/// analyzes on a 2 MiB thread there.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Blocks, types and expressions open around the current token.
    depth: usize,
    /// Per expression id, the height of that expression's tree.
    heights: Vec<usize>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            heights: Vec::new(),
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Consumes the current token and returns it, moving its kind out of
    /// the buffer: the parser never rewinds, and behind `pos` it reads only
    /// spans, so the consumed slot keeps its span and an `Eof` kind. The
    /// final `Eof` stays in place, so bumping at the end is a no-op.
    fn bump(&mut self) -> Token {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 < self.tokens.len() {
            let kind = std::mem::replace(&mut self.tokens[self.pos].kind, TokenKind::Eof);
            self.pos += 1;
            Token { kind, span }
        } else {
            Token {
                kind: TokenKind::Eof,
                span,
            }
        }
    }

    /// Consumes an `Ident` or `Lifetime` token the caller has matched and
    /// returns its name.
    fn bump_name(&mut self) -> String {
        match self.bump().kind {
            TokenKind::Ident(name) | TokenKind::Lifetime(name) => name,
            other => unreachable!("bump_name at `{other}`"),
        }
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.check(&kind) {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!("expected `{kind}`, found `{}`", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let span = self.peek_span();
                Ok((self.bump_name(), span))
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found `{other}`"),
                self.peek_span(),
            )),
        }
    }

    fn expect_lifetime(&mut self) -> Result<String, Diagnostic> {
        match self.peek() {
            TokenKind::Lifetime(_) => Ok(self.bump_name()),
            other => Err(Diagnostic::error(
                format!("expected lifetime, found `{other}`"),
                self.peek_span(),
            )),
        }
    }

    /// The error for input nested deeper than [`MAX_NESTING`].
    fn too_deep(span: Span) -> Diagnostic {
        Diagnostic::error(
            format!(
                "nesting too deep: more than {MAX_NESTING} levels of blocks, types and expressions"
            ),
            span,
        )
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, Diagnostic>,
    ) -> Result<T, Diagnostic> {
        if self.depth >= MAX_NESTING {
            return Err(Self::too_deep(self.peek_span()));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Builds an expression with a fresh id. Operator chains and postfix
    /// projections grow the tree in a loop, not by recursion, so the bound
    /// is checked on the tree's height here, on top of the nesting around
    /// it.
    fn mk_expr(&mut self, kind: ExprKind, span: Span) -> Result<Expr, Diagnostic> {
        let height = |e: &Expr| self.heights[e.id.0 as usize];
        let children = match &kind {
            ExprKind::Unit | ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => 0,
            ExprKind::Field(e, _)
            | ExprKind::Deref(e)
            | ExprKind::Borrow { expr: e, .. }
            | ExprKind::Unary { operand: e, .. } => height(e),
            ExprKind::Binary { lhs, rhs, .. } => height(lhs).max(height(rhs)),
            ExprKind::Call { args: elems, .. } | ExprKind::Tuple(elems) => {
                elems.iter().map(height).max().unwrap_or(0)
            }
            ExprKind::StructLit { fields, .. } => {
                fields.iter().map(|(_, e)| height(e)).max().unwrap_or(0)
            }
        };
        if self.depth + children + 1 > MAX_NESTING {
            return Err(Self::too_deep(span));
        }
        let id = ExprId(self.heights.len() as u32);
        self.heights.push(children + 1);
        Ok(Expr { id, kind, span })
    }

    // ---------------- attributes ----------------

    /// Parses one `#[name]` / `#[name(arg)]` outer attribute.
    fn outer_attr(&mut self) -> Result<(String, Option<String>, Span), Diagnostic> {
        let start = self.expect(TokenKind::Pound)?.span;
        self.expect(TokenKind::LBracket)?;
        let (name, _) = self.expect_ident()?;
        let arg = if self.eat(&TokenKind::LParen) {
            let (a, _) = self.expect_ident()?;
            self.expect(TokenKind::RParen)?;
            Some(a)
        } else {
            None
        };
        let end = self.expect(TokenKind::RBracket)?.span;
        Ok((name, arg, start.to(end)))
    }

    /// Parses the `( IDENT )` argument of a single-argument attribute.
    fn attr_arg(&mut self) -> Result<String, Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let (arg, _) = self.expect_ident()?;
        self.expect(TokenKind::RParen)?;
        Ok(arg)
    }

    /// Parses the `( IDENT ("," IDENT)* )` list of an effect clause.
    fn attr_ident_list(&mut self) -> Result<Vec<String>, Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let mut names = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            names.push(name);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(names)
    }

    /// Parses the clause list of `#[effect(...)]`, merging into `decl` so
    /// repeated `#[effect]` attributes on one function accumulate.
    fn effect_clauses(&mut self, decl: &mut EffectDecl) -> Result<(), Diagnostic> {
        self.expect(TokenKind::LParen)?;
        loop {
            let (cname, cspan) = self.expect_ident()?;
            match cname.as_str() {
                "pure" => decl.pure = true,
                "reads" => decl.reads.extend(self.attr_ident_list()?),
                "writes" => decl.writes.extend(self.attr_ident_list()?),
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "unknown effect clause `{other}` \
                             (expected `pure`, `reads(..)`, or `writes(..)`)"
                        ),
                        cspan,
                    ));
                }
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(())
    }

    /// Parses the `(name, clause*)` body of `#![module_policy(...)]`.
    fn module_policy_body(&mut self) -> Result<ModulePolicy, Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let (name, _) = self.expect_ident()?;
        let mut policy = ModulePolicy {
            name,
            label: None,
            clearance: None,
        };
        while self.eat(&TokenKind::Comma) {
            let (cname, cspan) = self.expect_ident()?;
            match cname.as_str() {
                "label" => policy.label = Some(self.attr_arg()?),
                "sink" => policy.clearance = Some(self.attr_arg()?),
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "unknown module_policy clause `{other}` \
                             (expected `label(L)` or `sink(C)`)"
                        ),
                        cspan,
                    ));
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(policy)
    }

    // ---------------- items ----------------

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut program = Program::default();
        // Inner attributes may only appear before the first item.
        while self.check(&TokenKind::Pound) && self.peek2() == Some(&TokenKind::Bang) {
            let start = self.expect(TokenKind::Pound)?.span;
            self.expect(TokenKind::Bang)?;
            self.expect(TokenKind::LBracket)?;
            let (name, nspan) = self.expect_ident()?;
            match name.as_str() {
                "lattice" => program.lattice = Some(self.attr_arg()?),
                "default_label" => program.default_label = Some(self.attr_arg()?),
                "module_policy" => program.module_policies.push(self.module_policy_body()?),
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "unknown module attribute `#![{other}(..)]` \
                             (expected `lattice`, `default_label`, or `module_policy`)"
                        ),
                        start.to(nspan),
                    ));
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Struct => program.structs.push(self.struct_def()?),
                TokenKind::Fn | TokenKind::Pound => program.funcs.push(self.fn_def()?),
                other => {
                    return Err(Diagnostic::error(
                        format!("expected `fn` or `struct`, found `{other}`"),
                        self.peek_span(),
                    ));
                }
            }
        }
        Ok(program)
    }

    fn struct_def(&mut self) -> Result<StructDef, Diagnostic> {
        let start = self.expect(TokenKind::Struct)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            let (fname, _) = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let fty = self.ty()?;
            fields.push((fname, fty));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(StructDef {
            name,
            fields,
            span: start.to(end),
        })
    }

    fn fn_def(&mut self) -> Result<FnDef, Diagnostic> {
        let mut label = None;
        let mut clearance = None;
        let mut effect: Option<EffectDecl> = None;
        let mut module = None;
        // `#[effect(...)]` carries a clause list the generic `outer_attr`
        // shape cannot express, so function attributes dispatch on the name.
        while self.check(&TokenKind::Pound) {
            let astart = self.expect(TokenKind::Pound)?.span;
            self.expect(TokenKind::LBracket)?;
            let (aname, aspan) = self.expect_ident()?;
            match aname.as_str() {
                "label" => label = Some(self.attr_arg()?),
                "sink" => clearance = Some(self.attr_arg()?),
                "module" => module = Some(self.attr_arg()?),
                "effect" => {
                    let decl = effect.get_or_insert_with(EffectDecl::default);
                    self.effect_clauses(decl)?;
                    if decl.pure && !decl.writes.is_empty() {
                        return Err(Diagnostic::error(
                            "contradictory `#[effect]`: `pure` promises no \
                             caller-visible writes but `writes(..)` declares some",
                            astart.to(self.peek_span()),
                        ));
                    }
                }
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "unknown function attribute `#[{other}]` \
                             (expected `#[label(L)]`, `#[sink(L)]`, \
                             `#[module(M)]`, or `#[effect(..)]`)"
                        ),
                        astart.to(aspan),
                    ));
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        let start = self.expect(TokenKind::Fn)?.span;
        let (name, _) = self.expect_ident()?;

        let mut lifetime_params = Vec::new();
        if self.eat(&TokenKind::Lt) {
            loop {
                lifetime_params.push(self.expect_lifetime()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Gt)?;
        }

        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.check(&TokenKind::RParen) {
            let mut plabel = None;
            while self.check(&TokenKind::Pound) {
                let (aname, arg, aspan) = self.outer_attr()?;
                match (aname.as_str(), arg) {
                    ("label", Some(l)) => plabel = Some(l),
                    _ => {
                        return Err(Diagnostic::error(
                            format!(
                                "unknown parameter attribute `#[{aname}]` \
                                 (expected `#[label(L)]`)"
                            ),
                            aspan,
                        ));
                    }
                }
            }
            let (pname, pspan) = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let pty = self.ty()?;
            params.push(Param {
                name: pname,
                ty: pty,
                label: plabel,
                span: pspan,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;

        let ret_ty = if self.eat(&TokenKind::Arrow) {
            self.ty()?
        } else {
            AstTy::Unit
        };

        let mut outlives_bounds = Vec::new();
        if self.eat(&TokenKind::Where) {
            loop {
                let long = self.expect_lifetime()?;
                self.expect(TokenKind::Colon)?;
                let short = self.expect_lifetime()?;
                outlives_bounds.push((long, short));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let body = self.block()?;
        let span = start.to(body.span);
        Ok(FnDef {
            name,
            lifetime_params,
            outlives_bounds,
            params,
            ret_ty,
            body,
            label,
            clearance,
            effect,
            module,
            span,
        })
    }

    // ---------------- types ----------------

    fn ty(&mut self) -> Result<AstTy, Diagnostic> {
        self.nested(Self::ty_contents)
    }

    fn ty_contents(&mut self) -> Result<AstTy, Diagnostic> {
        match self.peek() {
            TokenKind::I32 => {
                self.bump();
                Ok(AstTy::Int)
            }
            TokenKind::Bool => {
                self.bump();
                Ok(AstTy::Bool)
            }
            TokenKind::Ident(_) => Ok(AstTy::Named(self.bump_name())),
            TokenKind::LParen => {
                self.bump();
                if self.eat(&TokenKind::RParen) {
                    return Ok(AstTy::Unit);
                }
                let mut tys = vec![self.ty()?];
                while self.eat(&TokenKind::Comma) {
                    if self.check(&TokenKind::RParen) {
                        break;
                    }
                    tys.push(self.ty()?);
                }
                self.expect(TokenKind::RParen)?;
                if tys.len() == 1 {
                    Ok(tys.pop().expect("len checked"))
                } else {
                    Ok(AstTy::Tuple(tys))
                }
            }
            TokenKind::Amp => {
                self.bump();
                let lifetime =
                    matches!(self.peek(), TokenKind::Lifetime(_)).then(|| self.bump_name());
                let mutbl = if self.eat(&TokenKind::Mut) {
                    Mutability::Mut
                } else {
                    Mutability::Shared
                };
                let inner = Box::new(self.ty()?);
                Ok(AstTy::Ref {
                    lifetime,
                    mutbl,
                    inner,
                })
            }
            other => Err(Diagnostic::error(
                format!("expected type, found `{other}`"),
                self.peek_span(),
            )),
        }
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> Result<Block, Diagnostic> {
        self.nested(Self::block_contents)
    }

    fn block_contents(&mut self) -> Result<Block, Diagnostic> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            if self.check(&TokenKind::Eof) {
                return Err(Diagnostic::error("unterminated block", start));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.peek_span();
        match self.peek() {
            TokenKind::Pound => {
                let (aname, arg, aspan) = self.outer_attr()?;
                if aname != "declassify" || arg.is_some() {
                    return Err(Diagnostic::error(
                        format!(
                            "unknown statement attribute `#[{aname}]` \
                             (expected `#[declassify]`)"
                        ),
                        aspan,
                    ));
                }
                if !self.check(&TokenKind::Let) {
                    return Err(Diagnostic::error(
                        "`#[declassify]` must precede a `let` binding",
                        aspan,
                    ));
                }
                let inner = self.stmt()?;
                let inner_span = inner.span;
                match inner.kind {
                    StmtKind::Let {
                        name,
                        mutable,
                        ty,
                        init,
                        ..
                    } => {
                        if !matches!(init.kind, ExprKind::Call { .. }) {
                            return Err(Diagnostic::error(
                                "`#[declassify]` requires the initializer to be a \
                                 function call (the sanctioned release point)",
                                init.span,
                            ));
                        }
                        Ok(Stmt {
                            kind: StmtKind::Let {
                                name,
                                mutable,
                                ty,
                                init,
                                declassify: true,
                            },
                            span: aspan.to(inner_span),
                        })
                    }
                    _ => unreachable!("checked `let` above"),
                }
            }
            TokenKind::Let => {
                self.bump();
                let mutable = self.eat(&TokenKind::Mut);
                let (name, _) = self.expect_ident()?;
                let ty = if self.eat(&TokenKind::Colon) {
                    Some(self.ty()?)
                } else {
                    None
                };
                self.expect(TokenKind::Eq)?;
                let init = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Let {
                        name,
                        mutable,
                        ty,
                        init,
                        declassify: false,
                    },
                    span: start.to(end),
                })
            }
            TokenKind::If => self.if_stmt(),
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::Loop => {
                self.bump();
                let body = self.block()?;
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::Loop { body },
                    span,
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.check(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(end),
                })
            }
            TokenKind::Break => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span: start.to(end),
                })
            }
            TokenKind::Continue => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span: start.to(end),
                })
            }
            _ => {
                let e = self.expr()?;
                if self.eat(&TokenKind::Eq) {
                    if !e.is_place() {
                        return Err(Diagnostic::error(
                            "left-hand side of assignment is not a place expression",
                            e.span,
                        ));
                    }
                    let value = self.expr()?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Stmt {
                        kind: StmtKind::Assign { place: e, value },
                        span: start.to(end),
                    })
                } else {
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Stmt {
                        kind: StmtKind::Expr(e),
                        span: start.to(end),
                    })
                }
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.expr()?;
        let then_block = self.block()?;
        let mut span = start.to(then_block.span);
        let else_block = if self.eat(&TokenKind::Else) {
            if self.check(&TokenKind::If) {
                // `else if` chains desugar into a nested block containing an if.
                let nested = self.nested(Self::if_stmt)?;
                let nested_span = nested.span;
                span = span.to(nested_span);
                Some(Block {
                    stmts: vec![nested],
                    span: nested_span,
                })
            } else {
                let b = self.block()?;
                span = span.to(b.span);
                Some(b)
            }
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_block,
                else_block,
            },
            span,
        })
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.check(&TokenKind::PipePipe) {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk_expr(
                ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.cmp_expr()?;
        while self.check(&TokenKind::AmpAmp) {
            self.bump();
            let rhs = self.cmp_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk_expr(
                ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            let span = lhs.span.to(rhs.span);
            self.mk_expr(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            )
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk_expr(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk_expr(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        let start = self.peek_span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span);
                self.mk_expr(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                )
            }
            TokenKind::Bang => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span);
                self.mk_expr(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                )
            }
            TokenKind::Star => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span);
                self.mk_expr(ExprKind::Deref(Box::new(operand)), span)
            }
            TokenKind::Amp => {
                self.bump();
                let mutbl = if self.eat(&TokenKind::Mut) {
                    Mutability::Mut
                } else {
                    Mutability::Shared
                };
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span);
                self.mk_expr(
                    ExprKind::Borrow {
                        mutbl,
                        expr: Box::new(operand),
                    },
                    span,
                )
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.primary_expr()?;
        while self.check(&TokenKind::Dot) {
            self.bump();
            let field = match *self.peek() {
                TokenKind::Int(n) => {
                    self.bump();
                    if n < 0 {
                        return Err(Diagnostic::error(
                            "tuple field index must be non-negative",
                            self.peek_span(),
                        ));
                    }
                    FieldName::Index(n as u32)
                }
                TokenKind::Ident(_) => FieldName::Named(self.bump_name()),
                ref other => {
                    return Err(Diagnostic::error(
                        format!("expected field name or index after `.`, found `{other}`"),
                        self.peek_span(),
                    ));
                }
            };
            let span = e.span.to(self.tokens[self.pos.saturating_sub(1)].span);
            e = self.mk_expr(ExprKind::Field(Box::new(e), field), span)?;
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, Diagnostic> {
        let start = self.peek_span();
        match *self.peek() {
            TokenKind::Int(n) => {
                self.bump();
                self.mk_expr(ExprKind::Int(n), start)
            }
            TokenKind::True => {
                self.bump();
                self.mk_expr(ExprKind::Bool(true), start)
            }
            TokenKind::False => {
                self.bump();
                self.mk_expr(ExprKind::Bool(false), start)
            }
            TokenKind::LParen => {
                self.bump();
                if self.eat(&TokenKind::RParen) {
                    let span = start.to(self.tokens[self.pos - 1].span);
                    return self.mk_expr(ExprKind::Unit, span);
                }
                let first = self.expr()?;
                if self.check(&TokenKind::Comma) {
                    let mut elems = vec![first];
                    while self.eat(&TokenKind::Comma) {
                        if self.check(&TokenKind::RParen) {
                            break;
                        }
                        elems.push(self.expr()?);
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    self.mk_expr(ExprKind::Tuple(elems), start.to(end))
                } else {
                    self.expect(TokenKind::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::Ident(_) => {
                let name = self.bump_name();
                if self.check(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.check(&TokenKind::RParen) {
                        args.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    self.mk_expr(ExprKind::Call { callee: name, args }, start.to(end))
                } else if self.check(&TokenKind::LBrace)
                    && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    // Struct literal: only for capitalized names, to avoid
                    // ambiguity with `while x { ... }` style conditions.
                    self.bump();
                    let mut fields = Vec::new();
                    while !self.check(&TokenKind::RBrace) {
                        let (fname, _) = self.expect_ident()?;
                        self.expect(TokenKind::Colon)?;
                        let fexpr = self.expr()?;
                        fields.push((fname, fexpr));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(TokenKind::RBrace)?.span;
                    self.mk_expr(ExprKind::StructLit { name, fields }, start.to(end))
                } else {
                    self.mk_expr(ExprKind::Var(name), start)
                }
            }
            ref other => Err(Diagnostic::error(
                format!("expected expression, found `{other}`"),
                start,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_function() {
        let p = parse_program("fn main() { }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].ret_ty, AstTy::Unit);
        assert!(p.funcs[0].body.stmts.is_empty());
    }

    #[test]
    fn parses_params_and_return_type() {
        let p = parse_program("fn add(x: i32, y: i32) -> i32 { return x + y; }").unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "x");
        assert_eq!(f.ret_ty, AstTy::Int);
    }

    #[test]
    fn parses_lifetimes_and_where_clause() {
        let src = "fn f<'a, 'b>(x: &'a mut i32, y: &'b i32) -> &'a i32 where 'a: 'b { return x; }";
        let p = parse_program(src).unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.lifetime_params, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(f.outlives_bounds, vec![("a".to_string(), "b".to_string())]);
        match &f.params[0].ty {
            AstTy::Ref {
                lifetime, mutbl, ..
            } => {
                assert_eq!(lifetime.as_deref(), Some("a"));
                assert!(mutbl.is_mut());
            }
            other => panic!("unexpected type {other:?}"),
        }
    }

    #[test]
    fn parses_struct_definition() {
        let p = parse_program("struct Point { x: i32, y: i32 }").unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
    }

    #[test]
    fn parses_struct_literal_and_field_access() {
        let src =
            "struct P { a: i32, b: i32 } fn f() -> i32 { let p = P { a: 1, b: 2 }; return p.a; }";
        let p = parse_program(src).unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.body.stmts.len(), 2);
    }

    #[test]
    fn parses_tuples_and_indexing() {
        let e = parse_expr("(1, true, (2, 3)).2").unwrap();
        match e.kind {
            ExprKind::Field(base, FieldName::Index(2)) => match base.kind {
                ExprKind::Tuple(elems) => assert_eq!(elems.len(), 3),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_references_and_derefs() {
        let e = parse_expr("*&mut x").unwrap();
        match e.kind {
            ExprKind::Deref(inner) => match inner.kind {
                ExprKind::Borrow { mutbl, .. } => assert!(mutbl.is_mut()),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_of_arithmetic() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => match rhs.kind {
                ExprKind::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_of_logic_and_comparison() {
        let e = parse_expr("a < b && c == d || e").unwrap();
        match e.kind {
            ExprKind::Binary { op: BinOp::Or, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let src = "fn f(x: i32) -> i32 { if x < 0 { return 0; } else if x < 10 { return 1; } else { return 2; } }";
        let p = parse_program(src).unwrap();
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::If { else_block, .. } => {
                let eb = else_block.as_ref().unwrap();
                assert!(matches!(eb.stmts[0].kind, StmtKind::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_while_loop_break_continue() {
        let src = "fn f() { let mut i = 0; while i < 10 { if i == 5 { break; } i = i + 1; } loop { continue; } }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.funcs[0].body.stmts.len(), 3);
    }

    #[test]
    fn parses_assignment_to_place() {
        let src = "fn f(p: &mut (i32, i32)) { (*p).1 = 3; }";
        let p = parse_program(src).unwrap();
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::Assign { place, .. } => assert!(place.is_place()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_assignment_to_non_place() {
        assert!(parse_program("fn f() { 1 + 2 = 3; }").is_err());
    }

    /// Each error names the token it stopped at, and its span covers
    /// exactly that token, also after the tokens before it were consumed.
    #[test]
    fn errors_name_the_offending_token() {
        let cases = [
            ("fn f() { let x = 1 y; }", "expected `;`, found `y`", "y"),
            ("fn f() { return a b; }", "expected `;`, found `b`", "b"),
            ("fn f() { x.y z; }", "expected `;`, found `z`", "z"),
            ("fn f() { g(a b); }", "expected `)`, found `b`", "b"),
            ("fn f(x: i32 y: i32) { }", "expected `)`, found `y`", "y"),
            (
                "fn f() { let p = P { a: 1 b: 2 }; }",
                "expected `}`, found `b`",
                "b",
            ),
            (
                "fn f() { let 5 = 1; }",
                "expected identifier, found `5`",
                "5",
            ),
            ("fn fn() { }", "expected identifier, found `fn`", "fn"),
            (
                "fn f() { let x = ; }",
                "expected expression, found `;`",
                ";",
            ),
            (
                "fn f() { let x = y + ); }",
                "expected expression, found `)`",
                ")",
            ),
            ("fn f(x: 'a) { }", "expected type, found `'a`", "'a"),
            ("fn f<x>() { }", "expected lifetime, found `x`", "x"),
            (
                "fn f() { x.(1); }",
                "expected field name or index after `.`, found `(`",
                "(",
            ),
            ("fn f() { } g", "expected `fn` or `struct`, found `g`", "g"),
        ];
        for (src, message, token) in cases {
            let err = parse_program(src).unwrap_err();
            assert_eq!(err.message, message, "for {src:?}");
            let (lo, hi) = (err.span.lo as usize, err.span.hi as usize);
            assert_eq!(&src[lo..hi], token, "span for {src:?}");
        }
        let err = parse_expr("a b").unwrap_err();
        assert_eq!(err.message, "expected `<eof>`, found `b`");
    }

    #[test]
    fn parses_calls_with_arguments() {
        let src = "fn g(x: i32) -> i32 { return x; } fn f() { let a = g(1); g(a); }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.funcs.len(), 2);
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!(parse_program("fn f() { let x = 1;").is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse_program("fn f() { let x = 1 }").is_err());
    }

    #[test]
    fn expr_ids_are_unique() {
        let p = parse_program("fn f(x: i32) -> i32 { let y = x + x; return y * y; }").unwrap();
        let mut ids = Vec::new();
        fn collect(e: &Expr, ids: &mut Vec<u32>) {
            ids.push(e.id.0);
            match &e.kind {
                ExprKind::Field(b, _) | ExprKind::Deref(b) => collect(b, ids),
                ExprKind::Borrow { expr, .. } => collect(expr, ids),
                ExprKind::Binary { lhs, rhs, .. } => {
                    collect(lhs, ids);
                    collect(rhs, ids);
                }
                ExprKind::Unary { operand, .. } => collect(operand, ids),
                ExprKind::Call { args, .. } => args.iter().for_each(|a| collect(a, ids)),
                ExprKind::Tuple(es) => es.iter().for_each(|a| collect(a, ids)),
                ExprKind::StructLit { fields, .. } => {
                    fields.iter().for_each(|(_, a)| collect(a, ids))
                }
                _ => {}
            }
        }
        for f in &p.funcs {
            for s in &f.body.stmts {
                match &s.kind {
                    StmtKind::Let { init, .. } => collect(init, &mut ids),
                    StmtKind::Return(Some(e)) => collect(e, &mut ids),
                    _ => {}
                }
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn parses_module_attributes() {
        let src = "#![lattice(multi_level)]\n#![default_label(Low)]\nfn f() { }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.lattice.as_deref(), Some("multi_level"));
        assert_eq!(p.default_label.as_deref(), Some("Low"));
    }

    #[test]
    fn parses_function_and_param_labels() {
        let src = "#[label(High)] #[sink(Low)] fn f(#[label(High)] x: i32, y: i32) -> i32 { return x + y; }";
        let p = parse_program(src).unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.label.as_deref(), Some("High"));
        assert_eq!(f.clearance.as_deref(), Some("Low"));
        assert_eq!(f.params[0].label.as_deref(), Some("High"));
        assert_eq!(f.params[1].label, None);
    }

    #[test]
    fn parses_declassify_let() {
        let src = "fn g() -> i32 { return 1; }
                   fn f() -> i32 { #[declassify] let x = g(); return x; }";
        let p = parse_program(src).unwrap();
        match &p.funcs[1].body.stmts[0].kind {
            StmtKind::Let { declassify, .. } => assert!(declassify),
            other => panic!("unexpected {other:?}"),
        }
        match &p.funcs[1].body.stmts[1].kind {
            StmtKind::Return(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_declassify_of_non_call() {
        let err = parse_program("fn f() { #[declassify] let x = 1; }").unwrap_err();
        assert!(err.message.contains("function call"), "{}", err.message);
    }

    #[test]
    fn rejects_declassify_before_non_let() {
        let err = parse_program("fn f() { #[declassify] return; }").unwrap_err();
        assert!(err.message.contains("`let`"), "{}", err.message);
    }

    #[test]
    fn rejects_unknown_attributes() {
        assert!(parse_program("#![frobnicate(x)] fn f() { }").is_err());
        assert!(parse_program("#[frobnicate] fn f() { }").is_err());
        assert!(parse_program("fn f(#[sink(Low)] x: i32) { }").is_err());
        // Inner attributes after the first item are rejected.
        assert!(parse_program("fn f() { } #![lattice(two_point)]").is_err());
    }

    #[test]
    fn parses_effect_attributes() {
        let src = "#[effect(pure)] fn one() -> i32 { return 1; }
                   #[effect(reads(x, y), writes(p))]
                   fn f(x: i32, y: i32, p: &mut i32) { *p = x + y; }";
        let p = parse_program(src).unwrap();
        let one = p.funcs[0].effect.as_ref().unwrap();
        assert!(one.pure);
        assert!(one.reads.is_empty() && one.writes.is_empty());
        let f = p.funcs[1].effect.as_ref().unwrap();
        assert!(!f.pure);
        assert_eq!(f.reads, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(f.writes, vec!["p".to_string()]);
    }

    #[test]
    fn repeated_effect_attributes_accumulate() {
        let src =
            "#[effect(reads(x))] #[effect(reads(y))] fn f(x: i32, y: i32) -> i32 { return x + y; }";
        let p = parse_program(src).unwrap();
        let eff = p.funcs[0].effect.as_ref().unwrap();
        assert_eq!(eff.reads, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn parses_module_membership_and_policy() {
        let src = "#![lattice(two_point)]
                   #![module_policy(audit, label(Secret), sink(Public))]
                   #[module(audit)] fn f() -> i32 { return 1; }
                   fn g() { }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.module_policies.len(), 1);
        let mp = &p.module_policies[0];
        assert_eq!(mp.name, "audit");
        assert_eq!(mp.label.as_deref(), Some("Secret"));
        assert_eq!(mp.clearance.as_deref(), Some("Public"));
        assert_eq!(p.funcs[0].module.as_deref(), Some("audit"));
        assert_eq!(p.funcs[1].module, None);
    }

    #[test]
    fn module_policy_clauses_are_optional() {
        let p = parse_program("#![module_policy(io)] fn f() { }").unwrap();
        assert_eq!(p.module_policies[0].name, "io");
        assert!(p.module_policies[0].label.is_none());
        assert!(p.module_policies[0].clearance.is_none());
    }

    #[test]
    fn rejects_malformed_effect_attributes() {
        // Every row must produce a spanned diagnostic, never a panic.
        let gauntlet = [
            "#[effect] fn f() { }",
            "#[effect()] fn f() { }",
            "#[effect(frobnicate)] fn f() { }",
            "#[effect(reads)] fn f(x: i32) { }",
            "#[effect(reads())] fn f(x: i32) { }",
            "#[effect(reads(x,))] fn f(x: i32) { }",
            "#[effect(reads(x) writes(x))] fn f(x: &mut i32) { }",
            "#[effect(pure, writes(p))] fn f(p: &mut i32) { }",
            "#[effect(pure)] #[effect(writes(p))] fn f(p: &mut i32) { }",
            "#[effect(reads(1))] fn f() { }",
            "#[effect(pure] fn f() { }",
            "#[effect(pure)) fn f() { }",
        ];
        for src in gauntlet {
            let err = parse_program(src).unwrap_err();
            assert!(err.span.lo <= err.span.hi, "bad span for {src:?}");
        }
    }

    #[test]
    fn rejects_malformed_module_attributes() {
        let gauntlet = [
            "#[module] fn f() { }",
            "#[module()] fn f() { }",
            "#[module(a, b)] fn f() { }",
            "#![module_policy] fn f() { }",
            "#![module_policy()] fn f() { }",
            "#![module_policy(m, frobnicate(x))] fn f() { }",
            "#![module_policy(m, label)] fn f() { }",
            "#![module_policy(m, label())] fn f() { }",
            "#![module_policy(m, sink(Low), )] fn f() { }",
            "#![module_policy(m label(L))] fn f() { }",
            "fn f() { } #![module_policy(m)]",
        ];
        for src in gauntlet {
            let err = parse_program(src).unwrap_err();
            assert!(err.span.lo <= err.span.hi, "bad span for {src:?}");
        }
    }

    #[test]
    fn single_element_paren_is_not_tuple() {
        let e = parse_expr("(5)").unwrap();
        assert!(matches!(e.kind, ExprKind::Int(5)));
    }

    #[test]
    fn parses_unit_expression() {
        let e = parse_expr("()").unwrap();
        assert!(matches!(e.kind, ExprKind::Unit));
    }

    /// `f` returning `body`, with `n` nesting levels of each shape: nested
    /// parentheses, a chain of `+`, prefix operators, nested blocks.
    fn shapes(n: usize) -> [String; 4] {
        let wrap = |body: String| format!("fn f(x: i32) -> i32 {{ {body} }}");
        [
            wrap(format!("return {}x{};", "(".repeat(n), ")".repeat(n))),
            wrap(format!("return x{};", " + x".repeat(n - 1))),
            wrap(format!("return {}x;", "- ".repeat(n))),
            wrap(format!(
                "let mut y = x; {} y = y + 1; {} return y;",
                "if x > 0 { ".repeat(n),
                "} ".repeat(n)
            )),
        ]
    }

    fn assert_too_deep(src: &str) {
        let err = parse_program(src).expect_err("input past the nesting limit parses");
        assert!(err.message.contains("nesting too deep"), "{err:?}");
    }

    #[test]
    fn nesting_one_past_the_limit_is_a_diagnostic() {
        for src in shapes(MAX_NESTING + 1) {
            assert_too_deep(&src);
        }
        for src in shapes(MAX_NESTING / 2) {
            parse_program(&src).expect("half the nesting limit parses");
        }
    }

    #[test]
    fn deep_input_is_rejected_without_exhausting_a_small_stack() {
        let deep = move || {
            let wrap = |body: String| format!("fn f(x: i32) -> i32 {{ return {body}; }}");
            assert_too_deep(&wrap(format!("{}x{}", "(".repeat(1000), ")".repeat(1000))));
            assert_too_deep(&wrap(format!("x{}", " + 1".repeat(9_999))));
            assert_too_deep(&wrap(format!("{}x", "-".repeat(5000))));
            assert_too_deep(&wrap(format!("x{}", ".0".repeat(5000))));
            assert_too_deep(&format!("fn f(x: {}i32) {{ }}", "& ".repeat(5000)));
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(deep)
            .unwrap()
            .join()
            .expect("deep input is rejected");
    }
}
