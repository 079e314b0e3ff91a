//! Pins the borrow checker's diagnostics: for each program, every
//! diagnostic's message and span, in the order the checker reports them.
//!
//! The expected lists were recorded with the checker that kept one
//! `HashSet<Local>` per location and walked region reachability per
//! location; the bitset checker must reproduce them exactly. The programs
//! cover write, read and borrow conflicts, call arguments and destinations,
//! branch discriminants, loans kept alive through a returned `&mut`, a
//! conflict that only the back edge of a `while` loop makes live,
//! field-disjoint borrows, reborrows through `*`, outlives chains of
//! length three and more, and a body with more than 64 locals.

/// One expected diagnostic: message, span start, span end.
type Expected = (&'static str, u32, u32);

/// `(name, source, expected diagnostics)` of every fixed program.
const CASES: &[(&str, &str, &[Expected])] = &[
    (
        "write_while_shared",
        "fn f() -> i32 { let mut x = 1; let r = &x; x = 2; return *r; }",
        &[
            (
                "cannot assign to `_1` in `f` because it is borrowed at bb0[1]",
                43,
                49,
            ),
        ],
    ),
    (
        "read_while_unique",
        "fn f() -> i32 { let mut x = 1; let r = &mut x; let y = x; *r = 2; return y; }",
        &[
            (
                "cannot read `_1` in `f` because it is mutably borrowed at bb0[1]",
                47,
                57,
            ),
        ],
    ),
    (
        "two_unique_borrows",
        "fn f() -> i32 { let mut x = 1; let a = &mut x; let b = &mut x; *a = 2; *b = 3; return x; }",
        &[
            (
                "cannot borrow `_1` as unique in `f` because a conflicting borrow exists at bb0[1]",
                47,
                62,
            ),
        ],
    ),
    (
        "unique_while_shared",
        "fn f() -> i32 { let mut x = 1; let a = &x; let b = &mut x; *b = 2; return *a; }",
        &[
            (
                "cannot borrow `_1` as unique in `f` because a conflicting borrow exists at bb0[1]",
                43,
                58,
            ),
        ],
    ),
    (
        "shared_while_unique",
        "fn f() -> i32 { let mut x = 1; let a = &mut x; let b = &x; *a = 2; return *b; }",
        &[
            (
                "cannot borrow `_1` as shared in `f` because a conflicting borrow exists at bb0[1]",
                47,
                58,
            ),
        ],
    ),
    (
        "two_shared_loans_then_write",
        "fn f() -> i32 { let mut x = 1; let a = &x; let b = &x; x = 3; return *a + *b; }",
        &[
            (
                "cannot assign to `_1` in `f` because it is borrowed at bb0[1]",
                55,
                61,
            ),
            (
                "cannot assign to `_1` in `f` because it is borrowed at bb0[2]",
                55,
                61,
            ),
        ],
    ),
    (
        "shared_borrows_coexist",
        "fn f() -> i32 { let x = 1; let a = &x; let b = &x; return *a + *b; }",
        &[],
    ),
    (
        "borrow_ends_before_write",
        "fn f() -> i32 { let mut x = 1; let r = &x; let v = *r; x = 2; return v + x; }",
        &[],
    ),
    (
        "returned_mut_keeps_loan_alive",
        "fn first<'a>(p: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*p).0; }
         fn g() -> i32 { let mut t = (1, 2); let r = first(&mut t); t.1 = 5; let v = t.0; *r = 3; return v; }",
        &[
            (
                "cannot assign to `_1.1` in `g` because it is borrowed at bb0[1]",
                143,
                151,
            ),
            (
                "cannot read `_1.0` in `g` because it is mutably borrowed at bb0[1]",
                152,
                164,
            ),
        ],
    ),
    (
        "returned_mut_dead_before_write",
        "fn first<'a>(p: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*p).0; }
         fn g() -> i32 { let mut t = (1, 2); let r = first(&mut t); *r = 3; t.1 = 5; return t.0; }",
        &[],
    ),
    (
        "loop_back_edge_keeps_loan_alive",
        "fn f(n: i32) -> i32 {
             let mut x = 0; let mut y = 0; let mut r = &mut y; let mut i = 0;
             while i < n { x = x + 1; *r = i; r = &mut x; i = i + 1; }
             return y;
         }",
        &[
            (
                "cannot assign to `_2` in `f` because it is borrowed at bb2[2]",
                127,
                137,
            ),
            (
                "cannot read `_2` in `f` because it is mutably borrowed at bb2[2]",
                127,
                137,
            ),
        ],
    ),
    (
        "loop_borrow_read_each_iteration",
        "fn f(n: i32) -> i32 {
             let mut x = 0; let r = &mut x; let mut i = 0; let mut s = 0;
             while i < n { s = s + x; *r = i; i = i + 1; }
             return s;
         }",
        &[
            (
                "cannot read `_2` in `f` because it is mutably borrowed at bb0[1]",
                123,
                133,
            ),
        ],
    ),
    (
        "loop_without_conflict",
        "fn f(n: i32) -> i32 {
             let mut x = 0; let mut i = 0;
             while i < n { let r = &mut x; *r = *r + i; i = i + 1; }
             return x;
         }",
        &[],
    ),
    (
        "disjoint_tuple_fields",
        "fn f() -> i32 { let mut t = (1, 2); let a = &mut t.0; let b = &mut t.1; *a = 3; *b = 4; return t.0; }",
        &[],
    ),
    (
        "whole_and_field_overlap",
        "fn f() -> i32 { let mut t = (1, 2); let a = &mut t; let b = &mut t.1; *b = 3; (*a).0 = 4; return t.0; }",
        &[
            (
                "cannot borrow `_1.1` as unique in `f` because a conflicting borrow exists at bb0[1]",
                52,
                69,
            ),
        ],
    ),
    (
        "disjoint_struct_fields",
        "struct P { a: i32, b: i32 }
         fn f() -> i32 { let mut p = P { a: 1, b: 2 }; let ra = &mut p.a; let v = p.b; let w = p.a; *ra = 3; return v + w; }",
        &[
            (
                "cannot read `_1.0` in `f` because it is mutably borrowed at bb0[1]",
                115,
                127,
            ),
        ],
    ),
    (
        "reborrow_through_deref",
        "fn f() { let mut x = (0, 0); let y = &mut x; let z = &mut (*y).1; *z = 1; }",
        &[],
    ),
    (
        "write_under_live_reborrow",
        "fn f() -> i32 { let mut x = (0, 0); let y = &mut x; let z = &mut (*y).1; x.0 = 5; *z = 1; return x.1; }",
        &[],
    ),
    (
        "reborrow_chain_of_three",
        "fn f() -> i32 {
             let mut x = 1; let a = &mut x; let b = &mut *a; let c = &mut *b; let d = &mut *c;
             x = 5; *d = 2; return x;
         }",
        &[],
    ),
    (
        "move_chain_of_three",
        "fn f() -> i32 {
             let mut x = 1; let a = &mut x; let b = a; let c = b; let d = c;
             let v = x; *d = 2; return v;
         }",
        &[
            (
                "cannot read `_1` in `f` because it is mutably borrowed at bb0[1]",
                106,
                116,
            ),
        ],
    ),
    (
        "outlives_chain_in_signature",
        "fn pass<'a, 'b, 'c, 'd>(p: &'a mut i32, q: &'b mut i32, r: &'c mut i32, s: &'d mut i32) -> &'d mut i32
             where 'a: 'b, 'b: 'c, 'c: 'd { return s; }
         fn g() -> i32 {
             let mut x = 1; let mut y = 2; let mut z = 3; let mut w = 4;
             let out = pass(&mut x, &mut y, &mut z, &mut w);
             let v = x + y + z + w; *out = 5; return v;
         }",
        &[
            (
                "cannot read `_1` in `g` because it is mutably borrowed at bb0[4]",
                339,
                344,
            ),
            (
                "cannot read `_2` in `g` because it is mutably borrowed at bb0[5]",
                339,
                344,
            ),
            (
                "cannot read `_3` in `g` because it is mutably borrowed at bb0[6]",
                339,
                348,
            ),
            (
                "cannot read `_4` in `g` because it is mutably borrowed at bb0[7]",
                331,
                353,
            ),
        ],
    ),
    (
        "call_argument_conflicts",
        "fn use2(a: &mut i32, b: &i32) { *a = *b; }
         fn id(v: i32) -> i32 { return v; }
         fn g() -> i32 { let mut x = 1; let r = &mut x; use2(r, &x); let y = id(x); *r = 2; return y; }",
        &[
            (
                "cannot borrow `_1` as shared in `g` because a conflicting borrow exists at bb0[1]",
                151,
                153,
            ),
            (
                "cannot read `_1` in `g` because it is mutably borrowed at bb0[1]",
                164,
                169,
            ),
        ],
    ),
    (
        "call_destination_write",
        "fn id(v: i32) -> i32 { return v; }
         fn g() -> i32 { let mut x = 1; let r = &x; x = id(2); return *r; }",
        &[
            (
                "cannot assign to `_1` in `g` because it is borrowed at bb0[1]",
                87,
                97,
            ),
        ],
    ),
    (
        "branch_on_mutably_borrowed",
        "fn f() -> i32 { let mut b = true; let r = &mut b; let mut v = 0; if b { v = 1; } *r = false; return v; }",
        &[
            (
                "cannot read `_1` in `f` because it is mutably borrowed at bb0[1]",
                65,
                80,
            ),
        ],
    ),
    (
        "branch_dependent_borrows",
        "fn f(c: bool) -> i32 {
             let mut x = 1; let mut y = 2; let mut r = &mut y;
             if c { r = &mut x; }
             x = 3; *r = 4; return x + y;
         }",
        &[
            (
                "cannot assign to `_2` in `f` because it is borrowed at bb1[0]",
                133,
                139,
            ),
        ],
    ),
    (
        "parameter_reference_mutation",
        "fn f(p: &mut i32) { *p = *p + 1; }",
        &[],
    ),
    (
        "errors_in_two_functions",
        "fn f() -> i32 { let mut x = 1; let r = &x; x = 2; return *r; }
         fn g() -> i32 { let mut y = 1; let r = &mut y; let z = &y; *r = 2; return *z + y; }",
        &[
            (
                "cannot assign to `_1` in `f` because it is borrowed at bb0[1]",
                43,
                49,
            ),
            (
                "cannot borrow `_1` as shared in `g` because a conflicting borrow exists at bb0[1]",
                119,
                130,
            ),
        ],
    ),
];

/// A body with more than 64 locals, so a live-local set spans several
/// words: filler locals first, then conflicts between high-index locals.
fn many_locals_program() -> String {
    let mut src = String::from("fn f() -> i32 { let mut acc = 0; ");
    for i in 0..80 {
        src.push_str(&format!("let v{i} = {i}; acc = acc + v{i}; "));
    }
    src.push_str(
        "let mut x = acc; let r = &mut x; let y = x; *r = 1; let s = &x; x = 2; return *s + y; }",
    );
    src
}

const MANY_LOCALS_EXPECTED: &[Expected] = &[
    (
        "cannot read `_82` in `f` because it is mutably borrowed at bb0[162]",
        2516,
        2526,
    ),
    (
        "cannot assign to `_82` in `f` because it is borrowed at bb0[165]",
        2547,
        2553,
    ),
];

fn diagnostics(src: &str) -> Vec<(String, u32, u32)> {
    let prog = flowistry_lang::compile(src).expect("program compiles");
    prog.borrow_errors
        .iter()
        .map(|d| (d.message.clone(), d.span.lo, d.span.hi))
        .collect()
}

fn owned(expected: &[Expected]) -> Vec<(String, u32, u32)> {
    expected
        .iter()
        .map(|&(message, lo, hi)| (message.to_string(), lo, hi))
        .collect()
}

#[test]
fn diagnostics_match_the_pinned_constants() {
    for &(name, src, expected) in CASES {
        assert_eq!(diagnostics(src), owned(expected), "{name}");
    }
}

#[test]
fn a_body_with_more_than_64_locals_keeps_its_diagnostics() {
    let src = many_locals_program();
    let prog = flowistry_lang::compile(&src).expect("program compiles");
    assert!(prog.bodies[0].local_decls.len() > 64, "two or more words");
    assert_eq!(diagnostics(&src), owned(MANY_LOCALS_EXPECTED));
}

#[test]
fn the_pinned_set_covers_every_conflict_kind() {
    let messages: Vec<&str> = CASES
        .iter()
        .flat_map(|(_, _, expected)| expected.iter().map(|(m, ..)| *m))
        .collect();
    for kind in ["cannot assign", "cannot read", "cannot borrow"] {
        assert!(messages.iter().any(|m| m.starts_with(kind)), "{kind}");
    }
    assert!(CASES.len() >= 20);
}
