//! Empirical check of the paper's Lemma A.2: *a place expression's loan set
//! contains the place it points to at runtime*.
//!
//! For functions that return a reference, we run the interpreter with a
//! synthesized environment, observe where the returned pointer actually
//! points, translate that runtime location back into a place expression of
//! the analyzed function, and assert that the static alias analysis (driven
//! by the lifetime-derived loan sets, §2.2/§4.2) predicted it.

use flowistry::prelude::*;
use flowistry_core::{AliasAnalysis, AliasMode};
use flowistry_lang::mir::{Local, Place};

/// Runs `func` with environment-backed reference arguments and returns the
/// place (in caller-of-`func` terms, i.e. rooted at the corresponding
/// parameter) that the *returned reference* points to at runtime.
fn runtime_pointee(program: &CompiledProgram, name: &str, args: Vec<Value>) -> Place {
    let func = program.func_id(name).expect("function exists");
    let interp = Interpreter::new(program);
    let out = interp.run_with_env(func, args).expect("execution succeeds");
    match out.return_value {
        Value::Ref(ptr) => {
            assert_eq!(
                ptr.frame, 0,
                "returned reference must point into the environment frame"
            );
            // Environment slot i backs parameter _{i+1}; the pointee is
            // therefore the place (*_{i+1}) extended with the pointer's
            // projection.
            let param = Local(ptr.place.local.0 + 1);
            let mut place = Place::from_local(param).deref();
            place
                .projection
                .extend(ptr.place.projection.iter().copied());
            place
        }
        other => panic!("expected the function to return a reference, got {other}"),
    }
}

/// The static alias set the analysis computes for the returned reference's
/// referent, i.e. aliases of `(*_0)` in the callee's own body.
fn static_aliases(program: &CompiledProgram, name: &str) -> std::collections::BTreeSet<Place> {
    let func = program.func_id(name).expect("function exists");
    let body = program.body(func);
    let aliases = AliasAnalysis::new(body, &program.structs, AliasMode::Lifetimes);
    aliases.aliases(&Place::return_place().deref())
}

/// Asserts Lemma A.2 for one function: the runtime pointee (or one of its
/// conflicting places) is contained in the statically computed alias set.
fn assert_loans_cover_runtime(program: &CompiledProgram, name: &str, args: Vec<Value>) {
    let runtime = runtime_pointee(program, name, args);
    let aliases = static_aliases(program, name);
    let covered = aliases.iter().any(|a| a.conflicts_with(&runtime));
    assert!(
        covered,
        "{name}: runtime pointee {runtime} not covered by static aliases {aliases:?}"
    );
}

const PROGRAMS: &str = r#"
struct Pair { a: i32, b: i32 }

fn first_field<'a>(p: &'a mut Pair) -> &'a mut i32 {
    return &mut (*p).a;
}

fn pick_field<'a>(p: &'a mut Pair, which: bool) -> &'a mut i32 {
    if which { return &mut (*p).a; }
    return &mut (*p).b;
}

fn pass_through<'a>(p: &'a mut Pair) -> &'a mut i32 {
    let inner = first_field(p);
    return inner;
}

fn tuple_slot<'a>(t: &'a mut (i32, (i32, i32))) -> &'a mut i32 {
    let outer = &mut (*t).1;
    return &mut (*outer).0;
}

fn identity<'a>(r: &'a mut i32) -> &'a mut i32 {
    return r;
}
"#;

fn compiled() -> CompiledProgram {
    let program = compile(PROGRAMS).expect("programs compile");
    assert!(
        program.borrow_errors.is_empty(),
        "{:?}",
        program.borrow_errors
    );
    program
}

fn pair(a: i64, b: i64, program: &CompiledProgram) -> Value {
    Value::Struct(
        program.structs.lookup("Pair").expect("Pair exists"),
        vec![Value::Int(a), Value::Int(b)],
    )
}

#[test]
fn direct_field_borrow_is_covered() {
    let program = compiled();
    let p = pair(1, 2, &program);
    assert_loans_cover_runtime(&program, "first_field", vec![p]);
}

#[test]
fn branch_dependent_borrows_are_covered_on_both_paths() {
    let program = compiled();
    for which in [true, false] {
        let p = pair(1, 2, &program);
        assert_loans_cover_runtime(&program, "pick_field", vec![p, Value::Bool(which)]);
    }
}

#[test]
fn reference_returned_through_a_callee_is_covered() {
    let program = compiled();
    let p = pair(5, 6, &program);
    assert_loans_cover_runtime(&program, "pass_through", vec![p]);
}

#[test]
fn nested_tuple_reborrow_is_covered() {
    let program = compiled();
    let t = Value::Tuple(vec![
        Value::Int(0),
        Value::Tuple(vec![Value::Int(7), Value::Int(8)]),
    ]);
    assert_loans_cover_runtime(&program, "tuple_slot", vec![t]);
}

#[test]
fn identity_reference_is_covered() {
    let program = compiled();
    assert_loans_cover_runtime(&program, "identity", vec![Value::Int(3)]);
}

#[test]
fn ref_blind_aliases_are_a_superset_of_lifetime_aliases() {
    // The Ref-blind ablation must never be *more* precise than the
    // lifetime-based analysis on the returned reference's referent.
    let program = compiled();
    for name in [
        "first_field",
        "pick_field",
        "pass_through",
        "tuple_slot",
        "identity",
    ] {
        let func = program.func_id(name).unwrap();
        let body = program.body(func);
        let precise = AliasAnalysis::new(body, &program.structs, AliasMode::Lifetimes);
        let blind = AliasAnalysis::new(body, &program.structs, AliasMode::TypeBased);
        let target = Place::return_place().deref();
        let precise_set = precise.aliases(&target);
        let blind_set = blind.aliases(&target);
        for place in &precise_set {
            // Every concrete (non-opaque) alias found with lifetimes must be
            // explainable under the type-based assumption as well, possibly
            // through a conflicting (coarser) place.
            assert!(
                blind_set.iter().any(|b| b.conflicts_with(place)) || place.has_deref(),
                "{name}: {place} in lifetime aliases but unexplained by ref-blind {blind_set:?}"
            );
        }
    }
}

#[test]
fn mutation_through_returned_reference_reaches_the_environment() {
    // End-to-end: a caller that mutates through the returned reference must
    // actually change the Pair in the environment, and the analysis must
    // have predicted a flow into the Pair argument.
    let src = r#"
        struct Pair { a: i32, b: i32 }
        fn first_field<'a>(p: &'a mut Pair) -> &'a mut i32 { return &mut (*p).a; }
        fn caller(p: &mut Pair, v: i32) {
            let slot = first_field(p);
            *slot = v;
        }
    "#;
    let program = compile(src).unwrap();
    let caller = program.func_id("caller").unwrap();

    // Dynamic check.
    let interp = Interpreter::new(&program);
    let out = interp
        .run_with_env(
            caller,
            vec![
                Value::Struct(
                    program.structs.lookup("Pair").unwrap(),
                    vec![Value::Int(0), Value::Int(9)],
                ),
                Value::Int(42),
            ],
        )
        .unwrap();
    assert_eq!(
        out.environment.locals[0],
        Some(Value::Struct(
            program.structs.lookup("Pair").unwrap(),
            vec![Value::Int(42), Value::Int(9)]
        ))
    );

    // Static check: (*p) depends on the argument v at exit.
    let results = analyze(&program, caller, &AnalysisParams::default());
    let deps = results.exit_deps(&Place::from_local(Local(1)).deref());
    assert!(
        deps.iter().any(|d| d.arg() == Some(Local(2))),
        "expected v to flow into *p: {deps:?}"
    );
}
