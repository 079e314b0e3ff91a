//! End-to-end integration tests spanning every crate: source text → MIR →
//! information flow → applications (slicer, IFC) → interpreter.

use flowistry::prelude::*;
use flowistry_lang::mir::Local;

const BANK: &str = r#"
struct Account { balance: i32, overdraft: i32 }

fn insecure_log(x: i32) { }

fn deposit(acct: &mut Account, amount: i32) -> i32 {
    (*acct).balance = (*acct).balance + amount;
    return (*acct).balance;
}

fn can_withdraw(acct: &Account, amount: i32) -> bool {
    return (*acct).balance + (*acct).overdraft >= amount;
}

fn withdraw(acct: &mut Account, amount: i32) -> bool {
    if can_withdraw(acct, amount) {
        (*acct).balance = (*acct).balance - amount;
        return true;
    }
    return false;
}

fn secret_pin() -> i32 { return 9876; }

fn transfer(from: &mut Account, to: &mut Account, amount: i32, pin: i32) -> bool {
    let expected = secret_pin();
    if pin != expected { return false; }
    let ok = withdraw(from, amount);
    if ok {
        let new_balance = deposit(to, amount);
        insecure_log(new_balance);
        return true;
    }
    return false;
}
"#;

#[test]
fn bank_program_compiles_cleanly() {
    let program = compile_strict(BANK).expect("bank program is ownership-safe");
    assert_eq!(program.bodies.len(), 6);
    assert_eq!(program.structs.len(), 1);
}

#[test]
fn modular_analysis_finds_cross_function_flows() {
    let program = compile(BANK).unwrap();
    let func = program.func_id("transfer").unwrap();
    let results = analyze(&program, func, &AnalysisParams::default());
    // The destination account (*to) must depend on the amount argument (_3):
    // deposit() receives it through a unique reference.
    let to_deref = flowistry_lang::mir::Place::from_local(Local(2)).deref();
    let deps = results.exit_deps(&to_deref);
    let args: Vec<_> = deps.iter().filter_map(|d| d.arg()).collect();
    assert!(args.contains(&Local(3)), "amount flows into *to: {args:?}");
    // ... and on the pin, via control flow (the early return).
    assert!(
        args.contains(&Local(4)),
        "pin controls whether *to changes: {args:?}"
    );
}

#[test]
fn whole_program_is_at_least_as_precise_on_every_variable() {
    let program = compile(BANK).unwrap();
    for (idx, body) in program.bodies.iter().enumerate() {
        let func = flowistry_lang::types::FuncId(idx as u32);
        let modular = analyze(&program, func, &AnalysisParams::default());
        let whole = analyze(
            &program,
            func,
            &AnalysisParams::for_condition(Condition::WHOLE_PROGRAM),
        );
        for (local, deps) in whole.user_variable_deps(body) {
            let m = modular.exit_deps_of_local(local);
            assert!(
                deps.len() <= m.len(),
                "{}: whole-program larger than modular for {local}",
                body.name
            );
        }
    }
}

/// The paper's precision ordering, checked as set containment on every
/// variable of the whole evaluation corpus: at each function's exit,
/// Whole-program ⊆ Modular ⊆ Mut-blind and Modular ⊆ Ref-blind. Each
/// ablation drops information the analysis uses, so it can only add
/// dependencies; a variable that breaks this is a soundness or precision
/// bug, and every one is reported.
#[test]
fn condition_dependency_sets_nest_on_every_corpus_variable() {
    // (finer, coarser): every dependency under `finer` is also one under
    // `coarser`.
    let pairs = [
        (Condition::WHOLE_PROGRAM, Condition::MODULAR),
        (Condition::MODULAR, Condition::MUT_BLIND),
        (Condition::MODULAR, Condition::REF_BLIND),
    ];
    let (mut variables, mut violations) = (0usize, Vec::new());
    for krate in flowistry_corpus::generate_corpus(flowistry_corpus::DEFAULT_SEED) {
        let params: Vec<(Condition, AnalysisParams)> = Condition::headline_four()
            .into_iter()
            .map(|condition| {
                let params = AnalysisParams {
                    condition,
                    available_bodies: Some(krate.available_bodies()),
                    ..AnalysisParams::default()
                };
                (condition, params)
            })
            .collect();
        for &func in &krate.crate_funcs {
            let body = krate.program.body(func);
            let deps: Vec<(Condition, Vec<(Local, DepSet)>)> = params
                .iter()
                .map(|(c, p)| {
                    (
                        *c,
                        analyze(&krate.program, func, p).user_variable_deps(body),
                    )
                })
                .collect();
            let of = |condition| &deps.iter().find(|(c, _)| *c == condition).unwrap().1;
            variables += of(Condition::MODULAR).len();
            for (finer, coarser) in pairs {
                for ((local, small), (_, large)) in of(finer).iter().zip(of(coarser)) {
                    let missing: Vec<String> =
                        small.difference(large).map(Dep::to_string).collect();
                    if !missing.is_empty() {
                        violations.push(format!(
                            "{}::{}::{local}: {finer} has {}, {coarser} does not",
                            krate.name,
                            body.name,
                            missing.join(", ")
                        ));
                    }
                }
            }
        }
    }
    assert!(variables > 10_000, "only {variables} corpus variables");
    assert!(
        violations.is_empty(),
        "{} containment violations:\n{}",
        violations.len(),
        violations.join("\n")
    );
}

#[test]
fn interpreter_agrees_with_the_semantics_of_the_flows() {
    let program = compile(BANK).unwrap();
    let interp = Interpreter::new(&program);
    let transfer = program.func_id("transfer").unwrap();
    let account = |balance: i64| {
        Value::Struct(
            program.structs.lookup("Account").unwrap(),
            vec![Value::Int(balance), Value::Int(0)],
        )
    };
    // Correct pin: money moves.
    let out = interp
        .run_with_env(
            transfer,
            vec![account(100), account(5), Value::Int(30), Value::Int(9876)],
        )
        .unwrap();
    assert_eq!(out.return_value, Value::Bool(true));
    assert_eq!(
        out.environment.locals[1],
        Some(Value::Struct(
            program.structs.lookup("Account").unwrap(),
            vec![Value::Int(35), Value::Int(0)]
        ))
    );
    // Wrong pin: nothing changes.
    let out = interp
        .run_with_env(
            transfer,
            vec![account(100), account(5), Value::Int(30), Value::Int(1)],
        )
        .unwrap();
    assert_eq!(out.return_value, Value::Bool(false));
    assert_eq!(out.environment.locals[0], Some(account(100)));
}

#[test]
fn slicer_isolates_the_pin_check() {
    let program = compile(BANK).unwrap();
    let func = program.func_id("transfer").unwrap();
    let slicer = Slicer::new(&program, func, AnalysisParams::default());
    let slice = slicer.backward_slice_of_var("expected").unwrap();
    // The slice of `expected` (the secret pin) is small: it does not include
    // the deposit/withdraw machinery.
    let full = slicer.backward_slice_of_return();
    assert!(slice.locations.len() < full.locations.len());
}

#[test]
fn ifc_checker_flags_the_balance_leak() {
    let program = compile(BANK).unwrap();
    // The conventions make `secret_pin` a secret source and `insecure_log`
    // a public sink; the `from` account is secret by explicit label.
    let policy = Policy::from_conventions(&program).with_param_label("transfer", "from", "Secret");
    let checker = PolicyChecker::new(&program, policy).unwrap();
    let report = checker.check_function("transfer").unwrap();
    // The logged balance is influenced by the withdrawal from `from` (a
    // secure account) and control-depends on the secret pin check.
    assert!(!report.is_clean());
}

#[test]
fn noninterference_holds_on_the_bank_program() {
    let program = compile(BANK).unwrap();
    for name in ["deposit", "can_withdraw", "withdraw", "transfer"] {
        let func = program.func_id(name).unwrap();
        if let Some(report) =
            flowistry_interp::check_function(&program, func, &AnalysisParams::default(), 24, 0xBEEF)
        {
            assert!(
                report.holds(),
                "noninterference violated in {name}: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn all_four_conditions_run_on_the_corpus_sample() {
    // One small generated crate, analyzed under all 8 conditions, to make
    // sure no combination panics on realistic input.
    let profile = &flowistry_corpus::paper_profiles()[0];
    let krate = flowistry_corpus::generate_crate(profile, 1);
    for condition in Condition::all_eight() {
        let params = AnalysisParams {
            condition,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        for &func in krate.crate_funcs.iter().take(5) {
            let results = analyze(&krate.program, func, &params);
            assert!(results.iterations() > 0);
        }
    }
}

/// `f` with `n` nesting levels of one shape: nested parentheses, a chain of
/// `+`, prefix operators, or nested blocks.
fn nested_program(shape: usize, n: usize) -> String {
    let body = match shape {
        0 => format!("return {}x{};", "(".repeat(n), ")".repeat(n)),
        1 => format!("return x{};", " + x".repeat(n - 1)),
        2 => format!("return {}x;", "- ".repeat(n)),
        _ => format!(
            "let mut y = x; {} y = y + 1; {} return y;",
            "if x > 0 { ".repeat(n),
            "} ".repeat(n)
        ),
    };
    format!("fn f(x: i32) -> i32 {{ {body} }}")
}

/// At the front end's nesting limit each shape compiles and analyzes on a
/// 2 MiB thread (debug build included); one level deeper it is a
/// diagnostic.
#[test]
fn nesting_at_the_limit_compiles_and_analyzes_on_a_small_stack() {
    let limit = flowistry_lang::parser::MAX_NESTING;
    let check = move || {
        for shape in 0..4 {
            let deepest = (1..=limit)
                .take_while(|&n| compile(&nested_program(shape, n)).is_ok())
                .last()
                .expect("one level of nesting compiles");
            assert!(deepest + 8 >= limit, "shape {shape} stops at {deepest}");
            let err = compile(&nested_program(shape, deepest + 1))
                .expect_err("one past the limit is rejected");
            assert!(err.message.contains("nesting too deep"), "{err:?}");

            let program = compile(&nested_program(shape, deepest)).unwrap();
            let f = program.func_id("f").unwrap();
            let results = analyze(&program, f, &AnalysisParams::default());
            let ret = results.exit_deps_of_local(Local(0));
            assert!(
                ret.iter().any(|d| d.arg() == Some(Local(1))),
                "shape {shape}"
            );
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(check)
        .unwrap()
        .join()
        .expect("the limit fits a 2 MiB stack");
}

/// Programs whose loop overwrites one field of a tuple that may never be
/// entered: after the loop, the field holds `b` or still `a`. The first
/// three have a key for `t.0` before the loop, from the assignment of `t`.
/// The last writes a field seven projections deep, below the depth to
/// which an assignment keys the places inside an aggregate, so before the
/// loop only an ancestor holds its value: joining the loop header's states
/// must keep `a` for it, which key-wise union alone would drop.
const LOOP_FIELD_PROGRAMS: [(&str, &str); 4] = [
    (
        "while, straight tail",
        "fn mk(a: i32) -> (i32, i32) { return (a, a); }
         fn big(a: i32, b: i32, n: i32) -> i32 {
             let mut t = mk(a); let mut k = 0;
             while k < n { t.0 = b; k = k + 1; }
             let x = t.0; let y = x + 1; return y;
         }",
    ),
    (
        "while, branching tail",
        "fn mk(a: i32) -> (i32, i32) { return (a, a); }
         fn big(a: i32, b: i32, n: i32) -> i32 {
             let mut t = mk(a); let mut k = 0;
             while k < n { t.0 = b; k = k + 1; }
             let mut x = t.0; if n > 3 { x = x + 1; } return x;
         }",
    ),
    (
        "loop with break",
        "fn mk(a: i32) -> (i32, i32) { return (a, a); }
         fn big(a: i32, b: i32, n: i32) -> i32 {
             let mut t = mk(a); let mut k = 0;
             loop { if k >= n { break; } t.0 = b; k = k + 1; }
             let x = t.0; let y = x + 1; return y;
         }",
    ),
    (
        "while, field below the key depth",
        "fn mk(a: i32) -> (((((((i32, i32), i32), i32), i32), i32), i32), i32) {
             return (((((((a, a), a), a), a), a), a), a);
         }
         fn big(a: i32, b: i32, n: i32) -> i32 {
             let mut t = mk(a); let mut k = 0;
             while k < n { t.0.0.0.0.0.0.0 = b; k = k + 1; }
             let x = t.0.0.0.0.0.0.0; return x;
         }",
    ),
];

/// On both domains the return of each program depends on `a` (`_1`), and
/// varying the arguments outside its dependencies never changes it.
#[test]
fn loop_field_overwrites_keep_the_pre_loop_value() {
    for (name, src) in LOOP_FIELD_PROGRAMS {
        let program = compile(src).unwrap();
        let big = program.func_id("big").unwrap();
        for domain in [DomainKind::Tree, DomainKind::Indexed] {
            let params = AnalysisParams {
                domain,
                ..AnalysisParams::default()
            };
            let ret = analyze(&program, big, &params).exit_deps_of_local(Local(0));
            assert!(
                ret.iter().any(|d| d.arg() == Some(Local(1))),
                "{name} on {domain:?}: return deps {ret:?}"
            );
            let report = flowistry_interp::check_function(&program, big, &params, 64, 0xBEEF)
                .expect("scalar signature is checkable");
            assert!(
                report.holds(),
                "{name} on {domain:?}: {:?}",
                report.violations
            );
        }
    }
}

/// Programs whose return reads `t.0`, which `b` never reaches. `t`,
/// copied from a call's result, had a key only for the whole, so `t.0`
/// read through it, including the write `t.1 = b`. Ref-blind gave `t.0` a
/// key of its own (the write through `s`, or `bump`'s through `&mut v`,
/// may reach it), so Modular ⊄ Ref-blind, as on 10 of the 1,024 programs
/// of `tests/properties.rs`, the first `random_program(43, 5)`.
const FIELD_PRECISION_PROGRAMS: [&str; 2] = [
    "fn pair(x: i32, y: i32) -> (i32, i32) { return (x, y); }
     fn slot<'a>(t: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*t).0; }
     fn f(a: i32, b: i32, c: i32) -> i32 {
         let mut t = pair(a, c); let s = slot(&mut t); *s = a;
         t.1 = b; let x = t.0; return x;
     }",
    "fn pair(x: i32, y: i32) -> (i32, i32) { return (x, y); }
     fn bump(p: &mut i32, q: i32) { *p = *p + q; }
     fn slot<'a>(t: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*t).0; }
     fn f(a: i32, b: i32, c: i32) -> i32 {
         let mut t = pair(a, a); let mut v = c; bump(&mut v, 1);
         t.1 = b; let x = t.0; let s = slot(&mut t); *s = x; return x;
     }",
];

/// On both domains the return does not depend on `b` (`_2`), every
/// Modular dependency set is within Ref-blind's, and noninterference holds.
#[test]
fn field_writes_stay_in_their_field() {
    for src in FIELD_PRECISION_PROGRAMS {
        let program = compile(src).unwrap();
        let f = program.func_id("f").unwrap();
        for domain in [DomainKind::Tree, DomainKind::Indexed] {
            let params = |condition| AnalysisParams {
                condition,
                domain,
                ..AnalysisParams::default()
            };
            let modular = analyze(&program, f, &params(Condition::MODULAR));
            let ref_blind = analyze(&program, f, &params(Condition::REF_BLIND));
            for (local, deps) in modular.user_variable_deps(program.body(f)) {
                let coarser = ref_blind.exit_deps_of_local(local);
                assert!(deps.is_subset(&coarser), "{local} on {domain:?}\n{src}");
            }
            let ret = modular.exit_deps_of_local(Local(0));
            assert!(
                ret.iter().all(|d| d.arg() != Some(Local(2))),
                "{ret:?}\n{src}"
            );
            let report = flowistry_interp::check_function(
                &program,
                f,
                &params(Condition::MODULAR),
                64,
                0xBEEF,
            )
            .expect("scalar signature is checkable");
            assert!(report.holds(), "{:?}\n{src}", report.violations);
        }
    }
}
