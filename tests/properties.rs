//! Property-based tests (proptest) for the core data structures and
//! invariants of the analysis:
//!
//! * place conflict/disjointness algebra (§2.1);
//! * the Θ join is a proper join-semilattice operation;
//! * monotonicity of the analysis conditions (modular ⊆ blind ablations);
//! * soundness spot-checks via the interpreter (noninterference) on randomly
//!   generated straight-line programs.

use flowistry::prelude::*;
use flowistry_dataflow::JoinSemiLattice;
use flowistry_lang::mir::{BasicBlock, Local, Location, Place, PlaceElem};
use proptest::prelude::*;

fn arb_place() -> impl Strategy<Value = Place> {
    (
        0u32..4,
        prop::collection::vec(
            prop_oneof![(0u32..3).prop_map(PlaceElem::Field), Just(PlaceElem::Deref)],
            0..4,
        ),
    )
        .prop_map(|(local, projection)| Place {
            local: Local(local),
            projection,
        })
}

fn arb_dep() -> impl Strategy<Value = Dep> {
    prop_oneof![
        (0u32..6, 0usize..5).prop_map(|(b, i)| Dep::Instr(Location {
            block: BasicBlock(b),
            statement_index: i
        })),
        (1u32..4).prop_map(|l| Dep::Arg(Local(l))),
    ]
}

fn arb_theta() -> impl Strategy<Value = Theta> {
    prop::collection::btree_map(
        arb_place(),
        prop::collection::btree_set(arb_dep(), 0..5),
        0..6,
    )
}

proptest! {
    /// Conflict is reflexive and symmetric; disjointness is its negation.
    #[test]
    fn conflict_relation_algebra(a in arb_place(), b in arb_place()) {
        prop_assert!(a.conflicts_with(&a));
        prop_assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
        prop_assert_eq!(a.is_disjoint_from(&b), !a.conflicts_with(&b));
    }

    /// A prefix always conflicts with its extensions, and places rooted at
    /// different locals never conflict.
    #[test]
    fn prefixes_conflict_and_distinct_locals_do_not(
        a in arb_place(),
        elem in prop_oneof![(0u32..3).prop_map(PlaceElem::Field), Just(PlaceElem::Deref)],
    ) {
        let extended = a.project(elem);
        prop_assert!(a.is_prefix_of(&extended));
        prop_assert!(a.conflicts_with(&extended));
        let other = Place { local: Local(a.local.0 + 1), projection: a.projection.clone() };
        prop_assert!(!a.conflicts_with(&other));
    }

    /// The Θ join is idempotent, commutative and monotone (never loses
    /// dependencies) — the requirements for the fixpoint iteration of §4.1.
    #[test]
    fn theta_join_is_a_semilattice(a in arb_theta(), b in arb_theta()) {
        // Idempotence.
        let mut aa = a.clone();
        prop_assert!(!aa.join(&a.clone()));

        // Commutativity.
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba);

        // Monotonicity: everything in `a` is still in `a ⊔ b`.
        for (place, deps) in &a {
            let joined = &ab[place];
            for d in deps {
                prop_assert!(joined.contains(d));
            }
        }
    }

    /// `read_conflicts` never invents dependencies: the result is a subset of
    /// the union of all recorded dependency sets.
    #[test]
    fn reads_are_subsets_of_recorded_deps(theta in arb_theta(), place in arb_place()) {
        let all: DepSet = theta.values().flatten().copied().collect();
        let read = theta.read_conflicts(&place);
        prop_assert!(read.is_subset(&all));
    }

    /// Randomly generated programs: as sets of dependencies, per variable,
    /// Whole-program ⊆ Modular ⊆ Mut-blind and Modular ⊆ Ref-blind (§5's
    /// monotonicity expectations). Besides scalar code, the recipes pass
    /// references to callees, shared and unique, so the ablations differ.
    #[test]
    fn condition_monotonicity_on_random_programs(
        ops in prop::collection::vec((0u8..6, 0usize..4, 0usize..4), 1..8),
    ) {
        // Build a small function from a random recipe of statements over
        // four mutable scalars.
        let mut body = String::from("fn f(a: i32, b: i32, c: i32, d: i32) -> i32 {\n");
        body.push_str("    let mut v0 = a;\n    let mut v1 = b;\n    let mut v2 = c;\n    let mut v3 = d;\n");
        for (kind, x, y) in &ops {
            let x = x % 4;
            let y = y % 4;
            match kind % 6 {
                0 => body.push_str(&format!("    v{x} = v{x} + v{y};\n")),
                1 => body.push_str(&format!("    v{x} = v{y} * 2;\n")),
                2 => body.push_str(&format!("    if v{y} > 0 {{ v{x} = v{x} + 1; }}\n")),
                3 => body.push_str(&format!("    v{x} = helper(v{y}, v{x});\n")),
                4 => body.push_str(&format!("    bump(&mut v{x}, {y});\n")),
                _ => body.push_str(&format!("    v{x} = peek(&v{y}) + v{x};\n")),
            }
        }
        body.push_str("    return v0 + v1;\n}\n");
        let src = format!(
            "fn helper(p: i32, q: i32) -> i32 {{ return p + 1; }}\n\
             fn bump(p: &mut i32, q: i32) {{ *p = *p + q; }}\n\
             fn peek(p: &i32) -> i32 {{ return *p; }}\n{body}"
        );

        let program = compile(&src).expect("generated program compiles");
        let func = program.func_id("f").unwrap();
        let modular = analyze(&program, func, &AnalysisParams::default());
        let whole = analyze(&program, func, &AnalysisParams::for_condition(Condition::WHOLE_PROGRAM));
        let mut_blind = analyze(&program, func, &AnalysisParams::for_condition(Condition::MUT_BLIND));
        let ref_blind = analyze(&program, func, &AnalysisParams::for_condition(Condition::REF_BLIND));
        for (local, deps) in modular.user_variable_deps(program.body(func)) {
            let finer = whole.exit_deps_of_local(local);
            prop_assert!(finer.is_subset(&deps), "{local}: Whole-program {finer:?} ⊄ Modular {deps:?}\n{src}");
            let coarser = mut_blind.exit_deps_of_local(local);
            prop_assert!(deps.is_subset(&coarser), "{local}: Modular {deps:?} ⊄ Mut-blind {coarser:?}\n{src}");
            let coarser = ref_blind.exit_deps_of_local(local);
            prop_assert!(deps.is_subset(&coarser), "{local}: Modular {deps:?} ⊄ Ref-blind {coarser:?}\n{src}");
        }
    }

    /// Empirical noninterference (Theorem 3.1) on the same random programs:
    /// varying only inputs outside the computed dependency set never changes
    /// the return value.
    #[test]
    fn noninterference_on_random_programs(
        ops in prop::collection::vec((0u8..3, 0usize..4, 0usize..4), 1..6),
        seed in 1u64..1_000_000,
    ) {
        let mut body = String::from("fn f(a: i32, b: i32, c: i32, d: i32) -> i32 {\n");
        body.push_str("    let mut v0 = a;\n    let mut v1 = b;\n    let mut v2 = 0;\n    let mut v3 = 1;\n");
        for (kind, x, y) in &ops {
            let x = x % 4;
            let y = y % 4;
            match kind % 3 {
                0 => body.push_str(&format!("    v{x} = v{x} + v{y};\n")),
                1 => body.push_str(&format!("    if v{y} > 2 {{ v{x} = v{y} - 1; }}\n")),
                _ => body.push_str(&format!("    v{x} = v{y} * v{x};\n")),
            }
        }
        body.push_str("    return v2 + v3;\n}\n");
        let program = compile(&body).expect("generated program compiles");
        let func = program.func_id("f").unwrap();
        let report = flowistry_interp::check_function(
            &program,
            func,
            &AnalysisParams::default(),
            6,
            seed,
        ).expect("signature supported");
        prop_assert!(report.holds(), "violations: {:?}", report.violations);
    }
}
