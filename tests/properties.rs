//! Seeded property tests for the core data structures and invariants of
//! the analysis:
//!
//! * place conflict/disjointness algebra (§2.1);
//! * the Θ join is a proper join-semilattice operation;
//! * monotonicity of the analysis conditions (modular ⊆ blind ablations);
//! * soundness spot-checks via the interpreter (noninterference) on random
//!   programs from `flowistry_corpus::random_program`.
//!
//! Each property runs `CASES` cases, case `seed` drawing from
//! `StdRng::seed_from_u64(seed)`. A failure names its seed (and, for
//! programs, the size): `random_program(seed, size)` rebuilds the program.

use flowistry::prelude::*;
use flowistry_corpus::random_program;
use flowistry_dataflow::JoinSemiLattice;
use flowistry_lang::mir::{BasicBlock, Local, Location, Place, PlaceElem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 1024;

fn random_elem(rng: &mut StdRng) -> PlaceElem {
    if rng.gen_bool(0.5) {
        PlaceElem::Field(rng.gen_range(0..3))
    } else {
        PlaceElem::Deref
    }
}

fn random_place(rng: &mut StdRng) -> Place {
    let len = rng.gen_range(0..4);
    Place {
        local: Local(rng.gen_range(0..4)),
        projection: (0..len).map(|_| random_elem(rng)).collect(),
    }
}

fn random_dep(rng: &mut StdRng) -> Dep {
    if rng.gen_bool(0.5) {
        Dep::Instr(Location {
            block: BasicBlock(rng.gen_range(0..6)),
            statement_index: rng.gen_range(0..5),
        })
    } else {
        Dep::Arg(Local(rng.gen_range(1..4)))
    }
}

fn random_theta(rng: &mut StdRng) -> Theta {
    let entries = rng.gen_range(0..6);
    (0..entries)
        .map(|_| {
            let deps = rng.gen_range(0..5);
            (
                random_place(rng),
                (0..deps).map(|_| random_dep(rng)).collect(),
            )
        })
        .collect()
}

/// Conflict is reflexive and symmetric; disjointness is its negation.
#[test]
fn conflict_relation_algebra() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (random_place(&mut rng), random_place(&mut rng));
        assert!(a.conflicts_with(&a), "seed {seed}: {a:?}");
        assert_eq!(
            a.conflicts_with(&b),
            b.conflicts_with(&a),
            "seed {seed}: {a:?} {b:?}"
        );
        assert_eq!(
            a.is_disjoint_from(&b),
            !a.conflicts_with(&b),
            "seed {seed}: {a:?} {b:?}"
        );
    }
}

/// A prefix always conflicts with its extensions, and places rooted at
/// different locals never conflict.
#[test]
fn prefixes_conflict_and_distinct_locals_do_not() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_place(&mut rng);
        let extended = a.project(random_elem(&mut rng));
        assert!(a.is_prefix_of(&extended), "seed {seed}: {a:?} {extended:?}");
        assert!(
            a.conflicts_with(&extended),
            "seed {seed}: {a:?} {extended:?}"
        );
        let other = Place {
            local: Local(a.local.0 + 1),
            projection: a.projection.clone(),
        };
        assert!(!a.conflicts_with(&other), "seed {seed}: {a:?}");
    }
}

/// The Θ join is idempotent, commutative and monotone (never loses
/// dependencies) — the requirements for the fixpoint iteration of §4.1.
#[test]
fn theta_join_is_a_semilattice() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (random_theta(&mut rng), random_theta(&mut rng));
        let sizes = (a.len(), b.len());
        // Idempotence.
        let mut aa = a.clone();
        assert!(!aa.join(&a), "seed {seed}, sizes {sizes:?}: {a:?}");

        // Commutativity.
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(ab, ba, "seed {seed}, sizes {sizes:?}");

        // Monotonicity: everything in `a` is still in `a ⊔ b`.
        for (place, deps) in &a {
            assert!(
                deps.is_subset(&ab[place]),
                "seed {seed}, sizes {sizes:?}: {place:?} lost deps"
            );
        }
    }
}

/// `read_conflicts` never invents dependencies: the result is a subset of
/// the union of all recorded dependency sets.
#[test]
fn reads_are_subsets_of_recorded_deps() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (theta, place) = (random_theta(&mut rng), random_place(&mut rng));
        let all: DepSet = theta.values().flatten().copied().collect();
        let read = theta.read_conflicts(&place);
        assert!(
            read.is_subset(&all),
            "seed {seed}, size {}: {place:?} read {read:?}",
            theta.len()
        );
    }
}

/// Random programs: as sets of dependencies, per variable of `f`,
/// Whole-program ⊆ Modular ⊆ Mut-blind and Modular ⊆ Ref-blind (§5's
/// monotonicity expectations). The programs pass references to callees,
/// shared and unique, so the ablations differ.
#[test]
fn condition_monotonicity_on_random_programs() {
    for seed in 0..CASES {
        let size = 1 + seed as usize % 9;
        let src = random_program(seed, size);
        let program = compile(&src).expect("generated program compiles");
        let func = program.func_id("f").unwrap();
        let [whole, modular, mut_blind, ref_blind] = [
            Condition::WHOLE_PROGRAM,
            Condition::MODULAR,
            Condition::MUT_BLIND,
            Condition::REF_BLIND,
        ]
        .map(|c| analyze(&program, func, &AnalysisParams::for_condition(c)));
        for (local, _) in modular.user_variable_deps(program.body(func)) {
            for ((finer, a), (coarser, b)) in [
                ((&whole, "Whole-program"), (&modular, "Modular")),
                ((&modular, "Modular"), (&mut_blind, "Mut-blind")),
                ((&modular, "Modular"), (&ref_blind, "Ref-blind")),
            ] {
                let finer = finer.exit_deps_of_local(local);
                let coarser = coarser.exit_deps_of_local(local);
                assert!(
                    finer.is_subset(&coarser),
                    "seed {seed}, size {size}: {local}: {a} {finer:?} ⊄ {b} {coarser:?}\n{src}"
                );
            }
        }
    }
}

/// Empirical noninterference (Theorem 3.1) on the same random programs:
/// varying only inputs outside the computed dependency set never changes
/// the return value of `f`.
#[test]
fn noninterference_on_random_programs() {
    for seed in 0..CASES {
        let size = 1 + seed as usize % 9;
        let src = random_program(seed, size);
        let program = compile(&src).expect("generated program compiles");
        let func = program.func_id("f").unwrap();
        let report = flowistry_interp::check_function(
            &program,
            func,
            &AnalysisParams::default(),
            6,
            StdRng::seed_from_u64(seed).next_u64(),
        )
        .expect("signature supported");
        assert!(
            report.holds(),
            "seed {seed}, size {size}: violations: {:?}\n{src}",
            report.violations
        );
    }
}
