//! Integration tests for the incremental analysis engine:
//!
//! * engine-served results are identical to direct `analyze()` calls over
//!   the synthetic evaluation corpus, under every headline condition;
//! * editing one function re-analyzes exactly the edited function and its
//!   transitive callers;
//! * the disk cache survives engine restarts;
//! * parallel and sequential schedules produce the same summaries;
//! * snapshots are self-contained: they serve their epoch from any thread,
//!   survive the engine moving on, and their bounded results memo evicts
//!   without changing any answer.

use flowistry_core::{analyze, AnalysisParams, Condition};
use flowistry_corpus::{generate_crate, layered_program, paper_profiles, DEFAULT_SEED};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_ifc::{IfcDiagnostic, Policy, PolicyChecker};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use std::sync::Arc;

fn whole_program() -> AnalysisParams {
    AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
}

fn compile(src: &str) -> Arc<CompiledProgram> {
    Arc::new(flowistry_lang::compile(src).unwrap())
}

#[test]
fn engine_matches_direct_analysis_on_the_corpus() {
    // One representative corpus crate, both headline conditions that the
    // applications use. `byte-identical` is checked through full structural
    // equality of the per-location results.
    let profile = &paper_profiles()[0];
    let krate = generate_crate(profile, DEFAULT_SEED);
    let program = Arc::new(krate.program.clone());
    for condition in [Condition::MODULAR, Condition::WHOLE_PROGRAM] {
        let params = AnalysisParams {
            condition,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default().with_params(params.clone()),
        );
        engine.analyze_all();
        for &func in &krate.crate_funcs {
            let direct = analyze(&program, func, &params);
            assert_eq!(
                *engine.results(func),
                direct,
                "{}::{} diverged under {condition}",
                krate.name,
                program.body(func).name
            );
        }
    }
}

#[test]
fn engine_summaries_match_naive_summaries_everywhere() {
    let src = layered_program(4, 4, 0);
    let program = compile(&src);
    let params = whole_program();
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    engine.analyze_all();
    for i in 0..program.bodies.len() {
        let func = FuncId(i as u32);
        let direct = analyze(&program, func, &params);
        let naive = flowistry_core::FunctionSummary::from_results(program.body(func), &direct);
        assert_eq!(engine.summary(func), Some(&naive));
    }
}

#[test]
fn editing_one_function_recomputes_only_its_caller_cone() {
    let v1 = layered_program(3, 4, 0);
    // Edit the leaf of module 0 only.
    let v2 = v1.replace(
        "fn m0_l0(p: &mut i32, v: i32) -> i32 {",
        "fn m0_l0(p: &mut i32, v: i32) -> i32 { let zedit = 7; *p = *p + zedit;",
    );
    assert_ne!(v1, v2);
    let p1 = compile(&v1);
    let p2 = compile(&v2);

    let mut engine = AnalysisEngine::new(
        p1.clone(),
        EngineConfig::default().with_params(whole_program()),
    );
    let cold = engine.analyze_all();
    assert_eq!(cold.analyzed, 12);

    engine.update_program(p2.clone());
    let warm = engine.analyze_all();
    // Module 0's chain (4 functions) is dirty; modules 1 and 2 are warm.
    assert_eq!(warm.analyzed, 4, "dirty cone must be exactly module 0");
    assert_eq!(warm.cache_hits, 8);

    // And the re-analysis is still correct.
    let top = p2.func_id("m0_l3").unwrap();
    assert_eq!(*engine.results(top), analyze(&p2, top, &whole_program()));
}

#[test]
fn editing_a_root_function_recomputes_only_itself() {
    let v1 = layered_program(2, 3, 0);
    let v2 = v1.replace(
        "fn m1_l2(p: &mut i32, v: i32) -> i32 {",
        "fn m1_l2(p: &mut i32, v: i32) -> i32 { let zedit = 1;",
    );
    let p1 = compile(&v1);
    let p2 = compile(&v2);
    let mut engine = AnalysisEngine::new(p1, EngineConfig::default().with_params(whole_program()));
    engine.analyze_all();
    engine.update_program(p2);
    let warm = engine.analyze_all();
    assert_eq!(warm.analyzed, 1, "a root has no callers");
    assert_eq!(warm.cache_hits, 5);
}

#[test]
fn disk_cache_survives_engine_restarts() {
    let dir = std::env::temp_dir().join(format!("flowistry-engine-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("summaries.cache");

    let src = layered_program(2, 3, 0);
    let program = compile(&src);
    let config = EngineConfig::default()
        .with_params(whole_program())
        .with_cache_path(&path);

    let mut first = AnalysisEngine::new(program.clone(), config.clone());
    let cold = first.analyze_all();
    assert_eq!(cold.analyzed, 6);
    drop(first);

    let mut second = AnalysisEngine::new(program.clone(), config);
    let warm = second.analyze_all();
    assert_eq!(warm.analyzed, 0, "disk cache should start the engine warm");
    assert_eq!(warm.cache_hits, 6);

    // Warm-start results still match direct analysis.
    let func = program.func_id("m0_l2").unwrap();
    assert_eq!(
        *second.results(func),
        analyze(&program, func, &whole_program())
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn work_stealing_agrees_with_sequential_and_direct_analysis_on_the_corpus() {
    // The acceptance bar: the work-stealing scheduler must produce results
    // bit-identical to a sequential run and to direct analyze() over the
    // evaluation corpus, at every worker count.
    let profile = &paper_profiles()[0];
    let krate = generate_crate(profile, DEFAULT_SEED);
    let program = Arc::new(krate.program.clone());
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some(krate.available_bodies()),
        ..AnalysisParams::default()
    };
    let run = |threads: usize| {
        let mut engine = AnalysisEngine::new(
            program.clone(),
            EngineConfig::default()
                .with_params(params.clone())
                .with_threads(threads),
        );
        let stats = engine.analyze_all();
        (engine, stats)
    };
    let (sequential, seq_stats) = run(1);
    assert_eq!(seq_stats.steals, 0, "one worker never steals");
    for threads in [2, 8] {
        let (stealing, stats) = run(threads);
        assert_eq!(stats.analyzed, seq_stats.analyzed);
        assert_eq!(stats.cache_hits, seq_stats.cache_hits);
        assert_eq!(stats.levels, seq_stats.levels, "critical path is fixed");
        for &func in &krate.crate_funcs {
            assert_eq!(stealing.summary(func), sequential.summary(func));
            assert_eq!(
                *stealing.results(func),
                *sequential.results(func),
                "{threads} workers diverged from the sequential run on {}",
                program.body(func).name
            );
        }
    }
    for &func in &krate.crate_funcs {
        assert_eq!(
            *sequential.results(func),
            analyze(&program, func, &params),
            "the engine diverged from direct analyze on {}",
            program.body(func).name
        );
    }
}

#[test]
fn single_worker_work_stealing_is_strictly_sequential() {
    let src = layered_program(4, 3, 0);
    let program = compile(&src);
    let mut engine = AnalysisEngine::new(
        program,
        EngineConfig::default()
            .with_params(whole_program())
            .with_threads(1),
    );
    let stats = engine.analyze_all();
    assert_eq!(stats.analyzed, 12);
    assert_eq!(stats.threads, 1);
    assert_eq!(stats.steals, 0, "one worker has nobody to steal from");
}

#[test]
fn parallel_and_sequential_schedules_agree() {
    let src = layered_program(6, 3, 0);
    let program = compile(&src);
    let mut sequential = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(whole_program())
            .with_threads(1),
    );
    let mut parallel = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(whole_program())
            .with_threads(4),
    );
    let seq_stats = sequential.analyze_all();
    let par_stats = parallel.analyze_all();
    assert_eq!(seq_stats.analyzed, par_stats.analyzed);
    assert!(par_stats.threads >= 1);
    for i in 0..program.bodies.len() {
        let func = FuncId(i as u32);
        assert_eq!(sequential.summary(func), parallel.summary(func));
        assert_eq!(*sequential.results(func), *parallel.results(func));
    }
}

#[test]
fn batch_queries_share_one_engine() {
    let src = "
        fn read_password() -> i32 { return 1234; }
        fn insecure_print(x: i32) { }
        fn audit(input: i32) -> bool {
            let password = read_password();
            if input == password { insecure_print(1); return true; }
            return false;
        }
        fn compute(x: i32, y: i32) -> i32 {
            let a = x + 1;
            let b = y + 2;
            return a;
        }
    ";
    let program = compile(src);
    let mut engine = AnalysisEngine::new(program.clone(), EngineConfig::default());
    engine.analyze_all();

    // Slicing query.
    let compute = program.func_id("compute").unwrap();
    let slice = engine.backward_slice(compute, "a").unwrap();
    assert!(!slice.lines.is_empty());
    let ret = engine.backward_slice_of_return(compute);
    assert_eq!(ret.criterion, "<return>");

    // IFC query on the same engine instance.
    let policy = Policy::from_conventions(&program);
    let diagnostics = engine.snapshot().check_policy(policy).unwrap();
    assert_eq!(diagnostics.len(), 1);
    assert_eq!(diagnostics[0].in_function, "audit");

    // Raw location-level slice.
    let body = program.body(compute);
    let returns = body.return_locations();
    let locs = engine.backward_slice_at(
        compute,
        &flowistry_lang::mir::Place::return_place(),
        returns[0],
    );
    assert!(!locs.is_empty());
}

#[test]
fn snapshots_are_sendable_and_serve_from_any_thread() {
    // The owned API's raison d'être: one snapshot, queried concurrently
    // from many threads, each answer identical to direct analysis.
    let src = layered_program(3, 3, 0);
    let program = compile(&src);
    let params = whole_program();
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    engine.analyze_all();
    let snapshot = engine.snapshot();
    drop(engine); // the snapshot owns everything it needs

    std::thread::scope(|s| {
        for t in 0..4 {
            let snapshot = snapshot.clone();
            let program = program.clone();
            let params = params.clone();
            s.spawn(move || {
                for i in 0..program.bodies.len() {
                    let func = FuncId(((i + t) % program.bodies.len()) as u32);
                    let direct = analyze(&program, func, &params);
                    assert_eq!(*snapshot.results(func), direct);
                }
            });
        }
    });
}

#[test]
fn memoized_results_carry_across_runs_and_epochs_when_keys_match() {
    // Freshly analyzed functions seed the snapshot memo, a warm re-run
    // inherits every entry (same keys, shared Arcs — no recompute, no
    // deep drop), and after an edit only the dirty cone's entries are
    // replaced: unchanged functions keep the *same* allocation across
    // epochs while edited ones get fresh results.
    let v1 = layered_program(2, 2, 0);
    let v2 = v1.replace(
        "fn m0_l0(p: &mut i32, v: i32) -> i32 {",
        "fn m0_l0(p: &mut i32, v: i32) -> i32 { let zedit = 3; *p = *p + zedit;",
    );
    let p1 = compile(&v1);
    let p2 = compile(&v2);
    let mut engine = AnalysisEngine::new(
        p1.clone(),
        EngineConfig::default().with_params(whole_program()),
    );
    engine.analyze_all();
    let first = engine.snapshot();
    assert_eq!(first.memoized_results(), 4, "cold run seeds every function");
    let untouched = p1.func_id("m1_l1").unwrap();
    let dirty = p1.func_id("m0_l0").unwrap();
    let untouched_results = first.results(untouched);

    // Warm re-run: the new snapshot inherits the whole memo by Arc.
    engine.analyze_all();
    let warm = engine.snapshot();
    assert_eq!(warm.memoized_results(), 4, "warm run inherits the memo");
    assert!(
        Arc::ptr_eq(&warm.results(untouched), &untouched_results),
        "inherited entries must share the allocation, not recompute"
    );

    // Edit module 0's leaf: module 1 carries over, module 0 re-seeds.
    engine.update_program(p2.clone());
    engine.analyze_all();
    let edited = engine.snapshot();
    assert_eq!(edited.epoch(), 1);
    assert_eq!(edited.memoized_results(), 4);
    assert!(
        Arc::ptr_eq(&edited.results(untouched), &untouched_results),
        "unchanged keys keep their memoized results across epochs"
    );
    assert_eq!(
        *edited.results(dirty),
        analyze(&p2, dirty, &whole_program()),
        "dirty-cone entries must be the new epoch's results"
    );
    assert_ne!(
        *edited.results(dirty),
        *first.results(dirty),
        "the edit must actually change the dirty function's results"
    );
}

#[test]
fn results_memo_eviction_keeps_answers_bit_identical() {
    // The bounded memo: with a capacity far below the function count, every
    // query still answers exactly what direct analysis would — eviction
    // costs recomputation, never precision — and the memo never exceeds
    // its cap.
    let src = layered_program(4, 3, 0); // 12 functions
    let program = compile(&src);
    let params = whole_program();
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(params.clone())
            .with_results_capacity(2),
    );
    engine.analyze_all();
    let snapshot = engine.snapshot();

    // Two full passes: the second pass re-queries functions that were
    // evicted by the first.
    for _pass in 0..2 {
        for i in 0..program.bodies.len() {
            let func = FuncId(i as u32);
            let direct = analyze(&program, func, &params);
            assert_eq!(
                *snapshot.results(func),
                direct,
                "evicted-and-recomputed results diverged for {}",
                program.body(func).name
            );
            assert!(
                snapshot.memoized_results() <= 2,
                "memo exceeded its capacity: {}",
                snapshot.memoized_results()
            );
        }
    }

    // A hot entry is served from the memo (same Arc), not recomputed.
    let hot = program.func_id("m0_l2").unwrap();
    let first = snapshot.results(hot);
    let second = snapshot.results(hot);
    assert!(Arc::ptr_eq(&first, &second), "hot entry must be shared");
}

#[test]
fn availability_is_remapped_by_name_across_updates() {
    // v2 inserts a new function *above* the others, shifting every FuncId.
    let v1 = "fn helper(p: &mut i32, v: i32) { *p = v; }
              fn top(v: i32) -> i32 { let mut x = 0; helper(&mut x, v); return x; }";
    let v2 = "fn newcomer(q: i32) -> i32 { return q * 3; }
              fn helper(p: &mut i32, v: i32) { *p = v; }
              fn top(v: i32) -> i32 { let mut x = 0; helper(&mut x, v); return x; }";
    let p1 = compile(v1);
    let p2 = compile(v2);

    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some([p1.func_id("helper").unwrap(), p1.func_id("top").unwrap()].into()),
        ..AnalysisParams::default()
    };
    let mut engine = AnalysisEngine::new(p1, EngineConfig::default().with_params(params));
    assert_eq!(engine.analyze_all().analyzed, 2);

    engine.update_program(p2.clone());
    // The restriction must now denote {helper, top} under the *new* ids —
    // i.e. not include `newcomer`, and both old functions stay warm.
    let remapped = engine.params().available_bodies.clone().unwrap();
    assert!(remapped.contains(&p2.func_id("helper").unwrap()));
    assert!(remapped.contains(&p2.func_id("top").unwrap()));
    assert!(!remapped.contains(&p2.func_id("newcomer").unwrap()));
    let warm = engine.analyze_all();
    assert_eq!(warm.analyzed, 0, "unchanged bodies must stay cached");
    assert_eq!(warm.cache_hits, 2);

    let top = p2.func_id("top").unwrap();
    assert_eq!(*engine.results(top), analyze(&p2, top, engine.params()));
}

#[test]
fn stale_cache_entries_are_evicted_after_retention_runs() {
    let v1 = layered_program(1, 2, 0);
    let v2 = v1.replace(
        "fn m0_l0(p: &mut i32, v: i32) -> i32 {",
        "fn m0_l0(p: &mut i32, v: i32) -> i32 { let zedit = 5;",
    );
    let p1 = compile(&v1);
    let p2 = compile(&v2);

    let mut engine = AnalysisEngine::new(
        p1.clone(),
        EngineConfig::default()
            .with_params(whole_program())
            .with_cache_retention(2),
    );
    engine.analyze_all();
    assert_eq!(engine.cache().len(), 2);

    // Move to v2 and stay there: v1's entries go stale.
    engine.update_program(p2);
    engine.analyze_all();
    assert_eq!(engine.cache().len(), 4, "both versions warm at first");
    for _ in 0..3 {
        let again = engine.analyze_all();
        assert_eq!(again.analyzed, 0);
    }
    assert_eq!(
        engine.cache().len(),
        2,
        "v1's entries idle for more than 2 runs must be evicted"
    );

    // Flipping back to v1 is now cold again — but still correct.
    engine.update_program(p1);
    let back = engine.analyze_all();
    assert_eq!(back.analyzed, 2);
}

#[test]
fn availability_fingerprint_is_stable_under_id_shifts() {
    // Regression test for the params fingerprint: it hashes the *names* of
    // the available bodies, and must do so in sorted order — iterating the
    // FuncId set ties the hash to positional ids, so an edit that merely
    // shifts or reorders ids would cold-invalidate every cache key even
    // though the available set denotes the same functions.
    let v1 = "fn alpha(p: &mut i32, v: i32) { *p = v; }
              fn zeta(v: i32) -> i32 { let mut x = 0; alpha(&mut x, v); return x; }";
    // v2 inserts an unrelated function above (shifting every id); v3 also
    // moves `zeta` above `alpha` (reordering the ids of the available set).
    let v2 = "fn unrelated(q: i32) -> i32 { return q * 3; }
              fn alpha(p: &mut i32, v: i32) { *p = v; }
              fn zeta(v: i32) -> i32 { let mut x = 0; alpha(&mut x, v); return x; }";
    let v3 = "fn zeta(v: i32) -> i32 { let mut x = 0; alpha(&mut x, v); return x; }
              fn unrelated(q: i32) -> i32 { return q * 3; }
              fn alpha(p: &mut i32, v: i32) { *p = v; }";

    // The engine shares the program through an Arc — no leak, no lifetime
    // gymnastics needed to keep engines for several programs alive at once.
    let engines: Vec<(Arc<CompiledProgram>, AnalysisEngine)> = [v1, v2, v3]
        .into_iter()
        .map(|src| {
            let program = compile(src);
            let params = AnalysisParams {
                condition: Condition::WHOLE_PROGRAM,
                available_bodies: Some(
                    [
                        program.func_id("alpha").unwrap(),
                        program.func_id("zeta").unwrap(),
                    ]
                    .into(),
                ),
                ..AnalysisParams::default()
            };
            (
                program.clone(),
                AnalysisEngine::new(program, EngineConfig::default().with_params(params)),
            )
        })
        .collect();

    let (base_prog, base_engine) = &engines[0];
    for (variant_prog, variant_engine) in &engines[1..] {
        for name in ["alpha", "zeta"] {
            assert_eq!(
                base_engine.key(base_prog.func_id(name).unwrap()),
                variant_engine.key(variant_prog.func_id(name).unwrap()),
                "key of untouched `{name}` changed across an id shift"
            );
        }
    }
}

/// What [`AnalysisSnapshot::check_policy`] must serve: the direct
/// checker's diagnostics over every function, flattened.
///
/// [`AnalysisSnapshot::check_policy`]: flowistry_engine::AnalysisSnapshot::check_policy
fn direct_policy_check(
    program: &CompiledProgram,
    policy: Policy,
    params: AnalysisParams,
) -> Vec<IfcDiagnostic> {
    PolicyChecker::new(program, policy)
        .unwrap()
        .with_params(params)
        .check_program()
        .into_iter()
        .flat_map(|r| r.diagnostics)
        .collect()
}

#[test]
fn check_policy_matches_the_checker_under_restricted_availability() {
    // `check_policy` iterates *all* bodies — including functions excluded
    // by `available_bodies` (their analyses see callees as opaque
    // signatures, exactly like `PolicyChecker::check_program` under the
    // same params). This pins the two against each other.
    let src = "
        fn read_password() -> i32 { return 1234; }
        fn insecure_print(x: i32) { }
        fn audit(input: i32) -> bool {
            let password = read_password();
            if input == password { insecure_print(1); return true; }
            return false;
        }
        fn relay(input: i32) -> bool {
            let ok = audit(input);
            return ok;
        }
    ";
    let program = compile(src);
    let policy = Policy::from_conventions(&program);
    // Restrict availability to `audit` and `relay`: the callee bodies are
    // opaque, but both functions are still checked.
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some(
            [
                program.func_id("audit").unwrap(),
                program.func_id("relay").unwrap(),
            ]
            .into(),
        ),
        ..AnalysisParams::default()
    };
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    engine.analyze_all();
    let engine_diagnostics = engine.snapshot().check_policy(policy.clone()).unwrap();
    assert_eq!(
        engine_diagnostics,
        direct_policy_check(&program, policy, params)
    );
    // The conventions still catch the password flow into the sink.
    assert!(engine_diagnostics.iter().any(|d| d.in_function == "audit"));
}

#[test]
fn check_policy_under_full_availability_matches_too() {
    let profile = &paper_profiles()[0];
    let krate = generate_crate(profile, DEFAULT_SEED);
    let program = Arc::new(krate.program.clone());
    let helper = program.body_by_name("helper_0").unwrap();
    let param = helper
        .args()
        .find_map(|a| helper.local_decl(a).name.clone())
        .unwrap();
    let policy = Policy::from_conventions(&program)
        .with_param_label("helper_0", param, "Secret")
        .with_sink("helper_1", "Public");
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        available_bodies: Some(krate.available_bodies()),
        ..AnalysisParams::default()
    };
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    engine.analyze_all();
    assert_eq!(
        engine.snapshot().check_policy(policy.clone()).unwrap(),
        direct_policy_check(&program, policy, params)
    );
}

#[test]
fn engine_slicers_share_the_memoized_results() {
    // `slicer()` must hand the memo table's `Arc` to the slicer instead of
    // deep-cloning the per-location results on every query.
    let src = layered_program(1, 2, 0);
    let program = compile(&src);
    let mut engine = AnalysisEngine::new(program.clone(), EngineConfig::default());
    engine.analyze_all();
    let func = program.func_id("m0_l1").unwrap();

    let handle = engine.results(func); // memo + this handle = 2
    assert_eq!(Arc::strong_count(&handle), 2);
    let slicer_a = engine.slicer(func);
    let slicer_b = engine.slicer(func);
    assert_eq!(
        Arc::strong_count(&handle),
        4,
        "each slicer must share the memoized Arc, not clone the results"
    );
    assert_eq!(
        slicer_a.backward_slice_of_return(),
        slicer_b.backward_slice_of_return()
    );
}

#[test]
fn deep_chains_are_at_least_as_precise_as_depth_limited_recursion() {
    // Direct analyze() guards its naive recursion with max_recursion_depth
    // and falls back to the conservative modular rule past it. The engine
    // never recurses, so the guard never fires: on chains deeper than the
    // limit the engine's dependency sets are a (possibly strict) subset of
    // direct analysis — more precise, still sound. This documents the one
    // intentional deviation from exact equality.
    let src = layered_program(1, 6, 0);
    let program = compile(&src);
    let params = AnalysisParams {
        condition: Condition::WHOLE_PROGRAM,
        max_recursion_depth: 3,
        ..AnalysisParams::default()
    };
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default().with_params(params.clone()),
    );
    engine.analyze_all();
    let top = program.func_id("m0_l5").unwrap();
    let direct = analyze(&program, top, &params);
    let engine_results = engine.results(top);
    let body = program.body(top);
    for (local, direct_deps) in direct.user_variable_deps(body) {
        let engine_deps = engine_results.exit_deps_of_local(local);
        assert!(
            engine_deps.is_subset(&direct_deps),
            "engine must never be less precise: {local} {engine_deps:?} vs {direct_deps:?}"
        );
    }
}
