//! Demonstrates the incremental analysis engine end to end: batch analysis,
//! warm-start from a disk cache, incremental re-analysis after an edit,
//! snapshot-served slicing/IFC queries, and the `FlowService` front that
//! answers queries concurrently while re-analysis happens in the
//! background.
//!
//! ```sh
//! cargo run --release --example engine_demo
//! ```
//!
//! Run it twice: the second run starts warm from `results/engine_demo.cache`
//! and re-analyzes nothing.

use flowistry::prelude::*;
use std::sync::Arc;

const V1: &str = "
fn read_secret() -> i32 { return 41; }
fn insecure_log(x: i32) { }
fn store(p: &mut i32, v: i32) { *p = v; }
fn audit(input: i32) -> i32 {
    let secret_value = read_secret();
    let mut cell = 0;
    store(&mut cell, secret_value);
    if input == cell { insecure_log(1); }
    return cell;
}
fn unrelated(a: i32, b: i32) -> i32 {
    let x = a + 1;
    let y = b * 2;
    return x + y;
}
";

// `store` gains a statement; everything else is untouched.
const V2_EDIT: (&str, &str) = (
    "fn store(p: &mut i32, v: i32) { *p = v; }",
    "fn store(p: &mut i32, v: i32) { let doubled = v * 2; *p = doubled; }",
);

fn main() {
    let _ = std::fs::create_dir_all("results");
    let cache = "results/engine_demo.cache";
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);

    let program = Arc::new(compile(V1).expect("demo program compiles"));
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(params)
            .with_cache_path(cache),
    );

    let stats = engine.analyze_all();
    println!(
        "run 1: analyzed {} functions, {} cache hits ({} levels)",
        stats.analyzed, stats.cache_hits, stats.levels
    );

    // The snapshot is the owned query surface: no lifetime, cheap clones,
    // safe to hand to any thread.
    let snapshot = engine.snapshot();

    // Query 1: a backward slice served from the snapshot's memoized results.
    let audit = program.func_id("audit").expect("audit exists");
    let slice = snapshot
        .backward_slice(audit, "cell")
        .expect("cell is a variable of audit");
    println!("\nbackward slice of `cell` in audit:");
    for line in slice.render(V1).lines().skip(1) {
        println!("  {line}");
    }

    // Query 2: IFC over the whole program, same snapshot. The naming
    // conventions make `read_secret` a secret source and `insecure_log` a
    // public sink.
    let diagnostics = snapshot
        .check_policy(Policy::from_conventions(&program))
        .expect("the convention policy resolves");
    println!("\nIFC violations:");
    for diagnostic in &diagnostics {
        println!("  {diagnostic}");
    }

    // Put the service front on: queries go through a typed protocol and a
    // worker pool, and updates re-analyze in the background.
    let service = FlowService::new(engine, ServiceConfig::default());
    let reply = service.query(QueryRequest::Summary(
        program.func_id("store").expect("store exists"),
    ));
    println!("\nservice summary of `store` (epoch {}):", reply.epoch);
    if let QueryResponse::Summary(Some(summary)) = &reply.response {
        println!(
            "  {} mutation(s) visible to callers",
            summary.mutations.len()
        );
    }

    // Edit one function and update through the service: the re-analysis is
    // warm from the cache, and the swap is atomic — queries before the swap
    // answer epoch 0, queries after answer epoch 1.
    let edited_src = V1.replace(V2_EDIT.0, V2_EDIT.1);
    assert_ne!(edited_src, V1, "the edit must apply");
    let edited = Arc::new(compile(&edited_src).expect("edited program compiles"));
    let epoch = service.update(edited);
    service.wait_for_epoch(epoch);
    let stats = service.snapshot().stats();
    println!(
        "\nafter editing `store` (epoch {epoch}): re-analyzed {} functions, {} still cached",
        stats.analyzed, stats.cache_hits
    );
}
