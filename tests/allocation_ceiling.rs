//! Allocation ceiling of a cold corpus round.
//!
//! Compiles every crate of the default-seed corpus and runs a cold
//! one-worker `analyze_all` over each, as the benchmark's `cold-corpus`
//! rounds do, and counts the allocator calls (`alloc` and `realloc`) the
//! round makes. The count repeats exactly from run to run, so it guards the
//! front end and the plan builder against copies that a timing gate would
//! miss in the noise. The file holds a single test: the counter is
//! process-wide.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::{generate_corpus, DEFAULT_SEED};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts `alloc` and `realloc` calls.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic that guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls of one round (debug build) while the parser still
/// cloned every token, the type checker cloned each function's AST, the
/// MIR accessors returned fresh `Vec`s and the plan builder resolved the
/// aliases of every place: 610,665 in compile and 531,411 in the engine.
const BEFORE: u64 = 1_142_076;

/// The round's count without those copies, 657,310 (compile 253,595,
/// engine 403,715), plus 5%.
const CEILING: u64 = 690_175;

const _: () = assert!(
    CEILING < BEFORE,
    "the ceiling must reject the copying front end"
);

#[test]
fn a_cold_corpus_round_stays_under_its_allocation_ceiling() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let (mut compile, mut engine_calls) = (0, 0);
    for krate in &corpus {
        let start = CALLS.load(Ordering::Relaxed);
        let program = flowistry_lang::compile(&krate.source).expect("corpus crate compiles");
        let compiled = CALLS.load(Ordering::Relaxed);
        compile += compiled - start;
        let params = AnalysisParams {
            condition: Condition::WHOLE_PROGRAM,
            available_bodies: Some(krate.available_bodies()),
            ..AnalysisParams::default()
        };
        let mut engine = AnalysisEngine::new(
            program,
            EngineConfig::default().with_params(params).with_threads(1),
        );
        assert!(engine.analyze_all().analyzed > 0);
        drop(engine);
        engine_calls += CALLS.load(Ordering::Relaxed) - compiled;
    }
    let calls = compile + engine_calls;
    println!(
        "allocation calls per round: {calls} (compile {compile}, engine {engine_calls}; \
         ceiling {CEILING}, before {BEFORE})"
    );
    assert!(
        calls <= CEILING,
        "a cold corpus round made {calls} allocation calls, over the ceiling of {CEILING}"
    );
}
