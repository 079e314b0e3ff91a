//! Epoch bookkeeping under injected update failures.
//!
//! Regression for a silent connection hang: [`FlowService::update_at`]
//! promises an epoch to every update, and `wait_for_epoch` on that promise
//! must return only once the update has been applied (or has failed). The
//! `update.recompile` failpoint strikes *before* the engine consumes an
//! epoch, so failed attempts once skipped the engine counter and left
//! later promises unreachable; and two updates pinned to the same target
//! were once promised the same epoch while landing on two. Every attempt,
//! failed or not, must land exactly on its promise.
//!
//! Failpoint state is process-global: these tests live in their own test
//! binary and serialize on a local mutex.

use flowistry_core::{AnalysisParams, Condition};
use flowistry_engine::{
    AnalysisEngine, EngineConfig, FlowService, QueryRequest, QueryResponse, ServiceConfig,
};
use flowistry_fault::sites;
use flowistry_lang::CompiledProgram;
use std::sync::{Arc, Mutex};

static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAILPOINT_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn compile(tag: u32) -> Arc<CompiledProgram> {
    Arc::new(
        flowistry_lang::compile(&format!(
            "fn store(p: &mut i32, v: i32) {{ *p = v + {tag}; }}
             fn caller(v: i32) -> i32 {{ let mut x = 0; store(&mut x, v); return x; }}"
        ))
        .unwrap(),
    )
}

fn service() -> (Arc<CompiledProgram>, FlowService) {
    let program = compile(0);
    let engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
    );
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(1));
    (program, service)
}

/// The router-retry shape that used to hang: two pinned replay attempts
/// fail, the third succeeds. Each attempt is promised a distinct epoch and
/// lands exactly on it, so waiting on the retry's promise returns only
/// after the retry is served.
#[test]
fn failed_updates_consume_epochs_so_promises_stay_reachable() {
    let _guard = lock();
    let (_, service) = service();

    flowistry_fault::configure(&format!("{}=err:1.0", sites::UPDATE_RECOMPILE)).unwrap();
    let p1 = service.update_at(compile(1), Some(2));
    let p2 = service.update_at(compile(2), Some(2));
    service.wait_for_epoch(p1);
    service.wait_for_epoch(p2);
    flowistry_fault::clear();

    // Both attempts failed: the snapshot still serves the seed program,
    // and the second failure landed exactly on its promise.
    let stats = service.stats();
    assert_eq!(stats.updates_failed, 2, "both injected attempts must fail");
    assert_eq!(
        service.current_epoch(),
        p2,
        "failed attempts left the epoch off the promise {p2}"
    );

    // The clean retry is served on exactly its promise: the wait cannot
    // return before the retry is applied.
    let p3 = service.update_at(compile(3), Some(2));
    service.wait_for_epoch(p3);
    let envelope = service.query(QueryRequest::Stats);
    assert_eq!(
        envelope.epoch, p3,
        "retry served epoch {} instead of its promise {p3}",
        envelope.epoch
    );
    assert!(matches!(envelope.response, QueryResponse::Stats(_)));
}

/// Epochs never move backward: a successful apply whose engine-derived
/// epoch lands below an already-announced failure epoch must not drag
/// `current_epoch` down with it.
#[test]
fn current_epoch_is_monotonic_across_mixed_outcomes() {
    let _guard = lock();
    let (_, service) = service();

    flowistry_fault::configure(&format!("{}=err:1.0", sites::UPDATE_RECOMPILE)).unwrap();
    let failed = service.update_at(compile(1), None);
    service.wait_for_epoch(failed);
    let after_failure = service.current_epoch();
    flowistry_fault::clear();

    let ok = service.update_at(compile(2), None);
    service.wait_for_epoch(ok);
    assert!(
        service.current_epoch() >= after_failure,
        "epoch regressed from {after_failure} to {}",
        service.current_epoch()
    );
    assert!(service.current_epoch() >= ok);
}
