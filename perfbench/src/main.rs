//! Command-line entry point; see the library docs for the contract.

use perfbench::args;
use perfbench::trace::chrome_trace_json;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Pin the knobs the crates read from the environment, before any
    // thread starts: a CI-wide worker count, a stray fault spec or a
    // verbose log level must not change the numbers.
    std::env::set_var("FLOWISTRY_ENGINE_THREADS", "1");
    std::env::remove_var("FLOWISTRY_FAILPOINTS");
    std::env::remove_var("FLOWISTRY_LOG");

    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread starts, so that every thread inherits the pin.
    let cpu = perfbench::sys::pin_to_current_cpu();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} \
         pinned_cpu={} engine_threads={pool} service_workers={pool} replicas=2 \
         client_connections=2",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.map_or_else(|| "none".to_string(), |c| c.to_string()),
        pool = perfbench::layers::POOL_THREADS,
    );
    let (outcome, traces) = match perfbench::execute(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        for (name, time) in traces.main.self_times() {
            eprintln!(
                "perfbench: span {name:<24} calls {:>7}  self {:>10.3} ms  mean {:>9.4} ms",
                time.calls,
                time.seconds * 1e3,
                time.mean_ms()
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let json = chrome_trace_json(&[("client", &traces.main), ("editor", &traces.editor)]);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match outcome.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
