//! End-to-end and per-layer benchmark of the flowistry stack.
//!
//! One command runs one workload from a seed, checks every answer against
//! an in-process oracle, and prints its metrics as the last line of
//! standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-corpus|results-heavy|edit-routed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` alternates untraced and traced rounds of the workload and
//! reports the difference as the tracing overhead, adds probes that time
//! the calls the benchmark makes into each layer, and prints the per-layer
//! metrics. Its spans are written to
//! `perfbench/out/trace-<workload>-<seed>.json`.

pub mod args;
pub mod cold;
pub mod layers;
pub mod oracle;
pub mod pace;
pub mod report;
pub mod results;
pub mod routed;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod wire;

use args::{Args, Workload};
use report::Outcome;
use std::time::Instant;
use trace::Tracer;

/// The spans one run recorded, per thread.
pub struct Traces {
    /// Spans of the main (client) thread.
    pub main: Tracer,
    /// Spans of the open-loop editor thread (`edit-routed` only).
    pub editor: Tracer,
}

/// Runs the workload `args` names and returns its tally and spans.
pub fn execute(args: &Args) -> std::io::Result<(Outcome, Traces)> {
    let origin = Instant::now();
    let mut traces = Traces {
        main: Tracer::new(args.trace, origin),
        editor: Tracer::new(args.trace, origin),
    };
    let mut outcome = Outcome::default();
    match args.workload {
        Workload::ColdCorpus => cold::run(args, &mut outcome, &mut traces.main),
        Workload::ResultsHeavy => results::run(args, &mut outcome, &mut traces.main)?,
        Workload::EditRouted => {
            routed::run(args, &mut outcome, &mut traces.main, &mut traces.editor)?
        }
    }
    let usage = sys::usage();
    if args.trace {
        outcome.set("obs.observe_ns", layers::observe_ns());
        outcome.set("process.cpu_s", usage.cpu_s);
    } else {
        outcome.set("peak_rss_mb", usage.peak_rss_mb);
    }
    Ok((outcome, traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_fixes_every_workloads_inputs() {
        let rg3d = oracle::corpus_crate("rg3d").program;
        let cold = |seed| cold::crate_orders(seed, 10).take(3).collect::<Vec<_>>();
        assert_eq!(cold(10), cold(10));
        assert_ne!(cold(10), cold(11));
        let results = |seed| results::driver_orders(seed, 26).take(3).collect::<Vec<_>>();
        assert_eq!(results(10), results(10));
        assert_ne!(results(10), results(11));
        assert_eq!(routed::plan(&rg3d, 10), routed::plan(&rg3d, 10));
        assert_ne!(routed::plan(&rg3d, 10), routed::plan(&rg3d, 11));
    }

    #[test]
    fn update_work_repeats_exactly_for_a_seed() {
        let first = routed::replay_dirty_counts(10, 6);
        assert_eq!(first, routed::replay_dirty_counts(10, 6));
        // Edits re-analyze their cone; reverts are all cache hits.
        assert!(first.iter().step_by(2).all(|&n| n >= 1), "{first:?}");
        assert!(
            first.iter().skip(1).step_by(2).all(|&n| n == 0),
            "{first:?}"
        );
    }
}
