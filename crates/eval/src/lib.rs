//! # flowistry-eval: the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on the
//! synthetic corpus:
//!
//! * **Table 1** — dataset summary ([`measure`], [`report::render_table1`]);
//! * **Figure 2** — Whole-program vs Modular dependency-set sizes
//!   ([`figures::diff_stats`]);
//! * **Figure 3** — Mut-blind and Ref-blind ablations vs Modular;
//! * **Figure 4** — per-crate breakdown and size correlation
//!   ([`figures::per_crate_stats`]);
//! * **§5.4.2** — crate-boundary sensitivity ([`figures::boundary_stats`]);
//! * **§5.1 performance** — per-function timings and the whole-program
//!   slowdown stress test ([`perf`]);
//! * **Table 2** — generation configuration ([`report::render_table2`]).
//!
//! The `evaluate` binary drives all of this; the README's "Building and
//! testing" section lists its commands.

#![warn(missing_docs)]

pub mod chaos;
pub mod figures;
pub mod ifc_diff;
pub mod json;
pub mod lints;
pub mod measure;
pub mod perf;
pub mod report;

pub use chaos::{chaos_fault_spec, measure_chaos, render_chaos, ChaosReport};
pub use figures::{boundary_stats, diff_stats, per_crate_stats, BoundaryStats, DiffStats};
pub use ifc_diff::{measure_ifc_differential, render_ifc_differential, IfcDifferentialReport};
pub use json::{Json, ToJson};
pub use lints::{measure_lints, render_lints, LintEvalReport};
pub use measure::{
    measure_corpus, measure_corpus_limited, measure_crate, CrateMeasurements, VariableRecord,
};
pub use perf::{measure_slowdown, stress_source, SlowdownReport};
