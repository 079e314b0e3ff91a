//! Std-only observability for the flowistry stack: a lock-cheap metrics
//! [`Registry`] (striped [`Counter`]s, [`Gauge`]s, log2-bucket
//! [`Histogram`]s with quantile extraction, Prometheus-style text
//! rendering) plus a leveled event/span layer ([`error!`]/[`warn!`]/
//! [`info!`]/[`debug!`] filtered by `FLOWISTRY_LOG`, RAII [`Span`] timers,
//! scoped [`TraceIdGuard`] trace ids, pluggable sink).
//!
//! Design rules, enforced by construction:
//!
//! * **No dependencies.** Everything is `std`; the crate sits below every
//!   other crate in the workspace.
//! * **Hot paths are wait-free.** Counter increments and histogram
//!   observations are relaxed atomics; a disabled log call is one atomic
//!   load with no formatting.
//! * **Metrics and events filter independently.** `FLOWISTRY_LOG=off`
//!   silences every event but histograms keep observing — scraping
//!   `metrics` works on a silent server.
//!
//! Binaries use the process-wide [`Registry::global`]; tests that assert
//! exact tallies construct a private [`Registry`] and thread it through
//! the engine/service configuration so parallel tests stay isolated.

mod log;
mod metrics;

pub use log::{
    current_trace_id, emit, enabled, max_level, parse_level, set_max_level, set_sink,
    with_trace_id, Level, Record, Span, TraceIdGuard, DEFAULT_LEVEL,
};
pub use metrics::{
    labeled, sample, Counter, Gauge, Histogram, Registry, COUNTER_STRIPES, HISTOGRAM_BUCKETS,
};
