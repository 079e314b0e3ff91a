//! The metrics side of the observability layer: a [`Registry`] of named
//! [`Counter`]s, [`Gauge`]s, and [`Histogram`]s, rendered on demand as a
//! Prometheus-style text snapshot.
//!
//! Everything is built for *hot-path cheapness*:
//!
//! * counters are **striped**: each incrementing thread is assigned one of
//!   [`COUNTER_STRIPES`] cache-line-padded atomics round-robin, so parallel
//!   workers never contend on one cache line; reads sum the stripes;
//! * gauges are a single atomic (set/add are rare — queue depth, not per
//!   statement);
//! * histograms are 64 fixed log2 nanosecond buckets, so
//!   [`Histogram::observe`] is two relaxed `fetch_add`s plus a
//!   `leading_zeros` — no locks, no allocation, and quantiles
//!   ([`Histogram::quantile`]) are extracted by a bucket walk at read time.
//!
//! Metric names may carry a Prometheus label block (for example
//! `flow_service_request_seconds{kind="summary"}`); the renderer splices
//! histogram suffixes (`_bucket`, `_sum`, `_count`) before the `{` and
//! emits `# HELP`/`# TYPE` headers once per base name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Stripes per [`Counter`]. Enough that 8–16 worker threads land on
/// distinct stripes with high probability; small enough that summing on
/// read stays trivial.
pub const COUNTER_STRIPES: usize = 16;

/// Buckets per [`Histogram`]: bucket `i` counts observations with
/// `floor(log2(nanos)) == i`, so the covered range is 1 ns to ~2⁶⁴ ns.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// One cache line of counter: padding keeps two stripes of one counter
/// (or stripes of two hot counters allocated together) off a shared line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// Round-robin source of per-thread stripe indices.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread increments. Assigned on first use so thread
    /// pools spread across stripes regardless of creation order.
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
}

/// A monotonically increasing counter, striped across
/// [`COUNTER_STRIPES`] atomics to keep concurrent increments off one
/// cache line.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [PaddedU64; COUNTER_STRIPES],
}

impl Counter {
    /// A fresh zero counter (outside any registry — useful in tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        MY_STRIPE.with(|&stripe| {
            self.stripes[stripe].0.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// The current value: the sum of every stripe.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A gauge: a value that goes up and down (queue depth, live connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed log2-bucket latency histogram over nanoseconds.
///
/// Bucket `i` counts observations whose duration in nanoseconds has
/// `floor(log2(nanos)) == i` (zero-duration observations land in bucket
/// 0), so the bucket boundaries are powers of two from 2 ns up — ample
/// resolution for the microsecond-to-second latencies this codebase
/// measures, at the cost of two relaxed atomic adds per observation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Total observed nanoseconds.
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `nanos`.
#[inline]
fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        (63 - nanos.leading_zeros()) as usize
    }
}

/// Exclusive upper bound of bucket `i`, in nanoseconds (saturating at the
/// top bucket).
fn bucket_upper_nanos(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    #[inline]
    pub fn observe_nanos(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed durations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in seconds, resolved to the upper
    /// bound of the log2 bucket the quantile falls in (i.e. within 2× of
    /// the true value). Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(bucket_upper_nanos(i) as f64 / 1e9);
            }
        }
        Some(bucket_upper_nanos(HISTOGRAM_BUCKETS - 1) as f64 / 1e9)
    }

    /// Convenience: (p50, p90, p99) in seconds, `None` when empty.
    pub fn percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
        ))
    }
}

/// One registered metric: its handle plus the help text it was registered
/// with.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>, &'static str),
    Gauge(Arc<Gauge>, &'static str),
    Histogram(Arc<Histogram>, &'static str),
}

/// A named collection of metrics, rendered on demand as a Prometheus-style
/// text snapshot.
///
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create and takes
/// a write lock; it happens once per metric at startup. The returned
/// `Arc` handles are what hot paths hold — recording through them never
/// touches the registry again.
///
/// Most code uses the process-wide [`Registry::global`]; tests that need
/// exact, isolated tallies construct their own and thread it through the
/// engine/service configuration.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry (what binaries use).
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Registry::new()))
    }

    /// The counter registered under `name` (with an optional
    /// `{label="value"}` block), creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()), help)) {
            Metric::Counter(c, _) => c,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    /// The gauge registered under `name`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()), help)) {
            Metric::Gauge(g, _) => g,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    /// The histogram registered under `name`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()), help)) {
            Metric::Histogram(h, _) => h,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(metric) = self.metrics.read().expect("metrics lock").get(name) {
            return metric.clone();
        }
        self.metrics
            .write()
            .expect("metrics lock")
            .entry(name.to_string())
            .or_insert_with(make)
            .clone()
    }

    /// Renders every metric as Prometheus text exposition: `# HELP` and
    /// `# TYPE` once per base name (labeled series of one family are
    /// adjacent in the sorted map), histograms as cumulative `_bucket`
    /// lines over non-empty buckets plus `+Inf`, `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.read().expect("metrics lock");
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in metrics.iter() {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let (kind, help) = match metric {
                    Metric::Counter(_, help) => ("counter", help),
                    Metric::Gauge(_, help) => ("gauge", help),
                    Metric::Histogram(_, help) => ("histogram", help),
                };
                let _ = writeln!(out, "# HELP {base} {help}");
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c, _) => {
                    let _ = writeln!(out, "{name} {}", c.value());
                }
                Metric::Gauge(g, _) => {
                    let _ = writeln!(out, "{name} {}", g.value());
                }
                Metric::Histogram(h, _) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        let n = bucket.load(Ordering::Relaxed);
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let le = bucket_upper_nanos(i) as f64 / 1e9;
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            with_extra_label(base, labels, &format!("le=\"{le}\""), "_bucket")
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        with_extra_label(base, labels, "le=\"+Inf\"", "_bucket"),
                        h.count()
                    );
                    let _ = writeln!(out, "{base}_sum{labels} {}", h.sum_seconds());
                    let _ = writeln!(out, "{base}_count{labels} {}", h.count());
                }
            }
        }
        out
    }
}

/// The value of the series named exactly `series` (its base name plus its
/// `{label="value"}` block, if it has one) in Prometheus text exposition
/// such as [`Registry::render_prometheus`] writes. `None` when no sample
/// line carries that name, or its value does not parse; a longer name that
/// merely begins with `series` does not match, and neither do the `#`
/// comment lines.
pub fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))?
        .parse()
        .ok()
}

/// Builds a labeled series name — `base{k1="v1",k2="v2"}` — with label
/// values escaped per the Prometheus exposition rules (backslash, double
/// quote, and newline become `\\`, `\"`, and `\n`). Callers registering
/// per-entity series (per request kind, per backend replica, …) should
/// build names through this instead of hand-formatting the label block, so
/// hostile or surprising values cannot corrupt the scrape.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

fn kind_of(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(..) => "a counter",
        Metric::Gauge(..) => "a gauge",
        Metric::Histogram(..) => "a histogram",
    }
}

/// Splits `name{labels}` into (`name`, `{labels}`); the label part is empty
/// when there is none.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// `base` + `suffix` + the existing label block with `extra` spliced in.
fn with_extra_label(base: &str, labels: &str, extra: &str, suffix: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix}{{{extra}}}")
    } else {
        // `{kind="x"}` -> `{kind="x",le="..."}`
        let inner = &labels[1..labels.len() - 1];
        format!("{base}{suffix}{{{inner},{extra}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_builds_escaped_series_names() {
        assert_eq!(
            labeled("flow_router_requests_total", &[]),
            "flow_router_requests_total"
        );
        assert_eq!(
            labeled("flow_router_backend_up", &[("backend", "2")]),
            "flow_router_backend_up{backend=\"2\"}"
        );
        assert_eq!(
            labeled("x_total", &[("kind", "a\"b\\c\nd"), ("backend", "0")]),
            "x_total{kind=\"a\\\"b\\\\c\\nd\",backend=\"0\"}"
        );
        // The escaped form parses back under split_labels and renders.
        let registry = Registry::new();
        registry
            .counter(&labeled("t_total", &[("backend", "1")]), "per-backend")
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains("t_total{backend=\"1\"} 1"), "{text}");
    }

    #[test]
    fn series_lookup_reads_exactly_the_named_series() {
        let registry = Registry::new();
        registry.counter("req_total", "all requests").add(7);
        registry.counter("req_total_errors", "longer name").add(2);
        registry
            .counter(&labeled("req_total", &[("kind", "stats")]), "")
            .add(3);
        registry.gauge("depth", "queue depth").set(-4);
        let text = registry.render_prometheus();
        assert_eq!(sample(&text, "req_total"), Some(7.0));
        assert_eq!(sample(&text, "req_total{kind=\"stats\"}"), Some(3.0));
        assert_eq!(sample(&text, "req_total_errors"), Some(2.0));
        assert_eq!(sample(&text, "depth"), Some(-4.0));
        // A longer name that begins with the one asked for is not it.
        assert_eq!(sample(&text, "req"), None);
        assert_eq!(sample(&text, "req_tot"), None);
        // `# HELP`/`# TYPE` lines never match, even where they name it.
        assert_eq!(
            sample(
                "# HELP req_total 5\n# TYPE req_total counter\n",
                "req_total"
            ),
            None
        );
        assert_eq!(sample(&text, "missing_total"), None);
    }

    #[test]
    fn counters_sum_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("test_total", "a test counter");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8000);
        // Re-registering returns the same handle.
        registry.counter("test_total", "a test counter").add(2);
        assert_eq!(counter.value(), 8002);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.value(), 3);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        // 90 fast observations (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.observe(Duration::from_nanos(1_000));
        }
        for _ in 0..10 {
            h.observe(Duration::from_nanos(1_000_000));
        }
        assert_eq!(h.count(), 100);
        let (p50, p90, p99) = h.percentiles().unwrap();
        // log2 buckets resolve within 2x: p50/p90 in the microsecond
        // bucket, p99 in the millisecond bucket.
        assert!(p50 > 0.0 && p50 < 3e-6, "p50 {p50}");
        assert!(p90 > 0.0 && p90 < 3e-6, "p90 {p90}");
        assert!(p99 > 5e-4 && p99 < 3e-3, "p99 {p99}");
        assert!(h.sum_seconds() > 0.0);
        // Zero durations land in bucket 0 without panicking.
        h.observe(Duration::from_nanos(0));
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper_nanos(0), 2);
        assert_eq!(bucket_upper_nanos(63), u64::MAX);
    }

    #[test]
    fn prometheus_rendering_groups_series_and_splices_labels() {
        let registry = Registry::new();
        registry
            .counter("req_total{kind=\"a\"}", "requests served")
            .add(3);
        registry
            .counter("req_total{kind=\"b\"}", "requests served")
            .add(4);
        registry.gauge("depth", "queue depth").set(2);
        let h = registry.histogram("lat_seconds{kind=\"a\"}", "latency");
        h.observe(Duration::from_micros(10));
        let text = registry.render_prometheus();

        // One HELP/TYPE per family, every labeled series present.
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{kind=\"a\"} 3"));
        assert!(text.contains("req_total{kind=\"b\"} 4"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2"));
        // Histogram suffixes go before the label block; +Inf closes it.
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{kind=\"a\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_count{kind=\"a\"} 1"));
        assert!(text.contains("lat_seconds_sum{kind=\"a\"} "));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x_total", "a counter");
        registry.gauge("x_total", "not a counter");
    }
}
