//! What a run prints: the metric names `BENCHMARK.json` declares, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("lang.compile_ms", "ms"),
    ("engine.new_ms", "ms"),
    ("engine.analyze_all_ms", "ms"),
    ("engine.drop_ms", "ms"),
    ("engine.functions_analyzed", "count"),
    ("engine.steals", "count"),
    ("engine.summary_compute_s", "s"),
    ("engine.cache_lookups", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.update_dirty_fns", "count"),
    ("core.fixpoint_iterations", "count"),
    ("core.fixpoint_ms", "ms"),
    ("core.theta_decode_ms", "ms"),
    ("service.query_ms", "ms"),
    ("service.request_s", "s"),
    ("service.queue_wait_share", "ratio"),
    ("service.update_swap_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.results_bytes", "bytes"),
    ("server.wire_overhead_ms", "ms"),
    ("router.routed_ms", "ms"),
    ("router.direct_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.hop_share", "ratio"),
    ("router.retries", "count"),
    ("router.updates", "count"),
    ("slicer.backward_slice_ms", "ms"),
    ("lint.lint_ms", "ms"),
    ("obs.observe_ns", "ns"),
    ("process.cpu_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// The tally of one run: checked operations, failures and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records metric `name`, which must be one `BENCHMARK.json` declares.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are bugs
    /// in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the run's kind, each with its unit. A declared metric the run did
    /// not record is an error.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this file must declare the same metrics with
    /// the same units, in the same order.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end]
                .split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap().to_string();
                    let unit = entry
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .unwrap()
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end", "per_layer"), owned(&END_TO_END));
        assert_eq!(section("per_layer", "run_seconds"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        outcome.check(true);
        for (name, _) in END_TO_END {
            outcome.set(name, 1.25);
        }
        let line = outcome.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"pass_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(
            outcome.result_line(true).is_err(),
            "per-layer values missing"
        );
    }
}
