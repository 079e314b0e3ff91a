//! A small JSON emitter for the evaluation artifacts.
//!
//! The `evaluate` binary writes every table and figure as JSON under
//! `results/`. The build environment has no crates.io access, so instead of
//! `serde_json` this module provides a tiny value tree ([`Json`]), a
//! [`ToJson`] conversion trait, and a pretty printer. Emission only — the
//! artifacts are consumed by external plotting tools, never read back.

use crate::figures::{BoundaryStats, DiffStats, PerCrateStats};
use crate::measure::{CrateMeasurements, VariableRecord};
use crate::perf::SlowdownReport;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.is_finite() && n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no Infinity/NaN; emit null like serde_json's
                    // lossy formatters do.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into the [`Json`] tree.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ToJson for VariableRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("krate", self.krate.to_json()),
            ("function", self.function.to_json()),
            ("variable", self.variable.to_json()),
            ("condition", self.condition.to_json()),
            ("size", self.size.to_json()),
            ("hit_boundary", self.hit_boundary.to_json()),
        ])
    }
}

impl ToJson for CrateMeasurements {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", self.name.to_json()),
            ("purpose", self.purpose.to_json()),
            ("loc", self.loc.to_json()),
            ("num_funcs", self.num_funcs.to_json()),
            ("num_vars", self.num_vars.to_json()),
            ("avg_instrs_per_func", self.avg_instrs_per_func.to_json()),
            (
                "median_analysis_micros",
                self.median_analysis_micros.to_json(),
            ),
            ("records", self.records.to_json()),
        ])
    }
}

impl ToJson for DiffStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("coarse", self.coarse.to_json()),
            ("baseline", self.baseline.to_json()),
            ("total", self.total.to_json()),
            ("zero", self.zero.to_json()),
            ("nonzero", self.nonzero.to_json()),
            ("pct_nonzero", self.pct_nonzero.to_json()),
            ("median_nonzero_pct", self.median_nonzero_pct.to_json()),
            ("p90_nonzero_pct", self.p90_nonzero_pct.to_json()),
            ("histogram", self.histogram.to_json()),
        ])
    }
}

impl ToJson for PerCrateStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("per_crate", self.per_crate.to_json()),
            (
                "r_squared_vs_num_vars",
                self.r_squared_vs_num_vars.to_json(),
            ),
        ])
    }
}

impl ToJson for BoundaryStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("pct_hit_boundary", self.pct_hit_boundary.to_json()),
            (
                "pct_nonzero_given_boundary",
                self.pct_nonzero_given_boundary.to_json(),
            ),
            (
                "pct_nonzero_given_no_boundary",
                self.pct_nonzero_given_no_boundary.to_json(),
            ),
            ("total", self.total.to_json()),
        ])
    }
}

impl ToJson for SlowdownReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("depth", self.depth.to_json()),
            ("fanout", self.fanout.to_json()),
            ("num_functions", self.num_functions.to_json()),
            ("modular_seconds", self.modular_seconds.to_json()),
            (
                "whole_program_seconds",
                self.whole_program_seconds.to_json(),
            ),
            ("memoized_seconds", self.memoized_seconds.to_json()),
            ("slowdown", self.slowdown.to_json()),
        ])
    }
}

impl ToJson for crate::chaos::ChaosReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("krate", self.krate.to_json()),
            ("num_functions", self.num_functions.to_json()),
            ("backends", self.backends.to_json()),
            ("workers", self.workers.to_json()),
            ("clients", self.clients.to_json()),
            ("requests_per_client", self.requests_per_client.to_json()),
            ("fault_spec", self.fault_spec.to_json()),
            ("fault_seed", self.fault_seed.to_json()),
            ("requests_issued", self.requests_issued.to_json()),
            ("ok_responses", self.ok_responses.to_json()),
            ("structured_errors", self.structured_errors.to_json()),
            ("deadline_errors", self.deadline_errors.to_json()),
            ("reissues", self.reissues.to_json()),
            ("faults_injected", self.faults_injected.to_json()),
            (
                "fault_modes_exercised",
                self.fault_modes_exercised.to_json(),
            ),
            ("fault_log", self.fault_log.to_json()),
            ("invariant_violations", self.invariant_violations.to_json()),
            ("respawns", self.respawns.to_json()),
            ("retries", self.retries.to_json()),
            (
                "post_chaos_bit_identical",
                self.post_chaos_bit_identical.to_json(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(true.to_json().pretty(), "true");
        assert_eq!(3usize.to_json().pretty(), "3");
        assert_eq!(2.5f64.to_json().pretty(), "2.5");
        assert_eq!(3.0f64.to_json().pretty(), "3");
        assert_eq!(f64::NAN.to_json().pretty(), "null");
        assert_eq!("a\"b\n".to_json().pretty(), r#""a\"b\n""#);
    }

    #[test]
    fn containers_render_with_indentation() {
        let v = vec![("x".to_string(), 1usize), ("y".to_string(), 2usize)];
        let text = v.to_json().pretty();
        assert!(text.starts_with("[\n"));
        assert!(text.contains("\"x\""));
        let empty: Vec<usize> = Vec::new();
        assert_eq!(empty.to_json().pretty(), "[]");
        assert_eq!(Json::Obj(Vec::new()).pretty(), "{}");
        assert_eq!(Json::Null.pretty(), "null");
    }

    #[test]
    fn report_types_serialize_their_fields() {
        let record = VariableRecord {
            krate: "k".into(),
            function: "f".into(),
            variable: "v".into(),
            condition: "modular".into(),
            size: 4,
            hit_boundary: false,
        };
        let text = record.to_json().pretty();
        for key in [
            "krate",
            "function",
            "variable",
            "condition",
            "size",
            "hit_boundary",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
