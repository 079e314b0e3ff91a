//! The IFC differential experiment: checks the lattice policy checker
//! against the interpreter.
//!
//! The claim is tested over the labeled corpus
//! ([`flowistry_corpus::labeled`]): **noninterference of "secure"
//! verdicts.** Every driver the checker reports secure is executed on input
//! pairs differing only in its high inputs; the traces of sink calls must
//! agree. Drivers with `#[declassify]` points are excluded (released data
//! legitimately varies).
//!
//! Any mismatch is recorded verbatim; the `evaluate ifc` subcommand exits
//! nonzero if the list is nonempty.

use crate::json::{Json, ToJson};
use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::generate_labeled_corpus;
use flowistry_ifc::{Policy, PolicyChecker};
use flowistry_interp::{CallEvent, Interpreter, Rng, Value};
use std::fmt::Write as _;

/// Results of one differential run.
#[derive(Debug, Clone, PartialEq)]
pub struct IfcDifferentialReport {
    /// Corpus generation seed.
    pub seed: u64,
    /// Number of labeled programs generated.
    pub programs: usize,
    /// Total drivers across the corpus.
    pub drivers: usize,
    /// Drivers the policy checker reported secure (and without
    /// declassification) — the ones the interpreter cross-examines.
    pub secure_drivers: usize,
    /// Drivers with at least one reported violation.
    pub violating_drivers: usize,
    /// Drivers excluded from the oracle because they declassify.
    pub declassifying_drivers: usize,
    /// Interpreter execution pairs compared.
    pub executions_compared: usize,
    /// Observed interference in analysis-secure drivers, and programs whose
    /// policy was rejected so the oracle could not run (must be empty).
    pub interference_mismatches: Vec<String>,
}

impl IfcDifferentialReport {
    /// Whether the differential came back clean.
    pub fn is_clean(&self) -> bool {
        self.interference_mismatches.is_empty()
    }
}

/// The sink-visible behavior of one execution.
fn sink_trace(calls: &[CallEvent], sinks: &[String]) -> Vec<(String, Vec<Value>)> {
    calls
        .iter()
        .filter(|c| sinks.contains(&c.callee))
        .map(|c| (c.callee.clone(), c.args.clone()))
        .collect()
}

/// Runs the differential over `programs` generated labeled programs with
/// `trials` interpreter input pairs per secure driver.
pub fn measure_ifc_differential(
    seed: u64,
    programs: usize,
    trials: usize,
) -> IfcDifferentialReport {
    let corpus = generate_labeled_corpus(seed, programs);
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    let mut rng = Rng::new(seed ^ 0xD1FF);
    let mut report = IfcDifferentialReport {
        seed,
        programs: corpus.len(),
        drivers: 0,
        secure_drivers: 0,
        violating_drivers: 0,
        declassifying_drivers: 0,
        executions_compared: 0,
        interference_mismatches: Vec::new(),
    };

    for p in &corpus {
        let policy = match Policy::from_annotations(&p.program) {
            Ok(policy) => policy,
            Err(e) => {
                report
                    .interference_mismatches
                    .push(format!("{}: annotations rejected: {e}", p.name));
                continue;
            }
        };
        let checker = match PolicyChecker::new(&p.program, policy) {
            Ok(c) => c.with_params(params.clone()),
            Err(e) => {
                report
                    .interference_mismatches
                    .push(format!("{}: policy rejected: {e}", p.name));
                continue;
            }
        };
        let interp = Interpreter::new(&p.program);

        for d in &p.drivers {
            report.drivers += 1;
            let verdict = checker
                .check_function(&d.name)
                .expect("driver exists by construction");
            if !verdict.is_clean() {
                report.violating_drivers += 1;
                continue;
            }
            if d.declassifies {
                report.declassifying_drivers += 1;
                continue;
            }
            report.secure_drivers += 1;
            let func = p.program.func_id(&d.name).expect("driver exists");

            for _ in 0..trials {
                let base: Vec<Value> = (0..d.num_params)
                    .map(|_| Value::Int(rng.small_int()))
                    .collect();
                let mut varied = base.clone();
                for &i in &d.high_inputs {
                    let Value::Int(old) = base[i] else { continue };
                    varied[i] = Value::Int(rng.other_small_int(old));
                }
                let (Ok(a), Ok(b)) = (
                    interp.run_with_env(func, base.clone()),
                    interp.run_with_env(func, varied.clone()),
                ) else {
                    continue;
                };
                report.executions_compared += 1;
                let ta = sink_trace(&a.calls, &p.sink_names);
                let tb = sink_trace(&b.calls, &p.sink_names);
                if ta != tb {
                    report.interference_mismatches.push(format!(
                        "{}::{}: sinks observed {ta:?} vs {tb:?} for high-input change {base:?} -> {varied:?}",
                        p.name, d.name
                    ));
                }
            }
        }
    }

    report
}

/// Renders the report as the section the `evaluate` binary prints.
pub fn render_ifc_differential(report: &IfcDifferentialReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "IFC differential (lattice checker vs interpreter)");
    let _ = writeln!(
        out,
        "  {} labeled programs, {} drivers: {} secure, {} violating, {} declassifying",
        report.programs,
        report.drivers,
        report.secure_drivers,
        report.violating_drivers,
        report.declassifying_drivers
    );
    let _ = writeln!(
        out,
        "  interference oracle: {} execution pairs compared, {} mismatches",
        report.executions_compared,
        report.interference_mismatches.len()
    );
    for m in &report.interference_mismatches {
        let _ = writeln!(out, "  MISMATCH {m}");
    }
    out
}

impl ToJson for IfcDifferentialReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            ("programs".into(), Json::Num(self.programs as f64)),
            ("drivers".into(), Json::Num(self.drivers as f64)),
            (
                "secure_drivers".into(),
                Json::Num(self.secure_drivers as f64),
            ),
            (
                "violating_drivers".into(),
                Json::Num(self.violating_drivers as f64),
            ),
            (
                "declassifying_drivers".into(),
                Json::Num(self.declassifying_drivers as f64),
            ),
            (
                "executions_compared".into(),
                Json::Num(self.executions_compared as f64),
            ),
            (
                "interference_mismatches".into(),
                Json::Arr(
                    self.interference_mismatches
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_differential_run_is_clean_and_non_vacuous() {
        let report = measure_ifc_differential(flowistry_corpus::DEFAULT_SEED, 9, 2);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.programs, 9);
        assert!(report.secure_drivers > 0);
        assert!(report.violating_drivers > 0);
        assert!(report.executions_compared > 0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = measure_ifc_differential(7, 3, 1);
        let text = render_ifc_differential(&report);
        assert!(text.contains("interference oracle"));
        let json = report.to_json().pretty();
        assert!(json.contains("\"interference_mismatches\""));
    }
}
