//! Text rendering of the evaluation outputs (Table 1, Figures 2–4, §5.4
//! statistics, Table 2), in the same shape as the paper reports them.

use crate::figures::{BoundaryStats, DiffStats, PerCrateStats};
use crate::measure::CrateMeasurements;
use crate::perf::SlowdownReport;
use flowistry_corpus::CrateProfile;
use std::fmt::Write;

/// Renders Table 1: the dataset summary.
pub fn render_table1(measurements: &[CrateMeasurements]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: dataset of crates used to evaluate information flow precision"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<28} {:>7} {:>8} {:>8} {:>16}",
        "Crate", "Purpose", "LOC", "# Vars", "# Funcs", "Avg. Instrs/Func"
    );
    let mut total_loc = 0;
    let mut total_vars = 0;
    let mut total_funcs = 0;
    for m in measurements {
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>7} {:>8} {:>8} {:>16.1}",
            m.name, m.purpose, m.loc, m.num_vars, m.num_funcs, m.avg_instrs_per_func
        );
        total_loc += m.loc;
        total_vars += m.num_vars;
        total_funcs += m.num_funcs;
    }
    let _ = writeln!(
        out,
        "{:<12} {:<28} {:>7} {:>8} {:>8}",
        "Total:", "", total_loc, total_vars, total_funcs
    );
    out
}

/// Renders one difference distribution (a panel of Figure 2 or Figure 3).
pub fn render_diff(title: &str, stats: &DiffStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  compared {} variables: {} identical ({:.1}%), {} non-zero ({:.1}%)",
        stats.total,
        stats.zero,
        100.0 - stats.pct_nonzero,
        stats.nonzero,
        stats.pct_nonzero
    );
    let _ = writeln!(
        out,
        "  among non-zero cases: median increase {:.1}%, p90 {:.1}%",
        stats.median_nonzero_pct, stats.p90_nonzero_pct
    );
    let max = stats
        .histogram
        .iter()
        .map(|(_, c)| *c)
        .max()
        .unwrap_or(1)
        .max(1);
    for (label, count) in &stats.histogram {
        let bar = "#".repeat((count * 40 / max).min(40));
        let _ = writeln!(out, "  {label:>10} | {count:>7} {bar}");
    }
    out
}

/// Renders Figure 4: the per-crate breakdown.
pub fn render_per_crate(stats: &PerCrateStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: non-zero differences ({} vs {}) broken down by crate",
        stats
            .per_crate
            .first()
            .map(|(_, s)| s.coarse.clone())
            .unwrap_or_default(),
        stats
            .per_crate
            .first()
            .map(|(_, s)| s.baseline.clone())
            .unwrap_or_default()
    );
    for (name, s) in &stats.per_crate {
        let _ = writeln!(
            out,
            "  {:<12} non-zero {:>6}/{:<6} ({:>5.1}%)  median {:>6.1}%",
            name, s.nonzero, s.total, s.pct_nonzero, s.median_nonzero_pct
        );
    }
    let _ = writeln!(
        out,
        "  correlation of non-zero count with crate size (# vars): R^2 = {:.2}",
        stats.r_squared_vs_num_vars
    );
    out
}

/// Renders the §5.4.2 boundary analysis.
pub fn render_boundary(stats: &BoundaryStats) -> String {
    format!(
        "Crate-boundary sensitivity (5.4.2)\n  {:.0}% of Whole-program cases crossed a crate boundary (n = {})\n  non-zero Modular vs Whole-program difference: {:.1}% given a boundary, {:.1}% given none\n",
        stats.pct_hit_boundary, stats.total, stats.pct_nonzero_given_boundary,
        stats.pct_nonzero_given_no_boundary
    )
}

/// Renders the performance summary (§5.1).
pub fn render_perf(median_micros: &[(String, f64)], slowdown: &SlowdownReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Analysis performance (5.1)");
    for (name, micros) in median_micros {
        let _ = writeln!(
            out,
            "  {:<12} median per-function time: {:>9.1} us",
            name, micros
        );
    }
    let _ = writeln!(
        out,
        "  deep call graph stress (depth {}, fanout {}, {} functions):",
        slowdown.depth, slowdown.fanout, slowdown.num_functions
    );
    let _ = writeln!(
        out,
        "    modular {:.4} s, whole-program {:.4} s ({:.0}x slower), memoized {:.4} s",
        slowdown.modular_seconds,
        slowdown.whole_program_seconds,
        slowdown.slowdown,
        slowdown.memoized_seconds
    );
    out
}

/// Renders Table 2: the build configuration / reproduction parameters.
pub fn render_table2(profiles: &[CrateProfile], seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: generation configuration for each synthetic crate (global seed 0x{seed:X})"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>7} {:>12} {:>12} {:>12}",
        "Crate",
        "Drivers",
        "Helpers",
        "Extern",
        "Steps",
        "p(unusedmut)",
        "p(sharedref)",
        "p(crosscall)"
    );
    for p in profiles {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>8} {:>7} {:>12.2} {:>12.2} {:>12.2}",
            p.name,
            p.num_drivers,
            p.num_helpers,
            p.num_externals,
            p.avg_driver_steps,
            p.p_unused_mut_ref,
            p.p_shared_ref_helper,
            p.p_cross_crate_call
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::diff_stats;
    use crate::measure::VariableRecord;
    use flowistry_core::Condition;

    fn fake_measurement() -> CrateMeasurements {
        CrateMeasurements {
            name: "rayon".into(),
            purpose: "Data parallelism library".into(),
            loc: 800,
            num_funcs: 50,
            num_vars: 300,
            avg_instrs_per_func: 16.6,
            median_analysis_micros: 120.0,
            records: vec![
                VariableRecord {
                    krate: "rayon".into(),
                    function: "f".into(),
                    variable: "x".into(),
                    condition: Condition::MODULAR.name(),
                    size: 4,
                    hit_boundary: false,
                },
                VariableRecord {
                    krate: "rayon".into(),
                    function: "f".into(),
                    variable: "x".into(),
                    condition: Condition::MUT_BLIND.name(),
                    size: 6,
                    hit_boundary: false,
                },
            ],
        }
    }

    #[test]
    fn table1_lists_crates_and_totals() {
        let text = render_table1(&[fake_measurement()]);
        assert!(text.contains("rayon"));
        assert!(text.contains("Total:"));
        assert!(text.contains("LOC"));
    }

    #[test]
    fn diff_rendering_contains_histogram_bars() {
        let m = fake_measurement();
        let stats = diff_stats(&m.records, Condition::MUT_BLIND, Condition::MODULAR);
        let text = render_diff("Mut-blind vs Modular", &stats);
        assert!(text.contains("Mut-blind vs Modular"));
        assert!(text.contains("non-zero"));
        assert!(text.contains("0%"));
    }

    #[test]
    fn table2_lists_profiles() {
        let text = render_table2(&flowistry_corpus::paper_profiles(), 0xF10A);
        assert!(text.contains("rustpython"));
        assert!(text.contains("0xF10A"));
    }

    #[test]
    fn perf_rendering_shows_slowdown() {
        let slowdown = SlowdownReport {
            depth: 3,
            fanout: 2,
            num_functions: 5,
            modular_seconds: 0.001,
            whole_program_seconds: 0.1,
            memoized_seconds: 0.002,
            slowdown: 100.0,
        };
        let text = render_perf(&[("rayon".into(), 370.0)], &slowdown);
        assert!(text.contains("100x slower"));
        assert!(text.contains("370.0"));
    }

    #[test]
    fn boundary_rendering_is_complete() {
        let stats = BoundaryStats {
            pct_hit_boundary: 96.0,
            pct_nonzero_given_boundary: 6.6,
            pct_nonzero_given_no_boundary: 0.6,
            total: 1000,
        };
        let text = render_boundary(&stats);
        assert!(text.contains("96%"));
        assert!(text.contains("6.6%"));
    }
}
