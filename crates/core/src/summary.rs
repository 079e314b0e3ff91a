//! Whole-program function summaries.
//!
//! The Whole-program condition (§5) analyzes a callee's definition and then
//! "translates flows to parameters of `f` into flows on arguments of the
//! call to `f`". A [`FunctionSummary`] is that translation unit: which
//! argument-reachable places the callee mutates, which arguments feed each
//! mutation, and which arguments the return value depends on.

use crate::deps::Dep;
use crate::infoflow::InfoFlowResults;
use flowistry_lang::mir::{Body, Local, Place, PlaceElem};
use std::collections::BTreeSet;

/// One caller-visible mutation performed by a callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryMutation {
    /// The parameter through which the mutation happens (`_1`, `_2`, ...).
    pub param: Local,
    /// The projection below the parameter local (always starting with a
    /// dereference, since only data behind references is caller-visible).
    pub projection: Vec<PlaceElem>,
    /// Which parameters' initial values flow into the mutated data.
    pub sources: BTreeSet<Local>,
}

/// A callee summary used by the Whole-program call transfer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionSummary {
    /// Caller-visible mutations.
    pub mutations: Vec<SummaryMutation>,
    /// Parameters whose initial values flow into the return value.
    pub return_sources: BTreeSet<Local>,
}

impl FunctionSummary {
    /// Extracts a summary from the callee's results at exit.
    ///
    /// `body` is the callee body and `results` its analysis, whose exit
    /// state is the join of Θ over its return locations, where each
    /// parameter place was initialized with a [`Dep::Arg`] marker.
    pub fn from_results(body: &Body, results: &InfoFlowResults) -> FunctionSummary {
        let mut mutations = Vec::new();

        for (place, deps) in results.caller_visible_exit_entries(body) {
            // The place was initialized with {Arg(root)}; it was mutated iff
            // it picked up an instruction dependency or another argument.
            let has_instr = deps.iter().any(|d| matches!(d, Dep::Instr(_)));
            let other_arg = deps
                .iter()
                .any(|d| matches!(d, Dep::Arg(l) if *l != place.local));
            if !has_instr && !other_arg {
                continue;
            }
            let sources: BTreeSet<Local> = deps.iter().filter_map(Dep::arg).collect();
            mutations.push(SummaryMutation {
                param: place.local,
                projection: place.projection.clone(),
                sources,
            });
        }

        let return_deps = results.exit_deps(&Place::return_place());
        let return_sources = return_deps.iter().filter_map(Dep::arg).collect();

        FunctionSummary {
            mutations,
            return_sources,
        }
    }

    /// Whether the summary reports no caller-visible effects at all (pure
    /// function whose result ignores its arguments).
    pub fn is_inert(&self) -> bool {
        self.mutations.is_empty() && self.return_sources.is_empty()
    }

    /// Encodes the summary as one line of text for the engine's on-disk
    /// cache: `ret:<locals>` followed by one `mut:<param>:<proj>:<sources>`
    /// segment per mutation, `;`-separated. Projections render as `*` for a
    /// dereference and `.N` for a field. [`FunctionSummary::decode`] inverts
    /// it exactly.
    pub fn encode(&self) -> String {
        let locals = |set: &BTreeSet<Local>| {
            set.iter()
                .map(|l| l.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut segments = vec![format!("ret:{}", locals(&self.return_sources))];
        for m in &self.mutations {
            segments.push(format!(
                "mut:{}:{}:{}",
                m.param.0,
                flowistry_lang::mir::encode_projection(&m.projection),
                locals(&m.sources)
            ));
        }
        segments.join(";")
    }

    /// Decodes a summary produced by [`FunctionSummary::encode`]. Returns
    /// `None` on any malformed input (the engine treats that as a cache
    /// miss).
    pub fn decode(text: &str) -> Option<FunctionSummary> {
        fn locals(text: &str) -> Option<BTreeSet<Local>> {
            if text.is_empty() {
                return Some(BTreeSet::new());
            }
            text.split(',')
                .map(|part| part.parse::<u32>().ok().map(Local))
                .collect()
        }
        let mut summary = FunctionSummary::default();
        let mut saw_ret = false;
        for segment in text.split(';') {
            if let Some(rest) = segment.strip_prefix("ret:") {
                if saw_ret {
                    return None;
                }
                saw_ret = true;
                summary.return_sources = locals(rest)?;
            } else if let Some(rest) = segment.strip_prefix("mut:") {
                let mut parts = rest.splitn(3, ':');
                let param = Local(parts.next()?.parse().ok()?);
                let proj = flowistry_lang::mir::parse_projection(parts.next()?)?;
                let sources = locals(parts.next()?)?;
                summary.mutations.push(SummaryMutation {
                    param,
                    projection: proj,
                    sources,
                });
            } else {
                return None;
            }
        }
        saw_ret.then_some(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::AnalysisParams;
    use crate::infoflow::analyze;
    use flowistry_lang::compile;

    fn summary_of(src: &str, name: &str) -> FunctionSummary {
        let prog = compile(src).unwrap();
        let func = prog.func_id(name).unwrap();
        let results = analyze(&prog, func, &AnalysisParams::default());
        FunctionSummary::from_results(prog.body(func), &results)
    }

    #[test]
    fn pure_function_returns_its_argument_sources() {
        let s = summary_of("fn add(x: i32, y: i32) -> i32 { return x + y; }", "add");
        assert!(s.mutations.is_empty());
        assert_eq!(s.return_sources, [Local(1), Local(2)].into_iter().collect());
        assert!(!s.is_inert());
    }

    #[test]
    fn constant_return_has_no_sources() {
        let s = summary_of("fn zero(x: i32) -> i32 { return 0; }", "zero");
        assert!(s.return_sources.is_empty());
        assert!(s.mutations.is_empty());
        assert!(s.is_inert());
    }

    #[test]
    fn mutation_through_reference_is_recorded_with_its_sources() {
        let s = summary_of("fn store(p: &mut i32, v: i32) { *p = v; }", "store");
        assert_eq!(s.mutations.len(), 1);
        let m = &s.mutations[0];
        assert_eq!(m.param, Local(1));
        assert_eq!(m.projection, vec![PlaceElem::Deref]);
        assert!(m.sources.contains(&Local(2)));
    }

    #[test]
    fn unused_mutable_reference_produces_no_mutation() {
        // Mirrors the paper's `crop` example (§5.3.1): the &mut parameter is
        // never actually written through.
        let s = summary_of(
            "fn crop(image: &mut (i32, i32), x: i32) -> i32 { return x + 1; }",
            "crop",
        );
        assert!(s.mutations.is_empty());
        assert_eq!(s.return_sources, [Local(2)].into_iter().collect());
    }

    #[test]
    fn return_depending_on_subset_of_inputs() {
        // Mirrors the nalgebra example (§5.3.1): the boolean result depends
        // only on `diag`, even though `b` is mutated.
        let s = summary_of(
            "fn solve(b: &mut i32, diag: i32) -> bool {
                 if diag == 0 { return false; }
                 *b = *b + diag;
                 return true;
             }",
            "solve",
        );
        assert_eq!(s.mutations.len(), 1);
        assert!(s.mutations[0].sources.contains(&Local(2)));
        // The return value must not depend on `b` (Local 1).
        assert!(!s.return_sources.contains(&Local(1)));
        assert!(s.return_sources.contains(&Local(2)));
    }

    #[test]
    fn each_mutation_records_its_own_sources() {
        // Two unique references mutated from different scalar inputs: the
        // summaries must not blur the sources together.
        let s = summary_of(
            "fn split(p: &mut i32, q: &mut i32, v: i32, w: i32) {
                 *p = v;
                 *q = w;
             }",
            "split",
        );
        assert_eq!(s.mutations.len(), 2);
        let of_param = |l: u32| {
            s.mutations
                .iter()
                .find(|m| m.param == Local(l))
                .unwrap_or_else(|| panic!("no mutation through _{l}"))
        };
        assert!(of_param(1).sources.contains(&Local(3)));
        assert!(!of_param(1).sources.contains(&Local(4)));
        assert!(of_param(2).sources.contains(&Local(4)));
        assert!(!of_param(2).sources.contains(&Local(3)));
    }

    #[test]
    fn self_referential_mutation_keeps_the_param_as_source() {
        // *p = *p + 1 : the new value flows from p's own initial contents.
        let s = summary_of("fn bump(p: &mut i32) { *p = *p + 1; }", "bump");
        assert_eq!(s.mutations.len(), 1);
        assert!(s.mutations[0].sources.contains(&Local(1)));
    }

    #[test]
    fn control_dependent_mutation_includes_the_branch_source() {
        // The mutation only happens under `c`, so c's argument is a source
        // of the written data (implicit flow).
        let s = summary_of(
            "fn maybe(p: &mut i32, c: bool, v: i32) { if c { *p = v; } }",
            "maybe",
        );
        assert_eq!(s.mutations.len(), 1);
        let m = &s.mutations[0];
        assert!(
            m.sources.contains(&Local(2)),
            "missing c in {:?}",
            m.sources
        );
        assert!(
            m.sources.contains(&Local(3)),
            "missing v in {:?}",
            m.sources
        );
    }

    #[test]
    fn summary_codec_roundtrips_real_summaries() {
        for (src, name) in [
            ("fn add(x: i32, y: i32) -> i32 { return x + y; }", "add"),
            ("fn store(p: &mut i32, v: i32) { *p = v; }", "store"),
            (
                "fn set_first(p: &mut (i32, i32), v: i32) { (*p).0 = v; }",
                "set_first",
            ),
        ] {
            let s = summary_of(src, name);
            assert_eq!(FunctionSummary::decode(&s.encode()), Some(s), "{name}");
        }
    }

    #[test]
    fn field_level_mutation_keeps_projection() {
        let s = summary_of(
            "fn set_first(p: &mut (i32, i32), v: i32) { (*p).0 = v; }",
            "set_first",
        );
        assert!(s
            .mutations
            .iter()
            .any(|m| m.projection == vec![PlaceElem::Deref, PlaceElem::Field(0)]));
        // The sibling field is never mutated.
        assert!(!s
            .mutations
            .iter()
            .any(|m| m.projection == vec![PlaceElem::Deref, PlaceElem::Field(1)]));
    }
}
