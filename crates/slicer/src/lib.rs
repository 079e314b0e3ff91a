//! # flowistry-slicer: a program slicer built on the information flow analysis
//!
//! The paper's first application (§6, Figure 5a) is a program slicer: given
//! a *slicing criterion* (a variable the user selects), highlight the lines
//! of the function that are relevant to it (the backward slice) or that it
//! influences (the forward slice), and fade the rest.
//!
//! The original tool is a VSCode extension; this reproduction renders slices
//! as text, which is the part of the system the paper's contribution powers.
//!
//! ```
//! use flowistry_slicer::Slicer;
//! let src = "fn f(x: i32, y: i32) -> i32 {
//!     let a = x + 1;
//!     let b = y + 2;
//!     return a;
//! }";
//! let program = flowistry_lang::compile(src).unwrap();
//! let slicer = Slicer::new(&program, program.func_id("f").unwrap(), Default::default());
//! let slice = slicer.backward_slice_of_var("a").unwrap();
//! assert!(slice.contains_line(2));  // `let a = x + 1;`
//! assert!(!slice.contains_line(3)); // `let b = y + 2;` is irrelevant
//! ```

#![warn(missing_docs)]

use flowistry_core::{analyze, AnalysisParams, Dep, DepSet, InfoFlowResults};
use flowistry_lang::mir::{Local, Location, Place, StatementKind, TerminatorKind};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A computed slice: the set of locations and source lines it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// The criterion the slice was computed for (a user variable).
    pub criterion: String,
    /// MIR locations in the slice.
    pub locations: BTreeSet<Location>,
    /// 1-based source lines in the slice.
    pub lines: BTreeSet<usize>,
}

impl Slice {
    /// Whether the 1-based source line is part of the slice.
    pub fn contains_line(&self, line: usize) -> bool {
        self.lines.contains(&line)
    }

    /// Renders the function's source with lines outside the slice faded
    /// (prefixed with `·`), in the spirit of Figure 5a.
    pub fn render(&self, source: &str) -> String {
        source
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let lineno = i + 1;
                if self.lines.contains(&lineno) {
                    format!("▶ {line}")
                } else {
                    format!("· {line}")
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A program slicer for one function.
pub struct Slicer<'a> {
    program: &'a CompiledProgram,
    func: FuncId,
    results: Arc<InfoFlowResults>,
}

impl<'a> Slicer<'a> {
    /// Analyzes `func` and prepares it for slicing queries.
    pub fn new(program: &'a CompiledProgram, func: FuncId, params: AnalysisParams) -> Self {
        let results = analyze(program, func, &params);
        Slicer::from_results(program, func, Arc::new(results))
    }

    /// Wraps precomputed analysis results (e.g. served by the incremental
    /// analysis engine) without re-running the analysis. Taking an `Arc`
    /// lets callers that memoize results (the engine does) share them with
    /// any number of slicers instead of deep-cloning per query.
    ///
    /// # Panics
    ///
    /// Panics if `results` were computed for a different function.
    pub fn from_results(
        program: &'a CompiledProgram,
        func: FuncId,
        results: Arc<InfoFlowResults>,
    ) -> Self {
        assert_eq!(
            results.func(),
            func,
            "results belong to a different function"
        );
        Slicer {
            program,
            func,
            results,
        }
    }

    /// The underlying analysis results.
    pub fn results(&self) -> &InfoFlowResults {
        &self.results
    }

    fn body(&self) -> &flowistry_lang::mir::Body {
        self.program.body(self.func)
    }

    fn local_named(&self, name: &str) -> Option<Local> {
        self.body()
            .local_decls
            .iter()
            .position(|d| d.name.as_deref() == Some(name))
            .map(|i| Local(i as u32))
    }

    fn lines_of_locations(&self, locations: &BTreeSet<Location>) -> BTreeSet<usize> {
        let body = self.body();
        let src = &self.program.source;
        locations
            .iter()
            .filter_map(|loc| {
                let span = match body.stmt_at(*loc) {
                    Some(stmt) => stmt.span,
                    None => body.block(loc.block).terminator().span,
                };
                if span == flowistry_lang::span::Span::DUMMY {
                    None
                } else {
                    Some(span.line_of(src))
                }
            })
            .collect()
    }

    /// The backward slice of a user variable at the function's exit: every
    /// location whose value influences the variable.
    pub fn backward_slice_of_var(&self, name: &str) -> Option<Slice> {
        let local = self.local_named(name)?;
        let deps = self.results.exit_deps_of_local(local);
        Some(self.slice_from_deps(name, &deps))
    }

    /// The backward slice of the function's return value.
    pub fn backward_slice_of_return(&self) -> Slice {
        let deps = self.results.exit_deps_of_local(Local(0));
        self.slice_from_deps("<return>", &deps)
    }

    fn slice_from_deps(&self, criterion: &str, deps: &DepSet) -> Slice {
        let locations: BTreeSet<Location> = deps.iter().filter_map(Dep::location).collect();
        let lines = self.lines_of_locations(&locations);
        Slice {
            criterion: criterion.to_string(),
            locations,
            lines,
        }
    }

    /// The forward slice of a user variable: every location whose effect is
    /// influenced by the variable (used, e.g., to find all code affected by
    /// a timing flag before commenting it out, as in Figure 5a).
    pub fn forward_slice_of_var(&self, name: &str) -> Option<Slice> {
        let local = self.local_named(name)?;
        let body = self.body();

        // The "identity" of the criterion: its argument dependency (if it is
        // a parameter) plus every location that assigns to it.
        let mut sources = DepSet::new();
        if (1..=body.arg_count).contains(&(local.0 as usize)) {
            sources.insert(Dep::Arg(local));
        }
        let root = Place::from_local(local);
        for loc in body.all_locations() {
            let mutated = match body.stmt_at(loc) {
                Some(stmt) => match &stmt.kind {
                    StatementKind::Assign(place, _) => Some(place.clone()),
                    StatementKind::Nop => None,
                },
                None => match &body.block(loc.block).terminator().kind {
                    TerminatorKind::Call { destination, .. } => Some(destination.clone()),
                    _ => None,
                },
            };
            if let Some(place) = mutated {
                if place.local == local || place.conflicts_with(&root) {
                    sources.insert(Dep::Instr(loc));
                }
            }
        }

        // A location is in the forward slice if, after executing it, the
        // place it mutates depends on any of the sources.
        let mut locations = BTreeSet::new();
        for loc in body.all_locations() {
            let mutated = match body.stmt_at(loc) {
                Some(stmt) => match &stmt.kind {
                    StatementKind::Assign(place, _) => Some(place.clone()),
                    StatementKind::Nop => None,
                },
                None => match &body.block(loc.block).terminator().kind {
                    TerminatorKind::Call { destination, .. } => Some(destination.clone()),
                    _ => None,
                },
            };
            let Some(place) = mutated else { continue };
            let deps = self.results.deps_after(&place, loc);
            if deps.iter().any(|d| sources.contains(d)) {
                locations.insert(loc);
            }
        }

        let lines = self.lines_of_locations(&locations);
        Some(Slice {
            criterion: name.to_string(),
            locations,
            lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "\
fn write_all(f: &mut i32, data: i32) { *f = *f + data; }
fn metadata(f: &i32) -> i32 { return *f; }
fn main_like(input: i32, verbose: bool) -> i32 {
    let mut file = 0;
    write_all(&mut file, input);
    let meta = metadata(&file);
    let mut log = 0;
    if verbose { log = meta; }
    return file;
}";

    fn slicer(src: &str, func: &str) -> (flowistry_lang::CompiledProgram, Slicer<'static>) {
        // Leak the program to get a 'static lifetime for test convenience.
        let prog: &'static flowistry_lang::CompiledProgram =
            Box::leak(Box::new(flowistry_lang::compile(src).unwrap()));
        let id = prog.func_id(func).unwrap();
        (
            prog.clone(),
            Slicer::new(prog, id, AnalysisParams::default()),
        )
    }

    #[test]
    fn backward_slice_keeps_relevant_lines_and_drops_others() {
        let (_, s) = slicer(PROGRAM, "main_like");
        let slice = s.backward_slice_of_var("file").unwrap();
        // The write_all call mutates the file, so it is in the slice.
        assert!(slice.contains_line(5), "lines: {:?}", slice.lines);
        // The logging code is irrelevant to `file`.
        assert!(!slice.contains_line(8), "lines: {:?}", slice.lines);
        assert_eq!(slice.criterion, "file");
    }

    #[test]
    fn backward_slice_of_return_matches_returned_variable() {
        let (_, s) = slicer(PROGRAM, "main_like");
        let ret = s.backward_slice_of_return();
        let file = s.backward_slice_of_var("file").unwrap();
        // The function returns `file`, so the slices agree on source lines
        // (the return line itself may differ).
        for line in &file.lines {
            assert!(ret.lines.contains(line), "missing line {line}");
        }
    }

    #[test]
    fn forward_slice_finds_influenced_code() {
        let (_, s) = slicer(PROGRAM, "main_like");
        let slice = s.forward_slice_of_var("meta").unwrap();
        // `log = meta` is influenced by meta.
        assert!(slice.contains_line(8), "lines: {:?}", slice.lines);
        // The initial file write is not influenced by meta.
        assert!(!slice.contains_line(5), "lines: {:?}", slice.lines);
    }

    #[test]
    fn forward_slice_of_parameter_covers_control_dependent_code() {
        let (_, s) = slicer(PROGRAM, "main_like");
        let slice = s.forward_slice_of_var("verbose").unwrap();
        assert!(slice.contains_line(8), "lines: {:?}", slice.lines);
    }

    #[test]
    fn unknown_variable_returns_none() {
        let (_, s) = slicer(PROGRAM, "main_like");
        assert!(s.backward_slice_of_var("nope").is_none());
        assert!(s.forward_slice_of_var("nope").is_none());
    }

    #[test]
    fn render_marks_slice_lines() {
        let (prog, s) = slicer(PROGRAM, "main_like");
        let slice = s.backward_slice_of_var("file").unwrap();
        let rendered = slice.render(&prog.source);
        assert!(rendered.lines().any(|l| l.starts_with('▶')));
        assert!(rendered.lines().any(|l| l.starts_with('·')));
        assert_eq!(rendered.lines().count(), prog.source.lines().count());
    }

    #[test]
    fn results_are_exposed_for_downstream_tools() {
        let (_, s) = slicer(PROGRAM, "main_like");
        assert!(s.results().iterations() > 0);
    }

    #[test]
    fn slice_is_smaller_than_function_for_separable_code() {
        let src = "fn f(a: i32, b: i32) -> i32 {
            let x = a + 1;
            let y = b + 2;
            let z = y * 3;
            return x;
        }";
        let (_, s) = slicer(src, "f");
        let slice = s.backward_slice_of_var("x").unwrap();
        assert!(slice.contains_line(2));
        assert!(!slice.contains_line(3));
        assert!(!slice.contains_line(4));
    }
}
