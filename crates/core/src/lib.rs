//! # flowistry-core: modular information flow through ownership
//!
//! This crate is the reproduction of the primary contribution of
//! *Modular Information Flow through Ownership* (Crichton et al., PLDI 2022):
//! a static, field-sensitive, flow-sensitive information flow analysis for an
//! ownership-typed language that analyzes function calls **modularly**, from
//! nothing but their type signatures.
//!
//! The analysis is organized as follows:
//!
//! * [`deps`] — dependency sets κ and dependency contexts Θ;
//! * [`places`] — type-directed place enumeration (interior places, the
//!   ω-refs of §2.3);
//! * [`aliases`] — pointer analysis from lifetime-derived loan sets (§2.2),
//!   with the Ref-blind ablation;
//! * [`condition`] — the Modular / Whole-program / Mut-blind / Ref-blind
//!   conditions of the evaluation (§5);
//! * [`summary`] — whole-program callee summaries;
//! * [`infoflow`] — the forward dataflow pass tying it all together (§4.1),
//!   including control dependence.
//!
//! The fixpoint runs on an *indexed* state representation: places and
//! dependencies are interned into dense `u32`s per body, the state is a
//! bitset matrix with copy-on-write rows, and every transfer function is
//! compiled to an index-level plan before iteration starts. The original
//! tree-map Θ is no longer part of the default build; enabling the
//! `tree-domain` cargo feature compiles it back in as `DomainKind::Tree`,
//! solely as the oracle the equivalence suite checks the indexed path
//! against (both produce bit-for-bit identical [`InfoFlowResults`]).
//!
//! # Quick start
//!
//! ```
//! use flowistry_core::{analyze, AnalysisParams};
//! use flowistry_lang::mir::Local;
//!
//! let program = flowistry_lang::compile(r#"
//!     fn push(v: &mut (i32, i32), x: i32) { (*v).0 = x; }
//!     fn copy_to(src: &(i32, i32), max: i32) -> (i32, i32) {
//!         let mut out = (0, 0);
//!         push(&mut out, (*src).0);
//!         return out;
//!     }
//! "#).unwrap();
//!
//! let func = program.func_id("copy_to").unwrap();
//! let results = analyze(&program, func, &AnalysisParams::default());
//! // The returned vector depends on the source vector argument (_1)...
//! let ret_deps = results.exit_deps_of_local(Local(0));
//! assert!(ret_deps.iter().any(|d| d.arg() == Some(Local(1))));
//! ```

#![warn(missing_docs)]

pub mod aliases;
pub mod condition;
pub mod deps;
mod indexed;
pub mod infoflow;
pub mod places;
pub mod summary;

pub use aliases::{AliasAnalysis, AliasMode};
pub use condition::{AnalysisParams, Condition, DomainKind};
pub use deps::{Dep, DepSet, Theta, ThetaExt};
pub use flowistry_dataflow::indexed::BitSet;
pub use indexed::{DeltaEntry, Deltas, IndexedStates, IndexedTheta};
#[cfg(feature = "tree-domain")]
pub use infoflow::analyze_in_reverse_post_order;
pub use infoflow::{
    analyze, analyze_with_summaries, compute_summary, compute_summary_with_results, BodyGraph,
    CachedSummary, InfoFlowResults, SummaryStore,
};
pub use summary::{FunctionSummary, SummaryMutation};
