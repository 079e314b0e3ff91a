//! # flowistry-dataflow: CFG analyses for the Flowistry reproduction
//!
//! A dependency-free toolkit of classic control-flow-graph algorithms used by
//! the information flow analysis (paper §4.1):
//!
//! * [`graph`] — a minimal directed-graph abstraction over basic blocks,
//!   with plain and loop-aware reverse post-orders;
//! * [`engine`] — a generic forward dataflow engine over join-semilattices,
//!   iterated to fixpoint with a worklist that visits loop bodies before
//!   loop exits;
//! * [`dominators`] — dominator and post-dominator trees via the
//!   Cooper–Harvey–Kennedy "simple, fast dominance" algorithm;
//! * [`control_deps`] — control dependence via post-dominance frontiers
//!   (Ferrante et al. / Cytron et al.);
//! * [`indexed`] — interned domains, hybrid bitsets and copy-on-write
//!   bit-matrices, the dense state representation the information flow
//!   fixpoint runs on.
//!
//! The crate is deliberately generic: graphs are just `usize`-indexed nodes
//! with successor/predecessor functions, so the engine is reusable for any
//! CFG shape (and is unit-tested on synthetic graphs independently of Rox).

#![warn(missing_docs)]

pub mod control_deps;
pub mod dominators;
pub mod engine;
pub mod graph;
pub mod indexed;

pub use control_deps::ControlDependencies;
pub use dominators::{DominatorTree, PostDominatorTree};
pub use engine::{Analysis, AnalysisResults, JoinSemiLattice};
pub use graph::{Graph, VecGraph};
pub use indexed::{BitSet, IndexMatrix, IndexedDomain};
