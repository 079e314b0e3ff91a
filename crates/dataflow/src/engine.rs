//! A generic forward dataflow engine.
//!
//! The information flow analysis of the paper is "a flow-sensitive, forward
//! dataflow analysis pass" whose state forms a join-semilattice and which is
//! "iterated to a fixpoint" (§4.1). This module provides that engine,
//! parameterized over the lattice and the per-node transfer function, so it
//! can be unit-tested independently (e.g. on reaching-definitions-style toy
//! analyses) and reused by the `flowistry-core` crate.

use crate::graph::Graph;

/// A join-semilattice: a partial order with a least upper bound.
pub trait JoinSemiLattice: Clone + Eq {
    /// Joins `other` into `self`, returning `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

impl JoinSemiLattice for bool {
    fn join(&mut self, other: &Self) -> bool {
        let old = *self;
        *self |= *other;
        *self != old
    }
}

impl<T: Ord + Clone> JoinSemiLattice for std::collections::BTreeSet<T> {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for item in other {
            // `insert` already reports whether the value was new — no
            // `contains` pre-check, no second tree descent.
            changed |= self.insert(item.clone());
        }
        changed
    }
}

impl<K: Ord + Clone, V: JoinSemiLattice> JoinSemiLattice for std::collections::BTreeMap<K, V> {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in other {
            match self.get_mut(k) {
                Some(existing) => changed |= existing.join(v),
                None => {
                    self.insert(k.clone(), v.clone());
                    changed = true;
                }
            }
        }
        changed
    }
}

/// A forward dataflow analysis over a CFG whose nodes are basic blocks.
pub trait Analysis {
    /// The lattice of facts tracked per program point.
    type Domain: JoinSemiLattice;

    /// The initial state at the entry of the start node.
    fn bottom(&self) -> Self::Domain;

    /// The state on function entry (e.g. parameters initialized).
    fn initial(&self) -> Self::Domain {
        self.bottom()
    }

    /// Applies the whole block `node` to `state` in place.
    fn transfer_block(&self, node: usize, state: &mut Self::Domain);
}

/// The result of running an [`Analysis`]: the entry state of every block.
#[derive(Debug, Clone)]
pub struct AnalysisResults<D> {
    entry_states: Vec<D>,
    iterations: usize,
}

impl<D: JoinSemiLattice> AnalysisResults<D> {
    /// The state at the entry of `node`.
    pub fn entry(&self, node: usize) -> &D {
        &self.entry_states[node]
    }

    /// The state at the exit of `node`, recomputed by applying the block's
    /// transfer function to its entry state.
    pub fn exit(&self, node: usize, analysis: &impl Analysis<Domain = D>) -> D {
        let mut state = self.entry_states[node].clone();
        analysis.transfer_block(node, &mut state);
        state
    }

    /// Number of worklist iterations used to reach the fixpoint.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The entry state of every block, in node order.
    pub fn into_entries(self) -> Vec<D> {
        self.entry_states
    }
}

/// Runs `analysis` over `graph` to a fixpoint and returns per-block entry
/// states.
///
/// Blocks are visited in reverse post-order; a worklist re-queues successors
/// whose entry state changed. Termination follows from the domain being a
/// join-semilattice with finite height on the facts actually generated, as
/// argued in §4.1 of the paper.
pub fn iterate_to_fixpoint<A: Analysis>(
    graph: &impl Graph,
    analysis: &A,
) -> AnalysisResults<A::Domain> {
    let n = graph.num_nodes();
    let mut entry_states: Vec<A::Domain> = vec![analysis.bottom(); n];
    entry_states[graph.start_node()] = analysis.initial();

    let rpo = graph.reverse_post_order();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &node) in rpo.iter().enumerate() {
        rpo_index[node] = i;
    }

    let mut on_worklist = vec![false; n];
    let mut worklist: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> =
        std::collections::BinaryHeap::new();
    worklist.push(std::cmp::Reverse((0, graph.start_node())));
    on_worklist[graph.start_node()] = true;

    // One working state for every visit: `clone_from` lets a domain reuse
    // its allocations and keep whatever it already shares with the entry.
    let mut state = analysis.bottom();
    let mut iterations = 0;
    while let Some(std::cmp::Reverse((_, node))) = worklist.pop() {
        on_worklist[node] = false;
        iterations += 1;

        state.clone_from(&entry_states[node]);
        analysis.transfer_block(node, &mut state);

        for succ in graph.successors(node) {
            if entry_states[succ].join(&state) && !on_worklist[succ] {
                on_worklist[succ] = true;
                worklist.push(std::cmp::Reverse((rpo_index[succ], succ)));
            }
        }
    }

    AnalysisResults {
        entry_states,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VecGraph;
    use std::collections::BTreeSet;

    /// A toy "collecting" analysis: each block `b` adds `b` to the set; the
    /// entry set of a block is the union over paths of the blocks passed.
    struct Collect;

    impl Analysis for Collect {
        type Domain = BTreeSet<usize>;
        fn bottom(&self) -> Self::Domain {
            BTreeSet::new()
        }
        fn transfer_block(&self, node: usize, state: &mut Self::Domain) {
            state.insert(node);
        }
    }

    #[test]
    fn collects_predecessors_through_a_diamond() {
        let g = VecGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let results = iterate_to_fixpoint(&g, &Collect);
        assert_eq!(results.entry(3), &BTreeSet::from([0, 1, 2]));
        assert_eq!(results.entry(1), &BTreeSet::from([0]));
        assert_eq!(results.entry(0), &BTreeSet::new());
        let exit3 = results.exit(3, &Collect);
        assert!(exit3.contains(&3));
    }

    #[test]
    fn reaches_fixpoint_on_loops() {
        // 0 -> 1 -> 2 -> 1, 1 -> 3
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let results = iterate_to_fixpoint(&g, &Collect);
        // The loop body 2 is part of the paths reaching 1 and 3.
        assert!(results.entry(1).contains(&2));
        assert!(results.entry(3).contains(&2));
        assert!(results.iterations() >= 4);
    }

    #[test]
    fn bool_lattice_join() {
        let mut a = false;
        assert!(a.join(&true));
        assert!(!a.join(&true));
        assert!(!a.join(&false));
        assert!(a);
    }

    #[test]
    fn btreemap_lattice_joins_keywise() {
        use std::collections::BTreeMap;
        let mut a: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
        a.insert("x", BTreeSet::from([1]));
        let mut b = BTreeMap::new();
        b.insert("x", BTreeSet::from([2]));
        b.insert("y", BTreeSet::from([3]));
        assert!(a.join(&b));
        assert_eq!(a["x"], BTreeSet::from([1, 2]));
        assert_eq!(a["y"], BTreeSet::from([3]));
        assert!(!a.join(&b));
    }

    #[test]
    fn set_join_reports_changes_accurately() {
        let mut a = BTreeSet::from([1, 2]);
        let b = BTreeSet::from([2, 3]);
        assert!(a.join(&b));
        assert_eq!(a, BTreeSet::from([1, 2, 3]));
        assert!(!a.join(&b));
    }

    /// Join of entry states must be order-insensitive: run the same analysis
    /// on graphs with permuted edge insertion order and compare.
    #[test]
    fn result_is_independent_of_edge_order() {
        let g1 = VecGraph::new(5, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let g2 = VecGraph::new(5, 0, &[(3, 4), (2, 3), (1, 3), (0, 2), (0, 1)]);
        let r1 = iterate_to_fixpoint(&g1, &Collect);
        let r2 = iterate_to_fixpoint(&g2, &Collect);
        for n in 0..5 {
            assert_eq!(r1.entry(n), r2.entry(n));
        }
    }
}
