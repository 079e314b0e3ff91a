//! Control dependence.
//!
//! Following Ferrante et al. (cited as [15] in the paper): a node `X` is
//! control-dependent on `Y` if `Y` has a successor from which every path to
//! the exit passes through `X` (i.e. `X` post-dominates that successor), but
//! `X` does not post-dominate `Y` itself. Equivalently, `Y` is in the
//! post-dominance frontier of `X` (Cytron et al., cited as [11]).
//!
//! The paper uses control dependence to add *indirect* flows: the condition
//! of a branch flows into every place mutated inside that branch (Figure 1's
//! `switch` dependency on `*h`).

use crate::dominators::PostDominatorTree;
use crate::graph::Graph;
use std::collections::BTreeSet;

/// Control dependencies of every node in a CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlDependencies {
    /// `deps[x]` = the set of nodes `y` such that `x` is control-dependent
    /// on `y`.
    deps: Vec<BTreeSet<usize>>,
}

impl ControlDependencies {
    /// Computes control dependencies using the post-dominance frontier.
    ///
    /// `exits` are the return nodes of the CFG (panic edges excluded, per
    /// §4.1 of the paper).
    pub fn new(graph: &impl Graph, exits: &[usize]) -> Self {
        let pdt = PostDominatorTree::new(graph, exits);
        let n = graph.num_nodes();
        let mut deps = vec![BTreeSet::new(); n];

        // Post-dominance frontier, computed directly from the definition:
        // for each edge (y -> s), walk up the post-dominator tree from s
        // until reaching the immediate post-dominator of y; every node
        // passed is control-dependent on y.
        for y in 0..n {
            let succs = graph.successors(y);
            if succs.len() < 2 {
                continue; // only branch points induce control dependence
            }
            let y_ipdom = pdt.immediate_post_dominator(y);
            for &s in succs {
                let mut runner = Some(s);
                while let Some(x) = runner {
                    if Some(x) == y_ipdom || !pdt.reaches_exit(x) {
                        break;
                    }
                    if x != y {
                        deps[x].insert(y);
                    } else {
                        // A loop header can be control-dependent on itself;
                        // record it and stop walking.
                        deps[x].insert(y);
                        break;
                    }
                    runner = pdt.immediate_post_dominator(x);
                }
            }
        }

        ControlDependencies { deps }
    }

    /// The nodes that `node` is control-dependent on.
    pub fn dependencies(&self, node: usize) -> &BTreeSet<usize> {
        &self.deps[node]
    }

    /// Whether `node` is control-dependent on `on`.
    pub fn is_dependent(&self, node: usize, on: usize) -> bool {
        self.deps[node].contains(&on)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VecGraph;

    #[test]
    fn branches_of_a_diamond_depend_on_the_condition() {
        // 0: switch -> {1, 2}; both -> 3 (return)
        let g = VecGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cd = ControlDependencies::new(&g, &[3]);
        assert!(cd.is_dependent(1, 0));
        assert!(cd.is_dependent(2, 0));
        assert!(!cd.is_dependent(3, 0));
        assert!(cd.dependencies(0).is_empty());
        assert_eq!(cd.len(), 4);
        assert!(!cd.is_empty());
    }

    #[test]
    fn join_node_is_not_dependent_but_early_return_changes_that() {
        // 0 -> {1, 2}; 1 -> 3(return); 2 -> 4 -> 3? No: early return:
        // 0: switch -> 1 (then: return), or -> 2; 2 -> 3 (return).
        // Node 2 and 3 execute only when the false branch is taken, so both
        // are control-dependent on 0.
        let g = VecGraph::new(4, 0, &[(0, 1), (0, 2), (2, 3)]);
        let cd = ControlDependencies::new(&g, &[1, 3]);
        assert!(cd.is_dependent(1, 0));
        assert!(cd.is_dependent(2, 0));
        assert!(cd.is_dependent(3, 0));
    }

    #[test]
    fn loop_body_depends_on_loop_header() {
        // 0 -> 1 (header switch) -> 2 (body) -> 1; 1 -> 3 (return)
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let cd = ControlDependencies::new(&g, &[3]);
        assert!(cd.is_dependent(2, 1));
        // The header itself re-executes depending on its own condition.
        assert!(cd.is_dependent(1, 1));
        // The exit block runs unconditionally (eventually), so it is not
        // control-dependent on the header.
        assert!(!cd.is_dependent(3, 1));
    }

    #[test]
    fn nested_branches_accumulate_dependencies() {
        // 0 -> {1, 5}; 1 -> {2, 3}; 2 -> 4; 3 -> 4; 4 -> 5; 5: return
        let g = VecGraph::new(
            6,
            0,
            &[(0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
        );
        let cd = ControlDependencies::new(&g, &[5]);
        assert!(cd.is_dependent(1, 0));
        assert!(cd.is_dependent(2, 1));
        assert!(cd.is_dependent(3, 1));
        assert!(cd.is_dependent(4, 0));
        assert!(!cd.is_dependent(4, 1));
        assert!(!cd.is_dependent(5, 0));
    }

    #[test]
    fn straight_line_code_has_no_control_dependence() {
        let g = VecGraph::new(3, 0, &[(0, 1), (1, 2)]);
        let cd = ControlDependencies::new(&g, &[2]);
        for n in 0..3 {
            assert!(cd.dependencies(n).is_empty());
        }
    }

    #[test]
    fn infinite_loop_nodes_do_not_panic() {
        // 0 -> 1 -> 1 (no exit reachable from 1)
        let g = VecGraph::new(2, 0, &[(0, 1), (1, 1)]);
        let cd = ControlDependencies::new(&g, &[]);
        // Nothing to assert beyond "it terminates and is well-formed".
        assert_eq!(cd.len(), 2);
    }
}
