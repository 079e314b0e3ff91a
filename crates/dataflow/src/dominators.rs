//! Dominator and post-dominator trees.
//!
//! Implements the "A Simple, Fast Dominance Algorithm" of Cooper, Harvey and
//! Kennedy, which the paper cites for computing the post-dominator tree used
//! by the control-dependence analysis (§4.1).

use crate::graph::{Graph, VecGraph};

/// The immediate-dominator tree of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominatorTree {
    /// `idom[n]` is the immediate dominator of `n`; the root is its own
    /// immediate dominator; unreachable nodes have `None`.
    idom: Vec<Option<usize>>,
    root: usize,
}

impl DominatorTree {
    /// Computes the dominator tree of `graph` rooted at its start node.
    pub fn new<G: Graph + ?Sized>(graph: &G) -> Self {
        let rpo = graph.reverse_post_order();
        let mut order_index = vec![usize::MAX; graph.num_nodes()];
        for (i, &n) in rpo.iter().enumerate() {
            order_index[n] = i;
        }
        let root = graph.start_node();
        let mut idom: Vec<Option<usize>> = vec![None; graph.num_nodes()];
        idom[root] = Some(root);

        let mut changed = true;
        while changed {
            changed = false;
            for &node in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in graph.predecessors(node) {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[node] != Some(ni) {
                        idom[node] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        DominatorTree { idom, root }
    }

    /// The immediate dominator of `node`, or `None` for the root and for
    /// unreachable nodes.
    pub fn immediate_dominator(&self, node: usize) -> Option<usize> {
        match self.idom.get(node).copied().flatten() {
            Some(d) if node != self.root => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (every path from the root to `b` goes
    /// through `a`). A node dominates itself.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied().flatten().is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.root {
                return false;
            }
            match self.idom[cur] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Whether `node` is reachable from the root.
    pub fn is_reachable(&self, node: usize) -> bool {
        self.idom.get(node).copied().flatten().is_some()
    }

    /// The root of the tree.
    pub fn root(&self) -> usize {
        self.root
    }
}

fn intersect(idom: &[Option<usize>], order_index: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order_index[a] > order_index[b] {
            a = idom[a].expect("node in intersect without idom");
        }
        while order_index[b] > order_index[a] {
            b = idom[b].expect("node in intersect without idom");
        }
    }
    a
}

/// The post-dominator tree of a CFG: the dominator tree of the reversed
/// graph, rooted at a virtual exit that all return nodes feed into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostDominatorTree {
    tree: DominatorTree,
    /// Index of the synthetic exit node appended after the real nodes.
    virtual_exit: usize,
}

impl PostDominatorTree {
    /// Builds the post-dominator tree of `graph`, where `exits` are the
    /// nodes that leave the function (return terminators).
    ///
    /// A virtual exit node is appended and every exit node gets an edge to
    /// it, so the tree is well-defined even with multiple returns. Panic
    /// paths are intentionally *not* included, matching the paper's decision
    /// to exclude panics from control dependence (§4.1).
    pub fn new(graph: &impl Graph, exits: &[usize]) -> Self {
        let n = graph.num_nodes();
        let virtual_exit = n;
        let mut edges = Vec::new();
        for node in 0..n {
            for &succ in graph.successors(node) {
                edges.push((succ, node)); // reversed
            }
        }
        for &e in exits {
            edges.push((virtual_exit, e)); // reversed edge exit -> virtual
        }
        let reversed = VecGraph::new(n + 1, virtual_exit, &edges);
        let tree = DominatorTree::new(&reversed);
        PostDominatorTree { tree, virtual_exit }
    }

    /// Whether `a` post-dominates `b`: every path from `b` to an exit passes
    /// through `a`. A node post-dominates itself.
    pub fn post_dominates(&self, a: usize, b: usize) -> bool {
        self.tree.dominates(a, b)
    }

    /// The immediate post-dominator of `node`, if any (the virtual exit is
    /// reported as `None`).
    pub fn immediate_post_dominator(&self, node: usize) -> Option<usize> {
        match self.tree.immediate_dominator(node) {
            Some(d) if d != self.virtual_exit => Some(d),
            _ => None,
        }
    }

    /// Whether `node` can reach an exit.
    pub fn reaches_exit(&self, node: usize) -> bool {
        self.tree.is_reachable(node)
    }

    /// The synthetic exit node id (one past the last real node).
    pub fn virtual_exit(&self) -> usize {
        self.virtual_exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VecGraph;

    /// The classic if/else diamond: 0 -> {1,2} -> 3.
    fn diamond() -> VecGraph {
        VecGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn dominators_of_diamond() {
        let d = DominatorTree::new(&diamond());
        assert_eq!(d.immediate_dominator(1), Some(0));
        assert_eq!(d.immediate_dominator(2), Some(0));
        assert_eq!(d.immediate_dominator(3), Some(0));
        assert_eq!(d.immediate_dominator(0), None);
        assert!(d.dominates(0, 3));
        assert!(!d.dominates(1, 3));
        assert!(d.dominates(3, 3));
    }

    #[test]
    fn dominators_of_loop() {
        // 0 -> 1 -> 2 -> 1 and 1 -> 3 (loop with exit)
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let d = DominatorTree::new(&g);
        assert_eq!(d.immediate_dominator(2), Some(1));
        assert_eq!(d.immediate_dominator(3), Some(1));
        assert!(d.dominates(1, 2));
        assert!(d.dominates(0, 3));
    }

    #[test]
    fn unreachable_nodes_have_no_dominator() {
        let g = VecGraph::new(3, 0, &[(0, 1)]);
        let d = DominatorTree::new(&g);
        assert!(!d.is_reachable(2));
        assert_eq!(d.immediate_dominator(2), None);
        assert!(!d.dominates(0, 2));
    }

    #[test]
    fn post_dominators_of_diamond() {
        let pd = PostDominatorTree::new(&diamond(), &[3]);
        assert!(pd.post_dominates(3, 0));
        assert!(pd.post_dominates(3, 1));
        assert!(!pd.post_dominates(1, 0));
        assert!(pd.post_dominates(1, 1));
        assert_eq!(pd.immediate_post_dominator(0), Some(3));
        assert_eq!(pd.immediate_post_dominator(1), Some(3));
    }

    #[test]
    fn post_dominators_with_multiple_exits() {
        // 0 -> 1 (return), 0 -> 2 -> 3 (return)
        let g = VecGraph::new(4, 0, &[(0, 1), (0, 2), (2, 3)]);
        let pd = PostDominatorTree::new(&g, &[1, 3]);
        // Neither 1 nor 3 post-dominates 0 because the other path exists.
        assert!(!pd.post_dominates(1, 0));
        assert!(!pd.post_dominates(3, 0));
        assert!(pd.post_dominates(3, 2));
        assert_eq!(pd.immediate_post_dominator(0), None);
    }

    #[test]
    fn loop_body_does_not_post_dominate_header() {
        // while loop: 0 -> 1 (header) -> 2 (body) -> 1, 1 -> 3 (exit/return)
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let pd = PostDominatorTree::new(&g, &[3]);
        assert!(!pd.post_dominates(2, 1));
        assert!(pd.post_dominates(1, 2));
        assert!(pd.post_dominates(3, 0));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive_on_a_chain() {
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 3)]);
        let d = DominatorTree::new(&g);
        for n in 0..4 {
            assert!(d.dominates(n, n));
        }
        assert!(d.dominates(0, 3));
        assert!(d.dominates(1, 3));
        assert!(d.dominates(1, 2));
    }
}
