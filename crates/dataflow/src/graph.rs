//! A minimal directed-graph abstraction for control-flow graphs.

use crate::dominators::DominatorTree;

/// A directed graph whose nodes are `0..num_nodes()`.
///
/// Control-flow graphs implement this trait so the dominator, control
/// dependence and dataflow algorithms can stay independent of the MIR
/// representation.
pub trait Graph {
    /// Number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// The entry node.
    fn start_node(&self) -> usize;
    /// Successors of `node`, in edge order.
    fn successors(&self, node: usize) -> &[usize];
    /// Predecessors of `node`, in edge order.
    fn predecessors(&self, node: usize) -> &[usize];

    /// The nodes reachable from the start node, in the reverse post-order
    /// of a depth-first search that explores each node's successors in
    /// edge order. Every edge that is not retreating goes forward in it (a
    /// topological order for acyclic graphs). Where a loop's body lands
    /// relative to the code after the loop depends on that successor
    /// order; [`Graph::loop_aware_reverse_post_order`] does not.
    fn reverse_post_order(&self) -> Vec<usize> {
        depth_first_reverse_post_order(self, &[])
    }

    /// A reverse post-order in which every loop body, at every nesting
    /// depth, comes before the nodes its loop exits to.
    ///
    /// Loops are natural loops: a back edge `u → h` is an edge whose target
    /// `h` dominates `u`, and the loop of header `h` is `h` plus every node
    /// that reaches a back edge into `h` without passing `h`. The
    /// depth-first search explores, on entering a header, the targets of
    /// every edge leaving its loop before the header's own successors, so
    /// those exits finish — and land in the order — after the whole body.
    /// No edge enters a natural loop except at its header, so an exit's
    /// subtree cannot pull a body node ahead of it. In a reducible graph,
    /// which structured code lowers to, every edge but the back edges
    /// still goes forward.
    ///
    /// A forward dataflow fixpoint that takes its worklist priority from
    /// this order re-runs a loop's body, not the code after the loop, each
    /// time the loop header's state grows.
    fn loop_aware_reverse_post_order(&self) -> Vec<usize> {
        let rpo = self.reverse_post_order();
        let doms = DominatorTree::new(self);
        let n = self.num_nodes();
        let mut index = vec![usize::MAX; n];
        for (i, &node) in rpo.iter().enumerate() {
            index[node] = i;
        }
        // Per header, the targets of the edges leaving its loop.
        // `in_body[x]` (`in_exits[x]`) is the last header whose loop body
        // (exit list) took `x`.
        let mut exits = vec![Vec::new(); n];
        let (mut in_body, mut in_exits) = (vec![usize::MAX; n], vec![usize::MAX; n]);
        let (mut body, mut stack) = (Vec::new(), Vec::new());
        for &header in &rpo {
            in_body[header] = header;
            body.clear();
            body.push(header);
            // A back edge is a retreating edge whose target dominates its
            // source; walking predecessors from its source up to the
            // header collects the loop.
            let mut is_header = false;
            for &source in self.predecessors(header) {
                if index[source] != usize::MAX
                    && index[header] <= index[source]
                    && doms.dominates(header, source)
                {
                    is_header = true;
                    if in_body[source] != header {
                        in_body[source] = header;
                        stack.push(source);
                    }
                }
            }
            if !is_header {
                continue;
            }
            while let Some(node) = stack.pop() {
                body.push(node);
                for &pred in self.predecessors(node) {
                    if index[pred] != usize::MAX && in_body[pred] != header {
                        in_body[pred] = header;
                        stack.push(pred);
                    }
                }
            }
            let header_exits = &mut exits[header];
            for &node in &body {
                for &succ in self.successors(node) {
                    if in_body[succ] != header && in_exits[succ] != header {
                        in_exits[succ] = header;
                        header_exits.push(succ);
                    }
                }
            }
            // The search finishes the exit it explores first last, so
            // exploring them in decreasing plain order keeps their plain
            // relative order.
            header_exits.sort_unstable_by_key(|&exit| std::cmp::Reverse(index[exit]));
        }
        depth_first_reverse_post_order(self, &exits)
    }

    /// Nodes reachable from the start node.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![self.start_node()];
        seen[self.start_node()] = true;
        while let Some(n) = stack.pop() {
            for &s in self.successors(n) {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// The reverse post-order of an iterative depth-first search from the start
/// node that explores, at each node, `first[node]` (when present) before
/// the node's successors.
fn depth_first_reverse_post_order<G: Graph + ?Sized>(
    graph: &G,
    first: &[Vec<usize>],
) -> Vec<usize> {
    let children = |node: usize| {
        let first: &[usize] = first.get(node).map_or(&[], Vec::as_slice);
        first.iter().chain(graph.successors(node))
    };
    let start = graph.start_node();
    let mut visited = vec![false; graph.num_nodes()];
    let mut post = Vec::with_capacity(graph.num_nodes());
    visited[start] = true;
    // An explicit stack of (node, its children not yet explored).
    let mut stack = vec![(start, children(start))];
    while let Some((node, rest)) = stack.last_mut() {
        match rest.next() {
            Some(&child) => {
                if !visited[child] {
                    visited[child] = true;
                    stack.push((child, children(child)));
                }
            }
            None => {
                post.push(*node);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// A simple adjacency-list graph, useful for tests and for building derived
/// graphs (e.g. the reversed CFG used for post-dominators).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecGraph {
    start: usize,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl VecGraph {
    /// Builds a graph with `n` nodes, the given entry node, and edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint or the start node is out of range.
    pub fn new(n: usize, start: usize, edges: &[(usize, usize)]) -> Self {
        assert!(start < n, "start node out of range");
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            succs[a].push(b);
            preds[b].push(a);
        }
        VecGraph {
            start,
            succs,
            preds,
        }
    }

    /// The graph with every edge reversed and a new start node.
    pub fn reversed(&self, new_start: usize) -> VecGraph {
        let mut edges = Vec::new();
        for (a, succs) in self.succs.iter().enumerate() {
            for &b in succs {
                edges.push((b, a));
            }
        }
        VecGraph::new(self.succs.len(), new_start, &edges)
    }
}

impl Graph for VecGraph {
    fn num_nodes(&self) -> usize {
        self.succs.len()
    }
    fn start_node(&self) -> usize {
        self.start
    }
    fn successors(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }
    fn predecessors(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> VecGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        VecGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn successors_and_predecessors() {
        let g = diamond();
        assert_eq!(g.successors(0), vec![1, 2]);
        assert_eq!(g.predecessors(3), vec![1, 2]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.start_node(), 0);
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let g = diamond();
        let rpo = g.reverse_post_order();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 4);
        // 3 must come after both 1 and 2.
        let pos = |n: usize| rpo.iter().position(|&x| x == n).unwrap();
        assert!(pos(3) > pos(1));
        assert!(pos(3) > pos(2));
    }

    #[test]
    fn reverse_post_order_handles_cycles() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let g = VecGraph::new(4, 0, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let rpo = g.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], 0);
    }

    /// Checks `g`'s loop-aware order against the definition, with loops
    /// found by brute force: the order lists every reachable node once;
    /// every loop body, at every depth, precedes the targets of the edges
    /// leaving the loop (other than back edges, which go to an enclosing
    /// header); every other edge goes forward. Returns the order.
    fn assert_loop_aware(g: &VecGraph) -> Vec<usize> {
        let order = g.loop_aware_reverse_post_order();
        let reachable = g.reachable();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let expected: Vec<usize> = (0..g.num_nodes()).filter(|&n| reachable[n]).collect();
        assert_eq!(
            sorted, expected,
            "order {order:?} is not the reachable nodes"
        );
        let pos = |n: usize| order.iter().position(|&x| x == n).unwrap();
        let doms = DominatorTree::new(g);
        let edges: Vec<(usize, usize)> = (0..g.num_nodes())
            .filter(|&n| reachable[n])
            .flat_map(|u| g.successors(u).iter().map(move |&v| (u, v)))
            .collect();
        let is_back = |(u, v): (usize, usize)| doms.dominates(v, u);
        for &(u, v) in &edges {
            if is_back((u, v)) {
                // The loop of back edge u -> v: v plus every node reaching
                // u without passing v.
                let mut body = vec![v];
                let mut stack = vec![u];
                while let Some(x) = stack.pop() {
                    if !body.contains(&x) {
                        body.push(x);
                        stack.extend(g.predecessors(x).iter().filter(|&&p| reachable[p]));
                    }
                }
                for &(x, exit) in &edges {
                    if body.contains(&x) && !body.contains(&exit) && !is_back((x, exit)) {
                        for &node in &body {
                            assert!(
                                pos(node) < pos(exit),
                                "loop {v}: body node {node} after exit {exit} in {order:?}"
                            );
                        }
                    }
                }
            } else {
                assert!(pos(u) < pos(v), "edge {u} -> {v} goes back in {order:?}");
            }
        }
        order
    }

    #[test]
    fn loop_aware_order_puts_a_while_body_before_its_exit() {
        // 0 -> 1 (header) -> {2 (body) -> 1, 3 (exit) -> 4}, successors
        // listed body first, as `while` lowers, and exit first.
        let body_first = VecGraph::new(5, 0, &[(0, 1), (1, 2), (1, 3), (2, 1), (3, 4)]);
        let exit_first = VecGraph::new(5, 0, &[(0, 1), (1, 3), (1, 2), (2, 1), (3, 4)]);
        assert_eq!(body_first.reverse_post_order(), vec![0, 1, 3, 4, 2]);
        assert_eq!(assert_loop_aware(&body_first), vec![0, 1, 2, 3, 4]);
        assert_eq!(assert_loop_aware(&exit_first), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn loop_aware_order_handles_break_in_either_branch() {
        // loop { if c { break; } else { 4 } }: 0 -> 1 (header) -> 2
        // (switch) -> {3 (break) -> 5, 4 -> 1}, and the same with the
        // break on the else branch; the exit edge leaves from inside the
        // body, not from the header.
        let then_break = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 1), (5, 6)];
        let else_break = [(0, 1), (1, 2), (2, 4), (2, 3), (3, 5), (4, 1), (5, 6)];
        for edges in [then_break, else_break] {
            let order = assert_loop_aware(&VecGraph::new(7, 0, &edges));
            assert_eq!(&order[5..], [5, 6]);
        }
    }

    #[test]
    fn loop_aware_order_keeps_a_branch_that_skips_the_break_inside() {
        // loop { if p { 3 } else { if c { break; } 7 } }: the then branch
        // 3 -> 6 never passes the break, yet 3 and 6 are body nodes that
        // must precede the exit 8.
        let g = VecGraph::new(
            10,
            0,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 6),
                (4, 5),
                (4, 7),
                (5, 8),
                (7, 6),
                (6, 1),
                (8, 9),
            ],
        );
        let order = assert_loop_aware(&g);
        assert_eq!(&order[8..], [8, 9]);
    }

    #[test]
    fn loop_aware_order_nests() {
        // while a { while b { 3; if c { break out of both: 3 -> 7 } } 5 }:
        // 1 outer header, 2 inner header, 3 inner body with an exit to 7
        // past both loops, 4 after the inner loop, 5 -> 1, 6 outer exit.
        let g = VecGraph::new(
            8,
            0,
            &[
                (0, 1),
                (1, 2),
                (1, 6),
                (2, 3),
                (2, 4),
                (3, 2),
                (3, 7),
                (4, 5),
                (5, 1),
                (6, 7),
            ],
        );
        let order = assert_loop_aware(&g);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // An inner loop whose exit edge is the outer loop's back edge.
        let direct = VecGraph::new(5, 0, &[(0, 1), (1, 2), (1, 4), (2, 3), (2, 1), (3, 2)]);
        assert_loop_aware(&direct);
    }

    #[test]
    fn loop_aware_order_handles_self_loops_and_unreachable_blocks() {
        // 0 -> 1 -> 1 (self-loop) -> 2; 3 is unreachable and jumps into a
        // loop body, which must not pull it into the loop or the order.
        for edges in [
            [(0, 1), (1, 1), (1, 2), (3, 1)],
            [(0, 1), (1, 2), (1, 1), (3, 1)],
        ] {
            assert_eq!(
                assert_loop_aware(&VecGraph::new(4, 0, &edges)),
                vec![0, 1, 2]
            );
        }
        let g = VecGraph::new(
            6,
            0,
            &[(0, 1), (1, 2), (1, 4), (2, 3), (3, 1), (5, 3), (4, 5)],
        );
        assert_loop_aware(&g);
        let g = VecGraph::new(6, 0, &[(0, 1), (1, 2), (1, 4), (2, 3), (3, 1), (5, 3)]);
        assert_eq!(assert_loop_aware(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reachability_ignores_disconnected_nodes() {
        let g = VecGraph::new(5, 0, &[(0, 1), (1, 2)]);
        let reach = g.reachable();
        assert_eq!(reach, vec![true, true, true, false, false]);
    }

    #[test]
    fn reversed_graph_swaps_edges() {
        let g = diamond();
        let r = g.reversed(3);
        assert_eq!(r.successors(3), vec![1, 2]);
        assert_eq!(r.predecessors(0), vec![1, 2]);
        assert_eq!(r.start_node(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let _ = VecGraph::new(2, 0, &[(0, 5)]);
    }
}
