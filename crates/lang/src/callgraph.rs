//! Call-graph extraction and bottom-up scheduling.
//!
//! The incremental analysis engine exploits the paper's modularity result:
//! a function's information flow summary depends only on its own body and
//! the summaries of its callees. Scheduling summary computation therefore
//! follows the call graph bottom-up — and components whose callees are all
//! summarized can be analyzed in parallel.
//!
//! [`CallGraph::extract`] reads the `Call` terminators of every MIR body;
//! [`CallGraph::sccs`] condenses recursion cycles with Tarjan's algorithm;
//! [`CallGraph::scc_dependency_counts`] and [`CallGraph::scc_callers`] drive
//! a dependency-counting scheduler over the condensation.

use crate::mir::TerminatorKind;
use crate::types::FuncId;
use crate::CompiledProgram;
use std::collections::BTreeSet;

/// The call graph of one [`CompiledProgram`], with its strongly connected
/// components precomputed.
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<BTreeSet<FuncId>>,
    callers: Vec<BTreeSet<FuncId>>,
    /// SCCs in *reverse topological* order: every edge leaves a component
    /// with a higher index, so index 0 only has calls into itself.
    sccs: Vec<Vec<FuncId>>,
    scc_of: Vec<usize>,
    /// Condensation edges: for each SCC, the set of *other* SCCs its members
    /// call into (self-edges within a component are dropped).
    scc_callees: Vec<BTreeSet<usize>>,
    /// Reverse condensation edges: for each SCC, the SCCs that call into it.
    scc_callers: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Reads the call graph out of `program`'s MIR bodies.
    pub fn extract(program: &CompiledProgram) -> CallGraph {
        let n = program.bodies.len();
        let mut callees = vec![BTreeSet::new(); n];
        let mut callers = vec![BTreeSet::new(); n];
        for (idx, body) in program.bodies.iter().enumerate() {
            let caller = FuncId(idx as u32);
            for bb in body.block_ids() {
                if let TerminatorKind::Call { func, .. } = &body.block(bb).terminator().kind {
                    callees[idx].insert(*func);
                    callers[func.0 as usize].insert(caller);
                }
            }
        }
        let (sccs, scc_of) = tarjan_sccs(&callees);
        let mut scc_callees = vec![BTreeSet::new(); sccs.len()];
        let mut scc_callers = vec![BTreeSet::new(); sccs.len()];
        for (idx, members) in sccs.iter().enumerate() {
            for &f in members {
                for &callee in &callees[f.0 as usize] {
                    let callee_scc = scc_of[callee.0 as usize];
                    if callee_scc != idx {
                        scc_callees[idx].insert(callee_scc);
                        scc_callers[callee_scc].insert(idx);
                    }
                }
            }
        }
        CallGraph {
            callees,
            callers,
            sccs,
            scc_of,
            scc_callees,
            scc_callers,
        }
    }

    /// Number of functions in the graph.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// Whether the graph has no functions.
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// Functions directly called by `func`.
    pub fn callees(&self, func: FuncId) -> &BTreeSet<FuncId> {
        &self.callees[func.0 as usize]
    }

    /// Functions that directly call `func`.
    pub fn callers(&self, func: FuncId) -> &BTreeSet<FuncId> {
        &self.callers[func.0 as usize]
    }

    /// The strongly connected components in reverse topological order
    /// (callees before callers). A function outside every cycle forms a
    /// singleton component.
    pub fn sccs(&self) -> &[Vec<FuncId>] {
        &self.sccs
    }

    /// Index (into [`CallGraph::sccs`]) of the component containing `func`.
    pub fn scc_index(&self, func: FuncId) -> usize {
        self.scc_of[func.0 as usize]
    }

    /// The other members of `func`'s component, i.e. the functions `func` is
    /// mutually recursive with (including itself only if it calls itself).
    pub fn scc_members(&self, func: FuncId) -> &[FuncId] {
        &self.sccs[self.scc_of[func.0 as usize]]
    }

    /// Whether `func` participates in any recursion (self-loop or cycle).
    pub fn is_recursive(&self, func: FuncId) -> bool {
        self.scc_members(func).len() > 1 || self.callees(func).contains(&func)
    }

    /// Condensation edges out of component `scc`: the indices of the other
    /// components its members call into. Acyclic by construction.
    pub fn scc_callees(&self, scc: usize) -> &BTreeSet<usize> {
        &self.scc_callees[scc]
    }

    /// Reverse condensation edges: the components that call into `scc`.
    /// These are the components whose dependency counts a scheduler must
    /// decrement when `scc` finishes.
    pub fn scc_callers(&self, scc: usize) -> &BTreeSet<usize> {
        &self.scc_callers[scc]
    }

    /// For every component, the number of distinct callee components it
    /// depends on — the initial values of a dependency-counting scheduler:
    /// a component is ready exactly when its count reaches zero.
    pub fn scc_dependency_counts(&self) -> Vec<usize> {
        self.scc_callees.iter().map(BTreeSet::len).collect()
    }

    /// The length of the condensation's critical path: the number of
    /// sequential scheduling steps no parallel schedule can avoid.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.sccs.len()];
        for idx in 0..self.sccs.len() {
            let d = self.scc_callees[idx]
                .iter()
                .map(|&c| depth[c] + 1)
                .max()
                .unwrap_or(0);
            depth[idx] = d;
        }
        if self.sccs.is_empty() {
            0
        } else {
            depth.iter().copied().max().unwrap_or(0) + 1
        }
    }

    /// Every function whose analysis (transitively) depends on `func`:
    /// `func` itself, its callers, their callers, and so on. This is the
    /// invalidation set when `func`'s body changes.
    pub fn transitive_callers(&self, func: FuncId) -> BTreeSet<FuncId> {
        let mut out = BTreeSet::new();
        let mut stack = vec![func];
        while let Some(f) = stack.pop() {
            if out.insert(f) {
                stack.extend(self.callers(f).iter().copied());
            }
        }
        out
    }
}

/// Iterative Tarjan SCC over the callee adjacency lists. Returns the
/// components in reverse topological order plus the component index of every
/// function.
fn tarjan_sccs(callees: &[BTreeSet<FuncId>]) -> (Vec<Vec<FuncId>>, Vec<usize>) {
    let n = callees.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    let mut scc_of = vec![0usize; n];

    // Explicit DFS frame: (node, iterator position into its callee list).
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames = vec![Frame::Enter(root)];
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, child_pos) => {
                    let succs: Vec<usize> = callees[v].iter().map(|f| f.0 as usize).collect();
                    if child_pos > 0 {
                        // We just returned from the previous child.
                        let w = succs[child_pos - 1];
                        lowlink[v] = lowlink[v].min(lowlink[w]);
                    }
                    let mut advanced = false;
                    for (pos, &w) in succs.iter().enumerate().skip(child_pos) {
                        if index[w] == UNVISITED {
                            frames.push(Frame::Resume(v, pos + 1));
                            frames.push(Frame::Enter(w));
                            advanced = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if advanced {
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            scc_of[w] = sccs.len();
                            component.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        component.sort();
                        sccs.push(component);
                    }
                }
            }
        }
    }

    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn graph(src: &str) -> (CompiledProgram, CallGraph) {
        let prog = compile(src).expect("test program compiles");
        let cg = CallGraph::extract(&prog);
        (prog, cg)
    }

    const CHAIN: &str = "
        fn leaf(x: i32) -> i32 { return x + 1; }
        fn mid(x: i32) -> i32 { return leaf(x) + leaf(x + 1); }
        fn top(x: i32) -> i32 { return mid(x); }
    ";

    #[test]
    fn edges_follow_call_terminators() {
        let (prog, cg) = graph(CHAIN);
        let leaf = prog.func_id("leaf").unwrap();
        let mid = prog.func_id("mid").unwrap();
        let top = prog.func_id("top").unwrap();
        assert_eq!(cg.len(), 3);
        assert!(!cg.is_empty());
        assert!(cg.callees(mid).contains(&leaf));
        assert!(cg.callees(top).contains(&mid));
        assert!(cg.callees(leaf).is_empty());
        assert!(cg.callers(leaf).contains(&mid));
        assert!(cg.callers(top).is_empty());
    }

    #[test]
    fn components_are_indexed_bottom_up() {
        let (prog, cg) = graph(CHAIN);
        let scc = |name: &str| cg.scc_index(prog.func_id(name).unwrap());
        assert!(scc("leaf") < scc("mid"));
        assert!(scc("mid") < scc("top"));
    }

    #[test]
    fn recursion_collapses_into_one_component() {
        let (prog, cg) = graph(
            "fn even(n: i32) -> bool { if n == 0 { return true; } return odd(n - 1); }
             fn odd(n: i32) -> bool { if n == 0 { return false; } return even(n - 1); }
             fn driver(n: i32) -> bool { return even(n); }",
        );
        let even = prog.func_id("even").unwrap();
        let odd = prog.func_id("odd").unwrap();
        let driver = prog.func_id("driver").unwrap();
        assert_eq!(cg.scc_index(even), cg.scc_index(odd));
        assert_ne!(cg.scc_index(even), cg.scc_index(driver));
        assert_eq!(cg.scc_members(even).len(), 2);
        assert!(cg.is_recursive(even));
        assert!(!cg.is_recursive(driver));
        // The recursive pair is scheduled before the driver.
        assert!(cg.scc_index(even) < cg.scc_index(driver));
    }

    #[test]
    fn self_recursion_is_detected() {
        let (prog, cg) =
            graph("fn fact(n: i32) -> i32 { if n <= 1 { return 1; } return n * fact(n - 1); }");
        let fact = prog.func_id("fact").unwrap();
        assert!(cg.is_recursive(fact));
        assert_eq!(cg.scc_members(fact), &[fact]);
    }

    #[test]
    fn transitive_callers_cover_the_invalidation_set() {
        let (prog, cg) = graph(CHAIN);
        let leaf = prog.func_id("leaf").unwrap();
        let mid = prog.func_id("mid").unwrap();
        let top = prog.func_id("top").unwrap();
        assert_eq!(
            cg.transitive_callers(leaf),
            [leaf, mid, top].into_iter().collect()
        );
        assert_eq!(cg.transitive_callers(top), [top].into_iter().collect());
    }

    #[test]
    fn condensation_edges_follow_call_edges() {
        let (prog, cg) = graph(CHAIN);
        let leaf = cg.scc_index(prog.func_id("leaf").unwrap());
        let mid = cg.scc_index(prog.func_id("mid").unwrap());
        let top = cg.scc_index(prog.func_id("top").unwrap());
        assert_eq!(cg.scc_callees(top), &[mid].into_iter().collect());
        assert_eq!(cg.scc_callees(mid), &[leaf].into_iter().collect());
        assert!(cg.scc_callees(leaf).is_empty());
        assert_eq!(cg.scc_callers(leaf), &[mid].into_iter().collect());
        assert_eq!(cg.scc_callers(mid), &[top].into_iter().collect());
        assert!(cg.scc_callers(top).is_empty());
    }

    #[test]
    fn condensation_drops_intra_component_edges() {
        let (prog, cg) = graph(
            "fn even(n: i32) -> bool { if n == 0 { return true; } return odd(n - 1); }
             fn odd(n: i32) -> bool { if n == 0 { return false; } return even(n - 1); }
             fn driver(n: i32) -> bool { return even(n); }",
        );
        let pair = cg.scc_index(prog.func_id("even").unwrap());
        let driver = cg.scc_index(prog.func_id("driver").unwrap());
        // The even↔odd cycle collapses: no condensation self-edge.
        assert!(cg.scc_callees(pair).is_empty());
        assert_eq!(cg.scc_callers(pair), &[driver].into_iter().collect());
        let counts = cg.scc_dependency_counts();
        assert_eq!(counts[pair], 0);
        assert_eq!(counts[driver], 1);
    }

    #[test]
    fn dependency_counts_match_condensation_out_degree() {
        let (_, cg) = graph(CHAIN);
        let counts = cg.scc_dependency_counts();
        assert_eq!(counts.len(), cg.sccs().len());
        for (idx, &count) in counts.iter().enumerate() {
            assert_eq!(count, cg.scc_callees(idx).len());
        }
        // Exactly one component (the leaf) starts ready.
        assert_eq!(counts.iter().filter(|&&c| c == 0).count(), 1);
    }

    #[test]
    fn critical_path_counts_the_longest_component_chain() {
        for (src, len) in [
            (CHAIN, 3),
            ("fn a(x: i32) -> i32 { return x; }", 1),
            (
                "fn a(x: i32) -> i32 { return b(x) + c(x); }
                 fn b(x: i32) -> i32 { return d(x); }
                 fn c(x: i32) -> i32 { return d(x); }
                 fn d(x: i32) -> i32 { return x; }",
                3,
            ),
        ] {
            let (_, cg) = graph(src);
            assert_eq!(cg.critical_path_len(), len);
        }
    }
}
