//! Call graph, recursion detection, function multiplicity and loop info.
//!
//! These by-products of the pointer analysis feed the strong-update
//! criterion of Section 3.2: a store can strongly update `rho` only if its
//! pointer *uniquely points to a concrete location*. An abstract object is
//! concrete when its allocation site executes at most once per run — which
//! we derive from (a) CFG loop membership of the allocation block and
//! (b) how many times the enclosing function can run (the paper's Figure 6
//! example: `b` is abstract because `foo` may be called multiple times).

use usher_ir::{BlockId, FuncId, Function, FxHashMap, FxHashSet, Idx, Module, Site, Terminator};

/// Per-function loop information: which blocks sit on a CFG cycle.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    in_loop: Vec<bool>,
}

impl LoopInfo {
    /// Computes loop membership for `f` via Tarjan SCCs over the CFG.
    /// Successors are read straight off the block terminators (at most
    /// two each), so no adjacency structure is materialized; starting
    /// the DFS at the entry block visits exactly the reachable blocks,
    /// matching the old reachability filter.
    pub fn compute(f: &Function) -> LoopInfo {
        let n = f.blocks.len();
        let mut info = LoopInfo {
            in_loop: vec![false; n],
        };
        if n == 0 {
            return info;
        }
        let succs_of = |v: usize| -> ([usize; 2], usize) {
            match &f.blocks[BlockId(v as u32)].term {
                Terminator::Jmp(b) => ([b.index(), 0], 1),
                Terminator::Br {
                    then_bb, else_bb, ..
                } => ([then_bb.index(), else_bb.index()], 2),
                _ => ([0, 0], 0),
            }
        };
        // Iterative Tarjan from the entry block.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut call_stack: Vec<(usize, usize)> = Vec::new();

        let start = f.entry.index();
        call_stack.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut ei)) = call_stack.last_mut() {
            let (succs, n_succs) = succs_of(v);
            if *ei < n_succs {
                let w = succs[*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    // Root of an SCC.
                    let top = stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("tarjan stack holds the SCC root");
                    let comp = &stack[top..];
                    let self_loop = comp.len() == 1 && succs[..n_succs].contains(&v);
                    if comp.len() > 1 || self_loop {
                        for &w in comp {
                            info.in_loop[w] = true;
                        }
                    }
                    for &w in comp {
                        on_stack[w] = false;
                    }
                    stack.truncate(top);
                }
                call_stack.pop();
                if let Some(&(u, _)) = call_stack.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
        info
    }

    /// Whether `bb` lies on a CFG cycle.
    pub fn in_loop(&self, bb: BlockId) -> bool {
        self.in_loop.get(bb.index()).copied().unwrap_or(false)
    }
}

/// The resolved call graph, including indirect call targets.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Call site -> possible callees.
    pub callees: FxHashMap<Site, Vec<FuncId>>,
    /// Function -> call sites that may invoke it.
    pub callers: FxHashMap<FuncId, Vec<Site>>,
    /// Functions on a call-graph cycle (including self-recursion).
    pub recursive: FxHashSet<FuncId>,
    /// Functions that run at most once per execution.
    pub runs_once: FxHashSet<FuncId>,
    /// Bottom-up SCC order over functions (callees before callers), for
    /// mod/ref summary computation.
    pub bottom_up: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Adds a call edge.
    pub fn add_edge(&mut self, site: Site, callee: FuncId) {
        let cs = self.callees.entry(site).or_default();
        if !cs.contains(&callee) {
            cs.push(callee);
            self.callers.entry(callee).or_default().push(site);
        }
    }

    /// Possible callees of a site (empty if unresolved/external).
    pub fn callees_of(&self, site: Site) -> &[FuncId] {
        self.callees.get(&site).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Finalizes derived info: recursion SCCs, bottom-up order and the
    /// multiplicity analysis. Edge lists are canonicalized (sorted) first,
    /// so downstream consumers (VFG node interning, mod/ref order) see the
    /// same graph regardless of the order the solver discovered edges in.
    pub fn finalize(&mut self, m: &Module, loops: &FxHashMap<FuncId, LoopInfo>) {
        for cs in self.callees.values_mut() {
            cs.sort_unstable();
        }
        for ss in self.callers.values_mut() {
            ss.sort_unstable();
        }
        self.compute_sccs(m);
        self.compute_multiplicity(m, loops);
    }

    fn compute_sccs(&mut self, m: &Module) {
        // Tarjan over the function-level graph (successors collected in
        // sorted site order so the bottom-up SCC order is deterministic).
        let n = m.funcs.len();
        let mut edges: Vec<(Site, FuncId)> = Vec::new();
        for (site, cs) in &self.callees {
            for c in cs {
                edges.push((*site, *c));
            }
        }
        edges.sort_unstable();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (site, c) in edges {
            let out = &mut succs[site.func.index()];
            if !out.contains(&c.index()) {
                out.push(c.index());
            }
        }

        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut next = 0usize;
        let mut call_stack: Vec<(usize, usize)> = Vec::new();
        let mut sccs: Vec<Vec<FuncId>> = Vec::new();

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call_stack.push((start, 0));
            index[start] = next;
            low[start] = next;
            next += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut ei)) = call_stack.last_mut() {
                if *ei < succs[v].len() {
                    let w = succs[v][*ei];
                    *ei += 1;
                    if index[w] == usize::MAX {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        let self_loop = comp.len() == 1 && succs[v].contains(&v);
                        if comp.len() > 1 || self_loop {
                            for f in &comp {
                                self.recursive.insert(*f);
                            }
                        }
                        sccs.push(comp);
                    }
                    call_stack.pop();
                    if let Some(&(u, _)) = call_stack.last() {
                        low[u] = low[u].min(low[v]);
                    }
                }
            }
        }
        // Tarjan emits SCCs in reverse topological order (callees first
        // when edges point caller -> callee): exactly the bottom-up order.
        self.bottom_up = sccs;
    }

    fn compute_multiplicity(&mut self, m: &Module, loops: &FxHashMap<FuncId, LoopInfo>) {
        // main runs once. f runs once iff it is not recursive, has exactly
        // one (static) call site, that site's block is outside any loop,
        // and the caller itself runs once. Iterate to a fixpoint top-down.
        self.runs_once.clear();
        if let Some(main) = m.main {
            self.runs_once.insert(main);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for f in m.funcs.indices() {
                if self.runs_once.contains(&f) || self.recursive.contains(&f) {
                    continue;
                }
                let Some(sites) = self.callers.get(&f) else {
                    continue;
                };
                if sites.len() != 1 {
                    continue;
                }
                let site = sites[0];
                let caller_once = self.runs_once.contains(&site.func);
                let out_of_loop = loops
                    .get(&site.func)
                    .is_some_and(|li| !li.in_loop(site.block));
                if caller_once && out_of_loop {
                    self.runs_once.insert(f);
                    changed = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_ir::{FuncBuilder, Module, Operand, Terminator};

    fn loopy_function() -> Function {
        let mut m = Module::new();
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(header);
        b.set_block(header);
        b.br(Operand::Const(1), body, exit);
        b.set_block(body);
        b.jmp(header);
        b.set_block(exit);
        b.ret(None);
        b.finish();
        m.funcs[fid].clone()
    }

    #[test]
    fn loop_info_marks_cycle_blocks() {
        let f = loopy_function();
        let li = LoopInfo::compute(&f);
        assert!(!li.in_loop(BlockId(0)), "entry is not in a loop");
        assert!(li.in_loop(BlockId(1)), "header is in a loop");
        assert!(li.in_loop(BlockId(2)), "body is in a loop");
        assert!(!li.in_loop(BlockId(3)), "exit is not in a loop");
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut m = Module::new();
        let fid = m.declare_func("g", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let nxt = b.new_block();
        b.jmp(nxt);
        b.set_block(nxt);
        b.ret(None);
        b.finish();
        let li = LoopInfo::compute(&m.funcs[fid]);
        assert!(!li.in_loop(BlockId(0)));
        assert!(!li.in_loop(BlockId(1)));
    }

    #[test]
    fn self_loop_block_detected() {
        let mut m = Module::new();
        let fid = m.declare_func("h", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let s = b.new_block();
        let exit = b.new_block();
        b.jmp(s);
        b.set_block(s);
        b.br(Operand::Const(0), s, exit);
        b.set_block(exit);
        b.ret(None);
        b.finish();
        // Manually check the self-edge case.
        assert!(matches!(
            m.funcs[fid].blocks[BlockId(1)].term,
            Terminator::Br { .. }
        ));
        let li = LoopInfo::compute(&m.funcs[fid]);
        assert!(li.in_loop(BlockId(1)));
        assert!(!li.in_loop(BlockId(2)));
    }

    #[test]
    fn call_graph_edges_and_recursion() {
        let mut m = Module::new();
        let a = m.declare_func("a", None);
        let b = m.declare_func("b", None);
        let c = m.declare_func("c", None);
        m.main = Some(a);
        let mut cg = CallGraph::default();
        let s_ab = Site::new(a, BlockId(0), 0);
        let s_bc = Site::new(b, BlockId(0), 0);
        let s_cb = Site::new(c, BlockId(0), 0);
        cg.add_edge(s_ab, b);
        cg.add_edge(s_bc, c);
        cg.add_edge(s_cb, b); // b <-> c cycle
        let loops: FxHashMap<FuncId, LoopInfo> = m
            .funcs
            .indices()
            .map(|f| (f, LoopInfo::compute(&m.funcs[f])))
            .collect();
        cg.finalize(&m, &loops);
        assert!(cg.recursive.contains(&b));
        assert!(cg.recursive.contains(&c));
        assert!(!cg.recursive.contains(&a));
        assert_eq!(cg.callees_of(s_ab), &[b]);
    }

    #[test]
    fn multiplicity_single_call_chain_runs_once() {
        let mut m = Module::new();
        let main = m.declare_func("main", None);
        let helper = m.declare_func("helper", None);
        m.main = Some(main);
        // Build trivial bodies so LoopInfo works.
        for fid in [main, helper] {
            let mut b = FuncBuilder::new(&mut m, fid);
            b.ret(None);
            b.finish();
        }
        let mut cg = CallGraph::default();
        cg.add_edge(Site::new(main, BlockId(0), 0), helper);
        let loops: FxHashMap<FuncId, LoopInfo> = m
            .funcs
            .indices()
            .map(|f| (f, LoopInfo::compute(&m.funcs[f])))
            .collect();
        cg.finalize(&m, &loops);
        assert!(cg.runs_once.contains(&main));
        assert!(cg.runs_once.contains(&helper));
    }

    #[test]
    fn multiplicity_loop_call_not_once() {
        let mut m = Module::new();
        let main = m.declare_func("main", None);
        let helper = m.declare_func("helper", None);
        m.main = Some(main);
        {
            // main with a loop calling helper in the body.
            let mut b = FuncBuilder::new(&mut m, main);
            let header = b.new_block();
            let body = b.new_block();
            let exit = b.new_block();
            b.jmp(header);
            b.set_block(header);
            b.br(Operand::Const(1), body, exit);
            b.set_block(body);
            b.call(usher_ir::Callee::Direct(helper), vec![], None);
            b.jmp(header);
            b.set_block(exit);
            b.ret(None);
            b.finish();
        }
        {
            let mut b = FuncBuilder::new(&mut m, helper);
            b.ret(None);
            b.finish();
        }
        let mut cg = CallGraph::default();
        cg.add_edge(Site::new(main, BlockId(2), 0), helper);
        let loops: FxHashMap<FuncId, LoopInfo> = m
            .funcs
            .indices()
            .map(|f| (f, LoopInfo::compute(&m.funcs[f])))
            .collect();
        cg.finalize(&m, &loops);
        assert!(!cg.runs_once.contains(&helper));
    }

    #[test]
    fn bottom_up_order_puts_callees_first() {
        let mut m = Module::new();
        let a = m.declare_func("a", None);
        let b = m.declare_func("b", None);
        m.main = Some(a);
        for fid in [a, b] {
            let mut bd = FuncBuilder::new(&mut m, fid);
            bd.ret(None);
            bd.finish();
        }
        let mut cg = CallGraph::default();
        cg.add_edge(Site::new(a, BlockId(0), 0), b);
        let loops: FxHashMap<FuncId, LoopInfo> = m
            .funcs
            .indices()
            .map(|f| (f, LoopInfo::compute(&m.funcs[f])))
            .collect();
        cg.finalize(&m, &loops);
        let pos = |f: FuncId| {
            cg.bottom_up
                .iter()
                .position(|scc| scc.contains(&f))
                .unwrap()
        };
        assert!(pos(b) < pos(a), "callee b must come before caller a");
    }
}
