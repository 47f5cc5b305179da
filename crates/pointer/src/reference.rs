//! The original `BTreeSet`-based Andersen solver, retained verbatim as
//! the equivalence baseline for the bitmap solver in [`crate::andersen`].
//!
//! It is the baseline of the pointer timing gate in `tests/perf_gates.rs`
//! and the oracle for the representation-equivalence property tests:
//! both solvers must produce
//! identical [`PointerAnalysis`] tables (up to the shared finalization in
//! `andersen::finish_analysis`). Keep its semantics frozen — fixes and
//! optimizations go into the bitmap solver only.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use usher_ir::{
    Budget, Callee, Exhausted, FuncId, GepOffset, Inst, Module, ObjId, Operand, Site, Terminator,
    VarId,
};

use crate::andersen::{finish_analysis, object_reps, Loc, PointerAnalysis, SolverStats, Target};
use crate::callgraph::CallGraph;

/// Runs the reference (pre-overhaul) analysis over a module.
pub fn analyze_reference(m: &Module) -> PointerAnalysis {
    analyze_reference_budgeted(m, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// The reference analysis under a cooperative step budget (one step per
/// worklist pop, matching the bitmap solver's charging granularity).
/// With [`Budget::unlimited`] this is byte-identical to the frozen
/// [`analyze_reference`] semantics — the only addition is the counter.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out before the fixpoint.
pub fn analyze_reference_budgeted(
    m: &Module,
    budget: &Budget,
) -> Result<PointerAnalysis, Exhausted> {
    let mut s = Solver::new(m);
    s.seed();
    s.solve(budget)?;
    Ok(s.finish())
}

/// Solver node kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Var(FuncId, VarId),
    Mem(Loc),
    Ret(FuncId),
}

#[derive(Clone, Debug)]
enum GepKind {
    Field(u32),
    Dynamic,
}

#[derive(Clone, Copy, Debug)]
enum StoreSrc {
    Node(u32),
    Const(Target),
}

struct Solver<'m> {
    m: &'m Module,
    node_ids: HashMap<Node, u32>,
    nodes: Vec<Node>,
    parent: Vec<u32>,
    pts: Vec<BTreeSet<Target>>,
    delta: Vec<Vec<Target>>,
    copy_succs: Vec<BTreeSet<u32>>,
    load_cons: Vec<Vec<u32>>,
    store_cons: Vec<Vec<StoreSrc>>,
    gep_cons: Vec<Vec<(GepKind, u32)>>,
    call_cons: Vec<Vec<Site>>,
    site_info: HashMap<Site, (Vec<Operand>, Option<VarId>)>,
    wired: HashSet<(Site, FuncId)>,
    worklist: VecDeque<u32>,
    in_wl: Vec<bool>,
    cg: CallGraph,
    reps: usher_ir::FxHashMap<ObjId, Vec<u32>>,
    pops: usize,
    merges: usize,
}

impl<'m> Solver<'m> {
    fn new(m: &'m Module) -> Self {
        Solver {
            m,
            node_ids: HashMap::new(),
            nodes: Vec::new(),
            parent: Vec::new(),
            pts: Vec::new(),
            delta: Vec::new(),
            copy_succs: Vec::new(),
            load_cons: Vec::new(),
            store_cons: Vec::new(),
            gep_cons: Vec::new(),
            call_cons: Vec::new(),
            site_info: HashMap::new(),
            wired: HashSet::new(),
            worklist: VecDeque::new(),
            in_wl: Vec::new(),
            cg: CallGraph::default(),
            reps: object_reps(m),
            pops: 0,
            merges: 0,
        }
    }

    fn node(&mut self, n: Node) -> u32 {
        if let Some(&id) = self.node_ids.get(&n) {
            return self.find(id);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        self.parent.push(id);
        self.pts.push(BTreeSet::new());
        self.delta.push(Vec::new());
        self.copy_succs.push(BTreeSet::new());
        self.load_cons.push(Vec::new());
        self.store_cons.push(Vec::new());
        self.gep_cons.push(Vec::new());
        self.call_cons.push(Vec::new());
        self.in_wl.push(false);
        self.node_ids.insert(n, id);
        id
    }

    fn find(&mut self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            let gp = self.parent[self.parent[n as usize] as usize];
            self.parent[n as usize] = gp;
            n = gp;
        }
        n
    }

    fn rep_loc(&self, obj: ObjId, cell: u32) -> Loc {
        let reps = &self.reps[&obj];
        if reps.is_empty() {
            return Loc { obj, field: 0 };
        }
        let c = (cell as usize) % reps.len();
        Loc {
            obj,
            field: reps[c],
        }
    }

    fn enqueue(&mut self, n: u32) {
        let n = self.find(n);
        if !self.in_wl[n as usize] && !self.delta[n as usize].is_empty() {
            self.in_wl[n as usize] = true;
            self.worklist.push_back(n);
        }
    }

    fn add_targets(&mut self, n: u32, ts: impl IntoIterator<Item = Target>) {
        let n = self.find(n);
        let mut added = false;
        for t in ts {
            if self.pts[n as usize].insert(t) {
                self.delta[n as usize].push(t);
                added = true;
            }
        }
        if added {
            self.enqueue(n);
        }
    }

    fn add_copy_edge(&mut self, from: u32, to: u32) {
        let from = self.find(from);
        let to = self.find(to);
        if from == to {
            return;
        }
        if self.copy_succs[from as usize].insert(to) {
            let ts: Vec<Target> = self.pts[from as usize].iter().copied().collect();
            self.add_targets(to, ts);
        }
    }

    fn operand_node(&mut self, f: FuncId, op: Operand) -> Option<u32> {
        match op {
            Operand::Var(v) => Some(self.node(Node::Var(f, v))),
            _ => None,
        }
    }

    fn operand_const_targets(&self, op: Operand) -> Vec<Target> {
        match op {
            Operand::Global(o) => vec![Target::Loc(Loc { obj: o, field: 0 })],
            Operand::Func(g) => vec![Target::Func(g)],
            _ => Vec::new(),
        }
    }

    fn flow_into(&mut self, f: FuncId, op: Operand, dst: u32) {
        match self.operand_node(f, op) {
            Some(n) => self.add_copy_edge(n, dst),
            None => {
                let ts = self.operand_const_targets(op);
                self.add_targets(dst, ts);
            }
        }
    }

    fn seed(&mut self) {
        for (fid, func) in self.m.funcs.iter_enumerated() {
            for (bb, block) in func.blocks.iter_enumerated() {
                for (idx, inst) in block.insts.iter().enumerate() {
                    self.seed_inst(fid, Site::new(fid, bb, idx), inst);
                }
                if let Terminator::Ret(Some(op)) = &block.term {
                    let r = self.node(Node::Ret(fid));
                    self.flow_into(fid, *op, r);
                }
            }
        }
    }

    fn seed_inst(&mut self, f: FuncId, site: Site, inst: &Inst) {
        match inst {
            Inst::Copy { dst, src } => {
                let d = self.node(Node::Var(f, *dst));
                self.flow_into(f, *src, d);
            }
            Inst::Un { .. } | Inst::Bin { .. } => {}
            Inst::Alloc { dst, obj, .. } => {
                let d = self.node(Node::Var(f, *dst));
                self.add_targets(
                    d,
                    [Target::Loc(Loc {
                        obj: *obj,
                        field: 0,
                    })],
                );
            }
            Inst::Gep { dst, base, offset } => {
                let d = self.node(Node::Var(f, *dst));
                let kind = match offset {
                    GepOffset::Field(k) => GepKind::Field(*k),
                    GepOffset::Index { .. } => GepKind::Dynamic,
                };
                match self.operand_node(f, *base) {
                    Some(b) => {
                        let b = self.find(b);
                        self.gep_cons[b as usize].push((kind.clone(), d));
                        let existing: Vec<Target> = self.pts[b as usize].iter().copied().collect();
                        for t in existing {
                            if let Target::Loc(l) = t {
                                let shifted = self.shift(l, &kind);
                                self.add_targets(d, shifted.into_iter().map(Target::Loc));
                            }
                        }
                    }
                    None => {
                        for t in self.operand_const_targets(*base) {
                            if let Target::Loc(l) = t {
                                let shifted = self.shift(l, &kind);
                                self.add_targets(d, shifted.into_iter().map(Target::Loc));
                            }
                        }
                    }
                }
            }
            Inst::Load { dst, addr } => {
                let d = self.node(Node::Var(f, *dst));
                match self.operand_node(f, *addr) {
                    Some(a) => {
                        let a = self.find(a);
                        self.load_cons[a as usize].push(d);
                        let existing: Vec<Target> = self.pts[a as usize].iter().copied().collect();
                        for t in existing {
                            if let Target::Loc(l) = t {
                                let mn = self.node(Node::Mem(l));
                                self.add_copy_edge(mn, d);
                            }
                        }
                    }
                    None => {
                        for t in self.operand_const_targets(*addr) {
                            if let Target::Loc(l) = t {
                                let mn = self.node(Node::Mem(l));
                                self.add_copy_edge(mn, d);
                            }
                        }
                    }
                }
            }
            Inst::Store { addr, val } => {
                let src = match self.operand_node(f, *val) {
                    Some(n) => StoreSrc::Node(n),
                    None => match self.operand_const_targets(*val).first() {
                        Some(t) => StoreSrc::Const(*t),
                        None => return,
                    },
                };
                match self.operand_node(f, *addr) {
                    Some(a) => {
                        let a = self.find(a);
                        self.store_cons[a as usize].push(src);
                        let existing: Vec<Target> = self.pts[a as usize].iter().copied().collect();
                        for t in existing {
                            if let Target::Loc(l) = t {
                                self.apply_store(src, l);
                            }
                        }
                    }
                    None => {
                        for t in self.operand_const_targets(*addr) {
                            if let Target::Loc(l) = t {
                                self.apply_store(src, l);
                            }
                        }
                    }
                }
            }
            Inst::Call { dst, callee, args } => {
                self.site_info.insert(site, (args.clone(), *dst));
                match callee {
                    Callee::Direct(g) => self.wire_call(site, *g),
                    Callee::Indirect(op) => match self.operand_node(f, *op) {
                        Some(t) => {
                            let t = self.find(t);
                            self.call_cons[t as usize].push(site);
                            let existing: Vec<Target> =
                                self.pts[t as usize].iter().copied().collect();
                            for tg in existing {
                                if let Target::Func(g) = tg {
                                    self.wire_call(site, g);
                                }
                            }
                        }
                        None => {
                            if let Operand::Func(g) = op {
                                self.wire_call(site, *g);
                            }
                        }
                    },
                    Callee::External(_) => {}
                }
            }
            Inst::Phi { dst, incomings } => {
                let d = self.node(Node::Var(f, *dst));
                for (_, op) in incomings {
                    self.flow_into(f, *op, d);
                }
            }
        }
    }

    fn apply_store(&mut self, src: StoreSrc, loc: Loc) {
        let mn = self.node(Node::Mem(loc));
        match src {
            StoreSrc::Node(n) => self.add_copy_edge(n, mn),
            StoreSrc::Const(t) => self.add_targets(mn, [t]),
        }
    }

    fn shift(&self, l: Loc, kind: &GepKind) -> Vec<Loc> {
        let obj = &self.m.objects[l.obj];
        match kind {
            GepKind::Field(k) => {
                if obj.is_array {
                    vec![Loc {
                        obj: l.obj,
                        field: 0,
                    }]
                } else {
                    let cell = l.field + k;
                    vec![self.rep_loc(l.obj, cell)]
                }
            }
            GepKind::Dynamic => {
                if obj.is_array {
                    vec![Loc {
                        obj: l.obj,
                        field: 0,
                    }]
                } else {
                    let mut out: Vec<u32> = self.reps[&l.obj].clone();
                    out.sort_unstable();
                    out.dedup();
                    out.into_iter()
                        .map(|field| Loc { obj: l.obj, field })
                        .collect()
                }
            }
        }
    }

    fn wire_call(&mut self, site: Site, g: FuncId) {
        if !self.wired.insert((site, g)) {
            return;
        }
        self.cg.add_edge(site, g);
        let (args, dst) = self.site_info[&site].clone();
        let callee = &self.m.funcs[g];
        let params: Vec<VarId> = callee.params.clone();
        for (p, a) in params.iter().zip(args.iter()) {
            let pn = self.node(Node::Var(g, *p));
            self.flow_into(site.func, *a, pn);
        }
        if let Some(d) = dst {
            let dn = self.node(Node::Var(site.func, d));
            let rn = self.node(Node::Ret(g));
            self.add_copy_edge(rn, dn);
        }
    }

    fn solve(&mut self, budget: &Budget) -> Result<(), Exhausted> {
        while let Some(n) = self.worklist.pop_front() {
            budget.try_charge(1)?;
            let n = self.find(n);
            self.in_wl[n as usize] = false;
            let delta = std::mem::take(&mut self.delta[n as usize]);
            if delta.is_empty() {
                continue;
            }
            self.pops += 1;
            if self.pops.is_multiple_of(20_000) {
                self.collapse_cycles();
            }

            let succs: Vec<u32> = self.copy_succs[n as usize].iter().copied().collect();
            for s in succs {
                self.add_targets(s, delta.iter().copied());
            }
            let loads = self.load_cons[n as usize].clone();
            let stores = self.store_cons[n as usize].clone();
            let geps = self.gep_cons[n as usize].clone();
            let calls = self.call_cons[n as usize].clone();
            for t in &delta {
                match t {
                    Target::Loc(l) => {
                        for &d in &loads {
                            let mn = self.node(Node::Mem(*l));
                            self.add_copy_edge(mn, d);
                        }
                        for &src in &stores {
                            self.apply_store(src, *l);
                        }
                        for (kind, d) in &geps {
                            let shifted = self.shift(*l, kind);
                            self.add_targets(*d, shifted.into_iter().map(Target::Loc));
                        }
                    }
                    Target::Func(g) => {
                        for &site in &calls {
                            self.wire_call(site, *g);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn collapse_cycles(&mut self) {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next = 0usize;
        let mut call_stack: Vec<(u32, Vec<u32>, usize)> = Vec::new();
        let mut merges: Vec<Vec<u32>> = Vec::new();

        for start in 0..n as u32 {
            if self.parent[start as usize] != start || index[start as usize] != usize::MAX {
                continue;
            }
            let raw: Vec<u32> = self.copy_succs[start as usize].iter().copied().collect();
            let succs: Vec<u32> = raw.into_iter().map(|s| self.find(s)).collect();
            call_stack.push((start, succs, 0));
            index[start as usize] = next;
            low[start as usize] = next;
            next += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some((v, succs, ei)) = call_stack.last_mut() {
                let v = *v;
                if *ei < succs.len() {
                    let w = succs[*ei];
                    *ei += 1;
                    if index[w as usize] == usize::MAX {
                        let raw: Vec<u32> = self.copy_succs[w as usize].iter().copied().collect();
                        let wsuccs: Vec<u32> = raw.into_iter().map(|s| self.find(s)).collect();
                        index[w as usize] = next;
                        low[w as usize] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call_stack.push((w, wsuccs, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    if low[v as usize] == index[v as usize] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if comp.len() > 1 {
                            merges.push(comp);
                        }
                    }
                    call_stack.pop();
                    if let Some((u, _, _)) = call_stack.last() {
                        let u = *u;
                        low[u as usize] = low[u as usize].min(low[v as usize]);
                    }
                }
            }
        }

        for comp in merges {
            let root = comp[0];
            for &other in &comp[1..] {
                self.merge(root, other);
            }
        }
    }

    fn merge(&mut self, a: u32, b: u32) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return;
        }
        self.merges += 1;
        self.parent[b as usize] = a;
        let b_pts = std::mem::take(&mut self.pts[b as usize]);
        let b_delta = std::mem::take(&mut self.delta[b as usize]);
        let b_succs = std::mem::take(&mut self.copy_succs[b as usize]);
        let b_loads = std::mem::take(&mut self.load_cons[b as usize]);
        let b_stores = std::mem::take(&mut self.store_cons[b as usize]);
        let b_geps = std::mem::take(&mut self.gep_cons[b as usize]);
        let b_calls = std::mem::take(&mut self.call_cons[b as usize]);

        // New targets for a = b's pts not already in a.
        let mut fresh: Vec<Target> = Vec::new();
        for t in b_pts {
            if self.pts[a as usize].insert(t) {
                fresh.push(t);
            }
        }
        fresh.extend(
            b_delta
                .into_iter()
                .filter(|t| !self.pts[a as usize].contains(t)),
        );
        self.delta[a as usize].extend(fresh);
        for s in b_succs {
            self.copy_succs[a as usize].insert(s);
        }
        self.load_cons[a as usize].extend(b_loads);
        self.store_cons[a as usize].extend(b_stores);
        self.gep_cons[a as usize].extend(b_geps);
        self.call_cons[a as usize].extend(b_calls);
        // Everything already in a's pts must be replayed against b's
        // constraints; simplest sound move: re-add the full set as delta.
        // (This is the quadratic full replay the bitmap solver fixes.)
        let all: Vec<Target> = self.pts[a as usize].iter().copied().collect();
        self.delta[a as usize] = all;
        self.enqueue(a);
    }

    fn finish(mut self) -> PointerAnalysis {
        let mut var_pts: usher_ir::FxHashMap<(FuncId, VarId), (u32, u32)> =
            usher_ir::FxHashMap::default();
        let mut mem_pts: usher_ir::FxHashMap<Loc, (u32, u32)> = usher_ir::FxHashMap::default();
        let mut pool: Vec<Target> = Vec::new();
        let entries: Vec<(Node, u32)> = self.node_ids.iter().map(|(n, id)| (*n, *id)).collect();
        for (nk, id) in entries {
            let rep = self.find(id);
            let start = pool.len() as u32;
            pool.extend(self.pts[rep as usize].iter().copied());
            let range = (start, pool.len() as u32);
            match nk {
                Node::Var(f, v) => {
                    var_pts.insert((f, v), range);
                }
                Node::Mem(l) => {
                    mem_pts.insert(l, range);
                }
                Node::Ret(_) => {
                    pool.truncate(start as usize);
                }
            }
        }

        let stats = SolverStats {
            nodes: self.nodes.len(),
            interned_targets: 0, // the reference solver does not intern
            pops: self.pops,
            merges: self.merges,
            ..SolverStats::default()
        };
        finish_analysis(
            self.m,
            self.cg,
            self.reps,
            crate::andersen::Solution {
                var_pts,
                mem_pts,
                pool,
                stats,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_ir::{FuncBuilder, ObjKind};

    #[test]
    fn reference_matches_bitmap_solver_on_a_diamond() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let (a, _xo) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        let pint = b.module.types.ptr_to(int);
        let (bv, _yo) = b.alloc("y", ObjKind::Stack(fid), pint, false, None);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.br(Operand::Const(1), t, e);
        b.set_block(t);
        b.jmp(j);
        b.set_block(e);
        b.jmp(j);
        b.set_block(j);
        let p = b.phi(pint, vec![(t, a.into()), (e, bv.into())]);
        b.store(p.into(), a.into());
        let _q = b.load(p.into(), pint);
        b.ret(None);
        b.finish();

        let new = crate::analyze(&m);
        let old = analyze_reference(&m);
        // The bitmap solver does not materialize empty rows; compare the
        // non-empty subsets (the accessors default to empty either way).
        let row = |pa: &PointerAnalysis, r: Option<&(u32, u32)>| -> Vec<Target> {
            r.map_or_else(Vec::new, |&(s, e)| pa.pool[s as usize..e as usize].to_vec())
        };
        for (k, v) in &old.var_pts {
            assert_eq!(row(&new, new.var_pts.get(k)), row(&old, Some(v)), "{k:?}");
        }
        for (k, v) in &old.mem_pts {
            assert_eq!(row(&new, new.mem_pts.get(k)), row(&old, Some(v)), "{k:?}");
        }
        for (k, v) in &new.var_pts {
            assert_eq!(
                row(&old, old.var_pts.get(k)),
                row(&new, Some(v)),
                "{k:?} only in new"
            );
        }
        assert_eq!(new.call_graph.callees, old.call_graph.callees);
        assert_eq!(new.concrete_objects, old.concrete_objects);
    }
}
