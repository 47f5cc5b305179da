//! The pre-overhaul VFG representation and builder, frozen as the
//! reference for the CSR-first generation in [`crate::build`].
//!
//! [`RefVfg`] keeps the original mutable shape — a global
//! `HashMap<NodeKind, u32>` interner and per-node `Vec<(u32, EdgeKind)>`
//! adjacency lists — and [`build_reference`] is the original traversal,
//! byte for byte. The representation-equivalence suite builds every
//! workload through both generations and asserts the frozen graph
//! ([`RefVfg::freeze`]) is structurally identical to the CSR-first one;
//! the VFG timing gate in `tests/perf_gates.rs` times this builder as
//! its baseline.
//! Semantics are frozen; do not optimize.

use std::collections::HashMap;

use usher_ir::{
    Callee, Cfg, DomTree, ExtFunc, FuncId, GepOffset, Inst, Module, Operand, Site, Terminator,
};
use usher_pointer::{Loc, PointerAnalysis};

use crate::build::{BuildOpts, Check, CheckKind, EdgeKind, NodeKind, Vfg, VfgMode, VfgStats};
use crate::csr::Csr;
use crate::memssa::{MemSsa, MemVerId};

/// The original adjacency-list value-flow graph.
#[derive(Clone, Debug)]
pub struct RefVfg {
    /// Node payloads.
    pub nodes: Vec<NodeKind>,
    ids: HashMap<NodeKind, u32>,
    /// `deps[v]` = nodes `v` depends on.
    pub deps: Vec<Vec<(u32, EdgeKind)>>,
    /// `users[v]` = nodes depending on `v` (reverse edges).
    pub users: Vec<Vec<(u32, EdgeKind)>>,
    /// The `T` root.
    pub t_root: u32,
    /// The `F` root.
    pub f_root: u32,
    /// All runtime checks.
    pub checks: Vec<Check>,
    /// Defining site per node, when one exists.
    pub def_site: Vec<Option<Site>>,
    /// Construction statistics.
    pub stats: VfgStats,
    /// The mode this graph was built in.
    pub mode: VfgMode,
}

impl RefVfg {
    fn new(mode: VfgMode) -> RefVfg {
        let mut g = RefVfg {
            nodes: Vec::new(),
            ids: HashMap::new(),
            deps: Vec::new(),
            users: Vec::new(),
            t_root: 0,
            f_root: 0,
            checks: Vec::new(),
            def_site: Vec::new(),
            stats: VfgStats::default(),
            mode,
        };
        g.t_root = g.node(NodeKind::RootT);
        g.f_root = g.node(NodeKind::RootF);
        g
    }

    /// Interns a node.
    pub fn node(&mut self, kind: NodeKind) -> u32 {
        if let Some(&id) = self.ids.get(&kind) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(kind);
        self.deps.push(Vec::new());
        self.users.push(Vec::new());
        self.def_site.push(None);
        self.ids.insert(kind, id);
        id
    }

    /// Looks up an existing node.
    pub fn lookup(&self, kind: NodeKind) -> Option<u32> {
        self.ids.get(&kind).copied()
    }

    /// Node id of a top-level variable, if it is in the graph.
    pub fn tl(&self, f: FuncId, v: usher_ir::VarId) -> Option<u32> {
        self.lookup(NodeKind::Tl(f, v))
    }

    /// Node id of a memory version, if it is in the graph.
    pub fn mem(&self, f: FuncId, v: MemVerId) -> Option<u32> {
        self.lookup(NodeKind::Mem(f, v))
    }

    /// Adds `from -> to` (from depends on to).
    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        if self.deps[from as usize].contains(&(to, kind)) {
            return;
        }
        self.deps[from as usize].push((to, kind));
        self.users[to as usize].push((from, kind));
    }

    /// Removes a dependence edge (used by Opt II's graph surgery).
    pub fn remove_edge(&mut self, from: u32, to: u32) {
        self.deps[from as usize].retain(|(t, _)| *t != to);
        self.users[to as usize].retain(|(f, _)| *f != from);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (it never is: the roots exist).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Converts to the CSR-first representation. Per-node dependence
    /// order is preserved and the users CSR is derived exactly as the
    /// CSR-first builder derives it, so for equal inputs the result is
    /// structurally identical to [`crate::build::build_with`]'s.
    pub fn freeze(&self) -> Vfg {
        let deps = Csr::from_adjacency(&self.deps);
        let users = deps.transpose();
        Vfg::from_parts(
            self.nodes.clone(),
            deps,
            users,
            self.t_root,
            self.f_root,
            self.checks.clone(),
            self.def_site.clone(),
            self.stats,
            self.mode,
        )
    }
}

/// Builds the reference VFG for a module with default options.
pub fn build_reference(m: &Module, pa: &PointerAnalysis, ms: &MemSsa, mode: VfgMode) -> RefVfg {
    build_with_reference(
        m,
        pa,
        ms,
        BuildOpts {
            mode,
            ..Default::default()
        },
    )
}

/// Builds the reference VFG with explicit options (the original
/// traversal, including its per-instruction clones).
pub fn build_with_reference(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    opts: BuildOpts,
) -> RefVfg {
    let mode = opts.mode;
    let mut g = RefVfg::new(mode);
    let b = &mut g;

    for (fid, func) in m.funcs.iter_enumerated() {
        let cfg = Cfg::compute(func);
        let dt = DomTree::compute(func, &cfg);
        let fs = ms.funcs.get(&fid);

        // Allocation chis per location, for semi-strong lookups:
        // loc -> [(site, old version at the alloc)].
        let mut alloc_chis: HashMap<Loc, Vec<(Site, MemVerId)>> = HashMap::new();
        if let Some(fs) = fs {
            let mut chi_sites: Vec<Site> = fs.chis.keys().copied().collect();
            chi_sites.sort_unstable();
            for site in chi_sites {
                for c in &fs.chis[&site] {
                    if matches!(fs.def(c.new).kind, crate::memssa::MemDefKind::Alloc(_)) {
                        alloc_chis.entry(c.loc).or_default().push((site, c.old));
                    }
                }
            }
        }

        // Region phi edges, in block order so node numbering is stable.
        if mode == VfgMode::Full {
            if let Some(fs) = fs {
                let mut phi_blocks: Vec<_> = fs.phis.keys().copied().collect();
                phi_blocks.sort_unstable();
                for bb in phi_blocks {
                    for p in &fs.phis[&bb] {
                        let d = b.node(NodeKind::Mem(fid, p.def));
                        for (_, inc) in &p.incomings {
                            let i = b.node(NodeKind::Mem(fid, *inc));
                            b.add_edge(d, i, EdgeKind::Direct);
                        }
                    }
                }
            }
        }

        for (bb, block) in func.blocks.iter_enumerated() {
            if !cfg.is_reachable(bb) {
                continue;
            }
            for (idx, inst) in block.insts.iter().enumerate() {
                let site = Site::new(fid, bb, idx);
                build_inst(b, m, pa, ms, fid, site, inst, opts, &dt, &alloc_chis);
            }
            let term_site = Site::new(fid, bb, block.insts.len());
            match &block.term {
                Terminator::Br { cond, .. } => {
                    register_check(b, term_site, *cond, CheckKind::BranchCond, fid);
                }
                Terminator::Jmp(_) | Terminator::Ret(_) | Terminator::Unreachable => {}
            }
        }
    }
    g
}

fn op_node(g: &mut RefVfg, f: FuncId, op: Operand) -> u32 {
    match op {
        Operand::Var(v) => g.node(NodeKind::Tl(f, v)),
        Operand::Const(_) | Operand::Global(_) | Operand::Func(_) => g.t_root,
        Operand::Undef => g.f_root,
    }
}

fn register_check(g: &mut RefVfg, site: Site, op: Operand, kind: CheckKind, f: FuncId) {
    if !matches!(op, Operand::Var(_) | Operand::Undef) {
        // Constant addresses/conditions are trivially defined.
        return;
    }
    let node = g.node(NodeKind::Check(site));
    g.def_site[node as usize] = Some(site);
    let target = op_node(g, f, op);
    g.add_edge(node, target, EdgeKind::Direct);
    g.checks.push(Check {
        node,
        site,
        operand: op,
        kind,
    });
}

#[allow(clippy::too_many_arguments)]
fn build_inst(
    g: &mut RefVfg,
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    fid: FuncId,
    site: Site,
    inst: &Inst,
    opts: BuildOpts,
    dt: &DomTree,
    alloc_chis: &HashMap<Loc, Vec<(Site, MemVerId)>>,
) {
    let full = opts.mode == VfgMode::Full;
    let fs = ms.funcs.get(&fid);
    match inst {
        Inst::Copy { dst, src } => {
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            let s = op_node(g, fid, *src);
            g.add_edge(d, s, EdgeKind::Direct);
        }
        Inst::Un { dst, src, .. } => {
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            let s = op_node(g, fid, *src);
            g.add_edge(d, s, EdgeKind::Direct);
        }
        Inst::Bin { dst, lhs, rhs, .. } => {
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            let l = op_node(g, fid, *lhs);
            let r = op_node(g, fid, *rhs);
            g.add_edge(d, l, EdgeKind::Direct);
            g.add_edge(d, r, EdgeKind::Direct);
        }
        Inst::Gep { dst, base, offset } => {
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            let bnode = op_node(g, fid, *base);
            g.add_edge(d, bnode, EdgeKind::Direct);
            if let GepOffset::Index { index, .. } = offset {
                let i = op_node(g, fid, *index);
                g.add_edge(d, i, EdgeKind::Direct);
            }
        }
        Inst::Alloc { dst, obj, count } => {
            // The resulting pointer is always defined.
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            g.add_edge(d, g.t_root, EdgeKind::Direct);
            if let Some(c) = count {
                let cn = op_node(g, fid, *c);
                g.add_edge(d, cn, EdgeKind::Direct);
            }
            if full {
                if let Some(fs) = fs {
                    if let Some(chis) = fs.chis.get(&site) {
                        let init = if m.objects[*obj].zero_init {
                            g.t_root
                        } else {
                            g.f_root
                        };
                        for c in chis {
                            let n = g.node(NodeKind::Mem(fid, c.new));
                            g.def_site[n as usize] = Some(site);
                            let o = g.node(NodeKind::Mem(fid, c.old));
                            g.add_edge(n, init, EdgeKind::Direct);
                            g.add_edge(n, o, EdgeKind::Direct);
                        }
                    }
                }
            }
        }
        Inst::Load { dst, addr } => {
            register_check(g, site, *addr, CheckKind::LoadAddr, fid);
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            if full {
                let mus = fs.and_then(|fs| fs.mus.get(&site));
                match mus {
                    Some(mus) if !mus.is_empty() => {
                        for mu in mus.clone() {
                            let n = g.node(NodeKind::Mem(fid, mu.def));
                            g.add_edge(d, n, EdgeKind::Direct);
                        }
                    }
                    // A load with no resolvable target (null/unknown): be
                    // conservative.
                    _ => g.add_edge(d, g.f_root, EdgeKind::Direct),
                }
            } else {
                // TL-only: memory contents are unknown.
                g.add_edge(d, g.f_root, EdgeKind::Direct);
            }
        }
        Inst::Store { addr, val } => {
            register_check(g, site, *addr, CheckKind::StoreAddr, fid);
            g.stats.total_stores += 1;
            if !full {
                return;
            }
            let Some(fs) = fs else { return };
            let Some(chis) = fs.chis.get(&site) else {
                return;
            };
            g.stats.store_chis += chis.len();
            let v = op_node(g, fid, *val);
            let unique = pa.unique_target(fid, *addr);
            if chis.len() == 1 && unique == Some(chis[0].loc) {
                let c = chis[0];
                let n = g.node(NodeKind::Mem(fid, c.new));
                g.def_site[n as usize] = Some(site);
                g.add_edge(n, v, EdgeKind::Direct);
                if pa.is_concrete(c.loc) {
                    // Strong update: the old version is killed.
                    g.stats.strong_stores += 1;
                } else if opts.semi_strong && pa.is_single_cell(c.loc) {
                    // Semi-strong: bypass back to the dominating
                    // allocation's incoming version when one exists.
                    let dominating = alloc_chis.get(&c.loc).and_then(|sites| {
                        sites
                            .iter()
                            .find(|(asite, _)| dominates_site(dt, *asite, site))
                    });
                    match dominating {
                        Some((_, old_at_alloc)) => {
                            let o = g.node(NodeKind::Mem(fid, *old_at_alloc));
                            g.add_edge(n, o, EdgeKind::Direct);
                            g.stats.semi_strong_stores += 1;
                        }
                        None => {
                            let o = g.node(NodeKind::Mem(fid, c.old));
                            g.add_edge(n, o, EdgeKind::Direct);
                            g.stats.weak_singleton_stores += 1;
                        }
                    }
                } else {
                    let o = g.node(NodeKind::Mem(fid, c.old));
                    g.add_edge(n, o, EdgeKind::Direct);
                    g.stats.weak_singleton_stores += 1;
                }
            } else {
                g.stats.multi_target_stores += 1;
                for c in chis.clone() {
                    let n = g.node(NodeKind::Mem(fid, c.new));
                    g.def_site[n as usize] = Some(site);
                    let o = g.node(NodeKind::Mem(fid, c.old));
                    g.add_edge(n, v, EdgeKind::Direct);
                    g.add_edge(n, o, EdgeKind::Direct);
                }
            }
        }
        Inst::Call { dst, callee, args } => {
            if let Callee::Indirect(t) = callee {
                register_check(g, site, *t, CheckKind::CallTarget, fid);
            }
            if let Callee::External(ext) = callee {
                if let Some(d) = dst {
                    let dn = g.node(NodeKind::Tl(fid, *d));
                    g.def_site[dn as usize] = Some(site);
                    // input() yields a defined value; other externals
                    // have no results.
                    let root = match ext {
                        ExtFunc::InputInt => g.t_root,
                        _ => g.t_root,
                    };
                    g.add_edge(dn, root, EdgeKind::Direct);
                }
                return;
            }
            let callees: Vec<FuncId> = pa.call_graph.callees_of(site).to_vec();
            // Top-level parameter and return flow.
            for &gcallee in &callees {
                let callee_fn = &m.funcs[gcallee];
                for (p, a) in callee_fn.params.clone().into_iter().zip(args.iter()) {
                    let pn = g.node(NodeKind::Tl(gcallee, p));
                    let an = op_node(g, fid, *a);
                    g.add_edge(pn, an, EdgeKind::Call(site));
                }
                if let Some(d) = dst {
                    let dn = g.node(NodeKind::Tl(fid, *d));
                    g.def_site[dn as usize] = Some(site);
                    for block in callee_fn.blocks.iter() {
                        if let Terminator::Ret(Some(op)) = &block.term {
                            let rn = op_node(g, gcallee, *op);
                            g.add_edge(dn, rn, EdgeKind::Ret(site));
                        }
                    }
                }
            }
            if !full {
                return;
            }
            let Some(fs) = fs else { return };
            // Virtual parameter flow.
            if let Some(mus) = fs.mus.get(&site) {
                for mu in mus.clone() {
                    let caller_ver = g.node(NodeKind::Mem(fid, mu.def));
                    for &gcallee in &callees {
                        if let Some(cal) = ms.funcs.get(&gcallee) {
                            if let Some(&fin) = cal.formal_in.get(&mu.loc) {
                                let fn_node = g.node(NodeKind::Mem(gcallee, fin));
                                g.add_edge(fn_node, caller_ver, EdgeKind::Call(site));
                            }
                        }
                    }
                }
            }
            if let Some(chis) = fs.chis.get(&site) {
                for c in chis.clone() {
                    let n = g.node(NodeKind::Mem(fid, c.new));
                    g.def_site[n as usize] = Some(site);
                    let o = g.node(NodeKind::Mem(fid, c.old));
                    g.add_edge(n, o, EdgeKind::Direct);
                    for &gcallee in &callees {
                        if let Some(cal) = ms.funcs.get(&gcallee) {
                            let mut ret_blocks: Vec<_> = cal.ret_mus.keys().copied().collect();
                            ret_blocks.sort_unstable();
                            for bb in ret_blocks {
                                for mu in &cal.ret_mus[&bb] {
                                    if mu.loc == c.loc {
                                        let out_node = g.node(NodeKind::Mem(gcallee, mu.def));
                                        g.add_edge(n, out_node, EdgeKind::Ret(site));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Inst::Phi { dst, incomings } => {
            let d = g.node(NodeKind::Tl(fid, *dst));
            g.def_site[d as usize] = Some(site);
            for (_, op) in incomings {
                let n = op_node(g, fid, *op);
                g.add_edge(d, n, EdgeKind::Direct);
            }
        }
    }
}

fn dominates_site(dt: &DomTree, a: Site, b: Site) -> bool {
    if a.block == b.block {
        return a.idx < b.idx;
    }
    dt.dominates(a.block, b.block)
}
