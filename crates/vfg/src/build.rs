//! Value-flow graph construction (Section 3.2), straight into CSR form.
//!
//! Nodes are SSA definitions (top-level variables and memory versions)
//! plus the two roots `T` (defined) and `F` (undefined) and one virtual
//! node per runtime check. An edge `v -> w` records that `v`'s value
//! *depends on* `w`'s. Interprocedural edges are labelled with their call
//! site so definedness resolution can match calls with returns.
//!
//! The builder makes one pass over the module, interning nodes through
//! dense per-function tables (top-level variables and memory versions
//! both have dense per-function id spaces, so a `Vec<u32>` lookup
//! replaces the old global `HashMap<NodeKind, u32>`) and appending edges
//! to one flat arena. A count-then-fill pass then freezes the arena into
//! the dependence CSR (deduplicating exactly like the old `add_edge`),
//! and the users CSR is its counting-sort transpose. CSR *is* the
//! primary representation: the graph is immutable after construction
//! (Opt II filters edges instead of mutating), so there is no
//! cache-invalidation dance.
//!
//! Stores implement the paper's three update flavors:
//!
//! * **strong** — the pointer uniquely targets a concrete location: the
//!   old version is killed (`rho_m -> y` only);
//! * **semi-strong** — unique but abstract target whose allocation site
//!   dominates the store: the old version is bypassed back to the
//!   allocation's incoming version (`rho_m -> y`, `rho_m -> rho_j`),
//!   exactly Figure 6;
//! * **weak** — everything else (`rho_m -> y`, `rho_m -> rho_n`).

use std::sync::OnceLock;

use usher_ir::{
    Budget, Callee, DomTree, Exhausted, ExtFunc, FuncCfg, FuncId, FxHashMap, GepOffset, Idx, Inst,
    Module, ModuleCfgs, Operand, Site, Terminator, VarId,
};
use usher_pointer::{Loc, PointerAnalysis};

use crate::condense::Condensation;
use crate::csr::Csr;
use crate::memssa::{MemSsa, MemVerId};

/// Analysis scope: the paper's `Usher_TL` tracks only top-level variables;
/// everything else handles address-taken variables through memory SSA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub enum VfgMode {
    /// Top-level variables only: loads are unknown (`F`), stores are not
    /// modelled.
    TlOnly,
    /// Full interprocedural value flow for both variable classes.
    #[default]
    Full,
}

/// A VFG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The defined root.
    RootT,
    /// The undefined root.
    RootF,
    /// A top-level SSA variable.
    Tl(FuncId, VarId),
    /// A memory version.
    Mem(FuncId, MemVerId),
    /// The virtual node of a runtime check at a critical operation.
    Check(Site),
}

/// Interprocedural labelling of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Intraprocedural flow.
    Direct,
    /// Callee formal depends on caller actual at this site.
    Call(Site),
    /// Caller result depends on callee return at this site.
    Ret(Site),
}

/// What a check guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckKind {
    /// Pointer operand of a load.
    LoadAddr,
    /// Pointer operand of a store.
    StoreAddr,
    /// Branch condition.
    BranchCond,
    /// Indirect call target.
    CallTarget,
}

/// A registered runtime check (critical operation, Definition 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Check {
    /// The virtual check node.
    pub node: u32,
    /// Site of the critical statement.
    pub site: Site,
    /// The operand whose definedness is checked.
    pub operand: Operand,
    /// Which operand of the statement.
    pub kind: CheckKind,
}

/// Update flavor statistics (Table 1 columns `%SU`, `%WU`, `S`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct VfgStats {
    /// Stores with a unique concrete target (strong updates).
    pub strong_stores: usize,
    /// Stores with a unique abstract target where only a weak update
    /// would apply (the paper's `%WU` column).
    pub weak_singleton_stores: usize,
    /// Semi-strong update applications.
    pub semi_strong_stores: usize,
    /// Stores with multiple possible targets.
    pub multi_target_stores: usize,
    /// Total stores.
    pub total_stores: usize,
    /// Total chi (indirect def) edges added for stores.
    pub store_chis: usize,
}

/// The value-flow graph, immutable after construction.
#[derive(Clone, Debug)]
pub struct Vfg {
    /// Node payloads.
    pub nodes: Vec<NodeKind>,
    /// `deps.edges(v)` = nodes `v` depends on.
    pub deps: Csr,
    /// `users.edges(v)` = nodes depending on `v` (reverse edges).
    pub users: Csr,
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
    /// Dense per-function node tables: `[func][var] -> id + 1` (0 =
    /// absent).
    tl_ids: Vec<Vec<u32>>,
    /// Dense per-function node tables: `[func][mem version] -> id + 1`.
    mem_ids: Vec<Vec<u32>>,
    /// Lazily computed SCC condensation of the `users` graph, shared by
    /// Gamma resolution and Opt II.
    condensation: OnceLock<Condensation>,
}

fn table_get(t: &[Vec<u32>], f: usize, i: usize) -> Option<u32> {
    match t.get(f).and_then(|row| row.get(i)) {
        Some(0) | None => None,
        Some(&id) => Some(id - 1),
    }
}

fn table_set(t: &mut Vec<Vec<u32>>, f: usize, i: usize, id: u32) {
    if t.len() <= f {
        t.resize(f + 1, Vec::new());
    }
    if t[f].len() <= i {
        t[f].resize(i + 1, 0);
    }
    t[f][i] = id + 1;
}

impl Vfg {
    /// Assembles a graph from finished parts, rebuilding the dense node
    /// tables from the node payloads (used by
    /// [`crate::reference::RefVfg::freeze`]).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        nodes: Vec<NodeKind>,
        deps: Csr,
        users: Csr,
        t_root: u32,
        f_root: u32,
        checks: Vec<Check>,
        def_site: Vec<Option<Site>>,
        stats: VfgStats,
        mode: VfgMode,
    ) -> Vfg {
        let mut tl_ids: Vec<Vec<u32>> = Vec::new();
        let mut mem_ids: Vec<Vec<u32>> = Vec::new();
        for (id, n) in nodes.iter().enumerate() {
            match *n {
                NodeKind::Tl(f, v) => table_set(&mut tl_ids, f.index(), v.index(), id as u32),
                NodeKind::Mem(f, mv) => {
                    table_set(&mut mem_ids, f.index(), mv.0 as usize, id as u32)
                }
                NodeKind::RootT | NodeKind::RootF | NodeKind::Check(_) => {}
            }
        }
        Vfg {
            nodes,
            deps,
            users,
            t_root,
            f_root,
            checks,
            def_site,
            stats,
            mode,
            tl_ids,
            mem_ids,
            condensation: OnceLock::new(),
        }
    }

    /// Node id of a top-level variable, if it is in the graph.
    pub fn tl(&self, f: FuncId, v: VarId) -> Option<u32> {
        table_get(&self.tl_ids, f.index(), v.index())
    }

    /// Node id of a memory version, if it is in the graph.
    pub fn mem(&self, f: FuncId, v: MemVerId) -> Option<u32> {
        table_get(&self.mem_ids, f.index(), v.0 as usize)
    }

    /// Looks up an existing node.
    pub fn lookup(&self, kind: NodeKind) -> Option<u32> {
        match kind {
            NodeKind::RootT => Some(self.t_root),
            NodeKind::RootF => Some(self.f_root),
            NodeKind::Tl(f, v) => self.tl(f, v),
            NodeKind::Mem(f, mv) => self.mem(f, mv),
            NodeKind::Check(site) => self.checks.iter().find(|c| c.site == site).map(|c| c.node),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (it never is: the roots exist).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The SCC condensation of the `users` (flows-to) graph, computed
    /// once per graph on first use. Definedness resolution propagates
    /// over it in topological order; Opt II reuses the same condensation
    /// because its edge *removals* can only coarsen the SCC structure, so
    /// the order stays valid.
    pub fn condensation(&self) -> &Condensation {
        self.condensation
            .get_or_init(|| Condensation::compute(&self.users))
    }

    /// Renders the graph in Graphviz DOT format (for the `vfg_explorer`
    /// example and debugging).
    pub fn to_dot(&self, m: &Module) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph vfg {\n  rankdir=BT;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let label = match n {
                NodeKind::RootT => "T".to_string(),
                NodeKind::RootF => "F".to_string(),
                NodeKind::Tl(f, v) => format!("{}::{}", m.funcs[*f].name, v),
                NodeKind::Mem(f, mv) => format!("{}::mem{}", m.funcs[*f].name, mv.0),
                NodeKind::Check(site) => format!("check@{site}"),
            };
            let _ = writeln!(s, "  n{i} [label=\"{label}\"];");
        }
        for i in 0..self.nodes.len() {
            for (d, kind) in self.deps.edges(i as u32) {
                let style = match kind {
                    EdgeKind::Direct => String::new(),
                    EdgeKind::Call(cs) => format!(" [color=blue,label=\"call {cs}\"]"),
                    EdgeKind::Ret(cs) => format!(" [color=red,label=\"ret {cs}\"]"),
                };
                let _ = writeln!(s, "  n{i} -> n{d}{style};");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Construction knobs beyond the mode; mainly ablation switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOpts {
    /// Variable-class scope.
    pub mode: VfgMode,
    /// Apply the paper's semi-strong update rule at stores (Section 3.2).
    /// Disabling it degrades eligible stores to weak updates — the
    /// ablation for the paper's novel mechanism.
    pub semi_strong: bool,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            mode: VfgMode::Full,
            semi_strong: true,
        }
    }
}

/// The in-flight construction state: node tables plus one flat edge
/// arena. Nodes are interned in the same traversal order as the frozen
/// reference builder, so ids are identical across generations.
struct Builder {
    nodes: Vec<NodeKind>,
    def_site: Vec<Option<Site>>,
    tl_ids: Vec<Vec<u32>>,
    mem_ids: Vec<Vec<u32>>,
    /// `(from, to, kind)` in emission order; deduplicated at freeze.
    edges: Vec<(u32, u32, EdgeKind)>,
    t_root: u32,
    f_root: u32,
    checks: Vec<Check>,
    stats: VfgStats,
}

impl Builder {
    fn new(m: &Module, ms: &MemSsa) -> Builder {
        let nfuncs = m.funcs.len();
        let mut tl_ids = Vec::with_capacity(nfuncs);
        let mut mem_ids = Vec::with_capacity(nfuncs);
        for (fid, func) in m.funcs.iter_enumerated() {
            tl_ids.push(vec![0u32; func.vars.len()]);
            let defs = ms.funcs.get(&fid).map_or(0, |fs| fs.defs.len());
            mem_ids.push(vec![0u32; defs]);
        }
        let mut b = Builder {
            nodes: Vec::new(),
            def_site: Vec::new(),
            tl_ids,
            mem_ids,
            edges: Vec::new(),
            t_root: 0,
            f_root: 0,
            checks: Vec::new(),
            stats: VfgStats::default(),
        };
        b.t_root = b.fresh(NodeKind::RootT);
        b.f_root = b.fresh(NodeKind::RootF);
        b
    }

    fn fresh(&mut self, kind: NodeKind) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(kind);
        self.def_site.push(None);
        id
    }

    fn tl_node(&mut self, f: FuncId, v: VarId) -> u32 {
        let slot = &mut self.tl_ids[f.index()][v.index()];
        if *slot != 0 {
            return *slot - 1;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeKind::Tl(f, v));
        self.def_site.push(None);
        *slot = id + 1;
        id
    }

    fn mem_node(&mut self, f: FuncId, mv: MemVerId) -> u32 {
        let slot = &mut self.mem_ids[f.index()][mv.0 as usize];
        if *slot != 0 {
            return *slot - 1;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeKind::Mem(f, mv));
        self.def_site.push(None);
        *slot = id + 1;
        id
    }

    /// Check nodes need no table: each site is visited exactly once.
    fn check_node(&mut self, site: Site) -> u32 {
        self.fresh(NodeKind::Check(site))
    }

    /// Records a defining site for a node.
    fn set_def(&mut self, node: u32, site: Site) {
        self.def_site[node as usize] = Some(site);
    }

    #[inline]
    fn edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }

    /// Count-then-fill: freezes the edge arena into the dependence CSR
    /// (deduplicating `(to, kind)` per source, matching the reference
    /// `add_edge`), derives the users CSR by transposition, and
    /// assembles the graph.
    fn finish(self, mode: VfgMode) -> Vfg {
        let n = self.nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for &(f, _, _) in &self.edges {
            offsets[f as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; self.edges.len()];
        let mut kinds = vec![EdgeKind::Direct; self.edges.len()];
        // fill[v] is the next free slot in v's region; duplicates leave
        // the slot unfilled and are compacted out below.
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        'arena: for &(f, t, k) in &self.edges {
            let lo = offsets[f as usize] as usize;
            let hi = fill[f as usize] as usize;
            for i in lo..hi {
                if targets[i] == t && kinds[i] == k {
                    continue 'arena;
                }
            }
            targets[hi] = t;
            kinds[hi] = k;
            fill[f as usize] += 1;
        }
        let mut compact_offsets = vec![0u32; n + 1];
        let mut w = 0usize;
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = fill[v] as usize;
            for i in lo..hi {
                targets[w] = targets[i];
                kinds[w] = kinds[i];
                w += 1;
            }
            compact_offsets[v + 1] = w as u32;
        }
        targets.truncate(w);
        kinds.truncate(w);
        let deps = Csr {
            offsets: compact_offsets,
            targets,
            kinds,
        };
        let users = deps.transpose();
        Vfg {
            nodes: self.nodes,
            deps,
            users,
            t_root: self.t_root,
            f_root: self.f_root,
            checks: self.checks,
            def_site: self.def_site,
            stats: self.stats,
            mode,
            tl_ids: self.tl_ids,
            mem_ids: self.mem_ids,
            condensation: OnceLock::new(),
        }
    }
}

/// Builds the VFG for a module with default options.
pub fn build(m: &Module, pa: &PointerAnalysis, ms: &MemSsa, mode: VfgMode) -> Vfg {
    build_with(
        m,
        pa,
        ms,
        BuildOpts {
            mode,
            ..Default::default()
        },
    )
}

/// Builds the VFG with explicit options, computing every function's CFG
/// and dominator tree.
pub fn build_with(m: &Module, pa: &PointerAnalysis, ms: &MemSsa, opts: BuildOpts) -> Vfg {
    build_with_budgeted(m, pa, ms, &ModuleCfgs::new(m), opts, &Budget::unlimited())
        .expect("unlimited budgets never exhaust")
}

/// Budgeted VFG construction over the shared `cfgs`: charges one step per
/// instruction visited.
///
/// On exhaustion the partially built graph is discarded — a VFG missing
/// edges *under*-approximates value flow, so no partial result is sound
/// to keep. The driver falls back to full instrumentation instead.
pub fn build_with_budgeted(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    cfgs: &ModuleCfgs,
    opts: BuildOpts,
    budget: &Budget,
) -> Result<Vfg, Exhausted> {
    let mut b = Builder::new(m, ms);
    for fid in m.funcs.indices() {
        traverse_function(&mut b, m, pa, ms, cfgs.get(m, fid), fid, opts, budget)?;
    }
    Ok(b.finish(opts.mode))
}

#[allow(clippy::too_many_arguments)]
fn traverse_function(
    b: &mut Builder,
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    fc: &FuncCfg,
    fid: FuncId,
    opts: BuildOpts,
    budget: &Budget,
) -> Result<(), Exhausted> {
    let func = &m.funcs[fid];
    let FuncCfg { cfg, dom: dt } = fc;
    let fs = ms.funcs.get(&fid);

    // Allocation chis per location, for semi-strong lookups:
    // loc -> [(site, old version at the alloc)].
    let mut alloc_chis: FxHashMap<Loc, Vec<(Site, MemVerId)>> = FxHashMap::default();
    if let Some(fs) = fs {
        // Only allocations carry alloc chis; visit them in site order.
        for (bb, block) in func.blocks.iter_enumerated() {
            for (idx, inst) in block.insts.iter().enumerate() {
                if !matches!(inst, Inst::Alloc { .. }) {
                    continue;
                }
                let site = Site::new(fid, bb, idx);
                for c in fs.chis.get(&site).into_iter().flatten() {
                    if matches!(fs.def(c.new).kind, crate::memssa::MemDefKind::Alloc(_)) {
                        alloc_chis.entry(c.loc).or_default().push((site, c.old));
                    }
                }
            }
        }
    }

    // Region phi edges, in block order so node numbering is stable.
    if opts.mode == VfgMode::Full {
        if let Some(fs) = fs {
            let mut phi_blocks: Vec<_> = fs.phis.keys().copied().collect();
            phi_blocks.sort_unstable();
            for bb in phi_blocks {
                for p in &fs.phis[&bb] {
                    let d = b.mem_node(fid, p.def);
                    for (_, inc) in &p.incomings {
                        let i = b.mem_node(fid, *inc);
                        b.edge(d, i, EdgeKind::Direct);
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
            budget.try_charge(1)?;
            let site = Site::new(fid, bb, idx);
            build_inst(b, m, pa, ms, fid, site, inst, opts, dt, &alloc_chis);
        }
        budget.try_charge(1)?;
        let term_site = Site::new(fid, bb, block.insts.len());
        match &block.term {
            Terminator::Br { cond, .. } => {
                register_check(b, term_site, *cond, CheckKind::BranchCond, fid);
            }
            Terminator::Jmp(_) | Terminator::Ret(_) | Terminator::Unreachable => {}
        }
    }
    Ok(())
}

fn op_node(b: &mut Builder, f: FuncId, op: Operand) -> u32 {
    match op {
        Operand::Var(v) => b.tl_node(f, v),
        Operand::Const(_) | Operand::Global(_) | Operand::Func(_) => b.t_root,
        Operand::Undef => b.f_root,
    }
}

fn register_check(b: &mut Builder, site: Site, op: Operand, kind: CheckKind, f: FuncId) {
    if !matches!(op, Operand::Var(_) | Operand::Undef) {
        // Constant addresses/conditions are trivially defined.
        return;
    }
    let node = b.check_node(site);
    b.set_def(node, site);
    let target = op_node(b, f, op);
    b.edge(node, target, EdgeKind::Direct);
    b.checks.push(Check {
        node,
        site,
        operand: op,
        kind,
    });
}

#[allow(clippy::too_many_arguments)]
fn build_inst(
    b: &mut Builder,
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    fid: FuncId,
    site: Site,
    inst: &Inst,
    opts: BuildOpts,
    dt: &DomTree,
    alloc_chis: &FxHashMap<Loc, Vec<(Site, MemVerId)>>,
) {
    let full = opts.mode == VfgMode::Full;
    let fs = ms.funcs.get(&fid);
    match inst {
        Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            let s = op_node(b, fid, *src);
            b.edge(d, s, EdgeKind::Direct);
        }
        Inst::Bin { dst, lhs, rhs, .. } => {
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            let l = op_node(b, fid, *lhs);
            let r = op_node(b, fid, *rhs);
            b.edge(d, l, EdgeKind::Direct);
            b.edge(d, r, EdgeKind::Direct);
        }
        Inst::Gep { dst, base, offset } => {
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            let bnode = op_node(b, fid, *base);
            b.edge(d, bnode, EdgeKind::Direct);
            if let GepOffset::Index { index, .. } = offset {
                let i = op_node(b, fid, *index);
                b.edge(d, i, EdgeKind::Direct);
            }
        }
        Inst::Alloc { dst, obj, count } => {
            // The resulting pointer is always defined.
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            b.edge(d, b.t_root, EdgeKind::Direct);
            if let Some(c) = count {
                let cn = op_node(b, fid, *c);
                b.edge(d, cn, EdgeKind::Direct);
            }
            if full {
                if let Some(fs) = fs {
                    if let Some(chis) = fs.chis.get(&site) {
                        let init = if m.objects[*obj].zero_init {
                            b.t_root
                        } else {
                            b.f_root
                        };
                        for c in chis {
                            let n = b.mem_node(fid, c.new);
                            b.set_def(n, site);
                            let o = b.mem_node(fid, c.old);
                            b.edge(n, init, EdgeKind::Direct);
                            b.edge(n, o, EdgeKind::Direct);
                        }
                    }
                }
            }
        }
        Inst::Load { dst, addr } => {
            register_check(b, site, *addr, CheckKind::LoadAddr, fid);
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            if full {
                let mus = fs.and_then(|fs| fs.mus.get(&site));
                match mus {
                    Some(mus) if !mus.is_empty() => {
                        for mu in mus {
                            let n = b.mem_node(fid, mu.def);
                            b.edge(d, n, EdgeKind::Direct);
                        }
                    }
                    // A load with no resolvable target (null/unknown): be
                    // conservative.
                    _ => b.edge(d, b.f_root, EdgeKind::Direct),
                }
            } else {
                // TL-only: memory contents are unknown.
                b.edge(d, b.f_root, EdgeKind::Direct);
            }
        }
        Inst::Store { addr, val } => {
            register_check(b, site, *addr, CheckKind::StoreAddr, fid);
            b.stats.total_stores += 1;
            if !full {
                return;
            }
            let Some(fs) = fs else { return };
            let Some(chis) = fs.chis.get(&site) else {
                return;
            };
            b.stats.store_chis += chis.len();
            let v = op_node(b, fid, *val);
            let unique = pa.unique_target(fid, *addr);
            if chis.len() == 1 && unique == Some(chis[0].loc) {
                let c = chis[0];
                let n = b.mem_node(fid, c.new);
                b.set_def(n, site);
                b.edge(n, v, EdgeKind::Direct);
                if pa.is_concrete(c.loc) {
                    // Strong update: the old version is killed.
                    b.stats.strong_stores += 1;
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
                            let o = b.mem_node(fid, *old_at_alloc);
                            b.edge(n, o, EdgeKind::Direct);
                            b.stats.semi_strong_stores += 1;
                        }
                        None => {
                            let o = b.mem_node(fid, c.old);
                            b.edge(n, o, EdgeKind::Direct);
                            b.stats.weak_singleton_stores += 1;
                        }
                    }
                } else {
                    let o = b.mem_node(fid, c.old);
                    b.edge(n, o, EdgeKind::Direct);
                    b.stats.weak_singleton_stores += 1;
                }
            } else {
                b.stats.multi_target_stores += 1;
                for c in chis {
                    let n = b.mem_node(fid, c.new);
                    b.set_def(n, site);
                    let o = b.mem_node(fid, c.old);
                    b.edge(n, v, EdgeKind::Direct);
                    b.edge(n, o, EdgeKind::Direct);
                }
            }
        }
        Inst::Call { dst, callee, args } => {
            build_call(b, m, pa, ms, fid, site, *dst, callee, args, full);
        }
        Inst::Phi { dst, incomings } => {
            let d = b.tl_node(fid, *dst);
            b.set_def(d, site);
            for (_, op) in incomings {
                let n = op_node(b, fid, *op);
                b.edge(d, n, EdgeKind::Direct);
            }
        }
    }
}

/// Emits the value-flow of one call instruction: the indirect-target
/// check, top-level parameter/return flow, and (in full mode) the
/// virtual mu/chi flow through callee memory summaries.
#[allow(clippy::too_many_arguments)]
fn build_call(
    b: &mut Builder,
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    fid: FuncId,
    site: Site,
    dst: Option<VarId>,
    callee: &Callee,
    args: &[Operand],
    full: bool,
) {
    let fs = ms.funcs.get(&fid);
    if let Callee::Indirect(t) = callee {
        register_check(b, site, *t, CheckKind::CallTarget, fid);
    }
    if let Callee::External(ext) = callee {
        if let Some(d) = dst {
            let dn = b.tl_node(fid, d);
            b.set_def(dn, site);
            // input() yields a defined value; other externals
            // have no results.
            let root = match ext {
                ExtFunc::InputInt => b.t_root,
                _ => b.t_root,
            };
            b.edge(dn, root, EdgeKind::Direct);
        }
        return;
    }
    let callees: &[FuncId] = pa.call_graph.callees_of(site);
    // Top-level parameter and return flow.
    for &gcallee in callees {
        let callee_fn = &m.funcs[gcallee];
        for (&p, a) in callee_fn.params.iter().zip(args.iter()) {
            let pn = b.tl_node(gcallee, p);
            let an = op_node(b, fid, *a);
            b.edge(pn, an, EdgeKind::Call(site));
        }
        if let Some(d) = dst {
            let dn = b.tl_node(fid, d);
            b.set_def(dn, site);
            for block in callee_fn.blocks.iter() {
                if let Terminator::Ret(Some(op)) = &block.term {
                    let rn = op_node(b, gcallee, *op);
                    b.edge(dn, rn, EdgeKind::Ret(site));
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
        for mu in mus {
            let caller_ver = b.mem_node(fid, mu.def);
            for &gcallee in callees {
                if let Some(cal) = ms.funcs.get(&gcallee) {
                    if let Some(&fin) = cal.formal_in.get(&mu.loc) {
                        let fn_node = b.mem_node(gcallee, fin);
                        b.edge(fn_node, caller_ver, EdgeKind::Call(site));
                    }
                }
            }
        }
    }
    if let Some(chis) = fs.chis.get(&site) {
        for c in chis {
            let n = b.mem_node(fid, c.new);
            b.set_def(n, site);
            let o = b.mem_node(fid, c.old);
            b.edge(n, o, EdgeKind::Direct);
            for &gcallee in callees {
                if let Some(cal) = ms.funcs.get(&gcallee) {
                    let mut ret_blocks: Vec<_> = cal.ret_mus.keys().copied().collect();
                    ret_blocks.sort_unstable();
                    for bb in ret_blocks {
                        for mu in &cal.ret_mus[&bb] {
                            if mu.loc == c.loc {
                                let out_node = b.mem_node(gcallee, mu.def);
                                b.edge(n, out_node, EdgeKind::Ret(site));
                            }
                        }
                    }
                }
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
