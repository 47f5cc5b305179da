//! The Andersen-style inclusion solver.
//!
//! Points-to targets are interned into a dense `u32` space and each
//! node's set is a hybrid sparse/dense bitmap ([`crate::pts::PtsSet`]),
//! so difference propagation and SCC merges are bitwise
//! union-with-difference instead of per-element `BTreeSet` inserts. The
//! periodic Tarjan cycle collapse runs over a CSR snapshot of the
//! copy-edge graph. The original `BTreeSet`-based solver is retained in
//! [`crate::reference`] as the equivalence/benchmark baseline.

use std::collections::VecDeque;

use usher_ir::{
    Budget, Callee, Exhausted, FuncId, FxHashMap, FxHashSet, GepOffset, Idx, Inst, Module, ObjId,
    Operand, Site, Terminator, VarId,
};

use crate::callgraph::{CallGraph, LoopInfo};
use crate::pts::PtsSet;

/// A points-to target: a field of an abstract object, identified by its
/// canonical (representative) cell — the first cell of its field class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// The abstract object.
    pub obj: ObjId,
    /// Canonical cell of the field class.
    pub field: u32,
}

/// Points-to targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Target {
    Loc(Loc),
    Func(FuncId),
}

/// Counters from one solver run (threaded into driver telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solver nodes created (variables, memory fields, returns).
    pub nodes: usize,
    /// Distinct points-to targets interned.
    pub interned_targets: usize,
    /// Worklist pops until the fixpoint.
    pub pops: usize,
    /// Union-find merges performed by cycle collapsing.
    pub merges: usize,
    /// Peak 64-bit words held by all points-to sets at once.
    pub peak_pts_words: usize,
    /// Multi-member equivalence classes found by the unification
    /// prefilter (0 for the reference solver, which runs without one).
    pub unify_classes: usize,
    /// Nodes the prefilter collapsed into a class representative.
    pub unify_collapsed: usize,
    /// Wall time spent in the unification prefilter, in microseconds.
    /// The only scheduling-dependent counter; it is excluded from
    /// [`PointerAnalysis::digest`].
    pub prefilter_us: usize,
}

/// The result of [`analyze`].
#[derive(Clone, Debug)]
pub struct PointerAnalysis {
    /// Per-variable target ranges into [`PointerAnalysis::pool`]. One
    /// shared arena replaces a `Vec<Target>` per row: building and
    /// dropping the result is a handful of allocations instead of one
    /// per non-empty points-to set.
    pub(crate) var_pts: FxHashMap<(FuncId, VarId), (u32, u32)>,
    /// Per-location target ranges into [`PointerAnalysis::pool`].
    pub(crate) mem_pts: FxHashMap<Loc, (u32, u32)>,
    /// Target arena backing `var_pts` / `mem_pts` ranges.
    pub(crate) pool: Vec<Target>,
    /// The resolved call graph (direct + indirect).
    pub call_graph: CallGraph,
    /// Per-function loop info (reused by VFG construction and Opt II).
    pub loops: FxHashMap<FuncId, LoopInfo>,
    /// Objects whose allocation site runs at most once (candidates for
    /// strong updates when additionally single-cell).
    pub concrete_objects: FxHashSet<ObjId>,
    /// Per-object: class representative of every cell.
    pub(crate) reps: FxHashMap<ObjId, Vec<u32>>,
    /// Per-object: whether each class rep covers exactly one cell.
    pub(crate) single_cell: FxHashMap<Loc, bool>,
    /// Solver counters.
    pub stats: SolverStats,
}

impl PointerAnalysis {
    /// The pool slice a stored range denotes.
    #[inline]
    fn row(&self, range: Option<&(u32, u32)>) -> &[Target] {
        match range {
            Some(&(s, e)) => &self.pool[s as usize..e as usize],
            None => &[],
        }
    }

    /// Memory locations a variable may point to.
    pub fn pts_var(&self, f: FuncId, v: VarId) -> Vec<Loc> {
        self.row(self.var_pts.get(&(f, v)))
            .iter()
            .filter_map(|t| match t {
                Target::Loc(l) => Some(*l),
                Target::Func(_) => None,
            })
            .collect()
    }

    /// Memory locations an address operand may point to.
    pub fn pts_operand(&self, f: FuncId, op: Operand) -> Vec<Loc> {
        match op {
            Operand::Var(v) => self.pts_var(f, v),
            Operand::Global(o) => vec![Loc { obj: o, field: 0 }],
            _ => Vec::new(),
        }
    }

    /// Function targets of a variable (for indirect calls).
    pub fn fn_targets(&self, f: FuncId, v: VarId) -> Vec<FuncId> {
        self.row(self.var_pts.get(&(f, v)))
            .iter()
            .filter_map(|t| match t {
                Target::Func(g) => Some(*g),
                Target::Loc(_) => None,
            })
            .collect()
    }

    /// Locations a memory field may point to (for mod/ref of loads of
    /// pointers — not needed by the VFG but useful to clients/tests).
    pub fn pts_mem(&self, loc: Loc) -> Vec<Loc> {
        self.row(self.mem_pts.get(&loc))
            .iter()
            .filter_map(|t| match t {
                Target::Loc(l) => Some(*l),
                Target::Func(_) => None,
            })
            .collect()
    }

    /// The canonical representative of `(obj, cell)`.
    pub fn rep(&self, obj: ObjId, cell: u32) -> Loc {
        let reps = &self.reps[&obj];
        let c = (cell as usize).min(reps.len().saturating_sub(1));
        Loc {
            obj,
            field: reps.get(c).copied().unwrap_or(0),
        }
    }

    /// All field-class representatives of an object.
    pub fn all_fields(&self, obj: ObjId) -> Vec<Loc> {
        let mut out: Vec<u32> = self.reps[&obj].clone();
        out.sort_unstable();
        out.dedup();
        out.into_iter().map(|field| Loc { obj, field }).collect()
    }

    /// Whether a location is *concrete* in the paper's sense: it denotes
    /// exactly one runtime cell (single-cell field class of an object
    /// whose allocation executes at most once). Stores whose pointer
    /// uniquely targets a concrete location may be strongly updated.
    pub fn is_concrete(&self, loc: Loc) -> bool {
        self.concrete_objects.contains(&loc.obj)
            && self.single_cell.get(&loc).copied().unwrap_or(false)
    }

    /// Whether a location's field class covers exactly one cell (stores
    /// to it write the whole abstract location; array classes never do).
    pub fn is_single_cell(&self, loc: Loc) -> bool {
        self.single_cell.get(&loc).copied().unwrap_or(false)
    }

    /// If `addr` (in function `f`) points to exactly one location, returns
    /// it; the VFG uses this for both strong and semi-strong updates.
    pub fn unique_target(&self, f: FuncId, addr: Operand) -> Option<Loc> {
        let ts = self.pts_operand(f, addr);
        match (ts.len(), self.fn_target_count(f, addr)) {
            (1, 0) => Some(ts[0]),
            _ => None,
        }
    }

    fn fn_target_count(&self, f: FuncId, addr: Operand) -> usize {
        match addr {
            Operand::Var(v) => self.fn_targets(f, v).len(),
            _ => 0,
        }
    }

    /// A stable structural checksum of the analysis result, used by the
    /// driver's self-healing artifact cache to detect corruption. Hash
    /// maps are drained through explicit sorts so the digest never
    /// depends on iteration order.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = usher_ir::FxHasher::default();
        let mut vars: Vec<_> = self.var_pts.iter().collect();
        vars.sort_by_key(|(&k, _)| k);
        for ((f, v), &(st, en)) in vars {
            h.write_usize(f.index());
            h.write_usize(v.index());
            self.pool[st as usize..en as usize].hash(&mut h);
        }
        let mut mems: Vec<_> = self.mem_pts.iter().collect();
        mems.sort_by_key(|(&l, _)| l);
        for (l, &(st, en)) in mems {
            h.write_usize(l.obj.index());
            h.write_u32(l.field);
            self.pool[st as usize..en as usize].hash(&mut h);
        }
        let mut objs: Vec<usize> = self.concrete_objects.iter().map(|o| o.index()).collect();
        objs.sort_unstable();
        objs.hash(&mut h);
        h.write_usize(self.stats.nodes);
        h.write_usize(self.stats.pops);
        h.write_usize(self.stats.merges);
        h.finish()
    }
}

/// Analyzes a module with the production solver: the unification
/// prefilter, then the Andersen worklist on the collapsed graph.
pub fn analyze(m: &Module) -> PointerAnalysis {
    analyze_budgeted(m, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// [`analyze`] under a cooperative step budget: one step per worklist
/// pop. On exhaustion the partial fixpoint is discarded — a partial
/// points-to solution *under*-approximates and must never feed the
/// guided planner — and the caller is expected to degrade to full
/// instrumentation.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out before the fixpoint.
pub fn analyze_budgeted(m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
    let mut s = Solver::new(m);
    s.apply_prefilter();
    s.seed();
    s.solve(budget)?;
    Ok(s.finish())
}

/// Cell-class representatives per object, shared by both solvers.
pub(crate) fn object_reps(m: &Module) -> FxHashMap<ObjId, Vec<u32>> {
    let mut reps = FxHashMap::with_capacity_and_hasher(m.objects.len(), Default::default());
    // rep[cell] = first cell with the same class. Objects have a handful
    // of field classes, so one reused scratch list with a linear scan
    // beats a per-object hash map by a wide margin.
    let mut first: Vec<(u32, u32)> = Vec::new();
    for (oid, o) in m.objects.iter_enumerated() {
        first.clear();
        let mut r = Vec::with_capacity(o.field_classes.len());
        for (cell, &class) in o.field_classes.iter().enumerate() {
            let rep = match first.iter().find(|&&(c, _)| c == class) {
                Some(&(_, rep)) => rep,
                None => {
                    first.push((class, cell as u32));
                    cell as u32
                }
            };
            r.push(rep);
        }
        if r.is_empty() {
            r.push(0);
        }
        reps.insert(oid, r);
    }
    reps
}

/// A solver's decoded fixpoint — the pooled points-to rows plus the run
/// counters — on its way into [`finish_analysis`].
pub(crate) struct Solution {
    pub(crate) var_pts: FxHashMap<(FuncId, VarId), (u32, u32)>,
    pub(crate) mem_pts: FxHashMap<Loc, (u32, u32)>,
    pub(crate) pool: Vec<Target>,
    pub(crate) stats: SolverStats,
}

/// Shared finalization: concreteness, single-cell classes, call-graph
/// derived info. Used by both the bitmap solver and the reference one so
/// their outputs agree field for field.
pub(crate) fn finish_analysis(
    m: &Module,
    cg: CallGraph,
    reps: FxHashMap<ObjId, Vec<u32>>,
    solution: Solution,
) -> PointerAnalysis {
    finish_analysis_with(m, cg, reps, solution, None)
}

/// [`finish_analysis`] with each object's first allocation block
/// already known (`None` rescans the module).
fn finish_analysis_with(
    m: &Module,
    mut cg: CallGraph,
    reps: FxHashMap<ObjId, Vec<u32>>,
    solution: Solution,
    alloc_block: Option<Vec<u32>>,
) -> PointerAnalysis {
    let Solution {
        var_pts,
        mem_pts,
        pool,
        stats,
    } = solution;
    let loops: FxHashMap<FuncId, LoopInfo> = m
        .funcs
        .iter_enumerated()
        .map(|(f, func)| (f, LoopInfo::compute(func)))
        .collect();
    cg.finalize(m, &loops);

    // Concrete objects: allocation executes at most once. Each object's
    // first allocation block makes the decision O(1); the bitmap solver
    // records it while seeding, the reference path rescans the module
    // here (`u32::MAX` = never allocated).
    let alloc_block: Vec<u32> = alloc_block.unwrap_or_else(|| {
        let mut ab = vec![u32::MAX; m.objects.len()];
        for (_f, func) in m.funcs.iter_enumerated() {
            for (bb, block) in func.blocks.iter_enumerated() {
                for inst in &block.insts {
                    if let Inst::Alloc { obj, .. } = inst {
                        if ab[obj.index()] == u32::MAX {
                            ab[obj.index()] = bb.index() as u32;
                        }
                    }
                }
            }
        }
        ab
    });
    let mut concrete = FxHashSet::with_capacity_and_hasher(m.objects.len(), Default::default());
    for (oid, o) in m.objects.iter_enumerated() {
        match o.kind {
            usher_ir::ObjKind::Global => {
                concrete.insert(oid);
            }
            usher_ir::ObjKind::Stack(f) | usher_ir::ObjKind::Heap(f) => {
                if !cg.runs_once.contains(&f) || cg.recursive.contains(&f) {
                    continue;
                }
                let bb = alloc_block[oid.index()];
                if bb != u32::MAX && !loops[&f].in_loop(usher_ir::BlockId(bb)) {
                    concrete.insert(oid);
                }
            }
        }
    }

    // Single-cell classes. A rep is always a cell index of its own
    // object, so counting into a dense scratch vector replaces the
    // per-object hash map.
    let total_cells: usize = reps.values().map(Vec::len).sum();
    let mut single_cell: FxHashMap<Loc, bool> =
        FxHashMap::with_capacity_and_hasher(total_cells, Default::default());
    let mut counts: Vec<u32> = Vec::new();
    for (oid, o) in m.objects.iter_enumerated() {
        let object_reps = &reps[&oid];
        counts.clear();
        counts.resize(object_reps.len(), 0);
        for &r in object_reps {
            counts[r as usize] += 1;
        }
        let dynamic = o.is_array;
        for (cell, &count) in counts.iter().enumerate() {
            if count > 0 {
                single_cell.insert(
                    Loc {
                        obj: oid,
                        field: cell as u32,
                    },
                    count == 1 && !dynamic,
                );
            }
        }
    }

    PointerAnalysis {
        var_pts,
        mem_pts,
        pool,
        call_graph: cg,
        loops,
        concrete_objects: concrete,
        reps,
        single_cell,
        stats,
    }
}

#[derive(Clone, Copy, Debug)]
enum GepKind {
    Field(u32),
    Dynamic,
}

/// Dense node layout: `[vars per function | returns | memory cells]`.
/// Every possible node has a precomputed id, so node resolution is pure
/// arithmetic and all per-node tables are allocated exactly once. Shared
/// with the unification prefilter ([`crate::unify`]), which works on the
/// variable/return prefix (`0..mem_base`) of this id space.
pub(crate) struct NodeLayout {
    pub(crate) var_base: Vec<u32>,
    pub(crate) ret_base: u32,
    pub(crate) mem_base: u32,
    pub(crate) obj_base: Vec<u32>,
    pub(crate) n_nodes: usize,
}

impl NodeLayout {
    pub(crate) fn new(m: &Module, reps: &FxHashMap<ObjId, Vec<u32>>) -> NodeLayout {
        let mut var_base = Vec::with_capacity(m.funcs.len());
        let mut next = 0u32;
        for (_f, func) in m.funcs.iter_enumerated() {
            var_base.push(next);
            next += func.vars.len() as u32;
        }
        let ret_base = next;
        next += m.funcs.len() as u32;
        let mem_base = next;
        let mut obj_base = Vec::with_capacity(m.objects.len());
        let mut mem_off = 0u32;
        for (oid, _o) in m.objects.iter_enumerated() {
            obj_base.push(mem_off);
            mem_off += reps[&oid].len() as u32;
        }
        NodeLayout {
            var_base,
            ret_base,
            mem_base,
            obj_base,
            n_nodes: (mem_base + mem_off) as usize,
        }
    }

    #[inline]
    pub(crate) fn var_node(&self, f: FuncId, v: VarId) -> u32 {
        self.var_base[f.index()] + v.index() as u32
    }

    #[inline]
    pub(crate) fn ret_node(&self, f: FuncId) -> u32 {
        self.ret_base + f.index() as u32
    }

    /// The memory node of a Loc (whose field is always one of its
    /// object's cell indices).
    #[inline]
    pub(crate) fn mem_node(&self, l: Loc) -> u32 {
        self.mem_base + self.obj_base[l.obj.index()] + l.field
    }
}

struct Solver<'m> {
    m: &'m Module,
    layout: NodeLayout,
    parent: Vec<u32>,
    /// Interned targets: id -> payload.
    targets: Vec<Target>,
    target_ids: FxHashMap<Target, u32>,
    /// Points-to sets over interned target ids.
    pts: Vec<PtsSet>,
    /// Pending difference per node (unique ids, each also in `pts`).
    delta: Vec<Vec<u32>>,
    /// Copy successors as sorted id vectors.
    copy_succs: Vec<Vec<u32>>,
    /// On new Loc in pts(n): add copy edge Mem(loc) -> dst.
    load_cons: ConsArena<u32>,
    /// On new Loc in pts(n): add copy edge src -> Mem(loc).
    store_cons: ConsArena<StoreSrc>,
    /// On new Loc in pts(n): add shifted target to dst.
    gep_cons: ConsArena<(GepKind, u32)>,
    /// On new Func in pts(n): wire the call at this site.
    call_cons: ConsArena<Site>,
    /// Flat arena of call-site argument operands; sites store ranges.
    call_args: Vec<Operand>,
    /// (args range, dst) per call site, for (indirect) wiring.
    site_info: FxHashMap<Site, (u32, u32, Option<VarId>)>,
    wired: FxHashSet<(Site, FuncId)>,
    worklist: VecDeque<u32>,
    in_wl: Vec<bool>,
    cg: CallGraph,
    reps: FxHashMap<ObjId, Vec<u32>>,
    /// Reusable snapshot buffer (cuts transient allocations on the
    /// constraint-replay paths).
    scratch: Vec<u32>,
    /// Reusable union-difference buffer.
    fresh_buf: Vec<u32>,
    /// Reusable gep-shift buffer.
    loc_buf: Vec<Loc>,
    pops: usize,
    merges: usize,
    cur_words: usize,
    peak_words: usize,
    /// Prefilter counters.
    unify_classes: usize,
    unify_collapsed: usize,
    prefilter_us: usize,
    /// First allocation block per object (`u32::MAX` = never allocated),
    /// recorded while seeding so finalization skips a full IR rescan.
    alloc_block: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
enum StoreSrc {
    Node(u32),
    Const(Target),
}

/// List terminator sentinel for [`ConsArena`].
const NIL: u32 = u32::MAX;

/// Per-node constraint lists stored as singly linked chains in one flat
/// arena. Compared to a `Vec<Vec<T>>` over every node this needs three
/// allocations total (instead of one per non-empty node), appends and
/// SCC-merge concatenations are O(1), and teardown frees three blocks.
/// Lists preserve append order; `concat(a, b)` appends b's chain to a's.
struct ConsArena<T> {
    head: Vec<u32>,
    tail: Vec<u32>,
    /// `(payload, next-index)`; `NIL` terminates a chain.
    items: Vec<(T, u32)>,
}

impl<T: Copy> ConsArena<T> {
    fn new(n: usize) -> Self {
        ConsArena {
            head: vec![NIL; n],
            tail: vec![NIL; n],
            items: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, n: u32, item: T) {
        let id = self.items.len() as u32;
        self.items.push((item, NIL));
        let n = n as usize;
        if self.head[n] == NIL {
            self.head[n] = id;
        } else {
            self.items[self.tail[n] as usize].1 = id;
        }
        self.tail[n] = id;
    }

    #[inline]
    fn first(&self, n: u32) -> u32 {
        self.head[n as usize]
    }

    #[inline]
    fn get(&self, cursor: u32) -> (T, u32) {
        self.items[cursor as usize]
    }

    /// Moves b's list onto the end of a's; b becomes empty.
    fn concat(&mut self, a: u32, b: u32) {
        let (a, b) = (a as usize, b as usize);
        if self.head[b] == NIL {
            return;
        }
        if self.head[a] == NIL {
            self.head[a] = self.head[b];
        } else {
            self.items[self.tail[a] as usize].1 = self.head[b];
        }
        self.tail[a] = self.tail[b];
        self.head[b] = NIL;
        self.tail[b] = NIL;
    }
}

/// Distinct mutable borrows of two slots of one slice.
fn two_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(i, j);
    if i < j {
        let (l, r) = v.split_at_mut(j);
        (&mut l[i], &mut r[0])
    } else {
        let (l, r) = v.split_at_mut(i);
        (&mut r[0], &mut l[j])
    }
}

impl<'m> Solver<'m> {
    fn new(m: &'m Module) -> Self {
        let reps = object_reps(m);
        let layout = NodeLayout::new(m, &reps);
        let n_nodes = layout.n_nodes;
        Solver {
            m,
            layout,
            parent: (0..n_nodes as u32).collect(),
            targets: Vec::with_capacity(m.objects.len() + m.funcs.len()),
            target_ids: FxHashMap::with_capacity_and_hasher(
                m.objects.len() + m.funcs.len(),
                Default::default(),
            ),
            pts: vec![PtsSet::new(); n_nodes],
            delta: vec![Vec::new(); n_nodes],
            copy_succs: vec![Vec::new(); n_nodes],
            load_cons: ConsArena::new(n_nodes),
            store_cons: ConsArena::new(n_nodes),
            gep_cons: ConsArena::new(n_nodes),
            call_cons: ConsArena::new(n_nodes),
            call_args: Vec::new(),
            site_info: FxHashMap::default(),
            wired: FxHashSet::default(),
            worklist: VecDeque::new(),
            in_wl: vec![false; n_nodes],
            cg: CallGraph::default(),
            reps,
            scratch: Vec::new(),
            fresh_buf: Vec::new(),
            loc_buf: Vec::new(),
            pops: 0,
            merges: 0,
            cur_words: 0,
            peak_words: 0,
            unify_classes: 0,
            unify_collapsed: 0,
            prefilter_us: 0,
            alloc_block: vec![u32::MAX; m.objects.len()],
        }
    }

    /// Runs the unification prefilter ([`crate::unify`]) and pre-seeds
    /// the union-find with its oversharing-safe equivalence classes, so
    /// every class is solved on one representative node. Must run before
    /// [`Solver::seed`].
    fn apply_prefilter(&mut self) {
        let t0 = std::time::Instant::now();
        let pf = crate::unify::prefilter(self.m, &self.layout);
        debug_assert_eq!(pf.parent.len() as u32, self.layout.mem_base);
        for (n, &rep) in pf.parent.iter().enumerate() {
            self.parent[n] = rep;
        }
        self.unify_classes = pf.classes;
        self.unify_collapsed = pf.collapsed;
        self.prefilter_us = t0.elapsed().as_micros() as usize;
    }

    #[inline]
    fn var_node(&self, f: FuncId, v: VarId) -> u32 {
        self.layout.var_node(f, v)
    }

    #[inline]
    fn ret_node(&self, f: FuncId) -> u32 {
        self.layout.ret_node(f)
    }

    /// The memory node of a Loc (whose field is always one of its
    /// object's cell indices).
    #[inline]
    fn mem_node(&self, l: Loc) -> u32 {
        self.layout.mem_node(l)
    }

    fn tid(&mut self, t: Target) -> u32 {
        if let Some(&id) = self.target_ids.get(&t) {
            return id;
        }
        let id = self.targets.len() as u32;
        self.targets.push(t);
        self.target_ids.insert(t, id);
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

    fn track_words(&mut self, before: usize, after: usize) {
        self.cur_words = self.cur_words + after - before;
        self.peak_words = self.peak_words.max(self.cur_words);
    }

    /// Inserts interned ids into `pts(n)`, queueing the genuinely new.
    fn add_target_ids(&mut self, n: u32, ids: &[u32]) {
        let n = self.find(n) as usize;
        let before = self.pts[n].words();
        let mut added = false;
        for &id in ids {
            if self.pts[n].insert(id) {
                self.delta[n].push(id);
                added = true;
            }
        }
        let after = self.pts[n].words();
        self.track_words(before, after);
        if added {
            self.enqueue(n as u32);
        }
    }

    fn add_targets(&mut self, n: u32, ts: impl IntoIterator<Item = Target>) {
        let n = self.find(n) as usize;
        let before = self.pts[n].words();
        let mut added = false;
        for t in ts {
            let id = self.tid(t);
            if self.pts[n].insert(id) {
                self.delta[n].push(id);
                added = true;
            }
        }
        let after = self.pts[n].words();
        self.track_words(before, after);
        if added {
            self.enqueue(n as u32);
        }
    }

    /// Unions `pts(from)` into `pts(to)` by bitwise union-with-difference,
    /// queueing `to` when it gained targets. `from != to` (resolved).
    fn flow_full_pts(&mut self, from: u32, to: u32) {
        let mut fresh = std::mem::take(&mut self.fresh_buf);
        fresh.clear();
        let (src, dst) = two_mut(&mut self.pts, from as usize, to as usize);
        let before = dst.words();
        dst.union_with_diff(src, &mut fresh);
        let after = dst.words();
        self.track_words(before, after);
        if !fresh.is_empty() {
            self.delta[to as usize].extend(fresh.iter().copied());
            self.enqueue(to);
        }
        self.fresh_buf = fresh;
    }

    fn add_copy_edge(&mut self, from: u32, to: u32) {
        let from = self.find(from);
        let to = self.find(to);
        if from == to {
            return;
        }
        let succs = &mut self.copy_succs[from as usize];
        if let Err(pos) = succs.binary_search(&to) {
            succs.insert(pos, to);
            self.flow_full_pts(from, to);
        }
    }

    /// Runs `f` over a snapshot of `pts(n)` through a reusable buffer —
    /// the borrow-friendly replacement for the collect-into-fresh-`Vec`
    /// pattern the seeding and replay paths previously repeated.
    fn with_pts_snapshot<R>(&mut self, n: u32, f: impl FnOnce(&mut Self, &[u32]) -> R) -> R {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(self.pts[n as usize].iter());
        let r = f(self, &buf);
        self.scratch = buf;
        r
    }

    fn operand_node(&mut self, f: FuncId, op: Operand) -> Option<u32> {
        match op {
            Operand::Var(v) => Some(self.var_node(f, v)),
            _ => None,
        }
    }

    /// Targets contributed directly by a constant operand.
    fn operand_const_targets(&self, op: Operand) -> Vec<Target> {
        match op {
            Operand::Global(o) => vec![Target::Loc(Loc { obj: o, field: 0 })],
            Operand::Func(g) => vec![Target::Func(g)],
            _ => Vec::new(),
        }
    }

    /// Flows `op` into node `dst` (edge or direct targets).
    fn flow_into(&mut self, f: FuncId, op: Operand, dst: u32) {
        match op {
            Operand::Var(v) => {
                let n = self.var_node(f, v);
                self.add_copy_edge(n, dst);
            }
            Operand::Global(o) => {
                self.add_targets(dst, [Target::Loc(Loc { obj: o, field: 0 })]);
            }
            Operand::Func(g) => self.add_targets(dst, [Target::Func(g)]),
            Operand::Const(_) | Operand::Undef => {}
        }
    }

    // ---- constraint generation -----------------------------------------

    fn seed(&mut self) {
        for (fid, func) in self.m.funcs.iter_enumerated() {
            for (bb, block) in func.blocks.iter_enumerated() {
                for (idx, inst) in block.insts.iter().enumerate() {
                    self.seed_inst(fid, Site::new(fid, bb, idx), inst);
                }
                if let Terminator::Ret(Some(op)) = &block.term {
                    let r = self.ret_node(fid);
                    self.flow_into(fid, *op, r);
                }
            }
        }
    }

    /// Replays one existing Loc target against a gep constraint. The
    /// shifted locations go through a reusable buffer — geps are hot on
    /// both the seeding and replay paths, and `shift` used to allocate a
    /// fresh `Vec` per application.
    fn apply_gep(&mut self, l: Loc, kind: &GepKind, dst: u32) {
        let mut buf = std::mem::take(&mut self.loc_buf);
        buf.clear();
        self.shift_into(l, kind, &mut buf);
        self.add_targets(dst, buf.iter().copied().map(Target::Loc));
        self.loc_buf = buf;
    }

    fn seed_inst(&mut self, f: FuncId, site: Site, inst: &Inst) {
        match inst {
            Inst::Copy { dst, src } => {
                let d = self.var_node(f, *dst);
                self.flow_into(f, *src, d);
            }
            Inst::Un { .. } | Inst::Bin { .. } => {
                // Arithmetic results are not pointers in TinyC's type
                // discipline (pointer arithmetic is a gep).
            }
            Inst::Alloc { dst, obj, .. } => {
                if self.alloc_block[obj.index()] == u32::MAX {
                    self.alloc_block[obj.index()] = site.block.index() as u32;
                }
                let d = self.var_node(f, *dst);
                self.add_targets(
                    d,
                    [Target::Loc(Loc {
                        obj: *obj,
                        field: 0,
                    })],
                );
            }
            Inst::Gep { dst, base, offset } => {
                let d = self.var_node(f, *dst);
                let kind = match offset {
                    GepOffset::Field(k) => GepKind::Field(*k),
                    GepOffset::Index { .. } => GepKind::Dynamic,
                };
                match self.operand_node(f, *base) {
                    Some(b) => {
                        let b = self.find(b);
                        self.gep_cons.push(b, (kind, d));
                        // Replay existing targets.
                        self.with_pts_snapshot(b, |s, ids| {
                            for &id in ids {
                                if let Target::Loc(l) = s.targets[id as usize] {
                                    s.apply_gep(l, &kind, d);
                                }
                            }
                        });
                    }
                    None => {
                        for t in self.operand_const_targets(*base) {
                            if let Target::Loc(l) = t {
                                self.apply_gep(l, &kind, d);
                            }
                        }
                    }
                }
            }
            Inst::Load { dst, addr } => {
                let d = self.var_node(f, *dst);
                match self.operand_node(f, *addr) {
                    Some(a) => {
                        let a = self.find(a);
                        self.load_cons.push(a, d);
                        self.with_pts_snapshot(a, |s, ids| {
                            for &id in ids {
                                if let Target::Loc(l) = s.targets[id as usize] {
                                    let mn = s.mem_node(l);
                                    s.add_copy_edge(mn, d);
                                }
                            }
                        });
                    }
                    None => {
                        for t in self.operand_const_targets(*addr) {
                            if let Target::Loc(l) = t {
                                let mn = self.mem_node(l);
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
                        None => return, // storing a non-pointer constant
                    },
                };
                match self.operand_node(f, *addr) {
                    Some(a) => {
                        let a = self.find(a);
                        self.store_cons.push(a, src);
                        self.with_pts_snapshot(a, |s, ids| {
                            for &id in ids {
                                if let Target::Loc(l) = s.targets[id as usize] {
                                    s.apply_store(src, l);
                                }
                            }
                        });
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
                let start = self.call_args.len() as u32;
                self.call_args.extend_from_slice(args);
                match callee {
                    // A direct site never goes through `wire_call` (only
                    // indirect sites register `call_cons`), so it needs
                    // neither a `site_info` entry nor `wired` dedup.
                    Callee::Direct(g) => {
                        self.wire_call_unchecked(site, *g, start, args.len() as u32, *dst)
                    }
                    Callee::Indirect(op) => {
                        self.site_info
                            .insert(site, (start, args.len() as u32, *dst));
                        match self.operand_node(f, *op) {
                            Some(t) => {
                                let t = self.find(t);
                                self.call_cons.push(t, site);
                                self.with_pts_snapshot(t, |s, ids| {
                                    for &id in ids {
                                        if let Target::Func(g) = s.targets[id as usize] {
                                            s.wire_call(site, g);
                                        }
                                    }
                                });
                            }
                            None => {
                                if let Operand::Func(g) = op {
                                    self.wire_call(site, *g);
                                }
                            }
                        }
                    }
                    Callee::External(_) => {
                        // Modelled externals neither create nor propagate
                        // pointers.
                    }
                }
            }
            Inst::Phi { dst, incomings } => {
                let d = self.var_node(f, *dst);
                for (_, op) in incomings {
                    self.flow_into(f, *op, d);
                }
            }
        }
    }

    fn apply_store(&mut self, src: StoreSrc, loc: Loc) {
        let mn = self.mem_node(loc);
        match src {
            StoreSrc::Node(n) => self.add_copy_edge(n, mn),
            StoreSrc::Const(t) => self.add_targets(mn, [t]),
        }
    }

    fn shift_into(&self, l: Loc, kind: &GepKind, out: &mut Vec<Loc>) {
        let obj = &self.m.objects[l.obj];
        match kind {
            GepKind::Field(k) => {
                if obj.is_array {
                    out.push(Loc {
                        obj: l.obj,
                        field: 0,
                    });
                } else {
                    // In-layout and out-of-layout constant offsets both map
                    // through the repeated element layout.
                    let cell = l.field + k;
                    out.push(self.rep_loc(l.obj, cell));
                }
            }
            GepKind::Dynamic => {
                if obj.is_array {
                    out.push(Loc {
                        obj: l.obj,
                        field: 0,
                    });
                } else {
                    // Pointer arithmetic over a non-array object: be
                    // conservative, hit every field class (ascending,
                    // deduplicated — `out` is cleared by the caller).
                    out.extend(
                        self.reps[&l.obj]
                            .iter()
                            .map(|&field| Loc { obj: l.obj, field }),
                    );
                    out.sort_unstable();
                    out.dedup();
                }
            }
        }
    }

    fn wire_call(&mut self, site: Site, g: FuncId) {
        let (start, len, dst) = self.site_info[&site];
        self.wire_call_at(site, g, start, len, dst);
    }

    /// [`Solver::wire_call`] with the site record already in hand — the
    /// direct-call seeding path just recorded it and skips the re-lookup.
    fn wire_call_at(&mut self, site: Site, g: FuncId, start: u32, len: u32, dst: Option<VarId>) {
        if !self.wired.insert((site, g)) {
            return;
        }
        self.wire_call_unchecked(site, g, start, len, dst);
    }

    /// [`Solver::wire_call_at`] minus the `(site, callee)` dedup — for
    /// direct call sites, which are wired exactly once during seeding.
    fn wire_call_unchecked(
        &mut self,
        site: Site,
        g: FuncId,
        start: u32,
        len: u32,
        dst: Option<VarId>,
    ) {
        self.cg.add_edge(site, g);
        let m = self.m;
        for (i, &p) in m.funcs[g].params.iter().enumerate().take(len as usize) {
            let a = self.call_args[start as usize + i];
            let pn = self.var_node(g, p);
            self.flow_into(site.func, a, pn);
        }
        if let Some(d) = dst {
            let dn = self.var_node(site.func, d);
            let rn = self.ret_node(g);
            self.add_copy_edge(rn, dn);
        }
    }

    // ---- solving ---------------------------------------------------------

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
            self.propagate_to_succs(n, &delta);
            self.replay_constraints(n, &delta);
        }
        Ok(())
    }

    /// Pushes a delta to `n`'s copy successors. The list is taken out
    /// rather than cloned; any edge out of `n` added while it is out
    /// flows its points-to set at insertion, so merging the two sorted
    /// lists afterwards loses nothing.
    fn propagate_to_succs(&mut self, n: u32, delta: &[u32]) {
        let succs = std::mem::take(&mut self.copy_succs[n as usize]);
        for &s in &succs {
            self.add_target_ids(s, delta);
        }
        let added = std::mem::replace(&mut self.copy_succs[n as usize], succs);
        for a in added {
            let v = &mut self.copy_succs[n as usize];
            if let Err(pos) = v.binary_search(&a) {
                v.insert(pos, a);
            }
        }
    }

    /// Reacts `n`'s complex constraints to new targets. The arena chains
    /// only grow during seeding and SCC merges, never inside this scan,
    /// so cursor walks see a frozen list without cloning.
    fn replay_constraints(&mut self, n: u32, delta: &[u32]) {
        for &t in delta {
            match self.targets[t as usize] {
                Target::Loc(l) => {
                    let mut cur = self.load_cons.first(n);
                    if cur != NIL {
                        let mn = self.mem_node(l);
                        while cur != NIL {
                            let (d, next) = self.load_cons.get(cur);
                            self.add_copy_edge(mn, d);
                            cur = next;
                        }
                    }
                    let mut cur = self.store_cons.first(n);
                    while cur != NIL {
                        let (src, next) = self.store_cons.get(cur);
                        self.apply_store(src, l);
                        cur = next;
                    }
                    let mut cur = self.gep_cons.first(n);
                    while cur != NIL {
                        let ((kind, d), next) = self.gep_cons.get(cur);
                        self.apply_gep(l, &kind, d);
                        cur = next;
                    }
                }
                Target::Func(g) => {
                    let mut cur = self.call_cons.first(n);
                    while cur != NIL {
                        let (site, next) = self.call_cons.get(cur);
                        self.wire_call(site, g);
                        cur = next;
                    }
                }
            }
        }
    }

    /// Tarjan over a CSR snapshot of the (representative-resolved)
    /// copy-edge graph; merges every nontrivial SCC into one node.
    fn collapse_cycles(&mut self) {
        let n = self.layout.n_nodes;
        // Resolve every node's representative once, then freeze the copy
        // graph into offsets + edges arrays (struct-of-arrays CSR).
        let node_rep: Vec<u32> = (0..n as u32).map(|i| self.find(i)).collect();
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            if node_rep[v] == v as u32 {
                offsets[v + 1] = self.copy_succs[v].len() as u32;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut edges = vec![0u32; offsets[n] as usize];
        for v in 0..n {
            if node_rep[v] != v as u32 {
                continue;
            }
            let base = offsets[v] as usize;
            for (i, &s) in self.copy_succs[v].iter().enumerate() {
                edges[base + i] = node_rep[s as usize];
            }
        }

        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next = 0u32;
        // (node, next edge cursor into `edges`)
        let mut call_stack: Vec<(u32, u32)> = Vec::new();
        let mut merges: Vec<Vec<u32>> = Vec::new();

        for start in 0..n as u32 {
            if node_rep[start as usize] != start || index[start as usize] != u32::MAX {
                continue;
            }
            call_stack.push((start, offsets[start as usize]));
            index[start as usize] = next;
            low[start as usize] = next;
            next += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some((v, cursor)) = call_stack.last_mut() {
                let v = *v;
                if *cursor < offsets[v as usize + 1] {
                    let w = edges[*cursor as usize];
                    *cursor += 1;
                    if index[w as usize] == u32::MAX {
                        index[w as usize] = next;
                        low[w as usize] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call_stack.push((w, offsets[w as usize]));
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
                    if let Some((u, _)) = call_stack.last() {
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

    /// Merges `b` into `a`. Only the genuinely fresh targets (b's pts
    /// minus a's) enter `delta[a]`; b's inherited constraints and copy
    /// successors are replayed against a's full set directly — instead of
    /// the previous full-points-to replay on every merge, which was
    /// quadratic across SCC chains.
    fn merge(&mut self, a: u32, b: u32) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return;
        }
        self.merges += 1;
        self.parent[b as usize] = a;
        let b_pts = std::mem::take(&mut self.pts[b as usize]);
        // Pending entries of b are a subset of b_pts: the union below and
        // the constraint replay cover them.
        let _b_delta = std::mem::take(&mut self.delta[b as usize]);
        let b_succs = std::mem::take(&mut self.copy_succs[b as usize]);
        self.track_words(b_pts.words(), 0);

        // 1. Union b's targets into a; only the difference becomes delta
        //    (a's own constraints and successors see it on the next pop).
        let mut fresh = std::mem::take(&mut self.fresh_buf);
        fresh.clear();
        let before = self.pts[a as usize].words();
        self.pts[a as usize].union_with_diff(&b_pts, &mut fresh);
        let after = self.pts[a as usize].words();
        self.track_words(before, after);
        self.delta[a as usize].extend(fresh.iter().copied());
        self.fresh_buf = fresh;

        // 2. b's constraints have only seen b's targets: replay them
        //    against the merged set once (idempotent for the overlap),
        //    then splice b's chains onto a's.
        self.with_pts_snapshot(a, |s, ids| {
            for &id in ids {
                match s.targets[id as usize] {
                    Target::Loc(l) => {
                        let mut cur = s.load_cons.first(b);
                        while cur != NIL {
                            let (d, next) = s.load_cons.get(cur);
                            let mn = s.mem_node(l);
                            s.add_copy_edge(mn, d);
                            cur = next;
                        }
                        let mut cur = s.store_cons.first(b);
                        while cur != NIL {
                            let (src, next) = s.store_cons.get(cur);
                            s.apply_store(src, l);
                            cur = next;
                        }
                        let mut cur = s.gep_cons.first(b);
                        while cur != NIL {
                            let ((kind, d), next) = s.gep_cons.get(cur);
                            s.apply_gep(l, &kind, d);
                            cur = next;
                        }
                    }
                    Target::Func(g) => {
                        let mut cur = s.call_cons.first(b);
                        while cur != NIL {
                            let (site, next) = s.call_cons.get(cur);
                            s.wire_call(site, g);
                            cur = next;
                        }
                    }
                }
            }
        });
        self.load_cons.concat(a, b);
        self.store_cons.concat(a, b);
        self.gep_cons.concat(a, b);
        self.call_cons.concat(a, b);

        // 3. b's copy successors are fresh edges out of a: flow the full
        //    merged set to each (deduplicated against a's existing edges).
        for s in b_succs {
            self.add_copy_edge(a, s);
        }
        self.enqueue(a);
    }

    // ---- finalization ----------------------------------------------------

    fn finish(mut self) -> PointerAnalysis {
        // Extract per-node results (resolving union-find). Target order in
        // the output is the payload (`Target`) order, matching the
        // reference solver's `BTreeSet` iteration: interned ids are mapped
        // to payload-order ranks once, so per-node ordering is a plain
        // `u32` sort. Nodes with empty sets are not materialized (the
        // accessors default to empty).
        let mut order: Vec<u32> = (0..self.targets.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.targets[i as usize]);
        let mut rank_of = vec![0u32; self.targets.len()];
        for (rank, &id) in order.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        let target_by_rank: Vec<Target> =
            order.iter().map(|&id| self.targets[id as usize]).collect();

        // Non-empty rows in output order, with their representatives,
        // collected first so the maps and the pool allocate exactly once.
        let m = self.m;
        let mut var_rows: Vec<((FuncId, VarId), u32)> = Vec::new();
        for (f, func) in m.funcs.iter_enumerated() {
            for (v, _) in func.vars.iter_enumerated() {
                let rep = self.find(self.var_node(f, v));
                if !self.pts[rep as usize].is_empty() {
                    var_rows.push(((f, v), rep));
                }
            }
        }
        let mut mem_rows: Vec<(Loc, u32)> = Vec::new();
        for (oid, _o) in m.objects.iter_enumerated() {
            for field in 0..self.reps[&oid].len() as u32 {
                let l = Loc { obj: oid, field };
                let rep = self.find(self.mem_node(l));
                if !self.pts[rep as usize].is_empty() {
                    mem_rows.push((l, rep));
                }
            }
        }
        let pts = &self.pts;
        let total_targets: usize = var_rows
            .iter()
            .map(|&(_, rep)| rep)
            .chain(mem_rows.iter().map(|&(_, rep)| rep))
            .map(|rep| pts[rep as usize].len())
            .sum();
        let mut pool: Vec<Target> = Vec::with_capacity(total_targets);
        let mut ranks: Vec<u32> = Vec::new();
        let mut push_row = |rep: u32| -> (u32, u32) {
            ranks.clear();
            ranks.extend(pts[rep as usize].iter().map(|id| rank_of[id as usize]));
            ranks.sort_unstable();
            let start = pool.len() as u32;
            pool.extend(ranks.iter().map(|&r| target_by_rank[r as usize]));
            (start, pool.len() as u32)
        };
        let var_pts: FxHashMap<(FuncId, VarId), (u32, u32)> = var_rows
            .iter()
            .map(|&(key, rep)| (key, push_row(rep)))
            .collect();
        let mem_pts: FxHashMap<Loc, (u32, u32)> = mem_rows
            .iter()
            .map(|&(l, rep)| (l, push_row(rep)))
            .collect();

        let stats = SolverStats {
            nodes: self.layout.n_nodes,
            interned_targets: self.targets.len(),
            pops: self.pops,
            merges: self.merges,
            peak_pts_words: self.peak_words,
            unify_classes: self.unify_classes,
            unify_collapsed: self.unify_collapsed,
            prefilter_us: self.prefilter_us,
        };
        let alloc_block = std::mem::take(&mut self.alloc_block);
        finish_analysis_with(
            self.m,
            self.cg,
            self.reps,
            Solution {
                var_pts,
                mem_pts,
                pool,
                stats,
            },
            Some(alloc_block),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use usher_frontend_shim::compile;
    use usher_ir::{Callee, FuncBuilder, Module, ObjKind, StructDef, Type};

    /// Tests compile tiny programs through a minimal local shim to avoid a
    /// dev-dependency cycle; see the integration tests at the workspace
    /// root for full-pipeline coverage.
    mod usher_frontend_shim {
        pub use test_build::compile;
        mod test_build {
            use usher_ir::*;

            /// Builds: main { a = alloc x; b = alloc y; p = cond ? a : b;
            /// *p = a; q = *p; } — classic Andersen diamond.
            pub fn compile() -> (Module, FuncId, Vec<VarId>, Vec<ObjId>) {
                let mut m = Module::new();
                let int = m.types.int();
                let fid = m.declare_func("main", None);
                m.main = Some(fid);
                let mut b = FuncBuilder::new(&mut m, fid);
                let (a, xo) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
                let pint = b.module.types.ptr_to(int);
                let (bv, yo) = b.alloc("y", ObjKind::Stack(fid), pint, false, None);
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
                let q = b.load(p.into(), pint);
                b.ret(None);
                b.finish();
                (m, fid, vec![a, bv, p, q], vec![xo, yo])
            }
        }
    }

    #[test]
    fn phi_merges_points_to_sets() {
        let (m, fid, vars, objs) = compile();
        let pa = analyze(&m);
        let p = vars[2];
        let pts = pa.pts_var(fid, p);
        assert_eq!(pts.len(), 2);
        assert!(pts.contains(&Loc {
            obj: objs[0],
            field: 0
        }));
        assert!(pts.contains(&Loc {
            obj: objs[1],
            field: 0
        }));
    }

    #[test]
    fn store_then_load_propagates_through_memory() {
        let (m, fid, vars, objs) = compile();
        let pa = analyze(&m);
        // q := *p where *p may contain a (which points to x).
        let q = vars[3];
        let pts = pa.pts_var(fid, q);
        assert!(
            pts.contains(&Loc {
                obj: objs[0],
                field: 0
            }),
            "{pts:?}"
        );
    }

    #[test]
    fn concrete_objects_in_main_outside_loops() {
        let (m, _fid, _vars, objs) = compile();
        let pa = analyze(&m);
        assert!(pa.is_concrete(Loc {
            obj: objs[0],
            field: 0
        }));
        assert!(pa.is_concrete(Loc {
            obj: objs[1],
            field: 0
        }));
    }

    #[test]
    fn unique_target_detects_singletons() {
        let (m, fid, vars, objs) = compile();
        let pa = analyze(&m);
        let a = vars[0];
        assert_eq!(
            pa.unique_target(fid, a.into()),
            Some(Loc {
                obj: objs[0],
                field: 0
            })
        );
        let p = vars[2];
        assert_eq!(pa.unique_target(fid, p.into()), None);
    }

    #[test]
    fn gep_field_shifts_target() {
        let mut m = Module::new();
        let int = m.types.int();
        let s = m.types.add_struct(StructDef {
            name: "P".into(),
            fields: vec![("x".into(), int), ("y".into(), int)],
        });
        let sty = m.types.intern(Type::Struct(s));
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let (p, obj) = b.alloc("s", ObjKind::Stack(fid), sty, false, None);
        let pint = b.module.types.ptr_to(int);
        let g = b.gep_field(p.into(), 1, pint);
        b.store(g.into(), Operand::Const(1));
        b.ret(None);
        b.finish();
        let pa = analyze(&m);
        assert_eq!(pa.pts_var(fid, g), vec![Loc { obj, field: 1 }]);
    }

    #[test]
    fn dynamic_gep_on_array_stays_in_class_zero() {
        let mut m = Module::new();
        let int = m.types.int();
        let arr = m.types.intern(Type::Array(int, 8));
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let (p, obj) = b.alloc("a", ObjKind::Stack(fid), arr, false, None);
        let i = b.copy(int, Operand::Const(3));
        let pint = b.module.types.ptr_to(int);
        let g = b.gep_index(p.into(), i.into(), 1, pint);
        b.store(g.into(), Operand::Const(1));
        b.ret(None);
        b.finish();
        let pa = analyze(&m);
        assert_eq!(pa.pts_var(fid, g), vec![Loc { obj, field: 0 }]);
        // Array classes are never concrete for strong updates.
        assert!(!pa.is_concrete(Loc { obj, field: 0 }));
    }

    #[test]
    fn indirect_call_resolved_on_the_fly() {
        let mut m = Module::new();
        let int = m.types.int();
        let fp = m.types.intern(Type::FuncPtr {
            params: 0,
            has_ret: true,
        });
        let gid = m.declare_func("g", Some(int));
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        {
            let mut b = FuncBuilder::new(&mut m, gid);
            b.ret(Some(Operand::Const(7)));
            b.finish();
        }
        {
            let mut b = FuncBuilder::new(&mut m, fid);
            let t = b.copy(fp, Operand::Func(gid));
            b.call(Callee::Indirect(t.into()), vec![], Some(int));
            b.ret(None);
            b.finish();
        }
        let pa = analyze(&m);
        let sites: Vec<_> = pa.call_graph.callees.keys().collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(pa.call_graph.callees_of(*sites[0]), &[gid]);
    }

    #[test]
    fn interprocedural_flow_through_params_and_ret() {
        let mut m = Module::new();
        let int = m.types.int();
        let pint = m.types.ptr_to(int);
        let gid = m.declare_func("id", Some(pint));
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        {
            let mut b = FuncBuilder::new(&mut m, gid);
            let p = b.param("p", pint);
            b.ret(Some(p.into()));
            b.finish();
        }
        let (q, obj);
        {
            let mut b = FuncBuilder::new(&mut m, fid);
            let (a, o) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
            obj = o;
            q = b
                .call(Callee::Direct(gid), vec![a.into()], Some(pint))
                .unwrap();
            b.store(q.into(), Operand::Const(1));
            b.ret(None);
            b.finish();
        }
        let pa = analyze(&m);
        assert_eq!(pa.pts_var(fid, q), vec![Loc { obj, field: 0 }]);
    }

    #[test]
    fn global_operand_points_to_global_object() {
        let mut m = Module::new();
        let int = m.types.int();
        let g = m.add_object("g", ObjKind::Global, int, true, false);
        m.globals.push(g);
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let pint = b.module.types.ptr_to(int);
        let p = b.copy(pint, Operand::Global(g));
        b.store(p.into(), Operand::Const(3));
        b.ret(None);
        b.finish();
        let pa = analyze(&m);
        assert_eq!(pa.pts_var(fid, p), vec![Loc { obj: g, field: 0 }]);
        assert!(pa.is_concrete(Loc { obj: g, field: 0 }));
    }

    #[test]
    fn loop_allocation_is_not_concrete() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("main", None);
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(header);
        b.set_block(header);
        b.br(Operand::Const(1), body, exit);
        b.set_block(body);
        let (_p, obj) = b.alloc("x", ObjKind::Heap(fid), int, false, None);
        b.jmp(header);
        b.set_block(exit);
        b.ret(None);
        b.finish();
        let pa = analyze(&m);
        assert!(!pa.is_concrete(Loc { obj, field: 0 }));
    }

    #[test]
    fn solver_stats_are_populated() {
        let (m, _fid, _vars, _objs) = compile();
        let pa = analyze(&m);
        assert!(pa.stats.nodes > 0);
        assert!(pa.stats.interned_targets >= 2);
        assert!(pa.stats.pops > 0);
    }
}
