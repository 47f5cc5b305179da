//! `mem2reg`: promotion of scalar stack slots to SSA registers.
//!
//! This is the `M` of the paper's `O0+IM` configuration. The front-end
//! lowers every named local through a stack slot; this pass promotes each
//! slot whose address never escapes (used only directly as a load/store
//! address) into SSA registers with phis at iterated dominance frontiers.
//! Promoted variables become the *top-level* variables of the analysis;
//! the remaining slots are the *address-taken* variables.
//!
//! A load that can observe the slot before any store yields
//! [`Operand::Undef`] — the analogue of LLVM's `undef`, which the
//! value-flow analysis connects to the root `F`.
//!
//! A promoted local leaves no trace: its slot pointer is dropped from the
//! function's variable table (the survivors are renumbered in order), and
//! [`mem2reg`] retires its object and compacts the object table in order.
//! Adding or removing a promotable local therefore shifts no other
//! object id and no other variable id.
//!
//! # The walk
//!
//! [`mem2reg`] runs in three phases:
//!
//! 1. **Find**, per function and read-only over the object table: prune
//!    the unreachable blocks (keeping the CFG when nothing was pruned),
//!    then one scan classifies every variable in a dense table
//!    (candidate slot pointer or escaped) and records the block of every
//!    alloc and store. The surviving candidates are the function's slots,
//!    numbered in ascending pointer order.
//! 2. **Compact**: every function's promoted objects give one object-id
//!    compaction map.
//! 3. **Promote**, per function: phis go at each slot's iterated
//!    dominance frontier, computed on epoch-stamped scratch that every
//!    slot reuses; their variables are numbered slot-major, and each
//!    block's phis are prepended in one splice (the later slot first).
//!    Then one preorder walk of the dominator tree rewrites every block's
//!    instructions in place: loads become copies of the slot's current
//!    value, allocs and stores of a slot set it and disappear, and every
//!    other instruction has its variables renumbered and its object ids
//!    compacted. Leaving a dominator subtree undoes its definitions from
//!    a log, and successor phis receive the current values along each
//!    CFG edge.
//!
//! Every table is a dense vector indexed by variable, slot or block, so
//! the pass is linear in the function's size plus the frontier edges the
//! phi placement walks and the phis it places. Nothing is sized by slots
//! × blocks: the frontier scratch is stamped rather than cleared per
//! slot, and the rename restores only what a subtree defined instead of
//! copying every slot's value at each dominator-tree edge.

use crate::cfg::Cfg;
use crate::dom::{DomTree, IdfScratch};
use crate::ids::{BlockId, FuncId, Idx, IdxVec, ObjId, TypeId, VarId};
use crate::module::{Function, Inst, Module, ObjKind, ObjectData, Operand, VarData};
use crate::opt::prune_unreachable;
use crate::types::TypeTable;

/// Statistics from one `mem2reg` run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mem2RegStats {
    /// Stack slots promoted to registers.
    pub promoted: usize,
    /// Phi instructions inserted.
    pub phis_inserted: usize,
    /// Loads that became `Undef` reads (possible uninitialized locals).
    pub undef_reads: usize,
}

impl Mem2RegStats {
    fn add(&mut self, o: Mem2RegStats) {
        self.promoted += o.promoted;
        self.phis_inserted += o.phis_inserted;
        self.undef_reads += o.undef_reads;
    }
}

/// Runs `mem2reg` over every function of the module, then retires the
/// promoted objects (see [`mem2reg_retiring`]).
pub fn mem2reg(m: &mut Module) -> Mem2RegStats {
    mem2reg_retiring(m).0
}

/// [`mem2reg`], additionally returning the ids the retired objects had
/// before compaction, ascending. An object is retired when its slot was
/// promoted and no remaining `Alloc` names it; the table is compacted in
/// order, so the surviving objects keep their relative order, and every
/// reference to them is rewritten.
pub fn mem2reg_retiring(m: &mut Module) -> (Mem2RegStats, Vec<ObjId>) {
    let Module {
        funcs,
        types,
        objects,
        globals,
        ..
    } = m;
    let found: Vec<Option<Slots>> = funcs
        .iter_mut()
        .map(|f| find_slots(f, objects, types))
        .collect();
    let mut retired: Vec<ObjId> = (found.iter().flatten())
        .flat_map(|s| s.objs.iter().copied())
        .collect();
    retired.sort_unstable();
    retired.dedup();
    let remap = ObjRemap::new(objects.len(), &retired, globals);
    let mut total = Mem2RegStats::default();
    for (f, slots) in funcs.iter_mut().zip(found) {
        match slots {
            Some(s) => total.add(promote(f, s, objects, remap.as_ref())),
            None => {
                if let Some(r) = &remap {
                    r.rewrite(f);
                }
            }
        }
    }
    if let Some(r) = remap {
        objects.retain_indices(|o| r.map[o].is_some());
        for g in globals.iter_mut() {
            *g = r.new_id(*g);
        }
    }
    (total, retired)
}

/// Runs `mem2reg` over a single function. Promotion is per-function (it
/// reads only the function body and the module's object table), so the
/// incremental serve path can promote one relowered body and leave every
/// other function's SSA form untouched.
///
/// The function's dead slot pointers are dropped and its surviving
/// variables renumbered in order, as [`mem2reg`] does. The promoted
/// objects are returned, not retired: they stay in the table with no
/// `Alloc` naming them, and the caller removes them (the relowering
/// splice keeps only the survivors of a body's objects).
pub fn mem2reg_function(m: &mut Module, fid: FuncId) -> (Mem2RegStats, Vec<ObjId>) {
    let f = &mut m.funcs[fid];
    match find_slots(f, &m.objects, &m.types) {
        Some(s) => {
            let objs = s.objs.clone();
            (promote(f, s, &m.objects, None), objs)
        }
        None => (Mem2RegStats::default(), Vec::new()),
    }
}

/// Marks a variable that is not a promoted slot pointer in [`Slots`].
const NONE: u32 = u32::MAX;

/// One function's promotable slots, found by [`find_slots`].
struct Slots {
    /// Slot index of each variable that is a promoted slot pointer;
    /// [`NONE`] for every other variable.
    slot_of: Vec<u32>,
    /// Each slot's object, in slot (ascending pointer) order.
    objs: Vec<ObjId>,
    /// Each slot's value type.
    val_tys: Vec<TypeId>,
    /// Slot `s`'s definition blocks (its alloc's and its stores') are
    /// `def_blocks[def_start[s]..def_start[s + 1]]`, in block order.
    def_start: Vec<u32>,
    def_blocks: Vec<BlockId>,
    /// The function's CFG; promotion does not change control flow.
    cfg: Cfg,
}

/// The object-id compaction once the retired objects are removed.
struct ObjRemap {
    map: IdxVec<ObjId, Option<ObjId>>,
    /// Whether some global's id changes (only then do global address
    /// operands need rewriting).
    globals_moved: bool,
}

impl ObjRemap {
    /// `None` when nothing is retired.
    fn new(len: usize, retired: &[ObjId], globals: &[ObjId]) -> Option<ObjRemap> {
        let &first = retired.first()?;
        let mut map = IdxVec::from_elem(None, len);
        let mut dead = retired.iter().peekable();
        let mut next = 0;
        for i in 0..len {
            let id = ObjId::from_usize(i);
            if dead.next_if_eq(&&id).is_none() {
                map[id] = Some(ObjId::from_usize(next));
                next += 1;
            }
        }
        Some(ObjRemap {
            map,
            globals_moved: globals.iter().any(|&g| g > first),
        })
    }

    fn new_id(&self, o: ObjId) -> ObjId {
        self.map[o].expect("a retired object is named only by its promoted slot")
    }

    fn operand(&self, op: Operand) -> Operand {
        match op {
            Operand::Global(o) if self.globals_moved => Operand::Global(self.new_id(o)),
            op => op,
        }
    }

    /// Rewrites the object ids of a function that promoted nothing.
    fn rewrite(&self, f: &mut Function) {
        for block in f.blocks.iter_mut() {
            for inst in &mut block.insts {
                if let Inst::Alloc { obj, .. } = inst {
                    *obj = self.new_id(*obj);
                }
                if self.globals_moved {
                    inst.map_uses(|op| self.operand(op));
                }
            }
            if self.globals_moved {
                block.term.map_uses(|op| self.operand(op));
            }
        }
    }
}

/// Phase 1 for one function: prunes its unreachable blocks and finds its
/// scalar stack slots whose pointer is used only as a direct load/store
/// address. `None` when there is none.
fn find_slots(
    f: &mut Function,
    objects: &IdxVec<ObjId, ObjectData>,
    types: &TypeTable,
) -> Option<Slots> {
    let cfg = prune_unreachable(f);
    const UNSEEN: u8 = 0;
    const CANDIDATE: u8 = 1;
    const ESCAPED: u8 = 2;
    let mut state = vec![UNSEEN; f.vars.len()];
    let mut cands: Vec<(VarId, ObjId)> = Vec::new();
    // (pointer, block) of every alloc and of every store through a
    // pointer not yet known to escape; filtered to the slots below.
    let mut defs: Vec<(VarId, BlockId)> = Vec::new();
    for (bb, block) in f.blocks.iter_enumerated() {
        for inst in &block.insts {
            match inst {
                Inst::Alloc {
                    dst,
                    obj,
                    count: None,
                } => {
                    let o = &objects[*obj];
                    if matches!(o.kind, ObjKind::Stack(_))
                        && o.size == 1
                        && !o.is_array
                        && state[dst.index()] == UNSEEN
                    {
                        state[dst.index()] = CANDIDATE;
                        cands.push((*dst, *obj));
                        defs.push((*dst, bb));
                    }
                }
                // A direct load address is fine.
                Inst::Load { .. } => {}
                Inst::Store { addr, val } => {
                    // Storing the pointer itself escapes it.
                    if let Operand::Var(v) = val {
                        state[v.index()] = ESCAPED;
                    }
                    if let Operand::Var(p) = addr {
                        if state[p.index()] != ESCAPED {
                            defs.push((*p, bb));
                        }
                    }
                }
                _ => inst.for_each_use(|o| {
                    if let Operand::Var(v) = o {
                        state[v.index()] = ESCAPED;
                    }
                }),
            }
        }
        block.term.for_each_use(|o| {
            if let Operand::Var(v) = o {
                state[v.index()] = ESCAPED;
            }
        });
    }
    cands.retain(|(v, _)| state[v.index()] == CANDIDATE);
    if cands.is_empty() {
        return None;
    }
    cands.sort_unstable_by_key(|c| c.0);

    let nslots = cands.len();
    let mut slot_of = vec![NONE; f.vars.len()];
    for (s, (v, _)) in cands.iter().enumerate() {
        slot_of[v.index()] = s as u32;
    }
    let mut def_start = vec![0u32; nslots + 1];
    for (v, _) in &defs {
        if let Some(s) = slot(&slot_of, *v) {
            def_start[s + 1] += 1;
        }
    }
    for s in 0..nslots {
        def_start[s + 1] += def_start[s];
    }
    let mut fill = def_start[..nslots].to_vec();
    let mut def_blocks = vec![BlockId(0); def_start[nslots] as usize];
    for (v, bb) in defs {
        if let Some(s) = slot(&slot_of, v) {
            def_blocks[fill[s] as usize] = bb;
            fill[s] += 1;
        }
    }
    let val_tys = (cands.iter())
        .map(|(v, _)| (types.pointee(f.vars[*v].ty)).expect("alloc result is a pointer"))
        .collect();
    Some(Slots {
        slot_of,
        objs: cands.into_iter().map(|(_, o)| o).collect(),
        val_tys,
        def_start,
        def_blocks,
        cfg: cfg.unwrap_or_else(|| Cfg::compute(f)),
    })
}

/// The slot `v` points to, if it is a promoted slot pointer.
fn slot(slot_of: &[u32], v: VarId) -> Option<usize> {
    let s = slot_of[v.index()];
    (s != NONE).then_some(s as usize)
}

/// A step of the dominator-tree walk: visit a block, or leave a subtree
/// by undoing the definitions logged since `mark`.
enum Step {
    Enter(BlockId),
    Leave(usize),
}

/// Phase 3 for one function: places the phis and runs the renaming,
/// renumbering and object-compacting walk (see the module doc).
fn promote(
    f: &mut Function,
    s: Slots,
    objects: &IdxVec<ObjId, ObjectData>,
    remap: Option<&ObjRemap>,
) -> Mem2RegStats {
    let Slots {
        slot_of,
        objs,
        val_tys,
        def_start,
        def_blocks,
        cfg,
    } = s;
    let nslots = objs.len();
    let nblocks = f.blocks.len();
    let dt = DomTree::compute(f, &cfg);

    // Old variable -> new id: the slot pointers drop out, the rest keep
    // their order, and the phis are numbered after them.
    let mut var_map = vec![NONE; slot_of.len()];
    let mut next = 0u32;
    for (v, &sl) in slot_of.iter().enumerate() {
        if sl == NONE {
            var_map[v] = next;
            next += 1;
        }
    }
    let first_phi = next as usize;

    // Phi placement. Phi `k` (in slot-major order) is variable
    // `first_phi + k` and merges slot `phi_slot[k]`.
    let mut scratch = IdfScratch::default();
    let mut frontier = Vec::new();
    let mut phi_block: Vec<BlockId> = Vec::new();
    let mut phi_slot: Vec<u32> = Vec::new();
    for sl in 0..nslots {
        let defs = &def_blocks[def_start[sl] as usize..def_start[sl + 1] as usize];
        dt.iterated_frontier(defs, &mut scratch, &mut frontier);
        for &bb in &frontier {
            phi_block.push(bb);
            phi_slot.push(sl as u32);
        }
    }
    // Each block's phis, the later slot first: `order[at[b]..at[b + 1]]`
    // lists block `b`'s phi numbers.
    let mut nphi: IdxVec<BlockId, usize> = IdxVec::from_elem(0, nblocks);
    for &bb in &phi_block {
        nphi[bb] += 1;
    }
    let mut at = vec![0usize; nblocks + 1];
    for (i, n) in nphi.iter().enumerate() {
        at[i + 1] = at[i] + n;
    }
    let mut order = vec![0usize; phi_block.len()];
    for (k, &bb) in phi_block.iter().enumerate().rev() {
        order[at[bb.index()]] = k;
        at[bb.index()] += 1;
    }
    for (i, block) in f.blocks.iter_mut().enumerate() {
        // `at[i]` now ends block `i`'s run.
        let n = nphi.raw()[i];
        if n == 0 {
            continue;
        }
        let npreds = cfg.preds[BlockId::from_usize(i)].len();
        let phis = order[at[i] - n..at[i]].iter().map(|&k| Inst::Phi {
            dst: VarId::from_usize(first_phi + k),
            incomings: Vec::with_capacity(npreds),
        });
        block.insts.splice(0..0, phis);
    }

    // The variable table: drop the slot pointers, append the phis.
    f.vars.retain_indices(|v| slot_of[v.index()] == NONE);
    for run in phi_slot.chunk_by(|a, b| a == b) {
        let sl = run[0] as usize;
        let name = format!("{}.phi", objects[objs[sl]].name);
        for _ in run {
            f.vars.push(VarData {
                name: name.clone(),
                ty: val_tys[sl],
            });
        }
    }
    let new_var = |v: VarId| {
        let n = var_map[v.index()];
        debug_assert!(n != NONE, "no instruction names a promoted slot");
        VarId(n)
    };
    for p in &mut f.params {
        *p = new_var(*p);
    }
    let map_op = |op: Operand| match op {
        Operand::Var(v) => Operand::Var(new_var(v)),
        op => remap.map_or(op, |r| r.operand(op)),
    };
    let phi_slot_of = |dst: VarId| phi_slot[dst.index() - first_phi] as usize;

    // The rename walk.
    let mut undef_reads = 0;
    let mut cur = vec![Operand::Undef; nslots];
    let mut log: Vec<(usize, Operand)> = Vec::new();
    let mut stack = vec![Step::Enter(f.entry)];
    while let Some(step) = stack.pop() {
        let bb = match step {
            Step::Enter(bb) => bb,
            Step::Leave(mark) => {
                for (sl, old) in log.drain(mark..).rev() {
                    cur[sl] = old;
                }
                continue;
            }
        };
        let mark = log.len();
        let np = nphi[bb];
        let block = &mut f.blocks[bb];
        for inst in &block.insts[..np] {
            let Inst::Phi { dst, .. } = inst else {
                unreachable!("a block's placed phis lead it");
            };
            let sl = phi_slot_of(*dst);
            log.push((sl, cur[sl]));
            cur[sl] = Operand::Var(*dst);
        }
        let mut seen = 0;
        block.insts.retain_mut(|inst| {
            seen += 1;
            if seen <= np {
                return true;
            }
            match inst {
                Inst::Alloc { dst, .. } if slot_of[dst.index()] != NONE => {
                    // The slot comes into existence holding Undef.
                    let sl = slot_of[dst.index()] as usize;
                    log.push((sl, cur[sl]));
                    cur[sl] = Operand::Undef;
                    false
                }
                Inst::Store {
                    addr: Operand::Var(p),
                    val,
                } if slot_of[p.index()] != NONE => {
                    let sl = slot_of[p.index()] as usize;
                    log.push((sl, cur[sl]));
                    cur[sl] = map_op(*val);
                    false
                }
                Inst::Load {
                    dst,
                    addr: Operand::Var(p),
                } if slot_of[p.index()] != NONE => {
                    let src = cur[slot_of[p.index()] as usize];
                    if src == Operand::Undef {
                        undef_reads += 1;
                    }
                    let dst = new_var(*dst);
                    *inst = Inst::Copy { dst, src };
                    true
                }
                _ => {
                    // Promoted pointers cannot appear here (escape check).
                    if let Some(d) = inst.dst_mut() {
                        *d = new_var(*d);
                    }
                    inst.map_uses(map_op);
                    if let (Inst::Alloc { obj, .. }, Some(r)) = (&mut *inst, remap) {
                        *obj = r.new_id(*obj);
                    }
                    true
                }
            }
        });
        block.term.map_uses(map_op);

        // Successor phis take the current values along each CFG edge.
        for &succ in &cfg.succs[bb] {
            let n = nphi[succ];
            for inst in &mut f.blocks[succ].insts[..n] {
                let Inst::Phi { dst, incomings } = inst else {
                    unreachable!("a block's placed phis lead it");
                };
                incomings.push((bb, cur[phi_slot_of(*dst)]));
            }
        }

        if log.len() > mark {
            stack.push(Step::Leave(mark));
        }
        for &c in dt.children[bb].iter().rev() {
            stack.push(Step::Enter(c));
        }
    }

    Mem2RegStats {
        promoted: nslots,
        phis_inserted: phi_block.len(),
        undef_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::{BinOp, Callee, Module};
    use crate::verify::verify;

    /// int x; if (c) { x = 1; } return x;  -- phi of (1, Undef)
    fn cond_init_module() -> (Module, FuncId) {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let c = b.param("c", int);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        let then_bb = b.new_block();
        let join = b.new_block();
        b.br(c.into(), then_bb, join);
        b.set_block(then_bb);
        b.store(x.into(), Operand::Const(1));
        b.jmp(join);
        b.set_block(join);
        let v = b.load(x.into(), int);
        b.ret(Some(v.into()));
        b.finish();
        m.main = Some(fid);
        (m, fid)
    }

    #[test]
    fn promotes_conditionally_initialized_local() {
        let (mut m, fid) = cond_init_module();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 1);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        // No load/store/alloc remains.
        let f = &m.funcs[fid];
        for block in f.blocks.iter() {
            for inst in &block.insts {
                assert!(
                    !matches!(
                        inst,
                        Inst::Load { .. } | Inst::Store { .. } | Inst::Alloc { .. }
                    ),
                    "memory op survived: {inst:?}"
                );
            }
        }
        // The phi merges Const(1) and Undef.
        let phi = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Phi { incomings, .. } => Some(incomings.clone()),
                _ => None,
            })
            .expect("phi inserted");
        let ops: Vec<Operand> = phi.iter().map(|(_, o)| *o).collect();
        assert!(ops.contains(&Operand::Const(1)));
        assert!(ops.contains(&Operand::Undef));
    }

    #[test]
    fn does_not_promote_escaping_slot() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let gid = m.declare_func("g", None);
        // g(p) { *p = 1; }
        {
            let mut b = FuncBuilder::new(&mut m, gid);
            let ip = m_ptr_int(b.module);
            let p = b.param("p", ip);
            b.store(p.into(), Operand::Const(1));
            b.ret(None);
            b.finish();
        }
        let mut b = FuncBuilder::new(&mut m, fid);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        b.call(crate::module::Callee::Direct(gid), vec![x.into()], None);
        let v = b.load(x.into(), int);
        b.ret(Some(v.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 0);
    }

    #[test]
    fn promoted_local_leaves_no_object_and_no_var() {
        // f(n) { a, c escape into h; x is promoted; *g = x + *a; return *c + n; }
        let mut m = Module::new();
        let int = m.types.int();
        let g = m.add_object("g", ObjKind::Global, int, true, false);
        m.globals.push(g);
        let fid = m.declare_func("f", Some(int));
        let hid = m.declare_func("h", None);
        {
            let mut b = FuncBuilder::new(&mut m, hid);
            let ip = m_ptr_int(b.module);
            let p = b.param("p", ip);
            b.store(p.into(), Operand::Const(1));
            b.ret(None);
            b.finish();
        }
        let mut b = FuncBuilder::new(&mut m, fid);
        let (a, _) = b.alloc("a", ObjKind::Stack(fid), int, false, None);
        let (x, ox) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        let (c, _) = b.alloc("c", ObjKind::Stack(fid), int, false, None);
        // A parameter numbered after the promoted slot must be renumbered.
        let n = b.param("n", int);
        b.store(x.into(), Operand::Const(5));
        b.call(Callee::Direct(hid), vec![a.into()], None);
        b.call(Callee::Direct(hid), vec![c.into()], None);
        let xv = b.load(x.into(), int);
        let av = b.load(a.into(), int);
        let s = b.bin(BinOp::Add, xv.into(), av.into());
        b.store(Operand::Global(g), s.into());
        let cv = b.load(c.into(), int);
        let r = b.bin(BinOp::Add, cv.into(), n.into());
        b.ret(Some(r.into()));
        b.finish();
        for (i, v) in m.funcs[fid].vars.iter_mut().enumerate() {
            v.name = format!("v{i}");
        }
        let objects_before = m.objects.clone();
        let vars_before = m.funcs[fid].vars.clone();

        let (stats, retired) = mem2reg_retiring(&mut m);
        assert_eq!(stats.promoted, 1);
        assert_eq!(retired, vec![ox]);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));

        // The object table lost exactly `x`; the rest kept their order.
        let names: Vec<&str> = m.objects.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["g", "a", "c"]);
        let kept: Vec<_> = (objects_before.iter_enumerated())
            .filter(|(o, _)| *o != ox)
            .map(|(_, d)| d.clone())
            .collect();
        assert_eq!(m.objects.raw(), &kept[..]);
        assert_eq!(m.globals, vec![g]);
        // The variable table lost exactly the slot pointer of `x`.
        let f = &m.funcs[fid];
        let kept: Vec<_> = (vars_before.iter_enumerated())
            .filter(|(v, _)| *v != x)
            .map(|(_, d)| d.clone())
            .collect();
        assert_eq!(f.vars.raw(), &kept[..]);
        assert_eq!(f.vars[f.params[0]].name, format!("v{}", n.index()));
        // Every reference reads the compacted ids.
        let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
        let allocs: Vec<(&str, &str)> = (insts.iter())
            .filter_map(|i| match i {
                Inst::Alloc { dst, obj, .. } => {
                    Some((f.vars[*dst].name.as_str(), m.objects[*obj].name.as_str()))
                }
                _ => None,
            })
            .collect();
        let slot_name = |v: VarId| format!("v{}", v.index());
        assert_eq!(
            allocs,
            [(slot_name(a).as_str(), "a"), (slot_name(c).as_str(), "c")]
        );
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Store {
                addr: Operand::Global(o),
                ..
            } if m.objects[*o].name == "g"
        )));
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Copy {
                src: Operand::Const(5),
                ..
            }
        )));
    }

    fn m_ptr_int(m: &mut Module) -> crate::ids::TypeId {
        let int = m.types.int();
        m.types.ptr_to(int)
    }

    #[test]
    fn straight_line_store_then_load_forwards_value() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        b.store(x.into(), Operand::Const(7));
        let v = b.load(x.into(), int);
        let w = b.bin(BinOp::Add, v.into(), Operand::Const(1));
        b.ret(Some(w.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 0);
        assert_eq!(stats.undef_reads, 0);
        // The load became Copy{src: Const(7)}.
        let f = &m.funcs[fid];
        assert!(f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::Copy {
                src: Operand::Const(7),
                ..
            }
        )));
    }

    #[test]
    fn load_before_store_reads_undef() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        let v = b.load(x.into(), int);
        b.ret(Some(v.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.undef_reads, 1);
        let f = &m.funcs[fid];
        assert!(f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::Copy {
                src: Operand::Undef,
                ..
            }
        )));
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        // i = 0; while (i < 10) i = i + 1; return i;
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let (i, _) = b.alloc("i", ObjKind::Stack(fid), int, false, None);
        b.store(i.into(), Operand::Const(0));
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(header);
        b.set_block(header);
        let iv = b.load(i.into(), int);
        let c = b.bin(BinOp::Lt, iv.into(), Operand::Const(10));
        b.br(c.into(), body, exit);
        b.set_block(body);
        let iv2 = b.load(i.into(), int);
        let inc = b.bin(BinOp::Add, iv2.into(), Operand::Const(1));
        b.store(i.into(), inc.into());
        b.jmp(header);
        b.set_block(exit);
        let r = b.load(i.into(), int);
        b.ret(Some(r.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert!(stats.phis_inserted >= 1);
        assert_eq!(stats.undef_reads, 0);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
    }
}
