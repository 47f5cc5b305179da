//! `mem2reg`: promotion of scalar stack slots to SSA registers.
//!
//! This is the `M` of the paper's `O0+IM` configuration. The front-end
//! lowers every named local through a stack slot; this pass promotes each
//! slot whose address never escapes (used only directly as a load/store
//! address) into SSA registers. The result is pruned SSA, as LLVM's
//! `mem2reg` builds it: a phi survives only where some load reads it,
//! directly or through other phis.
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
//! [`mem2reg`] runs in four phases:
//!
//! 1. **Find**, per function and read-only over the object table: prune
//!    the unreachable blocks (keeping the CFG when nothing was pruned),
//!    then one scan classifies every variable in a dense table
//!    (candidate slot pointer or escaped), records the block of every
//!    alloc and store, and notes which pointers some block loads through
//!    before it allocs or stores through them. The surviving candidates
//!    are the function's slots, numbered in ascending pointer order; a
//!    slot with no such upward-exposed load can never read a phi, so it
//!    keeps no definition blocks and gets no phi placement.
//! 2. **Compact**: every function's promoted objects give one object-id
//!    compaction map.
//! 3. **Promote**, per function: provisional phis go at each remaining
//!    slot's iterated dominance frontier, computed on epoch-stamped
//!    scratch that every slot reuses. They are not instructions yet:
//!    provisional phi `k` is named by the variable after the last
//!    surviving one plus `k`, and its incomings go into one flat side
//!    table. Then one preorder walk of the dominator tree rewrites every
//!    block's instructions in place: loads become copies of the slot's
//!    current value, allocs and stores of a slot set it and disappear,
//!    and every other instruction has its variables renumbered and its
//!    object ids compacted. Leaving a dominator subtree undoes its
//!    definitions from a log, and successor phis receive the current
//!    values along each CFG edge. A load that reads a provisional phi
//!    marks it live and logs where its copy landed.
//! 4. **Prune**, per function: a worklist spreads liveness backwards
//!    through the incomings of the live phis. Only the live phis are
//!    numbered (slot-major, after the surviving variables), get a
//!    variable and become instructions, each block's prepended in one
//!    splice (the later slot first); the logged copies and the phi
//!    incomings are patched to the final ids.
//!
//! Every table is a dense vector indexed by variable, slot, block or
//! provisional phi, so the pass is linear in the function's size plus the
//! frontier edges the phi placement walks and the incomings of the phis
//! it places. Nothing is sized by slots × blocks: the frontier scratch is
//! stamped rather than cleared per slot, and the rename restores only
//! what a subtree defined instead of copying every slot's value at each
//! dominator-tree edge. The prune step visits each provisional incoming
//! at most once.
//!
//! LLVM prunes before placement instead: it walks backwards from each
//! block that loads a slot before storing it, to find the blocks where
//! the slot is live-in. That walk is per slot, so one function whose
//! many locals are each live from the entry across a long chain of joins
//! makes it cost slots × blocks. Marking the phis the rename walk reads
//! gives the same phis, since pruned SSA is minimal SSA restricted to the
//! live-in blocks, which are exactly the phis that transitively reach a
//! load.

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
    /// `def_blocks[def_start[s]..def_start[s + 1]]`, in block order;
    /// empty when no block loads the slot before defining it.
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
    // Per pointer: the last block (index + 1) that allocs or stores
    // through it, and whether some block loads through it before doing
    // either. Only such an upward-exposed load can read a phi.
    let mut def_in = vec![0u32; f.vars.len()];
    let mut read_up = vec![false; f.vars.len()];
    for (bb, block) in f.blocks.iter_enumerated() {
        let stamp = bb.index() as u32 + 1;
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
                        def_in[dst.index()] = stamp;
                    }
                }
                // A direct load address is fine.
                Inst::Load { addr, .. } => {
                    if let Operand::Var(p) = addr {
                        read_up[p.index()] |= def_in[p.index()] != stamp;
                    }
                }
                Inst::Store { addr, val } => {
                    // Storing the pointer itself escapes it.
                    if let Operand::Var(v) = val {
                        state[v.index()] = ESCAPED;
                    }
                    if let Operand::Var(p) = addr {
                        if state[p.index()] != ESCAPED {
                            defs.push((*p, bb));
                            def_in[p.index()] = stamp;
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
    // A slot no block reads upward-exposed needs no phi, so its
    // definition blocks are left out and its frontier is empty.
    defs.retain(|(v, _)| read_up[v.index()]);
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

/// Phases 3 and 4 for one function: places the provisional phis, runs
/// the renaming, renumbering and object-compacting walk, and keeps the
/// phis a load reads (see the module doc).
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

    // Phi placement. Provisional phi `k` (in slot-major order) merges
    // slot `phi_slot[k]` at block `phi_block[k]`; the walk names it by
    // the variable `first_phi + k`, and only the phis some load reads
    // are materialized once it is done.
    let mut scratch = IdfScratch::default();
    let mut frontier = Vec::new();
    let mut phi_block: Vec<BlockId> = Vec::new();
    let mut phi_slot: Vec<u32> = Vec::new();
    for sl in 0..nslots {
        let defs = &def_blocks[def_start[sl] as usize..def_start[sl + 1] as usize];
        if defs.is_empty() {
            continue;
        }
        dt.iterated_frontier(defs, &mut scratch, &mut frontier);
        for &bb in &frontier {
            phi_block.push(bb);
            phi_slot.push(sl as u32);
        }
    }
    let nphis = phi_block.len();
    let provisional = |op: Operand| match op {
        Operand::Var(v) if v.index() >= first_phi => Some(v.index() - first_phi),
        _ => None,
    };
    // Each block's phis, the later slot first: `order[at[b]..at[b + 1]]`
    // lists block `b`'s phi numbers.
    let mut at = vec![0usize; nblocks + 1];
    for &bb in &phi_block {
        at[bb.index() + 1] += 1;
    }
    for i in 0..nblocks {
        at[i + 1] += at[i];
    }
    let mut order = vec![0usize; nphis];
    let mut fill = at[..nblocks].to_vec();
    for (k, &bb) in phi_block.iter().enumerate().rev() {
        order[fill[bb.index()]] = k;
        fill[bb.index()] += 1;
    }
    let phis_of = |bb: BlockId| &order[at[bb.index()]..at[bb.index() + 1]];
    // Phi `k`'s incomings are `inc[inc_at[k]..inc_at[k + 1]]`, one per
    // CFG edge into its block, filled in the order the walk leaves the
    // predecessors; `filled[b]` counts the edges into `b` seen so far.
    let mut inc_at = Vec::with_capacity(nphis + 1);
    inc_at.push(0usize);
    for &bb in &phi_block {
        inc_at.push(inc_at[inc_at.len() - 1] + cfg.preds[bb].len());
    }
    let mut inc = vec![(BlockId(0), Operand::Undef); inc_at[nphis]];
    let mut filled: IdxVec<BlockId, usize> = IdxVec::from_elem(0, nblocks);

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

    // The rename walk. A load that reads a provisional phi marks it live
    // and logs where its copy ended up, for the final id.
    let mut undef_reads = 0;
    let mut live = vec![false; nphis];
    let mut work: Vec<usize> = Vec::new();
    let mut reads: Vec<(BlockId, usize)> = Vec::new();
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
        for &k in phis_of(bb) {
            let sl = phi_slot[k] as usize;
            log.push((sl, cur[sl]));
            cur[sl] = Operand::Var(VarId::from_usize(first_phi + k));
        }
        let block = &mut f.blocks[bb];
        let mut kept = 0;
        block.insts.retain_mut(|inst| {
            match inst {
                Inst::Alloc { dst, .. } if slot_of[dst.index()] != NONE => {
                    // The slot comes into existence holding Undef.
                    let sl = slot_of[dst.index()] as usize;
                    log.push((sl, cur[sl]));
                    cur[sl] = Operand::Undef;
                    return false;
                }
                Inst::Store {
                    addr: Operand::Var(p),
                    val,
                } if slot_of[p.index()] != NONE => {
                    let sl = slot_of[p.index()] as usize;
                    log.push((sl, cur[sl]));
                    cur[sl] = map_op(*val);
                    return false;
                }
                Inst::Load {
                    dst,
                    addr: Operand::Var(p),
                } if slot_of[p.index()] != NONE => {
                    let src = cur[slot_of[p.index()] as usize];
                    if src == Operand::Undef {
                        undef_reads += 1;
                    } else if let Some(k) = provisional(src) {
                        if !live[k] {
                            live[k] = true;
                            work.push(k);
                        }
                        reads.push((bb, kept));
                    }
                    let dst = new_var(*dst);
                    *inst = Inst::Copy { dst, src };
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
                }
            }
            kept += 1;
            true
        });
        block.term.map_uses(map_op);

        // Successor phis take the current values along each CFG edge.
        for &succ in &cfg.succs[bb] {
            let edge = filled[succ];
            filled[succ] += 1;
            for &k in phis_of(succ) {
                inc[inc_at[k] + edge] = (bb, cur[phi_slot[k] as usize]);
            }
        }

        if log.len() > mark {
            stack.push(Step::Leave(mark));
        }
        for &c in dt.children[bb].iter().rev() {
            stack.push(Step::Enter(c));
        }
    }

    // A phi is live when a load reads it or a live phi takes it in.
    while let Some(k) = work.pop() {
        for &(_, op) in &inc[inc_at[k]..inc_at[k + 1]] {
            if let Some(j) = provisional(op) {
                if !live[j] {
                    live[j] = true;
                    work.push(j);
                }
            }
        }
    }

    // Number the live phis slot-major, after the surviving variables.
    f.vars.retain_indices(|v| slot_of[v.index()] == NONE);
    let mut phi_var = vec![NONE; nphis];
    let mut next = first_phi as u32;
    let mut name = (NONE, String::new());
    for k in (0..nphis).filter(|&k| live[k]) {
        let sl = phi_slot[k];
        if name.0 != sl {
            name = (sl, format!("{}.phi", objects[objs[sl as usize]].name));
        }
        phi_var[k] = next;
        next += 1;
        f.vars.push(VarData {
            name: name.1.clone(),
            ty: val_tys[sl as usize],
        });
    }
    let final_op = |op: Operand| match provisional(op) {
        Some(k) => {
            debug_assert!(phi_var[k] != NONE, "a live phi takes in only live phis");
            Operand::Var(VarId(phi_var[k]))
        }
        None => op,
    };
    for (bb, i) in reads {
        if let Inst::Copy { src, .. } = &mut f.blocks[bb].insts[i] {
            *src = final_op(*src);
        }
    }
    for (i, block) in f.blocks.iter_mut().enumerate() {
        let phis = &order[at[i]..at[i + 1]];
        if !phis.iter().any(|&k| live[k]) {
            continue;
        }
        let phis = phis.iter().filter(|&&k| live[k]).map(|&k| Inst::Phi {
            dst: VarId(phi_var[k]),
            incomings: (inc[inc_at[k]..inc_at[k + 1]].iter())
                .map(|&(p, op)| (p, final_op(op)))
                .collect(),
        });
        block.insts.splice(0..0, phis);
    }

    Mem2RegStats {
        promoted: nslots,
        phis_inserted: (next as usize) - first_phi,
        undef_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::{BinOp, Callee, ExtFunc, Module};
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

    /// The phis of `f`, as (block, incoming values).
    fn phis(f: &Function) -> Vec<(BlockId, Vec<Operand>)> {
        let mut out = Vec::new();
        for (bb, block) in f.blocks.iter_enumerated() {
            for inst in &block.insts {
                if let Inst::Phi { incomings, .. } = inst {
                    out.push((bb, incomings.iter().map(|(_, o)| *o).collect()));
                }
            }
        }
        out
    }

    #[test]
    fn conditionally_stored_local_never_read_gets_no_phi() {
        // int x; if (c) { x = 1; } return c;
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
        b.ret(Some(c.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 0);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        assert!(phis(&m.funcs[fid]).is_empty());
        assert!(!m.funcs[fid].vars.iter().any(|v| v.name.ends_with(".phi")));
    }

    #[test]
    fn local_read_in_one_arm_gets_phis_only_on_that_path() {
        // int x = 0;
        // if (c) { x = 1; if (d) { x = 2; } print(x); }
        // else   { if (d) { x = 3; } }
        // return 0;
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let c = b.param("c", int);
        let d = b.param("d", int);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        b.store(x.into(), Operand::Const(0));
        let [t, t1, t2, tj, e, e1, e2, ej, j] = [(); 9].map(|_| b.new_block());
        b.br(c.into(), t, e);
        b.set_block(t);
        b.store(x.into(), Operand::Const(1));
        b.br(d.into(), t1, t2);
        b.set_block(t1);
        b.store(x.into(), Operand::Const(2));
        b.jmp(tj);
        b.set_block(t2);
        b.jmp(tj);
        b.set_block(tj);
        let v = b.load(x.into(), int);
        b.call_ext(ExtFunc::PrintInt, vec![v.into()], None);
        b.jmp(j);
        b.set_block(e);
        b.br(d.into(), e1, e2);
        b.set_block(e1);
        b.store(x.into(), Operand::Const(3));
        b.jmp(ej);
        b.set_block(e2);
        b.jmp(ej);
        b.set_block(ej);
        b.jmp(j);
        b.set_block(j);
        b.ret(Some(Operand::Const(0)));
        b.finish();
        // Unpruned, x has phis at tj, ej and j; only tj's is read.
        let stats = mem2reg(&mut m);
        assert_eq!(stats.phis_inserted, 1);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        let got = phis(&m.funcs[fid]);
        assert_eq!(got.len(), 1);
        let (bb, mut ops) = got[0].clone();
        assert_eq!(bb, tj);
        ops.sort_by_key(|o| format!("{o:?}"));
        assert_eq!(ops, [Operand::Const(1), Operand::Const(2)]);
    }

    #[test]
    fn loop_phi_feeding_only_a_read_phi_survives() {
        // int x = 0;
        // while (c) { if (d) { x = 1; } }
        // if (e) { x = 5; }
        // return x;
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let c = b.param("c", int);
        let d = b.param("d", int);
        let e = b.param("e", int);
        let (x, _) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        b.store(x.into(), Operand::Const(0));
        let [head, body, set, latch, exit, y, z, w] = [(); 8].map(|_| b.new_block());
        b.jmp(head);
        b.set_block(head);
        b.br(c.into(), body, exit);
        b.set_block(body);
        b.br(d.into(), set, latch);
        b.set_block(set);
        b.store(x.into(), Operand::Const(1));
        b.jmp(latch);
        b.set_block(latch);
        b.jmp(head);
        b.set_block(exit);
        b.br(e.into(), y, z);
        b.set_block(y);
        b.store(x.into(), Operand::Const(5));
        b.jmp(w);
        b.set_block(z);
        b.jmp(w);
        b.set_block(w);
        let r = b.load(x.into(), int);
        b.ret(Some(r.into()));
        b.finish();
        let stats = mem2reg(&mut m);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        // The header phi is read by no load: it reaches the return only
        // through w's phi, and it keeps the latch phi it takes in alive.
        assert_eq!(stats.phis_inserted, 3);
        let blocks: Vec<BlockId> = phis(&m.funcs[fid]).into_iter().map(|p| p.0).collect();
        assert_eq!(blocks, [head, latch, w]);
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
