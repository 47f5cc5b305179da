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

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::fxhash::FxHashMap;
use crate::ids::{BlockId, FuncId, Idx, IdxVec, ObjId, VarId};
use crate::module::{Function, Inst, Module, ObjKind, Operand};
use crate::opt::remove_unreachable_blocks;

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
    let mut total = Mem2RegStats::default();
    let mut promoted = Vec::new();
    for fid in m.funcs.indices().collect::<Vec<_>>() {
        let (stats, objs) = promote_function(m, fid);
        total.promoted += stats.promoted;
        total.phis_inserted += stats.phis_inserted;
        total.undef_reads += stats.undef_reads;
        promoted.extend(objs);
    }
    (total, retire_objects(m, &promoted))
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
    promote_function(m, fid)
}

/// Removes the `promoted` objects, compacting the table in order and
/// rewriting `Alloc` objects, `m.globals` and, when a global moved,
/// global address operands. Returns the removed objects' old ids,
/// ascending.
fn retire_objects(m: &mut Module, promoted: &[ObjId]) -> Vec<ObjId> {
    let mut retired = promoted.to_vec();
    retired.sort_unstable();
    retired.dedup();
    let Some(&first) = retired.first() else {
        return retired;
    };
    let remap = compaction_map(m.objects.len(), &retired);
    m.objects.retain_indices(|o| remap[o].is_some());
    let new_id = |o: ObjId| remap[o].expect("a retired object is named only by its promoted slot");
    let globals_moved = m.globals.iter().any(|&g| g > first);
    for g in &mut m.globals {
        *g = new_id(*g);
    }
    let map = |op: Operand| match op {
        Operand::Global(o) => Operand::Global(new_id(o)),
        op => op,
    };
    for f in m.funcs.iter_mut() {
        for block in f.blocks.iter_mut() {
            for inst in &mut block.insts {
                if let Inst::Alloc { obj, .. } = inst {
                    *obj = new_id(*obj);
                }
                if globals_moved {
                    inst.map_uses(map);
                }
            }
            if globals_moved {
                block.term.map_uses(map);
            }
        }
    }
    retired
}

/// Old id -> new id once the ascending `dead` ids are removed from a
/// table of `len` entries and the rest are renumbered in order.
fn compaction_map<I: Idx>(len: usize, dead: &[I]) -> IdxVec<I, Option<I>> {
    let mut map = IdxVec::from_elem(None, len);
    let mut dead = dead.iter().peekable();
    let mut next = 0;
    for i in 0..len {
        let id = I::from_usize(i);
        if dead.next_if_eq(&&id).is_none() {
            map[id] = Some(I::from_usize(next));
            next += 1;
        }
    }
    map
}

/// Drops the ascending `dead` vars from `f`'s variable table and
/// renumbers the survivors in order. No instruction may still mention a
/// dead variable.
fn drop_vars(f: &mut Function, dead: &[VarId]) {
    let remap = compaction_map(f.vars.len(), dead);
    f.vars.retain_indices(|v| remap[v].is_some());
    let new_id = |v: VarId| remap[v].expect("no instruction names a promoted slot");
    for p in &mut f.params {
        *p = new_id(*p);
    }
    let map = |op: Operand| match op {
        Operand::Var(v) => Operand::Var(new_id(v)),
        op => op,
    };
    for block in f.blocks.iter_mut() {
        for inst in &mut block.insts {
            if let Some(d) = inst.dst_mut() {
                *d = new_id(*d);
            }
            inst.map_uses(map);
        }
        block.term.map_uses(map);
    }
}

fn promote_function(m: &mut Module, fid: FuncId) -> (Mem2RegStats, Vec<ObjId>) {
    remove_unreachable_blocks(&mut m.funcs[fid]);
    let mut stats = Mem2RegStats::default();

    // 1. Find promotable allocs: scalar stack slots whose pointer is used
    //    only as a direct load/store address.
    let promotable = find_promotable(m, fid);
    if promotable.is_empty() {
        return (stats, Vec::new());
    }
    stats.promoted = promotable.len();

    let f = &mut m.funcs[fid];
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);

    // Promo index per pointer var.
    let promo_of: FxHashMap<VarId, usize> = promotable
        .iter()
        .enumerate()
        .map(|(i, p)| (p.ptr, i))
        .collect();

    // 2. Collect definition blocks per promoted slot.
    let nslots = promotable.len();
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); nslots];
    for (bb, block) in f.blocks.iter_enumerated() {
        for inst in &block.insts {
            match inst {
                Inst::Store {
                    addr: Operand::Var(p),
                    ..
                } => {
                    if let Some(&i) = promo_of.get(p) {
                        if !def_blocks[i].contains(&bb) {
                            def_blocks[i].push(bb);
                        }
                    }
                }
                // The alloc itself counts as a def (of Undef) so that
                // phis merge Undef along paths that skip all stores.
                Inst::Alloc { dst, .. } => {
                    if let Some(&i) = promo_of.get(dst) {
                        if !def_blocks[i].contains(&bb) {
                            def_blocks[i].push(bb);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // 3. Insert empty phis at iterated dominance frontiers.
    //    phi_slots[bb] maps "position in block's phi prefix" -> slot.
    let mut phi_slot_at: FxHashMap<(BlockId, VarId), usize> = FxHashMap::default();
    for (i, slot) in promotable.iter().enumerate() {
        for bb in dt.iterated_frontier(&def_blocks[i]) {
            let dst = f.new_var(format!("{}.phi", slot.name), slot.val_ty);
            f.blocks[bb].insts.insert(
                0,
                Inst::Phi {
                    dst,
                    incomings: Vec::new(),
                },
            );
            phi_slot_at.insert((bb, dst), i);
            stats.phis_inserted += 1;
        }
    }

    // 4. Rename along the dominator tree.
    let nblocks = f.blocks.len();
    let mut visited: IdxVec<BlockId, bool> = IdxVec::from_elem(false, nblocks);
    // Explicit stack of (block, current values on entry).
    let mut stack: Vec<(BlockId, Vec<Operand>)> = vec![(f.entry, vec![Operand::Undef; nslots])];

    while let Some((bb, mut cur)) = stack.pop() {
        if visited[bb] {
            continue;
        }
        visited[bb] = true;

        let mut new_insts: Vec<Inst> = Vec::with_capacity(f.blocks[bb].insts.len());
        let insts = std::mem::take(&mut f.blocks[bb].insts);
        for mut inst in insts {
            match &inst {
                Inst::Alloc { dst, .. } if promo_of.contains_key(dst) => {
                    // Slot comes into existence holding Undef.
                    cur[promo_of[dst]] = Operand::Undef;
                    continue; // drop the alloc
                }
                Inst::Store {
                    addr: Operand::Var(p),
                    val,
                } if promo_of.contains_key(p) => {
                    cur[promo_of[p]] = *val;
                    continue; // drop the store
                }
                Inst::Load {
                    dst,
                    addr: Operand::Var(p),
                } if promo_of.contains_key(p) => {
                    let v = cur[promo_of[p]];
                    if v == Operand::Undef {
                        stats.undef_reads += 1;
                    }
                    new_insts.push(Inst::Copy { dst: *dst, src: v });
                    continue;
                }
                Inst::Phi { dst, .. } => {
                    if let Some(&i) = phi_slot_at.get(&(bb, *dst)) {
                        cur[i] = Operand::Var(*dst);
                    }
                    new_insts.push(inst);
                    continue;
                }
                _ => {}
            }
            // Any other instruction passes through unchanged; promoted
            // pointers cannot appear in them (escape check).
            inst.map_uses(|o| o);
            new_insts.push(inst);
        }
        f.blocks[bb].insts = new_insts;

        // 5. Fill successor phis along each CFG edge.
        for &succ in &cfg.succs[bb] {
            for inst in f.blocks[succ].insts.iter_mut() {
                let Inst::Phi { dst, incomings } = inst else {
                    break;
                };
                if let Some(&i) = phi_slot_at.get(&(succ, *dst)) {
                    incomings.push((bb, cur[i]));
                }
            }
        }

        // 6. Recurse into dominator-tree children with the current state.
        for &c in dt.children[bb].iter().rev() {
            stack.push((c, cur.clone()));
        }
    }

    // 7. The slot pointers are dead now; so are their objects.
    let ptrs: Vec<VarId> = promotable.iter().map(|p| p.ptr).collect();
    drop_vars(f, &ptrs);
    (stats, promotable.into_iter().map(|p| p.obj).collect())
}

struct PromoSlot {
    ptr: VarId,
    obj: ObjId,
    name: String,
    val_ty: crate::ids::TypeId,
}

fn find_promotable(m: &Module, fid: FuncId) -> Vec<PromoSlot> {
    let f = &m.funcs[fid];
    // Candidate scalar stack allocs.
    let mut cand: FxHashMap<VarId, PromoSlot> = FxHashMap::default();
    for block in f.blocks.iter() {
        for inst in &block.insts {
            if let Inst::Alloc {
                dst,
                obj,
                count: None,
            } = inst
            {
                let o = &m.objects[*obj];
                if matches!(o.kind, ObjKind::Stack(_)) && o.size == 1 && !o.is_array {
                    let val_ty = m
                        .types
                        .pointee(f.vars[*dst].ty)
                        .expect("alloc result is a pointer");
                    cand.insert(
                        *dst,
                        PromoSlot {
                            ptr: *dst,
                            obj: *obj,
                            name: o.name.clone(),
                            val_ty,
                        },
                    );
                }
            }
        }
    }
    if cand.is_empty() {
        return Vec::new();
    }

    // Disqualify any candidate whose pointer escapes.
    let disqualify = |v: VarId, cand: &mut FxHashMap<VarId, PromoSlot>| {
        cand.remove(&v);
    };
    for block in f.blocks.iter() {
        for inst in &block.insts {
            match inst {
                Inst::Load { addr, .. } => {
                    // Direct load address is fine.
                    let _ = addr;
                }
                Inst::Store { addr, val } => {
                    // Storing the pointer itself escapes it.
                    if let Operand::Var(v) = val {
                        disqualify(*v, &mut cand);
                    }
                    let _ = addr;
                }
                _ => {
                    inst.for_each_use(|o| {
                        if let Operand::Var(v) = o {
                            cand.remove(&v);
                        }
                    });
                }
            }
        }
        block.term.for_each_use(|o| {
            if let Operand::Var(v) = o {
                cand.remove(&v);
            }
        });
    }

    let mut slots: Vec<PromoSlot> = cand.into_values().collect();
    slots.sort_by_key(|s| s.ptr);
    slots
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
