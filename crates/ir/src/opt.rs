//! Scalar optimization passes used to model the paper's `-O1`/`-O2`
//! configurations (Section 4.6).
//!
//! The paper inserts instrumentation into code that has already been
//! optimized by LLVM at O1/O2; the effect studied there is that the
//! *relative* benefit of Usher over MSan narrows because the native
//! baseline speeds up more than the instrumented code. We reproduce the
//! mechanism with classic SSA passes: constant folding/propagation, copy
//! propagation, dead-code elimination, CFG simplification and a local CSE.
//!
//! As in the paper (Section 4.3), optimizing before instrumenting can hide
//! some uses of undefined values (e.g. `undef * 0` folds to `0`); this is
//! faithful, deliberate behaviour.

use std::collections::HashMap;

use crate::cfg::Cfg;
use crate::ids::{BlockId, Idx, IdxVec, VarId};
use crate::module::{BinOp, Function, GepOffset, Inst, Module, Operand, Terminator, UnOp};

/// An optimization level mirroring the paper's configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// `O0+IM`: inlining + mem2reg only (the paper's recommended debugging
    /// configuration). No scalar optimization.
    #[default]
    O0Im,
    /// `-O1`: one round of copy/const propagation, DCE and CFG cleanup.
    O1,
    /// `-O2`: `-O1` to a fixpoint, plus local CSE.
    O2,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0Im => write!(f, "O0+IM"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

/// Runs the scalar pipeline for `level` over the whole module.
pub fn optimize(m: &mut Module, level: OptLevel) {
    match level {
        OptLevel::O0Im => {}
        OptLevel::O1 => {
            for fid in m.funcs.indices().collect::<Vec<_>>() {
                let f = &mut m.funcs[fid];
                copy_and_const_prop(f);
                dce(f);
                simplify_cfg(f);
            }
        }
        OptLevel::O2 => {
            for fid in m.funcs.indices().collect::<Vec<_>>() {
                let f = &mut m.funcs[fid];
                for _ in 0..4 {
                    let mut changed = copy_and_const_prop(f);
                    changed |= local_cse(f);
                    changed |= dce(f);
                    changed |= simplify_cfg(f);
                    if !changed {
                        break;
                    }
                }
            }
        }
    }
}

/// Removes blocks unreachable from the entry, compacting ids and fixing
/// phi incomings. Returns whether anything changed.
pub fn remove_unreachable_blocks(f: &mut Function) -> bool {
    prune_unreachable(f).is_none()
}

/// [`remove_unreachable_blocks`], returning `f`'s CFG when nothing was
/// removed (it is still current) and `None` when blocks were removed.
pub(crate) fn prune_unreachable(f: &mut Function) -> Option<Cfg> {
    let cfg = Cfg::compute(f);
    if cfg.rpo.len() == f.blocks.len() {
        return Some(cfg);
    }
    // Old -> new id map.
    let mut remap: IdxVec<BlockId, Option<BlockId>> = IdxVec::from_elem(None, f.blocks.len());
    for (i, &bb) in cfg.rpo.iter().enumerate() {
        remap[bb] = Some(BlockId(i as u32));
    }
    let old_blocks = std::mem::take(&mut f.blocks);
    let mut new_blocks = IdxVec::new();
    for &bb in &cfg.rpo {
        let mut block = old_blocks[bb].clone();
        block
            .term
            .map_targets(|t| remap[t].expect("successor of reachable block is reachable"));
        // Drop phi incomings from removed predecessors, remap the rest.
        for inst in &mut block.insts {
            if let Inst::Phi { incomings, .. } = inst {
                incomings.retain(|(p, _)| remap[*p].is_some());
                for (p, _) in incomings.iter_mut() {
                    *p = remap[*p].expect("retained incoming is reachable");
                }
            }
        }
        new_blocks.push(block);
    }
    f.blocks = new_blocks;
    f.entry = remap[f.entry].expect("entry is reachable");
    None
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
    })
}

fn eval_un(op: UnOp, a: i64) -> i64 {
    match op {
        UnOp::Neg => a.wrapping_neg(),
        UnOp::Not => (a == 0) as i64,
        UnOp::BitNot => !a,
    }
}

/// Sparse copy + constant propagation with folding. Returns whether
/// anything changed.
pub fn copy_and_const_prop(f: &mut Function) -> bool {
    // value_of[v] = the operand v is known to equal (a const, another var,
    // or Undef).
    let mut value_of: HashMap<VarId, Operand> = HashMap::new();
    let mut changed = false;

    // Iterate to a fixpoint over block order (SSA makes this converge
    // quickly; phis of identical values also fold).
    for _ in 0..4 {
        let mut round_changed = false;
        let resolve = |value_of: &HashMap<VarId, Operand>, mut o: Operand| -> Operand {
            // Chase copy chains (bounded: SSA chains are acyclic except
            // through degenerate phis, which we bound).
            for _ in 0..8 {
                match o {
                    Operand::Var(v) => match value_of.get(&v) {
                        Some(&next) if next != o => o = next,
                        _ => break,
                    },
                    _ => break,
                }
            }
            o
        };
        for block in f.blocks.iter_mut() {
            for inst in &mut block.insts {
                inst.map_uses(|o| resolve(&value_of, o));
                match inst {
                    Inst::Copy { dst, src } if value_of.get(dst) != Some(src) => {
                        value_of.insert(*dst, *src);
                        round_changed = true;
                    }
                    Inst::Un {
                        dst,
                        op,
                        src: Operand::Const(c),
                    } => {
                        let v = Operand::Const(eval_un(*op, *c));
                        if value_of.get(dst) != Some(&v) {
                            value_of.insert(*dst, v);
                            round_changed = true;
                        }
                    }
                    Inst::Bin {
                        dst,
                        op,
                        lhs: Operand::Const(a),
                        rhs: Operand::Const(b),
                    } => {
                        if let Some(c) = eval_bin(*op, *a, *b) {
                            let v = Operand::Const(c);
                            if value_of.get(dst) != Some(&v) {
                                value_of.insert(*dst, v);
                                round_changed = true;
                            }
                        }
                    }
                    Inst::Phi { dst, incomings } => {
                        // Fold phis whose incomings all agree (excluding
                        // self-references).
                        let mut vals: Vec<Operand> = incomings
                            .iter()
                            .map(|(_, o)| resolve(&value_of, *o))
                            .filter(|o| *o != Operand::Var(*dst))
                            .collect();
                        vals.dedup();
                        if vals.len() == 1
                            && !matches!(vals[0], Operand::Undef)
                            && value_of.get(dst) != Some(&vals[0])
                        {
                            value_of.insert(*dst, vals[0]);
                            round_changed = true;
                        }
                    }
                    _ => {}
                }
            }
            block.term.map_uses(|o| resolve(&value_of, o));
        }
        changed |= round_changed;
        if !round_changed {
            break;
        }
    }

    // Rewrite copies whose value is fully known into canonical form (DCE
    // will remove the now-dead ones).
    changed
}

/// Removes instructions whose results are unused and that have no side
/// effects. Returns whether anything changed.
pub fn dce(f: &mut Function) -> bool {
    let mut used = vec![false; f.vars.len()];
    for block in f.blocks.iter() {
        for inst in &block.insts {
            inst.for_each_use(|o| {
                if let Operand::Var(v) = o {
                    used[v.index()] = true;
                }
            });
        }
        block.term.for_each_use(|o| {
            if let Operand::Var(v) = o {
                used[v.index()] = true;
            }
        });
    }
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        let before = block.insts.len();
        block.insts.retain(|inst| match inst {
            Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::Phi { dst, .. }
            | Inst::Load { dst, .. } => used[dst.index()],
            // Calls and stores have side effects; allocs define memory
            // that loads may observe via escaped pointers, but an alloc
            // whose result is unused is unobservable.
            Inst::Alloc { dst, .. } => used[dst.index()],
            Inst::Store { .. } | Inst::Call { .. } => true,
        });
        changed |= block.insts.len() != before;
    }
    changed
}

/// Folds constant branches, removes unreachable blocks, and merges
/// single-predecessor jump chains. Returns whether anything changed.
pub fn simplify_cfg(f: &mut Function) -> bool {
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        if let Terminator::Br {
            cond: Operand::Const(c),
            then_bb,
            else_bb,
        } = block.term
        {
            block.term = Terminator::Jmp(if c != 0 { then_bb } else { else_bb });
            changed = true;
        }
    }
    changed |= remove_unreachable_blocks(f);
    changed |= merge_blocks(f);
    changed
}

/// Merges `A -> Jmp B` when `B`'s only predecessor is `A`. Phis in `B`
/// degenerate to copies of their single incoming.
///
/// One scan in reverse postorder merges every eligible pair. Folding `B`
/// into `A` changes no other block's predecessor count (`B`'s successors
/// trade `B` for `A`), and `B`, dominated by `A`, comes after `A` in the
/// order, so the CFG computed up front stays good for every test; after
/// a merge the scan keeps trying `A`'s new `Jmp` target, which merges a
/// whole chain into its head.
pub fn merge_blocks(f: &mut Function) -> bool {
    let cfg = Cfg::compute(f);
    let mut changed = false;
    for &a in &cfg.rpo {
        while let Terminator::Jmp(b) = f.blocks[a].term {
            if b == f.entry || b == a || cfg.preds[b].len() != 1 {
                break;
            }
            // Resolve B's phis to copies, splice instructions, take B's
            // terminator, and patch B's successors' phi incomings to A.
            let b_block = std::mem::take(&mut f.blocks[b].insts);
            for inst in b_block {
                match inst {
                    Inst::Phi { dst, incomings } => {
                        let src = incomings.first().map(|(_, o)| *o).unwrap_or(Operand::Undef);
                        f.blocks[a].insts.push(Inst::Copy { dst, src });
                    }
                    other => f.blocks[a].insts.push(other),
                }
            }
            let b_term = std::mem::replace(&mut f.blocks[b].term, Terminator::Unreachable);
            for s in b_term.successors() {
                for inst in f.blocks[s].insts.iter_mut() {
                    if let Inst::Phi { incomings, .. } = inst {
                        for (pb, _) in incomings.iter_mut() {
                            if *pb == b {
                                *pb = a;
                            }
                        }
                    } else {
                        break;
                    }
                }
            }
            f.blocks[a].term = b_term;
            changed = true;
        }
    }
    if changed {
        remove_unreachable_blocks(f);
    }
    changed
}

/// Local common-subexpression elimination within each block (pure
/// instructions only). Returns whether anything changed.
pub fn local_cse(f: &mut Function) -> bool {
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        let mut seen: HashMap<(UnOp, Operand), VarId> = HashMap::new();
        let mut seen_bin: HashMap<(BinOp, Operand, Operand), VarId> = HashMap::new();
        let mut replace: HashMap<VarId, VarId> = HashMap::new();
        for inst in &mut block.insts {
            inst.map_uses(|o| match o {
                Operand::Var(v) => Operand::Var(*replace.get(&v).unwrap_or(&v)),
                o => o,
            });
            match inst {
                Inst::Un { dst, op, src } => {
                    if let Some(&prev) = seen.get(&(*op, *src)) {
                        replace.insert(*dst, prev);
                        changed = true;
                    } else {
                        seen.insert((*op, *src), *dst);
                    }
                }
                Inst::Bin { dst, op, lhs, rhs } => {
                    if let Some(&prev) = seen_bin.get(&(*op, *lhs, *rhs)) {
                        replace.insert(*dst, prev);
                        changed = true;
                    } else {
                        seen_bin.insert((*op, *lhs, *rhs), *dst);
                    }
                }
                _ => {}
            }
        }
        if !replace.is_empty() {
            block.term.map_uses(|o| match o {
                Operand::Var(v) => Operand::Var(*replace.get(&v).unwrap_or(&v)),
                o => o,
            });
        }
    }
    // Cross-block uses of replaced vars: propagate via a module-wide pass.
    changed
}

/// A `Gep` with constant index 0 is the identity; canonicalize it to a
/// copy so later passes see through it.
pub fn canonicalize_geps(f: &mut Function) -> bool {
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        for inst in &mut block.insts {
            if let Inst::Gep { dst, base, offset } = inst {
                let zero = matches!(
                    offset,
                    GepOffset::Field(0)
                        | GepOffset::Index {
                            index: Operand::Const(0),
                            ..
                        }
                );
                if zero {
                    *inst = Inst::Copy {
                        dst: *dst,
                        src: *base,
                    };
                    changed = true;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Module;
    use crate::verify::verify;

    fn count_insts(f: &Function) -> usize {
        f.inst_count()
    }

    #[test]
    fn const_prop_folds_chain() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let a = b.copy(int, Operand::Const(2));
        let c = b.bin(BinOp::Mul, a.into(), Operand::Const(21));
        b.ret(Some(c.into()));
        b.finish();
        let f = &mut m.funcs[fid];
        copy_and_const_prop(f);
        dce(f);
        assert_eq!(
            m.funcs[fid].blocks[BlockId(0)].term,
            Terminator::Ret(Some(Operand::Const(42)))
        );
        assert_eq!(count_insts(&m.funcs[fid]), 0);
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut m = Module::new();
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let dead = b.bin(BinOp::Add, Operand::Const(1), Operand::Const(2));
        let _ = dead;
        b.call_ext(
            crate::module::ExtFunc::PrintInt,
            vec![Operand::Const(5)],
            None,
        );
        b.ret(None);
        b.finish();
        let f = &mut m.funcs[fid];
        dce(f);
        assert_eq!(count_insts(&m.funcs[fid]), 1); // only the call
    }

    #[test]
    fn simplify_cfg_folds_constant_branch() {
        let mut m = Module::new();
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let t = b.new_block();
        let e = b.new_block();
        b.br(Operand::Const(1), t, e);
        b.set_block(t);
        b.ret(None);
        b.set_block(e);
        b.ret(None);
        b.finish();
        let f = &mut m.funcs[fid];
        assert!(simplify_cfg(f));
        assert_eq!(m.funcs[fid].blocks.len(), 1); // merged into entry
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn merge_blocks_folds_a_whole_chain_in_one_call() {
        // entry -> {a1, x}; a1 -> a2 -> a3 -> join; x -> join.
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let c = b.param("c", int);
        let [a1, a2, a3, x, join] = [(); 5].map(|_| b.new_block());
        b.br(c.into(), a1, x);
        b.set_block(a1);
        b.jmp(a2);
        b.set_block(a2);
        b.jmp(a3);
        b.set_block(a3);
        let p = b.phi(int, vec![(a2, Operand::Const(7))]);
        b.jmp(join);
        b.set_block(x);
        b.jmp(join);
        b.set_block(join);
        let q = b.phi(int, vec![(a3, p.into()), (x, Operand::Const(0))]);
        b.ret(Some(q.into()));
        b.finish();
        let f = &mut m.funcs[fid];
        assert!(merge_blocks(f));
        assert!(!merge_blocks(f), "one call reaches the fixpoint");
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        let f = &m.funcs[fid];
        assert_eq!(f.blocks.len(), 4, "a2 and a3 folded into a1");
        // a3's phi became a copy in the chain's head, and join's phi now
        // comes in from that head.
        let head = (f.blocks.iter_enumerated())
            .find(|(_, blk)| {
                (blk.insts.iter()).any(|i| matches!(i, Inst::Copy { dst, .. } if *dst == p))
            })
            .map(|(bb, _)| bb)
            .expect("a3's phi is a copy");
        let ins = f
            .blocks
            .iter()
            .flat_map(|blk| &blk.insts)
            .find_map(|i| match i {
                Inst::Phi { dst, incomings } if *dst == q => Some(incomings.clone()),
                _ => None,
            });
        assert!(ins.expect("join keeps its phi").contains(&(head, p.into())));
    }

    #[test]
    fn unreachable_removal_fixes_phis() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let join = b.new_block();
        let dead = b.new_block();
        b.jmp(join);
        b.set_block(dead);
        b.jmp(join);
        b.set_block(join);
        let entry = BlockId(0);
        let p = b.phi(
            int,
            vec![(entry, Operand::Const(1)), (dead, Operand::Const(2))],
        );
        b.ret(Some(p.into()));
        b.finish();
        let f = &mut m.funcs[fid];
        assert!(remove_unreachable_blocks(f));
        let f = &m.funcs[fid];
        let phi = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Phi { incomings, .. } => Some(incomings.clone()),
                _ => None,
            });
        assert_eq!(phi.unwrap().len(), 1);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
    }

    #[test]
    fn cse_merges_duplicate_binops() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let x = b.param("x", int);
        let a = b.bin(BinOp::Mul, x.into(), x.into());
        let c = b.bin(BinOp::Mul, x.into(), x.into());
        let s = b.bin(BinOp::Add, a.into(), c.into());
        b.ret(Some(s.into()));
        b.finish();
        let f = &mut m.funcs[fid];
        assert!(local_cse(f));
        dce(f);
        assert_eq!(count_insts(&m.funcs[fid]), 2);
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn o2_pipeline_runs_to_fixpoint() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        m.main = Some(fid);
        let mut b = FuncBuilder::new(&mut m, fid);
        let a = b.copy(int, Operand::Const(1));
        let c = b.bin(BinOp::Add, a.into(), Operand::Const(1));
        let t = b.new_block();
        let e = b.new_block();
        b.br(c.into(), t, e);
        b.set_block(t);
        b.ret(Some(c.into()));
        b.set_block(e);
        b.ret(Some(Operand::Const(0)));
        b.finish();
        optimize(&mut m, OptLevel::O2);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        // Branch folds to the taken side; everything constant-folds away.
        assert_eq!(m.funcs[fid].blocks.len(), 1);
        assert_eq!(
            m.funcs[fid].blocks[BlockId(0)].term,
            Terminator::Ret(Some(Operand::Const(2)))
        );
    }

    #[test]
    fn undef_times_zero_stays_conservative() {
        // We do NOT fold ops with Undef operands: the dynamic analysis is
        // the judge of undef semantics, the optimizer must not invent
        // values (mirrors LLVM's nondeterminism warning in the paper only
        // through copy chains, never through arithmetic).
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let a = b.copy(int, Operand::Undef);
        let c = b.bin(BinOp::Mul, a.into(), Operand::Const(0));
        b.ret(Some(c.into()));
        b.finish();
        optimize(&mut m, OptLevel::O2);
        // The multiply survives (operand is Undef, not a constant we fold).
        assert!(m.funcs[fid]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin { .. })));
    }

    #[test]
    fn gep_zero_canonicalizes_to_copy() {
        let mut m = Module::new();
        let int = m.types.int();
        let pint = m.types.ptr_to(int);
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let p = b.param("p", pint);
        let g = b.gep_field(p.into(), 0, pint);
        b.store(g.into(), Operand::Const(1));
        b.ret(None);
        b.finish();
        let f = &mut m.funcs[fid];
        assert!(canonicalize_geps(f));
        assert!(m.funcs[fid].blocks[BlockId(0)]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Copy { .. })));
    }
}
