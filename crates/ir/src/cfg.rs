//! Control-flow graph utilities: predecessors, reverse postorder, and the
//! per-function CFG + dominator tree the analysis stages share.

use std::ops::Index;
use std::sync::OnceLock;

use crate::dom::DomTree;
use crate::ids::{BlockId, FuncId, Idx, IdxVec};
use crate::module::{Function, Module, Terminator};

/// A list of blocks per block, stored flat: block `b`'s list is
/// `list[off[b]..off[b + 1]]`, and indexing by `b` returns it as a slice.
/// All of a function's lists take two allocations, not one per block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLists {
    off: Vec<u32>,
    list: Vec<BlockId>,
}

impl BlockLists {
    /// Groups `(block, item)` pairs by block over `n` blocks; each block's
    /// items keep their order in `pairs`.
    pub(crate) fn from_pairs(
        n: usize,
        pairs: impl Iterator<Item = (BlockId, BlockId)> + Clone,
    ) -> BlockLists {
        let mut off = vec![0u32; n + 1];
        for (b, _) in pairs.clone() {
            off[b.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut list = vec![BlockId(0); off[n] as usize];
        // Fill with `off[b]` as block b's cursor; that leaves it at b's
        // end, which is `b + 1`'s start, so shift the offsets back after.
        for (b, x) in pairs {
            list[off[b.index()] as usize] = x;
            off[b.index()] += 1;
        }
        off.copy_within(0..n, 1);
        off[0] = 0;
        BlockLists { off, list }
    }
}

impl Index<BlockId> for BlockLists {
    type Output = [BlockId];

    fn index(&self, b: BlockId) -> &[BlockId] {
        &self.list[self.off[b.index()] as usize..self.off[b.index() + 1] as usize]
    }
}

/// Per-function CFG info, recomputed on demand after transformations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfg {
    /// Predecessor lists, each in block order (duplicates kept for
    /// two-way branches to the same target so that phi incoming counts
    /// stay consistent).
    pub preds: BlockLists,
    /// Successor lists, in terminator order.
    pub succs: BlockLists,
    /// Reverse postorder over reachable blocks, starting at entry.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`; `usize::MAX` if unreachable.
    pub rpo_index: IdxVec<BlockId, usize>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut list = Vec::with_capacity(n * 2);
        off.push(0);
        for block in f.blocks.iter() {
            match block.term {
                Terminator::Jmp(b) => list.push(b),
                Terminator::Br {
                    then_bb, else_bb, ..
                } => list.extend([then_bb, else_bb]),
                Terminator::Ret(_) | Terminator::Unreachable => {}
            }
            off.push(list.len() as u32);
        }
        let succs = BlockLists { off, list };
        let edges = (0..n).flat_map(|b| {
            let b = BlockId::from_usize(b);
            succs[b].iter().map(move |&s| (s, b))
        });
        let preds = BlockLists::from_pairs(n, edges);
        // Iterative postorder DFS from entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
        visited[f.entry.index()] = true;
        while let Some(&mut (bb, ref mut i)) = stack.last_mut() {
            if *i < succs[bb].len() {
                let nxt = succs[bb][*i];
                *i += 1;
                if !visited[nxt.index()] {
                    visited[nxt.index()] = true;
                    stack.push((nxt, 0));
                }
            } else {
                post.push(bb);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = IdxVec::from_elem(usize::MAX, n);
        for (i, bb) in rpo.iter().enumerate() {
            rpo_index[*bb] = i;
        }
        Cfg {
            preds,
            succs,
            rpo,
            rpo_index,
        }
    }

    /// Whether `bb` is reachable from entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index[bb] != usize::MAX
    }
}

/// One function's CFG and dominator tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncCfg {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// The dominator tree over `cfg`.
    pub dom: DomTree,
}

impl FuncCfg {
    /// Computes `f`'s CFG and dominator tree.
    pub fn compute(f: &Function) -> FuncCfg {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        FuncCfg { cfg, dom }
    }
}

/// Every function's [`FuncCfg`] for one final (post-optimization) module,
/// each computed at most once, on first use, and then shared by the
/// post-optimization verify, memory SSA, the VFG build and Opt II.
///
/// The entries describe the module the set was made for; a caller that
/// rewrites a function's body must [`ModuleCfgs::invalidate`] that
/// function before the next read. Entries are filled through `&self`, so
/// stages that fan functions out over worker threads share one set.
#[derive(Clone, Debug, Default)]
pub struct ModuleCfgs {
    funcs: IdxVec<FuncId, OnceLock<FuncCfg>>,
}

impl ModuleCfgs {
    /// An empty set for `m`: nothing is computed until it is read.
    pub fn new(m: &Module) -> ModuleCfgs {
        ModuleCfgs {
            funcs: m.funcs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// `fid`'s CFG and dominator tree in `m`, computed on first use.
    pub fn get(&self, m: &Module, fid: FuncId) -> &FuncCfg {
        self.funcs[fid].get_or_init(|| FuncCfg::compute(&m.funcs[fid]))
    }

    /// `fid`'s entry if it has been computed.
    pub fn computed(&self, fid: FuncId) -> Option<&FuncCfg> {
        self.funcs[fid].get()
    }

    /// Drops `fid`'s entry after its body changed; the next read
    /// recomputes it from the module.
    pub fn invalidate(&mut self, fid: FuncId) {
        self.funcs[fid] = OnceLock::new();
    }

    /// Whether the set covers `m`'s functions and every computed entry
    /// equals a fresh computation from `m` (the invariant stages rely on).
    pub fn is_fresh(&self, m: &Module) -> bool {
        self.funcs.len() == m.funcs.len()
            && m.funcs
                .iter_enumerated()
                .all(|(fid, f)| self.computed(fid).is_none_or(|c| *c == FuncCfg::compute(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Operand, Terminator};

    /// entry -> {a, b}; a -> join; b -> join; join -> ret; plus one
    /// unreachable block.
    fn diamond() -> Function {
        let mut f = Function::new("d", None);
        let entry = f.entry;
        let a = f.new_block();
        let b = f.new_block();
        let join = f.new_block();
        let dead = f.new_block();
        f.blocks[entry].term = Terminator::Br {
            cond: Operand::Const(1),
            then_bb: a,
            else_bb: b,
        };
        f.blocks[a].term = Terminator::Jmp(join);
        f.blocks[b].term = Terminator::Jmp(join);
        f.blocks[join].term = Terminator::Ret(None);
        f.blocks[dead].term = Terminator::Jmp(join);
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs[BlockId(0)], [BlockId(1), BlockId(2)]);
        let mut join_preds = cfg.preds[BlockId(3)].to_vec();
        join_preds.sort();
        // The dead block also lists itself as a predecessor edge source.
        assert_eq!(join_preds, vec![BlockId(1), BlockId(2), BlockId(4)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_skips_unreachable() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo.len(), 4);
        assert!(!cfg.is_reachable(BlockId(4)));
        assert!(cfg.is_reachable(BlockId(3)));
    }

    #[test]
    fn rpo_orders_before_successors_in_acyclic_graph() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert!(cfg.rpo_index[BlockId(0)] < cfg.rpo_index[BlockId(1)]);
        assert!(cfg.rpo_index[BlockId(1)] < cfg.rpo_index[BlockId(3)]);
        assert!(cfg.rpo_index[BlockId(2)] < cfg.rpo_index[BlockId(3)]);
    }
}
