//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).
//!
//! Used by SSA construction (phi placement), by the semi-strong update rule
//! (an allocation site must dominate the store), and by Opt II's redundant
//! check elimination (a check must dominate the redirected definition).

use crate::cfg::{BlockLists, Cfg};
use crate::ids::{BlockId, Idx, IdxVec};
use crate::module::Function;

/// Dominator information for one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator of each reachable block (entry maps to itself);
    /// `None` for unreachable blocks.
    pub idom: IdxVec<BlockId, Option<BlockId>>,
    /// Dominator-tree children, in reverse postorder.
    pub children: BlockLists,
    /// Dominance frontier of each block.
    pub frontier: BlockLists,
    /// Preorder interval [in, out] on the dominator tree for O(1)
    /// `dominates` queries.
    tin: IdxVec<BlockId, u32>,
    tout: IdxVec<BlockId, u32>,
    entry: BlockId,
}

impl DomTree {
    /// Computes dominators and frontiers for `f` given its `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: IdxVec<BlockId, Option<BlockId>> = IdxVec::from_elem(None, n);
        idom[f.entry] = Some(f.entry);

        // Cooper-Harvey-Kennedy iteration over RPO.
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[bb] {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &cfg.rpo_index, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bb] != Some(ni) {
                        idom[bb] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        let tree_edges = (cfg.rpo.iter())
            .filter(|&&bb| bb != f.entry)
            .filter_map(|&bb| idom[bb].map(|d| (d, bb)));
        let children = BlockLists::from_pairs(n, tree_edges);

        // Dominance frontiers: `(runner, join)` pairs, each recorded once
        // (`last[runner]` is the join it was last recorded for).
        let mut frontier_pairs: Vec<(BlockId, BlockId)> = Vec::new();
        let mut last: IdxVec<BlockId, Option<BlockId>> = IdxVec::from_elem(None, n);
        for &bb in &cfg.rpo {
            if cfg.preds[bb].len() >= 2 {
                let target = idom[bb];
                for &p in &cfg.preds[bb] {
                    if idom[p].is_none() {
                        continue;
                    }
                    let mut runner = p;
                    while Some(runner) != target {
                        if last[runner] != Some(bb) {
                            last[runner] = Some(bb);
                            frontier_pairs.push((runner, bb));
                        }
                        let up = idom[runner].expect("reachable block has idom");
                        if up == runner {
                            break; // reached entry
                        }
                        runner = up;
                    }
                }
            }
        }
        let frontier = BlockLists::from_pairs(n, frontier_pairs.iter().copied());

        // Preorder intervals for `dominates`.
        let mut tin = IdxVec::from_elem(0u32, n);
        let mut tout = IdxVec::from_elem(0u32, n);
        let mut clock = 0u32;
        let mut stack = vec![(f.entry, false)];
        while let Some((bb, processed)) = stack.pop() {
            if processed {
                tout[bb] = clock;
                clock += 1;
            } else {
                tin[bb] = clock;
                clock += 1;
                stack.push((bb, true));
                for &c in children[bb].iter().rev() {
                    stack.push((c, false));
                }
            }
        }

        DomTree {
            idom,
            children,
            frontier,
            tin,
            tout,
            entry: f.entry,
        }
    }

    /// Whether block `a` dominates block `b` (reflexive). Unreachable
    /// blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[a].is_none() || self.idom[b].is_none() {
            return false;
        }
        self.tin[a] <= self.tin[b] && self.tout[b] <= self.tout[a]
    }

    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Iterated dominance frontier of a set of definition blocks — the phi
    /// placement set of minimal SSA — into `out` (cleared first), sorted.
    /// One `scratch` serves every query on a function: each query costs
    /// the frontier edges it walks, not the block count.
    pub fn iterated_frontier(
        &self,
        defs: &[BlockId],
        scratch: &mut IdfScratch,
        out: &mut Vec<BlockId>,
    ) {
        let epoch = scratch.next_epoch(self.idom.len());
        let IdfScratch {
            in_result,
            queued,
            work,
            ..
        } = scratch;
        out.clear();
        work.clear();
        for &d in defs {
            if queued[d.index()] != epoch {
                queued[d.index()] = epoch;
                work.push(d);
            }
        }
        while let Some(bb) = work.pop() {
            for &fb in &self.frontier[bb] {
                if in_result[fb.index()] != epoch {
                    in_result[fb.index()] = epoch;
                    out.push(fb);
                    if queued[fb.index()] != epoch {
                        queued[fb.index()] = epoch;
                        work.push(fb);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// Reusable scratch for [`DomTree::iterated_frontier`]: per-block
/// epoch stamps, so starting a query is O(1) rather than clearing two
/// block-sized vectors.
#[derive(Clone, Debug, Default)]
pub struct IdfScratch {
    in_result: Vec<u32>,
    queued: Vec<u32>,
    work: Vec<BlockId>,
    epoch: u32,
}

impl IdfScratch {
    /// Starts a query over `nblocks` blocks and returns its stamp.
    fn next_epoch(&mut self, nblocks: usize) -> u32 {
        if self.in_result.len() < nblocks || self.epoch == u32::MAX {
            self.in_result.clear();
            self.in_result.resize(nblocks, 0);
            self.queued.clear();
            self.queued.resize(nblocks, 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

fn intersect(
    idom: &IdxVec<BlockId, Option<BlockId>>,
    rpo_index: &IdxVec<BlockId, usize>,
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = idom[a].expect("intersect only visits processed blocks");
        }
        while rpo_index[b] > rpo_index[a] {
            b = idom[b].expect("intersect only visits processed blocks");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Operand, Terminator};

    /// Classic diamond with a loop back-edge:
    /// 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> {0? no..} build: 3 -> 4; 4 -> ret
    /// and a loop 4 -> 1 optionally.
    fn build(edges: &[(u32, Vec<u32>)], nblocks: u32) -> Function {
        let mut f = Function::new("t", None);
        for _ in 1..nblocks {
            f.new_block();
        }
        for (src, dsts) in edges {
            let bb = BlockId(*src);
            f.blocks[bb].term = match dsts.len() {
                0 => Terminator::Ret(None),
                1 => Terminator::Jmp(BlockId(dsts[0])),
                2 => Terminator::Br {
                    cond: Operand::Const(1),
                    then_bb: BlockId(dsts[0]),
                    else_bb: BlockId(dsts[1]),
                },
                _ => unreachable!(),
            };
        }
        f
    }

    #[test]
    fn diamond_idoms() {
        let f = build(
            &[(0, vec![1, 2]), (1, vec![3]), (2, vec![3]), (3, vec![])],
            4,
        );
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.idom[BlockId(1)], Some(BlockId(0)));
        assert_eq!(dt.idom[BlockId(2)], Some(BlockId(0)));
        assert_eq!(dt.idom[BlockId(3)], Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn diamond_frontiers() {
        let f = build(
            &[(0, vec![1, 2]), (1, vec![3]), (2, vec![3]), (3, vec![])],
            4,
        );
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.frontier[BlockId(1)], vec![BlockId(3)]);
        assert_eq!(dt.frontier[BlockId(2)], vec![BlockId(3)]);
        assert!(dt.frontier[BlockId(0)].is_empty());
    }

    #[test]
    fn loop_frontier_contains_header() {
        // 0 -> 1; 1 -> {2, 3}; 2 -> 1; 3 -> ret. Block 1 is a loop header.
        let f = build(
            &[(0, vec![1]), (1, vec![2, 3]), (2, vec![1]), (3, vec![])],
            4,
        );
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.idom[BlockId(2)], Some(BlockId(1)));
        assert!(dt.frontier[BlockId(2)].contains(&BlockId(1)));
        assert!(dt.frontier[BlockId(1)].contains(&BlockId(1)));
    }

    #[test]
    fn iterated_frontier_reaches_second_level_joins() {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> {4,5}; 4 -> 6; 5 -> 6; 6 -> ret
        let f = build(
            &[
                (0, vec![1, 2]),
                (1, vec![3]),
                (2, vec![3]),
                (3, vec![4, 5]),
                (4, vec![6]),
                (5, vec![6]),
                (6, vec![]),
            ],
            7,
        );
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        // A def in block 1 needs phis at 3 and (via 3's redefinition) at 6.
        // One scratch serves both queries.
        let mut scratch = IdfScratch::default();
        let mut idf = Vec::new();
        dt.iterated_frontier(&[BlockId(1)], &mut scratch, &mut idf);
        assert_eq!(idf, vec![BlockId(3)]);
        dt.iterated_frontier(&[BlockId(1), BlockId(4)], &mut scratch, &mut idf);
        assert_eq!(idf, vec![BlockId(3), BlockId(6)]);
    }

    #[test]
    fn dominates_is_false_for_unreachable() {
        let mut f = build(&[(0, vec![])], 1);
        let dead = f.new_block();
        f.blocks[dead].term = Terminator::Ret(None);
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert!(!dt.dominates(BlockId(0), dead));
        assert!(!dt.dominates(dead, BlockId(0)));
    }
}
