//! Must Flow-from Closures (Definition 2) — the substrate of both
//! VFG-based optimizations.
//!
//! The MFC of a top-level variable `x` folds backwards through copies,
//! unary/binary operations and geps; it stops at constants/allocations
//! (source `T`), at `undef` (source `F`), and at loads, phis, calls and
//! parameters (the variable itself becomes a source). The result is a DAG
//! with `x` as the sink; `Gamma(x) = Top` iff every source is `Top`.

use usher_ir::{Inst, Module};
use usher_vfg::{NodeKind, Vfg};

/// The must-flow-from closure of one top-level node.
#[derive(Clone, Debug, Default)]
pub struct Mfc {
    /// Every top-level node in the closure (including the sink and the
    /// top-level sources), each once, in discovery order.
    pub nodes: Vec<u32>,
    /// Nodes where folding stopped: loads, phis, calls, parameters (all
    /// members of `nodes`), plus possibly the roots `T`/`F`.
    pub sources: Vec<u32>,
    /// Number of interior (folded-through) nodes, excluding the sink.
    pub folded: usize,
}

/// A set of VFG nodes that clears in O(1): a stamp per node, and the
/// members are the nodes stamped with the current epoch. Repeated walks
/// over one graph reuse it instead of building a hash set each.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeMarks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl NodeMarks {
    /// Empties the set and sizes it for node ids below `n`.
    pub fn clear(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds `v`; returns whether it was absent.
    pub fn insert(&mut self, v: u32) -> bool {
        let s = &mut self.stamp[v as usize];
        let fresh = *s != self.epoch;
        *s = self.epoch;
        fresh
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// Scratch state for [`mfc`], reused across the walks of one caller.
#[derive(Clone, Debug, Default)]
pub struct MfcScratch {
    seen: NodeMarks,
    work: Vec<(u32, bool)>,
}

/// Looks up the defining instruction of a top-level node.
pub fn def_inst<'m>(m: &'m Module, vfg: &Vfg, node: u32) -> Option<&'m Inst> {
    let NodeKind::Tl(f, _) = vfg.nodes[node as usize] else {
        return None;
    };
    let site = vfg.def_site[node as usize]?;
    debug_assert_eq!(site.func, f);
    m.funcs[f].blocks[site.block].insts.get(site.idx)
}

/// Computes the MFC of `x_node` (which must be a `Tl` node).
///
/// `fold_bitwise` mirrors the paper's bit-level precision caveat
/// (Section 4.1): in bit-level shadow mode, bitwise operations are not
/// folded because per-bit shadows do not compose as a plain conjunction.
/// `scratch` holds the walk's visited set and stack; a caller that walks
/// many closures passes the same one each time.
pub fn mfc(
    m: &Module,
    vfg: &Vfg,
    x_node: u32,
    fold_bitwise: bool,
    scratch: &mut MfcScratch,
) -> Mfc {
    let mut out = Mfc::default();
    let MfcScratch { seen, work } = scratch;
    seen.clear(vfg.len());
    work.clear();
    work.push((x_node, true));

    while let Some((v, is_sink)) = work.pop() {
        if !seen.insert(v) {
            continue;
        }
        match vfg.nodes[v as usize] {
            NodeKind::RootT | NodeKind::RootF => {
                out.sources.push(v);
                continue;
            }
            NodeKind::Tl(..) => {}
            NodeKind::Mem(..) | NodeKind::Check(..) => {
                // MFCs contain only top-level variables (loads and stores
                // cannot be bypassed during shadow propagation).
                out.sources.push(v);
                continue;
            }
        }
        out.nodes.push(v);
        let foldable = match def_inst(m, vfg, v) {
            Some(Inst::Copy { .. }) | Some(Inst::Un { .. }) | Some(Inst::Gep { .. }) => true,
            Some(Inst::Bin { op, .. }) => fold_bitwise || !op.is_bitwise(),
            Some(Inst::Alloc { .. }) => {
                // `x := alloc` contributes the source T (the pointer is
                // always defined).
                if !out.sources.contains(&vfg.t_root) {
                    out.sources.push(vfg.t_root);
                }
                if !is_sink {
                    out.folded += 1;
                }
                continue;
            }
            _ => false,
        };
        if foldable {
            if !is_sink {
                out.folded += 1;
            }
            for (dep, _) in vfg.deps.edges(v) {
                work.push((dep, false));
            }
        } else {
            out.sources.push(v);
        }
    }
    // The sink may itself be a source (e.g. a load): `nodes` then has one
    // element and `sources` contains it.
    if out.nodes.len() == 1 && out.folded == 0 && out.sources.is_empty() {
        out.sources.push(x_node);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_frontend::compile_o0im;
    use usher_ir::{Operand, Terminator};
    use usher_vfg::{analyze_module, VfgMode};

    fn sink_of_ret(src: &str) -> (Module, Vfg, u32) {
        let m = compile_o0im(src).unwrap();
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        let fid = m.main.unwrap();
        for block in m.funcs[fid].blocks.iter() {
            if let Terminator::Ret(Some(Operand::Var(v))) = block.term {
                let n = g.tl(fid, v).unwrap();
                return (m, g, n);
            }
        }
        panic!("no ret var");
    }

    #[test]
    fn folds_through_arithmetic_chain() {
        // z = (a+b) + (c+d): the closure folds the adds; sources are the
        // four parameter-like loads of... here a..d are constants, so the
        // only source is T.
        let (m, g, sink) = sink_of_ret(
            "def main() -> int {
                 int a = 1; int b = 2; int c = 3; int d = 4;
                 int x = a + b;
                 int y = c + d;
                 int z = x + y;
                 return z;
             }",
        );
        let f = mfc(&m, &g, sink, true, &mut MfcScratch::default());
        assert!(f.folded >= 2, "x and y fold: {f:?}");
        assert_eq!(f.sources, vec![g.t_root]);
    }

    #[test]
    fn load_is_a_source() {
        let (m, g, sink) = sink_of_ret(
            "int ga; int gb;
             def main() -> int {
                 int x = ga + gb;
                 return x;
             }",
        );
        let f = mfc(&m, &g, sink, true, &mut MfcScratch::default());
        // Sources: the two loads of ga/gb.
        let tl_sources: Vec<u32> = f
            .sources
            .iter()
            .copied()
            .filter(|s| matches!(g.nodes[*s as usize], NodeKind::Tl(..)))
            .collect();
        assert_eq!(tl_sources.len(), 2, "{f:?}");
    }

    #[test]
    fn undef_contributes_f_root_source() {
        let (m, g, sink) = sink_of_ret(
            "def main() -> int {
                 int u;
                 return u + 1;
             }",
        );
        let f = mfc(&m, &g, sink, true, &mut MfcScratch::default());
        assert!(f.sources.contains(&g.f_root), "{f:?}");
    }

    #[test]
    fn bitwise_not_folded_in_bit_level_mode() {
        let (m, g, sink) = sink_of_ret(
            "def main() -> int {
                 int a = 3; int b = 5;
                 int x = a & b;
                 return x + 1;
             }",
        );
        let value_mode = mfc(&m, &g, sink, true, &mut MfcScratch::default());
        let bit_mode = mfc(&m, &g, sink, false, &mut MfcScratch::default());
        // In bit-level mode the `&` result is a source, not folded.
        assert!(
            bit_mode.folded < value_mode.folded,
            "{bit_mode:?} vs {value_mode:?}"
        );
    }

    #[test]
    fn singleton_mfc_is_its_own_source() {
        let (m, g, sink) = sink_of_ret(
            "int g0;
             def main() -> int { return g0; }",
        );
        let f = mfc(&m, &g, sink, true, &mut MfcScratch::default());
        assert!(f.sources.contains(&sink), "{f:?}");
        assert_eq!(f.folded, 0);
    }
}
