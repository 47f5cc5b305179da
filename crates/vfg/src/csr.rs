//! Compressed-sparse-row encoding of VFG-style adjacency lists.
//!
//! The resolution and cycle-collapse traversals walk the same edges many
//! times; the per-node `Vec<(u32, EdgeKind)>` lists scatter them across
//! the heap. [`Csr`] freezes an adjacency into three flat arrays
//! (offsets / targets / kinds, struct-of-arrays) so a node's out-edges
//! are one contiguous, cache-resident slice.

use crate::build::EdgeKind;

/// A frozen adjacency in compressed-sparse-row form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes v's out-edges.
    pub offsets: Vec<u32>,
    /// Edge target node ids, grouped by source.
    pub targets: Vec<u32>,
    /// Edge kinds, parallel to `targets`.
    pub kinds: Vec<EdgeKind>,
}

impl Csr {
    /// Freezes `adj` (indexed by node id) into CSR form, preserving the
    /// per-node edge order.
    pub fn from_adjacency(adj: &[Vec<(u32, EdgeKind)>]) -> Csr {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        let mut kinds = Vec::with_capacity(total);
        for edges in adj {
            for &(t, k) in edges {
                targets.push(t);
                kinds.push(k);
            }
            offsets.push(targets.len() as u32);
        }
        Csr {
            offsets,
            targets,
            kinds,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Out-edges of `v` as `(target, kind)` pairs.
    pub fn edges(&self, v: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.kinds[lo..hi])
            .map(|(&t, &k)| (t, k))
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The reverse graph in CSR form, via counting sort on targets: edge
    /// `v -(k)-> w` here becomes `w -(k)-> v` there. Per target, edges
    /// appear in source order.
    pub fn transpose(&self) -> Csr {
        let n = self.len();
        let m = self.targets.len();
        let mut offsets = vec![0u32; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; m];
        let mut kinds = vec![EdgeKind::Direct; m];
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        for v in 0..n as u32 {
            for (t, k) in self.edges(v) {
                let slot = fill[t as usize] as usize;
                targets[slot] = v;
                kinds[slot] = k;
                fill[t as usize] += 1;
            }
        }
        Csr {
            offsets,
            targets,
            kinds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_preserves_adjacency() {
        let adj = vec![
            vec![(1, EdgeKind::Direct), (2, EdgeKind::Direct)],
            vec![],
            vec![(0, EdgeKind::Direct)],
        ];
        let csr = Csr::from_adjacency(&adj);
        assert_eq!(csr.len(), 3);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
        for (v, edges) in adj.iter().enumerate() {
            let got: Vec<(u32, EdgeKind)> = csr.edges(v as u32).collect();
            assert_eq!(&got, edges);
        }
    }

    #[test]
    fn transpose_reverses_edges_and_keeps_kinds() {
        let adj = vec![
            vec![(1, EdgeKind::Direct), (2, EdgeKind::Direct)],
            vec![(2, EdgeKind::Direct)],
            vec![],
        ];
        let csr = Csr::from_adjacency(&adj);
        let rev = csr.transpose();
        assert_eq!(rev.len(), 3);
        let got: Vec<(u32, EdgeKind)> = rev.edges(2).collect();
        assert_eq!(got, vec![(0, EdgeKind::Direct), (1, EdgeKind::Direct)]);
        assert_eq!(rev.degree(0), 0);
        // Transposing twice restores the original (sources are emitted
        // in order, so the round trip is exact).
        let back = rev.transpose();
        assert_eq!(back.offsets, csr.offsets);
        assert_eq!(back.targets, csr.targets);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_adjacency(&[]);
        assert!(csr.is_empty());
        assert_eq!(csr.len(), 0);
    }
}
