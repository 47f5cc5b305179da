//! A fast, non-cryptographic hasher for the analysis hot paths.
//!
//! The solver and resolver intern millions of small keys (node tags,
//! `(ctx, site)` pairs); the default SipHash spends more time hashing
//! than the table operations themselves. This is the classic
//! multiply-rotate word hash (as popularized by the Firefox/rustc
//! "fx" hash): one rotate, one xor and one multiply per input word.
//!
//! Where it applies (DESIGN.md §7): the pointer solver and call graph,
//! `mem2reg`, memory SSA (`FuncMemSsa`, `MemSsa::funcs`, `ModRef`), the
//! VFG builder and demand engine, Opt II and the MFC walk. Where an id
//! space is dense (one slot per function, variable or node), a vector
//! or bitset replaces the map altogether, as in Opt II's dominator trees
//! and the verifier's defined-register set.
//!
//! Not DoS-resistant — use only on keys the analysis itself created.
//! Keys derived from outside input keep SipHash: `usher serve` compiles
//! untrusted source, so the maps keyed by source identifiers (the
//! lowering environment and scopes) stay on std's randomly keyed hasher.
//! The frozen reference implementations are never optimized, this
//! hasher included: they are the baselines the equivalence suites
//! compare against.
//!
//! Hash values must never leak into output ordering: any map/set using
//! this hasher must be drained through an explicit sort (or into an
//! order-insensitive structure) before its contents become observable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the fx word hash (a 64-bit odd constant derived from
/// the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word folded per input word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            seen.insert(i.wrapping_mul(0x9e37_79b9));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn map_roundtrips() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert((i, i * 2), i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&(i, i * 2)), Some(&i));
        }
    }

    #[test]
    fn partial_byte_writes_differ() {
        use std::hash::Hasher as _;
        let mut a = FxHasher::default();
        a.write(b"abc");
        let mut b = FxHasher::default();
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
    }
}
