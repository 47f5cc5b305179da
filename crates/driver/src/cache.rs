//! The in-memory artifact cache shared by every run of a [`crate::Pipeline`].
//!
//! Keys are stable content hashes of `(source, relevant options)` built in
//! [`crate::options`]; values are `Arc`-shared immutable artifacts, so a
//! hit costs a pointer clone. A single mutex guards the map — stage
//! computations dominate by orders of magnitude, and entries are inserted
//! at most once per key, so contention is negligible at driver job
//! granularity.
//!
//! **Self-healing**: every entry carries a structural digest of its
//! artifact plus the cache format version it was written under. A lookup
//! re-derives the digest and treats any mismatch — bit rot, a buggy
//! mutation of a shared artifact, or an entry written by an older format
//! — as a miss: the entry is evicted, the stage recomputes, and the
//! recovery is counted in [`CacheStats::corrupt_recovered`]. A poisoned
//! mutex (a panic inside a cache operation on another thread) is likewise
//! recovered rather than propagated: the map's state is always a
//! consistent snapshot because every critical section is a single
//! `HashMap` operation.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use usher_core::{Gamma, Plan};
use usher_ir::{FxHasher, Module};
use usher_pointer::PointerAnalysis;
use usher_vfg::{MemSsa, Vfg};

/// Version tag of the cache entry format. Bump this whenever an
/// artifact's semantics change in a way old entries must not survive;
/// entries from another version are evicted on lookup exactly like
/// corrupt ones. Version 2: a module no longer keeps the objects and
/// slot variables of the locals `mem2reg` promoted. Version 3: `mem2reg`
/// builds pruned SSA, so a module keeps only the phis some load reads
/// and the surviving phis' variable ids shift.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// One cached stage output.
#[derive(Clone)]
pub enum Artifact {
    /// Compiled module (frontend output).
    Module(Arc<Module>),
    /// Pointer analysis.
    Pointer(Arc<PointerAnalysis>),
    /// Memory SSA.
    MemSsa(Arc<MemSsa>),
    /// Value-flow graph.
    Vfg(Arc<Vfg>),
    /// Resolved definedness map plus Opt II's redirected-node count.
    Gamma(Arc<Gamma>, usize),
    /// Instrumentation plan.
    Plan(Arc<Plan>),
}

/// Hashes a map's entries in key order, so equal maps digest equally
/// whatever their iteration order.
fn hash_sorted<K: Ord + Hash, V: Hash, S>(h: &mut FxHasher, map: &HashMap<K, V, S>) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by_key(|(k, _)| *k);
    entries.hash(h);
}

/// Hashes a set's members in order.
fn hash_sorted_set<T: Ord + Hash, S>(h: &mut FxHasher, set: &HashSet<T, S>) {
    let mut members: Vec<_> = set.iter().collect();
    members.sort_unstable();
    members.hash(h);
}

/// Structural digest of an artifact, stable across runs (it hashes
/// content, never addresses). Artifacts are streamed through their
/// `Hash` impls field by field, never printed; map keys are sorted
/// before hashing.
pub fn artifact_digest(a: &Artifact) -> u64 {
    let mut h = FxHasher::default();
    match a {
        Artifact::Module(m) => {
            h.write_u64(1);
            m.hash(&mut h);
        }
        Artifact::Pointer(pa) => {
            h.write_u64(2);
            h.write_u64(pa.digest());
        }
        Artifact::MemSsa(ms) => {
            h.write_u64(3);
            let mut funcs: Vec<_> = ms.funcs.iter().collect();
            funcs.sort_unstable_by_key(|(fid, _)| **fid);
            h.write_usize(funcs.len());
            for (fid, fs) in funcs {
                fid.hash(&mut h);
                fs.defs.hash(&mut h);
                hash_sorted(&mut h, &fs.mus);
                hash_sorted(&mut h, &fs.chis);
                hash_sorted(&mut h, &fs.phis);
                hash_sorted(&mut h, &fs.ret_mus);
                hash_sorted(&mut h, &fs.formal_in);
                hash_sorted_set(&mut h, &fs.summary_in);
                hash_sorted_set(&mut h, &fs.summary_out);
            }
        }
        Artifact::Vfg(v) => {
            h.write_u64(4);
            v.nodes.hash(&mut h);
            for csr in [&v.deps, &v.users] {
                csr.offsets.hash(&mut h);
                csr.targets.hash(&mut h);
                csr.kinds.hash(&mut h);
            }
            v.checks.hash(&mut h);
            v.def_site.hash(&mut h);
            v.stats.hash(&mut h);
            v.mode.hash(&mut h);
            h.write_u32(v.t_root);
            h.write_u32(v.f_root);
        }
        Artifact::Gamma(g, redirected) => {
            h.write_u64(5);
            let mut word = 0u64;
            for v in 0..g.len() as u32 {
                word = (word << 1) | u64::from(g.is_bot(v));
                if v % 64 == 63 {
                    h.write_u64(word);
                    word = 0;
                }
            }
            h.write_u64(word);
            h.write_usize(g.len());
            h.write_usize(g.context_depth);
            h.write_usize(*redirected);
        }
        Artifact::Plan(p) => {
            // What `plan_fingerprint` renders: the op lists by entry and
            // site, the tracked phis and the stats (not name or
            // provenance).
            h.write_u64(6);
            hash_sorted(&mut h, &p.entry);
            hash_sorted(&mut h, &p.before);
            hash_sorted(&mut h, &p.after);
            hash_sorted_set(&mut h, &p.tracked_phis);
            p.stats.hash(&mut h);
        }
    }
    h.finish()
}

struct Entry {
    artifact: Artifact,
    digest: u64,
    version: u32,
}

/// Global hit/miss counters of a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an artifact.
    pub hits: usize,
    /// Lookups that found nothing (the stage then ran).
    pub misses: usize,
    /// Artifacts currently stored.
    pub entries: usize,
    /// Entries evicted because their digest or format version no longer
    /// matched (each one recomputed and re-cached transparently).
    pub corrupt_recovered: usize,
}

/// A thread-safe artifact store keyed by stable content hashes.
#[derive(Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<u64, Entry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt_recovered: AtomicUsize,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Locks the map, recovering from a poisoned mutex: every critical
    /// section is a single map operation, so the state under a poison is
    /// still consistent.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, Entry>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up an artifact, counting the hit or miss. An entry whose
    /// digest no longer matches its artifact, or that was written under
    /// a different [`CACHE_FORMAT_VERSION`], is evicted and reported as
    /// a miss so the caller recomputes.
    pub fn lookup(&self, key: u64) -> Option<Artifact> {
        self.lookup_verified(key).0
    }

    /// [`ArtifactCache::lookup`], additionally reporting whether **this**
    /// lookup evicted a corrupt or version-skewed entry — so a run can
    /// attribute the recovery to itself in telemetry even when the cache
    /// is shared across concurrent jobs.
    pub fn lookup_verified(&self, key: u64) -> (Option<Artifact>, bool) {
        let mut map = self.map();
        match map.get(&key) {
            Some(e) => {
                if e.version != CACHE_FORMAT_VERSION || artifact_digest(&e.artifact) != e.digest {
                    map.remove(&key);
                    drop(map);
                    self.corrupt_recovered.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return (None, true);
                }
                let a = e.artifact.clone();
                drop(map);
                self.hits.fetch_add(1, Ordering::Relaxed);
                (Some(a), false)
            }
            None => {
                drop(map);
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, false)
            }
        }
    }

    /// Stores an artifact under its digest. Racing inserts of the same
    /// key are benign: stage computations are deterministic, so both
    /// values are equal and either may win.
    pub fn insert(&self, key: u64, artifact: Artifact) {
        let digest = artifact_digest(&artifact);
        self.map().insert(
            key,
            Entry {
                artifact,
                digest,
                version: CACHE_FORMAT_VERSION,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map().len(),
            corrupt_recovered: self.corrupt_recovered.load(Ordering::Relaxed),
        }
    }

    /// Fault injection: flips the stored digest of every entry, leaving
    /// the artifacts intact. Every subsequent lookup of these keys
    /// detects the mismatch, evicts, and recomputes — the detectable
    /// corruption the self-healing path is built for. Returns how many
    /// entries were corrupted.
    pub fn corrupt_digests(&self) -> usize {
        let mut map = self.map();
        for e in map.values_mut() {
            e.digest ^= 0xdead_beef_dead_beef;
        }
        map.len()
    }

    /// Fault injection: replaces every cached *plan* with an empty plan
    /// and recomputes the digest so the corruption is **not** detectable
    /// by the integrity check. Exists purely so the fuzz harness can
    /// prove its cache-corruption probe would catch a checksum scheme
    /// that silently stopped working. Returns how many plans were
    /// swapped.
    pub fn corrupt_plans_undetectably(&self) -> usize {
        let mut map = self.map();
        let mut swapped = 0;
        for e in map.values_mut() {
            if matches!(e.artifact, Artifact::Plan(_)) {
                let empty = Artifact::Plan(Arc::new(Plan::default()));
                e.digest = artifact_digest(&empty);
                e.artifact = empty;
                swapped += 1;
            }
        }
        swapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_ir::{Inst, ObjId, Operand, VarId};
    use usher_vfg::MemVerId;

    #[test]
    fn hit_and_miss_accounting() {
        let c = ArtifactCache::new();
        assert!(c.lookup(1).is_none());
        c.insert(1, Artifact::Module(Arc::new(Module::default())));
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert_eq!(s.corrupt_recovered, 0);
    }

    #[test]
    fn corrupted_entries_are_evicted_and_counted() {
        let c = ArtifactCache::new();
        c.insert(7, Artifact::Module(Arc::new(Module::default())));
        assert_eq!(c.corrupt_digests(), 1);
        assert!(c.lookup(7).is_none(), "corrupt entry must read as a miss");
        let s = c.stats();
        assert_eq!(s.corrupt_recovered, 1);
        assert_eq!(s.entries, 0, "corrupt entry is evicted");
        // Recompute-and-reinsert heals the slot.
        c.insert(7, Artifact::Module(Arc::new(Module::default())));
        assert!(c.lookup(7).is_some());
    }

    #[test]
    fn version_skew_reads_as_corruption() {
        let c = ArtifactCache::new();
        c.insert(9, Artifact::Module(Arc::new(Module::default())));
        c.map().get_mut(&9).unwrap().version = CACHE_FORMAT_VERSION + 1;
        assert!(c.lookup(9).is_none());
        assert_eq!(c.stats().corrupt_recovered, 1);
    }

    const DIGEST_SRC: &str = "
        struct pair { int a; int *b; };
        int g;
        def helper(int a) -> int { int t; if (a > 1) { t = a; } return t; }
        def main(int c) -> int {
            struct pair *p;
            p = malloc(2);
            p->a = helper(c);
            g = p->a + 7;
            print(g);
            return 0;
        }
    ";

    /// Module, memory SSA and VFG of one independent compile + analysis.
    fn analyzed(src: &str) -> (Module, MemSsa, Vfg) {
        let m = usher_frontend::compile_o0im(src).expect("digest source compiles");
        let pa = usher_pointer::analyze(&m);
        let ms = usher_vfg::build_memssa(&m, &pa);
        let v = usher_vfg::build(&m, &pa, &ms, usher_vfg::VfgMode::Full);
        (m, ms, v)
    }

    fn module_digest(m: &Module) -> u64 {
        artifact_digest(&Artifact::Module(Arc::new(m.clone())))
    }

    fn memssa_digest(ms: &MemSsa) -> u64 {
        artifact_digest(&Artifact::MemSsa(Arc::new(ms.clone())))
    }

    fn vfg_digest(v: &Vfg) -> u64 {
        artifact_digest(&Artifact::Vfg(Arc::new(v.clone())))
    }

    #[test]
    fn digests_are_deterministic_and_see_every_single_field_change() {
        let (m, ms, v) = analyzed(DIGEST_SRC);
        let (dm, dms, dv) = (module_digest(&m), memssa_digest(&ms), vfg_digest(&v));

        // Two independent runs (fresh hash maps, fresh iteration orders)
        // digest identically, and so does a clone.
        let (m2, ms2, v2) = analyzed(DIGEST_SRC);
        assert_eq!(
            (module_digest(&m2), memssa_digest(&ms2), vfg_digest(&v2)),
            (dm, dms, dv)
        );
        assert_eq!(module_digest(&m.clone()), dm);

        // One instruction operand.
        let mut m1 = m.clone();
        let inst = m1
            .funcs
            .iter_mut()
            .flat_map(|f| f.blocks.iter_mut())
            .flat_map(|b| b.insts.iter_mut())
            .find(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        rhs: Operand::Const(_),
                        ..
                    }
                )
            })
            .expect("a binary instruction with a constant operand");
        inst.map_uses(|op| match op {
            Operand::Const(c) => Operand::Const(c + 1),
            other => other,
        });
        assert_ne!(module_digest(&m1), dm, "instruction operand");

        // One variable name.
        let mut m1 = m.clone();
        let f = m1.main.expect("main resolved");
        m1.funcs[f].vars[VarId(0)].name.push('_');
        assert_ne!(module_digest(&m1), dm, "variable name");

        // One object's zero_init.
        let mut m1 = m.clone();
        m1.objects[ObjId(0)].zero_init ^= true;
        assert_ne!(module_digest(&m1), dm, "object zero_init");

        // One struct field.
        let mut m1 = m.clone();
        let sid = m1.types.struct_by_name("pair").expect("struct pair");
        let mut fields = m1.types.struct_def(sid).fields.clone();
        fields[1].0.push('_');
        m1.types.set_struct_fields(sid, fields);
        assert_ne!(module_digest(&m1), dm, "struct field");

        // One chi and one mu entry of the memory SSA.
        let mut ms1 = ms.clone();
        let chi = ms1
            .funcs
            .values_mut()
            .flat_map(|fs| fs.chis.values_mut())
            .flat_map(|chis| chis.iter_mut())
            .next()
            .expect("a chi");
        chi.old = MemVerId(chi.old.0 + 1);
        assert_ne!(memssa_digest(&ms1), dms, "chi entry");
        let mut ms1 = ms.clone();
        let mu = ms1
            .funcs
            .values_mut()
            .flat_map(|fs| fs.mus.values_mut())
            .flat_map(|mus| mus.iter_mut())
            .next()
            .expect("a mu");
        mu.def = MemVerId(mu.def.0 + 1);
        assert_ne!(memssa_digest(&ms1), dms, "mu entry");

        // One VFG edge.
        let mut v1 = v.clone();
        v1.deps.targets[0] ^= 1;
        assert_ne!(vfg_digest(&v1), dv, "VFG edge");
    }

    #[test]
    fn undetectable_plan_swap_passes_the_integrity_check() {
        let c = ArtifactCache::new();
        c.insert(3, Artifact::Plan(Arc::new(Plan::default())));
        assert_eq!(c.corrupt_plans_undetectably(), 1);
        // The checksum cannot see this one — the cross-run fingerprint
        // probe in the fuzz harness is what catches it.
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats().corrupt_recovered, 0);
    }
}
