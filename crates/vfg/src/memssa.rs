//! Memory SSA construction (Section 3.1).
//!
//! Following the paper (which follows Chow et al.), every load is
//! annotated with `mu(rho)` functions for the locations it may read, every
//! store and allocation site with `rho_m := chi(rho_n)` functions for the
//! locations it may define, and call sites with the `mu`/`chi` of their
//! callees' mod/ref summaries. Address-taken locations are then versioned
//! per function with region phis at iterated dominance frontiers.
//!
//! Versions are function-local: interprocedural flow is threaded through
//! *virtual parameters* — the formal-in defs at function entry (fed by
//! call-site `mu` versions) and the formal-out uses at returns (feeding
//! call-site `chi` versions).
//!
//! Lifetime caveat (also present in the paper's LLVM realization): a
//! callee's own stack objects are excluded from its mod/ref summary, so a
//! dangling read of a dead frame resolves to the "no prior definition"
//! version, which the VFG maps to a fresh, dependency-free node.

use usher_ir::{
    BlockId, Budget, Callee, Exhausted, ExtFunc, FuncCfg, FuncId, FxHashMap, FxHashSet, IdfScratch,
    Idx, IdxVec, Inst, Module, ModuleCfgs, ObjKind, Site, Terminator,
};
use usher_pointer::{Loc, PointerAnalysis};

/// A memory-version definition id, local to one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemVerId(pub u32);

/// What created a memory version.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemDefKind {
    /// Version live on function entry (virtual formal parameter).
    FormalIn,
    /// Defined by an allocation site's `chi`.
    Alloc(Site),
    /// Defined by a store's `chi`.
    StoreChi(Site),
    /// Defined by a call site's `chi` (callee may modify it).
    CallChi(Site),
    /// A region phi at a join block.
    Phi(BlockId),
}

/// One memory-version definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemDef {
    /// The location this version belongs to.
    pub loc: Loc,
    /// Provenance.
    pub kind: MemDefKind,
}

/// An indirect use: `mu(loc)` referencing its reaching definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MuUse {
    /// Location read.
    pub loc: Loc,
    /// Reaching version.
    pub def: MemVerId,
}

/// An indirect def: `new := chi(old)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChiDef {
    /// Location written.
    pub loc: Loc,
    /// The freshly defined version.
    pub new: MemVerId,
    /// The previous version (merged in on weak updates).
    pub old: MemVerId,
}

/// A region phi.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RegionPhi {
    /// Location.
    pub loc: Loc,
    /// Defined version.
    pub def: MemVerId,
    /// Incoming `(pred block, version)` pairs.
    pub incomings: Vec<(BlockId, MemVerId)>,
}

/// Memory SSA for one function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuncMemSsa {
    /// All versions, indexed by [`MemVerId`].
    pub defs: Vec<MemDef>,
    /// `mu` lists per load / call site.
    pub mus: FxHashMap<Site, Vec<MuUse>>,
    /// `chi` lists per store / alloc / call site.
    pub chis: FxHashMap<Site, Vec<ChiDef>>,
    /// Region phis per block (at block head).
    pub phis: FxHashMap<BlockId, Vec<RegionPhi>>,
    /// Virtual output parameters at each `ret` block: `(loc, final
    /// version)`; only locations in the function's mod summary appear.
    pub ret_mus: FxHashMap<BlockId, Vec<MuUse>>,
    /// The formal-in version of every versioned location.
    pub formal_in: FxHashMap<Loc, MemVerId>,
    /// Locations in the function's ref+mod summary (its virtual
    /// parameters); formal-ins outside this set have no callers' flow.
    pub summary_in: FxHashSet<Loc>,
    /// Locations in the mod summary (virtual output parameters).
    pub summary_out: FxHashSet<Loc>,
}

impl FuncMemSsa {
    /// The definition record for a version.
    pub fn def(&self, v: MemVerId) -> MemDef {
        self.defs[v.0 as usize]
    }
}

/// Memory SSA for the whole module plus the mod/ref summaries.
#[derive(Clone, Debug, Default)]
pub struct MemSsa {
    /// Per-function results.
    pub funcs: FxHashMap<FuncId, FuncMemSsa>,
}

/// Whole-program mod/ref summaries: the sequential prefix of memory-SSA
/// construction (interprocedural, bottom-up over call-graph SCCs). Once
/// computed, the per-function SSA phase ([`build_function_ssa`]) is
/// independent per function and may run in parallel.
#[derive(Clone, Debug, Default)]
pub struct ModRef {
    /// Locations each function (transitively) may modify.
    pub mods: IdxVec<FuncId, FxHashSet<Loc>>,
    /// Locations each function (transitively) may read.
    pub refs: IdxVec<FuncId, FxHashSet<Loc>>,
}

/// Computes the [`ModRef`] summaries for every function.
pub fn modref_summaries(m: &Module, pa: &PointerAnalysis) -> ModRef {
    modref_summaries_budgeted(m, pa, &Budget::unlimited()).expect("unlimited budgets never exhaust")
}

/// [`modref_summaries`] under a cooperative step budget: one step per
/// call-edge visit of the interprocedural fixpoint.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out; a partial summary
/// under-approximates mod/ref sets and must be discarded.
pub fn modref_summaries_budgeted(
    m: &Module,
    pa: &PointerAnalysis,
    budget: &Budget,
) -> Result<ModRef, Exhausted> {
    let mut mods: IdxVec<FuncId, FxHashSet<Loc>> =
        m.funcs.iter().map(|_| Default::default()).collect();
    let mut refs: IdxVec<FuncId, FxHashSet<Loc>> =
        m.funcs.iter().map(|_| Default::default()).collect();
    // Direct effects.
    for (fid, func) in m.funcs.iter_enumerated() {
        for (_bb, block) in func.blocks.iter_enumerated() {
            for inst in &block.insts {
                match inst {
                    Inst::Load { addr, .. } => {
                        for l in pa.pts_operand(fid, *addr) {
                            refs[fid].insert(l);
                        }
                    }
                    Inst::Store { addr, .. } => {
                        for l in pa.pts_operand(fid, *addr) {
                            mods[fid].insert(l);
                            // The old version is merged on weak updates,
                            // which reads it.
                            refs[fid].insert(l);
                        }
                    }
                    Inst::Alloc { obj, .. } => {
                        for l in pa.all_fields(*obj) {
                            mods[fid].insert(l);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    // Transitive effects: iterate SCCs bottom-up; within an SCC loop to a
    // fixpoint.
    let bottom_up = pa.call_graph.bottom_up.clone();
    for scc in &bottom_up {
        loop {
            let mut changed = false;
            for &f in scc {
                let sites: Vec<Site> = call_sites(m, f);
                for site in sites {
                    for &g in pa.call_graph.callees_of(site) {
                        budget.try_charge(1)?;
                        let callee_mods: Vec<Loc> = mods[g]
                            .iter()
                            .copied()
                            .filter(|l| visible_outside(m, g, *l))
                            .collect();
                        let callee_refs: Vec<Loc> = refs[g]
                            .iter()
                            .copied()
                            .filter(|l| visible_outside(m, g, *l))
                            .collect();
                        for l in callee_mods {
                            changed |= mods[f].insert(l);
                        }
                        for l in callee_refs {
                            changed |= refs[f].insert(l);
                        }
                    }
                }
            }
            if !changed || scc.len() == 1 {
                break;
            }
        }
    }
    Ok(ModRef { mods, refs })
}

/// Builds memory SSA for one function given precomputed [`ModRef`]
/// summaries, computing the function's CFG and dominator tree. Returns
/// `None` for bodiless declarations. Functions are independent at this
/// phase, so callers (e.g. the `usher-driver` scheduler) may fan this out
/// across worker threads.
pub fn build_function_ssa(
    m: &Module,
    pa: &PointerAnalysis,
    fid: FuncId,
    modref: &ModRef,
) -> Option<FuncMemSsa> {
    if m.funcs[fid].blocks.is_empty() {
        return None;
    }
    let fc = FuncCfg::compute(&m.funcs[fid]);
    let unlimited = &Budget::unlimited();
    let fs = build_function(m, pa, fid, &fc, &modref.mods, &modref.refs, unlimited);
    Some(fs.expect("unlimited budgets never exhaust"))
}

/// [`build_function_ssa`] reading the function's CFG and dominator tree
/// from the shared `cfgs`, under a cooperative step budget: one step per
/// instruction visited during placement and renaming.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out; the partial SSA form
/// must be discarded.
pub fn build_function_ssa_budgeted(
    m: &Module,
    pa: &PointerAnalysis,
    fid: FuncId,
    cfgs: &ModuleCfgs,
    modref: &ModRef,
    budget: &Budget,
) -> Result<Option<FuncMemSsa>, Exhausted> {
    if m.funcs[fid].blocks.is_empty() {
        return Ok(None);
    }
    let fc = cfgs.get(m, fid);
    build_function(m, pa, fid, fc, &modref.mods, &modref.refs, budget).map(Some)
}

/// Builds memory SSA for every function (sequential reference wiring;
/// the driver parallelizes the per-function phase).
pub fn build(m: &Module, pa: &PointerAnalysis) -> MemSsa {
    let modref = modref_summaries(m, pa);
    let mut out = MemSsa::default();
    for fid in m.funcs.indices() {
        if let Some(fs) = build_function_ssa(m, pa, fid, &modref) {
            out.funcs.insert(fid, fs);
        }
    }
    out
}

fn call_sites(m: &Module, f: FuncId) -> Vec<Site> {
    let mut out = Vec::new();
    for (bb, block) in m.funcs[f].blocks.iter_enumerated() {
        for (idx, inst) in block.insts.iter().enumerate() {
            if matches!(inst, Inst::Call { .. }) {
                out.push(Site::new(f, bb, idx));
            }
        }
    }
    out
}

/// A callee's own stack objects die with its frame and are not threaded
/// to callers.
fn visible_outside(m: &Module, callee: FuncId, l: Loc) -> bool {
    !matches!(m.objects[l.obj].kind, ObjKind::Stack(f) if f == callee)
}

fn build_function(
    m: &Module,
    pa: &PointerAnalysis,
    fid: FuncId,
    fc: &FuncCfg,
    mods: &IdxVec<FuncId, FxHashSet<Loc>>,
    refs: &IdxVec<FuncId, FxHashSet<Loc>>,
    budget: &Budget,
) -> Result<FuncMemSsa, Exhausted> {
    let func = &m.funcs[fid];
    let FuncCfg { cfg, dom: dt } = fc;
    let mut fs = FuncMemSsa {
        summary_in: refs[fid].union(&mods[fid]).copied().collect(),
        summary_out: mods[fid].clone(),
        ..Default::default()
    };

    // --- Which locations does this function version, and where are the
    // defs? (mu/chi placement decisions, before numbering.) A location is
    // named by its index in `versioned` from here on, so the renaming
    // walk indexes vectors instead of hashing locations.
    struct SiteEffects {
        idx: usize,
        mus: Vec<u32>,
        chis: Vec<u32>,
    }
    // Per block, in instruction order: the sites with a mu or a chi.
    let mut effects: IdxVec<BlockId, Vec<SiteEffects>> =
        func.blocks.iter().map(|_| Vec::new()).collect();
    let mut versioned: Vec<Loc> = Vec::new();
    let mut loc_idx: FxHashMap<Loc, u32> = FxHashMap::default();
    // Per versioned location: the blocks that define it.
    let mut def_blocks: Vec<Vec<BlockId>> = Vec::new();

    // Interns a location in discovery order.
    let mut note = |l: Loc| -> u32 {
        *loc_idx.entry(l).or_insert_with(|| {
            versioned.push(l);
            versioned.len() as u32 - 1
        })
    };

    for (bb, block) in func.blocks.iter_enumerated() {
        if !cfg.is_reachable(bb) {
            continue;
        }
        for (idx, inst) in block.insts.iter().enumerate() {
            budget.try_charge(1)?;
            let site = Site::new(fid, bb, idx);
            let (mus, chis): (Vec<Loc>, Vec<Loc>) = match inst {
                Inst::Load { addr, .. } => {
                    let mut locs = pa.pts_operand(fid, *addr);
                    locs.sort_unstable();
                    locs.dedup();
                    (locs, Vec::new())
                }
                Inst::Store { addr, .. } => {
                    let mut locs = pa.pts_operand(fid, *addr);
                    locs.sort_unstable();
                    locs.dedup();
                    (Vec::new(), locs)
                }
                Inst::Alloc { obj, .. } => (Vec::new(), pa.all_fields(*obj)),
                Inst::Call { callee, .. } => {
                    let mut mu_locs: FxHashSet<Loc> = FxHashSet::default();
                    let mut chi_locs: FxHashSet<Loc> = FxHashSet::default();
                    match callee {
                        Callee::External(ExtFunc::Free) => {
                            // free neither defines nor reads contents.
                        }
                        Callee::External(_) => {}
                        _ => {
                            for &g in pa.call_graph.callees_of(site) {
                                for &l in &refs[g] {
                                    if visible_outside(m, g, l) {
                                        mu_locs.insert(l);
                                    }
                                }
                                for &l in &mods[g] {
                                    if visible_outside(m, g, l) {
                                        chi_locs.insert(l);
                                    }
                                }
                            }
                        }
                    }
                    let mut mus: Vec<Loc> = mu_locs.into_iter().collect();
                    let mut chis: Vec<Loc> = chi_locs.into_iter().collect();
                    mus.sort_unstable();
                    chis.sort_unstable();
                    (mus, chis)
                }
                _ => continue,
            };
            if mus.is_empty() && chis.is_empty() {
                continue;
            }
            let mus: Vec<u32> = mus.into_iter().map(&mut note).collect();
            let chis: Vec<u32> = chis.into_iter().map(&mut note).collect();
            for &li in &chis {
                if def_blocks.len() <= li as usize {
                    def_blocks.resize_with(li as usize + 1, Vec::new);
                }
                def_blocks[li as usize].push(bb);
            }
            effects[bb].push(SiteEffects { idx, mus, chis });
        }
    }

    // --- Version numbering.
    let new_def = |fs: &mut FuncMemSsa, loc: Loc, kind: MemDefKind| -> MemVerId {
        let id = MemVerId(fs.defs.len() as u32);
        fs.defs.push(MemDef { loc, kind });
        id
    };

    // Formal-in versions for every versioned loc.
    let mut cur_entry: Vec<MemVerId> = Vec::with_capacity(versioned.len());
    for &l in &versioned {
        let v = new_def(&mut fs, l, MemDefKind::FormalIn);
        fs.formal_in.insert(l, v);
        cur_entry.push(v);
    }

    // Phi placement at iterated dominance frontiers; entry is a def block
    // for every loc (the formal-in). Iterate locs in discovery order, not
    // map order, so version numbering and per-block phi order are stable.
    // `phi_locs[bb]` lists the location index of each of `bb`'s phis.
    let mut phi_locs: IdxVec<BlockId, Vec<u32>> = func.blocks.iter().map(|_| Vec::new()).collect();
    let mut idf_scratch = IdfScratch::default();
    let mut frontier = Vec::new();
    for (li, blocks) in def_blocks.iter_mut().enumerate() {
        if blocks.is_empty() {
            continue;
        }
        let l = &versioned[li];
        blocks.push(func.entry);
        blocks.sort_unstable();
        blocks.dedup();
        dt.iterated_frontier(blocks, &mut idf_scratch, &mut frontier);
        for &bb in &frontier {
            let v = new_def(&mut fs, *l, MemDefKind::Phi(bb));
            fs.phis.entry(bb).or_default().push(RegionPhi {
                loc: *l,
                def: v,
                incomings: Vec::new(),
            });
            phi_locs[bb].push(li as u32);
        }
    }

    // The virtual outputs every return reports: the versioned locations
    // of the mod summary, in location order.
    let mut ret_locs: Vec<(Loc, u32)> = fs
        .summary_out
        .iter()
        .filter_map(|l| loc_idx.get(l).map(|&li| (*l, li)))
        .collect();
    ret_locs.sort_unstable();

    // --- Renaming over the dominator tree.
    let mut visited = vec![false; func.blocks.len()];
    let mut stack: Vec<(BlockId, Vec<MemVerId>)> = vec![(func.entry, cur_entry)];
    while let Some((bb, mut cur)) = stack.pop() {
        if visited[bb.index()] {
            continue;
        }
        visited[bb.index()] = true;
        budget.try_charge(1 + func.blocks[bb].insts.len() as u64)?;

        if let Some(phis) = fs.phis.get(&bb) {
            for (p, &li) in phis.iter().zip(&phi_locs[bb]) {
                cur[li as usize] = p.def;
            }
        }

        for e in &effects[bb] {
            let site = Site::new(fid, bb, e.idx);
            // mus first (they read the pre-state).
            if !e.mus.is_empty() {
                let mus: Vec<MuUse> = e
                    .mus
                    .iter()
                    .map(|&li| MuUse {
                        loc: versioned[li as usize],
                        def: cur[li as usize],
                    })
                    .collect();
                fs.mus.insert(site, mus);
            }
            if !e.chis.is_empty() {
                let kind = match func.blocks[bb].insts[e.idx] {
                    Inst::Alloc { .. } => MemDefKind::Alloc(site),
                    Inst::Store { .. } => MemDefKind::StoreChi(site),
                    Inst::Call { .. } => MemDefKind::CallChi(site),
                    _ => unreachable!("chi only on alloc/store/call"),
                };
                let mut chis = Vec::with_capacity(e.chis.len());
                for &li in &e.chis {
                    let loc = versioned[li as usize];
                    let old = cur[li as usize];
                    let new = new_def(&mut fs, loc, kind);
                    cur[li as usize] = new;
                    chis.push(ChiDef { loc, new, old });
                }
                fs.chis.insert(site, chis);
            }
        }

        // Virtual output parameters at returns.
        if let Terminator::Ret(_) = func.blocks[bb].term {
            let outs: Vec<MuUse> = ret_locs
                .iter()
                .map(|&(loc, li)| MuUse {
                    loc,
                    def: cur[li as usize],
                })
                .collect();
            fs.ret_mus.insert(bb, outs);
        }

        // Fill successor phis.
        for &succ in &cfg.succs[bb] {
            if let Some(phis) = fs.phis.get_mut(&succ) {
                for (p, &li) in phis.iter_mut().zip(&phi_locs[succ]) {
                    p.incomings.push((bb, cur[li as usize]));
                }
            }
        }

        for &c in dt.children[bb].iter().rev() {
            stack.push((c, cur.clone()));
        }
    }

    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_frontend::compile_o0im;
    use usher_pointer::analyze;

    fn memssa_for(src: &str) -> (Module, PointerAnalysis, MemSsa) {
        let m = compile_o0im(src).expect("compiles");
        let pa = analyze(&m);
        let ms = build(&m, &pa);
        (m, pa, ms)
    }

    #[test]
    fn load_gets_mu_store_gets_chi() {
        let (m, _pa, ms) = memssa_for(
            "int g;
             def main() -> int { g = 3; return g; }",
        );
        let fid = m.main.unwrap();
        let fs = &ms.funcs[&fid];
        assert_eq!(fs.chis.len(), 1, "one store chi");
        assert_eq!(fs.mus.len(), 1, "one load mu");
        let chi = fs.chis.values().next().unwrap();
        let mu = fs.mus.values().next().unwrap();
        assert_eq!(chi[0].loc, mu[0].loc);
        // The load's reaching def is the store's chi.
        assert_eq!(mu[0].def, chi[0].new);
    }

    #[test]
    fn loop_induces_region_phi() {
        let (m, _pa, ms) = memssa_for(
            "int g;
             def main() {
                 int i = 0;
                 while (i < 4) { g = g + i; i = i + 1; }
                 print(g);
             }",
        );
        let fid = m.main.unwrap();
        let fs = &ms.funcs[&fid];
        let total_phis: usize = fs.phis.values().map(Vec::len).sum();
        assert!(total_phis >= 1, "loop-carried memory needs a region phi");
        // Every phi has one incoming per predecessor (2 for a loop header).
        for phis in fs.phis.values() {
            for p in phis {
                assert_eq!(p.incomings.len(), 2, "{p:?}");
            }
        }
    }

    #[test]
    fn call_site_gets_callee_effects() {
        let (m, _pa, ms) = memssa_for(
            "int g;
             def bump() { g = g + 1; }
             def main() { bump(); print(g); }",
        );
        let main = m.main.unwrap();
        let fs = &ms.funcs[&main];
        // The call to bump must carry both a mu (bump reads g) and a chi
        // (bump writes g).
        let call_chis: Vec<_> = fs
            .chis
            .iter()
            .filter(|(_, cs)| {
                cs.iter()
                    .any(|c| matches!(fs.def(c.new).kind, MemDefKind::CallChi(_)))
            })
            .collect();
        assert_eq!(call_chis.len(), 1);
        let call_mus: Vec<_> = fs.mus.iter().collect();
        assert!(!call_mus.is_empty());
        // bump's own summary includes g on both sides.
        let bump = m.func_by_name("bump").unwrap();
        let bs = &ms.funcs[&bump];
        assert_eq!(bs.summary_out.len(), 1);
        assert!(!bs.summary_in.is_empty());
        // bump's ret carries the final version of g.
        assert_eq!(bs.ret_mus.len(), 1);
        assert_eq!(bs.ret_mus.values().next().unwrap().len(), 1);
    }

    #[test]
    fn callee_stack_objects_stay_private() {
        let (m, _pa, ms) = memssa_for(
            "def helper() -> int { int x; int *p = &x; *p = 5; return *p; }
             def main() { print(helper()); }",
        );
        let main = m.main.unwrap();
        let fs = &ms.funcs[&main];
        // helper's local x must not appear in main's call-site chis.
        for chis in fs.chis.values() {
            for c in chis {
                assert!(
                    !matches!(m.objects[c.loc.obj].kind, ObjKind::Stack(f) if f != main),
                    "foreign stack object leaked into main: {c:?}"
                );
            }
        }
    }

    #[test]
    fn alloc_defines_every_field_class() {
        let (m, _pa, ms) = memssa_for(
            "struct P { int x; int y; };
             def main() { struct P *p; p = malloc(1); p->x = 1; p->y = 2; print(p->x + p->y); }",
        );
        let fid = m.main.unwrap();
        let fs = &ms.funcs[&fid];
        // Find the alloc chi (malloc was inlined/unchanged; kind Alloc).
        let alloc_chis: Vec<_> = fs
            .chis
            .values()
            .flatten()
            .filter(|c| matches!(fs.def(c.new).kind, MemDefKind::Alloc(_)))
            .collect();
        // Struct P has two field classes; both get a chi at the heap alloc.
        let heap_chis: Vec<_> = alloc_chis
            .iter()
            .filter(|c| matches!(m.objects[c.loc.obj].kind, ObjKind::Heap(_)))
            .collect();
        assert_eq!(heap_chis.len(), 2, "{alloc_chis:?}");
    }

    #[test]
    fn store_through_unknown_pointer_weakly_updates_all_targets() {
        let (m, _pa, ms) = memssa_for(
            "int a; int b;
             def main(int c) {
                 int *p;
                 if (c) { p = &a; } else { p = &b; }
                 *p = 7;
                 print(a);
             }",
        );
        let fid = m.main.unwrap();
        let fs = &ms.funcs[&fid];
        // The store *p = 7 must chi both a and b.
        let store_chis: Vec<_> = fs
            .chis
            .values()
            .filter(|cs| {
                cs.iter()
                    .any(|c| matches!(fs.def(c.new).kind, MemDefKind::StoreChi(_)))
            })
            .collect();
        assert_eq!(store_chis.len(), 1);
        assert_eq!(store_chis[0].len(), 2, "{store_chis:?}");
    }

    #[test]
    fn mu_reaching_def_is_formal_in_when_unwritten() {
        let (m, _pa, ms) = memssa_for(
            "int g;
             def reader() -> int { return g; }
             def main() { print(reader()); }",
        );
        let reader = m.func_by_name("reader").unwrap();
        let fs = &ms.funcs[&reader];
        let mu = fs.mus.values().next().unwrap();
        assert!(matches!(fs.def(mu[0].def).kind, MemDefKind::FormalIn));
    }
}
