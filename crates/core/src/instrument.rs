//! Instrumentation planning — the guided rules of Figure 7 plus the
//! full-instrumentation baseline (the MSan stand-in).
//!
//! A [`Plan`] attaches shadow operations before/after statement sites (and
//! at function entries). The runtime executes them alongside the program:
//! shadow registers live per frame, shadow memory per allocated cell, and
//! both **default to defined** — so the paper's `sigma(x) := T` strong
//! updates at `Top` nodes are realized by the defaults, and only `Bot`
//! (possibly-undefined) value flow needs explicit operations. Guided
//! planning is demand-driven from the runtime checks, exactly as the `Σ`
//! deduction rules propagate from `[Bot-Check]`.

use std::collections::{HashMap, HashSet};

use usher_ir::{
    Callee, ExtFunc, FuncId, GepOffset, Inst, Module, ObjId, Operand, Site, Terminator, VarId,
};
use usher_pointer::PointerAnalysis;
use usher_vfg::{CheckKind, EdgeKind, MemDefKind, MemSsa, NodeKind, Vfg};

use crate::mfc::{mfc, MfcScratch};
use crate::resolve::Gamma;

/// Where a shadow operation reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShadowSrc {
    /// The shadow register of a top-level variable.
    Tl(VarId),
    /// A constant definedness (operand was a literal/global/`undef`).
    Const(bool),
}

/// Converts an operand into its shadow source.
pub fn shadow_src(op: Operand) -> ShadowSrc {
    match op {
        Operand::Var(v) => ShadowSrc::Tl(v),
        Operand::Undef => ShadowSrc::Const(false),
        Operand::Const(_) | Operand::Global(_) | Operand::Func(_) => ShadowSrc::Const(true),
    }
}

/// One shadow operation. Field meanings follow the variant docs.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ShadowOp {
    /// `sigma(dst) := defined` (strong update to a register shadow).
    SetTl { dst: VarId, defined: bool },
    /// `sigma(dst) := sigma(src)`.
    CopyTl { dst: VarId, src: ShadowSrc },
    /// `sigma(dst) := sigma(s1) AND sigma(s2) AND ...`.
    AndTl { dst: VarId, srcs: Vec<ShadowSrc> },
    /// `sigma(dst) := sigma(*addr)` (shadow-memory read).
    LoadSh { dst: VarId, addr: Operand },
    /// `sigma(*addr) := sigma(src)` (shadow-memory write).
    StoreSh { addr: Operand, src: ShadowSrc },
    /// Initialize the shadow of one field class of a freshly allocated
    /// object (`sigma(*x) := T/F` of the `[*-Alloc]` rules). `class` is
    /// the class representative cell; `count` the dynamic element count.
    SetMemClass {
        addr: Operand,
        obj: ObjId,
        class: u32,
        defined: bool,
        count: Option<Operand>,
    },
    /// `sigma_g[index] := sigma(src)` (caller side of `[Bot-Para]`).
    ArgSh { index: usize, src: ShadowSrc },
    /// `sigma(dst) := sigma_g[index]` (callee side of `[Bot-Para]`).
    ParamSh { dst: VarId, index: usize },
    /// `sigma_ret := sigma(src)` (callee side of `[Bot-Ret]`).
    RetSh { src: ShadowSrc },
    /// `sigma(dst) := sigma_ret` (caller side of `[Bot-Ret]`).
    RetResultSh { dst: VarId },
    /// Bit-precise shadow of a binary operation (Memcheck-style, used in
    /// bit-level mode): the runtime combines the operand *values* and
    /// poison masks per operator.
    BinSh {
        dst: VarId,
        op: usher_ir::BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Bit-precise shadow of a unary operation (bit-level mode).
    UnSh {
        dst: VarId,
        op: usher_ir::UnOp,
        src: Operand,
    },
    /// `E(l) := (sigma(op) == F)` — a runtime check at a critical
    /// operation.
    Check { op: Operand, kind: CheckKind },
}

impl ShadowOp {
    /// Number of shadow-variable reads this operation performs (the
    /// paper's Figure 11 "shadow propagations" metric).
    pub fn propagation_reads(&self) -> usize {
        let src_reads = |s: &ShadowSrc| usize::from(matches!(s, ShadowSrc::Tl(_)));
        match self {
            ShadowOp::SetTl { .. } | ShadowOp::SetMemClass { .. } => 0,
            ShadowOp::CopyTl { src, .. }
            | ShadowOp::StoreSh { src, .. }
            | ShadowOp::ArgSh { src, .. }
            | ShadowOp::RetSh { src } => src_reads(src),
            ShadowOp::AndTl { srcs, .. } => srcs.iter().map(src_reads).sum(),
            ShadowOp::BinSh { lhs, rhs, .. } => {
                usize::from(matches!(lhs, Operand::Var(_)))
                    + usize::from(matches!(rhs, Operand::Var(_)))
            }
            ShadowOp::UnSh { src, .. } => usize::from(matches!(src, Operand::Var(_))),
            ShadowOp::LoadSh { .. } | ShadowOp::ParamSh { .. } | ShadowOp::RetResultSh { .. } => 1,
            ShadowOp::Check { .. } => 0,
        }
    }

    /// Copies into this op, planned at `inst`'s site, the operands the
    /// planner takes verbatim from that instruction: an allocation's
    /// `count`, a load's or store's `addr`, and the operands of a
    /// bit-level unary or binary op. Every other operand field is a
    /// [`ShadowSrc`], a destination, or a checked operand, and none of
    /// those depends on a constant's value: [`shadow_src`] maps every
    /// constant to `Const(true)`, and checks guard only variables and
    /// `undef`. So after an edit that changes only constants, rebinding
    /// each op of the edited function's sites yields the plan a fresh
    /// [`guided_plan`] builds.
    pub fn rebind(&mut self, inst: &Inst) {
        match (self, inst) {
            (ShadowOp::SetMemClass { count, .. }, Inst::Alloc { count: c, .. }) => *count = *c,
            (ShadowOp::LoadSh { addr, .. }, Inst::Load { addr: a, .. })
            | (ShadowOp::StoreSh { addr, .. }, Inst::Store { addr: a, .. }) => *addr = *a,
            (ShadowOp::BinSh { lhs, rhs, .. }, Inst::Bin { lhs: l, rhs: r, .. }) => {
                *lhs = *l;
                *rhs = *r;
            }
            (ShadowOp::UnSh { src, .. }, Inst::Un { src: s, .. }) => *src = *s,
            _ => {}
        }
    }
}

/// Static instrumentation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PlanStats {
    /// Static count of shadow-variable reads (Figure 11, left).
    pub propagations: usize,
    /// Static count of runtime checks (Figure 11, right).
    pub checks: usize,
    /// Total shadow operations.
    pub ops: usize,
    /// Tracked phis.
    pub phis: usize,
    /// MFCs simplified by Opt I (Table 1 column `S`).
    pub mfcs_simplified: usize,
}

/// How a function's instrumentation was planned. Degradation
/// observability: the driver reports how many functions kept their
/// guided plan versus fell back to full instrumentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanProvenance {
    /// Full MSan-style instrumentation by configuration.
    Full,
    /// Usher-guided instrumentation.
    Guided,
    /// Full instrumentation substituted for a guided plan because the
    /// analysis budget ran out (or a stage failed) for this function.
    FallbackFull,
}

/// A complete instrumentation plan for a module.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Ops to run before a site executes.
    pub before: HashMap<Site, Vec<ShadowOp>>,
    /// Ops to run after a site executes.
    pub after: HashMap<Site, Vec<ShadowOp>>,
    /// Ops to run on function entry.
    pub entry: HashMap<FuncId, Vec<ShadowOp>>,
    /// Phis whose shadow must follow the selected incoming at runtime.
    pub tracked_phis: HashSet<(FuncId, VarId)>,
    /// Static statistics.
    pub stats: PlanStats,
    /// Configuration label (for reports).
    pub name: String,
    /// Per-function provenance (absent for bare fragments; plan
    /// fingerprints deliberately exclude it).
    pub provenance: HashMap<FuncId, PlanProvenance>,
}

impl Plan {
    fn push_before(&mut self, site: Site, op: ShadowOp) {
        self.before.entry(site).or_default().push(op);
    }

    fn push_after(&mut self, site: Site, op: ShadowOp) {
        self.after.entry(site).or_default().push(op);
    }

    /// Recomputes `stats` from the recorded operations.
    pub fn finalize_stats(&mut self) {
        let mut s = PlanStats {
            mfcs_simplified: self.stats.mfcs_simplified,
            ..Default::default()
        };
        for ops in self
            .before
            .values()
            .chain(self.after.values())
            .chain(self.entry.values())
        {
            for op in ops {
                s.ops += 1;
                s.propagations += op.propagation_reads();
                if matches!(op, ShadowOp::Check { .. }) {
                    s.checks += 1;
                }
            }
        }
        s.phis = self.tracked_phis.len();
        s.propagations += s.phis; // each tracked phi reads one incoming shadow
        self.stats = s;
    }

    /// Merges another plan fragment into this one. Fragments planned for
    /// distinct functions touch disjoint sites, so per-function planning
    /// (e.g. [`full_plan_func`]) can run in parallel and be absorbed in
    /// any order; call [`Plan::finalize_stats`] once after the last merge.
    pub fn absorb(&mut self, other: Plan) {
        for (site, ops) in other.before {
            self.before.entry(site).or_default().extend(ops);
        }
        for (site, ops) in other.after {
            self.after.entry(site).or_default().extend(ops);
        }
        for (fid, ops) in other.entry {
            self.entry.entry(fid).or_default().extend(ops);
        }
        self.tracked_phis.extend(other.tracked_phis);
        self.stats.mfcs_simplified += other.stats.mfcs_simplified;
        self.provenance.extend(other.provenance);
    }

    /// How many functions carry each provenance, as
    /// `(full, guided, fallback_full)`.
    pub fn provenance_counts(&self) -> (usize, usize, usize) {
        let mut full = 0;
        let mut guided = 0;
        let mut fallback = 0;
        for p in self.provenance.values() {
            match p {
                PlanProvenance::Full => full += 1,
                PlanProvenance::Guided => guided += 1,
                PlanProvenance::FallbackFull => fallback += 1,
            }
        }
        (full, guided, fallback)
    }
}

/// Builds the full-instrumentation baseline (MSan): every value shadowed,
/// every statement shadow-executed, every critical operation checked.
pub fn full_plan(m: &Module) -> Plan {
    full_plan_with(m, false)
}

/// [`full_plan`] with optional bit-level precision.
pub fn full_plan_with(m: &Module, bit_level: bool) -> Plan {
    let mut p = Plan {
        name: "MSan (full)".into(),
        ..Default::default()
    };
    for fid in m.funcs.indices() {
        p.absorb(full_plan_func(m, fid, bit_level));
    }
    p.finalize_stats();
    p
}

/// Marks every function of `m` with the given provenance (the driver
/// uses this to stamp whole-module fallback plans).
pub fn stamp_provenance(p: &mut Plan, m: &Module, prov: PlanProvenance) {
    for fid in m.funcs.indices() {
        p.provenance.insert(fid, prov);
    }
}

/// Plans full instrumentation for a single function, as an unnamed plan
/// fragment with unfinalized stats. Functions are instrumented
/// independently, so the driver fans this out across worker threads and
/// [`Plan::absorb`]s the fragments.
pub fn full_plan_func(m: &Module, fid: FuncId, bit_level: bool) -> Plan {
    let mut p = Plan::default();
    p.provenance.insert(fid, PlanProvenance::Full);
    let func = &m.funcs[fid];
    // Callee side of parameter passing.
    for (i, param) in func.params.iter().enumerate() {
        p.entry.entry(fid).or_default().push(ShadowOp::ParamSh {
            dst: *param,
            index: i,
        });
    }
    for (bb, block) in func.blocks.iter_enumerated() {
        for (idx, inst) in block.insts.iter().enumerate() {
            let site = Site::new(fid, bb, idx);
            full_inst(m, &mut p, site, inst, bit_level);
        }
        let term_site = Site::new(fid, bb, block.insts.len());
        match &block.term {
            Terminator::Br { cond, .. } => {
                if matches!(cond, Operand::Var(_) | Operand::Undef) {
                    p.push_before(
                        term_site,
                        ShadowOp::Check {
                            op: *cond,
                            kind: CheckKind::BranchCond,
                        },
                    );
                }
            }
            Terminator::Ret(Some(op)) => {
                p.push_before(
                    term_site,
                    ShadowOp::RetSh {
                        src: shadow_src(*op),
                    },
                );
            }
            _ => {}
        }
    }
    p
}

fn full_inst(m: &Module, p: &mut Plan, site: Site, inst: &Inst, bit_level: bool) {
    match inst {
        Inst::Copy { dst, src } => {
            p.push_after(
                site,
                ShadowOp::CopyTl {
                    dst: *dst,
                    src: shadow_src(*src),
                },
            );
        }
        Inst::Un { dst, op, src } => {
            if bit_level {
                p.push_after(
                    site,
                    ShadowOp::UnSh {
                        dst: *dst,
                        op: *op,
                        src: *src,
                    },
                );
            } else {
                p.push_after(
                    site,
                    ShadowOp::CopyTl {
                        dst: *dst,
                        src: shadow_src(*src),
                    },
                );
            }
        }
        Inst::Bin { dst, op, lhs, rhs } => {
            if bit_level {
                p.push_after(
                    site,
                    ShadowOp::BinSh {
                        dst: *dst,
                        op: *op,
                        lhs: *lhs,
                        rhs: *rhs,
                    },
                );
            } else {
                p.push_after(
                    site,
                    ShadowOp::AndTl {
                        dst: *dst,
                        srcs: vec![shadow_src(*lhs), shadow_src(*rhs)],
                    },
                );
            }
        }
        Inst::Gep { dst, base, offset } => {
            let mut srcs = vec![shadow_src(*base)];
            if let GepOffset::Index { index, .. } = offset {
                srcs.push(shadow_src(*index));
            }
            p.push_after(site, ShadowOp::AndTl { dst: *dst, srcs });
        }
        Inst::Alloc { dst, obj, count } => {
            // Poison (or bless) the whole fresh object; `u32::MAX` is the
            // all-classes sentinel.
            p.push_after(
                site,
                ShadowOp::SetMemClass {
                    addr: Operand::Var(*dst),
                    obj: *obj,
                    class: u32::MAX,
                    defined: m.objects[*obj].zero_init,
                    count: *count,
                },
            );
        }
        Inst::Load { dst, addr } => {
            if matches!(addr, Operand::Var(_) | Operand::Undef) {
                p.push_before(
                    site,
                    ShadowOp::Check {
                        op: *addr,
                        kind: CheckKind::LoadAddr,
                    },
                );
            }
            p.push_after(
                site,
                ShadowOp::LoadSh {
                    dst: *dst,
                    addr: *addr,
                },
            );
        }
        Inst::Store { addr, val } => {
            if matches!(addr, Operand::Var(_) | Operand::Undef) {
                p.push_before(
                    site,
                    ShadowOp::Check {
                        op: *addr,
                        kind: CheckKind::StoreAddr,
                    },
                );
            }
            p.push_after(
                site,
                ShadowOp::StoreSh {
                    addr: *addr,
                    src: shadow_src(*val),
                },
            );
        }
        Inst::Call { dst, callee, args } => match callee {
            Callee::External(ext) => {
                if let (Some(d), ExtFunc::InputInt) = (dst, ext) {
                    p.push_after(
                        site,
                        ShadowOp::SetTl {
                            dst: *d,
                            defined: true,
                        },
                    );
                }
            }
            Callee::Direct(_) | Callee::Indirect(_) => {
                if let Callee::Indirect(t) = callee {
                    if matches!(t, Operand::Var(_) | Operand::Undef) {
                        p.push_before(
                            site,
                            ShadowOp::Check {
                                op: *t,
                                kind: CheckKind::CallTarget,
                            },
                        );
                    }
                }
                for (i, a) in args.iter().enumerate() {
                    p.push_before(
                        site,
                        ShadowOp::ArgSh {
                            index: i,
                            src: shadow_src(*a),
                        },
                    );
                }
                if let Some(d) = dst {
                    p.push_after(site, ShadowOp::RetResultSh { dst: *d });
                }
            }
        },
        Inst::Phi { dst, .. } => {
            p.tracked_phis.insert((site.func, *dst));
        }
    }
}

/// Options for guided planning.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuidedOpts {
    /// Apply Opt I (value-flow simplification over MFCs).
    pub opt1: bool,
    /// Keep full MSan-style memory instrumentation (allocation poisoning
    /// and store propagation). Required by `Usher_TL`, which does not
    /// track address-taken variables statically and must therefore
    /// maintain shadow memory everywhere, like MSan.
    pub full_memory: bool,
    /// Bit-level precision (Section 4.1): per-bit poison masks with
    /// Memcheck-style propagation for bitwise operations, and no MFC
    /// folding through bitwise operators.
    pub bit_level: bool,
}

/// Builds the Usher-guided plan from a resolved `Gamma` (Section 3.4; use
/// a `Gamma` from Opt II's modified graph to also apply Opt II).
pub fn guided_plan(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    vfg: &Vfg,
    gamma: &Gamma,
    opts: GuidedOpts,
    name: impl Into<String>,
) -> Plan {
    guided_plan_with_fallback(m, pa, ms, vfg, gamma, opts, &HashSet::new(), name)
}

/// Builds a mixed plan: Usher-guided instrumentation everywhere except
/// the functions in `fallback`, which get the always-sound full (MSan)
/// fragment instead. The driver uses this for per-function degradation
/// when the analysis budget runs out before `Gamma` covers the whole
/// module.
///
/// Soundness across the guided/full boundary: top-level SSA registers
/// are function-local, so all cross-function top-level coupling flows
/// through the `sigma_g` argument slots and `sigma_ret`:
///
/// * a call from a *guided* function into a fallback callee writes every
///   argument slot (the full fragment's `ParamSh` reads them all);
/// * a call from a *fallback* function into a guided callee needs the
///   callee to write `sigma_ret` at every return (the full fragment's
///   `RetResultSh` reads it) with the returned value's shadow chain
///   maintained;
/// * memory couples through the shared shadow memory, so `full_memory`
///   is forced on whenever any function degrades (the full fragments
///   load from and store to shadow cells everywhere — exactly the
///   `Usher_TL` coupling argument).
///
/// With an empty `fallback` set this is byte-identical to a pure guided
/// plan.
#[allow(clippy::too_many_arguments)]
pub fn guided_plan_with_fallback(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    vfg: &Vfg,
    gamma: &Gamma,
    opts: GuidedOpts,
    fallback: &HashSet<FuncId>,
    name: impl Into<String>,
) -> Plan {
    let mut opts = opts;
    if !fallback.is_empty() {
        opts.full_memory = true;
    }
    let mut p = Plan {
        name: name.into(),
        ..Default::default()
    };
    let mut g = Generator {
        m,
        pa,
        ms,
        vfg,
        gamma,
        opts,
        fallback,
        plan: &mut p,
        processed: HashSet::new(),
        store_sh_sites: HashSet::new(),
        ret_sh_sites: HashSet::new(),
        arg_sh_done: HashSet::new(),
        top_mem_done: HashSet::new(),
        work: Vec::new(),
        mfc_scratch: MfcScratch::default(),
    };

    if opts.full_memory {
        g.instrument_all_memory();
    }

    // [Bot-Check]: demand every possibly-undefined checked value. Checks
    // inside fallback functions come from their full fragments instead.
    for check in &vfg.checks {
        if fallback.contains(&check.site.func) {
            continue;
        }
        if !gamma.is_bot(check.node) {
            continue; // [Top-Check]
        }
        g.plan.push_before(
            check.site,
            ShadowOp::Check {
                op: check.operand,
                kind: check.kind,
            },
        );
        if let Operand::Var(v) = check.operand {
            if let Some(n) = vfg.tl(check.site.func, v) {
                g.demand(n);
            }
        }
    }

    // Boundary patches at every call crossing the guided/full divide.
    if !fallback.is_empty() {
        for (fid, func) in m.funcs.iter_enumerated() {
            let caller_degraded = fallback.contains(&fid);
            for (bb, block) in func.blocks.iter_enumerated() {
                for (idx, inst) in block.insts.iter().enumerate() {
                    let Inst::Call { callee, args, .. } = inst else {
                        continue;
                    };
                    if matches!(callee, Callee::External(_)) {
                        continue;
                    }
                    let site = Site::new(fid, bb, idx);
                    let callees = pa.call_graph.callees_of(site);
                    if caller_degraded {
                        // The full fragment's RetResultSh here reads
                        // sigma_ret: every guided callee must write it,
                        // with the returned value's shadow maintained.
                        for &gc in callees {
                            if fallback.contains(&gc) {
                                continue;
                            }
                            g.emit_ret_shadows(gc);
                            for b2 in m.funcs[gc].blocks.iter() {
                                if let Terminator::Ret(Some(Operand::Var(v))) = b2.term {
                                    if let Some(n) = vfg.tl(gc, v) {
                                        g.demand(n);
                                    }
                                }
                            }
                        }
                    } else if callees.iter().any(|gc| fallback.contains(gc)) {
                        // A fallback callee's full fragment reads every
                        // sigma_g slot at entry: write them all here.
                        for (i, a) in args.iter().enumerate() {
                            if g.arg_sh_done.insert((site, i)) {
                                g.plan.push_before(
                                    site,
                                    ShadowOp::ArgSh {
                                        index: i,
                                        src: shadow_src(*a),
                                    },
                                );
                            }
                            if let Operand::Var(v) = a {
                                if let Some(n) = vfg.tl(fid, *v) {
                                    g.demand(n);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    g.run();

    // Substitute the full fragment for every degraded function, in
    // sorted order so the emitted op order is deterministic.
    let mut degraded: Vec<FuncId> = fallback.iter().copied().collect();
    degraded.sort_unstable();
    let bit_level = opts.bit_level;
    for fid in degraded {
        p.absorb(full_plan_func(m, fid, bit_level));
    }
    for fid in m.funcs.indices() {
        let prov = if fallback.contains(&fid) {
            PlanProvenance::FallbackFull
        } else {
            PlanProvenance::Guided
        };
        p.provenance.insert(fid, prov);
    }

    p.finalize_stats();
    p
}

struct Generator<'a> {
    m: &'a Module,
    pa: &'a PointerAnalysis,
    ms: &'a MemSsa,
    vfg: &'a Vfg,
    gamma: &'a Gamma,
    opts: GuidedOpts,
    /// Functions degraded to their full fragment: the guided generator
    /// must neither emit into them nor demand their nodes (the full
    /// fragment already maintains every shadow there).
    fallback: &'a HashSet<FuncId>,
    plan: &'a mut Plan,
    processed: HashSet<u32>,
    store_sh_sites: HashSet<Site>,
    ret_sh_sites: HashSet<Site>,
    arg_sh_done: HashSet<(Site, usize)>,
    top_mem_done: HashSet<u32>,
    work: Vec<u32>,
    mfc_scratch: MfcScratch,
}

impl<'a> Generator<'a> {
    /// `Usher_TL` memory handling: poison every allocation and propagate
    /// every store, demanding the stored top-level values so their shadow
    /// chains are maintained.
    fn instrument_all_memory(&mut self) {
        for (fid, func) in self.m.funcs.iter_enumerated() {
            if self.fallback.contains(&fid) {
                // The full fragment already poisons allocations and
                // propagates stores in degraded functions.
                continue;
            }
            for (bb, block) in func.blocks.iter_enumerated() {
                for (idx, inst) in block.insts.iter().enumerate() {
                    let site = Site::new(fid, bb, idx);
                    match inst {
                        Inst::Alloc { dst, obj, count } => {
                            self.plan.push_after(
                                site,
                                ShadowOp::SetMemClass {
                                    addr: Operand::Var(*dst),
                                    obj: *obj,
                                    class: u32::MAX,
                                    defined: self.m.objects[*obj].zero_init,
                                    count: *count,
                                },
                            );
                        }
                        Inst::Store { addr, val } => {
                            if self.store_sh_sites.insert(site) {
                                self.plan.push_after(
                                    site,
                                    ShadowOp::StoreSh {
                                        addr: *addr,
                                        src: shadow_src(*val),
                                    },
                                );
                            }
                            if let Operand::Var(v) = val {
                                if let Some(n) = self.vfg.tl(fid, *v) {
                                    self.demand(n);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Demands the shadow of a node: if it may be undefined, its defining
    /// statement is instrumented and its dependencies demanded in turn.
    /// `Top` nodes need nothing — register and memory shadows default to
    /// defined, which realizes the `[Top-*]` strong updates.
    fn demand(&mut self, node: u32) {
        if !self.gamma.is_bot(node) {
            return;
        }
        if self.in_fallback(node) {
            // The node's function is degraded to full instrumentation:
            // its full fragment maintains every shadow in it.
            return;
        }
        if self.processed.insert(node) {
            self.work.push(node);
        }
    }

    /// The function a node belongs to, when it has one (roots don't).
    fn node_func(&self, node: u32) -> Option<FuncId> {
        match self.vfg.nodes[node as usize] {
            NodeKind::Tl(f, _) | NodeKind::Mem(f, _) => Some(f),
            NodeKind::Check(site) => Some(site.func),
            NodeKind::RootT | NodeKind::RootF => None,
        }
    }

    fn in_fallback(&self, node: u32) -> bool {
        !self.fallback.is_empty()
            && self
                .node_func(node)
                .is_some_and(|f| self.fallback.contains(&f))
    }

    fn run(&mut self) {
        while let Some(node) = self.work.pop() {
            self.process(node);
        }
    }

    fn demand_deps(&mut self, node: u32) {
        let deps: Vec<u32> = self.vfg.deps.edges(node).map(|(d, _)| d).collect();
        for d in deps {
            if self.in_fallback(d) {
                // Neither demand nor materialize into a degraded
                // function: its full fragment emits the real StoreSh at
                // every store (a Const(true) materialization there would
                // fight it and mask detections).
                continue;
            }
            if !self.gamma.is_bot(d) && matches!(self.vfg.nodes[d as usize], NodeKind::Mem(..)) {
                // A Top *register* needs nothing — register shadows
                // default to defined. A Top *memory* version does: the
                // runtime cell may carry stale poison from a Bot path
                // (e.g. the poisoning allocation), so the strong updates
                // that make the region Top must still execute.
                self.materialize_top_mem(d);
            } else {
                self.demand(d);
            }
        }
    }

    /// Realizes the `[Top-Store]` strong updates of a statically-defined
    /// memory region that flows into a Bot consumer: gamma proves every
    /// value stored here is defined, so each store writes the constant
    /// `defined` shadow — but the write itself cannot be skipped, or the
    /// cell would keep whatever poison an earlier Bot definition left and
    /// surface it as a spurious detection at the consumer's check.
    fn materialize_top_mem(&mut self, node: u32) {
        if !self.top_mem_done.insert(node) {
            return;
        }
        let NodeKind::Mem(f, ver) = self.vfg.nodes[node as usize] else {
            return;
        };
        let Some(fs) = self.ms.funcs.get(&f) else {
            return;
        };
        let def = fs.def(ver);
        match def.kind {
            MemDefKind::StoreChi(site) => {
                if self.store_sh_sites.insert(site) {
                    let inst = self.m.funcs[f].blocks[site.block].insts[site.idx].clone();
                    let Inst::Store { addr, .. } = inst else {
                        return;
                    };
                    self.plan.push_after(
                        site,
                        ShadowOp::StoreSh {
                            addr,
                            src: ShadowSrc::Const(true),
                        },
                    );
                }
                // A weak store lets the other cells of the class flow
                // through from the previous version, which (being part of
                // a Top state) must be materialized as well.
                self.demand_deps(node);
            }
            MemDefKind::Alloc(_) => {
                // A Top allocation is zero-initialized; runtime shadow
                // memory defaults to defined, so nothing to execute.
            }
            MemDefKind::FormalIn | MemDefKind::Phi(_) | MemDefKind::CallChi(_) => {
                // Merge/boundary nodes execute nothing themselves; every
                // path into them must be materialized (Bot paths through
                // the normal demand machinery).
                self.demand_deps(node);
            }
        }
    }

    fn process(&mut self, node: u32) {
        match self.vfg.nodes[node as usize] {
            NodeKind::RootT | NodeKind::RootF | NodeKind::Check(_) => {}
            NodeKind::Tl(f, v) => self.process_tl(node, f, v),
            NodeKind::Mem(f, ver) => self.process_mem(node, f, ver),
        }
    }

    fn process_tl(&mut self, node: u32, f: FuncId, v: VarId) {
        let func = &self.m.funcs[f];
        if func.params.contains(&v) {
            // [Bot-Para]: callee entry reads sigma_g; every call site
            // writes it from the actual's shadow.
            let index = func
                .params
                .iter()
                .position(|p| *p == v)
                .expect("checked above");
            self.plan
                .entry
                .entry(f)
                .or_default()
                .push(ShadowOp::ParamSh { dst: v, index });
            let deps: Vec<(u32, EdgeKind)> = self.vfg.deps.edges(node).collect();
            for (dep, kind) in deps {
                if let EdgeKind::Call(cs) = kind {
                    if self.fallback.contains(&cs.func) {
                        // The caller is degraded: its full fragment
                        // already writes every sigma_g slot at this site.
                        continue;
                    }
                    if self.arg_sh_done.insert((cs, index)) {
                        let src = match self.vfg.nodes[dep as usize] {
                            NodeKind::Tl(_, av) => ShadowSrc::Tl(av),
                            NodeKind::RootF => ShadowSrc::Const(false),
                            _ => ShadowSrc::Const(true),
                        };
                        self.plan.push_before(cs, ShadowOp::ArgSh { index, src });
                    }
                    self.demand(dep);
                }
            }
            return;
        }

        let Some(site) = self.vfg.def_site[node as usize] else {
            // No defining statement (should not happen for non-params).
            return;
        };
        let inst = self.m.funcs[f].blocks[site.block]
            .insts
            .get(site.idx)
            .cloned();
        let Some(inst) = inst else { return };
        match inst {
            Inst::Copy { dst, src } => {
                if self.try_opt1(node, dst, site) {
                    return;
                }
                self.plan.push_after(
                    site,
                    ShadowOp::CopyTl {
                        dst,
                        src: shadow_src(src),
                    },
                );
                self.demand_deps(node);
            }
            Inst::Un { dst, op, src } => {
                if self.try_opt1(node, dst, site) {
                    return;
                }
                if self.opts.bit_level {
                    self.plan.push_after(site, ShadowOp::UnSh { dst, op, src });
                } else {
                    self.plan.push_after(
                        site,
                        ShadowOp::CopyTl {
                            dst,
                            src: shadow_src(src),
                        },
                    );
                }
                self.demand_deps(node);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                if self.try_opt1(node, dst, site) {
                    return;
                }
                if self.opts.bit_level {
                    self.plan
                        .push_after(site, ShadowOp::BinSh { dst, op, lhs, rhs });
                } else {
                    self.plan.push_after(
                        site,
                        ShadowOp::AndTl {
                            dst,
                            srcs: vec![shadow_src(lhs), shadow_src(rhs)],
                        },
                    );
                }
                self.demand_deps(node);
            }
            Inst::Gep { dst, base, offset } => {
                if self.try_opt1(node, dst, site) {
                    return;
                }
                let mut srcs = vec![shadow_src(base)];
                if let GepOffset::Index { index, .. } = offset {
                    srcs.push(shadow_src(index));
                }
                self.plan.push_after(site, ShadowOp::AndTl { dst, srcs });
                self.demand_deps(node);
            }
            Inst::Alloc { dst, count, .. } => {
                // The pointer itself: Bot only via an undefined count.
                if let Some(c) = count {
                    self.plan.push_after(
                        site,
                        ShadowOp::AndTl {
                            dst,
                            srcs: vec![shadow_src(c)],
                        },
                    );
                }
                self.demand_deps(node);
            }
            Inst::Load { dst, addr } => {
                // [Bot-Load].
                self.plan.push_after(site, ShadowOp::LoadSh { dst, addr });
                self.demand_deps(node);
            }
            Inst::Call {
                dst: Some(dst),
                callee,
                ..
            } => {
                match callee {
                    Callee::External(_) => {
                        // Externals always produce defined results; a Bot
                        // state here cannot arise.
                    }
                    _ => {
                        // [Bot-Ret].
                        self.plan.push_after(site, ShadowOp::RetResultSh { dst });
                        let callees: Vec<FuncId> = self.pa.call_graph.callees_of(site).to_vec();
                        for g in callees {
                            if self.fallback.contains(&g) {
                                // A degraded callee's full fragment
                                // already writes sigma_ret at returns.
                                continue;
                            }
                            self.emit_ret_shadows(g);
                        }
                        self.demand_deps(node);
                    }
                }
            }
            Inst::Phi { dst, .. } => {
                // [Phi]: shadow follows the selected incoming at runtime.
                self.plan.tracked_phis.insert((f, dst));
                self.demand_deps(node);
            }
            Inst::Call { dst: None, .. } | Inst::Store { .. } => {
                // These define no top-level variable.
            }
        }
    }

    /// Emits `sigma_ret := sigma(r)` at every return of `g`.
    fn emit_ret_shadows(&mut self, g: FuncId) {
        let blocks: Vec<(usher_ir::BlockId, Option<Operand>)> = self.m.funcs[g]
            .blocks
            .iter_enumerated()
            .filter_map(|(bb, b)| match b.term {
                Terminator::Ret(op) => Some((bb, op)),
                _ => None,
            })
            .collect();
        for (bb, op) in blocks {
            let term_site = Site::new(g, bb, self.m.funcs[g].blocks[bb].insts.len());
            if let Some(op) = op {
                if self.ret_sh_sites.insert(term_site) {
                    self.plan.push_before(
                        term_site,
                        ShadowOp::RetSh {
                            src: shadow_src(op),
                        },
                    );
                }
            }
        }
    }

    /// Opt I: replace a chain of copies/operations by one conjunction of
    /// the MFC's Bot sources, skipping the interior propagations.
    fn try_opt1(&mut self, node: u32, dst: VarId, site: Site) -> bool {
        if !self.opts.opt1 {
            return false;
        }
        let closure = mfc(
            self.m,
            self.vfg,
            node,
            !self.opts.bit_level,
            &mut self.mfc_scratch,
        );
        if closure.folded == 0 {
            return false;
        }
        let mut srcs: Vec<ShadowSrc> = Vec::new();
        for &s in &closure.sources {
            if !self.gamma.is_bot(s) {
                continue; // Top sources contribute a constant T
            }
            match self.vfg.nodes[s as usize] {
                NodeKind::RootF => srcs.push(ShadowSrc::Const(false)),
                NodeKind::Tl(sf, sv) if sf == site.func => {
                    srcs.push(ShadowSrc::Tl(sv));
                    self.demand(s);
                }
                _ => {
                    // A source outside this function cannot be read
                    // directly; fall back to plain propagation.
                    return false;
                }
            }
        }
        self.plan.stats.mfcs_simplified += 1;
        if srcs.is_empty() {
            // All sources Top: the value is Top... but we are Bot; be
            // conservative and mark defined.
            self.plan
                .push_after(site, ShadowOp::SetTl { dst, defined: true });
        } else {
            self.plan.push_after(site, ShadowOp::AndTl { dst, srcs });
        }
        true
    }

    fn process_mem(&mut self, node: u32, f: FuncId, ver: usher_vfg::MemVerId) {
        let Some(fs) = self.ms.funcs.get(&f) else {
            return;
        };
        let def = fs.def(ver);
        match def.kind {
            MemDefKind::FormalIn | MemDefKind::Phi(_) => {
                // [VPara]/[Phi]: collect across — shadow memory is global
                // at runtime, nothing to execute.
                self.demand_deps(node);
            }
            MemDefKind::Alloc(site) => {
                // [Bot-Alloc]: set the fresh object's shadow.
                let inst = self.m.funcs[f].blocks[site.block].insts[site.idx].clone();
                let Inst::Alloc { dst, obj, count } = inst else {
                    return;
                };
                let defined = self.m.objects[obj].zero_init;
                self.plan.push_after(
                    site,
                    ShadowOp::SetMemClass {
                        addr: Operand::Var(dst),
                        obj,
                        class: def.loc.field,
                        defined,
                        count,
                    },
                );
                self.demand_deps(node);
            }
            MemDefKind::StoreChi(site) => {
                // [Bot-Store*]: sigma(*x) := sigma(y), once per store.
                if self.store_sh_sites.insert(site) {
                    let inst = self.m.funcs[f].blocks[site.block].insts[site.idx].clone();
                    let Inst::Store { addr, val } = inst else {
                        return;
                    };
                    self.plan.push_after(
                        site,
                        ShadowOp::StoreSh {
                            addr,
                            src: shadow_src(val),
                        },
                    );
                }
                self.demand_deps(node);
            }
            MemDefKind::CallChi(_) => {
                // [VRet]: shadow memory carries the flow at runtime.
                self.demand_deps(node);
            }
        }
    }
}
