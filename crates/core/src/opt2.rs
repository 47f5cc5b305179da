//! Opt II — Redundant Check Elimination (Section 3.5.2, Algorithm 1).
//!
//! If an undefined value is guaranteed to be detected at a critical
//! statement `s`, its rippling effects on statements dominated by `s` are
//! suppressed: every flow from the must-flow-from closure of `s`'s checked
//! variable into a dominated definition `r` is redirected to `T`, and
//! definedness is re-resolved on the redirected graph. Guided
//! instrumentation then runs on the **original** VFG with the new `Gamma`
//! (so all shadow values stay correctly initialized) — which is exactly
//! what [`crate::instrument::guided_plan`] does when handed this `Gamma`.
//!
//! The VFG is immutable, so the redirection is not graph surgery: the
//! discovery loop collects the removed `(r, t)` dependence edges into a
//! set and resolution runs over the *shared* condensation with those
//! edges filtered out ([`crate::resolve::resolve_condensed`]). This is
//! exact: removals only split SCCs (the condensation's topological order
//! stays valid, the intra-SCC fixpoints simply converge faster), and the
//! `r -> T` replacement edges cannot affect reachability from `F`
//! because `T` has no dependencies and is therefore never marked. The
//! original clone-and-mutate implementation is frozen as
//! [`redundant_check_elimination_reference`] over [`RefVfg`].

use std::collections::{HashMap, HashSet};

use usher_ir::{Budget, Cfg, DomTree, FuncId, FxHashSet, Inst, Module, ModuleCfgs, Operand, Site};
use usher_pointer::PointerAnalysis;
use usher_vfg::{Csr, MemSsa, NodeKind, RefVfg, Vfg};

use crate::mfc::{mfc, MfcScratch, NodeMarks};
use crate::resolve::{resolve_condensed_budgeted, resolve_graph, Gamma};

/// The result of running Opt II.
#[derive(Clone, Debug)]
pub struct Opt2Result {
    /// `Gamma` resolved on the modified graph; feed this to
    /// [`crate::instrument::guided_plan`] over the *original* VFG.
    pub gamma: Gamma,
    /// Number of distinct redirected nodes (Table 1 column `R`).
    pub redirected: usize,
}

/// What a budgeted Opt II run produced.
#[derive(Clone, Debug)]
pub struct Opt2Outcome {
    /// The (possibly partially discovered / partially resolved) result.
    pub result: Opt2Result,
    /// Per-node resolve coverage when the budget ran out during
    /// resolution: `resolved[v]` true means `v`'s value is exact (see
    /// [`crate::resolve::resolve_condensed_budgeted`]). `None` means
    /// resolution completed.
    pub resolved: Option<Vec<bool>>,
    /// Whether the discovery loop visited every check. Each check's
    /// redirections are independently sound, so a truncated discovery is
    /// still a correct (just weaker) Opt II — but it is *not* the
    /// unbudgeted output, so callers must not cache it.
    pub discovery_complete: bool,
}

impl Opt2Outcome {
    /// Whether the outcome is byte-identical to an unbudgeted run (and
    /// therefore safe to cache).
    pub fn is_complete(&self) -> bool {
        self.discovery_complete && self.resolved.is_none()
    }
}

/// Runs Algorithm 1 and re-resolves definedness with context depth `k`,
/// computing the dominator trees of the functions that own checks.
pub fn redundant_check_elimination(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    vfg: &Vfg,
    k: usize,
) -> Opt2Result {
    let cfgs = ModuleCfgs::new(m);
    let out = redundant_check_elimination_budgeted(m, pa, ms, vfg, &cfgs, k, &Budget::unlimited());
    debug_assert!(out.is_complete(), "unlimited budgets never exhaust");
    out.result
}

/// Budgeted Opt II over the shared `cfgs` (the dominance test reads
/// their dominator trees). Charges the discovery loop per check, per
/// closure node and per examined user edge; resolution continues on the same
/// budget through the anytime engine. Stopping discovery early keeps the
/// redirections found so far — each check's removals stand on their own
/// (running Opt II on a subset of checks is just a weaker Opt II), so
/// the partial set is sound.
pub fn redundant_check_elimination_budgeted(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    vfg: &Vfg,
    cfgs: &ModuleCfgs,
    k: usize,
    budget: &Budget,
) -> Opt2Outcome {
    // `redirected[r]`: `r` lost at least one dependence edge. It doubles
    // as the resolution filter's cheap first test, so the `removed`
    // probe runs only for the users edges of redirected nodes.
    let mut redirected: Vec<bool> = vec![false; vfg.len()];
    let mut redirected_count = 0usize;
    // Removed dependence edges `(r, t)`, matched kind-blind like the
    // reference's `remove_edge`.
    let mut removed: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut discovery_complete = true;

    // `ax` as a set (the closure's nodes plus the loaded versions).
    let mut in_ax = NodeMarks::default();
    let mut scratch = MfcScratch::default();

    'discovery: for check in &vfg.checks {
        if !budget.charge(1) {
            discovery_complete = false;
            break 'discovery;
        }
        let Operand::Var(x) = check.operand else {
            continue;
        };
        let Some(x_node) = vfg.tl(check.site.func, x) else {
            continue;
        };

        // x-bar: the MFC, extended with concrete locations read by loads
        // inside it (Algorithm 1, line 4).
        let closure = mfc(m, vfg, x_node, true, &mut scratch);
        if !budget.charge(closure.nodes.len() as u64) {
            discovery_complete = false;
            break 'discovery;
        }
        in_ax.clear(vfg.len());
        for &n in &closure.nodes {
            in_ax.insert(n);
        }
        let mut ax = closure.nodes;
        for i in 0..ax.len() {
            let n = ax[i];
            let Some(site) = vfg.def_site[n as usize] else {
                continue;
            };
            let NodeKind::Tl(f, _) = vfg.nodes[n as usize] else {
                continue;
            };
            let Some(fs) = ms.funcs.get(&f) else { continue };
            let Some(mus) = fs.mus.get(&site) else {
                continue;
            };
            // Only loads carry mus at TL def sites.
            for mu in mus {
                if pa.is_concrete(mu.loc) {
                    if let Some(mn) = vfg.mem(f, mu.def) {
                        if in_ax.insert(mn) {
                            ax.push(mn);
                        }
                    }
                }
            }
        }

        // R_x: nodes outside the closure that depend on it, whose defining
        // statement is dominated by the check.
        let f = check.site.func;
        let dt = &cfgs.get(m, f).dom;
        for &t in &ax {
            for (r, _) in vfg.users.edges(t) {
                if !budget.charge(1) {
                    // Dropping the rest of THIS check's redirections is
                    // fine too: a subset of removals re-resolves to a
                    // Gamma that is correct for the original graph plus
                    // the removals actually applied, and the filter
                    // below only consults `removed`.
                    discovery_complete = false;
                    break 'discovery;
                }
                if in_ax.contains(r) || r == check.node {
                    continue;
                }
                let Some(r_site) = vfg.def_site[r as usize] else {
                    continue;
                };
                if r_site.func != f {
                    continue;
                }
                if dominates_site(dt, check.site, r_site) {
                    removed.insert((r, t));
                    if !redirected[r as usize] {
                        redirected[r as usize] = true;
                        redirected_count += 1;
                    }
                }
            }
        }
    }

    let (gamma, resolved) = resolve_condensed_budgeted(
        vfg,
        k,
        |user, node| redirected[user as usize] && removed.contains(&(user, node)),
        budget,
    );
    Opt2Outcome {
        result: Opt2Result {
            gamma,
            redirected: redirected_count,
        },
        resolved,
        discovery_complete,
    }
}

fn dominates_site(dt: &DomTree, a: Site, b: Site) -> bool {
    if a == b {
        return false;
    }
    if a.block == b.block {
        return a.idx < b.idx;
    }
    dt.dominates(a.block, b.block)
}

// ---- reference implementation (pre-overhaul), kept for equivalence ----

/// The original Opt II: clone the adjacency-list VFG, surgically rewire
/// it, and re-resolve with the visited-state walk over a freshly frozen
/// CSR — exactly the pre-condensation cost profile. Semantics are
/// frozen; do not optimize.
pub fn redundant_check_elimination_reference(
    m: &Module,
    pa: &PointerAnalysis,
    ms: &MemSsa,
    vfg: &RefVfg,
    k: usize,
) -> Opt2Result {
    let mut g2 = vfg.clone();
    let mut redirected: HashSet<u32> = HashSet::new();

    let mut dts: HashMap<FuncId, DomTree> = HashMap::new();
    let dt_of = |f: FuncId| -> DomTree {
        let func = &m.funcs[f];
        let cfg = Cfg::compute(func);
        DomTree::compute(func, &cfg)
    };

    for check in &vfg.checks {
        let Operand::Var(x) = check.operand else {
            continue;
        };
        let Some(x_node) = vfg.tl(check.site.func, x) else {
            continue;
        };

        let closure = mfc_reference(m, vfg, x_node, true);
        let mut ax: HashSet<u32> = closure.clone();
        for &n in &closure {
            let Some(site) = vfg.def_site[n as usize] else {
                continue;
            };
            let NodeKind::Tl(f, _) = vfg.nodes[n as usize] else {
                continue;
            };
            let Some(fs) = ms.funcs.get(&f) else { continue };
            let Some(mus) = fs.mus.get(&site) else {
                continue;
            };
            for mu in mus {
                if pa.is_concrete(mu.loc) {
                    if let Some(mn) = vfg.mem(f, mu.def) {
                        ax.insert(mn);
                    }
                }
            }
        }

        dts.entry(check.site.func)
            .or_insert_with(|| dt_of(check.site.func));
        for &t in &ax {
            let user_list: Vec<u32> = vfg.users[t as usize].iter().map(|(r, _)| *r).collect();
            for r in user_list {
                if ax.contains(&r) || r == check.node {
                    continue;
                }
                let Some(r_site) = vfg.def_site[r as usize] else {
                    continue;
                };
                if r_site.func != check.site.func {
                    continue;
                }
                let dt = &dts[&check.site.func];
                if dominates_site(dt, check.site, r_site) {
                    g2.remove_edge(r, t);
                    g2.add_edge(r, g2.t_root, usher_vfg::EdgeKind::Direct);
                    redirected.insert(r);
                }
            }
        }
    }

    let users = Csr::from_adjacency(&g2.users);
    let (bot, stats) = resolve_graph(&users, g2.f_root, k);
    Opt2Result {
        gamma: Gamma::from_bot_with_stats(bot, k, stats),
        redirected: redirected.len(),
    }
}

/// The MFC fold of [`crate::mfc::mfc`], restricted to the node set (all
/// Opt II consumes) and reading the reference adjacency lists.
fn mfc_reference(m: &Module, vfg: &RefVfg, x_node: u32, fold_bitwise: bool) -> HashSet<u32> {
    let mut nodes: HashSet<u32> = HashSet::new();
    let mut work = vec![x_node];
    let mut seen: HashSet<u32> = HashSet::new();
    while let Some(v) = work.pop() {
        if !seen.insert(v) {
            continue;
        }
        if !matches!(vfg.nodes[v as usize], NodeKind::Tl(..)) {
            continue;
        }
        nodes.insert(v);
        let foldable = match def_inst_reference(m, vfg, v) {
            Some(Inst::Copy { .. }) | Some(Inst::Un { .. }) | Some(Inst::Gep { .. }) => true,
            Some(Inst::Bin { op, .. }) => fold_bitwise || !op.is_bitwise(),
            Some(Inst::Alloc { .. }) => false,
            _ => false,
        };
        if foldable {
            for &(dep, _) in &vfg.deps[v as usize] {
                work.push(dep);
            }
        }
    }
    nodes
}

fn def_inst_reference<'m>(m: &'m Module, vfg: &RefVfg, node: u32) -> Option<&'m Inst> {
    let NodeKind::Tl(f, _) = vfg.nodes[node as usize] else {
        return None;
    };
    let site = vfg.def_site[node as usize]?;
    debug_assert_eq!(site.func, f);
    m.funcs[f].blocks[site.block].insts.get(site.idx)
}
