//! Definedness resolution (Section 3.3).
//!
//! `Gamma(v) = Bot` iff node `v` is reachable from the root `F` along
//! value-flow edges, computed **context-sensitively** by matching call and
//! return edges so unrealizable interprocedural paths (enter through one
//! call site, exit through another) are ruled out. The paper configures
//! 1-call-site sensitivity; the depth is a parameter here (0 recovers a
//! context-insensitive analysis, useful as an ablation).
//!
//! The engine condenses the `users` graph into its SCC DAG (computed
//! once per VFG, shared with Opt II) and propagates reachability as a
//! single forward pass in topological order, with a worklist fixpoint
//! only inside non-trivial components. Contexts are interned into a
//! dense `u32` space ([`CtxTable`]) and each node carries a *lane
//! bitset* over context ids: a `Direct` edge moves every context at
//! once with word-parallel ORs, and only `Call`/`Ret` edges (which
//! remap contexts through push/pop) iterate individual lanes. The
//! per-`(node, context)` visited-state walk this replaces is retained as
//! [`resolve_graph`] — it still resolves quotient graphs for
//! access-equivalence merging and the frozen reference Opt II that the
//! timing gates in `tests/perf_gates.rs` measure against — and the
//! original clone-and-hash engine as [`resolve_reference`].

use std::collections::HashSet;

use usher_ir::{Budget, Operand, Site};
use usher_vfg::demand::{transfer, CtxTable, DeadlinePoller, DemandEngine, DemandStats, Lanes};
use usher_vfg::{Csr, EdgeKind, RefVfg, Vfg};

/// The definedness state of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Definedness {
    /// Only reachable from `T`: statically proven defined.
    Top,
    /// Reachable from `F`: may be undefined.
    Bot,
}

/// Counters from one resolution run (threaded into driver telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Distinct k-limited contexts interned.
    pub interned_contexts: usize,
    /// `(node, context)` states visited.
    pub visited_states: usize,
    /// SCCs in the users-graph condensation (0 for the walk engine).
    pub sccs: usize,
    /// SCCs needing an intra-component fixpoint (size > 1 or self-loop).
    pub nontrivial_sccs: usize,
    /// 64-bit word operations spent in lane propagation (0 for the walk
    /// engine).
    pub word_ops: usize,
}

/// The resolved `Gamma` map.
#[derive(Clone, Debug)]
pub struct Gamma {
    bot: Vec<bool>,
    /// Context depth used.
    pub context_depth: usize,
    /// Resolution counters.
    pub stats: ResolveStats,
}

impl Gamma {
    /// State of a node.
    pub fn of(&self, node: u32) -> Definedness {
        if self.bot[node as usize] {
            Definedness::Bot
        } else {
            Definedness::Top
        }
    }

    /// Whether the node may be undefined.
    pub fn is_bot(&self, node: u32) -> bool {
        self.bot[node as usize]
    }

    /// Number of `Bot` nodes.
    pub fn bot_count(&self) -> usize {
        self.bot.iter().filter(|b| **b).count()
    }

    /// Number of VFG nodes this map covers.
    pub fn len(&self) -> usize {
        self.bot.len()
    }

    /// Whether the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.bot.is_empty()
    }

    /// Builds a `Gamma` from a raw bot vector (used by the merged
    /// resolution path).
    pub fn from_bot(bot: Vec<bool>, context_depth: usize) -> Gamma {
        Gamma {
            bot,
            context_depth,
            stats: ResolveStats::default(),
        }
    }

    /// Like [`Gamma::from_bot`] but keeps the engine's counters.
    pub fn from_bot_with_stats(bot: Vec<bool>, context_depth: usize, stats: ResolveStats) -> Gamma {
        Gamma {
            bot,
            context_depth,
            stats,
        }
    }
}

/// Per-node visited bitsets indexed by `CtxId`, stored as one flat
/// strided buffer (one allocation, grown only when the context count
/// crosses a 64-multiple).
struct Visited {
    words: Vec<u64>,
    /// Words per node.
    stride: usize,
    n: usize,
    states: usize,
}

impl Visited {
    fn new(n: usize) -> Visited {
        Visited {
            words: vec![0u64; n],
            stride: 1,
            n,
            states: 0,
        }
    }

    #[cold]
    fn grow(&mut self, need: usize) {
        let new_stride = need.next_power_of_two();
        let mut new_words = vec![0u64; self.n * new_stride];
        for v in 0..self.n {
            new_words[v * new_stride..v * new_stride + self.stride]
                .copy_from_slice(&self.words[v * self.stride..(v + 1) * self.stride]);
        }
        self.words = new_words;
        self.stride = new_stride;
    }

    /// Marks `(node, ctx)`; returns whether it was new.
    #[inline]
    fn insert(&mut self, node: u32, ctx: u32) -> bool {
        let wi = (ctx / 64) as usize;
        if wi >= self.stride {
            self.grow(wi + 1);
        }
        let w = &mut self.words[node as usize * self.stride + wi];
        let mask = 1u64 << (ctx % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.states += 1;
            true
        } else {
            false
        }
    }
}

/// Resolves definedness over the VFG with `k`-call-site context
/// sensitivity (the paper uses `k = 1`), via the condensed context-lane
/// engine.
pub fn resolve(vfg: &Vfg, k: usize) -> Gamma {
    resolve_condensed(vfg, k, |_, _| false)
}

/// The condensed engine, with an edge filter: the users edge `node ->
/// user` is ignored when `skip(user, node)` returns true. Opt II resolves
/// its redirected graph this way — edge *removals* only ever split SCCs,
/// so the shared condensation's topological order stays valid and the
/// graph never needs to be cloned or mutated.
pub fn resolve_condensed(vfg: &Vfg, k: usize, skip: impl Fn(u32, u32) -> bool) -> Gamma {
    resolve_condensed_budgeted(vfg, k, skip, &Budget::unlimited()).0
}

/// Budgeted resolution with default options (no edge filter).
///
/// See [`resolve_condensed_budgeted`] for the anytime contract.
pub fn resolve_budgeted(vfg: &Vfg, k: usize, budget: &Budget) -> (Gamma, Option<Vec<bool>>) {
    resolve_condensed_budgeted(vfg, k, |_, _| false, budget)
}

/// The anytime condensed engine.
///
/// The condensation is processed in topological order, and every users
/// edge points from an earlier-processed SCC to a later one — so by the
/// time an SCC's intra-component fixpoint and cross-edge pass finish,
/// its members have received every inbound contribution they ever will:
/// their `Gamma` values are **exact**, not approximations. That makes
/// resolution an anytime algorithm: stop between (or inside) SCCs, keep
/// the exact prefix, and conservatively force every node of the current
/// and all unprocessed SCCs to `Bot` (more propagation can only move a
/// node Top→Bot, so forced-Bot over-approximates — sound).
///
/// Returns the map plus `Some(resolved)` when the budget ran out:
/// `resolved[v]` is true iff `v`'s SCC was fully processed and its value
/// is exact. `None` means the run completed and the map is identical to
/// the unbudgeted engine's.
pub fn resolve_condensed_budgeted(
    vfg: &Vfg,
    k: usize,
    skip: impl Fn(u32, u32) -> bool,
    budget: &Budget,
) -> (Gamma, Option<Vec<bool>>) {
    let users = &vfg.users;
    let cond = vfg.condensation();
    let n = users.len();
    let mut ctxs = CtxTable::new(k);
    let mut lanes = Lanes::new(n);
    let mut scratch: Vec<u64> = Vec::new();
    let mut queue: Vec<u32> = Vec::new();
    let mut queued = vec![false; n];
    let mut resolved = vec![false; n];
    let mut exhausted = false;
    // The wall-clock deadline is polled *inside* the SCC loops (every
    // `DeadlinePoller::PERIOD` charge units), not just at stage
    // boundaries — one giant SCC must not blow past `--deadline-ms`.
    let mut poller = DeadlinePoller::new();

    lanes.set(vfg.f_root, ctxs.empty());

    // SCCs in topological order of the condensation: every cross-SCC
    // users edge points from a higher id to a lower one, so when an SCC
    // is reached its members' lanes are final after the intra fixpoint.
    'sccs: for c in cond.topo_order() {
        let members = cond.members_of(c);
        if !budget.charge(members.len() as u64) || poller.due(budget) {
            exhausted = true;
            break 'sccs;
        }
        // Intra-SCC fixpoint, seeded with members that already have
        // reachable contexts.
        for &u in members {
            if !lanes.row_empty(u) {
                queue.push(u);
                queued[u as usize] = true;
            }
        }
        while let Some(u) = queue.pop() {
            queued[u as usize] = false;
            for (w, kind) in users.edges(u) {
                if cond.comp[w as usize] != c || skip(w, u) {
                    continue;
                }
                if !budget.charge(1) || poller.due(budget) {
                    exhausted = true;
                    break 'sccs;
                }
                if transfer(&mut lanes, &mut ctxs, &mut scratch, u, w, kind) && !queued[w as usize]
                {
                    queue.push(w);
                    queued[w as usize] = true;
                }
            }
        }
        // Cross-SCC edges, once per member, with final lanes.
        for &u in members {
            if lanes.row_empty(u) {
                continue;
            }
            for (w, kind) in users.edges(u) {
                if cond.comp[w as usize] == c || skip(w, u) {
                    continue;
                }
                if !budget.charge(1) || poller.due(budget) {
                    exhausted = true;
                    break 'sccs;
                }
                transfer(&mut lanes, &mut ctxs, &mut scratch, u, w, kind);
            }
        }
        for &u in members {
            resolved[u as usize] = true;
        }
    }

    let bot: Vec<bool> = if exhausted {
        (0..n as u32)
            .map(|v| !resolved[v as usize] || !lanes.row_empty(v))
            .collect()
    } else {
        (0..n as u32).map(|v| !lanes.row_empty(v)).collect()
    };
    let stats = ResolveStats {
        interned_contexts: ctxs.len(),
        visited_states: lanes.states(),
        sccs: cond.sccs,
        nontrivial_sccs: cond.nontrivial,
        word_ops: lanes.word_ops(),
    };
    let gamma = Gamma {
        bot,
        context_depth: k,
        stats,
    };
    (gamma, if exhausted { Some(resolved) } else { None })
}

/// Demand-driven `Gamma` materialization (the paper's Figure 7 deduction
/// direction; DESIGN.md §13): instead of resolving every node, a
/// [`DemandEngine`] queries exactly the nodes guided planning consults —
/// every check node plus the top-level node of each checked operand —
/// and every node outside the walked cones is forced to `Bot` (sound:
/// more resolution can only move a node Top→Bot, and planning never
/// consults outside the cones, so the resulting plan is byte-equal to
/// the exhaustively-resolved one).
///
/// Returns the map, the engine's query counters, and — mirroring
/// [`resolve_budgeted`] — `Some(coverage)` when the budget ran out
/// mid-walk (`coverage[v]` true iff `v`'s value is exact) or `None` when
/// every query completed.
pub fn resolve_demand(
    vfg: &Vfg,
    k: usize,
    budget: &Budget,
) -> (Gamma, DemandStats, Option<Vec<bool>>) {
    let mut eng = DemandEngine::new(vfg, k);
    let mut complete = true;
    for ch in &vfg.checks {
        complete &= eng.query(vfg, ch.node, budget).complete;
        if let Operand::Var(v) = ch.operand {
            if let Some(tl) = vfg.tl(ch.site.func, v) {
                complete &= eng.query(vfg, tl, budget).complete;
            }
        }
    }
    let bot: Vec<bool> = (0..vfg.len() as u32)
        .map(|v| eng.verdict_of(v).unwrap_or(true))
        .collect();
    let cond = vfg.condensation();
    let stats = ResolveStats {
        interned_contexts: eng.interned_contexts(),
        visited_states: eng.visited_states(),
        sccs: cond.sccs,
        nontrivial_sccs: cond.nontrivial,
        word_ops: eng.word_ops(),
    };
    let coverage = (!complete).then(|| eng.coverage().to_vec());
    (
        Gamma::from_bot_with_stats(bot, k, stats),
        eng.stats(),
        coverage,
    )
}

/// The underlying reachability engine: given forward (flows-to) adjacency
/// `users` in CSR form, marks every node reachable from `f_root` under
/// partially balanced, `k`-limited call/return matching. Exposed so
/// clients (e.g. access-equivalence merging) can resolve quotient graphs.
pub fn resolve_graph(users: &Csr, f_root: u32, k: usize) -> (Vec<bool>, ResolveStats) {
    let n = users.len();
    let mut bot = vec![false; n];
    let mut ctxs = CtxTable::new(k);
    let mut visited = Visited::new(n);
    let mut work: Vec<(u32, u32)> = Vec::new();

    let empty = ctxs.empty();
    visited.insert(f_root, empty);
    work.push((f_root, empty));
    bot[f_root as usize] = true;

    while let Some((node, ctx)) = work.pop() {
        // Flow to every user (a node that depends on `node`).
        for (user, kind) in users.edges(node) {
            let next_ctx = match kind {
                EdgeKind::Direct => ctx,
                // user = callee formal, node = caller actual: entering.
                EdgeKind::Call(site) => ctxs.push(ctx, site),
                // user = caller result, node = callee return: leaving.
                EdgeKind::Ret(site) => match ctxs.pop(ctx, site) {
                    Some(c) => c,
                    None => continue,
                },
            };
            if visited.insert(user, next_ctx) {
                bot[user as usize] = true;
                work.push((user, next_ctx));
            }
        }
    }
    let stats = ResolveStats {
        interned_contexts: ctxs.len(),
        visited_states: visited.states,
        ..Default::default()
    };
    (bot, stats)
}

// ---- reference engine (pre-overhaul), kept for equivalence/bench ---------

/// A k-limited calling context as an owned stack (the reference engine's
/// representation; the production engine interns these).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Ctx {
    stack: Vec<Site>,
    overflowed: bool,
}

impl Ctx {
    fn empty() -> Ctx {
        Ctx {
            stack: Vec::new(),
            overflowed: false,
        }
    }

    fn push(&self, site: Site, k: usize) -> Ctx {
        let mut c = self.clone();
        if k == 0 {
            c.overflowed = true;
            return c;
        }
        c.stack.push(site);
        if c.stack.len() > k {
            c.stack.remove(0);
            c.overflowed = true;
        }
        c
    }

    /// Returns `None` when the return is unrealizable in this context.
    fn pop(&self, site: Site) -> Option<Ctx> {
        let mut c = self.clone();
        match c.stack.pop() {
            Some(top) if top == site => Some(c),
            Some(_) => None,
            None => Some(c),
        }
    }
}

/// The original clone-and-hash resolution engine over the frozen
/// adjacency-list VFG, kept as the oracle for the condensed engine.
/// Semantics are frozen; do not optimize.
pub fn resolve_reference(vfg: &RefVfg, k: usize) -> Gamma {
    let bot = resolve_graph_reference(&vfg.users, vfg.f_root, vfg.nodes.len(), k);
    Gamma {
        bot,
        context_depth: k,
        stats: ResolveStats::default(),
    }
}

/// Reference counterpart of [`resolve_graph`] over plain adjacency lists.
pub fn resolve_graph_reference(
    users: &[Vec<(u32, EdgeKind)>],
    f_root: u32,
    n: usize,
    k: usize,
) -> Vec<bool> {
    let mut bot = vec![false; n];
    let mut visited: HashSet<(u32, Ctx)> = HashSet::new();
    let mut work: Vec<(u32, Ctx)> = Vec::new();

    let start = (f_root, Ctx::empty());
    visited.insert(start.clone());
    work.push(start);
    bot[f_root as usize] = true;

    while let Some((node, ctx)) = work.pop() {
        for &(user, kind) in &users[node as usize] {
            let next_ctx = match kind {
                EdgeKind::Direct => Some(ctx.clone()),
                EdgeKind::Call(site) => Some(ctx.push(site, k)),
                EdgeKind::Ret(site) => ctx.pop(site),
            };
            let Some(next_ctx) = next_ctx else { continue };
            let state = (user, next_ctx);
            if visited.insert(state.clone()) {
                bot[user as usize] = true;
                work.push(state);
            }
        }
    }
    bot
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_frontend::compile_o0im;
    use usher_ir::{FuncId, Idx, Inst, Module, Operand};
    use usher_vfg::{analyze_module, VfgMode};

    fn gamma_for(src: &str, k: usize) -> (Module, Vfg, Gamma) {
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        let gamma = resolve(&g, k);
        (m, g, gamma)
    }

    /// The node of the first `Ret` operand of a function.
    fn ret_node(m: &Module, g: &Vfg, name: &str) -> u32 {
        let fid = m.func_by_name(name).unwrap();
        for block in m.funcs[fid].blocks.iter() {
            if let usher_ir::Terminator::Ret(Some(Operand::Var(v))) = block.term {
                return g.tl(fid, v).expect("ret var in vfg");
            }
        }
        panic!("no ret-of-var in {name}");
    }

    #[test]
    fn defined_values_resolve_top() {
        let (m, g, gamma) = gamma_for(
            "def f() -> int { int x = 1; int y = x + 2; return y; }
             def main() { print(f()); }",
            1,
        );
        let r = ret_node(&m, &g, "f");
        assert_eq!(gamma.of(r), Definedness::Top);
    }

    #[test]
    fn uninitialized_local_resolves_bot() {
        let (m, g, gamma) = gamma_for(
            "def f(int c) -> int { int x; if (c) { x = 1; } return x; }
             def main() { print(f(0)); }",
            1,
        );
        let r = ret_node(&m, &g, "f");
        assert_eq!(gamma.of(r), Definedness::Bot);
    }

    #[test]
    fn memory_flow_of_undefinedness() {
        let (m, g, gamma) = gamma_for(
            "def main() -> int {
                 int *p;
                 p = malloc(4);
                 return *(p + 2);
             }",
            1,
        );
        let r = ret_node(&m, &g, "main");
        assert_eq!(gamma.of(r), Definedness::Bot, "malloc memory is undefined");
    }

    #[test]
    fn calloc_memory_is_defined() {
        let (m, g, gamma) = gamma_for(
            "def main() -> int {
                 int *p;
                 p = calloc(4);
                 return *(p + 2);
             }",
            1,
        );
        let r = ret_node(&m, &g, "main");
        assert_eq!(gamma.of(r), Definedness::Top);
    }

    #[test]
    fn globals_are_defined_at_startup() {
        let (m, g, gamma) = gamma_for(
            "int g;
             def main() -> int { return g; }",
            1,
        );
        let r = ret_node(&m, &g, "main");
        assert_eq!(gamma.of(r), Definedness::Top);
    }

    #[test]
    fn store_then_load_through_global_is_defined() {
        let (m, g, gamma) = gamma_for(
            "int g;
             def main() -> int { g = 5; return g; }",
            1,
        );
        let r = ret_node(&m, &g, "main");
        assert_eq!(gamma.of(r), Definedness::Top);
    }

    #[test]
    fn context_sensitivity_blocks_unrealizable_path() {
        // id(undef) flows Bot only to the call site that passed undef:
        // with k=1, the defined call's result stays Top; with k=0 both
        // results are Bot.
        let src = "
            def id(int x) -> int { return x; }
            def main() -> int {
                int u;
                int a = id(u);
                int b = id(7);
                return b;
            }";
        let (m, g, gamma1) = gamma_for(src, 1);
        let r = ret_node(&m, &g, "main");
        assert_eq!(
            gamma1.of(r),
            Definedness::Top,
            "k=1 separates the two call sites"
        );

        let (m0, g0, gamma0) = gamma_for(src, 0);
        let r0 = ret_node(&m0, &g0, "main");
        assert_eq!(gamma0.of(r0), Definedness::Bot, "k=0 conflates call sites");
    }

    #[test]
    fn semi_strong_update_rescues_loop_carried_definedness() {
        // Figure 6's shape: allocate in a loop, store a defined value,
        // read it back. With semi-strong updates the read is Top; a plain
        // weak update would have been Bot.
        let (m, g, gamma) = gamma_for(
            "def main() {
                 int i = 0;
                 int s = 0;
                 while (i < 4) {
                     int *p;
                     p = malloc(1);
                     *p = i;
                     s = s + *p;
                     i = i + 1;
                 }
                 print(s);
             }",
            1,
        );
        // Every load result in main must be Top.
        let fid = m.main.unwrap();
        for (bb, block) in m.funcs[fid].blocks.iter_enumerated() {
            let _ = bb;
            for inst in &block.insts {
                if let Inst::Load { dst, .. } = inst {
                    let n = g.tl(fid, *dst).unwrap();
                    assert_eq!(gamma.of(n), Definedness::Top, "load {dst:?} should be Top");
                }
            }
        }
    }

    #[test]
    fn bot_count_is_monotone_in_context_depth() {
        let src = "
            def id(int x) -> int { return x; }
            def pass(int y) -> int { return id(y); }
            def main() -> int {
                int u;
                int a = pass(u);
                int b = pass(3);
                return a + b;
            }";
        let (_m, _g, g0) = gamma_for(src, 0);
        let (_m, _g, g1) = gamma_for(src, 1);
        let (_m, _g, g2) = gamma_for(src, 2);
        assert!(g1.bot_count() <= g0.bot_count());
        assert!(g2.bot_count() <= g1.bot_count());
    }

    #[test]
    fn roots_have_expected_states() {
        let (_m, g, gamma) = gamma_for("def main() { print(1); }", 1);
        assert!(gamma.is_bot(g.f_root));
        assert!(!gamma.is_bot(g.t_root));
    }

    #[test]
    fn unreached_function_params_default_top() {
        let (m, g, gamma) = gamma_for(
            "def orphan(int x) -> int { return x; }
             def main() { print(1); }",
            1,
        );
        let fid = m.func_by_name("orphan").unwrap();
        let p = m.funcs[fid].params[0];
        if let Some(n) = g.tl(fid, p) {
            assert_eq!(gamma.of(n), Definedness::Top);
        }
        let _ = FuncId(0).index();
    }

    #[test]
    fn interned_engine_matches_reference_across_depths() {
        let src = "
            def id(int x) -> int { return x; }
            def pass(int y) -> int { return id(y); }
            def main() -> int {
                int u;
                int a = pass(u);
                int b = pass(3);
                int *p;
                p = malloc(2);
                *p = a;
                return b + *p;
            }";
        let m = compile_o0im(src).expect("compiles");
        let pa = usher_pointer::analyze(&m);
        let ms = usher_vfg::build_memssa(&m, &pa);
        let g = usher_vfg::build(&m, &pa, &ms, VfgMode::Full);
        let rg = usher_vfg::build_reference(&m, &pa, &ms, VfgMode::Full);
        for k in 0..4 {
            let fast = resolve(&g, k);
            let walk = {
                let (bot, stats) = resolve_graph(&g.users, g.f_root, k);
                Gamma::from_bot_with_stats(bot, k, stats)
            };
            let slow = resolve_reference(&rg, k);
            for v in 0..g.len() as u32 {
                assert_eq!(fast.is_bot(v), slow.is_bot(v), "node {v} at k={k}");
                assert_eq!(fast.is_bot(v), walk.is_bot(v), "walk node {v} at k={k}");
            }
            // The condensed engine reaches exactly the walk engine's
            // `(node, context)` state set.
            assert_eq!(
                fast.stats.visited_states, walk.stats.visited_states,
                "state counts at k={k}"
            );
            assert_eq!(
                fast.stats.interned_contexts, walk.stats.interned_contexts,
                "context counts at k={k}"
            );
        }
    }

    #[test]
    fn condensed_stats_expose_sccs_and_word_ops() {
        // `s` starts undefined and circulates through the loop-carried
        // phi cycle, so lane propagation must do real word work inside a
        // non-trivial SCC.
        let (_m, _g, gamma) = gamma_for(
            "def main() {
                 int i = 0;
                 int s;
                 while (i < 4) { s = s + i; i = i + 1; }
                 print(s);
             }",
            1,
        );
        assert!(gamma.stats.sccs >= 1);
        assert!(gamma.stats.nontrivial_sccs >= 1);
        assert!(gamma.stats.word_ops >= 1);
    }

    #[test]
    fn budgeted_resolve_is_exact_where_covered_and_bot_elsewhere() {
        let src = "
            def id(int x) -> int { return x; }
            def pass(int y) -> int { return id(y); }
            def main() -> int {
                int u;
                int a = pass(u);
                int b = pass(3);
                int *p;
                p = malloc(2);
                *p = a;
                return b + *p;
            }";
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        let full = resolve(&g, 1);
        // An unlimited budget must reproduce the unbudgeted map, with no
        // coverage vector.
        let (same, cov) = resolve_budgeted(&g, 1, &Budget::unlimited());
        assert!(cov.is_none());
        for v in 0..g.len() as u32 {
            assert_eq!(same.is_bot(v), full.is_bot(v));
        }
        // Every budget from starvation to surplus: covered nodes exact,
        // uncovered nodes forced Bot (never a spurious Top).
        for steps in 0..200 {
            let (partial, cov) = resolve_budgeted(&g, 1, &Budget::limited(steps));
            match cov {
                None => {
                    for v in 0..g.len() as u32 {
                        assert_eq!(partial.is_bot(v), full.is_bot(v), "complete run diverged");
                    }
                }
                Some(resolved) => {
                    for v in 0..g.len() as u32 {
                        if resolved[v as usize] {
                            assert_eq!(
                                partial.is_bot(v),
                                full.is_bot(v),
                                "covered node {v} must be exact at budget {steps}"
                            );
                        } else {
                            assert!(
                                partial.is_bot(v),
                                "uncovered node {v} must be Bot at budget {steps}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn demand_gamma_agrees_with_exhaustive_on_every_consulted_node() {
        let src = "
            def id(int x) -> int { return x; }
            def pass(int y) -> int { return id(y); }
            def main() -> int {
                int u;
                int a = pass(u);
                int b = pass(3);
                int *p;
                p = malloc(2);
                *p = a;
                return b + *p;
            }";
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        for k in 0..3 {
            let full = resolve(&g, k);
            let (dem, dstats, cov) = resolve_demand(&g, k, &Budget::unlimited());
            assert!(cov.is_none(), "unlimited demand run must complete");
            assert!(dstats.queries > 0);
            // Checked nodes and their operand TLs: byte-equal verdicts.
            for ch in &g.checks {
                assert_eq!(
                    dem.is_bot(ch.node),
                    full.is_bot(ch.node),
                    "check node {} at k={k}",
                    ch.node
                );
                if let Operand::Var(v) = ch.operand {
                    if let Some(tl) = g.tl(ch.site.func, v) {
                        assert_eq!(dem.is_bot(tl), full.is_bot(tl), "operand TL {tl} k={k}");
                    }
                }
            }
            // Everywhere else: sound over-approximation only (Bot may be
            // forced on un-walked nodes, Top is never invented).
            for v in 0..g.len() as u32 {
                assert!(
                    dem.is_bot(v) || !full.is_bot(v),
                    "demand invented Top at node {v}, k={k}"
                );
            }
        }
    }

    #[test]
    fn demand_exhaustion_reports_coverage_and_forces_bot() {
        let src = "
            def f(int c) -> int { int x; if (c) { x = 1; } return x; }
            def main() { print(f(0)); }";
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        let (full, _, _) = resolve_demand(&g, 1, &Budget::unlimited());
        for steps in 0..120 {
            let (dem, dstats, cov) = resolve_demand(&g, 1, &Budget::limited(steps));
            match cov {
                None => {
                    assert_eq!(dstats.exhausted_queries, 0);
                    for v in 0..g.len() as u32 {
                        assert_eq!(dem.is_bot(v), full.is_bot(v), "steps={steps}");
                    }
                }
                Some(cov) => {
                    assert!(dstats.exhausted_queries > 0, "steps={steps}");
                    for v in 0..g.len() as u32 {
                        if cov[v as usize] {
                            assert_eq!(dem.is_bot(v), full.is_bot(v), "covered {v}");
                        } else {
                            assert!(dem.is_bot(v), "uncovered {v} must be Bot");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expired_deadline_halts_inside_a_single_giant_scc() {
        // Adversarial rung for the stage-boundary deadline bug: one huge
        // loop-carried accumulation chain puts thousands of nodes in a
        // single SCC, so a resolver that only checks the deadline between
        // stages (or between SCCs) would grind through all of it. The
        // in-SCC poller must halt within one poll period instead.
        // `x` starts undefined so `F` circulates through every chain
        // node — the worklist really has to touch the whole component.
        let mut src = String::from("def main() { int i = 0; int x; while (i < 9) { ");
        for j in 0..1500 {
            src.push_str(&format!("x = x + {}; ", j % 7));
        }
        src.push_str("i = i + 1; } print(x); }");
        let m = compile_o0im(&src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        let cond = g.condensation();
        let biggest = (0..cond.sccs as u32)
            .map(|c| cond.members_of(c).len())
            .max()
            .unwrap();
        assert!(
            biggest > 1000,
            "adversarial rung needs one giant SCC, got {biggest}"
        );
        let budget = Budget::new(None, Some(std::time::Duration::ZERO));
        let (gamma, cov) = resolve_budgeted(&g, 1, &budget);
        let cov = cov.expect("an already-expired deadline must halt resolution mid-run");
        assert!(
            cov.iter().any(|&r| !r),
            "halting mid-run must leave some nodes uncovered"
        );
        for v in 0..g.len() as u32 {
            if !cov[v as usize] {
                assert!(gamma.is_bot(v), "uncovered node {v} must be forced Bot");
            }
        }
    }

    #[test]
    fn resolve_stats_are_populated() {
        let (_m, _g, gamma) = gamma_for(
            "def id(int x) -> int { return x; }
             def main() { int u; print(id(u)); }",
            1,
        );
        assert!(gamma.stats.interned_contexts >= 1);
        assert!(gamma.stats.visited_states >= 1);
    }
}
