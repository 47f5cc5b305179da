//! Demand-driven definedness queries (DESIGN.md §13).
//!
//! The exhaustive resolver answers "is `v` reachable from `F`?" for
//! every node of the VFG. This module answers it for *one* node — a
//! check the planner is about to consult — by walking only the node's
//! backward dependence cone: a sparse DFS over `deps` edges that stops
//! at already-resolved frontier nodes, then a forward lane propagation
//! over just the touched SCCs in condensation order. The machinery is
//! the *same* machinery the exhaustive engine uses ([`CtxTable`],
//! [`Lanes`], [`transfer`] live here and are imported by
//! `usher-core::resolve`), so demand verdicts are byte-equal to the
//! exhaustive `Gamma` by construction, not by luck.
//!
//! Three ideas from SUPA (demand-driven pointer analysis with strong
//! updates via value-flow refinement) shape the walk:
//!
//! * **sparsity** — only the cone of the queried use is visited; nodes
//!   outside it are never materialized;
//! * **refinement** — a resolved predecessor whose lane row is empty is
//!   *proven* `Top` (a strong update killed every `F` path through it),
//!   so the pull across that edge is skipped entirely; the
//!   [`DemandStats::refinements`] counter records each pruned edge;
//! * **memoization** — every SCC the walk completes is marked resolved,
//!   its lanes final; a later query whose cone touches it stops there,
//!   and a query *on* a resolved node is a pure memo hit.
//!
//! Every walk is bounded by a [`Budget`] (steps and wall-clock
//! deadline, polled every [`DeadlinePoller::PERIOD`] charge units): an
//! exhausted query returns `Bot` with `complete = false` and leaves the
//! engine in a safe state — lanes are monotone, so a later query (or a
//! retry with more budget) resumes the walk instead of restarting it.

use usher_ir::{Budget, FxHashMap, Site};

use crate::build::{EdgeKind, Vfg};

/// Interned k-limited calling contexts.
///
/// A context is a stack of at most `k` unmatched call sites plus an
/// `overflowed` bit recording that older entries were dropped (after
/// which returns become unconstrained — sound over-approximation).
/// Contexts are deduplicated into dense `u32` ids; push results are
/// memoized per `(ctx, site)` and pop results per ctx (a pop only
/// depends on the stack top).
pub struct CtxTable {
    /// id -> (stack, overflowed).
    entries: Vec<(Vec<Site>, bool)>,
    ids: FxHashMap<(Vec<Site>, bool), u32>,
    push_cache: FxHashMap<(u32, Site), u32>,
    /// id -> id of the context with the top popped (for a matching top).
    pop_cache: Vec<Option<u32>>,
    k: usize,
}

impl CtxTable {
    /// An empty table for depth `k`, with the empty context pre-interned
    /// as id 0.
    pub fn new(k: usize) -> CtxTable {
        let mut t = CtxTable {
            entries: Vec::new(),
            ids: FxHashMap::default(),
            push_cache: FxHashMap::default(),
            pop_cache: Vec::new(),
            k,
        };
        t.intern(Vec::new(), false);
        t
    }

    /// The empty context.
    pub fn empty(&self) -> u32 {
        0
    }

    /// Number of distinct contexts interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no context has been interned (never true: the empty
    /// context is interned at construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn intern(&mut self, stack: Vec<Site>, overflowed: bool) -> u32 {
        if let Some(&id) = self.ids.get(&(stack.clone(), overflowed)) {
            return id;
        }
        let id = self.entries.len() as u32;
        self.entries.push((stack.clone(), overflowed));
        self.ids.insert((stack, overflowed), id);
        self.pop_cache.push(None);
        id
    }

    /// Entering a callee through `site`.
    pub fn push(&mut self, ctx: u32, site: Site) -> u32 {
        if let Some(&id) = self.push_cache.get(&(ctx, site)) {
            return id;
        }
        let (stack, overflowed) = &self.entries[ctx as usize];
        let id = if self.k == 0 {
            let stack = stack.clone();
            self.intern(stack, true)
        } else {
            let mut stack = stack.clone();
            let mut overflowed = *overflowed;
            stack.push(site);
            if stack.len() > self.k {
                stack.remove(0);
                overflowed = true;
            }
            self.intern(stack, overflowed)
        };
        self.push_cache.insert((ctx, site), id);
        id
    }

    /// Leaving a callee through `site`; `None` when the return is
    /// unrealizable in this context.
    pub fn pop(&mut self, ctx: u32, site: Site) -> Option<u32> {
        let (stack, overflowed) = &self.entries[ctx as usize];
        match stack.last() {
            Some(&top) if top == site => {
                if let Some(id) = self.pop_cache[ctx as usize] {
                    return Some(id);
                }
                let mut stack = stack.clone();
                let overflowed = *overflowed;
                stack.pop();
                let id = self.intern(stack, overflowed);
                self.pop_cache[ctx as usize] = Some(id);
                Some(id)
            }
            Some(_) => None, // mismatched return: unrealizable
            None => {
                // Nothing tracked: either we overflowed (permissive) or
                // the value originated inside the callee (partially
                // balanced path) — both allowed.
                Some(ctx)
            }
        }
    }
}

/// Per-node context-lane bitsets: lane `c` of node `v` set means the
/// state `(v, context c)` is reachable from `(F, empty)`. One flat
/// strided buffer; the stride (words per node) grows only when the
/// interned-context count crosses a 64-multiple, and spills to as many
/// words as the context space needs.
pub struct Lanes {
    words: Vec<u64>,
    /// Words per node (power of two).
    stride: usize,
    n: usize,
    /// Total set bits (= visited `(node, context)` states).
    states: usize,
    /// Word-level operations spent ORing and scanning lanes.
    word_ops: usize,
}

impl Lanes {
    /// All-clear lanes for `n` nodes.
    pub fn new(n: usize) -> Lanes {
        Lanes {
            words: vec![0u64; n],
            stride: 1,
            n,
            states: 0,
            word_ops: 0,
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

    /// Sets lane `ctx` of `node`; returns whether it was clear.
    #[inline]
    pub fn set(&mut self, node: u32, ctx: u32) -> bool {
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

    /// Whether `node` has no reachable context.
    #[inline]
    pub fn row_empty(&self, node: u32) -> bool {
        let lo = node as usize * self.stride;
        self.words[lo..lo + self.stride].iter().all(|&w| w == 0)
    }

    /// `dst |= src`, word-parallel; returns whether any lane was added.
    #[inline]
    pub fn or_into(&mut self, src: u32, dst: u32) -> bool {
        if src == dst {
            return false;
        }
        let s = src as usize * self.stride;
        let d = dst as usize * self.stride;
        let mut changed = false;
        for i in 0..self.stride {
            let v = self.words[s + i];
            self.word_ops += 1;
            if v != 0 {
                let old = self.words[d + i];
                let new = old | v;
                if new != old {
                    self.words[d + i] = new;
                    self.states += (old ^ new).count_ones() as usize;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Copies `node`'s row into `scratch` (so callers can iterate lanes
    /// while `set` may reallocate the buffer, and so self-loop edges read
    /// a stable snapshot).
    #[inline]
    pub fn snapshot(&mut self, node: u32, scratch: &mut Vec<u64>) {
        let lo = node as usize * self.stride;
        scratch.clear();
        scratch.extend_from_slice(&self.words[lo..lo + self.stride]);
        self.word_ops += self.stride;
    }

    /// Total `(node, context)` states set so far.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Word-level operations spent ORing and scanning lanes.
    pub fn word_ops(&self) -> usize {
        self.word_ops
    }
}

/// Propagates `u`'s lanes across one users edge `u -> w`. Direct edges
/// move all contexts in one word-parallel OR; Call/Ret remap each lane
/// through the context table, reading from a snapshot because `set` can
/// grow the buffer mid-iteration (and because `w == u` self-loops must
/// not observe their own writes within one transfer).
pub fn transfer(
    lanes: &mut Lanes,
    ctxs: &mut CtxTable,
    scratch: &mut Vec<u64>,
    u: u32,
    w: u32,
    kind: EdgeKind,
) -> bool {
    match kind {
        EdgeKind::Direct => lanes.or_into(u, w),
        EdgeKind::Call(site) | EdgeKind::Ret(site) => {
            let is_call = matches!(kind, EdgeKind::Call(_));
            lanes.snapshot(u, scratch);
            let mut changed = false;
            for (wi, &word) in scratch.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let ctx = (wi as u32) * 64 + b;
                    let next = if is_call {
                        Some(ctxs.push(ctx, site))
                    } else {
                        ctxs.pop(ctx, site)
                    };
                    if let Some(nc) = next {
                        changed |= lanes.set(w, nc);
                    }
                }
            }
            changed
        }
    }
}

/// Amortized wall-clock deadline polling: `Budget::deadline_exceeded`
/// reads the clock, so hot loops call [`DeadlinePoller::due`] per charge
/// unit and only every [`DeadlinePoller::PERIOD`]-th call actually polls.
/// This is how one giant SCC stops blowing past `--deadline-ms` between
/// stage boundaries.
#[derive(Default)]
pub struct DeadlinePoller {
    count: u32,
}

impl DeadlinePoller {
    /// Charge units between clock reads.
    pub const PERIOD: u32 = 1024;

    /// A poller whose first clock read is `PERIOD` calls away.
    pub fn new() -> DeadlinePoller {
        DeadlinePoller::default()
    }

    /// Counts one charge unit; true when this call polled the clock and
    /// the deadline has passed.
    #[inline]
    pub fn due(&mut self, budget: &Budget) -> bool {
        self.count = self.count.wrapping_add(1);
        self.count.is_multiple_of(Self::PERIOD) && budget.deadline_exceeded()
    }
}

/// Counters from one engine's lifetime of queries (threaded into serve
/// telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Queries answered (including memo hits).
    pub queries: usize,
    /// Queries answered without any walk (node already resolved).
    pub memo_hits: usize,
    /// Cone nodes visited during backward discovery.
    pub nodes_visited: usize,
    /// Inbound pulls skipped because the resolved predecessor was proven
    /// `Top` (its lane row is empty — a strong update killed every `F`
    /// path through it).
    pub refinements: usize,
    /// Queries that exhausted their budget and degraded to `Bot`.
    pub exhausted_queries: usize,
}

/// One query's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryVerdict {
    /// Whether the node may be undefined (`Bot`). Exhausted queries
    /// report `true` — degrading to `Bot` is the sound direction.
    pub bot: bool,
    /// Whether the walk completed. When false the verdict is the forced
    /// `Bot` over-approximation, not the exact value.
    pub complete: bool,
}

/// The demand-driven query engine.
///
/// Holds no reference to the graph: every method takes the [`Vfg`] it
/// was constructed against (asserted by node count), so the engine can
/// live beside the graph in session state without self-reference. All
/// state is monotone — lanes only gain bits, SCCs only become resolved —
/// which is what makes partial (budget-exhausted) walks resumable and
/// verdict memoization sound.
pub struct DemandEngine {
    ctxs: CtxTable,
    lanes: Lanes,
    /// `resolved[v]` = `v`'s SCC has been fully processed; its lanes are
    /// final and its verdict is exact.
    resolved: Vec<bool>,
    stats: DemandStats,
    scratch: Vec<u64>,
    queue: Vec<u32>,
    queued: Vec<bool>,
    /// Per-node DFS stamp (`== epoch` means visited this query), so cone
    /// discovery needs no per-query allocation.
    mark: Vec<u32>,
    /// Per-SCC stamp for the touched-component set.
    comp_mark: Vec<u32>,
    epoch: u32,
    n: usize,
}

impl DemandEngine {
    /// An engine for `vfg` at context depth `k`, with the roots
    /// pre-resolved: `F` carries the empty context, `T` carries nothing
    /// (roots have no dependences, so their rows are final at birth).
    pub fn new(vfg: &Vfg, k: usize) -> DemandEngine {
        let n = vfg.len();
        let sccs = vfg.condensation().sccs;
        let ctxs = CtxTable::new(k);
        let mut lanes = Lanes::new(n);
        let mut resolved = vec![false; n];
        let empty = ctxs.empty();
        lanes.set(vfg.f_root, empty);
        resolved[vfg.f_root as usize] = true;
        resolved[vfg.t_root as usize] = true;
        DemandEngine {
            ctxs,
            lanes,
            resolved,
            stats: DemandStats::default(),
            scratch: Vec::new(),
            queue: Vec::new(),
            queued: vec![false; n],
            mark: vec![0; n],
            comp_mark: vec![0; sccs],
            epoch: 0,
            n,
        }
    }

    /// Number of VFG nodes the engine covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the engine covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// Whether `v`'s SCC has been fully processed (its verdict is exact
    /// and memoized).
    pub fn is_resolved(&self, v: u32) -> bool {
        self.resolved[v as usize]
    }

    /// Answers "may `node` be undefined?" for one node, walking only its
    /// backward cone and reusing every SCC any earlier query resolved.
    ///
    /// The walk has two phases. **Discovery**: a DFS over `deps` edges
    /// from `node`, stopping at resolved frontier nodes, collects the
    /// touched SCCs; because `deps` is the exact transpose of `users`,
    /// the cone automatically contains every member of every touched SCC.
    /// **Propagation**: touched SCCs are processed in decreasing
    /// component id — the condensation's topological order, so every
    /// cross-SCC source is final before its target's fixpoint — by first
    /// pulling inbound lanes through each member's `deps` edges (skipping
    /// proven-`Top` sources: the refinement), then running the same
    /// intra-SCC worklist fixpoint the exhaustive engine runs, then
    /// marking the SCC resolved. The queried node's SCC has the minimum
    /// component id in the cone and is processed last, so an exhausted
    /// walk always leaves the queried node unresolved — never a stale
    /// non-exact memo.
    ///
    /// # Panics
    ///
    /// Panics when `vfg` is not the graph the engine was built against
    /// (detected by node count).
    pub fn query(&mut self, vfg: &Vfg, node: u32, budget: &Budget) -> QueryVerdict {
        assert_eq!(
            vfg.len(),
            self.n,
            "DemandEngine::query called with a different graph than it was built against"
        );
        self.stats.queries += 1;
        if self.resolved[node as usize] {
            self.stats.memo_hits += 1;
            return QueryVerdict {
                bot: !self.lanes.row_empty(node),
                complete: true,
            };
        }
        let cond = vfg.condensation();
        let mut poller = DeadlinePoller::new();
        self.epoch = self.epoch.wrapping_add(1);

        // Phase 1: backward cone discovery over `deps`, stopping at the
        // resolved frontier. Touched SCCs are recorded once each.
        let mut touched: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = vec![node];
        self.mark[node as usize] = self.epoch;
        let mut exhausted = false;
        while let Some(v) = stack.pop() {
            if !budget.charge(1) || poller.due(budget) {
                exhausted = true;
                break;
            }
            self.stats.nodes_visited += 1;
            let c = cond.comp[v as usize] as usize;
            if self.comp_mark[c] != self.epoch {
                self.comp_mark[c] = self.epoch;
                touched.push(c as u32);
            }
            for (d, _) in vfg.deps.edges(v) {
                if self.resolved[d as usize] || self.mark[d as usize] == self.epoch {
                    continue;
                }
                self.mark[d as usize] = self.epoch;
                stack.push(d);
            }
        }

        // Phase 2: process touched SCCs source-first (decreasing id).
        if !exhausted {
            touched.sort_unstable_by(|a, b| b.cmp(a));
            'sccs: for &c in &touched {
                let members = cond.members_of(c);
                if !budget.charge(members.len() as u64) || poller.due(budget) {
                    exhausted = true;
                    break 'sccs;
                }
                // Pull inbound lanes: every cross-SCC dependence source is
                // either resolved (final) or in a higher, already-processed
                // touched SCC. An empty source row is a proven Top —
                // refinement prunes the pull.
                for &w in members {
                    for (d, kind) in vfg.deps.edges(w) {
                        if cond.comp[d as usize] == c {
                            continue;
                        }
                        if self.lanes.row_empty(d) {
                            self.stats.refinements += 1;
                            continue;
                        }
                        if !budget.charge(1) || poller.due(budget) {
                            exhausted = true;
                            break 'sccs;
                        }
                        transfer(
                            &mut self.lanes,
                            &mut self.ctxs,
                            &mut self.scratch,
                            d,
                            w,
                            kind,
                        );
                    }
                }
                // Intra-SCC fixpoint, identical to the exhaustive engine.
                for &u in members {
                    if !self.lanes.row_empty(u) && !self.queued[u as usize] {
                        self.queue.push(u);
                        self.queued[u as usize] = true;
                    }
                }
                while let Some(u) = self.queue.pop() {
                    self.queued[u as usize] = false;
                    for (w, kind) in vfg.users.edges(u) {
                        if cond.comp[w as usize] != c {
                            continue;
                        }
                        if !budget.charge(1) || poller.due(budget) {
                            exhausted = true;
                            break 'sccs;
                        }
                        if transfer(
                            &mut self.lanes,
                            &mut self.ctxs,
                            &mut self.scratch,
                            u,
                            w,
                            kind,
                        ) && !self.queued[w as usize]
                        {
                            self.queue.push(w);
                            self.queued[w as usize] = true;
                        }
                    }
                }
                for &u in members {
                    self.resolved[u as usize] = true;
                }
            }
        }

        if exhausted {
            // Leave monotone state (lanes, resolved prefixes) for resume,
            // but clear the transient worklist.
            while let Some(u) = self.queue.pop() {
                self.queued[u as usize] = false;
            }
            self.stats.exhausted_queries += 1;
            return QueryVerdict {
                bot: true,
                complete: false,
            };
        }
        debug_assert!(self.resolved[node as usize]);
        QueryVerdict {
            bot: !self.lanes.row_empty(node),
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_module, VfgMode};
    use usher_frontend::compile_o0im;

    const SRC: &str = "
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

    fn vfg_for(src: &str) -> Vfg {
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        g
    }

    /// Exhaustive oracle: the walk engine's bot vector over `users`.
    fn oracle(vfg: &Vfg, k: usize) -> Vec<bool> {
        // Inline reference reachability (clone of the walk engine's
        // semantics) to avoid a dependency cycle with usher-core.
        let mut eng = DemandEngine::new(vfg, k);
        let b = Budget::unlimited();
        (0..vfg.len() as u32)
            .map(|v| eng.query(vfg, v, &b).bot)
            .collect()
    }

    #[test]
    fn roots_are_memoized_at_birth() {
        let g = vfg_for("def main() { print(1); }");
        let mut eng = DemandEngine::new(&g, 1);
        assert!(eng.is_resolved(g.f_root));
        assert!(eng.is_resolved(g.t_root));
        let b = Budget::unlimited();
        assert!(eng.query(&g, g.f_root, &b).bot, "F is Bot by definition");
        assert!(!eng.query(&g, g.t_root, &b).bot, "T is Top by definition");
        assert_eq!(eng.stats().memo_hits, 2, "roots answer from the memo");
    }

    #[test]
    fn check_queries_match_query_all_order_independence() {
        // Verdicts must not depend on query order: querying checks first
        // then everything, vs everything in node order, must agree.
        for k in [0usize, 1, 2] {
            let g = vfg_for(SRC);
            let all = oracle(&g, k);
            let mut eng = DemandEngine::new(&g, k);
            let b = Budget::unlimited();
            let mut check_nodes: Vec<u32> = g.checks.iter().map(|c| c.node).collect();
            check_nodes.reverse();
            for &c in &check_nodes {
                let v = eng.query(&g, c, &b);
                assert!(v.complete);
                assert_eq!(v.bot, all[c as usize], "check node {c} at k={k}");
            }
            for v in 0..g.len() as u32 {
                assert_eq!(eng.query(&g, v, &b).bot, all[v as usize], "node {v} k={k}");
            }
        }
    }

    #[test]
    fn second_query_is_a_memo_hit_with_no_new_visits() {
        let g = vfg_for(SRC);
        let mut eng = DemandEngine::new(&g, 1);
        let b = Budget::unlimited();
        let target = g.checks.first().expect("program has checks").node;
        let cold = eng.query(&g, target, &b);
        let after_cold = eng.stats();
        assert!(after_cold.nodes_visited > 0);
        assert_eq!(after_cold.memo_hits, 0);
        let warm = eng.query(&g, target, &b);
        let after_warm = eng.stats();
        assert_eq!(warm, cold);
        assert_eq!(after_warm.memo_hits, 1);
        assert_eq!(
            after_warm.nodes_visited, after_cold.nodes_visited,
            "a memo hit must not walk"
        );
    }

    #[test]
    fn exhausted_query_degrades_to_bot_and_resumes() {
        let g = vfg_for(SRC);
        let target = g.checks.last().expect("program has checks").node;
        let mut eng = DemandEngine::new(&g, 1);
        let full = eng.query(&g, target, &Budget::unlimited());
        assert!(full.complete);
        // Every starvation level: exhausted queries are Bot/incomplete,
        // and a follow-up unlimited query still lands on the exact value.
        for steps in 0..60 {
            let mut eng = DemandEngine::new(&g, 1);
            let v = eng.query(&g, target, &Budget::limited(steps));
            if v.complete {
                assert_eq!(v.bot, full.bot, "complete at {steps} must be exact");
            } else {
                assert!(v.bot, "exhausted query must degrade to Bot");
                assert!(!eng.is_resolved(target), "no stale memo after exhaustion");
                assert_eq!(eng.stats().exhausted_queries, 1);
                let resumed = eng.query(&g, target, &Budget::unlimited());
                assert!(resumed.complete);
                assert_eq!(resumed.bot, full.bot, "resume after {steps} steps");
            }
        }
    }

    #[test]
    fn refinement_prunes_proven_top_frontiers() {
        // `b + *p` in SRC depends on values that are partly proven Top;
        // once a query resolves those SCCs, a later overlapping query
        // must record refinements instead of re-pulling empty rows.
        let g = vfg_for(SRC);
        let mut eng = DemandEngine::new(&g, 1);
        let b = Budget::unlimited();
        for v in 0..g.len() as u32 {
            eng.query(&g, v, &b);
        }
        assert!(
            eng.stats().refinements > 0,
            "a program with Top stores must prune at least one pull: {:?}",
            eng.stats()
        );
    }

    #[test]
    fn deadline_poller_fires_on_expired_deadline() {
        let budget = Budget::new(None, Some(std::time::Duration::ZERO));
        let mut p = DeadlinePoller::new();
        let mut fired = false;
        for _ in 0..2 * DeadlinePoller::PERIOD {
            if p.due(&budget) {
                fired = true;
                break;
            }
        }
        assert!(fired, "an expired deadline must be seen within one period");
        let mut p = DeadlinePoller::new();
        let unlimited = Budget::unlimited();
        for _ in 0..2 * DeadlinePoller::PERIOD {
            assert!(!p.due(&unlimited));
        }
    }
}
