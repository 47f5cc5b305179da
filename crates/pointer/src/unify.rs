//! Unification prefilter: oversharing-safe offline variable substitution.
//!
//! Before the Andersen solver seeds any constraint, this pass builds the
//! *offline* copy graph — the copy/phi/return/direct-call-argument edges
//! between variable and return nodes that are known from the IR text
//! alone — and collapses two kinds of equivalence classes into one
//! representative each:
//!
//! 1. **Offline copy cycles.** Every node of a copy-edge SCC has the same
//!    points-to set at any inclusion fixpoint, so collapsing a cycle is
//!    always precision-preserving (the online cycle collapser would find
//!    the same cycle eventually; doing it offline is free).
//! 2. **Single-predecessor chains** (offline variable substitution). A
//!    class whose *only* inflow is copy edges from one other class, and
//!    none of whose members has any *direct* inflow (allocation results,
//!    load/gep destinations, constant operands, parameters reachable
//!    through indirect calls, …), provably ends with exactly its
//!    predecessor's points-to set — so it is unified into the
//!    predecessor.
//!
//! This is the "no oversharing" discipline: unlike a Steensgaard pass,
//! nothing is ever merged across a *store* or a *join of two different
//! sources*, so the collapsed system has the same least model as the
//! original (see DESIGN.md §12 for the argument). The solver pre-seeds
//! its union-find with the result, shrinking the graph Andersen
//! refinement runs on without changing anything it computes.
//!
//! Anything this pass cannot see offline — edges materialized at solve
//! time by load/store/call constraints — only ever *adds* inflow to nodes
//! marked direct here, which keeps the substitution sound:
//!
//! - load destinations get edges from memory nodes → marked direct;
//! - parameters of address-taken functions may be wired from indirect
//!   call sites → all marked direct (a function is address-taken iff an
//!   `Operand::Func` mentions it anywhere);
//! - indirect-call result variables get edges from unknown return
//!   nodes → marked direct;
//! - store/gep targets are memory nodes, outside this pass's domain
//!   (`0..mem_base`).
//!
//! The pass runs on every solve, so it is built to be allocation-lean:
//! one IR scan collects the edge list and the direct mask, and every
//! adjacency structure after that is a counted-and-filled CSR — no
//! per-node `Vec`s anywhere.

use usher_ir::{Callee, Idx, Inst, Module, Operand, Terminator};

use crate::andersen::NodeLayout;

/// The result of the prefilter: a union-find `parent` vector over the
/// variable/return node prefix (`0..mem_base`) of the solver's id space,
/// fully path-compressed, with deterministic minimum-id representatives.
pub(crate) struct Prefilter {
    /// `parent[n]` is `n`'s class representative (already compressed).
    pub(crate) parent: Vec<u32>,
    /// Number of multi-member classes.
    pub(crate) classes: usize,
    /// Number of nodes collapsed into some other representative.
    pub(crate) collapsed: usize,
}

/// Offline copy graph over `0..mem_base`: a flat `(to, from)` edge list
/// plus the direct-inflow mask.
struct Offline {
    edges: Vec<(u32, u32)>,
    direct: Vec<bool>,
}

impl Offline {
    fn edge(&mut self, from: u32, to: u32) {
        if from != to {
            self.edges.push((to, from));
        }
    }
}

/// Computes the oversharing-safe equivalence classes for `m`.
pub(crate) fn prefilter(m: &Module, layout: &NodeLayout) -> Prefilter {
    let n = layout.mem_base as usize;
    let mut g = Offline {
        // One edge per copy-ish inflow; the node count is a serviceable
        // first guess that spares the growth ladder's early reallocations.
        edges: Vec::with_capacity(n),
        direct: vec![false; n],
    };

    // Single IR scan: offline edges + direct-inflow marks (mirroring
    // exactly the inflow each `Solver::seed_inst` case can generate),
    // interleaved with the address-taken sweep. `Target::Func` values
    // only enter points-to sets through `Operand::Func` constants, so
    // only functions mentioned as an operand can be indirect targets.
    let mut addr_taken = vec![false; m.funcs.len()];
    for (f, func) in m.funcs.iter_enumerated() {
        for block in func.blocks.iter() {
            let mut mark = |op: Operand| {
                if let Operand::Func(g) = op {
                    addr_taken[g.index()] = true;
                }
            };
            for inst in &block.insts {
                inst.for_each_use(&mut mark);
                seed_offline(m, layout, &mut g, f, inst);
            }
            block.term.for_each_use(&mut mark);
            if let Terminator::Ret(Some(op)) = &block.term {
                inflow(layout, &mut g, f, *op, layout.ret_node(f));
            }
        }
    }
    for (f, func) in m.funcs.iter_enumerated() {
        if addr_taken[f.index()] {
            // Indirect wiring can flow any argument into these params.
            for &p in &func.params {
                g.direct[layout.var_node(f, p) as usize] = true;
            }
        }
    }

    // Predecessor CSR keyed by edge target (counted and filled; the fill
    // preserves edge-list order, so neighbor order — and with it every
    // downstream id assignment — is a function of the module alone).
    let mut poff = vec![0u32; n + 1];
    for &(to, _) in &g.edges {
        poff[to as usize + 1] += 1;
    }
    for i in 0..n {
        poff[i + 1] += poff[i];
    }
    let mut preds = vec![0u32; g.edges.len()];
    let mut cursor = poff.clone();
    for &(to, from) in &g.edges {
        let c = &mut cursor[to as usize];
        preds[*c as usize] = from;
        *c += 1;
    }

    // Tarjan SCC over the offline graph (iterative, on the transpose —
    // SCCs of a graph and its transpose coincide), then
    // single-predecessor substitution in topological order.
    let comp = condense(n, &poff, &preds);
    let nc = comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0);

    // Union-find with minimum-id representatives: deterministic and
    // independent of edge discovery order.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi as usize] = lo;
        }
    };

    // Per-component facts in one ascending node scan: the minimum-id
    // member (scanning ascending, the first one seen), the direct mask,
    // and — 3a — each nontrivial SCC collapsed into that minimum member
    // (always safe).
    const NONE: u32 = u32::MAX;
    let mut first = vec![NONE; nc];
    let mut comp_direct = vec![false; nc];
    for v in 0..n as u32 {
        let c = comp[v as usize] as usize;
        comp_direct[c] |= g.direct[v as usize];
        if first[c] == NONE {
            first[c] = v;
        } else {
            union(&mut parent, first[c], v);
        }
    }

    // Cross-component edge CSR keyed by target component, for the
    // single-predecessor check.
    let mut coff = vec![0u32; nc + 1];
    for &(to, from) in &g.edges {
        if comp[to as usize] != comp[from as usize] {
            coff[comp[to as usize] as usize + 1] += 1;
        }
    }
    for i in 0..nc {
        coff[i + 1] += coff[i];
    }
    let mut cpreds = vec![0u32; coff[nc] as usize];
    let mut ccur = coff.clone();
    for &(to, from) in &g.edges {
        if comp[to as usize] != comp[from as usize] {
            let c = &mut ccur[comp[to as usize] as usize];
            cpreds[*c as usize] = from;
            *c += 1;
        }
    }

    // 3b: offline variable substitution. Tarjan ran over the *transpose*
    // (predecessor lists), so copy-graph predecessors receive smaller
    // component ids; walking ids in increasing order visits predecessors
    // before successors. A component whose distinct predecessor
    // components reduce to one, none of whose members has direct inflow,
    // is unified into that predecessor. The predecessor is resolved
    // through the union-find so chains collapse transitively in one
    // pass; the order is a throughput choice, not a soundness one (a
    // stale representative only makes the single-predecessor check more
    // conservative).
    for c in 0..nc {
        if comp_direct[c] {
            continue;
        }
        let mut pred_rep: Option<u32> = None;
        let mut unifiable = true;
        for &p in &cpreds[coff[c] as usize..coff[c + 1] as usize] {
            let r = find(&mut parent, p);
            match pred_rep {
                None => pred_rep = Some(r),
                Some(prev) if prev == r => {}
                Some(_) => {
                    unifiable = false;
                    break;
                }
            }
        }
        if let (true, Some(r)) = (unifiable, pred_rep) {
            union(&mut parent, r, first[c]);
        }
    }

    // Full compression + stats.
    let mut collapsed = 0usize;
    let mut class_size = vec![0u32; n];
    for i in 0..n as u32 {
        let r = find(&mut parent, i);
        parent[i as usize] = r;
        class_size[r as usize] += 1;
        if r != i {
            collapsed += 1;
        }
    }
    let classes = class_size.iter().filter(|&&s| s > 1).count();
    Prefilter {
        parent,
        classes,
        collapsed,
    }
}

/// Adds either an offline copy edge `op → dst` (register operand) or a
/// direct-inflow mark on `dst` (pointer constant), matching
/// `Solver::flow_into`.
fn inflow(layout: &NodeLayout, g: &mut Offline, f: usher_ir::FuncId, op: Operand, dst: u32) {
    match op {
        Operand::Var(v) => g.edge(layout.var_node(f, v), dst),
        Operand::Global(_) | Operand::Func(_) => g.direct[dst as usize] = true,
        Operand::Const(_) | Operand::Undef => {}
    }
}

fn seed_offline(
    m: &Module,
    layout: &NodeLayout,
    g: &mut Offline,
    f: usher_ir::FuncId,
    inst: &Inst,
) {
    match inst {
        Inst::Copy { dst, src } => {
            inflow(layout, g, f, *src, layout.var_node(f, *dst));
        }
        Inst::Un { .. } | Inst::Bin { .. } => {}
        // Allocation results, gep shifts and loads inject targets the
        // offline graph cannot express as a copy edge.
        Inst::Alloc { dst, .. } | Inst::Gep { dst, .. } | Inst::Load { dst, .. } => {
            g.direct[layout.var_node(f, *dst) as usize] = true;
        }
        Inst::Store { .. } => {
            // Stores write memory nodes (outside `0..mem_base`); the value
            // operand is outflow, which never blocks substitution.
        }
        Inst::Call { dst, callee, args } => match callee {
            Callee::Direct(gid) => {
                // Mirror `wire_call`: args pair with params up to the
                // shorter list; the return node flows into `dst`.
                for (i, &p) in m.funcs[*gid].params.iter().enumerate().take(args.len()) {
                    inflow(layout, g, f, args[i], layout.var_node(*gid, p));
                }
                if let Some(d) = dst {
                    g.edge(layout.ret_node(*gid), layout.var_node(f, *d));
                }
            }
            Callee::Indirect(op) => {
                // The callee set is a solve-time discovery: the result
                // receives unknown return nodes. (Params of the possible
                // targets are already direct via the address-taken scan;
                // a constant `Operand::Func` callee is also wired through
                // that same conservative path.)
                if let Some(d) = dst {
                    g.direct[layout.var_node(f, *d) as usize] = true;
                }
                let _ = op;
            }
            Callee::External(_) => {}
        },
        Inst::Phi { dst, incomings } => {
            let d = layout.var_node(f, *dst);
            for (_, op) in incomings {
                inflow(layout, g, f, *op, d);
            }
        }
    }
}

/// Condensation of the offline graph: returns `comp`, where `comp[v]` is
/// `v`'s component id. Tarjan runs over the predecessor CSR (the
/// transpose), so a component's copy-graph predecessors are always
/// assigned *smaller* ids — ascending id order is a predecessors-first
/// topological order of the condensation DAG.
fn condense(n: usize, poff: &[u32], preds: &[u32]) -> Vec<u32> {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call_stack: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;

    // Most variable nodes never appear in the offline copy graph at
    // all; they are singleton components by construction, so the DFS
    // only ever visits nodes with at least one incident edge. Isolated
    // nodes get fresh component ids afterwards — they have no preds and
    // no succs, so their position in the topological id order is
    // irrelevant.
    let mut active = vec![false; n];
    for v in 0..n {
        if poff[v + 1] > poff[v] {
            active[v] = true;
        }
    }
    for &w in preds {
        active[w as usize] = true;
    }

    for root in 0..n as u32 {
        if !active[root as usize] || index[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, poff[root as usize]));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
            if *cursor < poff[v as usize + 1] {
                let w = preds[*cursor as usize];
                *cursor += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call_stack.push((w, poff[w as usize]));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (p, _)) = call_stack.last_mut() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    for c in comp.iter_mut() {
        if *c == UNVISITED {
            *c = next_comp;
            next_comp += 1;
        }
    }
    comp
}
