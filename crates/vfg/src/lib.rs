//! # usher-vfg
//!
//! Memory SSA and the interprocedural value-flow graph (VFG) of the Usher
//! reproduction — Sections 3.1 and 3.2 of the paper.
//!
//! The VFG captures def-use chains for both top-level (SSA registers) and
//! address-taken (memory versions) variables, connected across function
//! boundaries through virtual parameters, with the paper's two flavors of
//! strong updates (strong and semi-strong) applied at stores.

#![warn(missing_docs)]

pub mod build;
pub mod condense;
pub mod csr;
pub mod demand;
pub mod memssa;
pub mod printer;
pub mod reference;

pub use build::{
    build, build_with, build_with_budgeted, BuildOpts, Check, CheckKind, EdgeKind, NodeKind, Vfg,
    VfgMode, VfgStats,
};
pub use condense::Condensation;
pub use csr::Csr;
pub use demand::{DemandEngine, DemandStats, QueryVerdict};
pub use memssa::{
    build as build_memssa, build_function_ssa, build_function_ssa_budgeted, modref_summaries,
    modref_summaries_budgeted, ChiDef, FuncMemSsa, MemDef, MemDefKind, MemSsa, MemVerId, ModRef,
    MuUse, RegionPhi,
};
pub use printer::{print_annotated, print_module_annotated};
pub use reference::{build_reference, build_with_reference, RefVfg};

/// Convenience: pointer analysis + memory SSA + VFG in one call.
pub fn analyze_module(
    m: &usher_ir::Module,
    mode: VfgMode,
) -> (usher_pointer::PointerAnalysis, MemSsa, Vfg) {
    let pa = usher_pointer::analyze(m);
    let ms = match mode {
        VfgMode::Full => build_memssa(m, &pa),
        VfgMode::TlOnly => MemSsa::default(),
    };
    let g = build(m, &pa, &ms, mode);
    (pa, ms, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_frontend::compile_o0im;

    fn vfg_for(src: &str) -> (usher_ir::Module, Vfg) {
        let m = compile_o0im(src).expect("compiles");
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::Full);
        (m, g)
    }

    #[test]
    fn roots_exist_and_graph_nonempty() {
        let (_m, g) = vfg_for("def main() { print(1); }");
        assert!(!g.is_empty());
        assert_eq!(g.nodes[g.t_root as usize], NodeKind::RootT);
        assert_eq!(g.nodes[g.f_root as usize], NodeKind::RootF);
    }

    #[test]
    fn strong_update_at_unique_concrete_target() {
        // g is a global scalar: unique concrete target.
        let (_m, g) = vfg_for(
            "int g;
             def main() { g = 1; print(g); }",
        );
        assert_eq!(g.stats.strong_stores, 1);
        assert_eq!(g.stats.semi_strong_stores, 0);
        assert_eq!(g.stats.multi_target_stores, 0);
    }

    #[test]
    fn semi_strong_update_in_loop_per_figure_6() {
        // A fresh malloc in a loop body, stored through immediately: the
        // allocation dominates the store but the object is abstract.
        let (_m, g) = vfg_for(
            "def main() {
                 int i = 0;
                 while (i < 8) {
                     int *p;
                     p = malloc(1);
                     *p = i;
                     print(*p);
                     i = i + 1;
                 }
             }",
        );
        assert_eq!(g.stats.semi_strong_stores, 1, "{:?}", g.stats);
        assert_eq!(g.stats.strong_stores, 0);
    }

    #[test]
    fn weak_update_for_multi_target_store() {
        let (_m, g) = vfg_for(
            "int a; int b;
             def main(int c) {
                 int *p;
                 if (c) { p = &a; } else { p = &b; }
                 *p = 7;
                 print(a + b);
             }",
        );
        assert_eq!(g.stats.multi_target_stores, 1, "{:?}", g.stats);
    }

    #[test]
    fn array_stores_are_never_strong() {
        let (_m, g) = vfg_for(
            "int buf[16];
             def main() {
                 int i = 0;
                 while (i < 16) { buf[i] = i; i = i + 1; }
                 print(buf[3]);
             }",
        );
        assert_eq!(g.stats.strong_stores, 0, "{:?}", g.stats);
        assert_eq!(g.stats.semi_strong_stores, 0);
        assert_eq!(g.stats.weak_singleton_stores, 1);
    }

    #[test]
    fn checks_are_registered_for_critical_operations() {
        let (_m, g) = vfg_for(
            "int g;
             def main(int c) {
                 int *p = &g;
                 if (c) { *p = 1; }
                 print(*p);
             }",
        );
        let kinds: Vec<CheckKind> = g.checks.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&CheckKind::StoreAddr));
        assert!(kinds.contains(&CheckKind::LoadAddr));
        assert!(kinds.contains(&CheckKind::BranchCond));
    }

    #[test]
    fn tl_only_mode_has_no_memory_nodes() {
        let m = compile_o0im(
            "int g;
             def main() { g = 1; print(g); }",
        )
        .unwrap();
        let (_pa, _ms, g) = analyze_module(&m, VfgMode::TlOnly);
        assert!(g.nodes.iter().all(|n| !matches!(n, NodeKind::Mem(..))));
    }

    #[test]
    fn interprocedural_edges_are_labelled() {
        let (_m, g) = vfg_for(
            "def id(int x) -> int { return x; }
             def main() { print(id(3)); }",
        );
        let mut has_call = false;
        let mut has_ret = false;
        for k in &g.deps.kinds {
            match k {
                EdgeKind::Call(_) => has_call = true,
                EdgeKind::Ret(_) => has_ret = true,
                EdgeKind::Direct => {}
            }
        }
        assert!(has_call && has_ret);
    }

    #[test]
    fn undef_feeds_f_root() {
        // Reading an uninitialized promoted local produces Undef, which
        // must connect to F.
        let (_m, g) = vfg_for("def main() -> int { int x; return x + 1; }");
        assert!(g.users.degree(g.f_root) > 0, "something must depend on F");
    }

    #[test]
    fn csr_builder_matches_frozen_reference() {
        let src = "int g; int buf[4];
             def f(int x) -> int { if (x) { return x + 1; } return g; }
             def main(int c) {
                 int *p;
                 int i = 0;
                 while (i < 4) {
                     p = malloc(1);
                     *p = f(i);
                     buf[i] = *p;
                     i = i + 1;
                 }
                 if (c) { g = buf[2]; }
                 print(g);
             }";
        let m = compile_o0im(src).expect("compiles");
        for mode in [VfgMode::Full, VfgMode::TlOnly] {
            let pa = usher_pointer::analyze(&m);
            let ms = match mode {
                VfgMode::Full => build_memssa(&m, &pa),
                VfgMode::TlOnly => MemSsa::default(),
            };
            let new = build(&m, &pa, &ms, mode);
            let old = build_reference(&m, &pa, &ms, mode).freeze();
            assert_eq!(new.nodes, old.nodes, "{mode:?}: node interning order");
            assert_eq!(new.deps.offsets, old.deps.offsets, "{mode:?}: dep offsets");
            assert_eq!(new.deps.targets, old.deps.targets, "{mode:?}: dep targets");
            assert_eq!(new.deps.kinds, old.deps.kinds, "{mode:?}: dep kinds");
            assert_eq!(
                new.users.offsets, old.users.offsets,
                "{mode:?}: user offsets"
            );
            assert_eq!(
                new.users.targets, old.users.targets,
                "{mode:?}: user targets"
            );
            assert_eq!(new.users.kinds, old.users.kinds, "{mode:?}: user kinds");
            assert_eq!(new.checks, old.checks, "{mode:?}: checks");
            assert_eq!(new.def_site, old.def_site, "{mode:?}: def sites");
            assert_eq!(new.stats, old.stats, "{mode:?}: stats");
        }
    }

    #[test]
    fn dot_export_mentions_roots() {
        let (m, g) = vfg_for("def main() { print(1); }");
        let dot = g.to_dot(&m);
        assert!(dot.contains("digraph vfg"));
        assert!(dot.contains("label=\"T\""));
        assert!(dot.contains("label=\"F\""));
    }
}
