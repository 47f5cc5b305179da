//! # usher-core
//!
//! The paper's primary contribution: definedness resolution over the VFG
//! (Section 3.3), guided instrumentation (Section 3.4, Figure 7), and the
//! two VFG-based optimizations (Section 3.5) — value-flow simplification
//! over must-flow-from closures (Opt I) and dominance-based redundant
//! check elimination (Opt II, Algorithm 1) — plus the MSan-style full
//! instrumentation baseline and the Table 1 statistics collector.
//!
//! The usual entry point is [`run_config`] with one of the presets in
//! [`Config`]:
//!
//! ```
//! use usher_core::{run_config, Config};
//!
//! let m = usher_frontend::compile_o0im(
//!     "def main() -> int { int x; if (input()) { x = 1; } return x; }",
//! ).unwrap();
//! let msan = run_config(&m, Config::MSAN);
//! let usher = run_config(&m, Config::USHER);
//! assert!(usher.plan.stats.propagations <= msan.plan.stats.propagations);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod instrument;
pub mod mfc;
pub mod opt2;
pub mod resolve;
pub mod stats;

pub use config::{run_config, AnalysisOutput, Config, UsherConfig};
pub use instrument::{
    full_plan, full_plan_func, full_plan_with, guided_plan, guided_plan_with_fallback,
    stamp_provenance, GuidedOpts, Plan, PlanProvenance, PlanStats, ShadowOp, ShadowSrc,
};
pub use mfc::{mfc, Mfc, MfcScratch};
pub use opt2::{
    redundant_check_elimination, redundant_check_elimination_budgeted,
    redundant_check_elimination_reference, Opt2Outcome, Opt2Result,
};
pub use resolve::{
    resolve, resolve_budgeted, resolve_condensed, resolve_condensed_budgeted, resolve_graph,
    resolve_graph_reference, resolve_reference, Definedness, Gamma, ResolveStats,
};
pub use stats::{
    nodes_reaching_checks, render_table1, table1_row, table1_row_from, AnalysisFacts, Table1Row,
};

#[cfg(test)]
mod tests {
    use super::*;
    use usher_frontend::compile_o0im;

    fn plans_for(src: &str) -> Vec<(String, PlanStats)> {
        let m = compile_o0im(src).unwrap();
        Config::ALL
            .iter()
            .map(|c| {
                let out = run_config(&m, *c);
                (c.name.to_string(), out.plan.stats)
            })
            .collect()
    }

    #[test]
    fn fully_defined_program_needs_no_guided_instrumentation() {
        let m = compile_o0im(
            "def main() -> int {
                 int x = 1;
                 int y = x + 2;
                 print(y);
                 return 0;
             }",
        )
        .unwrap();
        let out = run_config(&m, Config::USHER_TL_AT);
        assert_eq!(out.plan.stats.checks, 0, "{:?}", out.plan.stats);
        assert_eq!(out.plan.stats.propagations, 0);
    }

    #[test]
    fn full_plan_instruments_everything() {
        let m = compile_o0im(
            "int g;
             def main() -> int { int *p = &g; *p = input(); return *p; }",
        )
        .unwrap();
        let out = run_config(&m, Config::MSAN);
        assert!(out.plan.stats.ops > 0);
        // Full instrumentation checks the pointer at the store and load.
        assert!(out.plan.stats.checks >= 2, "{:?}", out.plan.stats);
    }

    #[test]
    fn guided_never_exceeds_full_instrumentation() {
        let src = "
            int table[32];
            def fill(int n) {
                int i = 0;
                while (i < n) { table[i] = i * 3; i = i + 1; }
            }
            def sum(int n) -> int {
                int s;
                int i = 0;
                while (i < n) { s = s + table[i]; i = i + 1; }
                return s;
            }
            def main() -> int { fill(16); return sum(16); }";
        let plans = plans_for(src);
        let full = plans[0].1;
        for (name, stats) in &plans[1..] {
            assert!(
                stats.propagations <= full.propagations,
                "{name}: {stats:?} vs full {full:?}"
            );
            assert!(stats.checks <= full.checks, "{name}");
        }
    }

    #[test]
    fn variant_ordering_matches_paper_on_pointer_heavy_code() {
        // TL+AT must beat TL when address-taken traffic dominates.
        let src = "
            int buf[64];
            def main() -> int {
                int i = 0;
                int s = 0;
                while (i < 64) { buf[i] = i; i = i + 1; }
                i = 0;
                while (i < 64) { s = s + buf[i]; i = i + 1; }
                if (s > 0) { print(s); }
                return 0;
            }";
        let plans = plans_for(src);
        let get = |n: &str| plans.iter().find(|(name, _)| name == n).unwrap().1;
        let tl = get("Usher_TL");
        let tlat = get("Usher_TL+AT");
        assert!(
            tlat.propagations < tl.propagations,
            "TL+AT {tlat:?} should beat TL {tl:?} here"
        );
        // Everything is actually defined: full Usher drops all checks.
        let usher = get("Usher");
        assert_eq!(usher.checks, 0, "{usher:?}");
    }

    #[test]
    fn genuinely_undefined_use_keeps_its_check() {
        let src = "
            def main() -> int {
                int x;
                if (input()) { x = 1; }
                if (x > 0) { print(1); }
                return 0;
            }";
        let m = compile_o0im(src).unwrap();
        for c in Config::ALL {
            let out = run_config(&m, c);
            assert!(
                out.plan.stats.checks >= 1,
                "{}: the possibly-undefined branch must stay checked",
                c.name
            );
        }
    }

    #[test]
    fn opt2_suppresses_dominated_duplicate_check() {
        // The same possibly-undefined value feeds two branches; the first
        // dominates the second, so Opt II drops the second check.
        let src = "
            def main() -> int {
                int x;
                if (input()) { x = 1; }
                if (x > 0) { print(1); }
                if (x > 1) { print(2); }
                return 0;
            }";
        let m = compile_o0im(src).unwrap();
        let no_opt2 = run_config(&m, Config::USHER_OPT1);
        let with_opt2 = run_config(&m, Config::USHER);
        assert!(
            with_opt2.plan.stats.checks < no_opt2.plan.stats.checks,
            "opt2 {:?} vs opt1 {:?}",
            with_opt2.plan.stats,
            no_opt2.plan.stats
        );
        assert!(with_opt2.opt2_redirected > 0);
    }

    #[test]
    fn opt1_reduces_propagations_on_arithmetic_chains() {
        let src = "
            def main() -> int {
                int u;
                if (input()) { u = input(); }
                int a = u + 1;
                int b = a * 2;
                int c = b - 3;
                int d = c / 2;
                if (d) { print(d); }
                return 0;
            }";
        let m = compile_o0im(src).unwrap();
        let plain = run_config(&m, Config::USHER_TL_AT);
        let opt1 = run_config(&m, Config::USHER_OPT1);
        assert!(
            opt1.plan.stats.propagations < plain.plan.stats.propagations,
            "opt1 {:?} vs plain {:?}",
            opt1.plan.stats,
            plain.plan.stats
        );
        assert!(opt1.plan.stats.mfcs_simplified > 0);
    }

    #[test]
    fn table1_row_populates_all_columns() {
        let src = "
            int g; int arr[8];
            struct P { int a; int b; };
            def main() -> int {
                struct P *p;
                p = malloc(1);
                p->a = 1;
                int i = 0;
                while (i < 8) { arr[i] = p->a; i = i + 1; }
                g = arr[3];
                return g;
            }";
        let m = compile_o0im(src).unwrap();
        let row = table1_row("toy", src, &m);
        assert!(row.var_tl > 0);
        assert_eq!(row.at_global, 2);
        assert!(row.at_heap >= 1);
        assert!(row.vfg_nodes > 0);
        assert!(row.pct_b > 0.0);
        assert!(row.pct_uninit > 0.0);
        let rendered = render_table1(&[row]);
        assert!(rendered.contains("toy"));
    }
}
