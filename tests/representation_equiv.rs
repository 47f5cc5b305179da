//! Representation-equivalence suite for the solver and graph
//! data-structure overhauls: the bitmap/interned/CSR implementations and
//! the condensation-based resolver must be invisible in every observable
//! result. Each generated workload is pushed through the pipeline twice
//! — once with the optimized pointer solver, CSR-first VFG builder and
//! condensed definedness resolver, once with the retained reference
//! implementations (adjacency-list [`usher::vfg::RefVfg`], visited-state
//! walk, clone-and-mutate Opt II) — and everything downstream is
//! compared: points-to sets, call graph, concreteness, the frozen VFG's
//! structure, the resolved `Gamma`, Opt II redirections, and the final
//! instrumentation plans (guided, Opt I, Opt II, and TL variants).
//!
//! Random inputs come from the repo's own deterministic workload
//! generator, so the suite needs no external property-testing crate.

use std::sync::Arc;

use usher::core::{
    guided_plan, redundant_check_elimination, redundant_check_elimination_reference, resolve,
    resolve_reference, Config, Gamma, GuidedOpts, Plan,
};

use usher::driver::{analyze_pointer, plan_fingerprint, Pipeline, PipelineOptions};
use usher::frontend::compile_o0im;
use usher::ir::{Budget, Module};
use usher::pointer::{analyze, analyze_reference, PointerAnalysis, PointerStrategy};
use usher::vfg::{build, build_memssa, build_reference, VfgMode};
use usher::workloads::{all_workloads, generate, ladder_config, GenConfig, Scale, SEED_LADDER};

const CONTEXT_DEPTH: usize = 1;

/// Every observable of the pointer analysis, via public accessors.
fn assert_pointer_equiv(m: &Module, new: &PointerAnalysis, old: &PointerAnalysis, tag: &str) {
    for (f, func) in m.funcs.iter_enumerated() {
        for (v, _) in func.vars.iter_enumerated() {
            assert_eq!(
                new.pts_var(f, v),
                old.pts_var(f, v),
                "{tag}: pts_var({f:?}, {v:?})"
            );
            assert_eq!(
                new.fn_targets(f, v),
                old.fn_targets(f, v),
                "{tag}: fn_targets({f:?}, {v:?})"
            );
        }
    }
    for (oid, _) in m.objects.iter_enumerated() {
        let fields = new.all_fields(oid);
        assert_eq!(fields, old.all_fields(oid), "{tag}: all_fields({oid:?})");
        for loc in fields {
            assert_eq!(
                new.pts_mem(loc),
                old.pts_mem(loc),
                "{tag}: pts_mem({loc:?})"
            );
            assert_eq!(
                new.is_concrete(loc),
                old.is_concrete(loc),
                "{tag}: is_concrete({loc:?})"
            );
            assert_eq!(
                new.is_single_cell(loc),
                old.is_single_cell(loc),
                "{tag}: is_single_cell({loc:?})"
            );
        }
    }
    assert_eq!(
        new.call_graph.callees, old.call_graph.callees,
        "{tag}: call graph callees"
    );
    assert_eq!(
        new.call_graph.callers, old.call_graph.callers,
        "{tag}: call graph callers"
    );
    assert_eq!(
        new.concrete_objects, old.concrete_objects,
        "{tag}: concrete objects"
    );
}

fn assert_gamma_equiv(n_nodes: usize, new: &Gamma, old: &Gamma, tag: &str) {
    for v in 0..n_nodes as u32 {
        assert_eq!(new.is_bot(v), old.is_bot(v), "{tag}: Gamma at node {v}");
    }
    assert_eq!(new.bot_count(), old.bot_count(), "{tag}: bot count");
}

fn assert_plan_equiv(new: &Plan, old: &Plan, tag: &str) {
    assert_eq!(new.stats, old.stats, "{tag}: plan stats");
    assert_eq!(new.before, old.before, "{tag}: before ops");
    assert_eq!(new.after, old.after, "{tag}: after ops");
    assert_eq!(new.entry, old.entry, "{tag}: entry ops");
    assert_eq!(new.tracked_phis, old.tracked_phis, "{tag}: tracked phis");
}

/// Runs both generations end to end over one module and compares every
/// observable. The reference side rebuilds its own memory SSA and
/// adjacency-list VFG so the two pipelines share nothing past the IR.
fn check_module(m: &Module, tag: &str) {
    let pa_new = analyze(m);
    let pa_old = analyze_reference(m);
    assert_pointer_equiv(m, &pa_new, &pa_old, tag);

    for (mode, mode_name) in [(VfgMode::Full, "full"), (VfgMode::TlOnly, "tl")] {
        let tag = format!("{tag}/{mode_name}");
        let ms_new = match mode {
            VfgMode::Full => build_memssa(m, &pa_new),
            VfgMode::TlOnly => Default::default(),
        };
        let ms_old = match mode {
            VfgMode::Full => build_memssa(m, &pa_old),
            VfgMode::TlOnly => Default::default(),
        };
        let g_new = build(m, &pa_new, &ms_new, mode);
        let rg_old = build_reference(m, &pa_old, &ms_old, mode);
        assert_eq!(g_new.len(), rg_old.len(), "{tag}: VFG size");
        // Frozen reference graph (CSR form) for plan construction; it
        // must equal the CSR-first build structurally.
        let g_old = rg_old.freeze();
        assert_eq!(g_new.nodes, g_old.nodes, "{tag}: node interning order");
        assert_eq!(g_new.deps, g_old.deps, "{tag}: dependence CSR");
        assert_eq!(g_new.users, g_old.users, "{tag}: user CSR");
        assert_eq!(g_new.checks, g_old.checks, "{tag}: checks");
        assert_eq!(g_new.def_site, g_old.def_site, "{tag}: def sites");
        assert_eq!(g_new.stats, g_old.stats, "{tag}: store-kind stats");

        let gamma_new = resolve(&g_new, CONTEXT_DEPTH);
        let gamma_old = resolve_reference(&rg_old, CONTEXT_DEPTH);
        assert_gamma_equiv(g_new.len(), &gamma_new, &gamma_old, &tag);

        // Opt II: the skip-predicate condensed re-resolution must match
        // the frozen clone-and-mutate surgery, redirection for
        // redirection and node for node.
        let o_new = redundant_check_elimination(m, &pa_new, &ms_new, &g_new, CONTEXT_DEPTH);
        let o_old =
            redundant_check_elimination_reference(m, &pa_old, &ms_old, &rg_old, CONTEXT_DEPTH);
        assert_eq!(
            o_new.redirected, o_old.redirected,
            "{tag}: Opt II redirected counts"
        );
        assert_gamma_equiv(
            g_new.len(),
            &o_new.gamma,
            &o_old.gamma,
            &format!("{tag}/opt2"),
        );

        let opt_variants = [
            GuidedOpts::default(),
            GuidedOpts {
                opt1: true,
                ..Default::default()
            },
            GuidedOpts {
                full_memory: true,
                ..Default::default()
            },
        ];
        for (i, opts) in opt_variants.into_iter().enumerate() {
            let plan_new = guided_plan(m, &pa_new, &ms_new, &g_new, &gamma_new, opts, "equiv");
            let plan_old = guided_plan(m, &pa_old, &ms_old, &g_old, &gamma_old, opts, "equiv");
            assert_plan_equiv(&plan_new, &plan_old, &format!("{tag}/opts{i}"));
        }

        // The full Usher configuration: Opt I planning over the Opt II
        // gamma, as the driver's Resolve + Instrument stages compose.
        let opt1 = GuidedOpts {
            opt1: true,
            ..Default::default()
        };
        let plan_new = guided_plan(m, &pa_new, &ms_new, &g_new, &o_new.gamma, opt1, "equiv");
        let plan_old = guided_plan(m, &pa_old, &ms_old, &g_old, &o_old.gamma, opt1, "equiv");
        assert_plan_equiv(&plan_new, &plan_old, &format!("{tag}/opt2-plan"));
    }
}

#[test]
fn generations_agree_on_small_seeds() {
    for seed in 0..20u64 {
        let cfg = GenConfig {
            helpers: 4 + (seed as usize % 5),
            max_stmts: 6 + (seed as usize % 4),
            uninit_pct: 35,
        };
        let src = generate(seed, cfg);
        let m = compile_o0im(&src).expect("generated workloads compile");
        check_module(&m, &format!("seed-{seed}"));
    }
}

#[test]
fn generations_agree_on_larger_workloads() {
    for (seed, helpers, stmts) in [(211u64, 24usize, 12usize), (223, 40, 12)] {
        let cfg = GenConfig {
            helpers,
            max_stmts: stmts,
            uninit_pct: 35,
        };
        let src = generate(seed, cfg);
        let m = compile_o0im(&src).expect("generated workloads compile");
        check_module(&m, &format!("large-{seed}"));
    }
}

#[test]
fn generations_agree_on_the_small_ladder_rungs() {
    // The rungs the timing gates in tests/perf_gates.rs measure (and
    // one more), fully checked.
    for &(seed, helpers, stmts) in &SEED_LADDER[..3] {
        let src = generate(seed, ladder_config(helpers, stmts));
        let m = compile_o0im(&src).expect("ladder rungs compile");
        check_module(&m, &format!("ladder-{seed}"));
    }
}

#[test]
fn gamma_and_opt2_agree_on_large_ladder_rungs() {
    // The larger rungs with cheap oracles: skip the per-location pointer
    // sweep and the plan variants (covered above) and compare the hot
    // observables — base Gamma, Opt II Gamma and the redirection count.
    for &(seed, helpers, stmts) in &SEED_LADDER[3..5] {
        let src = generate(seed, ladder_config(helpers, stmts));
        let m = compile_o0im(&src).expect("ladder rungs compile");
        let pa = analyze(&m);
        let ms = build_memssa(&m, &pa);
        let g = build(&m, &pa, &ms, VfgMode::Full);
        let rg = build_reference(&m, &pa, &ms, VfgMode::Full);
        assert_eq!(g.len(), rg.len(), "ladder-{seed}: VFG size");

        let gamma = resolve(&g, CONTEXT_DEPTH);
        let gamma_ref = resolve_reference(&rg, CONTEXT_DEPTH);
        assert_gamma_equiv(g.len(), &gamma, &gamma_ref, &format!("ladder-{seed}"));

        let o = redundant_check_elimination(&m, &pa, &ms, &g, CONTEXT_DEPTH);
        let o_ref = redundant_check_elimination_reference(&m, &pa, &ms, &rg, CONTEXT_DEPTH);
        assert_eq!(
            o.redirected, o_ref.redirected,
            "ladder-{seed}: Opt II redirected counts"
        );
        assert_gamma_equiv(
            g.len(),
            &o.gamma,
            &o_ref.gamma,
            &format!("ladder-{seed}/opt2"),
        );
    }
}

/// The strategy matrix on one module: the production solver and the
/// frozen reference, run through the driver, must produce byte-identical
/// pointer observables and full-Usher plans. The reference solver is the
/// oracle. Digests are compared within a strategy only (they fold in
/// per-strategy solver counters by design): two runs of the same
/// strategy must agree bit for bit, which is what the cache-key contract
/// — strategy name in the key, digest as the self-healing checksum —
/// relies on.
fn assert_strategies_agree(m: Module, tag: &str) {
    let m = Arc::new(m);
    let plan_of = |strategy: PointerStrategy| {
        let opts = PipelineOptions::from_config(Config::USHER).with_pointer_strategy(strategy);
        let run = Pipeline::new()
            .without_cache()
            .with_threads(1)
            .run_module(tag, m.clone(), opts);
        plan_fingerprint(&run.plan)
    };
    let oracle = analyze_pointer(&m, PointerStrategy::Reference, 1);
    let want_plan = plan_of(PointerStrategy::Reference);
    for strategy in PointerStrategy::ALL {
        let tag = format!("{tag}/{strategy}");
        let pa = analyze_pointer(&m, strategy, 1);
        assert_pointer_equiv(&m, &pa, &oracle, &tag);
        assert_eq!(
            pa.digest(),
            analyze_pointer(&m, strategy, 1).digest(),
            "{tag}: rerun digest"
        );
        assert_eq!(
            plan_of(strategy),
            want_plan,
            "{tag}: Usher plan fingerprint"
        );
    }
}

#[test]
fn every_pointer_strategy_agrees_on_the_ladder() {
    for &(seed, helpers, stmts) in &SEED_LADDER[..4] {
        let src = generate(seed, ladder_config(helpers, stmts));
        let m = compile_o0im(&src).expect("ladder rungs compile");
        assert_strategies_agree(m, &format!("ladder-{seed}"));
    }
}

#[test]
fn every_pointer_strategy_agrees_on_the_spec_programs() {
    // The SPEC-modelled programs have shapes the generated ladder lacks:
    // 176.gcc's expression evaluator once exposed a solver bug that no
    // rung hit.
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect("workloads compile");
        assert_strategies_agree(m, w.name);
    }
}

#[test]
fn budget_exhaustion_is_all_or_nothing_for_every_strategy() {
    // The degradation contract: a strategy either reaches the fixpoint
    // (byte-identical to the oracle) or reports `Exhausted` — never a
    // partial result. A one-step budget must exhaust every strategy on
    // a non-trivial module, and a fresh unlimited budget must reproduce
    // the oracle exactly.
    let (seed, helpers, stmts) = SEED_LADDER[2];
    let src = generate(seed, ladder_config(helpers, stmts));
    let m = compile_o0im(&src).expect("ladder rungs compile");
    let oracle = analyze_pointer(&m, PointerStrategy::Reference, 1);
    for strategy in PointerStrategy::ALL {
        let starved = strategy.analyze_budgeted(&m, &Budget::limited(1));
        assert!(
            starved.is_err(),
            "{strategy}: one step cannot reach the fixpoint"
        );
        let full = strategy
            .analyze_budgeted(&m, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust");
        assert_pointer_equiv(
            &m,
            &full,
            &oracle,
            &format!("{strategy}: post-exhaustion rerun"),
        );
    }
}

#[test]
fn demand_queries_agree_with_exhaustive_gamma_across_the_matrix() {
    // The demand-driven query engine must answer every check with
    // exactly the exhaustive resolver's verdict, whichever pointer
    // solver produced the underlying analysis — and
    // its cost counters must be deterministic: the same rung yields the
    // same [`DemandStats`] cell for cell across the whole matrix, which
    // is what makes the telemetry comparable across configurations.
    use usher::vfg::DemandEngine;
    for &(seed, helpers, stmts) in &SEED_LADDER[..3] {
        let src = generate(seed, ladder_config(helpers, stmts));
        let m = compile_o0im(&src).expect("ladder rungs compile");
        let mut want_stats = None;
        for strategy in PointerStrategy::ALL {
            let tag = format!("ladder-{seed}/{strategy}");
            let pa = analyze_pointer(&m, strategy, 1);
            let ms = build_memssa(&m, &pa);
            let g = build(&m, &pa, &ms, VfgMode::Full);
            let gamma = resolve(&g, CONTEXT_DEPTH);
            let mut eng = DemandEngine::new(&g, CONTEXT_DEPTH);
            assert!(!g.checks.is_empty(), "{tag}: rung must have checks");
            for (i, ch) in g.checks.iter().enumerate() {
                let v = eng.query(&g, ch.node, &Budget::unlimited());
                assert!(v.complete, "{tag}: unlimited query {i} must complete");
                assert_eq!(
                    v.bot,
                    gamma.is_bot(ch.node),
                    "{tag}: check {i} (node {})",
                    ch.node
                );
            }
            let stats = eng.stats();
            assert_eq!(stats.exhausted_queries, 0, "{tag}: nothing exhausts");
            assert_eq!(stats.queries, g.checks.len(), "{tag}: query count");
            match &want_stats {
                None => want_stats = Some(stats),
                Some(w) => assert_eq!(&stats, w, "{tag}: cost counters must not vary"),
            }
        }
    }
}

#[test]
fn demand_queries_agree_on_the_large_ladder_rungs() {
    // The remaining benchmark rungs with one representative analysis
    // each: verdict equivalence is the expensive invariant worth holding
    // at scale (the counter matrix above already pins determinism).
    use usher::vfg::DemandEngine;
    for &(seed, helpers, stmts) in &SEED_LADDER[3..] {
        let src = generate(seed, ladder_config(helpers, stmts));
        let m = compile_o0im(&src).expect("ladder rungs compile");
        let pa = analyze(&m);
        let ms = build_memssa(&m, &pa);
        let g = build(&m, &pa, &ms, VfgMode::Full);
        let gamma = resolve(&g, CONTEXT_DEPTH);
        let mut eng = DemandEngine::new(&g, CONTEXT_DEPTH);
        for (i, ch) in g.checks.iter().enumerate() {
            let v = eng.query(&g, ch.node, &Budget::unlimited());
            assert!(v.complete, "ladder-{seed}: query {i} must complete");
            assert_eq!(
                v.bot,
                gamma.is_bot(ch.node),
                "ladder-{seed}: check {i} (node {})",
                ch.node
            );
        }
        assert_eq!(eng.stats().exhausted_queries, 0);
    }
}

#[test]
fn context_bitlanes_spill_to_multiple_words_and_stay_exact() {
    // The condensed resolver packs contexts as bit lanes, 64 to a word.
    // Programs with more than 64 call sites force every row past one
    // word, exercising the strided multi-word path. The generator puts
    // one call site per helper in `main`, so `helpers > 64` guarantees
    // spilling at k = 1. Enumerate seeds until several such programs
    // have been checked exactly against the reference walk.
    // Note the generator maps seed to `seed | 1`, so only odd seeds are
    // distinct programs.
    let mut spilled = 0usize;
    for seed in (301..341u64).step_by(2) {
        let cfg = GenConfig {
            helpers: 160,
            max_stmts: 10,
            uninit_pct: 35,
        };
        let src = generate(seed, cfg);
        let m = compile_o0im(&src).expect("generated workloads compile");
        let pa = analyze(&m);
        let ms = build_memssa(&m, &pa);
        let g = build(&m, &pa, &ms, VfgMode::Full);
        let gamma = resolve(&g, CONTEXT_DEPTH);
        if gamma.stats.interned_contexts <= 64 {
            continue;
        }
        spilled += 1;
        let rg = build_reference(&m, &pa, &ms, VfgMode::Full);
        let gamma_ref = resolve_reference(&rg, CONTEXT_DEPTH);
        assert_gamma_equiv(g.len(), &gamma, &gamma_ref, &format!("spill-{seed}"));
        if spilled >= 3 {
            break;
        }
    }
    assert!(
        spilled >= 1,
        "no enumerated seed produced more than 64 interned contexts"
    );
}
