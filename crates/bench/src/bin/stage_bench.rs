//! Stage benchmark: times all ten driver stages end-to-end over the
//! workload-generator seed ladder, plus focused before/after rungs for
//! the three overhauled analysis stages — pointer analysis (the
//! production prefiltered solver vs the frozen reference), VFG
//! construction (CSR-first builder vs the frozen adjacency-list
//! reference) and definedness resolution (SCC condensation + context
//! bit-lanes vs the frozen visited-state walk).
//!
//! The resolve rung measures the *same work as the driver's Resolve
//! stage*: Opt II discovery plus re-resolution, on both sides. Every
//! timing is gated by in-process cross-checks — frozen-reference freeze
//! must be structurally identical to the CSR-first build, all `Gamma`s
//! must agree node-for-node, Opt II must redirect the same nodes, and
//! the final instrumentation plans must be byte-identical.
//!
//! A demand rung per workload times the `usher serve` point-query
//! scenario — a fresh [`DemandEngine`] answering one check versus a cold
//! full resolve — with the verdict cross-checked against the exhaustive
//! resolver.
//!
//! Emits one JSON object (the `BENCH_stages.json` format) on stdout;
//! `scripts/bench.sh` redirects it into the repo. Full runs additionally
//! write `BENCH_demand.json` (the demand rungs alone), which is checked
//! in as the record the quick gate asserts against.
//!
//! Usage: `stage_bench [--quick]` (`--quick` = two smoke rungs, fewer
//! iterations, and regression guards: exits nonzero if the pointer solve
//! or the condensed vfg+resolve pipeline is slower than its frozen
//! reference, if a live demand query exceeds the gate with slack, or if
//! the checked-in `BENCH_demand.json` records a gen-131 query at or
//! above 10% of a cold full resolve).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use usher_core::{
    guided_plan, redundant_check_elimination, redundant_check_elimination_reference, resolve,
    resolve_reference, Config, GuidedOpts,
};
use usher_driver::{analyze_pointer, plan_fingerprint, Pipeline, PipelineOptions};
use usher_ir::{Budget, Module};
use usher_pointer::{PointerAnalysis, PointerStrategy};
use usher_vfg::{build, build_memssa, build_reference, DemandEngine, Vfg, VfgMode};
use usher_workloads::{generate, ladder_config, SEED_LADDER};

const CONTEXT_DEPTH: usize = 1;

/// The demand gate: a single cold point query on the largest rung must
/// cost under this fraction of a cold full resolve (the checked-in
/// `BENCH_demand.json` is the record of evidence; `--quick` re-asserts
/// it without re-timing the big rung).
const DEMAND_RATIO_GATE: f64 = 0.10;

/// Live `--quick` rungs are small (fixed per-query overheads weigh
/// more) and CI machines are noisy, so the live gate gets 3x slack.
const DEMAND_QUICK_SLACK: f64 = 3.0;

/// The rung the checked-in demand gate pins (the ladder's largest).
const DEMAND_GATE_RUNG: &str = "gen-131";

/// Pulls `"ratio":<f64>` out of the named workload's object in a
/// checked-in `BENCH_demand.json`, with a deliberately naive string
/// scan — the bench format is flat and machine-written, and the bench
/// crates stay free of parser dependencies.
fn checked_in_demand_ratio(text: &str, rung: &str) -> Option<f64> {
    let at = text.find(&format!("\"name\":\"{rung}\""))?;
    let rest = &text[at..];
    let tail = &rest[rest.find("\"ratio\":")? + "\"ratio\":".len()..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// The driver stages in execution order (for stable JSON key order).
const STAGE_NAMES: [&str; 10] = [
    "parse",
    "lower",
    "inline",
    "mem2reg",
    "opt",
    "pointer",
    "memssa",
    "vfg",
    "resolve",
    "instrument",
];

fn time_min<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The frozen reference and the CSR-first builder must produce the same
/// graph, bit for bit: same node interning order, same deduplicated
/// dependence CSR, same transposed user CSR, same checks and stats.
fn assert_freeze_equal(g: &Vfg, frozen: &Vfg, tag: &str) {
    assert_eq!(g.nodes, frozen.nodes, "{tag}: node tables differ");
    assert_eq!(g.deps.offsets, frozen.deps.offsets, "{tag}: deps offsets");
    assert_eq!(g.deps.targets, frozen.deps.targets, "{tag}: deps targets");
    assert_eq!(g.deps.kinds, frozen.deps.kinds, "{tag}: deps kinds");
    assert_eq!(
        g.users.offsets, frozen.users.offsets,
        "{tag}: users offsets"
    );
    assert_eq!(
        g.users.targets, frozen.users.targets,
        "{tag}: users targets"
    );
    assert_eq!(g.users.kinds, frozen.users.kinds, "{tag}: users kinds");
    assert_eq!(g.def_site, frozen.def_site, "{tag}: def sites");
    assert_eq!(g.checks.len(), frozen.checks.len(), "{tag}: check count");
    assert_eq!(g.stats, frozen.stats, "{tag}: store-kind stats");
}

/// The production solver must agree with the frozen reference on
/// everything downstream stages consume: per-variable points-to sets and
/// function targets, per-object field classes and memory rows,
/// concreteness and the call graph.
fn assert_pointer_equiv(m: &Module, a: &PointerAnalysis, b: &PointerAnalysis, tag: &str) {
    for (f, func) in m.funcs.iter_enumerated() {
        for (v, _) in func.vars.iter_enumerated() {
            assert_eq!(a.pts_var(f, v), b.pts_var(f, v), "{tag}: pts({f:?},{v:?})");
            assert_eq!(
                a.fn_targets(f, v),
                b.fn_targets(f, v),
                "{tag}: fn_targets({f:?},{v:?})"
            );
        }
    }
    for (o, _) in m.objects.iter_enumerated() {
        let fields = a.all_fields(o);
        assert_eq!(fields, b.all_fields(o), "{tag}: fields({o:?})");
        for l in fields {
            assert_eq!(a.pts_mem(l), b.pts_mem(l), "{tag}: pts_mem({l:?})");
            assert_eq!(a.is_concrete(l), b.is_concrete(l), "{tag}: concrete({l:?})");
        }
    }
    assert_eq!(
        a.call_graph.callees, b.call_graph.callees,
        "{tag}: call graphs differ"
    );
    assert_eq!(
        a.concrete_objects, b.concrete_objects,
        "{tag}: concrete object sets differ"
    );
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (rungs, iters): (&[(u64, usize, usize)], usize) = if quick {
        (&SEED_LADDER[..2], 2)
    } else {
        (&SEED_LADDER, 5)
    };

    let usher_opts = GuidedOpts {
        opt1: true,
        full_memory: false,
        bit_level: false,
    };

    let mut workloads = String::new();
    let mut demand_workloads = String::new();
    let mut largest: Option<(String, f64, f64, f64, f64, f64)> = None;
    let mut regression = false;

    for (i, &(seed, helpers, stmts)) in rungs.iter().enumerate() {
        let src = generate(seed, ladder_config(helpers, stmts));
        let name = format!("gen-{seed}");
        let m = usher_frontend::compile_o0im(&src).expect("generated workloads compile");

        // Shared upstream artifacts for the vfg/resolve rungs.
        let pa = usher_pointer::analyze(&m);
        let ms = build_memssa(&m, &pa);

        // ---- correctness gates --------------------------------------
        let rg = build_reference(&m, &pa, &ms, VfgMode::Full);
        let g = build(&m, &pa, &ms, VfgMode::Full);
        assert_freeze_equal(&g, &rg.freeze(), &name);

        let gamma = resolve(&g, CONTEXT_DEPTH);
        let gamma_ref = resolve_reference(&rg, CONTEXT_DEPTH);
        for v in 0..g.len() as u32 {
            assert_eq!(
                gamma.is_bot(v),
                gamma_ref.is_bot(v),
                "{name}: resolver generations disagree at node {v}"
            );
        }

        let opt2 = redundant_check_elimination(&m, &pa, &ms, &g, CONTEXT_DEPTH);
        let opt2_ref = redundant_check_elimination_reference(&m, &pa, &ms, &rg, CONTEXT_DEPTH);
        assert_eq!(
            opt2.redirected, opt2_ref.redirected,
            "{name}: Opt II redirection counts disagree"
        );
        for v in 0..g.len() as u32 {
            assert_eq!(
                opt2.gamma.is_bot(v),
                opt2_ref.gamma.is_bot(v),
                "{name}: Opt II gammas disagree at node {v}"
            );
        }

        let plan = guided_plan(&m, &pa, &ms, &g, &opt2.gamma, usher_opts, "bench");
        let plan_ref = guided_plan(
            &m,
            &pa,
            &ms,
            &rg.freeze(),
            &opt2_ref.gamma,
            usher_opts,
            "bench",
        );
        assert_eq!(
            plan_fingerprint(&plan),
            plan_fingerprint(&plan_ref),
            "{name}: instrumentation plans are not byte-identical"
        );

        // The production solver must agree with the frozen reference on
        // all observables.
        let pa_ref = usher_pointer::analyze_reference(&m);
        assert_pointer_equiv(&m, &pa, &pa_ref, &name);

        // ---- all ten driver stages + end-to-end ---------------------
        let mut stage_ms = [f64::INFINITY; STAGE_NAMES.len()];
        let mut total_ms = f64::INFINITY;
        for _ in 0..iters {
            let pipe = Pipeline::new().without_cache().with_threads(1);
            let run = pipe
                .run_source(&name, &src, PipelineOptions::from_config(Config::USHER))
                .expect("pipeline runs");
            for st in &run.report.stages {
                let slot = STAGE_NAMES
                    .iter()
                    .position(|n| *n == st.stage.name())
                    .expect("known stage");
                stage_ms[slot] = stage_ms[slot].min(st.seconds * 1e3);
            }
            total_ms = total_ms.min(run.report.total_seconds * 1e3);
        }

        // ---- before/after rungs -------------------------------------
        let t_pointer_before =
            time_min(iters, || analyze_pointer(&m, PointerStrategy::Reference, 1));
        let t_pointer_after =
            time_min(iters, || analyze_pointer(&m, PointerStrategy::Prefilter, 1));

        let t_vfg_before = time_min(iters, || build_reference(&m, &pa, &ms, VfgMode::Full));
        let t_vfg_after = time_min(iters, || build(&m, &pa, &ms, VfgMode::Full));

        // The resolve rung is the driver's Resolve stage: Opt II
        // discovery plus re-resolution. The condensed side rebuilds the
        // VFG outside the timed region each iteration so every sample
        // pays for the SCC condensation, exactly as a driver run does.
        let t_resolve_before = time_min(iters, || {
            redundant_check_elimination_reference(&m, &pa, &ms, &rg, CONTEXT_DEPTH)
        });
        let t_resolve_after = {
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let g_fresh = build(&m, &pa, &ms, VfgMode::Full);
                let t = Instant::now();
                std::hint::black_box(redundant_check_elimination(
                    &m,
                    &pa,
                    &ms,
                    &g_fresh,
                    CONTEXT_DEPTH,
                ));
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };

        // ---- demand point-query rung --------------------------------
        // The `usher serve` scenario: the session's VFG is analyzed
        // (its condensation is memoized by the resolve gates above), and
        // a `query-use` answers one check. The cold side pays engine
        // construction plus the sparse backward walk; the resolve side
        // pays a full cold resolution, graph rebuilt outside the timed
        // region so every sample includes the condensation, exactly as
        // a fresh analyze does.
        let t_resolve_cold = {
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let g_fresh = build(&m, &pa, &ms, VfgMode::Full);
                let t = Instant::now();
                std::hint::black_box(resolve(&g_fresh, CONTEXT_DEPTH));
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };
        let check_node = g.checks.first().map(|c| c.node).expect("rungs have checks");
        let t_query_cold = time_min(iters, || {
            let mut eng = DemandEngine::new(&g, CONTEXT_DEPTH);
            eng.query(&g, check_node, &Budget::unlimited())
        });
        let t_query_memo = {
            let mut eng = DemandEngine::new(&g, CONTEXT_DEPTH);
            let v = eng.query(&g, check_node, &Budget::unlimited());
            assert_eq!(
                v.bot,
                gamma.is_bot(check_node),
                "{name}: demand verdict disagrees with the exhaustive resolver"
            );
            time_min(iters, || eng.query(&g, check_node, &Budget::unlimited()))
        };
        let d_ratio = t_query_cold / t_resolve_cold.max(1e-9);
        if quick && d_ratio > DEMAND_RATIO_GATE * DEMAND_QUICK_SLACK {
            eprintln!(
                "REGRESSION: {name}: cold demand query {:.3}ms is {:.2}x a cold full \
                 resolve {:.3}ms (live gate {:.2})",
                t_query_cold * 1e3,
                d_ratio,
                t_resolve_cold * 1e3,
                DEMAND_RATIO_GATE * DEMAND_QUICK_SLACK,
            );
            regression = true;
        }

        let p_speedup = t_pointer_before / t_pointer_after.max(1e-9);
        let v_speedup = t_vfg_before / t_vfg_after.max(1e-9);
        let r_speedup = t_resolve_before / t_resolve_after.max(1e-9);
        let combined =
            (t_vfg_before + t_resolve_before) / (t_vfg_after + t_resolve_after).max(1e-9);
        if quick && combined < 1.0 {
            eprintln!(
                "REGRESSION: {name}: condensed vfg+resolve {:.3}ms is slower than the \
                 frozen reference {:.3}ms (combined speedup {combined:.2}x)",
                (t_vfg_after + t_resolve_after) * 1e3,
                (t_vfg_before + t_resolve_before) * 1e3,
            );
            regression = true;
        }
        if quick && p_speedup < 1.0 {
            eprintln!(
                "REGRESSION: {name}: prefilter pointer solve {:.3}ms is slower than \
                 the frozen reference {:.3}ms ({p_speedup:.2}x)",
                t_pointer_after * 1e3,
                t_pointer_before * 1e3,
            );
            regression = true;
        }

        let rs = opt2.gamma.stats;
        let _ = write!(
            workloads,
            "{}{{\"name\":\"{name}\",\"seed\":{seed},\"helpers\":{helpers},\"source_bytes\":{},\"vfg_nodes\":{}",
            if i > 0 { "," } else { "" },
            src.len(),
            g.len(),
        );
        let _ = write!(workloads, ",\"stages_ms\":{{");
        for (j, n) in STAGE_NAMES.iter().enumerate() {
            let _ = write!(
                workloads,
                "{}\"{n}\":{:.3}",
                if j > 0 { "," } else { "" },
                stage_ms[j],
            );
        }
        let _ = write!(workloads, ",\"total\":{total_ms:.3}}}");
        let _ = write!(
            workloads,
            ",\"pointer\":{{\"before_ms\":{:.3},\"after_ms\":{:.3},\"speedup\":{:.2}}},\
             \"vfg\":{{\"before_ms\":{:.3},\"after_ms\":{:.3},\"speedup\":{:.2}}},\
             \"resolve\":{{\"before_ms\":{:.3},\"after_ms\":{:.3},\"speedup\":{:.2}}},\
             \"combined_vfg_resolve_speedup\":{combined:.2},\
             \"sccs\":{},\"nontrivial_sccs\":{},\"word_ops\":{},\
             \"contexts\":{},\"visited_states\":{},\"bot_nodes\":{},\"opt2_redirected\":{},\
             \"semi_strong_stores\":{},\
             \"demand\":{{\"resolve_cold_ms\":{:.3},\"query_cold_ms\":{:.3},\
             \"query_memo_ms\":{:.4},\"ratio\":{:.4}}}}}",
            t_pointer_before * 1e3,
            t_pointer_after * 1e3,
            p_speedup,
            t_vfg_before * 1e3,
            t_vfg_after * 1e3,
            v_speedup,
            t_resolve_before * 1e3,
            t_resolve_after * 1e3,
            r_speedup,
            rs.sccs,
            rs.nontrivial_sccs,
            rs.word_ops,
            rs.interned_contexts,
            rs.visited_states,
            opt2.gamma.bot_count(),
            opt2.redirected,
            g.stats.semi_strong_stores,
            t_resolve_cold * 1e3,
            t_query_cold * 1e3,
            t_query_memo * 1e3,
            d_ratio,
        );
        let _ = write!(
            demand_workloads,
            "{}{{\"name\":\"{name}\",\"vfg_nodes\":{},\"checks\":{},\
             \"resolve_cold_ms\":{:.3},\"query_cold_ms\":{:.3},\"query_memo_ms\":{:.4},\
             \"ratio\":{:.4}}}",
            if i > 0 { "," } else { "" },
            g.len(),
            g.checks.len(),
            t_resolve_cold * 1e3,
            t_query_cold * 1e3,
            t_query_memo * 1e3,
            d_ratio,
        );
        largest = Some((
            name.clone(),
            p_speedup,
            v_speedup,
            r_speedup,
            combined,
            d_ratio,
        ));
        eprintln!(
            "{name} helpers={helpers} nodes={} pointer {:.2}ms -> {:.2}ms ({p_speedup:.2}x) vfg {:.2}ms -> {:.2}ms ({v_speedup:.2}x) \
             resolve {:.2}ms -> {:.2}ms ({r_speedup:.2}x) combined {combined:.2}x \
             demand-query {:.3}ms/{:.3}ms ({:.1}% of cold resolve) total {total_ms:.1}ms",
            g.len(),
            t_pointer_before * 1e3,
            t_pointer_after * 1e3,
            t_vfg_before * 1e3,
            t_vfg_after * 1e3,
            t_resolve_before * 1e3,
            t_resolve_after * 1e3,
            t_query_cold * 1e3,
            t_resolve_cold * 1e3,
            d_ratio * 100.0,
        );
    }

    if quick {
        // The big-rung demand gate, asserted from the checked-in record
        // instead of re-timing gen-131 (which would dwarf the smoke
        // budget). `scripts/bench.sh` refreshes the record.
        match std::fs::read_to_string("BENCH_demand.json")
            .ok()
            .as_deref()
            .and_then(|t| checked_in_demand_ratio(t, DEMAND_GATE_RUNG))
        {
            Some(r) if r < DEMAND_RATIO_GATE => eprintln!(
                "checked-in demand gate: {DEMAND_GATE_RUNG} point query at {:.1}% of a \
                 cold full resolve (< {:.0}%)",
                r * 100.0,
                DEMAND_RATIO_GATE * 100.0,
            ),
            Some(r) => {
                eprintln!(
                    "REGRESSION: checked-in BENCH_demand.json records {DEMAND_GATE_RUNG} \
                     ratio {r:.4}, gate is {DEMAND_RATIO_GATE}"
                );
                regression = true;
            }
            None => {
                eprintln!(
                    "REGRESSION: BENCH_demand.json missing or lacks a {DEMAND_GATE_RUNG} \
                     ratio; run scripts/bench.sh to regenerate it"
                );
                regression = true;
            }
        }
    } else {
        let json = format!(
            "{{\"bench\":\"demand\",\"iters\":{iters},\"context_depth\":{CONTEXT_DEPTH},\
             \"gate_rung\":\"{DEMAND_GATE_RUNG}\",\"gate_ratio\":{DEMAND_RATIO_GATE},\
             \"workloads\":[{demand_workloads}]}}\n"
        );
        match std::fs::write("BENCH_demand.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_demand.json"),
            Err(e) => {
                eprintln!("REGRESSION: cannot write BENCH_demand.json: {e}");
                regression = true;
            }
        }
    }

    let (lname, lp, lv, lr, lc, ld) = largest.expect("at least one rung");
    println!(
        "{{\"bench\":\"stages\",\"quick\":{quick},\"iters\":{iters},\"context_depth\":{CONTEXT_DEPTH},\
         \"workloads\":[{workloads}],\
         \"largest\":{{\"name\":\"{lname}\",\"pointer_speedup\":{lp:.2},\
         \"vfg_speedup\":{lv:.2},\"resolve_speedup\":{lr:.2},\"combined_vfg_resolve_speedup\":{lc:.2},\
         \"demand_query_ratio\":{ld:.4}}}}}"
    );
    if regression {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
