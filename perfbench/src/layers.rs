//! The traced analysis: the driver's stage sequence for `Config::USHER`,
//! re-enacted from outside through each layer's public functions, with a
//! span (wall time, and allocation high-water mark per layer) around every
//! call. Nothing inside the program is instrumented.

use usher_core::{guided_plan, redundant_check_elimination, Config, GuidedOpts, Plan};
use usher_driver::{analyze_pointer, parallel_map, PipelineOptions};
use usher_ir::{mem2reg, optimize, run_inline, verify, FuncId, InlinePolicy};
use usher_vfg::{build_function_ssa, build_with, modref_summaries, BuildOpts, MemSsa, VfgMode};

use crate::alloc;
use crate::stats::{Outcome, Spans, MB};

/// Runs `src` through every analysis layer as the driver's pipeline does
/// under `Config::USHER` with `threads` workers, recording per-layer
/// times, counts and peak allocation into `spans`, and returns the plan.
///
/// # Errors
///
/// Returns the front-end error text when `src` does not compile.
pub fn traced_usher(src: &str, threads: usize, spans: &mut Spans) -> Result<Plan, String> {
    let opts = PipelineOptions::from_config(Config::USHER);
    let g = opts.guided.expect("the Usher preset is guided");
    let base = alloc::span_start();
    let prog = spans
        .time("frontend.parse_ms", || usher_frontend::parser::parse(src))
        .map_err(|e| e.to_string())?;
    let mut m = spans.time("frontend.lower_ms", || {
        let m = usher_frontend::lower::lower(&prog).map_err(|e| e.to_string())?;
        verify(&m).map_err(|e| format!("{e:?}"))?;
        Ok::<_, String>(m)
    })?;
    drop(prog);
    spans.time("ir.inline_ms", || {
        run_inline(&mut m, InlinePolicy::default())
    });
    spans.time("ir.mem2reg_ms", || mem2reg(&mut m));
    spans.time("ir.opt_ms", || {
        optimize(&mut m, opts.opt_level);
        verify(&m).map_err(|e| format!("{e:?}"))
    })?;
    spans.push("frontend.peak_alloc_mb", alloc::span_peak(base) as f64 / MB);
    spans.push("frontend.src_bytes", src.len() as f64);
    spans.push("ir.insts", m.inst_count() as f64);

    let base = alloc::span_start();
    let pa = spans.time("pointer.solve_ms", || {
        analyze_pointer(&m, opts.pointer_strategy, threads)
    });
    spans.push("pointer.peak_alloc_mb", alloc::span_peak(base) as f64 / MB);
    spans.push("pointer.nodes", pa.stats.nodes as f64);
    spans.push("pointer.pops", pa.stats.pops as f64);
    spans.push("pointer.peak_pts_words", pa.stats.peak_pts_words as f64);
    spans.push("pointer.unify_collapsed", pa.stats.unify_collapsed as f64);

    let base = alloc::span_start();
    let ms = spans.time("vfg.memssa_ms", || {
        let mut ms = MemSsa::default();
        if g.mode == VfgMode::Full {
            let modref = modref_summaries(&m, &pa);
            let fids: Vec<FuncId> = m.funcs.indices().collect();
            let per_func = parallel_map(threads, &fids, |&fid| {
                build_function_ssa(&m, &pa, fid, &modref)
            });
            for (fid, fs) in fids.into_iter().zip(per_func) {
                if let Some(fs) = fs {
                    ms.funcs.insert(fid, fs);
                }
            }
        }
        ms
    });
    let vfg = spans.time("vfg.build_ms", || {
        build_with(
            &m,
            &pa,
            &ms,
            BuildOpts {
                mode: g.mode,
                semi_strong: g.semi_strong,
            },
        )
    });
    let sccs = spans.time("vfg.condense_ms", || vfg.condensation().sccs);
    spans.push("vfg.peak_alloc_mb", alloc::span_peak(base) as f64 / MB);
    spans.push("vfg.nodes", vfg.len() as f64);
    spans.push("vfg.edges", vfg.deps.targets.len() as f64);
    spans.push("vfg.sccs", sccs as f64);

    let base = alloc::span_start();
    let resolved = spans.time("core.resolve_ms", || {
        redundant_check_elimination(&m, &pa, &ms, &vfg, g.context_depth)
    });
    let plan = spans.time("core.plan_ms", || {
        let gopts = GuidedOpts {
            opt1: g.opt1,
            full_memory: g.mode == VfgMode::TlOnly,
            bit_level: opts.bit_level,
        };
        guided_plan(
            &m,
            &pa,
            &ms,
            &vfg,
            &resolved.gamma,
            gopts,
            opts.label.clone(),
        )
    });
    spans.push("core.peak_alloc_mb", alloc::span_peak(base) as f64 / MB);
    spans.push("core.bot_nodes", resolved.gamma.bot_count() as f64);
    spans.push("core.opt2_redirected", resolved.redirected as f64);
    spans.push("core.plan_checks", plan.stats.checks as f64);
    spans.push("core.plan_propagations", plan.stats.propagations as f64);

    Ok(plan)
}

/// The per-layer time spans [`traced_usher`] records, in stage order.
pub const LAYER_SPANS: [&str; 11] = [
    "frontend.parse_ms",
    "frontend.lower_ms",
    "ir.inline_ms",
    "ir.mem2reg_ms",
    "ir.opt_ms",
    "pointer.solve_ms",
    "vfg.memssa_ms",
    "vfg.build_ms",
    "vfg.condense_ms",
    "core.resolve_ms",
    "core.plan_ms",
];

/// The per-layer counts and peaks [`traced_usher`] records.
const LAYER_COUNTS: [&str; 16] = [
    "frontend.peak_alloc_mb",
    "ir.insts",
    "pointer.nodes",
    "pointer.pops",
    "pointer.peak_pts_words",
    "pointer.unify_collapsed",
    "pointer.peak_alloc_mb",
    "vfg.nodes",
    "vfg.edges",
    "vfg.sccs",
    "vfg.peak_alloc_mb",
    "core.bot_nodes",
    "core.opt2_redirected",
    "core.plan_checks",
    "core.plan_propagations",
    "core.peak_alloc_mb",
];

/// Sets every analysis-layer metric to its mean per traced program, plus
/// the front end's source throughput. Returns the sum of the mean layer
/// times (ms per program).
pub fn report_layers(spans: &Spans, out: &mut Outcome) -> f64 {
    let mut total = 0.0;
    for name in LAYER_SPANS {
        let v = spans.mean(name);
        out.set(name, v);
        total += v;
    }
    for name in LAYER_COUNTS {
        out.set(name, spans.mean(name));
    }
    let bytes: f64 = spans.get("frontend.src_bytes").iter().sum();
    let secs: f64 = spans.get("frontend.parse_ms").iter().sum::<f64>() / 1e3;
    out.set(
        "frontend.src_mb_per_s",
        if secs > 0.0 { bytes / MB / secs } else { 0.0 },
    );
    total
}
