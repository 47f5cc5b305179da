//! Timing regression gates for the analysis machinery and the service.
//!
//! Each test measures one claim the production code makes over its
//! frozen reference or over a cold run, times both sides by
//! min-of-[`ITERS`], prints `gate <name>: measured <x>, bound <y>` and
//! fails when the bound is crossed. Timings mean nothing in a debug
//! build, so every gate is ignored there; `scripts/ci.sh` runs them with
//! `cargo test --release --offline --test perf_gates -- --test-threads=1
//! --nocapture`, which also records each gate's margin in the CI log.
//!
//! The correctness side of the same comparisons (freeze equality, Γ,
//! Opt II, plans, pointer observables) is asserted by
//! `tests/representation_equiv.rs`; the gates here only time them.

use std::time::Instant;

use usher::core::{redundant_check_elimination, redundant_check_elimination_reference, resolve};
use usher::driver::analyze_pointer;
use usher::frontend::compile_o0im;
use usher::ir::{Budget, Module};
use usher::pointer::{PointerAnalysis, PointerStrategy};
use usher::serve::json::ObjWriter;
use usher::serve::{Dispatcher, Json, ServerConfig};
use usher::vfg::{build, build_memssa, build_reference, DemandEngine, MemSsa, Vfg, VfgMode};
use usher::workloads::{generate, ladder_config, SEED_LADDER};

mod common;
use common::synthesize_edit;

/// Samples per timed side; each side's time is the fastest sample.
const ITERS: usize = 3;

const CONTEXT_DEPTH: usize = 1;

/// A cold demand query on the largest rung must cost under this
/// fraction of a cold full resolve.
const DEMAND_RATIO_GATE: f64 = 0.10;

/// The small rungs' fixed per-query overheads weigh more, so their live
/// demand gate gets 3x slack.
const DEMAND_SMALL_RUNG_SLACK: f64 = 3.0;

fn time_min<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// [`time_min`] over a VFG built outside the timed region before each
/// sample, so every sample pays for the SCC condensation, as a fresh
/// analyze does.
fn time_min_on_fresh_vfg<R>(r: &Rung, mut f: impl FnMut(&Vfg) -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let g = build(&r.m, &r.pa, &r.ms, VfgMode::Full);
        let t = Instant::now();
        std::hint::black_box(f(&g));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn report(name: &str, measured: f64, bound: f64) {
    println!("gate {name}: measured {measured:.4}, bound {bound:.2}");
}

/// A compiled ladder rung with the upstream artifacts the VFG and
/// resolve gates share.
struct Rung {
    name: String,
    m: Module,
    pa: PointerAnalysis,
    ms: MemSsa,
}

fn rung(&(seed, helpers, stmts): &(u64, usize, usize)) -> Rung {
    let m = compile_o0im(&generate(seed, ladder_config(helpers, stmts)))
        .expect("generated workloads compile");
    let pa = usher::pointer::analyze(&m);
    let ms = build_memssa(&m, &pa);
    Rung {
        name: format!("gen-{seed}"),
        m,
        pa,
        ms,
    }
}

/// A cold [`DemandEngine`] query over a cold full resolve of a fresh
/// graph. The verdict must equal the exhaustive resolver's.
fn demand_ratio(r: &Rung) -> f64 {
    let g = build(&r.m, &r.pa, &r.ms, VfgMode::Full);
    let gamma = resolve(&g, CONTEXT_DEPTH);
    let t_resolve = time_min_on_fresh_vfg(r, |fresh| resolve(fresh, CONTEXT_DEPTH));
    let node = g.checks.first().map(|c| c.node).expect("rungs have checks");
    let verdict = DemandEngine::new(&g, CONTEXT_DEPTH).query(&g, node, &Budget::unlimited());
    assert_eq!(
        verdict.bot,
        gamma.is_bot(node),
        "{}: demand verdict disagrees with the exhaustive resolver",
        r.name
    );
    let t_query =
        time_min(|| DemandEngine::new(&g, CONTEXT_DEPTH).query(&g, node, &Budget::unlimited()));
    t_query / t_resolve.max(1e-9)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: release only, run by scripts/ci.sh"
)]
fn prefilter_pointer_solve_is_not_slower_than_the_reference() {
    for w in &SEED_LADDER[..2] {
        let r = rung(w);
        let before = time_min(|| analyze_pointer(&r.m, PointerStrategy::Reference, 1));
        let after = time_min(|| analyze_pointer(&r.m, PointerStrategy::Prefilter, 1));
        let speedup = before / after.max(1e-9);
        report(&format!("pointer-speedup/{}", r.name), speedup, 1.0);
        assert!(
            speedup >= 1.0,
            "{}: prefilter solve {:.3}ms is slower than the reference {:.3}ms",
            r.name,
            after * 1e3,
            before * 1e3
        );
    }
}

/// VFG build plus the driver's Resolve stage (Opt II discovery and
/// re-resolution) on both sides; the condensed side resolves a fresh
/// graph each sample.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: release only, run by scripts/ci.sh"
)]
fn condensed_vfg_and_resolve_are_not_slower_than_the_reference() {
    for w in &SEED_LADDER[..2] {
        let r = rung(w);
        let rg = build_reference(&r.m, &r.pa, &r.ms, VfgMode::Full);
        let vfg_before = time_min(|| build_reference(&r.m, &r.pa, &r.ms, VfgMode::Full));
        let vfg_after = time_min(|| build(&r.m, &r.pa, &r.ms, VfgMode::Full));
        let resolve_before = time_min(|| {
            redundant_check_elimination_reference(&r.m, &r.pa, &r.ms, &rg, CONTEXT_DEPTH)
        });
        let resolve_after = time_min_on_fresh_vfg(&r, |g| {
            redundant_check_elimination(&r.m, &r.pa, &r.ms, g, CONTEXT_DEPTH)
        });
        let before = vfg_before + resolve_before;
        let after = vfg_after + resolve_after;
        let speedup = before / after.max(1e-9);
        report(&format!("vfg-resolve-speedup/{}", r.name), speedup, 1.0);
        assert!(
            speedup >= 1.0,
            "{}: condensed vfg+resolve {:.3}ms is slower than the reference {:.3}ms",
            r.name,
            after * 1e3,
            before * 1e3
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: release only, run by scripts/ci.sh"
)]
fn cold_demand_query_beats_a_cold_resolve_on_small_rungs() {
    let bound = DEMAND_RATIO_GATE * DEMAND_SMALL_RUNG_SLACK;
    for w in &SEED_LADDER[..2] {
        let r = rung(w);
        let ratio = demand_ratio(&r);
        report(&format!("demand-ratio/{}", r.name), ratio, bound);
        assert!(
            ratio <= bound,
            "{}: a cold demand query costs {ratio:.4} of a cold resolve",
            r.name
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: release only, run by scripts/ci.sh"
)]
fn cold_demand_query_beats_a_cold_resolve_on_the_largest_rung() {
    let r = rung(SEED_LADDER.last().expect("the ladder is not empty"));
    assert_eq!(r.name, "gen-131");
    let ratio = demand_ratio(&r);
    report(
        &format!("demand-ratio/{}", r.name),
        ratio,
        DEMAND_RATIO_GATE,
    );
    assert!(
        ratio < DEMAND_RATIO_GATE,
        "{}: a cold demand query costs {ratio:.4} of a cold resolve",
        r.name
    );
}

/// The serve trace on gen-37: a cold analyze, four warm client sessions,
/// eight synthesized edits per client round-robin with a warm re-analyze
/// after each round, all through `Dispatcher::handle_line` on a disk
/// store. Incremental-edit p50 must beat the cold analyze by 1.5x. The
/// cold side is the faster of two cold analyzes on fresh stores.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: release only, run by scripts/ci.sh"
)]
fn incremental_edits_beat_a_cold_analyze() {
    const CLIENTS: usize = 4;
    const EDITS_PER_CLIENT: usize = 8;
    const SPEEDUP_FLOOR: f64 = 1.5;
    let src = generate(37, ladder_config(32, 12));
    let analyze = |id: &str| {
        let mut w = ObjWriter::new();
        w.str("op", "analyze").str("source", &src).str("id", id);
        w.finish()
    };
    let ok = |d: &Dispatcher, line: &str| {
        let resp = Json::parse(&d.handle_line("gate", line).response).expect("json response");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        resp
    };

    let mut cold = f64::INFINITY;
    let mut dispatcher = None;
    for run in 0..2 {
        let dir =
            std::env::temp_dir().join(format!("usher-perf-gate-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Dispatcher::new(&ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("dispatcher opens");
        let t = Instant::now();
        let resp = ok(&d, &analyze("cold"));
        cold = cold.min(t.elapsed().as_secs_f64());
        assert_eq!(resp.get("mode").and_then(Json::as_str), Some("cold"));
        if let Some((_, old)) = dispatcher.replace((d, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (d, dir) = dispatcher.expect("two cold runs");

    let sessions: Vec<u64> = (0..CLIENTS)
        .map(|c| {
            let resp = ok(&d, &analyze(&format!("open-{c}")));
            assert_eq!(resp.get("mode").and_then(Json::as_str), Some("warm"));
            resp.get("session")
                .and_then(Json::as_u64)
                .expect("session id")
        })
        .collect();
    let mut incremental = Vec::new();
    for round in 0..EDITS_PER_CLIENT {
        for (c, &sid) in sessions.iter().enumerate() {
            let k = round * CLIENTS + c;
            let source = d
                .engine()
                .lock()
                .unwrap()
                .session_source(sid)
                .expect("session is open");
            let Some((func, body)) = synthesize_edit(&source, k) else {
                continue;
            };
            let mut w = ObjWriter::new();
            w.str("op", "edit")
                .u64("session", sid)
                .str("func", &func)
                .str("body", &body);
            let t = Instant::now();
            let resp = ok(&d, &w.finish());
            let dt = t.elapsed().as_secs_f64();
            if resp.get("incremental").and_then(Json::as_bool) == Some(true) {
                incremental.push(dt);
            }
        }
        ok(&d, &analyze(&format!("re-{round}")));
    }
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!incremental.is_empty(), "no edit took the incremental path");
    incremental.sort_by(f64::total_cmp);
    let p50 = incremental[((incremental.len() - 1) as f64 * 0.5).round() as usize];
    let speedup = cold / p50.max(1e-9);
    report("serve-incremental-speedup/gen-37", speedup, SPEEDUP_FLOOR);
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "incremental p50 {:.3}ms is only {speedup:.2}x faster than a cold analyze {:.3}ms",
        p50 * 1e3,
        cold * 1e3
    );
}
