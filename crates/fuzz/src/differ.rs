//! The differential executor: one program in, a verdict plus classified
//! mismatches out.
//!
//! Per program it runs the native ground-truth oracle, the MSan baseline
//! plan and every guided preset (see [`crate::oracle`]), classifies the
//! results (see [`crate::classify`]), and — for unmutated corpus programs
//! — cross-checks the driver: the same source through [`Pipeline`] at one
//! thread and many, with the artifact cache on and off, must produce
//! byte-identical plan fingerprints, all equal to the core analysis'
//! plan.
//!
//! Fault injection deliberately perturbs a run to prove the harness
//! classifies adversity instead of mislabelling it:
//!
//! * [`FaultInjection::FuelExhaustion`] — a tiny step budget; every run
//!   must trap [`usher_runtime::Trap::FuelExhausted`] at the identical
//!   point, and the outcome is classified, not a mismatch.
//! * [`FaultInjection::TrapForcing`] — tiny recursion/allocation caps
//!   force trap paths; native and instrumented runs must trap alike.
//! * [`FaultInjection::DropChecks`] — strips every `Check` from the
//!   guided plans, synthesizing unsoundness. The harness must report
//!   `missed-detection` on buggy programs; the minimizer property test
//!   relies on this as its reliable failure source.
//! * [`FaultInjection::CacheCorrupt`] — flips stored artifact digests in
//!   a warmed driver cache; the self-healing lookup must evict the
//!   damage, recompute, and converge on the identical plan while counting
//!   the recovery.
//! * [`FaultInjection::BudgetExhaust`] — starves the driver's analysis
//!   budget at several levels; every degraded plan the anytime pipeline
//!   produces must stay detection-equivalent to the MSan baseline.
//! * [`FaultInjection::StrategyDiverge`] — runs the same program through
//!   the driver with the frozen reference pointer solver and with the
//!   production (prefiltered) one; the production plan must fingerprint
//!   identically to the reference plan, and each plan is additionally
//!   run under the native-vs-instrumented oracle. This is not a
//!   synthesized fault but a genuine soundness boundary: the production
//!   solver claims to be observationally identical to the oracle, and
//!   this mode attacks the claim with mutated programs rather than
//!   assuming it from the unit suites.
//! * [`FaultInjection::DemandDiverge`] — runs the same program through
//!   the driver (Opt II off, plan judged by the native-vs-instrumented
//!   oracle), then asks a fresh demand-driven query engine — the one
//!   `usher serve`'s `query-use` answers from — about every check node
//!   and every checked operand's top-level node. Each unlimited query
//!   must complete with the exhaustive `Gamma`'s verdict. Attacks the
//!   query engine's exactness claim with mutated programs.
//! * [`FaultInjection::ServeChaos`] — runs the serve engine with an
//!   injected I/O fault (torn write, ENOSPC, kill-point) armed at each
//!   store/WAL site in turn, kills the engine without shutdown, restarts
//!   it on the same store directory, and requires that every
//!   interleaving either recovers the session byte-identically from the
//!   WAL or degrades with a recorded reason — with zero corrupt store
//!   entries and a restarted engine that still analyzes correctly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use usher_core::{run_config, Config, Plan, ShadowOp};
use usher_driver::{plan_fingerprint, Pipeline, PipelineOptions, PipelineRun, PointerStrategy};
use usher_frontend::compile_o0im;
use usher_ir::{Budget, Module, Operand};
use usher_runtime::{run, RunOptions};
use usher_vfg::DemandEngine;

use crate::classify::{classify, Mismatch, MismatchKind, Outcome};
use crate::oracle::{run_options, OracleRuns};

/// A deliberate perturbation of the differential run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultInjection {
    /// No fault: the plain soundness comparison.
    None,
    /// Run everything under a tiny step budget.
    FuelExhaustion,
    /// Tiny call-depth and allocation caps to force trap paths.
    TrapForcing,
    /// Strip every runtime check from the guided plans (synthetic
    /// unsoundness; the harness must catch it).
    DropChecks,
    /// Corrupt the driver's artifact cache in place; the pipeline must
    /// detect the damage, heal, and produce an identical plan.
    CacheCorrupt,
    /// Starve the driver's analysis budget; the degraded plans must stay
    /// detection-equivalent to the MSan baseline.
    BudgetExhaust,
    /// Run the program under the reference and the production pointer
    /// solver; the plans must fingerprint identically and each must
    /// survive the native-vs-instrumented oracle.
    StrategyDiverge,
    /// Query a demand-driven engine about every check the driver's run
    /// planned; each verdict must equal the exhaustive `Gamma`'s, and
    /// the run's plan must survive the native-vs-instrumented oracle.
    DemandDiverge,
    /// Crash-recovery chaos for `usher serve`: run an engine with an
    /// injected I/O fault (torn write, ENOSPC, kill-point) at every
    /// store/WAL site, kill it, restart on the same store, and require
    /// the session either recovered byte-identically or degraded with a
    /// recorded reason — never a corrupt store entry or a wedged engine.
    ServeChaos,
}

impl FaultInjection {
    /// Every mode, for sweeps.
    pub const ALL: [FaultInjection; 9] = [
        FaultInjection::None,
        FaultInjection::FuelExhaustion,
        FaultInjection::TrapForcing,
        FaultInjection::DropChecks,
        FaultInjection::CacheCorrupt,
        FaultInjection::BudgetExhaust,
        FaultInjection::StrategyDiverge,
        FaultInjection::DemandDiverge,
        FaultInjection::ServeChaos,
    ];

    /// Stable CLI/telemetry tag.
    pub fn name(self) -> &'static str {
        match self {
            FaultInjection::None => "none",
            FaultInjection::FuelExhaustion => "fuel",
            FaultInjection::TrapForcing => "trap-force",
            FaultInjection::DropChecks => "drop-checks",
            FaultInjection::CacheCorrupt => "cache-corrupt",
            FaultInjection::BudgetExhaust => "budget-exhaust",
            FaultInjection::StrategyDiverge => "strategy-diverge",
            FaultInjection::DemandDiverge => "demand-diverge",
            FaultInjection::ServeChaos => "serve-chaos",
        }
    }

    /// Parses a CLI tag.
    pub fn parse(s: &str) -> Option<FaultInjection> {
        FaultInjection::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The run options this fault imposes.
    pub fn options(self) -> RunOptions {
        let mut o = run_options();
        match self {
            FaultInjection::FuelExhaustion => o.fuel = 600,
            FaultInjection::TrapForcing => {
                o.max_depth = 6;
                o.max_alloc_cells = 4;
            }
            _ => {}
        }
        o
    }
}

/// The result of one differential execution.
#[derive(Debug)]
pub struct DiffResult {
    /// Whole-program verdict.
    pub outcome: Outcome,
    /// Classified disagreements (empty on a sound run).
    pub mismatches: Vec<Mismatch>,
}

/// Removes every runtime check from a plan, keeping propagation intact —
/// the surgical way to make a guided configuration unsound on purpose.
pub fn strip_checks(plan: &mut Plan) {
    for ops in plan
        .before
        .values_mut()
        .chain(plan.after.values_mut())
        .chain(plan.entry.values_mut())
    {
        ops.retain(|op| !matches!(op, ShadowOp::Check { .. }));
    }
    plan.finalize_stats();
}

/// Runs one source program differentially.
///
/// `driver_check` additionally routes the program through the driver at
/// one thread and `threads`, cache on and off, and compares plan
/// fingerprints (skipped for mutants in hot campaign loops — plan
/// construction is deterministic per source, so checking each corpus
/// program once suffices).
pub fn differential(
    src: &str,
    fault: FaultInjection,
    threads: usize,
    driver_check: bool,
) -> DiffResult {
    // The front end owes every input a structured result; a panic is a
    // finding in its own right.
    let compiled = catch_unwind(AssertUnwindSafe(|| compile_o0im(src)));
    let m = match compiled {
        Err(panic) => {
            return DiffResult {
                outcome: Outcome::CompileError,
                mismatches: vec![Mismatch {
                    kind: MismatchKind::FrontendPanic,
                    config: "frontend".to_string(),
                    detail: format!("compile_o0im panicked: {}", panic_text(&panic)),
                }],
            }
        }
        Ok(Err(_)) => {
            return DiffResult {
                outcome: Outcome::CompileError,
                mismatches: Vec::new(),
            }
        }
        Ok(Ok(m)) => m,
    };
    if !m.is_runnable() {
        // Compiles but has no `main` (delta debugging routinely produces
        // this): nothing to run differentially.
        return DiffResult {
            outcome: Outcome::CompileError,
            mismatches: Vec::new(),
        };
    }

    let opts = fault.options();
    if fault == FaultInjection::BudgetExhaust {
        // Degraded plans legitimately differ from the core analysis' (that
        // is the whole point of graceful degradation), so the usual
        // driver-vs-core cross-check is replaced by a pairwise
        // detection-equivalence oracle against the MSan baseline.
        return budget_exhaust_differential(src, &m, &opts);
    }
    if fault == FaultInjection::StrategyDiverge {
        return strategy_divergence_differential(src, &m, &opts);
    }
    if fault == FaultInjection::DemandDiverge {
        return demand_divergence_differential(src, &m, &opts);
    }
    if fault == FaultInjection::ServeChaos {
        return serve_chaos_differential(src, threads);
    }
    let native = run(&m, None, &opts);
    let mut runs = Vec::with_capacity(Config::ALL.len());
    let mut core_fingerprints = Vec::new();
    for (i, cfg) in Config::ALL.iter().enumerate() {
        let out = run_config(&m, *cfg);
        let mut plan = out.plan;
        core_fingerprints.push((cfg.name, plan_fingerprint(&plan)));
        if fault == FaultInjection::DropChecks && i > 0 {
            strip_checks(&mut plan);
        }
        runs.push((cfg.name.to_string(), run(&m, Some(&plan), &opts)));
    }
    let oracle = OracleRuns {
        src: src.to_string(),
        native,
        runs,
    };
    let (outcome, mut mismatches) = classify(&oracle);

    // Plan construction is independent of run-time faults; under
    // DropChecks the guided plans are intentionally different, so the
    // driver comparison would only report our own sabotage.
    if driver_check && fault != FaultInjection::DropChecks {
        cross_check_driver(src, threads, fault, &core_fingerprints, &mut mismatches);
    }
    DiffResult {
        outcome,
        mismatches,
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The shared body of the driver-variant fault modes: `src` through a
/// cache-less driver once per `(name, options)` row, each plan run under
/// the native-vs-instrumented oracle against the MSan baseline
/// ([`classify`]). With `plans_match`, every row's plan must also
/// fingerprint identically to the first row's. Returns the verdict and
/// each row's run (`None` where the driver failed, which is reported).
fn driver_rows_differential(
    src: &str,
    m: &Module,
    opts: &RunOptions,
    rows: Vec<(String, PipelineOptions)>,
    plans_match: bool,
) -> (DiffResult, Vec<Option<PipelineRun>>) {
    let msan_plan = run_config(m, Config::MSAN).plan;
    let native = run(m, None, opts);
    let msan_run = run(m, Some(&msan_plan), opts);
    let mut outcome = None;
    let mut mismatches = Vec::new();
    let mut anchor: Option<(String, String)> = None;
    let mut runs = Vec::with_capacity(rows.len());
    for (name, popts) in rows {
        let r = match Pipeline::new()
            .without_cache()
            .run_source("fuzz", src, popts)
        {
            Ok(r) => r,
            Err(e) => {
                mismatches.push(Mismatch {
                    kind: MismatchKind::PlanDivergence,
                    config: name,
                    detail: format!("driver failed on a compilable program: {e}"),
                });
                runs.push(None);
                continue;
            }
        };
        if plans_match {
            let fp = plan_fingerprint(&r.plan);
            match &anchor {
                None => anchor = Some((name.clone(), fp)),
                Some((first, want)) if fp != *want => mismatches.push(Mismatch {
                    kind: MismatchKind::PlanDivergence,
                    config: name.clone(),
                    detail: format!("plan differs from {first}'s"),
                }),
                Some(_) => {}
            }
        }
        let oracle = OracleRuns {
            src: src.to_string(),
            native: native.clone(),
            runs: vec![
                ("MSan".to_string(), msan_run.clone()),
                (name, run(m, Some(&r.plan), opts)),
            ],
        };
        let (o, ms) = classify(&oracle);
        outcome.get_or_insert(o);
        mismatches.extend(ms);
        runs.push(Some(r));
    }
    let result = DiffResult {
        outcome: outcome.unwrap_or(Outcome::CompileError),
        mismatches,
    };
    (result, runs)
}

/// Budget-exhaustion differential: the driver's plan under several levels
/// of analysis starvation, each compared pairwise against the MSan
/// baseline via [`classify`]'s rules 1 and 3–5. Budget 0 forces the
/// whole-module fallback, the middle rungs mix per-function fallback with
/// guided functions, and the last rung usually completes cleanly.
fn budget_exhaust_differential(src: &str, m: &Module, opts: &RunOptions) -> DiffResult {
    let rows = [0u64, 64, 1024, 16_384]
        .into_iter()
        .map(|steps| {
            (
                format!("Usher[budget={steps}]"),
                PipelineOptions::from_config(Config::USHER).with_budget_steps(Some(steps)),
            )
        })
        .collect();
    driver_rows_differential(src, m, opts, rows, false).0
}

/// Cross-strategy divergence differential: the same program through the
/// driver once per [`PointerStrategy`]. The reference strategy's plan is
/// the anchor — every other strategy must fingerprint identically to it
/// (the representation-equivalence contract, attacked with arbitrary
/// mutated programs instead of curated suites), and each strategy's plan
/// is run under the native-vs-instrumented oracle against the MSan
/// baseline so a divergent plan is also judged on what it *detects*,
/// not just that it differs.
fn strategy_divergence_differential(src: &str, m: &Module, opts: &RunOptions) -> DiffResult {
    let rows = PointerStrategy::ALL
        .into_iter()
        .map(|strategy| {
            (
                format!("Usher[strategy={strategy}]"),
                PipelineOptions::from_config(Config::USHER).with_pointer_strategy(strategy),
            )
        })
        .collect();
    driver_rows_differential(src, m, opts, rows, true).0
}

/// Demand-divergence differential: the driver's run at Opt II off (its
/// `Gamma` is the plain exhaustive resolution), judged by the oracle like
/// every row, then a fresh [`DemandEngine`] over the run's VFG — the
/// engine `usher serve`'s `query-use` answers from — queried about every
/// check node and every checked operand's top-level node. Each
/// unlimited-budget query must complete with the exhaustive verdict.
fn demand_divergence_differential(src: &str, m: &Module, opts: &RunOptions) -> DiffResult {
    const NAME: &str = "Usher[demand]";
    let rows = vec![(
        NAME.to_string(),
        PipelineOptions::from_config(Config::USHER_OPT1),
    )];
    let (mut result, runs) = driver_rows_differential(src, m, opts, rows, false);
    let Some(Some(r)) = runs.first() else {
        return result;
    };
    let (Some(vfg), Some(gamma)) = (&r.vfg, &r.gamma) else {
        result.mismatches.push(Mismatch {
            kind: MismatchKind::PlanDivergence,
            config: NAME.to_string(),
            detail: "unlimited guided run produced no VFG or gamma".to_string(),
        });
        return result;
    };
    let mut eng = DemandEngine::new(vfg, gamma.context_depth);
    let budget = Budget::unlimited();
    let queried = vfg.checks.iter().flat_map(|ch| {
        let tl = match ch.operand {
            Operand::Var(v) => vfg.tl(ch.site.func, v),
            _ => None,
        };
        std::iter::once(ch.node).chain(tl)
    });
    for node in queried {
        let verdict = eng.query(vfg, node, &budget);
        let detail = if !verdict.complete {
            format!("unlimited-budget query on node {node} did not complete")
        } else if verdict.bot != gamma.is_bot(node) {
            format!("demand verdict on node {node} differs from the exhaustive gamma")
        } else {
            continue;
        };
        result.mismatches.push(Mismatch {
            kind: MismatchKind::PlanDivergence,
            config: NAME.to_string(),
            detail,
        });
        break;
    }
    result
}

/// Self-healing probe: warm a private cache, corrupt it in place, rerun,
/// and require an identical plan plus a counted recovery. `undetectable`
/// instead swaps in forged entries whose digests still verify — the probe
/// must then report the divergence, the self-test proving the fingerprint
/// comparison (not luck) is what guards the cache.
fn cache_corruption_probe(
    src: &str,
    popts: &PipelineOptions,
    cfg: &str,
    undetectable: bool,
    mismatches: &mut Vec<Mismatch>,
) {
    let pipe = Pipeline::new();
    let Ok(warm) = pipe.run_source("fuzz", src, popts.clone()) else {
        return; // compile errors are classified elsewhere
    };
    let tampered = if undetectable {
        pipe.corrupt_cache_undetectably()
    } else {
        pipe.corrupt_cache()
    };
    if tampered == 0 {
        return;
    }
    match pipe.run_source("fuzz", src, popts.clone()) {
        Ok(healed) => {
            if plan_fingerprint(&healed.plan) != plan_fingerprint(&warm.plan) {
                mismatches.push(Mismatch {
                    kind: MismatchKind::PlanDivergence,
                    config: cfg.to_string(),
                    detail: "plan changed after in-place cache corruption".to_string(),
                });
            } else if pipe.cache_stats().corrupt_recovered == 0 {
                mismatches.push(Mismatch {
                    kind: MismatchKind::PlanDivergence,
                    config: cfg.to_string(),
                    detail: "cache corruption went unnoticed by the integrity check".to_string(),
                });
            }
        }
        Err(e) => mismatches.push(Mismatch {
            kind: MismatchKind::PlanDivergence,
            config: cfg.to_string(),
            detail: format!("pipeline failed after cache corruption: {e}"),
        }),
    }
}

/// The driver must produce the same plan as the core analysis for every
/// preset, at any thread count, with the cache on, off, evicted
/// mid-sequence, or corrupted in place.
fn cross_check_driver(
    src: &str,
    threads: usize,
    fault: FaultInjection,
    core_fingerprints: &[(&'static str, String)],
    mismatches: &mut Vec<Mismatch>,
) {
    for (cfg, core_fp) in core_fingerprints {
        let popts = PipelineOptions::from_config(
            Config::ALL
                .into_iter()
                .find(|c| c.name == *cfg)
                .expect("fingerprints built from Config::ALL"),
        );
        let variants: [(&str, Pipeline); 3] = [
            ("threads=1", Pipeline::new().with_threads(1)),
            ("threads=N", Pipeline::new().with_threads(threads.max(2))),
            ("no-cache", Pipeline::new().without_cache()),
        ];
        for (label, pipe) in variants {
            match pipe.run_source("fuzz", src, popts.clone()) {
                Ok(r) => {
                    let fp = plan_fingerprint(&r.plan);
                    if fp != *core_fp {
                        mismatches.push(Mismatch {
                            kind: MismatchKind::PlanDivergence,
                            config: (*cfg).to_string(),
                            detail: format!("driver ({label}) plan differs from core analysis"),
                        });
                    }
                }
                Err(e) => mismatches.push(Mismatch {
                    kind: MismatchKind::PlanDivergence,
                    config: (*cfg).to_string(),
                    detail: format!("driver ({label}) failed on a compilable program: {e}"),
                }),
            }
        }
        if fault == FaultInjection::CacheCorrupt {
            cache_corruption_probe(src, &popts, cfg, false, mismatches);
        }
    }
}

/// Crash-safety torture for the serve engine.
///
/// Ground truth is a never-crashed, storeless engine analyzing (and
/// optionally editing) the same source. Each scenario arms exactly one
/// injected I/O fault — a torn write, an ENOSPC-style error, or a
/// kill-point that wedges all subsequent I/O — at one store/WAL site,
/// runs the workload, drops the engine without any shutdown (the in-
/// process equivalent of SIGKILL, since both the store and the WAL sync
/// on every append), and restarts a clean engine on the same store
/// directory. Every interleaving must then satisfy three invariants:
///
/// 1. no store entry fails its digest check ([`verify_dir`] is empty);
/// 2. if every acknowledged operation reached the WAL durably
///    (`wal_appends_failed == 0`), the session is recovered
///    byte-identically — same plan and gamma fingerprints as the clean
///    engine's; if WAL appends failed, the loss was *recorded*, and any
///    partially recovered session must match some state the clean
///    engine actually passed through;
/// 3. the restarted engine still analyzes the program with fingerprints
///    identical to the clean engine's — never wedged.
fn serve_chaos_differential(src: &str, threads: usize) -> DiffResult {
    use std::sync::atomic::{AtomicU64, Ordering};
    use usher_serve::{
        verify_dir, Engine, EngineConfig, FaultIo, FaultKind, FaultSite, FaultSpec, QueryOutcome,
    };

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let fp = |q: &QueryOutcome| (q.plan_fingerprint.clone(), q.gamma_fingerprint.clone());

    // Ground truth: a never-crashed engine with no durable state at all.
    let mut oracle = match Engine::new(EngineConfig {
        threads,
        wal_enabled: false,
        ..EngineConfig::default()
    }) {
        Ok(e) => e,
        Err(e) => {
            return DiffResult {
                outcome: Outcome::CompileError,
                mismatches: vec![Mismatch {
                    kind: MismatchKind::ServeDivergence,
                    config: "serve-chaos".to_string(),
                    detail: format!("clean engine failed to start: {e}"),
                }],
            }
        }
    };
    let oracle_sid = match oracle.analyze(src) {
        Ok(out) => out.session_id,
        // Serve rejects what the front end rejects; nothing to torture.
        Err(_) => {
            return DiffResult {
                outcome: Outcome::CompileError,
                mismatches: Vec::new(),
            }
        }
    };
    let fp_base = match oracle.query(oracle_sid) {
        Ok(q) => fp(&q),
        Err(e) => {
            return DiffResult {
                outcome: Outcome::Clean,
                mismatches: vec![Mismatch {
                    kind: MismatchKind::ServeDivergence,
                    config: "serve-chaos".to_string(),
                    detail: format!("clean engine cannot query its own session: {e}"),
                }],
            }
        }
    };
    // Derive one edit (a constant swap inside some function, or an
    // identity re-submission — still a WAL record) and apply it to the
    // oracle so recovered sessions have a post-edit state to match.
    let edit = chaos_edit(src).and_then(|(func, body)| {
        oracle
            .edit(oracle_sid, &func, &body)
            .ok()
            .map(|_| (func, body))
    });
    let fp_edited = match &edit {
        Some(_) => oracle.query(oracle_sid).ok().map(|q| fp(&q)),
        None => None,
    };

    let scenarios: [(FaultSite, FaultKind); 11] = [
        (FaultSite::WalAppend, FaultKind::Error),
        (FaultSite::WalAppend, FaultKind::Torn { keep: 7 }),
        (FaultSite::WalAppend, FaultKind::Kill),
        (FaultSite::WalSync, FaultKind::Kill),
        (FaultSite::StoreTempWrite, FaultKind::Torn { keep: 11 }),
        (FaultSite::StoreTempWrite, FaultKind::Kill),
        (FaultSite::StoreTempSync, FaultKind::Kill),
        (FaultSite::StoreRename, FaultKind::Kill),
        (FaultSite::StoreDirSync, FaultKind::Kill),
        (FaultSite::StoreRead, FaultKind::Error),
        (FaultSite::JournalAppend, FaultKind::Error),
    ];

    let mut mismatches = Vec::new();
    for (site, kind) in scenarios {
        let label = format!("serve-chaos[{}:{:?}]", site.name(), kind);
        let dir = std::env::temp_dir().join(format!(
            "usher-chaos-{}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
            site.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 1: run the workload with the fault armed, then crash.
        let io = FaultIo::none();
        io.arm(site, FaultSpec { kind, after: 0 });
        let mut acked_sid = None;
        let mut acked_edit = false;
        let mut wal_failed = 0u64;
        match Engine::new(EngineConfig {
            store_dir: Some(dir.clone()),
            threads,
            io: io.clone(),
            ..EngineConfig::default()
        }) {
            Ok(mut e) => {
                if let Ok(out) = e.analyze(src) {
                    acked_sid = Some(out.session_id);
                    if let Some((func, body)) = &edit {
                        acked_edit = e.edit(out.session_id, func, body).is_ok();
                    }
                }
                wal_failed = e.stats().wal_appends_failed;
                // Dropped without shutdown or flush: everything not yet
                // fsynced is exactly what a SIGKILL would lose.
            }
            Err(_) => {
                // Startup refused under the fault — an acceptable,
                // reported degradation as long as the clean restart
                // below succeeds.
            }
        }

        // Invariant 1: the crash may lose entries, never corrupt them.
        for bad in verify_dir(&dir) {
            mismatches.push(Mismatch {
                kind: MismatchKind::StoreCorruption,
                config: label.clone(),
                detail: format!("corrupt store entry survived the crash: {bad}"),
            });
        }

        // Phase 2: clean restart over the same durable state.
        match Engine::new(EngineConfig {
            store_dir: Some(dir.clone()),
            threads,
            ..EngineConfig::default()
        }) {
            Ok(mut e2) => {
                let recovered = e2.replay().sessions_recovered;
                if let Some(sid) = acked_sid {
                    if wal_failed == 0 {
                        // Every ack was durable: recovery is owed in full.
                        let want = match (acked_edit, &fp_edited) {
                            (true, Some(f)) => f.clone(),
                            _ => fp_base.clone(),
                        };
                        if recovered == 0 {
                            mismatches.push(Mismatch {
                                kind: MismatchKind::ServeDivergence,
                                config: label.clone(),
                                detail: "acknowledged session lost across the crash despite \
                                         zero recorded WAL failures"
                                    .to_string(),
                            });
                        } else {
                            match e2.query(sid) {
                                Ok(q) if fp(&q) == want => {}
                                Ok(_) => mismatches.push(Mismatch {
                                    kind: MismatchKind::ServeDivergence,
                                    config: label.clone(),
                                    detail: "recovered session fingerprints differ from the \
                                             never-crashed engine's"
                                        .to_string(),
                                }),
                                Err(err) => mismatches.push(Mismatch {
                                    kind: MismatchKind::ServeDivergence,
                                    config: label.clone(),
                                    detail: format!("recovered session unusable: {err}"),
                                }),
                            }
                        }
                    } else if recovered > 0 {
                        // Loss was recorded, so full recovery is not owed —
                        // but whatever did come back must be a state the
                        // clean engine actually passed through.
                        if let Ok(q) = e2.query(sid) {
                            let got = fp(&q);
                            if got != fp_base && fp_edited.as_ref() != Some(&got) {
                                mismatches.push(Mismatch {
                                    kind: MismatchKind::ServeDivergence,
                                    config: label.clone(),
                                    detail: "partially recovered session matches no state \
                                             the clean engine passed through"
                                        .to_string(),
                                });
                            }
                        }
                    }
                }
                // Invariant 3: the restarted engine is never wedged.
                match e2.analyze(src) {
                    Ok(out) => match e2.query(out.session_id) {
                        Ok(q) if fp(&q) == fp_base => {}
                        Ok(_) => mismatches.push(Mismatch {
                            kind: MismatchKind::ServeDivergence,
                            config: label.clone(),
                            detail: "post-crash analysis diverges from the clean engine"
                                .to_string(),
                        }),
                        Err(err) => mismatches.push(Mismatch {
                            kind: MismatchKind::ServeDivergence,
                            config: label.clone(),
                            detail: format!("post-crash session unusable: {err}"),
                        }),
                    },
                    Err(err) => mismatches.push(Mismatch {
                        kind: MismatchKind::ServeDivergence,
                        config: label.clone(),
                        detail: format!("restarted engine cannot analyze: {err}"),
                    }),
                }
            }
            Err(e) => mismatches.push(Mismatch {
                kind: MismatchKind::ServeDivergence,
                config: label.clone(),
                detail: format!("engine wedged: clean restart failed: {e}"),
            }),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    DiffResult {
        outcome: Outcome::Clean,
        mismatches,
    }
}

/// Derives one edit request from a source program for the chaos
/// workload: picks a top-level function by brace-depth scan, preferring
/// one whose body admits a constant swap (so the edit genuinely changes
/// the analysis); falls back to re-submitting a function body verbatim,
/// which is still an accepted edit and therefore still a WAL record.
fn chaos_edit(src: &str) -> Option<(String, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut spans: Vec<(String, usize, usize)> = Vec::new();
    let mut depth = 0i64;
    let mut open: Option<(String, usize)> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if depth == 0 {
            if let Some(rest) = code.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    open = Some((name, i));
                }
            }
        }
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        if depth == 0 {
            if let Some((name, start)) = open.take() {
                spans.push((name, start, i + 1));
            }
        }
    }
    for (name, start, end) in &spans {
        for (j, line) in lines[*start..*end].iter().enumerate().skip(1) {
            if let Some(swapped) = chaos_const_swap(line) {
                let mut body: Vec<String> =
                    lines[*start..*end].iter().map(|s| s.to_string()).collect();
                body[j] = swapped;
                return Some((name.clone(), body.join("\n")));
            }
        }
    }
    spans
        .first()
        .map(|(name, start, end)| (name.clone(), lines[*start..*end].join("\n")))
}

/// Rewrites `<lhs> = <int literal>;` to a different constant,
/// deterministically derived from the original value.
fn chaos_const_swap(line: &str) -> Option<String> {
    let eq = line.rfind(" = ")?;
    let digits = line[eq + 3..].trim_end().strip_suffix(';')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: u64 = digits.parse().ok()?;
    Some(format!("{} = {};", &line[..eq], (n + 7) % 97 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_workloads::{generate, GenConfig};

    #[test]
    fn corpus_programs_are_sound_with_driver_cross_check() {
        for seed in 0..4u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::None, 4, true);
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
        }
    }

    #[test]
    fn fuel_fault_is_an_outcome_not_a_mismatch() {
        // A program guaranteed to exceed 600 steps.
        let src = generate(0, GenConfig::default());
        let d = differential(&src, FaultInjection::FuelExhaustion, 2, false);
        assert_eq!(d.outcome, Outcome::FuelExhausted);
        assert!(d.mismatches.is_empty(), "{:?}", d.mismatches);
    }

    #[test]
    fn trap_forcing_keeps_runs_aligned() {
        for seed in 0..4u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::TrapForcing, 2, false);
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
        }
    }

    #[test]
    fn drop_checks_surfaces_missed_detections_on_buggy_programs() {
        // Find a seed whose program is buggy, sabotage the guided plans,
        // and require the harness to classify the unsoundness.
        for seed in 0..64u64 {
            let clean = differential(
                &generate(seed, GenConfig::default()),
                FaultInjection::None,
                2,
                false,
            );
            if let Outcome::Buggy(_) = clean.outcome {
                let d = differential(
                    &generate(seed, GenConfig::default()),
                    FaultInjection::DropChecks,
                    2,
                    false,
                );
                assert!(
                    d.mismatches
                        .iter()
                        .any(|m| m.kind == MismatchKind::MissedDetection),
                    "seed {seed}: sabotage went unnoticed: {:?}",
                    d.mismatches
                );
                return;
            }
        }
        panic!("no buggy seed in 0..64 — generator regressed?");
    }

    #[test]
    fn compile_errors_are_classified_silently() {
        let d = differential("def main( {", FaultInjection::None, 2, true);
        assert_eq!(d.outcome, Outcome::CompileError);
        assert!(d.mismatches.is_empty());
    }

    #[test]
    fn fault_names_round_trip_through_parse() {
        for f in FaultInjection::ALL {
            assert_eq!(FaultInjection::parse(f.name()), Some(f));
        }
        assert_eq!(FaultInjection::parse("bogus"), None);
    }

    #[test]
    fn budget_exhaust_keeps_degraded_plans_sound() {
        for seed in 0..3u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::BudgetExhaust, 2, false);
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
            assert!(matches!(d.outcome, Outcome::Clean | Outcome::Buggy(_)));
        }
    }

    #[test]
    fn budget_exhaust_oracle_catches_sabotaged_degraded_plans() {
        // Drop-checks-style self-test: the degraded-plan oracle is only
        // trustworthy if it can see unsoundness. Strip every check from a
        // fully starved run's plan on a buggy program and require the
        // classifier to report the missed detections.
        for seed in 0..64u64 {
            let src = generate(seed, GenConfig::default());
            let clean = differential(&src, FaultInjection::None, 2, false);
            if !matches!(clean.outcome, Outcome::Buggy(_)) {
                continue;
            }
            let m = compile_o0im(&src).expect("corpus program compiles");
            let opts = run_options();
            let msan_plan = run_config(&m, Config::MSAN).plan;
            let popts = PipelineOptions::from_config(Config::USHER).with_budget_steps(Some(0));
            let r = Pipeline::new()
                .without_cache()
                .run_source("fuzz", &src, popts)
                .expect("starved driver degrades instead of failing");
            let mut sabotaged = (*r.plan).clone();
            strip_checks(&mut sabotaged);
            let oracle = OracleRuns {
                src: src.clone(),
                native: run(&m, None, &opts),
                runs: vec![
                    ("MSan".to_string(), run(&m, Some(&msan_plan), &opts)),
                    (
                        "Usher[degraded,stripped]".to_string(),
                        run(&m, Some(&sabotaged), &opts),
                    ),
                ],
            };
            let (_, mismatches) = classify(&oracle);
            assert!(
                mismatches
                    .iter()
                    .any(|m| m.kind == MismatchKind::MissedDetection),
                "seed {seed}: sabotaged degraded plan went unnoticed: {mismatches:?}"
            );
            return;
        }
        panic!("no buggy seed in 0..64 — generator regressed?");
    }

    #[test]
    fn strategy_divergence_mode_is_clean_on_corpus_programs() {
        for seed in 0..4u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::StrategyDiverge, 2, false);
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
            assert!(matches!(d.outcome, Outcome::Clean | Outcome::Buggy(_)));
        }
    }

    #[test]
    fn demand_divergence_mode_is_clean_on_corpus_programs() {
        for seed in 0..4u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::DemandDiverge, 2, false);
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
            assert!(matches!(d.outcome, Outcome::Clean | Outcome::Buggy(_)));
        }
    }

    #[test]
    fn serve_chaos_recovers_or_degrades_on_corpus_programs() {
        for seed in 0..2u64 {
            let src = generate(seed, GenConfig::default());
            let d = differential(&src, FaultInjection::ServeChaos, 2, false);
            assert_eq!(d.outcome, Outcome::Clean, "seed {seed}");
            assert!(d.mismatches.is_empty(), "seed {seed}: {:?}", d.mismatches);
        }
    }

    #[test]
    fn chaos_edit_derives_a_real_function_body() {
        let src = generate(0, GenConfig::default());
        let (func, body) = chaos_edit(&src).expect("corpus programs have functions");
        assert!(src.contains(&format!("def {func}")));
        assert!(body.starts_with("def "), "{body}");
        assert!(body.trim_end().ends_with('}'), "{body}");
    }

    #[test]
    fn cache_corrupt_fault_heals_on_corpus_programs() {
        let src = generate(1, GenConfig::default());
        let d = differential(&src, FaultInjection::CacheCorrupt, 2, true);
        assert!(d.mismatches.is_empty(), "{:?}", d.mismatches);
    }

    #[test]
    fn undetectable_cache_corruption_is_flagged_as_divergence() {
        let src = generate(1, GenConfig::default());
        let popts = PipelineOptions::from_config(Config::USHER);
        let mut mismatches = Vec::new();
        cache_corruption_probe(&src, &popts, "Usher", true, &mut mismatches);
        assert!(
            mismatches
                .iter()
                .any(|m| m.kind == MismatchKind::PlanDivergence),
            "forged cache entry must surface as plan divergence: {mismatches:?}"
        );
    }
}
