//! The pipeline driver: typed stage execution with caching, timing and
//! parallel scheduling.
//!
//! Stage order is Parse → Lower → Inline → Mem2Reg → Opt (the frontend,
//! cached as one compiled-module artifact) → Pointer → MemSsa → VfgBuild
//! → Resolve → Instrument. The MSan baseline takes the short path
//! frontend → Instrument. Every stage consults the [`ArtifactCache`]
//! under a key from [`PipelineOptions`], so a sweep over configurations
//! recomputes only the suffix each configuration actually changes.
//!
//! Parallelism comes in two grains:
//!
//! * **batch**: [`Pipeline::run_batch`] schedules whole jobs (program ×
//!   configuration) over the worker pool, the natural grain for benchmark
//!   sweeps;
//! * **per-function**: single runs split memory-SSA construction and
//!   full-instrumentation planning across functions — the two stages that
//!   are embarrassingly parallel once the interprocedural mod/ref
//!   summaries exist. (Guided planning is demand-driven across function
//!   boundaries and stays sequential.)
//!
//! Both grains produce results in deterministic input order, and every
//! stage computation is deterministic, so thread count can never change
//! an artifact — only how fast it arrives.
//!
//! # Graceful degradation
//!
//! Guided analysis is an *optimization*: the full-MSan plan is always
//! sound, so any guided stage may be abandoned without losing
//! detections. Three containment layers implement that (see DESIGN.md
//! §10):
//!
//! * a cooperative step [`Budget`] (plus optional wall-clock deadline)
//!   threads through pointer solving, memory SSA, VFG construction and
//!   resolution; exhaustion mid-resolution degrades only the functions
//!   whose nodes were left unresolved, exhaustion earlier degrades the
//!   whole module;
//! * every guided stage computation runs under `catch_unwind`, so a
//!   panic (or an injected one, via
//!   [`PipelineOptions::inject_panic`]) becomes a fallback instead of a
//!   crash — and in [`Pipeline::run_batch`] a panicking job poisons only
//!   its own slot;
//! * cache entries carry digests and are transparently recomputed when
//!   corrupt ([`crate::cache`]).
//!
//! Degraded artifacts are **never cached**: only complete, fault-free
//! results enter the cache, which keeps budgeted and unbudgeted runs
//! safely interchangeable over one cache.

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use usher_core::{
    full_plan_func, guided_plan_with_fallback, redundant_check_elimination_budgeted,
    resolve_budgeted, stamp_provenance, Gamma, Plan, PlanProvenance,
};
use usher_frontend::{lower_program, CompileError, LowerEnv};
use usher_ir::{
    mem2reg_retiring, optimize, run_inline_traced, verify_with, Budget, Exhausted, FuncId,
    InlinePolicy, InlineTrace, Mem2RegStats, Module, ModuleCfgs,
};
use usher_pointer::{PointerAnalysis, PointerStrategy};
use usher_vfg::{
    build_function_ssa_budgeted, build_with_budgeted, modref_summaries_budgeted, MemSsa, ModRef,
    NodeKind, Vfg, VfgMode,
};

use crate::cache::{Artifact, ArtifactCache, CacheStats};
use crate::key::KeyWriter;
use crate::options::{GuidedKnobs, PipelineOptions};
use crate::pool::{default_threads, panic_message, parallel_map, parallel_map_catching};
use crate::report::{BatchReport, DegradeEvent, PipelineReport, Stage, StageTiming};

/// Any failure a pipeline run can produce.
#[derive(Clone, Debug)]
pub enum DriverError {
    /// TinyC front-end failure.
    Compile(CompileError),
    /// IR-text parse failure.
    Text(String),
    /// A stage panicked. Outside strict mode this only surfaces where no
    /// sound fallback exists (the full-instrumentation path itself, or a
    /// whole batch job); guided-stage panics degrade instead.
    StagePanic {
        /// Stage name (as in telemetry), or `"batch"` for a whole job.
        stage: &'static str,
        /// The panic message.
        detail: String,
    },
    /// Strict mode: the analysis step budget ran out in `stage` (a
    /// non-strict run would have degraded soundly instead).
    BudgetExhausted {
        /// Stage name as in telemetry.
        stage: &'static str,
    },
    /// Strict mode: the wall-clock deadline passed before `stage`.
    DeadlineExceeded {
        /// Stage name as in telemetry.
        stage: &'static str,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "{e}"),
            DriverError::Text(e) => write!(f, "{e}"),
            DriverError::StagePanic { stage, detail } => {
                write!(f, "stage '{stage}' panicked: {detail}")
            }
            DriverError::BudgetExhausted { stage } => {
                write!(f, "strict mode: step budget exhausted in stage '{stage}'")
            }
            DriverError::DeadlineExceeded { stage } => {
                write!(f, "strict mode: deadline exceeded before stage '{stage}'")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CompileError> for DriverError {
    fn from(e: CompileError) -> Self {
        DriverError::Compile(e)
    }
}

/// A program in any of the forms the driver accepts.
#[derive(Clone)]
pub enum SourceInput {
    /// TinyC source text.
    TinyC(String),
    /// IR text (`.uir`), taken as already preprocessed: the frontend
    /// stages other than parsing are skipped.
    IrText(String),
    /// An already-compiled module; the frontend is skipped entirely.
    Module(Arc<Module>),
}

/// The stable content key of a TinyC source text, independent of the
/// options: the `source_key` argument of every [`PipelineOptions`] key
/// method for a [`SourceInput::TinyC`] program.
pub fn tinyc_source_key(src: &str) -> u64 {
    let mut k = KeyWriter::new("src-tinyc");
    k.str(src);
    k.finish()
}

impl SourceInput {
    /// A stable content key for the program, independent of the options.
    fn source_key(&self) -> u64 {
        match self {
            SourceInput::TinyC(s) => tinyc_source_key(s),
            SourceInput::IrText(s) => {
                let mut k = KeyWriter::new("src-uir");
                k.str(s);
                k.finish()
            }
            SourceInput::Module(m) => {
                let mut k = KeyWriter::new("src-module");
                k.str(&usher_ir::write_text(m));
                k.finish()
            }
        }
    }
}

/// One unit of batch work: a named program under one configuration.
#[derive(Clone)]
pub struct Job {
    /// Display name (workload name in telemetry).
    pub name: String,
    /// The program.
    pub source: SourceInput,
    /// The configuration.
    pub options: PipelineOptions,
}

impl Job {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: SourceInput, options: PipelineOptions) -> Job {
        Job {
            name: name.into(),
            source,
            options,
        }
    }
}

/// Everything one pipeline run produces. Artifacts are `Arc`-shared with
/// the cache; absent analyses (`None`) mean the configuration skipped the
/// stage (the MSan baseline, or memory SSA in top-level-only mode).
pub struct PipelineRun {
    /// Workload name.
    pub name: String,
    /// The options the run used.
    pub options: PipelineOptions,
    /// The compiled module.
    pub module: Arc<Module>,
    /// Pointer analysis (guided configurations only).
    pub pa: Option<Arc<PointerAnalysis>>,
    /// Memory SSA (guided full-mode configurations only).
    pub memssa: Option<Arc<MemSsa>>,
    /// The value-flow graph (guided configurations only).
    pub vfg: Option<Arc<Vfg>>,
    /// Resolved definedness (guided configurations only).
    pub gamma: Option<Arc<Gamma>>,
    /// Nodes redirected to `T` by Opt II.
    pub opt2_redirected: usize,
    /// The instrumentation plan.
    pub plan: Arc<Plan>,
    /// Telemetry for this run.
    pub report: PipelineReport,
}

/// A [`Pipeline::run_retained`] result: the run plus the state that
/// re-analysing one edited function against it needs.
pub struct RetainedRun {
    /// The run itself. Its artifacts are shared with nothing else, so
    /// each `Arc` unwraps without a copy.
    pub run: PipelineRun,
    /// The lowering environment, with object ranges describing the
    /// post-`mem2reg` object table.
    pub env: LowerEnv,
    /// Which functions took part in inlining.
    pub inline: InlineTrace,
    /// The mod/ref summaries memory SSA was built from (`None` when the
    /// run built no memory SSA).
    pub modref: Option<ModRef>,
    /// The module's shared CFGs and dominator trees, as the stages left
    /// them.
    pub cfgs: ModuleCfgs,
}

/// The pipeline driver: the one place stage wiring lives.
pub struct Pipeline {
    cache: ArtifactCache,
    threads: usize,
    requested_threads: usize,
    use_cache: bool,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

/// Internal per-run execution state.
struct RunCtx<'a> {
    cache: &'a ArtifactCache,
    use_cache: bool,
    threads: usize,
    stages: Vec<StageTiming>,
    hits: usize,
    misses: usize,
    degrades: Vec<DegradeEvent>,
    corrupt_recovered: usize,
    mem2reg: Mem2RegStats,
    /// Whether the stages keep what a [`RetainedRun`] returns below.
    retain: bool,
    env: Option<LowerEnv>,
    inline: Option<InlineTrace>,
    modref: Option<ModRef>,
    cfgs: Option<ModuleCfgs>,
}

impl RunCtx<'_> {
    fn new<'a>(cache: &'a ArtifactCache, use_cache: bool, threads: usize) -> RunCtx<'a> {
        RunCtx {
            cache,
            use_cache,
            threads,
            stages: Vec::new(),
            hits: 0,
            misses: 0,
            degrades: Vec::new(),
            corrupt_recovered: 0,
            mem2reg: Mem2RegStats::default(),
            retain: false,
            env: None,
            inline: None,
            modref: None,
            cfgs: None,
        }
    }

    fn lookup(&mut self, key: u64) -> Option<Artifact> {
        if !self.use_cache {
            return None;
        }
        let (got, recovered) = self.cache.lookup_verified(key);
        if recovered {
            self.corrupt_recovered += 1;
            self.degrades.push(DegradeEvent {
                stage: "cache",
                reason: "cache-corrupt",
                detail: "corrupt or version-skewed entry evicted; recomputing".to_string(),
            });
        }
        if got.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        got
    }

    fn store(&self, key: u64, artifact: Artifact) {
        if self.use_cache {
            self.cache.insert(key, artifact);
        }
    }

    fn record(&mut self, stage: Stage, seconds: f64, cached: bool) {
        self.stages.push(StageTiming {
            stage,
            seconds,
            cached,
        });
    }

    /// Runs `compute`, recording its wall time under `stage`.
    fn timed<R>(&mut self, stage: Stage, compute: impl FnOnce(&mut Self) -> R) -> R {
        let t = Instant::now();
        let r = compute(self);
        self.record(stage, t.elapsed().as_secs_f64(), false);
        r
    }

    /// Marks the frontend stages for `input` as cache-served.
    fn record_frontend_cached(&mut self, input: &SourceInput) {
        match input {
            SourceInput::TinyC(_) => {
                for stage in [
                    Stage::Parse,
                    Stage::Lower,
                    Stage::Inline,
                    Stage::Mem2Reg,
                    Stage::Opt,
                ] {
                    self.record(stage, 0.0, true);
                }
            }
            SourceInput::IrText(_) => self.record(Stage::Parse, 0.0, true),
            SourceInput::Module(_) => {}
        }
    }
}

impl Pipeline {
    /// A pipeline with caching on and the machine's default parallelism.
    pub fn new() -> Pipeline {
        Pipeline {
            cache: ArtifactCache::new(),
            threads: default_threads(),
            requested_threads: default_threads(),
            use_cache: true,
        }
    }

    /// Sets the worker-thread count (1 = fully sequential). Requests
    /// beyond the host's available parallelism are clamped — extra
    /// workers only add scheduling overhead — and the requested value is
    /// kept for telemetry ([`BatchReport::requested_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Pipeline {
        self.requested_threads = threads.max(1);
        self.threads = self.requested_threads.min(default_threads()).max(1);
        self
    }

    /// Disables the artifact cache (every stage recomputes).
    pub fn without_cache(mut self) -> Pipeline {
        self.use_cache = false;
        self
    }

    /// The effective worker-thread count (after clamping).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker-thread count the caller asked for, before clamping.
    pub fn requested_threads(&self) -> usize {
        self.requested_threads
    }

    /// Global cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fault injection: flips every cache entry's stored digest so the
    /// next lookup detects the corruption, evicts and recomputes. See
    /// [`ArtifactCache::corrupt_digests`]. Returns entries corrupted.
    pub fn corrupt_cache(&self) -> usize {
        self.cache.corrupt_digests()
    }

    /// Fault injection the checksum **cannot** see: swaps cached plans
    /// for empty ones with recomputed digests. Exists so harnesses can
    /// prove their cross-run probes would catch a broken checksum. See
    /// [`ArtifactCache::corrupt_plans_undetectably`].
    pub fn corrupt_cache_undetectably(&self) -> usize {
        self.cache.corrupt_plans_undetectably()
    }

    /// Runs one program through the pipeline, using per-function
    /// parallelism inside the parallel-friendly stages.
    ///
    /// # Errors
    ///
    /// Returns the first front-end error for TinyC or IR-text inputs.
    pub fn run(
        &self,
        name: impl Into<String>,
        source: SourceInput,
        options: PipelineOptions,
    ) -> Result<PipelineRun, DriverError> {
        let mut ctx = RunCtx::new(&self.cache, self.use_cache, self.threads);
        self.run_inner(name.into(), &source, &options, &mut ctx)
    }

    /// [`Pipeline::run_source`], also returning the state an incremental
    /// re-analysis of one function needs (see [`RetainedRun`]). The run
    /// never reads or fills the artifact cache, so its artifacts are its
    /// own.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_source`].
    pub fn run_retained(
        &self,
        name: impl Into<String>,
        src: &str,
        options: PipelineOptions,
    ) -> Result<RetainedRun, DriverError> {
        let mut ctx = RunCtx::new(&self.cache, false, self.threads);
        ctx.retain = true;
        let source = SourceInput::TinyC(src.to_string());
        let run = self.run_inner(name.into(), &source, &options, &mut ctx)?;
        Ok(RetainedRun {
            run,
            env: ctx.env.expect("an uncached TinyC run lowers its source"),
            inline: ctx.inline.expect("an uncached TinyC run inlines"),
            modref: ctx.modref,
            cfgs: ctx.cfgs.expect("a retained run keeps its CFGs"),
        })
    }

    /// Runs TinyC source; sugar for [`Pipeline::run`].
    ///
    /// # Errors
    ///
    /// Returns the first front-end error.
    pub fn run_source(
        &self,
        name: impl Into<String>,
        src: &str,
        options: PipelineOptions,
    ) -> Result<PipelineRun, DriverError> {
        self.run(name, SourceInput::TinyC(src.to_string()), options)
    }

    /// Runs an already-compiled module; sugar for [`Pipeline::run`].
    ///
    /// # Panics
    ///
    /// Module inputs cannot fail the frontend, so this only panics for
    /// strict-mode degradation errors — strict callers should use
    /// [`Pipeline::run`] and handle the `Result`.
    pub fn run_module(
        &self,
        name: impl Into<String>,
        module: Arc<Module>,
        options: PipelineOptions,
    ) -> PipelineRun {
        self.run(name, SourceInput::Module(module), options)
            .expect("module inputs cannot fail outside strict mode")
    }

    /// Compiles a program through the cached frontend without running any
    /// analysis — for IR-dumping tools and native execution.
    ///
    /// # Errors
    ///
    /// Returns the first front-end error.
    pub fn compile(
        &self,
        source: &SourceInput,
        options: &PipelineOptions,
    ) -> Result<Arc<Module>, DriverError> {
        let mut ctx = RunCtx::new(&self.cache, self.use_cache, self.threads);
        let (module, _) = self.frontend(&mut ctx, source, options, source.source_key())?;
        Ok(module)
    }

    /// Runs a batch of jobs across the worker pool (one job per worker at
    /// a time; per-function parallelism is disabled inside batch jobs so
    /// the coarse grain owns the cores). Results come back in job order,
    /// with a [`BatchReport`] covering the successful runs.
    pub fn run_batch(&self, jobs: &[Job]) -> (Vec<Result<PipelineRun, DriverError>>, BatchReport) {
        let t = Instant::now();
        let runs: Vec<Result<PipelineRun, DriverError>> =
            parallel_map_catching(self.threads, jobs, |job| {
                let mut ctx = RunCtx::new(&self.cache, self.use_cache, 1);
                self.run_inner(job.name.clone(), &job.source, &job.options, &mut ctx)
            })
            .into_iter()
            .map(|r| match r {
                Ok(run) => run,
                // A panic that escaped even the per-stage containment
                // (frontend, full-plan path, report assembly) poisons
                // only this job; siblings are untouched.
                Err(detail) => Err(DriverError::StagePanic {
                    stage: "batch",
                    detail,
                }),
            })
            .collect();
        let report = BatchReport {
            threads: self.threads,
            requested_threads: self.requested_threads,
            wall_seconds: t.elapsed().as_secs_f64(),
            runs: runs
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|r| r.report.clone())
                .collect(),
        };
        (runs, report)
    }

    fn run_inner(
        &self,
        name: String,
        source: &SourceInput,
        options: &PipelineOptions,
        ctx: &mut RunCtx<'_>,
    ) -> Result<PipelineRun, DriverError> {
        let start = Instant::now();
        let src_key = source.source_key();
        let budget = Budget::new(
            options.budget_steps,
            options.deadline_ms.map(Duration::from_millis),
        );

        let (module, cfgs) = self.frontend(ctx, source, options, src_key)?;

        let (pa, memssa, vfg, gamma, opt2_redirected, plan) = match &options.guided {
            None => {
                let plan = self.msan_plan(ctx, &module, options, src_key);
                (None, None, None, None, 0, plan)
            }
            Some(g) => match self.run_guided(ctx, &module, &cfgs, options, *g, src_key, &budget) {
                Ok(out) => out,
                Err(GuidedAbort::Hard(e)) => return Err(e),
                Err(GuidedAbort::Degrade(event)) => {
                    if options.strict {
                        return Err(strict_error(&event));
                    }
                    ctx.degrades.push(event);
                    // Whole-module sound fallback: full instrumentation,
                    // exempt from the budget (it must always complete).
                    let plan = ctx.timed(Stage::Instrument, |c| {
                        full_fallback_plan(&module, options, c.threads)
                    });
                    (None, None, None, None, 0, plan)
                }
            },
        };

        let mut report =
            PipelineReport::new(name.clone(), options, std::mem::take(&mut ctx.stages));
        report.set_artifacts(
            &module,
            pa.as_deref(),
            vfg.as_deref(),
            gamma.as_deref(),
            opt2_redirected,
            &plan,
        );
        report.cache_hits = ctx.hits;
        report.cache_misses = ctx.misses;
        report.degrade_events = std::mem::take(&mut ctx.degrades);
        report.budget_spent = budget.spent();
        report.cache_corrupt_recovered = ctx.corrupt_recovered;
        report.mem2reg_stats = ctx.mem2reg;
        report.total_seconds = start.elapsed().as_secs_f64();
        if ctx.retain {
            ctx.cfgs = Some(cfgs);
        }

        Ok(PipelineRun {
            name,
            options: options.clone(),
            module,
            pa,
            memssa,
            vfg,
            gamma,
            opt2_redirected,
            plan,
            report,
        })
    }

    /// The guided pipeline suffix (Pointer → MemSsa → VfgBuild → Resolve
    /// → Instrument) under budget, deadline and panic containment.
    ///
    /// Aborting with [`GuidedAbort::Degrade`] means "the guided analysis
    /// cannot soundly continue, instrument the whole module fully"; the
    /// per-function path (resolution exhaustion with full coverage
    /// attribution) is handled internally and does not abort.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn run_guided(
        &self,
        ctx: &mut RunCtx<'_>,
        module: &Arc<Module>,
        cfgs: &ModuleCfgs,
        options: &PipelineOptions,
        g: GuidedKnobs,
        src_key: u64,
        budget: &Budget,
    ) -> Result<
        (
            Option<Arc<PointerAnalysis>>,
            Option<Arc<MemSsa>>,
            Option<Arc<Vfg>>,
            Option<Arc<Gamma>>,
            usize,
            Arc<Plan>,
        ),
        GuidedAbort,
    > {
        // Pointer analysis. A partial points-to solution
        // under-approximates (missed aliases would un-instrument real
        // flows), so exhaustion or a panic here degrades the module.
        let pk = options.pointer_key(src_key);
        let pa: Arc<PointerAnalysis> = match ctx.lookup(pk) {
            Some(Artifact::Pointer(pa)) => {
                ctx.record(Stage::Pointer, 0.0, true);
                pa
            }
            _ => {
                deadline_gate(budget, Stage::Pointer)?;
                let strategy = options.pointer_strategy;
                let computed = ctx.timed(Stage::Pointer, |_| {
                    contained(options, Stage::Pointer, || {
                        strategy.analyze_budgeted(module, budget)
                    })
                });
                let pa = Arc::new(stage_result(computed, Stage::Pointer)?);
                ctx.store(pk, Artifact::Pointer(pa.clone()));
                pa
            }
        };

        // Memory SSA (full mode only; TL-only runs on an empty one). A
        // partial SSA under-approximates mod/ref effects: degrade.
        let memssa: Arc<MemSsa> = match g.mode {
            VfgMode::TlOnly => Arc::new(MemSsa::default()),
            VfgMode::Full => {
                let mk = options.memssa_key(src_key);
                match ctx.lookup(mk) {
                    Some(Artifact::MemSsa(ms)) => {
                        ctx.record(Stage::MemSsa, 0.0, true);
                        ms
                    }
                    _ => {
                        deadline_gate(budget, Stage::MemSsa)?;
                        let computed = ctx.timed(Stage::MemSsa, |c| {
                            let threads = c.threads;
                            contained(options, Stage::MemSsa, || {
                                build_memssa_parallel_budgeted(module, &pa, cfgs, threads, budget)
                            })
                        });
                        let (modref, ms) = stage_result(computed, Stage::MemSsa)?;
                        if ctx.retain {
                            ctx.modref = Some(modref);
                        }
                        let ms = Arc::new(ms);
                        ctx.store(mk, Artifact::MemSsa(ms.clone()));
                        ms
                    }
                }
            }
        };

        // VFG. A partial graph misses value-flow edges (unsound to
        // resolve over): degrade.
        let vk = options.vfg_key(src_key, &g);
        let vfg: Arc<Vfg> = match ctx.lookup(vk) {
            Some(Artifact::Vfg(v)) => {
                ctx.record(Stage::VfgBuild, 0.0, true);
                v
            }
            _ => {
                deadline_gate(budget, Stage::VfgBuild)?;
                let computed = ctx.timed(Stage::VfgBuild, |_| {
                    contained(options, Stage::VfgBuild, || {
                        build_with_budgeted(module, &pa, &memssa, cfgs, g.build_opts(), budget)
                    })
                });
                let v = Arc::new(stage_result(computed, Stage::VfgBuild)?);
                ctx.store(vk, Artifact::Vfg(v.clone()));
                v
            }
        };

        // Resolution (+ Opt II). This is the anytime stage: exhaustion
        // keeps exact values for every fully-processed SCC and forces
        // the rest to Bot, so only functions owning unresolved nodes
        // need the full-instrumentation fallback.
        let rk = options.resolve_key(src_key, &g);
        let mut fallback: HashSet<FuncId> = HashSet::new();
        let mut gamma_complete = true;
        let (gamma, redirected): (Arc<Gamma>, usize) = match ctx.lookup(rk) {
            Some(Artifact::Gamma(gm, r)) => {
                ctx.record(Stage::Resolve, 0.0, true);
                (gm, r)
            }
            _ => {
                deadline_gate(budget, Stage::Resolve)?;
                let computed = ctx.timed(Stage::Resolve, |_| {
                    contained(options, Stage::Resolve, || {
                        if g.opt2 {
                            let out = redundant_check_elimination_budgeted(
                                module,
                                &pa,
                                &memssa,
                                &vfg,
                                cfgs,
                                g.context_depth,
                                budget,
                            );
                            let complete = out.is_complete();
                            (
                                out.result.gamma,
                                out.result.redirected,
                                out.resolved,
                                complete,
                            )
                        } else {
                            let (gm, cov) = resolve_budgeted(&vfg, g.context_depth, budget);
                            let complete = cov.is_none();
                            (gm, 0, cov, complete)
                        }
                    })
                });
                // A panic mid-resolution leaves no coverage map to
                // attribute: degrade the module.
                let (gm, r, coverage, complete) = computed.map_err(|detail| {
                    GuidedAbort::Degrade(DegradeEvent {
                        stage: Stage::Resolve.name(),
                        reason: "stage-panic",
                        detail,
                    })
                })?;
                let gm = Arc::new(gm);
                if complete {
                    ctx.store(rk, Artifact::Gamma(gm.clone(), r));
                } else {
                    gamma_complete = false;
                    let Some(cov) = coverage else {
                        // Opt II discovery was truncated without touching
                        // resolution coverage — cannot happen with a
                        // sticky budget, but degrade defensively.
                        return Err(GuidedAbort::Degrade(DegradeEvent {
                            stage: Stage::Resolve.name(),
                            reason: "budget-exhausted",
                            detail: "check-elimination discovery truncated".to_string(),
                        }));
                    };
                    match degraded_functions(&vfg, &cov) {
                        Some(funcs) if funcs.is_empty() => {
                            // Exhausted after the last SCC: the map is
                            // fully exact, only its cacheability is lost.
                        }
                        Some(funcs) => {
                            if options.strict {
                                return Err(GuidedAbort::Hard(DriverError::BudgetExhausted {
                                    stage: Stage::Resolve.name(),
                                }));
                            }
                            ctx.degrades.push(DegradeEvent {
                                stage: Stage::Resolve.name(),
                                reason: "budget-exhausted",
                                detail: format!(
                                    "anytime resolution: {} of {} functions degrade to full instrumentation",
                                    funcs.len(),
                                    module.funcs.indices().count(),
                                ),
                            });
                            fallback = funcs;
                        }
                        None => {
                            // An ownerless root node is unresolved — no
                            // per-function attribution is sound.
                            return Err(GuidedAbort::Degrade(DegradeEvent {
                                stage: Stage::Resolve.name(),
                                reason: "budget-exhausted",
                                detail: "resolution exhausted before root nodes".to_string(),
                            }));
                        }
                    }
                }
                (gm, r)
            }
        };

        // Guided instrumentation planning (+ Opt I). With a non-empty
        // fallback set this emits the mixed plan: guided fragments for
        // covered functions, full instrumentation for degraded ones,
        // with every cross-boundary shadow coupling forced (see
        // `guided_plan_with_fallback`). Mixed or budget-truncated plans
        // are never cached.
        let plk = options.plan_key(src_key);
        let cached_plan = if fallback.is_empty() {
            ctx.lookup(plk)
        } else {
            None
        };
        let plan: Arc<Plan> = match cached_plan {
            Some(Artifact::Plan(p)) => {
                ctx.record(Stage::Instrument, 0.0, true);
                relabel(p, &options.label)
            }
            _ => {
                deadline_gate(budget, Stage::Instrument)?;
                let computed = ctx.timed(Stage::Instrument, |_| {
                    contained(options, Stage::Instrument, || {
                        guided_plan_with_fallback(
                            module,
                            &pa,
                            &memssa,
                            &vfg,
                            &gamma,
                            options.guided_opts().expect("a guided run"),
                            &fallback,
                            options.label.clone(),
                        )
                    })
                });
                // Planning itself is not budgeted, but it can panic; the
                // full-plan generator is a separate, simpler code path,
                // so degrading the module still makes progress.
                let p = Arc::new(computed.map_err(|detail| {
                    GuidedAbort::Degrade(DegradeEvent {
                        stage: Stage::Instrument.name(),
                        reason: "stage-panic",
                        detail,
                    })
                })?);
                if fallback.is_empty() && gamma_complete {
                    ctx.store(plk, Artifact::Plan(p.clone()));
                }
                p
            }
        };

        Ok((
            Some(pa),
            Some(memssa),
            Some(vfg),
            Some(gamma),
            redirected,
            plan,
        ))
    }

    /// The frontend super-stage: parse/lower/inline/mem2reg/opt, cached as
    /// one compiled-module artifact but timed per substage.
    ///
    /// It also returns the module's shared CFGs and dominator trees, the
    /// only ones the guided stages read. A TinyC compile fills every
    /// entry in its post-optimization verify; a module from the cache or
    /// the caller starts with none, and each entry is computed on first
    /// use.
    fn frontend(
        &self,
        ctx: &mut RunCtx<'_>,
        source: &SourceInput,
        options: &PipelineOptions,
        src_key: u64,
    ) -> Result<(Arc<Module>, ModuleCfgs), DriverError> {
        if let SourceInput::Module(m) = source {
            return Ok((m.clone(), ModuleCfgs::new(m)));
        }
        let fk = options.frontend_key(src_key);
        if let Some(Artifact::Module(m)) = ctx.lookup(fk) {
            ctx.record_frontend_cached(source);
            let cfgs = ModuleCfgs::new(&m);
            return Ok((m, cfgs));
        }
        let (module, cfgs) = match source {
            SourceInput::Module(_) => unreachable!("handled above"),
            SourceInput::IrText(text) => {
                let m = ctx.timed(Stage::Parse, |_| {
                    usher_ir::parse_text(text).map_err(|e| DriverError::Text(e.to_string()))
                })?;
                let cfgs = ModuleCfgs::new(&m);
                (Arc::new(m), cfgs)
            }
            SourceInput::TinyC(src) => {
                let prog = ctx
                    .timed(Stage::Parse, |_| usher_frontend::parser::parse(src))
                    .map_err(|e| DriverError::Compile(CompileError::Parse(e)))?;
                let (mut m, mut env) = ctx.timed(Stage::Lower, |_| {
                    let (m, env) = lower_program(&prog).map_err(CompileError::Lower)?;
                    usher_ir::verify(&m)
                        .map_err(|errs| CompileError::Verify(format!("{errs:?}")))?;
                    Ok::<(Module, LowerEnv), CompileError>((m, env))
                })?;
                let (_, inline) = ctx.timed(Stage::Inline, |_| {
                    run_inline_traced(&mut m, InlinePolicy::default())
                });
                let (stats, retired) = ctx.timed(Stage::Mem2Reg, |_| mem2reg_retiring(&mut m));
                ctx.mem2reg = stats;
                if ctx.retain {
                    env.retire_objects(&retired);
                    ctx.env = Some(env);
                    ctx.inline = Some(inline);
                }
                let cfgs = ctx.timed(Stage::Opt, |_| {
                    optimize(&mut m, options.opt_level);
                    let cfgs = ModuleCfgs::new(&m);
                    verify_with(&m, &cfgs)
                        .map_err(|errs| CompileError::Verify(format!("{errs:?}")))?;
                    Ok::<ModuleCfgs, CompileError>(cfgs)
                })?;
                (Arc::new(m), cfgs)
            }
        };
        ctx.store(fk, Artifact::Module(module.clone()));
        Ok((module, cfgs))
    }

    /// The MSan baseline plan ([`full_plan`]), through the cache.
    fn msan_plan(
        &self,
        ctx: &mut RunCtx<'_>,
        module: &Module,
        options: &PipelineOptions,
        src_key: u64,
    ) -> Arc<Plan> {
        let pk = options.plan_key(src_key);
        if let Some(Artifact::Plan(p)) = ctx.lookup(pk) {
            ctx.record(Stage::Instrument, 0.0, true);
            return relabel(p, &options.label);
        }
        let plan = ctx.timed(Stage::Instrument, |c| {
            Arc::new(full_plan(module, options, c.threads))
        });
        ctx.store(pk, Artifact::Plan(plan.clone()));
        plan
    }
}

/// How the guided pipeline suffix aborts.
enum GuidedAbort {
    /// Degrade the whole module to full instrumentation (or, in strict
    /// mode, surface the event as an error).
    Degrade(DegradeEvent),
    /// Propagate as-is (strict-mode conversions made inside the suffix).
    Hard(DriverError),
}

/// Strict mode maps a would-be degradation to its typed error.
fn strict_error(e: &DegradeEvent) -> DriverError {
    match e.reason {
        "budget-exhausted" => DriverError::BudgetExhausted { stage: e.stage },
        "deadline" => DriverError::DeadlineExceeded { stage: e.stage },
        _ => DriverError::StagePanic {
            stage: e.stage,
            detail: e.detail.clone(),
        },
    }
}

/// Degrades at a stage boundary when the wall-clock deadline has passed.
fn deadline_gate(budget: &Budget, stage: Stage) -> Result<(), GuidedAbort> {
    if budget.deadline_exceeded() {
        Err(GuidedAbort::Degrade(DegradeEvent {
            stage: stage.name(),
            reason: "deadline",
            detail: "wall-clock deadline passed at stage boundary".to_string(),
        }))
    } else {
        Ok(())
    }
}

/// Runs a stage computation under `catch_unwind`, firing the injected
/// panic first when [`PipelineOptions::inject_panic`] names this stage.
/// The artifacts a stage reads are immutable and the one it builds is
/// dropped on unwind, so resuming past a caught panic observes no broken
/// invariants (hence the `AssertUnwindSafe`).
fn contained<R>(
    options: &PipelineOptions,
    stage: Stage,
    f: impl FnOnce() -> R,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if options.inject_panic.as_deref() == Some(stage.name()) {
            panic!("injected panic in stage '{}'", stage.name());
        }
        f()
    }))
    .map_err(panic_message)
}

/// Classifies a contained, budgeted stage computation into its artifact
/// or the degradation it caused.
fn stage_result<R>(
    r: Result<Result<R, Exhausted>, String>,
    stage: Stage,
) -> Result<R, GuidedAbort> {
    match r {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(Exhausted)) => Err(GuidedAbort::Degrade(DegradeEvent {
            stage: stage.name(),
            reason: "budget-exhausted",
            detail: "partial result under-approximates and was discarded".to_string(),
        })),
        Err(detail) => Err(GuidedAbort::Degrade(DegradeEvent {
            stage: stage.name(),
            reason: "stage-panic",
            detail,
        })),
    }
}

/// Maps unresolved VFG nodes (under the anytime resolver's coverage map)
/// to the functions that must fall back to full instrumentation. Returns
/// `None` when an ownerless node — a root — is unresolved, in which case
/// no per-function attribution is sound.
fn degraded_functions(vfg: &Vfg, coverage: &[bool]) -> Option<HashSet<FuncId>> {
    let mut funcs = HashSet::new();
    for (v, &covered) in coverage.iter().enumerate().take(vfg.len()) {
        if covered {
            continue;
        }
        match vfg.nodes[v] {
            NodeKind::Tl(f, _) | NodeKind::Mem(f, _) => {
                funcs.insert(f);
            }
            NodeKind::Check(site) => {
                funcs.insert(site.func);
            }
            NodeKind::RootT | NodeKind::RootF => return None,
        }
    }
    Some(funcs)
}

/// Runs the pointer stage standalone, unbudgeted, exactly as the
/// pipeline's pointer stage does; benches and tests use it to get
/// strategy-faithful runs without a full pipeline. The solvers are
/// sequential, so `threads` changes nothing; it stays in the signature
/// because the `perfbench` harness passes it.
pub fn analyze_pointer(m: &Module, strategy: PointerStrategy, _threads: usize) -> PointerAnalysis {
    strategy
        .analyze_budgeted(m, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// Full (MSan) instrumentation, planned per function in parallel and
/// absorbed in deterministic function order.
fn full_plan(module: &Module, options: &PipelineOptions, threads: usize) -> Plan {
    let fids: Vec<FuncId> = module.funcs.indices().collect();
    let parts = parallel_map(threads, &fids, |&fid| {
        full_plan_func(module, fid, options.bit_level)
    });
    let mut p = Plan {
        name: options.label.clone(),
        ..Default::default()
    };
    for part in parts {
        p.absorb(part);
    }
    p.finalize_stats();
    p
}

/// The whole-module sound fallback: the full-MSan plan with every
/// function stamped [`PlanProvenance::FallbackFull`]. Never cached — its
/// content belongs to the MSan configuration's key, not this one's.
fn full_fallback_plan(module: &Module, options: &PipelineOptions, threads: usize) -> Arc<Plan> {
    let mut p = full_plan(module, options, threads);
    stamp_provenance(&mut p, module, PlanProvenance::FallbackFull);
    Arc::new(p)
}

/// Re-labels a cache-shared plan when the caller's display label differs
/// (cache keys deliberately exclude the label).
fn relabel(p: Arc<Plan>, label: &str) -> Arc<Plan> {
    if p.name == label {
        p
    } else {
        let mut q = (*p).clone();
        q.name = label.to_string();
        Arc::new(q)
    }
}

/// Memory SSA with the per-function phase fanned out over the pool,
/// returned with the mod/ref summaries it was built from. The
/// interprocedural summaries are sequential (they are a fixed-point over
/// the call graph); each function's versioning is then independent. The
/// shared budget is charged from every worker; any exhaustion discards
/// the whole (under-approximating) result.
fn build_memssa_parallel_budgeted(
    m: &Module,
    pa: &PointerAnalysis,
    cfgs: &ModuleCfgs,
    threads: usize,
    budget: &Budget,
) -> Result<(ModRef, MemSsa), Exhausted> {
    let modref = modref_summaries_budgeted(m, pa, budget)?;
    let fids: Vec<FuncId> = m.funcs.indices().collect();
    let per_func = parallel_map(threads, &fids, |&fid| {
        build_function_ssa_budgeted(m, pa, fid, cfgs, &modref, budget)
    });
    let mut out = MemSsa::default();
    for (fid, fs) in fids.into_iter().zip(per_func) {
        if let Some(fs) = fs? {
            out.funcs.insert(fid, fs);
        }
    }
    Ok((modref, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_core::Config;

    const SRC: &str = "
        int g;
        def helper(int a) -> int { int t; if (a > 1) { t = a; } return t; }
        def main(int c) -> int { g = helper(c); print(g); return 0; }
    ";

    /// The serve engine's persistent store is keyed by these values, so a
    /// change to any of them orphans the entries stored under the old
    /// value; the pin makes such a change deliberate. A change to what an
    /// artifact holds must bump `CACHE_FORMAT_VERSION` instead.
    #[test]
    fn tinyc_keys_are_pinned() {
        let src = "def main() -> int {\n    int x;\n    if (x > 0) { print(1); }\n    return 0;\n}";
        let sk = tinyc_source_key(src);
        assert_eq!(sk, SourceInput::TinyC(src.to_string()).source_key());
        assert_eq!(sk, 0x2f00_3c4d_9563_20b5);
        let opts = PipelineOptions::from_config(Config::USHER).labelled("serve");
        let g = opts.guided.unwrap();
        assert_eq!(opts.frontend_key(sk), 0x889c_559e_50f3_b420);
        assert_eq!(opts.resolve_key(sk, &g), 0xe6af_25ef_8370_1679);
        assert_eq!(opts.plan_key(sk), 0x82cd_c504_0cc2_28c2);
        assert_eq!(crate::CACHE_FORMAT_VERSION, 3);
    }

    #[test]
    fn retained_run_matches_a_plain_run_and_keeps_the_splice_state() {
        let pipe = Pipeline::new().with_threads(1);
        let opts = PipelineOptions::from_config(Config::USHER);
        let plain = pipe.run_source("t", SRC, opts.clone()).unwrap();
        let entries = pipe.cache_stats().entries;
        let kept = pipe.run_retained("t", SRC, opts).unwrap();
        assert_eq!(pipe.cache_stats().entries, entries, "fills no cache entry");
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&plain.plan),
            crate::fingerprint::plan_fingerprint(&kept.run.plan),
        );
        let stages = |r: &PipelineReport| -> Vec<&'static str> {
            r.stages.iter().map(|t| t.stage.name()).collect()
        };
        assert_eq!(stages(&plain.report), stages(&kept.run.report));
        assert!(kept.run.report.stages.iter().all(|t| !t.cached));
        assert_eq!(kept.run.report.cache_hits + kept.run.report.cache_misses, 0);
        assert!(kept.modref.is_some());
        assert!(kept.env.funcs.contains_key("helper"));
        for a in [
            Arc::strong_count(kept.run.pa.as_ref().unwrap()),
            Arc::strong_count(kept.run.vfg.as_ref().unwrap()),
        ] {
            assert_eq!(a, 1, "a retained run shares no artifact");
        }
    }

    #[test]
    fn thread_requests_are_clamped_to_available_parallelism() {
        let pipe = Pipeline::new().with_threads(100_000);
        assert_eq!(pipe.requested_threads(), 100_000);
        assert!(pipe.threads() <= crate::pool::default_threads());
        assert!(pipe.threads() >= 1);
        let (_runs, report) = pipe.run_batch(&[]);
        assert_eq!(report.requested_threads, 100_000);
        assert_eq!(report.threads, pipe.threads());
    }

    #[test]
    fn run_matches_run_config() {
        let pipe = Pipeline::new().with_threads(1);
        let run = pipe
            .run_source("t", SRC, PipelineOptions::from_config(Config::USHER))
            .expect("compiles");
        let m = usher_frontend::compile_o0im(SRC).unwrap();
        let want = usher_core::run_config(&m, Config::USHER);
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&run.plan),
            crate::fingerprint::plan_fingerprint(&want.plan),
        );
        assert_eq!(run.opt2_redirected, want.opt2_redirected);
        assert_eq!(run.report.bot_nodes, want.gamma.unwrap().bot_count());
    }

    #[test]
    fn msan_run_matches_run_config() {
        for threads in [1, 4] {
            let pipe = Pipeline::new().with_threads(threads);
            let run = pipe
                .run_source("t", SRC, PipelineOptions::from_config(Config::MSAN))
                .expect("compiles");
            let m = usher_frontend::compile_o0im(SRC).unwrap();
            let want = usher_core::run_config(&m, Config::MSAN);
            assert_eq!(
                crate::fingerprint::plan_fingerprint(&run.plan),
                crate::fingerprint::plan_fingerprint(&want.plan),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn second_run_is_fully_cached() {
        let pipe = Pipeline::new();
        let opts = PipelineOptions::from_config(Config::USHER);
        let cold = pipe.run_source("t", SRC, opts.clone()).unwrap();
        assert_eq!(cold.report.cache_hits, 0);
        let warm = pipe.run_source("t", SRC, opts).unwrap();
        assert_eq!(warm.report.cache_misses, 0, "{:?}", warm.report.stages);
        assert!(warm.report.stages.iter().all(|s| s.cached));
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&cold.plan),
            crate::fingerprint::plan_fingerprint(&warm.plan),
        );
        // `mem2reg`'s counters describe the cold compile; a cached
        // frontend reports zero, like the solver's.
        let mut m = usher_frontend::compile(SRC).unwrap();
        usher_ir::run_inline(&mut m, InlinePolicy::default());
        let want = usher_ir::mem2reg(&mut m);
        assert!(want.phis_inserted > 0, "{want:?}");
        assert_eq!(cold.report.mem2reg_stats, want);
        assert_eq!(warm.report.mem2reg_stats, Mem2RegStats::default());
        let line = cold.report.to_json_line();
        let field = format!("\"phis_inserted\":{}", want.phis_inserted);
        assert!(line.contains(&field), "{line}");
    }

    #[test]
    fn no_cache_pipeline_never_hits() {
        let pipe = Pipeline::new().without_cache();
        let opts = PipelineOptions::from_config(Config::USHER);
        pipe.run_source("t", SRC, opts.clone()).unwrap();
        let again = pipe.run_source("t", SRC, opts).unwrap();
        assert_eq!(again.report.cache_hits, 0);
        assert_eq!(pipe.cache_stats().entries, 0);
    }

    #[test]
    fn uir_roundtrip_runs() {
        let m = usher_frontend::compile_o0im(SRC).unwrap();
        let text = usher_ir::write_text(&m);
        let pipe = Pipeline::new();
        let run = pipe
            .run(
                "uir",
                SourceInput::IrText(text),
                PipelineOptions::from_config(Config::MSAN),
            )
            .expect("parses");
        assert!(run.plan.stats.ops > 0);
        let want = usher_core::run_config(&m, Config::MSAN);
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&run.plan),
            crate::fingerprint::plan_fingerprint(&want.plan),
        );
    }

    #[test]
    fn batch_preserves_job_order() {
        let pipe = Pipeline::new().with_threads(4);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                Job::new(
                    format!("job{i}"),
                    SourceInput::TinyC(SRC.to_string()),
                    PipelineOptions::from_config(Config::USHER),
                )
            })
            .collect();
        let (runs, report) = pipe.run_batch(&jobs);
        assert_eq!(runs.len(), 6);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().name, format!("job{i}"));
        }
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.requested_threads, 4);
        assert_eq!(report.threads, 4.min(crate::pool::default_threads()));
    }

    #[test]
    fn compile_errors_surface() {
        let pipe = Pipeline::new();
        let res = pipe.run_source("bad", "def main() { x = 1; }", PipelineOptions::default());
        match res {
            Err(err) => assert!(matches!(err, DriverError::Compile(_)), "{err}"),
            Ok(_) => panic!("expected a compile error"),
        }
    }

    #[test]
    fn tiny_budget_degrades_to_sound_full_fallback() {
        let pipe = Pipeline::new().without_cache();
        let opts = PipelineOptions::from_config(Config::USHER).with_budget_steps(Some(1));
        let run = pipe
            .run_source("t", SRC, opts)
            .expect("degrades, not errors");
        let m = usher_frontend::compile_o0im(SRC).unwrap();
        let msan = usher_core::run_config(&m, Config::MSAN);
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&run.plan),
            crate::fingerprint::plan_fingerprint(&msan.plan),
            "whole-module fallback must equal the full-MSan plan"
        );
        assert!(!run.report.degrade_events.is_empty());
        assert_eq!(run.report.degrade_events[0].reason, "budget-exhausted");
        let (_, _, fb) = run.plan.provenance_counts();
        assert!(fb > 0);
        assert_eq!(run.report.functions_degraded, run.report.functions_total);
        assert!(run.report.budget_spent <= 1);
    }

    #[test]
    fn budget_sweep_always_completes_and_converges() {
        let pipe = Pipeline::new().without_cache();
        let base = pipe
            .run_source("t", SRC, PipelineOptions::from_config(Config::USHER))
            .unwrap();
        for steps in [0u64, 3, 30, 300, 3_000, 30_000] {
            let opts = PipelineOptions::from_config(Config::USHER).with_budget_steps(Some(steps));
            let run = pipe.run_source("t", SRC, opts).expect("never errors");
            let (_, _, fb) = run.plan.provenance_counts();
            if run.report.degrade_events.is_empty() {
                assert_eq!(fb, 0, "steps={steps}");
                assert_eq!(
                    crate::fingerprint::plan_fingerprint(&run.plan),
                    crate::fingerprint::plan_fingerprint(&base.plan),
                    "clean budgeted run must match the unbudgeted plan (steps={steps})"
                );
            } else {
                assert!(fb > 0, "degraded run must mark fallback functions");
            }
        }
        let huge = pipe
            .run_source(
                "t",
                SRC,
                PipelineOptions::from_config(Config::USHER).with_budget_steps(Some(u64::MAX)),
            )
            .unwrap();
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&huge.plan),
            crate::fingerprint::plan_fingerprint(&base.plan),
        );
        assert!(huge.report.budget_spent > 0);
        assert!(huge.report.degrade_events.is_empty());
    }

    #[test]
    fn injected_panic_degrades_every_guided_stage() {
        for stage in ["pointer", "memssa", "vfg", "resolve", "instrument"] {
            let pipe = Pipeline::new().without_cache();
            let opts = PipelineOptions::from_config(Config::USHER)
                .with_inject_panic(Some(stage.to_string()));
            let run = pipe.run_source("t", SRC, opts).expect("contained");
            assert!(
                run.report
                    .degrade_events
                    .iter()
                    .any(|e| e.reason == "stage-panic" && e.stage == stage),
                "{stage}: {:?}",
                run.report.degrade_events
            );
            let (_, _, fb) = run.plan.provenance_counts();
            assert_eq!(fb, run.report.functions_total, "{stage}");
        }
    }

    #[test]
    fn strict_mode_surfaces_degradations_as_errors() {
        let pipe = Pipeline::new().without_cache();
        let opts = PipelineOptions::from_config(Config::USHER)
            .with_budget_steps(Some(1))
            .strict(true);
        match pipe.run_source("t", SRC, opts) {
            Err(DriverError::BudgetExhausted { stage }) => {
                assert!(
                    ["pointer", "memssa", "vfg", "resolve"].contains(&stage),
                    "{stage}"
                );
            }
            Err(e) => panic!("expected BudgetExhausted, got {e}"),
            Ok(_) => panic!("expected an error"),
        }
        let opts = PipelineOptions::from_config(Config::USHER)
            .with_inject_panic(Some("resolve".to_string()))
            .strict(true);
        match pipe.run_source("t", SRC, opts) {
            Err(DriverError::StagePanic { stage, detail }) => {
                assert_eq!(stage, "resolve");
                assert!(detail.contains("injected"), "{detail}");
            }
            Err(e) => panic!("expected StagePanic, got {e}"),
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn batch_panic_poisons_only_its_job() {
        let mk = |i: usize, faulty: bool| {
            let mut o = PipelineOptions::from_config(Config::USHER);
            if faulty {
                o = o.with_inject_panic(Some("vfg".to_string())).strict(true);
            }
            Job::new(format!("job{i}"), SourceInput::TinyC(SRC.to_string()), o)
        };
        let pipe = Pipeline::new().without_cache().with_threads(3);
        let (runs, report) = pipe.run_batch(&[mk(0, false), mk(1, true), mk(2, false)]);
        assert!(
            matches!(runs[1], Err(DriverError::StagePanic { .. })),
            "faulty job must error, not crash the batch"
        );
        let clean: Vec<Job> = (0..3).map(|i| mk(i, false)).collect();
        let (clean_runs, _) = pipe.run_batch(&clean);
        for i in [0usize, 2] {
            assert_eq!(
                crate::fingerprint::plan_fingerprint(&runs[i].as_ref().unwrap().plan),
                crate::fingerprint::plan_fingerprint(&clean_runs[i].as_ref().unwrap().plan),
                "sibling job{i} must be byte-identical to the fault-free run"
            );
        }
        assert_eq!(report.runs.len(), 2, "report covers the successful runs");
    }

    #[test]
    fn corrupt_cache_self_heals_with_identical_plan() {
        let pipe = Pipeline::new();
        let opts = PipelineOptions::from_config(Config::USHER);
        let cold = pipe.run_source("t", SRC, opts.clone()).unwrap();
        assert!(pipe.corrupt_cache() > 0);
        let healed = pipe.run_source("t", SRC, opts.clone()).unwrap();
        assert_eq!(
            crate::fingerprint::plan_fingerprint(&cold.plan),
            crate::fingerprint::plan_fingerprint(&healed.plan),
            "recovery must reproduce the original plan"
        );
        assert!(healed.report.cache_corrupt_recovered > 0);
        assert!(healed
            .report
            .degrade_events
            .iter()
            .any(|e| e.reason == "cache-corrupt"));
        assert!(pipe.cache_stats().corrupt_recovered > 0);
        let warm = pipe.run_source("t", SRC, opts).unwrap();
        assert_eq!(warm.report.cache_misses, 0, "cache is healthy again");
    }
}
