//! Pipeline options: one flat, explicit bag of knobs covering every stage
//! of the analysis, and the per-stage cache keys derived from it.
//!
//! Each stage's key mixes in **only the options that stage (or one of its
//! ancestors) consumes**, so flipping a knob invalidates exactly the
//! suffix of the pipeline that depends on it:
//!
//! | knob changed          | recomputed stages                    |
//! |-----------------------|--------------------------------------|
//! | `opt_level`           | everything                           |
//! | `pointer_strategy`    | pointer artifact only (oracle runs)  |
//! | `guided.mode`         | VFG, resolution, instrumentation     |
//! | `guided.semi_strong`  | VFG, resolution, instrumentation     |
//! | `guided.context_depth`| resolution, instrumentation          |
//! | `guided.opt2`         | resolution, instrumentation          |
//! | `guided.demand`       | resolution, instrumentation          |
//! | `guided.opt1`         | instrumentation                      |
//! | `bit_level`           | instrumentation                      |
//! | `label`               | nothing (display only)               |
//!
//! Degradation knobs — `budget_steps`, `deadline_ms`, `strict`,
//! `inject_panic` — are deliberately excluded from **every** key: only
//! complete, fault-free artifacts are ever cached, and those are
//! byte-identical to what an unlimited run produces, so a budgeted run
//! may both consume and feed the same cache as an unbudgeted one.

use usher_core::{Config, GuidedOpts};
use usher_ir::OptLevel;
use usher_pointer::PointerStrategy;
use usher_vfg::{BuildOpts, VfgMode};

use crate::key::KeyWriter;

/// Knobs of a guided (Usher) configuration, flattened so ablation sweeps
/// can vary each independently of the [`Config`] presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuidedKnobs {
    /// Variable-class scope of the VFG.
    pub mode: VfgMode,
    /// Apply the semi-strong update rule at stores (Section 3.2).
    pub semi_strong: bool,
    /// Context depth k of definedness resolution (the paper uses 1).
    pub context_depth: usize,
    /// Opt I: value-flow simplification over MFCs.
    pub opt1: bool,
    /// Opt II: redundant check elimination.
    pub opt2: bool,
    /// Demand-driven resolution: answer definedness only for the check
    /// nodes (sparse backward walks with memoization) instead of the
    /// exhaustive whole-graph fixpoint. Honored in full mode with Opt II
    /// off ([`PipelineOptions::with_demand`] enforces that combination);
    /// otherwise the exhaustive resolver runs. Verdicts are byte-equal
    /// to the exhaustive resolver on every node planning consults.
    pub demand: bool,
}

impl GuidedKnobs {
    /// The VFG construction options these knobs select.
    pub fn build_opts(&self) -> BuildOpts {
        BuildOpts {
            mode: self.mode,
            semi_strong: self.semi_strong,
        }
    }
}

impl Default for GuidedKnobs {
    /// Full Usher: both optimizations, k = 1, semi-strong on.
    fn default() -> Self {
        GuidedKnobs {
            mode: VfgMode::Full,
            semi_strong: true,
            context_depth: 1,
            opt1: true,
            opt2: true,
            demand: false,
        }
    }
}

/// Everything that parameterizes one pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineOptions {
    /// Compiler configuration (`O0+IM`, `O1`, `O2`).
    pub opt_level: OptLevel,
    /// `None` runs the MSan-style full-instrumentation baseline (no
    /// pointer analysis, no VFG); `Some` runs the guided pipeline.
    pub guided: Option<GuidedKnobs>,
    /// Bit-level shadow precision (Section 4.1).
    pub bit_level: bool,
    /// Which pointer-analysis solver runs the pointer stage: the
    /// production solver (the default) or the frozen reference oracle,
    /// which the differential fuzz mode (`usher fuzz --fault
    /// strategy-diverge`) selects here. Both produce
    /// byte-identical results (enforced by the representation-equivalence
    /// suite), but their `SolverStats` counters differ, so the strategy
    /// **is** part of the pointer cache key (and only that key —
    /// downstream artifacts are strategy-invariant and chain off the
    /// frontend key).
    pub pointer_strategy: PointerStrategy,
    /// Display name stamped on the produced plan and telemetry. Not part
    /// of any cache key.
    pub label: String,
    /// Step budget shared by every analysis stage of the run (pointer
    /// solving, MemSSA, VFG construction, resolution). `None` is
    /// unlimited. On exhaustion the run degrades soundly — per function
    /// when resolution ran out, whole-module otherwise — instead of
    /// failing. Not part of any cache key.
    pub budget_steps: Option<u64>,
    /// Wall-clock deadline in milliseconds, polled at stage boundaries.
    /// `None` is unlimited. Not part of any cache key.
    pub deadline_ms: Option<u64>,
    /// Treat any degradation (budget exhaustion, deadline, contained
    /// stage panic) as a hard error instead of falling back. Not part of
    /// any cache key.
    pub strict: bool,
    /// Fault injection: panic inside the named stage's contained region
    /// (a stage name as printed in telemetry, e.g. `"resolve"`). Testing
    /// hook; not part of any cache key.
    pub inject_panic: Option<String>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions::from_config(Config::USHER)
    }
}

impl PipelineOptions {
    /// Maps one of the paper's [`Config`] presets onto driver options.
    pub fn from_config(cfg: Config) -> PipelineOptions {
        match cfg.usher {
            None => PipelineOptions {
                opt_level: OptLevel::O0Im,
                guided: None,
                bit_level: cfg.bit_level,
                pointer_strategy: PointerStrategy::default(),
                label: cfg.name.to_string(),
                budget_steps: None,
                deadline_ms: None,
                strict: false,
                inject_panic: None,
            },
            Some(u) => PipelineOptions {
                opt_level: OptLevel::O0Im,
                guided: Some(GuidedKnobs {
                    mode: u.mode,
                    semi_strong: true,
                    context_depth: u.context_depth,
                    opt1: u.opt1,
                    opt2: u.opt2,
                    demand: false,
                }),
                bit_level: u.bit_level,
                pointer_strategy: PointerStrategy::default(),
                label: cfg.name.to_string(),
                budget_steps: None,
                deadline_ms: None,
                strict: false,
                inject_panic: None,
            },
        }
    }

    /// Same options under a different compiler optimization level.
    pub fn at_level(mut self, level: OptLevel) -> PipelineOptions {
        self.opt_level = level;
        self
    }

    /// Same options under a different display label.
    pub fn labelled(mut self, label: impl Into<String>) -> PipelineOptions {
        self.label = label.into();
        self
    }

    /// Same options with an analysis step budget.
    pub fn with_budget_steps(mut self, steps: Option<u64>) -> PipelineOptions {
        self.budget_steps = steps;
        self
    }

    /// Same options with a wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: Option<u64>) -> PipelineOptions {
        self.deadline_ms = ms;
        self
    }

    /// Same options with strict mode (degradations become errors).
    pub fn strict(mut self, strict: bool) -> PipelineOptions {
        self.strict = strict;
        self
    }

    /// Same options with a panic injected into the named stage.
    pub fn with_inject_panic(mut self, stage: Option<String>) -> PipelineOptions {
        self.inject_panic = stage;
        self
    }

    /// Same options under a different pointer-solver strategy.
    pub fn with_pointer_strategy(mut self, strategy: PointerStrategy) -> PipelineOptions {
        self.pointer_strategy = strategy;
        self
    }

    /// Enables demand-driven resolution on a guided configuration.
    /// Forces Opt II off: redundant check elimination needs the
    /// exhaustive gamma, and the point of demand mode is not computing
    /// one. No-op on the MSan baseline (there is nothing to resolve).
    pub fn with_demand(mut self, demand: bool) -> PipelineOptions {
        if let Some(g) = &mut self.guided {
            g.demand = demand;
            if demand {
                g.opt2 = false;
            }
        }
        self
    }

    /// The guided planner's options (`None` for the MSan baseline).
    pub fn guided_opts(&self) -> Option<GuidedOpts> {
        self.guided.map(|g| GuidedOpts {
            opt1: g.opt1,
            full_memory: g.mode == VfgMode::TlOnly,
            bit_level: self.bit_level,
        })
    }

    fn opt_level_tag(&self) -> u64 {
        match self.opt_level {
            OptLevel::O0Im => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }

    fn mode_tag(mode: VfgMode) -> u64 {
        match mode {
            VfgMode::TlOnly => 0,
            VfgMode::Full => 1,
        }
    }

    /// Cache key of the compiled module (frontend stages Parse → Opt).
    pub fn frontend_key(&self, source_key: u64) -> u64 {
        let mut k = KeyWriter::new("frontend");
        k.u64(source_key).u64(self.opt_level_tag());
        k.finish()
    }

    /// Cache key of the pointer analysis. Includes the solver strategy:
    /// results are equivalence-tested across strategies, but the stats
    /// counters embedded in the artifact (and its digest) are
    /// strategy-specific, so artifacts must not be shared.
    pub fn pointer_key(&self, source_key: u64) -> u64 {
        let mut k = KeyWriter::new("pointer");
        k.u64(self.frontend_key(source_key))
            .str(self.pointer_strategy.name());
        k.finish()
    }

    /// Cache key of the memory SSA (mode-independent: only built — and
    /// only consulted — in full mode).
    pub fn memssa_key(&self, source_key: u64) -> u64 {
        let mut k = KeyWriter::new("memssa");
        k.u64(self.frontend_key(source_key));
        k.finish()
    }

    /// Cache key of the VFG (guided pipelines only).
    pub fn vfg_key(&self, source_key: u64, g: &GuidedKnobs) -> u64 {
        let mut k = KeyWriter::new("vfg");
        k.u64(self.frontend_key(source_key))
            .u64(Self::mode_tag(g.mode))
            .bool(g.semi_strong);
        k.finish()
    }

    /// Cache key of the resolved `Gamma` (post-Opt II when enabled).
    pub fn resolve_key(&self, source_key: u64, g: &GuidedKnobs) -> u64 {
        let mut k = KeyWriter::new("resolve");
        k.u64(self.vfg_key(source_key, g))
            .u64(g.context_depth as u64)
            .bool(g.opt2)
            .bool(g.demand);
        k.finish()
    }

    /// Cache key of the instrumentation plan.
    pub fn plan_key(&self, source_key: u64) -> u64 {
        match &self.guided {
            None => {
                let mut k = KeyWriter::new("fullplan");
                k.u64(self.frontend_key(source_key)).bool(self.bit_level);
                k.finish()
            }
            Some(g) => {
                let mut k = KeyWriter::new("guidedplan");
                k.u64(self.resolve_key(source_key, g))
                    .bool(g.opt1)
                    .bool(self.bit_level);
                k.finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_map_faithfully() {
        let msan = PipelineOptions::from_config(Config::MSAN);
        assert!(msan.guided.is_none());
        assert!(!msan.bit_level);
        assert_eq!(msan.label, "MSan");

        let usher = PipelineOptions::from_config(Config::USHER);
        let g = usher.guided.expect("guided");
        assert!(g.opt1 && g.opt2 && g.semi_strong);
        assert_eq!(g.context_depth, 1);
        assert_eq!(g.mode, VfgMode::Full);

        let bit = PipelineOptions::from_config(Config::USHER_BIT);
        assert!(bit.bit_level);
    }

    #[test]
    fn key_derivation_isolates_stage_suffixes() {
        let src = 0x1234;
        let base = PipelineOptions::from_config(Config::USHER);
        let g = base.guided.unwrap();

        // opt1 only moves the plan key.
        let mut opt1_off = g;
        opt1_off.opt1 = false;
        let changed = PipelineOptions {
            guided: Some(opt1_off),
            ..base.clone()
        };
        assert_eq!(base.vfg_key(src, &g), changed.vfg_key(src, &opt1_off));
        assert_eq!(
            base.resolve_key(src, &g),
            changed.resolve_key(src, &opt1_off)
        );
        assert_ne!(base.plan_key(src), changed.plan_key(src));

        // context_depth moves resolve + plan but not the VFG.
        let mut k2 = g;
        k2.context_depth = 2;
        let changed = PipelineOptions {
            guided: Some(k2),
            ..base.clone()
        };
        assert_eq!(base.vfg_key(src, &g), changed.vfg_key(src, &k2));
        assert_ne!(base.resolve_key(src, &g), changed.resolve_key(src, &k2));
        assert_ne!(base.plan_key(src), changed.plan_key(src));

        // demand moves resolve + plan but not the VFG (the demand gamma
        // forces un-walked nodes to Bot, so it must not share the
        // exhaustive resolver's cache entry).
        let demand = PipelineOptions {
            guided: base.guided,
            ..base.clone()
        }
        .with_demand(true);
        let dg = demand.guided.unwrap();
        assert!(dg.demand && !dg.opt2, "with_demand must force opt2 off");
        assert_eq!(base.vfg_key(src, &g), demand.vfg_key(src, &dg));
        assert_ne!(base.resolve_key(src, &g), demand.resolve_key(src, &dg));
        assert_ne!(base.plan_key(src), demand.plan_key(src));
        // ... and differs from plain opt2-off too (distinct artifacts).
        let mut opt2_off = g;
        opt2_off.opt2 = false;
        let plain = PipelineOptions {
            guided: Some(opt2_off),
            ..base.clone()
        };
        assert_ne!(
            plain.resolve_key(src, &opt2_off),
            demand.resolve_key(src, &dg)
        );

        // semi_strong moves the VFG and everything after.
        let mut ss = g;
        ss.semi_strong = false;
        let changed = PipelineOptions {
            guided: Some(ss),
            ..base.clone()
        };
        assert_ne!(base.vfg_key(src, &g), changed.vfg_key(src, &ss));
        assert_ne!(base.resolve_key(src, &g), changed.resolve_key(src, &ss));

        // opt_level moves everything.
        let changed = base.clone().at_level(OptLevel::O2);
        assert_ne!(base.frontend_key(src), changed.frontend_key(src));
        assert_ne!(base.pointer_key(src), changed.pointer_key(src));

        // label moves nothing.
        let changed = base.clone().labelled("other");
        assert_eq!(base.plan_key(src), changed.plan_key(src));

        // pointer_strategy moves the pointer artifact and nothing else.
        let changed = base
            .clone()
            .with_pointer_strategy(PointerStrategy::Reference);
        assert_ne!(base.pointer_key(src), changed.pointer_key(src));
        assert_eq!(base.frontend_key(src), changed.frontend_key(src));
        assert_eq!(base.memssa_key(src), changed.memssa_key(src));
        assert_eq!(base.vfg_key(src, &g), changed.vfg_key(src, &g));
        assert_eq!(base.resolve_key(src, &g), changed.resolve_key(src, &g));
        assert_eq!(base.plan_key(src), changed.plan_key(src));
    }

    #[test]
    fn degradation_knobs_never_touch_cache_keys() {
        let src = 0x5678;
        let base = PipelineOptions::from_config(Config::USHER);
        let g = base.guided.unwrap();
        let changed = base
            .clone()
            .with_budget_steps(Some(100))
            .with_deadline_ms(Some(5))
            .strict(true)
            .with_inject_panic(Some("resolve".into()));
        let cg = changed.guided.unwrap();
        assert_eq!(base.frontend_key(src), changed.frontend_key(src));
        assert_eq!(base.pointer_key(src), changed.pointer_key(src));
        assert_eq!(base.memssa_key(src), changed.memssa_key(src));
        assert_eq!(base.vfg_key(src, &g), changed.vfg_key(src, &cg));
        assert_eq!(base.resolve_key(src, &g), changed.resolve_key(src, &cg));
        assert_eq!(base.plan_key(src), changed.plan_key(src));
    }
}
