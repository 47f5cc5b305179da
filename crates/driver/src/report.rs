//! Pipeline telemetry: per-stage wall time, cache hits/misses and the
//! analysis counters, exportable as JSON lines for the bench harness.

use std::fmt::Write as _;

use usher_core::{Gamma, Plan, PlanStats, ResolveStats};
use usher_ir::{Mem2RegStats, Module};
use usher_pointer::{PointerAnalysis, SolverStats};
use usher_vfg::{Vfg, VfgStats};

use crate::options::PipelineOptions;

/// A stage of the analysis pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// TinyC (or IR text) parsing.
    Parse,
    /// AST lowering to raw IR.
    Lower,
    /// Function inlining (the `IM` of `O0+IM`).
    Inline,
    /// SSA construction (`mem2reg`).
    Mem2Reg,
    /// Scalar optimization pipeline (`-O1`/`-O2`).
    Opt,
    /// Andersen pointer analysis.
    Pointer,
    /// Memory SSA construction.
    MemSsa,
    /// Value-flow graph construction.
    VfgBuild,
    /// Definedness resolution (including Opt II when enabled).
    Resolve,
    /// Instrumentation planning (full or guided, including Opt I).
    Instrument,
}

impl Stage {
    /// Stable display/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Lower => "lower",
            Stage::Inline => "inline",
            Stage::Mem2Reg => "mem2reg",
            Stage::Opt => "opt",
            Stage::Pointer => "pointer",
            Stage::MemSsa => "memssa",
            Stage::VfgBuild => "vfg",
            Stage::Resolve => "resolve",
            Stage::Instrument => "instrument",
        }
    }
}

/// One stage's contribution to a run.
#[derive(Clone, Copy, Debug)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock seconds spent (0 when served from cache).
    pub seconds: f64,
    /// Whether the artifact came from the cache.
    pub cached: bool,
}

/// Why (part of) a run fell back to the always-sound full-MSan plan, or
/// recovered from a fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Stage name (as in [`Stage::name`], or `"batch"` for batch-level
    /// containment).
    pub stage: &'static str,
    /// `"budget-exhausted"`, `"deadline"`, `"stage-panic"` or
    /// `"cache-corrupt"`.
    pub reason: &'static str,
    /// Free-form detail (panic message, coverage summary, ...).
    pub detail: String,
}

/// Telemetry for one pipeline run (one program under one configuration).
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Program/workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// Compiler level name (`O0+IM`, `O1`, `O2`).
    pub opt_level: String,
    /// Per-stage timings in execution order.
    pub stages: Vec<StageTiming>,
    /// Stage lookups served from the artifact cache in this run.
    pub cache_hits: usize,
    /// Stage lookups that missed and computed in this run.
    pub cache_misses: usize,
    /// Total wall-clock seconds of the run (analysis only, no execution).
    pub total_seconds: f64,
    /// `mem2reg` counters (slots promoted, phis inserted, `Undef`
    /// reads); zero when the frontend was served from cache or the
    /// module was not compiled from TinyC in this run.
    pub mem2reg_stats: Mem2RegStats,
    /// Static plan statistics.
    pub plan_stats: PlanStats,
    /// VFG construction statistics (zero for the MSan baseline).
    pub vfg_stats: VfgStats,
    /// VFG node count (0 for the MSan baseline).
    pub vfg_nodes: usize,
    /// `Bot` nodes after resolution (0 for the MSan baseline).
    pub bot_nodes: usize,
    /// Nodes redirected to `T` by Opt II.
    pub opt2_redirected: usize,
    /// Pointer-solver strategy name (as in
    /// `PointerStrategy::name`; empty for default-constructed reports).
    pub pointer_strategy: String,
    /// Pointer-solver counters (pops, merges, interned targets, peak pts
    /// words, prefilter classes); zero when the stage was
    /// served from cache or skipped.
    pub solver_stats: SolverStats,
    /// Resolution counters (interned contexts, visited states); zero when
    /// served from cache or skipped.
    pub resolve_stats: ResolveStats,
    /// Every degradation that occurred: budget exhaustion, deadline,
    /// contained panic, cache-corruption recovery. Empty on a clean run.
    pub degrade_events: Vec<DegradeEvent>,
    /// Functions instrumented with the full-MSan fallback plan because
    /// the guided analysis degraded (0 on a clean run).
    pub functions_degraded: usize,
    /// Total functions in the module.
    pub functions_total: usize,
    /// Analysis steps actually charged against the budget (0 when
    /// unlimited — the unlimited path does not count).
    pub budget_spent: u64,
    /// The configured step budget, if any.
    pub budget_limit: Option<u64>,
    /// Cache entries found corrupt and transparently recomputed during
    /// this run.
    pub cache_corrupt_recovered: usize,
    /// Originating request, when the run was issued by a serve-protocol
    /// client. Interleaved concurrent-client records in one telemetry
    /// stream are attributed through this pair.
    pub request_id: Option<String>,
    /// Originating serve session, when one exists.
    pub session_id: Option<u64>,
    /// Server health snapshot at the time the request was served; `Some`
    /// only for serve-issued runs.
    pub serve_health: Option<ServeHealth>,
}

/// A point-in-time snapshot of the serving process's robustness
/// counters, stamped onto serve-issued [`PipelineReport`]s so operators
/// can correlate per-request telemetry with recovery and shedding
/// activity in one stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeHealth {
    /// Seconds since the dispatcher started.
    pub uptime_seconds: f64,
    /// Sessions reconstructed from the WAL at startup.
    pub sessions_recovered: u64,
    /// WAL records dropped as torn or corrupt during recovery.
    pub wal_records_dropped: u64,
    /// Requests refused with `error_kind: "overloaded"`.
    pub requests_shed: u64,
    /// Requests that ran out of their `deadline_ms`.
    pub deadline_expired: u64,
}

/// Escapes a string for inclusion in JSON output. Public so every
/// JSONL-emitting harness (reports, fuzz campaigns) shares one escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`], appending to `out`. Runs that need no escape are
/// copied in one piece: every byte that does is ASCII, so a run always
/// ends on a character boundary.
pub fn json_escape_into(out: &mut String, s: &str) {
    let b = s.as_bytes();
    let mut run = 0;
    while let Some(k) = b[run..]
        .iter()
        .position(|&c| c < 0x20 || c == b'"' || c == b'\\')
    {
        let i = run + k;
        out.push_str(&s[run..i]);
        match b[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

impl PipelineReport {
    /// A report on `workload` under `options` with the given stage
    /// timings; every counter starts at zero.
    pub fn new(
        workload: impl Into<String>,
        options: &PipelineOptions,
        stages: Vec<StageTiming>,
    ) -> PipelineReport {
        PipelineReport {
            workload: workload.into(),
            config: options.label.clone(),
            opt_level: format!("{:?}", options.opt_level),
            pointer_strategy: options.pointer_strategy.name().to_string(),
            stages,
            budget_limit: options.budget_steps,
            ..PipelineReport::default()
        }
    }

    /// Fills the counters that describe a run's artifacts, the one place
    /// that decides what a report says about them. An analysis the run
    /// skipped (`None`) leaves its counters at zero.
    pub fn set_artifacts(
        &mut self,
        module: &Module,
        pa: Option<&PointerAnalysis>,
        vfg: Option<&Vfg>,
        gamma: Option<&Gamma>,
        opt2_redirected: usize,
        plan: &Plan,
    ) {
        self.plan_stats = plan.stats;
        self.vfg_stats = vfg.map(|v| v.stats).unwrap_or_default();
        self.vfg_nodes = vfg.map_or(0, Vfg::len);
        self.bot_nodes = gamma.map_or(0, Gamma::bot_count);
        self.opt2_redirected = opt2_redirected;
        self.solver_stats = pa.map(|p| p.stats).unwrap_or_default();
        self.resolve_stats = gamma.map(|g| g.stats).unwrap_or_default();
        self.functions_degraded = plan.provenance_counts().2;
        self.functions_total = module.funcs.len();
    }

    /// Renders the report as one JSON object on one line (JSONL record).
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"opt_level\":\"{}\",\"total_seconds\":{:.6},\"cache\":{{\"hits\":{},\"misses\":{}}}",
            json_escape(&self.workload),
            json_escape(&self.config),
            json_escape(&self.opt_level),
            self.total_seconds,
            self.cache_hits,
            self.cache_misses,
        );
        if let Some(rid) = &self.request_id {
            let _ = write!(s, ",\"request_id\":\"{}\"", json_escape(rid));
        }
        if let Some(sid) = self.session_id {
            let _ = write!(s, ",\"session_id\":{sid}");
        }
        let _ = write!(s, ",\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"stage\":\"{}\",\"seconds\":{:.6},\"cached\":{}}}",
                if i > 0 { "," } else { "" },
                st.stage.name(),
                st.seconds,
                st.cached,
            );
        }
        let _ = write!(
            s,
            "],\"mem2reg\":{{\"promoted\":{},\"phis_inserted\":{},\"undef_reads\":{}}}",
            self.mem2reg_stats.promoted,
            self.mem2reg_stats.phis_inserted,
            self.mem2reg_stats.undef_reads,
        );
        let _ = write!(
            s,
            ",\"plan\":{{\"ops\":{},\"propagations\":{},\"checks\":{},\"phis\":{},\"mfcs_simplified\":{}}}",
            self.plan_stats.ops,
            self.plan_stats.propagations,
            self.plan_stats.checks,
            self.plan_stats.phis,
            self.plan_stats.mfcs_simplified,
        );
        let _ = write!(
            s,
            ",\"vfg\":{{\"nodes\":{},\"bot\":{},\"opt2_redirected\":{},\"strong_stores\":{},\"semi_strong_stores\":{},\"weak_singleton_stores\":{},\"multi_target_stores\":{}}}",
            self.vfg_nodes,
            self.bot_nodes,
            self.opt2_redirected,
            self.vfg_stats.strong_stores,
            self.vfg_stats.semi_strong_stores,
            self.vfg_stats.weak_singleton_stores,
            self.vfg_stats.multi_target_stores,
        );
        let _ = write!(
            s,
            ",\"solver\":{{\"strategy\":\"{}\",\"nodes\":{},\"interned_targets\":{},\"pops\":{},\"merges\":{},\"peak_pts_words\":{},\"unify_classes\":{},\"unify_collapsed\":{},\"prefilter_us\":{}}}",
            json_escape(&self.pointer_strategy),
            self.solver_stats.nodes,
            self.solver_stats.interned_targets,
            self.solver_stats.pops,
            self.solver_stats.merges,
            self.solver_stats.peak_pts_words,
            self.solver_stats.unify_classes,
            self.solver_stats.unify_collapsed,
            self.solver_stats.prefilter_us,
        );
        let _ = write!(
            s,
            ",\"resolve\":{{\"interned_contexts\":{},\"visited_states\":{},\"sccs\":{},\"nontrivial_sccs\":{},\"word_ops\":{}}}",
            self.resolve_stats.interned_contexts,
            self.resolve_stats.visited_states,
            self.resolve_stats.sccs,
            self.resolve_stats.nontrivial_sccs,
            self.resolve_stats.word_ops,
        );
        if let Some(h) = &self.serve_health {
            let _ = write!(
                s,
                ",\"serve\":{{\"uptime_seconds\":{:.3},\"sessions_recovered\":{},\"wal_records_dropped\":{},\"requests_shed\":{},\"deadline_expired\":{}}}",
                h.uptime_seconds,
                h.sessions_recovered,
                h.wal_records_dropped,
                h.requests_shed,
                h.deadline_expired,
            );
        }
        let _ = write!(
            s,
            ",\"degraded\":{{\"functions_degraded\":{},\"functions_total\":{},\"budget_spent\":{},\"budget_limit\":{},\"cache_corrupt_recovered\":{},\"events\":[",
            self.functions_degraded,
            self.functions_total,
            self.budget_spent,
            self.budget_limit
                .map_or_else(|| "null".to_string(), |l| l.to_string()),
            self.cache_corrupt_recovered,
        );
        for (i, e) in self.degrade_events.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"stage\":\"{}\",\"reason\":\"{}\",\"detail\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                e.stage,
                e.reason,
                json_escape(&e.detail),
            );
        }
        s.push_str("]}}");
        s
    }
}

/// Telemetry for a whole batch: one record per run plus the batch header.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Worker threads the batch was actually scheduled on (clamped to the
    /// host's available parallelism).
    pub threads: usize,
    /// Worker threads the caller asked for before clamping.
    pub requested_threads: usize,
    /// End-to-end wall-clock seconds for the batch.
    pub wall_seconds: f64,
    /// Per-run reports, in job submission order.
    pub runs: Vec<PipelineReport>,
}

impl BatchReport {
    /// Sum of per-run analysis seconds (what a sequential schedule would
    /// roughly cost); compare with `wall_seconds` for observed speedup.
    pub fn cpu_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.total_seconds).sum()
    }

    /// Renders the batch as JSON lines: a `batch` header record followed
    /// by one record per run.
    pub fn to_json_lines(&self) -> String {
        let mut s = format!(
            "{{\"batch\":{{\"threads\":{},\"requested_threads\":{},\"wall_seconds\":{:.6},\"cpu_seconds\":{:.6},\"runs\":{}}}}}\n",
            self.threads,
            self.requested_threads,
            self.wall_seconds,
            self.cpu_seconds(),
            self.runs.len(),
        );
        for r in &self.runs {
            s.push_str(&r.to_json_line());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_wellformed_enough() {
        let r = PipelineReport {
            workload: "164.gzip".into(),
            config: "Usher \"full\"".into(),
            opt_level: "O0+IM".into(),
            stages: vec![
                StageTiming {
                    stage: Stage::Parse,
                    seconds: 0.001,
                    cached: false,
                },
                StageTiming {
                    stage: Stage::Pointer,
                    seconds: 0.0,
                    cached: true,
                },
            ],
            cache_hits: 1,
            cache_misses: 1,
            total_seconds: 0.001,
            ..Default::default()
        };
        let line = r.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\\\"full\\\""), "escaped quotes: {line}");
        assert!(line.contains("\"stage\":\"pointer\""));
        assert!(line.contains("\"degraded\":{"), "{line}");
        assert!(line.contains("\"budget_limit\":null"), "{line}");
        assert!(!line.contains('\n'));
        // Braces balance.
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        assert_eq!(opens, closes, "{line}");
    }

    #[test]
    fn request_and_session_ids_render_when_present() {
        let anonymous = PipelineReport::default().to_json_line();
        assert!(!anonymous.contains("request_id"), "{anonymous}");
        assert!(!anonymous.contains("session_id"), "{anonymous}");
        let r = PipelineReport {
            request_id: Some("req-42".into()),
            session_id: Some(7),
            ..Default::default()
        };
        let line = r.to_json_line();
        assert!(line.contains("\"request_id\":\"req-42\""), "{line}");
        assert!(line.contains("\"session_id\":7"), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn degrade_events_render_with_reason_and_detail() {
        let r = PipelineReport {
            degrade_events: vec![DegradeEvent {
                stage: "resolve",
                reason: "budget-exhausted",
                detail: "3/7 functions degraded".into(),
            }],
            functions_degraded: 3,
            functions_total: 7,
            budget_spent: 128,
            budget_limit: Some(128),
            ..Default::default()
        };
        let line = r.to_json_line();
        assert!(line.contains("\"reason\":\"budget-exhausted\""), "{line}");
        assert!(line.contains("\"functions_degraded\":3"), "{line}");
        assert!(line.contains("\"budget_limit\":128"), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn serve_health_renders_only_when_present() {
        let silent = PipelineReport::default().to_json_line();
        assert!(!silent.contains("\"serve\""), "{silent}");
        let r = PipelineReport {
            serve_health: Some(ServeHealth {
                uptime_seconds: 12.5,
                sessions_recovered: 2,
                wal_records_dropped: 1,
                requests_shed: 7,
                deadline_expired: 3,
            }),
            ..Default::default()
        };
        let line = r.to_json_line();
        assert!(
            line.contains("\"serve\":{\"uptime_seconds\":12.500"),
            "{line}"
        );
        assert!(line.contains("\"sessions_recovered\":2"), "{line}");
        assert!(line.contains("\"requests_shed\":7"), "{line}");
        assert!(line.contains("\"deadline_expired\":3"), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn batch_emits_header_plus_one_line_per_run() {
        let b = BatchReport {
            threads: 4,
            requested_threads: 8,
            wall_seconds: 1.0,
            runs: vec![PipelineReport::default(), PipelineReport::default()],
        };
        let rendered = b.to_json_lines();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"batch\""));
        assert!(lines[0].contains("\"requested_threads\":8"));
    }
}
