//! The paper's own evaluation loop, as the runtime layer's traced
//! measurement.
//!
//! Each of the 15 SPEC-modelled programs is evaluated the way Figure 10
//! is: its five `Config::ALL` analyses through one cached
//! [`Pipeline::run_batch`], then a native run plus every plan, one at a
//! time, in the `runtime` interpreter. The traced `analyze-cold` run makes
//! one such pass ([`runtime_layer`]); the suite is not a workload of its
//! own because its single-threaded interpreter time swung by up to 1.6x
//! between runs on a shared 2-vCPU host, beyond any bound the benchmark
//! may set.

use std::time::Instant;

use usher_core::Config;
use usher_driver::{Job, Pipeline, PipelineOptions, SourceInput};
use usher_runtime::{run as execute, RunOptions, RunResult};
use usher_workloads::{all_workloads, Scale, Workload};

use crate::stats::{geomean, mean, median, ms_since, spearman, Outcome, Spans};

/// The suite's size: between the repository's `test` (n = 96) and `ref`
/// (n = 1536) scales, so that execution dominates as it does in the paper.
const SCALE: Scale = Scale { n: 160 };

const MSAN: usize = 0;
const USHER: usize = 4;

/// One evaluated program: the batch's cache counts, the native run and
/// one run per configuration, with their wall times.
struct Evaluated {
    batch_ms: f64,
    cache_hits: usize,
    cache_lookups: usize,
    native: RunResult,
    native_ms: f64,
    configs: Vec<(RunResult, f64)>,
}

fn evaluate(w: &Workload, ropts: &RunOptions) -> Result<Evaluated, String> {
    let jobs: Vec<Job> = Config::ALL
        .iter()
        .map(|cfg| {
            Job::new(
                w.name,
                SourceInput::TinyC(w.source.clone()),
                PipelineOptions::from_config(*cfg),
            )
        })
        .collect();
    // One worker: the five jobs then share pipeline prefixes through the
    // cache in a fixed order, so every run does the same analysis work.
    let pipe = Pipeline::new().with_threads(1);
    let t = Instant::now();
    let (runs, report) = pipe.run_batch(&jobs);
    let batch_ms = ms_since(t);
    let runs = runs
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: analysis failed: {e}", w.name))?;
    let t = Instant::now();
    let native = execute(&runs[0].module, None, ropts);
    let native_ms = ms_since(t);
    let configs = runs
        .iter()
        .map(|r| {
            let t = Instant::now();
            let res = execute(&r.module, Some(&r.plan), ropts);
            (res, ms_since(t))
        })
        .collect();
    let cache_hits = report.runs.iter().map(|r| r.cache_hits).sum();
    let cache_lookups = report
        .runs
        .iter()
        .map(|r| r.cache_hits + r.cache_misses)
        .sum();
    Ok(Evaluated {
        batch_ms,
        cache_hits,
        cache_lookups,
        native,
        native_ms,
        configs,
    })
}

/// The suite oracle: every configuration preserves the native run's
/// behaviour, MSan reports exactly the ground-truth undefined uses, and
/// every guided configuration detects exactly the sites MSan detects.
fn check(w: &Workload, ev: &Evaluated) -> Result<(), String> {
    let nat = &ev.native;
    if nat.trap.is_some() {
        return Err(format!("{}: native run trapped: {:?}", w.name, nat.trap));
    }
    let msan_sites = ev.configs[MSAN].0.detected_sites();
    if msan_sites != nat.ground_truth_sites() {
        return Err(format!("{}: MSan differs from the ground truth", w.name));
    }
    for (cfg, (r, _)) in Config::ALL.iter().zip(&ev.configs) {
        if r.trace != nat.trace || r.exit != nat.exit || r.trap != nat.trap {
            return Err(format!(
                "{} under {}: behaviour differs from native",
                w.name, cfg.name
            ));
        }
        if r.detected_sites() != msan_sites {
            return Err(format!(
                "{} under {}: detections differ from MSan",
                w.name, cfg.name
            ));
        }
    }
    Ok(())
}

/// Per-program execution samples and runtime-layer counters over a
/// series of passes.
struct Tally {
    native_ms: Vec<Vec<f64>>,
    config_ms: Vec<Vec<Vec<f64>>>,
    cost_pct: Vec<[f64; 5]>,
    spans: Spans,
    hits: usize,
    lookups: usize,
    pass_s: Vec<f64>,
}

impl Tally {
    fn new(programs: usize) -> Tally {
        Tally {
            native_ms: vec![Vec::new(); programs],
            config_ms: vec![vec![Vec::new(); Config::ALL.len()]; programs],
            cost_pct: vec![[0.0; 5]; programs],
            spans: Spans::default(),
            hits: 0,
            lookups: 0,
            pass_s: Vec::new(),
        }
    }

    /// Checks program `k`'s evaluation with the suite oracle and records
    /// its samples.
    fn record(&mut self, w: &Workload, k: usize, ev: &Evaluated, out: &mut Outcome) {
        let verdict = check(w, ev);
        out.check(verdict.is_ok(), || verdict.unwrap_err());
        self.native_ms[k].push(ev.native_ms);
        for (c, (r, ms)) in ev.configs.iter().enumerate() {
            self.config_ms[k][c].push(*ms);
            self.cost_pct[k][c] = r.counters.slowdown_pct();
        }
        self.hits += ev.cache_hits;
        self.lookups += ev.cache_lookups;
        let (msan, usher) = (&ev.configs[MSAN], &ev.configs[USHER]);
        let spans = &mut self.spans;
        spans.push("driver.batch_ms", ev.batch_ms);
        spans.push("runtime.native_ms", ev.native_ms);
        spans.push("runtime.msan_ms", msan.1);
        spans.push("runtime.usher_ms", usher.1);
        spans.push("runtime.native_ops", ev.native.counters.native_ops as f64);
        spans.push("runtime.shadow_ops_msan", msan.0.counters.shadow_ops as f64);
        spans.push(
            "runtime.shadow_ops_usher",
            usher.0.counters.shadow_ops as f64,
        );
        spans.push(
            "runtime.checks_executed_usher",
            usher.0.counters.checks_executed as f64,
        );
    }

    /// Sets the runtime-layer and batch metrics: means per program, the
    /// median pass, and slowdowns from median wall times per program.
    fn report(&self, out: &mut Outcome) {
        for name in [
            "driver.batch_ms",
            "runtime.native_ms",
            "runtime.msan_ms",
            "runtime.usher_ms",
            "runtime.native_ops",
            "runtime.shadow_ops_msan",
            "runtime.shadow_ops_usher",
            "runtime.checks_executed_usher",
        ] {
            out.set(name, self.spans.mean(name));
        }
        out.set(
            "driver.cache_hit_ratio",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
        out.set("suite.pass_s", median(&self.pass_s));
        let programs = 0..self.native_ms.len();
        let wall_x = |k: usize, c: usize| {
            median(&self.config_ms[k][c]) / median(&self.native_ms[k]).max(1e-9)
        };
        let geo = |c: usize| geomean(&programs.clone().map(|k| wall_x(k, c)).collect::<Vec<_>>());
        out.set("runtime.usher_exec_slowdown_x", geo(USHER));
        out.set("runtime.msan_exec_slowdown_x", geo(MSAN));
        let usher_pct: Vec<f64> = self.cost_pct.iter().map(|c| c[USHER]).collect();
        out.set("runtime.usher_slowdown_pct", mean(&usher_pct));
        let (mut cost, mut wall) = (Vec::new(), Vec::new());
        for (k, per_config) in self.cost_pct.iter().enumerate() {
            for (c, pct) in per_config.iter().enumerate() {
                cost.push(*pct);
                wall.push(wall_x(k, c));
            }
        }
        out.set("runtime.cost_wall_rank_corr", spearman(&cost, &wall));
    }
}

fn instantiate(tiny: bool) -> Vec<Workload> {
    if tiny {
        let mut suite = all_workloads(Scale { n: 64 });
        suite.truncate(3);
        suite
    } else {
        all_workloads(SCALE)
    }
}

/// One pass over the suite, for the traced run of a workload that does
/// not execute plans itself: measures the runtime layer (and the batch
/// driver) and checks every evaluation with the suite oracle.
pub fn runtime_layer(tiny: bool, out: &mut Outcome) {
    let suite = instantiate(tiny);
    let ropts = RunOptions::default();
    let mut tally = Tally::new(suite.len());
    let t = Instant::now();
    for (k, w) in suite.iter().enumerate() {
        match evaluate(w, &ropts) {
            Ok(ev) => tally.record(w, k, &ev, out),
            Err(e) => out.check(false, || e),
        }
    }
    tally.pass_s.push(t.elapsed().as_secs_f64());
    tally.report(out);
}
