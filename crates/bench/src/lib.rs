//! # usher-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 4):
//!
//! * `table1`  — benchmark statistics (Table 1);
//! * `figure10` — execution-time slowdowns per configuration (Figure 10);
//! * `figure11` — static shadow propagations / checks vs MSan (Figure 11);
//! * `optlevels` — the `-O1`/`-O2` comparison (Section 4.6);
//! * `ablation` — the design-choice ablation.
//!
//! End-to-end timing lives in `perfbench/` and the timing regression
//! gates in `tests/perf_gates.rs`; this crate regenerates the paper's
//! numbers.
//!
//! All static analysis routes through the [`usher_driver::Pipeline`], so
//! the five configurations of one workload share the compiled module (and
//! every other common pipeline prefix) through the artifact cache, and
//! whole suites are scheduled across the worker pool. Every binary takes
//! `--threads N`, `--no-cache` and `--report` (JSON-lines telemetry on
//! stderr); see [`cli`].
//!
//! Numbers come from the deterministic interpreter cost model; the
//! *shape* (who wins, by roughly what factor, where the outliers are) is
//! the reproduction target, not the absolute values from the authors'
//! 2008-era Core2 testbed.

#![warn(missing_docs)]

use std::sync::Arc;

use usher_core::{Config, PlanStats};
use usher_driver::{
    parallel_map, BatchReport, Job, Pipeline, PipelineOptions, PipelineRun, SourceInput,
};
use usher_ir::Module;
use usher_runtime::{run, RunOptions, RunResult};
use usher_workloads::{all_workloads, Scale};

pub mod cli;

/// Result of running one workload under one configuration.
#[derive(Clone, Debug)]
pub struct ConfigRun {
    /// Configuration name.
    pub config: String,
    /// Static plan statistics.
    pub plan_stats: PlanStats,
    /// Dynamic slowdown percentage (cost-model based).
    pub slowdown_pct: f64,
    /// Detected undefined-value uses (distinct sites).
    pub detected_sites: usize,
    /// Full run result.
    pub result: RunResult,
}

/// One row of Figure 10/11: a workload under all five configurations.
#[derive(Clone, Debug)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// Native (uninstrumented) run for reference.
    pub native: RunResult,
    /// The five configurations, in `Config::ALL` order.
    pub runs: Vec<ConfigRun>,
}

/// A whole-suite result: the Figure 10/11 rows plus the pipeline's batch
/// telemetry.
pub struct SuiteResult {
    /// One row per workload, in suite order.
    pub rows: Vec<WorkloadRuns>,
    /// Analysis-phase telemetry (stage times, cache hits, wall clock).
    pub batch: BatchReport,
}

/// Executes an analyzed plan and folds the dynamic numbers into a
/// [`ConfigRun`].
fn execute(pr: &PipelineRun, opts: &RunOptions) -> ConfigRun {
    let result = run(&pr.module, Some(&pr.plan), opts);
    ConfigRun {
        config: pr.options.label.clone(),
        plan_stats: pr.plan.stats,
        slowdown_pct: result.counters.slowdown_pct(),
        detected_sites: result.detected_sites().len(),
        result,
    }
}

/// Runs a compiled module under every configuration of Figure 10,
/// analyzing through `pipe` (so repeated prefixes hit its cache).
pub fn run_all_configs_with(
    pipe: &Pipeline,
    name: &str,
    m: Arc<Module>,
    opts: &RunOptions,
) -> WorkloadRuns {
    let native = run(&m, None, opts);
    let runs = Config::ALL
        .iter()
        .map(|cfg| {
            let pr = pipe.run_module(name, m.clone(), PipelineOptions::from_config(*cfg));
            execute(&pr, opts)
        })
        .collect();
    WorkloadRuns {
        name: name.to_string(),
        native,
        runs,
    }
}

/// Runs the whole suite at a scale under every configuration: the
/// analysis phase goes through [`Pipeline::run_batch`] (workload ×
/// configuration jobs over the worker pool), the execution phase is
/// fanned out per workload.
pub fn run_suite_with(scale: Scale, opts: &RunOptions, pipe: &Pipeline) -> SuiteResult {
    let workloads = all_workloads(scale);
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| {
            Config::ALL.iter().map(|cfg| {
                Job::new(
                    w.name,
                    SourceInput::TinyC(w.source.clone()),
                    PipelineOptions::from_config(*cfg),
                )
            })
        })
        .collect();
    let (analyzed, batch) = pipe.run_batch(&jobs);
    let analyzed: Vec<PipelineRun> = analyzed
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("suite workload fails to compile: {e}")))
        .collect();

    let per_workload: Vec<&[PipelineRun]> = analyzed.chunks(Config::ALL.len()).collect();
    let rows = parallel_map(pipe.threads(), &per_workload, |runs| {
        let native = run(&runs[0].module, None, opts);
        WorkloadRuns {
            name: runs[0].name.clone(),
            native,
            runs: runs.iter().map(|pr| execute(pr, opts)).collect(),
        }
    });
    SuiteResult { rows, batch }
}

/// Geometric-free average of slowdowns (the paper reports arithmetic
/// means across benchmarks).
pub fn average(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders a Figure 10-style table: one row per workload, one column per
/// configuration, values = slowdown %.
pub fn render_figure10(rows: &[WorkloadRuns]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{:<14}", "Benchmark");
    for cfg in Config::ALL {
        let _ = write!(s, "{:>13}", cfg.name);
    }
    let _ = writeln!(s);
    let ncols = Config::ALL.len();
    let mut sums = vec![0.0; ncols];
    for row in rows {
        let _ = write!(s, "{:<14}", row.name);
        for (i, r) in row.runs.iter().enumerate() {
            let _ = write!(s, "{:>12.0}%", r.slowdown_pct);
            sums[i] += r.slowdown_pct;
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<14}", "average");
    for sum in &sums {
        let _ = write!(s, "{:>12.0}%", sum / rows.len().max(1) as f64);
    }
    let _ = writeln!(s);
    s
}

/// Renders a Figure 11-style table: static propagations and checks
/// normalized to MSan (percent).
pub fn render_figure11(rows: &[WorkloadRuns]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== Static shadow propagations (% of MSan) ==");
    let _ = render_norm(&mut s, rows, |ps| ps.propagations as f64);
    let _ = writeln!(s, "\n== Static checks (% of MSan) ==");
    let _ = render_norm(&mut s, rows, |ps| ps.checks as f64);
    s
}

fn render_norm(
    s: &mut String,
    rows: &[WorkloadRuns],
    f: impl Fn(&PlanStats) -> f64,
) -> std::fmt::Result {
    use std::fmt::Write as _;
    write!(s, "{:<14}", "Benchmark")?;
    for cfg in Config::ALL.iter().skip(1) {
        write!(s, "{:>13}", cfg.name)?;
    }
    writeln!(s)?;
    let ncols = Config::ALL.len() - 1;
    let mut sums = vec![0.0; ncols];
    for row in rows {
        write!(s, "{:<14}", row.name)?;
        let base = f(&row.runs[0].plan_stats).max(1.0);
        for (i, r) in row.runs.iter().skip(1).enumerate() {
            let pct = 100.0 * f(&r.plan_stats) / base;
            write!(s, "{:>12.0}%", pct)?;
            sums[i] += pct;
        }
        writeln!(s)?;
    }
    write!(s, "{:<14}", "average")?;
    for sum in &sums {
        write!(s, "{:>12.0}%", sum / rows.len().max(1) as f64)?;
    }
    writeln!(s)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_values() {
        assert_eq!(average(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(average(&[]), 0.0);
    }

    #[test]
    fn one_workload_runs_all_configs() {
        let w = usher_workloads::workload("crafty", Scale::TEST).unwrap();
        let m = Arc::new(w.compile_o0im().unwrap());
        let pipe = Pipeline::new().with_threads(1);
        let runs = run_all_configs_with(&pipe, w.name, m, &RunOptions::default());
        assert_eq!(runs.runs.len(), 5);
        assert!(runs.native.trap.is_none(), "{:?}", runs.native.trap);
        // Semantics preserved across configurations.
        for r in &runs.runs {
            assert_eq!(r.result.trace, runs.native.trace, "{}", r.config);
        }
        // MSan costs at least as much as full Usher.
        assert!(runs.runs[0].slowdown_pct >= runs.runs[4].slowdown_pct);
    }

    #[test]
    fn shared_pipeline_reuses_the_frontend_across_configs() {
        let w = usher_workloads::workload("crafty", Scale::TEST).unwrap();
        let pipe = Pipeline::new().with_threads(1);
        let m = Arc::new(w.compile_o0im().unwrap());
        run_all_configs_with(&pipe, w.name, m, &RunOptions::default());
        let stats = pipe.cache_stats();
        assert!(
            stats.hits > 0,
            "five configs must share pipeline prefixes: {stats:?}"
        );
    }
}
