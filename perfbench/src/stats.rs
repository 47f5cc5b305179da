//! Sample statistics, the metric table and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive `xs`; 0 for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// Spearman rank correlation of paired samples (average ranks for ties).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut r = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            for &k in &idx[i..=j] {
                r[k] = (i + j) as f64 / 2.0;
            }
            i = j + 1;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let (ma, mb) = (mean(&ra), mean(&rb));
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Set-up timings. A workload sets up once before it measures and again
/// at points spread over (or after) its measurement, so the median does
/// not hinge on one moment of a host whose speed drifts.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0.push(t.elapsed().as_secs_f64());
        r
    }

    /// Set-ups still to run.
    pub fn missing(&self) -> usize {
        SETUPS.saturating_sub(self.0.len())
    }

    /// The median set-up time (s).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Bytes per MB, for the memory metrics.
pub const MB: f64 = 1024.0 * 1024.0;

/// Whether one more pass, as long as the mean pass so far, still ends
/// within `seconds` of `start` (and within two minutes however long
/// `seconds` is). Workloads measure whole passes so that every run sees
/// the same input mix.
pub fn another_pass_fits(start: Instant, passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / passes.max(1) as f64 <= seconds.min(120.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// This process's peak resident set size in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives well-spread sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut usher_workloads::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// End-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.parse_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("frontend.src_mb_per_s", "MB/s"),
    ("frontend.peak_alloc_mb", "MB"),
    ("ir.inline_ms", "ms"),
    ("ir.mem2reg_ms", "ms"),
    ("ir.opt_ms", "ms"),
    ("ir.insts", "count"),
    ("pointer.solve_ms", "ms"),
    ("pointer.nodes", "count"),
    ("pointer.pops", "count"),
    ("pointer.peak_pts_words", "count"),
    ("pointer.unify_collapsed", "count"),
    ("pointer.peak_alloc_mb", "MB"),
    ("vfg.memssa_ms", "ms"),
    ("vfg.build_ms", "ms"),
    ("vfg.condense_ms", "ms"),
    ("vfg.nodes", "count"),
    ("vfg.edges", "count"),
    ("vfg.sccs", "count"),
    ("vfg.peak_alloc_mb", "MB"),
    ("vfg.demand_nodes_visited_p50", "count"),
    ("core.resolve_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.bot_nodes", "count"),
    ("core.opt2_redirected", "count"),
    ("core.plan_checks", "count"),
    ("core.plan_propagations", "count"),
    ("core.peak_alloc_mb", "MB"),
    ("driver.residual_ms", "ms"),
    ("driver.residual_pct", "%"),
    ("driver.batch_ms", "ms"),
    ("driver.cache_hit_ratio", "ratio"),
    ("driver.peak_alloc_mb", "MB"),
    ("suite.pass_s", "s"),
    ("runtime.native_ms", "ms"),
    ("runtime.msan_ms", "ms"),
    ("runtime.usher_ms", "ms"),
    ("runtime.native_ops", "count"),
    ("runtime.shadow_ops_msan", "count"),
    ("runtime.shadow_ops_usher", "count"),
    ("runtime.checks_executed_usher", "count"),
    ("runtime.usher_exec_slowdown_x", "x"),
    ("runtime.msan_exec_slowdown_x", "x"),
    ("runtime.usher_slowdown_pct", "%"),
    ("runtime.cost_wall_rank_corr", "ratio"),
    ("serve.open_cold_p50_ms", "ms"),
    ("serve.open_warm_p50_ms", "ms"),
    ("serve.edit_body_p50_ms", "ms"),
    ("serve.edit_body_p90_ms", "ms"),
    ("serve.edit_decl_p50_ms", "ms"),
    ("serve.query_use_p50_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.lock_wait_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.engine.open_cold_ms", "ms"),
    ("serve.engine.open_warm_ms", "ms"),
    ("serve.engine.edit_body_ms", "ms"),
    ("serve.engine.edit_decl_ms", "ms"),
    ("serve.engine.query_use_ms", "ms"),
    ("serve.unattributed_ms.open_cold", "ms"),
    ("serve.unattributed_ms.open_warm", "ms"),
    ("serve.unattributed_ms.edit_body", "ms"),
    ("serve.unattributed_ms.edit_decl", "ms"),
    ("serve.unattributed_ms.query_use", "ms"),
    ("serve.incremental_ratio", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.demand_memo_hit_ratio", "ratio"),
    ("serve.store_writes", "count"),
    ("serve.store_bytes", "B"),
    ("serve.wal_appends", "count"),
    ("serve.fallback_reason.object-count-changed", "count"),
    ("serve.fallback_reason.inline-involved", "count"),
    ("serve.fallback_reason.inline-target", "count"),
    ("serve.fallback_reason.calls-inline-target", "count"),
    ("serve.fallback_reason.pointer-structure-changed", "count"),
    ("serve.fallback_reason.signature-changed", "count"),
    ("serve.fallback_reason.new-types", "count"),
    ("serve.fallback_reason.other", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, oracle checks included.
    pub attempted: u64,
    /// Operations that failed or whose output an oracle rejected.
    pub failed: u64,
    /// The first few failure descriptions (printed on stderr).
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one attempted operation that `ok` says succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records an operation already counted as attempted as failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Sets a metric; the name must be in one of the metric tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Renders the result line: the end-to-end table, or the per-layer
    /// table for a traced run, with unmeasured metrics as 0.
    pub fn render(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { PER_LAYER } else { &END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// Times closures and accumulates per-name sample lists.
#[derive(Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Runs `f`, recording its wall time in ms under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.push(name, ms_since(t));
        r
    }

    /// Records one sample under `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// All samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean of the samples under `name` (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        mean(self.get(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spearman_sees_monotone_agreement() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&a, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("op_p50_ms", 1.5);
        let line = o.render(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
        let traced = o.render(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
