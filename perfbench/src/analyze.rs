//! `analyze-cold`: the compile-time cost every `usher analyze` user pays.
//!
//! A seeded draw of generated programs across the upper half of the seed
//! ladder (64..=160 helpers, about 0.5-1.3 MB of source each). Every
//! program goes through a fresh uncached [`Pipeline`] under
//! `Config::USHER` at the driver's default thread count (capped at the
//! host's parallelism), one program after another: one closed-loop client.
//!
//! The pool's 150 helper counts are evenly spread and fixed; the seed
//! picks the programs' contents and the order of each pass over them, so
//! every run sees the same size mix and medians stay comparable across
//! seeds.
//!
//! After the measurement a seeded subset of the analyzed programs is
//! analyzed again by a fresh pipeline at one thread: every timed plan of
//! those programs must fingerprint the same as that reference.

use std::time::Instant;

use usher_core::{Config, Plan};
use usher_driver::{default_threads, parallel_map, plan_fingerprint, Pipeline, PipelineOptions};
use usher_workloads::{generate, ladder_config, Rng};

use crate::stats::{another_pass_fits, mean, median, mix, ms_since, percentile, shuffle};
use crate::stats::{Outcome, SetupTimes, Spans, MB};
use crate::{alloc, layers, Args};

/// Programs in the pool: one pass has more than ten samples beyond
/// `op_p90_ms` and lasts about 45 s on a 2-vCPU host.
const POOL: usize = 150;

/// Programs re-analyzed at one thread after the measurement, as the
/// reference their timed plans must equal.
const REFERENCE: usize = 8;

struct Program {
    name: String,
    src: String,
}

/// `(helpers, max_stmts, generator seed)` of the pool: helper counts
/// evenly spread over the ladder's upper half (64..=160), or three small
/// programs for the smoke test.
fn pool_shape(args: &Args) -> Vec<(usize, usize, u64)> {
    let mut rng = Rng::new(mix(args.seed, 1));
    let shape: Vec<(usize, usize)> = if args.tiny {
        vec![(8, 8), (12, 8), (16, 10)]
    } else {
        (0..POOL).map(|i| (64 + i * 96 / (POOL - 1), 14)).collect()
    };
    shape
        .into_iter()
        .map(|(h, s)| (h, s, rng.next_u64()))
        .collect()
}

/// Generates the pool on the host's cores.
fn generate_pool(args: &Args) -> Vec<Program> {
    parallel_map(
        default_threads(),
        &pool_shape(args),
        |&(helpers, stmts, seed)| Program {
            name: format!("gen-h{helpers}-{seed:016x}"),
            src: generate(seed, ladder_config(helpers, stmts)),
        },
    )
}

/// Everything a run accumulates.
#[derive(Default)]
struct Measure {
    out: Outcome,
    /// Untraced `run_source` wall times (ms).
    lat: Vec<f64>,
    /// `run_source` wall times with allocation counting on (ms).
    traced_lat: Vec<f64>,
    spans: Spans,
    /// Plan fingerprint of each program's first timed analysis.
    plans: Vec<Option<String>>,
}

pub fn run(args: &Args) -> Outcome {
    let mut m = Measure::default();
    let opts = PipelineOptions::from_config(Config::USHER);

    // Set-up: generate the pool, then one untimed warm-up analysis of its
    // smallest program. It runs again after the measurement, once the
    // measured pool is gone, so no two pools are alive at once.
    let set_up = |out: &mut Outcome| {
        let pool = generate_pool(args);
        let warm = Pipeline::new().without_cache();
        let ok = warm
            .run_source(&pool[0].name, &pool[0].src, opts.clone())
            .is_ok();
        out.check(ok, || {
            format!("warm-up analysis of {} failed", pool[0].name)
        });
        pool
    };
    let mut setups = SetupTimes::default();
    let pool = setups.time(|| set_up(&mut m.out));
    m.plans = vec![None; pool.len()];

    // A traced pass analyzes every program three times, so it takes every
    // fourth program only: the same size spread in a quarter of the time.
    let step = if args.trace && !args.tiny { 4 } else { 1 };
    let mut rng = Rng::new(mix(args.seed, 2));
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || another_pass_fits(start, passes, args.seconds) {
        passes += 1;
        let mut order: Vec<usize> = (0..pool.len()).step_by(step).collect();
        shuffle(&mut order, &mut rng);
        for k in order {
            m.analyze(&pool[k], k, args.trace);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    m.check_references(&pool, &mut rng);
    drop(pool);
    while setups.missing() > 0 {
        drop(setups.time(|| set_up(&mut m.out)));
    }
    m.out.set("setup_s", setups.median());

    let lat = &m.lat;
    m.out.set("op_p50_ms", median(lat));
    m.out.set("op_p90_ms", percentile(lat, 90.0));
    m.out.set(
        "ops_per_s",
        lat.len() as f64 * 1e3 / lat.iter().sum::<f64>().max(1e-9),
    );
    if args.trace {
        // Layer means plus the residual add up to the mean driver run.
        let wall = mean(lat);
        let layers = layers::report_layers(&m.spans, &mut m.out);
        m.out.set("driver.residual_ms", wall - layers);
        m.out.set(
            "driver.residual_pct",
            100.0 * (wall - layers) / wall.max(1e-9),
        );
        m.out
            .set("driver.peak_alloc_mb", m.spans.mean("driver.peak_alloc_mb"));
        let untraced = median(lat);
        let traced = median(&m.traced_lat);
        m.out.set(
            "trace.overhead_pct",
            100.0 * (traced - untraced) / untraced.max(1e-9),
        );
        // The plans' consumer: one pass of the paper's evaluation loop.
        crate::suite::runtime_layer(args.tiny, &mut m.out);
    }
    eprintln!(
        "perfbench: analyze-cold: {passes} passes, {} programs in {:.1}s, p50 {:.1} ms",
        lat.len(),
        elapsed,
        median(lat)
    );
    m.out
}

impl Measure {
    /// One operation: a cold driver run of `p`, checked; in a traced run
    /// followed by its traced counterparts.
    fn analyze(&mut self, p: &Program, k: usize, trace: bool) {
        let pipe = Pipeline::new().without_cache();
        let t = Instant::now();
        let res = pipe.run_source(&p.name, &p.src, PipelineOptions::from_config(Config::USHER));
        let wall = ms_since(t);
        let run = match res {
            Ok(run) => run,
            Err(e) => return self.out.check(false, || format!("{}: {e}", p.name)),
        };
        self.lat.push(wall);

        // Oracle: a clean analysis whose plan equals the program's first
        // timed plan (and, for the reference subset, the one-thread run).
        let clean = run.report.degrade_events.is_empty() && run.report.functions_degraded == 0;
        let fp = plan_fingerprint(&run.plan);
        let same = *self.plans[k].get_or_insert_with(|| fp.clone()) == fp;
        self.out.check(clean && same, || {
            format!("{}: degraded or non-deterministic analysis", p.name)
        });
        if trace {
            self.trace(p, &run.plan, pipe.threads());
        }
    }

    /// Analyzes a seeded subset of the programs the measurement analyzed
    /// again, each by a fresh uncached pipeline at one thread; each timed
    /// plan must equal that reference.
    fn check_references(&mut self, pool: &[Program], rng: &mut Rng) {
        let mut analyzed: Vec<usize> = (0..pool.len())
            .filter(|&k| self.plans[k].is_some())
            .collect();
        shuffle(&mut analyzed, rng);
        for k in analyzed.into_iter().take(REFERENCE) {
            let p = &pool[k];
            let reference = Pipeline::new().without_cache().with_threads(1).run_source(
                &p.name,
                &p.src,
                PipelineOptions::from_config(Config::USHER),
            );
            let same =
                reference.is_ok_and(|r| self.plans[k].as_ref() == Some(&plan_fingerprint(&r.plan)));
            self.out.check(same, || {
                format!(
                    "{}: timed plan differs from a one-thread reference run",
                    p.name
                )
            });
        }
    }

    /// The traced counterparts of one operation: the same driver run with
    /// allocation counting on (the traced end-to-end sample and the
    /// driver's peak), then the layer-by-layer re-enactment, whose plan
    /// must equal the driver's.
    fn trace(&mut self, p: &Program, plan: &Plan, threads: usize) {
        alloc::enable(true);
        let base = alloc::span_start();
        let pipe = Pipeline::new().without_cache();
        let t = Instant::now();
        let res = pipe.run_source(&p.name, &p.src, PipelineOptions::from_config(Config::USHER));
        self.traced_lat.push(ms_since(t));
        self.spans
            .push("driver.peak_alloc_mb", alloc::span_peak(base) as f64 / MB);
        drop(res);
        let traced = layers::traced_usher(&p.src, threads, &mut self.spans);
        alloc::enable(false);
        let same = traced.is_ok_and(|tr| plan_fingerprint(&tr) == plan_fingerprint(plan));
        self.out.check(same, || {
            format!("{}: layer-by-layer plan differs from the driver's", p.name)
        });
    }
}
