//! End-to-end integration tests over the full pipeline:
//! TinyC -> IR -> O0+IM -> pointer analysis -> memory SSA -> VFG ->
//! resolution -> instrumentation -> interpretation.

use std::hash::Hasher;

use usher::core::{run_config, Config};
use usher::driver::{plan_fingerprint, Pipeline, PipelineOptions, CACHE_FORMAT_VERSION};
use usher::ir::{write_text, FxHasher, OptLevel};
use usher::runtime::{run, RunOptions};
use usher::workloads::{all_workloads, generate, ladder_config, workload, Scale};

fn opts() -> RunOptions {
    RunOptions::default()
}

#[test]
fn every_workload_runs_natively_without_traps() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let r = run(&m, None, &opts());
        assert!(r.trap.is_none(), "{} trapped: {:?}", w.name, r.trap);
        assert!(!r.trace.is_empty(), "{} printed nothing", w.name);
    }
}

#[test]
fn every_workload_preserves_semantics_under_all_configs() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let native = run(&m, None, &opts());
        for cfg in Config::ALL {
            let out = run_config(&m, cfg);
            let r = run(&m, Some(&out.plan), &opts());
            assert_eq!(r.trace, native.trace, "{} under {}", w.name, cfg.name);
            assert_eq!(r.exit, native.exit, "{} under {}", w.name, cfg.name);
            assert_eq!(r.trap, native.trap, "{} under {}", w.name, cfg.name);
        }
    }
}

#[test]
fn full_instrumentation_equals_ground_truth_on_the_suite() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let native = run(&m, None, &opts());
        let msan = run_config(&m, Config::MSAN);
        let r = run(&m, Some(&msan.plan), &opts());
        assert_eq!(
            r.detected_sites(),
            native.ground_truth_sites(),
            "{}: MSan must mirror the oracle",
            w.name
        );
    }
}

#[test]
fn guided_configs_detect_exactly_what_msan_detects() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let msan = run_config(&m, Config::MSAN);
        let full = run(&m, Some(&msan.plan), &opts());
        for cfg in [Config::USHER_TL, Config::USHER_TL_AT, Config::USHER_OPT1] {
            let out = run_config(&m, cfg);
            let r = run(&m, Some(&out.plan), &opts());
            assert_eq!(
                r.detected_sites(),
                full.detected_sites(),
                "{} under {}",
                w.name,
                cfg.name
            );
        }
        // Opt II may only suppress dominated duplicates; the verdict and
        // subset relation must hold.
        let usher = run_config(&m, Config::USHER);
        let r = run(&m, Some(&usher.plan), &opts());
        assert!(
            r.detected_sites().is_subset(&full.detected_sites()),
            "{}",
            w.name
        );
        assert_eq!(
            r.detected.is_empty(),
            full.detected.is_empty(),
            "{}",
            w.name
        );
    }
}

#[test]
fn only_parser_contains_a_genuine_bug() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let native = run(&m, None, &opts());
        if w.name == "197.parser" {
            assert_eq!(native.ground_truth.len(), 1, "parser ships exactly one bug");
        } else {
            assert!(
                native.ground_truth.is_empty(),
                "{} unexpectedly uses undefined values: {:?}",
                w.name,
                native.ground_truth
            );
        }
    }
}

#[test]
fn instrumentation_overhead_is_ordered_like_figure_10() {
    // On the suite average, the paper's strict ordering must hold:
    // MSan >= Usher_TL >= Usher_TL+AT >= Usher_OptI >= Usher.
    let mut sums = [0.0f64; 5];
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        for (i, cfg) in Config::ALL.iter().enumerate() {
            let out = run_config(&m, *cfg);
            let r = run(&m, Some(&out.plan), &opts());
            sums[i] += r.counters.slowdown_pct();
        }
    }
    for i in 1..5 {
        assert!(
            sums[i - 1] >= sums[i] - 1e-9,
            "average ordering violated at step {i}: {sums:?}"
        );
    }
    // And the headline: Usher cuts MSan's average overhead by at least a
    // third (the paper reports 59% under O0+IM).
    assert!(sums[4] < sums[0] * 0.67, "{sums:?}");
}

#[test]
fn static_plan_sizes_are_ordered_like_figure_11() {
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        let stats: Vec<_> = Config::ALL
            .iter()
            .map(|cfg| run_config(&m, *cfg).plan.stats)
            .collect();
        for i in 1..stats.len() {
            assert!(
                stats[i].propagations <= stats[0].propagations,
                "{}: {} exceeds MSan propagations",
                w.name,
                Config::ALL[i].name
            );
            assert!(
                stats[i].checks <= stats[0].checks,
                "{}: {} exceeds MSan checks",
                w.name,
                Config::ALL[i].name
            );
        }
    }
}

#[test]
fn o1_and_o2_preserve_workload_semantics() {
    for w in all_workloads(Scale::TEST) {
        let base = run(&w.compile_o0im().expect(w.name), None, &opts());
        for level in [OptLevel::O1, OptLevel::O2] {
            let m = w.compile_with(level).expect(w.name);
            let r = run(&m, None, &opts());
            assert_eq!(r.trace, base.trace, "{} at {level}", w.name);
            assert_eq!(r.trap, base.trap, "{} at {level}", w.name);
        }
    }
}

#[test]
fn o2_reduces_native_cost() {
    let w = workload("186.crafty", Scale::TEST).unwrap();
    let m0 = w.compile_o0im().unwrap();
    let m2 = w.compile_with(OptLevel::O2).unwrap();
    let r0 = run(&m0, None, &opts());
    let r2 = run(&m2, None, &opts());
    assert!(
        r2.counters.native_cost <= r0.counters.native_cost,
        "O2 {} vs O0+IM {}",
        r2.counters.native_cost,
        r0.counters.native_cost
    );
}

#[test]
fn analysis_is_deterministic() {
    let w = workload("254.gap", Scale::TEST).unwrap();
    let m = w.compile_o0im().unwrap();
    let a = run_config(&m, Config::USHER);
    let b = run_config(&m, Config::USHER);
    assert_eq!(a.plan.stats, b.plan.stats);
    assert_eq!(a.opt2_redirected, b.opt2_redirected);
    let ra = run(&m, Some(&a.plan), &opts());
    let rb = run(&m, Some(&b.plan), &opts());
    assert_eq!(ra.counters, rb.counters);
}

/// Digest of `bytes` under the in-repo fx hash.
fn fx_digest(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Pins what a cold `Config::USHER` run outputs: digests of the module's
/// IR text and of the plan fingerprint, on generated programs with 16, 64
/// and 131 helpers and on one SPEC-modelled program. A change meant to
/// speed the pipeline up must leave every pin as it is. A change that is
/// meant to alter the output updates these pins and bumps
/// `CACHE_FORMAT_VERSION` together, so no stale cache entry survives it.
#[test]
fn cold_output_is_pinned() {
    let mut programs: Vec<(String, String)> = [(23, 16, 10), (53, 64, 12), (131, 131, 14)]
        .into_iter()
        .map(|(seed, helpers, stmts)| {
            let src = generate(seed, ladder_config(helpers, stmts));
            (format!("gen-{seed}-h{helpers}"), src)
        })
        .collect();
    let gap = workload("254.gap", Scale::TEST).unwrap();
    programs.push((gap.name.to_string(), gap.source));
    let pipe = Pipeline::new().with_threads(2);
    let got: Vec<(String, u64, u64)> = programs
        .iter()
        .map(|(name, src)| {
            let run = pipe
                .run_source(
                    name.clone(),
                    src,
                    PipelineOptions::from_config(Config::USHER),
                )
                .expect(name);
            let ir = fx_digest(write_text(&run.module).as_bytes());
            let plan = fx_digest(plan_fingerprint(&run.plan).as_bytes());
            (name.clone(), ir, plan)
        })
        .collect();
    let want = [
        ("gen-23-h16", 0xd5db_a4c6_a7bf_e46c, 0xd86d_349f_78f8_538a),
        ("gen-53-h64", 0xc835_fea8_4025_45b9, 0x7788_0c4c_6c82_e779),
        ("gen-131-h131", 0x6944_f382_ef82_b882, 0x0572_f821_b817_bb55),
        ("254.gap", 0x31c0_9f3a_870d_37cd, 0x79b4_8d3e_8eed_3761),
    ];
    let want: Vec<(String, u64, u64)> = want
        .into_iter()
        .map(|(name, ir, plan)| (name.to_string(), ir, plan))
        .collect();
    assert_eq!(got, want);
    assert_eq!(CACHE_FORMAT_VERSION, 2);
}

/// `continue` in a `for` runs the step before the next test; it used to
/// jump straight back to the test, skip the step and loop forever. The
/// step also used to run in the body's scope.
#[test]
fn continue_in_a_for_loop_runs_the_step() {
    let src = "def main() -> int {
        int s = 0;
        for (int i = 0; i < 3; i = i + 1) {
            if (i == 1) { continue; }
            s = s + 1;
        }
        print(s);
        return 0;
    }";
    let m = usher::frontend::compile_o0im(src).unwrap();
    let r = run(&m, None, &opts());
    assert_eq!(r.trap, None);
    assert_eq!(r.trace, vec![2]);
    // A `continue` of an inner loop continues that loop, and the outer
    // `for` still steps after the inner loop's `continue`.
    let nested = "def main() -> int {
        int s = 0;
        for (int i = 0; i < 4; i = i + 1) {
            for (int j = 0; j < 3; j = j + 1) {
                if (j == 1) { continue; }
                s = s + 10;
            }
            if (i == 2) { continue; }
            s = s + 1;
        }
        print(s);
        return 0;
    }";
    let m = usher::frontend::compile_o0im(nested).unwrap();
    let r = run(&m, None, &opts());
    assert_eq!(r.trap, None);
    assert_eq!(r.trace, vec![83]);
    // The step is outside the body's scope: a body local that shadows the
    // loop variable leaves the step's `i` alone.
    let shadow = "def main() -> int {
        int s = 0;
        for (int i = 0; i < 3; i = i + 1) {
            int i = 7;
            s = s + i;
        }
        print(s);
        return 0;
    }";
    let m = usher::frontend::compile_o0im(shadow).unwrap();
    let r = run(&m, None, &opts());
    assert_eq!(r.trap, None);
    assert_eq!(r.trace, vec![21]);
}
