//! End-to-end integration tests over the full pipeline:
//! TinyC -> IR -> O0+IM -> pointer analysis -> memory SSA -> VFG ->
//! resolution -> instrumentation -> interpretation.

use std::hash::Hasher;

use usher::core::{run_config, Config};
use usher::driver::{plan_fingerprint, Pipeline, PipelineOptions, CACHE_FORMAT_VERSION};
use usher::ir::{
    write_text, FuncCfg, FxHashMap, FxHashSet, FxHasher, Inst, Operand, OptLevel, VarId,
};
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

/// `mem2reg` edge shapes for [`cold_output_is_pinned`]: each body pins
/// one case of the promotion walk (phi placement, renaming, the undo of
/// a dominator subtree's definitions, and the slots it must leave alone).
const MEM2REG_SHAPES: [(&str, &str); 6] = [
    (
        "unreachable-after-return",
        "def f(int c) -> int {
            int x;
            if (c) { x = 1; }
            return x;
            x = 2;
            print(x);
            return 0;
        }
        def main(int c) -> int {
            if (f(c) > 0) { print(1); }
            return 0;
        }",
    ),
    (
        "continue-in-nested-for",
        "def main(int c) -> int {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) {
                for (int j = 0; j < 3; j = j + 1) {
                    if (j == c) { continue; }
                    s = s + 10;
                }
                if (i == 2) { continue; }
                s = s + 1;
            }
            if (s > 40) { print(s); }
            return 0;
        }",
    ),
    (
        "shadowed-locals",
        "def main(int c) -> int {
            int x = 1;
            int y;
            if (c) {
                int x = 2;
                y = x;
                if (c > 1) { int x; y = x; }
            } else {
                int y = 5;
                x = y;
            }
            if (y > x) { print(x); }
            print(y);
            return 0;
        }",
    ),
    (
        "read-before-any-store",
        "def main(int c) -> int {
            int x;
            int y;
            if (x) { print(1); }
            if (c) { print(y); }
            y = x + 1;
            if (y > c) { print(y); }
            return 0;
        }",
    ),
    (
        "loop-carried-local",
        "def main(int c) -> int {
            int s = 0;
            int i = 0;
            int last;
            while (i < c) {
                if (i > 2) { last = s; }
                s = s + i;
                i = i + 1;
            }
            print(s);
            if (last > 1) { print(last); }
            return 0;
        }",
    ),
    (
        "address-taken-and-array-locals",
        "def bump(int *p) {
            *p = *p + 1;
        }
        def main(int c) -> int {
            int a;
            int b = 3;
            int arr[4];
            int *p = &a;
            if (c) { *p = 2; }
            bump(&b);
            arr[1] = b;
            arr[2] = a;
            if (arr[1] + arr[2] > b) { print(b); }
            print(a);
            return 0;
        }",
    ),
];

/// Pins what a cold `Config::USHER` run outputs: digests of the module's
/// IR text and of the plan fingerprint. The programs are generated ones
/// with 16, 64 and 131 helpers, every SPEC-modelled program at `O0+IM`,
/// `O1` and `O2` (the scalar passes change the CFG after `mem2reg`, so
/// the higher levels exercise the shared CFGs' computation from the
/// final module), and the [`MEM2REG_SHAPES`]. A change meant to speed the
/// pipeline up must leave every pin as it is. A change that is meant to
/// alter the output updates these pins and bumps `CACHE_FORMAT_VERSION`
/// together, so no stale cache entry survives it.
#[test]
fn cold_output_is_pinned() {
    let usher = PipelineOptions::from_config(Config::USHER);
    let mut programs: Vec<(String, String, PipelineOptions)> =
        [(23, 16, 10), (53, 64, 12), (131, 131, 14)]
            .into_iter()
            .map(|(seed, helpers, stmts)| {
                let src = generate(seed, ladder_config(helpers, stmts));
                (format!("gen-{seed}-h{helpers}"), src, usher.clone())
            })
            .collect();
    for level in [OptLevel::O0Im, OptLevel::O1, OptLevel::O2] {
        for w in all_workloads(Scale::TEST) {
            let name = format!("{}@{level}", w.name);
            programs.push((name, w.source, usher.clone().at_level(level)));
        }
    }
    for (name, src) in MEM2REG_SHAPES {
        programs.push((name.to_string(), src.to_string(), usher.clone()));
    }
    let pipe = Pipeline::new().with_threads(2);
    let got: Vec<(String, u64, u64)> = programs
        .into_iter()
        .map(|(name, src, options)| {
            let run = pipe.run_source(name.clone(), &src, options).expect(&name);
            let ir = fx_digest(write_text(&run.module).as_bytes());
            let plan = fx_digest(plan_fingerprint(&run.plan).as_bytes());
            (name, ir, plan)
        })
        .collect();
    let want = [
        ("gen-23-h16", 0xf97b_dffa_5447_612f, 0xc8ed_82a2_06d7_1f15),
        ("gen-53-h64", 0x9700_84d0_4c32_7c85, 0x08fd_79dd_6695_25db),
        ("gen-131-h131", 0x6bc2_de51_647d_1426, 0x9adf_1ee8_a1cb_4e51),
        (
            "164.gzip@O0+IM",
            0xcf4e_c28c_015f_7630,
            0xeb51_5a1f_c6e4_6d4c,
        ),
        (
            "175.vpr@O0+IM",
            0x25b7_70dc_d2ce_a8f9,
            0xdc1a_382f_4ab0_8763,
        ),
        (
            "176.gcc@O0+IM",
            0x69e1_59d6_8453_24d7,
            0x0402_38d7_4911_93f4,
        ),
        (
            "177.mesa@O0+IM",
            0xecdc_6727_c1e6_df56,
            0x8233_283e_b181_1401,
        ),
        (
            "179.art@O0+IM",
            0x1575_5e7d_fd31_3c76,
            0x0410_7102_7a2f_afb8,
        ),
        (
            "181.mcf@O0+IM",
            0x8eaa_4df9_aedb_128a,
            0x7eb6_467f_4fa0_f606,
        ),
        (
            "183.equake@O0+IM",
            0x0c90_ad5c_1e13_fa53,
            0x617e_9ea0_f493_8aa9,
        ),
        (
            "186.crafty@O0+IM",
            0x14e0_e1bf_61df_c8e9,
            0x100f_9693_ab63_f08d,
        ),
        (
            "188.ammp@O0+IM",
            0x0ec8_9d6e_de7c_db95,
            0x6487_6079_601c_0470,
        ),
        (
            "197.parser@O0+IM",
            0x5f11_6450_4bde_993d,
            0x9157_7bbb_7728_8827,
        ),
        (
            "253.perlbmk@O0+IM",
            0x218b_78eb_1cae_689e,
            0xa19c_323f_7b67_1fb8,
        ),
        (
            "254.gap@O0+IM",
            0xf80d_d564_d9f5_7861,
            0xf407_6c27_8980_61bd,
        ),
        (
            "255.vortex@O0+IM",
            0xa25c_6bb5_44d8_5016,
            0x85a1_a55e_123e_c613,
        ),
        (
            "256.bzip2@O0+IM",
            0x5bf9_fc8a_00d5_8364,
            0xbfda_0729_b963_68de,
        ),
        (
            "300.twolf@O0+IM",
            0x43c5_603f_a874_8d15,
            0x1a4b_e28f_0235_8c57,
        ),
        ("164.gzip@O1", 0x81e1_9b1b_1794_fed8, 0x7db6_febd_08cb_6d11),
        ("175.vpr@O1", 0x739a_07df_c10c_e59c, 0x9cbc_eac0_b79a_23a3),
        ("176.gcc@O1", 0x8a73_4a35_b97f_1dd1, 0xd6b2_0bb1_0f62_038e),
        ("177.mesa@O1", 0xea2b_4256_8dd1_e2b4, 0x42ba_9aba_46bc_ed47),
        ("179.art@O1", 0x1f7a_ce6d_794b_ca45, 0xe06c_2b15_cd4e_cc7f),
        ("181.mcf@O1", 0x0482_a453_ec4d_22a3, 0x7eb6_467f_4fa0_f606),
        (
            "183.equake@O1",
            0x6615_806e_f610_99ad,
            0x0ba8_cd01_b980_1cfb,
        ),
        (
            "186.crafty@O1",
            0x7052_1283_5f1e_3938,
            0x0f4f_3a05_e418_5f64,
        ),
        ("188.ammp@O1", 0xb791_6fe4_5ff0_4260, 0x3963_e35f_5bc8_de95),
        (
            "197.parser@O1",
            0x4073_e5eb_9ace_5872,
            0x116a_c449_f573_57e8,
        ),
        (
            "253.perlbmk@O1",
            0xa261_6910_05b8_9080,
            0x6a2b_fbe7_c9c5_4eb9,
        ),
        ("254.gap@O1", 0x3641_e7da_635f_aeb5, 0x7bfe_02b8_5baa_9cd7),
        (
            "255.vortex@O1",
            0x6cd0_b05f_c1f2_7609,
            0x5206_444e_5fc5_60cf,
        ),
        ("256.bzip2@O1", 0x3083_bdce_4517_deb7, 0x7d07_38ba_29fd_6b88),
        ("300.twolf@O1", 0x9ba6_7abb_923a_813d, 0xb67b_50b5_81d8_ccc2),
        ("164.gzip@O2", 0x81e1_9b1b_1794_fed8, 0x7db6_febd_08cb_6d11),
        ("175.vpr@O2", 0x739a_07df_c10c_e59c, 0x9cbc_eac0_b79a_23a3),
        ("176.gcc@O2", 0x1453_8549_ccb4_f3a1, 0xd6b2_0bb1_0f62_038e),
        ("177.mesa@O2", 0xea2b_4256_8dd1_e2b4, 0x42ba_9aba_46bc_ed47),
        ("179.art@O2", 0xcb19_be2e_6b09_362f, 0xe06c_2b15_cd4e_cc7f),
        ("181.mcf@O2", 0x0482_a453_ec4d_22a3, 0x7eb6_467f_4fa0_f606),
        (
            "183.equake@O2",
            0x6615_806e_f610_99ad,
            0x0ba8_cd01_b980_1cfb,
        ),
        (
            "186.crafty@O2",
            0x7052_1283_5f1e_3938,
            0x0f4f_3a05_e418_5f64,
        ),
        ("188.ammp@O2", 0x805b_96e2_c263_42fb, 0x6a9b_ee8f_bec7_e381),
        (
            "197.parser@O2",
            0xa8d9_2f86_24ee_f800,
            0x6945_c25c_dcbf_67be,
        ),
        (
            "253.perlbmk@O2",
            0xae81_37ef_48d5_a8b7,
            0x6a2b_fbe7_c9c5_4eb9,
        ),
        ("254.gap@O2", 0x3641_e7da_635f_aeb5, 0x7bfe_02b8_5baa_9cd7),
        (
            "255.vortex@O2",
            0x6cd0_b05f_c1f2_7609,
            0x5206_444e_5fc5_60cf,
        ),
        ("256.bzip2@O2", 0x3083_bdce_4517_deb7, 0x7d07_38ba_29fd_6b88),
        ("300.twolf@O2", 0x9ba6_7abb_923a_813d, 0xb67b_50b5_81d8_ccc2),
        (
            "unreachable-after-return",
            0x8023_7c3c_5870_92e9,
            0xa84e_a474_9e07_08d6,
        ),
        (
            "continue-in-nested-for",
            0x8c5f_904c_049a_6e41,
            0x7eb6_467f_4fa0_f606,
        ),
        (
            "shadowed-locals",
            0x1312_dc37_7cb9_3523,
            0xfdf9_9b91_e5c2_873c,
        ),
        (
            "read-before-any-store",
            0x2ab6_a13a_3dfd_d510,
            0x856d_764c_07d2_5067,
        ),
        (
            "loop-carried-local",
            0x4605_e99f_e6c9_6d14,
            0x26c6_8b46_96cb_001f,
        ),
        (
            "address-taken-and-array-locals",
            0x75b0_3227_ad99_f5d7,
            0x6502_c5d1_40da_8eec,
        ),
    ];
    let want: Vec<(String, u64, u64)> = want
        .into_iter()
        .map(|(name, ir, plan)| (name.to_string(), ir, plan))
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, ir, plan)| format!("(\"{name}\", {ir:#018x}, {plan:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "cold output changed; now:\n{listing}");
    assert_eq!(CACHE_FORMAT_VERSION, 3);
}

/// The CFGs and dominator trees a cold run shares from the
/// post-optimization verify through Opt II are computed once from the
/// final module, so each must equal a fresh computation at every
/// optimization level (`O1`/`O2` rewrite the CFG after `mem2reg`). The
/// verify computes every function's entry, and the guided stages read
/// only those.
#[test]
fn shared_cfgs_equal_a_fresh_computation_at_every_opt_level() {
    let mut programs = vec![("gen-23".to_string(), generate(23, ladder_config(16, 10)))];
    for w in all_workloads(Scale::TEST) {
        programs.push((w.name.to_string(), w.source));
    }
    for (name, src) in MEM2REG_SHAPES {
        programs.push((name.to_string(), src.to_string()));
    }
    let pipe = Pipeline::new().without_cache();
    for level in [OptLevel::O0Im, OptLevel::O1, OptLevel::O2] {
        let options = PipelineOptions::from_config(Config::USHER).at_level(level);
        for (name, src) in &programs {
            let r = pipe
                .run_retained(name.clone(), src, options.clone())
                .expect(name);
            let m = &r.run.module;
            for (fid, f) in m.funcs.iter_enumerated() {
                let shared = r.cfgs.computed(fid).unwrap_or_else(|| {
                    panic!("{name}@{level}: {fid:?} has no shared CFG after the verify")
                });
                assert_eq!(
                    *shared,
                    FuncCfg::compute(f),
                    "{name}@{level}: {fid:?}'s shared CFG or dominator tree is stale"
                );
            }
        }
    }
}

/// `mem2reg` builds pruned SSA: at `O0+IM` (no scalar pass runs after
/// it) every phi reaches a non-phi instruction or a terminator, directly
/// or through other phis. LLVM's `mem2reg`, which the paper's `O0+IM`
/// modules come from, places phis only where the slot is live.
#[test]
fn mem2reg_leaves_no_dead_phi() {
    let mut programs: Vec<(String, String)> = [(23, 16, 10), (53, 64, 12), (131, 131, 14)]
        .into_iter()
        .map(|(seed, helpers, stmts)| {
            let src = generate(seed, ladder_config(helpers, stmts));
            (format!("gen-{seed}-h{helpers}"), src)
        })
        .collect();
    for w in all_workloads(Scale::TEST) {
        programs.push((w.name.to_string(), w.source));
    }
    for (name, src) in MEM2REG_SHAPES {
        programs.push((name.to_string(), src.to_string()));
    }
    let mut phis = 0;
    for (name, src) in &programs {
        let m = usher::frontend::compile_o0im(src).expect(name);
        for f in m.funcs.iter() {
            // Liveness spreads from the non-phi uses back through phis.
            let mut incomings: FxHashMap<VarId, Vec<VarId>> = FxHashMap::default();
            let mut work: Vec<VarId> = Vec::new();
            let mut root = |o: Operand| {
                if let Operand::Var(v) = o {
                    work.push(v);
                }
            };
            for block in f.blocks.iter() {
                for inst in &block.insts {
                    match inst {
                        Inst::Phi {
                            dst,
                            incomings: ins,
                        } => {
                            let vars = ins.iter().filter_map(|(_, o)| match o {
                                Operand::Var(v) => Some(*v),
                                _ => None,
                            });
                            incomings.insert(*dst, vars.collect());
                        }
                        _ => inst.for_each_use(&mut root),
                    }
                }
                block.term.for_each_use(&mut root);
            }
            phis += incomings.len();
            let mut live: FxHashSet<VarId> = FxHashSet::default();
            while let Some(v) = work.pop() {
                if live.insert(v) {
                    work.extend(incomings.get(&v).into_iter().flatten());
                }
            }
            let mut dead: Vec<&str> = (incomings.keys())
                .filter(|v| !live.contains(v))
                .map(|v| f.vars[*v].name.as_str())
                .collect();
            dead.sort_unstable();
            assert!(dead.is_empty(), "{name}: {}: dead phis {dead:?}", f.name);
        }
    }
    assert!(phis > 0, "the programs exercise phi placement");
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
