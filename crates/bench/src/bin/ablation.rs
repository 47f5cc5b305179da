//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * context depth k of definedness resolution (0 / 1 / 2; the paper uses 1);
//! * the semi-strong update rule on/off (the paper's novel mechanism);
//! * Opt I and Opt II individually.
//!
//! Each variant is a [`GuidedKnobs`] tweak run through the shared
//! pipeline, so all six variants reuse the compiled module, pointer
//! analysis and memory SSA from the cache, and variants that share a VFG
//! (same semi-strong setting) reuse that too.
//!
//! Reported as the suite-average dynamic slowdown of the resulting plan.

use usher_bench::{average, cli::BenchArgs};
use usher_driver::{GuidedKnobs, Job, PipelineOptions, SourceInput};
use usher_runtime::{run, RunOptions};
use usher_vfg::VfgMode;
use usher_workloads::{all_workloads, Scale};

struct Variant {
    name: &'static str,
    k: usize,
    semi_strong: bool,
    opt1: bool,
    opt2: bool,
}

const VARIANTS: [Variant; 6] = [
    Variant {
        name: "full Usher (k=1)",
        k: 1,
        semi_strong: true,
        opt1: true,
        opt2: true,
    },
    Variant {
        name: "k=0 (ctx-insensitive)",
        k: 0,
        semi_strong: true,
        opt1: true,
        opt2: true,
    },
    Variant {
        name: "k=2",
        k: 2,
        semi_strong: true,
        opt1: true,
        opt2: true,
    },
    Variant {
        name: "no semi-strong",
        k: 1,
        semi_strong: false,
        opt1: true,
        opt2: true,
    },
    Variant {
        name: "no Opt I",
        k: 1,
        semi_strong: true,
        opt1: false,
        opt2: true,
    },
    Variant {
        name: "no Opt II",
        k: 1,
        semi_strong: true,
        opt1: true,
        opt2: false,
    },
];

impl Variant {
    fn options(&self) -> PipelineOptions {
        let knobs = GuidedKnobs {
            mode: VfgMode::Full,
            semi_strong: self.semi_strong,
            context_depth: self.k,
            opt1: self.opt1,
            opt2: self.opt2,
        };
        PipelineOptions {
            guided: Some(knobs),
            ..PipelineOptions::default()
        }
        .labelled(self.name)
    }
}

fn main() {
    let args = BenchArgs::parse(Scale::REF);
    let pipe = args.pipeline();
    let opts = RunOptions::default();
    let workloads = all_workloads(args.scale);
    println!(
        "Ablation over the design choices (scale n={})\n",
        args.scale.n
    );
    println!(
        "{:<24} {:>14} {:>16} {:>12}",
        "variant", "avg slowdown", "avg propagations", "avg checks"
    );

    for v in VARIANTS {
        let jobs: Vec<Job> = workloads
            .iter()
            .map(|w| {
                Job::new(
                    w.name,
                    SourceInput::TinyC(w.source.clone()),
                    args.apply(v.options()),
                )
            })
            .collect();
        let (runs, batch) = pipe.run_batch(&jobs);
        args.emit_report(&batch);
        let mut slowdowns = Vec::new();
        let mut props = Vec::new();
        let mut checks = Vec::new();
        for r in runs {
            let r = r.expect("suite compiles");
            let exec = run(&r.module, Some(&r.plan), &opts);
            slowdowns.push(exec.counters.slowdown_pct());
            props.push(r.plan.stats.propagations as f64);
            checks.push(r.plan.stats.checks as f64);
        }
        println!(
            "{:<24} {:>13.0}% {:>16.0} {:>12.0}",
            v.name,
            average(&slowdowns),
            average(&props),
            average(&checks)
        );
    }
}
