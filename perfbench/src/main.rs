//! The Usher benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analyze-cold|serve-session> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of the traced run. `--tiny` shrinks
//! every input to smoke-test size. See `perfbench/README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod alloc;
mod analyze;
mod layers;
mod serve;
mod stats;
mod suite;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
}

/// The workloads the command line accepts, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["analyze-cold", "serve-session"];

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                args.tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// Runs one workload and returns what it measured and checked.
pub fn run(args: &Args) -> stats::Outcome {
    let mut out = match args.workload.as_str() {
        "analyze-cold" => analyze::run(args),
        _ => serve::run(args),
    };
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for e in &out.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    println!("{}", out.render(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_serve::Json;

    fn smoke(workload: &str, trace: bool) -> stats::Outcome {
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            tiny: true,
        };
        let out = run(&args);
        assert!(out.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(
            out.failed, 0,
            "{workload} (trace {trace}): {:?}",
            out.errors
        );
        out
    }

    #[test]
    fn analyze_cold_smoke_runs_every_oracle() {
        let out = smoke("analyze-cold", false);
        assert!(out.metrics["op_p50_ms"] > 0.0);
        let traced = smoke("analyze-cold", true);
        for name in layers::LAYER_SPANS {
            assert!(traced.metrics[name] > 0.0, "{name}");
        }
        assert!(traced.metrics["runtime.msan_exec_slowdown_x"] > 1.0);
        assert!(traced.metrics["runtime.usher_slowdown_pct"] > 0.0);
    }

    #[test]
    fn serve_session_smoke_runs_every_oracle() {
        let out = smoke("serve-session", false);
        assert!(out.metrics["ops_per_s"] > 0.0);
        let traced = smoke("serve-session", true);
        assert!(traced.metrics["serve.engine.open_cold_ms"] > 0.0);
        assert!(traced.metrics["serve.wal_appends"] > 0.0);
    }

    #[test]
    fn benchmark_json_names_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = json.get(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        let table =
            |t: &[(&str, &str)]| -> Vec<String> { t.iter().map(|(n, _)| n.to_string()).collect() };
        assert_eq!(names("end_to_end"), table(&stats::END_TO_END));
        assert_eq!(names("per_layer"), table(stats::PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS);
    }
}
