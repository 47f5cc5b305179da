//! `usher` — command-line front door to the whole pipeline.
//!
//! ```text
//! usher run <file.tc>                 run a TinyC program natively
//! usher check <file.tc>               analyze + run under guided instrumentation
//! usher analyze <file.tc>             static analysis report (no execution)
//! usher ir <file.tc>                  dump the O0+IM IR
//! usher dis <file.tc>                 dump parseable IR text (.uir)
//! usher vfg <file.tc>                 dump the value-flow graph as DOT
//! usher gen [--seed N] [...]          generate a synthetic TinyC workload
//! usher fuzz [--smoke] [...]          differential fuzzing campaign
//! usher serve [--socket P] [...]      persistent incremental analysis service
//! ```
//!
//! Inputs ending in `.uir` are parsed as IR text instead of TinyC.
//!
//! Options: `--config msan|tl|tlat|opt1|usher|msan-bit|usher-bit` (default `usher`),
//! `--opt O0|O1|O2` (default `O0`, meaning O0+IM), `--seed <n>` for the
//! deterministic `input()` stream, `--threads <n>` for the pipeline's
//! worker pool, `--no-cache` to disable artifact caching, `--report`
//! to print per-stage JSON telemetry on stderr, and `--demand` to
//! resolve definedness with the demand-driven query engine (implies
//! Opt II off; the analyze report gains a `demand` counter block).
//!
//! Degradation knobs (see DESIGN.md §10): `--budget-steps <n>` caps the
//! analysis step budget, `--deadline-ms <n>` adds a wall-clock deadline,
//! `--strict` turns sound degradations into errors, and
//! `--inject-panic <stage>` panics inside the named stage's containment
//! region (testing hook).
//!
//! `usher fuzz` runs a deterministic differential campaign: generated
//! programs (and their mutants) executed natively, under the MSan
//! baseline plan and under every guided preset, with results classified
//! against the ground truth. `--smoke` is the fixed CI gate; `--seeds`,
//! `--start`, `--mutants`, `--frontend`, `--fault none|fuel|cache-evict|
//! trap-force|drop-checks|cache-corrupt|budget-exhaust|strategy-diverge|
//! demand-diverge|serve-chaos`, `--threads`,
//! `--no-minimize`, `--report FILE`
//! (JSONL telemetry) and `--out DIR` (minimized reproducers) shape ad-hoc
//! campaigns. Exit code 1 means the campaign found at least one mismatch.
//!
//! `usher serve` keeps one analysis engine resident and speaks a
//! JSON-lines protocol (`analyze`/`edit`/`query`/`query-use`/`stats`/
//! `close`/`shutdown`) over stdin and an optional Unix socket (`--socket`),
//! multiplexing up to `--max-clients` connections. Artifacts are cached
//! in memory and, with `--store-dir`, in an on-disk content-addressed
//! store capped at `--store-cap-bytes` (see DESIGN.md §11).
//!
//! All analysis routes through [`usher::driver::Pipeline`].

use std::process::ExitCode;

use usher::core::Config;
use usher::driver::{Pipeline, PipelineOptions, PipelineRun, SourceInput};
use usher::ir::OptLevel;
use usher::runtime::{run, RunOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("usher: {msg}");
            eprintln!();
            eprintln!("usage: usher <run|check|analyze|ir|dis|vfg> <file.tc|file.uir> [--config CFG] [--opt LVL] [--seed N] [--threads N] [--no-cache] [--report] [--demand] [--budget-steps N] [--deadline-ms N] [--strict] [--inject-panic STAGE]");
            eprintln!("       usher gen [--seed N] [--helpers N] [--stmts N]");
            eprintln!("       usher fuzz [--smoke] [--seeds N] [--start N] [--mutants N] [--frontend] [--fault MODE] [--threads N] [--no-minimize] [--report FILE] [--out DIR]");
            eprintln!("       usher serve [--socket PATH] [--store-dir DIR] [--store-cap-bytes N] [--max-clients N] [--threads N] [--no-cache] [--wal PATH] [--no-wal] [--max-queue N] [--drain-timeout-ms N]");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("gen") {
        return gen_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_command(&args[1..]);
    }
    let mut cmd = None;
    let mut file = None;
    let mut config = Config::USHER;
    let mut level = OptLevel::O0Im;
    let mut seed = 0x5eedu64;
    let mut threads = None;
    let mut use_cache = true;
    let mut report = false;
    let mut budget_steps = None;
    let mut deadline_ms = None;
    let mut strict = false;
    let mut inject_panic = None;
    let mut demand = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => {
                let v = it.next().ok_or("--config needs a value")?;
                config = match v.as_str() {
                    "msan" => Config::MSAN,
                    "tl" => Config::USHER_TL,
                    "tlat" => Config::USHER_TL_AT,
                    "opt1" => Config::USHER_OPT1,
                    "usher" => Config::USHER,
                    "msan-bit" => Config::MSAN_BIT,
                    "usher-bit" => Config::USHER_BIT,
                    other => return Err(format!("unknown config {other}")),
                };
            }
            "--opt" => {
                let v = it.next().ok_or("--opt needs a value")?;
                level = match v.as_str() {
                    "O0" | "O0+IM" => OptLevel::O0Im,
                    "O1" => OptLevel::O1,
                    "O2" => OptLevel::O2,
                    other => return Err(format!("unknown opt level {other}")),
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--no-cache" => use_cache = false,
            "--report" => report = true,
            "--budget-steps" => {
                let v = it.next().ok_or("--budget-steps needs a value")?;
                budget_steps = Some(v.parse::<u64>().map_err(|_| format!("bad budget {v}"))?);
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                deadline_ms = Some(v.parse::<u64>().map_err(|_| format!("bad deadline {v}"))?);
            }
            "--strict" => strict = true,
            "--demand" => demand = true,
            "--inject-panic" => {
                let v = it.next().ok_or("--inject-panic needs a stage name")?;
                inject_panic = Some(v.clone());
            }
            _ if cmd.is_none() => cmd = Some(a.clone()),
            _ if file.is_none() => file = Some(a.clone()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }

    let cmd = cmd.ok_or("missing command")?;
    let file = file.ok_or("missing input file")?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let source = if file.ends_with(".uir") {
        SourceInput::IrText(text)
    } else {
        SourceInput::TinyC(text)
    };

    let mut pipe = Pipeline::new();
    if let Some(n) = threads {
        pipe = pipe.with_threads(n);
    }
    if !use_cache {
        pipe = pipe.without_cache();
    }
    let mut options = PipelineOptions::from_config(config)
        .at_level(level)
        .with_budget_steps(budget_steps)
        .with_deadline_ms(deadline_ms)
        .strict(strict)
        .with_inject_panic(inject_panic);
    if demand {
        options = options.with_demand(true);
    }
    let analyze = |opts: PipelineOptions| -> Result<PipelineRun, String> {
        let pr = pipe
            .run(&file, source.clone(), opts)
            .map_err(|e| e.to_string())?;
        if report {
            eprintln!("{}", pr.report.to_json_line());
        }
        Ok(pr)
    };
    let opts = RunOptions {
        input_seed: seed,
        ..Default::default()
    };

    match cmd.as_str() {
        "run" => {
            let module = pipe.compile(&source, &options).map_err(|e| e.to_string())?;
            let r = run(&module, None, &opts);
            for v in &r.trace {
                println!("{v}");
            }
            if let Some(t) = r.trap {
                eprintln!("trap: {t:?}");
                return Ok(ExitCode::from(3));
            }
            if !r.ground_truth.is_empty() {
                eprintln!(
                    "note: {} use(s) of undefined values occurred (run `usher check` to detect them)",
                    r.ground_truth.len()
                );
            }
            Ok(ExitCode::from(r.exit.unwrap_or(0).rem_euclid(256) as u8))
        }
        "check" => {
            let pr = analyze(options)?;
            let r = run(&pr.module, Some(&pr.plan), &opts);
            for v in &r.trace {
                println!("{v}");
            }
            for ev in &r.detected {
                eprintln!(
                    "warning: use of an undefined value at {} in function {} ({:?})",
                    ev.site, pr.module.funcs[ev.site.func].name, ev.kind
                );
                if let Some(origin) = ev.origin {
                    eprintln!(
                        "    note: value originated at {} in function {}",
                        origin, pr.module.funcs[origin.func].name
                    );
                }
            }
            eprintln!(
                "[{}] {} propagation(s), {} check(s) planned; slowdown {:.0}% vs native",
                pr.plan.name,
                pr.plan.stats.propagations,
                pr.plan.stats.checks,
                r.counters.slowdown_pct()
            );
            if let Some(t) = r.trap {
                eprintln!("trap: {t:?}");
                return Ok(ExitCode::from(3));
            }
            Ok(if r.detected.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "analyze" => {
            let pr = analyze(options)?;
            println!("configuration : {}", pr.plan.name);
            println!("analysis time : {:.3}s", pr.report.total_seconds);
            if let Some(vfg) = &pr.vfg {
                println!("VFG nodes     : {}", vfg.len());
                println!("checks        : {}", vfg.checks.len());
                let s = vfg.stats;
                println!(
                    "stores        : {} strong / {} semi-strong / {} weak-singleton / {} multi",
                    s.strong_stores,
                    s.semi_strong_stores,
                    s.weak_singleton_stores,
                    s.multi_target_stores
                );
            }
            if let Some(gamma) = &pr.gamma {
                println!("bot nodes     : {}", gamma.bot_count());
            }
            println!(
                "plan          : {} ops, {} propagations, {} checks",
                pr.plan.stats.ops, pr.plan.stats.propagations, pr.plan.stats.checks
            );
            if pr.opt2_redirected > 0 {
                println!(
                    "opt2          : {} node(s) redirected to T",
                    pr.opt2_redirected
                );
            }
            if let Some(ds) = &pr.report.demand {
                println!(
                    "demand        : {} queries, {} memo hits, {} nodes visited, {} refinements, {} exhausted",
                    ds.queries,
                    ds.memo_hits,
                    ds.nodes_visited,
                    ds.refinements,
                    ds.exhausted_queries
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "ir" => {
            let module = pipe.compile(&source, &options).map_err(|e| e.to_string())?;
            print!("{}", usher::ir::print_module(&module));
            Ok(ExitCode::SUCCESS)
        }
        "dis" => {
            let module = pipe.compile(&source, &options).map_err(|e| e.to_string())?;
            print!("{}", usher::ir::write_text(&module));
            Ok(ExitCode::SUCCESS)
        }
        "vfg" => {
            let pr = analyze(options)?;
            let vfg = pr
                .vfg
                .as_ref()
                .ok_or("the msan config builds no VFG; pick a guided one")?;
            print!("{}", vfg.to_dot(&pr.module));
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// `usher gen`: print a deterministic synthetic TinyC workload to
/// stdout — the same generator the fuzz and bench ladders use, exposed
/// so shell harnesses (e.g. the CI degradation gate) can materialize a
/// program of a chosen size without a checked-in fixture.
fn gen_command(args: &[String]) -> Result<ExitCode, String> {
    use usher::workloads::{generate, ladder_config};

    let mut seed = 1u64;
    let mut helpers = 6usize;
    let mut stmts = 40usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--helpers" => {
                let v = it.next().ok_or("--helpers needs a value")?;
                helpers = v.parse().map_err(|_| format!("bad helper count {v}"))?;
            }
            "--stmts" => {
                let v = it.next().ok_or("--stmts needs a value")?;
                stmts = v.parse().map_err(|_| format!("bad statement count {v}"))?;
            }
            other => return Err(format!("unexpected gen argument {other}")),
        }
    }
    print!("{}", generate(seed, ladder_config(helpers, stmts)));
    Ok(ExitCode::SUCCESS)
}

/// `usher serve`: run the persistent incremental analysis service until
/// stdin closes or a client sends `{"op":"shutdown"}`.
fn serve_command(args: &[String]) -> Result<ExitCode, String> {
    use usher::serve::{run_server, ServerConfig};

    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                let v = it.next().ok_or("--socket needs a path")?;
                cfg.socket = Some(v.into());
            }
            "--store-dir" => {
                let v = it.next().ok_or("--store-dir needs a directory")?;
                cfg.store_dir = Some(v.into());
            }
            "--store-cap-bytes" => {
                let v = it.next().ok_or("--store-cap-bytes needs a value")?;
                cfg.store_cap_bytes = v.parse().map_err(|_| format!("bad byte cap {v}"))?;
            }
            "--max-clients" => {
                let v = it.next().ok_or("--max-clients needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad client count {v}"))?;
                if n == 0 {
                    return Err("--max-clients must be at least 1".into());
                }
                cfg.max_clients = n;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cfg.threads = n;
            }
            "--no-cache" => cfg.use_cache = false,
            "--wal" => {
                let v = it.next().ok_or("--wal needs a path")?;
                cfg.wal_path = Some(v.into());
            }
            "--no-wal" => cfg.wal_enabled = false,
            "--max-queue" => {
                let v = it.next().ok_or("--max-queue needs a value")?;
                cfg.max_queue = v.parse().map_err(|_| format!("bad queue depth {v}"))?;
            }
            "--drain-timeout-ms" => {
                let v = it.next().ok_or("--drain-timeout-ms needs a value")?;
                cfg.drain_timeout_ms = v.parse().map_err(|_| format!("bad drain timeout {v}"))?;
            }
            other => return Err(format!("unexpected serve argument {other}")),
        }
    }
    run_server(&cfg)?;
    Ok(ExitCode::SUCCESS)
}

fn fuzz_command(args: &[String]) -> Result<ExitCode, String> {
    use usher::fuzz::{run_campaign, CampaignConfig, FaultInjection};

    let mut cfg = CampaignConfig::default();
    let mut smoke = false;
    let mut report_path: Option<String> = None;
    let mut out_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                cfg = CampaignConfig::smoke();
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                cfg.seeds = v.parse().map_err(|_| format!("bad seed count {v}"))?;
            }
            "--start" => {
                let v = it.next().ok_or("--start needs a value")?;
                cfg.start = v.parse().map_err(|_| format!("bad start seed {v}"))?;
            }
            "--mutants" => {
                let v = it.next().ok_or("--mutants needs a value")?;
                cfg.mutants = v.parse().map_err(|_| format!("bad mutant count {v}"))?;
            }
            "--frontend" => cfg.frontend = true,
            "--fault" => {
                let v = it.next().ok_or("--fault needs a value")?;
                cfg.fault = FaultInjection::parse(v).ok_or_else(|| {
                    format!("unknown fault mode {v} (none|fuel|cache-evict|trap-force|drop-checks|cache-corrupt|budget-exhaust|strategy-diverge|demand-diverge|serve-chaos)")
                })?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cfg.threads = n;
            }
            "--no-minimize" => cfg.minimize = false,
            "--report" => report_path = Some(it.next().ok_or("--report needs a path")?.clone()),
            "--out" => out_dir = Some(it.next().ok_or("--out needs a directory")?.clone()),
            other => return Err(format!("unexpected fuzz argument {other}")),
        }
    }

    let mut report_file = match &report_path {
        Some(p) => Some(std::fs::File::create(p).map_err(|e| format!("cannot create {p}: {e}"))?),
        None => None,
    };
    let mut emit = |line: String| {
        use std::io::Write as _;
        match &mut report_file {
            Some(f) => {
                let _ = writeln!(f, "{line}");
            }
            None => eprintln!("{line}"),
        }
    };

    let out = run_campaign(&cfg, &mut emit);
    for f in &out.failures {
        eprintln!(
            "FAILURE seed {} mutant {} ({}): {}",
            f.seed, f.mutant, f.op, f.mismatch
        );
        if let (Some(dir), Some(min)) = (&out_dir, &f.minimized) {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let path = format!(
                "{dir}/{}-s{}-m{}.tc",
                f.mismatch.kind.name(),
                f.seed,
                f.mutant
            );
            std::fs::write(&path, format!("{min}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("    minimized reproducer written to {path}");
        }
    }
    eprintln!(
        "fuzz{}: {} program(s), {} compile error(s), {} fuel-exhausted, {} mismatch(es) in {:.1}s",
        if smoke { " --smoke" } else { "" },
        out.stats.programs,
        out.stats.compile_errors,
        out.stats.fuel_exhausted,
        out.stats.mismatches,
        out.stats.seconds
    );
    Ok(if out.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
