//! `usher serve-bench`: replays a synthetic multi-client edit/analyze
//! trace against a serve [`Dispatcher`] and reports request latencies.
//!
//! The trace is deterministic: a generated workload rung is analyzed
//! cold once, then `clients` synthetic sessions open warm, then each
//! session receives a burst of edits — const-swap edits (confined to one
//! function body, expected to take the incremental path) interleaved
//! with declaration-insertion edits (which change the function's object
//! count and must fall back to a sound full recompute) — with warm
//! re-analyzes mixed in. The report records p50/p99 latency per request
//! class, the two-tier warm-hit ratio, and the headline ratio: cold full
//! analysis time over incremental-edit p50.
//!
//! A second **burst phase** then rebuilds the dispatcher with a
//! deliberately tiny admission queue (`max_queue = 1`) and hammers it
//! with barrier-synchronized client threads: every volley races all
//! clients into admission at once, so the shedding path
//! (`error_kind: "overloaded"` + `retry_after_ms`) fires under real
//! contention. Clients honor the hint with bounded exponential backoff
//! and deterministic jitter — the same discipline
//! `examples/serve_client.rs` implements — and every request must
//! eventually succeed.
//!
//! `--quick` runs a small rung and enforces regression gates (an
//! incremental edit with `functions_recomputed == 1` must occur,
//! structural edits must exercise the fallback path, the incremental
//! speedup must clear a conservative floor, and the burst phase must
//! shed at least once while completing every request), returning an
//! error otherwise — CI wires this in `scripts/ci.sh`.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use usher_workloads::{generate, ladder_config, Rng};

use crate::json::{Json, ObjWriter};
use crate::server::{Dispatcher, ServerConfig};

/// Options for one bench run.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Small rung + regression gates (CI mode).
    pub quick: bool,
    /// Where to write the JSON report; `None` skips the file.
    pub out: Option<PathBuf>,
    /// Synthetic client count.
    pub clients: usize,
    /// Edits per client.
    pub edits_per_client: usize,
    /// Override the workload rung `(seed, helpers, max_stmts)`; used by
    /// unit tests to stay tiny.
    pub rung_override: Option<(u64, usize, usize)>,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            quick: false,
            out: None,
            clients: 4,
            edits_per_client: 8,
            rung_override: None,
        }
    }
}

/// Summary numbers of a bench run (the JSON report's contents).
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// Workload rung name (`gen-<seed>`).
    pub rung: String,
    /// Total protocol requests issued.
    pub requests: usize,
    /// Cold full-analysis wall time.
    pub cold_analyze_seconds: f64,
    /// Warm `analyze` latency p50.
    pub warm_p50: f64,
    /// Warm `analyze` latency p99.
    pub warm_p99: f64,
    /// Edits that took the incremental path.
    pub edit_incremental: usize,
    /// Edits that fell back to a full recompute.
    pub edit_fallback: usize,
    /// All-edit latency p50.
    pub edit_p50: f64,
    /// All-edit latency p99.
    pub edit_p99: f64,
    /// Incremental-edit latency p50.
    pub incremental_p50: f64,
    /// `cold_analyze_seconds / incremental_p50`.
    pub incremental_speedup: f64,
    /// Two-tier warm hit ratio at the end of the trace.
    pub warm_hit_ratio: f64,
    /// Incremental edits that recomputed exactly one function.
    pub single_function_edits: usize,
    /// Requests issued by the overload burst phase (all must succeed).
    pub burst_requests: usize,
    /// Shed responses (`error_kind: "overloaded"`) during the burst.
    pub burst_shed: u64,
    /// Backoff retries the burst clients performed.
    pub burst_retries: u64,
    /// The rendered JSON report.
    pub json: String,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Rewrites `<lhs> = <int>;` into a different integer constant; the only
/// edit class guaranteed to leave pointer structure untouched.
fn const_swap(line: &str) -> Option<String> {
    let eq = line.rfind(" = ")?;
    let rest = line[eq + 3..].trim_end();
    let digits = rest.strip_suffix(';')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: u64 = digits.parse().ok()?;
    Some(format!("{} = {};", &line[..eq], (n + 7) % 97 + 1))
}

/// `helper*` function spans as `(name, start, end)` line ranges, found
/// with the same brace-depth scan the engine uses for edit splicing.
fn find_helper_spans(lines: &[String]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0i64;
    let mut open: Option<(String, usize)> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if depth == 0 {
            if let Some(rest) = code.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.starts_with("helper") {
                    open = Some((name, i));
                }
            }
        }
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        if depth == 0 {
            if let Some((name, start)) = open.take() {
                spans.push((name, start, i + 1));
            }
        }
    }
    spans
}

struct EditPlan {
    func: String,
    body: String,
    structural: bool,
}

/// Builds the next edit for a session: a const swap in the chosen
/// helper, or (every fifth edit) an address-taken declaration insertion
/// (`int x = 7; int *p = &x;`), which keeps a new object past `mem2reg`
/// and so must fall back to a full recompute.
fn plan_edit(source: &str, pick: usize, edit_no: usize) -> Option<EditPlan> {
    let lines: Vec<String> = source.lines().map(String::from).collect();
    let spans = find_helper_spans(&lines);
    if spans.is_empty() {
        return None;
    }
    let structural = edit_no % 5 == 4;
    // Try helpers starting at `pick` until one admits the edit class.
    for off in 0..spans.len() {
        let (name, start, end) = &spans[(pick + off) % spans.len()];
        let body_lines = &lines[*start..*end];
        if structural {
            let mut new_body: Vec<String> = body_lines.to_vec();
            // Address-taken, so the local stays an object after
            // `mem2reg` and the edit must fall back.
            new_body.insert(
                1,
                format!(
                    "    int bench_x{edit_no} = 7;\n    int *bench_p{edit_no} = &bench_x{edit_no};"
                ),
            );
            return Some(EditPlan {
                func: name.clone(),
                body: new_body.join("\n"),
                structural: true,
            });
        }
        for (j, line) in body_lines.iter().enumerate().skip(1) {
            if let Some(swapped) = const_swap(line) {
                let mut new_body: Vec<String> = body_lines.to_vec();
                new_body[j] = swapped;
                return Some(EditPlan {
                    func: name.clone(),
                    body: new_body.join("\n"),
                    structural: false,
                });
            }
        }
    }
    None
}

/// Overload burst: a fresh dispatcher with `max_queue = 1` (and no
/// durable state) is hammered by `clients` threads that a [`Barrier`]
/// releases simultaneously each volley, so several requests race into
/// admission at once and the shedding path fires. Each client honors
/// `retry_after_ms` with bounded exponential backoff plus deterministic
/// jitter, and every request must eventually succeed.
///
/// Returns `(requests, shed_responses, retries)`.
fn run_burst(src: &str, clients: usize) -> Result<(usize, u64, u64), String> {
    let cfg = ServerConfig {
        max_queue: 1,
        wal_enabled: false,
        ..ServerConfig::default()
    };
    let d = Arc::new(Dispatcher::new(&cfg)?);
    // One cold analyze up front so the burst exercises warm contention.
    let h = d.handle_line("bench", &req_analyze(src, "burst-cold"));
    expect_ok(&h.response, "burst cold analyze")?;

    let clients = clients.max(3);
    let volleys = 8usize;
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for c in 0..clients {
        let d = Arc::clone(&d);
        let barrier = Arc::clone(&barrier);
        let src = src.to_string();
        handles.push(std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut rng = Rng::new(0x6275_7273_7400 + c as u64);
            let mut shed = 0u64;
            let mut retries = 0u64;
            for v in 0..volleys {
                barrier.wait();
                let id = format!("burst-{c}-{v}");
                let mut attempt = 0u32;
                loop {
                    let h = d.handle_line("bench", &req_analyze(&src, &id));
                    let resp = Json::parse(&h.response)
                        .map_err(|e| format!("burst {id}: bad response json: {e}"))?;
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        break;
                    }
                    if resp.get("error_kind").and_then(Json::as_str) != Some("overloaded") {
                        return Err(format!("burst {id} failed hard: {}", h.response));
                    }
                    shed += 1;
                    retries += 1;
                    if attempt >= 20 {
                        return Err(format!("burst {id} never admitted after 20 retries"));
                    }
                    // Honor the server's hint, scaled down to keep the
                    // bench fast, with exponential growth and jitter so
                    // the retry volley spreads out instead of re-colliding.
                    let hint = resp
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(50);
                    let base = (hint.min(10) << attempt.min(4)).max(1);
                    let jitter = rng.next_u64() % (base / 2 + 1);
                    std::thread::sleep(Duration::from_millis(base + jitter));
                    attempt += 1;
                }
            }
            Ok((shed, retries))
        }));
    }
    let mut shed = 0u64;
    let mut retries = 0u64;
    for h in handles {
        let (s, r) = h
            .join()
            .map_err(|_| "burst client panicked".to_string())??;
        shed += s;
        retries += r;
    }
    Ok((clients * volleys, shed, retries))
}

fn req_analyze(src: &str, id: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("op", "analyze").str("source", src).str("id", id);
    w.finish()
}

fn expect_ok(resp: &str, what: &str) -> Result<Json, String> {
    let v = Json::parse(resp).map_err(|e| format!("{what}: bad response json: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{what} failed: {}",
            v.get("error").and_then(Json::as_str).unwrap_or(resp)
        ));
    }
    Ok(v)
}

/// Runs the bench trace against a fresh dispatcher with a temporary
/// on-disk store.
///
/// # Errors
///
/// Fails on engine or protocol errors, and in quick mode when a
/// regression gate trips.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchSummary, String> {
    let (seed, helpers, stmts) = opts.rung_override.unwrap_or(if opts.quick {
        (37, 32, 12)
    } else {
        (131, 160, 14)
    });
    let rung = format!("gen-{seed}");
    let src = generate(seed, ladder_config(helpers, stmts));

    let store_dir = std::env::temp_dir().join(format!("usher-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cfg = ServerConfig {
        store_dir: Some(store_dir.clone()),
        ..ServerConfig::default()
    };
    let d = Dispatcher::new(&cfg)?;
    let result = run_trace(&d, &src, &rung, opts);
    let _ = std::fs::remove_dir_all(&store_dir);
    result
}

fn run_trace(
    d: &Dispatcher,
    src: &str,
    rung: &str,
    opts: &BenchOptions,
) -> Result<BenchSummary, String> {
    let mut requests = 0usize;

    // Cold analysis.
    let t = Instant::now();
    let h = d.handle_line("bench", &req_analyze(src, "cold-0"));
    let cold_seconds = t.elapsed().as_secs_f64();
    requests += 1;
    let resp = expect_ok(&h.response, "cold analyze")?;
    if resp.get("mode").and_then(Json::as_str) != Some("cold") {
        return Err("first analyze was not cold".to_string());
    }

    // Warm multi-client session open.
    let clients = opts.clients.max(1);
    let mut sessions = Vec::new();
    let mut warm_lat = Vec::new();
    for c in 0..clients {
        let t = Instant::now();
        let h = d.handle_line("bench", &req_analyze(src, &format!("open-{c}")));
        warm_lat.push(t.elapsed().as_secs_f64());
        requests += 1;
        let resp = expect_ok(&h.response, "warm analyze")?;
        if resp.get("mode").and_then(Json::as_str) != Some("warm") {
            return Err(format!("client {c} session open was not warm"));
        }
        sessions.push(resp.get("session").and_then(Json::as_u64).unwrap_or(0));
    }

    // Edit bursts, round-robin over sessions.
    let mut edit_lat = Vec::new();
    let mut incr_lat = Vec::new();
    let mut edit_incremental = 0usize;
    let mut edit_fallback = 0usize;
    let mut single_function_edits = 0usize;
    let mut structural_expected = 0usize;
    for round in 0..opts.edits_per_client {
        for (c, &sid) in sessions.iter().enumerate() {
            let edit_no = round * clients + c;
            let source = d
                .engine()
                .lock()
                .expect("engine poisoned")
                .session_source(sid)
                .ok_or_else(|| format!("session {sid} vanished"))?;
            let Some(plan) = plan_edit(&source, edit_no * 13 + c, edit_no) else {
                continue;
            };
            if plan.structural {
                structural_expected += 1;
            }
            let req = {
                let mut w = ObjWriter::new();
                w.str("op", "edit")
                    .u64("session", sid)
                    .str("func", &plan.func)
                    .str("body", &plan.body)
                    .str("id", &format!("edit-{edit_no}"));
                w.finish()
            };
            let t = Instant::now();
            let h = d.handle_line("bench", &req);
            let dt = t.elapsed().as_secs_f64();
            requests += 1;
            let resp = expect_ok(&h.response, &format!("edit {edit_no} ({})", plan.func))?;
            edit_lat.push(dt);
            if resp.get("incremental").and_then(Json::as_bool) == Some(true) {
                edit_incremental += 1;
                incr_lat.push(dt);
                if resp.get("functions_recomputed").and_then(Json::as_u64) == Some(1) {
                    single_function_edits += 1;
                }
            } else {
                edit_fallback += 1;
            }
        }
        // Interleave a warm re-analyze of the original source.
        let t = Instant::now();
        let h = d.handle_line("bench", &req_analyze(src, &format!("re-{round}")));
        warm_lat.push(t.elapsed().as_secs_f64());
        requests += 1;
        expect_ok(&h.response, "interleaved analyze")?;
    }

    // Final stats.
    let h = d.handle_line("bench", "{\"op\":\"stats\",\"id\":\"stats-final\"}");
    requests += 1;
    let stats = expect_ok(&h.response, "stats")?;
    let warm_hit_ratio = match stats.get("warm_hit_ratio") {
        Some(Json::Num(x)) => *x,
        _ => 0.0,
    };

    // Overload burst against a separate tight-queue dispatcher.
    let (burst_requests, burst_shed, burst_retries) = run_burst(src, clients)?;
    requests += burst_requests + 1;

    warm_lat.sort_by(f64::total_cmp);
    edit_lat.sort_by(f64::total_cmp);
    incr_lat.sort_by(f64::total_cmp);
    let incremental_p50 = percentile(&incr_lat, 50.0);
    let incremental_speedup = if incremental_p50 > 0.0 {
        cold_seconds / incremental_p50
    } else {
        0.0
    };
    let mut summary = BenchSummary {
        rung: rung.to_string(),
        requests,
        cold_analyze_seconds: cold_seconds,
        warm_p50: percentile(&warm_lat, 50.0),
        warm_p99: percentile(&warm_lat, 99.0),
        edit_incremental,
        edit_fallback,
        edit_p50: percentile(&edit_lat, 50.0),
        edit_p99: percentile(&edit_lat, 99.0),
        incremental_p50,
        incremental_speedup,
        warm_hit_ratio,
        single_function_edits,
        burst_requests,
        burst_shed,
        burst_retries,
        json: String::new(),
    };
    summary.json = render_json(&summary, opts);

    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{}\n", summary.json))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    // Regression gates (quick/CI mode).
    if opts.quick {
        if summary.single_function_edits == 0 {
            return Err(format!(
                "regression: no edit recomputed exactly one function \
                 ({edit_incremental} incremental, {edit_fallback} fallback)"
            ));
        }
        if structural_expected > 0 && summary.edit_fallback == 0 {
            return Err(
                "regression: structural edits never exercised the fallback path".to_string(),
            );
        }
        if summary.incremental_speedup < 1.5 {
            return Err(format!(
                "regression: incremental p50 speedup {:.2}x below 1.5x floor \
                 (cold {:.4}s, incremental p50 {:.4}s)",
                summary.incremental_speedup, summary.cold_analyze_seconds, summary.incremental_p50
            ));
        }
        if summary.burst_shed == 0 {
            return Err(format!(
                "regression: the burst phase never shed a request \
                 ({} requests through a max_queue=1 dispatcher)",
                summary.burst_requests
            ));
        }
    }
    Ok(summary)
}

fn render_json(s: &BenchSummary, opts: &BenchOptions) -> String {
    format!(
        "{{\n  \"bench\": \"serve\",\n  \"rung\": \"{}\",\n  \"clients\": {},\n  \
         \"edits_per_client\": {},\n  \"requests\": {},\n  \
         \"cold_analyze_seconds\": {:.6},\n  \"warm_analyze_p50_seconds\": {:.6},\n  \
         \"warm_analyze_p99_seconds\": {:.6},\n  \"edit_incremental_count\": {},\n  \
         \"edit_fallback_count\": {},\n  \"single_function_edit_count\": {},\n  \
         \"edit_p50_seconds\": {:.6},\n  \"edit_p99_seconds\": {:.6},\n  \
         \"incremental_p50_seconds\": {:.6},\n  \"incremental_vs_cold_speedup\": {:.2},\n  \
         \"warm_hit_ratio\": {:.4},\n  \"burst_requests\": {},\n  \"burst_shed\": {},\n  \
         \"burst_retries\": {}\n}}",
        s.rung,
        opts.clients.max(1),
        opts.edits_per_client,
        s.requests,
        s.cold_analyze_seconds,
        s.warm_p50,
        s.warm_p99,
        s.edit_incremental,
        s.edit_fallback,
        s.single_function_edits,
        s.edit_p50,
        s.edit_p99,
        s.incremental_p50,
        s.incremental_speedup,
        s.warm_hit_ratio,
        s.burst_requests,
        s.burst_shed,
        s.burst_retries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_swap_only_touches_integer_assignments() {
        assert!(const_swap("    int v1 = 42;").is_some());
        assert!(const_swap("    v2 = 7;").is_some());
        assert!(const_swap("    *q3 = 9;").is_some());
        assert_eq!(const_swap("    int v1 = b;"), None);
        assert_eq!(const_swap("    v2 = input();"), None);
        assert_eq!(const_swap("    if (x) {"), None);
        let s = const_swap("    v2 = 60;").unwrap();
        assert!(s.starts_with("    v2 = "));
        assert!(s.ends_with(';'));
        assert_ne!(s, "    v2 = 60;");
    }

    #[test]
    fn quick_trace_on_tiny_rung_passes_gates() {
        let opts = BenchOptions {
            quick: true,
            clients: 2,
            edits_per_client: 5,
            rung_override: Some((11, 8, 8)),
            ..BenchOptions::default()
        };
        let s = run_bench(&opts).expect("tiny bench passes its own gates");
        assert!(s.edit_incremental > 0);
        assert!(s.edit_fallback > 0, "structural edits must fall back");
        assert!(s.single_function_edits > 0);
        assert!(s.warm_hit_ratio > 0.0);
        assert!(s.burst_shed > 0, "tight-queue burst must shed");
        assert!(s.burst_retries >= s.burst_shed);
        let v = Json::parse(&s.json).expect("report is valid json");
        assert_eq!(
            v.get("bench").and_then(Json::as_str),
            Some("serve"),
            "{}",
            s.json
        );
        assert!(v.get("incremental_vs_cold_speedup").is_some());
    }
}
