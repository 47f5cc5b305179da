//! `serve-session`: two editor clients against an in-process serve
//! [`Dispatcher`].
//!
//! Each client is closed-loop (it waits for every reply) and talks to
//! `Dispatcher::handle_line`. The engine runs one worker thread; the disk
//! store and the session WAL live in a scratch directory of the checkout
//! with their defaults on. Programs have the shape of the
//! `usher serve-bench` rung gen-131 (160 helpers, about 1.3 MB), so a cold
//! open here is the cold open that bench reports, and edits follow that
//! bench's mix: one declaration insert in five edits, the rest const
//! swaps, with warm re-opens of the original source beside them.
//!
//! A run is a series of server lifetimes. In each, a fresh dispatcher over
//! a fresh store serves both clients; each client opens an unseen
//! generated program cold (its session) and plays editing rounds. One
//! round is one operation:
//!
//! * one edit of a random helper: every fifth a declaration insert (the
//!   fallback write path), otherwise a const swap (the incremental write
//!   path);
//! * 3 `query-use`, each on one of the session's 2 focus checks (the
//!   reads; repeats between edits are answered from the demand memo);
//! * after a declaration insert, a warm re-open of the session's original
//!   source (closed again).
//!
//! A round's latency is the time its requests took, lock waits included.
//! After its rounds the client asks for the session's full plan (untimed)
//! and closes it; once the run ends, every such plan must equal a cold
//! driver run over the source the client believed it was editing.
//!
//! The engine's memory tier keeps every full analysis it computes (about
//! 70 MB each at this program size) and has no cap, so one long-lived
//! dispatcher would hold gigabytes by the end of a run. Short lifetimes
//! bound peak memory by one lifetime's analyses, and a fixed number of
//! them, rather than running for `--seconds`, keeps it independent of
//! host speed.
//!
//! The traced run sends a seeded half of the requests through a
//! re-enactment of `handle_line` built from serve's public pieces
//! (`Json::parse`, `Dispatcher::engine`, the `Engine` methods and
//! `ObjWriter`), with a span around each; the other half go through
//! `handle_line`. The difference between the halves is the tracing
//! overhead and the unattributed residual.

use std::path::{Path, PathBuf};
use std::sync::{Barrier, PoisonError};
use std::time::Instant;

use usher_core::Config;
use usher_driver::{plan_fingerprint, Pipeline, PipelineOptions};
use usher_serve::engine::RequestError;
use usher_serve::json::ObjWriter;
use usher_serve::{Dispatcher, Json, ServerConfig};
use usher_workloads::{generate, ladder_config, Rng};

use crate::stats::{mean, median, mix, ms_since, percentile, Outcome, SetupTimes, Spans};
use crate::{alloc, layers, Args};

/// The timed request classes, in the order of the per-class metric names
/// (`NAMES`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    OpenCold,
    OpenWarm,
    EditBody,
    EditDecl,
    QueryUse,
}

/// Server lifetimes per run.
const LIFETIMES: usize = 6;

/// Editing rounds per client and lifetime: 120 rounds a run, so
/// `op_p90_ms` has twelve samples beyond it. A lifetime then holds six
/// full analyses (two cold opens, four declaration inserts), and a run
/// lasts 45-60 s on a 2-vCPU host.
const ROUNDS: usize = 10;

/// One edit in this many is a declaration insert, as in serve-bench.
const STRUCTURAL_EVERY: usize = 5;

/// `query-use` reads after each edit.
const QUERIES: usize = 3;

/// Checks a session's reads pick from: an editor asks about the few uses
/// near the cursor, and repeats between edits are what the demand memo
/// serves.
const FOCUS: usize = 2;

/// Generated programs' shape `(helpers, max_stmts)`: the serve-bench rung's.
const PROGRAM: (usize, usize) = (160, 14);

const CLIENTS: usize = 2;

/// Sessions whose final source the traced run re-analyzes layer by layer.
const LAYERED: usize = 6;

/// Where each lifetime's store and WAL live, inside the checkout.
const SCRATCH: &str = ".perfbench_tmp";

/// Per-class sample lists of one client (or of both, merged).
#[derive(Default)]
struct Record {
    /// Untraced request latencies (around `handle_line`), per class.
    wall: [Vec<f64>; 5],
    /// Traced request latencies (around the re-enactment), per class.
    traced: [Vec<f64>; 5],
    /// Traced components per class: decode, lock wait, engine, encode.
    parts: [[Vec<f64>; 4]; 5],
    body_edits: usize,
    body_incremental: usize,
    queries: usize,
    memo_hits: usize,
    visited: Vec<f64>,
    fallback_reasons: Vec<String>,
    /// Round latencies (ms): the sum of their requests' latencies.
    rounds: Vec<f64>,
    /// Served plan fingerprint and client-side source of every session,
    /// checked against cold driver runs after the run.
    served: Vec<(Option<String>, String)>,
    outcome: Outcome,
}

impl Record {
    fn merge(&mut self, o: Record) {
        for c in 0..5 {
            self.wall[c].extend(&o.wall[c]);
            self.traced[c].extend(&o.traced[c]);
            for p in 0..4 {
                self.parts[c][p].extend(&o.parts[c][p]);
            }
        }
        self.body_edits += o.body_edits;
        self.body_incremental += o.body_incremental;
        self.queries += o.queries;
        self.memo_hits += o.memo_hits;
        self.visited.extend(o.visited);
        self.fallback_reasons.extend(o.fallback_reasons);
        self.rounds.extend(o.rounds);
        self.served.extend(o.served);
        self.outcome.attempted += o.outcome.attempted;
        self.outcome.failed += o.outcome.failed;
        self.outcome.errors.extend(o.outcome.errors);
    }
}

/// One client's editor state: its session, the source it opened the
/// session with, and the buffer it believes the session holds.
struct Client {
    id: usize,
    session: u64,
    original: String,
    lines: Vec<String>,
    /// Checks in the session (0 until a `query-use` reported it).
    checks: u64,
    /// The session's focus checks (empty until `checks` is known).
    focus: Vec<usize>,
    edits: usize,
    rng: Rng,
    /// Whether this is a traced run, and the coin that decides which of
    /// its requests are traced.
    trace: bool,
    coin: Rng,
}

/// `def` spans as `(name, start, end)` line ranges, by the same brace
/// scan the engine uses to splice edits.
fn spans(lines: &[String]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut open: Option<(String, usize)> = None;
    let mut opened_brace = false;
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.split("//").next().unwrap_or("");
        if depth == 0 && open.is_none() {
            if let Some(rest) = line.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    open = Some((name, i));
                    opened_brace = false;
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened_brace = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && opened_brace {
            if let Some((name, start)) = open.take() {
                out.push((name, start, i + 1));
            }
            opened_brace = false;
        }
    }
    out
}

/// Rewrites `<lhs> = <int>;` to another constant: an edit that leaves the
/// points-to structure alone.
fn const_swap(line: &str) -> Option<String> {
    let eq = line.rfind(" = ")?;
    let digits = line[eq + 3..].trim_end().strip_suffix(';')?;
    let n: u64 = digits.parse().ok()?;
    Some(format!("{} = {};", &line[..eq], (n + 7) % 97 + 1))
}

fn request(op: &str, f: impl FnOnce(&mut ObjWriter)) -> String {
    let mut w = ObjWriter::new();
    w.str("op", op);
    f(&mut w);
    w.finish()
}

/// Encodes an engine refusal as `handle_line` does.
fn refuse(w: &mut ObjWriter, e: &RequestError) {
    w.bool("ok", false)
        .str("error_kind", e.kind)
        .str("error", &e.detail);
}

/// `handle_line` re-enacted from serve's public pieces with a span around
/// each: decode, engine-lock wait, the engine call and response encode.
/// Returns the response line and the four span times (ms).
fn traced_request(d: &Dispatcher, line: &str) -> (String, [f64; 4]) {
    let t = Instant::now();
    let req = Json::parse(line).expect("the benchmark sends valid JSON");
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let sid = req.get("session").and_then(Json::as_u64).unwrap_or(0);
    let rid = req
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let decode = ms_since(t);

    let t = Instant::now();
    let mut engine = d.engine().lock().unwrap_or_else(PoisonError::into_inner);
    let lock = ms_since(t);

    let mut w = ObjWriter::new();
    let (engine_ms, encode_ms);
    match op.as_str() {
        "analyze" => {
            let src = req.get("source").and_then(Json::as_str).unwrap_or("");
            let t = Instant::now();
            let res = engine.analyze_within(src, None);
            engine_ms = ms_since(t);
            let t = Instant::now();
            match res {
                Ok(mut out) => {
                    out.report.request_id = Some(rid.clone());
                    out.report.session_id = Some(out.session_id);
                    std::hint::black_box(out.report.to_json_line());
                    w.bool("ok", true)
                        .str("op", "analyze")
                        .str("id", &rid)
                        .u64("session", out.session_id)
                        .str("mode", out.mode)
                        .u64("functions_total", out.functions_total as u64)
                        .f64("seconds", out.seconds)
                        .u64("cache_hits", out.report.cache_hits as u64)
                        .u64("cache_misses", out.report.cache_misses as u64);
                }
                Err(e) => refuse(&mut w, &e),
            }
            encode_ms = ms_since(t);
        }
        "edit" => {
            let func = req.get("func").and_then(Json::as_str).unwrap_or("");
            let body = req.get("body").and_then(Json::as_str).unwrap_or("");
            let t = Instant::now();
            let res = engine.edit_within(sid, func, body, None);
            engine_ms = ms_since(t);
            let t = Instant::now();
            match res {
                Ok(mut out) => {
                    out.report.request_id = Some(rid.clone());
                    out.report.session_id = Some(sid);
                    std::hint::black_box(out.report.to_json_line());
                    w.bool("ok", true)
                        .str("op", "edit")
                        .str("id", &rid)
                        .u64("session", sid)
                        .bool("incremental", out.incremental)
                        .u64("functions_recomputed", out.functions_recomputed as u64)
                        .f64("seconds", out.seconds);
                    if let Some(reason) = out.fallback_reason {
                        w.str("fallback_reason", reason);
                    }
                }
                Err(e) => refuse(&mut w, &e),
            }
            encode_ms = ms_since(t);
        }
        _ => {
            let check = req.get("check").and_then(Json::as_u64).unwrap_or(0) as usize;
            let t = Instant::now();
            let res = engine.query_use_within(sid, check, None);
            engine_ms = ms_since(t);
            let t = Instant::now();
            match res {
                Ok(q) => {
                    w.bool("ok", true)
                        .str("op", "query-use")
                        .str("id", &rid)
                        .u64("session", sid)
                        .u64("check", q.check_index as u64)
                        .u64("node", u64::from(q.node))
                        .str("check_kind", &q.check_kind)
                        .bool("maybe_undef", q.maybe_undef)
                        .bool("complete", q.complete)
                        .bool("memo_hit", q.memo_hit)
                        .u64("nodes_visited", q.nodes_visited as u64)
                        .u64("refinements", q.refinements as u64)
                        .u64("checks_total", q.checks_total as u64)
                        .u64("epoch", q.epoch)
                        .f64("seconds", q.seconds);
                }
                Err(e) => refuse(&mut w, &e),
            }
            encode_ms = ms_since(t);
        }
    }
    let t = Instant::now();
    let line = w.finish();
    drop(engine);
    (line, [decode, lock, engine_ms, encode_ms + ms_since(t)])
}

/// Sends one timed request of `class`, through `handle_line` or, when
/// `traced`, through the re-enactment, and adds its latency to
/// `round_ms`. Returns the parsed response when it was `ok`; anything
/// else is a failed operation.
fn send(
    d: &Dispatcher,
    line: &str,
    class: Class,
    traced: bool,
    rec: &mut Record,
    round_ms: &mut f64,
) -> Option<Json> {
    let c = class as usize;
    let t = Instant::now();
    let response = if traced {
        let (resp, parts) = traced_request(d, line);
        for (p, v) in parts.into_iter().enumerate() {
            rec.parts[c][p].push(v);
        }
        resp
    } else {
        d.handle_line("bench", line).response
    };
    let wall = ms_since(t);
    if traced {
        rec.traced[c].push(wall);
    } else {
        rec.wall[c].push(wall);
    }
    *round_ms += wall;
    let resp = Json::parse(&response).ok();
    let ok = resp
        .as_ref()
        .is_some_and(|r| r.get("ok").and_then(Json::as_bool) == Some(true));
    rec.outcome
        .check(ok, || format!("{class:?} failed: {response}"));
    resp.filter(|_| ok)
}

/// An untimed `close`, checked like any other request.
fn close(d: &Dispatcher, sid: u64, out: &mut Outcome) {
    let line = request("close", |w| {
        w.u64("session", sid);
    });
    let h = d.handle_line("bench", &line);
    out.check(h.response.contains("\"ok\":true"), || {
        format!("close failed: {}", h.response)
    });
}

/// The session's full plan fingerprint, asked for untimed.
fn served_plan(d: &Dispatcher, sid: u64) -> Option<String> {
    let line = request("query", |w| {
        w.u64("session", sid).bool("full", true);
    });
    let resp = Json::parse(&d.handle_line("bench", &line).response).ok()?;
    resp.get("plan_fingerprint")
        .and_then(Json::as_str)
        .map(String::from)
}

impl Client {
    fn new(args: &Args, id: usize) -> Client {
        Client {
            id,
            session: 0,
            original: String::new(),
            lines: Vec::new(),
            checks: 0,
            focus: Vec::new(),
            // Offsets the clients' declaration inserts, so that one
            // client's structural edit waits on the other's body edit
            // rather than, by turns, on its structural edit.
            edits: 2 * id,
            rng: Rng::new(mix(args.seed, 10 + id as u64)),
            trace: args.trace,
            coin: Rng::new(mix(args.seed, 20 + id as u64)),
        }
    }

    /// Builds a body edit (`decl == false`: one constant swapped) or a
    /// declaration insert for a random helper: `(func, new body, span)`.
    fn plan_edit(&mut self, decl: bool) -> Option<(String, String, (usize, usize))> {
        let helpers: Vec<_> = spans(&self.lines)
            .into_iter()
            .filter(|(name, s, e)| name.starts_with("helper") && e - s >= 3)
            .collect();
        if helpers.is_empty() {
            return None;
        }
        let pick = self.rng.below(helpers.len());
        for off in 0..helpers.len() {
            let (name, s, e) = &helpers[(pick + off) % helpers.len()];
            let mut body: Vec<String> = self.lines[*s..*e].to_vec();
            if decl {
                body.insert(1, format!("    int perf_decl{} = 7;", self.edits));
            } else {
                let Some(j) = (1..body.len()).find(|&j| const_swap(&body[j]).is_some()) else {
                    continue;
                };
                body[j] = const_swap(&body[j]).expect("found above");
            }
            return Some((name.clone(), body.join("\n"), (*s, *e)));
        }
        None
    }

    /// Sends a timed `analyze` of `src` that must answer `mode`; returns
    /// the new session.
    fn open(
        &mut self,
        d: &Dispatcher,
        src: &str,
        class: Class,
        rec: &mut Record,
        ms: &mut f64,
    ) -> Option<u64> {
        let line = request("analyze", |w| {
            w.str("source", src);
        });
        let traced = self.coin_flip();
        let resp = send(d, &line, class, traced, rec, ms)?;
        let want = if class == Class::OpenCold {
            "cold"
        } else {
            "warm"
        };
        let mode = resp.get("mode").and_then(Json::as_str).unwrap_or("");
        rec.outcome
            .check(mode == want, || format!("{class:?} answered mode {mode:?}"));
        resp.get("session").and_then(Json::as_u64)
    }

    fn coin_flip(&mut self) -> bool {
        self.trace && self.coin.next_u64().is_multiple_of(2)
    }

    /// A timed `query-use` on one of the session's focus checks.
    fn query(&mut self, d: &Dispatcher, rec: &mut Record, ms: &mut f64) {
        if self.focus.is_empty() && self.checks > 0 {
            let checks = self.checks as usize;
            self.focus = (0..FOCUS).map(|_| self.rng.below(checks)).collect();
        }
        let check = if self.focus.is_empty() {
            0
        } else {
            self.focus[self.rng.below(self.focus.len())]
        };
        let line = request("query-use", |w| {
            w.u64("session", self.session).u64("check", check as u64);
        });
        let traced = self.coin_flip();
        if let Some(r) = send(d, &line, Class::QueryUse, traced, rec, ms) {
            rec.queries += 1;
            if r.get("memo_hit").and_then(Json::as_bool) == Some(true) {
                rec.memo_hits += 1;
            } else if let Some(v) = r.get("nodes_visited").and_then(Json::as_u64) {
                rec.visited.push(v as f64);
            }
            self.checks = r.get("checks_total").and_then(Json::as_u64).unwrap_or(0);
        }
    }

    /// A timed edit of a random helper; on success the client's buffer
    /// takes the same edit.
    fn edit(&mut self, d: &Dispatcher, decl: bool, rec: &mut Record, ms: &mut f64) {
        let Some((func, body, (s, e))) = self.plan_edit(decl) else {
            rec.outcome
                .check(false, || format!("client {}: no helper to edit", self.id));
            return;
        };
        let line = request("edit", |w| {
            w.u64("session", self.session)
                .str("func", &func)
                .str("body", &body);
        });
        let class = if decl {
            Class::EditDecl
        } else {
            Class::EditBody
        };
        let traced = self.coin_flip();
        if let Some(r) = send(d, &line, class, traced, rec, ms) {
            self.lines.splice(s..e, body.lines().map(String::from));
            if !decl {
                rec.body_edits += 1;
                rec.body_incremental +=
                    usize::from(r.get("incremental").and_then(Json::as_bool) == Some(true));
            }
            if let Some(reason) = r.get("fallback_reason").and_then(Json::as_str) {
                rec.fallback_reasons.push(reason.to_string());
            }
        }
    }

    /// One round, the operation: an edit, the reads after it and, after
    /// a declaration insert, a warm re-open of the original source.
    fn round(&mut self, d: &Dispatcher, rec: &mut Record) {
        let mut ms = 0.0;
        self.edits += 1;
        let decl = self.edits.is_multiple_of(STRUCTURAL_EVERY);
        self.edit(d, decl, rec, &mut ms);
        for _ in 0..QUERIES {
            self.query(d, rec, &mut ms);
        }
        if decl {
            let src = std::mem::take(&mut self.original);
            if let Some(sid) = self.open(d, &src, Class::OpenWarm, rec, &mut ms) {
                close(d, sid, &mut rec.outcome);
            }
            self.original = src;
        }
        rec.rounds.push(ms);
    }

    /// The client's part of one lifetime: a cold open of `src` (timed,
    /// but not part of a round), its rounds, then the untimed plan query
    /// and close.
    fn lifetime(
        &mut self,
        d: &Dispatcher,
        src: &str,
        rounds: usize,
        opened: &Barrier,
        rec: &mut Record,
    ) {
        let mut cold_ms = 0.0;
        let sid = self.open(d, src, Class::OpenCold, rec, &mut cold_ms);
        // Rounds start once both sessions are open, so no round waits on
        // the other client's cold open.
        opened.wait();
        let Some(sid) = sid else {
            return;
        };
        self.session = sid;
        self.original = src.to_string();
        self.lines = src.lines().map(String::from).collect();
        self.checks = 0;
        self.focus.clear();
        for _ in 0..rounds {
            self.round(d, rec);
        }
        rec.served
            .push((served_plan(d, sid), self.lines.join("\n")));
        close(d, sid, &mut rec.outcome);
    }
}

/// A dispatcher over a fresh store directory.
fn open_dispatcher(dir: &Path, out: &mut Outcome) -> Option<Dispatcher> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        store_dir: Some(dir.to_path_buf()),
        threads: 1,
        ..ServerConfig::default()
    };
    Dispatcher::new(&cfg)
        .map_err(|e| out.check(false, || format!("dispatcher: {e}")))
        .ok()
}

/// Generates one unseen program per client and lifetime, opens the first
/// lifetime's dispatcher and warms it up with one untimed cold open of
/// one more program.
fn set_up(args: &Args, dir: &Path, out: &mut Outcome) -> Option<(Dispatcher, Vec<String>)> {
    let (helpers, stmts) = if args.tiny { (6, 8) } else { PROGRAM };
    let lifetimes = if args.tiny { 1 } else { LIFETIMES };
    let mut rng = Rng::new(mix(args.seed, 5));
    let mut programs: Vec<String> = (0..CLIENTS * lifetimes + 1)
        .map(|_| generate(rng.next_u64(), ladder_config(helpers, stmts)))
        .collect();
    let d = open_dispatcher(dir, out)?;
    let warm_up = programs.pop().expect("a warm-up program");
    let line = request("analyze", |w| {
        w.str("source", &warm_up);
    });
    let sid = Json::parse(&d.handle_line("bench", &line).response)
        .ok()
        .and_then(|r| r.get("session").and_then(Json::as_u64));
    out.check(sid.is_some(), || "warm-up open failed".to_string());
    close(&d, sid?, out);
    Some((d, programs))
}

fn scratch_dir(i: usize) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!("serve-{}-{i}", std::process::id()))
}

/// Store and WAL counters of the lifetimes (traced runs).
#[derive(Default)]
struct StoreCounts {
    warm_hit_ratio: Vec<f64>,
    writes: f64,
    bytes: f64,
    wal_appends: f64,
}

impl StoreCounts {
    /// Adds the counters of a lifetime that has ended its requests.
    fn add(&mut self, d: &Dispatcher, dir: &Path) {
        let stats = Json::parse(&d.handle_line("bench", "{\"op\":\"stats\"}").response).ok();
        let num = |k: &str| -> f64 {
            match stats.as_ref().and_then(|s| s.get(k)) {
                Some(Json::Num(x)) => *x,
                _ => 0.0,
            }
        };
        self.warm_hit_ratio.push(num("warm_hit_ratio"));
        self.writes += num("disk_writes");
        self.bytes += num("disk_bytes");
        d.flush_wal();
        let appends =
            std::fs::read_to_string(dir.join("sessions.wal")).map_or(0, |s| s.lines().count());
        self.wal_appends += appends as f64;
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut rec = Record::default();
    // One set-up serves the run; the rest are timed after it.
    let mut setups = SetupTimes::default();
    let Some((first, programs)) = setups.time(|| set_up(args, &scratch_dir(0), &mut rec.outcome))
    else {
        let _ = std::fs::remove_dir_all(SCRATCH);
        return rec.outcome;
    };

    let rounds = if args.tiny { STRUCTURAL_EVERY } else { ROUNDS };
    let mut clients: Vec<Client> = (0..CLIENTS).map(|id| Client::new(args, id)).collect();
    let mut store = StoreCounts::default();
    let mut next = Some(first);
    let mut wall = 0.0;
    for (life, sources) in programs.chunks(CLIENTS).enumerate() {
        let dir = scratch_dir(life);
        let Some(d) = next
            .take()
            .or_else(|| open_dispatcher(&dir, &mut rec.outcome))
        else {
            break;
        };
        let opened = Barrier::new(CLIENTS);
        let t = Instant::now();
        let records: Vec<Record> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(sources)
                .map(|(c, src)| {
                    let (d, opened) = (&d, &opened);
                    s.spawn(move || {
                        let mut rec = Record::default();
                        c.lifetime(d, src, rounds, opened, &mut rec);
                        rec
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        wall += t.elapsed().as_secs_f64();
        for r in records {
            rec.merge(r);
        }
        if args.trace {
            store.add(&d, &dir);
        }
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }
    drop(programs);

    let mut out = std::mem::take(&mut rec.outcome);
    out.set("op_p50_ms", median(&rec.rounds));
    out.set("op_p90_ms", percentile(&rec.rounds, 90.0));
    out.set("ops_per_s", rec.rounds.len() as f64 / wall.max(1e-9));
    if args.trace {
        report_traced(&rec, &store, &mut out);
    }
    for i in 1..=setups.missing() {
        let dir = scratch_dir(LIFETIMES + i);
        drop(setups.time(|| set_up(args, &dir, &mut out)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.set("setup_s", setups.median());
    let _ = std::fs::remove_dir_all(SCRATCH);

    // Every session's plan must equal a cold driver run over the source
    // the client believed it was editing.
    for (served, src) in &rec.served {
        let cold = Pipeline::new()
            .without_cache()
            .run_source("oracle", src, PipelineOptions::from_config(Config::USHER))
            .map(|r| plan_fingerprint(&r.plan));
        out.check(
            served.is_some() && served.as_deref() == cold.as_deref().ok(),
            || "a session's plan differs from a cold run of its source".to_string(),
        );
    }
    eprintln!(
        "perfbench: serve-session: {} rounds in {wall:.1}s, p50 {:.1} ms",
        rec.rounds.len(),
        median(&rec.rounds)
    );
    out
}

const NAMES: [(&str, &str, &str); 5] = [
    (
        "serve.open_cold_p50_ms",
        "serve.engine.open_cold_ms",
        "serve.unattributed_ms.open_cold",
    ),
    (
        "serve.open_warm_p50_ms",
        "serve.engine.open_warm_ms",
        "serve.unattributed_ms.open_warm",
    ),
    (
        "serve.edit_body_p50_ms",
        "serve.engine.edit_body_ms",
        "serve.unattributed_ms.edit_body",
    ),
    (
        "serve.edit_decl_p50_ms",
        "serve.engine.edit_decl_ms",
        "serve.unattributed_ms.edit_decl",
    ),
    (
        "serve.query_use_p50_ms",
        "serve.engine.query_use_ms",
        "serve.unattributed_ms.query_use",
    ),
];

fn report_traced(rec: &Record, store: &StoreCounts, out: &mut Outcome) {
    let (mut traced_sum, mut untraced_sum) = (0.0, 0.0);
    for (c, (p50, engine, unattributed)) in NAMES.into_iter().enumerate() {
        let parts: Vec<f64> = rec.parts[c].iter().map(|v| mean(v)).collect();
        out.set(p50, median(&rec.wall[c]));
        out.set(engine, parts[2]);
        out.set(unattributed, mean(&rec.wall[c]) - parts.iter().sum::<f64>());
        let n = (rec.wall[c].len() + rec.traced[c].len()) as f64;
        traced_sum += n * mean(&rec.traced[c]);
        untraced_sum += n * mean(&rec.wall[c]);
    }
    out.set(
        "serve.edit_body_p90_ms",
        percentile(&rec.wall[Class::EditBody as usize], 90.0),
    );
    let all_parts = |p: usize| -> Vec<f64> {
        rec.parts
            .iter()
            .flat_map(|c| c[p].iter().copied())
            .collect()
    };
    out.set("serve.decode_ms", mean(&all_parts(0)));
    out.set("serve.lock_wait_ms", mean(&all_parts(1)));
    out.set("serve.encode_ms", mean(&all_parts(3)));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_sum - untraced_sum) / untraced_sum.max(1e-9),
    );
    out.set(
        "serve.incremental_ratio",
        rec.body_incremental as f64 / rec.body_edits.max(1) as f64,
    );
    out.set(
        "serve.demand_memo_hit_ratio",
        rec.memo_hits as f64 / rec.queries.max(1) as f64,
    );
    out.set("vfg.demand_nodes_visited_p50", median(&rec.visited));
    for (reason, name) in FALLBACK_REASONS {
        let n = rec.fallback_reasons.iter().filter(|r| *r == reason).count();
        out.set(name, n as f64);
    }
    let listed = |r: &String| FALLBACK_REASONS.iter().any(|(known, _)| r == known);
    let other = rec.fallback_reasons.iter().filter(|r| !listed(r)).count();
    out.set("serve.fallback_reason.other", other as f64);

    out.set("serve.warm_hit_ratio", mean(&store.warm_hit_ratio));
    out.set("serve.store_writes", store.writes);
    out.set("serve.store_bytes", store.bytes);
    out.set("serve.wal_appends", store.wal_appends);

    // The analysis layers on the first few sessions' final sources, out
    // of band, at the engine's one thread.
    let mut spans = Spans::default();
    for (_, src) in rec.served.iter().take(LAYERED) {
        alloc::enable(true);
        let ok = layers::traced_usher(src, 1, &mut spans).is_ok();
        alloc::enable(false);
        out.check(ok, || {
            "layer-by-layer analysis of a session's source failed".to_string()
        });
    }
    layers::report_layers(&spans, out);
}

/// Edit fallback reasons the engine reports, with their metric names.
const FALLBACK_REASONS: [(&str, &str); 7] = [
    (
        "object-count-changed",
        "serve.fallback_reason.object-count-changed",
    ),
    ("inline-involved", "serve.fallback_reason.inline-involved"),
    ("inline-target", "serve.fallback_reason.inline-target"),
    (
        "calls-inline-target",
        "serve.fallback_reason.calls-inline-target",
    ),
    (
        "pointer-structure-changed",
        "serve.fallback_reason.pointer-structure-changed",
    ),
    (
        "signature-changed",
        "serve.fallback_reason.signature-changed",
    ),
    ("new-types", "serve.fallback_reason.new-types"),
];
