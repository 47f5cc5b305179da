//! The `usher serve` front door: a JSON-lines request loop over stdin
//! and, optionally, a Unix domain socket serving many concurrent
//! clients.
//!
//! ## Protocol
//!
//! One request per line, one response per line, always a JSON object.
//! Requests carry an `op` plus op-specific fields and an optional client
//! `id` echoed back verbatim:
//!
//! ```text
//! {"op":"analyze","source":"def main() { ... }","id":"r1"}
//! {"op":"edit","session":1,"func":"helper0","body":"def helper0(...) { ... }"}
//! {"op":"query","session":1,"full":true}
//! {"op":"query-use","session":1,"check":0}
//! {"op":"stats"}
//! {"op":"close","session":1}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":"..."}`; a
//! malformed line never kills the server. Session-level failures of
//! `query`/`query-use` (unknown session, warm session, degraded
//! session, bad check index) additionally carry a stable
//! `"error_kind"` so clients can react without parsing prose. Analysis requests additionally
//! emit one driver telemetry line ([`PipelineReport`]) on stderr with
//! `request_id` and `session_id` filled, so interleaved concurrent-client
//! records in one stream stay attributable.
//!
//! ## Overload and deadlines
//!
//! Heavy requests (`analyze`, `edit`, `query`, `query-use`) pass an
//! admission gate: at most `max_queue` may be in flight or waiting on
//! the engine at once. Excess requests are shed immediately with
//! `error_kind: "overloaded"` and a deterministic `retry_after_ms`
//! backoff hint instead of queueing unboundedly. Any request may carry
//! `deadline_ms`; analysis aborts cleanly at the next stage boundary
//! (`error_kind: "deadline-expired"`, engine state unchanged) and
//! demand queries degrade to a sound incomplete verdict. `stats`,
//! `close` and `shutdown` are always admitted so operators keep
//! visibility under load.
//!
//! ## Shutdown and crash safety
//!
//! `shutdown` (or stdin EOF) drains: new heavy requests are refused with
//! `error_kind: "shutting-down"`, in-flight requests finish (bounded by
//! `drain_timeout_ms`), the session WAL is fsynced, then client threads
//! are joined. A SIGKILL instead of a drain loses nothing durable: the
//! WAL is fsynced per append and replayed on the next startup.
//!
//! ## Concurrency
//!
//! All clients multiplex onto one [`Engine`] behind a mutex; the heavy
//! per-function stages inside the engine fan out over the driver thread
//! pool, so serialization at the request level costs little and keeps
//! cross-session cache interaction trivially sound. The stdin loop runs
//! on the caller's thread; the socket listener accepts in the background
//! with at most `max_clients` live client threads. A client
//! disconnecting mid-request (torn frame, broken pipe) tears down only
//! its own connection thread — counted, never fatal, and a panic inside
//! a request handler is contained to an `"internal-panic"` error
//! response.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use usher_driver::{PipelineReport, ServeHealth};

use crate::engine::{Engine, EngineConfig, RequestError};
use crate::faultio::FaultIo;
use crate::json::{Json, ObjWriter};

/// Server construction options (the `usher serve` flag set).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix socket path to listen on, in addition to stdin.
    pub socket: Option<PathBuf>,
    /// On-disk store directory (`--store-dir`); `None` keeps the cache
    /// memory-only.
    pub store_dir: Option<PathBuf>,
    /// Disk-store size cap in bytes (`--store-cap-bytes`, 0 = uncapped).
    pub store_cap_bytes: u64,
    /// Maximum concurrent socket clients (`--max-clients`).
    pub max_clients: usize,
    /// Worker threads for parallel stages (`--threads`).
    pub threads: usize,
    /// `false` bypasses both cache tiers (`--no-cache`).
    pub use_cache: bool,
    /// Maximum heavy requests in flight before shedding (`--max-queue`).
    pub max_queue: usize,
    /// How long graceful shutdown waits for in-flight requests
    /// (`--drain-timeout-ms`).
    pub drain_timeout_ms: u64,
    /// Explicit session WAL path (`--wal`); `None` defaults to
    /// `sessions.wal` inside the store directory when one exists.
    pub wal_path: Option<PathBuf>,
    /// `false` disables the session WAL entirely (`--no-wal`).
    pub wal_enabled: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let e = EngineConfig::default();
        ServerConfig {
            socket: None,
            store_dir: None,
            store_cap_bytes: e.store_cap_bytes,
            max_clients: 8,
            threads: e.threads,
            use_cache: true,
            max_queue: 32,
            drain_timeout_ms: 2000,
            wal_path: None,
            wal_enabled: true,
        }
    }
}

/// Outcome of handling one request line.
pub struct Handled {
    /// The JSON response line (no trailing newline).
    pub response: String,
    /// A telemetry line for stderr, when the request ran analysis.
    pub telemetry: Option<String>,
    /// Whether the request asked the server to shut down.
    pub shutdown: bool,
}

/// Shared request dispatcher: every transport (stdin, socket, tests)
/// funnels through here.
pub struct Dispatcher {
    engine: Mutex<Engine>,
    seq: AtomicU64,
    start: Instant,
    max_queue: usize,
    inflight: AtomicUsize,
    draining: AtomicBool,
    requests_shed: AtomicU64,
    connections_torn: AtomicU64,
}

/// RAII in-flight slot: decrements the admission counter however the
/// request exits (including by panic).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn err_response(id: &str, op: &str, msg: &str) -> String {
    let mut w = ObjWriter::new();
    w.bool("ok", false).str("op", op).str("error", msg);
    if !id.is_empty() {
        w.str("id", id);
    }
    w.finish()
}

/// A structured engine failure: same shape as [`err_response`] plus the
/// machine-readable `error_kind`.
fn err_structured(id: &str, op: &str, e: &RequestError) -> String {
    let mut w = ObjWriter::new();
    w.bool("ok", false)
        .str("op", op)
        .str("error_kind", e.kind)
        .str("error", &e.detail);
    if !id.is_empty() {
        w.str("id", id);
    }
    w.finish()
}

/// The load-shedding refusal: `"overloaded"` plus a deterministic
/// backoff hint scaled by how far past capacity the queue is.
fn err_overloaded(id: &str, op: &str, retry_after_ms: u64) -> String {
    let mut w = ObjWriter::new();
    w.bool("ok", false)
        .str("op", op)
        .str("error_kind", "overloaded")
        .str("error", "server overloaded, retry later")
        .u64("retry_after_ms", retry_after_ms);
    if !id.is_empty() {
        w.str("id", id);
    }
    w.finish()
}

fn stamp(report: &mut PipelineReport, rid: &str, sid: Option<u64>) -> String {
    report.request_id = Some(rid.to_string());
    report.session_id = sid;
    report.to_json_line()
}

impl Dispatcher {
    /// Builds the dispatcher and its engine, replaying any session WAL
    /// found next to the store.
    ///
    /// # Errors
    ///
    /// Fails when the engine cannot open its disk store.
    pub fn new(cfg: &ServerConfig) -> Result<Dispatcher, String> {
        let engine = Engine::new(EngineConfig {
            store_dir: cfg.store_dir.clone(),
            store_cap_bytes: cfg.store_cap_bytes,
            threads: cfg.threads,
            use_cache: cfg.use_cache,
            wal_path: cfg.wal_path.clone(),
            wal_enabled: cfg.wal_enabled,
            io: FaultIo::none(),
        })?;
        Ok(Dispatcher {
            engine: Mutex::new(engine),
            seq: AtomicU64::new(1),
            start: Instant::now(),
            max_queue: cfg.max_queue,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            requests_shed: AtomicU64::new(0),
            connections_torn: AtomicU64::new(0),
        })
    }

    /// Direct engine access, for tests that read engine state behind the
    /// protocol (session sources, counters).
    pub fn engine(&self) -> &Mutex<Engine> {
        &self.engine
    }

    /// Locks the engine, recovering from mutex poisoning: a contained
    /// panic in one request must not wedge every later request. The
    /// engine's own error paths leave sessions unchanged, so the value
    /// behind a poisoned lock is still consistent.
    fn engine_lock(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Switches to drain mode: heavy requests are refused with
    /// `error_kind: "shutting-down"` while in-flight ones finish.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Heavy requests currently admitted (in flight or waiting on the
    /// engine lock).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Connections torn down mid-request so far (client vanished with a
    /// partial frame, broken pipe on response write, read error).
    pub fn connections_torn(&self) -> u64 {
        self.connections_torn.load(Ordering::SeqCst)
    }

    /// Records one torn connection (called by transport loops).
    fn note_torn(&self) {
        self.connections_torn.fetch_add(1, Ordering::SeqCst);
    }

    /// Records one shed request and returns its deterministic backoff
    /// hint: 50ms per request past capacity, capped at 1s.
    fn shed(&self, depth: usize) -> u64 {
        self.requests_shed.fetch_add(1, Ordering::SeqCst);
        (((depth + 1).saturating_sub(self.max_queue)).max(1) as u64 * 50).min(1000)
    }

    /// Fsyncs the session WAL (the last durability step of a graceful
    /// shutdown).
    pub fn flush_wal(&self) {
        self.engine_lock().flush_wal();
    }

    fn health(&self, engine: &Engine) -> ServeHealth {
        let st = engine.stats();
        ServeHealth {
            uptime_seconds: self.start.elapsed().as_secs_f64(),
            sessions_recovered: st.sessions_recovered,
            wal_records_dropped: st.wal_records_dropped,
            requests_shed: self.requests_shed.load(Ordering::SeqCst),
            deadline_expired: st.counters.deadline_expired,
        }
    }

    /// Handles one raw request line from `origin` (a transport tag like
    /// `stdin` or `sock-3`, used to synthesize request ids for requests
    /// that carry none). Never panics on malformed input — a panic that
    /// escapes an op handler is contained into an `"internal-panic"`
    /// error response.
    pub fn handle_line(&self, origin: &str, line: &str) -> Handled {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Handled {
                response: String::new(),
                telemetry: None,
                shutdown: false,
            };
        }
        let req = match Json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                return Handled {
                    response: err_response("", "?", &format!("bad json: {e}")),
                    telemetry: None,
                    shutdown: false,
                }
            }
        };
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let rid = match req.get("id").and_then(Json::as_str) {
            Some(s) => s.to_string(),
            None => format!("{origin}-{}", self.seq.fetch_add(1, Ordering::Relaxed)),
        };

        // Admission gate for heavy ops; stats/close/shutdown and protocol
        // errors always pass so operators keep visibility under load.
        let heavy = matches!(op.as_str(), "analyze" | "edit" | "query" | "query-use");
        let _slot = if heavy {
            if self.draining.load(Ordering::SeqCst) {
                return self.fail_kind(&rid, &op, "shutting-down", "server is shutting down");
            }
            let depth = self.inflight.fetch_add(1, Ordering::SeqCst);
            let guard = InflightGuard(&self.inflight);
            if depth >= self.max_queue {
                let retry = self.shed(depth);
                drop(guard);
                return Handled {
                    response: err_overloaded(&rid, &op, retry),
                    telemetry: None,
                    shutdown: false,
                };
            }
            Some(guard)
        } else {
            None
        };

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(&op, &req, &rid)
        }));
        let (response, telemetry, shutdown) = match outcome {
            Ok(t) => t,
            Err(_) => (
                err_structured(
                    &rid,
                    &op,
                    &RequestError::new(
                        "internal-panic",
                        "request handler panicked; connection kept, engine recovered",
                    ),
                ),
                None,
                false,
            ),
        };
        Handled {
            response,
            telemetry,
            shutdown,
        }
    }

    /// The op-level request switch. Returns `(response, telemetry,
    /// shutdown)`.
    fn dispatch(&self, op: &str, req: &Json, rid: &str) -> (String, Option<String>, bool) {
        let deadline = req
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        let mut telemetry = None;
        let mut shutdown = false;
        let response = match op {
            "analyze" => {
                let Some(source) = req.get("source").and_then(Json::as_str) else {
                    return (
                        err_response(rid, "analyze", "missing string field \"source\""),
                        None,
                        false,
                    );
                };
                let mut engine = self.engine_lock();
                match engine.analyze_within(source, deadline) {
                    Ok(mut out) => {
                        out.report.serve_health = Some(self.health(&engine));
                        telemetry = Some(stamp(&mut out.report, rid, Some(out.session_id)));
                        let mut w = ObjWriter::new();
                        w.bool("ok", true)
                            .str("op", "analyze")
                            .str("id", rid)
                            .u64("session", out.session_id)
                            .str("mode", out.mode)
                            .u64("functions_total", out.functions_total as u64)
                            .f64("seconds", out.seconds)
                            .u64("cache_hits", out.report.cache_hits as u64)
                            .u64("cache_misses", out.report.cache_misses as u64);
                        w.finish()
                    }
                    Err(e) => err_structured(rid, "analyze", &e),
                }
            }
            "edit" => {
                let Some(sid) = req.get("session").and_then(Json::as_u64) else {
                    return (
                        err_response(rid, "edit", "missing numeric field \"session\""),
                        None,
                        false,
                    );
                };
                let Some(func) = req.get("func").and_then(Json::as_str) else {
                    return (
                        err_response(rid, "edit", "missing string field \"func\""),
                        None,
                        false,
                    );
                };
                let Some(body) = req.get("body").and_then(Json::as_str) else {
                    return (
                        err_response(rid, "edit", "missing string field \"body\""),
                        None,
                        false,
                    );
                };
                let mut engine = self.engine_lock();
                match engine.edit_within(sid, func, body, deadline) {
                    Ok(mut out) => {
                        out.report.serve_health = Some(self.health(&engine));
                        telemetry = Some(stamp(&mut out.report, rid, Some(sid)));
                        let mut w = ObjWriter::new();
                        w.bool("ok", true)
                            .str("op", "edit")
                            .str("id", rid)
                            .u64("session", sid)
                            .bool("incremental", out.incremental)
                            .u64("functions_recomputed", out.functions_recomputed as u64)
                            .f64("seconds", out.seconds);
                        if let Some(reason) = out.fallback_reason {
                            w.str("fallback_reason", reason);
                        }
                        w.finish()
                    }
                    Err(e) => err_structured(rid, "edit", &e),
                }
            }
            "query" => {
                let Some(sid) = req.get("session").and_then(Json::as_u64) else {
                    return (
                        err_response(rid, "query", "missing numeric field \"session\""),
                        None,
                        false,
                    );
                };
                let full = req.get("full").and_then(Json::as_bool).unwrap_or(false);
                let mut engine = self.engine_lock();
                match engine.query(sid) {
                    Ok(q) => {
                        let (pfull, pguided, pfallback) = q.provenance;
                        let mut w = ObjWriter::new();
                        w.bool("ok", true)
                            .str("op", "query")
                            .str("id", rid)
                            .u64("session", sid)
                            .str("plan_digest", &format!("{:016x}", q.plan_digest))
                            .str("gamma_digest", &format!("{:016x}", q.gamma_digest))
                            .u64("ops", q.ops as u64)
                            .u64("checks", q.checks as u64)
                            .u64("bot_nodes", q.bot_nodes as u64)
                            .u64("provenance_full", pfull as u64)
                            .u64("provenance_guided", pguided as u64)
                            .u64("provenance_fallback", pfallback as u64)
                            .u64("functions_total", q.functions_total as u64)
                            .u64("edits", q.edits);
                        if full {
                            w.str("plan_fingerprint", &q.plan_fingerprint)
                                .str("gamma_fingerprint", &q.gamma_fingerprint);
                        }
                        w.finish()
                    }
                    Err(e) => err_structured(rid, "query", &e),
                }
            }
            "query-use" => {
                let Some(sid) = req.get("session").and_then(Json::as_u64) else {
                    return (
                        err_response(rid, "query-use", "missing numeric field \"session\""),
                        None,
                        false,
                    );
                };
                let Some(check) = req.get("check").and_then(Json::as_u64) else {
                    return (
                        err_response(rid, "query-use", "missing numeric field \"check\""),
                        None,
                        false,
                    );
                };
                let mut engine = self.engine_lock();
                match engine.query_use_within(sid, check as usize, deadline) {
                    Ok(q) => {
                        let mut w = ObjWriter::new();
                        w.bool("ok", true)
                            .str("op", "query-use")
                            .str("id", rid)
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
                        w.finish()
                    }
                    Err(e) => err_structured(rid, "query-use", &e),
                }
            }
            "stats" => {
                let engine = self.engine_lock();
                let st = engine.stats();
                let mut w = ObjWriter::new();
                w.bool("ok", true)
                    .str("op", "stats")
                    .str("id", rid)
                    .u64("sessions", st.sessions as u64)
                    .u64("analyzes_cold", st.counters.analyzes_cold)
                    .u64("analyzes_warm", st.counters.analyzes_warm)
                    .u64("edits_incremental", st.counters.edits_incremental)
                    .u64(
                        "edits_value_flow_unchanged",
                        st.counters.edits_value_flow_unchanged,
                    )
                    .u64("edits_fallback", st.counters.edits_fallback)
                    .u64("functions_recomputed", st.counters.functions_recomputed)
                    .u64("user_errors", st.counters.user_errors)
                    .u64("deadline_expired", st.counters.deadline_expired)
                    .u64("memory_hits", st.memory.hits as u64)
                    .u64("memory_misses", st.memory.misses as u64)
                    .u64("memory_entries", st.memory.entries as u64)
                    .f64("warm_hit_ratio", st.warm_hit_ratio)
                    .f64("uptime_seconds", self.start.elapsed().as_secs_f64())
                    .u64("requests_shed", self.requests_shed.load(Ordering::SeqCst))
                    .u64(
                        "connections_torn",
                        self.connections_torn.load(Ordering::SeqCst),
                    )
                    .u64("sessions_recovered", st.sessions_recovered)
                    .u64("wal_records_dropped", st.wal_records_dropped)
                    .u64("wal_store_misses", st.wal_store_misses)
                    .bool("wal_enabled", st.wal_enabled)
                    .u64("wal_appends_failed", st.wal_appends_failed)
                    .u64("pointer_solves", st.counters.pointer_solves)
                    .u64("demand_queries", st.counters.demand_queries)
                    .u64("solver_nodes", st.last_solver.nodes as u64)
                    .u64("solver_pops", st.last_solver.pops as u64)
                    .u64("solver_merges", st.last_solver.merges as u64)
                    .u64(
                        "solver_unify_collapsed",
                        st.last_solver.unify_collapsed as u64,
                    )
                    .u64("solver_prefilter_us", st.last_solver.prefilter_us as u64);
                if let Some(d) = st.disk {
                    w.u64("disk_entries", d.entries as u64)
                        .u64("disk_bytes", d.bytes)
                        .u64("disk_hits", d.hits)
                        .u64("disk_misses", d.misses)
                        .u64("disk_writes", d.writes)
                        .u64("disk_evictions", d.evictions)
                        .u64("disk_corrupt_recovered", d.corrupt_recovered);
                }
                w.finish()
            }
            "close" => {
                let Some(sid) = req.get("session").and_then(Json::as_u64) else {
                    return (
                        err_response(rid, "close", "missing numeric field \"session\""),
                        None,
                        false,
                    );
                };
                let session = self.engine_lock().close(sid);
                let closed = session.is_some();
                // Frees the session after the engine lock is released.
                drop(session);
                let mut w = ObjWriter::new();
                w.bool("ok", true)
                    .str("op", "close")
                    .str("id", rid)
                    .u64("session", sid)
                    .bool("closed", closed);
                w.finish()
            }
            "shutdown" => {
                shutdown = true;
                let mut w = ObjWriter::new();
                w.bool("ok", true).str("op", "shutdown").str("id", rid);
                w.finish()
            }
            "" => err_response(rid, "?", "missing string field \"op\""),
            other => err_response(rid, other, &format!("unknown op {other:?}")),
        };
        (response, telemetry, shutdown)
    }

    fn fail_kind(&self, rid: &str, op: &str, kind: &'static str, msg: &str) -> Handled {
        Handled {
            response: err_structured(rid, op, &RequestError::new(kind, msg)),
            telemetry: None,
            shutdown: false,
        }
    }
}

/// Emits one telemetry line to stderr. Centralized so interleaved client
/// threads never tear lines.
fn emit_telemetry(lock: &Mutex<()>, line: &str) {
    let _g = lock.lock().unwrap_or_else(PoisonError::into_inner);
    eprintln!("{line}");
}

/// Runs the serve loop: stdin JSON-lines on the calling thread, plus an
/// optional Unix-socket listener. Returns after a `shutdown` request or
/// stdin EOF, having drained in-flight requests (bounded by
/// `drain_timeout_ms`) and fsynced the session WAL.
///
/// # Errors
///
/// Fails when the engine cannot start or the socket cannot be bound.
pub fn run_server(cfg: &ServerConfig) -> Result<(), String> {
    let dispatcher = Arc::new(Dispatcher::new(cfg)?);
    let stop = Arc::new(AtomicBool::new(false));
    let telemetry_lock = Arc::new(Mutex::new(()));

    let listener_handle = match &cfg.socket {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot set nonblocking: {e}"))?;
            let dispatcher = dispatcher.clone();
            let stop = stop.clone();
            let telemetry_lock = telemetry_lock.clone();
            let max_clients = cfg.max_clients.max(1);
            Some(std::thread::spawn(move || {
                socket_loop(&listener, &dispatcher, &stop, &telemetry_lock, max_clients);
            }))
        }
        None => None,
    };

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let handled = dispatcher.handle_line("stdin", &line);
        if let Some(t) = &handled.telemetry {
            emit_telemetry(&telemetry_lock, t);
        }
        if !handled.response.is_empty() {
            let _ = writeln!(stdout, "{}", handled.response);
            let _ = stdout.flush();
        }
        if handled.shutdown {
            break;
        }
    }

    // Graceful shutdown: refuse new heavy work, let in-flight requests
    // finish (bounded), make the WAL durable, then stop the transports.
    dispatcher.begin_drain();
    let drain_deadline = Instant::now() + Duration::from_millis(cfg.drain_timeout_ms);
    while dispatcher.inflight() > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    dispatcher.flush_wal();
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = listener_handle {
        let _ = h.join();
    }
    if let Some(path) = &cfg.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Accept loop: polls the nonblocking listener every 50ms so a shutdown
/// initiated from any transport stops the socket side promptly.
fn socket_loop(
    listener: &std::os::unix::net::UnixListener,
    dispatcher: &Arc<Dispatcher>,
    stop: &Arc<AtomicBool>,
    telemetry_lock: &Arc<Mutex<()>>,
    max_clients: usize,
) {
    let mut clients: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut client_no = 0u64;
    while !stop.load(Ordering::SeqCst) {
        clients.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                if clients.len() >= max_clients {
                    // Over capacity: shed the connection politely with the
                    // same machine-readable refusal as request-level
                    // shedding, and move on.
                    let retry = dispatcher.shed(max_clients);
                    let mut s = stream;
                    let _ = writeln!(s, "{}", err_overloaded("", "?", retry));
                    continue;
                }
                client_no += 1;
                let origin = format!("sock-{client_no}");
                let dispatcher = dispatcher.clone();
                let stop = stop.clone();
                let telemetry_lock = telemetry_lock.clone();
                clients.push(std::thread::spawn(move || {
                    client_loop(stream, &origin, &dispatcher, &stop, &telemetry_lock);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break,
        }
    }
    for h in clients {
        let _ = h.join();
    }
}

/// One socket client's request loop. Reads with a timeout so a stuck
/// client cannot block shutdown, and maps every abnormal exit (partial
/// frame at EOF, read error, broken response pipe) to a counted,
/// non-fatal connection teardown.
fn client_loop(
    stream: std::os::unix::net::UnixStream,
    origin: &str,
    dispatcher: &Dispatcher,
    stop: &AtomicBool,
    telemetry_lock: &Mutex<()>,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    // `read_line` appends to the buffer across timeouts, so a frame
    // split across reads (or interleaved with stop-flag polls) is
    // reassembled rather than torn.
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => {
                if !buf.trim().is_empty() {
                    // EOF with a partial frame buffered: the client died
                    // mid-request.
                    dispatcher.note_torn();
                }
                break;
            }
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                let handled = dispatcher.handle_line(origin, &line);
                if let Some(t) = &handled.telemetry {
                    emit_telemetry(telemetry_lock, t);
                }
                if !handled.response.is_empty() {
                    if writeln!(writer, "{}", handled.response).is_err() {
                        // Client vanished between request and response.
                        dispatcher.note_torn();
                        break;
                    }
                    let _ = writer.flush();
                }
                if handled.shutdown {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => {
                dispatcher.note_torn();
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "def risky(int c) -> int { int x; if (c) { x = 1; } if (x) { return 1; } return 0; }\ndef main(int c) { print(risky(c)); }";

    fn dispatcher() -> Dispatcher {
        Dispatcher::new(&ServerConfig::default()).unwrap()
    }

    fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
        resp.get(key)
            .unwrap_or_else(|| panic!("missing {key} in {resp:?}"))
    }

    #[test]
    fn analyze_edit_query_round_trip_over_protocol() {
        let d = dispatcher();
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC).str("id", "r1");
            w.finish()
        };
        let h = d.handle_line("stdin", &req);
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "mode").as_str(), Some("cold"));
        assert_eq!(field(&resp, "id").as_str(), Some("r1"));
        let sid = field(&resp, "session").as_u64().unwrap();
        let telemetry = h.telemetry.expect("analyze emits telemetry");
        assert!(telemetry.contains("\"request_id\":\"r1\""), "{telemetry}");
        assert!(
            telemetry.contains(&format!("\"session_id\":{sid}")),
            "{telemetry}"
        );
        // Serve-issued telemetry carries the health snapshot.
        assert!(
            telemetry.contains("\"serve\":{\"uptime_seconds\""),
            "{telemetry}"
        );

        let edit = {
            let mut w = ObjWriter::new();
            w.str("op", "edit")
                .u64("session", sid)
                .str("func", "risky")
                .str(
                    "body",
                    "def risky(int c) -> int { int x; if (c) { x = 2; } if (x) { return 1; } return 0; }",
                );
            w.finish()
        };
        let h = d.handle_line("stdin", &edit);
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "incremental").as_bool(), Some(true));
        assert_eq!(field(&resp, "functions_recomputed").as_u64(), Some(1));
        // Synthesized request id for id-less requests.
        assert!(field(&resp, "id").as_str().unwrap().starts_with("stdin-"));

        let query = {
            let mut w = ObjWriter::new();
            w.str("op", "query").u64("session", sid).bool("full", true);
            w.finish()
        };
        let h = d.handle_line("stdin", &query);
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert!(field(&resp, "plan_fingerprint").as_str().is_some());
        assert_eq!(field(&resp, "plan_digest").as_str().unwrap().len(), 16);

        let h = d.handle_line("stdin", "{\"op\":\"stats\"}");
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "edits_incremental").as_u64(), Some(1));
        // `x = 1` -> `x = 2` changes only a constant: value flow is kept.
        assert_eq!(field(&resp, "edits_value_flow_unchanged").as_u64(), Some(1));

        let h = d.handle_line("stdin", "{\"op\":\"shutdown\"}");
        assert!(h.shutdown);
    }

    #[test]
    fn query_use_round_trip_memoizes_and_tracks_epochs() {
        let d = dispatcher();
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        let sid = field(&resp, "session").as_u64().unwrap();

        let qu = |id: &str| {
            let mut w = ObjWriter::new();
            w.str("op", "query-use")
                .u64("session", sid)
                .u64("check", 0)
                .str("id", id);
            w.finish()
        };
        let h = d.handle_line("stdin", &qu("q1"));
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true), "{}", h.response);
        assert_eq!(field(&resp, "op").as_str(), Some("query-use"));
        assert_eq!(field(&resp, "check").as_u64(), Some(0));
        assert_eq!(field(&resp, "epoch").as_u64(), Some(0));
        assert_eq!(field(&resp, "memo_hit").as_bool(), Some(false));
        assert_eq!(field(&resp, "complete").as_bool(), Some(true));
        assert!(field(&resp, "nodes_visited").as_u64().unwrap() > 0);
        let verdict = field(&resp, "maybe_undef").as_bool();
        // risky()'s `if (x)` reads a maybe-undef local: some check in the
        // session must be flagged by the demand walk.
        let total = field(&resp, "checks_total").as_u64().unwrap();
        let mut any_bot = verdict == Some(true);
        for c in 1..total {
            let mut w = ObjWriter::new();
            w.str("op", "query-use").u64("session", sid).u64("check", c);
            let r = Json::parse(&d.handle_line("stdin", &w.finish()).response).unwrap();
            any_bot |= field(&r, "maybe_undef").as_bool() == Some(true);
        }
        assert!(any_bot, "risky()'s uninitialized read must be flagged");

        let resp = Json::parse(&d.handle_line("stdin", &qu("q2")).response).unwrap();
        assert_eq!(field(&resp, "memo_hit").as_bool(), Some(true));
        assert_eq!(field(&resp, "nodes_visited").as_u64(), Some(0));
        assert_eq!(field(&resp, "maybe_undef").as_bool(), verdict);

        // An edit rebuilds the VFG: the epoch bumps and the memo is gone.
        let edit = {
            let mut w = ObjWriter::new();
            w.str("op", "edit")
                .u64("session", sid)
                .str("func", "risky")
                .str(
                    "body",
                    "def risky(int c) -> int { int x; if (c) { x = 3; } if (x) { return 1; } return 0; }",
                );
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &edit).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        let resp = Json::parse(&d.handle_line("stdin", &qu("q3")).response).unwrap();
        assert_eq!(field(&resp, "epoch").as_u64(), Some(1));
        assert_eq!(field(&resp, "memo_hit").as_bool(), Some(false));
        assert_eq!(field(&resp, "maybe_undef").as_bool(), verdict);

        let resp = Json::parse(&d.handle_line("stdin", "{\"op\":\"stats\"}").response).unwrap();
        assert_eq!(field(&resp, "demand_queries").as_u64(), Some(total + 2));
    }

    #[test]
    fn query_use_errors_carry_machine_readable_kinds() {
        let d = dispatcher();
        // Point query before any analyze: structured unknown-session.
        let h = d.handle_line("stdin", "{\"op\":\"query-use\",\"session\":7,\"check\":0}");
        let resp = Json::parse(&h.response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert_eq!(field(&resp, "error_kind").as_str(), Some("unknown-session"));
        assert!(field(&resp, "error").as_str().unwrap().contains("analyze"));

        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        let sid = field(&resp, "session").as_u64().unwrap();
        let bad = {
            let mut w = ObjWriter::new();
            w.str("op", "query-use")
                .u64("session", sid)
                .u64("check", 9999);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &bad).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert_eq!(field(&resp, "error_kind").as_str(), Some("bad-check-index"));

        // Missing fields stay plain protocol errors (no kind).
        let resp = Json::parse(
            &d.handle_line("stdin", "{\"op\":\"query-use\",\"session\":1}")
                .response,
        )
        .unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert!(resp.get("error_kind").is_none());
        // query shares the structured path.
        let resp = Json::parse(
            &d.handle_line("stdin", "{\"op\":\"query\",\"session\":999}")
                .response,
        )
        .unwrap();
        assert_eq!(field(&resp, "error_kind").as_str(), Some("unknown-session"));
    }

    #[test]
    fn malformed_lines_get_error_responses_not_crashes() {
        let d = dispatcher();
        for bad in [
            "not json at all",
            "{\"op\":\"analyze\"}",
            "{\"op\":\"edit\",\"session\":1}",
            "{\"op\":\"query\"}",
            "{\"op\":\"frobnicate\"}",
            "{}",
            "{\"op\":\"query\",\"session\":999}",
        ] {
            let h = d.handle_line("stdin", bad);
            let resp = Json::parse(&h.response)
                .unwrap_or_else(|e| panic!("response to {bad:?} not json ({e}): {}", h.response));
            assert_eq!(field(&resp, "ok").as_bool(), Some(false), "{bad}");
            assert!(!h.shutdown);
        }
        // Blank lines are ignored silently.
        let h = d.handle_line("stdin", "   ");
        assert!(h.response.is_empty());
        // Admission slots from failed requests are all released.
        assert_eq!(d.inflight(), 0);
    }

    #[test]
    fn concurrent_clients_multiplex_one_engine() {
        let d = Arc::new(dispatcher());
        // Seed the cache so client threads all hit the warm path.
        let seed = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC);
            w.finish()
        };
        d.handle_line("stdin", &seed);
        let mut handles = Vec::new();
        for c in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let origin = format!("sock-{c}");
                let req = {
                    let mut w = ObjWriter::new();
                    w.str("op", "analyze").str("source", SRC);
                    w.finish()
                };
                let h = d.handle_line(&origin, &req);
                let resp = Json::parse(&h.response).unwrap();
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(resp.get("mode").and_then(Json::as_str), Some("warm"));
                let sid = resp.get("session").and_then(Json::as_u64).unwrap();
                let q = {
                    let mut w = ObjWriter::new();
                    w.str("op", "query").u64("session", sid);
                    w.finish()
                };
                let h = d.handle_line(&origin, &q);
                let resp = Json::parse(&h.response).unwrap();
                resp.get("plan_digest")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            }));
        }
        let digests: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        let st = d.engine().lock().unwrap().stats();
        assert_eq!(st.counters.analyzes_warm, 4);
    }

    #[test]
    fn overload_sheds_with_retry_hint_but_stats_stay_admitted() {
        let cfg = ServerConfig {
            max_queue: 0,
            ..ServerConfig::default()
        };
        let d = Dispatcher::new(&cfg).unwrap();
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC).str("id", "r1");
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert_eq!(field(&resp, "error_kind").as_str(), Some("overloaded"));
        assert_eq!(field(&resp, "id").as_str(), Some("r1"));
        let retry = field(&resp, "retry_after_ms").as_u64().unwrap();
        assert!((50..=1000).contains(&retry), "{retry}");
        // Shed slot was released immediately.
        assert_eq!(d.inflight(), 0);
        // stats is always admitted and reports the shed.
        let resp = Json::parse(&d.handle_line("stdin", "{\"op\":\"stats\"}").response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "requests_shed").as_u64(), Some(1));
    }

    /// Overload burst: client threads that a barrier releases together
    /// each volley race a `max_queue = 1` dispatcher. Each client honors
    /// `retry_after_ms` with bounded exponential backoff and
    /// deterministic jitter (the discipline `examples/serve_client.rs`
    /// implements), and every request must eventually succeed. The test
    /// holds the engine through the first volley until a request has
    /// been shed: the one admitted request waits on the lock with the
    /// only slot, so the others' first attempts must be refused.
    #[test]
    fn overload_burst_sheds_and_every_request_eventually_succeeds() {
        const CLIENTS: usize = 4;
        const VOLLEYS: usize = 8;
        let cfg = ServerConfig {
            max_queue: 1,
            wal_enabled: false,
            ..ServerConfig::default()
        };
        let d = Arc::new(Dispatcher::new(&cfg).unwrap());
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC);
            w.finish()
        };
        // One cold analyze up front so the burst contends on warm opens.
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));

        let engine = d.engine().lock().unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (d, barrier, req) = (d.clone(), barrier.clone(), req.clone());
                std::thread::spawn(move || {
                    let mut shed = 0u64;
                    for v in 0..VOLLEYS {
                        barrier.wait();
                        let mut attempt = 0u64;
                        loop {
                            let h = d.handle_line(&format!("burst-{c}"), &req);
                            let resp = Json::parse(&h.response).unwrap();
                            if field(&resp, "ok").as_bool() == Some(true) {
                                break;
                            }
                            assert_eq!(
                                field(&resp, "error_kind").as_str(),
                                Some("overloaded"),
                                "client {c} volley {v}: {resp:?}"
                            );
                            shed += 1;
                            assert!(attempt < 20, "client {c} volley {v} never admitted");
                            let hint = field(&resp, "retry_after_ms").as_u64().unwrap();
                            let base = (hint.min(10) << attempt.min(4)).max(1);
                            let jitter = (c as u64 * 7 + v as u64 * 3 + attempt) % (base / 2 + 1);
                            std::thread::sleep(Duration::from_millis(base + jitter));
                            attempt += 1;
                        }
                    }
                    shed
                })
            })
            .collect();
        while d.requests_shed.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        drop(engine);
        let shed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(shed > 0);
        assert_eq!(shed, d.requests_shed.load(Ordering::SeqCst));
        assert_eq!(d.inflight(), 0);
        let st = d.engine().lock().unwrap().stats();
        assert_eq!(st.counters.analyzes_warm, (CLIENTS * VOLLEYS) as u64);
    }

    #[test]
    fn draining_refuses_new_work_but_keeps_observability() {
        let d = dispatcher();
        d.begin_drain();
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze").str("source", SRC);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert_eq!(field(&resp, "error_kind").as_str(), Some("shutting-down"));
        let resp = Json::parse(&d.handle_line("stdin", "{\"op\":\"stats\"}").response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "sessions").as_u64(), Some(0));
    }

    #[test]
    fn zero_deadline_expires_cleanly_and_is_counted() {
        let d = dispatcher();
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze")
                .str("source", SRC)
                .u64("deadline_ms", 0);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert_eq!(
            field(&resp, "error_kind").as_str(),
            Some("deadline-expired")
        );
        let resp = Json::parse(&d.handle_line("stdin", "{\"op\":\"stats\"}").response).unwrap();
        assert_eq!(field(&resp, "deadline_expired").as_u64(), Some(1));
        assert_eq!(field(&resp, "sessions").as_u64(), Some(0));
        // A generous deadline sails through.
        let req = {
            let mut w = ObjWriter::new();
            w.str("op", "analyze")
                .str("source", SRC)
                .u64("deadline_ms", 60000);
            w.finish()
        };
        let resp = Json::parse(&d.handle_line("stdin", &req).response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true), "{resp:?}");
    }

    #[test]
    fn client_vanishing_mid_frame_is_a_counted_teardown() {
        let d = Arc::new(dispatcher());
        let stop = Arc::new(AtomicBool::new(false));
        let tl = Arc::new(Mutex::new(()));
        let (client, server) = std::os::unix::net::UnixStream::pair().unwrap();
        let handle = {
            let d = d.clone();
            let stop = stop.clone();
            let tl = tl.clone();
            std::thread::spawn(move || client_loop(server, "sock-t", &d, &stop, &tl))
        };
        // A complete request works over the pair...
        let mut c = client;
        writeln!(c, "{{\"op\":\"stats\"}}").unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        // ...then the client dies mid-frame: no newline, just a hangup.
        c.write_all(b"{\"op\":\"ana").unwrap();
        drop(c);
        drop(reader);
        handle.join().unwrap();
        assert_eq!(d.connections_torn(), 1);
        // The engine is still perfectly usable afterwards.
        let resp = Json::parse(&d.handle_line("stdin", "{\"op\":\"stats\"}").response).unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "connections_torn").as_u64(), Some(1));
    }
}
