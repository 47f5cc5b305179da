//! The persistent analysis engine behind `usher serve`.
//!
//! An [`Engine`] owns the two-tier artifact cache (the driver's in-memory
//! [`ArtifactCache`] in front of an optional on-disk
//! [`DiskStore`]) and a set of sessions, one per analyzed program.
//! Requests from any number of protocol clients are serialized onto the
//! engine.
//!
//! The engine runs no whole-program stage itself. A cold `analyze`, an
//! edit fallback and a WAL replay all run the driver's retained entry
//! ([`Pipeline::run_retained`]) in strict mode, which also hands back the
//! state the incremental path needs. Strict mode turns a deadline, a
//! contained stage panic or a compile error into an error, never into a
//! degraded session: `deadline-expired`, `internal-panic` and
//! `bad-source`/`bad-edit` respectively, with the engine unchanged.
//!
//! ## Incremental edits
//!
//! An `edit` replaces one function's body. The engine re-lowers just that
//! function into the retained module in place and then decides, by a set
//! of conservative gates, whether the retained pointer analysis is still
//! observably valid:
//!
//! - the re-lowering itself refuses signature changes, new interned
//!   types and unknown functions ([`usher_frontend::RelowerBlocked`]);
//! - the edited function must not participate in inlining: not inlined
//!   into others before, not an inline target now, and not calling (or
//!   taking the address of) any function involved in inlining;
//! - after `mem2reg`, the body must keep as many objects as before
//!   (`object-count-changed` otherwise). A promoted local is a top-level
//!   variable and leaves neither an object nor a variable behind, so
//!   inserting or removing one passes; an address-taken or array local
//!   does not;
//! - the old and new post-`mem2reg` bodies, with the function's own
//!   surviving allocation sites, must be equal once both are blinded to
//!   what the points-to solver never reads (`pointer-structure-changed`
//!   otherwise). Every operand the retained solution shows it never
//!   reads becomes `undef`, in any position: a constant, `undef`, or a
//!   non-pointer variable with empty points-to and function-target sets
//!   (such an operand adds no constraint, so swapping it cannot change
//!   any points-to set). Unary and binary operators are blinded too (the
//!   solver adds no constraint for an arithmetic result), and so are an
//!   object's `name` and `zero_init` (the solver ignores both, and
//!   `zero_init` only feeds the recomputed slices of the edited
//!   function).
//!
//! If every gate passes, only the function's memory SSA and CFG are
//! recomputed. The VFG is rebuilt by the same builder a cold run uses,
//! over the retained CFGs of every other function, followed by the
//! (global, but cheap) resolve and planning stages. Any gate failure
//! falls back to a full recompute with the reason recorded in the
//! response and the telemetry line; fallbacks are sound, never silent.
//!
//! The splice first copies the little it can change: the old function,
//! its objects and the lengths of the object and type tables. Every
//! refusal (a gate, a bad body, a failed fallback or an unwinding panic)
//! puts that copy back, so an edit that commits copies nothing of the
//! rest of the program. The session's source text, one buffer with its
//! line starts, changes only when an edit commits: the body's lines
//! replace the function's in place, and only they are rescanned for
//! definitions.
//!
//! Value-flow early cutoff: when the new body differs from the old one
//! only in integer constants, the function's memory SSA, the VFG, Γ, the
//! Opt II result and the plan are kept as they are. No stage reads a
//! constant's value; planning only copies some operands verbatim into
//! its shadow ops (an allocation count, a load or store address, the
//! operands of a bit-level op), and the cutoff rebinds just those from
//! the edited function's instructions. It is the same comparison as the
//! pointer gate's, `same_body`, under another blinding: every constant
//! reads as `0` and objects compare in full.
//!
//! Incremental results are *not* persisted to the store: the session
//! retains them in memory, and only full analyses (which equal what a
//! cold run would produce) populate the cache tiers. Both tiers hold
//! exactly what the warm path reads back (module, Γ and plan): the
//! memory tier as three entries that share the session's artifacts by
//! `Arc`, the disk tier as one entry per program, written and read
//! whole. The engine's [`ArtifactCache`] is private to it, so its
//! entries are never seen by a batch [`usher_driver::Pipeline`].
//!
//! A request `analyze` and a WAL replay build their session through one
//! routine, `Engine::open_session`: warm probe or cold compute, WAL
//! append, persist, insert.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use usher_core::{
    guided_plan, redundant_check_elimination_budgeted, Config, Gamma, Plan, PlanProvenance,
    ShadowOp,
};
use usher_driver::{
    default_threads, gamma_fingerprint, plan_fingerprint, tinyc_source_key, Artifact,
    ArtifactCache, CacheStats, DegradeEvent, DriverError, GuidedKnobs, KeyWriter, Pipeline,
    PipelineOptions, PipelineReport, RetainedRun, Stage, StageTiming,
};
use usher_frontend::{parser, relower_function, LowerEnv, RelowerBlocked, RelowerError};
use usher_ir::{
    is_inline_target, BinOp, Budget, Callee, FuncId, Function, Idx, InlineTrace, Inst, Module,
    ModuleCfgs, ObjId, ObjectData, Operand, OptLevel, Site, Terminator, UnOp,
};
use usher_pointer::{PointerAnalysis, SolverStats};
use usher_vfg::{
    build_function_ssa_budgeted, build_with_budgeted, DemandEngine, FuncMemSsa, MemSsa, ModRef, Vfg,
};

use crate::codec;
use crate::faultio::FaultIo;
use crate::store::{DiskStats, DiskStore};
use crate::wal::{open_line, Wal, WalRecord};

/// Engine construction options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Root of the on-disk store; `None` disables the disk tier.
    pub store_dir: Option<PathBuf>,
    /// Size cap of the disk tier in bytes (0 = uncapped).
    pub store_cap_bytes: u64,
    /// Worker threads for parallel per-function stages.
    pub threads: usize,
    /// `false` bypasses both cache tiers entirely (`--no-cache`).
    pub use_cache: bool,
    /// Explicit session WAL path (`--wal`). `None` places the WAL at
    /// `<store_dir>/sessions.wal` when the disk tier is enabled, and
    /// disables it otherwise.
    pub wal_path: Option<PathBuf>,
    /// `false` disables the session WAL entirely (`--no-wal`).
    pub wal_enabled: bool,
    /// Injectable I/O shim shared by the store and the WAL; production
    /// engines use [`FaultIo::none`], the crash-safety suite arms faults.
    pub io: FaultIo,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            store_dir: None,
            store_cap_bytes: 256 << 20,
            threads: default_threads(),
            use_cache: true,
            wal_path: None,
            wal_enabled: true,
            io: FaultIo::none(),
        }
    }
}

/// Request counters since engine start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Cold `analyze` requests (full pipeline ran).
    pub analyzes_cold: u64,
    /// Warm `analyze` requests (served entirely from the cache tiers).
    pub analyzes_warm: u64,
    /// Edits that took the function-granular incremental path.
    pub edits_incremental: u64,
    /// Incremental edits whose value flow was unchanged (only constants
    /// differed), so the retained VFG, Γ, Opt II result and plan were
    /// reused, the plan with its copied operands rebound. A subset of
    /// `edits_incremental`.
    pub edits_value_flow_unchanged: u64,
    /// Edits that fell back to a full recompute.
    pub edits_fallback: u64,
    /// Requests rejected with a user error.
    pub user_errors: u64,
    /// Total functions recomputed across all edits.
    pub functions_recomputed: u64,
    /// Full pointer solves run (cold analyses and edit fallbacks;
    /// incremental edits reuse the retained analysis and don't count).
    pub pointer_solves: u64,
    /// `query-use` demand point queries answered.
    pub demand_queries: u64,
    /// Requests refused (or degraded) because their `deadline_ms`
    /// expired before or during the work.
    pub deadline_expired: u64,
}

/// What startup WAL replay reconstructed (and what it could not).
#[derive(Clone, Debug, Default)]
pub struct ReplaySummary {
    /// Sessions reconstructed from the log.
    pub sessions_recovered: u64,
    /// WAL lines discarded as corrupt or torn.
    pub records_dropped: u64,
    /// Edit records re-applied during replay.
    pub edits_replayed: u64,
    /// Warm open records whose store artifacts were gone; the session
    /// was rebuilt by a cold compute instead (see `fallbacks`).
    pub store_misses: u64,
    /// Sessions the replay had to drop because re-running their
    /// recorded computations failed.
    pub failures: u64,
    /// Per-session degradations, as `(session_id, reason)` — e.g.
    /// `"wal-store-miss"` when a warm session's artifacts were evicted.
    pub fallbacks: Vec<(u64, &'static str)>,
}

/// A structured request failure: a stable machine-readable `kind` (for
/// protocol clients and telemetry) plus human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// Stable error class: `"unknown-session"`, `"warm-session"`,
    /// `"degraded-session"`, `"bad-check-index"`, `"bad-source"`,
    /// `"bad-edit"`, `"deadline-expired"` or `"internal-panic"`.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl RequestError {
    /// Builds an error from a stable kind and free-form detail.
    pub fn new(kind: &'static str, detail: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.detail, self.kind)
    }
}

/// Result of an `analyze` request.
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// Session handle for subsequent `edit`/`query` requests.
    pub session_id: u64,
    /// `"cold"` or `"warm"`.
    pub mode: &'static str,
    /// Functions in the analyzed module.
    pub functions_total: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Telemetry (request/session ids filled by the server).
    pub report: PipelineReport,
}

/// Result of an `edit` request.
#[derive(Debug)]
pub struct EditOutcome {
    /// Whether the function-granular incremental path was taken.
    pub incremental: bool,
    /// Why the edit fell back to a full recompute (`None` when
    /// incremental).
    pub fallback_reason: Option<&'static str>,
    /// Functions whose analysis slices were recomputed.
    pub functions_recomputed: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Telemetry.
    pub report: PipelineReport,
}

/// Result of a `query` request.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Full plan fingerprint (deterministic rendering of all shadow ops).
    pub plan_fingerprint: String,
    /// Full gamma fingerprint.
    pub gamma_fingerprint: String,
    /// FNV digest of the plan fingerprint (compact protocol form).
    pub plan_digest: u64,
    /// FNV digest of the gamma fingerprint.
    pub gamma_digest: u64,
    /// `Bot` node count of the resolved gamma.
    pub bot_nodes: usize,
    /// Plan provenance counts `(full, guided, fallback)`.
    pub provenance: (usize, usize, usize),
    /// Total shadow operations in the plan.
    pub ops: usize,
    /// Runtime checks in the plan.
    pub checks: usize,
    /// Functions in the module.
    pub functions_total: usize,
    /// Edits applied to this session so far.
    pub edits: u64,
}

/// Result of a `query-use` demand point query.
#[derive(Clone, Debug)]
pub struct QueryUseOutcome {
    /// The queried check's index into the session VFG's check list.
    pub check_index: usize,
    /// The VFG node the check guards.
    pub node: u32,
    /// Check kind (`Debug` rendering, e.g. `"BranchCond"`).
    pub check_kind: String,
    /// The verdict: `true` when the use may be undefined (`Bot`).
    pub maybe_undef: bool,
    /// `false` when the walk's budget ran out and the verdict degraded
    /// to the sound `Bot` answer.
    pub complete: bool,
    /// Whether the verdict came straight from the memo table.
    pub memo_hit: bool,
    /// Nodes this query visited (0 on a memo hit).
    pub nodes_visited: usize,
    /// Proven-`Top` frontier rows this query skipped pulling.
    pub refinements: usize,
    /// Total checks in the session (the valid index range).
    pub checks_total: usize,
    /// The session's memo epoch: the number of edits applied. Any edit
    /// invalidates the memo table, so two `query-use` responses with the
    /// same epoch came from one coherent table.
    pub epoch: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Result of a `stats` request.
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// Live sessions.
    pub sessions: usize,
    /// Request counters.
    pub counters: Counters,
    /// Memory-tier cache counters.
    pub memory: CacheStats,
    /// Disk-tier counters, when the disk tier is enabled.
    pub disk: Option<DiskStats>,
    /// Hits over lookups across both tiers (0.0 when no lookups yet).
    pub warm_hit_ratio: f64,
    /// Solver counters of the most recent full pointer solve (zeroed
    /// until one has run).
    pub last_solver: SolverStats,
    /// Sessions reconstructed by startup WAL replay.
    pub sessions_recovered: u64,
    /// WAL lines dropped as corrupt/torn at startup.
    pub wal_records_dropped: u64,
    /// Warm WAL sessions rebuilt cold because their store artifacts
    /// were gone.
    pub wal_store_misses: u64,
    /// Whether WAL appends are currently reaching disk.
    pub wal_enabled: bool,
    /// WAL appends (or the startup rewrite) that failed; each one
    /// permanently disabled the log for this process.
    pub wal_appends_failed: u64,
}

/// One function's line span in the session source: `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FnSpan {
    name: String,
    start: usize,
    end: usize,
    /// Whether the span begins and ends outside a block comment. Only
    /// then does replacing its lines leave the meaning of the text around
    /// them as it was.
    isolated: bool,
}

/// Retained analysis state for incremental edits.
struct Backend {
    /// Shared with the memory tier after a full analysis; an edit splices
    /// into it through `Arc::make_mut`, so only a session's first edit
    /// after one copies it.
    module: Arc<Module>,
    env: LowerEnv,
    inline: InlineTrace,
    pa: PointerAnalysis,
    modref: ModRef,
    memssa: MemSsa,
    vfg: Vfg,
    /// `module`'s shared CFGs and dominator trees. An incremental edit
    /// invalidates only the edited function's entry, so its memory SSA,
    /// VFG rebuild and whole-program Opt II recompute no other function's.
    cfgs: ModuleCfgs,
    gamma: Arc<Gamma>,
    redirected: usize,
    plan: Arc<Plan>,
    /// Lazily-built demand engine for `query-use` point queries. Memoized
    /// verdicts are only valid against the VFG the engine was built on,
    /// so every edit (incremental or fallback) drops it.
    demand: Option<DemandEngine>,
}

/// Warm sessions are reconstructed from cached artifacts only; the first
/// edit promotes them to a full backend via a recorded fallback.
enum SessionState {
    Warm {
        module: Arc<Module>,
        gamma: Arc<Gamma>,
        plan: Arc<Plan>,
    },
    Ready(Box<Backend>),
}

/// A source text as one buffer: its lines in order, as [`str::lines`]
/// splits them, each followed by `\n`, and the offset where each starts.
/// The text itself is the buffer without its last `\n`, which is the
/// lines joined by `\n`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Text {
    buf: String,
    /// `starts[i]` is where line `i` starts; a last entry, `buf.len()`,
    /// closes the last line.
    starts: Vec<usize>,
}

impl Text {
    fn new(src: &str) -> Text {
        let mut buf = String::with_capacity(src.len() + 1);
        let mut starts = vec![0];
        for line in src.lines() {
            buf.push_str(line);
            buf.push('\n');
            starts.push(buf.len());
        }
        Text { buf, starts }
    }

    /// The number of lines.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn lines(&self) -> impl Iterator<Item = &str> {
        (self.starts.windows(2)).map(|w| &self.buf[w[0]..w[1] - 1])
    }

    /// The text: its lines joined by `\n`.
    fn source(&self) -> &str {
        self.buf.strip_suffix('\n').unwrap_or(&self.buf)
    }

    /// The text with lines `[lo, hi)` replaced by `body`'s lines.
    fn source_with(&self, lo: usize, hi: usize, body: &Text) -> String {
        let (a, b) = (self.starts[lo], self.starts[hi]);
        let mut s = [&self.buf[..a], &body.buf, &self.buf[b..]].concat();
        if s.ends_with('\n') {
            s.pop();
        }
        s
    }

    /// Replaces lines `[lo, hi)` with `body`'s lines.
    fn splice(&mut self, lo: usize, hi: usize, body: &Text) {
        let (a, b) = (self.starts[lo], self.starts[hi]);
        self.buf.replace_range(a..b, &body.buf);
        for s in &mut self.starts[hi..] {
            *s = *s - (b - a) + body.buf.len();
        }
        let fresh = body.starts[..body.len()].iter().map(|s| s + a);
        self.starts.splice(lo..hi, fresh);
    }
}

/// One analyzed program's source and retained analysis. [`Engine::close`]
/// hands it back so the caller can free it outside any lock it holds.
pub struct Session {
    text: Text,
    spans: Vec<FnSpan>,
    edits: u64,
    state: SessionState,
}

impl Session {
    /// Replaces the lines of `spans[at]` with `body`, or appends `body`
    /// when `at` is past the last span, and brings `spans` up to date.
    ///
    /// `body` must lex and parse as one function definition. When the
    /// replaced span is isolated, or the body is appended to a text that
    /// lexes, the scanner enters and leaves the body's lines at brace
    /// depth 0 and outside a comment, exactly as a scan of the body alone
    /// does. So only the body's lines are scanned, and every later span
    /// shifts by the change in line count. Any other span is replaced
    /// and the whole text rescanned.
    fn splice(&mut self, at: usize, body: &Text) {
        let old = self.spans.get(at);
        let n = self.text.len();
        let (start, end) = old.map_or((n, n), |s| (s.start, s.end));
        let removed = usize::from(old.is_some());
        let isolated = old.is_none_or(|s| s.isolated);
        let added = body.len();
        let fresh = if isolated {
            scan_spans(body)
        } else {
            Vec::new()
        };
        self.text.splice(start, end, body);
        if isolated {
            for s in &mut self.spans[at + removed..] {
                s.start = s.start + added - (end - start);
                s.end = s.end + added - (end - start);
            }
            let fresh = fresh.into_iter().map(|s| FnSpan {
                start: s.start + start,
                end: s.end + start,
                ..s
            });
            self.spans.splice(at..at + removed, fresh);
        } else {
            self.spans = scan_spans(&self.text);
        }
        debug_assert_eq!(
            self.spans,
            scan_spans(&self.text),
            "spliced spans must equal a rescan of the whole text"
        );
    }
}

/// The serve engine: sessions plus the two-tier artifact cache.
pub struct Engine {
    opts: PipelineOptions,
    knobs: GuidedKnobs,
    /// Runs every whole-program analysis.
    pipeline: Pipeline,
    cache: ArtifactCache,
    disk: Option<DiskStore>,
    use_cache: bool,
    sessions: HashMap<u64, Session>,
    next_session: u64,
    counters: Counters,
    last_solver: SolverStats,
    wal: Option<Wal>,
    replay: ReplaySummary,
}

fn fnv_digest(s: &str) -> u64 {
    let mut k = KeyWriter::new("fingerprint");
    k.str(s);
    k.finish()
}

/// Scans top-level `def` spans with a brace-depth line scanner.
///
/// TinyC has no string or character literals, so counting braces per
/// line outside comments is exact. Comments follow the lexer: `//` runs
/// to the end of the line, `/* … */` does not nest and may span lines,
/// and a closed block comment separates tokens like a space. A `def` is
/// recognized on a line that starts at brace depth 0 with no definition
/// pending, when the line's code begins with `def ` and a name. The scan
/// reads bytes: a session's text lexes, so its code is ASCII. Once a
/// line's `def` match is decided, only braces and comment openers
/// matter, and the scan skips to the next one.
fn scan_spans(text: &Text) -> Vec<FnSpan> {
    /// Progress of matching `def <name>` against the start of a line's
    /// code.
    #[derive(Clone, Copy)]
    enum Def {
        /// Before the first non-blank byte; `k` bytes of `def ` matched.
        Keyword(usize),
        /// `def ` matched; the name so far is `line[s..e]`.
        Name(usize, usize),
        /// The line starts no definition, or its name has ended.
        Done,
    }
    // Feeds the next byte of code at `j` (`None` for the space a closed
    // block comment leaves).
    let step = |def: Def, j: usize, c: Option<u8>| match (def, c) {
        (Def::Keyword(0), None | Some(b' ' | b'\t' | b'\r')) => Def::Keyword(0),
        (Def::Keyword(3), None) => Def::Name(j, j),
        (Def::Keyword(k), Some(c)) if c == b"def "[k] => match k {
            3 => Def::Name(j + 1, j + 1),
            _ => Def::Keyword(k + 1),
        },
        (Def::Name(s, e), Some(c)) if e == j && (c.is_ascii_alphanumeric() || c == b'_') => {
            Def::Name(s, j + 1)
        }
        (Def::Name(s, e), _) if e > s => Def::Name(s, e),
        _ => Def::Done,
    };
    let mut spans = Vec::new();
    let mut depth: i64 = 0;
    // The pending definition: name, first line, and whether that line
    // began inside a block comment.
    let mut open: Option<(String, usize, bool)> = None;
    let mut opened_brace = false;
    let mut in_block = false;
    for (i, line) in text.lines().enumerate() {
        let b = line.as_bytes();
        let began_in_block = in_block;
        let mut def = if depth == 0 && open.is_none() {
            Def::Keyword(0)
        } else {
            Def::Done
        };
        let mut line_opened = false;
        let mut j = 0;
        while j < b.len() {
            if in_block {
                let Some(k) = b[j..].windows(2).position(|w| w == b"*/") else {
                    break;
                };
                j += k + 2;
                in_block = false;
                def = step(def, j, None);
                continue;
            }
            if let Def::Done = def {
                match b[j..].iter().position(|c| matches!(c, b'{' | b'}' | b'/')) {
                    Some(k) => j += k,
                    None => break,
                }
            }
            match (b[j], b.get(j + 1)) {
                (b'/', Some(b'/')) => break,
                (b'/', Some(b'*')) => {
                    in_block = true;
                    j += 2;
                    continue;
                }
                (b'{', _) => {
                    depth += 1;
                    line_opened = true;
                }
                (b'}', _) => depth -= 1,
                _ => {}
            }
            def = step(def, j, Some(b[j]));
            j += 1;
        }
        match def {
            Def::Name(s, e) if e > s => {
                open = Some((line[s..e].to_string(), i, began_in_block));
                opened_brace = line_opened;
            }
            _ => opened_brace |= line_opened,
        }
        if depth == 0 && opened_brace {
            if let Some((name, start, began_in_block)) = open.take() {
                spans.push(FnSpan {
                    name,
                    start,
                    end: i + 1,
                    isolated: !began_in_block && !in_block,
                });
            }
            opened_brace = false;
        }
    }
    spans
}

/// Whether a plan contains any budget-fallback provenance. Such plans
/// must never reach the persistent store (they encode a degraded run,
/// not the analysis of the source).
pub fn plan_is_degraded(plan: &Plan) -> bool {
    plan.provenance
        .values()
        .any(|p| matches!(p, PlanProvenance::FallbackFull))
}

impl Backend {
    /// Takes over a strict retained run's artifacts. The driver shares
    /// them with nothing, so every `Arc` unwraps without a copy.
    fn from_run(r: RetainedRun) -> (Backend, PipelineReport) {
        fn own<T>(a: Option<Arc<T>>) -> T {
            Arc::into_inner(a.expect("a strict guided run builds every artifact"))
                .expect("a retained run shares no artifact")
        }
        let run = r.run;
        let backend = Backend {
            module: run.module,
            env: r.env,
            inline: r.inline,
            pa: own(run.pa),
            modref: r.modref.expect("a full-mode run builds memory SSA"),
            memssa: own(run.memssa),
            vfg: own(run.vfg),
            cfgs: r.cfgs,
            gamma: run.gamma.expect("a strict guided run resolves"),
            redirected: run.opt2_redirected,
            plan: run.plan,
            demand: None,
        };
        (backend, run.report)
    }
}

/// What splicing a new body of one function into a retained module can
/// change (see [`relower_function`]), copied before the splice: the old
/// function, the objects of its range, and the lengths of the object and
/// type tables. The splice gates read the old side of their diffs here.
struct Snapshot {
    fid: FuncId,
    func: Function,
    /// The function's `[lo, hi)` range in the object table.
    range: (usize, usize),
    objects: Vec<ObjectData>,
    objects_len: usize,
    types_len: usize,
    /// The function's memory SSA before the splice replaced it (`None`
    /// until it does; the inner `None` when the function had none).
    memssa: Option<Option<FuncMemSsa>>,
}

impl Snapshot {
    fn take(b: &Backend, fid: FuncId) -> Snapshot {
        let m = &b.module;
        let range = b.env.obj_ranges[fid.index()];
        Snapshot {
            fid,
            func: m.funcs[fid].clone(),
            range,
            objects: m.objects.raw()[range.0..range.1].to_vec(),
            objects_len: m.objects.len(),
            types_len: m.types.len(),
            memssa: None,
        }
    }

    /// Puts the snapshot back into `b`. A module that is still shared
    /// was never written: every write goes through `Arc::make_mut`.
    fn restore(&mut self, b: &mut Backend) {
        if let Some(m) = Arc::get_mut(&mut b.module) {
            m.funcs[self.fid] = std::mem::replace(&mut self.func, Function::new("", None));
            m.objects.truncate(self.objects_len);
            let objects = std::mem::take(&mut self.objects);
            for (i, o) in (self.range.0..).zip(objects) {
                m.objects[ObjId::from_usize(i)] = o;
            }
            m.types.truncate(self.types_len);
        }
        match self.memssa.take() {
            Some(Some(fs)) => {
                b.memssa.funcs.insert(self.fid, fs);
            }
            Some(None) => {
                b.memssa.funcs.remove(&self.fid);
            }
            None => {}
        }
        // A read since the splice may have computed the entry from the
        // new body.
        b.cfgs.invalidate(self.fid);
    }
}

/// An edit spliced into a backend in place. Unless committed, dropping
/// the guard restores the snapshot: a refused gate, a bad body and an
/// unwinding panic all leave the backend as it was.
struct Splice<'a> {
    b: &'a mut Backend,
    old: Snapshot,
    committed: bool,
}

impl<'a> Splice<'a> {
    fn new(b: &'a mut Backend, fid: FuncId) -> Splice<'a> {
        let old = Snapshot::take(b, fid);
        Splice {
            b,
            old,
            committed: false,
        }
    }

    fn commit(mut self) {
        self.committed = true;
    }
}

impl Drop for Splice<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.old.restore(self.b);
        }
    }
}

impl Engine {
    /// Builds an engine with the serve preset (the paper's `Usher`
    /// configuration at `O0+IM`, labelled `serve`; the label is excluded
    /// from cache keys).
    ///
    /// # Errors
    ///
    /// Fails when the disk store directory cannot be opened.
    pub fn new(cfg: EngineConfig) -> Result<Engine, String> {
        let opts = PipelineOptions::from_config(Config::USHER)
            .at_level(OptLevel::O0Im)
            .labelled("serve");
        let knobs = opts.guided.expect("USHER preset is guided");
        let io = cfg.io.clone();
        let disk = match (&cfg.store_dir, cfg.use_cache) {
            (Some(dir), true) => Some(
                DiskStore::open_with_io(dir, cfg.store_cap_bytes, io.clone())
                    .map_err(|e| format!("cannot open store dir {}: {e}", dir.display()))?,
            ),
            _ => None,
        };
        // WAL placement: an explicit path always wins; otherwise it
        // rides alongside the disk tier (and only the disk tier — the
        // default must not create the store dir under `--no-cache`).
        let wal_path = if !cfg.wal_enabled {
            None
        } else if let Some(p) = &cfg.wal_path {
            if let Some(parent) = p.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            Some(p.clone())
        } else {
            disk.is_some()
                .then(|| cfg.store_dir.as_ref().map(|d| d.join("sessions.wal")))
                .flatten()
        };
        let mut engine = Engine {
            opts,
            knobs,
            pipeline: Pipeline::new().without_cache().with_threads(cfg.threads),
            cache: ArtifactCache::new(),
            disk,
            use_cache: cfg.use_cache,
            sessions: HashMap::new(),
            next_session: 1,
            counters: Counters::default(),
            last_solver: SolverStats::default(),
            wal: None,
            replay: ReplaySummary::default(),
        };
        if let Some(path) = wal_path {
            engine.recover_from_wal(&path, &io);
        }
        Ok(engine)
    }

    // -- WAL recovery --------------------------------------------------

    /// Replays the session WAL, then atomically rewrites it compacted:
    /// one `open` record per surviving session carrying its *current*
    /// source and edit count (sound by the serve-equivalence invariant,
    /// and it physically truncates any corrupt tail so new appends can
    /// never land behind a bad line).
    fn recover_from_wal(&mut self, path: &Path, io: &FaultIo) {
        let info = Wal::read(path, io);
        self.replay.records_dropped = info.dropped;

        // Closed sessions drop out entirely — their computations are
        // not replayed, but their ids stay consumed.
        let mut closed: HashSet<u64> = HashSet::new();
        let mut max_sid = 0;
        for r in &info.records {
            max_sid = max_sid.max(r.sid());
            if let WalRecord::Close { sid } = r {
                closed.insert(*sid);
            }
        }
        let mut per_session: BTreeMap<u64, Vec<&WalRecord>> = BTreeMap::new();
        for r in &info.records {
            if !closed.contains(&r.sid()) && !matches!(r, WalRecord::Close { .. }) {
                per_session.entry(r.sid()).or_default().push(r);
            }
        }

        // Replay is internal work: request counters must describe what
        // clients asked of *this* process, so they are restored after.
        let counters_before = self.counters;
        for (sid, records) in per_session {
            if self.replay_session(sid, &records).is_err() {
                self.sessions.remove(&sid);
                self.replay.failures += 1;
            }
        }
        self.counters = counters_before;
        self.next_session = self.next_session.max(max_sid + 1);
        self.replay.sessions_recovered = self.sessions.len() as u64;

        let live: Vec<WalRecord> = {
            let mut sids: Vec<u64> = self.sessions.keys().copied().collect();
            sids.sort_unstable();
            sids.iter()
                .map(|sid| {
                    let s = &self.sessions[sid];
                    WalRecord::Open {
                        sid: *sid,
                        warm: matches!(s.state, SessionState::Warm { .. }),
                        edits: s.edits,
                        source: s.text.source().to_string(),
                    }
                })
                .collect()
        };
        self.wal = Some(Wal::create(path, io, &live));
    }

    /// Re-runs one session's recorded computations. `self.wal` is still
    /// `None` here, so nothing re-appends.
    fn replay_session(&mut self, sid: u64, records: &[&WalRecord]) -> Result<(), ()> {
        let Some(WalRecord::Open {
            warm,
            edits,
            source,
            ..
        }) = records.first()
        else {
            return Err(()); // edits without an open: unrecoverable
        };
        let opened = self.open_session(sid, source, *edits, *warm, None);
        // A warm probe that hits never errors, so anything else missed:
        // the session is recomputed cold and the miss recorded.
        if *warm && !matches!(opened, Ok(("warm", _))) {
            self.replay.store_misses += 1;
            self.replay.fallbacks.push((sid, "wal-store-miss"));
        }
        opened.map_err(|_| ())?;
        for r in &records[1..] {
            let WalRecord::Edit { func, body, .. } = r else {
                return Err(());
            };
            self.edit(sid, func, body).map_err(|_| ())?;
            self.replay.edits_replayed += 1;
        }
        Ok(())
    }

    /// The startup replay summary (empty when no WAL was configured).
    #[must_use]
    pub fn replay(&self) -> &ReplaySummary {
        &self.replay
    }

    /// Fsyncs the WAL (graceful shutdown; appends already sync).
    pub fn flush_wal(&mut self) {
        if let Some(w) = &mut self.wal {
            w.sync();
        }
    }

    // -- two-tier cache ------------------------------------------------

    /// Inserts one program's module, Γ and plan into the memory tier,
    /// under the driver's frontend, resolve and plan keys.
    fn remember(&self, sk: u64, m: &Arc<Module>, g: &Arc<Gamma>, redirected: usize, p: &Arc<Plan>) {
        let o = &self.opts;
        self.cache
            .insert(o.frontend_key(sk), Artifact::Module(m.clone()));
        let rk = o.resolve_key(sk, &self.knobs);
        self.cache
            .insert(rk, Artifact::Gamma(g.clone(), redirected));
        self.cache.insert(o.plan_key(sk), Artifact::Plan(p.clone()));
    }

    /// Persists a completed full analysis into both tiers: module, Γ and
    /// plan, the three artifacts [`Engine::warm_probe`] reads back. The
    /// memory tier shares them with the session by `Arc`; the disk tier
    /// writes them as one entry under the plan key, so a crash or an
    /// eviction never leaves part of a program behind. Degraded plans
    /// are refused (serve's unbudgeted runs cannot produce them, but the
    /// invariant is enforced here, not assumed).
    fn persist(&self, sk: u64, b: &Backend) {
        if !self.use_cache || plan_is_degraded(&b.plan) {
            return;
        }
        self.remember(sk, &b.module, &b.gamma, b.redirected, &b.plan);
        if let Some(disk) = &self.disk {
            let payload = codec::encode_analysis(&b.module, &b.gamma, b.redirected, &b.plan);
            disk.store(self.opts.plan_key(sk), &payload);
        }
    }

    // -- full pipeline -------------------------------------------------

    /// Runs the whole pipeline over `src` through the driver's retained
    /// entry, strict, within the `remaining` deadline. Nothing in the
    /// engine changes: the caller commits the backend or drops it.
    fn compute(
        &self,
        sid: u64,
        src: &str,
        remaining: Option<Duration>,
    ) -> Result<(Backend, PipelineReport), DriverError> {
        let ms = remaining.map(|d| d.as_nanos().div_ceil(1_000_000) as u64);
        let opts = self.opts.clone().strict(true).with_deadline_ms(ms);
        let run = self
            .pipeline
            .run_retained(format!("session-{sid}"), src, opts)?;
        Ok(Backend::from_run(run))
    }

    /// Maps a strict driver failure onto the protocol's error kinds:
    /// `bad` for a program that does not compile (message prefixed with
    /// `prefix`), `deadline-expired` with the `expired` detail, and
    /// `internal-panic` for a contained stage panic (or, unreachable with
    /// no step budget, an exhausted one).
    fn refuse(
        &mut self,
        e: DriverError,
        bad: &'static str,
        prefix: &str,
        expired: &str,
    ) -> RequestError {
        match e {
            DriverError::Compile(e) => {
                self.counters.user_errors += 1;
                RequestError::new(bad, format!("{prefix}{e}"))
            }
            DriverError::DeadlineExceeded { .. } => {
                self.counters.deadline_expired += 1;
                RequestError::new("deadline-expired", expired)
            }
            e => RequestError::new("internal-panic", e.to_string()),
        }
    }

    // -- requests ------------------------------------------------------

    /// Warm path probe: the program's module, Γ and plan from the memory
    /// tier when it holds all three, otherwise from the one disk entry
    /// that holds them together, which then refills the memory tier.
    fn warm_probe(&self, sk: u64) -> Option<(Arc<Module>, Arc<Gamma>, Arc<Plan>)> {
        if !self.use_cache {
            return None;
        }
        let o = &self.opts;
        let lookup = |key| self.cache.lookup_verified(key).0;
        if let Some(Artifact::Module(m)) = lookup(o.frontend_key(sk)) {
            let rk = o.resolve_key(sk, &self.knobs);
            if let (Some(Artifact::Gamma(g, _)), Some(Artifact::Plan(p))) =
                (lookup(rk), lookup(o.plan_key(sk)))
            {
                return Some((m, g, p));
            }
        }
        let payload = self.disk.as_ref()?.load(o.plan_key(sk))?;
        let (m, g, redirected, p) = codec::decode_analysis(&payload).ok()?;
        let (m, g, p) = (Arc::new(m), Arc::new(g), Arc::new(p));
        self.remember(sk, &m, &g, redirected, &p);
        Some((m, g, p))
    }

    /// Builds the session `sid` for `src` and inserts it: warm from the
    /// cache tiers when `probe` is set and they hold the program,
    /// otherwise cold through [`Engine::compute`] before `deadline`. The
    /// WAL records the open before the store persists it: a kill
    /// between the two recovers the session by recomputing, whereas the
    /// reverse order would lose an acknowledged session. Returns the
    /// mode (`"warm"` or `"cold"`) and the run's report; on an error no
    /// session was created.
    fn open_session(
        &mut self,
        sid: u64,
        src: &str,
        edits: u64,
        probe: bool,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, PipelineReport), DriverError> {
        let text = Text::new(src);
        let spans = scan_spans(&text);
        let sk = tinyc_source_key(text.source());
        let warm = if probe { self.warm_probe(sk) } else { None };
        let (state, mode, report) = match warm {
            Some((module, gamma, plan)) => {
                let mut report =
                    PipelineReport::new(format!("session-{sid}"), &self.opts, Vec::new());
                report.functions_total = module.funcs.len();
                let state = SessionState::Warm {
                    module,
                    gamma,
                    plan,
                };
                (state, "warm", report)
            }
            None => {
                let remaining = deadline.map(|t| t.saturating_duration_since(Instant::now()));
                let (backend, report) = self.compute(sid, text.source(), remaining)?;
                self.last_solver = backend.pa.stats;
                (SessionState::Ready(Box::new(backend)), "cold", report)
            }
        };
        if let Some(w) = &mut self.wal {
            w.append_line(&open_line(sid, mode == "warm", edits, text.source()));
        }
        if let SessionState::Ready(b) = &state {
            self.persist(sk, b);
        }
        let session = Session {
            text,
            spans,
            edits,
            state,
        };
        self.sessions.insert(sid, session);
        Ok((mode, report))
    }

    /// Analyzes a program, creating a session. Serves entirely from the
    /// cache tiers when module, gamma and plan are all present (`warm`);
    /// otherwise runs the full pipeline (`cold`) and populates both
    /// tiers.
    ///
    /// # Errors
    ///
    /// Returns the first front-end error for invalid source.
    pub fn analyze(&mut self, src: &str) -> Result<AnalyzeOutcome, String> {
        self.analyze_within(src, None).map_err(|e| e.detail)
    }

    /// [`Engine::analyze`] under an optional deadline, with structured
    /// errors.
    ///
    /// # Errors
    ///
    /// `"bad-source"` for invalid programs; `"deadline-expired"` when
    /// the remaining deadline ran out before or during the pipeline
    /// (polled at stage boundaries); `"internal-panic"` when a stage
    /// panicked. The engine is left unchanged in every case.
    pub fn analyze_within(
        &mut self,
        src: &str,
        deadline: Option<Duration>,
    ) -> Result<AnalyzeOutcome, RequestError> {
        let start = Instant::now();
        if deadline.is_some_and(|d| d.is_zero()) {
            self.counters.deadline_expired += 1;
            return Err(RequestError::new(
                "deadline-expired",
                "deadline expired before analysis started",
            ));
        }
        let mem0 = self.cache.stats();
        let disk0 = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        let sid = self.next_session;
        let deadline = deadline.and_then(|d| start.checked_add(d));
        let (mode, mut report) = self
            .open_session(sid, src, 0, true, deadline)
            .map_err(|e| {
                self.refuse(
                    e,
                    "bad-source",
                    "",
                    "deadline expired during analysis; no session was created",
                )
            })?;
        if mode == "warm" {
            self.counters.analyzes_warm += 1;
        } else {
            self.counters.analyzes_cold += 1;
            self.counters.pointer_solves += 1;
        }
        self.next_session += 1;
        let mem1 = self.cache.stats();
        let disk1 = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        report.cache_hits = mem1.hits - mem0.hits + (disk1.hits - disk0.hits) as usize;
        report.cache_misses = mem1.misses - mem0.misses + (disk1.misses - disk0.misses) as usize;
        report.cache_corrupt_recovered = mem1.corrupt_recovered - mem0.corrupt_recovered
            + (disk1.corrupt_recovered - disk0.corrupt_recovered) as usize;
        report.total_seconds = start.elapsed().as_secs_f64();
        Ok(AnalyzeOutcome {
            session_id: sid,
            mode,
            functions_total: report.functions_total,
            seconds: start.elapsed().as_secs_f64(),
            report,
        })
    }

    /// Applies an edit: replaces (or appends) one function definition and
    /// re-analyzes, incrementally when the gates allow it.
    ///
    /// # Errors
    ///
    /// User errors (unknown session, malformed or semantically invalid
    /// new body) leave the session completely unchanged.
    pub fn edit(&mut self, sid: u64, func: &str, body: &str) -> Result<EditOutcome, String> {
        self.edit_within(sid, func, body, None)
            .map_err(|e| e.detail)
    }

    /// [`Engine::edit`] under an optional deadline, with structured
    /// errors.
    ///
    /// # Errors
    ///
    /// `"unknown-session"`, `"bad-edit"` (malformed or semantically
    /// invalid body), `"deadline-expired"`, or `"internal-panic"` when a
    /// stage of the fallback recompute panicked. Every error path leaves
    /// the session completely unchanged.
    pub fn edit_within(
        &mut self,
        sid: u64,
        func: &str,
        body: &str,
        deadline: Option<Duration>,
    ) -> Result<EditOutcome, RequestError> {
        let start = Instant::now();
        if deadline.is_some_and(|d| d.is_zero()) {
            self.counters.deadline_expired += 1;
            return Err(RequestError::new(
                "deadline-expired",
                "deadline expired before the edit started",
            ));
        }
        if !self.sessions.contains_key(&sid) {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "unknown-session",
                format!("unknown session {sid}"),
            ));
        }

        // Parse and validate the replacement definition up front.
        let mut stages = Vec::new();
        let t = Instant::now();
        let prog = match parser::parse(body) {
            Ok(p) => p,
            Err(e) => {
                self.counters.user_errors += 1;
                return Err(RequestError::new("bad-edit", format!("edit body: {e}")));
            }
        };
        stages.push(ran(Stage::Parse, t));
        if !prog.structs.is_empty() || !prog.globals.is_empty() || prog.funcs.len() != 1 {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "bad-edit",
                "edit body must be exactly one function definition",
            ));
        }
        let def = &prog.funcs[0];
        if def.name != func {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "bad-edit",
                format!(
                    "edit names function {func:?} but body defines {:?}",
                    def.name
                ),
            ));
        }

        // The source text changes only when the edit commits: the body's
        // lines replace the function's span, or follow the last line.
        let body_text = Text::new(body);
        let session = &self.sessions[&sid];
        let at = session.spans.iter().position(|s| s.name == func);
        let at = at.unwrap_or(session.spans.len());

        // Everything the splice phase needs, gathered up front so the
        // mutable session borrow below stays field-local.
        let bopts = self.knobs.build_opts();
        let gopts = self.opts.guided_opts().expect("the serve preset is guided");
        let depth = self.knobs.context_depth;
        let label = self.opts.label.clone();

        // Fast path: only for sessions with a retained backend and an
        // in-place replacement. The body is spliced into the retained
        // module itself, under a guard that restores the module on every
        // way out but a commit. It yields the edit's report, or the
        // reason it must fall back.
        let fast: Result<PipelineReport, &'static str> = 'fast: {
            let session = self.sessions.get_mut(&sid).expect("checked above");
            let Some(span) = session.spans.get(at) else {
                break 'fast Err("new-function");
            };
            let SessionState::Ready(b) = &mut session.state else {
                break 'fast Err("backend-cold");
            };
            // A comment that opens before the span or closes after it
            // would change meaning with the span's lines: recompile.
            if !span.isolated {
                break 'fast Err("comment-straddles-span");
            }
            let Some(fid) = b.env.funcs.get(func).map(|t| t.0) else {
                break 'fast Err("unknown-function");
            };
            if b.inline.involved.contains(&fid) {
                break 'fast Err("inline-involved");
            }
            let mut splice = Splice::new(b, fid);
            let b = &mut *splice.b;
            let t = Instant::now();
            // Copies the module only while the memory tier shares it: on
            // a session's first edit after a full analysis.
            let m = Arc::make_mut(&mut b.module);
            let relowered = match relower_function(m, &b.env, def) {
                Ok(r) => r,
                Err(RelowerError::Lower(e)) => {
                    self.counters.user_errors += 1;
                    return Err(RequestError::new("bad-edit", format!("edit body: {e}")));
                }
                Err(RelowerError::Blocked(blocked)) => {
                    break 'fast Err(relower_reason(&blocked));
                }
            };
            stages.push(ran(Stage::Lower, t));
            if is_inline_target(m, fid) {
                break 'fast Err("inline-target");
            }
            if raw_body_references_involved(m, fid, &b.inline) {
                break 'fast Err("calls-inline-target");
            }
            let t = Instant::now();
            let promoted = relowered.promote(m, &b.env);
            stages.push(ran(Stage::Mem2Reg, t));
            if let Err(blocked) = promoted {
                break 'fast Err(relower_reason(&blocked));
            }
            let old = &splice.old;
            if !pa_reusable(old, m, &b.pa) {
                break 'fast Err("pointer-structure-changed");
            }

            // All gates passed. The retained pointer analysis is
            // observably identical on the new module (the blinded bodies
            // seed the same constraints), which the debug build
            // re-derives and asserts via the mod/ref summaries.
            //
            // Early cutoff: a body that differs only in constants has the
            // same memory SSA, VFG, Γ, Opt II result and plan, up to the
            // operands planning copies (a constant has no points-to set
            // and no value-flow node of its own). The debug build rebuilds
            // them on the cutoff path and asserts the reuse.
            let value_flow_unchanged = value_flow_reusable(old, m);
            let m: &Module = &b.module;
            #[cfg(debug_assertions)]
            {
                let mr = usher_vfg::modref_summaries(m, &b.pa);
                debug_assert_eq!(mr.mods, b.modref.mods, "gated edit must preserve mod sets");
                debug_assert_eq!(mr.refs, b.modref.refs, "gated edit must preserve ref sets");
                if value_flow_unchanged {
                    debug_assert_value_flow_reuse(b, bopts, fid, depth);
                }
            }

            b.cfgs.invalidate(fid);
            let mut rebuilt = None;
            if value_flow_unchanged {
                for stage in [Stage::MemSsa, Stage::VfgBuild, Stage::Resolve] {
                    stages.push(StageTiming {
                        stage,
                        seconds: 0.0,
                        cached: true,
                    });
                }
            } else {
                let t = Instant::now();
                let unlimited = &Budget::unlimited();
                let fs = build_function_ssa_budgeted(m, &b.pa, fid, &b.cfgs, &b.modref, unlimited)
                    .expect("unlimited budgets never exhaust");
                splice.old.memssa = Some(match fs {
                    Some(fs) => b.memssa.funcs.insert(fid, fs),
                    None => b.memssa.funcs.remove(&fid),
                });
                stages.push(ran(Stage::MemSsa, t));
                let t = Instant::now();
                let vfg = build_with_budgeted(m, &b.pa, &b.memssa, &b.cfgs, bopts, unlimited)
                    .expect("unlimited budgets never exhaust");
                stages.push(ran(Stage::VfgBuild, t));
                let t = Instant::now();
                let out = redundant_check_elimination_budgeted(
                    m, &b.pa, &b.memssa, &vfg, &b.cfgs, depth, unlimited,
                )
                .result;
                stages.push(ran(Stage::Resolve, t));
                rebuilt = Some((vfg, out));
            }
            // The cutoff keeps the retained plan and rebinds only the
            // operands planning copies from the edited instructions.
            let t = Instant::now();
            let (plan, rebinds) = match &rebuilt {
                Some((vfg, out)) => {
                    let plan = guided_plan(m, &b.pa, &b.memssa, vfg, &out.gamma, gopts, label);
                    (Some(plan), Vec::new())
                }
                None => (None, plan_rebinds(&b.plan, m, fid)),
            };
            stages.push(StageTiming {
                cached: plan.is_none(),
                ..ran(Stage::Instrument, t)
            });

            // Commit: nothing below can fail.
            if let Some((vfg, out)) = rebuilt {
                b.vfg = vfg;
                b.gamma = Arc::new(out.gamma);
                b.redirected = out.redirected;
            } else {
                self.counters.edits_value_flow_unchanged += 1;
            }
            if let Some(plan) = plan {
                b.plan = Arc::new(plan);
            } else if !rebinds.is_empty() {
                // Copies the plan only while the memory tier shares it.
                apply_rebinds(Arc::make_mut(&mut b.plan), rebinds);
            }
            #[cfg(debug_assertions)]
            if value_flow_unchanged {
                debug_assert_plan_rebind(b, gopts, &self.opts.label);
            }
            // Any edit starts a new memo epoch, even one that keeps the
            // VFG the memoized demand verdicts were computed on.
            b.demand = None;
            self.counters.edits_incremental += 1;
            let mut report = PipelineReport::new(format!("session-{sid}"), &self.opts, stages);
            report.set_artifacts(
                &b.module,
                Some(&b.pa),
                Some(&b.vfg),
                Some(&b.gamma),
                b.redirected,
                &b.plan,
            );
            splice.commit();
            Ok(report)
        };

        let (mut report, fallback_reason) = match fast {
            Ok(report) => (report, None),
            Err(reason) => {
                // Sound fallback: full recompute of the edited source,
                // with the reason recorded (honest provenance, never
                // silent). A compile error here means the edited program
                // does not compile as a whole (e.g. a signature change
                // whose callers were not updated): user error, session
                // unchanged.
                let session = &self.sessions[&sid];
                let n = session.text.len();
                let (lo, hi) = session.spans.get(at).map_or((n, n), |s| (s.start, s.end));
                let canon = session.text.source_with(lo, hi, &body_text);
                let remaining = deadline.map(|d| d.saturating_sub(start.elapsed()));
                let (backend, mut report) = match self.compute(sid, &canon, remaining) {
                    Ok(c) => c,
                    Err(e) => return Err(self.refuse(
                        e,
                        "bad-edit",
                        "edit body: ",
                        "deadline expired during the fallback recompute; the session is unchanged",
                    )),
                };
                self.persist(tinyc_source_key(&canon), &backend);
                self.counters.pointer_solves += 1;
                self.counters.edits_fallback += 1;
                self.last_solver = backend.pa.stats;
                report.degrade_events.push(DegradeEvent {
                    stage: "serve-edit",
                    reason,
                    detail: format!("full recompute of session {sid} after edit of {func:?}"),
                });
                let session = self.sessions.get_mut(&sid).expect("checked above");
                session.state = SessionState::Ready(Box::new(backend));
                (report, Some(reason))
            }
        };
        let functions_recomputed = if fallback_reason.is_some() {
            report.functions_total
        } else {
            1
        };
        let session = self.sessions.get_mut(&sid).expect("checked above");
        if let SessionState::Ready(b) = &session.state {
            debug_assert!(
                b.cfgs.is_fresh(&b.module),
                "an edit must leave no stale shared CFG or dominator tree"
            );
        }
        session.splice(at, &body_text);
        session.edits += 1;
        self.counters.functions_recomputed += functions_recomputed as u64;
        if let Some(w) = &mut self.wal {
            w.append(&WalRecord::Edit {
                sid,
                func: func.to_string(),
                body: body.to_string(),
            });
        }
        report.total_seconds = start.elapsed().as_secs_f64();
        Ok(EditOutcome {
            incremental: fallback_reason.is_none(),
            fallback_reason,
            functions_recomputed,
            seconds: start.elapsed().as_secs_f64(),
            report,
        })
    }

    /// Reads the current analysis results of a session.
    ///
    /// # Errors
    ///
    /// `"unknown-session"` for session ids that were never created (or
    /// already closed) — the classic "query before analyze";
    /// `"degraded-session"` when the session's plan carries budget-
    /// fallback provenance, in which case fingerprints would describe a
    /// degraded artifact, not the analysis of the source. Both are
    /// recorded in the user-error counter.
    pub fn query(&mut self, sid: u64) -> Result<QueryOutcome, RequestError> {
        let Some(session) = self.sessions.get(&sid) else {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "unknown-session",
                format!("unknown session {sid}; run analyze first"),
            ));
        };
        let (module, gamma, plan): (&Module, &Gamma, &Plan) = match &session.state {
            SessionState::Warm {
                module,
                gamma,
                plan,
            } => (module, gamma, plan),
            SessionState::Ready(b) => (&b.module, &b.gamma, &b.plan),
        };
        if plan_is_degraded(plan) {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "degraded-session",
                format!(
                    "session {sid} carries budget-fallback provenance; its plan \
                     describes a degraded run, not the analysis of the source"
                ),
            ));
        }
        let pf = plan_fingerprint(plan);
        let gf = gamma_fingerprint(gamma);
        Ok(QueryOutcome {
            plan_digest: fnv_digest(&pf),
            gamma_digest: fnv_digest(&gf),
            plan_fingerprint: pf,
            gamma_fingerprint: gf,
            bot_nodes: gamma.bot_count(),
            provenance: plan.provenance_counts(),
            ops: plan.stats.ops,
            checks: plan.stats.checks,
            functions_total: module.funcs.len(),
            edits: session.edits,
        })
    }

    /// Answers one demand point query: "may check `check` observe an
    /// undefined value?" — via a sparse backward walk over the session's
    /// retained VFG, without re-running resolution. Verdicts memoize in
    /// a per-session [`DemandEngine`], built lazily on the first query
    /// and dropped on every edit (the memo table is only valid against
    /// the VFG it was built on; [`QueryUseOutcome::epoch`] exposes the
    /// invalidation generation).
    ///
    /// # Errors
    ///
    /// `"unknown-session"`, `"degraded-session"` (see [`Engine::query`]),
    /// `"warm-session"` when the session was reconstructed purely from
    /// cached artifacts and retains no VFG to walk, and
    /// `"bad-check-index"` for out-of-range check indices. All are
    /// recorded in the user-error counter.
    pub fn query_use(&mut self, sid: u64, check: usize) -> Result<QueryUseOutcome, RequestError> {
        self.query_use_within(sid, check, None)
    }

    /// [`Engine::query_use`] under an optional deadline: the remaining
    /// time becomes the demand walk's [`Budget`], so an over-deadline
    /// walk degrades to the sound incomplete verdict
    /// ([`QueryUseOutcome::complete`] `false`) instead of blocking the
    /// engine — and is counted as a deadline expiry.
    ///
    /// # Errors
    ///
    /// The kinds of [`Engine::query_use`] plus `"deadline-expired"`
    /// when the deadline was already gone on entry.
    pub fn query_use_within(
        &mut self,
        sid: u64,
        check: usize,
        deadline: Option<Duration>,
    ) -> Result<QueryUseOutcome, RequestError> {
        let start = Instant::now();
        let budget = Budget::new(None, deadline);
        if budget.deadline_exceeded() {
            self.counters.deadline_expired += 1;
            return Err(RequestError::new(
                "deadline-expired",
                "deadline expired before the query started",
            ));
        }
        let depth = self.knobs.context_depth;
        let Some(session) = self.sessions.get_mut(&sid) else {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "unknown-session",
                format!("unknown session {sid}; run analyze first"),
            ));
        };
        let edits = session.edits;
        let SessionState::Ready(b) = &mut session.state else {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "warm-session",
                "session was served entirely from the cache and retains no VFG; \
                 apply an edit (which promotes a backend) or analyze with \
                 --no-cache before issuing demand queries",
            ));
        };
        if plan_is_degraded(&b.plan) {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "degraded-session",
                format!(
                    "session {sid} carries budget-fallback provenance; demand \
                     verdicts would not describe a complete analysis"
                ),
            ));
        }
        let checks_total = b.vfg.checks.len();
        let Some(ch) = b.vfg.checks.get(check).cloned() else {
            self.counters.user_errors += 1;
            return Err(RequestError::new(
                "bad-check-index",
                format!("check index {check} out of range: session has {checks_total} checks"),
            ));
        };
        let eng = b
            .demand
            .get_or_insert_with(|| DemandEngine::new(&b.vfg, depth));
        let before = eng.stats();
        let verdict = eng.query(&b.vfg, ch.node, &budget);
        let after = eng.stats();
        if !verdict.complete && deadline.is_some() {
            self.counters.deadline_expired += 1;
        }
        let outcome = QueryUseOutcome {
            check_index: check,
            node: ch.node,
            check_kind: format!("{:?}", ch.kind),
            maybe_undef: verdict.bot,
            complete: verdict.complete,
            memo_hit: after.memo_hits > before.memo_hits,
            nodes_visited: after.nodes_visited - before.nodes_visited,
            refinements: after.refinements - before.refinements,
            checks_total,
            epoch: edits,
            seconds: start.elapsed().as_secs_f64(),
        };
        self.counters.demand_queries += 1;
        Ok(outcome)
    }

    /// Engine-wide statistics.
    pub fn stats(&self) -> EngineStats {
        let memory = self.cache.stats();
        let disk = self.disk.as_ref().map(|d| d.stats());
        let d = disk.unwrap_or_default();
        let hits = memory.hits as u64 + d.hits;
        let lookups = hits + memory.misses as u64 + d.misses;
        EngineStats {
            sessions: self.sessions.len(),
            counters: self.counters,
            memory,
            disk,
            warm_hit_ratio: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            last_solver: self.last_solver,
            sessions_recovered: self.replay.sessions_recovered,
            wal_records_dropped: self.replay.records_dropped,
            wal_store_misses: self.replay.store_misses,
            wal_enabled: self.wal.as_ref().is_some_and(Wal::enabled),
            wal_appends_failed: self.wal.as_ref().map_or(0, Wal::appends_failed),
        }
    }

    /// Removes a session and returns it, `None` when there was none.
    /// Freeing a session's text and retained analysis takes a while, so
    /// a caller that holds a lock drops it after letting go.
    pub fn close(&mut self, sid: u64) -> Option<Session> {
        let session = self.sessions.remove(&sid)?;
        if let Some(w) = &mut self.wal {
            w.append(&WalRecord::Close { sid });
        }
        Some(session)
    }

    /// The session's current source text.
    #[must_use]
    pub fn session_source(&self, sid: u64) -> Option<String> {
        self.sessions.get(&sid).map(|s| s.text.source().to_string())
    }
}

/// The timing of a `stage` that ran from `t` until now.
fn ran(stage: Stage, t: Instant) -> StageTiming {
    StageTiming {
        stage,
        seconds: t.elapsed().as_secs_f64(),
        cached: false,
    }
}

/// Maps a [`RelowerBlocked`] gate onto its static fallback-reason name.
fn relower_reason(b: &RelowerBlocked) -> &'static str {
    match b {
        RelowerBlocked::UnknownFunction => "unknown-function",
        RelowerBlocked::SignatureChanged => "signature-changed",
        RelowerBlocked::NewTypes => "new-types",
        RelowerBlocked::ObjectCountChanged => "object-count-changed",
    }
}

/// Whether the freshly re-lowered (raw) body of `fid` calls, or takes the
/// address of, any function involved in inlining. Such edits could change
/// what the inliner would have done on a cold run, so they fall back.
fn raw_body_references_involved(m: &Module, fid: FuncId, inline: &InlineTrace) -> bool {
    let mut found = false;
    let mut visit = |op: Operand| {
        found |= matches!(op, Operand::Func(g) if inline.involved.contains(&g));
    };
    for block in m.funcs[fid].blocks.iter() {
        for inst in &block.insts {
            inst.for_each_use(&mut visit);
            if let Inst::Call {
                callee: Callee::Direct(g),
                ..
            } = inst
            {
                visit(Operand::Func(*g));
            }
        }
        block.term.for_each_use(&mut visit);
    }
    found
}

/// Whether the old (snapshot) and new post-`mem2reg` bodies of the
/// spliced function are equal once both sides are blinded: every operand
/// an instruction or terminator reads goes through `blind_use`, every
/// instruction then through `blind_inst`, and each of the function's own
/// surviving objects through `blind_obj`. Params, entry, var types and
/// the block and instruction counts must match as they are. Only a pair
/// that differs is copied to blind it, so an edit that fails costs no
/// more than the walk up to its first real difference.
///
/// The edit gates call it twice:
///
/// - The pointer gate ([`pa_reusable`]) turns into `undef` every
///   operand the retained solution shows the solver never reads (a
///   constant, `undef`, or a non-pointer variable with empty points-to
///   and function-target sets, judged through the old function's
///   variables) in every position, sets every unary and binary operator
///   to one value, and blinds each object's `name` and `zero_init`.
///   Bodies equal under this blinding differ only where the solver's
///   `seed_inst` adds nothing: `operand_node` has no node for a constant
///   or `undef` and `operand_const_targets` no target, and a variable
///   whose sets are empty in the solution carries nothing through the
///   copy, load, store, gep or call constraint it feeds, whether it is
///   the value, the address, the base or the callee. An arithmetic
///   result seeds nothing, and the solver reads neither an object's name
///   nor whether it starts defined. So the retained [`PointerAnalysis`]
///   is still the least solution (and its loop info still holds, since
///   the CFG is equal).
/// - The value-flow cutoff ([`value_flow_reusable`]) reads every integer
///   constant as `0` and compares objects in full (`zero_init` seeds the
///   VFG). No stage reads a constant's value: the VFG maps every constant
///   to the `T` root and registers no check on one, the pointer solver
///   adds no constraint for one (so memory SSA, which reads only
///   points-to sets, is unchanged too), Opt II and the MFC read only
///   instruction kinds, operators and the CFG, and planning maps every
///   constant to a defined shadow. Planning only copies some operands
///   into its ops, which the cutoff rebinds ([`ShadowOp::rebind`]).
///
/// A promoted local has no object and no variable left, so an unused
/// scalar insert or removal passes both.
fn same_body(
    old: &Snapshot,
    m_new: &Module,
    blind_use: impl Fn(Operand) -> Operand,
    blind_inst: fn(&mut Inst),
    blind_obj: fn(&mut ObjectData),
) -> bool {
    fn eq_blind<T: Clone + PartialEq>(x: &T, y: &T, blind: impl Fn(&mut T)) -> bool {
        x == y || {
            let (mut x, mut y) = (x.clone(), y.clone());
            blind(&mut x);
            blind(&mut y);
            x == y
        }
    }
    let (fo, fnew) = (&old.func, &m_new.funcs[old.fid]);
    fo.params == fnew.params
        && fo.entry == fnew.entry
        && (fo.vars.iter().map(|v| v.ty)).eq(fnew.vars.iter().map(|v| v.ty))
        && fo.blocks.len() == fnew.blocks.len()
        && fo.blocks.iter().zip(fnew.blocks.iter()).all(|(x, y)| {
            x.insts.len() == y.insts.len()
                && eq_blind(&x.term, &y.term, |t: &mut Terminator| {
                    t.map_uses(&blind_use)
                })
                && (x.insts.iter().zip(&y.insts)).all(|(i, j)| {
                    eq_blind(i, j, |i: &mut Inst| {
                        i.map_uses(&blind_use);
                        blind_inst(i);
                    })
                })
        })
        && (old.objects.iter())
            .zip(&m_new.objects.raw()[old.range.0..old.range.1])
            .all(|(x, y)| eq_blind(x, y, blind_obj))
}

/// The pointer gate: whether the new body seeds the points-to solver
/// exactly as the old one did, so the retained solution stays valid.
/// Hides every operand the solver never reads, the arithmetic operators,
/// and each object's `name` and `zero_init` (see [`same_body`]).
fn pa_reusable(old: &Snapshot, m_new: &Module, pa: &PointerAnalysis) -> bool {
    let unread = |op| match op {
        Operand::Var(v)
            if m_new.types.is_pointer(old.func.vars[v].ty)
                || !pa.pts_var(old.fid, v).is_empty()
                || !pa.fn_targets(old.fid, v).is_empty() =>
        {
            op
        }
        Operand::Global(_) | Operand::Func(_) => op,
        _ => Operand::Undef,
    };
    same_body(
        old,
        m_new,
        unread,
        |i| match i {
            Inst::Un { op, .. } => *op = UnOp::Neg,
            Inst::Bin { op, .. } => *op = BinOp::Add,
            _ => {}
        },
        |o| {
            o.name.clear();
            o.zero_init = false;
        },
    )
}

/// The value-flow early cutoff: whether the new body differs from the
/// old one only in integer constants, its objects equal in full (see
/// [`same_body`]).
fn value_flow_reusable(old: &Snapshot, m_new: &Module) -> bool {
    let zero = |op| match op {
        Operand::Const(_) => Operand::Const(0),
        op => op,
    };
    same_body(old, m_new, zero, |_| {}, |_| {})
}

/// The shadow ops at `fid`'s instruction sites in `plan` that change
/// when each is rebound to the instruction now at its site
/// ([`ShadowOp::rebind`]), as `(after, site, ops)` replacements of whole
/// site lists. Empty when the plan already matches.
fn plan_rebinds(plan: &Plan, m: &Module, fid: FuncId) -> Vec<(bool, Site, Vec<ShadowOp>)> {
    let mut out = Vec::new();
    for (bb, block) in m.funcs[fid].blocks.iter_enumerated() {
        for (idx, inst) in block.insts.iter().enumerate() {
            let site = Site::new(fid, bb, idx);
            for (after, map) in [(false, &plan.before), (true, &plan.after)] {
                let Some(ops) = map.get(&site) else { continue };
                let mut rebound = ops.clone();
                rebound.iter_mut().for_each(|op| op.rebind(inst));
                if rebound != *ops {
                    out.push((after, site, rebound));
                }
            }
        }
    }
    out
}

fn apply_rebinds(plan: &mut Plan, rebinds: Vec<(bool, Site, Vec<ShadowOp>)>) {
    for (after, site, ops) in rebinds {
        let map = if after {
            &mut plan.after
        } else {
            &mut plan.before
        };
        map.insert(site, ops);
    }
}

/// Debug self-check of the cutoff's plan: the retained plan with its
/// operands rebound must equal a fresh plan of the edited module.
#[cfg(debug_assertions)]
fn debug_assert_plan_rebind(b: &Backend, gopts: usher_core::GuidedOpts, label: &str) {
    let m: &Module = &b.module;
    let fresh = guided_plan(m, &b.pa, &b.memssa, &b.vfg, &b.gamma, gopts, label);
    debug_assert_eq!(
        plan_fingerprint(&fresh),
        plan_fingerprint(&b.plan),
        "cutoff must keep the plan up to rebound operands"
    );
    debug_assert_eq!(fresh.name, b.plan.name);
    debug_assert_eq!(fresh.provenance, b.plan.provenance);
}

/// Debug self-check of the value-flow early cutoff: recomputing the
/// function's memory SSA, rebuilding the VFG and re-running Opt II on the
/// edited module must reproduce exactly the retained memory SSA, graph,
/// Γ and redirection count that the cutoff reuses.
#[cfg(debug_assertions)]
fn debug_assert_value_flow_reuse(b: &Backend, opts: usher_vfg::BuildOpts, fid: FuncId, k: usize) {
    let m: &Module = &b.module;
    let fs = usher_vfg::build_function_ssa(m, &b.pa, fid, &b.modref);
    debug_assert_eq!(
        fs.as_ref(),
        b.memssa.funcs.get(&fid),
        "cutoff must keep the function's memory SSA"
    );
    let cfgs = ModuleCfgs::new(m);
    let vfg = build_with_budgeted(m, &b.pa, &b.memssa, &cfgs, opts, &Budget::unlimited())
        .expect("unlimited budgets never exhaust");
    debug_assert_eq!(vfg.nodes, b.vfg.nodes, "cutoff must keep the VFG nodes");
    debug_assert_eq!(vfg.deps, b.vfg.deps, "cutoff must keep the dependence CSR");
    debug_assert_eq!(vfg.users, b.vfg.users, "cutoff must keep the user CSR");
    debug_assert_eq!(vfg.checks, b.vfg.checks, "cutoff must keep the checks");
    debug_assert_eq!(vfg.def_site, b.vfg.def_site, "cutoff must keep def sites");
    let out = usher_core::redundant_check_elimination(m, &b.pa, &b.memssa, &vfg, k);
    debug_assert_eq!(
        gamma_fingerprint(&out.gamma),
        gamma_fingerprint(&b.gamma),
        "cutoff must keep Γ"
    );
    debug_assert_eq!(out.redirected, b.redirected, "cutoff must keep Opt II");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "usher-engine-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SRC: &str = "int shared;
def helper0(int a) -> int {
    int x = a + 1;
    if (x) { return x * 2; }
    return 3;
}
def risky(int c) -> int {
    int x;
    if (c) { x = 1; }
    if (x) { return 1; }
    return 0;
}
def main(int c) {
    int *p;
    p = malloc(1);
    *p = helper0(c);
    shared = *p;
    print(risky(shared));
}
";

    fn oracle(src: &str) -> (String, String) {
        let m = usher_frontend::compile_o0im(src).expect("oracle compiles");
        let out = usher_core::run_config(&m, Config::USHER);
        let gamma = out.gamma.expect("guided config resolves");
        (plan_fingerprint(&out.plan), gamma_fingerprint(&gamma))
    }

    fn engine(cfg: EngineConfig) -> Engine {
        Engine::new(cfg).expect("engine opens")
    }

    #[test]
    fn cold_analysis_matches_reference_config() {
        let mut e = engine(EngineConfig::default());
        let out = e.analyze(SRC).unwrap();
        assert_eq!(out.mode, "cold");
        let q = e.query(out.session_id).unwrap();
        assert!(q.ops > 0, "risky() must produce shadow ops");
        let (pf, gf) = oracle(SRC);
        assert_eq!(q.plan_fingerprint, pf, "serve plan must equal run_config");
        assert_eq!(q.gamma_fingerprint, gf, "serve gamma must equal run_config");
        // A cold open is a driver run: the same stages in the same order.
        let batch = Pipeline::new()
            .run_source("t", SRC, e.opts.clone())
            .expect("compiles");
        let stages = |r: &PipelineReport| -> Vec<(&'static str, bool)> {
            r.stages
                .iter()
                .map(|t| (t.stage.name(), t.cached))
                .collect()
        };
        assert_eq!(stages(&out.report), stages(&batch.report));
        assert!(out.report.stages.iter().all(|t| !t.cached));
    }

    #[test]
    fn contained_stage_panics_refuse_the_request_and_change_nothing() {
        let mut e = engine(EngineConfig::default());
        e.opts.inject_panic = Some("resolve".to_string());
        let err = e.analyze_within(SRC, None).unwrap_err();
        assert_eq!(err.kind, "internal-panic", "{}", err.detail);
        assert!(err.detail.contains("injected"), "{}", err.detail);
        assert_eq!(e.stats().sessions, 0, "no session may be created");

        e.opts.inject_panic = None;
        let sid = e.analyze(SRC).unwrap().session_id;
        let before = e.query(sid).unwrap();
        let src_before = e.session_source(sid).unwrap();
        e.opts.inject_panic = Some("resolve".to_string());
        // An address-taken local forces the fallback recompute.
        let body = "def helper0(int a) -> int {
    int y = 7;
    int *q = &y;
    int x = a + 1;
    if (x) { return x * 2; }
    return 3;
}";
        let err = e.edit_within(sid, "helper0", body, None).unwrap_err();
        assert_eq!(err.kind, "internal-panic", "{}", err.detail);
        let after = e.query(sid).unwrap();
        assert_eq!(after.plan_digest, before.plan_digest);
        assert_eq!(after.gamma_digest, before.gamma_digest);
        assert_eq!(after.edits, 0);
        assert_eq!(e.session_source(sid).unwrap(), src_before);

        e.opts.inject_panic = None;
        let out = e.edit_within(sid, "helper0", body, None).unwrap();
        assert_eq!(out.fallback_reason, Some("object-count-changed"));
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(q.plan_fingerprint, pf);
        assert_eq!(q.gamma_fingerprint, gf);
    }

    #[test]
    fn second_analyze_is_warm_and_identical() {
        let mut e = engine(EngineConfig::default());
        let a = e.analyze(SRC).unwrap();
        let b = e.analyze(SRC).unwrap();
        assert_eq!(a.mode, "cold");
        assert_eq!(b.mode, "warm");
        let qa = e.query(a.session_id).unwrap();
        let qb = e.query(b.session_id).unwrap();
        assert_eq!(qa.plan_fingerprint, qb.plan_fingerprint);
        assert_eq!(qa.gamma_fingerprint, qb.gamma_fingerprint);
        assert!(e.stats().warm_hit_ratio > 0.0);
    }

    #[test]
    fn memory_tier_holds_what_serve_reads_and_shares_the_module() {
        let mut e = engine(EngineConfig::default());
        let a = e.analyze(SRC).unwrap();
        assert_eq!(a.mode, "cold");
        assert_eq!(e.stats().memory.entries, 3, "module, gamma and plan only");
        let other = SRC.replace("x * 2", "x * 5");
        assert_eq!(e.analyze(&other).unwrap().mode, "cold");
        assert_eq!(e.stats().memory.entries, 6);

        let SessionState::Ready(b) = &e.sessions[&a.session_id].state else {
            panic!("cold session must be Ready");
        };
        let module = b.module.clone();
        let key = e
            .opts
            .frontend_key(tinyc_source_key(Text::new(SRC).source()));
        let Some(Artifact::Module(cached)) = e.cache.lookup(key) else {
            panic!("cold analyze must cache its module");
        };
        assert!(Arc::ptr_eq(&module, &cached), "cache shares, not copies");

        let w = e.analyze(SRC).unwrap();
        assert_eq!(w.mode, "warm");
        let SessionState::Warm { module: warm, .. } = &e.sessions[&w.session_id].state else {
            panic!("second open must be Warm");
        };
        assert!(Arc::ptr_eq(&module, warm), "warm open returns the same Arc");
        assert_eq!(e.stats().memory.entries, 6);
    }

    #[test]
    fn no_cache_engine_never_hits_either_tier() {
        let dir = scratch_dir("nocache");
        let mut e = engine(EngineConfig {
            store_dir: Some(dir.clone()),
            use_cache: false,
            ..EngineConfig::default()
        });
        assert_eq!(e.analyze(SRC).unwrap().mode, "cold");
        assert_eq!(e.analyze(SRC).unwrap().mode, "cold");
        let st = e.stats();
        assert_eq!(st.memory.hits, 0);
        assert_eq!(st.memory.entries, 0);
        assert!(st.disk.is_none(), "--no-cache must bypass the disk tier");
        assert!(
            !dir.exists(),
            "--no-cache must not create or write the store dir"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_edit_recomputes_one_function_and_matches_cold() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let new_body = "def helper0(int a) -> int {
    int x = a + 7;
    if (x) { return x * 9; }
    return 4;
}";
        let out = e.edit(sid, "helper0", new_body).unwrap();
        assert!(
            out.incremental,
            "const-level edit must be incremental: {:?}",
            out.fallback_reason
        );
        assert_eq!(out.functions_recomputed, 1);
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(q.plan_fingerprint, pf, "incremental plan must equal cold");
        assert_eq!(q.gamma_fingerprint, gf, "incremental gamma must equal cold");
    }

    #[test]
    fn const_only_edit_keeps_value_flow_and_still_starts_a_new_epoch() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        assert!(e.query_use(sid, 0).unwrap().nodes_visited > 0);
        let stage = |out: &EditOutcome, s: Stage| {
            *out.report
                .stages
                .iter()
                .find(|t| t.stage == s)
                .expect("edit reports the stage")
        };
        let cmp_cold = |e: &mut Engine| {
            let q = e.query(sid).unwrap();
            let (pf, gf) = oracle(&e.session_source(sid).unwrap());
            assert_eq!(q.plan_fingerprint, pf);
            assert_eq!(q.gamma_fingerprint, gf);
        };

        // Constants only: the VFG, Γ and Opt II result are reused.
        let out = e
            .edit(
                sid,
                "helper0",
                "def helper0(int a) -> int {
    int x = a + 5;
    if (x) { return x * 6; }
    return 7;
}",
            )
            .unwrap();
        assert!(out.incremental, "{:?}", out.fallback_reason);
        assert_eq!(out.functions_recomputed, 1);
        assert_eq!(e.stats().counters.edits_value_flow_unchanged, 1);
        for s in [Stage::VfgBuild, Stage::Resolve] {
            let t = stage(&out, s);
            assert!(t.cached && t.seconds == 0.0, "{s:?} must be reused: {t:?}");
        }
        assert!(
            stage(&out, Stage::Instrument).cached,
            "the plan is kept, its operands rebound"
        );
        let post = e.query_use(sid, 0).unwrap();
        assert_eq!(post.epoch, 1, "a kept VFG still starts a new epoch");
        assert!(!post.memo_hit);
        cmp_cold(&mut e);

        // An int operand swap passes the pointer gate but changes value
        // flow: incremental, with the VFG rebuilt.
        let out = e
            .edit(
                sid,
                "helper0",
                "def helper0(int a) -> int {
    int x = a + 5;
    if (x) { return a * 6; }
    return 7;
}",
            )
            .unwrap();
        assert!(out.incremental, "{:?}", out.fallback_reason);
        assert_eq!(e.stats().counters.edits_value_flow_unchanged, 1);
        assert_eq!(e.stats().counters.edits_incremental, 2);
        assert!(!stage(&out, Stage::VfgBuild).cached);
        cmp_cold(&mut e);
    }

    #[test]
    fn structural_edit_falls_back_with_reason_and_matches_cold() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        // A new address-taken local survives `mem2reg` as an object, so
        // the object count changes. (A promotable local would not.)
        let new_body = "def helper0(int a) -> int {
    int y = 7;
    int *q = &y;
    int x = a + 1;
    if (x) { return x * 2; }
    return 3;
}";
        let out = e.edit(sid, "helper0", new_body).unwrap();
        assert!(!out.incremental);
        assert_eq!(out.fallback_reason, Some("object-count-changed"));
        assert!(out.functions_recomputed > 1);
        assert_eq!(out.report.degrade_events.len(), 1);
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(q.plan_fingerprint, pf);
        assert_eq!(q.gamma_fingerprint, gf);
    }

    #[test]
    fn warm_session_edit_promotes_backend_with_reason() {
        let mut e = engine(EngineConfig::default());
        e.analyze(SRC).unwrap();
        let warm = e.analyze(SRC).unwrap();
        assert_eq!(warm.mode, "warm");
        let out = e
            .edit(
                warm.session_id,
                "helper0",
                "def helper0(int a) -> int {
    int x = a + 3;
    if (x) { return x * 2; }
    return 3;
}",
            )
            .unwrap();
        assert!(!out.incremental);
        assert_eq!(out.fallback_reason, Some("backend-cold"));
        // Subsequent edits are incremental again.
        let out2 = e
            .edit(
                warm.session_id,
                "helper0",
                "def helper0(int a) -> int {
    int x = a + 4;
    if (x) { return x * 2; }
    return 3;
}",
            )
            .unwrap();
        assert!(
            out2.incremental,
            "post-promotion edit must be incremental: {:?}",
            out2.fallback_reason
        );
        let q = e.query(warm.session_id).unwrap();
        let (pf, _) = oracle(&e.session_source(warm.session_id).unwrap());
        assert_eq!(q.plan_fingerprint, pf);
    }

    #[test]
    fn new_function_edit_appends_and_falls_back() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let n0 = e.query(sid).unwrap().functions_total;
        let out = e
            .edit(sid, "extra", "def extra(int v) -> int { return v - 1; }")
            .unwrap();
        assert!(!out.incremental);
        assert_eq!(out.fallback_reason, Some("new-function"));
        assert_eq!(e.query(sid).unwrap().functions_total, n0 + 1);
    }

    #[test]
    fn bad_edit_leaves_session_untouched() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let before = e.query(sid).unwrap();
        let src_before = e.session_source(sid).unwrap();
        // Unknown name in the body: lowering error.
        let err = e
            .edit(
                sid,
                "helper0",
                "def helper0(int a) -> int { return nosuch + 1; }",
            )
            .unwrap_err();
        assert!(err.contains("edit body"), "{err}");
        // Syntactically broken body.
        assert!(e.edit(sid, "helper0", "def helper0(int a) -> {").is_err());
        // Name mismatch.
        assert!(e
            .edit(sid, "helper0", "def other(int a) -> int { return 1; }")
            .is_err());
        let after = e.query(sid).unwrap();
        assert_eq!(before.plan_fingerprint, after.plan_fingerprint);
        assert_eq!(e.session_source(sid).unwrap(), src_before);
        assert_eq!(after.edits, 0);
        assert!(e.stats().counters.user_errors >= 3);
    }

    /// Everything an edit may change in a session: the retained module
    /// in full (its `Debug` rendering covers every table), the printed IR,
    /// the Γ and plan fingerprints and the source.
    fn session_state(e: &mut Engine, sid: u64) -> (String, String, String, String, String) {
        let SessionState::Ready(b) = &e.sessions[&sid].state else {
            panic!("session must be Ready");
        };
        let module = (format!("{:?}", b.module), usher_ir::print_module(&b.module));
        let q = e.query(sid).unwrap();
        let src = e.session_source(sid).unwrap();
        (
            module.0,
            module.1,
            q.gamma_fingerprint,
            q.plan_fingerprint,
            src,
        )
    }

    #[test]
    fn refused_in_place_splices_restore_the_session() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let before = session_state(&mut e, sid);
        let matches_cold = |e: &mut Engine| {
            let q = e.query(sid).unwrap();
            let (pf, gf) = oracle(&e.session_source(sid).unwrap());
            assert_eq!(q.plan_fingerprint, pf);
            assert_eq!(q.gamma_fingerprint, gf);
        };

        // Lowering fails after the splice has started writing the module.
        let unknown_var = "def helper0(int a) -> int {
    int x = a + 1;
    if (x) { return nosuch * 2; }
    return 3;
}";
        let err = e
            .edit_within(sid, "helper0", unknown_var, None)
            .unwrap_err();
        assert_eq!(err.kind, "bad-edit", "{}", err.detail);
        assert!(
            session_state(&mut e, sid) == before,
            "bad body changed the session"
        );

        // Both bodies are refused by the splice gates after relowering
        // (a new pointer depth interns new types; a load dropped from
        // `main` changes its pointer structure), and their fallback
        // recompute then fails: the splice must be rolled back.
        let new_types = "def helper0(int a) -> int {
    int ***p;
    int x = a + 1;
    if (x) { return x * 2; }
    return 3;
}";
        let new_structure = "def main(int c) {
    int *p;
    p = malloc(1);
    *p = helper0(c);
    shared = c;
    print(risky(shared));
}";
        e.opts.inject_panic = Some("resolve".to_string());
        for (func, body) in [("helper0", new_types), ("main", new_structure)] {
            let err = e.edit_within(sid, func, body, None).unwrap_err();
            assert_eq!(err.kind, "internal-panic", "{func}: {}", err.detail);
            assert!(
                session_state(&mut e, sid) == before,
                "{func}: a refused splice changed the session"
            );
        }
        e.opts.inject_panic = None;
        assert_eq!(e.query(sid).unwrap().edits, 0);

        // The restored session still edits incrementally and exactly.
        let out = e
            .edit(
                sid,
                "helper0",
                "def helper0(int a) -> int {
    int x = a + 1;
    if (x) { return x * 8; }
    return 3;
}",
            )
            .unwrap();
        assert!(out.incremental, "{:?}", out.fallback_reason);
        matches_cold(&mut e);
        for (func, body, reason) in [
            ("main", new_structure, "pointer-structure-changed"),
            ("helper0", new_types, "new-types"),
        ] {
            let out = e.edit(sid, func, body).unwrap();
            assert_eq!(out.fallback_reason, Some(reason));
            matches_cold(&mut e);
        }
    }

    #[test]
    fn unwinding_out_of_a_splice_restores_the_module() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let before = session_state(&mut e, sid);
        let prog = parser::parse(
            "def helper0(int a) -> int {
    int ***p;
    int y = 2;
    int *q = &y;
    return a;
}",
        )
        .unwrap();
        let SessionState::Ready(b) = &mut e.sessions.get_mut(&sid).unwrap().state else {
            panic!("cold session must be Ready");
        };
        let fid = b.env.funcs["helper0"].0;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let splice = Splice::new(b, fid);
            let m = Arc::make_mut(&mut splice.b.module);
            let relowered = relower_function(m, &splice.b.env, &prog.funcs[0]);
            assert!(
                m.types.len() > splice.old.types_len,
                "the body interns types"
            );
            drop(relowered);
            panic!("a stage panicked mid-splice");
        }));
        assert!(unwound.is_err());
        assert!(
            session_state(&mut e, sid) == before,
            "unwinding left the splice in place"
        );
    }

    #[test]
    fn unterminated_comment_in_an_edit_is_a_bad_edit() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let before = session_state(&mut e, sid);
        let body = "def helper0(int a) -> int {
    int x = a + 1;
    if (x) { return x * 2; }
    return 3;
} /* trailing";
        let err = e.edit_within(sid, "helper0", body, None).unwrap_err();
        assert_eq!(err.kind, "bad-edit");
        assert!(
            err.detail.contains("unterminated block comment"),
            "{}",
            err.detail
        );
        assert!(session_state(&mut e, sid) == before);
        // The next edit of another function still splices in place.
        let out = e
            .edit(
                sid,
                "risky",
                "def risky(int c) -> int {
    int x;
    if (c) { x = 4; }
    if (x) { return 1; }
    return 0;
}",
            )
            .unwrap();
        assert!(out.incremental, "{:?}", out.fallback_reason);
        assert_eq!(e.query(sid).unwrap().functions_total, 3);
    }

    #[test]
    fn edits_of_a_span_that_shares_a_block_comment_recompile() {
        // `g`'s first line closes a comment opened above it: replacing
        // that line reopens the comment over the rest of the file, so the
        // edit must be compiled from the spliced text, which fails here.
        let src = "def f() -> int { return 1; }
/* note
*/ def g() -> int { return 2; }
def main() { print(f() + g()); }";
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(src).unwrap().session_id;
        let before = session_state(&mut e, sid);
        let err = e
            .edit_within(sid, "g", "def g() -> int { return 3; }", None)
            .unwrap_err();
        assert_eq!(err.kind, "bad-edit", "{}", err.detail);
        assert!(session_state(&mut e, sid) == before);
        let out = e.edit(sid, "f", "def f() -> int { return 5; }").unwrap();
        assert!(out.incremental, "{:?}", out.fallback_reason);
        let out = e.edit(sid, "g", "*/ def g() -> int { return 3; }");
        assert!(out.is_err(), "a body must lex on its own");
    }

    #[test]
    fn spliced_spans_equal_a_full_rescan() {
        let src = "def a() -> int {
    return 1;
}
// between
def b() -> int { return 2; }
def main() { print(a() + b()); }";
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(src).unwrap().session_id;
        let s = e.sessions.get_mut(&sid).unwrap();
        // Longer, shorter, appended, and a body led by its own comments.
        for (at, body) in [
            (0, "def a() -> int {\n    int x = 1;\n    return x;\n}"),
            (1, "def b() -> int {\n    return 2;\n}"),
            (0, "def a() -> int { return 1; }"),
            (3, "def c() -> int {\n    return 3;\n}"),
            (
                2,
                "/* main,\n   rewritten */\n// twice\ndef main() {\n  print(a());\n}",
            ),
        ] {
            s.splice(at, &Text::new(body));
            assert_eq!(s.spans, scan_spans(&s.text), "{body}");
            assert_eq!(s.text, Text::new(s.text.source()), "{body}");
        }
        let names: Vec<&str> = s.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "main", "c"]);
    }

    #[test]
    fn disk_tier_warms_across_engine_restarts_and_self_heals() {
        let dir = scratch_dir("disk");
        // WAL off: replaying recovered sessions would self-heal the
        // corrupted entry before the analyze below ever saw it. This
        // test targets the artifact tier's own recovery path.
        let cfg = || EngineConfig {
            store_dir: Some(dir.clone()),
            wal_enabled: false,
            ..EngineConfig::default()
        };
        let fingerprints = |e: &mut Engine, sid| {
            let q = e.query(sid).unwrap();
            (q.plan_fingerprint, q.gamma_fingerprint)
        };
        let fp0 = {
            let mut e = engine(cfg());
            let out = e.analyze(SRC).unwrap();
            assert_eq!(out.mode, "cold");
            assert_eq!(e.stats().disk.unwrap().entries, 1, "one entry per program");
            fingerprints(&mut e, out.session_id)
        };
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".art"))
            .collect();
        assert_eq!(entries.len(), 1, "module, gamma and plan share one file");
        // Fresh engine, same store: fully warm from disk.
        {
            let mut e = engine(cfg());
            let out = e.analyze(SRC).unwrap();
            assert_eq!(out.mode, "warm", "disk tier must warm a fresh engine");
            assert_eq!(fingerprints(&mut e, out.session_id), fp0);
        }
        // Corrupt the entry on disk: the analysis self-heals (evict +
        // recompute), exactly like the in-memory corrupt-recovery path.
        let victim = &entries[0];
        let mut bytes = std::fs::read_to_string(victim.path()).unwrap();
        bytes.push_str("GARBAGE");
        std::fs::write(victim.path(), bytes).unwrap();
        {
            let mut e = engine(cfg());
            let out = e.analyze(SRC).unwrap();
            assert_eq!(out.mode, "cold", "corrupt entry must force recompute");
            assert!(out.report.cache_corrupt_recovered >= 1);
            assert_eq!(fingerprints(&mut e, out.session_id), fp0);
        }
        // And the heal re-persisted a good entry.
        {
            let mut e = engine(cfg());
            assert_eq!(e.analyze(SRC).unwrap().mode, "warm");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_dir_contents_never_affect_cache_keys() {
        let dir = scratch_dir("junkkeys");
        let cfg = || EngineConfig {
            store_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        {
            let mut e = engine(cfg());
            e.analyze(SRC).unwrap();
        }
        // Drop junk into the store dir; keys are pure content hashes of
        // the source, so the next analyze must still be warm.
        std::fs::write(dir.join("unrelated.txt"), "junk").unwrap();
        std::fs::write(dir.join("0000.module.art.orig"), "junk").unwrap();
        {
            let mut e = engine(cfg());
            assert_eq!(e.analyze(SRC).unwrap().mode, "warm");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_plans_are_never_persisted() {
        let dir = scratch_dir("degraded");
        let mut e = engine(EngineConfig {
            store_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let sid = e.analyze(SRC).unwrap().session_id;
        // Forge a degraded plan inside the backend, then attempt to
        // persist under a fresh key: the guard must refuse.
        {
            let session = e.sessions.get_mut(&sid).unwrap();
            let SessionState::Ready(b) = &mut session.state else {
                panic!("cold session must be Ready");
            };
            let mut degraded = (*b.plan).clone();
            let some_fid = degraded
                .provenance
                .keys()
                .copied()
                .next()
                .expect("plan has provenance");
            degraded
                .provenance
                .insert(some_fid, PlanProvenance::FallbackFull);
            b.plan = Arc::new(degraded);
        }
        let entries_before = e.disk.as_ref().unwrap().stats().entries;
        let b_ref = match &e.sessions[&sid].state {
            SessionState::Ready(b) => b,
            SessionState::Warm { .. } => unreachable!(),
        };
        assert!(plan_is_degraded(&b_ref.plan));
        e.persist(0xdead_beef, b_ref);
        assert_eq!(
            e.disk.as_ref().unwrap().stats().entries,
            entries_before,
            "degraded plan must not be persisted"
        );
        assert!(e.cache.lookup(e.opts.plan_key(0xdead_beef)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_use_agrees_with_exhaustive_resolve_on_every_check() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        // Oracle: a plain exhaustive resolution over the session's own
        // VFG. The session gamma is post-Opt II (redirected checks carry
        // their leader's verdict), so demand verdicts must be compared
        // against `resolve`, not the stored gamma.
        let (oracle, checks) = {
            let SessionState::Ready(b) = &e.sessions[&sid].state else {
                panic!("cold session must be Ready");
            };
            (usher_core::resolve(&b.vfg, 1), b.vfg.checks.clone())
        };
        assert!(!checks.is_empty(), "workload must produce checks");
        for (i, ch) in checks.iter().enumerate() {
            let q = e.query_use(sid, i).unwrap();
            assert_eq!(
                q.maybe_undef,
                oracle.is_bot(ch.node),
                "check {i} (node {})",
                ch.node
            );
            assert!(q.complete, "unlimited budget must finish the walk");
            assert_eq!(q.node, ch.node);
            assert_eq!(q.checks_total, checks.len());
            assert_eq!(q.epoch, 0);
        }
        assert_eq!(e.stats().counters.demand_queries, checks.len() as u64);
    }

    #[test]
    fn query_use_memoizes_within_an_epoch_and_invalidates_on_edit() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        let first = e.query_use(sid, 0).unwrap();
        let again = e.query_use(sid, 0).unwrap();
        assert_eq!(again.maybe_undef, first.maybe_undef);
        assert!(again.memo_hit, "repeat query must hit the memo");
        assert_eq!(
            again.nodes_visited, 0,
            "memoized verdict must not re-walk the graph"
        );
        // Any edit drops the memoized engine: the next query re-walks
        // against the rebuilt VFG and reports the bumped epoch.
        e.edit(
            sid,
            "helper0",
            "def helper0(int a) -> int {
    int x = a + 9;
    if (x) { return x * 2; }
    return 3;
}",
        )
        .unwrap();
        let post = e.query_use(sid, 0).unwrap();
        assert_eq!(post.epoch, 1, "edit must bump the verdict epoch");
        assert!(!post.memo_hit, "edit must invalidate memoized verdicts");
        assert!(post.nodes_visited > 0);
        let SessionState::Ready(b) = &e.sessions[&sid].state else {
            panic!("edited session must be Ready");
        };
        let oracle = usher_core::resolve(&b.vfg, 1);
        assert_eq!(post.maybe_undef, oracle.is_bot(b.vfg.checks[0].node));
    }

    #[test]
    fn query_use_structured_errors_carry_machine_kinds() {
        let mut e = engine(EngineConfig::default());
        // Unknown session.
        let err = e.query_use(404, 0).unwrap_err();
        assert_eq!(err.kind, "unknown-session");
        assert!(err.detail.contains("404"), "{}", err.detail);
        // Warm sessions hold cached artifacts only — no VFG to walk.
        e.analyze(SRC).unwrap();
        let warm = e.analyze(SRC).unwrap();
        assert_eq!(warm.mode, "warm");
        let err = e.query_use(warm.session_id, 0).unwrap_err();
        assert_eq!(err.kind, "warm-session");
        // Out-of-range check index on a healthy cold session.
        let sid = e
            .analyze("def main(int c) { int x; if (c) { x = 1; } print(x); }")
            .unwrap()
            .session_id;
        let err = e.query_use(sid, 9999).unwrap_err();
        assert_eq!(err.kind, "bad-check-index");
        assert!(err.detail.contains("9999"), "{}", err.detail);
        // query() shares the guards: unknown session is structured too.
        assert_eq!(e.query(404).unwrap_err().kind, "unknown-session");
        assert!(e.stats().counters.user_errors >= 4);
    }

    #[test]
    fn query_use_refuses_degraded_sessions() {
        let mut e = engine(EngineConfig::default());
        let sid = e.analyze(SRC).unwrap().session_id;
        {
            let session = e.sessions.get_mut(&sid).unwrap();
            let SessionState::Ready(b) = &mut session.state else {
                panic!("cold session must be Ready");
            };
            let mut degraded = (*b.plan).clone();
            let some_fid = degraded
                .provenance
                .keys()
                .copied()
                .next()
                .expect("plan has provenance");
            degraded
                .provenance
                .insert(some_fid, PlanProvenance::FallbackFull);
            b.plan = Arc::new(degraded);
        }
        let err = e.query_use(sid, 0).unwrap_err();
        assert_eq!(err.kind, "degraded-session");
        assert!(
            err.detail.contains("budget-fallback"),
            "reason must be recorded: {}",
            err.detail
        );
    }

    #[test]
    fn span_scanner_finds_all_defs() {
        let text = Text::new(SRC);
        let lines: Vec<&str> = text.lines().collect();
        let spans = scan_spans(&text);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["helper0", "risky", "main"]);
        for s in &spans {
            assert!(lines[s.start].contains(&format!("def {}", s.name)));
            assert!(lines[s.end - 1].trim_end().ends_with('}'));
        }
        // Single-line defs work too.
        let one = Text::new("def f() -> int { return 1; }\ndef g() { print(1); }");
        let spans = scan_spans(&one);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].end), (0, 1));
        assert_eq!((spans[1].start, spans[1].end), (1, 2));
    }

    #[test]
    fn span_scanner_skips_block_comments() {
        let src = "/* def f() -> int {
def f() -> int { return 2; }
*/
def f() -> int { /* } */ return 1; }
/**/ def g() { print(1); } // def h() {
/*/ { */ def h() { print(2); }";
        let spans = scan_spans(&Text::new(src));
        let got: Vec<(&str, usize, usize)> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.start, s.end))
            .collect();
        assert_eq!(got, [("f", 3, 4), ("g", 4, 5), ("h", 5, 6)]);
    }

    /// Both edit gates on IR written directly: TinyC cannot put an
    /// operand the solver never reads in an address position (`mem2reg`
    /// reads a promoted pointer through a pointer-typed copy), but the
    /// pointer gate blinds one there as anywhere else.
    #[test]
    fn edit_gates_blind_unread_operands_in_every_position() {
        let module = |init: &str, load: &str, store: &str| {
            let text = format!(
                "obj 0 \"malloc\" heap(@f0) {init} : int
main @f1
def @f0 \"f\" -> int {{
  var %v0 \"a\" int
  var %v1 \"q\" int*
  var %v2 \"l\" int
  params %v0
  entry bb0
  bb0:
    %v1 = alloc 0
    store %v1 %v0
    %v2 = load {load}
    store {store} 1
    ret %v2
}}
def @f1 \"main\" {{
  var %v0 \"c\" int
  var %v1 \"r\" int
  params %v0
  entry bb0
  bb0:
    %v1 = call @f0(%v0)
    ecall print(%v1)
    ret
}}"
            );
            usher_ir::parse_text(&text).expect("the module parses")
        };
        let m_old = module("uninit", "%v1", "undef");
        let pa = usher_pointer::analyze(&m_old);
        let old = snapshot_of_f0(&m_old);
        // (object init, load address, store address, pointer gate passes,
        // value flow unchanged).
        let cases = [
            ("uninit", "%v1", "undef", true, true),
            ("uninit", "%v1", "0", true, false),
            ("uninit", "%v1", "7", true, false),
            ("uninit", "%v1", "%v0", true, false), // an int with no targets
            ("uninit", "%v1", "%v1", false, false),
            ("uninit", "undef", "undef", false, false),
            ("zeroinit", "%v1", "undef", true, false),
        ];
        for (init, load, store, pa_ok, vf_ok) in cases {
            let m = module(init, load, store);
            let case = format!("{init} / load {load} / store {store}");
            assert_eq!(pa_reusable(&old, &m, &pa), pa_ok, "{case}: pointer gate");
            assert_eq!(value_flow_reusable(&old, &m), vf_ok, "{case}: cutoff");
        }
    }

    /// The edit snapshot of `@f0`, which owns the module's only object.
    fn snapshot_of_f0(m: &Module) -> Snapshot {
        let fid = FuncId::from_usize(0);
        Snapshot {
            fid,
            func: m.funcs[fid].clone(),
            range: (0, 1),
            objects: m.objects.raw().to_vec(),
            objects_len: 1,
            types_len: m.types.len(),
            memssa: None,
        }
    }

    /// The cutoff's plan rebind on IR written directly. TinyC lowers a
    /// constant allocation count to a static layout and reads a promoted
    /// local through a copy, so no TinyC edit that keeps the value flow
    /// changes an operand planning copies. Here the count of an
    /// allocation whose cell is read uninitialized and the mask of a
    /// bitwise `and` change, under the serve preset (which copies the
    /// count) and its bit-level twin (which also copies the mask).
    #[test]
    fn cutoff_rebinds_the_operands_planning_copies() {
        let module = |count: i64, mask: i64| {
            let text = format!(
                "obj 0 \"malloc\" heap(@f0) uninit : int
main @f1
def @f0 \"f\" -> int {{
  var %v0 \"a\" int
  var %v1 \"h\" int*
  var %v2 \"l\" int
  var %v3 \"x\" int
  params %v0
  entry bb0
  bb0:
    %v1 = alloc 0 count {count}
    %v2 = load %v1
    %v3 = bin And %v2 {mask}
    br %v3 bb1 bb2
  bb1:
    ret %v3
  bb2:
    ret %v0
}}
def @f1 \"main\" {{
  var %v0 \"c\" int
  var %v1 \"r\" int
  params %v0
  entry bb0
  bb0:
    %v1 = call @f0(%v0)
    ecall print(%v1)
    ret
}}"
            );
            usher_ir::parse_text(&text).expect("the module parses")
        };
        let (m_old, m_new) = (module(1, 5), module(2, 6));
        assert!(
            value_flow_reusable(&snapshot_of_f0(&m_old), &m_new),
            "only constants differ, so the edit takes the cutoff"
        );
        for cfg in [Config::USHER, Config::USHER_BIT] {
            let mut plan = usher_core::run_config(&m_old, cfg).plan;
            let want = plan_fingerprint(&usher_core::run_config(&m_new, cfg).plan);
            assert_ne!(
                plan_fingerprint(&plan),
                want,
                "{}: the plan changes",
                cfg.name
            );
            let rebinds = plan_rebinds(&plan, &m_new, FuncId::from_usize(0));
            apply_rebinds(&mut plan, rebinds);
            assert_eq!(plan_fingerprint(&plan), want, "{}", cfg.name);
        }
    }
}
