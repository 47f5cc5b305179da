//! Serve-vs-cold equivalence properties (DESIGN.md §11).
//!
//! The serve engine's contract is that editing never changes *what* is
//! computed, only *how much* is recomputed: after any sequence of edits,
//! the session's Gamma and instrumentation plan must be byte-identical
//! to a cold, from-scratch analysis of the session's current source.
//! These tests replay deterministic edit sequences — const swaps that
//! take the incremental path and declaration insertions that force the
//! sound fallback — over generated workload rungs and check the full
//! fingerprints (not just digests) against `run_config` after every
//! step. A hand-written sequence interleaves const swaps, which keep the
//! retained value flow, with edits that pass the pointer gate but change
//! value flow; another inserts and removes locals, of which only those
//! that stay in memory after `mem2reg` force the fallback.

use usher::core::{run_config, Config};
use usher::driver::{gamma_fingerprint, plan_fingerprint};
use usher::frontend::compile_o0im;
use usher::serve::{Engine, EngineConfig};
use usher::workloads::{generate, ladder_config, SEED_LADDER};

mod common;
use common::synthesize_edit;

/// Cold-oracle fingerprints for a source: full pipeline, no serve.
fn oracle(src: &str) -> (String, String) {
    let m = compile_o0im(src).expect("oracle compiles");
    let out = run_config(&m, Config::USHER);
    let gamma = out.gamma.expect("guided config resolves");
    (plan_fingerprint(&out.plan), gamma_fingerprint(&gamma))
}

/// Replays `edits` synthesized edits on one rung, checking full
/// fingerprint equality with the cold oracle after every step. Returns
/// `(incremental, fallback)` counts.
fn replay_rung(seed: u64, helpers: usize, stmts: usize, edits: usize) -> (usize, usize) {
    let src = generate(seed, ladder_config(helpers, stmts));
    let mut e = Engine::new(EngineConfig::default()).expect("engine opens");
    let sid = e.analyze(&src).expect("rung analyzes").session_id;

    let q = e.query(sid).unwrap();
    let (pf, gf) = oracle(&src);
    assert_eq!(q.plan_fingerprint, pf, "seed {seed}: cold plan mismatch");
    assert_eq!(q.gamma_fingerprint, gf, "seed {seed}: cold gamma mismatch");

    let (mut incr, mut fall) = (0usize, 0usize);
    for k in 0..edits {
        let source = e.session_source(sid).unwrap();
        let Some((func, body)) = synthesize_edit(&source, k) else {
            continue;
        };
        let out = e
            .edit(sid, &func, &body)
            .unwrap_or_else(|err| panic!("seed {seed} edit {k} ({func}) rejected: {err}"));
        if out.incremental {
            incr += 1;
        } else {
            fall += 1;
        }
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(
            q.plan_fingerprint, pf,
            "seed {seed} edit {k} ({func}, incremental={}): plan diverged from cold analysis",
            out.incremental
        );
        assert_eq!(
            q.gamma_fingerprint, gf,
            "seed {seed} edit {k} ({func}, incremental={}): gamma diverged from cold analysis",
            out.incremental
        );
    }
    (incr, fall)
}

#[test]
fn edit_sequences_stay_byte_identical_to_cold_analysis() {
    let mut total_incr = 0;
    let mut total_fall = 0;
    for &(seed, helpers, stmts) in &SEED_LADDER[..3] {
        let edits = if helpers >= 32 { 4 } else { 6 };
        let (i, f) = replay_rung(seed, helpers, stmts, edits);
        total_incr += i;
        total_fall += f;
    }
    assert!(
        total_incr > 0,
        "the trace must exercise the incremental path"
    );
    assert!(total_fall > 0, "the trace must exercise the fallback path");
}

/// A helper whose edits pass the pointer gate (every operand involved
/// is a non-pointer with empty points-to sets) but, unlike a const swap,
/// change value flow. `u` is declared but never assigned.
const CUTOFF_SRC: &str = "def mix(int a, int b) -> int {
    int k = 9;
    int u;
    int t = a + k;
    if (t > 4) { return t * 2; }
    return b;
}
def main(int c) {
    print(mix(c, c + 1));
}";

#[test]
fn value_flow_edits_interleaved_with_const_swaps_match_cold_analysis() {
    let mut e = Engine::new(EngineConfig::default()).expect("engine opens");
    let sid = e.analyze(CUTOFF_SRC).expect("analyzes").session_id;
    // (replace, with, expected path). Each step applies to the previous
    // step's source. `cutoff` keeps the retained VFG, Γ and Opt II
    // result; `rebuild` is incremental with the VFG rebuilt.
    let steps = [
        ("int k = 9;", "int k = 3;", "cutoff"),
        ("a + k", "b + k", "rebuild"), // int operand swap
        ("t * 2", "t * 5", "cutoff"),
        // `+` -> `&` (Opt II folds bitwise ops differently): the solver
        // adds no constraint for an arithmetic result, so the pointer
        // gate admits the operator change and the VFG is rebuilt.
        ("b + k", "b & k", "rebuild"),
        ("int k = 3;", "int k = 8;", "cutoff"),
        ("b & k", "b & u", "rebuild"), // a constant's flow -> uninitialized local
        ("t * 5", "t * 6", "cutoff"),
    ];
    let mut body = CUTOFF_SRC[..CUTOFF_SRC.find("\ndef main").unwrap()].to_string();
    for (k, (from, to, expect)) in steps.into_iter().enumerate() {
        assert!(body.contains(from), "step {k}: {from:?} not in body");
        body = body.replacen(from, to, 1);
        let cut0 = e.stats().counters.edits_value_flow_unchanged;
        let out = e
            .edit(sid, "mix", &body)
            .unwrap_or_else(|err| panic!("step {k} ({from} -> {to}) rejected: {err}"));
        let path = match (
            out.incremental,
            e.stats().counters.edits_value_flow_unchanged - cut0,
        ) {
            (true, 1) => "cutoff",
            (true, 0) => "rebuild",
            _ => "fallback",
        };
        assert_eq!(
            path, expect,
            "step {k} ({from} -> {to}): fallback reason {:?}",
            out.fallback_reason
        );
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(
            q.plan_fingerprint, pf,
            "step {k} ({from} -> {to}): plan diverged"
        );
        assert_eq!(
            q.gamma_fingerprint, gf,
            "step {k} ({from} -> {to}): gamma diverged"
        );
    }
}

/// A program whose declaration inserts need no new interned type: it
/// already has `int *`, `int **` (the slot of `p`), `int[4]` and its
/// slot pointer.
const DECL_SRC: &str = "def grow(int a, int b) -> int {
    int k = 9;
    int t = a + k;
    if (t > 4) { return t * 2; }
    return b;
}
def main(int c) {
    int *p;
    int table[4];
    p = malloc(1);
    *p = grow(c, c + 1);
    table[0] = *p;
    print(table[0]);
}";

#[test]
fn declaration_inserts_and_removals_match_cold_analysis() {
    let mut e = Engine::new(EngineConfig::default()).expect("engine opens");
    let sid = e.analyze(DECL_SRC).expect("analyzes").session_id;
    // (replace, with, expected path). A promoted local is not an object,
    // so only a local that stays in memory after `mem2reg` (address
    // taken, or an array) changes the object count.
    let steps = [
        // Unused scalar: the post-`mem2reg` body is unchanged.
        ("int k = 9;", "int k = 9;\n    int spare = 3;", "cutoff"),
        // Used scalar: `w` replaces `k`'s read, so the var count holds
        // but the value flow changes (a constant's flow -> undefined).
        ("int t = a + k;", "int w;\n    int t = a + w;", "rebuild"),
        (
            "int t",
            "int z = 2;\n    int *zp = &z;\n    int t",
            "object-count-changed",
        ),
        ("int t", "int arr[4];\n    int t", "object-count-changed"),
        // Removal of a promoted local.
        ("\n    int spare = 3;", "", "cutoff"),
        ("t * 2", "t * 7", "cutoff"),
    ];
    let mut body = DECL_SRC
        [DECL_SRC.find("def grow").unwrap()..DECL_SRC.find("\ndef main").unwrap()]
        .to_string();
    for (k, (from, to, expect)) in steps.into_iter().enumerate() {
        assert!(body.contains(from), "step {k}: {from:?} not in body");
        body = body.replacen(from, to, 1);
        let cut0 = e.stats().counters.edits_value_flow_unchanged;
        let out = e
            .edit(sid, "grow", &body)
            .unwrap_or_else(|err| panic!("step {k} ({from} -> {to}) rejected: {err}"));
        let path = match (
            out.incremental,
            e.stats().counters.edits_value_flow_unchanged - cut0,
        ) {
            (true, 1) => "cutoff",
            (true, 0) => "rebuild",
            _ => out.fallback_reason.unwrap_or("fallback"),
        };
        assert_eq!(path, expect, "step {k} ({from} -> {to})");
        if out.incremental {
            assert_eq!(out.functions_recomputed, 1, "step {k}");
        }
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(
            q.plan_fingerprint, pf,
            "step {k} ({from} -> {to}): plan diverged"
        );
        assert_eq!(
            q.gamma_fingerprint, gf,
            "step {k} ({from} -> {to}): gamma diverged"
        );
    }
}

#[test]
fn interleaved_sessions_do_not_contaminate_each_other() {
    // Two sessions over different rungs in one engine, edited in
    // lockstep: each must keep matching its own cold oracle.
    let src_a = generate(11, ladder_config(8, 8));
    let src_b = generate(23, ladder_config(16, 10));
    let mut e = Engine::new(EngineConfig::default()).expect("engine opens");
    let sa = e.analyze(&src_a).unwrap().session_id;
    let sb = e.analyze(&src_b).unwrap().session_id;
    for k in 0..4 {
        for &sid in &[sa, sb] {
            let source = e.session_source(sid).unwrap();
            let Some((func, body)) = synthesize_edit(&source, k) else {
                continue;
            };
            e.edit(sid, &func, &body)
                .unwrap_or_else(|err| panic!("edit {k} on session {sid} rejected: {err}"));
        }
    }
    for &sid in &[sa, sb] {
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&e.session_source(sid).unwrap());
        assert_eq!(q.plan_fingerprint, pf, "session {sid} plan contaminated");
        assert_eq!(q.gamma_fingerprint, gf, "session {sid} gamma contaminated");
    }
}

#[test]
fn no_cache_and_cached_engines_agree() {
    let src = generate(11, ladder_config(8, 8));
    let mut cached = Engine::new(EngineConfig::default()).unwrap();
    let mut raw = Engine::new(EngineConfig {
        use_cache: false,
        ..EngineConfig::default()
    })
    .unwrap();
    let qa = {
        let sid = cached.analyze(&src).unwrap().session_id;
        cached.analyze(&src).unwrap(); // warm round-trip through the cache
        cached.query(sid).unwrap()
    };
    let qb = {
        let sid = raw.analyze(&src).unwrap().session_id;
        raw.query(sid).unwrap()
    };
    assert_eq!(qa.plan_fingerprint, qb.plan_fingerprint);
    assert_eq!(qa.gamma_fingerprint, qb.gamma_fingerprint);
}

/// A program with a commented-out copy of its helper and a block comment
/// holding an unbalanced `{`. Only the live `def`s are functions, so an
/// edit must land on the live copy.
const COMMENTED_SRC: &str = "/* The first draft, kept for reference:
def check(int x) -> int {
    int y;
    if (x) { y = 1; }
    if (y) { return 1; }
    return 0;
}
*/
def check(int x) -> int {
    int y;
    if (x) { y = 1; }
    if (y) { return 1; }
    return 0;
}
/* TODO: wrap the call below in { a guard */
def main(int c) {
    int z = c;
    print(check(z));
}";

#[test]
fn edits_skip_block_comments_and_match_cold_analysis() {
    let mut e = Engine::new(EngineConfig::default()).expect("engine opens");
    let sid = e.analyze(COMMENTED_SRC).expect("analyzes").session_id;
    let draft = &COMMENTED_SRC[..COMMENTED_SRC.find("*/").unwrap() + 2];
    let check_body = "def check(int x) -> int {
    int y = 0;
    if (x) { y = 1; }
    if (y) { return 1; }
    return 0;
}";
    // Making `z` address-taken adds an object: a fallback recompute from
    // the session source.
    let main_body = "def main(int c) {
    int z = c;
    int *p = &z;
    print(check(*p));
}";
    for (k, (func, body, incremental)) in [("check", check_body, true), ("main", main_body, false)]
        .into_iter()
        .enumerate()
    {
        let out = e
            .edit(sid, func, body)
            .unwrap_or_else(|err| panic!("step {k} ({func}) rejected: {err}"));
        assert_eq!(
            out.incremental, incremental,
            "step {k} ({func}): fallback reason {:?}",
            out.fallback_reason
        );
        let source = e.session_source(sid).unwrap();
        assert!(
            source.starts_with(draft),
            "step {k}: the draft comment changed"
        );
        assert!(source.contains(body), "step {k}: the edit did not land");
        let q = e.query(sid).unwrap();
        let (pf, gf) = oracle(&source);
        assert_eq!(q.plan_fingerprint, pf, "step {k} ({func}): plan diverged");
        assert_eq!(q.gamma_fingerprint, gf, "step {k} ({func}): gamma diverged");
    }
}
