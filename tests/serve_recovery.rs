//! Crash-recovery properties of the serve session WAL (DESIGN.md §14).
//!
//! The contract under test: killing `usher serve` at any point loses at
//! most the requests that were never acknowledged. After a restart on
//! the same store directory, every session whose operations were acked
//! is reconstructed **byte-identically** — same fingerprints, same
//! source, same edit count — and any damage to the log (torn tails,
//! stale headers, duplicated records) degrades into counted, recoverable
//! states rather than corruption or refusal to start.

use std::path::{Path, PathBuf};

use usher::serve::wal::WAL_HEADER;
use usher::serve::{Engine, EngineConfig, WalRecord};
use usher::workloads::{generate, ladder_config};

mod common;
use common::synthesize_edit;

/// Unique scratch store directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usher-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_cfg(dir: &Path) -> EngineConfig {
    EngineConfig {
        store_dir: Some(dir.to_path_buf()),
        threads: 2,
        ..EngineConfig::default()
    }
}

fn fingerprints(e: &mut Engine, sid: u64) -> (String, String, u64) {
    let q = e.query(sid).expect("session queries");
    (q.plan_fingerprint, q.gamma_fingerprint, q.edits)
}

/// The kill-and-restart property: for every prefix length of the edit
/// trace, dropping the engine without shutdown and restarting on the
/// same store reconstructs the session byte-identically. The longest
/// prefix ends in an address-taken declaration insert, so replay covers
/// a fallback edit as well as incremental ones.
#[test]
fn any_edit_prefix_survives_kill_and_restart() {
    const LONGEST: usize = 4;
    let src = generate(11, ladder_config(8, 8));
    for prefix in 0..=LONGEST {
        let dir = scratch(&format!("prefix-{prefix}"));
        let (sid, want, want_src) = {
            let mut a = Engine::new(disk_cfg(&dir)).expect("engine A opens");
            let sid = a.analyze(&src).expect("analyzes").session_id;
            let mut fallbacks = 0;
            for k in 0..prefix {
                let source = a.session_source(sid).unwrap();
                let Some((func, body)) = synthesize_edit(&source, k) else {
                    continue;
                };
                let out = a
                    .edit(sid, &func, &body)
                    .unwrap_or_else(|e| panic!("prefix {prefix} edit {k} rejected: {e}"));
                fallbacks += usize::from(!out.incremental);
            }
            if prefix == LONGEST {
                assert!(fallbacks > 0, "the longest trace must take a fallback");
            }
            let want = fingerprints(&mut a, sid);
            (sid, want, a.session_source(sid).unwrap())
            // `a` dropped here without shutdown or flush — every append
            // already fsynced, so this is the kill point.
        };

        let mut b = Engine::new(disk_cfg(&dir)).expect("engine B restarts");
        assert_eq!(
            b.replay().sessions_recovered,
            1,
            "prefix {prefix}: session not recovered"
        );
        assert_eq!(b.replay().records_dropped, 0, "prefix {prefix}");
        assert_eq!(
            b.session_source(sid).as_deref(),
            Some(want_src.as_str()),
            "prefix {prefix}: recovered source differs"
        );
        assert_eq!(
            fingerprints(&mut b, sid),
            want,
            "prefix {prefix}: recovered session is not byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A warm-opened session whose store artifacts vanished between the
/// crash and the restart falls back to a recompute — counted, reasoned,
/// and still byte-identical.
#[test]
fn warm_session_with_evicted_store_recomputes_on_replay() {
    let src = generate(23, ladder_config(8, 8));
    let dir = scratch("store-miss");

    // First life: cold analyze populates the store, clean drop.
    let want = {
        let mut e = Engine::new(disk_cfg(&dir)).expect("first engine opens");
        let sid = e.analyze(&src).unwrap().session_id;
        let want = fingerprints(&mut e, sid);
        assert!(e.close(sid), "close the cold session");
        want
    };

    // Second life: the analyze hits the store warm, so the WAL records a
    // warm open. Killed without shutdown.
    let sid = {
        let mut e = Engine::new(disk_cfg(&dir)).expect("second engine opens");
        let out = e.analyze(&src).unwrap();
        assert_eq!(out.mode, "warm", "store should warm the second open");
        out.session_id
    };

    // Evict every artifact out from under the recorded warm open.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().and_then(|e| e.to_str()) == Some("art") {
            std::fs::remove_file(p).unwrap();
        }
    }

    let mut e = Engine::new(disk_cfg(&dir)).expect("third engine opens");
    assert_eq!(e.replay().sessions_recovered, 1);
    assert_eq!(e.replay().store_misses, 1, "the miss must be counted");
    assert!(
        e.replay()
            .fallbacks
            .iter()
            .any(|&(s, why)| s == sid && why == "wal-store-miss"),
        "the miss must carry its reason: {:?}",
        e.replay().fallbacks
    );
    assert_eq!(
        fingerprints(&mut e, sid),
        want,
        "recomputed session must still match"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final record (the classic crash-mid-append shape) is dropped
/// and counted; the intact prefix still recovers byte-identically.
#[test]
fn torn_tail_drops_cleanly_and_keeps_the_prefix() {
    let src = generate(11, ladder_config(8, 8));
    let dir = scratch("torn-tail");
    let (sid, before_edit) = {
        let mut e = Engine::new(disk_cfg(&dir)).expect("engine opens");
        let sid = e.analyze(&src).unwrap().session_id;
        let before_edit = fingerprints(&mut e, sid);
        let source = e.session_source(sid).unwrap();
        let (func, body) = synthesize_edit(&source, 0).expect("an edit exists");
        e.edit(sid, &func, &body).expect("edit accepted");
        (sid, before_edit)
    };

    // Tear the last record mid-line, as a crash inside write(2) would.
    let wal = dir.join("sessions.wal");
    let content = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &content[..content.len() - 9]).unwrap();

    let mut e = Engine::new(disk_cfg(&dir)).expect("engine restarts");
    assert!(
        e.replay().records_dropped >= 1,
        "the torn record must be counted"
    );
    assert_eq!(e.replay().sessions_recovered, 1);
    assert_eq!(
        fingerprints(&mut e, sid),
        before_edit,
        "recovery must land on the last durable prefix"
    );
    // The rewritten WAL must be clean: a second restart drops nothing.
    drop(e);
    let e2 = Engine::new(disk_cfg(&dir)).expect("engine restarts again");
    assert_eq!(e2.replay().records_dropped, 0, "recovery must compact");
    assert_eq!(e2.replay().sessions_recovered, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay applies records in order, so a duplicated edit (possible when
/// a crash lands between append and ack, and the client retries into a
/// new log) converges to the same state instead of erroring.
#[test]
fn duplicated_edit_records_converge() {
    let src = "def scale(int v) -> int {\n    int bias = 4;\n    return v * bias;\n}\ndef main(int c) {\n    print(scale(c));\n}";
    let edited_body = "def scale(int v) -> int {\n    int bias = 9;\n    return v * bias;\n}";

    // Hand-craft a WAL whose edit record appears twice.
    let dir = scratch("dup-edit");
    std::fs::create_dir_all(&dir).unwrap();
    let open = WalRecord::Open {
        sid: 1,
        warm: false,
        edits: 0,
        source: src.to_string(),
    };
    let edit = WalRecord::Edit {
        sid: 1,
        func: "scale".to_string(),
        body: edited_body.to_string(),
    };
    let mut content = format!("{WAL_HEADER}\n");
    for r in [&open, &edit, &edit] {
        content.push_str(&r.encode_line());
        content.push('\n');
    }
    std::fs::write(dir.join("sessions.wal"), content).unwrap();

    let mut e = Engine::new(disk_cfg(&dir)).expect("engine opens on the crafted wal");
    assert_eq!(e.replay().sessions_recovered, 1);
    assert_eq!(e.replay().edits_replayed, 2, "both records replay");
    let got = fingerprints(&mut e, 1);

    let mut oracle = Engine::new(EngineConfig {
        threads: 2,
        wal_enabled: false,
        ..EngineConfig::default()
    })
    .unwrap();
    let osid = oracle.analyze(src).unwrap().session_id;
    oracle.edit(osid, "scale", edited_body).unwrap();
    let q = oracle.query(osid).unwrap();
    assert_eq!(got.0, q.plan_fingerprint, "duplicate replay diverged");
    assert_eq!(got.1, q.gamma_fingerprint, "duplicate replay diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degenerate logs: an empty file is a fresh start, a garbage header
/// drops everything — both boot a fully functional engine.
#[test]
fn empty_and_garbage_wals_boot_cleanly() {
    let src = generate(11, ladder_config(8, 8));

    let dir = scratch("empty-wal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("sessions.wal"), "").unwrap();
    let mut e = Engine::new(disk_cfg(&dir)).expect("boots on empty wal");
    assert_eq!(e.replay().sessions_recovered, 0);
    assert_eq!(e.replay().records_dropped, 0);
    assert!(e.analyze(&src).is_ok(), "engine must be functional");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("garbage-wal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("sessions.wal"), "not a wal\nat all\n").unwrap();
    let mut e = Engine::new(disk_cfg(&dir)).expect("boots on garbage wal");
    assert_eq!(e.replay().sessions_recovered, 0);
    assert_eq!(e.replay().records_dropped, 2, "every line counts");
    assert!(e.analyze(&src).is_ok(), "engine must be functional");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
