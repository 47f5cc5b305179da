//! Session write-ahead log: crash recovery for `usher serve`.
//!
//! The engine records every session-visible state change — session
//! creation (with the full canonical source), every accepted edit, and
//! session close — as one checksummed record appended (and fsynced) to
//! `sessions.wal` in the store directory. On startup the engine replays
//! the log against the [`crate::DiskStore`]: sessions are reconstructed
//! by re-running the same computations the original engine ran, which
//! by the serve-equivalence invariant (any edit sequence is
//! byte-identical to cold analysis of the final source) makes every
//! post-recovery response byte-identical to a never-crashed engine.
//!
//! # Format
//!
//! Line-oriented text. The first line is the header `usher-wal v1`;
//! each subsequent line is one record:
//!
//! ```text
//! <crc:016x> <json-payload>
//! ```
//!
//! where `crc` is the FNV digest (tag `wal-record`) of the payload
//! bytes. Payloads are one-line JSON objects tagged `"t"`:
//!
//! - `{"t":"open","sid":N,"warm":B,"edits":N,"digest":"<016x>","source":S}`
//! - `{"t":"edit","sid":N,"func":F,"body":S}`
//! - `{"t":"close","sid":N}`
//!
//! `digest` is an FNV digest of the source (tag `wal-source`), a
//! belt-and-braces check on top of the CRC. `edits` on an open record
//! is the session's base edit count: 0 on live appends, N > 0 only in
//! compacted logs (recovery rewrites each surviving session as a single
//! open record carrying its current source and edit count, preserving
//! the `edits`/`epoch` fields of later responses byte-for-byte).
//!
//! # Recovery invariants
//!
//! - A record is either fully durable or dropped: any line that fails
//!   the CRC, the digest, or JSON decoding invalidates itself *and
//!   every line after it* (a torn tail cannot resurrect later records
//!   whose ordering context is gone). Dropped lines are counted and
//!   surfaced in `stats` as `wal_records_dropped`.
//! - Appends fsync before the engine acknowledges the request, so an
//!   acknowledged response is always recoverable; a kill between the
//!   in-memory apply and the append loses only the unacknowledged tail.
//! - An append failure (ENOSPC, torn write) disables the WAL for the
//!   rest of the process — the engine keeps serving, the failure is
//!   counted (`wal_appends_failed`), and the next restart simply
//!   recovers less. Durability degrades with a recorded reason; it
//!   never corrupts.

use std::fs;
use std::path::{Path, PathBuf};

use usher_driver::KeyWriter;

use crate::faultio::{FaultIo, FaultSite};
use crate::json::{Json, ObjWriter};

/// The WAL header line; a mismatch (version skew, garbage file) drops
/// every record.
pub const WAL_HEADER: &str = "usher-wal v1";

/// One durable session event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A session was created by analyzing `source`.
    Open {
        /// Session id.
        sid: u64,
        /// Whether the session was opened from warm store artifacts
        /// (`true`) or a full cold compute (`false`). Replay honors the
        /// mode so recovered responses stay byte-identical.
        warm: bool,
        /// Base edit count (0 live; the accumulated count in a
        /// compacted log).
        edits: u64,
        /// The canonical source text at open time.
        source: String,
    },
    /// An accepted edit replacing one function body.
    Edit {
        /// Session id.
        sid: u64,
        /// Edited function name.
        func: String,
        /// Replacement function definition.
        body: String,
    },
    /// The session was closed; replay discards all its records.
    Close {
        /// Session id.
        sid: u64,
    },
}

fn record_crc(payload: &str) -> u64 {
    let mut k = KeyWriter::new("wal-record");
    k.str(payload);
    k.finish()
}

fn source_digest(source: &str) -> u64 {
    let mut k = KeyWriter::new("wal-source");
    k.str(source);
    k.finish()
}

/// Encodes one WAL line into one buffer, sized for `text` bytes of
/// string fields: a CRC placeholder, the payload `fields` writes, and
/// the newline. The CRC over the payload then fills the placeholder.
fn record_line(text: usize, fields: impl FnOnce(&mut ObjWriter)) -> String {
    const CRC: usize = 16;
    let mut prefix = String::with_capacity(text + 128);
    prefix.push_str(&" ".repeat(CRC + 1));
    let mut w = ObjWriter::after(prefix);
    fields(&mut w);
    let mut line = w.into_string();
    let crc = format!("{:016x}", record_crc(&line[CRC + 1..]));
    line.replace_range(..CRC, &crc);
    line.push('\n');
    line
}

/// The line of an open record, encoded from a borrowed source.
pub(crate) fn open_line(sid: u64, warm: bool, edits: u64, source: &str) -> String {
    record_line(source.len(), |w| {
        w.str("t", "open")
            .u64("sid", sid)
            .bool("warm", warm)
            .u64("edits", edits)
            .str("digest", &format!("{:016x}", source_digest(source)))
            .str("source", source);
    })
}

impl WalRecord {
    /// The session this record belongs to.
    pub fn sid(&self) -> u64 {
        match self {
            WalRecord::Open { sid, .. }
            | WalRecord::Edit { sid, .. }
            | WalRecord::Close { sid } => *sid,
        }
    }

    /// Encodes the record as one WAL line (CRC prefix included, no
    /// trailing newline). Public so tests can hand-craft WAL files.
    pub fn encode_line(&self) -> String {
        let mut line = self.line();
        line.pop();
        line
    }

    /// The record's WAL line, trailing newline included.
    fn line(&self) -> String {
        match self {
            WalRecord::Open {
                sid,
                warm,
                edits,
                source,
            } => open_line(*sid, *warm, *edits, source),
            WalRecord::Edit { sid, func, body } => record_line(func.len() + body.len(), |w| {
                w.str("t", "edit")
                    .u64("sid", *sid)
                    .str("func", func)
                    .str("body", body);
            }),
            WalRecord::Close { sid } => record_line(0, |w| {
                w.str("t", "close").u64("sid", *sid);
            }),
        }
    }

    fn decode_line(line: &str) -> Option<WalRecord> {
        let crc_hex = line.get(..16)?;
        if line.as_bytes().get(16) != Some(&b' ') {
            return None;
        }
        let payload = line.get(17..)?;
        let crc = u64::from_str_radix(crc_hex, 16).ok()?;
        if crc != record_crc(payload) {
            return None;
        }
        let v = Json::parse(payload).ok()?;
        let sid = v.get("sid")?.as_u64()?;
        match v.get("t")?.as_str()? {
            "open" => {
                let warm = v.get("warm")?.as_bool()?;
                let edits = v.get("edits")?.as_u64()?;
                let source = v.get("source")?.as_str()?.to_string();
                let digest = u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?;
                if digest != source_digest(&source) {
                    return None;
                }
                Some(WalRecord::Open {
                    sid,
                    warm,
                    edits,
                    source,
                })
            }
            "edit" => Some(WalRecord::Edit {
                sid,
                func: v.get("func")?.as_str()?.to_string(),
                body: v.get("body")?.as_str()?.to_string(),
            }),
            "close" => Some(WalRecord::Close { sid }),
            _ => None,
        }
    }
}

/// The result of reading a WAL file: the valid record prefix plus a
/// count of lines dropped from the corrupt/torn tail.
#[derive(Debug, Default)]
pub struct WalReplayInfo {
    /// Records that passed CRC + digest + decode, in append order.
    pub records: Vec<WalRecord>,
    /// Lines discarded (bad header counts every line; a bad record
    /// counts itself and everything after it).
    pub dropped: u64,
}

/// An open WAL with an append handle.
///
/// Created by [`Wal::create`], which atomically rewrites the file with
/// the compacted post-recovery record set before appending resumes —
/// this physically truncates any corrupt tail so new appends never land
/// after (and get masked by) a bad line.
pub struct Wal {
    path: PathBuf,
    io: FaultIo,
    file: Option<fs::File>,
    appends_failed: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("enabled", &self.file.is_some())
            .field("appends_failed", &self.appends_failed)
            .finish()
    }
}

impl Wal {
    /// Reads and validates a WAL file. A missing file is a fresh start
    /// (no records, nothing dropped).
    pub fn read(path: &Path, io: &FaultIo) -> WalReplayInfo {
        if !path.exists() {
            return WalReplayInfo::default();
        }
        let Ok(content) = io.read_to_string(FaultSite::WalOpen, path) else {
            return WalReplayInfo::default();
        };
        if content.is_empty() {
            return WalReplayInfo::default();
        }
        let lines: Vec<&str> = content.lines().collect();
        let mut info = WalReplayInfo::default();
        if lines.first() != Some(&WAL_HEADER) {
            info.dropped = lines.len() as u64;
            return info;
        }
        for (i, line) in lines.iter().enumerate().skip(1) {
            match WalRecord::decode_line(line) {
                Some(r) => info.records.push(r),
                None => {
                    info.dropped = (lines.len() - i) as u64;
                    break;
                }
            }
        }
        info
    }

    /// Atomically rewrites `path` with the compacted `records` and
    /// opens it for appending. If any step of the rewrite fails the WAL
    /// comes up disabled (counted in
    /// [`appends_failed`](Wal::appends_failed)): the engine still
    /// serves, it just won't recover the next crash.
    pub fn create(path: &Path, io: &FaultIo, records: &[WalRecord]) -> Wal {
        let mut wal = Wal {
            path: path.to_path_buf(),
            io: io.clone(),
            file: None,
            appends_failed: 0,
        };
        let mut content = String::with_capacity(256);
        content.push_str(WAL_HEADER);
        content.push('\n');
        for r in records {
            content.push_str(&r.line());
        }
        let tmp = path.with_extension("wal.tmp");
        let rewrite = (|| -> std::io::Result<()> {
            let f = io.create_write(FaultSite::WalRewrite, &tmp, content.as_bytes())?;
            io.sync(FaultSite::WalSync, &f)?;
            io.rename(FaultSite::WalRewrite, &tmp, path)?;
            if let Some(dir) = path.parent() {
                io.sync_dir(FaultSite::WalRewrite, dir)?;
            }
            Ok(())
        })();
        match rewrite {
            Ok(()) if !io.is_dead() => match fs::OpenOptions::new().append(true).open(path) {
                Ok(f) => wal.file = Some(f),
                Err(_) => wal.appends_failed += 1,
            },
            _ => {
                let _ = io.remove_file(&tmp);
                wal.appends_failed += 1;
            }
        }
        wal
    }

    /// Appends and fsyncs one record. On failure the WAL disables
    /// itself: subsequent appends are silent no-ops and the failure
    /// count is surfaced in `stats`.
    pub fn append(&mut self, record: &WalRecord) {
        self.append_line(&record.line());
    }

    /// [`Wal::append`] of an already encoded line, such as an
    /// [`open_line`] that borrows its source.
    pub(crate) fn append_line(&mut self, line: &str) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let ok = self
            .io
            .append(FaultSite::WalAppend, file, line.as_bytes())
            .and_then(|()| self.io.sync(FaultSite::WalSync, file))
            .is_ok();
        if !ok {
            self.file = None;
            self.appends_failed += 1;
        }
    }

    /// Final fsync (used by graceful shutdown; appends already sync).
    pub fn sync(&mut self) {
        if let Some(f) = self.file.as_ref() {
            let _ = self.io.sync(FaultSite::WalSync, f);
        }
    }

    /// Whether appends are still reaching disk.
    pub fn enabled(&self) -> bool {
        self.file.is_some()
    }

    /// How many appends (or the initial rewrite) have failed.
    pub fn appends_failed(&self) -> u64 {
        self.appends_failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultio::{FaultKind, FaultSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("usher-wal-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Open {
                sid: 1,
                warm: false,
                edits: 0,
                source: "int main() { return 0; }\n".into(),
            },
            WalRecord::Edit {
                sid: 1,
                func: "main".into(),
                body: "int main() { return 1; }".into(),
            },
            WalRecord::Close { sid: 1 },
        ]
    }

    #[test]
    fn create_append_read_round_trips() {
        let dir = scratch("rt");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let mut wal = Wal::create(&path, &io, &[]);
        assert!(wal.enabled());
        for r in sample_records() {
            wal.append(&r);
        }
        let info = Wal::read(&path, &io);
        assert_eq!(info.dropped, 0);
        assert_eq!(info.records, sample_records());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_records_survive_create() {
        let dir = scratch("compact");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let recs = vec![WalRecord::Open {
            sid: 7,
            warm: true,
            edits: 4,
            source: "int main() { int x; return x; }\n".into(),
        }];
        let _ = Wal::create(&path, &io, &recs);
        let info = Wal::read(&path, &io);
        assert_eq!(info.records, recs);
        assert_eq!(info.dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_empty_files_are_fresh_starts() {
        let dir = scratch("fresh");
        let io = FaultIo::none();
        let info = Wal::read(&dir.join("nope.wal"), &io);
        assert!(info.records.is_empty());
        assert_eq!(info.dropped, 0);
        let empty = dir.join("empty.wal");
        fs::write(&empty, "").unwrap();
        let info = Wal::read(&empty, &io);
        assert!(info.records.is_empty());
        assert_eq!(info.dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_drops_only_the_tail() {
        let dir = scratch("torn");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let recs = sample_records();
        let mut wal = Wal::create(&path, &io, &[]);
        for r in &recs {
            wal.append(r);
        }
        drop(wal);
        // Truncate the last line mid-record, as a torn final write would.
        let content = fs::read_to_string(&path).unwrap();
        fs::write(&path, &content[..content.len() - 7]).unwrap();
        let info = Wal::read(&path, &io);
        assert_eq!(info.records, recs[..2].to_vec());
        assert_eq!(info.dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_drops_it_and_everything_after() {
        let dir = scratch("mid");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let recs = sample_records();
        let mut lines = vec![WAL_HEADER.to_string()];
        lines.extend(recs.iter().map(WalRecord::encode_line));
        // Flip one payload byte in the middle record; its CRC now fails.
        lines[2] = lines[2].replace("\"t\":\"edit\"", "\"t\":\"edyt\"");
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        let info = Wal::read(&path, &io);
        assert_eq!(info.records, recs[..1].to_vec());
        assert_eq!(info.dropped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_skew_drops_every_line() {
        let dir = scratch("hdr");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let line = sample_records()[0].encode_line();
        fs::write(&path, format!("usher-wal v99\n{line}\n")).unwrap();
        let info = Wal::read(&path, &io);
        assert!(info.records.is_empty());
        assert_eq!(info.dropped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failure_disables_but_keeps_earlier_records() {
        let dir = scratch("dis");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let recs = sample_records();
        let mut wal = Wal::create(&path, &io, &[]);
        wal.append(&recs[0]);
        io.arm(
            FaultSite::WalAppend,
            FaultSpec {
                kind: FaultKind::Torn { keep: 5 },
                after: 0,
            },
        );
        wal.append(&recs[1]);
        assert!(!wal.enabled());
        assert_eq!(wal.appends_failed(), 1);
        // Disabled: further appends are no-ops, not errors.
        wal.append(&recs[2]);
        assert_eq!(wal.appends_failed(), 1);
        let info = Wal::read(&path, &io);
        assert_eq!(info.records, recs[..1].to_vec());
        assert_eq!(info.dropped, 1, "the torn prefix is a dropped line");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_under_kill_comes_up_disabled() {
        let dir = scratch("killcreate");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        io.arm(
            FaultSite::WalRewrite,
            FaultSpec {
                kind: FaultKind::Kill,
                after: 0,
            },
        );
        let wal = Wal::create(&path, &io, &[]);
        assert!(!wal.enabled());
        assert_eq!(wal.appends_failed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let dir = scratch("esc");
        let path = dir.join("sessions.wal");
        let io = FaultIo::none();
        let rec = WalRecord::Open {
            sid: 3,
            warm: false,
            edits: 0,
            source: "int main() {\n  /* \"quotes\" \\ tabs\t */\n  return 0;\n}\n".into(),
        };
        let mut wal = Wal::create(&path, &io, &[]);
        wal.append(&rec);
        let info = Wal::read(&path, &io);
        assert_eq!(info.records, vec![rec]);
        let _ = fs::remove_dir_all(&dir);
    }
}
