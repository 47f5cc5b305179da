//! The on-disk content-addressed artifact store.
//!
//! Layout: one file per entry, named `<key:016x>.art` inside the store
//! directory, where `key` is a stage cache key (a pure content hash of
//! the source text plus pipeline knobs — the store directory's own
//! contents never feed back into any key). Serve writes one entry per
//! analysed program, keyed by its plan key and holding module, Γ and
//! plan together ([`crate::codec::encode_analysis`]), so a program is
//! persisted, evicted and healed as a whole. Each file starts with a
//! one-line header
//!
//! ```text
//! usher-store v<CACHE_FORMAT_VERSION> digest=<016x>
//! ```
//!
//! followed by the codec payload. The digest covers the payload, so
//! truncation, bit rot and partial writes are detected on load; a
//! mismatch (or a version skew after a format bump) evicts the file and
//! reports a miss, mirroring the in-memory cache's verify-on-hit
//! self-healing. Writes go through a temp file and an atomic rename, so
//! a crash mid-write never leaves a half-entry under a valid name.
//!
//! Recency for the size-capped LRU is kept in an append-only
//! `journal.log` of entry names (the last occurrence of a name is its
//! most recent touch); the journal is compacted in place, also via
//! rename, once it grows past a small multiple of the live entry count.
//! Unrecognized files in the directory are ignored entirely, among them
//! the `<key>.<kind>.art` entries of stores written before module, Γ
//! and plan shared one entry: they are neither read nor counted against
//! the cap.
//!
//! All durable writes route through the injectable [`FaultIo`] shim so
//! the crash-safety suite (and `usher fuzz --fault serve-chaos`) can
//! exercise torn writes, ENOSPC and kill-points at every step. The
//! durability order of an entry write is fixed and asserted by tests:
//! temp-file write, temp-file fsync, rename, directory fsync — a crash
//! at any point leaves either no entry or a complete one, never a
//! half-entry under a valid name.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use usher_driver::{KeyWriter, CACHE_FORMAT_VERSION};

use crate::faultio::{FaultIo, FaultSite};

/// Counters describing store behavior since open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Live entries.
    pub entries: usize,
    /// Total payload+header bytes of live entries.
    pub bytes: u64,
    /// Successful loads.
    pub hits: u64,
    /// Loads that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries evicted by the size cap.
    pub evictions: u64,
    /// Entries evicted because their header or digest did not check out.
    pub corrupt_recovered: u64,
}

struct EntryMeta {
    bytes: u64,
    seq: u64,
}

struct Inner {
    dir: PathBuf,
    cap_bytes: u64,
    map: HashMap<u64, EntryMeta>,
    next_seq: u64,
    journal_lines: u64,
    stats: DiskStats,
    io: FaultIo,
}

/// A size-capped, self-healing, content-addressed artifact store.
pub struct DiskStore {
    inner: Mutex<Inner>,
}

/// Digest of a store payload, written into the entry header and checked
/// on every load.
pub fn payload_digest(payload: &str) -> u64 {
    let mut k = KeyWriter::new("store-payload");
    k.str(payload);
    k.finish()
}

fn entry_name(key: u64) -> String {
    format!("{key:016x}.art")
}

fn parse_entry_name(name: &str) -> Option<u64> {
    let key_s = name.strip_suffix(".art")?;
    if key_s.len() != 16 {
        return None;
    }
    u64::from_str_radix(key_s, 16).ok()
}

fn header_line(digest: u64) -> String {
    format!("usher-store v{CACHE_FORMAT_VERSION} digest={digest:016x}")
}

/// An entry file's payload, when its header names this format version
/// and its payload's digest.
fn checked_payload(content: &str) -> Option<&str> {
    let (header, payload) = content.split_once('\n')?;
    (header == header_line(payload_digest(payload))).then_some(payload)
}

/// Crash-safe entry write: temp write → temp fsync → rename → dir
/// fsync. The final directory fsync is what makes the *rename itself*
/// durable — without it a crash after a successful rename can roll the
/// directory back to a state where the name exists with no (or stale)
/// content on some filesystems.
fn atomic_write(io: &FaultIo, dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!(".tmp-{name}"));
    let f = io.create_write(FaultSite::StoreTempWrite, &tmp, content.as_bytes())?;
    io.sync(FaultSite::StoreTempSync, &f)?;
    io.rename(FaultSite::StoreRename, &tmp, &dir.join(name))?;
    io.sync_dir(FaultSite::StoreDirSync, dir)
}

/// Scans a store directory for corrupt `.art` entries (bad header,
/// version skew, digest mismatch), returning the offending file names.
/// Temp files and junk are ignored, exactly as [`DiskStore::open`]
/// ignores them. The chaos campaign runs this after every injected
/// crash: the atomic write order above means the answer must always be
/// empty.
pub fn verify_dir(dir: &Path) -> Vec<String> {
    let mut corrupt = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return corrupt;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_entry_name(name).is_none() {
            continue;
        }
        let ok = fs::read_to_string(entry.path()).is_ok_and(|c| checked_payload(&c).is_some());
        if !ok {
            corrupt.push(name.to_string());
        }
    }
    corrupt.sort_unstable();
    corrupt
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir` with the given
    /// size cap in bytes. Existing entries are indexed; the journal, if
    /// present, establishes their recency order.
    ///
    /// # Errors
    ///
    /// Fails only on directory create/scan I/O errors.
    pub fn open(dir: &Path, cap_bytes: u64) -> std::io::Result<DiskStore> {
        DiskStore::open_with_io(dir, cap_bytes, FaultIo::none())
    }

    /// [`DiskStore::open`] with an injectable I/O shim; all durable
    /// writes and entry reads route through it.
    ///
    /// # Errors
    ///
    /// Fails only on directory create/scan I/O errors.
    pub fn open_with_io(dir: &Path, cap_bytes: u64, io: FaultIo) -> std::io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        let mut map = HashMap::new();
        let mut names_in_dir_order = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(key) = parse_entry_name(name) else {
                continue; // junk, temp files and older per-kind entries are ignored
            };
            let Ok(md) = entry.metadata() else { continue };
            names_in_dir_order.push(key);
            map.insert(
                key,
                EntryMeta {
                    bytes: md.len(),
                    seq: 0,
                },
            );
        }
        names_in_dir_order.sort_unstable();
        let mut next_seq = 1;
        for id in names_in_dir_order {
            map.get_mut(&id).expect("just inserted").seq = next_seq;
            next_seq += 1;
        }
        let mut journal_lines = 0;
        if let Ok(journal) = fs::read_to_string(dir.join("journal.log")) {
            for line in journal.lines() {
                journal_lines += 1;
                if let Some(id) = parse_entry_name(line.trim()) {
                    if let Some(meta) = map.get_mut(&id) {
                        meta.seq = next_seq;
                        next_seq += 1;
                    }
                }
            }
        }
        let stats = DiskStats {
            entries: map.len(),
            bytes: map.values().map(|m| m.bytes).sum(),
            ..DiskStats::default()
        };
        Ok(DiskStore {
            inner: Mutex::new(Inner {
                dir: dir.to_path_buf(),
                cap_bytes,
                map,
                next_seq,
                journal_lines,
                stats,
                io,
            }),
        })
    }

    /// Loads an entry's payload, verifying version and digest. Anything
    /// unusable is evicted (self-heal) and reported as a miss.
    pub fn load(&self, key: u64) -> Option<String> {
        let mut inner = self.inner.lock().expect("store poisoned");
        if !inner.map.contains_key(&key) {
            inner.stats.misses += 1;
            return None;
        }
        let name = entry_name(key);
        let path = inner.dir.join(&name);
        let content = match inner.io.read_to_string(FaultSite::StoreRead, &path) {
            Ok(c) => c,
            Err(_) => {
                inner.remove_entry(key);
                inner.stats.misses += 1;
                return None;
            }
        };
        match checked_payload(&content).map(str::to_string) {
            Some(p) => {
                inner.stats.hits += 1;
                inner.touch(key);
                Some(p)
            }
            None => {
                // Version skew or corruption: evict and recompute.
                inner.remove_entry(key);
                inner.stats.corrupt_recovered += 1;
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Writes an entry atomically (temp file + rename), then enforces the
    /// size cap by evicting least-recently-used entries. Write failures
    /// are swallowed — the store is an accelerator, never a correctness
    /// dependency.
    pub fn store(&self, key: u64, payload: &str) {
        let mut inner = self.inner.lock().expect("store poisoned");
        let name = entry_name(key);
        let content = format!("{}\n{payload}", header_line(payload_digest(payload)));
        if atomic_write(&inner.io, &inner.dir, &name, &content).is_err() {
            return;
        }
        let new_bytes = content.len() as u64;
        if let Some(old) = inner.map.remove(&key) {
            inner.stats.bytes -= old.bytes;
            inner.stats.entries -= 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.map.insert(
            key,
            EntryMeta {
                bytes: new_bytes,
                seq,
            },
        );
        inner.stats.bytes += new_bytes;
        inner.stats.entries += 1;
        inner.stats.writes += 1;
        inner.journal_append(&name);
        inner.evict_over_cap(key);
        inner.maybe_compact_journal();
    }

    /// Current counters.
    pub fn stats(&self) -> DiskStats {
        self.inner.lock().expect("store poisoned").stats
    }
}

impl Inner {
    fn remove_entry(&mut self, key: u64) {
        if let Some(meta) = self.map.remove(&key) {
            self.stats.bytes -= meta.bytes;
            self.stats.entries -= 1;
            let _ = self.io.remove_file(&self.dir.join(entry_name(key)));
        }
    }

    fn touch(&mut self, key: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(meta) = self.map.get_mut(&key) {
            meta.seq = seq;
        }
        self.journal_append(&entry_name(key));
        self.maybe_compact_journal();
    }

    fn journal_append(&mut self, name: &str) {
        let path = self.dir.join("journal.log");
        if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) {
            let line = format!("{name}\n");
            if self
                .io
                .append(FaultSite::JournalAppend, &mut f, line.as_bytes())
                .is_ok()
            {
                self.journal_lines += 1;
            }
        }
    }

    fn maybe_compact_journal(&mut self) {
        if self.journal_lines <= 8 * self.map.len() as u64 + 64 {
            return;
        }
        let mut by_seq: Vec<_> = self.map.iter().map(|(id, m)| (m.seq, *id)).collect();
        by_seq.sort_unstable();
        let mut content = String::new();
        for (_, key) in &by_seq {
            content.push_str(&entry_name(*key));
            content.push('\n');
        }
        if atomic_write(&self.io, &self.dir, "journal.log", &content).is_ok() {
            self.journal_lines = by_seq.len() as u64;
        }
    }

    /// Evicts least-recently-used entries until under the cap. The entry
    /// just written is exempt, so a single oversized artifact still
    /// persists rather than thrashing.
    fn evict_over_cap(&mut self, keep: u64) {
        if self.cap_bytes == 0 {
            return; // 0 = uncapped
        }
        while self.stats.bytes > self.cap_bytes {
            let victim = self
                .map
                .iter()
                .filter(|(key, _)| **key != keep)
                .min_by_key(|(_, m)| m.seq)
                .map(|(key, _)| *key);
            let Some(key) = victim else { break };
            self.remove_entry(key);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("usher-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_persists_across_reopen() {
        let dir = scratch_dir("rt");
        {
            let s = DiskStore::open(&dir, 0).unwrap();
            s.store(0xabc, "payload\nwith\nlines");
            assert_eq!(s.load(0xabc).as_deref(), Some("payload\nwith\nlines"));
            assert_eq!(s.stats().entries, 1);
            assert_eq!(s.stats().hits, 1);
        }
        let s = DiskStore::open(&dir, 0).unwrap();
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.load(0xabc).as_deref(), Some("payload\nwith\nlines"));
        // Another key: no entry.
        assert_eq!(s.load(0xabd), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_skew_self_heal() {
        let dir = scratch_dir("corrupt");
        let s = DiskStore::open(&dir, 0).unwrap();
        s.store(1, "gamma-bytes");
        s.store(2, "other");
        // Flip payload bytes under entry 1.
        let p1 = dir.join(entry_name(1));
        let mut content = fs::read_to_string(&p1).unwrap();
        content.push_str("TRAILING GARBAGE");
        fs::write(&p1, content).unwrap();
        assert_eq!(s.load(1), None, "corrupt entry must miss");
        assert!(!p1.exists(), "corrupt entry must be removed");
        assert_eq!(s.stats().corrupt_recovered, 1);
        // Version skew on entry 2.
        let p2 = dir.join(entry_name(2));
        let content = fs::read_to_string(&p2).unwrap();
        fs::write(
            &p2,
            content.replacen(&format!("v{CACHE_FORMAT_VERSION}"), "v999", 1),
        )
        .unwrap();
        assert_eq!(s.load(2), None);
        assert_eq!(s.stats().corrupt_recovered, 2);
        // The store recovers: a rewrite round-trips again.
        s.store(1, "gamma-bytes");
        assert_eq!(s.load(1).as_deref(), Some("gamma-bytes"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let dir = scratch_dir("lru");
        // Each entry is 59 bytes (39 header + 20 payload); cap fits 3.
        let s = DiskStore::open(&dir, 220).unwrap();
        s.store(1, &"a".repeat(20));
        s.store(2, &"b".repeat(20));
        s.store(3, &"c".repeat(20));
        assert_eq!(s.stats().entries, 3);
        // Touch 1 so 2 becomes least recent.
        assert!(s.load(1).is_some());
        s.store(4, &"d".repeat(20));
        assert!(s.stats().evictions >= 1);
        assert_eq!(s.load(2), None, "least-recent entry evicted");
        assert!(s.load(1).is_some(), "recently touched entry kept");
        assert!(s.load(4).is_some(), "new entry kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn junk_files_are_ignored() {
        let dir = scratch_dir("junk");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        fs::write(dir.join("0123.module.art.bak"), "nope").unwrap();
        fs::write(dir.join("zzzzzzzzzzzzzzzz.art"), "bad key hex").unwrap();
        fs::write(dir.join("0123456789abcdef.plan.art"), "per-kind entry").unwrap();
        let s = DiskStore::open(&dir, 0).unwrap();
        assert_eq!(s.stats().entries, 0);
        s.store(9, "m");
        assert_eq!(s.load(9).as_deref(), Some("m"));
        assert!(dir.join("README.txt").exists(), "junk left untouched");
        assert!(dir.join("0123456789abcdef.plan.art").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_before_rename_leaves_no_entry() {
        use crate::faultio::{FaultKind, FaultSpec};
        let dir = scratch_dir("killrename");
        let io = FaultIo::none();
        let s = DiskStore::open_with_io(&dir, 0, io.clone()).unwrap();
        io.arm(
            FaultSite::StoreRename,
            FaultSpec {
                kind: FaultKind::Kill,
                after: 0,
            },
        );
        s.store(7, "doomed");
        assert!(
            !dir.join(entry_name(7)).exists(),
            "a kill before rename must not leave the entry name"
        );
        assert_eq!(verify_dir(&dir), Vec::<String>::new());
        // Reopen (fresh shim == restart): the leftover temp junk is
        // ignored and the store works.
        let s2 = DiskStore::open(&dir, 0).unwrap();
        assert_eq!(s2.stats().entries, 0);
        s2.store(7, "doomed");
        assert_eq!(s2.load(7).as_deref(), Some("doomed"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_temp_write_never_surfaces_a_half_entry() {
        use crate::faultio::{FaultKind, FaultSpec};
        let dir = scratch_dir("tornwrite");
        let io = FaultIo::none();
        let s = DiskStore::open_with_io(&dir, 0, io.clone()).unwrap();
        io.arm(
            FaultSite::StoreTempWrite,
            FaultSpec {
                kind: FaultKind::Torn { keep: 10 },
                after: 0,
            },
        );
        s.store(8, "gamma-payload");
        assert_eq!(s.load(8), None);
        assert!(!dir.join(entry_name(8)).exists());
        assert_eq!(verify_dir(&dir), Vec::<String>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_write_durability_order_is_fixed() {
        let dir = scratch_dir("order");
        let io = FaultIo::none();
        let s = DiskStore::open_with_io(&dir, 0, io.clone()).unwrap();
        s.store(3, "module-bytes");
        let log = io.log();
        let pos = |site: FaultSite| log.iter().position(|&s| s == site).unwrap();
        assert!(
            pos(FaultSite::StoreTempWrite) < pos(FaultSite::StoreTempSync),
            "temp bytes written before their fsync"
        );
        assert!(
            pos(FaultSite::StoreTempSync) < pos(FaultSite::StoreRename),
            "temp file durable before rename publishes it"
        );
        assert!(
            pos(FaultSite::StoreRename) < pos(FaultSite::StoreDirSync),
            "directory fsync makes the rename durable"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_dir_flags_only_bad_entries() {
        let dir = scratch_dir("verify");
        let s = DiskStore::open(&dir, 0).unwrap();
        s.store(1, "good");
        s.store(2, "soon bad");
        let bad = entry_name(2);
        let mut content = fs::read_to_string(dir.join(&bad)).unwrap();
        content.push_str("GARBAGE");
        fs::write(dir.join(&bad), content).unwrap();
        fs::write(dir.join(".tmp-ignored"), "half").unwrap();
        assert_eq!(verify_dir(&dir), vec![bad]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_compacted() {
        let dir = scratch_dir("journal");
        let s = DiskStore::open(&dir, 0).unwrap();
        s.store(5, "p");
        for _ in 0..200 {
            assert!(s.load(5).is_some());
        }
        let lines = fs::read_to_string(dir.join("journal.log"))
            .unwrap()
            .lines()
            .count();
        assert!(
            lines <= 8 + 64 + 1,
            "journal must be compacted, got {lines} lines"
        );
        // Recency survives compaction across reopen.
        let s2 = DiskStore::open(&dir, 0).unwrap();
        assert!(s2.load(5).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
