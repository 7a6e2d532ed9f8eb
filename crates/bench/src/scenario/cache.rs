//! The persistent campaign memo: a checksummed JSON-lines file mapping
//! cell fingerprints to their per-task bounds, so repeated campaigns
//! (and a future serving layer) survive process restarts — and, since
//! schema 2, survive `kill -9` mid-run: entries are appended chunk by
//! chunk as the campaign sequences them, every data line carries a
//! CRC32, and periodic checkpoint records let `--resume` fast-forward
//! the Gray odometer past work that is already durable.
//!
//! Format — header first (plain JSON), then one CRC-prefixed JSON
//! object per line (`crc32(payload)` in lower-case hex, a tab, the
//! payload):
//!
//! ```text
//! {"kind":"wcet-campaign-memo","schema":2}
//! 9f3a01bc<TAB>{"fp":"00ab…32 hex…","rows":[{"core":0,"mode":"isolated","task":"fir4x8","thread":0,"wcet":9444}]}
//! 51c2e7d0<TAB>{"ckpt":{"matrix":"…32 hex…","produced":1024,"entries":893}}
//! ```
//!
//! Robustness rules, in order:
//!
//! * missing file → empty cache (a cold run);
//! * unreadable file / wrong `kind` / newer or older `schema` header → the
//!   whole file is ignored and the first write-back replaces it
//!   *atomically* (header to a tmp file, then rename — a schema bump or
//!   a crash mid-rewrite never poisons results, it just recomputes);
//! * an unparseable *line* → that line alone is skipped and counted in
//!   [`DiskCache::skipped`] (a torn append, e.g. from a killed process,
//!   or a damaged byte that is not UTF-8 costs one entry, not the
//!   cache); a torn line that lost its newline is additionally sealed
//!   with one before the first fresh append, so the remnant never
//!   splices into a new entry;
//! * a parseable line whose CRC mismatches → rejected and counted in
//!   [`DiskCache::crc_rejected`] (silent single-bit corruption is
//!   observable, not served);
//! * duplicate fingerprints → last write wins (append-only files never
//!   rewrite history; the newest bound is the one a re-run would
//!   produce);
//! * a checkpoint is trusted only when every line before it was clean
//!   *and* its durable-entry count matches the file — a checkpoint
//!   newer than the memo (truncated or tampered file) is ignored, so
//!   `--resume` degrades to recomputation instead of losing cells;
//! * only fully-bounded cells are written (error cells are cheap to
//!   rediscover and their messages are not stable schema).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::Json;

/// On-disk schema version; bump on any layout change.
pub const CACHE_SCHEMA: u64 = 2;
const CACHE_KIND: &str = "wcet-campaign-memo";

/// One cached per-task bound row (the compact projection of a
/// [`super::run::TaskRow`] — bounds only, no report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRow {
    /// Program name.
    pub task: String,
    /// Core index.
    pub core: usize,
    /// Hardware-thread index.
    pub thread: usize,
    /// Mode label.
    pub mode: String,
    /// The WCET bound in cycles.
    pub wcet: u64,
}

/// A resume checkpoint: every odometer position before `produced` has
/// had its bounded cells made durable (flushed before the checkpoint
/// was appended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the matrix the campaign ran (a checkpoint of one
    /// matrix must never fast-forward another).
    pub matrix: (u64, u64),
    /// Odometer positions consumed (duplicates included).
    pub produced: usize,
    /// Durable entry lines at checkpoint time (the tamper check).
    pub entries: usize,
}

/// The append-side state, behind a mutex so the sequencing sink can
/// write while the producer reads the loaded entries.
#[derive(Debug, Default)]
struct Writer {
    file: Option<File>,
    /// True when the file on disk carries the current header —
    /// append-in-place is then safe; otherwise the first write rewrites
    /// the header atomically (tmp file + rename).
    header_ok: bool,
    /// Valid entry lines on disk (loaded + appended this session).
    durable_lines: usize,
    /// The newest checkpoint on disk `(matrix, produced)` — checkpoints
    /// are only appended when they advance this.
    last_ckpt: Option<((u64, u64), usize)>,
}

/// A loaded (or disabled) campaign memo cache.
#[derive(Debug, Default)]
pub struct DiskCache {
    path: Option<PathBuf>,
    entries: HashMap<(u64, u64), Vec<CachedRow>>,
    /// Unparseable lines skipped while loading (torn appends, noise).
    pub skipped: usize,
    /// Parseable lines rejected for a CRC mismatch while loading.
    pub crc_rejected: usize,
    checkpoint: Option<Checkpoint>,
    writer: Mutex<Writer>,
}

impl DiskCache {
    /// A cache that never hits and never writes.
    #[must_use]
    pub fn disabled() -> DiskCache {
        DiskCache::default()
    }

    /// Loads the cache at `path`, tolerating absence and corruption (see
    /// the [module docs](self)).
    #[must_use]
    pub fn open(path: &Path) -> DiskCache {
        let mut cache = DiskCache {
            path: Some(path.to_path_buf()),
            ..DiskCache::default()
        };
        let Ok(bytes) = std::fs::read(path) else {
            return cache; // missing or unreadable: cold
        };
        // Lines are checked for UTF-8 one at a time, so a damaged byte
        // costs its own line only.
        let mut lines = byte_lines(&bytes).map(std::str::from_utf8);
        let header_ok = lines
            .next()
            .and_then(|l| Json::parse(l.ok()?).ok())
            .is_some_and(|h| {
                h.get("kind").and_then(Json::as_str) == Some(CACHE_KIND)
                    && h.get("schema").and_then(Json::as_u64) == Some(CACHE_SCHEMA)
            });
        if !header_ok {
            return cache; // wrong vintage: ignore wholesale, rewrite later
        }
        let mut entry_lines = 0usize;
        for line in lines {
            let Ok(line) = line else {
                cache.skipped += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line) {
                Ok(Line::Entry(fp, rows)) => {
                    entry_lines += 1;
                    cache.entries.insert(fp, rows); // last write wins
                }
                Ok(Line::Checkpoint(c)) => {
                    // Trust requires a clean prefix (nothing durable was
                    // lost before this point) and an entry count that
                    // matches the file.
                    if cache.skipped == 0 && cache.crc_rejected == 0 && c.entries == entry_lines {
                        cache.checkpoint = Some(c);
                    }
                }
                Err(LineError::Unparseable) => cache.skipped += 1,
                Err(LineError::CrcMismatch) => cache.crc_rejected += 1,
            }
        }
        let writer = cache.writer.get_mut().expect("fresh lock");
        writer.header_ok = true;
        writer.durable_lines = entry_lines;
        writer.last_ckpt = cache.checkpoint.map(|c| (c.matrix, c.produced));
        cache
    }

    /// Number of loaded entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached rows of a cell fingerprint, if any.
    #[must_use]
    pub fn lookup(&self, fp: (u64, u64)) -> Option<&[CachedRow]> {
        self.entries.get(&fp).map(Vec::as_slice)
    }

    /// The newest trusted checkpoint loaded from disk, if any.
    #[must_use]
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.checkpoint
    }

    /// Appends freshly-computed entries and flushes them (one sequenced
    /// chunk's write-back; crash-safety depends on entries being durable
    /// *before* the checkpoint that covers them). Returns how many
    /// entries were written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the cache file may then be torn, which
    /// the next [`DiskCache::open`] tolerates line-by-line.
    pub fn append(&self, fresh: &[((u64, u64), Vec<CachedRow>)]) -> std::io::Result<usize> {
        let Some(path) = &self.path else {
            return Ok(0);
        };
        let mut text = String::new();
        let mut written = 0usize;
        for (fp, rows) in fresh {
            if self.entries.contains_key(fp) {
                continue; // already durable
            }
            let _ = writeln!(text, "{}", entry_line(*fp, rows));
            written += 1;
        }
        if written == 0 {
            return Ok(0);
        }
        let mut w = self.lock_writer();
        let file = ensure_file(&mut w, path)?;
        file.write_all(text.as_bytes())?;
        file.flush()?;
        w.durable_lines += written;
        Ok(written)
    }

    /// Appends a checkpoint claiming every position before `produced` is
    /// durable, provided it advances the newest checkpoint of the same
    /// matrix (re-runs over a complete memo stay append-free). Returns
    /// whether a record was written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, like [`DiskCache::append`].
    pub fn write_checkpoint(&self, matrix: (u64, u64), produced: usize) -> std::io::Result<bool> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        let mut w = self.lock_writer();
        if let Some((m, p)) = w.last_ckpt {
            if m == matrix && produced <= p {
                return Ok(false);
            }
        }
        let line = checkpoint_line(matrix, produced, w.durable_lines);
        let file = ensure_file(&mut w, path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        w.last_ckpt = Some((matrix, produced));
        Ok(true)
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        // A panicking supervised cell never holds this lock; recover.
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fault injection: tears the final bytes off the file, simulating a
    /// `kill -9` mid-append. Only ever invoked through a
    /// [`super::fault::FaultPlan`] predicate, which is constant `false`
    /// without the `fault-inject` feature.
    pub fn inject_torn_tail(&self) {
        let Some(path) = &self.path else { return };
        let Ok(bytes) = std::fs::read(path) else {
            return;
        };
        let keep = bytes.len().saturating_sub(7);
        let _ = std::fs::write(path, &bytes[..keep]);
    }

    /// Fault injection: flips one digit inside the final line's JSON
    /// payload, simulating silent single-byte corruption — the payload
    /// stays parseable, so only the CRC can catch it. See
    /// [`DiskCache::inject_torn_tail`] on reachability.
    pub fn inject_poisoned_line(&self) {
        let Some(path) = &self.path else { return };
        let Ok(mut bytes) = std::fs::read(path) else {
            return;
        };
        let end = match bytes.iter().rposition(|&b| b != b'\n') {
            Some(e) => e + 1,
            None => return,
        };
        let start = bytes[..end]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let Some(tab) = bytes[start..end].iter().position(|&b| b == b'\t') else {
            return;
        };
        if let Some(i) = (start + tab..end).find(|&i| bytes[i].is_ascii_digit()) {
            bytes[i] = if bytes[i] == b'9' { b'8' } else { b'9' };
            let _ = std::fs::write(path, &bytes);
        }
    }
}

/// Splits `bytes` into lines by [`str::lines`]' rules: at `\n`, dropping
/// a `\r` right before it, with the final line ending optional.
fn byte_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(|line| match line.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => line,
        })
}

/// Opens (and if needed atomically initializes) the append handle.
fn ensure_file<'w>(w: &'w mut Writer, path: &Path) -> std::io::Result<&'w mut File> {
    if w.file.is_none() {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        if !w.header_ok {
            // Replace a missing or alien file atomically: a crash
            // between the write and the rename leaves the old file
            // intact, never a half-written header.
            let tmp = path.with_extension("tmp");
            let header = Json::obj([
                ("kind", Json::str(CACHE_KIND)),
                ("schema", Json::from(CACHE_SCHEMA)),
            ]);
            std::fs::write(&tmp, format!("{header}\n"))?;
            std::fs::rename(&tmp, path)?;
            w.header_ok = true;
            w.durable_lines = 0;
            w.last_ckpt = None;
        }
        let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
        // A killed process may have left a torn final line with no
        // newline; appending onto it would splice the remnant into the
        // next line and corrupt *that* too. Seal it off first.
        if !ends_with_newline(path)? {
            file.write_all(b"\n")?;
        }
        w.file = Some(file);
    }
    Ok(w.file.as_mut().expect("just opened"))
}

/// Whether the file's last byte is `\n` (empty files count as sealed).
fn ends_with_newline(path: &Path) -> std::io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let mut f = File::open(path)?;
    if f.seek(SeekFrom::End(0))? == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

/// CRC32 (IEEE 802.3, the zlib polynomial), table-driven.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn fingerprint_hex(fp: (u64, u64)) -> String {
    format!("{:016x}{:016x}", fp.0, fp.1)
}

fn parse_fingerprint(hex: &str) -> Option<(u64, u64)> {
    if hex.len() != 32 {
        return None;
    }
    Some((
        u64::from_str_radix(&hex[..16], 16).ok()?,
        u64::from_str_radix(&hex[16..], 16).ok()?,
    ))
}

/// Prefixes `payload` with its CRC: the full on-disk line (sans newline).
fn crc_line(payload: &str) -> String {
    format!("{:08x}\t{payload}", crc32(payload.as_bytes()))
}

/// Renders one full entry line (CRC prefix included, no newline).
/// Exposed for corruption-class tests; not part of the stable API.
#[doc(hidden)]
#[must_use]
pub fn entry_line(fp: (u64, u64), rows: &[CachedRow]) -> String {
    let payload = Json::obj([
        ("fp", Json::str(fingerprint_hex(fp))),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("task", Json::str(r.task.clone())),
                            ("core", Json::from(r.core as u64)),
                            ("thread", Json::from(r.thread as u64)),
                            ("mode", Json::str(r.mode.clone())),
                            ("wcet", Json::from(r.wcet)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    crc_line(&payload.to_string())
}

/// Renders one full checkpoint line (CRC prefix included, no newline).
/// Exposed for corruption-class tests; not part of the stable API.
#[doc(hidden)]
#[must_use]
pub fn checkpoint_line(matrix: (u64, u64), produced: usize, entries: usize) -> String {
    let payload = Json::obj([(
        "ckpt",
        Json::obj([
            ("matrix", Json::str(fingerprint_hex(matrix))),
            ("produced", Json::from(produced as u64)),
            ("entries", Json::from(entries as u64)),
        ]),
    )]);
    crc_line(&payload.to_string())
}

enum Line {
    Entry((u64, u64), Vec<CachedRow>),
    Checkpoint(Checkpoint),
}

enum LineError {
    Unparseable,
    CrcMismatch,
}

fn parse_line(line: &str) -> Result<Line, LineError> {
    let (crc_hex, payload) = line.split_once('\t').ok_or(LineError::Unparseable)?;
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| LineError::Unparseable)?;
    let value = Json::parse(payload).map_err(|_| LineError::Unparseable)?;
    let parsed = if let Some(c) = value.get("ckpt") {
        let ckpt = Checkpoint {
            matrix: c
                .get("matrix")
                .and_then(Json::as_str)
                .and_then(parse_fingerprint)
                .ok_or(LineError::Unparseable)?,
            produced: c
                .get("produced")
                .and_then(Json::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or(LineError::Unparseable)?,
            entries: c
                .get("entries")
                .and_then(Json::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or(LineError::Unparseable)?,
        };
        Line::Checkpoint(ckpt)
    } else {
        let (fp, rows) = parse_entry(&value).ok_or(LineError::Unparseable)?;
        Line::Entry(fp, rows)
    };
    // The CRC verdict comes last: an unparseable payload is "torn", a
    // parseable one with a bad sum is "corrupt" — distinct counters.
    if crc32(payload.as_bytes()) != expected {
        return Err(LineError::CrcMismatch);
    }
    Ok(parsed)
}

fn parse_entry(value: &Json) -> Option<((u64, u64), Vec<CachedRow>)> {
    let fp = parse_fingerprint(value.get("fp")?.as_str()?)?;
    let rows = value
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|r| {
            Some(CachedRow {
                task: r.get("task")?.as_str()?.to_string(),
                core: usize::try_from(r.get("core")?.as_u64()?).ok()?,
                thread: usize::try_from(r.get("thread")?.as_u64()?).ok()?,
                mode: r.get("mode")?.as_str()?.to_string(),
                wcet: r.get("wcet")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<CachedRow>>>()?;
    Some((fp, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(task: &str, wcet: u64) -> CachedRow {
        CachedRow {
            task: task.into(),
            core: 0,
            thread: 0,
            mode: "isolated".into(),
            wcet,
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The standard IEEE check value: crc32(b"123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_and_appends() {
        let dir = std::env::temp_dir().join("wcet-cache-test-rt");
        let path = dir.join("memo.jsonl");
        let _ = std::fs::remove_file(&path);
        let cold = DiskCache::open(&path);
        assert!(cold.is_empty());
        let written = cold
            .append(&[
                ((1, 2), vec![row("fir", 10)]),
                ((3, 4), vec![row("crc", 20)]),
            ])
            .expect("writes");
        assert_eq!(written, 2);
        let warm = DiskCache::open(&path);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.skipped, 0);
        assert_eq!(warm.crc_rejected, 0);
        assert_eq!(warm.lookup((1, 2)), Some(&[row("fir", 10)][..]));
        // Appending an already-durable entry is a no-op.
        assert_eq!(
            warm.append(&[((1, 2), vec![row("fir", 10)])]).expect("ok"),
            0
        );
        assert_eq!(DiskCache::open(&path).len(), 2);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join("wcet-cache-test-corrupt");
        let path = dir.join("memo.jsonl");
        let _ = std::fs::remove_file(&path);
        let cache = DiskCache::open(&path);
        cache
            .append(&[((1, 2), vec![row("fir", 10)])])
            .expect("writes");
        // Simulate a torn append plus line noise.
        let mut text = std::fs::read_to_string(&path).expect("reads");
        text.push_str("{\"fp\":\"zz\"}\nffffffff\t{\"fp\":\"truncat");
        std::fs::write(&path, text).expect("writes");
        let warm = DiskCache::open(&path);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.skipped, 2);
        assert!(warm.lookup((1, 2)).is_some());
    }

    #[test]
    fn a_non_utf8_byte_costs_one_entry() {
        let dir = std::env::temp_dir().join("wcet-cache-test-utf8");
        let path = dir.join("memo.jsonl");
        let _ = std::fs::remove_file(&path);
        let fresh: Vec<_> = (0..100u64).map(|i| ((i, i), vec![row("fir", i)])).collect();
        DiskCache::open(&path).append(&fresh).expect("writes");
        // Flip the high bit of a digit inside the 50th entry's payload.
        let mut bytes = std::fs::read(&path).expect("reads");
        let line = entry_line((49, 49), &[row("fir", 49)]);
        let at = bytes
            .windows(line.len())
            .position(|w| w == line.as_bytes())
            .expect("entry on disk")
            + line.rfind("49").expect("wcet digits");
        bytes[at] |= 0x80;
        std::fs::write(&path, bytes).expect("writes");

        let damaged = DiskCache::open(&path);
        assert_eq!(damaged.len(), 99);
        assert_eq!(damaged.skipped, 1);
        assert_eq!(damaged.lookup((49, 49)), None);
        damaged
            .append(&[((100, 100), vec![row("crc", 7)])])
            .expect("appends");
        let reopened = DiskCache::open(&path);
        assert_eq!(reopened.len(), 100, "later appends keep the rest");
        assert_eq!(reopened.skipped, 1);
    }

    #[test]
    fn lines_split_like_str_lines() {
        for text in ["a\nb", "a\r\nb\n", "\n\na\r", "", "x\ry\r\n"] {
            let split: Vec<&[u8]> = byte_lines(text.as_bytes()).collect();
            let expected: Vec<&[u8]> = text.lines().map(str::as_bytes).collect();
            assert_eq!(split, expected, "{text:?}");
        }
    }

    #[test]
    fn wrong_schema_is_ignored_then_replaced() {
        let dir = std::env::temp_dir().join("wcet-cache-test-schema");
        let path = dir.join("memo.jsonl");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            &path,
            "{\"kind\":\"wcet-campaign-memo\",\"schema\":99}\n{\"fp\":\"x\"}\n",
        )
        .expect("writes");
        let cache = DiskCache::open(&path);
        assert!(cache.is_empty(), "newer schema must not be trusted");
        cache
            .append(&[((5, 6), vec![row("bsort", 30)])])
            .expect("writes");
        let warm = DiskCache::open(&path);
        assert_eq!(warm.len(), 1, "write-back replaced the alien file");
        assert!(warm.lookup((5, 6)).is_some());
    }

    #[test]
    fn checkpoints_round_trip_and_only_advance() {
        let dir = std::env::temp_dir().join("wcet-cache-test-ckpt");
        let path = dir.join("memo.jsonl");
        let _ = std::fs::remove_file(&path);
        let cache = DiskCache::open(&path);
        cache
            .append(&[((1, 2), vec![row("fir", 10)])])
            .expect("writes");
        assert!(cache.write_checkpoint((7, 8), 128).expect("writes"));
        assert!(
            !cache.write_checkpoint((7, 8), 128).expect("ok"),
            "non-advancing checkpoints are dropped"
        );
        assert!(cache.write_checkpoint((7, 8), 256).expect("writes"));
        let warm = DiskCache::open(&path);
        assert_eq!(
            warm.checkpoint(),
            Some(Checkpoint {
                matrix: (7, 8),
                produced: 256,
                entries: 1,
            })
        );
        // A later run over the complete memo must not advance it.
        assert!(!warm.write_checkpoint((7, 8), 200).expect("ok"));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = DiskCache::disabled();
        assert!(cache.lookup((1, 2)).is_none());
        assert_eq!(cache.append(&[((1, 2), vec![])]).expect("ok"), 0);
        assert!(!cache.write_checkpoint((1, 2), 10).expect("ok"));
    }
}
