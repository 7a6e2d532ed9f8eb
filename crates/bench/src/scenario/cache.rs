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
//! payload), keys sorted and no whitespace:
//!
//! ```text
//! {"kind":"wcet-campaign-memo","schema":2}
//! 9f3a01bc<TAB>{"fp":"00ab…32 hex…","rows":[{"core":0,"mode":"isolated","task":"fir4x8","thread":0,"wcet":9444}]}
//! 51c2e7d0<TAB>{"ckpt":{"entries":893,"matrix":"…32 hex…","produced":1024}}
//! ```
//!
//! The codec writes each line straight into a `String` and reads back
//! exactly that shape with a byte cursor; JSON strings go through
//! [`crate::json`]'s escaper and string reader.
//!
//! Robustness rules, in order:
//!
//! * missing file → empty cache (a cold run);
//! * unreadable file / any header line but the one above (wrong `kind`,
//!   newer or older `schema`) → the whole file is ignored and the first
//!   write-back replaces it *atomically* (header to a tmp file, then
//!   rename — a schema bump or a crash mid-rewrite never poisons
//!   results, it just recomputes);
//! * an unparseable *line* → that line alone is skipped and counted in
//!   [`DiskCache::skipped`] (a torn append, e.g. from a killed process,
//!   or a damaged byte that is not UTF-8 costs one entry, not the
//!   cache). A line counts as unparseable unless it has exactly the
//!   writer's shape: valid JSON with a space after a colon, or with its
//!   keys in another order, is skipped too. A torn line that lost its
//!   newline is additionally sealed with one before the first fresh
//!   append, so the remnant never splices into a new entry;
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
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::{escape, read_string};

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
    /// Exact-size row lists: a memo holds 10⁴–10⁵ of them, mostly of
    /// one or two rows.
    entries: HashMap<(u64, u64), Box<[CachedRow]>>,
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
            .is_some_and(|l| l.is_ok_and(|l| l == header_line()));
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
        self.entries.get(&fp).map(|rows| &**rows)
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
            push_line(&mut text, |out| entry_payload(out, *fp, rows));
            text.push('\n');
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
            std::fs::write(&tmp, format!("{}\n", header_line()))?;
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

/// CRC32 (IEEE 802.3, the zlib polynomial), table-driven by slicing-by-8:
/// `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` and `k` zero bytes, so eight lookups fold
/// eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The header line (no newline), the only one the reader accepts.
fn header_line() -> String {
    format!("{{\"kind\":\"{CACHE_KIND}\",\"schema\":{CACHE_SCHEMA}}}")
}

/// Parses the 32 lower-case hex digits the writer renders a fingerprint
/// as.
fn parse_fingerprint(hex: &str) -> Option<(u64, u64)> {
    if hex.len() != 32 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    Some((
        u64::from_str_radix(&hex[..16], 16).ok()?,
        u64::from_str_radix(&hex[16..], 16).ok()?,
    ))
}

/// Appends one full line (no newline) to `out`: the payload that
/// `write_payload` appends, prefixed with its CRC and a tab.
fn push_line(out: &mut String, write_payload: impl FnOnce(&mut String) -> fmt::Result) {
    let start = out.len();
    out.push_str("00000000\t");
    write_payload(out).expect("writing into a String never fails");
    let crc = crc32(&out.as_bytes()[start + 9..]);
    out.replace_range(start..start + 8, &format!("{crc:08x}"));
}

/// Appends a fingerprint as a JSON string of 32 lower-case hex digits.
fn push_fingerprint(out: &mut String, fp: (u64, u64)) -> fmt::Result {
    write!(out, "\"{:016x}{:016x}\"", fp.0, fp.1)
}

/// Appends an entry payload: a JSON object with sorted keys and no
/// whitespace,
/// `{"fp":…,"rows":[{"core":…,"mode":…,"task":…,"thread":…,"wcet":…},…]}`.
fn entry_payload(out: &mut String, fp: (u64, u64), rows: &[CachedRow]) -> fmt::Result {
    out.push_str("{\"fp\":");
    push_fingerprint(out, fp)?;
    out.push_str(",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"core\":{},\"mode\":", row.core)?;
        escape(&row.mode, out)?;
        out.push_str(",\"task\":");
        escape(&row.task, out)?;
        write!(out, ",\"thread\":{},\"wcet\":{}}}", row.thread, row.wcet)?;
    }
    out.push_str("]}");
    Ok(())
}

/// Renders one full entry line (CRC prefix included, no newline).
/// Exposed for corruption-class tests; not part of the stable API.
#[doc(hidden)]
#[must_use]
pub fn entry_line(fp: (u64, u64), rows: &[CachedRow]) -> String {
    let mut line = String::new();
    push_line(&mut line, |out| entry_payload(out, fp, rows));
    line
}

/// Renders one full checkpoint line (CRC prefix included, no newline):
/// `{"ckpt":{"entries":…,"matrix":…,"produced":…}}`.
/// Exposed for corruption-class tests; not part of the stable API.
#[doc(hidden)]
#[must_use]
pub fn checkpoint_line(matrix: (u64, u64), produced: usize, entries: usize) -> String {
    let mut line = String::new();
    push_line(&mut line, |out| {
        write!(out, "{{\"ckpt\":{{\"entries\":{entries},\"matrix\":")?;
        push_fingerprint(out, matrix)?;
        write!(out, ",\"produced\":{produced}}}}}")
    });
    line
}

#[derive(Debug, PartialEq, Eq)]
enum Line {
    Entry((u64, u64), Box<[CachedRow]>),
    Checkpoint(Checkpoint),
}

#[derive(Debug, PartialEq, Eq)]
enum LineError {
    Unparseable,
    CrcMismatch,
}

fn parse_line(line: &str) -> Result<Line, LineError> {
    let (crc_hex, payload) = line.split_once('\t').ok_or(LineError::Unparseable)?;
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| LineError::Unparseable)?;
    let parsed = parse_payload(payload).ok_or(LineError::Unparseable)?;
    // The CRC verdict comes last: an unparseable payload is "torn", a
    // parseable one with a bad sum is "corrupt" — distinct counters.
    if crc32(payload.as_bytes()) != expected {
        return Err(LineError::CrcMismatch);
    }
    Ok(parsed)
}

/// Reads exactly the payload shapes [`entry_line`] and
/// [`checkpoint_line`] write; any other text, valid JSON or not, is
/// `None`.
fn parse_payload(payload: &str) -> Option<Line> {
    let mut c = Cursor {
        text: payload,
        pos: 0,
    };
    let line = if c.eat("{\"ckpt\":{\"entries\":") {
        let entries = c.usize()?;
        c.expect(",\"matrix\":")?;
        let matrix = c.fingerprint()?;
        c.expect(",\"produced\":")?;
        let produced = c.usize()?;
        c.expect("}}")?;
        Line::Checkpoint(Checkpoint {
            matrix,
            produced,
            entries,
        })
    } else {
        c.expect("{\"fp\":")?;
        let fp = c.fingerprint()?;
        c.expect(",\"rows\":[")?;
        let mut rows = Vec::new();
        if !c.eat("]") {
            loop {
                c.expect("{\"core\":")?;
                let core = c.usize()?;
                c.expect(",\"mode\":")?;
                let mode = c.string()?;
                c.expect(",\"task\":")?;
                let task = c.string()?;
                c.expect(",\"thread\":")?;
                let thread = c.usize()?;
                c.expect(",\"wcet\":")?;
                let wcet = c.u64()?;
                c.expect("}")?;
                rows.push(CachedRow {
                    task,
                    core,
                    thread,
                    mode,
                    wcet,
                });
                if !c.eat(",") {
                    c.expect("]")?;
                    break;
                }
            }
        }
        c.expect("}")?;
        Line::Entry(fp, rows.into_boxed_slice())
    };
    (c.pos == payload.len()).then_some(line)
}

/// A byte cursor over one payload. It only ever advances over ASCII
/// bytes or whole string literals, so `pos` stays on a char boundary.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    /// Consumes `lit` if the text continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn expect(&mut self, lit: &str) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// A decimal number that fits a `u64`.
    fn u64(&mut self) -> Option<u64> {
        let digits = self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let n = self.text[self.pos..self.pos + digits].parse().ok()?;
        self.pos += digits;
        Some(n)
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A JSON string, through the one string reader [`crate::json`] has.
    fn string(&mut self) -> Option<String> {
        read_string(self.text, &mut self.pos).ok()
    }

    fn fingerprint(&mut self) -> Option<(u64, u64)> {
        self.expect("\"")?;
        let fp = parse_fingerprint(self.text.get(self.pos..self.pos + 32)?)?;
        self.pos += 32;
        self.expect("\"")?;
        Some(fp)
    }
}

/// The integration tests' self-removing temp dir, for the tests below.
#[cfg(test)]
#[path = "../../tests/temp_dir/mod.rs"]
mod temp_dir;

#[cfg(test)]
mod tests {
    use super::temp_dir::TempDir;
    use super::*;
    use crate::json::Json;
    use proptest::prelude::*;

    fn row(task: &str, wcet: u64) -> CachedRow {
        CachedRow {
            task: task.into(),
            core: 0,
            thread: 0,
            mode: "isolated".into(),
            wcet,
        }
    }

    /// The bytewise table walk: the oracle for slicing-by-8.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The standard IEEE check value: crc32(b"123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #[test]
        fn slicing_by_8_equals_the_bytewise_crc(
            prefix in proptest::collection::vec(0u8..=255, 0..8),
            body in proptest::collection::vec(0u8..=255, 0..71),
        ) {
            // The prefix shifts where the checked bytes start (offsets
            // 0–7) inside one buffer.
            let mut buf = prefix;
            let start = buf.len();
            buf.extend_from_slice(&body);
            prop_assert_eq!(crc32(&buf[start..]), crc32_bytewise(&body));
        }
    }

    #[test]
    fn round_trips_and_appends() {
        let dir = TempDir::new("cache-test-rt");
        let path = dir.join("memo.jsonl");
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
        let dir = TempDir::new("cache-test-corrupt");
        let path = dir.join("memo.jsonl");
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
        let dir = TempDir::new("cache-test-utf8");
        let path = dir.join("memo.jsonl");
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
        let dir = TempDir::new("cache-test-schema");
        let path = dir.join("memo.jsonl");
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
        let dir = TempDir::new("cache-test-ckpt");
        let path = dir.join("memo.jsonl");
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

    /// A full line around `payload`, its CRC correct.
    fn line_of(payload: &str) -> String {
        format!("{:08x}\t{payload}", crc32(payload.as_bytes()))
    }

    fn hex(fp: (u64, u64)) -> Json {
        Json::str(format!("{:016x}{:016x}", fp.0, fp.1))
    }

    /// The `Json`-tree rendering of an entry line: the test oracle the
    /// direct writer must match byte for byte.
    fn oracle_entry_line(fp: (u64, u64), rows: &[CachedRow]) -> String {
        let rows = rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("task", Json::str(r.task.clone())),
                    ("core", Json::from(r.core)),
                    ("thread", Json::from(r.thread)),
                    ("mode", Json::str(r.mode.clone())),
                    ("wcet", Json::from(r.wcet)),
                ])
            })
            .collect();
        line_of(&Json::obj([("fp", hex(fp)), ("rows", Json::Arr(rows))]).to_string())
    }

    /// The `Json`-tree rendering of a checkpoint line.
    fn oracle_checkpoint_line(matrix: (u64, u64), produced: usize, entries: usize) -> String {
        let ckpt = Json::obj([
            ("matrix", hex(matrix)),
            ("produced", Json::from(produced)),
            ("entries", Json::from(entries)),
        ]);
        line_of(&Json::obj([("ckpt", ckpt)]).to_string())
    }

    /// One character of every class the string escaper treats apart.
    const CHARS: [char; 9] = ['a', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '/'];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..CHARS.len(), 0..6)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
    }

    /// Any `u64`, with 0 and `u64::MAX` drawn often.
    fn number() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(pick, n)| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => n,
        })
    }

    fn index() -> impl Strategy<Value = usize> {
        number().prop_map(|n| usize::try_from(n).expect("a 64-bit target"))
    }

    proptest! {
        #[test]
        fn the_direct_codec_writes_the_json_tree_rendering_and_reads_it_back(
            fp in (number(), number()),
            rows in proptest::collection::vec(
                (text(), index(), index(), text(), number()),
                0..4,
            ),
            ckpt in ((number(), number()), index(), index()),
        ) {
            let rows: Vec<CachedRow> = rows
                .into_iter()
                .map(|(task, core, thread, mode, wcet)| CachedRow {
                    task,
                    core,
                    thread,
                    mode,
                    wcet,
                })
                .collect();
            let line = entry_line(fp, &rows);
            prop_assert_eq!(&line, &oracle_entry_line(fp, &rows));
            prop_assert_eq!(parse_line(&line), Ok(Line::Entry(fp, rows.into_boxed_slice())));
            let (matrix, produced, entries) = ckpt;
            let line = checkpoint_line(matrix, produced, entries);
            prop_assert_eq!(&line, &oracle_checkpoint_line(matrix, produced, entries));
            prop_assert_eq!(
                parse_line(&line),
                Ok(Line::Checkpoint(Checkpoint {
                    matrix,
                    produced,
                    entries,
                }))
            );
        }
    }

    #[test]
    fn valid_json_in_any_other_shape_is_skipped_not_served() {
        let dir = TempDir::new("cache-test-shape");
        let path = dir.join("memo.jsonl");
        DiskCache::open(&path)
            .append(&[((1, 2), vec![row("fir", 10)])])
            .expect("writes");
        // Two reshapings of the payload the writer gives entry (5, 6).
        let line = entry_line((5, 6), &[row("fir", 7)]);
        let payload = line.split_once('\t').expect("CRC prefix").1;
        let spaced = payload.replacen(':', ": ", 1);
        let unsorted = payload.replace(
            r#""mode":"isolated","task":"fir""#,
            r#""task":"fir","mode":"isolated""#,
        );
        assert_ne!(unsorted, payload);
        let mut text = std::fs::read_to_string(&path).expect("reads");
        for payload in [&spaced, &unsorted] {
            assert!(Json::parse(payload).is_ok(), "valid JSON: {payload}");
            text.push_str(&line_of(payload));
            text.push('\n');
        }
        std::fs::write(&path, text).expect("writes");
        let warm = DiskCache::open(&path);
        assert_eq!((warm.len(), warm.skipped, warm.crc_rejected), (1, 2, 0));
        assert_eq!(warm.lookup((5, 6)), None);
        assert!(warm.lookup((1, 2)).is_some());
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = DiskCache::disabled();
        assert!(cache.lookup((1, 2)).is_none());
        assert_eq!(cache.append(&[((1, 2), vec![])]).expect("ok"), 0);
        assert!(!cache.write_checkpoint((1, 2), 10).expect("ok"));
    }
}
