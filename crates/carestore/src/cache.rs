//! The store's cache of the logs it has read or written: each log's
//! decoded lines, the bytes they came from, and the lock its writers take.
//!
//! **Invariant: a scan answers exactly what [`scan_log`] gives on the
//! file's bytes now.** The cache holds a log's first whole lines (bytes up
//! to and including a `\n`) with their decodes. A scan reads the file and
//! compares its start with those bytes in full. While they match, the
//! cached decodes *are* the decodes of the file's first lines, so only what
//! follows is decoded, and its whole lines join the cache. When they do not
//! match — the log was truncated, rewritten or deleted — the cache starts
//! over, and that scan decodes the whole log. An unterminated last line is
//! decoded on every scan and never cached: a writer may still finish it.
//!
//! The store's own appends enter the cache as written, while the cache
//! ends where the file does (see [`CachedLog::at_end`]). So a warm re-run
//! right after a cold run decodes no line, and a served job decodes only
//! the lines appended since the store last read the log. A writer the
//! store does not see — another process, or another [`Store`] on the same
//! directory — costs the next scan one full decode when its lines
//! interleave with the store's own, and nothing more when they follow them.
//!
//! The bound is [`CACHED_LOGS`] logs, least recently used out. A log a run
//! is reading or writing is never evicted, so the store's writers to one log
//! always share its one lock ([`LruCache::insert_unpinned`]).
//!
//! [`scan_log`]: crate::scan_log
//! [`Store`]: crate::Store

use crate::log::{decode_lines, LogLine, LogScan, LogWriter, ScanFold};
use crate::lru::LruCache;
use faultsim::FaultModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Logs one [`Store`](crate::Store) keeps decoded.
pub const CACHED_LOGS: usize = 16;

/// One log's cached lines, and the state its writers share.
#[derive(Default)]
pub(crate) struct CachedLog {
    /// The log's first whole lines, as last read or written.
    bytes: Vec<u8>,
    /// Their decodes in file order (lines of whitespace are no lines).
    lines: Vec<LogLine>,
    /// How many of them did not decode.
    corrupt: u64,
    /// `bytes` held the whole file when this store last looked: no torn
    /// tail followed them, and no append failed since. Only then do the
    /// store's own appends join the cache as written; otherwise the next
    /// scan decodes them.
    at_end: bool,
    /// The run that appended this log's last line through the store.
    last_run: Option<u64>,
}

impl CachedLog {
    /// Bring the cache up to the file at `path` and fold a scan for the
    /// `(model, seed, cfg_sig)` request from it. Also returns how many
    /// lines this scan decoded.
    pub(crate) fn scan(
        &mut self,
        path: &Path,
        model: FaultModel,
        seed: u64,
        cfg_sig: &str,
    ) -> std::io::Result<(LogScan, u64)> {
        let file = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !file.starts_with(&self.bytes) {
            *self = CachedLog::default();
        }
        let rest = &file[self.bytes.len()..];
        let whole = rest.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
        let (mut decoded, mut corrupt) = (0, 0);
        decode_lines(&rest[..whole], |line| {
            decoded += 1;
            match line {
                Ok(line) => self.lines.push(line),
                Err(_) => self.corrupt += 1,
            }
        });
        self.bytes.extend_from_slice(&rest[..whole]);
        self.at_end = whole == rest.len();

        let mut fold = ScanFold::new(model, seed, cfg_sig);
        self.lines.iter().for_each(|line| fold.feed(line));
        decode_lines(&rest[whole..], |line| {
            decoded += 1;
            match line {
                Ok(line) => fold.feed(&line),
                Err(_) => corrupt += 1,
            }
        });
        Ok((fold.finish(self.corrupt + corrupt), decoded))
    }

    /// Append `line` for `run` through `writer`, after the run's `header`
    /// when another run appended since this run's last line (or this run
    /// has appended nothing yet): readers take a record's run from the
    /// last `run` line above it.
    pub(crate) fn append(&mut self, writer: &LogWriter, run: u64, header: &LogLine, line: LogLine) {
        if self.last_run != Some(run) {
            self.last_run = Some(run);
            self.write(writer, header.clone());
        }
        self.write(writer, line);
    }

    fn write(&mut self, writer: &LogWriter, line: LogLine) {
        let text = line.encode();
        writer.append_line(&text);
        self.at_end &= !writer.failed();
        if self.at_end {
            debug_assert_eq!(LogLine::decode(text.as_bytes()).as_ref(), Ok(&line));
            self.bytes.extend_from_slice(text.as_bytes());
            self.bytes.push(b'\n');
            self.lines.push(line);
        }
    }
}

/// The logs one store (and its clones) has read or written.
pub(crate) struct LogCache {
    logs: Mutex<LruCache<PathBuf, Arc<Mutex<CachedLog>>>>,
    runs: AtomicU64,
}

impl LogCache {
    pub(crate) fn new() -> LogCache {
        LogCache { logs: Mutex::new(LruCache::new(CACHED_LOGS)), runs: AtomicU64::new(0) }
    }

    /// The log at `path`, cached or new. The handle pins it: while it is
    /// held, the log is not evicted.
    pub(crate) fn log(&self, path: &Path) -> Arc<Mutex<CachedLog>> {
        let mut logs = self.logs.lock().expect("log cache poisoned");
        if let Some(log) = logs.get(path) {
            return Arc::clone(log);
        }
        let log = Arc::new(Mutex::new(CachedLog::default()));
        logs.insert_unpinned(path.to_path_buf(), Arc::clone(&log), |held| {
            Arc::strong_count(held) > 1
        });
        log
    }

    /// A run id no other run of this cache has had.
    pub(crate) fn next_run(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    /// Logs held now.
    pub(crate) fn len(&self) -> usize {
        self.logs.lock().expect("log cache poisoned").len()
    }
}

impl std::fmt::Debug for LogCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogCache").field("logs", &self.len()).finish()
    }
}
