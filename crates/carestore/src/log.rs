//! The append-only JSONL record log — one file per campaign key.
//!
//! Three line kinds, all in the workspace JSON dialect
//! ([`telemetry::json`]); [`LogLine`] states their fields, once:
//!
//! * `run` opens a *run context*: every following `record` line belongs
//!   to it until the next `run` line. Its [`RunKey`] identifies which
//!   requests may reuse the records; `engine` rides along for humans only
//!   — records are pinned bit-identical across engines — and any other
//!   key (older logs carry `scheduler`) is ignored.
//! * `record` is one [`InjectionRecord`] in the codec of
//!   [`faultsim::wire`], written the moment a worker classifies it
//!   (append order is completion order, not index order).
//! * `complete` says the run covering indexes `0..injections` finished
//!   *uncancelled*. This is what makes absence meaningful: below a
//!   completed bound, an index with no record is a *known skip* (the
//!   sampled point never fired — fresh runs skip it too); above every
//!   completed bound, an absent index is simply unexecuted and stays
//!   residual work.
//!
//! A killed campaign leaves records without a `complete` trailer; the
//! next run reloads them and executes only the rest. Reading
//! ([`read_log`]) tolerates a torn final line (a kill mid-append) and any
//! line that does not decode — not UTF-8, not JSON, nested past the
//! parser's cap, a field out of range —
//! by counting it as corrupt and moving on: an append-only log must never
//! brick its campaign. The next writer ([`LogWriter::open_append`]) ends a
//! torn line before its own, so the torn line stays one corrupt line.

use faultsim::wire::{push_record_fields, record_from_ref};
use faultsim::{CampaignConfig, FaultModel, InjectionRecord, MAX_RECOVERIES};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;
use telemetry::json::{JsonRef, Obj};

/// Version of the log line vocabulary, written into every `run` line.
/// Scanners ignore runs from a different store version.
pub const STORE_VERSION: u32 = 1;

/// Canonical signature of the record-affecting [`CampaignConfig`] fields
/// *other than* model and seed (those key the run context directly).
/// Engine kind and thread count are deliberately excluded: records are
/// pinned bit-identical across both, so an interpreter run may
/// reuse a compiled run's records and vice versa.
/// `injections` is excluded too — index `i`'s record depends only on
/// `(seed, i)`, so a longer re-run reuses a shorter run's records.
/// `mr` is [`MAX_RECOVERIES`], once a config field: it stays in the
/// signature so stores written while it was one keep matching.
pub fn run_signature(cfg: &CampaignConfig) -> String {
    format!(
        "ec={},ao={},hf={},mr={},pb={},sg={}",
        cfg.evaluate_care as u8,
        cfg.app_only as u8,
        cfg.hang_factor,
        MAX_RECOVERIES,
        cfg.patch_base_first as u8,
        cfg.skip_equality_guard as u8,
    )
}

/// What a run context is keyed by: records are reusable by exactly the
/// requests whose key equals the one their `run` line carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunKey {
    /// [`STORE_VERSION`] of the writer.
    pub store: u32,
    /// [`FaultModel::name`].
    pub model: String,
    /// Campaign RNG seed.
    pub seed: u64,
    /// [`run_signature`] of the rest of the record-affecting config.
    pub cfg: String,
}

impl RunKey {
    fn new(model: FaultModel, seed: u64, cfg_sig: &str) -> RunKey {
        RunKey {
            store: STORE_VERSION,
            model: model.name().to_string(),
            seed,
            cfg: cfg_sig.to_string(),
        }
    }
}

/// One line of a campaign log.
#[derive(Clone, Debug, PartialEq)]
pub enum LogLine {
    /// Opens a run context.
    Run {
        /// Which requests may reuse the records that follow.
        key: RunKey,
        /// The campaign key's `care1:...` encoding (the file is named
        /// after it; repeated here so a stray log identifies itself).
        campaign: String,
        /// [`faultsim::EngineKind::name`] of the run, for humans only.
        engine: String,
    },
    /// One classified injection: its index within the campaign, and the
    /// record.
    Record(usize, InjectionRecord),
    /// The run with this key over indexes `0..n` finished uncancelled.
    Complete(RunKey, usize),
}

impl LogLine {
    /// Render the line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            LogLine::Run { key, campaign, engine } => Obj::new("run")
                .u64("store", key.store as u64)
                .str("campaign", campaign)
                .str("model", &key.model)
                .u64("seed", key.seed)
                .str("cfg", &key.cfg)
                .str("engine", engine)
                .end(),
            LogLine::Record(index, record) => {
                let mut o = Obj::new("record");
                push_record_fields(o.u64("index", *index as u64), record);
                o.end()
            }
            LogLine::Complete(key, injections) => Obj::new("complete")
                .u64("store", key.store as u64)
                .str("model", &key.model)
                .u64("seed", key.seed)
                .str("cfg", &key.cfg)
                .u64("injections", *injections as u64)
                .end(),
        }
    }

    /// The `run` line that opens a run of `cfg` on the campaign keyed
    /// `campaign_key`.
    pub(crate) fn run(cfg: &CampaignConfig, campaign_key: &str) -> LogLine {
        LogLine::Run {
            key: RunKey::new(cfg.model, cfg.seed, &run_signature(cfg)),
            campaign: campaign_key.to_string(),
            engine: cfg.engine.name().to_string(),
        }
    }

    /// The `complete` trailer of an uncancelled run over
    /// `0..cfg.injections`.
    pub(crate) fn complete(cfg: &CampaignConfig) -> LogLine {
        LogLine::Complete(RunKey::new(cfg.model, cfg.seed, &run_signature(cfg)), cfg.injections)
    }

    /// Decode one line as read from disk (newline stripped).
    pub fn decode(line: &[u8]) -> Result<LogLine, String> {
        let v = JsonRef::parse(std::str::from_utf8(line).map_err(|e| e.to_string())?)?;
        let text = |key| v.req(key, JsonRef::as_str).map(str::to_string);
        let key = || -> Result<RunKey, String> {
            Ok(RunKey {
                store: v.req("store", JsonRef::uint)?,
                model: text("model")?,
                seed: v.req("seed", JsonRef::uint)?,
                cfg: text("cfg")?,
            })
        };
        Ok(match v.req("kind", JsonRef::as_str)? {
            "run" => {
                LogLine::Run { key: key()?, campaign: text("campaign")?, engine: text("engine")? }
            }
            "record" => LogLine::Record(v.req("index", JsonRef::uint)?, record_from_ref(&v)?),
            "complete" => LogLine::Complete(key()?, v.req("injections", JsonRef::uint)?),
            other => return Err(format!("unknown log line kind {other:?}")),
        })
    }
}

/// Decode every line of `bytes` in file order, handing each result to
/// `each`: the one line rule every reader shares. Lines are split at `\n`
/// and are bytes, so one that is not UTF-8 is just another line that does
/// not decode, and a line of whitespace (a `\r` left by a CRLF end among
/// them) is no line at all.
pub(crate) fn decode_lines(bytes: &[u8], mut each: impl FnMut(Result<LogLine, String>)) {
    for line in bytes.split(|&b| b == b'\n') {
        if !line.iter().all(u8::is_ascii_whitespace) {
            each(LogLine::decode(line));
        }
    }
}

/// Feed every line of the log at `path` to `each`, in file order, and
/// return how many lines did not decode (skipped; see the module docs).
/// The file is read into one buffer and split at its newlines
/// ([`decode_lines`]' rule), so a line costs no allocation of its own. A
/// missing file is an empty log, not an error.
pub fn read_log(path: &Path, mut each: impl FnMut(LogLine)) -> std::io::Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut corrupt = 0;
    decode_lines(&bytes, |line| match line {
        Ok(line) => each(line),
        Err(_) => corrupt += 1,
    });
    Ok(corrupt)
}

/// What a scan recovered for one `(model, seed, cfg)` request.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Stored records by injection index.
    pub records: BTreeMap<usize, InjectionRecord>,
    /// Highest `injections` of any matching *completed* run: every index
    /// below this is resolved (a record, or a known skip).
    pub covered: usize,
    /// Lines that failed to parse or decode (torn tail, corruption).
    pub corrupt: u64,
}

/// The one scan rule, fed decoded lines in file order: a `run` line opens
/// the wanted run context or leaves it, a `record` inside it is kept, and
/// a `complete` of the wanted key raises `covered`. [`scan_log`] and the
/// store's cache of decoded lines both fold through it.
pub(crate) struct ScanFold {
    want: RunKey,
    in_matching_run: bool,
    scan: LogScan,
}

impl ScanFold {
    pub(crate) fn new(model: FaultModel, seed: u64, cfg_sig: &str) -> ScanFold {
        ScanFold {
            want: RunKey::new(model, seed, cfg_sig),
            in_matching_run: false,
            scan: LogScan::default(),
        }
    }

    pub(crate) fn feed(&mut self, line: &LogLine) {
        match line {
            LogLine::Run { key, .. } => self.in_matching_run = *key == self.want,
            // Overlapping partial runs can re-execute an index; determinism
            // makes the records identical, so last-wins is a no-op in
            // practice.
            LogLine::Record(index, record) if self.in_matching_run => {
                self.scan.records.insert(*index, record.clone());
            }
            LogLine::Complete(key, injections) if *key == self.want => {
                self.scan.covered = self.scan.covered.max(*injections);
            }
            LogLine::Record(..) | LogLine::Complete(..) => {}
        }
    }

    /// The scan, with `corrupt` lines counted.
    pub(crate) fn finish(self, corrupt: u64) -> LogScan {
        LogScan { corrupt, ..self.scan }
    }
}

/// Scan a log file for records usable by a `(model, seed, cfg)` request.
/// A missing file is an empty scan, not an error.
pub fn scan_log(
    path: &Path,
    model: FaultModel,
    seed: u64,
    cfg_sig: &str,
) -> std::io::Result<LogScan> {
    let mut fold = ScanFold::new(model, seed, cfg_sig);
    let corrupt = read_log(path, |line| fold.feed(&line))?;
    Ok(fold.finish(corrupt))
}

/// Append-side handle: serializes whole-line writes from concurrent pool
/// workers and flushes each line, so a kill tears at most the final line.
pub struct LogWriter {
    file: Mutex<File>,
    /// Sticky I/O failure flag: the campaign itself must not die because
    /// the store volume did, but the caller surfaces this in its stats.
    failed: std::sync::atomic::AtomicBool,
}

impl LogWriter {
    /// Open (creating the file if needed) for append. A file that does
    /// not end in `\n` — a kill tore its last line — gets one first, so
    /// this writer's lines start on a line of their own: glued to the torn
    /// line, a `run` line would decode as part of one corrupt line, and the
    /// records after it would read under the previous run's key.
    pub fn open_append(path: &Path) -> std::io::Result<LogWriter> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last != *b"\n" {
                file.write_all(b"\n")?;
            }
        }
        Ok(LogWriter { file: Mutex::new(file), failed: std::sync::atomic::AtomicBool::new(false) })
    }

    /// True if any append failed since opening.
    pub fn failed(&self) -> bool {
        self.failed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Append one already-rendered JSON line.
    pub fn append_line(&self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut f = self.file.lock().expect("log writer poisoned");
        if f.write_all(buf.as_bytes()).and_then(|()| f.flush()).is_err() {
            self.failed.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Append the `run` context line for a run about to execute.
    pub fn run_header(&self, cfg: &CampaignConfig, campaign_key: &str) {
        self.append_line(&LogLine::run(cfg, campaign_key).encode());
    }

    /// Append the `complete` trailer after an uncancelled run over
    /// `0..cfg.injections`.
    pub fn complete(&self, cfg: &CampaignConfig) {
        self.append_line(&LogLine::complete(cfg).encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{InjectedInto, InjectionPoint, Outcome, StepSplit};
    use simx::ModuleId;
    use tinyir::FuncId;

    fn rec(nth: u64) -> InjectionRecord {
        InjectionRecord {
            point: InjectionPoint { module: ModuleId(0), func: FuncId(0), inst: 1, nth },
            target: InjectedInto::Reg(3),
            outcome: Outcome::Benign,
            latency: None,
            sim_steps: 10 + nth,
            split: StepSplit { prefix: 5, suffix: 5 + nth, care: 0 },
            care: None,
        }
    }

    fn record_line(index: usize, r: &InjectionRecord) -> String {
        LogLine::Record(index, r.clone()).encode()
    }

    /// One log with every kind of line the reader must take apart: CRLF
    /// ends, blank and whitespace-only lines, a line that is not UTF-8,
    /// an index logged twice, and a torn last line with no newline. The
    /// scan and triage read it through the same reader.
    #[test]
    fn scan_and_triage_read_every_edge_of_a_log_alike() {
        let dir = std::env::temp_dir().join(format!("carestore-log-edges-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::Store::open(&dir).unwrap();
        let cfg = CampaignConfig { seed: 7, injections: 4, ..CampaignConfig::default() };
        let key = RunKey::new(cfg.model, cfg.seed, &run_signature(&cfg));
        let run = LogLine::Run { key: key.clone(), campaign: "k".into(), engine: "interp".into() };
        let hang = InjectionRecord { outcome: Outcome::Hang, ..rec(5) };
        let torn = record_line(3, &rec(3));
        let lines: [(Vec<u8>, &str); 11] = [
            (run.encode().into(), "\r\n"),
            (record_line(0, &rec(1)).into(), "\r\n"),
            (b"".into(), "\n"),
            (b"  \t\r".into(), "\n"),
            (record_line(1, &rec(5)).into(), "\n"),
            (record_line(1, &hang).into(), "\r\n"),
            (b"".into(), "\r\n"),
            (b"{\"kind\":\"record\",\"index\":3,\xff\xfe}".into(), "\n"),
            (record_line(2, &rec(2)).into(), "\n"),
            (LogLine::Complete(key, 4).encode().into(), "\r\n"),
            (torn.as_bytes()[..40].into(), ""),
        ];
        let log: Vec<u8> =
            lines.iter().flat_map(|(text, end)| [text, end.as_bytes()].concat()).collect();
        let path = dir.join("edges.jsonl");
        std::fs::write(&path, &log).unwrap();

        let scan = scan_log(&path, cfg.model, cfg.seed, &run_signature(&cfg)).unwrap();
        assert_eq!((scan.covered, scan.corrupt), (4, 2), "CRLF lines decode, the others do not");
        let want = BTreeMap::from([(0, rec(1)), (1, hang), (2, rec(2))]);
        assert_eq!(scan.records, want, "the last record of an index wins");

        let mut read = Vec::new();
        assert_eq!(read_log(&path, |l| read.push(l)).unwrap(), 2);
        assert_eq!(read.len(), 6, "blank lines are no lines: {read:?}");
        let clusters = crate::triage(&store).unwrap();
        let counts: Vec<(&str, u64)> =
            clusters.iter().map(|c| (c.outcome.as_str(), c.count)).collect();
        assert_eq!(counts, [("benign", 3), ("hang", 1)], "triage counts every record line");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_matches_run_contexts_and_tolerates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("carestore-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let _ = std::fs::remove_file(&path);

        let cfg = CampaignConfig { seed: 7, injections: 4, ..CampaignConfig::default() };
        let other = CampaignConfig { seed: 8, ..cfg };
        let w = LogWriter::open_append(&path).unwrap();
        w.run_header(&other, "k");
        w.append_line(&record_line(0, &rec(99))); // other seed: must not load
        w.run_header(&cfg, "k");
        w.append_line(&record_line(0, &rec(1)));
        // Nesting past the parser's cap is one corrupt line, not a stack
        // overflow, and the scan goes on.
        w.append_line(&"[".repeat(100_000));
        w.append_line(&record_line(2, &rec(2)));
        // Values that do not fit their field are corrupt lines, not
        // `ModuleId(1)` / `Reg(3)` by truncation; `reg` needs its value.
        let line = record_line(3, &rec(3));
        for (good, bad) in [
            ("\"module\":0", "\"module\":4294967297"),
            ("\"target_val\":3", "\"target_val\":259"),
            ("\"target_val\":3", "\"was\":3"),
        ] {
            assert!(line.contains(good), "{line}");
            w.append_line(&line.replace(good, bad));
        }
        w.complete(&cfg);
        // A torn final line (kill mid-append).
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"kind\":\"record\",\"ind").unwrap();
        }
        assert!(!w.failed());

        let sig = run_signature(&cfg);
        let scan = scan_log(&path, cfg.model, cfg.seed, &sig).unwrap();
        assert_eq!(scan.covered, 4);
        assert_eq!(scan.corrupt, 5);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[&0], rec(1));
        assert_eq!(scan.records[&2], rec(2));

        // Different cfg signature: nothing matches, covered stays 0.
        let care_cfg = CampaignConfig { evaluate_care: true, ..cfg };
        let scan = scan_log(&path, cfg.model, cfg.seed, &run_signature(&care_cfg)).unwrap();
        assert_eq!(scan.covered, 0);
        assert!(scan.records.is_empty());

        // Missing file: clean empty scan.
        let scan = scan_log(&dir.join("absent.jsonl"), cfg.model, 7, &sig).unwrap();
        assert_eq!((scan.covered, scan.records.len(), scan.corrupt), (0, 0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
