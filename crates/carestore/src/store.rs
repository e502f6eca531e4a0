//! The store proper: a directory of per-campaign record logs, plus the
//! resume/residual orchestration around [`faultsim::Campaign::run_selected`].
//!
//! [`Store::run_campaign`] is the drop-in persistent counterpart of
//! [`faultsim::Campaign::run`]:
//!
//! 1. scan this campaign's log for records matching `(model, seed, cfg)`,
//!    through the store's cache ([`crate::cache`]), which decodes only the
//!    lines it does not hold yet;
//! 2. compute the **residual work list** — requested indexes that are
//!    neither stored nor known skips of a completed shorter run;
//! 3. execute only the residual (the trellis samples only those
//!    indexes, so its cursors run only in the brackets the residual
//!    actually needs), appending each record to the log the moment it is
//!    classified, through the log's one lock in the cache (a run's `run`
//!    line is written again after another run's lines);
//! 4. merge stored + fresh records in index order into a canonical report.
//!
//! ## Report identity
//!
//! Store-backed reports use **attributed** step accounting — they are
//! `CampaignReport::from_records` over the merged records, every prefix
//! charged to its own injection — because "steps the run actually
//! executed" is a property of how warm the store was, not of the
//! campaign. The payoff is the byte-identity contract: a warm re-run
//! (zero residual), a cold run through the store, and a kill + resume all
//! produce the same records and therefore the *same report, byte for
//! byte*. The records themselves are bit-identical to plain
//! [`faultsim::Campaign::run`] under every engine/thread combination
//! (pinned by faultsim's own tests).

use crate::cache::{CachedLog, LogCache};
use crate::key::CampaignKey;
use crate::log::{run_signature, LogLine, LogScan, LogWriter};
use faultsim::{Campaign, CampaignConfig, CampaignReport, InjectionRecord, JobControl, RecordSink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use telemetry::Hooks;

/// Counters for one store-backed run, also mirrored into `store.*`
/// telemetry. All accumulation saturates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records reused from the log (`store.hits`).
    pub hits: u64,
    /// Indexes executed fresh — the residual (`store.misses`).
    pub misses: u64,
    /// Indexes below a completed run's bound with no record: the sampled
    /// point never fired, so there is nothing to run (`store.known_skips`).
    pub known_skips: u64,
    /// Records appended to the log by this run (`store.appended`).
    pub appended: u64,
    /// Unparseable log lines skipped while scanning (`store.corrupt_lines`).
    pub corrupt_lines: u64,
    /// Log lines this run's scan decoded (`store.decoded_lines`): the ones
    /// the store's cache did not hold yet (see [`crate::cache`]).
    pub decoded_lines: u64,
    /// 1 if any log append failed (`store.write_errors`); the run itself
    /// still completes — persistence degrades, correctness does not.
    pub write_errors: u64,
}

impl StoreStats {
    /// Residual fraction: misses / requested indexes (0 on empty input).
    pub fn residual_fraction(&self, requested: usize) -> f64 {
        if requested == 0 {
            0.0
        } else {
            self.misses as f64 / requested as f64
        }
    }
}

/// A store-backed campaign result: the canonical report plus what the
/// store did to produce it.
#[derive(Debug)]
pub struct StoreRun {
    /// Canonical (attributed-accounting) report over stored + fresh records.
    pub report: CampaignReport,
    /// Hit/miss/append accounting for this run.
    pub stats: StoreStats,
}

/// One run's appends to its campaign's log: each line goes through the
/// log's lock in the store's cache, after the run's `run` line when it is
/// the run's first or another run of this store appended in between (so a
/// run cancelled before its first record leaves no line).
struct RunLog<'a> {
    log: &'a Mutex<CachedLog>,
    writer: LogWriter,
    id: u64,
    header: LogLine,
}

impl RunLog<'_> {
    fn append(&self, line: LogLine) {
        let mut log = self.log.lock().expect("log poisoned");
        log.append(&self.writer, self.id, &self.header, line);
    }
}

/// The sink that tees every fresh record into the log *and* an in-memory
/// map for the merge, from concurrent pool workers.
struct LogSink<'a> {
    log: &'a RunLog<'a>,
    fresh: Mutex<BTreeMap<usize, InjectionRecord>>,
}

impl RecordSink for LogSink<'_> {
    fn emit(&self, index: usize, record: &InjectionRecord) {
        self.log.append(LogLine::Record(index, record.clone()));
        self.fresh.lock().expect("sink poisoned").insert(index, record.clone());
    }
}

/// A content-addressed store rooted at one directory. It keeps the logs
/// it has read or written decoded ([`crate::cache`]); clones share that
/// cache.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    logs: Arc<LogCache>,
}

impl Store {
    /// Open (creating the directory if needed).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir, logs: Arc::new(LogCache::new()) })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the record log for one campaign key.
    pub fn log_path(&self, key: &CampaignKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Run `cfg` against `campaign` through the store: load matching
    /// records, execute only the residual (appending incrementally, so a
    /// kill loses at most in-flight work), and merge into the canonical
    /// report. See the module docs for the identity contract.
    pub fn run_campaign(
        &self,
        key: &CampaignKey,
        campaign: &Campaign,
        cfg: &CampaignConfig,
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> std::io::Result<StoreRun> {
        let path = self.log_path(key);
        let sig = run_signature(cfg);
        let log = self.logs.log(&path);
        let (scan, decoded_lines) =
            log.lock().expect("log poisoned").scan(&path, cfg.model, cfg.seed, &sig)?;
        let mut stats =
            StoreStats { corrupt_lines: scan.corrupt, decoded_lines, ..StoreStats::default() };

        // The scan's records are the merge's start; a longer earlier run's
        // records past this request stay in the log only.
        let mut merged = scan.records;
        merged.split_off(&cfg.injections);
        let mut residual: Vec<usize> = Vec::new();
        for i in 0..cfg.injections {
            if merged.contains_key(&i) {
                stats.hits += 1;
            } else if i < scan.covered {
                stats.known_skips += 1;
            } else {
                residual.push(i);
            }
        }
        stats.misses = residual.len() as u64;

        let mut cancelled = ctl.is_cancelled();
        if !residual.is_empty() && !cancelled {
            // Under the log's lock, so the writer's look at the file's last
            // byte (and the `\n` it may add) sees no half-written append.
            let writer = {
                let _appends = log.lock().expect("log poisoned");
                LogWriter::open_append(&path)?
            };
            let header = LogLine::run(cfg, &key.encode());
            let run = RunLog { log: &log, writer, id: self.logs.next_run(), header };
            let sink = LogSink { log: &run, fresh: Mutex::new(BTreeMap::new()) };
            campaign.run_selected(cfg, &residual, hooks, ctl, &sink);
            cancelled = ctl.is_cancelled();
            if !cancelled {
                run.append(LogLine::complete(cfg));
            }
            let fresh = sink.fresh.into_inner().expect("sink poisoned");
            stats.appended = fresh.len() as u64;
            stats.write_errors = run.writer.failed() as u64;
            merged.extend(fresh);
        }

        let mut report = CampaignReport::from_records(merged.into_values().collect::<Vec<_>>());
        report.cancelled = cancelled;
        if !cfg.keep_records {
            report.records = Vec::new();
        }
        if hooks.enabled() {
            hooks.add("store.hits", stats.hits);
            hooks.add("store.misses", stats.misses);
            hooks.add("store.known_skips", stats.known_skips);
            hooks.add("store.appended", stats.appended);
            hooks.add("store.corrupt_lines", stats.corrupt_lines);
            hooks.add("store.decoded_lines", stats.decoded_lines);
            hooks.add("store.write_errors", stats.write_errors);
            hooks.add("store.runs", 1);
        }
        Ok(StoreRun { report, stats })
    }

    /// What [`crate::scan_log`] gives on this campaign's log for `cfg`'s
    /// run, answered from the store's cache: only lines the cache does not
    /// hold yet are decoded.
    pub fn scan(&self, key: &CampaignKey, cfg: &CampaignConfig) -> std::io::Result<LogScan> {
        let path = self.log_path(key);
        let log = self.logs.log(&path);
        let scan =
            log.lock().expect("log poisoned").scan(&path, cfg.model, cfg.seed, &run_signature(cfg));
        scan.map(|(scan, _)| scan)
    }

    /// Logs the store's cache holds now: at most [`crate::CACHED_LOGS`],
    /// plus any a run is reading or writing beyond that.
    pub fn cached_logs(&self) -> usize {
        self.logs.len()
    }

    /// Every record-log file currently in the store (for triage sweeps).
    pub fn log_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}
