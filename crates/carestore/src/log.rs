//! The append-only JSONL record log — one file per campaign key.
//!
//! Three line kinds, all in the workspace JSON dialect:
//!
//! * `{"kind":"run","store":1,"model":...,"seed":...,"cfg":...,...}` —
//!   opens a *run context*: every following `record` line belongs to it
//!   until the next `run` line. `model`, `seed` and `cfg` (the
//!   [`run_signature`] of the record-affecting config) identify which
//!   requests may reuse the records; `engine` rides along for humans only
//!   — records are pinned bit-identical across engines — and any other
//!   key (older logs carry `scheduler`) is ignored.
//! * `{"kind":"record","index":I,...}` — one [`InjectionRecord`] in the
//!   shared codec of [`crate::record`], written the moment a worker
//!   classifies it (append order is completion order, not index order).
//! * `{"kind":"complete","model":...,"seed":...,"cfg":...,"injections":N}`
//!   — the run covering indexes `0..N` finished *uncancelled*. This is
//!   what makes absence meaningful: below a completed `N`, an index with
//!   no record is a *known skip* (the sampled point never fired — fresh
//!   runs skip it too); above every completed `N`, an absent index is
//!   simply unexecuted and stays residual work.
//!
//! A killed campaign leaves records without a `complete` trailer; the
//! next run reloads them and executes only the rest. Scanning tolerates a
//! torn final line (a kill mid-append) and any unparseable line by
//! counting it as corrupt and moving on — an append-only log must never
//! brick its campaign.

use crate::record::{get_u64, push_field_str, push_field_u64, record_from_json};
use faultsim::{CampaignConfig, FaultModel, InjectionRecord};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;
use telemetry::parse_json;

/// Version of the log line vocabulary, written into every `run` line.
/// Scanners ignore runs from a different store version.
pub const STORE_VERSION: u32 = 1;

/// Canonical signature of the record-affecting [`CampaignConfig`] fields
/// *other than* model and seed (those key the run context directly).
/// Engine kind, thread and shard counts are deliberately excluded: records
/// are pinned bit-identical across all of them, so an interpreter run may
/// reuse a compiled run's records and vice versa.
/// `injections` is excluded too — index `i`'s record depends only on
/// `(seed, i)`, so a longer re-run reuses a shorter run's records.
pub fn run_signature(cfg: &CampaignConfig) -> String {
    format!(
        "ec={},ao={},hf={},mr={},pb={},sg={}",
        cfg.evaluate_care as u8,
        cfg.app_only as u8,
        cfg.hang_factor,
        cfg.max_recoveries,
        cfg.patch_base_first as u8,
        cfg.skip_equality_guard as u8,
    )
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

/// Scan a log file for records usable by a `(model, seed, cfg)` request.
/// A missing file is an empty scan, not an error.
pub fn scan_log(
    path: &Path,
    model: FaultModel,
    seed: u64,
    cfg_sig: &str,
) -> std::io::Result<LogScan> {
    let mut scan = LogScan::default();
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    // Does a run context's (model, seed, cfg, store version) match ours?
    let matches = |v: &telemetry::Json| -> bool {
        get_u64(v, "store") == Some(STORE_VERSION as u64)
            && v.get("model").and_then(telemetry::Json::as_str) == Some(model.name())
            && get_u64(v, "seed") == Some(seed)
            && v.get("cfg").and_then(telemetry::Json::as_str) == Some(cfg_sig)
    };
    let mut in_matching_run = false;
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse_json(&line) else {
            scan.corrupt += 1;
            continue;
        };
        match v.get("kind").and_then(telemetry::Json::as_str) {
            Some("run") => in_matching_run = matches(&v),
            Some("record") if in_matching_run => {
                match (get_u64(&v, "index"), record_from_json(&v)) {
                    (Some(i), Ok(rec)) => {
                        // Overlapping partial runs can re-execute an index;
                        // determinism makes the records identical, so
                        // last-wins is a no-op in practice.
                        scan.records.insert(i as usize, rec);
                    }
                    _ => scan.corrupt += 1,
                }
            }
            Some("record") => {}
            Some("complete") => {
                if matches(&v) {
                    if let Some(n) = get_u64(&v, "injections") {
                        scan.covered = scan.covered.max(n as usize);
                    }
                }
            }
            _ => scan.corrupt += 1,
        }
    }
    Ok(scan)
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
    /// Open (creating parents' file if needed) for append.
    pub fn open_append(path: &Path) -> std::io::Result<LogWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
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
        let mut s = String::from("{\"kind\":\"run\"");
        push_field_u64(&mut s, "store", STORE_VERSION as u64);
        push_field_str(&mut s, "campaign", campaign_key);
        push_field_str(&mut s, "model", cfg.model.name());
        push_field_u64(&mut s, "seed", cfg.seed);
        push_field_str(&mut s, "cfg", &run_signature(cfg));
        push_field_str(&mut s, "engine", cfg.engine.name());
        s.push('}');
        self.append_line(&s);
    }

    /// Append the `complete` trailer after an uncancelled run over
    /// `0..cfg.injections`.
    pub fn complete(&self, cfg: &CampaignConfig) {
        let mut s = String::from("{\"kind\":\"complete\"");
        push_field_u64(&mut s, "store", STORE_VERSION as u64);
        push_field_str(&mut s, "model", cfg.model.name());
        push_field_u64(&mut s, "seed", cfg.seed);
        push_field_str(&mut s, "cfg", &run_signature(cfg));
        push_field_u64(&mut s, "injections", cfg.injections as u64);
        s.push('}');
        self.append_line(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::push_record_fields;
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
        let mut s = String::from("{\"kind\":\"record\"");
        push_field_u64(&mut s, "index", index as u64);
        push_record_fields(&mut s, r);
        s.push('}');
        s
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
        w.append_line(&record_line(2, &rec(2)));
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
        assert_eq!(scan.corrupt, 1);
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
