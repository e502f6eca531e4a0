//! Integration tests for the content-addressed record store: warm
//! re-runs, kill + resume and residual planning must all reproduce a
//! fresh full run bit for bit, across engines, and equal the per-index
//! `run_one` reference.
//!
//! The determinism these tests pin rests on faultsim's per-index record
//! independence (record `i` depends only on `(seed, i)`), which makes
//! executing a residual subset produce exactly the records a full run
//! would have at those indexes.

use carestore::{campaign_key, CampaignKey, Store};
use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel, JobControl};
use opt::OptLevel;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use telemetry::NoTelemetry;

/// A unique scratch directory per call (tests in this binary run in
/// parallel; proptest cases reuse the counter for distinct dirs too).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("care-store-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Fixture {
    campaign: Campaign,
    key: CampaignKey,
}

/// One prepared campaign shared by every test and proptest case —
/// `Campaign::prepare` (compile + golden run + checkpoints) dominates the
/// cost of these tests, and the campaign itself is immutable.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let w = workloads::hpccg::build(2, 2);
        let app = care::compile(&w.module, OptLevel::O1);
        let key = campaign_key(&w.module, w.entry, &w.args, &w.outputs, "O1");
        let campaign = Campaign::prepare(&w, app, vec![]);
        Fixture { campaign, key }
    })
}

fn cfg(injections: usize, seed: u64, engine: EngineKind) -> CampaignConfig {
    CampaignConfig {
        injections,
        model: FaultModel::SingleBit,
        seed,
        evaluate_care: true,
        app_only: true,
        engine,
        ..CampaignConfig::default()
    }
}

/// Keep the log's leading run header plus its first `keep` record lines —
/// the on-disk image of a process killed at a record boundary (the
/// `complete` marker never made it out either).
fn truncated_log(text: &str, keep: usize) -> String {
    let mut out = String::new();
    let mut kept = 0;
    for line in text.lines() {
        if line.contains("\"kind\":\"record\"") {
            if kept == keep {
                break;
            }
            kept += 1;
        } else if line.contains("\"kind\":\"complete\"") {
            break;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn record_lines(text: &str) -> usize {
    text.lines().filter(|l| l.contains("\"kind\":\"record\"")).count()
}

/// The campaign key is a hash of the module's canonical printing, and it
/// names the campaign's record log: a printer change that moves one byte
/// orphans every log already on disk, which would then neither resume nor
/// read warm. So the keys of the five default workloads at O1 are pinned.
#[test]
fn campaign_keys_of_the_default_workloads_are_pinned() {
    let keys: Vec<(&str, String)> = workloads::all()
        .iter()
        .map(|w| (w.name, campaign_key(&w.module, w.entry, &w.args, &w.outputs, "O1").encode()))
        .collect();
    assert_eq!(
        keys,
        [
            ("HPCCG", "care1:a72525fa8629d265d0ab0cd6be50530a:O1:e1"),
            ("CoMD", "care1:c866ac16410a9bceaf87c099345f2f16:O1:e1"),
            ("miniFE", "care1:a4d236879b89951d8322757dbef71530:O1:e1"),
            ("miniMD", "care1:0416003bdfcddb8f728b308927a1a7c7:O1:e1"),
            ("GTC-P", "care1:df1500fca9b6a3893b2f8b8a2e4fa3b0:O1:e1"),
        ]
        .map(|(name, key)| (name, key.to_string()))
    );
}

#[test]
fn warm_store_rerun_is_byte_identical_and_executes_nothing() {
    let f = fixture();
    let dir = tmp_dir("warm");
    let store = Store::open(&dir).unwrap();
    let c = cfg(40, 0x57CE, EngineKind::Interp);

    let cold = store
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("cold run");
    assert_eq!(cold.stats.hits, 0);
    assert_eq!(cold.stats.misses, 40);
    let log_after_cold = std::fs::read(store.log_path(&f.key)).expect("log written");

    let warm = store
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("warm run");
    assert_eq!(warm.stats.misses, 0, "warm run must execute no residual injections");
    assert_eq!(warm.stats.hits + warm.stats.known_skips, 40);
    assert_eq!(warm.report, cold.report, "warm report diverged from cold");
    assert_eq!(
        std::fs::read(store.log_path(&f.key)).expect("log still there"),
        log_after_cold,
        "a fully-warm run must not append to the log"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_mid_run_then_resume_reproduces_the_full_run() {
    let f = fixture();
    let c = cfg(40, 0x1337, EngineKind::Interp);

    // The canonical answer: a cold run through its own store.
    let dir_full = tmp_dir("kill-full");
    let full = Store::open(&dir_full)
        .unwrap()
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("full run");

    // The killed run: cancel as soon as a few records have landed. The
    // exact kill point is scheduling-dependent; the resume contract must
    // hold wherever it lands.
    let dir = tmp_dir("kill");
    let store = Store::open(&dir).unwrap();
    let ctl = JobControl::new();
    let killed = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while ctl.classified() < 5 && !ctl.is_cancelled() {
                std::thread::yield_now();
            }
            ctl.cancel();
        });
        let killed =
            store.run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &ctl).expect("killed run");
        watcher.join().unwrap();
        killed
    });
    // The cancel races the (fast) campaign: it may land mid-run or only
    // after the last record. When it landed in time, the log must lack a
    // completion marker; either way the resume below must reconstruct the
    // uninterrupted run exactly. (Deterministic kills at every record
    // boundary are swept by the proptest in this file.)
    if killed.report.cancelled {
        let log = std::fs::read_to_string(store.log_path(&f.key)).unwrap();
        assert!(
            !log.contains("\"kind\":\"complete\""),
            "a cancelled run must not write a completion marker"
        );
    }

    let resumed = store
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("resumed run");
    assert!(!resumed.report.cancelled);
    assert_eq!(
        resumed.report, full.report,
        "resume after kill diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed.stats.hits,
        record_lines(&std::fs::read_to_string(store.log_path(&f.key)).unwrap(),) as u64
            - resumed.stats.appended,
        "resume must reuse every record the killed run persisted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_full).unwrap();
}

/// Logs written before the scheduler axis was retired carry
/// `"scheduler":"per-injection"` in their `run` headers. Such a log must
/// scan clean (no corrupt lines, every record reused) and resume to the
/// byte-identical report.
#[test]
fn log_with_a_legacy_scheduler_key_scans_clean_and_resumes_identically() {
    let f = fixture();
    let c = cfg(24, 0x01D, EngineKind::Interp);
    let dir_a = tmp_dir("legacy-a");
    let store_a = Store::open(&dir_a).unwrap();
    let cold = store_a
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("cold run");
    let log = std::fs::read_to_string(store_a.log_path(&f.key)).expect("cold log");
    let legacy = log.replace("\"engine\":", "\"scheduler\":\"per-injection\",\"engine\":");
    assert_ne!(legacy, log, "the run header lost its engine key");

    let dir_b = tmp_dir("legacy-b");
    let store_b = Store::open(&dir_b).unwrap();
    std::fs::write(store_b.log_path(&f.key), truncated_log(&legacy, 10)).unwrap();
    let resumed = store_b
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("resumed run");
    assert_eq!(resumed.stats.corrupt_lines, 0, "legacy header counted as corrupt");
    assert_eq!((resumed.stats.hits, resumed.stats.misses), (10, 14));
    assert_eq!(resumed.report, cold.report, "resume from a legacy log diverged");
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// One line that is not UTF-8 (a flipped byte, a foreign writer) is one
/// corrupt line, not the end of the campaign: the records on both sides of
/// it load, the resume executes only what is missing, and the log
/// completes. A scan that read lines as `String`s failed the whole run
/// here, and every later run of the campaign with it.
#[test]
fn a_non_utf8_line_is_skipped_and_the_campaign_resumes() {
    let f = fixture();
    let c = cfg(24, 0xBAD8, EngineKind::Interp);
    let dir_a = tmp_dir("utf8-a");
    let store_a = Store::open(&dir_a).unwrap();
    let cold = store_a
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("cold run");
    let log = std::fs::read_to_string(store_a.log_path(&f.key)).expect("cold log");

    let (head, tail) = (truncated_log(&log, 5), truncated_log(&log, 10));
    let mut image = head.clone().into_bytes();
    image.extend_from_slice(b"\xff\xfe\n");
    image.extend_from_slice(&tail.as_bytes()[head.len()..]);
    let dir_b = tmp_dir("utf8-b");
    let store_b = Store::open(&dir_b).unwrap();
    std::fs::write(store_b.log_path(&f.key), &image).unwrap();

    let resumed = store_b
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("a damaged line must not fail the run");
    assert_eq!(resumed.stats.corrupt_lines, 1);
    assert_eq!((resumed.stats.hits, resumed.stats.misses), (10, 14));
    assert_eq!(resumed.report, cold.report, "resume across a damaged line diverged");
    let after = std::fs::read(store_b.log_path(&f.key)).unwrap();
    assert!(after.starts_with(&image), "the resume must append, not rewrite");
    assert!(String::from_utf8_lossy(&after).contains("\"kind\":\"complete\""));
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Truncation-based resume: deterministic kill images at *every* record
/// boundary, swept across engines and seeds by proptest below. The cold run
/// itself must equal the per-index `run_one` reference.
fn check_resume_at_boundary(engine: EngineKind, seed: u64, keep_pct: usize) {
    let f = fixture();
    let injections = 24;
    let c = CampaignConfig { keep_records: true, ..cfg(injections, seed, engine) };

    let dir_a = tmp_dir("bound-a");
    let store_a = Store::open(&dir_a).unwrap();
    let cold = store_a
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("cold run");
    let reference = CampaignReport::from_records(
        (0..injections).filter_map(|i| f.campaign.run_one(&c, i)).collect(),
    );
    assert_eq!(cold.report, reference, "stored run diverged from per-index run_one");
    let log = std::fs::read_to_string(store_a.log_path(&f.key)).expect("cold log");
    let total_records = record_lines(&log);
    let keep = total_records * keep_pct / 100;

    // Plant the kill image and resume from it.
    let dir_b = tmp_dir("bound-b");
    let store_b = Store::open(&dir_b).unwrap();
    std::fs::write(store_b.log_path(&f.key), truncated_log(&log, keep)).unwrap();
    let resumed = store_b
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("resumed run");
    assert_eq!(resumed.stats.hits, keep as u64, "every kept record must be reused");
    assert_eq!(
        resumed.stats.misses,
        (injections - keep) as u64,
        "without a complete marker, everything unrecorded is residual"
    );
    assert_eq!(
        resumed.report, cold.report,
        "resume from boundary {keep}/{total_records} diverged \
         ({engine:?}, seed {seed:#x})"
    );

    // And the resumed store is now fully warm.
    let warm = store_b
        .run_campaign(&f.key, &f.campaign, &c, &NoTelemetry, &JobControl::new())
        .expect("warm run after resume");
    assert_eq!(warm.stats.misses, 0);
    assert_eq!(warm.report, cold.report);

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 8 } else { 24 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn resume_from_any_record_boundary_is_bit_identical(
        engine in prop_oneof![Just(EngineKind::Interp), Just(EngineKind::Compiled)],
        seed in 0u64..1u64 << 48,
        keep_pct in 0usize..=100,
    ) {
        check_resume_at_boundary(engine, seed, keep_pct);
    }
}
