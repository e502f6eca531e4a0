//! The store's cache of decoded logs answers exactly what `scan_log` gives
//! on the log's bytes now, whatever happened to the file; and the store's
//! writers keep every record under its own run's `run` line.
//!
//! Each step below compares the cached store with the uncached path: a
//! fresh `Store` (an empty cache) over a copy of the same log.

use carestore::{
    campaign_key, run_signature, scan_log, CampaignKey, LogWriter, Store, StoreRun, StoreStats,
    CACHED_LOGS,
};
use faultsim::{Campaign, CampaignConfig, FaultModel, InjectionRecord, JobControl};
use opt::OptLevel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use telemetry::NoTelemetry;

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("care-store-cache-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Fixture {
    campaign: Campaign,
    key: CampaignKey,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let w = workloads::hpccg::build(2, 2);
        let app = care::compile(&w.module, OptLevel::O1);
        let key = campaign_key(&w.module, w.entry, &w.args, &w.outputs, "O1");
        Fixture { campaign: Campaign::prepare(&w, app, vec![]), key }
    })
}

fn cfg(injections: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections,
        model: FaultModel::SingleBit,
        seed,
        evaluate_care: true,
        app_only: true,
        ..CampaignConfig::default()
    }
}

fn run(store: &Store, key: &CampaignKey, c: &CampaignConfig) -> StoreRun {
    let f = fixture();
    store.run_campaign(key, &f.campaign, c, &NoTelemetry, &JobControl::new()).expect("store run")
}

/// A run's stats apart from how many lines its scan decoded, which is
/// what the cache changes.
fn answered(stats: StoreStats) -> StoreStats {
    StoreStats { decoded_lines: 0, ..stats }
}

/// The store's scan of `c`'s run equals `scan_log` of the file now.
fn assert_scan_is_the_files(store: &Store, c: &CampaignConfig, step: &str) {
    let key = &fixture().key;
    let want = scan_log(&store.log_path(key), c.model, c.seed, &run_signature(c)).unwrap();
    let got = store.scan(key, c).unwrap();
    assert_eq!(
        (got.records, got.covered, got.corrupt),
        (want.records, want.covered, want.corrupt),
        "{step}: the cached scan is not the file's"
    );
}

/// Check the scan, run `c` through the cached store and through a fresh
/// store over a copy of the log, and check that both runs answered alike.
fn step(store: &Store, c: &CampaignConfig, step: &str) -> StoreRun {
    let key = &fixture().key;
    for probe in [*c, cfg(c.injections, c.seed ^ 1)] {
        assert_scan_is_the_files(store, &probe, step);
    }
    let copy = Store::open(tmp_dir("uncached")).unwrap();
    if store.log_path(key).exists() {
        std::fs::copy(store.log_path(key), copy.log_path(key)).unwrap();
    }
    let cached = run(store, key, c);
    let uncached = run(&copy, key, c);
    assert_eq!(answered(cached.stats), answered(uncached.stats), "{step}: stats");
    assert_eq!(cached.report, uncached.report, "{step}: report");
    assert_scan_is_the_files(store, c, &format!("{step}, after its run"));
    std::fs::remove_dir_all(copy.dir()).unwrap();
    cached
}

fn lines_of(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).unwrap();
    bytes.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec).collect()
}

/// Cold run, warm re-run, a second writer, truncation at a line boundary
/// and mid-line, a same-length rewrite, an unterminated but valid last
/// line, deletion: after each, the cached store answers as the file does.
/// Every run asks for more injections than the last, so each one appends
/// through the cache too.
#[test]
fn the_cached_scan_is_the_files_through_every_change_to_the_log() {
    let f = fixture();
    let dir = tmp_dir("steps");
    let store = Store::open(&dir).unwrap();
    let path = store.log_path(&f.key);
    let seed = 0xCAC4E;

    let cold = step(&store, &cfg(12, seed), "cold run");
    assert_eq!(cold.stats.misses, 12);
    let warm = step(&store, &cfg(12, seed), "warm re-run");
    assert_eq!((warm.stats.misses, warm.stats.decoded_lines), (0, 0));

    // A second writer: another store on the same directory, another seed.
    run(&Store::open(&dir).unwrap(), &f.key, &cfg(8, seed ^ 1));
    step(&store, &cfg(14, seed), "after a second writer");

    let lines = lines_of(&path);
    std::fs::write(&path, lines[..lines.len() / 2].concat()).unwrap();
    step(&store, &cfg(16, seed), "truncated at a line boundary");

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
    let torn = step(&store, &cfg(18, seed), "truncated mid-line");
    assert_eq!(torn.stats.corrupt_lines, 1, "the torn line is one corrupt line");

    // Same length, other content: one digit of the first record's
    // `sim_steps` moves, which the warm answer must show.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.windows(12).position(|w| w == b"\"sim_steps\":").unwrap() + 12;
    bytes[at] = if bytes[at] == b'9' { b'1' } else { bytes[at] + 1 };
    std::fs::write(&path, &bytes).unwrap();
    step(&store, &cfg(20, seed), "rewritten at the same length");

    // An unterminated but valid last line: the last record line, moved to
    // the end without its newline after the run's `complete` is dropped.
    let mut lines = lines_of(&path);
    assert!(lines.pop().is_some_and(|l| l.starts_with(b"{\"kind\":\"complete\"")));
    let last = lines.pop().unwrap();
    assert!(last.starts_with(b"{\"kind\":\"record\""));
    std::fs::write(&path, [lines.concat(), last[..last.len() - 1].to_vec()].concat()).unwrap();
    step(&store, &cfg(22, seed), "an unterminated valid last line");

    std::fs::remove_file(&path).unwrap();
    let gone = step(&store, &cfg(22, seed), "deleted");
    assert_eq!(gone.stats.misses, 22);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warm re-run right after a cold run decodes no line: the cold run's
/// appends entered the cache as written. A second writer's lines are then
/// all the next run decodes, and after a torn tail, the torn line and the
/// lines appended past it.
#[test]
fn a_warm_rerun_decodes_nothing_and_a_later_one_only_what_was_appended() {
    let f = fixture();
    let dir = tmp_dir("warm");
    let store = Store::open(&dir).unwrap();
    let c = cfg(24, 0x3A5);
    let cold = run(&store, &f.key, &c);
    assert_eq!((cold.stats.misses, cold.stats.decoded_lines), (24, 0));
    let warm = run(&store, &f.key, &c);
    assert_eq!((warm.stats.hits, warm.stats.decoded_lines), (24, 0), "{:?}", warm.stats);
    assert_eq!(warm.report, cold.report);

    let path = store.log_path(&f.key);
    let before = lines_of(&path).len();
    run(&Store::open(&dir).unwrap(), &f.key, &cfg(6, 0x3A6));
    let appended = (lines_of(&path).len() - before) as u64;
    let warm = run(&store, &f.key, &c);
    assert_eq!((warm.stats.hits, warm.stats.decoded_lines), (24, appended));
    assert_eq!(warm.report, cold.report);

    // A torn tail: the run that resumes past it decodes it, and the next
    // run decodes it again (now a whole line) with the resume's lines.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"{\"kind\":\"rec");
    std::fs::write(&path, &bytes).unwrap();
    let before = lines_of(&path).len();
    let longer = cfg(28, 0x3A5);
    let resumed = run(&store, &f.key, &longer);
    assert_eq!((resumed.stats.misses, resumed.stats.decoded_lines), (4, 1));
    let appended = (lines_of(&path).len() - before) as u64;
    let warm = run(&store, &f.key, &longer);
    assert_eq!((warm.stats.hits, warm.stats.corrupt_lines), (28, 1));
    assert_eq!(warm.stats.decoded_lines, 1 + appended, "the cache kept the lines before the tail");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// More distinct logs than the cache's bound stream through one store:
/// the cache holds at most the bound, and an evicted log answers as well
/// as a cached one (it is decoded again).
#[test]
fn the_cache_holds_at_most_its_bound_of_logs() {
    let dir = tmp_dir("bound");
    let store = Store::open(&dir).unwrap();
    let c = cfg(2, 0xB0B);
    let keys: Vec<CampaignKey> = (0..CACHED_LOGS + 4)
        .map(|i| CampaignKey::decode(&format!("care1:{i:032x}:O1:e1")).unwrap())
        .collect();
    for key in &keys {
        run(&store, key, &c);
        assert!(store.cached_logs() <= CACHED_LOGS, "{} logs cached", store.cached_logs());
    }
    assert_eq!(store.cached_logs(), CACHED_LOGS);
    let evicted = run(&store, &keys[0], &c);
    assert_eq!(evicted.stats.misses, 0);
    assert!(evicted.stats.decoded_lines > 0, "an evicted log is read again");
    let cached = run(&store, keys.last().unwrap(), &c);
    assert_eq!((cached.stats.misses, cached.stats.decoded_lines), (0, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn record(seed: u64, index: usize) -> InjectionRecord {
    fixture().campaign.run_one(&cfg(index + 1, seed), index).expect("the point fires")
}

fn record_line(index: usize, r: &InjectionRecord) -> String {
    carestore::LogLine::Record(index, r.clone()).encode()
}

/// A kill mid-append leaves a last line without its newline. The next
/// writer starts on a fresh line, so its `run` line is not glued to the
/// torn one, and its records stay its own.
#[test]
fn a_torn_last_line_does_not_swallow_the_next_runs_header() {
    let dir = tmp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log.jsonl");
    let (one, two) = (cfg(4, 1), cfg(4, 2));

    let w = LogWriter::open_append(&path).unwrap();
    w.run_header(&one, "k");
    w.append_line(&record_line(0, &record(1, 0)));
    let half = record_line(1, &record(1, 1));
    w.append_line(&half[..half.len() / 2]);
    drop(w);
    // The kill: the half line's newline never made it out.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

    let w = LogWriter::open_append(&path).unwrap();
    w.run_header(&two, "k");
    w.append_line(&record_line(2, &record(2, 2)));
    assert!(!w.failed());

    let scan = |c: &CampaignConfig| scan_log(&path, c.model, c.seed, &run_signature(c)).unwrap();
    let (first, second) = (scan(&one), scan(&two));
    assert_eq!(first.records.keys().copied().collect::<Vec<_>>(), [0], "seed 1 took seed 2's");
    assert_eq!(second.records.keys().copied().collect::<Vec<_>>(), [2], "seed 2 lost its own");
    assert_eq!(second.records[&2], record(2, 2));
    assert_eq!(first.corrupt, 1, "the torn line is one corrupt line, alone");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two runs of one campaign that differ in seed append to one log through
/// one store at the same time: run A stops after two records until run B
/// has finished, then goes on. Each run's records must read back under its
/// own key, so both re-read warm from a fresh store as their cold
/// references.
#[test]
fn two_interleaved_runs_through_one_store_keep_their_own_records() {
    let f = fixture();
    let (a, b) = (cfg(24, 0xA11), cfg(24, 0xB22));
    let reference = |c: &CampaignConfig| {
        let dir = tmp_dir("interleave-ref");
        let report = run(&Store::open(&dir).unwrap(), &f.key, c).report;
        std::fs::remove_dir_all(&dir).unwrap();
        report
    };
    let (want_a, want_b) = (reference(&a), reference(&b));

    let dir = tmp_dir("interleave");
    let store = Store::open(&dir).unwrap();
    let (paused, a_done, b_done) =
        (AtomicBool::new(false), AtomicBool::new(false), AtomicBool::new(false));
    let hold = |classified: u64| {
        if classified >= 2 && !b_done.load(Ordering::SeqCst) {
            paused.store(true, Ordering::SeqCst);
            while !b_done.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        true
    };
    // Raised on drop, so a run that panics fails the test instead of
    // leaving the other one waiting.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _done = Done(&b_done);
            while !paused.load(Ordering::SeqCst) && !a_done.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            run(&store, &f.key, &b);
        });
        let _done = Done(&a_done);
        let ctl = JobControl::watched(&hold);
        store.run_campaign(&f.key, &f.campaign, &a, &NoTelemetry, &ctl).expect("run A");
    });
    assert!(paused.load(Ordering::SeqCst), "test premise: run B ran inside run A");

    let fresh = Store::open(&dir).unwrap();
    for (c, want) in [(&a, &want_a), (&b, &want_b)] {
        let warm = run(&fresh, &f.key, c);
        assert_eq!(warm.stats.misses, 0, "seed {:#x}: records lost", c.seed);
        assert_eq!(&warm.report, want, "seed {:#x}: records read under the other run", c.seed);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
