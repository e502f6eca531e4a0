//! CI smoke test: the content-addressed record store, kill + resume in
//! one process.
//!
//! Runs a CARE coverage campaign cold through a fresh store, plants a
//! copy of its log truncated at a mid-run record boundary (the on-disk
//! image of a killed process), resumes from it, and asserts the resumed
//! report is bit-identical to the uninterrupted run. A final warm re-run
//! on the same store must take every record from the log, decode no line
//! of it (the resume's own appends entered the store's cache as written),
//! execute zero residual injections and leave the log untouched.
//! Exits nonzero (assert) if any of that regresses. Run at several pool
//! widths, so records from several workers are appended through the log's
//! one lock:
//!
//! ```sh
//! cargo run --release --example smoke_store
//! CARE_THREADS=4 cargo run --release --example smoke_store
//! ```

use carestore::{campaign_key, Store};
use faultsim::{Campaign, CampaignConfig, FaultModel, JobControl};
use opt::OptLevel;
use telemetry::NoTelemetry;

fn main() {
    let injections = 60;
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let key = campaign_key(&w.module, w.entry, &w.args, &w.outputs, "O1");
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = CampaignConfig {
        injections,
        model: FaultModel::SingleBit,
        seed: 0x5300CE,
        evaluate_care: true,
        app_only: true,
        ..CampaignConfig::default()
    };

    let base = std::env::temp_dir().join(format!("care-smoke-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cold_store = Store::open(base.join("cold")).expect("open cold store");
    let resume_store = Store::open(base.join("resume")).expect("open resume store");

    // The uninterrupted run, persisting as it goes.
    let cold = cold_store
        .run_campaign(&key, &campaign, &cfg, &NoTelemetry, &JobControl::new())
        .expect("cold run");
    assert_eq!(cold.stats.misses, injections as u64);
    assert!(cold.report.care_covered > 0, "smoke campaign must cover at least one fault");

    // Simulate a kill halfway: keep the log's header and the first half of
    // its record lines, drop the rest (including the completion marker).
    let log = std::fs::read_to_string(cold_store.log_path(&key)).expect("cold log");
    let total_records = log.lines().filter(|l| l.contains("\"kind\":\"record\"")).count();
    let keep = total_records / 2;
    let mut truncated = String::new();
    let mut kept = 0;
    for line in log.lines() {
        if line.contains("\"kind\":\"record\"") {
            if kept == keep {
                break;
            }
            kept += 1;
        } else if line.contains("\"kind\":\"complete\"") {
            break;
        }
        truncated.push_str(line);
        truncated.push('\n');
    }
    std::fs::write(resume_store.log_path(&key), truncated).expect("plant kill image");

    // Resume: reuse the surviving half, execute only the residual.
    let resumed = resume_store
        .run_campaign(&key, &campaign, &cfg, &NoTelemetry, &JobControl::new())
        .expect("resumed run");
    assert_eq!(resumed.stats.hits, keep as u64, "resume must reuse every surviving record");
    assert_eq!(resumed.stats.misses, (injections - keep) as u64);
    assert_eq!(resumed.report, cold.report, "resumed report diverged from the full run");

    // Warm: everything is stored now, and in the store's cache; nothing is
    // decoded, nothing executes, nothing is written.
    let log_before = std::fs::read(resume_store.log_path(&key)).expect("resumed log");
    let warm = resume_store
        .run_campaign(&key, &campaign, &cfg, &NoTelemetry, &JobControl::new())
        .expect("warm run");
    assert_eq!(warm.stats.misses, 0, "warm run must execute no residual injections");
    assert_eq!(warm.stats.hits, injections as u64, "warm run must take every record stored");
    assert_eq!(warm.stats.decoded_lines, 0, "warm run must decode no line: {:?}", warm.stats);
    assert_eq!(warm.report, cold.report, "warm report diverged from the full run");
    assert_eq!(
        std::fs::read(resume_store.log_path(&key)).expect("log still there"),
        log_before,
        "a fully-warm run must not append to the log"
    );

    std::fs::remove_dir_all(&base).expect("cleanup");
    println!(
        "smoke_store: killed at {keep}/{total_records} records, resumed {} residual \
         injections bit-identical to the full run; warm re-run executed 0, decoded 0 lines",
        resumed.stats.misses,
    );
}
