//! Tour of the telemetry subsystem: attach a [`telemetry::Recorder`] to a
//! small HPCCG coverage campaign, print the human-readable summary table,
//! write the versioned JSONL event stream and re-validate it against the
//! schema — then spot-check the headline measurement (the paper's §6
//! claim that recovery time is dominated by *preparation*, not kernel
//! execution).
//!
//! ```text
//! cargo run --release --example telemetry_tour [OUT.jsonl]
//! ```
//!
//! CI runs this as the end-to-end smoke test of the telemetry stack.

use faultsim::{Campaign, CampaignConfig, FaultModel};
use opt::OptLevel;
use telemetry::Recorder;

fn main() {
    let out = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("care_telemetry_tour.jsonl"));

    // 1. A small but real §5-style campaign: HPCCG at -O1, CARE evaluated
    //    on every SIGSEGV injection.
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);

    // 2. Attach a recorder. `run_with_hooks` takes `&dyn Hooks`: passing
    //    `&telemetry::NoTelemetry` (what plain `run` does) skips every
    //    instrumentation site; passing a live `&Recorder` streams counters,
    //    histograms and events into per-thread shards with no cross-worker
    //    contention.
    let rec = Recorder::new();
    let report = campaign.run_with_hooks(
        &CampaignConfig {
            injections: 120,
            model: FaultModel::SingleBit,
            seed: 0xCA2E,
            evaluate_care: true,
            app_only: true,
            ..CampaignConfig::default()
        },
        &rec,
    );
    println!(
        "campaign: {} classified, {} CARE-evaluated, {} covered ({:.1}% coverage)",
        report.total(),
        report.care_evaluated,
        report.care_covered,
        100.0 * report.coverage(),
    );

    // 3. Drain the shards into one merged report and show the summary.
    let tel = rec.drain();
    println!("{}", tel.summary_table());

    // 4. Sinks: versioned JSONL out, schema validation back in.
    let jsonl = tel.to_jsonl();
    let counts = telemetry::validate_jsonl(&jsonl).expect("JSONL validates");
    std::fs::write(&out, &jsonl).expect("write JSONL");
    println!("wrote {} lines to {} ({counts:?})", jsonl.lines().count(), out.display());

    // 5. The headline number: measured preparation share of each recovery.
    let prep = tel.hists.get("recovery.prep_bp").expect("campaign recovered at least once");
    let mean = prep.mean() / 10_000.0;
    println!(
        "recovery preparation fraction: mean {:.2}% (min {:.2}%, {} activations)",
        100.0 * mean,
        prep.min() as f64 / 100.0,
        prep.count(),
    );
    assert!(
        mean > 0.95,
        "measured preparation fraction {mean:.4} contradicts the paper's >98% claim"
    );

    // 6. TLB effectiveness of the interpreter's software address cache.
    let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
    let accesses = ctr("tlb.loads") + ctr("tlb.stores");
    let misses = ctr("tlb.read_misses") + ctr("tlb.write_misses");
    if accesses > 0 {
        println!(
            "software TLB: {accesses} accesses, {misses} misses ({:.4}% hit rate)",
            100.0 * (accesses - misses) as f64 / accesses as f64
        );
    }
}
