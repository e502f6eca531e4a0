//! Golden-constant capture utility for `tests/golden.rs`.
//!
//! Prints the fixed-seed campaign aggregates that test asserts against: the
//! `GOLDEN` lines are its constants (captured from the pre-fork engine:
//! process rebuild + prefix re-simulation). Re-run this only when an
//! *intentional* semantic change to the campaign engine requires refreshing
//! them, and say so in the commit. (`tests/experiments.rs` needs no capture
//! tool: a stale pin there fails with its replacement literal.)
//!
//! ```sh
//! cargo run --release --example golden_capture
//! ```

use faultsim::{Campaign, CampaignConfig};
use opt::OptLevel;

fn summarize(name: &str, r: &faultsim::CampaignReport) {
    let mut declines: Vec<(String, usize)> =
        r.declines.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    declines.sort();
    let mean_ms = r.mean_recovery_ms();
    println!(
        "GOLDEN {name}: total={} benign={} soft={} sdc={} hang={}",
        r.total(),
        r.benign,
        r.soft_failure,
        r.sdc,
        r.hang
    );
    println!("GOLDEN {name}: signals={:?} latency={:?}", r.signals, r.latency_buckets);
    println!(
        "GOLDEN {name}: care_eval={} covered={} survived_sdc={} recoveries={} mean_ms={:.6}",
        r.care_evaluated, r.care_covered, r.care_survived_with_sdc, r.total_recoveries, mean_ms
    );
    println!("GOLDEN {name}: declines={declines:?}");
}

fn main() {
    // --- golden-equivalence baseline: hpccg, seed 0xCA2E, 100 injections --
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let r = campaign.run(&CampaignConfig {
        injections: 100,
        seed: 0xCA2E,
        evaluate_care: true,
        app_only: true,
        ..CampaignConfig::default()
    });
    summarize("hpccg_small_o1_care_n100", &r);
}
