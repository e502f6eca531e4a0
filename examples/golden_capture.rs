//! Golden-constant capture utility for `tests/golden.rs` and
//! `tests/experiments.rs`.
//!
//! Prints the fixed-seed campaign aggregates both tests assert against. The
//! `GOLDEN` lines are the constants of `tests/golden.rs` (captured from the
//! pre-fork engine: process rebuild + prefix re-simulation); everything
//! below `// ---- tests/experiments.rs` is the three pin tables of that file
//! as Rust literals, ready to paste over the old ones. Re-run this only when
//! an *intentional* semantic change to the campaign engine requires
//! refreshing them, and say so in the commit.
//!
//! ```sh
//! cargo run --release --example golden_capture
//! ```

use bench::{
    coverage_cfg, decline_rows, manifestation_cfg, prepare, run_campaign, section2_workloads,
    section5_workloads,
};
use faultsim::{Campaign, EngineKind, FaultModel};
use opt::OptLevel;

/// Seed and injection count of the `tests/experiments.rs` pins.
const SEED: u64 = 0xCA2E;
const N: usize = 100;

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
    let r = campaign.run(&coverage_cfg(100, FaultModel::SingleBit, 0xCA2E, EngineKind::Interp));
    summarize("hpccg_small_o1_care_n100", &r);

    println!("// ---- tests/experiments.rs (seed {SEED:#X}, N = {N}) ----");
    println!("const MANIFESTATION: &[Manifestation] = &[");
    for w in section2_workloads() {
        let p = prepare(&w, OptLevel::O0);
        let cfg = manifestation_cfg(N, FaultModel::SingleBit, SEED, EngineKind::Interp);
        let (r, _) = run_campaign(&p, &cfg, None, None);
        println!(
            "    Manifestation {{ workload: {:?}, buckets: {:?}, signals: {:?}, latency: {:?} }},",
            w.name,
            (r.benign, r.soft_failure, r.sdc, r.hang),
            r.signals,
            r.latency_buckets
        );
    }
    println!("];");
    println!("const ADDRESS_OPS: &[AddressOps] = &[");
    for w in section2_workloads() {
        let s = care::compile(&w.module, OptLevel::O1).armor.stats;
        println!(
            "    AddressOps {{ workload: {:?}, multi_op_fraction: {:?}, avg_addr_ops: {:?} }},",
            w.name,
            s.multi_op_fraction(),
            s.avg_addr_ops()
        );
    }
    println!("];");
    println!("const COVERAGE: &[Coverage] = &[");
    for w in section5_workloads() {
        for level in [OptLevel::O0, OptLevel::O1] {
            let p = prepare(&w, level);
            let cfg = coverage_cfg(N, FaultModel::SingleBit, SEED, EngineKind::Interp);
            let (r, _) = run_campaign(&p, &cfg, None, None);
            println!(
                "    Coverage {{ workload: {:?}, level: OptLevel::{level}, evaluated: {}, \
                 covered: {}, survived_with_sdc: {}, recoveries: {}, mean_recovery_ms: {:?}, \
                 declines: &{:?} }},",
                w.name,
                r.care_evaluated,
                r.care_covered,
                r.care_survived_with_sdc,
                r.total_recoveries,
                r.mean_recovery_ms(),
                decline_rows(&r)
            );
        }
    }
    println!("];");
}
