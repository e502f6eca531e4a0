//! Cross-crate integration tests: the full CARE pipeline over the real
//! workloads — compile, execute, inject, recover, verify outputs.

use care::prelude::*;
use faultsim::{Campaign, CampaignConfig, Outcome, Signal};
use tinyir::verify::verify_module;

/// Campaign size: debug builds run the simulator ~20x slower, so the suite
/// scales down there while release CI uses the full counts.
fn n_injections(release_n: usize) -> usize {
    if cfg!(debug_assertions) {
        (release_n / 4).max(30)
    } else {
        release_n
    }
}

/// Every workload verifies, compiles at both levels, and produces identical
/// results on the reference interpreter and the SimISA machine at O0/O1.
#[test]
fn workloads_agree_across_interpreter_and_machine() {
    for w in workloads::all() {
        verify_module(&w.module).expect(w.name);

        // Reference interpreter result.
        let mut mem = tinyir::mem::PagedMemory::new();
        let globals = tinyir::interp::layout_globals(&w.module, &mut mem, 0x1000_0000);
        let mut interp = tinyir::interp::Interp::new(
            &w.module,
            &mut mem,
            &globals,
            0x7f00_0000_0000,
            0x7f00_0100_0000,
            0x6000_0000_0000,
            2_000_000_000,
        );
        let fid = w.module.func_by_name(w.entry).unwrap();
        let golden = interp.call(fid, &w.args).expect(w.name);

        for level in [OptLevel::O0, OptLevel::O1] {
            let app = care::compile(&w.module, level);
            let (mut p, mut sg) = care::protected_process(&app, &[]);
            p.start(w.entry, &w.args);
            match run_protected(&mut p, &mut sg, 8) {
                ProtectedExit::Completed { result, recoveries, .. } => {
                    assert_eq!(recoveries, 0, "{} {level}: no faults injected", w.name);
                    // O1 transforms may legally reassociate nothing here (we
                    // only run scalar passes), so results are bit-exact.
                    assert_eq!(result, golden, "{} {level} result", w.name);
                }
                other => panic!("{} {level}: {other:?}", w.name),
            }
        }
    }
}

/// Armor emits a kernel for every non-direct memory access in every
/// workload, and the kernel module itself verifies.
#[test]
fn armor_artifacts_verify_for_all_workloads() {
    for w in workloads::all() {
        for level in [OptLevel::O0, OptLevel::O1] {
            let mut ir = w.module.clone();
            opt::optimize(&mut ir, level);
            let out = armor::run_armor(&ir);
            verify_module(&out.kernel_module).unwrap_or_else(|e| panic!("{} {level}: {e}", w.name));
            assert_eq!(
                out.table.len(),
                out.stats.num_kernels,
                "{} {level}: one table entry per kernel",
                w.name
            );
            // The encoded table round-trips.
            let decoded = armor::RecoveryTable::decode(&out.table.encode()).unwrap();
            assert_eq!(decoded.len(), out.table.len());
            assert_eq!(out.stats.infeasible, 0, "{} {level} infeasible", w.name);
        }
    }
}

/// End-to-end recovery on every evaluated workload: at least one injected
/// SIGSEGV is repaired with bit-clean output at both opt levels.
#[test]
fn every_workload_recovers_some_fault_cleanly() {
    for w in workloads::evaluated() {
        for level in [OptLevel::O0, OptLevel::O1] {
            let app = care::compile(&w.module, level);
            let campaign = Campaign::prepare(&w, app, vec![]);
            let cfg = CampaignConfig {
                injections: n_injections(120),
                evaluate_care: true,
                app_only: true,
                seed: 0xE2E,
                ..CampaignConfig::default()
            };
            let report = campaign.run(&cfg);
            assert!(
                report.care_covered > 0,
                "{} {level}: no recovery among {} SIGSEGV faults ({:?})",
                w.name,
                report.care_evaluated,
                report.declines
            );
            assert!(
                report.coverage() > 0.4,
                "{} {level}: coverage {:.2} too low",
                w.name,
                report.coverage()
            );
        }
    }
}

/// CARE's repairs are exact (no heuristic address substitution): runs the
/// campaign counts as covered had bit-identical outputs. A small residue of
/// runs survives with corrupted output — those are faults that hit a value
/// used both as an address (repaired exactly) *and* as data (corrupted
/// before CARE was involved); they are conservatively counted as not
/// covered, never as successes (paper §5.2's exactness claim).
#[test]
fn recovery_never_introduces_sdc() {
    let w = workloads::hpccg::default();
    for level in [OptLevel::O0, OptLevel::O1] {
        let app = care::compile(&w.module, level);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let report = campaign.run(&CampaignConfig {
            injections: n_injections(150),
            evaluate_care: true,
            app_only: true,
            seed: 0x5DC,
            ..CampaignConfig::default()
        });
        // Covered implies bit-clean by construction; the dual-use residue is
        // explicitly tracked and must stay a small minority of repairs.
        let repaired = report.care_covered + report.care_survived_with_sdc;
        assert!(report.care_covered > 0, "{level}: no covered runs");
        assert!(
            (report.care_survived_with_sdc as f64) <= 0.25 * repaired as f64,
            "{level}: dual-use SDC residue too large: {} of {repaired}",
            report.care_survived_with_sdc
        );
    }
}

/// The §2 campaign invariants hold on the real workloads: SIGSEGV is the
/// dominant soft-failure symptom and most failures manifest fast.
#[test]
fn manifestation_shape_matches_paper() {
    let w = workloads::minife::default();
    let app = care::compile(&w.module, OptLevel::O0);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let r = campaign.run(&CampaignConfig {
        injections: n_injections(200),
        seed: 2,
        ..Default::default()
    });
    assert!(r.soft_failure > 0);
    assert!(
        r.signals[0] as f64 >= 0.6 * r.soft_failure as f64,
        "SIGSEGV must dominate: {:?}",
        r.signals
    );
    assert!(r.latency_fraction_within(400) >= 0.8, "latencies: {:?}", r.latency_buckets);
}

/// Outcome classification is exhaustive and consistent.
#[test]
fn campaign_accounting_is_consistent() {
    let w = workloads::comd::default();
    let app = care::compile(&w.module, OptLevel::O0);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let r = campaign.run(&CampaignConfig {
        injections: n_injections(100),
        seed: 3,
        keep_records: true,
        ..Default::default()
    });
    assert_eq!(r.total(), r.records.len(), "every record lands in exactly one outcome bucket");
    let segv_records =
        r.records.iter().filter(|rec| rec.outcome == Outcome::SoftFailure(Signal::Segv)).count();
    assert_eq!(segv_records, r.signals[0]);
}
