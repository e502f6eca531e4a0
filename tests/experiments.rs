//! Science pins: the paper-facing aggregates `repro` prints (Tables 2–5,
//! Figures 7 and 9, the decline histogram, the §6 preparation fraction) at
//! one fixed `(seed, N)` on the default-size workloads, through the same
//! `bench` helpers `repro` calls.
//!
//! Same refresh policy as `tests/golden.rs`: a failure means observable
//! campaign behaviour changed — that is a bug, not a baseline to refresh.
//! Refresh only for an *intentional* semantic change (new fault model,
//! different sampling, a resized workload), by pasting the tables
//! `cargo run --release --example golden_capture` prints, and say so in the
//! commit. Counts are compared exactly; the derived `f64` columns to 1e-9.

use bench::{
    coverage_cfg, decline_rows, manifestation_cfg, prepare, run_campaign, section2_workloads,
    section5_workloads,
};
use faultsim::{EngineKind, FaultModel};
use opt::OptLevel;

const SEED: u64 = 0xCA2E;
/// Small enough for the debug-profile tier-1 run.
const N: usize = 100;

/// Tables 2–4 row: one §2 whole-program campaign at O0.
struct Manifestation {
    workload: &'static str,
    /// Table 2: (benign, soft failure, SDC, hang).
    buckets: (usize, usize, usize, usize),
    /// Table 3: SIGSEGV, SIGBUS, SIGABRT, other.
    signals: [usize; 4],
    /// Table 4: soft failures by latency, <=10, 11–50, 51–400, >400 instructions.
    latency: [usize; 4],
}

/// Table 5 column: static address-computation statistics of the O1 build.
struct AddressOps {
    workload: &'static str,
    multi_op_fraction: f64,
    avg_addr_ops: f64,
}

/// Figure 7/9 and decline-table rows: one §5 coverage campaign.
struct Coverage {
    workload: &'static str,
    level: OptLevel,
    evaluated: usize,
    covered: usize,
    survived_with_sdc: usize,
    recoveries: u64,
    mean_recovery_ms: f64,
    declines: &'static [(&'static str, usize)],
}

const MANIFESTATION: &[Manifestation] = &[
    Manifestation { workload: "HPCCG", buckets: (26, 35, 38, 1), signals: [35, 0, 0, 0], latency: [30, 2, 1, 2] },
    Manifestation { workload: "CoMD", buckets: (62, 23, 15, 0), signals: [22, 1, 0, 0], latency: [13, 6, 4, 0] },
    Manifestation { workload: "miniFE", buckets: (34, 31, 35, 0), signals: [30, 1, 0, 0], latency: [28, 0, 0, 3] },
    Manifestation { workload: "miniMD", buckets: (65, 20, 15, 0), signals: [19, 1, 0, 0], latency: [14, 4, 0, 2] },
    Manifestation { workload: "GTC-P", buckets: (28, 34, 38, 0), signals: [27, 2, 5, 0], latency: [28, 5, 1, 0] },
];
const ADDRESS_OPS: &[AddressOps] = &[
    AddressOps { workload: "HPCCG", multi_op_fraction: 0.9574468085106383, avg_addr_ops: 2.5531914893617023 },
    AddressOps { workload: "CoMD", multi_op_fraction: 0.8181818181818182, avg_addr_ops: 2.6136363636363638 },
    AddressOps { workload: "miniFE", multi_op_fraction: 0.971830985915493, avg_addr_ops: 2.563380281690141 },
    AddressOps { workload: "miniMD", multi_op_fraction: 0.8064516129032258, avg_addr_ops: 2.774193548387097 },
    AddressOps { workload: "GTC-P", multi_op_fraction: 0.9565217391304348, avg_addr_ops: 2.6956521739130435 },
];
const COVERAGE: &[Coverage] = &[
    Coverage { workload: "GTC-P", level: OptLevel::O0, evaluated: 27, covered: 24, survived_with_sdc: 0, recoveries: 24, mean_recovery_ms: 11.865718750000001, declines: &[("SameAddress", 3)] },
    Coverage { workload: "GTC-P", level: OptLevel::O1, evaluated: 21, covered: 15, survived_with_sdc: 1, recoveries: 16, mean_recovery_ms: 14.784820000000003, declines: &[("SameAddress", 5)] },
    Coverage { workload: "HPCCG", level: OptLevel::O0, evaluated: 35, covered: 32, survived_with_sdc: 0, recoveries: 34, mean_recovery_ms: 13.798723242187496, declines: &[("SameAddress", 3)] },
    Coverage { workload: "HPCCG", level: OptLevel::O1, evaluated: 23, covered: 17, survived_with_sdc: 1, recoveries: 19, mean_recovery_ms: 15.051974448529414, declines: &[("SameAddress", 5)] },
    Coverage { workload: "miniMD", level: OptLevel::O0, evaluated: 19, covered: 16, survived_with_sdc: 0, recoveries: 20, mean_recovery_ms: 15.86426328125, declines: &[("SameAddress", 3)] },
    Coverage { workload: "miniMD", level: OptLevel::O1, evaluated: 28, covered: 25, survived_with_sdc: 0, recoveries: 27, mean_recovery_ms: 13.9215105, declines: &[("SameAddress", 3)] },
    Coverage { workload: "CoMD", level: OptLevel::O0, evaluated: 22, covered: 17, survived_with_sdc: 0, recoveries: 19, mean_recovery_ms: 14.74236176470588, declines: &[("SameAddress", 5)] },
    Coverage { workload: "CoMD", level: OptLevel::O1, evaluated: 17, covered: 17, survived_with_sdc: 0, recoveries: 20, mean_recovery_ms: 16.30428823529412, declines: &[] },
];

fn assert_close(got: f64, want: f64, what: &str) {
    assert!((got - want).abs() < 1e-9, "{what}: got {got:?}, pinned {want:?}");
}

#[test]
fn tables_2_3_4_manifestation_outcomes_are_pinned() {
    let workloads = section2_workloads();
    assert_eq!(workloads.len(), MANIFESTATION.len(), "a §2 workload has no pin");
    for (w, pin) in workloads.iter().zip(MANIFESTATION) {
        assert_eq!(w.name, pin.workload, "§2 workload order changed");
        let p = prepare(w, OptLevel::O0);
        let cfg = manifestation_cfg(N, FaultModel::SingleBit, SEED, EngineKind::Interp);
        let (r, _) = run_campaign(&p, &cfg, None, None);
        let name = w.name;
        assert_eq!((r.benign, r.soft_failure, r.sdc, r.hang), pin.buckets, "{name}: Table 2");
        assert_eq!(r.signals, pin.signals, "{name}: Table 3");
        assert_eq!(r.latency_buckets, pin.latency, "{name}: Table 4");
    }
}

#[test]
fn table_5_address_computation_statistics_are_pinned() {
    let workloads = section2_workloads();
    assert_eq!(workloads.len(), ADDRESS_OPS.len(), "a §2 workload has no pin");
    for (w, pin) in workloads.iter().zip(ADDRESS_OPS) {
        assert_eq!(w.name, pin.workload, "§2 workload order changed");
        let s = care::compile(&w.module, OptLevel::O1).armor.stats;
        assert_close(s.multi_op_fraction(), pin.multi_op_fraction, w.name);
        assert_close(s.avg_addr_ops(), pin.avg_addr_ops, w.name);
    }
}

#[test]
fn fig_7_9_coverage_declines_and_preparation_fraction_are_pinned() {
    let workloads = section5_workloads();
    assert_eq!(2 * workloads.len(), COVERAGE.len(), "a §5 campaign has no pin");
    let mut pins = COVERAGE.iter();
    for w in &workloads {
        for level in [OptLevel::O0, OptLevel::O1] {
            let pin = pins.next().expect("length checked above");
            assert_eq!((w.name, level), (pin.workload, pin.level), "§5 campaign order changed");
            let what = format!("{} {level}", w.name);
            let p = prepare(w, level);
            let cfg = coverage_cfg(N, FaultModel::SingleBit, SEED, EngineKind::Interp);
            let rec = telemetry::Recorder::new();
            let (r, _) = run_campaign(&p, &cfg, Some(&rec), None);
            assert_eq!(r.care_evaluated, pin.evaluated, "{what}: Figure 7 evaluated");
            assert_eq!(r.care_covered, pin.covered, "{what}: Figure 7 covered");
            assert_eq!(r.care_survived_with_sdc, pin.survived_with_sdc, "{what}: survived with SDC");
            assert_eq!(r.total_recoveries, pin.recoveries, "{what}: Figure 9 activations");
            assert_close(r.mean_recovery_ms(), pin.mean_recovery_ms, &what);
            assert_eq!(decline_rows(&r), pin.declines, "{what}: decline histogram");
            // §6: every single recovery is > 98 % preparation (the recorder
            // also sees the recoveries of runs that later declined).
            let tel = rec.drain();
            let prep = tel.hists.get("recovery.prep_bp").expect("recoveries were measured");
            let recovered = tel.counters.get("recovery.recovered").copied();
            assert_eq!(Some(prep.count()), recovered, "{what}: one prep sample per recovery");
            assert!(prep.count() >= pin.recoveries, "{what}: recoveries went unmeasured");
            assert!(prep.min() > 9800, "{what}: a recovery was only {} bp preparation", prep.min());
        }
    }
}
