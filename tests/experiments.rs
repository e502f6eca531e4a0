//! Science pins: what `repro` prints. Every row of `bench::REGISTRY` is run
//! from a [`Session`] at a fixed `(seed, N)` on the default-size workloads
//! and its rendered cells compared with a literal ([`PINS`]); the aggregates
//! behind Tables 2–5, Figures 7 and 9, the decline histogram and the §6
//! preparation fraction are also pinned as numbers, from the same `Session`
//! accessors the rows read.
//!
//! Same refresh policy as `tests/golden.rs`: a failure means observable
//! campaign behaviour changed — that is a bug, not a baseline to refresh.
//! Refresh only for an *intentional* semantic change (new fault model,
//! different sampling, a resized workload), by pasting the literal the
//! failing pin prints, and say so in the commit. Counts are compared
//! exactly; the derived `f64` columns to 1e-9.

use bench::{decline_rows, Session, REGISTRY};
use faultsim::{EngineKind, FaultModel};
use opt::OptLevel;

const SEED: u64 = 0xCA2E;
/// Small enough for the debug-profile tier-1 run.
const N: usize = 100;

/// For the rows outside the paper's main evaluation — the double-bit
/// appendix, the BLAS library, the ablations. Between them they run the
/// nine shared campaigns once more under the double-bit model, sblat1's,
/// and, at the ablation seed, the eight §5 campaigns and twelve ablated ones.
const SMALL_N: usize = 20;
/// The first seed at which, at `SMALL_N`, an ablated column of each of
/// `ablate-liveness` and `ablate-patch` differs from its baseline and the
/// guard has something to decline at O0.
const ABLATION_SEED: u64 = 23;

fn session(injections: usize) -> Session {
    Session::new(injections, SEED, EngineKind::Interp)
}

/// Tables 2–4 row: the unprotected fields of one O0 campaign.
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
    Manifestation {
        workload: "HPCCG",
        buckets: (26, 35, 38, 1),
        signals: [35, 0, 0, 0],
        latency: [30, 2, 1, 2],
    },
    Manifestation {
        workload: "CoMD",
        buckets: (62, 23, 15, 0),
        signals: [22, 1, 0, 0],
        latency: [13, 6, 4, 0],
    },
    Manifestation {
        workload: "miniFE",
        buckets: (34, 31, 35, 0),
        signals: [30, 1, 0, 0],
        latency: [28, 0, 0, 3],
    },
    Manifestation {
        workload: "miniMD",
        buckets: (65, 20, 15, 0),
        signals: [19, 1, 0, 0],
        latency: [14, 4, 0, 2],
    },
    Manifestation {
        workload: "GTC-P",
        buckets: (28, 34, 38, 0),
        signals: [27, 2, 5, 0],
        latency: [28, 5, 1, 0],
    },
];
const ADDRESS_OPS: &[AddressOps] = &[
    AddressOps {
        workload: "HPCCG",
        multi_op_fraction: 0.9574468085106383,
        avg_addr_ops: 2.5531914893617023,
    },
    AddressOps {
        workload: "CoMD",
        multi_op_fraction: 0.8181818181818182,
        avg_addr_ops: 2.6136363636363638,
    },
    AddressOps {
        workload: "miniFE",
        multi_op_fraction: 0.971830985915493,
        avg_addr_ops: 2.563380281690141,
    },
    AddressOps {
        workload: "miniMD",
        multi_op_fraction: 0.8064516129032258,
        avg_addr_ops: 2.774193548387097,
    },
    AddressOps {
        workload: "GTC-P",
        multi_op_fraction: 0.9565217391304348,
        avg_addr_ops: 2.6956521739130435,
    },
];
const COVERAGE: &[Coverage] = &[
    Coverage {
        workload: "GTC-P",
        level: OptLevel::O0,
        evaluated: 27,
        covered: 24,
        survived_with_sdc: 0,
        recoveries: 24,
        mean_recovery_ms: 11.865718750000001,
        declines: &[("SameAddress", 3)],
    },
    Coverage {
        workload: "GTC-P",
        level: OptLevel::O1,
        evaluated: 21,
        covered: 15,
        survived_with_sdc: 1,
        recoveries: 16,
        mean_recovery_ms: 14.784820000000003,
        declines: &[("SameAddress", 5)],
    },
    Coverage {
        workload: "HPCCG",
        level: OptLevel::O0,
        evaluated: 35,
        covered: 32,
        survived_with_sdc: 0,
        recoveries: 34,
        mean_recovery_ms: 13.798723242187496,
        declines: &[("SameAddress", 3)],
    },
    Coverage {
        workload: "HPCCG",
        level: OptLevel::O1,
        evaluated: 23,
        covered: 17,
        survived_with_sdc: 1,
        recoveries: 19,
        mean_recovery_ms: 15.051974448529414,
        declines: &[("SameAddress", 5)],
    },
    Coverage {
        workload: "miniMD",
        level: OptLevel::O0,
        evaluated: 19,
        covered: 16,
        survived_with_sdc: 0,
        recoveries: 20,
        mean_recovery_ms: 15.86426328125,
        declines: &[("SameAddress", 3)],
    },
    Coverage {
        workload: "miniMD",
        level: OptLevel::O1,
        evaluated: 28,
        covered: 25,
        survived_with_sdc: 0,
        recoveries: 27,
        mean_recovery_ms: 13.9215105,
        declines: &[("SameAddress", 3)],
    },
    Coverage {
        workload: "CoMD",
        level: OptLevel::O0,
        evaluated: 22,
        covered: 17,
        survived_with_sdc: 0,
        recoveries: 19,
        mean_recovery_ms: 14.74236176470588,
        declines: &[("SameAddress", 5)],
    },
    Coverage {
        workload: "CoMD",
        level: OptLevel::O1,
        evaluated: 17,
        covered: 17,
        survived_with_sdc: 0,
        recoveries: 20,
        mean_recovery_ms: 16.30428823529412,
        declines: &[],
    },
];

/// Which test renders which registry rows: each runs the campaigns it reads once.
const MANIFESTATION_ROWS: &[&str] = &["table2", "table3", "table4"];
const STATIC_ROWS: &[&str] = &["table5", "table8"];
const COVERAGE_ROWS: &[&str] = &["fig7", "fig9", "declines"];
const APPENDIX_ROWS: &[&str] = &["fig10", "table9", "table10", "table11", "fig12"];
const ABLATION_ROWS: &[&str] = &["ablate-liveness", "ablate-patch", "ablate-guard", "ablate-lazy"];

/// The cells every registry row prints, one line per table row: the row's
/// name, then its cells, `|` between them. `~` stands for a wall-clock cell
/// (compile seconds, liveness share).
const PINS: &str = "\
table2|HPCCG|26|35|38|1
table2|CoMD|62|23|15|0
table2|miniFE|34|31|35|0
table2|miniMD|65|20|15|0
table2|GTC-P|28|34|38|0
table3|HPCCG|35|0|0|0
table3|CoMD|22|1|0|0
table3|miniFE|30|1|0|0
table3|miniMD|19|1|0|0
table3|GTC-P|27|2|5|0
table4|HPCCG|85.71%|5.71%|2.86%|5.71%
table4|CoMD|56.52%|26.09%|17.39%|0.00%
table4|miniFE|90.32%|0.00%|0.00%|9.68%
table4|miniMD|70.00%|20.00%|0.00%|10.00%
table4|GTC-P|82.35%|14.71%|2.94%|0.00%
table5|No. Insts|95.74%|81.82%|97.18%|80.65%|95.65%
table5|Avg. No. ops|2.55|2.61|2.56|2.77|2.70
table8|GTC-P|22|1.09|~|~|~
table8|HPCCG|17|2.53|~|~|~
table8|miniMD|23|1.70|~|~|~
table8|CoMD|29|1.59|~|~|~
fig7|GTC-P|O0|27|24|88.89%
fig7|GTC-P|O1|21|15|71.43%
fig7|HPCCG|O0|35|32|91.43%
fig7|HPCCG|O1|23|17|73.91%
fig7|miniMD|O0|19|16|84.21%
fig7|miniMD|O1|28|25|89.29%
fig7|CoMD|O0|22|17|77.27%
fig7|CoMD|O1|17|17|100.00%
fig7|average||||84.55%
fig9|GTC-P|O0|11.9|1.00
fig9|GTC-P|O1|14.8|1.07
fig9|HPCCG|O0|13.8|1.06
fig9|HPCCG|O1|15.1|1.12
fig9|miniMD|O0|15.9|1.25
fig9|miniMD|O1|13.9|1.08
fig9|CoMD|O0|14.7|1.12
fig9|CoMD|O1|16.3|1.18
declines|GTC-P|O0|SameAddress|3
declines|GTC-P|O1|SameAddress|5
declines|HPCCG|O0|SameAddress|3
declines|HPCCG|O1|SameAddress|5
declines|miniMD|O0|SameAddress|3
declines|miniMD|O1|SameAddress|3
declines|CoMD|O0|SameAddress|5
declines|total|||27
fig10|fault-free|81.03|0.00|0.00
fig10|CARE (1 recoveries, 11.9 ms)|81.03|0.00|0.00
fig10|C/R every 20 steps (avg)|98.94|17.90|14.70
fig10|C/R every 50 steps (avg)|110.04|29.01|28.21
fig10|C/R every 75 steps (avg)|112.74|31.71|30.91
table9|BLAS|29|~|~|100.00%|12.9
table9|sblat1|5|~|~||
table10|HPCCG|5|7|8|0
table10|CoMD|12|3|5|0
table10|miniFE|4|6|10|0
table10|miniMD|15|4|1|0
table10|GTC-P|9|6|5|0
table11|HPCCG|7|0|0|0
table11|CoMD|3|0|0|0
table11|miniFE|6|0|0|0
table11|miniMD|4|0|0|0
table11|GTC-P|5|0|1|0
fig12|GTC-P|O0|5|4|80.00%
fig12|GTC-P|O1|5|4|80.00%
fig12|HPCCG|O0|7|6|85.71%
fig12|HPCCG|O1|8|6|75.00%
fig12|miniMD|O0|4|3|75.00%
fig12|miniMD|O1|8|8|100.00%
fig12|CoMD|O0|3|2|66.67%
fig12|CoMD|O1|4|4|100.00%
fig12|average||||82.80%
ablate-liveness|GTC-P|80.00%|60.00%
ablate-liveness|HPCCG|60.00%|60.00%
ablate-liveness|miniMD|100.00%|100.00%
ablate-liveness|CoMD|100.00%|100.00%
ablate-patch|GTC-P|80.00%|100.00%
ablate-patch|HPCCG|60.00%|80.00%
ablate-patch|miniMD|100.00%|100.00%
ablate-patch|CoMD|100.00%|100.00%
ablate-guard|GTC-P|3/5|3/5|0
ablate-guard|HPCCG|3/3|3/3|0
ablate-guard|miniMD|6/7|6/7|0
ablate-guard|CoMD|6/6|6/6|0
ablate-lazy|GTC-P|28313814|28314550|11.9|5.8
ablate-lazy|HPCCG|28313503|28314463|13.0|7.0
ablate-lazy|miniMD|28313957|28314949|16.9|10.8
ablate-lazy|CoMD|28314640|28315840|15.5|9.3
";

/// Render `rows` from `s` and compare them with their pinned lines; stale
/// pins fail with their replacement lines.
fn assert_rows_pinned(s: &Session, rows: &[&str]) {
    let (mut got, mut pinned) = (String::new(), String::new());
    for &name in rows {
        let row = REGISTRY.iter().find(|e| e.name == name).expect("a registry row");
        let pins: Vec<&str> = PINS.lines().filter(|l| l.split('|').next() == Some(name)).collect();
        for (i, cells) in (row.run)(s).rows.iter().enumerate() {
            let pin: Vec<&str> = pins.get(i).map_or(vec![], |l| l.split('|').skip(1).collect());
            got += name;
            for (j, cell) in cells.iter().enumerate() {
                got += "|";
                got += if pin.get(j) == Some(&"~") { "~" } else { cell };
            }
            got += "\n";
        }
        pinned.extend(pins.iter().flat_map(|l| [l, "\n"]));
    }
    assert!(
        got == pinned,
        "`repro` no longer prints its pinned cells; these rows now print\n{got}"
    );
}

#[test]
fn every_registry_row_is_pinned_and_rendered_by_one_test() {
    let registered: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    let mut pinned: Vec<&str> = PINS.lines().filter_map(|l| l.split('|').next()).collect();
    pinned.dedup();
    assert_eq!(pinned, registered);
    assert_eq!(
        [MANIFESTATION_ROWS, STATIC_ROWS, COVERAGE_ROWS, APPENDIX_ROWS, ABLATION_ROWS].concat(),
        registered
    );
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!((got - want).abs() < 1e-9, "{what}: got {got:?}, pinned {want:?}");
}

#[test]
fn tables_2_3_4_manifestation_outcomes_are_pinned() {
    let s = session(N);
    let runs: Vec<_> = s.manifestation(FaultModel::SingleBit).collect();
    assert_eq!(runs.len(), MANIFESTATION.len(), "a §2 workload has no pin");
    for ((p, r), pin) in runs.iter().zip(MANIFESTATION) {
        assert_eq!(p.name, pin.workload, "§2 workload order changed");
        let name = p.name;
        assert_eq!((r.benign, r.soft_failure, r.sdc, r.hang), pin.buckets, "{name}: Table 2");
        assert_eq!(r.signals, pin.signals, "{name}: Table 3");
        assert_eq!(r.latency_buckets, pin.latency, "{name}: Table 4");
    }
    assert_rows_pinned(&s, MANIFESTATION_ROWS);
}

#[test]
fn table_5_address_computation_statistics_are_pinned() {
    let workloads = workloads::all();
    assert_eq!(workloads.len(), ADDRESS_OPS.len(), "a §2 workload has no pin");
    for (w, pin) in workloads.iter().zip(ADDRESS_OPS) {
        assert_eq!(w.name, pin.workload, "§2 workload order changed");
        let s = care::compile(&w.module, OptLevel::O1).armor.stats;
        assert_close(s.multi_op_fraction(), pin.multi_op_fraction, w.name);
        assert_close(s.avg_addr_ops(), pin.avg_addr_ops, w.name);
    }
    assert_rows_pinned(&session(N), STATIC_ROWS);
}

#[test]
fn fig_7_9_coverage_declines_and_preparation_fraction_are_pinned() {
    let mut s = session(N);
    for (i, pin) in COVERAGE.iter().enumerate() {
        // A session runs a campaign when its report is first pulled, so each
        // of the eight is measured by a recorder of its own.
        let rec = telemetry::Recorder::new();
        s.recorder = Some(rec.clone());
        let (p, r) = s.coverage(FaultModel::SingleBit).nth(i).expect("a pin has no §5 campaign");
        assert_eq!((p.name, p.level), (pin.workload, pin.level), "§5 campaign order changed");
        let what = format!("{} {}", p.name, p.level);
        assert_eq!(r.care_evaluated, pin.evaluated, "{what}: Figure 7 evaluated");
        assert_eq!(r.care_covered, pin.covered, "{what}: Figure 7 covered");
        assert_eq!(r.care_survived_with_sdc, pin.survived_with_sdc, "{what}: survived with SDC");
        assert_eq!(r.total_recoveries, pin.recoveries, "{what}: Figure 9 activations");
        assert_close(r.mean_recovery_ms(), pin.mean_recovery_ms, &what);
        assert_eq!(decline_rows(r), pin.declines, "{what}: decline histogram");
        // §6: every single recovery is > 98 % preparation (the recorder
        // also sees the recoveries of runs that later declined).
        let tel = rec.drain();
        let prep = tel.hists.get("recovery.prep_bp").expect("recoveries were measured");
        let recovered = tel.counters.get("recovery.recovered").copied();
        assert_eq!(Some(prep.count()), recovered, "{what}: one prep sample per recovery");
        assert!(prep.count() >= pin.recoveries, "{what}: recoveries went unmeasured");
        assert!(prep.min() > 9800, "{what}: a recovery was only {} bp preparation", prep.min());
    }
    assert_eq!(
        s.coverage(FaultModel::SingleBit).count(),
        COVERAGE.len(),
        "a §5 campaign has no pin"
    );
    assert_rows_pinned(&s, COVERAGE_ROWS);
}

#[test]
fn appendix_library_and_cluster_rows_are_pinned() {
    assert_rows_pinned(&session(SMALL_N), APPENDIX_ROWS);
}

#[test]
fn ablation_rows_are_pinned_and_reach_safeguard() {
    let mut s = Session::new(SMALL_N, ABLATION_SEED, EngineKind::Interp);
    s.recorder = Some(telemetry::Recorder::new());
    // The guard row's columns agree by design (an unguarded repair to the
    // faulting address traps there again until the recovery cap declines
    // the run), so that its flag reached Safeguard is read off the handler:
    // after this row alone, only its guarded half has declined SameAddress.
    assert_rows_pinned(&s, &ABLATION_ROWS[2..3]);
    let tel = s.recorder.as_ref().expect("attached above").drain();
    let declined = tel.counters.get("recovery.decline.SameAddress").copied();
    assert_rows_pinned(&s, &ABLATION_ROWS[..2]);
    assert_rows_pinned(&s, &ABLATION_ROWS[3..]);
    let o0 = s.coverage(FaultModel::SingleBit).filter(|(p, _)| p.level == OptLevel::O0);
    let guarded: usize =
        o0.flat_map(|(_, r)| decline_rows(r)).filter(|d| d.0 == "SameAddress").map(|d| d.1).sum();
    assert!(guarded > 0, "the guard declined nothing at this seed");
    assert_eq!(declined, Some(guarded as u64), "the unguarded campaigns still ran the guard");
}
