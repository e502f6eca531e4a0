//! Byte goldens for everything that leaves the process as JSON: careserve
//! frames (both directions), carestore log lines, telemetry JSONL.
//!
//! Every other codec test in the workspace is a round trip, so an encoder
//! and decoder that drift *together* would pass while every existing store
//! goes cold and every older client stops parsing. These literals are the
//! contract; refresh policy as in `golden.rs` — a failure is a bug, not a
//! baseline to refresh (unless a version constant was bumped on purpose).

use careserve::proto::{
    ClientFrame, JobSpec, RejectReason, ServerFrame, StatsSnapshot, WorkloadSel,
};
use carestore::{LogLine, LogWriter};
use faultsim::{
    CampaignConfig, CampaignReport, CareResult, EngineKind, FaultModel, InjectedInto,
    InjectionPoint, InjectionRecord, Outcome, Signal, StepSplit,
};
use opt::OptLevel;
use safeguard::DeclineKind;
use simx::ModuleId;
use telemetry::{Event, Histogram, TelemetryReport};
use tinyir::FuncId;

/// The two records of `record_frames_round_trip_exactly`: one with every
/// optional field and values past 2⁵³, one with none.
fn records() -> [InjectionRecord; 2] {
    [
        InjectionRecord {
            point: InjectionPoint { module: ModuleId(1), func: FuncId(2), inst: 3, nth: 4 },
            target: InjectedInto::Mem(u64::MAX - 1),
            outcome: Outcome::SoftFailure(Signal::Segv),
            latency: Some(17),
            sim_steps: (1 << 53) + 99,
            split: StepSplit { prefix: 10, suffix: 20, care: 30 },
            care: Some(CareResult {
                covered: false,
                recoveries: 2,
                recovery_ms: 0.1 + 0.2,
                decline: Some(DeclineKind::Hang),
            }),
        },
        InjectionRecord {
            point: InjectionPoint { module: ModuleId(0), func: FuncId(0), inst: 0, nth: 0 },
            target: InjectedInto::Skipped,
            outcome: Outcome::Benign,
            latency: None,
            sim_steps: 0,
            split: StepSplit::default(),
            care: None,
        },
    ]
}

fn report() -> CampaignReport {
    let mut r = CampaignReport {
        benign: 5,
        soft_failure: 3,
        sdc: 1,
        hang: 2,
        signals: [3, 0, 0, 0],
        latency_buckets: [1, 1, 1, 0],
        care_evaluated: 3,
        care_covered: 2,
        care_survived_with_sdc: 1,
        recovery_times_ms: vec![0.30000000000000004, 1.5, f64::MIN_POSITIVE],
        total_recoveries: 4,
        simulated_steps: (1 << 60) + 1,
        steps_prefix: 100,
        steps_suffix: 200,
        steps_care: 300,
        trellis_snapshots: 7,
        cursor_shards: 2,
        cancelled: true,
        ..CampaignReport::default()
    };
    r.declines.insert(DeclineKind::Hang, 1);
    r.declines.insert(DeclineKind::KernelFault, 2);
    r
}

fn stats() -> StatsSnapshot {
    StatsSnapshot {
        jobs_accepted: 10,
        jobs_rejected: 2,
        jobs_completed: 8,
        jobs_failed: 1,
        jobs_cancelled: 1,
        queue_depth: 3,
        inflight_budget: 4,
        budget_cap: 8,
        cache_hits: 6,
        cache_misses: 4,
        cache_evictions: 2,
        records_streamed: (1 << 53) + 1,
    }
}

fn telemetry_report() -> TelemetryReport {
    let mut hist = Histogram::new();
    for v in [0, 1, 3, 1000] {
        hist.record(v);
    }
    let shard = |pairs: &[(&str, u64)]| pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    TelemetryReport {
        counters: shard(&[("tlb.loads", 100), ("weird \"name\"", u64::MAX)]),
        per_shard_counters: vec![shard(&[("tlb.loads", 60)]), shard(&[("a", 1), ("b", 2)])],
        hists: [("recovery.kernel_ns".to_string(), hist)].into_iter().collect(),
        events: vec![Event::new("job")
            .field("workload", "HP\"CCG\n")
            .field("step", 42u64)
            .field("big", u64::MAX)
            .field("delta", -3i64)
            .field("frac", 0.1 + 0.2)
            .field("t_ns", 7u64)],
        wall_s: 1.25,
    }
}

/// A record as the store appends it to a campaign log.
fn record_line(index: usize, r: &InjectionRecord) -> String {
    LogLine::Record(index, r.clone()).encode()
}

/// The `run` and `complete` lines a [`LogWriter`] appends for `cfg`.
fn run_and_complete_lines(cfg: &CampaignConfig, key: &str) -> String {
    let path = std::env::temp_dir().join(format!("care-wire-golden-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let w = LogWriter::open_append(&path).expect("open scratch log");
    w.run_header(cfg, key);
    w.complete(cfg);
    assert!(!w.failed());
    let text = std::fs::read_to_string(&path).expect("read scratch log");
    std::fs::remove_file(&path).expect("remove scratch log");
    text
}

#[test]
fn every_frame_log_line_and_jsonl_line_is_byte_pinned() {
    let named = JobSpec {
        seed: u64::MAX - 7,
        injections: 123,
        model: FaultModel::DoubleBit,
        engine: EngineKind::Compiled,
        opt: OptLevel::O0,
        threads: 3,
        evaluate_care: false,
        app_only: false,
        records: false,
        telemetry: true,
        ..JobSpec::default()
    };
    let inline = JobSpec {
        workload: WorkloadSel::Inline {
            text: "module \"m\"\nweird text with \"quotes\"\n\ttab \\ backslash \u{1} é"
                .to_string(),
            args: vec![7, u64::MAX],
            outputs: vec![("out".to_string(), 64), ("big".to_string(), (1 << 53) + 1)],
        },
        ..JobSpec::default()
    };
    let [full, bare] = records();
    let cfg = CampaignConfig {
        seed: u64::MAX,
        injections: 40,
        model: FaultModel::DoubleBit,
        engine: EngineKind::Compiled,
        ..CampaignConfig::default()
    };

    let table: Vec<(&str, String)> = vec![
        ("job named", named.to_frame()),
        ("job inline", inline.to_frame()),
        ("stats request", ClientFrame::Stats.encode()),
        ("accepted", ServerFrame::Accepted(7).encode()),
        ("progress", ServerFrame::Progress(7, 12, u64::MAX).encode()),
        (
            "telemetry",
            ServerFrame::Telemetry(7, "{\"kind\":\"meta\",\"wall_s\":0.5}".into()).encode(),
        ),
        ("failed", ServerFrame::Failed(7, "worker panicked: \"boom\"\n".into()).encode()),
        ("done", ServerFrame::Done((1 << 53) + 1).encode()),
        ("record full", ServerFrame::Record(9, full.clone()).encode()),
        ("record bare", ServerFrame::Record(9, bare.clone()).encode()),
        ("report", ServerFrame::Report(1, report()).encode()),
        ("stats", ServerFrame::Stats(stats()).encode()),
        ("log record full", record_line(7, &full)),
        ("log record bare", record_line(0, &bare)),
        ("log run+complete", run_and_complete_lines(&cfg, "care1:00ff:O1:e1")),
        ("telemetry jsonl", telemetry_report().to_jsonl()),
    ];
    assert_eq!(table.len(), EXPECTED.len());
    for ((name, actual), (want_name, want)) in table.iter().zip(EXPECTED) {
        assert_eq!(name, want_name);
        assert_eq!(actual, want, "{name}: bytes changed");
    }

    // Every reject reason under its wire name, in `RejectReason::ALL` order.
    let names = [
        "bad_json",
        "bad_frame",
        "unsupported_proto",
        "bad_spec",
        "oversized",
        "queue_full",
        "client_busy",
        "shutting_down",
    ];
    for (reason, name) in RejectReason::ALL.into_iter().zip(names) {
        assert_eq!(
            ServerFrame::Reject(reason, "why \"quoted\"".into()).encode(),
            format!(r#"{{"kind":"reject","reason":"{name}","detail":"why \"quoted\""}}"#),
        );
    }
}

const EXPECTED: &[(&str, &str)] = &[
    (
        "job named",
        r#"{"kind":"job","proto":1,"workload":"hpccg","params":[3,2],"seed":"18446744073709551608","injections":123,"model":"double","engine":"compiled","opt":"O0","threads":3,"evaluate_care":false,"app_only":false,"records":false,"telemetry":true}"#,
    ),
    (
        "job inline",
        r#"{"kind":"job","proto":1,"workload":"inline","module":"module \"m\"\nweird text with \"quotes\"\n\ttab \\ backslash \u0001 é","args":[7,"18446744073709551615"],"outputs":[["out",64],["big","9007199254740993"]],"seed":51758,"injections":40,"model":"single","engine":"interp","opt":"O1","threads":0,"evaluate_care":true,"app_only":true,"records":true,"telemetry":false}"#,
    ),
    ("stats request", r#"{"kind":"stats","proto":1}"#),
    ("accepted", r#"{"kind":"accepted","job_id":7}"#),
    (
        "progress",
        r#"{"kind":"progress","job_id":7,"classified":12,"total":"18446744073709551615"}"#,
    ),
    ("telemetry", r#"{"kind":"telemetry","job_id":7,"line":"{\"kind\":\"meta\",\"wall_s\":0.5}"}"#),
    ("failed", r#"{"kind":"failed","job_id":7,"detail":"worker panicked: \"boom\"\n"}"#),
    ("done", r#"{"kind":"done","job_id":"9007199254740993"}"#),
    (
        "record full",
        r#"{"kind":"record","job_id":9,"module":1,"func":2,"inst":3,"nth":4,"target":"mem","target_val":"18446744073709551614","outcome":"segv","latency":17,"sim_steps":"9007199254741091","prefix":10,"suffix":20,"care_steps":30,"covered":false,"recoveries":2,"recovery_ms":0.30000000000000004,"decline":"Hang"}"#,
    ),
    (
        "record bare",
        r#"{"kind":"record","job_id":9,"module":0,"func":0,"inst":0,"nth":0,"target":"skipped","target_val":0,"outcome":"benign","sim_steps":0,"prefix":0,"suffix":0,"care_steps":0}"#,
    ),
    (
        "report",
        r#"{"kind":"report","job_id":1,"benign":5,"soft_failure":3,"sdc":1,"hang":2,"signals":[3,0,0,0],"latency_buckets":[1,1,1,0],"care_evaluated":3,"care_covered":2,"care_survived_with_sdc":1,"recovery_times_ms":[0.30000000000000004,1.5,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014],"total_recoveries":4,"declines":{"KernelFault":2,"Hang":1},"simulated_steps":"1152921504606846977","steps_prefix":100,"steps_suffix":200,"steps_care":300,"trellis_snapshots":7,"cursor_shards":2,"cancelled":true}"#,
    ),
    (
        "stats",
        r#"{"kind":"stats","jobs_accepted":10,"jobs_rejected":2,"jobs_completed":8,"jobs_failed":1,"jobs_cancelled":1,"queue_depth":3,"inflight_budget":4,"budget_cap":8,"cache_hits":6,"cache_misses":4,"cache_evictions":2,"records_streamed":"9007199254740993"}"#,
    ),
    (
        "log record full",
        r#"{"kind":"record","index":7,"module":1,"func":2,"inst":3,"nth":4,"target":"mem","target_val":"18446744073709551614","outcome":"segv","latency":17,"sim_steps":"9007199254741091","prefix":10,"suffix":20,"care_steps":30,"covered":false,"recoveries":2,"recovery_ms":0.30000000000000004,"decline":"Hang"}"#,
    ),
    (
        "log record bare",
        r#"{"kind":"record","index":0,"module":0,"func":0,"inst":0,"nth":0,"target":"skipped","target_val":0,"outcome":"benign","sim_steps":0,"prefix":0,"suffix":0,"care_steps":0}"#,
    ),
    (
        "log run+complete",
        concat!(
            r#"{"kind":"run","store":1,"campaign":"care1:00ff:O1:e1","model":"double","seed":"18446744073709551615","cfg":"ec=0,ao=0,hf=20,mr=64,pb=0,sg=0","engine":"compiled"}"#,
            "\n",
            r#"{"kind":"complete","store":1,"model":"double","seed":"18446744073709551615","cfg":"ec=0,ao=0,hf=20,mr=64,pb=0,sg=0","injections":40}"#,
            "\n",
        ),
    ),
    (
        "telemetry jsonl",
        concat!(
            r#"{"kind":"meta","schema_version":1,"wall_s":1.25,"counters":2,"hists":1,"events":1,"shards":2}"#,
            "\n",
            r#"{"kind":"counter","name":"tlb.loads","value":100}"#,
            "\n",
            r#"{"kind":"counter","name":"weird \"name\"","value":18446744073709551615}"#,
            "\n",
            r#"{"kind":"shard","shard":0,"counters":{"tlb.loads":60}}"#,
            "\n",
            r#"{"kind":"shard","shard":1,"counters":{"a":1,"b":2}}"#,
            "\n",
            r#"{"kind":"hist","name":"recovery.kernel_ns","count":4,"sum":1004,"min":0,"max":1000,"p50":2,"p99":768,"buckets":[[0,1],[1,1],[2,1],[10,1]]}"#,
            "\n",
            r#"{"kind":"job","workload":"HP\"CCG\n","step":42,"big":18446744073709551615,"delta":-3,"frac":0.30000000000000004,"t_ns":7}"#,
            "\n",
        ),
    ),
];
