//! End-to-end tests of the `careserve` campaign server (ISSUE 9 golden
//! criteria): loopback jobs must be bit-identical to direct
//! [`Campaign::run`] for the five §2 workloads under concurrent clients,
//! and one server session must survive a malformed frame and a mid-job
//! client disconnect without leaking in-flight budget.

use careserve::{fetch_stats, submit, CampaignServer, JobSpec, ServerConfig, WorkloadSel};
use faultsim::{Campaign, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn local_campaign(spec: &JobSpec) -> Campaign {
    let workload = careserve::proto::resolve_workload(&spec.workload).expect("spec resolves");
    let app = care::compile(&workload.module, spec.opt);
    Campaign::prepare(&workload, app, vec![])
}

/// Run the spec locally, exactly as the server's worker does.
fn local_run(spec: &JobSpec) -> CampaignReport {
    local_campaign(spec).run(&spec.campaign_config())
}

fn named(name: &str, params: &[i64], injections: usize) -> JobSpec {
    JobSpec {
        workload: WorkloadSel::Named { name: name.to_string(), params: params.to_vec() },
        injections,
        // Reserve one pool thread per job so several jobs are admitted at
        // once — the point of the concurrency test.
        threads: 1,
        ..JobSpec::default()
    }
}

/// An inline workload whose golden run spins long enough that a client can
/// reliably act (disconnect, send a second frame) while the job is live.
fn slow_inline_spec(iterations: i64, injections: usize) -> JobSpec {
    let mut mb = tinyir::builder::ModuleBuilder::new("slow", "slow.c");
    let out = mb.global_zeroed("out", tinyir::Ty::I64, 16);
    mb.define("main", vec![tinyir::Ty::I64], Some(tinyir::Ty::I64), |fb| {
        let acc = fb.alloca(tinyir::Ty::I64, 1);
        fb.store(tinyir::Value::i64(0), acc);
        let n = fb.arg(0);
        let outp = fb.global(out);
        fb.for_loop(tinyir::Value::i64(0), n, |fb, i| {
            let a = fb.load(acc, tinyir::Ty::I64);
            let s = fb.add(a, i, tinyir::Ty::I64);
            fb.store(s, acc);
            let slot = fb.srem(i, tinyir::Value::i64(16), tinyir::Ty::I64);
            fb.store_elem(s, outp, slot, tinyir::Ty::I64);
        });
        let r = fb.load(acc, tinyir::Ty::I64);
        fb.ret(Some(r));
    });
    JobSpec {
        workload: WorkloadSel::Inline {
            text: tinyir::display::print_module(&mb.finish()),
            args: vec![iterations as u64],
            outputs: vec![("out".to_string(), 128)],
        },
        injections,
        threads: 1,
        ..JobSpec::default()
    }
}

/// All five §2 workloads, submitted from five concurrent client threads to
/// one shared server, must return reports (records included) bit-identical
/// to a direct local `Campaign::run` of the same spec.
#[test]
fn five_workloads_over_loopback_match_local_runs_under_concurrent_clients() {
    let mut handle = CampaignServer::start(ServerConfig {
        budget_cap: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr();

    let specs = vec![
        named("hpccg", &[3, 2], 40),
        named("comd", &[], 40),
        named("minife", &[], 40),
        named("minimd", &[], 40),
        named("gtcp", &[], 40),
    ];
    let outcomes: Vec<(JobSpec, CampaignReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                scope.spawn(move || {
                    let out = submit(addr, &spec).expect("submit");
                    (spec, out.report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for (spec, wire) in &outcomes {
        let local = local_run(spec);
        assert_eq!(
            wire, &local,
            "wire report for {:?} diverged from the local run",
            spec.workload
        );
        assert_eq!(wire.records.len(), local.records.len());
    }
    // The served records are also the per-index `run_one` reference.
    let (spec, wire) = &outcomes[0];
    let (campaign, cfg) = (local_campaign(spec), spec.campaign_config());
    let reference: Vec<_> =
        (0..cfg.injections).filter_map(|i| campaign.run_one(&cfg, i)).collect();
    assert_eq!(wire.records, reference, "served records diverged from per-index run_one");
    let stats = handle.stats();
    assert_eq!(stats.jobs_completed, 5);
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.inflight_budget, 0, "budget leaked");
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

fn read_json_line(reader: &mut BufReader<TcpStream>) -> telemetry::Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read frame");
    telemetry::parse_json(line.trim()).expect("server frame parses")
}

fn frame_kind(v: &telemetry::Json) -> String {
    v.get("kind").and_then(telemetry::Json::as_str).unwrap_or("").to_string()
}

/// One server session takes a malformed frame, then a mid-job client
/// disconnect, and keeps serving: the poisoned connection still answers, the
/// abandoned job is cancelled, no budget leaks, and a fresh job afterwards
/// is still bit-identical to its local run.
#[test]
fn malformed_frame_and_mid_job_disconnect_leave_the_server_serving() {
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    // 1. Malformed frame: typed reject, connection keeps serving.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"this is not a frame\n").unwrap();
        let reject = read_json_line(&mut reader);
        assert_eq!(frame_kind(&reject), "reject");
        assert_eq!(
            reject.get("reason").and_then(telemetry::Json::as_str),
            Some("bad_json")
        );
        // Same connection, next frame: still answered.
        stream.write_all(careserve::proto::stats_request_frame().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        assert_eq!(frame_kind(&read_json_line(&mut reader)), "stats");
    }

    // 2. Mid-job disconnect: accept the job, then vanish.
    {
        let spec = slow_inline_spec(300_000, 400);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(spec.to_frame().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        assert_eq!(frame_kind(&read_json_line(&mut reader)), "accepted");
        // Drop both halves: the server sees EOF and cancels the job.
    }
    let t0 = Instant::now();
    loop {
        let stats = handle.stats();
        if stats.jobs_cancelled == 1 && stats.inflight_budget == 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "abandoned job never cancelled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // 3. The same server still runs fresh jobs, still bit-identical.
    let spec = named("hpccg", &[3, 2], 30);
    let out = submit(addr, &spec).expect("post-failure submit");
    assert_eq!(out.report, local_run(&spec));
    let stats = handle.stats();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.inflight_budget, 0, "budget leaked");
    assert_eq!(fetch_stats(addr).expect("stats").jobs_completed, 1);
    handle.shutdown();
}

/// Older clients still send `"scheduler":"per-injection"` in their `job`
/// frames. The key is ignored: the frame is accepted and the job yields the
/// same report as one without it.
#[test]
fn job_frame_with_a_legacy_scheduler_key_is_accepted_and_changes_nothing() {
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    let spec = named("hpccg", &[3, 2], 30);
    let legacy_frame =
        spec.to_frame().replace("\"engine\":", "\"scheduler\":\"per-injection\",\"engine\":");
    assert_ne!(legacy_frame, spec.to_frame());
    let v = careserve::proto::parse_frame(&legacy_frame).expect("legacy frame parses");
    assert_eq!(JobSpec::from_json(&v).expect("legacy frame decodes"), spec);

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(legacy_frame.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    assert_eq!(frame_kind(&read_json_line(&mut reader)), "accepted");
    let report = loop {
        let v = read_json_line(&mut reader);
        match frame_kind(&v).as_str() {
            "report" => break careserve::proto::decode_report(&v).expect("report decodes"),
            "progress" | "record" => {}
            other => panic!("unexpected {other:?} frame"),
        }
    };
    let modern = submit(handle.addr(), &spec).expect("submit without the key").report;
    assert_eq!(report, CampaignReport { records: Vec::new(), ..modern });
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Property tests over job specs.

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    let engine = prop_oneof![Just(EngineKind::Interp), Just(EngineKind::Compiled)];
    let model = prop_oneof![Just(FaultModel::SingleBit), Just(FaultModel::DoubleBit)];
    let opt = prop_oneof![Just(OptLevel::O0), Just(OptLevel::O1)];
    let workload = prop_oneof![
        Just(WorkloadSel::Named { name: "hpccg".to_string(), params: vec![2, 1] }),
        Just(WorkloadSel::Named { name: "hpccg".to_string(), params: vec![3, 2] }),
        Just(WorkloadSel::Named { name: "minife".to_string(), params: vec![2, 2] }),
    ];
    ((workload, any::<u64>(), 1usize..=8, engine), (model, opt, any::<bool>())).prop_map(
        |((workload, seed, injections, engine), (model, opt, records))| JobSpec {
            workload,
            seed,
            injections,
            engine,
            model,
            opt,
            threads: 1,
            records,
            ..JobSpec::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every spec survives the wire encoding exactly.
    #[test]
    fn job_spec_frame_round_trips(spec in arb_spec()) {
        let v = telemetry::parse_json(&spec.to_frame()).expect("frame parses");
        let back = JobSpec::from_json(&v).expect("frame decodes");
        prop_assert_eq!(back, spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A served job is the local run, for arbitrary specs.
    #[test]
    fn served_jobs_match_local_runs(spec in arb_spec()) {
        // One shared server across all cases: jobs must not contaminate
        // each other through the shared caches.
        use std::sync::OnceLock;
        static SERVER: OnceLock<std::net::SocketAddr> = OnceLock::new();
        let addr = *SERVER.get_or_init(|| {
            let handle =
                CampaignServer::start(ServerConfig::default()).expect("bind loopback server");
            let addr = handle.addr();
            // Leak the handle: the server lives for the whole test binary.
            std::mem::forget(handle);
            addr
        });
        let out = submit(addr, &spec).expect("submit");
        prop_assert_eq!(out.report, local_run(&spec));
    }
}
