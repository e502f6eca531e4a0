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
use telemetry::JsonRef;

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

/// An inline workload that verifies but whose golden run traps: `main(0)`
/// divides by its argument.
fn trapping_inline_spec() -> JobSpec {
    let mut mb = tinyir::builder::ModuleBuilder::new("trap", "trap.c");
    let out = mb.global_zeroed("out", tinyir::Ty::I64, 1);
    mb.define("main", vec![tinyir::Ty::I64], Some(tinyir::Ty::I64), |fb| {
        let q = fb.sdiv(tinyir::Value::i64(1), fb.arg(0), tinyir::Ty::I64);
        let outp = fb.global(out);
        fb.store(q, outp);
        fb.ret(Some(q));
    });
    JobSpec {
        workload: WorkloadSel::Inline {
            text: tinyir::display::print_module(&mb.finish()),
            args: vec![0],
            outputs: vec![("out".to_string(), 8)],
        },
        injections: 4,
        threads: 1,
        ..JobSpec::default()
    }
}

/// A backward chain of `n` blocks: `bb0` branches to `bb{n-1}` or `bb1`,
/// each other `bbK` to `bb{K-1}`, and `bb1` returns `%v{n}`, which
/// `bb{n-1}` defines. The entry's branch to `bb1` skips the definition, so
/// the use is not dominated by it.
fn chain_module(n: usize) -> String {
    let mut text = String::from("module \"chain\"\nfunc @main(i64 %a0) -> i64 {\nbb0:\n");
    text += &format!("  %v0 = icmp slt %a0, i64 1\n  condbr %v0, bb{}, bb1\nbb1:\n", n - 1);
    text += &format!("  ret %v{n}\n");
    for k in 2..n - 1 {
        text += &format!("bb{k}:\n  br bb{}\n", k - 1);
    }
    text += &format!("bb{}:\n  %v{n} = add i64 %a0, i64 1\n  br bb{}\n}}\n", n - 1, n - 2);
    text
}

/// The verifying twin of [`chain_module`]: `bb0` branches only to
/// `bb{n-1}`, so every block runs, and `bb1` reads `out[%a0]`, adds one,
/// writes it back and returns it.
fn verifying_chain_module(n: usize) -> String {
    let mut text = String::from(
        "module \"chain\"\nfile 0 \"chain.c\"\nglobal @g0 \"out\" i64 x 1 zero\n\
         func @main(i64 %a0) -> i64 {\nbb0:\n",
    );
    text += &format!("  br bb{}\nbb1:\n", n - 1);
    text += "  %v0 = gep @g0, %a0, 8 !0:2:1\n  %v1 = load i64, %v0 !0:2:1\n";
    text += "  %v2 = add i64 %v1, i64 1 !0:2:1\n  store %v2, %v0 !0:2:1\n  ret %v2\n";
    for k in 2..n {
        text += &format!("bb{k}:\n  br bb{}\n", k - 1);
    }
    text + "}\n"
}

/// The longest `module(n)` that fits the inline-module cap.
fn at_the_cap(module: impl Fn(usize) -> String) -> String {
    let cap = careserve::proto::MAX_MODULE_BYTES;
    let (mut fits, mut over) = (4, cap);
    while fits + 1 < over {
        let mid = (fits + over) / 2;
        *if module(mid).len() <= cap { &mut fits } else { &mut over } = mid;
    }
    let text = module(fits);
    assert!(text.len() > cap - 64, "{} bytes", text.len());
    text
}

/// One-line damages to `slow_inline_spec`'s module that still parse but do
/// not verify: an undefined value, a branch to a missing block, a missing
/// argument, a missing global, a use before its definition, a block with
/// no terminator, and a phi incoming from a missing block; and the longest
/// [`chain_module`] that fits the inline-module cap, which a verifier
/// quadratic in blocks would hold on the connection's thread for minutes.
fn unverifiable_inline_specs() -> Vec<JobSpec> {
    let intact = slow_inline_spec(10, 4);
    let WorkloadSel::Inline { text, .. } = &intact.workload else { unreachable!() };
    let damages = [
        ("%v7 = add i64 %v6, %v3", "%v7 = add i64 %v6, %v99"),
        ("br bb1 !0:14:1", "br bb7 !0:14:1"),
        ("icmp slt %v3, %a0", "icmp slt %v3, %a5"),
        ("gep @g0, %v9, 8", "gep @g9, %v9, 8"),
        ("%v7 = add i64 %v6, %v3", "%v7 = add i64 %v6, %v9"),
        ("  br bb1 !0:14:1\n", ""),
        // Every predecessor keeps its incoming; one more names no block.
        ("[bb2: %v12] !0:4:1", "[bb2: %v12], [bb99: i64 3] !0:4:1"),
    ];
    damages
        .iter()
        .map(|(from, to)| {
            assert_eq!(text.matches(from).count(), 1, "{from:?} in\n{text}");
            let text = text.replace(from, to);
            let WorkloadSel::Inline { args, outputs, .. } = &intact.workload else {
                unreachable!()
            };
            let workload =
                WorkloadSel::Inline { text, args: args.clone(), outputs: outputs.clone() };
            JobSpec { workload, ..intact.clone() }
        })
        .chain(std::iter::once({
            let WorkloadSel::Inline { args, outputs, .. } = &intact.workload else {
                unreachable!()
            };
            let text = at_the_cap(chain_module);
            let workload =
                WorkloadSel::Inline { text, args: args.clone(), outputs: outputs.clone() };
            JobSpec { workload, ..intact.clone() }
        }))
        .collect()
}

/// An inline module that parses but does not verify is a `bad_spec`
/// reject before admission, and the connection keeps serving.
#[test]
fn an_inline_module_that_does_not_verify_is_a_bad_spec_reject() {
    let specs = unverifiable_inline_specs();
    for spec in &specs {
        let err = careserve::proto::resolve_workload(&spec.workload).expect_err("resolved");
        assert!(err.starts_with("inline module: verify error"), "{err}");
    }
    let phi = careserve::proto::resolve_workload(&specs[6].workload).expect_err("resolved");
    assert!(phi.ends_with("%v3: phi incoming from out-of-range bb99"), "{phi}");
    let chain = careserve::proto::resolve_workload(&specs[7].workload).expect_err("resolved");
    assert!(chain.contains("%v2 in bb1 uses") && chain.contains("non-dominating"), "{chain}");
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut next_frame = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        ServerFrame::decode(line.trim_end()).expect("server frame decodes")
    };
    for spec in &specs {
        stream.write_all(format!("{}\n", job_frame(spec)).as_bytes()).unwrap();
        let frame = next_frame();
        assert!(matches!(frame, ServerFrame::Reject(RejectReason::BadSpec, _)), "{frame:?}");
    }
    stream.write_all(format!("{}\n", ClientFrame::Stats.encode()).as_bytes()).unwrap();
    let ServerFrame::Stats(stats) = next_frame() else { panic!("stats went unanswered") };
    assert_eq!((stats.jobs_accepted, stats.jobs_rejected), (0, 8));
    handle.shutdown();
}

/// A module at the inline cap that admission accepts compiles and is
/// served like a local run: the verifying block chain (≈ 12 900 blocks),
/// at O0.
#[test]
fn a_verifying_chain_at_the_inline_cap_compiles_and_serves() {
    let spec = JobSpec {
        workload: WorkloadSel::Inline {
            text: at_the_cap(verifying_chain_module),
            args: vec![0],
            outputs: vec![("out".to_string(), 8)],
        },
        injections: 8,
        threads: 1,
        opt: OptLevel::O0,
        ..JobSpec::default()
    };
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    assert_eq!(submit(handle.addr(), &spec).expect("submit").report, local_run(&spec));
    handle.shutdown();
}

/// A module that verifies though an unreachable block reads and writes a
/// stack slot O1 promotes: `bb4` loads `%v0`, stores to it and branches to
/// the join, which nothing else reaches it from.
const UNREACHABLE_SLOT_USER: &str = r#"module "dead"
file 0 "dead.c"
global @g0 "out" i64 x 1 zero
func @main(i64 %a0) -> i64 {
bb0:
  %v0 = alloca i64, 1
  %v1 = icmp slt %a0, i64 0
  condbr %v1, bb1, bb2
bb1:
  store i64 7, %v0
  br bb3
bb2:
  store %a0, %v0
  br bb3
bb3:
  %v2 = load i64, %v0
  store %v2, @g0
  ret %v2
bb4:
  %v3 = load i64, %v0
  %v4 = add i64 %v3, i64 1
  store %v4, %v0
  br bb3
}
"#;

/// An inline module the verifier admits compiles at both levels and is
/// served like a local run, unreachable code included.
#[test]
fn an_inline_module_with_an_unreachable_slot_user_compiles_and_serves() {
    let spec = |opt| JobSpec {
        workload: WorkloadSel::Inline {
            text: UNREACHABLE_SLOT_USER.to_string(),
            args: vec![5],
            outputs: vec![("out".to_string(), 8)],
        },
        injections: 8,
        threads: 1,
        opt,
        ..JobSpec::default()
    };
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    for opt in [OptLevel::O0, OptLevel::O1] {
        let spec = spec(opt);
        assert_eq!(submit(handle.addr(), &spec).expect("submit").report, local_run(&spec));
    }
    handle.shutdown();
}

/// A job that panics on its connection's thread — here in its golden run —
/// gets a `failed` frame and frees its budget, and the server runs a later
/// connection's job to the same report as a local run. (Which thread runs
/// it is the process's parked set's choice, tested in `compat/rayon`.)
#[test]
fn a_job_whose_golden_run_traps_fails_and_its_thread_serves_the_next_job() {
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    match submit(addr, &trapping_inline_spec()) {
        Err(careserve::ClientError::Failed(detail)) => {
            assert!(detail.starts_with("worker panicked: golden run of inline failed"), "{detail}")
        }
        Err(e) => panic!("expected a failed job, got {e:?}"),
        Ok(out) => panic!("expected a failed job, got {:?}", out.report),
    }
    let stats = handle.stats();
    assert_eq!((stats.jobs_failed, stats.inflight_budget), (1, 0));
    let spec = named("hpccg", &[3, 2], 20);
    assert_eq!(submit(addr, &spec).expect("submit").report, local_run(&spec));
    handle.shutdown();
}

/// All five §2 workloads, submitted from five concurrent client threads to
/// one shared server, must return reports (records included) bit-identical
/// to a direct local `Campaign::run` of the same spec.
#[test]
fn five_workloads_over_loopback_match_local_runs_under_concurrent_clients() {
    let mut handle =
        CampaignServer::start(ServerConfig { budget_cap: 4, ..ServerConfig::default() })
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
        assert_eq!(wire, &local, "wire report for {:?} diverged from the local run", spec.workload);
        assert_eq!(wire.records.len(), local.records.len());
    }
    // The served records are also the per-index `run_one` reference.
    let (spec, wire) = &outcomes[0];
    let (campaign, cfg) = (local_campaign(spec), spec.campaign_config());
    let reference: Vec<_> = (0..cfg.injections).filter_map(|i| campaign.run_one(&cfg, i)).collect();
    assert_eq!(wire.records, reference, "served records diverged from per-index run_one");
    let stats = handle.stats();
    assert_eq!(stats.jobs_completed, 5);
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.inflight_budget, 0, "budget leaked");
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

/// The `job` frame of `spec`, as a client sends it.
fn job_frame(spec: &JobSpec) -> String {
    ClientFrame::Job(spec.clone()).encode()
}

/// The next frame line from the server. Callers parse it with
/// `JsonRef::parse`, whose tree borrows from the line.
fn read_json_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read frame");
    line.trim().to_string()
}

fn frame_kind(line: &str) -> String {
    let v = JsonRef::parse(line).expect("server frame parses");
    v.get("kind").and_then(JsonRef::as_str).unwrap_or("").to_string()
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
        // The second frame nests far past the parser's cap, well under the
        // frame cap: a reject on the connection thread, not a stack overflow.
        for bad in [b"this is not a frame".to_vec(), vec![b'['; 100_000]] {
            stream.write_all(&bad).unwrap();
            stream.write_all(b"\n").unwrap();
            let line = read_json_line(&mut reader);
            assert_eq!(frame_kind(&line), "reject");
            let reject = JsonRef::parse(&line).expect("server frame parses");
            assert_eq!(reject.get("reason").and_then(JsonRef::as_str), Some("bad_json"));
            // Same connection, next frame: still answered.
            stream.write_all(careserve::proto::ClientFrame::Stats.encode().as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            assert_eq!(frame_kind(&read_json_line(&mut reader)), "stats");
        }
    }

    // 2. Mid-job disconnect: accept the job, then vanish.
    {
        let spec = slow_inline_spec(300_000, 400);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(job_frame(&spec).as_bytes()).unwrap();
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
        assert!(t0.elapsed() < Duration::from_secs(30), "abandoned job never cancelled: {stats:?}");
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

/// While a job runs, its connection is still served: a `stats` frame is
/// answered, a second `job` frame is refused as `client_busy`, progress is
/// streamed, and the job still ends `report` + `done`, equal to its local
/// run.
#[test]
fn a_live_job_answers_stats_refuses_a_second_job_and_streams_progress() {
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind");
    let spec = slow_inline_spec(100_000, 200);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(format!("{}\n", job_frame(&spec)).as_bytes()).unwrap();
    assert_eq!(frame_kind(&read_json_line(&mut reader)), "accepted");
    let stats = ClientFrame::Stats.encode();
    stream.write_all(format!("{stats}\n{}\n", job_frame(&spec)).as_bytes()).unwrap();

    let (mut progress, mut stats_seen, mut busy, mut records) = (0, 0, 0, Vec::new());
    let mut report = loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        match ServerFrame::decode(line.trim_end()).expect("server frame decodes") {
            ServerFrame::Progress(..) => progress += 1,
            ServerFrame::Stats(snap) => {
                assert_eq!(snap.inflight_budget, 1, "stats answered outside the job");
                stats_seen += 1;
            }
            ServerFrame::Reject(RejectReason::ClientBusy, _) => busy += 1,
            ServerFrame::Record(_, record) => records.push(record),
            ServerFrame::Report(_, report) => break report,
            other => panic!("unexpected frame mid-job: {other:?}"),
        }
    };
    assert_eq!(frame_kind(&read_json_line(&mut reader)), "done");
    assert_eq!((stats_seen, busy), (1, 1), "mid-job frames were not both answered");
    assert!(progress > 0, "no progress frame while the job ran");
    report.records = records;
    assert_eq!(report, local_run(&spec));
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
        job_frame(&spec).replace("\"engine\":", "\"scheduler\":\"per-injection\",\"engine\":");
    assert_ne!(legacy_frame, job_frame(&spec));
    JsonRef::parse(&legacy_frame).expect("legacy frame parses");
    let decoded = ClientFrame::decode(&legacy_frame).expect("legacy frame decodes");
    assert_eq!(decoded, ClientFrame::Job(spec.clone()));

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(legacy_frame.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    assert_eq!(frame_kind(&read_json_line(&mut reader)), "accepted");
    let report = loop {
        let line = read_json_line(&mut reader);
        match frame_kind(&line).as_str() {
            "report" => match ServerFrame::decode(&line).expect("report decodes") {
                ServerFrame::Report(_, report) => break report,
                other => panic!("a report frame decoded as {other:?}"),
            },
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
        let frame = job_frame(&spec);
        JsonRef::parse(&frame).expect("frame parses");
        let back = ClientFrame::decode(&frame).expect("frame decodes");
        prop_assert_eq!(back, ClientFrame::Job(spec));
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

// ---------------------------------------------------------------------------
// Property tests at the wire and log boundary: both frame directions and
// the store's log lines. State the boundary's property once and check it
// with generated inputs (PAPERS.md, *Software Fault Isolation for Robust
// Compilation*) — `decode(encode(x)) == x`, and `decode` of anything is a
// value or a typed error, never a panic.

use careserve::proto::{ClientFrame, RejectReason, ServerFrame, StatsSnapshot};
use carestore::{LogLine, RunKey};
use faultsim::{
    CareResult, InjectedInto, InjectionPoint, InjectionRecord, Outcome, Signal, StepSplit,
};
use proptest::collection::vec;
use safeguard::DeclineKind;

/// u64s around the 2⁵³ spelling switch as often as anywhere else.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..4, (1u64 << 53) - 2..(1 << 53) + 3, Just(u64::MAX)]
}

/// Finite floats: modelled milliseconds mostly, any bit pattern sometimes
/// (whose shortest decimal form can run to three hundred digits).
fn arb_f64() -> impl Strategy<Value = f64> {
    let any_finite = any::<u64>().prop_map(|bits| {
        Some(f64::from_bits(bits)).filter(|f| f.is_finite()).unwrap_or(f64::MIN_POSITIVE)
    });
    let ms = || any::<u32>().prop_map(|n| n as f64 / 1000.0);
    prop_oneof![ms(), ms(), Just(0.1 + 0.2), any_finite]
}

/// Strings that need every escape the writer has.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('a'),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{1}'),
        Just('é'),
        Just('{'),
        Just(','),
        Just('\u{1F980}')
    ];
    vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn arb_record() -> impl Strategy<Value = InjectionRecord> {
    let target = prop_oneof![
        any::<u8>().prop_map(InjectedInto::Reg),
        arb_u64().prop_map(InjectedInto::Mem),
        Just(InjectedInto::Pc),
        Just(InjectedInto::Skipped),
    ];
    let signal = prop_oneof![
        Just(Signal::Segv),
        Just(Signal::Bus),
        Just(Signal::Abort),
        Just(Signal::Other)
    ];
    let outcome = prop_oneof![
        Just(Outcome::Benign),
        Just(Outcome::Sdc),
        Just(Outcome::Hang),
        signal.prop_map(Outcome::SoftFailure),
    ];
    let care =
        (any::<bool>(), any::<bool>(), arb_u64(), arb_f64(), 0usize..=DeclineKind::ALL.len())
            .prop_map(|(some, covered, recoveries, recovery_ms, d)| {
                let decline = DeclineKind::ALL.get(d).copied();
                some.then_some(CareResult { covered, recoveries, recovery_ms, decline })
            });
    (
        (any::<u32>(), any::<u32>(), any::<usize>(), arb_u64()),
        (target, outcome, any::<bool>(), arb_u64()),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64(), care),
    )
        .prop_map(|((module, func, inst, nth), (target, outcome, lat, latency), rest)| {
            let (sim_steps, prefix, suffix, care_steps, care) = rest;
            InjectionRecord {
                point: InjectionPoint {
                    module: simx::ModuleId(module),
                    func: tinyir::FuncId(func),
                    inst,
                    nth,
                },
                target,
                outcome,
                latency: lat.then_some(latency),
                sim_steps,
                split: StepSplit { prefix, suffix, care: care_steps },
                care,
            }
        })
}

fn arb_report() -> impl Strategy<Value = CampaignReport> {
    (
        vec(any::<usize>(), 17..18),
        vec(arb_u64(), 5..6),
        vec(arb_f64(), 0..4),
        vec(any::<usize>(), 14..15),
        any::<bool>(),
    )
        .prop_map(|(n, s, recovery_times_ms, declines, cancelled)| CampaignReport {
            benign: n[0],
            soft_failure: n[1],
            sdc: n[2],
            hang: n[3],
            signals: [n[4], n[5], n[6], n[7]],
            latency_buckets: [n[8], n[9], n[10], n[11]],
            care_evaluated: n[12],
            care_covered: n[13],
            care_survived_with_sdc: n[14],
            recovery_times_ms,
            total_recoveries: s[0],
            // A zero count stands for "kind absent" so maps of every size occur.
            declines: DeclineKind::ALL
                .into_iter()
                .zip(declines)
                .filter(|&(_, n)| n % 3 != 0)
                .collect(),
            simulated_steps: s[1],
            steps_prefix: s[2],
            steps_suffix: s[3],
            steps_care: s[4],
            trellis_snapshots: n[15],
            cursor_shards: n[16],
            cancelled,
            records: Vec::new(),
        })
}

/// Specs as the codec sees them: any text for a module, any counts.
fn arb_wire_spec() -> impl Strategy<Value = JobSpec> {
    let workload = prop_oneof![
        (arb_text(), vec(-10_000i64..10_000, 0..5))
            .prop_map(|(name, params)| WorkloadSel::Named { name: format!("w{name}"), params }),
        (arb_text(), vec(arb_u64(), 0..4), vec((arb_text(), arb_u64()), 0..3))
            .prop_map(|(text, args, outputs)| WorkloadSel::Inline { text, args, outputs }),
    ];
    (
        arb_spec(),
        workload,
        1usize..=careserve::proto::MAX_INJECTIONS,
        any::<usize>(),
        vec(any::<bool>(), 3..4),
    )
        .prop_map(|(spec, workload, injections, threads, flags)| JobSpec {
            workload,
            injections,
            threads,
            evaluate_care: flags[0],
            app_only: flags[1],
            telemetry: flags[2],
            ..spec
        })
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![arb_wire_spec().prop_map(ClientFrame::Job), Just(ClientFrame::Stats)]
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    let stats = vec(arb_u64(), 12..13).prop_map(|n| {
        let mut next = n.into_iter();
        StatsSnapshot::default().map(|_, _| next.next().expect("twelve counters"))
    });
    let reason = (0usize..RejectReason::ALL.len()).prop_map(|i| RejectReason::ALL[i]);
    prop_oneof![
        arb_u64().prop_map(ServerFrame::Accepted),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(j, c, t)| ServerFrame::Progress(j, c, t)),
        (arb_u64(), arb_record()).prop_map(|(j, r)| ServerFrame::Record(j, r)),
        (arb_u64(), arb_text()).prop_map(|(j, l)| ServerFrame::Telemetry(j, l)),
        (arb_u64(), arb_report()).prop_map(|(j, r)| ServerFrame::Report(j, r)),
        arb_u64().prop_map(ServerFrame::Done),
        (arb_u64(), arb_text()).prop_map(|(j, d)| ServerFrame::Failed(j, d)),
        (reason, arb_text()).prop_map(|(r, d)| ServerFrame::Reject(r, d)),
        stats.prop_map(ServerFrame::Stats),
    ]
}

fn arb_log_line() -> impl Strategy<Value = LogLine> {
    let key = || {
        (any::<u32>(), arb_text(), arb_u64(), arb_text())
            .prop_map(|(store, model, seed, cfg)| RunKey { store, model, seed, cfg })
    };
    prop_oneof![
        (key(), arb_text(), arb_text()).prop_map(|(key, campaign, engine)| LogLine::Run {
            key,
            campaign,
            engine
        }),
        (any::<usize>(), arb_record()).prop_map(|(i, r)| LogLine::Record(i, r)),
        (key(), any::<usize>()).prop_map(|(key, n)| LogLine::Complete(key, n)),
    ]
}

/// `text` cut short at every offset, and with one bit flipped at every
/// offset (which bit varies with the offset and `salt`), as a receiver
/// would see the damage.
fn damaged(text: &str, salt: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let bytes = text.as_bytes();
    (0..bytes.len()).flat_map(move |i| {
        let mut flipped = bytes.to_vec();
        flipped[i] ^= 1 << ((i as u8).wrapping_add(salt) % 8);
        [bytes[..i].to_vec(), flipped]
    })
}

proptest! {
    /// Every frame of either direction, and every log line, survives its
    /// encoding exactly.
    #[test]
    fn frames_and_log_lines_round_trip(
        client in arb_client_frame(),
        server in arb_server_frame(),
        line in arb_log_line(),
    ) {
        prop_assert_eq!(ClientFrame::decode(&client.encode()), Ok(client));
        prop_assert_eq!(ServerFrame::decode(&server.encode()), Ok(server));
        prop_assert_eq!(LogLine::decode(line.encode().as_bytes()), Ok(line));
    }

    // Decoding never panics: arbitrary bytes, and a valid encoding
    // truncated or bit-flipped at every offset, come back as a value or a
    // typed error. One property per boundary, so they run side by side.

    #[test]
    fn decoding_a_damaged_client_frame_is_a_typed_reject(
        frame in arb_client_frame(),
        noise in vec(any::<u8>(), 0..64),
        salt in any::<u8>(),
    ) {
        for bytes in damaged(&frame.encode(), salt).chain([noise]) {
            // The server reads lines lossily, so it can always answer.
            if let Err((reason, _)) = ClientFrame::decode(&String::from_utf8_lossy(&bytes)) {
                prop_assert!(RejectReason::ALL.contains(&reason));
            }
        }
    }

    #[test]
    fn decoding_a_damaged_server_frame_never_panics(
        frame in arb_server_frame(),
        noise in vec(any::<u8>(), 0..64),
        salt in any::<u8>(),
    ) {
        for bytes in damaged(&frame.encode(), salt).chain([noise]) {
            let _ = ServerFrame::decode(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn decoding_a_damaged_log_line_never_panics(
        line in arb_log_line(),
        noise in vec(any::<u8>(), 0..64),
        salt in any::<u8>(),
    ) {
        for bytes in damaged(&line.encode(), salt).chain([noise]) {
            let _ = LogLine::decode(&bytes);
        }
    }
}
