//! Criterion benches for the CARE pipeline, one group per paper artefact:
//!
//! * `armor_pass`        — Table 8's "Armor overhead" column: recovery-kernel
//!   extraction time per workload.
//! * `normal_compile`    — Table 8's "normal compilation" column.
//! * `recovery_path`     — Figure 9: one Safeguard activation end-to-end
//!   (diagnose → table → kernel → patch) on a real trapped process.
//! * `campaign`          — Tables 2–4: injection-classification throughput.
//! * `campaign_throughput` — end-to-end CARE coverage-campaign throughput
//!   (snapshot-forking engine): full `Campaign::run` with `evaluate_care`.
//! * `cluster_step`      — Figure 10: BSP virtual-time simulation of a
//!   512-rank job.
//! * `table_codec`       — recovery-table encode/decode (the protobuf
//!   analogue Safeguard pays on every fault).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use faultsim::{Campaign, CampaignConfig};
use opt::OptLevel;
use safeguard::Safeguard;
use simx::{ModuleId, RunExit};

fn bench_armor_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("armor_pass");
    for w in workloads::all() {
        let mut ir = w.module.clone();
        opt::optimize(&mut ir, OptLevel::O1);
        g.bench_function(w.name, |b| {
            b.iter(|| armor::run_armor(std::hint::black_box(&ir)))
        });
    }
    g.finish();
}

fn bench_normal_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("normal_compile");
    for w in workloads::all() {
        g.bench_function(w.name, |b| {
            b.iter(|| care::compile_baseline(std::hint::black_box(&w.module), OptLevel::O1))
        });
    }
    g.finish();
}

/// Build a process frozen at a recoverable SIGSEGV, plus its Safeguard —
/// the same deterministic victim the safeguard hardening tests use: a loop
/// whose array index register is corrupted in the window between its
/// definition and its use.
fn trapped_process() -> (simx::Process, Safeguard, simx::Trap) {
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};
    let mut mb = ModuleBuilder::new("victim", "victim.c");
    let t = mb.global_init(
        "t",
        Ty::I64,
        64,
        tinyir::GlobalInit::I64s((0..64).collect()),
    );
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let i2 = fb.mul(iv, Value::i64(2), Ty::I64);
            let v = fb.load_elem(fb.global(t), i2, Ty::I64);
            let a = fb.load(acc, Ty::I64);
            let s = fb.add(a, v, Ty::I64);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    let app = care::compile(&m, OptLevel::O1);
    let fid = app.machine.func_by_name("main").unwrap();
    let mf = &app.machine.funcs[fid.0 as usize];
    let (mem_idx, mem_op) = mf
        .instrs
        .iter()
        .enumerate()
        .find_map(|(i, inst)| {
            inst.mem_operand()
                .filter(|mo| mo.index.is_some() && mo.base != Some(simx::FP))
                .map(|mo| (i, *mo))
        })
        .expect("indexed memory operand");
    let idx_reg = mem_op.index.unwrap();
    let def_idx = mf.instrs[..mem_idx]
        .iter()
        .rposition(|inst| inst.dest_reg() == Some(idx_reg))
        .expect("index definition");
    let mut p = simx::Process::new(app.machine.clone(), vec![]);
    p.start("main", &[20]);
    p.break_at = Some((ModuleId(0), fid, def_idx, 5));
    assert_eq!(p.run(), RunExit::BreakHit);
    let v = p.read_reg(idx_reg);
    p.write_reg(idx_reg, v ^ (1 << 44));
    match p.run() {
        RunExit::Trapped(t) if matches!(t.kind, simx::TrapKind::Segv(_)) => {
            let mut sg = Safeguard::new();
            sg.protect(ModuleId(0), &app.armor);
            (p, sg, t)
        }
        other => panic!("expected a SIGSEGV trap, got {other:?}"),
    }
}

static VICTIM_ARMOR: std::sync::OnceLock<armor::ArmorOutput> = std::sync::OnceLock::new();

fn bench_recovery_path(c: &mut Criterion) {
    let (proto, sg0, trap) = trapped_process();
    drop(sg0);
    // Re-derive the protecting artefacts once for the per-iteration setup.
    let armor_out = VICTIM_ARMOR.get_or_init(|| {
        // The process's ir module is embedded in its image; re-run Armor.
        armor::run_armor(&proto.image.modules[0].module.ir)
    });
    c.bench_function("recovery_path/handle_trap", |b| {
        b.iter_batched(
            || {
                let mut sg = Safeguard::new();
                sg.protect(ModuleId(0), armor_out);
                (proto.clone(), sg)
            },
            |(mut p, mut sg)| sg.handle_trap(&mut p, trap),
            BatchSize::SmallInput,
        )
    });
}

fn bench_campaign(c: &mut Criterion) {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O0);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = CampaignConfig { injections: 1, seed: 1, ..CampaignConfig::default() };
    c.bench_function("campaign/one_injection", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            campaign.run_one(&cfg, i)
        })
    });
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_throughput");
    for w in [workloads::hpccg::default(), workloads::gtcp::default()] {
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let cfg = CampaignConfig {
            injections: 50,
            evaluate_care: true,
            app_only: true,
            seed: 7,
            ..CampaignConfig::default()
        };
        g.bench_function(format!("trellis/{}", w.name), |b| b.iter(|| campaign.run(&cfg)));
        // The compiled direct-threaded backend on the same injection set:
        // the delta vs `trellis/*` above is pure execution-engine speedup
        // (records are bit-identical; see tests/golden.rs).
        let compiled = CampaignConfig { engine: faultsim::EngineKind::Compiled, ..cfg };
        g.bench_function(format!("compiled/{}", w.name), |b| {
            b.iter(|| campaign.run(&compiled))
        });
        // The observability claim: a live telemetry recorder must cost ≤2%
        // on end-to-end campaign throughput (compare against trellis above;
        // the NoTelemetry path above is the 0%-regression baseline).
        let rec = telemetry::Recorder::new();
        g.bench_function(format!("trellis_telemetry/{}", w.name), |b| {
            b.iter(|| campaign.run_with_hooks(&cfg, &rec))
        });
    }
    // Raw interpreter throughput: one full hook-free (fast-loop) run from a
    // snapshot-forked started process — the inner cost every campaign
    // number above decomposes into. Cloning the template is the
    // same CoW fork the engine does, so setup per iteration is O(pages).
    for w in [workloads::hpccg::default(), workloads::gtcp::default()] {
        let app = care::compile(&w.module, OptLevel::O1);
        let mut template = simx::Process::new(app.machine.clone(), vec![]);
        template.start(w.entry, &w.args);
        g.bench_function(format!("raw_interp/{}", w.name), |b| {
            b.iter_batched(
                || template.clone(),
                |mut p| match p.run() {
                    RunExit::Done(_) => p.steps,
                    other => panic!("fault-free run failed: {other:?}"),
                },
                BatchSize::SmallInput,
            )
        });
        // Same run on the compiled engine — the microbenchmark behind the
        // compiled/raw_interp campaign-level ratio.
        let engine = simx::CompiledEngine::for_image(&template.image);
        g.bench_function(format!("raw_compiled/{}", w.name), |b| {
            b.iter_batched(
                || template.clone(),
                |mut p| match simx::ExecutionEngine::run(&engine, &mut p) {
                    RunExit::Done(_) => p.steps,
                    other => panic!("fault-free run failed: {other:?}"),
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let cfg = cluster::ClusterConfig::default();
    c.bench_function("cluster/512rank_100step_job", |b| {
        b.iter(|| cluster::simulate_fault_free(std::hint::black_box(&cfg)))
    });
}

fn bench_table_codec(c: &mut Criterion) {
    let w = workloads::gtcp::default();
    let app = care::compile(&w.module, OptLevel::O1);
    let encoded = app.armor.table.encode();
    c.bench_function("table/encode", |b| b.iter(|| app.armor.table.encode()));
    c.bench_function("table/decode", |b| {
        b.iter(|| armor::RecoveryTable::decode(std::hint::black_box(&encoded)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_armor_pass, bench_normal_compile, bench_recovery_path,
              bench_campaign, bench_campaign_throughput, bench_cluster,
              bench_table_codec
}
criterion_main!(benches);
