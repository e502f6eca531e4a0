//! One timed public call per layer, over fixed inputs built once.
//!
//! A probe prepares its inputs untimed, times one batch of a public call
//! and returns the batch's duration with the number of work units in it.
//! The harness interleaves all probes round-robin and reports each one's
//! floor per unit. Inputs are the five default programs and artefacts
//! derived from them, so every workload's traced run reports the same
//! probes over the same work; the exact counts next to them come from the
//! same artefacts.

use super::{job, record_line, EngineKind};
use crate::spans::Tracer;
use faultsim::{Campaign, CampaignConfig, CampaignReport, InjectionRecord};
use rayon::prelude::*;
use simx::{ExecutionEngine, Process, RunExit, Trap, TrapKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tinyir::Module;

/// How a probe's floor becomes its metric's value.
#[derive(Clone, Copy, Debug)]
pub enum Scale {
    /// Microseconds per unit.
    Us,
    /// Nanoseconds per unit.
    Ns,
    /// Milliseconds per unit.
    Ms,
    /// Units are bytes; megabytes per second.
    MbPerS,
}

impl Scale {
    /// `secs_per_unit` is the floor of batch time ÷ batch units.
    pub fn apply(self, secs_per_unit: f64) -> f64 {
        match self {
            Scale::Us => secs_per_unit * 1e6,
            Scale::Ns => secs_per_unit * 1e9,
            Scale::Ms => secs_per_unit * 1e3,
            Scale::MbPerS => 1.0 / secs_per_unit / 1e6,
        }
    }
}

pub struct Probe {
    /// Metric name; a leading `_` marks an operand of a derived metric.
    pub metric: &'static str,
    pub scale: Scale,
    pub run: fn(&mut Fixture) -> (Duration, f64),
}

/// Seed and size of the probes' own campaigns (independent of `--seed`, so
/// the counts below compare across runs and commits).
const PROBE_SEED: u64 = 0xCA2E;
const PROBE_INJECTIONS: usize = 48;
/// Injections of the store probe's cold run (GTC-P: cheap, log-dominated).
const STORE_INJECTIONS: usize = 300;
/// Injections of the latency-shaped job timed served and local.
const TAX_INJECTIONS: usize = 16;

pub struct Fixture {
    dir: PathBuf,
    programs: Vec<workloads::Workload>,
    texts: Vec<String>,
    opt_irs: Vec<Module>,
    armor: Vec<armor::ArmorOutput>,
    apps: Vec<care::CompiledApp>,
    campaigns: Vec<Campaign>,
    /// One paused mid-run process per program (fork and clone source).
    paused: Vec<Process>,
    /// A process frozen on a SIGSEGV that Safeguard repairs, and its trap.
    trapped: (Process, Trap, Arc<safeguard::RecoveryIndex>),
    records: Vec<InjectionRecord>,
    record_lines: Vec<String>,
    report: CampaignReport,
    scan_log: PathBuf,
    store_cfg: CampaignConfig,
    store_key: carestore::CampaignKey,
    /// First half of a complete GTC-P log: what a killed run leaves behind.
    torn_log: String,
    cold_report: CampaignReport,
    server: careserve::ServerHandle,
    tax_spec: careserve::JobSpec,
    tax_reference: CampaignReport,
    last_suffix: Duration,
    resume_seq: u64,
    /// Store hits and misses seen by the resume probe.
    pub store_hits: u64,
    pub store_misses: u64,
    /// Pool batches and steals seen by the dispatch probe.
    pub pool_batches: u64,
    pub pool_steals: u64,
    pub failures: Vec<String>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Freeze a process of `app` on a segfault Safeguard can repair: break
/// after an executed instruction that defines the index register of a
/// later memory operand, flip a high bit of that register, run into the
/// trap, and keep the first candidate a trial recovery succeeds on.
fn find_recoverable_trap(
    program: &workloads::Workload,
    app: &care::CompiledApp,
    campaign: &Campaign,
) -> Option<(Process, Trap, Arc<safeguard::RecoveryIndex>)> {
    let mut index = safeguard::RecoveryIndex::new();
    index.add(simx::ModuleId(0), &app.armor);
    let index = Arc::new(index);
    let executed = &campaign.profile[0];
    for (f, func) in app.machine.funcs.iter().enumerate() {
        for (i, inst) in func.instrs.iter().enumerate() {
            let Some(reg) = inst
                .mem_operand()
                .filter(|m| m.base != Some(simx::FP))
                .and_then(|m| m.index)
            else {
                continue;
            };
            let Some(def) = func.instrs[..i].iter().rposition(|d| d.dest_reg() == Some(reg))
            else {
                continue;
            };
            if executed[f][def] == 0 {
                continue;
            }
            let mut p = care::build_process(app, []);
            p.start(program.entry, &program.args);
            p.break_at = Some((simx::ModuleId(0), tinyir::FuncId(f as u32), def, 1));
            if p.run() != RunExit::BreakHit {
                continue;
            }
            p.break_at = None;
            let old = p.read_reg(reg);
            p.write_reg(reg, old ^ (1 << 40));
            p.fuel = 10_000;
            let RunExit::Trapped(trap) = p.run() else { continue };
            if !matches!(trap.kind, TrapKind::Segv(_)) {
                continue;
            }
            let mut trial = p.clone();
            let mut sg = safeguard::Safeguard::with_index(index.clone());
            if matches!(
                sg.handle_trap(&mut trial, trap),
                safeguard::RecoveryOutcome::Recovered { .. }
            ) {
                return Some((p, trap, index));
            }
        }
    }
    None
}

impl Fixture {
    /// Build every probe input. `dir` is a scratch directory the fixture
    /// owns and removes on drop.
    pub fn new(dir: &Path) -> Result<Fixture, String> {
        let io = |e: std::io::Error| format!("probe fixture: {e}");
        std::fs::create_dir_all(dir).map_err(io)?;
        let programs = workloads::all();
        let texts: Vec<String> =
            programs.iter().map(|p| tinyir::display::print_module(&p.module)).collect();
        let opt_irs: Vec<Module> = programs
            .iter()
            .map(|p| {
                let mut ir = p.module.clone();
                opt::optimize(&mut ir, opt::OptLevel::O1);
                ir
            })
            .collect();
        let armor: Vec<armor::ArmorOutput> = opt_irs
            .iter()
            .map(|ir| armor::run_armor_with(ir, armor::ArmorConfig::default()))
            .collect();
        let apps: Vec<care::CompiledApp> =
            programs.iter().map(|p| care::compile(&p.module, opt::OptLevel::O1)).collect();
        let campaigns: Vec<Campaign> = programs
            .iter()
            .zip(&apps)
            .map(|(p, app)| Campaign::prepare(p, app.clone(), vec![]))
            .collect();
        let paused = programs
            .iter()
            .zip(&apps)
            .zip(&campaigns)
            .map(|((p, app), c)| {
                let mut proc = care::build_process(app, []);
                proc.start(p.entry, &p.args);
                simx::advance_to_step(&simx::InterpEngine, &mut proc, c.golden_steps / 2)
                    .then_some(proc)
                    .ok_or_else(|| format!("{}: golden run ended before its midpoint", p.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let trapped = programs
            .iter()
            .zip(&apps)
            .zip(&campaigns)
            .find_map(|((p, app), c)| find_recoverable_trap(p, app, c))
            .ok_or("no program yields a repairable index-register fault")?;

        let mut records = Vec::new();
        for c in &campaigns {
            let cfg = job(PROBE_INJECTIONS, PROBE_SEED, EngineKind::Compiled, Some(1), true);
            records.extend(c.run(&cfg).records);
        }
        let record_lines: Vec<String> =
            records.iter().enumerate().map(|(i, r)| record_line(i, r)).collect();
        let report = campaigns[super::HPCCG]
            .run(&job(PROBE_INJECTIONS, PROBE_SEED, EngineKind::Compiled, Some(1), false));

        // A complete log to scan: header, every record line, trailer.
        let store_cfg = job(STORE_INJECTIONS, PROBE_SEED, EngineKind::Compiled, Some(1), false);
        let scan_log = dir.join("scan.jsonl");
        {
            let w = carestore::LogWriter::open_append(&scan_log).map_err(io)?;
            w.run_header(&store_cfg, "probe");
            for line in &record_lines {
                w.append_line(line);
            }
            w.complete(&store_cfg);
        }

        // A cold GTC-P store run; its log's first half is the torn log
        // every resume batch starts from.
        let g = super::GTCP;
        let gp = &programs[g];
        let store_key = super::store_key(&Tracer::off(), gp);
        let src = carestore::Store::open(dir.join("cold")).map_err(io)?;
        let cold = src
            .run_campaign(
                &store_key,
                &campaigns[g],
                &store_cfg,
                &telemetry::NoTelemetry,
                &faultsim::JobControl::new(),
            )
            .map_err(io)?;
        let full = std::fs::read_to_string(src.log_path(&store_key)).map_err(io)?;
        let lines: Vec<&str> = full.lines().collect();
        let mut torn_log = lines[..lines.len() / 2].join("\n");
        torn_log.push('\n');

        let server = super::server_start(&Tracer::off()).map_err(io)?;
        let tax_spec = super::job_spec(
            super::HPCCG,
            vec![],
            PROBE_SEED,
            TAX_INJECTIONS,
            EngineKind::Compiled,
            false,
            false,
        );
        let tax_reference = campaigns[super::HPCCG].run(&super::spec_config(&tax_spec));
        // First submit fills the server's prepared-campaign cache.
        let warm = careserve::submit(server.addr(), &tax_spec).map_err(|e| e.to_string())?;
        let mut failures = Vec::new();
        if warm.report != tax_reference {
            failures.push("probe: served report differs from the local run".to_string());
        }

        Ok(Fixture {
            dir: dir.to_path_buf(),
            programs,
            texts,
            opt_irs,
            armor,
            apps,
            campaigns,
            paused,
            trapped,
            records,
            record_lines,
            report,
            scan_log,
            store_cfg,
            store_key,
            torn_log,
            cold_report: cold.report,
            server,
            tax_spec,
            tax_reference,
            last_suffix: Duration::ZERO,
            resume_seq: 0,
            store_hits: 0,
            store_misses: 0,
            pool_batches: 0,
            pool_steals: 0,
            failures,
        })
    }

    // --- exact counts -----------------------------------------------------

    pub fn ir_insts(&self) -> usize {
        self.programs.iter().map(|p| live_insts(&p.module)).sum()
    }

    pub fn ir_insts_after_opt(&self) -> usize {
        self.opt_irs.iter().map(live_insts).sum()
    }

    pub fn armor_kernels(&self) -> usize {
        self.armor.iter().map(|a| a.stats.num_kernels).sum()
    }

    pub fn armor_table_bytes(&self) -> u64 {
        self.armor.iter().map(|a| a.table.encoded_size()).sum()
    }

    /// Fused pairs ÷ translated ops, over the five programs.
    pub fn fused_share(&self) -> f64 {
        let cache = simx::TranslationCache::default();
        let mut stats = simx::TranslateStats::default();
        for app in &self.apps {
            stats.merge(&cache.get_or_translate(&app.machine).stats);
        }
        stats.fused_total() as f64 / stats.ops.max(1) as f64
    }

    /// TLB hit rate and misses per thousand suffix + CARE steps, from a
    /// recorder attached to the probe campaigns on the interpreter.
    pub fn tlb(&self) -> (f64, f64) {
        let rec = telemetry::Recorder::new();
        let mut steps = 0;
        for c in &self.campaigns {
            let cfg = job(PROBE_INJECTIONS, PROBE_SEED, EngineKind::Interp, Some(1), false);
            let r = c.run_with_hooks(&cfg, &rec);
            steps += r.steps_suffix + r.steps_care;
        }
        let seen = rec.drain();
        let count = |name| super::counter(&seen, name) as f64;
        let accesses = count("tlb.loads") + count("tlb.stores");
        let misses = count("tlb.read_misses") + count("tlb.write_misses");
        (1.0 - misses / accesses.max(1.0), misses / (steps.max(1) as f64 / 1000.0))
    }

    pub fn bytes_per_record(&self) -> f64 {
        let bytes: usize = self.record_lines.iter().map(|l| l.len() + 1).sum();
        bytes as f64 / self.record_lines.len().max(1) as f64
    }

    pub fn server_stats(&self) -> careserve::StatsSnapshot {
        self.server.stats()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn live_insts(m: &Module) -> usize {
    m.funcs.iter().map(|f| f.live_instr_count()).sum()
}

fn fresh_process(fx: &Fixture, i: usize) -> Process {
    let mut p = care::build_process(&fx.apps[i], []);
    p.start(fx.programs[i].entry, &fx.programs[i].args);
    p
}

/// Time the five golden runs on `engine`, optionally on the hooked loop.
fn golden_runs(fx: &mut Fixture, engine: Option<&dyn ExecutionEngine>, hooked: bool) -> (Duration, f64) {
    let mut procs: Vec<Process> = (0..fx.programs.len()).map(|i| fresh_process(fx, i)).collect();
    if hooked {
        procs.iter_mut().for_each(Process::enable_profile);
    }
    let (dt, ()) = timed(|| {
        for p in &mut procs {
            let exit = match engine {
                Some(e) => e.run(p),
                None => p.run(),
            };
            std::hint::black_box(exit);
        }
    });
    let steps: u64 = procs.iter().map(|p| p.steps).sum();
    let golden: u64 = fx.campaigns.iter().map(|c| c.golden_steps).sum();
    if steps != golden {
        fx.failures.push(format!("probe: golden runs took {steps} steps, expected {golden}"));
    }
    (dt, steps as f64)
}

fn p(metric: &'static str, scale: Scale, run: fn(&mut Fixture) -> (Duration, f64)) -> Probe {
    Probe { metric, scale, run }
}

pub fn probes() -> Vec<Probe> {
    use Scale::*;
    vec![
        p("workloads.build_us", Us, |_| {
            let (dt, all) = timed(workloads::all);
            std::hint::black_box(all);
            (dt, 1.0)
        }),
        p("tinyir.print_us", Us, |fx| {
            let (dt, ()) = timed(|| {
                for prog in &fx.programs {
                    std::hint::black_box(tinyir::display::print_module(&prog.module));
                }
            });
            (dt, 1.0)
        }),
        p("tinyir.parse_us", Us, |fx| {
            let (dt, ok) = timed(|| {
                fx.texts.iter().all(|t| tinyir::parser::parse_module(t).is_ok())
            });
            if !ok {
                fx.failures.push("probe: a printed module failed to parse".to_string());
            }
            (dt, 1.0)
        }),
        p("tinyir.verify_us", Us, |fx| {
            let (dt, ok) = timed(|| {
                fx.programs.iter().all(|p| tinyir::verify::verify_module(&p.module).is_ok())
            });
            if !ok {
                fx.failures.push("probe: a program failed verification".to_string());
            }
            (dt, 1.0)
        }),
        p("tinyir.mem_clone_us", Us, |fx| {
            const REPS: usize = 16;
            let (dt, ()) = timed(|| {
                for _ in 0..REPS {
                    for proc in &fx.paused {
                        std::hint::black_box(proc.mem.clone());
                    }
                }
            });
            (dt, (REPS * fx.paused.len()) as f64)
        }),
        p("analysis.liveness_us", Us, |fx| {
            let (dt, ()) = timed(|| {
                for f in fx.opt_irs.iter().flat_map(|m| &m.funcs).filter(|f| !f.is_decl) {
                    let cfg = analysis::Cfg::new(f);
                    std::hint::black_box(analysis::Liveness::compute(f, &cfg));
                }
            });
            (dt, 1.0)
        }),
        p("opt.optimize_us", Us, |fx| {
            let mut irs: Vec<Module> = fx.programs.iter().map(|p| p.module.clone()).collect();
            let (dt, ()) = timed(|| {
                for ir in &mut irs {
                    std::hint::black_box(opt::optimize(ir, opt::OptLevel::O1));
                }
            });
            (dt, 1.0)
        }),
        p("armor.run_us", Us, |fx| {
            let (dt, ()) = timed(|| {
                for ir in &fx.opt_irs {
                    std::hint::black_box(armor::run_armor_with(ir, armor::ArmorConfig::default()));
                }
            });
            (dt, 1.0)
        }),
        p("simx.codegen_us", Us, |fx| {
            let (dt, ()) = timed(|| {
                for (ir, a) in fx.opt_irs.iter().zip(&fx.armor) {
                    std::hint::black_box(simx::compile_module(ir, true, &a.die_requests));
                }
            });
            (dt, 1.0)
        }),
        p("simx.translate_us", Us, |fx| {
            let cache = simx::TranslationCache::default();
            let (dt, ()) = timed(|| {
                for app in &fx.apps {
                    std::hint::black_box(cache.get_or_translate(&app.machine));
                }
            });
            (dt, 1.0)
        }),
        p("care.compile_us", Us, |fx| {
            let (dt, ()) = timed(|| {
                for prog in &fx.programs {
                    std::hint::black_box(care::compile(&prog.module, opt::OptLevel::O1));
                }
            });
            (dt, 1.0)
        }),
        p("faultsim.prepare_us", Us, |fx| {
            let apps: Vec<care::CompiledApp> = fx.apps.to_vec();
            let (dt, ()) = timed(|| {
                for (prog, app) in fx.programs.iter().zip(apps) {
                    std::hint::black_box(Campaign::prepare(prog, app, vec![]));
                }
            });
            (dt, 1.0)
        }),
        p("simx.interp_ns_per_step", Ns, |fx| golden_runs(fx, None, false)),
        p("simx.hooked_ns_per_step", Ns, |fx| golden_runs(fx, None, true)),
        p("simx.compiled_ns_per_step", Ns, |fx| {
            // One image serves every process of an app; build the engine
            // per program, untimed, and run each golden on its own engine.
            let mut total = Duration::ZERO;
            let mut steps = 0u64;
            for i in 0..fx.programs.len() {
                let mut proc = fresh_process(fx, i);
                let engine = simx::CompiledEngine::for_image(&proc.image);
                let (dt, exit) = timed(|| engine.run(&mut proc));
                std::hint::black_box(exit);
                total += dt;
                steps += proc.steps;
            }
            (total, steps as f64)
        }),
        p("simx.fork_us", Us, |fx| {
            const REPS: usize = 16;
            let (dt, ()) = timed(|| {
                for _ in 0..REPS {
                    for proc in &fx.paused {
                        std::hint::black_box(proc.clone());
                    }
                }
            });
            (dt, (REPS * fx.paused.len()) as f64)
        }),
        p("safeguard.trap_us", Us, |fx| {
            const REPS: usize = 16;
            let (proc, trap, index) = &fx.trapped;
            let mut clones: Vec<Process> = (0..REPS).map(|_| proc.clone()).collect();
            let (dt, recovered) = timed(|| {
                let mut recovered = 0;
                for p in &mut clones {
                    let mut sg = safeguard::Safeguard::with_index(index.clone());
                    let out = sg.handle_trap(p, *trap);
                    recovered += matches!(out, safeguard::RecoveryOutcome::Recovered { .. }) as usize;
                }
                recovered
            });
            if recovered != REPS {
                fx.failures.push(format!("probe: {recovered}/{REPS} traps recovered"));
            }
            (dt, REPS as f64)
        }),
        p("faultsim.cursor_ms", Ms, |fx| {
            let cfg = job(TAX_INJECTIONS, PROBE_SEED, EngineKind::Compiled, Some(1), false);
            let rec = telemetry::Recorder::new();
            std::hint::black_box(fx.campaigns[super::HPCCG].run_with_hooks(&cfg, &rec));
            let seen = rec.drain();
            fx.last_suffix = Duration::from_nanos(super::hist_sum(&seen, "trellis.suffixes_ns"));
            (Duration::from_nanos(super::hist_sum(&seen, "trellis.cursor_ns")), 1.0)
        }),
        // Second reading of the run the cursor probe just made.
        p("faultsim.suffix_ms", Ms, |fx| (fx.last_suffix, 1.0)),
        p("rayon.dispatch_us", Us, |fx| {
            // The workloads pin the pool to width 1, where a batch runs
            // inline; the probe widens it to 2 for the call so that a real
            // dispatch (publish, wake, steal, join) is what gets timed.
            let before = rayon::pool_stats();
            let (dt, sum) = timed(|| {
                rayon::with_threads(2, || (0..256u64).into_par_iter().map(|x| x * 2).sum::<u64>())
            });
            std::hint::black_box(sum);
            let after = rayon::pool_stats();
            fx.pool_batches += after.batches - before.batches;
            fx.pool_steals += after.steals - before.steals;
            (dt, 1.0)
        }),
        p("telemetry.json_parse_mb_s", MbPerS, |fx| {
            let (dt, ok) = timed(|| fx.record_lines.iter().all(|l| telemetry::parse_json(l).is_ok()));
            if !ok {
                fx.failures.push("probe: a record line failed to parse".to_string());
            }
            (dt, fx.record_lines.iter().map(String::len).sum::<usize>() as f64)
        }),
        p("carestore.hash_mb_s", MbPerS, |fx| {
            let (dt, ()) = timed(|| {
                for t in &fx.texts {
                    std::hint::black_box(carestore::ContentHash::of(t.as_bytes()));
                }
            });
            (dt, fx.texts.iter().map(String::len).sum::<usize>() as f64)
        }),
        p("carestore.key_us", Us, |fx| {
            let off = Tracer::off();
            let (dt, ()) = timed(|| {
                for p in &fx.programs {
                    std::hint::black_box(super::store_key(&off, p));
                }
            });
            (dt, fx.programs.len() as f64)
        }),
        p("carestore.encode_ns_per_rec", Ns, |fx| {
            let (dt, ()) = timed(|| {
                for (i, r) in fx.records.iter().enumerate() {
                    std::hint::black_box(record_line(i, r));
                }
            });
            (dt, fx.records.len() as f64)
        }),
        p("carestore.decode_ns_per_rec", Ns, |fx| {
            let (dt, same) = timed(|| {
                fx.record_lines.iter().zip(&fx.records).all(|(l, r)| {
                    telemetry::parse_json(l)
                        .and_then(|v| carestore::record::record_from_json(&v))
                        .is_ok_and(|d| d == *r)
                })
            });
            if !same {
                fx.failures.push("probe: a record did not survive the store codec".to_string());
            }
            (dt, fx.records.len() as f64)
        }),
        p("carestore.append_ns_per_rec", Ns, |fx| {
            let path = fx.dir.join("append.jsonl");
            let _ = std::fs::remove_file(&path);
            let (dt, failed) = timed(|| match carestore::LogWriter::open_append(&path) {
                Ok(w) => {
                    fx.record_lines.iter().for_each(|l| w.append_line(l));
                    w.failed()
                }
                Err(_) => true,
            });
            if failed {
                fx.failures.push("probe: log append failed".to_string());
            }
            (dt, fx.record_lines.len() as f64)
        }),
        p("carestore.scan_us_per_krec", Us, |fx| {
            let sig = carestore::run_signature(&fx.store_cfg);
            let (dt, scan) = timed(|| {
                carestore::scan_log(&fx.scan_log, fx.store_cfg.model, fx.store_cfg.seed, &sig)
            });
            if !scan.is_ok_and(|s| s.records.len() == fx.records.len() && s.corrupt == 0) {
                fx.failures.push("probe: log scan lost records".to_string());
            }
            (dt, fx.records.len() as f64 / 1000.0)
        }),
        p("carestore.resume_ms", Ms, |fx| {
            // A fresh store holding only the torn log, then the same run:
            // scan, execute the residual, append, merge.
            fx.resume_seq += 1;
            let dir = fx.dir.join(format!("resume-{}", fx.resume_seq));
            let run = carestore::Store::open(&dir).and_then(|store| {
                std::fs::write(store.log_path(&fx.store_key), &fx.torn_log)?;
                let t0 = Instant::now();
                let run = store.run_campaign(
                    &fx.store_key,
                    &fx.campaigns[super::GTCP],
                    &fx.store_cfg,
                    &telemetry::NoTelemetry,
                    &faultsim::JobControl::new(),
                )?;
                Ok((t0.elapsed(), run))
            });
            let _ = std::fs::remove_dir_all(&dir);
            match run {
                Ok((dt, run)) => {
                    fx.store_hits += run.stats.hits;
                    fx.store_misses += run.stats.misses;
                    if run.report != fx.cold_report || run.stats.hits == 0 {
                        fx.failures.push("probe: resumed report differs from the cold one".into());
                    }
                    (dt, 1.0)
                }
                Err(e) => {
                    fx.failures.push(format!("probe: resume: {e}"));
                    (Duration::ZERO, 1.0)
                }
            }
        }),
        p("careserve.spec_codec_us", Us, |fx| {
            const REPS: usize = 32;
            let (dt, same) = timed(|| {
                (0..REPS).all(|_| {
                    careserve::proto::parse_frame(&fx.tax_spec.to_frame())
                        .and_then(|v| careserve::JobSpec::from_json(&v))
                        .is_ok_and(|s| s == fx.tax_spec)
                })
            });
            if !same {
                fx.failures.push("probe: a job spec did not survive the wire codec".to_string());
            }
            (dt, REPS as f64)
        }),
        p("careserve.record_codec_ns", Ns, |fx| {
            let (dt, same) = timed(|| {
                fx.records.iter().all(|r| {
                    careserve::proto::parse_frame(&careserve::proto::encode_record(1, r))
                        .map_err(|(_, e)| e)
                        .and_then(|v| careserve::proto::decode_record(&v))
                        .is_ok_and(|d| d == *r)
                })
            });
            if !same {
                fx.failures.push("probe: a record did not survive the wire codec".to_string());
            }
            (dt, fx.records.len() as f64)
        }),
        p("careserve.report_codec_us", Us, |fx| {
            const REPS: usize = 32;
            let (dt, same) = timed(|| {
                (0..REPS).all(|_| {
                    careserve::proto::parse_frame(&careserve::proto::encode_report(1, &fx.report))
                        .map_err(|(_, e)| e)
                        .and_then(|v| careserve::proto::decode_report(&v))
                        .is_ok_and(|d| d == fx.report)
                })
            });
            if !same {
                fx.failures.push("probe: a report did not survive the wire codec".to_string());
            }
            (dt, REPS as f64)
        }),
        p("careserve.rtt_us", Us, |fx| {
            let (dt, stats) = timed(|| careserve::fetch_stats(fx.server.addr()));
            if stats.is_err() {
                fx.failures.push("probe: stats request failed".to_string());
            }
            (dt, 1.0)
        }),
        p("_served_job", Ms, |fx| {
            let (dt, out) = timed(|| careserve::submit(fx.server.addr(), &fx.tax_spec));
            if !out.is_ok_and(|o| o.report == fx.tax_reference) {
                fx.failures.push("probe: served job failed or differs from local".to_string());
            }
            (dt, 1.0)
        }),
        // The same job from two connections at once, first start to last end.
        p("_served_pair", Ms, |fx| {
            let (addr, spec) = (fx.server.addr(), &fx.tax_spec);
            let (dt, outs) = timed(|| {
                std::thread::scope(|s| {
                    let other = s.spawn(|| careserve::submit(addr, spec));
                    let mine = careserve::submit(addr, spec);
                    [mine, other.join().expect("pair thread")]
                })
            });
            if !outs.into_iter().all(|o| o.is_ok_and(|o| o.report == fx.tax_reference)) {
                fx.failures.push("probe: a paired job failed or differs from local".to_string());
            }
            (dt, 1.0)
        }),
        p("_local_job", Ms, |fx| {
            let cfg = super::spec_config(&fx.tax_spec);
            let (dt, report) = timed(|| fx.campaigns[super::HPCCG].run(&cfg));
            if report != fx.tax_reference {
                fx.failures.push("probe: local job differs from its first run".to_string());
            }
            (dt, 1.0)
        }),
    ]
}
