//! The four workloads: what a round of each runs, and what `--seed` draws.
//!
//! Every job has the common shape (O1, single-bit, CARE evaluated,
//! app-only, trellis). Campaign seeds are constants: a campaign seed
//! decides where faults land and therefore how many steps a job
//! simulates (±14 % for a small job), so a seed-drawn campaign would make
//! the benchmark measure the draw. What `--seed` draws instead changes the
//! traffic but not the amount of work: the order a round's jobs run in and
//! the builder parameters of the jobs that must miss the server's
//! prepared-campaign cache. A closed loop throughout: a client's next job
//! starts when its previous one finished.
//!
//! Jobs are small on purpose (1–40 ms a sample): on the reference host the
//! floor of many short samples repeats within a few percent where the
//! floor of a few long ones does not (README § noise study).

use crate::adapter::{self, Campaign, CampaignReport, EngineKind, JobSpec, Program};
use crate::meter::{guarded, Meter, Ops};
use crate::spans::Tracer;
use crate::stats::{mix, Role};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Injections of a throughput job and of a turnaround job.
pub const BULK_INJECTIONS: usize = 16;
pub const LATENCY_INJECTIONS: usize = 4;
/// Injections of a store-backed cold run.
const STORE_INJECTIONS: usize = 64;
/// Warm re-runs after each cold store run.
const WARM_RERUNS: usize = 3;
/// Root of every campaign seed; job `k` runs at `mix(CAMPAIGN_SEED, k)`.
const CAMPAIGN_SEED: u64 = 0xCA2E_5EED;

pub struct Plan {
    pub seed: u64,
    /// Rounds the scenario must be able to run (measured + traced).
    pub rounds: usize,
    /// Directory for the files a scenario writes; removed by the caller.
    pub scratch: PathBuf,
}

pub trait Scenario {
    /// `(series name, role, instances are byte-identical)` in series order.
    fn layout(&self) -> Vec<(String, Role, bool)>;
    /// One discarded round: fills the caches, computes every reference
    /// report and checks it against the other execution engine.
    fn warm_up(&mut self, ops: &mut Ops);
    /// Round `round`; an on tracer selects the unrolled, traced variant.
    fn round(&mut self, round: usize, tr: &Tracer, meter: &mut Meter, ops: &mut Ops);
    /// Reference reports of one round's bulk jobs.
    fn bulk_reports(&self) -> Vec<&CampaignReport>;
    /// The jobs of a round as text, in running order (printed by every run
    /// and compared by the seed-determinism test).
    fn job_list(&self) -> Vec<String>;
    /// Layer metrics only this workload can supply, given its measured pass.
    fn layer_extras(&self, _measured: &Meter) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The timed parts of one set-up repetition. Each part is byte-identical
/// work from one repetition to the next, so each is a series of its own
/// and `setup_s` is the sum of their floors.
#[derive(Default)]
pub struct Parts(pub Vec<(String, Duration)>);

impl Parts {
    fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.0.push((name.into(), t0.elapsed()));
        out
    }
}

/// Everything the workload needs before its first injection.
pub fn set_up(
    workload: &str,
    plan: &Plan,
    tr: &Tracer,
    parts: &mut Parts,
) -> Result<Box<dyn Scenario>, String> {
    match workload {
        "cov_interp" => Ok(Box::new(Cov::set_up(EngineKind::Interp, plan, tr, parts))),
        "cov_compiled" => Ok(Box::new(Cov::set_up(EngineKind::Compiled, plan, tr, parts))),
        "svc_mix" => Svc::set_up(plan, tr, parts).map(|s| Box::new(s) as Box<dyn Scenario>),
        "store_cycle" => {
            StoreCycle::set_up(plan, tr, parts).map(|s| Box::new(s) as Box<dyn Scenario>)
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Compile and prepare one program, as one timed part.
fn prepared(
    tr: &Tracer,
    parts: &mut Parts,
    program: &Program,
    translate: bool,
) -> Campaign {
    parts.time(format!("prepare.{}", program.name), || {
        let app = adapter::compile(tr, program);
        if translate {
            adapter::translate_cold(tr, &app);
        }
        adapter::prepare(tr, program, app)
    })
}

/// Σ simulated steps and Σ classified injections over reports.
pub fn steps_and_injections(reports: &[&CampaignReport]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(s, n), r| (s + r.simulated_steps, n + r.total() as u64))
}

/// Fisher–Yates over `0..n`, drawn from `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    v
}

fn check(ops: &mut Ops, what: impl FnOnce() -> String, ok: bool) {
    ops.attempted += 1;
    if !ok {
        ops.fail(what());
    }
}

// ---------------------------------------------------------------------------
// cov_interp / cov_compiled: local campaigns, one thread, one cursor shard.

struct CovJob {
    program: usize,
    cfg: adapter::CampaignConfig,
    name: String,
    role: Role,
}

struct Cov {
    engine: EngineKind,
    campaigns: Vec<Campaign>,
    jobs: Vec<CovJob>,
    order: Vec<usize>,
    refs: Vec<CampaignReport>,
}

impl Cov {
    fn set_up(engine: EngineKind, plan: &Plan, tr: &Tracer, parts: &mut Parts) -> Cov {
        let programs = parts.time("programs", || adapter::programs(tr));
        let campaigns: Vec<Campaign> = programs
            .iter()
            .map(|p| prepared(tr, parts, p, engine == EngineKind::Compiled))
            .collect();
        let mut jobs = Vec::new();
        for program in 0..programs.len() {
            let name = adapter::PROGRAM_NAMES[program];
            let kinds = [
                ("bulk", BULK_INJECTIONS, Role::Bulk { injections: BULK_INJECTIONS as u64 }),
                ("lat_a", LATENCY_INJECTIONS, Role::Latency { group: 0 }),
                ("lat_b", LATENCY_INJECTIONS, Role::Latency { group: 0 }),
            ];
            for (kind, injections, role) in kinds {
                let seed = mix(CAMPAIGN_SEED, jobs.len() as u64);
                jobs.push(CovJob {
                    program,
                    cfg: adapter::job(injections, seed, engine, Some(1), false),
                    name: format!("{kind}.{name}"),
                    role,
                });
            }
        }
        let order = shuffled(jobs.len(), plan.seed);
        Cov { engine, campaigns, jobs, order, refs: Vec::new() }
    }
}

impl Scenario for Cov {
    fn layout(&self) -> Vec<(String, Role, bool)> {
        self.jobs.iter().map(|j| (j.name.clone(), j.role, true)).collect()
    }

    fn warm_up(&mut self, ops: &mut Ops) {
        let off = Tracer::off();
        let other = adapter::other_engine(self.engine);
        for job in &self.jobs {
            let c = &self.campaigns[job.program];
            let (_, mine) = guarded(|| Ok(adapter::run(&off, c, &job.cfg)));
            let cross = adapter::CampaignConfig { engine: other, ..job.cfg };
            let (_, theirs) = guarded(|| Ok(adapter::run(&off, c, &cross)));
            check(ops, || format!("{}: engines disagree", job.name), mine.is_ok() && mine == theirs);
            if matches!(job.role, Role::Bulk { .. }) {
                // Once per program, the raw records too, not just aggregates.
                let keep = |engine| adapter::CampaignConfig { engine, keep_records: true, ..job.cfg };
                let (_, a) = guarded(|| Ok(adapter::run(&off, c, &keep(self.engine))));
                let (_, b) = guarded(|| Ok(adapter::run(&off, c, &keep(other))));
                let same = a.is_ok() && a == b && a.as_ref().is_ok_and(|r| !r.records.is_empty());
                check(ops, || format!("{}: engines disagree on records", job.name), same);
            }
            self.refs.push(mine.unwrap_or_default());
        }
    }

    fn round(&mut self, round: usize, tr: &Tracer, meter: &mut Meter, ops: &mut Ops) {
        tr.span("harness.round", || {
            for &j in &self.order {
                let job = &self.jobs[j];
                if !tr.is_on() {
                    let (dt, out) =
                        guarded(|| Ok(adapter::run(tr, &self.campaigns[job.program], &job.cfg)));
                    meter.record(ops, j, Some(&self.refs[j]), dt, out);
                    continue;
                }
                // Unrolled: the whole pipeline behind this job, a span per
                // layer; only the campaign run itself is the timed sample.
                tr.set_job((round * self.jobs.len() + j) as u64 + 1);
                tr.span("harness.job", || {
                    let (_, out) = guarded(|| {
                        let program = adapter::programs(tr).swap_remove(job.program);
                        let app = adapter::compile_unrolled(tr, &program);
                        if self.engine == EngineKind::Compiled {
                            adapter::translate_shared(tr, &app);
                        }
                        let campaign = adapter::prepare(tr, &program, app);
                        let t0 = Instant::now();
                        let report = adapter::run_recorded(tr, &campaign, &job.cfg);
                        Ok((t0.elapsed(), report))
                    });
                    let (dt, out) = match out {
                        Ok((dt, r)) => (dt, Ok(r)),
                        Err(e) => (Duration::ZERO, Err(e)),
                    };
                    meter.record(ops, j, Some(&self.refs[j]), dt, out);
                });
            }
        })
    }

    fn bulk_reports(&self) -> Vec<&CampaignReport> {
        let bulk = self.jobs.iter().zip(&self.refs);
        bulk.filter(|(j, _)| matches!(j.role, Role::Bulk { .. })).map(|(_, r)| r).collect()
    }

    fn job_list(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&j| {
                let job = &self.jobs[j];
                format!(
                    "{} engine={} injections={} seed={:#x}",
                    job.name,
                    job.cfg.engine.name(),
                    job.cfg.injections,
                    job.cfg.seed
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// svc_mix: the same engine behind the server, two clients taking turns.
//
// A barrier before every turn. Each kind is submitted by one client, then
// by the other, alone, with the pool at width 1. Both choices are for the
// floors' sake. At width 2 a job's time depends on whether the scheduler
// lands the caller and the pool worker on different vCPUs: solo floors
// were 14 % apart between runs while the medians agreed within 6 %. Two
// jobs at once need both vCPUs undisturbed together, which on the
// reference host is rare enough that pair floors were 17–21 % apart. At
// width 1, in turns, they agree within 1–2 %. Concurrency 2 is still
// exercised every round — both clients submit the bulk job at once — but
// that pair is a layer series (`careserve.pair_ratio`), not an end-to-end
// one.

/// Injections of a served bulk job: half a local one, so that two of them
/// side by side end well inside the 25 ms the server's connection thread
/// waits before its first 10 ms socket poll. A job that ends during a poll
/// is reported at the poll's end, which makes a floor near that edge
/// bistable.
const SVC_BULK_INJECTIONS: usize = BULK_INJECTIONS / 2;
/// The kinds a round runs, in series order: bulk, two cache hits, one miss.
const SVC_KINDS: [(&str, usize, EngineKind); 4] = [
    ("bulk", adapter::HPCCG, EngineKind::Compiled),
    ("hit", adapter::MINIMD, EngineKind::Interp),
    ("hit", adapter::MINIFE, EngineKind::Compiled),
    ("miss", adapter::GTCP, EngineKind::Interp),
];
const SVC_BULK: usize = 0;
const SVC_MISS: usize = 3;
/// Series of the two-client bulk pair, after the kinds' own.
const SVC_PAIR: usize = 4;

struct Client {
    /// One never-seen GTC-P variant per round (index 0: warm-up).
    misses: Vec<JobSpec>,
    miss_refs: Vec<CampaignReport>,
}

/// What one client did in one round, gated on the main thread.
struct ClientRound {
    /// Series, start, end, outcome of each job, in running order.
    jobs: Vec<(usize, Instant, Instant, Result<CampaignReport, String>)>,
    spans: Vec<crate::spans::Span>,
}

struct Svc {
    server: adapter::ServerHandle,
    locals: Vec<Option<Campaign>>,
    /// Specs and local reference reports of the three fixed kinds.
    fixed: Vec<(JobSpec, CampaignReport)>,
    clients: [Client; 2],
    /// The order the kinds after the bulk job run in; seed-drawn.
    sequence: Vec<usize>,
    stats_before: Option<adapter::StatsSnapshot>,
}

/// `count` GTC-P sizes at and above the default's, drawn from `seed`: each
/// is a distinct cache key and close to the same work. The pool grows with
/// the run so that a draw never repeats.
fn miss_params(seed: u64, count: usize) -> Vec<Vec<i64>> {
    let widths = count.div_ceil(4) as i64 + 16;
    let mut pool = Vec::new();
    for nparticles in 48..48 + widths {
        for mpsi in 8..=9 {
            for mzeta in 2..=3 {
                pool.push(vec![mpsi, mzeta, nparticles, 3]);
            }
        }
    }
    shuffled(pool.len(), seed ^ 0x4d15).into_iter().take(count).map(|i| pool[i].clone()).collect()
}

impl Svc {
    fn set_up(plan: &Plan, tr: &Tracer, parts: &mut Parts) -> Result<Svc, String> {
        let server = parts
            .time("server", || adapter::server_start(tr))
            .map_err(|e| format!("server start: {e}"))?;
        let programs = parts.time("programs", || adapter::programs(tr));
        let locals: Vec<Option<Campaign>> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let used = SVC_KINDS[..SVC_MISS].iter().any(|k| k.1 == i);
                used.then(|| prepared(tr, parts, p, false))
            })
            .collect();
        let fixed = SVC_KINDS[..SVC_MISS]
            .iter()
            .enumerate()
            .map(|(k, &(kind, program, engine))| {
                let bulk = kind == "bulk";
                let n = if bulk { SVC_BULK_INJECTIONS } else { LATENCY_INJECTIONS };
                let seed = mix(CAMPAIGN_SEED, 100 + k as u64);
                (adapter::job_spec(program, vec![], seed, n, engine, bulk, false), Default::default())
            })
            .collect();
        let mut params = miss_params(plan.seed, 2 * (plan.rounds + 1)).into_iter();
        let (_, program, engine) = SVC_KINDS[SVC_MISS];
        let clients = [0u64, 1].map(|c| Client {
            misses: (0..=plan.rounds)
                .map(|_| {
                    let seed = mix(CAMPAIGN_SEED, 200 + c);
                    let params = params.next().expect("sized above");
                    adapter::job_spec(program, params, seed, LATENCY_INJECTIONS, engine, false, false)
                })
                .collect(),
            miss_refs: Vec::new(),
        });
        let sequence = shuffled(3, plan.seed ^ 0x5e9).into_iter().map(|k| k + 1).collect();
        Ok(Svc { server, locals, fixed, clients, sequence, stats_before: None })
    }

    fn local(&self, spec: &JobSpec, program: usize) -> Result<CampaignReport, String> {
        let c = self.locals[program].as_ref().ok_or("program not prepared locally")?;
        Ok(adapter::run(&Tracer::off(), c, &adapter::spec_config(spec)))
    }
}

/// One client's round: every kind in turn with the other client (bulk
/// first, the rest in the seed-drawn order), then the bulk job once more,
/// both clients at once.
fn client_round(
    svc: &Svc,
    me: usize,
    round: usize,
    turn: &Barrier,
    trace: Option<(u64, Instant)>,
) -> ClientRound {
    let addr = svc.server.addr();
    let client = &svc.clients[me];
    let tr = match trace {
        Some((lane, epoch)) => Tracer::on(lane, epoch),
        None => Tracer::off(),
    };
    let traced = tr.is_on();
    let served = |spec: &JobSpec| {
        if !traced {
            return guarded(|| adapter::submit(&tr, addr, spec));
        }
        // Unrolled: frame encode, the submit itself (a bulk job with the
        // server-side recorder on), report decode.
        let spec = JobSpec { telemetry: spec.records, ..spec.clone() };
        std::hint::black_box(adapter::spec_frame(&tr, &spec));
        let (dt, out) = guarded(|| adapter::submit(&tr, addr, &spec));
        let decoded = out.as_ref().ok().and_then(|r| adapter::report_round_trip(&tr, r));
        let out = out.and_then(|r| {
            let aggregates = CampaignReport { records: Vec::new(), ..r.clone() };
            (decoded == Some(aggregates)).then_some(r).ok_or("report codec lost data".into())
        });
        (dt, out)
    };
    let mut jobs = Vec::new();
    let mut run = |sid: usize, spec: &JobSpec| {
        tr.set_job((round * 16 + me * 8 + jobs.len()) as u64 + 1);
        tr.span("harness.phase", || {
            let t0 = Instant::now();
            let (dt, out) = served(spec);
            jobs.push((sid, t0, t0 + dt, out));
        });
    };
    for &kind in std::iter::once(&SVC_BULK).chain(&svc.sequence) {
        let spec = if kind == SVC_MISS { &client.misses[round] } else { &svc.fixed[kind].0 };
        for whose in 0..2 {
            turn.wait();
            if whose == me {
                run(kind, spec);
            }
        }
    }
    turn.wait();
    run(SVC_PAIR, &svc.fixed[SVC_BULK].0);
    ClientRound { jobs, spans: tr.into_spans() }
}

impl Scenario for Svc {
    fn layout(&self) -> Vec<(String, Role, bool)> {
        let mut out: Vec<(String, Role, bool)> = SVC_KINDS
            .into_iter()
            .enumerate()
            .map(|(k, (kind, program, engine))| {
                let name =
                    format!("{kind}.{}.{}", adapter::PROGRAM_NAMES[program], engine.name());
                let role = match kind {
                    "bulk" => Role::Bulk { injections: SVC_BULK_INJECTIONS as u64 },
                    "hit" => Role::Latency { group: 0 },
                    _ => Role::Latency { group: 1 },
                };
                (name, role, k != SVC_MISS)
            })
            .collect();
        out.push(("bulk_pair".to_string(), Role::LayerOnly, true));
        out
    }

    fn warm_up(&mut self, ops: &mut Ops) {
        // Local references first (the other engine's run must agree), then
        // one served round to fill the server's caches.
        for (k, &(kind, program, _)) in SVC_KINDS[..SVC_MISS].iter().enumerate() {
            let spec = self.fixed[k].0.clone();
            let (_, mine) = guarded(|| self.local(&spec, program));
            let cross = JobSpec { engine: adapter::other_engine(spec.engine), ..spec.clone() };
            let (_, theirs) = guarded(|| self.local(&cross, program));
            let same = mine.is_ok() && mine == theirs;
            check(ops, || format!("svc reference {kind}: engines disagree"), same);
            self.fixed[k].1 = mine.unwrap_or_default();
        }
        for client in &mut self.clients {
            client.miss_refs = client
                .misses
                .iter()
                .map(|spec| {
                    let (_, out) = guarded(|| {
                        let off = Tracer::off();
                        let program = adapter::spec_program(spec)?;
                        let app = adapter::compile(&off, &program);
                        let campaign = adapter::prepare(&off, &program, app);
                        Ok(adapter::run(&off, &campaign, &adapter::spec_config(spec)))
                    });
                    check(ops, || "svc miss reference failed".to_string(), out.is_ok());
                    out.unwrap_or_default()
                })
                .collect();
        }
        let mut discard = Meter::new(&self.layout());
        self.round(0, &Tracer::off(), &mut discard, ops);
        self.stats_before = Some(self.server.stats());
    }

    fn round(&mut self, round: usize, tr: &Tracer, meter: &mut Meter, ops: &mut Ops) {
        let turn = Barrier::new(2);
        let trace = |lane| tr.is_on().then(|| (lane, tr.epoch()));
        let (ta, tb) = (trace(1), trace(2));
        let svc = &*self;
        let [ra, rb] = std::thread::scope(|s| {
            let ha = s.spawn(|| client_round(svc, 0, round, &turn, ta));
            let hb = s.spawn(|| client_round(svc, 1, round, &turn, tb));
            [ha.join().expect("client thread"), hb.join().expect("client thread")]
        });
        // The pair is each client's last job: gated one by one, timed as
        // one, first start to last end.
        let mut pair: Vec<(Instant, Instant)> = Vec::new();
        for (client, result) in self.clients.iter().zip([ra, rb]) {
            for (sid, t0, t1, out) in result.jobs {
                let reference = match sid {
                    SVC_MISS => &client.miss_refs[round],
                    SVC_PAIR => &self.fixed[SVC_BULK].1,
                    kind => &self.fixed[kind].1,
                };
                if sid != SVC_PAIR {
                    meter.record(ops, sid, Some(reference), t1 - t0, out);
                } else if meter.gate(ops, sid, Some(reference), out) {
                    pair.push((t0, t1));
                }
            }
            tr.absorb(result.spans);
        }
        if let [(a0, a1), (b0, b1)] = pair[..] {
            meter.push(SVC_PAIR, a1.max(b1) - a0.min(b0));
        }
    }

    fn bulk_reports(&self) -> Vec<&CampaignReport> {
        vec![&self.fixed[SVC_BULK].1]
    }

    fn job_list(&self) -> Vec<String> {
        let mut out: Vec<String> = std::iter::once(&SVC_BULK)
            .chain(&self.sequence)
            .map(|&k| {
                let (kind, program, engine) = SVC_KINDS[k];
                let (name, engine) = (adapter::PROGRAM_NAMES[program], engine.name());
                let fresh = if k == SVC_MISS { " (fresh params each round)" } else { "" };
                format!("each client in turn: {kind} {name} {engine}{fresh}")
            })
            .collect();
        out.push("both clients at once: bulk (layer series only)".to_string());
        out
    }

    fn layer_extras(&self, measured: &Meter) -> Vec<(&'static str, f64)> {
        let (Some(before), now) = (&self.stats_before, self.server.stats()) else {
            return Vec::new();
        };
        let hits = (now.cache_hits - before.cache_hits) as f64;
        let misses = (now.cache_misses - before.cache_misses) as f64;
        let floor = |sid: usize| measured.series[sid].floor();
        vec![
            ("careserve.cache_hit_share", hits / (hits + misses).max(1.0)),
            ("careserve.rejected", now.jobs_rejected as f64),
            ("careserve.pair_ratio", floor(SVC_PAIR) / floor(SVC_BULK)),
        ]
    }
}

impl Drop for Svc {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// store_cycle: cold write, warm reads, torn-log resume.

/// Programs cycled: GTC-P (cheapest injections, so the log is a visible
/// share) and HPCCG (typical).
const STORE_PROGRAMS: [usize; 2] = [adapter::GTCP, adapter::HPCCG];

struct StoreCycle {
    base: PathBuf,
    programs: Vec<Program>,
    campaigns: Vec<Campaign>,
    keys: Vec<adapter::CampaignKey>,
    cfgs: Vec<adapter::CampaignConfig>,
    order: Vec<usize>,
    refs: Vec<CampaignReport>,
    hits: u64,
    misses: u64,
}

impl StoreCycle {
    fn set_up(plan: &Plan, tr: &Tracer, parts: &mut Parts) -> Result<StoreCycle, String> {
        let all = parts.time("programs", || adapter::programs(tr));
        let programs: Vec<Program> = STORE_PROGRAMS.iter().map(|&i| all[i].clone()).collect();
        let campaigns: Vec<Campaign> =
            programs.iter().map(|p| prepared(tr, parts, p, true)).collect();
        let base = plan.scratch.join("store");
        let keys = parts
            .time("store", || {
                adapter::store_open(tr, &base)?;
                Ok(programs.iter().map(|p| adapter::store_key(tr, p)).collect())
            })
            .map_err(|e: std::io::Error| format!("store dir: {e}"))?;
        let cfgs = (0..programs.len() as u64)
            .map(|k| {
                let seed = mix(CAMPAIGN_SEED, 300 + k);
                adapter::job(STORE_INJECTIONS, seed, EngineKind::Compiled, Some(1), false)
            })
            .collect();
        let order = shuffled(programs.len(), plan.seed);
        Ok(StoreCycle { base, programs, campaigns, keys, cfgs, order, refs: Vec::new(), hits: 0, misses: 0 })
    }

    /// Cold run, warm re-runs, truncate at the midpoint line, resume —
    /// in a store directory of this round's own.
    fn cycle(&mut self, k: usize, dir: &Path, tr: &Tracer, meter: &mut Meter, ops: &mut Ops) {
        let n = self.programs.len();
        let (bulk, warm, resume) = (k, n + k, 2 * n + k);
        let traced = tr.is_on();
        let reference = self.refs.get(k).cloned();
        let store = match adapter::store_open(tr, dir) {
            Ok(s) => s,
            Err(e) => {
                ops.attempted += 1;
                return ops.fail(format!("store open: {e}"));
            }
        };
        // Traced: the pipeline behind the campaign is rebuilt, a span per
        // layer, instead of reusing what set-up prepared.
        let rebuilt;
        let (campaign, key) = if traced {
            let program = &self.programs[k];
            let app = adapter::compile_unrolled(tr, program);
            adapter::translate_shared(tr, &app);
            rebuilt = adapter::prepare(tr, program, app);
            (&rebuilt, adapter::store_key(tr, program))
        } else {
            (&self.campaigns[k], self.keys[k].clone())
        };
        let cfg = &self.cfgs[k];
        let run = |name: &'static str,
                   sid: usize,
                   want_hits: Option<u64>,
                   meter: &mut Meter,
                   ops: &mut Ops| {
            let mut stats = adapter::StoreStats::default();
            let (dt, out) = guarded(|| {
                let (report, s) = adapter::store_run(tr, name, &store, &key, campaign, cfg, traced)?;
                stats = s;
                match want_hits {
                    Some(h) if s.hits != h || s.misses != cfg.injections as u64 - h => {
                        Err(format!("{name}: {} hits, {} misses", s.hits, s.misses))
                    }
                    _ if s.write_errors + s.corrupt_lines > 0 => Err(format!("{name}: log damaged")),
                    _ => Ok(report),
                }
            });
            (meter.record(ops, sid, reference.as_ref(), dt, out), stats)
        };
        let (cold_ok, s) = run("carestore.run_cold", bulk, Some(0), meter, ops);
        self.hits += s.hits;
        self.misses += s.misses;
        if !cold_ok {
            return;
        }
        for _ in 0..WARM_RERUNS {
            let (_, s) = run("carestore.run_warm", warm, Some(cfg.injections as u64), meter, ops);
            self.hits += s.hits;
            self.misses += s.misses;
        }
        let log = adapter::store_log(&store, &key);
        if traced {
            let (_, replayed) = guarded(|| adapter::store_replay(tr, &log, cfg));
            let all = replayed.as_ref().is_ok_and(|n| *n as u64 == s.misses);
            check(ops, || format!("store replay: {replayed:?}"), all);
        }
        // What a kill mid-run leaves: the first half of the log's lines.
        let torn = tr.span("harness.truncate", || {
            let text = std::fs::read_to_string(&log)?;
            let lines: Vec<&str> = text.lines().collect();
            let mut half = lines[..lines.len() / 2].join("\n");
            half.push('\n');
            std::fs::write(&log, half)
        });
        if let Err(e) = torn {
            ops.attempted += 1;
            return ops.fail(format!("truncate: {e}"));
        }
        let (_, s) = run("carestore.resume", resume, None, meter, ops);
        self.hits += s.hits;
        self.misses += s.misses;
        ops.attempted += 1;
        if s.hits == 0 || s.misses == 0 {
            ops.fail(format!("resume was not mixed: {} hits, {} misses", s.hits, s.misses));
        }
    }
}

impl Scenario for StoreCycle {
    fn layout(&self) -> Vec<(String, Role, bool)> {
        let names: Vec<&str> = STORE_PROGRAMS.iter().map(|&i| adapter::PROGRAM_NAMES[i]).collect();
        let kinds = [
            ("cold", Role::Bulk { injections: STORE_INJECTIONS as u64 }),
            ("warm", Role::Latency { group: 0 }),
            ("resume", Role::LayerOnly),
        ];
        let mut out = Vec::new();
        for (kind, role) in kinds {
            out.extend(names.iter().map(|n| (format!("{kind}.{n}"), role, true)));
        }
        out
    }

    fn warm_up(&mut self, ops: &mut Ops) {
        // References come from the interpreter through a store of its own,
        // so the compiled cold runs are checked against the other engine.
        let off = Tracer::off();
        for k in 0..self.programs.len() {
            let dir = self.base.join(format!("ref-{k}"));
            let cfg = adapter::CampaignConfig { engine: EngineKind::Interp, ..self.cfgs[k] };
            let (_, out) = guarded(|| {
                let store = adapter::store_open(&off, &dir).map_err(|e| e.to_string())?;
                let name = "carestore.run_cold";
                adapter::store_run(&off, name, &store, &self.keys[k], &self.campaigns[k], &cfg, false)
            });
            let _ = std::fs::remove_dir_all(&dir);
            check(ops, || "store reference run failed".to_string(), out.is_ok());
            self.refs.push(out.map(|(r, _)| r).unwrap_or_default());
        }
        let mut discard = Meter::new(&self.layout());
        self.round(usize::MAX, &off, &mut discard, ops);
        (self.hits, self.misses) = (0, 0);
    }

    fn round(&mut self, round: usize, tr: &Tracer, meter: &mut Meter, ops: &mut Ops) {
        tr.span("harness.round", || {
            for k in self.order.clone() {
                tr.set_job((round.wrapping_mul(2) + k) as u64 + 1);
                let dir = self.base.join(format!("r{round}-{k}"));
                tr.span("harness.job", || self.cycle(k, &dir, tr, meter, ops));
                let _ = std::fs::remove_dir_all(&dir);
            }
        })
    }

    fn bulk_reports(&self) -> Vec<&CampaignReport> {
        self.refs.iter().collect()
    }

    fn job_list(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&k| {
                format!(
                    "{}: cold {STORE_INJECTIONS}, {WARM_RERUNS} warm, truncate, resume (seed {:#x})",
                    adapter::PROGRAM_NAMES[STORE_PROGRAMS[k]],
                    self.cfgs[k].seed
                )
            })
            .collect()
    }

    fn layer_extras(&self, _measured: &Meter) -> Vec<(&'static str, f64)> {
        let total = (self.hits + self.misses).max(1) as f64;
        vec![("carestore.hit_share", self.hits as f64 / total)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Plan {
        Plan { seed, rounds: 3, scratch: std::env::temp_dir().join("carebench-test-unused") }
    }

    #[test]
    fn same_seed_gives_the_same_jobs_and_the_same_steps_per_injection() {
        let describe = |seed| {
            let mut s =
                Cov::set_up(EngineKind::Compiled, &plan(seed), &Tracer::off(), &mut Parts::default());
            let mut ops = Ops::default();
            s.warm_up(&mut ops);
            assert_eq!(ops.failed, 0, "{:?}", ops.messages);
            (s.job_list(), steps_and_injections(&s.bulk_reports()))
        };
        let (jobs_a, steps_a) = describe(11);
        let (jobs_b, steps_b) = describe(11);
        assert_eq!(jobs_a, jobs_b);
        assert_eq!(steps_a, steps_b);
        // Another seed reorders the round but leaves the work, and so the
        // exact step count, untouched.
        let (jobs_c, steps_c) = describe(12);
        assert_ne!(jobs_a, jobs_c);
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(jobs_a), sorted(jobs_c));
        assert_eq!(steps_a, steps_c);
        assert!(steps_a.1 > 0 && steps_a.0 > steps_a.1);
    }

    #[test]
    fn miss_params_are_distinct_and_seed_drawn() {
        let a = miss_params(5, 120);
        let mut unique = a.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 120);
        assert_eq!(a, miss_params(5, 120));
        assert_ne!(a, miss_params(6, 120));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v = shuffled(15, 99);
        assert_ne!(v, (0..15).collect::<Vec<_>>());
        v.sort();
        assert_eq!(v, (0..15).collect::<Vec<_>>());
    }
}
