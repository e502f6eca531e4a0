//! `repro` — regenerate every table and figure of the CARE paper.
//!
//! ```text
//! repro [--injections N] [--seed S] [--threads N[,N,...]]
//!       [--telemetry OUT.jsonl] [--store DIR | --resume] [experiments...]
//!
//! experiments: table2 table3 table4 table5 table8 table9 table10 table11
//!              fig7 fig9 fig10 fig12 declines all   (default: all)
//!              bench-json   (explicit only: writes BENCH_campaign.json
//!                            with campaign-throughput measurements)
//!
//! repro serve  [--addr HOST:PORT] [--budget-cap N] [--max-queue N]
//!              [--store DIR]
//! repro submit [--addr HOST:PORT] [--workload NAME] [--params A,B,..]
//!              [--injections N] [--seed S] [--engine E] [--opt O0|O1]
//!              [--job-threads N] [--stats]
//!              [--bench [--clients C] [--jobs J]]
//! repro triage [--store DIR]
//! ```
//!
//! `serve` runs the `careserve` campaign server until killed. `submit`
//! sends one job to a running server and prints its report; `--stats`
//! fetches the server's counter snapshot instead. `submit --bench` times a
//! concurrent small-job batch (spawning a loopback server when `--addr` is
//! not given) and merges a `service` section into `BENCH_campaign.json`
//! (schema v5).
//!
//! `--store DIR` routes every §2/§5 campaign through a content-addressed
//! `carestore` store at DIR: records from earlier runs are reused and only
//! the residual injections execute, with reports bit-identical to a fresh
//! run. `--resume` is shorthand for `--store ./care_store` — rerunning a
//! killed invocation picks up each campaign where its log left off.
//! `serve --store DIR` gives the campaign server the same warm-store path.
//! `triage` scans a store and clusters every recorded outcome by
//! `(kind, decline, fault site)` without re-running anything.
//!
//! `--threads` takes a comma list: `bench-json` emits one BENCH row set per
//! listed thread count in a single invocation (default sweep `1,4,16`);
//! the table/figure experiments run at the first listed count.
//!
//! The default injection count (300 per workload) keeps a full regeneration
//! to minutes on a laptop; pass `--injections 10000` for paper-scale
//! campaigns. All campaigns are deterministic in the seed.
//!
//! `--telemetry OUT.jsonl` (or the `CARE_TELEMETRY` env var) attaches a
//! telemetry [`Recorder`] to every campaign and cluster simulation, prints
//! a summary table to stderr and writes the full event stream as versioned
//! JSONL. Telemetry never changes campaign results — only observes them.

use bench::{
    coverage_cfg, decline_rows, manifestation_cfg, pct, prepare, run_campaign,
    section2_workloads, section5_workloads, PreparedWorkload, Table, BENCH_SCHEMA_VERSION,
};
use carestore::Store;
use cluster::{simulate_fault_free, simulate_faulty, simulate_faulty_traced, ClusterConfig,
    Resilience};
use faultsim::{CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use std::collections::HashMap;
use telemetry::Recorder;

struct Args {
    injections: usize,
    seed: u64,
    /// `--threads` comma list; empty means "not given".
    threads: Vec<usize>,
    telemetry: Option<std::path::PathBuf>,
    engine: EngineKind,
    /// `--store DIR` / `--resume`: content-addressed record store.
    store: Option<std::path::PathBuf>,
    experiments: Vec<String>,
}

fn parse_args() -> Args {
    let mut injections = 300;
    let mut seed = 0xCA2E;
    let mut threads = Vec::new();
    let mut telemetry = None;
    let mut engine = None;
    let mut store: Option<std::path::PathBuf> = None;
    let mut experiments = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--injections" => {
                injections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--injections N");
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--threads" => {
                let list = it.next().expect("--threads N[,N,...]");
                threads = list
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&t| t >= 1)
                            .expect("--threads N[,N,...] (N >= 1)")
                    })
                    .collect();
            }
            "--telemetry" => {
                telemetry = Some(it.next().expect("--telemetry OUT.jsonl").into());
            }
            "--store" => {
                store = Some(it.next().expect("--store DIR").into());
            }
            "--resume" => {
                store.get_or_insert_with(|| "care_store".into());
            }
            "--engine" => {
                engine = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--engine interp|compiled"),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--injections N] [--seed S] [--threads N[,N,...]] [--engine interp|compiled] [--telemetry OUT.jsonl] [--store DIR | --resume] [table2|table3|table4|table5|table8|table9|table10|table11|fig7|fig9|fig10|fig12|declines|bench-json|all]...\n       \
                     repro serve  [--addr HOST:PORT] [--budget-cap N] [--max-queue N] [--store DIR]\n       \
                     repro submit [--addr HOST:PORT] [--workload NAME] [--params A,B,..] [--injections N] [--seed S] [--engine E] [--opt O0|O1] [--job-threads N] [--stats] [--bench [--clients C] [--jobs J]]\n       \
                     repro triage [--store DIR]"
                );
                std::process::exit(0);
            }
            other => experiments.push(other.to_string()),
        }
    }
    if telemetry.is_none() {
        telemetry = std::env::var_os("CARE_TELEMETRY").map(Into::into);
    }
    // CLI wins; then the CARE_ENGINE env var; then the interpreter.
    let engine = engine
        .or_else(|| {
            std::env::var("CARE_ENGINE")
                .ok()
                .map(|v| v.parse().expect("CARE_ENGINE=interp|compiled"))
        })
        .unwrap_or_default();
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    const KNOWN: &[&str] = &[
        "table2", "table3", "table4", "table5", "table8", "table9", "table10", "table11",
        "fig7", "fig9", "fig10", "fig12", "declines", "bench-json", "all",
    ];
    for e in &experiments {
        if !KNOWN.contains(&e.as_str()) {
            eprintln!("error: unknown experiment '{e}' (see repro --help)");
            std::process::exit(2);
        }
    }
    Args { injections, seed, threads, telemetry, engine, store, experiments }
}

/// [`run_campaign`] plus one stderr line per store-backed run (how much of
/// it was warm): routed through the global recorder when telemetry is on
/// and through the content-addressed store when `--store` is given.
fn run_reported(
    p: &PreparedWorkload,
    cfg: &CampaignConfig,
    rec: Option<&Recorder>,
    store: Option<&Store>,
) -> CampaignReport {
    let (report, stats) = run_campaign(p, cfg, rec, store);
    if let Some(stats) = stats {
        eprintln!(
            "[repro]   {}: store reused {} records, skipped {} known-benign, \
             executed {} residual ({:.0}% of {})",
            p.name,
            stats.hits,
            stats.known_skips,
            stats.misses,
            100.0 * stats.residual_fraction(cfg.injections),
            cfg.injections,
        );
    }
    report
}

/// `repro bench-json`: time end-to-end CARE coverage campaigns on the full
/// five-workload app suite (HPCCG, CoMD, miniFE, miniMD, GTC-P) and write
/// the measurements to `BENCH_campaign.json` in the current directory
/// (hand-rolled JSON; the container has no serde).
///
/// Schema v4 ([`BENCH_SCHEMA_VERSION`]): each campaign runs under its own
/// telemetry [`Recorder`]; every workload is measured once per execution
/// backend (interpreter, then the compiled direct-threaded translator at
/// the same seed) and once per swept thread count (`--threads 1,4,16`
/// style; records are bit-identical across the sweep, only wall clock
/// moves). Rows carry the drained measurements — decline histograms,
/// software-TLB hit rates, the measured recovery-preparation fraction, the
/// compiled-vs-interp speedup, per-worker busy nanoseconds and the
/// work-stealing pool's batch/steal counters — next to the throughput
/// numbers, and a top-level `scaling` section condenses the sweep into
/// injections/s, speedup and parallel efficiency per (workload, engine).
///
/// Schema v6 adds a top-level `store` section: one workload's coverage
/// campaign timed cold through a fresh content-addressed store and again
/// warm, recording hit/miss/residual accounting and the warm speedup.
fn bench_json(injections: usize, seed: u64, cli_threads: &[usize]) {
    use std::fmt::Write as _;
    use std::time::Instant;
    let sweep: Vec<usize> =
        if cli_threads.is_empty() { vec![1, 4, 16] } else { cli_threads.to_vec() };
    let host_cpus = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!(
        "[repro] timing CARE coverage campaigns ({injections} injections/workload, \
         both engines, threads {sweep:?}, host cpus {host_cpus})..."
    );
    // Prepare once: the sweep re-times the same campaigns, it does not
    // re-profile the workloads.
    let prepared: Vec<PreparedWorkload> =
        section2_workloads().iter().map(|w| prepare(w, OptLevel::O1)).collect();
    let mut entries = Vec::new();
    // Throughput per (workload, engine) across the sweep, for "scaling".
    type ScaleSeries = (&'static str, &'static str, Vec<(usize, f64)>);
    let mut scale: Vec<ScaleSeries> = Vec::new();
    // Suite-wide accumulators for the top-level "telemetry" section.
    // Recovery/TLB work is engine- and thread-independent (records are
    // bit-identical), so accumulate from the first sweep's interpreter
    // rows only.
    let (mut all_act, mut all_over98) = (0u64, 0u64);
    let (mut all_prep_sum, mut all_prep_count) = (0u64, 0u64);
    let (mut all_acc, mut all_miss) = (0u64, 0u64);
    for (ti, &threads) in sweep.iter().enumerate() {
        for p in &prepared {
            let mut interp_ips = 0.0f64;
            for engine in [EngineKind::Interp, EngineKind::Compiled] {
                let rec = Recorder::new();
                let t0 = Instant::now();
                let cfg = coverage_cfg(injections, FaultModel::SingleBit, seed, engine);
                let (r, _) =
                    rayon::with_threads(threads, || run_campaign(p, &cfg, Some(&rec), None));
                let wall_s = t0.elapsed().as_secs_f64();
                let tel = rec.drain();
                let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
                let (loads, stores) = (ctr("tlb.loads"), ctr("tlb.stores"));
                let misses = ctr("tlb.read_misses") + ctr("tlb.write_misses");
                let accesses = loads + stores;
                let hit_rate = if accesses == 0 {
                    1.0
                } else {
                    (accesses - misses) as f64 / accesses as f64
                };
                let prep = tel.hists.get("recovery.prep_bp");
                let prep_mean = prep.map_or(0.0, |h| h.mean() / 10_000.0);
                let prep_min = prep.map_or(0.0, |h| h.min() as f64 / 10_000.0);
                let instr_per_sec = r.simulated_steps as f64 / wall_s;
                let inj_per_sec = injections as f64 / wall_s;
                let speedup = match engine {
                    EngineKind::Interp => {
                        interp_ips = instr_per_sec;
                        String::new()
                    }
                    EngineKind::Compiled => {
                        format!(
                            "      \"speedup_vs_interp\": {:.2},\n",
                            instr_per_sec / interp_ips.max(1e-9)
                        )
                    }
                };
                if ti == 0 && engine == EngineKind::Interp {
                    all_act += ctr("recovery.activations");
                    all_over98 += ctr("recovery.prep_over_98pct");
                    all_prep_sum += prep.map_or(0, |h| h.sum());
                    all_prep_count += prep.map_or(0, |h| h.count());
                    all_acc += accesses;
                    all_miss += misses;
                }
                // Per-worker utilization: each telemetry shard is one
                // thread; its `worker.busy_ns` subtotal is the time that
                // thread spent inside suffix/CARE jobs.
                let mut busy: Vec<u64> = tel
                    .per_shard_counters
                    .iter()
                    .filter_map(|m| m.get("worker.busy_ns").copied())
                    .filter(|&v| v > 0)
                    .collect();
                busy.sort_unstable_by(|a, b| b.cmp(a));
                let busy_json =
                    busy.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
                let declines = decline_rows(&r)
                    .iter()
                    .map(|(k, n)| format!("\"{k}\": {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let mut e = String::new();
                write!(
                    e,
                    "    {{\n      \"workload\": \"{}\",\n      \"opt_level\": \"O1\",\n      \
                     \"engine\": \"{}\",\n      \"threads\": {},\n      \
                     \"injections\": {},\n      \"classified\": {},\n      \
                     \"care_evaluated\": {},\n      \"care_covered\": {},\n      \
                     \"wall_s\": {:.6},\n      \"injections_per_sec\": {:.2},\n      \
                     \"simulated_instructions\": {},\n      \
                     \"simulated_instructions_per_sec\": {:.0},\n{}      \
                     \"sim_steps_prefix\": {},\n      \"sim_steps_suffix\": {},\n      \
                     \"sim_steps_care\": {},\n      \"trellis_snapshots\": {},\n      \
                     \"cursor_shards\": {},\n      \
                     \"workers_busy_ns\": [{}],\n      \
                     \"pool\": {{\"chunks\": {}, \"steals\": {}}},\n      \
                     \"declines\": {{{}}},\n      \
                     \"tlb\": {{\"loads\": {}, \"stores\": {}, \"read_misses\": {}, \
                     \"write_misses\": {}, \"hit_rate\": {:.6}}},\n      \
                     \"recovery\": {{\"activations\": {}, \"recovered\": {}, \
                     \"prep_fraction_mean\": {:.4}, \
                     \"prep_fraction_min\": {:.4}, \"prep_over_98pct\": {}}}\n    }}",
                    p.name,
                    engine.name(),
                    threads,
                    injections,
                    r.total(),
                    r.care_evaluated,
                    r.care_covered,
                    wall_s,
                    inj_per_sec,
                    r.simulated_steps,
                    instr_per_sec,
                    speedup,
                    r.steps_prefix,
                    r.steps_suffix,
                    r.steps_care,
                    r.trellis_snapshots,
                    r.cursor_shards,
                    busy_json,
                    ctr("pool.chunks"),
                    ctr("pool.steals"),
                    declines,
                    loads,
                    stores,
                    ctr("tlb.read_misses"),
                    ctr("tlb.write_misses"),
                    hit_rate,
                    ctr("recovery.activations"),
                    ctr("recovery.recovered"),
                    prep_mean,
                    prep_min,
                    ctr("recovery.prep_over_98pct"),
                )
                .unwrap();
                eprintln!(
                    "[repro]   {} [{} x{}]: {:.2} injections/sec, {:.2e} simulated instrs/sec, \
                     {} busy workers, TLB hit rate {:.4}",
                    p.name,
                    engine.name(),
                    threads,
                    inj_per_sec,
                    instr_per_sec,
                    busy.len(),
                    hit_rate,
                );
                entries.push(e);
                match scale.iter_mut().find(|(w, en, _)| *w == p.name && *en == engine.name()) {
                    Some((_, _, points)) => points.push((threads, inj_per_sec)),
                    None => scale.push((p.name, engine.name(), vec![(threads, inj_per_sec)])),
                }
            }
        }
    }
    let suite_prep = if all_prep_count == 0 {
        0.0
    } else {
        all_prep_sum as f64 / all_prep_count as f64 / 10_000.0
    };
    let suite_hit = if all_acc == 0 {
        1.0
    } else {
        (all_acc - all_miss) as f64 / all_acc as f64
    };
    // The scaling section: per (workload, engine), throughput across the
    // sweep normalised to the first swept thread count.
    let scaling = scale
        .iter()
        .map(|(w, en, points)| {
            let (t0, ips0) = points[0];
            let pts = points
                .iter()
                .map(|&(t, ips)| {
                    let speedup = ips / ips0.max(1e-9);
                    format!(
                        "        {{\"threads\": {t}, \"injections_per_sec\": {ips:.2}, \
                         \"speedup\": {speedup:.3}, \"efficiency\": {:.3}}}",
                        speedup * t0 as f64 / t as f64
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\n      \"workload\": \"{w}\",\n      \"engine\": \"{en}\",\n      \
                 \"points\": [\n{pts}\n      ]\n    }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    // v6 `store` section: the first prepared workload run cold through a
    // fresh content-addressed store, then immediately warm. The warm run
    // reuses every record (0 residual) and must reproduce the cold report
    // bit-identically — the section records both wall times and the
    // measured speedup of skipping execution entirely.
    let store_section = {
        let p = &prepared[0];
        let dir = std::env::temp_dir().join(format!("care-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open bench store");
        eprintln!("[repro] timing warm-vs-cold store runs on {}...", p.name);
        let cfg = coverage_cfg(injections, FaultModel::SingleBit, seed, EngineKind::Interp);
        let t0 = Instant::now();
        let (cold_report, cold) = run_campaign(p, &cfg, None, Some(&store));
        let cold_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (warm_report, warm) = run_campaign(p, &cfg, None, Some(&store));
        let warm_s = t1.elapsed().as_secs_f64();
        let (cold, warm) = (cold.expect("cold store run"), warm.expect("warm store run"));
        let identical = warm_report == cold_report;
        assert!(identical, "warm store run must reproduce the cold report bit-identically");
        eprintln!(
            "[repro]   cold {cold_s:.3}s ({} residual), warm {warm_s:.3}s ({} residual, \
             {} hits) = {:.1}x",
            cold.misses,
            warm.misses,
            warm.hits,
            cold_s / warm_s.max(1e-9),
        );
        let run_obj = |stats: &carestore::StoreStats, wall: f64| {
            format!(
                "{{\"wall_s\": {wall:.6}, \"hits\": {}, \"misses\": {}, \
                 \"known_skips\": {}, \"residual_fraction\": {:.6}}}",
                stats.hits,
                stats.misses,
                stats.known_skips,
                stats.residual_fraction(injections),
            )
        };
        let section = format!(
            "{{\n    \"workload\": \"{}\",\n    \"injections\": {injections},\n    \
             \"cold\": {},\n    \"warm\": {},\n    \
             \"warm_speedup\": {:.2},\n    \"reports_identical\": {identical}\n  }}",
            p.name,
            run_obj(&cold, cold_s),
            run_obj(&warm, warm_s),
            cold_s / warm_s.max(1e-9),
        );
        let _ = std::fs::remove_dir_all(&dir);
        section
    };
    let threads_json = sweep.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \
         \"campaign\": \"coverage (evaluate_care, app_only)\",\n  \
         \"seed\": {seed},\n  \
         \"threads\": [{threads_json}],\n  \"host_cpus\": {host_cpus},\n  \
         \"telemetry\": {{\n    \
         \"schema_version\": {},\n    \"recovery_activations\": {all_act},\n    \
         \"recoveries\": {all_prep_count},\n    \
         \"prep_fraction_mean\": {suite_prep:.4},\n    \
         \"prep_over_98pct\": {all_over98},\n    \
         \"tlb_hit_rate\": {suite_hit:.6}\n  }},\n  \
         \"store\": {store_section},\n  \
         \"scaling\": [\n{scaling}\n  ],\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        telemetry::SCHEMA_VERSION,
        entries.join(",\n")
    );
    std::fs::write("BENCH_campaign.json", json).expect("write BENCH_campaign.json");
    eprintln!("[repro] wrote BENCH_campaign.json");
}

/// Shared option surface of `repro serve` and `repro submit`.
struct ServeArgs {
    addr: String,
    /// Whether `--addr` was given explicitly (submit --bench spawns a
    /// loopback server only when it was not).
    addr_given: bool,
    budget_cap: usize,
    max_queue: usize,
    /// `serve --store DIR`: back the server's jobs with a record store.
    store_dir: Option<std::path::PathBuf>,
    spec: careserve::JobSpec,
    stats_only: bool,
    bench: bool,
    clients: usize,
    jobs: usize,
}

fn parse_serve_args(args: &[String]) -> ServeArgs {
    let mut out = ServeArgs {
        addr: "127.0.0.1:4150".to_string(),
        addr_given: false,
        budget_cap: 0,
        max_queue: 8,
        store_dir: None,
        spec: careserve::JobSpec::default(),
        stats_only: false,
        bench: false,
        clients: 4,
        jobs: 6,
    };
    let mut workload: Option<String> = None;
    let mut params: Option<Vec<i64>> = None;
    let mut it = args.iter();
    let usage = "see repro --help";
    fn num(it: &mut std::slice::Iter<'_, String>, what: &str) -> usize {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{what} N"))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                out.addr = it.next().unwrap_or_else(|| panic!("--addr HOST:PORT")).clone();
                out.addr_given = true;
            }
            "--budget-cap" => out.budget_cap = num(&mut it, "--budget-cap"),
            "--max-queue" => out.max_queue = num(&mut it, "--max-queue"),
            "--store" => {
                out.store_dir =
                    Some(it.next().unwrap_or_else(|| panic!("--store DIR")).into());
            }
            "--injections" => out.spec.injections = num(&mut it, "--injections"),
            "--job-threads" => out.spec.threads = num(&mut it, "--job-threads"),
            "--clients" => out.clients = num(&mut it, "--clients").max(1),
            "--jobs" => out.jobs = num(&mut it, "--jobs").max(1),
            "--seed" => {
                out.spec.seed =
                    it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--workload" => workload = Some(it.next().expect("--workload NAME").clone()),
            "--params" => {
                params = Some(
                    it.next()
                        .expect("--params A,B,..")
                        .split(',')
                        .map(|v| v.trim().parse().expect("--params takes integers"))
                        .collect(),
                );
            }
            "--engine" => {
                out.spec.engine =
                    it.next().and_then(|v| v.parse().ok()).expect("--engine interp|compiled");
            }
            "--opt" => match it.next().map(String::as_str) {
                Some("O0") | Some("o0") => out.spec.opt = OptLevel::O0,
                Some("O1") | Some("o1") => out.spec.opt = OptLevel::O1,
                _ => panic!("--opt O0|O1"),
            },
            "--stats" => out.stats_only = true,
            "--bench" => out.bench = true,
            other => panic!("unknown option '{other}' ({usage})"),
        }
    }
    if workload.is_some() || params.is_some() {
        let careserve::WorkloadSel::Named { name, params: default_params } = out.spec.workload
        else {
            unreachable!("JobSpec::default is a named workload");
        };
        // `--workload X` without `--params` means X's builder defaults
        // (empty params), not the default spec's hpccg sizing.
        let params = params.unwrap_or(if workload.is_some() { vec![] } else { default_params });
        out.spec.workload =
            careserve::WorkloadSel::Named { name: workload.unwrap_or(name), params };
    }
    out
}

/// `repro serve`: run the campaign server until the process is killed.
fn cmd_serve(args: &[String]) {
    let a = parse_serve_args(args);
    let store_note = a
        .store_dir
        .as_ref()
        .map_or(String::new(), |d| format!(", store {}", d.display()));
    let handle = careserve::CampaignServer::start(careserve::ServerConfig {
        addr: a.addr,
        budget_cap: a.budget_cap,
        max_queue: a.max_queue,
        store_dir: a.store_dir,
        ..careserve::ServerConfig::default()
    })
    .expect("bind campaign server");
    println!(
        "[repro] careserve v{} listening on {} (budget cap {}, queue {}{store_note})",
        careserve::PROTO_VERSION,
        handle.addr(),
        if a.budget_cap == 0 { "pool width".to_string() } else { a.budget_cap.to_string() },
        a.max_queue,
    );
    // Serve until killed; the accept loop owns all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn print_stats(s: &careserve::StatsSnapshot) {
    let mut t = Table::new("careserve stats", &["Counter", "Value"]);
    for (name, v) in [
        ("jobs accepted", s.jobs_accepted),
        ("jobs rejected", s.jobs_rejected),
        ("jobs completed", s.jobs_completed),
        ("jobs failed", s.jobs_failed),
        ("jobs cancelled", s.jobs_cancelled),
        ("queue depth", s.queue_depth),
        ("in-flight budget", s.inflight_budget),
        ("budget cap", s.budget_cap),
        ("campaign cache hits", s.cache_hits),
        ("campaign cache misses", s.cache_misses),
        ("campaign cache evictions", s.cache_evictions),
        ("records streamed", s.records_streamed),
    ] {
        t.row(vec![name.to_string(), v.to_string()]);
    }
    println!("{}", t.render());
}

/// `repro triage [--store DIR]`: cluster every recorded outcome in a store
/// by `(kind, decline, fault site)` — cross-run triage without re-running
/// a single injection.
fn cmd_triage(args: &[String]) {
    let mut dir = std::path::PathBuf::from("care_store");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => dir = it.next().unwrap_or_else(|| panic!("--store DIR")).into(),
            other => panic!("unknown option '{other}' (see repro --help)"),
        }
    }
    let store = Store::open(&dir)
        .unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()));
    let clusters = carestore::triage(&store)
        .unwrap_or_else(|e| panic!("triage {}: {e}", dir.display()));
    let mut t = Table::new(
        &format!("store triage: {} ({} clusters)", dir.display(), clusters.len()),
        &["Outcome", "Decline", "Site (mod,func,inst)", "Records", "Campaigns"],
    );
    let total: u64 = clusters.iter().map(|c| c.count).sum();
    for c in &clusters {
        t.row(vec![
            c.outcome.clone(),
            c.decline.clone(),
            format!("{},{},{}", c.site.0, c.site.1, c.site.2),
            c.count.to_string(),
            c.campaigns.to_string(),
        ]);
    }
    t.row(vec!["total".into(), "".into(), "".into(), total.to_string(), "".into()]);
    println!("{}", t.render());
}

/// `repro submit`: one job (or `--stats`, or the `--bench` batch) against a
/// campaign server.
fn cmd_submit(args: &[String]) {
    let a = parse_serve_args(args);
    if a.bench {
        return submit_bench(a);
    }
    if a.stats_only {
        let s = careserve::fetch_stats(&a.addr)
            .unwrap_or_else(|e| panic!("stats from {}: {e}", a.addr));
        print_stats(&s);
        return;
    }
    let t0 = std::time::Instant::now();
    let out = careserve::submit(&a.addr, &a.spec)
        .unwrap_or_else(|e| panic!("submit to {}: {e}", a.addr));
    let wall = t0.elapsed().as_secs_f64();
    let r = &out.report;
    let workload = match &a.spec.workload {
        careserve::WorkloadSel::Named { name, params } => format!("{name} {params:?}"),
        careserve::WorkloadSel::Inline { .. } => "inline".to_string(),
    };
    let mut t = Table::new(
        &format!("job {} on {} ({workload})", out.job_id, a.addr),
        &["Metric", "Value"],
    );
    t.row(vec!["classified".into(), r.total().to_string()]);
    t.row(vec!["benign".into(), r.benign.to_string()]);
    t.row(vec!["soft failures".into(), r.soft_failure.to_string()]);
    t.row(vec!["sdc".into(), r.sdc.to_string()]);
    t.row(vec!["hang".into(), r.hang.to_string()]);
    t.row(vec!["CARE evaluated".into(), r.care_evaluated.to_string()]);
    t.row(vec!["CARE covered".into(), r.care_covered.to_string()]);
    t.row(vec!["coverage".into(), pct(r.coverage())]);
    t.row(vec!["records streamed".into(), r.records.len().to_string()]);
    t.row(vec!["telemetry lines".into(), out.telemetry.len().to_string()]);
    t.row(vec!["progress frames".into(), out.progress_frames.to_string()]);
    t.row(vec!["wall (s)".into(), format!("{wall:.3}")]);
    println!("{}", t.render());
}

/// `repro submit --bench`: time a concurrent small-job batch and merge a
/// `service` section into `BENCH_campaign.json` (schema v5).
fn submit_bench(a: ServeArgs) {
    // A loopback server unless the caller pointed at a live one; owning the
    // handle also gives us its queue-depth/job-duration histograms.
    let handle = if a.addr_given {
        None
    } else {
        Some(
            careserve::CampaignServer::start(careserve::ServerConfig {
                budget_cap: a.budget_cap,
                max_queue: a.max_queue.max(a.clients),
                ..careserve::ServerConfig::default()
            })
            .expect("bind loopback campaign server"),
        )
    };
    let addr = handle.as_ref().map_or(a.addr.clone(), |h| h.addr().to_string());
    let before = careserve::fetch_stats(&addr)
        .unwrap_or_else(|e| panic!("stats from {addr}: {e}"));
    let workload_name = match &a.spec.workload {
        careserve::WorkloadSel::Named { name, .. } => name.clone(),
        careserve::WorkloadSel::Inline { .. } => "inline".to_string(),
    };
    eprintln!(
        "[repro] service bench: {} clients x {} jobs of {workload_name} \
         ({} injections/job) against {addr}...",
        a.clients, a.jobs, a.spec.injections,
    );
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..a.clients {
            let (addr, spec, jobs) = (&addr, &a.spec, a.jobs);
            scope.spawn(move || {
                for _ in 0..jobs {
                    careserve::submit(addr, spec).expect("bench job");
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = careserve::fetch_stats(&addr)
        .unwrap_or_else(|e| panic!("stats from {addr}: {e}"));
    let total_jobs = a.clients * a.jobs;
    let jobs_per_sec = total_jobs as f64 / wall_s;
    // Queue-depth and job-duration histograms come from the loopback
    // handle's telemetry; against a remote server only the stats counters
    // are visible, so those fields report zero samples.
    let (qd, job_ms) = handle.as_ref().map_or(((0, 0.0, 0), (0.0, 0.0)), |h| {
        let tel = h.telemetry();
        let qd = tel
            .hists
            .get("server.queue_depth")
            .map_or((0, 0.0, 0), |h| (h.count(), h.mean(), h.max()));
        let jm = tel
            .hists
            .get("server.job_ns")
            .map_or((0.0, 0.0), |h| (h.mean() / 1e6, h.max() as f64 / 1e6));
        (qd, jm)
    });
    let service = format!(
        "{{\n    \"workload\": \"{workload_name}\",\n    \
         \"clients\": {},\n    \"jobs_per_client\": {},\n    \"jobs\": {total_jobs},\n    \
         \"injections_per_job\": {},\n    \"wall_s\": {wall_s:.6},\n    \
         \"jobs_per_sec\": {jobs_per_sec:.2},\n    \
         \"jobs_completed\": {},\n    \"jobs_rejected\": {},\n    \
         \"records_streamed\": {},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {},\n    \
         \"queue_depth\": {{\"samples\": {}, \"mean\": {:.3}, \"max\": {}}},\n    \
         \"job_ms\": {{\"mean\": {:.3}, \"max\": {:.3}}}\n  }}",
        a.clients,
        a.jobs,
        a.spec.injections,
        after.jobs_completed - before.jobs_completed,
        after.jobs_rejected - before.jobs_rejected,
        after.records_streamed - before.records_streamed,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        qd.0,
        qd.1,
        qd.2,
        job_ms.0,
        job_ms.1,
    );
    eprintln!(
        "[repro]   {total_jobs} jobs in {wall_s:.2}s = {jobs_per_sec:.2} jobs/s \
         (queue depth mean {:.2} max {}, cache {} hits / {} misses)",
        qd.1,
        qd.2,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    merge_service_section("BENCH_campaign.json", &service);
    eprintln!("[repro] merged service section into BENCH_campaign.json");
}

/// Splice `"service": <obj>` into the BENCH document as a top-level key,
/// replacing any existing one and stamping the current schema version.
/// Text-level because the hand-rolled JSON layer has no serializer; the
/// result is re-parsed before it is written, so a bad splice can never
/// produce a corrupt artefact.
fn merge_service_section(path: &str, service: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|_| format!("{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION}\n}}\n"));
    let text = strip_top_level_key(&text, "service");
    // Stamp the (first, top-level) schema_version: merging into an artefact
    // written by an older bench-json must not leave a stale version pinned.
    let text = match text.find("\"schema_version\":") {
        Some(at) => {
            let val_start = at + "\"schema_version\":".len();
            let val_len = text[val_start..]
                .find([',', '\n', '}'])
                .expect("schema_version value is terminated");
            format!(
                "{}\"schema_version\": {BENCH_SCHEMA_VERSION}{}",
                &text[..at],
                &text[val_start + val_len..]
            )
        }
        None => text,
    };
    let brace = text.find('{').expect("BENCH document opens an object");
    let merged = format!(
        "{}{{\n  \"service\": {service},{}",
        &text[..brace],
        &text[brace + 1..]
    );
    telemetry::parse_json(&merged).expect("merged BENCH document parses");
    std::fs::write(path, merged).expect("write BENCH_campaign.json");
}

/// Remove a top-level `"key": <value>,?` entry from a JSON object document,
/// tracking string/escape state so braces inside strings cannot derail the
/// match. Returns the document unchanged when the key is absent.
fn strip_top_level_key(text: &str, key: &str) -> String {
    let bytes = text.as_bytes();
    let needle = format!("\"{key}\"");
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    let mut key_start = None;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                if depth == 1 && text[i..].starts_with(&needle) {
                    key_start = Some(i);
                    // Skip past the key string; the value scan below finds
                    // its extent.
                    i += needle.len();
                    break;
                }
                in_str = true;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    let Some(mut start) = key_start else { return text.to_string() };
    // Take the key's leading indent with it, so the splice leaves the next
    // line's own indentation intact.
    while start > 0 && bytes[start - 1] == b' ' {
        start -= 1;
    }
    // Scan the value: everything until depth returns to 1 and we pass the
    // value's trailing comma (or its closing position when it is last).
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    let mut end = None;
    let mut j = i;
    while j < bytes.len() {
        let c = bytes[j];
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            j += 1;
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => depth -= 1,
            b',' if depth == 0 => {
                end = Some(j + 1);
                break;
            }
            b'}' | b']' => {
                // End of the enclosing object: the key was last; drop the
                // comma that preceded it too.
                let before = text[..start].trim_end().trim_end_matches(',');
                return format!("{}{}", before, &text[j..]);
            }
            _ => {}
        }
        j += 1;
    }
    let end = end.expect("value extent found");
    // Swallow one following newline so the splice leaves no blank line.
    let end = end + text[end..].starts_with('\n') as usize;
    format!("{}{}", &text[..start], &text[end..])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("submit") => return cmd_submit(&argv[1..]),
        Some("triage") => return cmd_triage(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    // Pin the pool width for the whole invocation (the CARE_THREADS env var
    // is parsed once at startup, so mutating it here would be ignored).
    // Table/figure experiments run at the first listed count; `bench-json`
    // sweeps the whole list itself in nested scopes.
    match args.threads.first() {
        Some(&t) => rayon::with_threads(t, || run_experiments(&args)),
        None => run_experiments(&args),
    }
}

fn run_experiments(args: &Args) {
    let want = |name: &str| {
        args.experiments.iter().any(|e| e == name || e == "all")
    };

    // One recorder spans every experiment of the invocation; campaigns and
    // cluster simulations stream into it and `main` drains it at the end.
    let recorder = args.telemetry.as_ref().map(|_| Recorder::new());
    let rec = recorder.as_ref();

    // One store spans the invocation too (`--store DIR` / `--resume`);
    // every §2/§5 campaign consults it and appends its fresh records.
    let store = args.store.as_ref().map(|dir| {
        let s = Store::open(dir).unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()));
        eprintln!("[repro] campaigns backed by record store at {}", dir.display());
        s
    });
    let store = store.as_ref();

    // Explicit-only (not part of `all`): perf measurement artefact.
    if args.experiments.iter().any(|e| e == "bench-json") {
        bench_json(args.injections, args.seed, &args.threads);
        if args.experiments.iter().all(|e| e == "bench-json") {
            return;
        }
    }

    // §2 campaigns (single-bit, whole program) are shared by Tables 2-4.
    let mut s2: Option<Vec<(PreparedWorkload, CampaignReport)>> = None;
    let mut s2_reports = |inj: usize, seed: u64| -> Vec<(String, CampaignReport)> {
        if s2.is_none() {
            eprintln!("[repro] running §2 single-bit campaigns ({inj} injections/workload)...");
            s2 = Some(
                section2_workloads()
                    .iter()
                    .map(|w| {
                        let p = prepare(w, OptLevel::O0);
                        let cfg = manifestation_cfg(inj, FaultModel::SingleBit, seed, args.engine);
                        let r = run_reported(&p, &cfg, rec, store);
                        (p, r)
                    })
                    .collect(),
            );
        }
        s2.as_ref()
            .unwrap()
            .iter()
            .map(|(p, r)| (p.name.to_string(), r.clone()))
            .collect()
    };

    if want("table2") {
        let mut t = Table::new(
            "Table 2: overall outcomes of fault injections (single-bit)",
            &["Workload", "Benign", "SoftFailure", "SDC", "Hang"],
        );
        for (name, r) in s2_reports(args.injections, args.seed) {
            t.row(vec![
                name,
                r.benign.to_string(),
                r.soft_failure.to_string(),
                r.sdc.to_string(),
                r.hang.to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if want("table3") {
        let mut t = Table::new(
            "Table 3: breakdown of soft failures by symptom",
            &["Workload", "SIGSEGV", "SIGBUS", "SIGABRT", "Other"],
        );
        for (name, r) in s2_reports(args.injections, args.seed) {
            t.row(vec![
                name,
                r.signals[0].to_string(),
                r.signals[1].to_string(),
                r.signals[2].to_string(),
                r.signals[3].to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if want("table4") {
        let mut t = Table::new(
            "Table 4: manifestation-latency distribution of soft failures",
            &["Workload", "<=10", "11~50", "51~400", ">400"],
        );
        for (name, r) in s2_reports(args.injections, args.seed) {
            let total: usize = r.latency_buckets.iter().sum::<usize>().max(1);
            t.row(vec![
                name,
                pct(r.latency_buckets[0] as f64 / total as f64),
                pct(r.latency_buckets[1] as f64 / total as f64),
                pct(r.latency_buckets[2] as f64 / total as f64),
                pct(r.latency_buckets[3] as f64 / total as f64),
            ]);
        }
        println!("{}", t.render());
    }

    if want("table5") {
        let mut t = Table::new(
            "Table 5: memory accesses with multi-op address computations",
            &["", "HPCCG", "CoMD", "miniFE", "miniMD", "GTC-P"],
        );
        let mut frac = vec!["No. Insts".to_string()];
        let mut avg = vec!["Avg. No. ops".to_string()];
        let order = ["HPCCG", "CoMD", "miniFE", "miniMD", "GTC-P"];
        let mut by_name = HashMap::new();
        for w in section2_workloads() {
            // The paper's Table 5 counts address computations of the *real*
            // data accesses; measure on the optimised IR, where scalar
            // stack-slot traffic (an -O0 artefact) has been promoted away.
            let app = care::compile(&w.module, OptLevel::O1);
            by_name.insert(w.name, app.armor.stats.clone());
        }
        for name in order {
            let s = &by_name[name];
            frac.push(pct(s.multi_op_fraction()));
            avg.push(format!("{:.2}", s.avg_addr_ops()));
        }
        t.row(frac);
        t.row(avg);
        println!("{}", t.render());
    }

    if want("table8") {
        let mut t = Table::new(
            "Table 8: statistics of recovery kernels",
            &[
                "",
                "Num. kernels",
                "Avg IR instrs",
                "Normal compile (s)",
                "Armor overhead (s)",
                "Liveness share",
            ],
        );
        for w in section5_workloads() {
            let app = care::compile(&w.module, OptLevel::O0);
            let s = &app.armor.stats;
            t.row(vec![
                w.name.to_string(),
                s.num_kernels.to_string(),
                format!("{:.2}", s.avg_kernel_instrs()),
                format!("{:.4}", app.build.normal_compile_s),
                format!("{:.4}", s.pass_seconds),
                pct(s.liveness_seconds / s.pass_seconds.max(1e-12)),
            ]);
        }
        println!("{}", t.render());
    }

    // Figure 7 + 9 share the §5 coverage campaigns.
    let mut cov: Option<Vec<(String, String, CampaignReport)>> = None;
    let mut cov_reports = |inj: usize, seed: u64| -> Vec<(String, String, CampaignReport)> {
        if cov.is_none() {
            eprintln!("[repro] running §5 coverage campaigns (O0+O1, {inj} injections/workload)...");
            let mut all = Vec::new();
            for w in section5_workloads() {
                for level in [OptLevel::O0, OptLevel::O1] {
                    let p = prepare(&w, level);
                    let cfg = coverage_cfg(inj, FaultModel::SingleBit, seed, args.engine);
                    let r = run_reported(&p, &cfg, rec, store);
                    all.push((w.name.to_string(), level.to_string(), r));
                }
            }
            cov = Some(all);
        }
        cov.as_ref().unwrap().clone()
    };

    if want("fig7") {
        let mut t = Table::new(
            "Figure 7: fault coverage of CARE (single-bit)",
            &["Workload", "Opt", "SIGSEGV evald", "Recovered", "Coverage"],
        );
        let mut sum = 0.0;
        let mut n = 0;
        for (name, level, r) in cov_reports(args.injections, args.seed) {
            t.row(vec![
                name.clone(),
                level.clone(),
                r.care_evaluated.to_string(),
                r.care_covered.to_string(),
                pct(r.coverage()),
            ]);
            sum += r.coverage();
            n += 1;
        }
        t.row(vec![
            "average".into(),
            "".into(),
            "".into(),
            "".into(),
            pct(sum / n.max(1) as f64),
        ]);
        println!("{}", t.render());
    }

    if want("fig9") {
        let mut t = Table::new(
            "Figure 9: recovery time (modelled ms per recovered run)",
            &["Workload", "Opt", "Mean (ms)", "Activations/run"],
        );
        for (name, level, r) in cov_reports(args.injections, args.seed) {
            let runs = r.recovery_times_ms.len().max(1);
            t.row(vec![
                name.clone(),
                level.clone(),
                format!("{:.1}", r.mean_recovery_ms()),
                format!("{:.2}", r.total_recoveries as f64 / runs as f64),
            ]);
        }
        println!("{}", t.render());
    }

    if want("declines") {
        let mut t = Table::new(
            "Decline reasons: why uncovered SIGSEGV faults were not recovered",
            &["Workload", "Opt", "Decline kind", "Count"],
        );
        let mut total = 0usize;
        for (name, level, r) in cov_reports(args.injections, args.seed) {
            for (kind, n) in decline_rows(&r) {
                t.row(vec![name.clone(), level.clone(), kind.to_string(), n.to_string()]);
                total += n;
            }
        }
        t.row(vec!["total".into(), "".into(), "".into(), total.to_string()]);
        println!("{}", t.render());
    }

    if want("fig10") {
        eprintln!("[repro] running rank-0 recovery + 512-rank BSP simulation...");
        let w = workloads::gtcp::default();
        let r0 = cluster::rank0::run_rank0_with_fault(&w, OptLevel::O0, args.seed, 200)
            .expect("a CARE-recoverable fault on rank 0");
        let cfg = ClusterConfig::default();
        let base = simulate_fault_free(&cfg);
        let care_res = Resilience::Care { events: vec![(cfg.timesteps / 2, r0.recovery_ms)] };
        let care_run = match rec {
            Some(h) => simulate_faulty_traced(&cfg, cfg.timesteps / 2, &care_res, h),
            None => simulate_faulty(&cfg, cfg.timesteps / 2, &care_res),
        };
        let mut t = Table::new(
            "Figure 10: 512-rank x 6-thread GTC-P job, fault on rank 0",
            &["Scenario", "Makespan (s)", "Overhead (s)", "Restart (s)"],
        );
        let sec = |ms: f64| format!("{:.2}", ms / 1000.0);
        t.row(vec!["fault-free".into(), sec(base.makespan_ms), "0.00".into(), "0.00".into()]);
        t.row(vec![
            format!("CARE ({} recoveries, {:.1} ms)", r0.recoveries, r0.recovery_ms),
            sec(care_run.makespan_ms),
            sec(care_run.overhead_ms),
            sec(care_run.restart_ms),
        ]);
        for interval in [20u64, 50, 75] {
            // Average over fault positions, as the paper's per-interval
            // recovery times are averages (14.4 / 25.9 / 37.6 s).
            let mut mk = 0.0;
            let mut ov = 0.0;
            let mut rs = 0.0;
            let mut n = 0.0;
            for fs in (0..cfg.timesteps).step_by(7) {
                let cr = simulate_faulty(
                    &cfg,
                    fs,
                    &Resilience::CheckpointRestart {
                        interval,
                        write_ms: 800.0,
                        load_ms: 6600.0,
                        requeue_ms: 0.0,
                    },
                );
                mk += cr.makespan_ms;
                ov += cr.overhead_ms;
                rs += cr.restart_ms;
                n += 1.0;
            }
            t.row(vec![
                format!("C/R every {interval} steps (avg)"),
                sec(mk / n),
                sec(ov / n),
                sec(rs / n),
            ]);
        }
        println!("{}", t.render());
    }

    if want("table9") {
        eprintln!("[repro] running BLAS/sblat1 shared-library campaign...");
        let setup = workloads::blas::setup();
        let lib_app = care::compile(&setup.lib, OptLevel::O0);
        let drv_app = care::compile(&setup.driver.module, OptLevel::O0);
        let campaign = faultsim::Campaign::prepare(
            &setup.driver,
            drv_app.clone(),
            vec![lib_app.clone()],
        );
        let blas_cfg = CampaignConfig {
            injections: args.injections,
            evaluate_care: true,
            app_only: false, // faults may land in the library too
            seed: args.seed,
            engine: args.engine,
            ..CampaignConfig::default()
        };
        let r = match rec {
            Some(h) => campaign.run_with_hooks(&blas_cfg, h),
            None => campaign.run(&blas_cfg),
        };
        let mut t = Table::new(
            "Table 9: statistics and performance for sblat1/BLAS",
            &["", "# Kernels", "Normal compile (s)", "Armor overhead (s)", "Coverage", "Recovery (ms)"],
        );
        t.row(vec![
            "BLAS".into(),
            lib_app.armor.stats.num_kernels.to_string(),
            format!("{:.4}", lib_app.build.normal_compile_s),
            format!("{:.4}", lib_app.armor.stats.pass_seconds),
            pct(r.coverage()),
            format!("{:.1}", r.mean_recovery_ms()),
        ]);
        t.row(vec![
            "sblat1".into(),
            drv_app.armor.stats.num_kernels.to_string(),
            format!("{:.4}", drv_app.build.normal_compile_s),
            format!("{:.4}", drv_app.armor.stats.pass_seconds),
            "".into(),
            "".into(),
        ]);
        println!("{}", t.render());
    }

    // Appendix: double-bit-flip model.
    let mut s2d: Option<Vec<(String, CampaignReport)>> = None;
    let mut s2d_reports = |inj: usize, seed: u64| -> Vec<(String, CampaignReport)> {
        if s2d.is_none() {
            eprintln!("[repro] running appendix double-bit campaigns...");
            s2d = Some(
                section2_workloads()
                    .iter()
                    .map(|w| {
                        let p = prepare(w, OptLevel::O0);
                        let cfg = manifestation_cfg(inj, FaultModel::DoubleBit, seed, args.engine);
                        let r = run_reported(&p, &cfg, rec, store);
                        (p.name.to_string(), r)
                    })
                    .collect(),
            );
        }
        s2d.as_ref().unwrap().clone()
    };

    if want("table10") {
        let mut t = Table::new(
            "Table 10: overall outcomes (double-bit-flip model)",
            &["Workload", "Benign", "SoftFailure", "SDC", "Hang"],
        );
        for (name, r) in s2d_reports(args.injections, args.seed) {
            t.row(vec![
                name.clone(),
                r.benign.to_string(),
                r.soft_failure.to_string(),
                r.sdc.to_string(),
                r.hang.to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if want("table11") {
        let mut t = Table::new(
            "Table 11: breakdown of soft failures (double-bit-flip model)",
            &["Workload", "SIGSEGV", "SIGBUS", "SIGABRT", "Other"],
        );
        for (name, r) in s2d_reports(args.injections, args.seed) {
            t.row(vec![
                name.clone(),
                r.signals[0].to_string(),
                r.signals[1].to_string(),
                r.signals[2].to_string(),
                r.signals[3].to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if want("fig12") {
        eprintln!("[repro] running double-bit coverage campaigns...");
        let mut t = Table::new(
            "Figure 12: fault coverage (double-bit-flip model)",
            &["Workload", "Opt", "SIGSEGV evald", "Recovered", "Coverage"],
        );
        let mut sum = 0.0;
        let mut n = 0;
        for w in section5_workloads() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let p = prepare(&w, level);
                let cfg =
                    coverage_cfg(args.injections, FaultModel::DoubleBit, args.seed, args.engine);
                let r = run_reported(&p, &cfg, rec, store);
                t.row(vec![
                    w.name.to_string(),
                    level.to_string(),
                    r.care_evaluated.to_string(),
                    r.care_covered.to_string(),
                    pct(r.coverage()),
                ]);
                sum += r.coverage();
                n += 1;
            }
        }
        t.row(vec![
            "average".into(),
            "".into(),
            "".into(),
            "".into(),
            pct(sum / n.max(1) as f64),
        ]);
        println!("{}", t.render());
    }

    if let (Some(path), Some(r)) = (&args.telemetry, recorder.as_ref()) {
        let report = r.drain();
        let jsonl = report.to_jsonl();
        // The writer and validator ship together; a failure here is a bug.
        telemetry::validate_jsonl(&jsonl).expect("telemetry JSONL failed self-validation");
        std::fs::write(path, &jsonl).expect("write telemetry JSONL");
        eprintln!("{}", report.summary_table());
        eprintln!(
            "[repro] wrote {} telemetry lines to {}",
            jsonl.lines().count(),
            path.display()
        );
    }
}
