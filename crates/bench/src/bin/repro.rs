//! `repro` — regenerate every table and figure of the CARE paper.
//!
//! The option surface is [`USAGE`] (printed by `repro --help`) and the
//! experiment names are [`EXPERIMENTS`]; neither is restated here.
//!
//! `serve` runs the `careserve` campaign server until killed. `submit`
//! sends one job to a running server and prints its report; `--stats`
//! fetches the server's counter snapshot instead.
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
//! The default injection count (300 per workload) keeps a full regeneration
//! to minutes on a laptop; pass `--injections 10000` for paper-scale
//! campaigns. All campaigns are deterministic in the seed, at any pool width
//! (`CARE_THREADS=N` pins it).
//!
//! `--telemetry OUT.jsonl` attaches a telemetry [`Recorder`] to every
//! campaign and cluster simulation, prints a summary table to stderr and
//! writes the full event stream as versioned JSONL. Telemetry never changes
//! campaign results — only observes them.

use bench::{
    coverage_cfg, decline_rows, manifestation_cfg, pct, prepare, run_campaign,
    section2_workloads, section5_workloads, PreparedWorkload, Table,
};
use carestore::Store;
use cluster::{simulate_fault_free, simulate_faulty, simulate_faulty_traced, ClusterConfig,
    Resilience};
use faultsim::{CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use std::collections::HashMap;
use std::path::PathBuf;
use telemetry::Recorder;

/// Every flag of every subcommand; `--help` prints this and nothing else
/// describes the option surface.
const USAGE: &str = "\
usage: repro [--injections N] [--seed S] [--engine interp|compiled]
             [--telemetry OUT.jsonl] [--store DIR | --resume] [EXPERIMENT]...
       repro serve  [--addr HOST:PORT] [--budget-cap N] [--max-queue N] [--store DIR]
       repro submit [--addr HOST:PORT] [--workload NAME] [--params A,B,..]
                    [--injections N] [--seed S] [--engine interp|compiled]
                    [--opt O0|O1] [--job-threads N] [--stats]
       repro triage [--store DIR]";

/// The experiment names `repro` accepts; `all` (the default) runs each.
const EXPERIMENTS: &[&str] = &[
    "table2", "table3", "table4", "table5", "table8", "table9", "table10", "table11",
    "fig7", "fig9", "fig10", "fig12", "declines", "all",
];

/// Every argument error ends here: one line on stderr, exit status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (see repro --help)");
    std::process::exit(2)
}

/// The value of `flag`: the next argument, parsed, or a usage error naming
/// `what` it should have been.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} takes {what}")))
}

struct Args {
    injections: usize,
    seed: u64,
    telemetry: Option<PathBuf>,
    engine: EngineKind,
    /// `--store DIR` / `--resume`: content-addressed record store.
    store: Option<PathBuf>,
    experiments: Vec<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        injections: 300,
        seed: 0xCA2E,
        telemetry: None,
        engine: EngineKind::default(),
        store: None,
        experiments: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--injections" => args.injections = value(&mut it, a, "a count"),
            "--seed" => args.seed = value(&mut it, a, "an integer"),
            "--telemetry" => args.telemetry = Some(value(&mut it, a, "a path")),
            "--store" => args.store = Some(value(&mut it, a, "a directory")),
            "--resume" => {
                args.store.get_or_insert_with(|| "care_store".into());
            }
            "--engine" => args.engine = value(&mut it, a, "interp|compiled"),
            "--help" | "-h" => {
                println!("{USAGE}\nexperiments: {}  (default: all)", EXPERIMENTS.join(" "));
                std::process::exit(0);
            }
            e if EXPERIMENTS.contains(&e) => args.experiments.push(e.to_string()),
            opt if opt.starts_with('-') => usage_error(&format!("unknown option '{opt}'")),
            e => usage_error(&format!("unknown experiment '{e}'")),
        }
    }
    if args.experiments.is_empty() {
        args.experiments.push("all".into());
    }
    args
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

/// Shared option surface of `repro serve` and `repro submit`.
struct ServeArgs {
    addr: String,
    budget_cap: usize,
    max_queue: usize,
    /// `serve --store DIR`: back the server's jobs with a record store.
    store_dir: Option<PathBuf>,
    spec: careserve::JobSpec,
    stats_only: bool,
}

fn parse_serve_args(args: &[String]) -> ServeArgs {
    let mut out = ServeArgs {
        addr: "127.0.0.1:4150".to_string(),
        budget_cap: 0,
        max_queue: 8,
        store_dir: None,
        spec: careserve::JobSpec::default(),
        stats_only: false,
    };
    let mut workload: Option<String> = None;
    let mut params: Option<Vec<i64>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => out.addr = value(&mut it, a, "HOST:PORT"),
            "--budget-cap" => out.budget_cap = value(&mut it, a, "a count"),
            "--max-queue" => out.max_queue = value(&mut it, a, "a count"),
            "--store" => out.store_dir = Some(value(&mut it, a, "a directory")),
            "--injections" => out.spec.injections = value(&mut it, a, "a count"),
            "--job-threads" => out.spec.threads = value(&mut it, a, "a count"),
            "--seed" => out.spec.seed = value(&mut it, a, "an integer"),
            "--workload" => workload = Some(value(&mut it, a, "a name")),
            "--params" => {
                let list: String = value(&mut it, a, "integers A,B,..");
                let parsed: Result<_, _> = list.split(',').map(|v| v.trim().parse()).collect();
                params =
                    Some(parsed.unwrap_or_else(|_| usage_error("--params takes integers A,B,..")));
            }
            "--engine" => out.spec.engine = value(&mut it, a, "interp|compiled"),
            "--opt" => match it.next().map(String::as_str) {
                Some("O0") | Some("o0") => out.spec.opt = OptLevel::O0,
                Some("O1") | Some("o1") => out.spec.opt = OptLevel::O1,
                _ => usage_error("--opt takes O0|O1"),
            },
            "--stats" => out.stats_only = true,
            other => usage_error(&format!("unknown option '{other}'")),
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
    let mut dir = PathBuf::from("care_store");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => dir = value(&mut it, a, "a directory"),
            other => usage_error(&format!("unknown option '{other}'")),
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

/// `repro submit`: one job (or `--stats`) against a campaign server.
fn cmd_submit(args: &[String]) {
    let a = parse_serve_args(args);
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&argv[1..]),
        Some("submit") => cmd_submit(&argv[1..]),
        Some("triage") => cmd_triage(&argv[1..]),
        _ => run_experiments(&parse_args(&argv)),
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
