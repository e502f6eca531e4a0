//! `repro` — regenerate every table and figure of the CARE paper.
//!
//! The option surface is [`USAGE`] (printed by `repro --help`); the
//! experiments — what each is called, what it runs, what it prints — are
//! [`bench::REGISTRY`]. Neither is restated here.
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

use bench::{pct, Session, Table, REGISTRY};
use carestore::Store;
use faultsim::EngineKind;
use opt::OptLevel;
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

/// The experiment half: parse the arguments into a [`Session`], print every
/// selected registry row in registry order, write out what the recorder saw.
/// The recorder (`--telemetry`) spans every experiment of the invocation;
/// the store (`--store DIR` / `--resume`) backs every keyed campaign.
fn cmd_experiments(argv: &[String]) {
    let mut session = Session::new(300, 0xCA2E, EngineKind::default());
    let (mut telemetry, mut store): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    let mut selected: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--injections" => session.injections = value(&mut it, a, "a count"),
            "--seed" => session.seed = value(&mut it, a, "an integer"),
            "--telemetry" => telemetry = Some(value(&mut it, a, "a path")),
            "--store" => store = Some(value(&mut it, a, "a directory")),
            "--resume" => store = store.or(Some("care_store".into())),
            "--engine" => session.engine = value(&mut it, a, "interp|compiled"),
            "--help" | "-h" => {
                let names = bench::experiment_names().join(" ");
                println!("{USAGE}\nexperiments: {names}  (default: all)");
                std::process::exit(0);
            }
            e if REGISTRY.iter().any(|x| x.selected_by(e)) => selected.push(e),
            opt if opt.starts_with('-') => usage_error(&format!("unknown option '{opt}'")),
            e => usage_error(&format!("unknown experiment '{e}'")),
        }
    }
    if selected.is_empty() {
        selected.push("all");
    }
    session.recorder = telemetry.as_ref().map(|_| Recorder::new());
    session.store = store.map(|dir| {
        let s = Store::open(&dir).unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()));
        eprintln!("[repro] campaigns backed by record store at {}", dir.display());
        s
    });
    for e in REGISTRY.iter().filter(|e| selected.iter().any(|a| e.selected_by(a))) {
        println!("{}", (e.run)(&session).render());
    }
    if let (Some(path), Some(r)) = (&telemetry, &session.recorder) {
        let report = r.drain();
        let jsonl = report.to_jsonl();
        // The writer and validator ship together; a failure here is a bug.
        telemetry::validate_jsonl(&jsonl).expect("telemetry JSONL failed self-validation");
        std::fs::write(path, &jsonl).expect("write telemetry JSONL");
        eprintln!("{}", report.summary_table());
        let lines = jsonl.lines().count();
        eprintln!("[repro] wrote {lines} telemetry lines to {}", path.display());
    }
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
    let store_note =
        a.store_dir.as_ref().map_or(String::new(), |d| format!(", store {}", d.display()));
    let handle = careserve::CampaignServer::start(careserve::ServerConfig {
        addr: a.addr,
        budget_cap: a.budget_cap,
        max_queue: a.max_queue,
        store_dir: a.store_dir,
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
    let store = Store::open(&dir).unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()));
    let clusters =
        carestore::triage(&store).unwrap_or_else(|e| panic!("triage {}: {e}", dir.display()));
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
    let out =
        careserve::submit(&a.addr, &a.spec).unwrap_or_else(|e| panic!("submit to {}: {e}", a.addr));
    let wall = t0.elapsed().as_secs_f64();
    let r = &out.report;
    let workload = match &a.spec.workload {
        careserve::WorkloadSel::Named { name, params } => format!("{name} {params:?}"),
        careserve::WorkloadSel::Inline { .. } => "inline".to_string(),
    };
    let mut t =
        Table::new(&format!("job {} on {} ({workload})", out.job_id, a.addr), &["Metric", "Value"]);
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
        _ => cmd_experiments(&argv),
    }
}
