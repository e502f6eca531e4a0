//! The only module that names the measured crates.
//!
//! Everything the harness does to the system under test goes through here,
//! through public functions only, with configs built by
//! `..Default::default()` so a new config field does not break the
//! benchmark. The end-to-end workloads use the narrow product surface
//! (`workloads::all`, `care::compile`, `Campaign::prepare/run`,
//! `Store::run_campaign`, `CampaignServer::start`, `careserve::submit`);
//! the unrolled traced jobs and [`probes`] reach one level below it to
//! time single layers.

pub mod probes;

use crate::spans::Tracer;
use std::path::{Path, PathBuf};

pub use care::CompiledApp;
pub use careserve::{JobSpec, ServerHandle, StatsSnapshot};
pub use carestore::{CampaignKey, Store, StoreStats};
pub use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind};
pub use telemetry::{Json, TelemetryReport};
pub use workloads::Workload as Program;

use opt::OptLevel;

/// Wire names of `workloads::all()`, in its order.
pub const PROGRAM_NAMES: [&str; 5] = ["hpccg", "comd", "minife", "minimd", "gtcp"];
/// Indexes into [`PROGRAM_NAMES`].
pub const HPCCG: usize = 0;
pub const MINIFE: usize = 2;
pub const MINIMD: usize = 3;
pub const GTCP: usize = 4;

/// Pin the work-stealing pool's width for this process. Must run before
/// anything touches the pool: `CARE_THREADS` is parsed once and cached.
pub fn pin_pool_width(width: usize) {
    std::env::set_var("CARE_THREADS", width.to_string());
    assert_eq!(rayon::current_num_threads(), width, "pool width did not pin");
}

pub fn other_engine(e: EngineKind) -> EngineKind {
    match e {
        EngineKind::Interp => EngineKind::Compiled,
        EngineKind::Compiled => EngineKind::Interp,
    }
}

// ---------------------------------------------------------------------------
// Build → compile → prepare.

pub fn programs(tr: &Tracer) -> Vec<Program> {
    tr.span("workloads.build", workloads::all)
}

pub fn compile(tr: &Tracer, p: &Program) -> CompiledApp {
    tr.span("care.compile", || care::compile(&p.module, OptLevel::O1))
}

/// `care::compile` taken apart, one span per pass. Produces the same app.
pub fn compile_unrolled(tr: &Tracer, p: &Program) -> CompiledApp {
    let mut ir = p.module.clone();
    let opt_stats = tr.span("opt.optimize", || opt::optimize(&mut ir, OptLevel::O1));
    let armor_out =
        tr.span("armor.run", || armor::run_armor_with(&ir, armor::ArmorConfig::default()));
    let machine =
        tr.span("simx.codegen", || simx::compile_module(&ir, true, &armor_out.die_requests));
    CompiledApp {
        machine: std::sync::Arc::new(machine),
        armor: armor_out,
        opt_level: OptLevel::O1,
        build: care::BuildStats { opt: opt_stats, ..Default::default() },
    }
}

pub fn prepare(tr: &Tracer, p: &Program, app: CompiledApp) -> Campaign {
    tr.span("faultsim.prepare", || Campaign::prepare(p, app, vec![]))
}

/// Translate into a fresh cache: what the first compiled campaign of a
/// process pays.
pub fn translate_cold(tr: &Tracer, app: &CompiledApp) {
    tr.span("simx.translate", || {
        std::hint::black_box(simx::TranslationCache::default().get_or_translate(&app.machine));
    })
}

/// Fill (or hit) the process-wide cache the compiled engine consults.
pub fn translate_shared(tr: &Tracer, app: &CompiledApp) {
    tr.span("simx.translate", || {
        std::hint::black_box(simx::TranslationCache::global().get_or_translate(&app.machine));
    })
}

// ---------------------------------------------------------------------------
// Campaign jobs.

/// The common job shape: O1 app, single-bit, CARE evaluated, app-only,
/// trellis. `shards: None` lets the pool width decide, as the server does.
pub fn job(
    injections: usize,
    seed: u64,
    engine: EngineKind,
    shards: Option<usize>,
    keep_records: bool,
) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed,
        engine,
        cursor_shards: shards,
        keep_records,
        evaluate_care: true,
        app_only: true,
        ..Default::default()
    }
}

pub fn run(tr: &Tracer, c: &Campaign, cfg: &CampaignConfig) -> CampaignReport {
    tr.span("faultsim.run", || c.run(cfg))
}

/// The same run with a telemetry recorder attached (and then dropped: the
/// traced pass wants its cost, not its contents).
pub fn run_recorded(tr: &Tracer, c: &Campaign, cfg: &CampaignConfig) -> CampaignReport {
    tr.span("faultsim.run", || c.run_with_hooks(cfg, &telemetry::Recorder::new()))
}

pub fn counter(t: &TelemetryReport, name: &str) -> u64 {
    t.counters.get(name).copied().unwrap_or(0)
}

pub fn hist_sum(t: &TelemetryReport, name: &str) -> u64 {
    t.hists.get(name).map_or(0, |h| h.sum())
}

pub fn declined(r: &CampaignReport) -> usize {
    r.declines.values().sum()
}

// ---------------------------------------------------------------------------
// Store.

pub fn store_key(tr: &Tracer, p: &Program) -> CampaignKey {
    tr.span("carestore.key", || {
        carestore::campaign_key(&p.module, p.entry, &p.args, &p.outputs, "O1")
    })
}

pub fn store_open(tr: &Tracer, dir: &Path) -> std::io::Result<Store> {
    tr.span("carestore.open", || Store::open(dir))
}

pub fn store_log(store: &Store, key: &CampaignKey) -> PathBuf {
    store.log_path(key)
}

/// One store-backed run under the span `name`; `recorded` attaches a
/// telemetry recorder (the traced pass), otherwise hooks are off.
pub fn store_run(
    tr: &Tracer,
    name: &'static str,
    store: &Store,
    key: &CampaignKey,
    c: &Campaign,
    cfg: &CampaignConfig,
    recorded: bool,
) -> Result<(CampaignReport, StoreStats), String> {
    tr.span(name, || {
        let ctl = faultsim::JobControl::new();
        let run = if recorded {
            store.run_campaign(key, c, cfg, &telemetry::Recorder::new(), &ctl)
        } else {
            store.run_campaign(key, c, cfg, &telemetry::NoTelemetry, &ctl)
        };
        run.map(|r| (r.report, r.stats)).map_err(|e| format!("store run: {e}"))
    })
}

/// A record as the store writes it to its log.
pub fn record_line(index: usize, r: &faultsim::InjectionRecord) -> String {
    let mut line = String::from("{\"kind\":\"record\"");
    carestore::record::push_field_u64(&mut line, "index", index as u64);
    carestore::record::push_record_fields(&mut line, r);
    line.push('}');
    line
}

/// The store's write and read paths taken apart over a log it wrote:
/// decode every record line, encode the records again, append them to a
/// side log, scan that log. Returns the records that made the trip.
pub fn store_replay(tr: &Tracer, log: &Path, cfg: &CampaignConfig) -> Result<usize, String> {
    let io = |e: std::io::Error| format!("store replay: {e}");
    let text = std::fs::read_to_string(log).map_err(io)?;
    let lines: Vec<&str> = text.lines().filter(|l| l.contains("\"kind\":\"record\"")).collect();
    let records = tr.span("carestore.decode", || {
        lines
            .iter()
            .map(|l| parse_json(l).and_then(|v| carestore::record::record_from_json(&v)))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let encoded: Vec<String> = tr.span("carestore.encode", || {
        records.iter().enumerate().map(|(i, r)| record_line(i, r)).collect()
    });
    let side = log.with_extension("replay");
    tr.span("carestore.append", || {
        let w = carestore::LogWriter::open_append(&side)?;
        w.run_header(cfg, "replay");
        encoded.iter().for_each(|l| w.append_line(l));
        w.complete(cfg);
        Ok(())
    })
    .map_err(io)?;
    let sig = carestore::run_signature(cfg);
    let scan = tr.span("carestore.scan", || carestore::scan_log(&side, cfg.model, cfg.seed, &sig));
    let _ = std::fs::remove_file(&side);
    let scan = scan.map_err(io)?;
    if scan.records.len() != records.len() || scan.corrupt != 0 {
        return Err(format!("store replay: {} of {} records scanned", scan.records.len(), records.len()));
    }
    Ok(records.len())
}

// ---------------------------------------------------------------------------
// Server.

/// An in-process server on a free loopback port, admitting two
/// one-thread jobs at a time, no store behind it.
pub fn server_start(tr: &Tracer) -> std::io::Result<ServerHandle> {
    tr.span("careserve.start", || {
        careserve::CampaignServer::start(careserve::ServerConfig {
            budget_cap: 2,
            ..Default::default()
        })
    })
}

/// A job naming a built-in program; empty `params` selects its default size.
pub fn job_spec(
    program: usize,
    params: Vec<i64>,
    seed: u64,
    injections: usize,
    engine: EngineKind,
    records: bool,
    telemetry: bool,
) -> JobSpec {
    JobSpec {
        workload: careserve::WorkloadSel::Named {
            name: PROGRAM_NAMES[program].to_string(),
            params,
        },
        seed,
        injections,
        engine,
        records,
        telemetry,
        threads: 1,
        opt: OptLevel::O1,
        evaluate_care: true,
        app_only: true,
        ..Default::default()
    }
}

/// The local run a served job must equal: same campaign config the server
/// builds from the spec (shard count left to the pool width).
pub fn spec_config(spec: &JobSpec) -> CampaignConfig {
    job(spec.injections, spec.seed, spec.engine, None, spec.records)
}

pub fn spec_program(spec: &JobSpec) -> Result<Program, String> {
    careserve::proto::resolve_workload(&spec.workload)
}

pub fn spec_frame(tr: &Tracer, spec: &JobSpec) -> String {
    tr.span("careserve.spec_encode", || spec.to_frame())
}

pub fn submit(
    tr: &Tracer,
    addr: std::net::SocketAddr,
    spec: &JobSpec,
) -> Result<CampaignReport, String> {
    tr.span("careserve.submit", || {
        careserve::submit(addr, spec).map(|o| o.report).map_err(|e| e.to_string())
    })
}

/// Encode and decode a report as the wire does; `None` if it does not
/// survive the trip.
pub fn report_round_trip(tr: &Tracer, r: &CampaignReport) -> Option<CampaignReport> {
    tr.span("careserve.report_codec", || {
        let frame = careserve::proto::encode_report(1, r);
        let v = careserve::proto::parse_frame(&frame).ok()?;
        careserve::proto::decode_report(&v).ok()
    })
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    telemetry::parse_json(text)
}
