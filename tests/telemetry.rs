//! Integration tests for the telemetry subsystem against a real campaign.
//!
//! The paper's §6 observation — that >98% of each recovery is *preparation*
//! (diagnosis, table decode, kernel load, parameter collection) rather than
//! kernel execution — is checked here as a **measured distribution** pulled
//! out of the telemetry stream of a live HPCCG coverage campaign, not just
//! as cost-model arithmetic (that part is pinned in `safeguard`'s unit
//! tests).

use faultsim::{
    Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel, InjectionRecord, JobControl,
    NoSink, RecordSink,
};
use opt::OptLevel;
use telemetry::{Event, Hooks, NoTelemetry, Recorder, TelemetryReport};

fn traced_hpccg_campaign(injections: usize) -> TelemetryReport {
    traced_hpccg_campaign_engine(injections, EngineKind::Interp)
}

fn traced_hpccg_campaign_engine(injections: usize, engine: EngineKind) -> TelemetryReport {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let rec = Recorder::new();
    campaign.run_with_hooks(
        &CampaignConfig {
            injections,
            model: FaultModel::SingleBit,
            seed: 0xCA2E,
            evaluate_care: true,
            app_only: true,
            engine,
            ..CampaignConfig::default()
        },
        &rec,
    );
    rec.drain()
}

#[test]
fn measured_preparation_fraction_exceeds_95_percent_on_hpccg() {
    let tel = traced_hpccg_campaign(100);
    let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
    let activations = ctr("recovery.activations");
    let recovered = ctr("recovery.recovered");
    assert!(recovered > 0, "campaign produced no recoveries to measure");
    // Activations split exactly into recoveries and declines.
    assert_eq!(activations, recovered + ctr("recovery.declined"));
    let prep =
        tel.hists.get("recovery.prep_bp").expect("per-recovery preparation-fraction histogram");
    assert_eq!(prep.count(), recovered, "one prep sample per successful recovery");
    // Mean and *minimum* of the measured distribution: every single
    // recovery spent >95% of its modelled time preparing (the paper's §6
    // claim is >98% on average; the floor leaves room for tiny kernels).
    assert!(
        prep.mean() / 10_000.0 > 0.95,
        "mean preparation fraction {:.4} <= 0.95",
        prep.mean() / 10_000.0
    );
    assert!(
        prep.min() as f64 / 10_000.0 > 0.90,
        "worst-case preparation fraction {:.4} <= 0.90",
        prep.min() as f64 / 10_000.0
    );
    // The modelled per-phase spans decompose consistently: kernel execution
    // is a sliver of the total.
    let sum = |n: &str| tel.hists.get(n).map_or(0, |h| h.sum());
    let total = sum("recovery.total_ns");
    let kernel = sum("recovery.kernel_ns");
    assert!(total > 0);
    assert!(
        (kernel as f64) < 0.05 * total as f64,
        "kernel execution {kernel}ns is not a sliver of {total}ns"
    );
}

#[test]
fn campaign_jsonl_roundtrips_and_validates() {
    let tel = traced_hpccg_campaign(60);
    let jsonl = tel.to_jsonl();
    let counts = telemetry::validate_jsonl(&jsonl).expect("valid versioned JSONL");
    assert!(counts.get("counter").copied().unwrap_or(0) > 0, "{counts:?}");
    assert!(counts.get("hist").copied().unwrap_or(0) > 0, "{counts:?}");
    // Events are counted under their kind name: one "job" line per
    // classified injection, one "recovery" line per successful recovery.
    assert_eq!(counts.get("job").copied().unwrap_or(0), 60, "{counts:?}");
    assert!(counts.get("recovery").copied().unwrap_or(0) > 0, "{counts:?}");
    // Every line individually parses as a JSON object.
    for line in jsonl.lines() {
        let v = telemetry::JsonRef::parse(line).expect("line parses");
        assert!(v.get("kind").is_some() || v.get("schema_version").is_some());
    }
}

#[test]
fn tlb_hit_rate_is_high_and_consistent() {
    let tel = traced_hpccg_campaign(60);
    let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
    let accesses = ctr("tlb.loads") + ctr("tlb.stores");
    let misses = ctr("tlb.read_misses") + ctr("tlb.write_misses");
    assert!(accesses > 0, "campaign performed no instrumented accesses");
    assert!(misses <= accesses, "more misses than accesses");
    let hit_rate = (accesses - misses) as f64 / accesses as f64;
    // HPCCG streams rows with strong page locality; the 1-entry software
    // TLB should absorb the overwhelming majority of accesses.
    assert!(hit_rate > 0.90, "TLB hit rate {hit_rate:.4} suspiciously low");
}

/// Every campaign runs its golden side — the golden run and the cursor
/// pass — on its own translation, so the interpreter and the compiled run of
/// one campaign report the same `engine.*` translation counters (block, op
/// and fusion statistics) and the same `cursor.*` counters; `cfg.engine`
/// picks only the engine of the injected runs. The simulation-visible
/// counters stay identical either way.
#[test]
fn every_campaign_reports_its_translation_and_cursor_counters_alike() {
    let interp = traced_hpccg_campaign_engine(40, EngineKind::Interp);
    let compiled = traced_hpccg_campaign_engine(40, EngineKind::Compiled);
    let ctr = |t: &TelemetryReport, n: &str| t.counters.get(n).copied().unwrap_or(0);
    let family = |t: &TelemetryReport, prefix: &str| {
        let of = t.counters.iter().filter(|(k, _)| k.starts_with(prefix));
        of.map(|(k, &v)| (k.clone(), v)).collect::<Vec<_>>()
    };
    for prefix in ["engine.", "cursor."] {
        assert_eq!(
            family(&interp, prefix),
            family(&compiled, prefix),
            "{prefix}* counters differ between the engines"
        );
    }
    assert!(ctr(&interp, "engine.ops") > 0, "no translated ops reported");
    assert!(ctr(&interp, "engine.blocks") > 0, "no translated blocks reported");
    assert!(ctr(&interp, "engine.fused_cmp_br") > 0, "HPCCG loops must fuse compare+branch pairs");
    assert!(ctr(&interp, "cursor.window_steps") > 0, "no cursor ran armed");
    // Telemetry is an observer on either backend: the campaign-level step
    // accounting must agree between the engines.
    for key in ["steps.prefix", "steps.suffix", "steps.care", "campaign.classified"] {
        assert_eq!(ctr(&interp, key), ctr(&compiled, key), "{key} diverged between engines");
    }
}

/// The `engine.*` counters describe the campaign's own translation, not
/// process-wide traffic: one compiled campaign run twice, each time under a
/// fresh recorder, reports the same counters both times, although only the
/// first run builds the engine.
#[test]
fn engine_counters_are_the_same_on_every_run_of_a_campaign() {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = CampaignConfig {
        injections: 8,
        seed: 0xCA2E,
        engine: EngineKind::Compiled,
        ..CampaignConfig::default()
    };
    let [first, second] = [(); 2].map(|()| {
        let rec = Recorder::new();
        campaign.run_with_hooks(&cfg, &rec);
        let tel = rec.drain();
        tel.counters.into_iter().filter(|(k, _)| k.starts_with("engine.")).collect::<Vec<_>>()
    });
    assert!(!first.is_empty(), "compiled campaign reported no engine.* counters");
    assert_eq!(first, second, "engine.* counters differ between runs of one campaign");
}

/// At four threads the campaign actually spreads across its work-stealing
/// batches, and the concurrent cursor pass reconciles with the step
/// accounting:
///
/// * at least two telemetry shards (each shard is one thread) carry
///   nonzero `worker.busy_ns` — the suffix/CARE jobs did not all run on
///   the caller;
/// * the per-bracket cursor spans (`cursor.window_steps`, summed over the
///   cursors) equal the campaign's `steps_prefix` exactly — a hop clones
///   its bracket's start and executes nothing, so the instrumented
///   brackets account for every prefix step — and the cursors hopped;
/// * the `trellis.shards` counter agrees with the report's cursor count.
#[test]
fn four_thread_campaign_spreads_work_across_pool_shards() {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let rec = Recorder::new();
    let report = rayon::with_threads(4, || {
        campaign.run_with_hooks(
            &CampaignConfig {
                injections: 80,
                model: FaultModel::SingleBit,
                seed: 0xCA2E,
                evaluate_care: true,
                app_only: true,
                ..CampaignConfig::default()
            },
            &rec,
        )
    });
    let tel = rec.drain();
    let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
    assert!(report.cursor_shards > 1, "the trellis ran a single cursor");
    assert_eq!(ctr("trellis.shards"), report.cursor_shards as u64);
    assert_eq!(
        ctr("cursor.window_steps"),
        report.steps_prefix,
        "per-bracket cursor spans do not reconcile with the prefix step count"
    );
    assert!(ctr("cursor.hops") > 0, "no cursor hopped to a checkpoint");
    let busy_shards = tel
        .per_shard_counters
        .iter()
        .filter(|m| m.get("worker.busy_ns").copied().unwrap_or(0) > 0)
        .count();
    assert!(busy_shards >= 2, "suffix work stayed on {busy_shards} thread(s); pool never engaged");
    assert!(ctr("pool.chunks") > 0, "no chunks went through the work-stealing pool");
}

/// A cursor runs each suffix as its point fires: at width 1, where the
/// cursors run one after another in bracket order, every record reaches the
/// sink after its own point's `trellis.fork` (the last fork heard before it
/// fired at the record's prefix step), so after its bracket's fork and
/// before the next bracket's first.
#[test]
fn each_record_is_heard_after_its_own_fork_and_before_the_next() {
    /// Forks and records in the order heard, each with its prefix step.
    #[derive(Default)]
    struct Heard(std::sync::Mutex<Vec<(&'static str, u64)>>);
    impl Hooks for Heard {
        fn enabled(&self) -> bool {
            true
        }
        fn emit(&self, event: Event) {
            for (name, value) in &event.fields {
                if let ("trellis.fork", "prefix_steps", telemetry::Value::U64(step)) =
                    (event.kind, *name, value)
                {
                    self.0.lock().unwrap().push(("fork", *step));
                }
            }
        }
    }
    impl RecordSink for Heard {
        fn emit(&self, _index: usize, record: &InjectionRecord) {
            self.0.lock().unwrap().push(("record", record.split.prefix));
        }
    }
    let w = workloads::hpccg::build(3, 2);
    let campaign = Campaign::prepare(&w, care::compile(&w.module, OptLevel::O1), vec![]);
    let cfg = CampaignConfig {
        injections: 30,
        evaluate_care: true,
        app_only: true,
        ..CampaignConfig::default()
    };
    let all: Vec<usize> = (0..30).collect();
    let heard = Heard::default();
    let report = rayon::with_threads(1, || {
        campaign.run_selected(&cfg, &all, &heard, &JobControl::new(), &heard)
    });
    assert!(report.cursor_shards > 1, "test premise: more than one bracket");
    let (mut forked, mut records) = (None, 0);
    for (what, step) in heard.0.into_inner().unwrap() {
        if what == "fork" {
            forked = Some(step);
        } else {
            assert_eq!(forked, Some(step), "a record heard away from its fork");
            records += 1;
        }
    }
    assert_eq!(records, report.total());
}

#[test]
fn instruction_mix_and_step_split_cover_the_campaign() {
    let tel = traced_hpccg_campaign(60);
    let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
    // The golden-run instruction mix is recorded post-hoc from the profile;
    // a load-heavy CG solve must show movs and memory traffic.
    assert!(ctr("mix.mov") > 0);
    assert!(ctr("mix.store") > 0);
    assert!(ctr("mix.jnz") > 0, "loops imply conditional jumps");
    // Step-split counters reconcile with the per-job histogram totals.
    let suffix_hist = tel.hists.get("job.suffix_steps").expect("per-job suffix steps");
    assert_eq!(
        ctr("steps.suffix"),
        suffix_hist.sum(),
        "aggregate suffix steps disagree with the per-job distribution"
    );
    assert_eq!(ctr("campaign.injections"), 60);
    // Those are the *attributed* suffix steps. The part of them no engine
    // ran — the rest of each suffix that stopped at the golden state it had
    // re-joined — is counted beside them.
    let (pruned, converged) = (ctr("suffix.pruned_steps"), ctr("suffix.converged"));
    assert!(pruned > 0 && converged > 0, "no HPCCG suffix re-joined the golden run");
    assert!(pruned <= ctr("steps.suffix"), "pruned {pruned} of {}", ctr("steps.suffix"));
    assert!(converged <= ctr("suffix.compares") && converged <= ctr("campaign.classified"));
    // What did run is split by the outcome it ran to.
    let executed: u64 = (tel.counters.iter())
        .filter(|(name, _)| name.starts_with("suffix.executed_steps."))
        .map(|(_, &n)| n)
        .sum();
    assert_eq!(executed + pruned, ctr("steps.suffix"), "executed + pruned != attributed");
    // The CARE steps are split the same way: attributed in `steps.care` and
    // the per-job histogram, the part past the golden state a repaired run
    // re-joined counted beside them.
    assert_eq!(ctr("steps.care"), tel.hists.get("job.care_steps").expect("CARE jobs").sum());
    let (pruned, converged) = (ctr("care.pruned_steps"), ctr("care.converged"));
    assert!(pruned > 0 && converged > 0, "no repaired HPCCG run re-joined the golden run");
    assert!(pruned <= ctr("steps.care"), "pruned {pruned} of {}", ctr("steps.care"));
    assert!(converged <= ctr("care.compares") && converged <= ctr("recovery.recovered"));
}

/// Hooks nobody listens through: `enabled()` is `false` and everything else
/// panics, so one call site that forgot its guard fails the test.
struct Deaf;

impl Hooks for Deaf {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, name: &'static str, _delta: u64) {
        panic!("unguarded add({name:?})")
    }
    fn record(&self, name: &'static str, _value: u64) {
        panic!("unguarded record({name:?})")
    }
    fn emit(&self, event: Event) {
        panic!("unguarded emit({:?})", event.kind)
    }
}

/// Every instrumented entry point under `hooks`: the campaign core with
/// CARE evaluated on both engines (suffix, cursor hop, `resume_protected`,
/// `handle_trap_with_hooks`), a cold then a warm store run and a run on a
/// reopened store, and the cluster simulation with a recovery delay on
/// rank 0.
fn drive_every_instrumented_path(
    hooks: &dyn Hooks,
    tag: &str,
) -> (Vec<CampaignReport>, cluster::JobOutcome) {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let key = carestore::campaign_key(&w.module, w.entry, &w.args, &w.outputs, "O1");
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = |engine| CampaignConfig {
        injections: 80,
        evaluate_care: true,
        app_only: true,
        keep_records: true,
        engine,
        ..CampaignConfig::default()
    };
    let all: Vec<usize> = (0..80).collect();
    let mut reports: Vec<CampaignReport> = [EngineKind::Interp, EngineKind::Compiled]
        .map(|engine| campaign.run_selected(&cfg(engine), &all, hooks, &JobControl::new(), &NoSink))
        .into();
    assert!(reports[0].total_recoveries > 0, "test premise: Safeguard must have repaired a trap");

    let dir = std::env::temp_dir().join(format!("care-telemetry-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = carestore::Store::open(&dir).expect("open store");
    // The third run reads the log through a fresh store, whose scan decodes
    // the lines the first store's cache took as written.
    let reopened = carestore::Store::open(&dir).expect("reopen store");
    for (store, expect_misses) in [(store.clone(), 80), (store, 0), (reopened, 0)] {
        let run = store
            .run_campaign(&key, &campaign, &cfg(EngineKind::Interp), hooks, &JobControl::new())
            .expect("store run");
        assert_eq!(run.stats.misses, expect_misses);
        reports.push(run.report);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A miniMD injection whose repaired run re-joins the golden run at a
    // shifted step: rare (two in `repro --injections 1000 fig7 table2`),
    // so it is driven by index.
    let w = workloads::minimd::default();
    let app = care::compile(&w.module, OptLevel::O1);
    let minimd = Campaign::prepare(&w, app, vec![]);
    let shifted = CampaignConfig { injections: 1000, seed: 0xCA2E, ..cfg(EngineKind::Compiled) };
    reports.push(minimd.run_selected(&shifted, &[387], hooks, &JobControl::new(), &NoSink));

    let cluster_cfg = cluster::ClusterConfig::default();
    let step = cluster_cfg.timesteps / 2;
    let care = cluster::Resilience::Care { events: vec![(step, 40.0)] };
    (reports, cluster::simulate_faulty(&cluster_cfg, step, &care, hooks))
}

/// "Nothing observes when nobody listens", stated once: hooks that answer
/// `enabled() == false` are never called, and what comes back equals the
/// [`NoTelemetry`] run and the [`Recorder`] run — which did hear every path.
#[test]
fn disabled_hooks_are_never_called_and_results_match_either_way() {
    let deaf = drive_every_instrumented_path(&Deaf, "deaf");
    assert_eq!(deaf, drive_every_instrumented_path(&NoTelemetry, "off"));
    let rec = Recorder::new();
    assert_eq!(deaf, drive_every_instrumented_path(&rec, "on"));
    let tel = rec.drain();
    for heard in [
        "campaign.classified",
        "cursor.window_steps",
        "cursor.hops",
        "suffix.pruned_steps",
        "suffix.executed_steps.benign",
        "care.pruned_steps",
        "care.compares",
        "care.converged",
        "suffix.shifted",
        "care.shifted",
        "suffix.shift_searches",
        "suffix.shift_search_steps",
        "worker.busy_ns",
        "recovery.recovered",
        "engine.ops",
        "store.runs",
        "store.decoded_lines",
    ] {
        assert!(tel.counters.get(heard).is_some_and(|&n| n > 0), "{heard} never recorded");
    }
    for kind in ["job", "trellis.fork", "trellis.hop", "recovery", "barrier"] {
        assert!(tel.events.iter().any(|e| e.kind == kind), "no {kind} event emitted");
    }
}

/// A served job is heard in the server's own series: its duration and its
/// completion.
#[test]
fn a_served_job_is_heard_in_the_server_series() {
    let server = careserve::CampaignServer::start(careserve::ServerConfig::default())
        .expect("server starts");
    let spec =
        careserve::JobSpec { injections: 8, records: false, ..careserve::JobSpec::default() };
    careserve::submit(server.addr(), &spec).expect("job runs");
    let tel = server.telemetry();
    assert!(tel.hists.get("server.job_ns").is_some_and(|h| h.count() == 1), "job_ns not heard");
    assert_eq!(tel.counters.get("server.jobs_completed"), Some(&1));
}
